//! SQL features outside the supported fragment (Sec 6.4).
//!
//! The paper's prototype rejects CASE, set-semantics UNION, NULL,
//! PARTITION BY, and outer joins; the remaining Calcite rules use at least
//! one of these. We classify rejected inputs by feature so the Fig 5
//! "supported" column can be reproduced and characterized.

use std::fmt;

/// A recognized-but-unsupported SQL feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Feature {
    /// NULL literals, IS \[NOT\] NULL.
    Null,
    /// CASE WHEN … expressions.
    Case,
    /// LEFT/RIGHT/FULL OUTER JOIN.
    OuterJoin,
    /// UNION under set semantics (without ALL). Could be rewritten as
    /// `DISTINCT (… UNION ALL …)` — Sec 6.4 — but the prototype rejects it,
    /// as the paper's does.
    SetUnion,
    /// INTERSECT / INTERSECT ALL.
    Intersect,
    /// ORDER BY / LIMIT / FETCH.
    OrderBy,
    /// Window functions (OVER / PARTITION BY).
    Window,
    /// VALUES constructors.
    Values,
    /// WITH (common table expressions).
    With,
    /// NATURAL JOIN (paper dialect only; the extended dialect desugars it
    /// into explicit equality predicates on shared columns).
    NaturalJoin,
}

impl Feature {
    /// Stable human-readable name (used in rejection messages and Fig 5
    /// bucketing).
    pub fn name(self) -> &'static str {
        match self {
            Feature::Null => "NULL semantics",
            Feature::Case => "CASE expressions",
            Feature::OuterJoin => "outer joins",
            Feature::SetUnion => "UNION (set semantics)",
            Feature::Intersect => "INTERSECT",
            Feature::OrderBy => "ORDER BY / LIMIT",
            Feature::Window => "window functions",
            Feature::Values => "VALUES",
            Feature::With => "WITH (CTEs)",
            Feature::NaturalJoin => "NATURAL JOIN",
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Feature::Null.name(), "NULL semantics");
        assert_eq!(Feature::SetUnion.to_string(), "UNION (set semantics)");
    }
}
