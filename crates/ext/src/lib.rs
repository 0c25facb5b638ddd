//! # udp-ext
//!
//! The fragment-extension subsystem: compiles the full SQL dialect's
//! out-of-fragment constructs — NULL semantics, `IS [NOT] NULL`, outer
//! joins, implicit `ELSE NULL`, stripped `ORDER BY` — down to the core
//! U-semiring fragment, plugging in between `udp-sql` parsing and lowering:
//!
//! ```text
//! parse (Dialect::Full) ──► eliminate outer joins ──► 3VL-encode ──► lower
//!                           (crate::outer)            (crate::encode)
//! ```
//!
//! * **Nullable-value encoding** — nullable columns (declared `a:int?`, or
//!   produced by NULL padding) range over a tagged domain with a
//!   distinguished NULL constant ([`udp_core::expr::Value::Null`]);
//!   `IS [NOT] NULL` becomes the tag-equality atom, and comparisons over
//!   nullable operands get three-valued lifting ([`encode`]).
//! * **Outer-join rewriting** — `LEFT`/`RIGHT`/`FULL JOIN … ON p` becomes
//!   the inner-join branch plus `not(squash(Σ …))`-guarded antijoin
//!   branches padded with NULL tags ([`outer`]), per SPES's normalization.
//! * `CASE`, set-semantics `UNION`/`INTERSECT`, `VALUES`, and
//!   `NATURAL JOIN` already lower via the extended dialect; this crate
//!   additionally compiles `CASE` *inside predicates* to its guarded
//!   disjunction with correct 3VL branch selection.
//!
//! The result is plain extended-fragment AST: [`udp_sql::lower_query`]
//! lowers it unchanged, every proof-side artifact (SPNF, canonization,
//! fingerprints, proof traces) works as before, and the `udp-eval` oracle —
//! which evaluates the *original* query under native SQL 3VL semantics —
//! cross-checks the encoding concretely.

#![warn(missing_docs)]

pub mod encode;
pub mod outer;
pub mod shape;

use std::fmt;
use udp_core::name::Name;
use udp_sql::ast::Query;
use udp_sql::{Frontend, VerifyError};

/// Errors from the extension desugaring.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtError {
    /// Reference to an undeclared table or view.
    UnknownTable(String),
    /// A construct combination outside the encoding's reach.
    Unsupported(String),
}

impl fmt::Display for ExtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtError::UnknownTable(t) => write!(f, "unknown table or view `{t}`"),
            ExtError::Unsupported(m) => write!(f, "unsupported by udp-ext: {m}"),
        }
    }
}

impl std::error::Error for ExtError {}

/// The one place that decides a rejection's kind: an unencodable construct
/// puts the program outside the supported fragment, an unknown table is an
/// error.
impl From<ExtError> for VerifyError {
    fn from(e: ExtError) -> Self {
        match e {
            ExtError::Unsupported(_) => VerifyError::Unsupported(e.to_string()),
            ExtError::UnknownTable(_) => VerifyError::Desugar(e.to_string()),
        }
    }
}

/// Desugar one query: outer joins eliminated, predicates 3VL-encoded. The
/// result is extended-fragment AST that lowers unchanged.
pub fn desugar_query(fe: &Frontend, q: &Query) -> Result<Query, ExtError> {
    // Single global writer for the `desugar` stage (one record per query,
    // two per goal); the frontend's default recorder is disabled and free.
    let _span = fe.recorder.span(udp_obs::Stage::Desugar);
    let eliminated = outer::eliminate(fe, q)?;
    encode::encode_query(fe, &eliminated)
}

/// Desugar a goal pair against a prepared frontend (read-only: shapes come
/// from the catalog; no anonymous schemas are added at the AST level).
pub fn desugar_goal(fe: &Frontend, goal: &(Query, Query)) -> Result<(Query, Query), ExtError> {
    Ok((desugar_query(fe, &goal.0)?, desugar_query(fe, &goal.1)?))
}

/// Desugar every view body in place (views may use the full dialect too).
pub fn desugar_views(fe: &mut Frontend) -> Result<(), ExtError> {
    let names: Vec<Name> = fe.views.keys().cloned().collect();
    for name in names {
        let body = fe.views[&name].clone();
        let desugared = desugar_query(fe, &body)?;
        fe.views.insert(name, desugared);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_sql::{parse_query_with, Dialect};

    const DDL: &str = "schema rs(k:int, a:int?);\nschema ss(k:int, b:int);\n\
                       table r(rs);\ntable s(ss);";

    fn prep(ddl: &str) -> Frontend {
        udp_sql::prepare_program_in(ddl, Dialect::Full).unwrap()
    }

    fn desugared_sql(fe: &Frontend, sql: &str) -> String {
        let q = parse_query_with(sql, Dialect::Full).unwrap();
        udp_sql::pretty::query_to_sql(&desugar_query(fe, &q).unwrap())
    }

    #[test]
    fn is_null_on_non_nullable_column_is_false() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT * FROM r x WHERE x.k IS NULL");
        assert!(out.contains("WHERE FALSE"), "{out}");
    }

    #[test]
    fn is_null_on_nullable_column_survives() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT * FROM r x WHERE x.a IS NULL");
        assert!(out.contains("x.a IS NULL"), "{out}");
    }

    #[test]
    fn comparison_on_nullable_column_gets_guard() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT * FROM r x WHERE x.a = 1");
        assert!(out.contains("x.a IS NOT NULL"), "{out}");
        assert!(out.contains("x.a = 1"), "{out}");
    }

    #[test]
    fn comparison_on_non_nullable_column_is_untouched() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT * FROM r x WHERE x.k = 1");
        assert_eq!(out, "SELECT * FROM r x WHERE x.k = 1");
    }

    #[test]
    fn null_literal_comparison_is_false() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT * FROM r x WHERE x.k = NULL");
        assert!(out.contains("WHERE FALSE"), "{out}");
    }

    #[test]
    fn negated_comparison_uses_kleene_false_form() {
        let fe = prep(DDL);
        // NOT (a = 1) is true only when a is non-NULL and a <> 1.
        let out = desugared_sql(&fe, "SELECT * FROM r x WHERE NOT (x.a = 1)");
        assert!(out.contains("x.a IS NOT NULL"), "{out}");
        assert!(out.contains("x.a <> 1"), "{out}");
        assert!(!out.contains("NOT ("), "NOT pushed to atoms: {out}");
    }

    #[test]
    fn left_join_desugars_to_union_all_with_antijoin() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT x.k AS k FROM r x LEFT JOIN s y ON x.k = y.k");
        assert!(out.contains("UNION ALL"), "{out}");
        assert!(out.contains("NOT (EXISTS"), "{out}");
        assert!(out.contains("SELECT NULL AS k, NULL AS b"), "{out}");
    }

    #[test]
    fn full_join_emits_both_antijoin_branches() {
        let fe = prep(DDL);
        let out = desugared_sql(&fe, "SELECT x.k AS k FROM r x FULL JOIN s y ON x.k = y.k");
        assert_eq!(out.matches("UNION ALL").count(), 2, "{out}");
    }

    #[test]
    fn desugared_outer_join_lowers() {
        let mut fe = prep(&format!(
            "{DDL}\nverify SELECT x.k AS k FROM r x LEFT JOIN s y ON x.k = y.k == \
             SELECT x.k AS k FROM r x;"
        ));
        let goal = desugar_goal(&fe, &fe.goals[0]).unwrap();
        let (q1, _q2) = udp_sql::lower_goal(&mut fe, &goal).unwrap();
        let rendered = format!("{}", q1.body);
        assert!(
            rendered.contains("not("),
            "antijoin lowered via not: {rendered}"
        );
    }

    #[test]
    fn on_condition_referencing_sibling_alias_is_rejected() {
        // `w` is a sibling FROM item outside the x-y join pair: the oracle
        // cannot evaluate the ON pairwise, so the desugaring rejects it too.
        let fe = prep(DDL);
        let q = parse_query_with(
            "SELECT x.k AS k FROM s w, r x LEFT JOIN s y ON x.k = y.k AND w.k = y.k",
            Dialect::Full,
        )
        .unwrap();
        assert!(matches!(
            desugar_query(&fe, &q),
            Err(ExtError::Unsupported(_))
        ));
        // Chained joins may reference any alias inside the joined tree.
        let q = parse_query_with(
            "SELECT x.k AS k FROM r x LEFT JOIN s y ON x.k = y.k \
             LEFT JOIN s z ON x.k = z.k",
            Dialect::Full,
        )
        .unwrap();
        assert!(desugar_query(&fe, &q).is_ok());
    }

    #[test]
    fn aggregates_over_outer_joins_are_rejected() {
        let fe = prep(DDL);
        let q = parse_query_with(
            "SELECT COUNT(*) AS n FROM r x LEFT JOIN s y ON x.k = y.k",
            Dialect::Full,
        )
        .unwrap();
        assert!(matches!(
            desugar_query(&fe, &q),
            Err(ExtError::Unsupported(_))
        ));
    }

    #[test]
    fn case_without_else_encodes_null_arm() {
        let fe = prep(DDL);
        // Implicit ELSE NULL: `CASE WHEN k = 1 THEN 1 END = 1` can only be
        // true via the first branch.
        let out = desugared_sql(
            &fe,
            "SELECT * FROM r x WHERE CASE WHEN x.k = 1 THEN 1 END = 1",
        );
        assert!(out.contains("x.k = 1"), "{out}");
        assert!(!out.contains("NULL = 1"), "NULL arm folded away: {out}");
    }
}
