//! The stage taxonomy of the verification pipeline.
//!
//! A [`Stage`] names one phase of the end-to-end goal path. Stages come in
//! two flavors:
//!
//! * **goal-path stages** ([`Stage::in_goal_path`] = `true`) partition the
//!   wall time of one goal as seen by `udp-service`'s `process_goal`:
//!   desugar → lower → normalize (SPNF) → fingerprint → cache lookup →
//!   proving. Their
//!   shares may be summed — the instrumentation records each exactly once
//!   per occurrence, from exactly one layer — and the sum over goal wall
//!   time is the snapshot's *coverage*;
//! * **detail stages** (`in_goal_path` = `false`) either run outside the
//!   per-goal window (program/goal-line parsing, scheduler queue wait, the
//!   counterexample hunt) or are *nested* inside a goal-path stage (the
//!   core canonization and congruence-closure passes run inside the prove
//!   stage). Their shares are reported against the same goal-wall
//!   denominator but must not be added to the coverage sum — they overlap.

use std::fmt;

/// One phase of the verification pipeline. See the module docs for the
/// goal-path / detail split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// SQL text → AST (program DDL or a protocol goal line).
    Parse,
    /// Full-dialect desugaring: outer-join elimination + 3VL encoding
    /// (`udp-ext`; a no-op outside `Dialect::Full`).
    Desugar,
    /// AST → U-expression lowering (`udp-sql`).
    Lower,
    /// SPNF normalization of the lowered goal pair (`normalize_pair`) —
    /// the shared normal forms feeding the cache key and the prover.
    Normalize,
    /// Canonical-form rendering + 128-bit fingerprinting (cache keys).
    Fingerprint,
    /// Verdict-cache probe.
    CacheLookup,
    /// The UDP decision procedure.
    UdpProve,
    /// Counterexample database search (`udp-eval`, `--counterexample`).
    Counterexample,
    /// Scheduler wait: batch submission → a worker picking the goal up.
    QueueWait,
    /// *Nested*: `canonize_nf` term rewriting inside the prove stage.
    CanonizeCore,
    /// *Nested*: congruence-closure construction inside canonization and
    /// term matching.
    Congruence,
}

impl Stage {
    /// Number of stages (the recorder's fixed-size aggregation tables).
    pub const COUNT: usize = 11;

    /// Every stage, in pipeline order. Index in this array == `as_index`.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::Desugar,
        Stage::Lower,
        Stage::Normalize,
        Stage::Fingerprint,
        Stage::CacheLookup,
        Stage::UdpProve,
        Stage::Counterexample,
        Stage::QueueWait,
        Stage::CanonizeCore,
        Stage::Congruence,
    ];

    /// Dense index for table lookups.
    pub fn as_index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Desugar => 1,
            Stage::Lower => 2,
            Stage::Normalize => 3,
            Stage::Fingerprint => 4,
            Stage::CacheLookup => 5,
            Stage::UdpProve => 6,
            Stage::Counterexample => 7,
            Stage::QueueWait => 8,
            Stage::CanonizeCore => 9,
            Stage::Congruence => 10,
        }
    }

    /// Stable machine-readable name (metrics JSON, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Desugar => "desugar",
            Stage::Lower => "lower",
            Stage::Normalize => "normalize",
            Stage::Fingerprint => "fingerprint",
            Stage::CacheLookup => "cache-lookup",
            Stage::UdpProve => "udp-prove",
            Stage::Counterexample => "counterexample-search",
            Stage::QueueWait => "queue-wait",
            Stage::CanonizeCore => "canonize-core",
            Stage::Congruence => "congruence",
        }
    }

    /// Parse a stable name back into a stage (the JSON round-trip tests).
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }

    /// Is this one of the non-overlapping per-goal stages whose shares sum
    /// to the snapshot's coverage? (See the module docs.)
    pub fn in_goal_path(self) -> bool {
        matches!(
            self,
            Stage::Desugar
                | Stage::Lower
                | Stage::Normalize
                | Stage::Fingerprint
                | Stage::CacheLookup
                | Stage::UdpProve
        )
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_agree_with_all() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.as_index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        assert_eq!(Stage::parse("nosuch"), None);
    }

    #[test]
    fn goal_path_stages_are_the_exclusive_partition() {
        let path: Vec<Stage> = Stage::ALL
            .into_iter()
            .filter(|s| s.in_goal_path())
            .collect();
        assert_eq!(path.len(), 6);
        assert!(!Stage::Parse.in_goal_path());
        assert!(!Stage::QueueWait.in_goal_path());
        assert!(!Stage::Congruence.in_goal_path());
    }
}
