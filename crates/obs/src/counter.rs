//! The counter taxonomy: monotonic event tallies from *inside* the
//! provers, complementing the wall-clock [`crate::Stage`] tables.
//!
//! Stages answer "where did the time go?"; counters answer "what did the
//! algorithm *do* with it?" — how many canonize fixpoint iterations ran,
//! which axiom families fired, how much congruence-closure traffic the
//! rewrites generated, how large the goal's terms were. They share the
//! recorder's cost contract (a disabled handle pays one branch per
//! increment, no atomics), and every counter has exactly one increment
//! site in the workspace, named below, which is what makes totals
//! worker-count-invariant.

use std::fmt;

/// One monotonic profiling counter. Each variant documents its unit and its
/// one increment site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Term nodes interned into a congruence-closure graph
    /// (`udp_core::congruence::Congruence::intern_node`).
    TermNodes,
    /// Canonize fixpoint iterations (`udp_core::canonize::canonize_term`,
    /// one per pass over the rewrite loop).
    CanonizeIters,
    /// Congruence-closure class unions (`Congruence::merge`, counted when
    /// two distinct classes fuse).
    CongruenceUnions,
    /// Congruence-closure root lookups (`Congruence::root`), the find side
    /// of union-find.
    CongruenceFinds,
    /// Eq.(15) variable eliminations (axiom family 5, `canonize_term`).
    RwEq15Elim,
    /// Record-pinning substitutions from unification (`canonize_term`).
    RwRecordPin,
    /// Key-based duplicate-summand removals (Def 4.1, `key_chase_step`).
    RwKeyDedup,
    /// Key-based variable merges (Def 4.1, `key_chase_step`).
    RwKeyMerge,
    /// Foreign-key expansions (Def 4.4, `fk_chase_step`).
    RwFkExpand,
    /// Squash absorptions/flattenings (`‖x‖·x → x` and nested-squash
    /// collapse, `canonize_term`).
    RwSquashFlatten,
    /// Generalized-Theorem-4.3 squash introductions (`canonize_term`).
    RwSquashIntro,
    /// Bytes of canonical forms rendered for goals: the cache key and the
    /// identity-shortcut test (`udp_service` `process_goal`).
    FingerprintBytes,
    /// Verdict-cache probes (`udp_service` `process_goal`).
    CacheProbes,
    /// Summed LRU recency depth of cache hits (0 = hit at the
    /// most-recently-used slot; divide by hits for the mean depth).
    CacheHitDepth,
    /// Deep size in bytes (`UExpr::deep_size`) of the lowered U-expression
    /// pair, summed per goal (`udp_service` `process_goal`).
    TermBytes,
    /// Deep size in bytes (`Nf::deep_size`) of the canonical SPNF pair,
    /// summed per goal (same single writer as `term-bytes`).
    SpnfBytes,
    /// Verdict-cache resident bytes — a *gauge* (last stored value, not a
    /// monotone tally), set under the cache lock after every insert/evict
    /// (`udp_service` `process_goal`).
    CacheResidentBytes,
    /// Prover panics contained at the backend boundary
    /// (`udp_solve::solve_normalized`). Includes chaos-injected panics and
    /// real defects alike.
    BackendFault,
    /// Goals whose report was aborted — worker panic or contained prover
    /// panic — rather than decided
    /// (`udp_service::Session::close_goal`).
    GoalAborted,
    /// Fault actions fired by the chaos injector
    /// (`crate::fault::FaultInjector::fire`): panics, forced exhaustions,
    /// and delays combined.
    FaultsInjected,
    /// Goals proved by the identity shortcut — two sides with one canonical
    /// form, decided without canonizing or searching
    /// (`udp_solve::solve_normalized`).
    IdentityProved,
    /// Candidate bijections an isomorphism search checked in full: one per
    /// Iso-mode `udp_core::hom::Matcher::verify` call, the matcher's unit of
    /// work.
    IsoCandidates,
    /// Candidate mappings a homomorphism search checked in full (squash
    /// absorption, SDP containment): one per Hom-mode
    /// `udp_core::hom::Matcher::verify` call.
    HomCandidates,
}

impl Counter {
    /// Number of counters (the recorder's fixed-size counter table).
    pub const COUNT: usize = 23;

    /// Every counter; index in this array == `as_index`.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::TermNodes,
        Counter::CanonizeIters,
        Counter::CongruenceUnions,
        Counter::CongruenceFinds,
        Counter::RwEq15Elim,
        Counter::RwRecordPin,
        Counter::RwKeyDedup,
        Counter::RwKeyMerge,
        Counter::RwFkExpand,
        Counter::RwSquashFlatten,
        Counter::RwSquashIntro,
        Counter::FingerprintBytes,
        Counter::CacheProbes,
        Counter::CacheHitDepth,
        Counter::TermBytes,
        Counter::SpnfBytes,
        Counter::CacheResidentBytes,
        Counter::BackendFault,
        Counter::GoalAborted,
        Counter::FaultsInjected,
        Counter::IdentityProved,
        Counter::IsoCandidates,
        Counter::HomCandidates,
    ];

    /// Dense index for table lookups: the declaration order, which
    /// [`Counter::ALL`] lists.
    pub fn as_index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable name (metrics JSON, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TermNodes => "term-nodes",
            Counter::CanonizeIters => "canonize-iters",
            Counter::CongruenceUnions => "congruence-unions",
            Counter::CongruenceFinds => "congruence-finds",
            Counter::RwEq15Elim => "rw-eq15-elim",
            Counter::RwRecordPin => "rw-record-pin",
            Counter::RwKeyDedup => "rw-key-dedup",
            Counter::RwKeyMerge => "rw-key-merge",
            Counter::RwFkExpand => "rw-fk-expand",
            Counter::RwSquashFlatten => "rw-squash-flatten",
            Counter::RwSquashIntro => "rw-squash-intro",
            Counter::FingerprintBytes => "fingerprint-bytes",
            Counter::CacheProbes => "cache-probes",
            Counter::CacheHitDepth => "cache-hit-depth",
            Counter::TermBytes => "term-bytes",
            Counter::SpnfBytes => "spnf-bytes",
            Counter::CacheResidentBytes => "cache-resident-bytes",
            Counter::BackendFault => "backend-fault",
            Counter::GoalAborted => "goal-aborted",
            Counter::FaultsInjected => "faults-injected",
            Counter::IdentityProved => "identity-proved",
            Counter::IsoCandidates => "iso-candidates",
            Counter::HomCandidates => "hom-candidates",
        }
    }

    /// Parse a stable name back into a counter (JSON round-trips, the
    /// prof-diff tool's `--inflate` flag).
    pub fn parse(s: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Is this counter a gauge — a last-stored level rather than a
    /// monotone tally? Gauges can decrease, so delta-based consumers (the
    /// bench's per-family sweep) must not subtract successive readings.
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::CacheResidentBytes)
    }

    /// Is this counter's total deterministic for a fixed goal set — i.e.
    /// independent of worker count, machine speed, and scheduling?
    /// Cache-order-dependent depths, gauges whose level depends on
    /// eviction interleaving, and the fault family (which goals a chaos
    /// schedule degrades shifts with cache state) are excluded; everything
    /// else is pinned across 1/2/4 workers by the service metrics test.
    pub fn is_deterministic(self) -> bool {
        !self.is_gauge()
            && !matches!(
                self,
                Counter::CacheHitDepth
                    | Counter::BackendFault
                    | Counter::GoalAborted
                    | Counter::FaultsInjected
            )
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_agree_with_all() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.as_index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::parse(c.name()), Some(c));
        }
        assert_eq!(Counter::parse("nosuch"), None);
    }

    #[test]
    fn deterministic_excludes_cache_depth_gauges_and_faults() {
        assert!(Counter::CanonizeIters.is_deterministic());
        assert!(Counter::TermBytes.is_deterministic());
        assert!(Counter::SpnfBytes.is_deterministic());
        assert!(Counter::IdentityProved.is_deterministic());
        assert!(Counter::IsoCandidates.is_deterministic());
        assert!(Counter::HomCandidates.is_deterministic());
        assert!(!Counter::CacheHitDepth.is_deterministic());
        assert!(!Counter::CacheResidentBytes.is_deterministic());
        assert!(!Counter::BackendFault.is_deterministic());
        assert!(!Counter::GoalAborted.is_deterministic());
        assert!(!Counter::FaultsInjected.is_deterministic());
    }

    #[test]
    fn the_only_gauge_is_cache_residency() {
        let gauges: Vec<Counter> = Counter::ALL.into_iter().filter(|c| c.is_gauge()).collect();
        assert_eq!(gauges, [Counter::CacheResidentBytes]);
    }
}
