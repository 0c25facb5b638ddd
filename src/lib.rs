//! # udp — U-semiring SQL equivalence prover
//!
//! A from-scratch Rust reproduction of *"Axiomatic Foundations and
//! Algorithms for Deciding Semantic Equivalences of SQL Queries"*
//! (Chu, Murphy, Roesch, Cheung, Suciu — VLDB 2018).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`udp-core`) — U-semiring models, U-expressions, SPNF,
//!   integrity-constraint identities, and the UDP/TDP/SDP decision
//!   procedures;
//! * [`sql`] (`udp-sql`) — parser, catalog, GROUP BY desugaring, and
//!   lowering to U-expressions;
//! * [`eval`] (`udp-eval`) — reference bag-semantics evaluator, random
//!   database generation, and the counterexample-hunting model checker;
//! * [`corpus`] (`udp-corpus`) — the evaluation corpus (Literature /
//!   Calcite / Bugs rewrite rules);
//! * [`service`] (`udp-service`) — the verification [`Session`], through
//!   which every verdict is reached.
//!
//! ## Quick start
//!
//! ```
//! let program = "
//!     schema s(k:int, a:int);
//!     table r(s);
//!     key r(k);
//!     verify
//!     SELECT DISTINCT * FROM r x
//!     ==
//!     SELECT * FROM r x;
//! ";
//! let reports = udp::verify(program).unwrap();
//! assert!(reports[0].verdict().unwrap().decision.is_proved());
//! ```

pub use udp_core as core;
pub use udp_corpus as corpus;
pub use udp_eval as eval;
pub use udp_service as service;
pub use udp_sql as sql;

pub use udp_core::{Decision, Verdict};
pub use udp_service::{GoalReport, Session, SessionConfig};
pub use udp_sql::VerifyError;

/// Verify every `verify` goal of a paper-dialect program on a default
/// [`Session`] (30 s / 20M-step budget per goal).
pub fn verify(program: &str) -> Result<Vec<GoalReport>, VerifyError> {
    Ok(Session::new(program, SessionConfig::default())?.verify_program_goals())
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_verify_round_trip() {
        let results = crate::verify(
            "schema s(a:int);\ntable r(s);\n\
             verify SELECT * FROM r x == SELECT * FROM r y;",
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].verdict().unwrap().decision.is_proved());
    }
}
