//! # udp-fuzz
//!
//! Metamorphic query-pair fuzzing for the whole UDP pipeline.
//!
//! The fixed corpus pins down 102 known rewrites; this crate generates an
//! unbounded stream of fresh ones. Each case builds a random catalog
//! ([`catalog`]) and a random query ([`gen`]), then derives a partner query
//! by either a **semantics-preserving rewrite** ([`rewrite`] — the pair is
//! equivalent by construction) or a **bug-injecting mutation** ([`mutate`]
//! — the pair is expected inequivalent). The pair is cross-checked three
//! ways ([`harness`]):
//!
//! * the **prover** (`udp_core::decide`) against the metamorphic label,
//! * the **bag-semantics oracle** (`udp_eval::find_counterexample_seeded`)
//!   as concrete ground truth,
//! * the **service layer** (`udp_service::Session`) for cached/uncached
//!   verdict parity and canonical-fingerprint stability.
//!
//! Any disagreement is minimized by a greedy AST shrinker ([`shrink`])
//! before being reported with its reproduction seed. The `udp-fuzz` binary
//! drives a campaign: `udp-fuzz --seed 42 --cases 500`.

#![warn(missing_docs)]

pub mod catalog;
pub mod gen;
pub mod harness;
pub mod mutate;
pub mod rewrite;
pub mod shrink;

pub use catalog::{random_ddl, random_frontend, SchemaProfile};
pub use gen::{GenProfile, QueryGen};
pub use harness::{draw_case, run, run_case, Case, Failure, FailureKind, FuzzConfig, FuzzStats};
pub use mutate::Mutation;
pub use rewrite::Rewrite;
pub use shrink::{node_count, shrink_candidates, shrink_pair};
