//! # udp-eval
//!
//! Concrete bag-semantics evaluation for the supported SQL fragment:
//!
//! * [`db`] — database instances (bags of rows) and result bags;
//! * [`eval`] — the reference evaluator (the ℕ-model counterpart of the
//!   U-semiring semantics);
//! * [`gen`] — random constraint-satisfying database generation;
//! * [`counterexample`] — the bounded model checker that refutes buggy
//!   rewrites (companion of UDP per the authors' prior work \[21\]; exposes
//!   the COUNT bug of the Bugs dataset).

#![warn(missing_docs)]

pub mod counterexample;
pub mod db;
pub mod eval;
pub mod gen;

pub use counterexample::{
    check_program, check_program_in, check_program_in_with, differs_on, find_counterexample,
    find_counterexample_seeded, find_counterexample_with, CounterExample, SearchResult,
};
pub use db::{Database, ResultBag, Row, Table};
pub use eval::{eval_query, EvalError};
pub use gen::{random_database, seeded_rng, GenConfig};
