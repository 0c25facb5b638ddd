//! # udp-core
//!
//! Axiomatic foundations and decision procedures for SQL query equivalence,
//! reproducing Chu et al., *"Axiomatic Foundations and Algorithms for
//! Deciding Semantic Equivalences of SQL Queries"* (VLDB 2018).
//!
//! The crate provides:
//!
//! * the **U-semiring** algebraic structure (Def 3.1) with executable models
//!   and an axiom checker ([`semiring`]);
//! * **U-expressions** — the semantics of SQL queries as functions
//!   `Tuple(σ) → U` ([`uexpr`], [`expr`], [`schema`]);
//! * **SPNF**, the sum-product normal form of Theorem 3.4 ([`spnf`]);
//! * **integrity constraints as identities** (Sec 4) and the chase-like
//!   `canonize` procedure of Algorithm 1 ([`constraints`], [`canonize`]);
//! * the **UDP / TDP / SDP** decision procedures of Algorithms 2–4
//!   ([`equiv`], [`hom`], [`congruence`]), SDP testing containment by
//!   homomorphisms without Alg 4's minimization to cores;
//! * the top-level [`decide()`] driver with budgets, proof traces, and
//!   per-run statistics.
//!
//! ```
//! use udp_core::prelude::*;
//!
//! // R(k, a) with key k.
//! let mut catalog = Catalog::new();
//! let sid = catalog
//!     .add_schema(Schema::new("sig", vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)], false))
//!     .unwrap();
//! let r = catalog.add_relation("R", sid).unwrap();
//! let mut cs = ConstraintSet::new();
//! cs.add_key(r, vec!["k".into()]);
//!
//! // SELECT * FROM R  ≡  SELECT * FROM R x, R y WHERE x.k = y.k (project x)
//! let t = VarId(0);
//! let q1 = QueryU::new(t, sid, UExpr::rel(r, Expr::Var(t)));
//! let (x, y) = (VarId(1), VarId(2));
//! let q2 = QueryU::new(t, sid, UExpr::sum_over(
//!     vec![(x, sid), (y, sid)],
//!     UExpr::product(vec![
//!         UExpr::eq(Expr::Var(x), Expr::Var(t)),
//!         UExpr::eq(Expr::var_attr(x, "k"), Expr::var_attr(y, "k")),
//!         UExpr::rel(r, Expr::Var(x)),
//!         UExpr::rel(r, Expr::Var(y)),
//!     ]),
//! ));
//! assert!(decide(&catalog, &cs, &q1, &q2).decision.is_proved());
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod canonize;
pub mod colour;
pub mod congruence;
pub mod constraints;
pub mod ctx;
pub mod decide;
pub mod equiv;
pub mod expr;
pub mod fingerprint;
pub mod hom;
pub mod interp;
pub mod name;
pub mod proof;
pub mod schema;
pub mod semiring;
pub mod spnf;
pub mod trace;
pub mod uexpr;

pub use decide::{decide, decide_with, DecideConfig, Decision, NotProvedReason, QueryU, Verdict};
pub use fingerprint::{canonical_form, fingerprint, Fingerprint};

/// Convenient re-exports of the types most APIs need.
pub mod prelude {
    pub use crate::budget::Budget;
    pub use crate::constraints::{Constraint, ConstraintSet};
    pub use crate::ctx::Options;
    pub use crate::decide::{decide, decide_with, DecideConfig, Decision, QueryU, Verdict};
    pub use crate::expr::{Expr, Pred, Value, VarGen, VarId};
    pub use crate::name::Name;
    pub use crate::schema::{Catalog, RelId, Schema, SchemaId, Ty};
    pub use crate::uexpr::UExpr;
}
