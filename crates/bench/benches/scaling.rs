//! Scaling characterization of the isomorphism search — the mechanism behind
//! the paper's one timed-out Calcite pair (Sec 6.2: "two very long queries",
//! no result after 30 minutes).
//!
//! Cyclic self-join patterns drive the variable-bijection search of TDP
//! toward its factorial worst case unless colour refinement (1-WL over the
//! equality classes, in `udp-core`) tells the variables apart:
//!
//! * `cycle-match/N` — an N-cycle self join against a rotated alias clone:
//!   provable, and the atom-guided search finds the rotation quickly.
//! * `cycle-mismatch/N` — an N-cycle against two N/2-cycles, each anchored
//!   to the output: *not* equivalent, and the anchor's class differs in
//!   size between the sides, so refinement refutes the pair before any
//!   search.
//! * `budgeted-timeout-12` — a 12-cycle against two 6-cycles with no
//!   anchor: every variable on both sides gets the same colour, so the
//!   search must exhaust its pairings and runs out of budget, like the
//!   paper's timed-out pair.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use udp_core::budget::Budget;
use udp_core::constraints::ConstraintSet;
use udp_core::ctx::Ctx;
use udp_core::equiv::udp_equiv;
use udp_core::expr::{Expr, VarGen, VarId};
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::spnf::normalize_with;
use udp_core::uexpr::UExpr;

fn setup() -> (Catalog, ConstraintSet, SchemaId, RelId) {
    let mut catalog = Catalog::new();
    let s = catalog
        .add_schema(Schema::new(
            "s",
            vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
            false,
        ))
        .unwrap();
    let r = catalog.add_relation("R", s).unwrap();
    (catalog, ConstraintSet::new(), s, r)
}

/// One cycle of length `n` starting at variable id `base`:
/// Σ ∏ᵢ R(xᵢ) × [xᵢ.a = x_{i+1 mod n}.k], anchored to the output on x₀
/// when `anchored`.
fn cycle(n: u32, base: u32, sid: SchemaId, r: RelId, anchored: bool) -> UExpr {
    let var = |i: u32| VarId(base + (i % n));
    let mut factors = Vec::new();
    if anchored {
        factors.push(UExpr::eq(
            Expr::var_attr(VarId(0), "a"),
            Expr::var_attr(var(0), "a"),
        ));
    }
    let mut vars = Vec::new();
    for i in 0..n {
        vars.push((var(i), sid));
        factors.push(UExpr::rel(r, Expr::Var(var(i))));
        factors.push(UExpr::eq(
            Expr::var_attr(var(i), "a"),
            Expr::var_attr(var(i + 1), "k"),
        ));
    }
    UExpr::sum_over(vars, UExpr::product(factors))
}

/// Two disjoint cycles of length `n/2` each (same atom count and schema
/// multiset as one `n`-cycle — every cheap pruning test passes).
fn two_half_cycles(n: u32, base: u32, sid: SchemaId, r: RelId) -> UExpr {
    let half = n / 2;
    UExpr::mul(
        cycle(half, base, sid, r, true),
        cycle(n - half, base + half, sid, r, true),
    )
}

fn bench_cycle_match(c: &mut Criterion) {
    let (catalog, cs, sid, r) = setup();
    for n in [4u32, 6, 8, 10] {
        let e1 = cycle(n, 1, sid, r, true);
        let e2 = cycle(n, 101, sid, r, true); // alias-renamed rotation
        c.bench_function(&format!("scaling/cycle-match-{n}"), |b| {
            b.iter(|| {
                let mut ctx =
                    Ctx::new(&catalog, &cs).with_budget(Budget::new(Some(200_000_000), None));
                let mut gen = VarGen::above(1000);
                let n1 = normalize_with(&e1, &mut gen);
                let n2 = normalize_with(&e2, &mut gen);
                ctx.gen = gen;
                assert!(udp_equiv(&mut ctx, &n1, &n2, &[]).unwrap());
            })
        });
    }
}

fn bench_cycle_mismatch(c: &mut Criterion) {
    let (catalog, cs, sid, r) = setup();
    for n in [4u32, 6, 8] {
        let e1 = cycle(n, 1, sid, r, true);
        let e2 = two_half_cycles(n, 101, sid, r);
        c.bench_function(&format!("scaling/cycle-mismatch-{n}"), |b| {
            b.iter(|| {
                let mut ctx =
                    Ctx::new(&catalog, &cs).with_budget(Budget::new(Some(200_000_000), None));
                let mut gen = VarGen::above(1000);
                let n1 = normalize_with(&e1, &mut gen);
                let n2 = normalize_with(&e2, &mut gen);
                ctx.gen = gen;
                // Cₙ ≠ C_{n/2} × C_{n/2}; refinement refutes it.
                assert!(!udp_equiv(&mut ctx, &n1, &n2, &[]).unwrap());
            })
        });
    }
}

/// The budget mechanism that turns the factorial exhaustion into the paper's
/// clean 30-minute timeout: measure time-to-exhaustion at a fixed step cap,
/// on an unanchored pair that refinement cannot split.
fn bench_budgeted_timeout(c: &mut Criterion) {
    let (catalog, cs, sid, r) = setup();
    let e1 = cycle(12, 1, sid, r, false);
    let e2 = UExpr::mul(cycle(6, 101, sid, r, false), cycle(6, 107, sid, r, false));
    c.bench_function("scaling/budgeted-timeout-12", |b| {
        b.iter(|| {
            let mut ctx = Ctx::new(&catalog, &cs).with_budget(Budget::steps(300_000));
            let mut gen = VarGen::above(1000);
            let n1 = normalize_with(&e1, &mut gen);
            let n2 = normalize_with(&e2, &mut gen);
            ctx.gen = gen;
            // Exhausts the budget rather than returning a verdict.
            assert!(black_box(udp_equiv(&mut ctx, &n1, &n2, &[])).is_err());
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cycle_match, bench_cycle_mismatch, bench_budgeted_timeout
}
criterion_main!(benches);
