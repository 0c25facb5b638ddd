//! Fault containment at the proving step: an injected prover panic is
//! caught at the backend boundary (never escaping `solve_normalized`) and
//! yields an error rather than a verdict, a forced exhaustion ends the goal
//! `Timeout`, and a tight step cap trips as a `Steps` exhaustion.

use udp_core::budget::Exhausted;
use udp_core::constraints::ConstraintSet;
use udp_core::expr::{Expr, VarId};
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::spnf::normalize;
use udp_core::uexpr::UExpr;
use udp_core::{Decision, Verdict};
use udp_obs::{install_chaos_panic_silencer, FaultInjector, FaultPlan};
use udp_solve::{solve_normalized, Goal, SolveConfig, SolveMode};

fn v(i: u32) -> VarId {
    VarId(i)
}

struct Fixture {
    catalog: Catalog,
    cs: ConstraintSet,
    r: RelId,
    sid: SchemaId,
}

fn fixture() -> Fixture {
    let mut catalog = Catalog::new();
    let sid = catalog
        .add_schema(Schema::new(
            "s",
            vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
            false,
        ))
        .unwrap();
    let r = catalog.add_relation("R", sid).unwrap();
    Fixture {
        catalog,
        cs: ConstraintSet::new(),
        r,
        sid,
    }
}

/// `Σ_x [x = out] R(x) × R(y)` vs its commuted twin — a theorem UDP
/// proves in a few steps.
fn spj_pair(f: &Fixture) -> (UExpr, UExpr) {
    let q1 = UExpr::sum_over(
        vec![(v(1), f.sid), (v(2), f.sid)],
        UExpr::product(vec![
            UExpr::eq(Expr::Var(v(1)), Expr::Var(v(0))),
            UExpr::rel(f.r, Expr::Var(v(1))),
            UExpr::rel(f.r, Expr::Var(v(2))),
        ]),
    );
    let q2 = UExpr::sum_over(
        vec![(v(3), f.sid), (v(4), f.sid)],
        UExpr::product(vec![
            UExpr::rel(f.r, Expr::Var(v(4))),
            UExpr::rel(f.r, Expr::Var(v(3))),
            UExpr::eq(Expr::Var(v(4)), Expr::Var(v(0))),
        ]),
    );
    (q1, q2)
}

/// An unanchored `2n`-cycle of edges `x_i.a = x_{i+1}.k` against two
/// `n`-cycles. Colour refinement gives every variable on both sides the
/// same colour, so the matching search blows up without ever finding a
/// proof.
fn cyclic_join_pair(f: &Fixture, n: u32) -> (UExpr, UExpr) {
    let cycle = |base: u32, len: u32| {
        (0..len).flat_map(move |i| {
            [
                UExpr::rel(f.r, Expr::Var(v(base + i))),
                UExpr::eq(
                    Expr::var_attr(v(base + i), "a"),
                    Expr::var_attr(v(base + (i + 1) % len), "k"),
                ),
            ]
        })
    };
    let side = |base: u32, factors: Vec<UExpr>| {
        let vars: Vec<_> = (0..2 * n).map(|i| (v(base + i), f.sid)).collect();
        UExpr::sum_over(vars, UExpr::product(factors))
    };
    (
        side(1, cycle(1, 2 * n).collect()),
        side(100, cycle(100, n).chain(cycle(100 + n, n)).collect()),
    )
}

/// A chaos injector that fires at every backend attempt: a panic, or with
/// `exhaust` a forced budget exhaustion.
fn injector(exhaust: bool) -> FaultInjector {
    let rate = |on: bool| if on { 1.0 } else { 0.0 };
    FaultInjector::new(FaultPlan {
        seed: 7,
        panic_rate: rate(!exhaust),
        exhaust_rate: rate(exhaust),
        delay_rate: 0.0,
        delay_us: 0,
        goal_rate: 0.0,
        probe: None,
        uncontained: false,
    })
}

fn run(f: &Fixture, pair: &(UExpr, UExpr), config: SolveConfig) -> Result<Verdict, String> {
    let nf1 = normalize(&pair.0);
    let nf2 = normalize(&pair.1);
    let goal = Goal {
        catalog: &f.catalog,
        constraints: &f.cs,
        out: v(0),
        schema1: f.sid,
        schema2: f.sid,
        nf1: &nf1,
        nf2: &nf2,
        config,
    };
    solve_normalized(&goal, SolveMode::Udp)
}

/// Steps-only config (wall clock off, so every run is deterministic).
fn steps_only() -> SolveConfig {
    SolveConfig {
        wall: None,
        ..SolveConfig::default()
    }
}

#[test]
fn a_panicking_prover_yields_an_error_not_a_verdict() {
    install_chaos_panic_silencer();
    let f = fixture();
    let config = SolveConfig {
        faults: injector(false),
        fault_key: 5,
        ..steps_only()
    };
    let fault = run(&f, &spj_pair(&f), config).expect_err("an injected panic must be contained");
    assert!(fault.contains("udp backend faulted"), "{fault}");
    // The message names the fault key, not a goal number.
    assert!(
        fault.contains("chaos: injected panic at backend:udp (fault key 5)"),
        "{fault}"
    );
    // The same goal proves once the injector is off.
    let verdict = run(&f, &spj_pair(&f), steps_only()).unwrap();
    assert_eq!(verdict.decision, Decision::Proved);
}

#[test]
fn forced_exhaustion_ends_the_goal_as_a_step_timeout() {
    let f = fixture();
    let config = SolveConfig {
        faults: injector(true),
        ..steps_only()
    };
    let verdict = run(&f, &spj_pair(&f), config).unwrap();
    assert_eq!(verdict.decision, Decision::Timeout);
    assert_eq!(verdict.stats.exhausted, Some(Exhausted::Steps));
}

#[test]
fn step_cap_is_a_steps_exhaustion() {
    let f = fixture();
    // A step cap trips deterministically as `Steps`: an 8-cycle against two
    // 4-cycles under a tight cap, and a 12-cycle against two 6-cycles, whose
    // search outgrows even 300k steps.
    for (n, steps) in [(4, 10_000), (6, 300_000)] {
        let pair = cyclic_join_pair(&f, n);
        let capped = SolveConfig {
            steps: Some(steps),
            wall: None,
            ..SolveConfig::default()
        };
        let verdict = run(&f, &pair, capped).unwrap();
        assert_eq!(verdict.decision, Decision::Timeout, "n = {n}");
        assert_eq!(verdict.stats.exhausted, Some(Exhausted::Steps), "n = {n}");
    }
}
