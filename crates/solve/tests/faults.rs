//! Fault containment at the portfolio layer: injected backend panics are
//! caught at the backend boundary (never escaping `solve_normalized`),
//! cascade degrades past a faulted symbolic attempt, race ignores faulted
//! losers, a fully faulted portfolio yields a fault *report* rather than a
//! definite verdict, circuit breakers disable repeat offenders, and the
//! budget taxonomy keeps a pre-set cancellation flag (`Cancelled`) distinct
//! from a step-cap trip (`Steps`).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use udp_core::budget::Exhausted;
use udp_core::constraints::ConstraintSet;
use udp_core::expr::{Expr, VarId};
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::spnf::normalize;
use udp_core::uexpr::UExpr;
use udp_core::Decision;
use udp_obs::{install_chaos_panic_silencer, FaultInjector, FaultPlan};
use udp_solve::{solve_normalized, Breakers, Goal, SolveConfig, SolveMode};

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

/// `Σ_x [x = out] R(x) × R(y)` vs its commuted twin — a theorem both
/// backends settle (the symbolic one instantly).
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

/// A chaos injector that panics every backend attempt at `probe` (or at
/// every backend probe when `None`), and nothing else.
fn panic_injector(probe: Option<&str>) -> FaultInjector {
    FaultInjector::new(FaultPlan {
        seed: 7,
        panic_rate: 1.0,
        exhaust_rate: 0.0,
        delay_rate: 0.0,
        delay_us: 0,
        goal_rate: 0.0,
        probe: probe.map(str::to_string),
        uncontained: false,
    })
}

fn run(
    f: &Fixture,
    pair: &(UExpr, UExpr),
    mode: SolveMode,
    config: SolveConfig,
) -> udp_solve::SolveReport {
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
    solve_normalized(&goal, mode)
}

/// Steps-only config (wall clock off, so every run is deterministic).
fn steps_only() -> SolveConfig {
    SolveConfig {
        wall: None,
        ..SolveConfig::default()
    }
}

#[test]
fn cascade_degrades_past_a_faulted_sym_backend() {
    install_chaos_panic_silencer();
    let f = fixture();
    let config = SolveConfig {
        faults: panic_injector(Some(udp_obs::fault::PROBE_BACKEND_SYM)),
        ..steps_only()
    };
    let report = run(&f, &spj_pair(&f), SolveMode::Cascade, config);
    assert_eq!(report.verdict.decision, Decision::Proved);
    assert_eq!(report.settled_by, "udp");
    assert!(report.fault.is_none(), "a degraded goal is not an abort");
    assert_eq!(report.attempts.len(), 2);
    assert!(
        report.attempts[0].outcome.is_faulted(),
        "the sym attempt must record the contained panic"
    );
}

#[test]
fn race_ignores_a_faulted_backend() {
    install_chaos_panic_silencer();
    let f = fixture();
    let config = SolveConfig {
        faults: panic_injector(Some(udp_obs::fault::PROBE_BACKEND_SYM)),
        ..steps_only()
    };
    let report = run(&f, &spj_pair(&f), SolveMode::Race, config);
    assert_eq!(report.verdict.decision, Decision::Proved);
    assert_eq!(report.settled_by, "udp");
    assert!(report.fault.is_none());
}

#[test]
fn fully_faulted_portfolio_reports_a_fault_not_a_verdict() {
    install_chaos_panic_silencer();
    let f = fixture();
    for mode in [
        SolveMode::Udp,
        SolveMode::Sym,
        SolveMode::Cascade,
        SolveMode::Race,
        SolveMode::Crosscheck,
    ] {
        let config = SolveConfig {
            faults: panic_injector(None),
            ..steps_only()
        };
        let report = run(&f, &spj_pair(&f), mode, config);
        let fault = report
            .fault
            .as_ref()
            .unwrap_or_else(|| panic!("{mode:?}: all-faulted run must carry a fault reason"));
        assert!(fault.contains("faulted"), "{mode:?}: {fault}");
        assert_ne!(
            report.verdict.decision,
            Decision::Proved,
            "{mode:?}: a faulted portfolio must never claim a proof"
        );
        assert!(
            report.disagreement.is_none(),
            "{mode:?}: faults are not crosscheck disagreements"
        );
        assert!(report.attempts.iter().all(|a| a.outcome.is_faulted()));
    }
}

#[test]
fn breaker_trips_after_consecutive_faults_and_skips_the_backend() {
    install_chaos_panic_silencer();
    let f = fixture();
    let breakers = Arc::new(Breakers::new(2));
    let config = || SolveConfig {
        faults: panic_injector(Some(udp_obs::fault::PROBE_BACKEND_SYM)),
        breakers: Some(Arc::clone(&breakers)),
        ..steps_only()
    };
    // Two consecutive contained faults trip the breaker...
    for _ in 0..2 {
        let report = run(&f, &spj_pair(&f), SolveMode::Sym, config());
        assert!(report.fault.is_some());
        assert_eq!(report.attempts.len(), 1, "breaker still closed: sym runs");
    }
    assert!(breakers.is_open("sym"));
    assert_eq!(breakers.faults("sym"), 2);
    // ...after which the backend is never attempted again this session.
    let report = run(&f, &spj_pair(&f), SolveMode::Sym, config());
    assert!(
        report.attempts.is_empty(),
        "open breaker must skip the call"
    );
    assert!(
        report
            .fault
            .as_deref()
            .unwrap_or("")
            .contains("circuit breaker"),
        "{:?}",
        report.fault
    );
    // An open sym breaker degrades cascade straight to UDP — which works.
    let mut cascade = config();
    cascade.faults = FaultInjector::disabled();
    let report = run(&f, &spj_pair(&f), SolveMode::Cascade, cascade);
    assert_eq!(report.verdict.decision, Decision::Proved);
    assert_eq!(report.settled_by, "udp");
}

#[test]
fn step_cap_and_cancellation_are_distinct_exhaustion_kinds() {
    let f = fixture();
    let pair = cyclic_join_pair(&f, 4);
    // A tight step cap trips deterministically as `Steps`.
    let capped = SolveConfig {
        steps: Some(10_000),
        wall: None,
        ..SolveConfig::default()
    };
    let report = run(&f, &pair, SolveMode::Udp, capped);
    assert_eq!(report.verdict.decision, Decision::Timeout);
    assert_eq!(report.verdict.stats.exhausted, Some(Exhausted::Steps));
    // A pre-set cooperative cancel flag trips as `Cancelled`, even with
    // both budget axes unlimited.
    let cancelled = SolveConfig {
        steps: None,
        wall: None,
        cancel: vec![Arc::new(AtomicBool::new(true))],
        ..SolveConfig::default()
    };
    let report = run(&f, &pair, SolveMode::Udp, cancelled);
    assert_eq!(report.verdict.decision, Decision::Timeout);
    assert_eq!(report.verdict.stats.exhausted, Some(Exhausted::Cancelled));
}
