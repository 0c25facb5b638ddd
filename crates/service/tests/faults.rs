//! Fault isolation and graceful degradation through a full service session:
//!
//! * a prover that panics on every call aborts each goal but never the
//!   process, and the batch output is byte-identical across worker counts
//!   (the chaos schedule is a pure function of the goal index);
//! * goals whose prover faulted — and goals whose budget was injected to
//!   exhaustion — are provably never inserted into the verdict cache;
//! * worker-level panics (the `goal` probe) are supervised: the batch
//!   completes, the poisoned goal reports an abort, its slot stays
//!   order-preserved;
//! * a deterministic step-cap timeout on a cyclic self-join pair that
//!   colour refinement cannot tell apart maps to
//!   `AbortReason::BudgetExhausted` — distinct from `Panicked` — and is
//!   never cached.

use std::time::Duration;
use udp_obs::fault::PROBE_GOAL;
use udp_obs::{Counter, FaultPlan, Recorder};
use udp_service::{AbortReason, Session, SessionConfig};

const DDL: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                   table r(rs);\ntable s(ss);\nkey r(k);\n";

const GOAL_LINES: [&str; 6] = [
    "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1",
    "SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = 3 \
     == SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = 3) u, s w \
        WHERE u.k = w.k2",
    "SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) \
     == SELECT DISTINCT x.a AS a FROM r x, s y WHERE y.k2 = x.k",
    "SELECT x.k AS k, SUM(x.a) AS t FROM r x GROUP BY x.k \
     == SELECT q.k AS k, SUM(q.a) AS t FROM r q GROUP BY q.k",
    "SELECT x.a AS a FROM r x WHERE x.a = 2 == SELECT y.a AS a FROM r y WHERE y.a = 7",
    "SELECT x.a AS a FROM r x WHERE x.b = 5 == SELECT y.a AS a FROM r y WHERE y.b = 5",
];

/// A plan that fires exactly one kind of fault, everywhere its probe
/// filter allows, and nothing else.
fn plan(panic_rate: f64, exhaust_rate: f64, goal_rate: f64, probe: Option<&str>) -> FaultPlan {
    FaultPlan {
        seed: 7,
        panic_rate,
        exhaust_rate,
        delay_rate: 0.0,
        delay_us: 0,
        goal_rate,
        probe: probe.map(str::to_string),
        uncontained: false,
    }
}

fn chaos_session(workers: usize, plan: FaultPlan) -> (Recorder, Session, Vec<String>) {
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        workers,
        cache_capacity: 64,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(30)),
        recorder: recorder.clone(),
        chaos: Some(plan),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    let reports = session.verify_batch(&goals);
    assert_eq!(reports.len(), GOAL_LINES.len(), "order-preserving batch");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.index, i, "report slots must stay in batch order");
    }
    let rendered = reports.iter().map(|r| r.render_verdict()).collect();
    (recorder, session, rendered)
}

/// Every prover call panics: each goal aborts (`Panicked`), nothing is
/// ever inserted into the verdict cache, and the batch output is still
/// byte-identical across worker counts.
#[test]
fn fully_faulted_goals_abort_and_are_never_cached() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(1.0, 0.0, 0.0, None)))
        .collect();
    let (recorder, session, base) = &runs[0];
    let reports = {
        let goals: Vec<_> = GOAL_LINES
            .iter()
            .map(|l| session.parse_goal(l).unwrap())
            .collect();
        session.verify_batch(&goals)
    };
    for r in &reports {
        assert_eq!(r.aborted, Some(AbortReason::Panicked), "goal {}", r.index);
        assert!(
            r.outcome.is_err(),
            "an aborted goal never carries a verdict"
        );
        assert!(!r.cached);
    }
    for line in base {
        assert!(line.starts_with("error:"), "{line}");
    }
    for (_, run_session, rendered) in &runs {
        assert_eq!(rendered, base, "aborts must not depend on worker count");
        assert_eq!(
            run_session.cache_len(),
            0,
            "a faulted goal must never reach the verdict cache"
        );
    }
    let snap = recorder.snapshot();
    assert!(snap.counter(Counter::GoalAborted) >= GOAL_LINES.len() as u64);
}

/// Injected budget exhaustion at every backend probe: goals degrade to
/// deterministic `Timeout` verdicts tagged `BudgetExhausted` (not
/// `Panicked` — no abort counter traffic), and exhausted goals are never
/// cached.
#[test]
fn injected_exhaustion_times_out_and_is_never_cached() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(0.0, 1.0, 0.0, None)))
        .collect();
    let (recorder, session, base) = &runs[0];
    for line in base {
        assert_eq!(line, "Timeout");
    }
    for (_, run_session, rendered) in &runs {
        assert_eq!(rendered, base);
        assert_eq!(
            run_session.cache_len(),
            0,
            "an exhausted goal must never reach the verdict cache"
        );
    }
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    for r in session.verify_batch(&goals) {
        assert_eq!(r.aborted, Some(AbortReason::BudgetExhausted));
        assert!(matches!(&r.outcome, Ok(v) if !v.decision.is_definite()));
    }
    let snap = recorder.snapshot();
    assert_eq!(
        snap.counter(Counter::GoalAborted),
        0,
        "budget exhaustion is degradation, not a panic-abort"
    );
    assert_eq!(snap.counter(Counter::BackendFault), 0);
}

/// Every goal panics at the worker-level `goal` probe (outside backend
/// containment): the supervisor contains each unwind, the batch completes
/// in order with per-goal aborts, and nothing is cached.
#[test]
fn worker_panics_are_supervised_and_worker_invariant() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| chaos_session(w, plan(0.0, 0.0, 1.0, Some(PROBE_GOAL))))
        .collect();
    let (recorder, session, base) = &runs[0];
    for (index, line) in base.iter().enumerate() {
        assert!(
            line.starts_with("error: goal panicked: chaos:"),
            "supervised worker panic must surface as a per-goal error: {line}"
        );
        // The batch index is the fault key, named as such.
        assert!(line.ends_with(&format!("(fault key {index})")), "{line}");
    }
    for (_, run_session, rendered) in &runs {
        assert_eq!(rendered, base);
        assert_eq!(run_session.cache_len(), 0);
    }
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    for r in session.verify_batch(&goals) {
        assert_eq!(r.aborted, Some(AbortReason::Panicked));
    }
    assert!(recorder.snapshot().counter(Counter::GoalAborted) >= GOAL_LINES.len() as u64);
}

/// A step-cap regression: a steps-only budget trips deterministically, the
/// verdict maps to `BudgetExhausted` (never `Panicked`), and the timeout is
/// not cached — two identical runs both re-execute and agree. The goal is
/// an unanchored 8-cycle `x_i.a = x_{i+1}.k` against two 4-cycles: every
/// variable gets the same refined colour on both sides, so the bijection
/// search still runs out of steps.
#[test]
fn step_cap_timeout_is_budget_exhausted_deterministic_and_uncached() {
    const JOIN_DDL: &str = "schema s(k:int, a:int);\ntable r(s);\n";
    const GOAL: &str = "SELECT 1 AS v FROM r x1, r x2, r x3, r x4, r x5, r x6, r x7, r x8 \
         WHERE x1.a = x2.k AND x2.a = x3.k AND x3.a = x4.k AND x4.a = x5.k \
         AND x5.a = x6.k AND x6.a = x7.k AND x7.a = x8.k AND x8.a = x1.k \
         == SELECT 1 AS v FROM r y1, r y2, r y3, r y4, r y5, r y6, r y7, r y8 \
         WHERE y1.a = y2.k AND y2.a = y3.k AND y3.a = y4.k AND y4.a = y1.k \
         AND y5.a = y6.k AND y6.a = y7.k AND y7.a = y8.k AND y8.a = y5.k";
    let config = SessionConfig {
        workers: 1,
        cache_capacity: 64,
        steps: Some(20_000),
        wall: None, // steps-only: deterministic
        ..SessionConfig::default()
    };
    let session = Session::new(JOIN_DDL, config).unwrap();
    let goal = session.parse_goal(GOAL).unwrap();
    let first = session.verify_batch(std::slice::from_ref(&goal));
    let second = session.verify_batch(std::slice::from_ref(&goal));
    for r in first.iter().chain(second.iter()) {
        assert_eq!(r.aborted, Some(AbortReason::BudgetExhausted));
        assert!(!r.cached, "a timeout must never be served from the cache");
        match &r.outcome {
            Ok(v) => assert!(!v.decision.is_definite(), "{:?}", v.decision),
            Err(e) => panic!("timeout is a verdict, not an error: {e}"),
        }
    }
    assert_eq!(
        first[0].render_verdict(),
        second[0].render_verdict(),
        "a steps-only timeout must be deterministic"
    );
    assert_eq!(session.cache_len(), 0);
}
