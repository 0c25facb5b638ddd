//! Integration tests for the `udp-obs` stage instrumentation threaded
//! through a service session:
//!
//! * per-stage call counts and histogram totals are identical across
//!   worker counts (the scheduler records `queue-wait` in both branches
//!   precisely to keep this invariant);
//! * goal waterfalls never attribute more goal-path time than the goal's
//!   measured wall, and session-wide coverage stays in `(0, 1]`;
//! * the metrics JSON snapshot round-trips through the bundled parser;
//! * `GoalReport::steps` carries the prover's step count;
//! * a goal's waterfall holds exactly its own goal-path spans, one row per
//!   stage, also right after a goal panicked on the same worker.

use std::time::Duration;
use udp_obs::fault::{PROBE_BACKEND_UDP, PROBE_GOAL};
use udp_obs::{json, Counter, FaultAction, FaultInjector, FaultPlan, Recorder, Stage};
use udp_service::{AbortReason, Session, SessionConfig};
use udp_sql::Dialect;

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

fn run_session(workers: usize, cache: usize) -> (Recorder, Session) {
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        workers,
        cache_capacity: cache,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        recorder: recorder.clone(),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    let reports = session.verify_batch(&goals);
    assert_eq!(reports.len(), GOAL_LINES.len());
    (recorder, session)
}

/// Per-stage call counts and histogram totals must not depend on how many
/// workers processed the batch (caching off so every goal runs the prover).
#[test]
fn stage_counts_are_identical_across_worker_counts() {
    let snapshots: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| run_session(w, 0).0.snapshot())
        .collect();
    let base = &snapshots[0];
    assert_eq!(base.goals, GOAL_LINES.len() as u64);
    for snap in &snapshots[1..] {
        assert_eq!(snap.goals, base.goals);
        for stage in Stage::ALL {
            let a = base.stage(stage).unwrap();
            let b = snap.stage(stage).unwrap();
            assert_eq!(
                a.calls, b.calls,
                "stage `{stage}` call count must not depend on worker count"
            );
            assert_eq!(
                a.hist.total(),
                b.hist.total(),
                "stage `{stage}` histogram total must not depend on worker count"
            );
            assert_eq!(a.steps, b.steps, "stage `{stage}` step totals must agree");
        }
        assert_eq!(snap.open_spans, 0, "no span may stay open at quiescence");
    }
    // Every goal passes each exclusive pipeline stage exactly once: the
    // fingerprint stage renders the canonical forms the identity shortcut
    // compares. With caching off, the cache stage is skipped entirely.
    for stage in [
        Stage::Lower,
        Stage::Normalize,
        Stage::Fingerprint,
        Stage::UdpProve,
        Stage::QueueWait,
    ] {
        assert_eq!(
            base.stage(stage).unwrap().calls,
            GOAL_LINES.len() as u64,
            "stage `{stage}` must run once per goal"
        );
    }
    assert_eq!(
        base.stage(Stage::CacheLookup).unwrap().calls,
        0,
        "the cache stage must be skipped when nothing consumes it"
    );
}

/// A goal's recorded goal-path stage time can never exceed its measured
/// wall, and overall coverage stays within `(0, 1]` (plus timer slack).
#[test]
fn waterfalls_are_bounded_and_coverage_is_sane() {
    let (recorder, _session) = run_session(2, 0);
    let snap = recorder.snapshot();
    assert!(!snap.slow_goals.is_empty(), "slow-goal list must populate");
    for trace in &snap.slow_goals {
        let path_sum: u64 = trace
            .stages
            .iter()
            .filter(|(s, _, _)| s.in_goal_path())
            .map(|(_, ns, _)| *ns)
            .sum();
        assert!(
            path_sum <= trace.wall_ns,
            "goal `{}`: stage sum {path_sum}ns exceeds wall {}ns",
            trace.label,
            trace.wall_ns
        );
    }
    let coverage = snap.coverage();
    assert!(
        coverage > 0.0 && coverage <= 1.001,
        "coverage {coverage} out of range"
    );
}

/// The JSON snapshot survives a round trip through the bundled parser with
/// its headline numbers intact.
#[test]
fn metrics_json_round_trips() {
    let (recorder, _session) = run_session(1, 64);
    let snap = recorder.snapshot();
    let text = snap.to_json();
    let v = json::parse(&text).expect("snapshot must be valid JSON");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_u64()), Some(5));
    assert!(
        v.get("backends").is_none(),
        "schema 5 has no backends array"
    );
    assert!(
        matches!(v.get("memory"), Some(json::Value::Null)),
        "no memory session requested, so the memory section must be null"
    );
    assert_eq!(
        v.get("goals").and_then(|x| x.as_u64()),
        Some(GOAL_LINES.len() as u64)
    );
    assert_eq!(v.get("open_spans").and_then(|x| x.as_u64()), Some(0));
    let stages = v.get("stages").and_then(|x| x.as_array()).unwrap();
    assert_eq!(stages.len(), Stage::COUNT);
    for (entry, stage) in stages.iter().zip(Stage::ALL) {
        assert_eq!(
            entry.get("stage").and_then(|x| x.as_str()),
            Some(stage.name()),
            "stages must serialize in pipeline order"
        );
        assert_eq!(
            entry
                .get("hist")
                .and_then(|x| x.as_array())
                .map(|a| a.len()),
            Some(udp_obs::LATENCY_BUCKETS)
        );
    }
    let json_cov = v.get("coverage").and_then(|x| x.as_f64()).unwrap();
    assert!((json_cov - snap.coverage()).abs() < 0.005);
    let counters = v.get("counters").and_then(|x| x.as_array()).unwrap();
    assert_eq!(counters.len(), Counter::COUNT);
    for (entry, counter) in counters.iter().zip(Counter::ALL) {
        assert_eq!(
            entry.get("counter").and_then(|x| x.as_str()),
            Some(counter.name()),
            "counters must serialize in taxonomy order"
        );
        assert_eq!(
            entry.get("value").and_then(|x| x.as_u64()),
            Some(snap.counter(counter)),
            "counter `{counter}` value must round-trip"
        );
    }
    assert!(
        snap.counter(Counter::CanonizeIters) > 0,
        "a batch must tally canonize iterations"
    );
}

/// Deterministic counters — rewrite firings, congruence traffic, term and
/// SPNF sizes — must not depend on how many workers
/// processed the batch (caching off; the single-global-writer rule makes
/// the totals scheduling-independent).
#[test]
fn counter_totals_are_identical_across_worker_counts() {
    let snapshots: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| run_session(w, 0).0.snapshot())
        .collect();
    let base = &snapshots[0];
    assert!(
        base.counter(Counter::CanonizeIters) > 0,
        "canonize must iterate at least once per goal"
    );
    assert!(
        base.counter(Counter::TermNodes) > 0,
        "congruence closures must intern nodes"
    );
    // The deep-size counters are byte-exact, not just nonzero-invariant:
    // `deep_size` walks owned structure with exact-fit accounting, so the
    // sum over a fixed goal set is a constant of the input.
    assert!(
        base.counter(Counter::TermBytes) > 0,
        "every lowered goal pair must contribute term bytes"
    );
    assert!(
        base.counter(Counter::SpnfBytes) > 0,
        "every canonized goal pair must contribute SPNF bytes"
    );
    for snap in &snapshots[1..] {
        for counter in Counter::ALL {
            if !counter.is_deterministic() {
                continue;
            }
            assert_eq!(
                base.counter(counter),
                snap.counter(counter),
                "counter `{counter}` must not depend on worker count"
            );
        }
    }
}

/// Only the outermost canonization is a `canonize-core` occurrence: the
/// squash and negation bodies it canonizes on the way, and the
/// canonizations the squash-absorption match reaches, run inside its span
/// and are neither timed nor counted again. Each goal's left side holds a
/// squash (`EXISTS`) and a negation (`NOT EXISTS`) factor, the squash
/// correlated with a keyed table so squash introduction fires too, and its
/// right side has one term more, so the prover stops after canonizing each
/// side once.
#[test]
fn nested_canonizations_are_not_counted_or_timed_twice() {
    const NESTED: [&str; 3] = [
        "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) \
           AND NOT EXISTS (SELECT * FROM s z WHERE z.c = x.a) \
         == SELECT x.a AS a FROM r x WHERE x.b = 1 UNION ALL SELECT x.a AS a FROM r x",
        "SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM r y WHERE y.k = x.b \
           AND NOT EXISTS (SELECT * FROM s z WHERE z.k2 = y.a)) \
         == SELECT x.a AS a FROM r x UNION ALL SELECT x.b AS a FROM r x",
        "SELECT x.k AS k FROM r x WHERE NOT EXISTS (SELECT * FROM s y WHERE y.k2 = x.k \
           AND EXISTS (SELECT * FROM r z WHERE z.k = y.c)) \
         == SELECT x.k AS k FROM r x WHERE x.a = 2 UNION ALL SELECT x.b AS k FROM r x",
    ];
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        workers: 1,
        cache_capacity: 0,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        recorder: recorder.clone(),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = NESTED
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    for report in session.verify_batch(&goals) {
        assert!(!report.verdict().unwrap().decision.is_proved());
    }
    let snap = recorder.snapshot();
    let prove = snap.stage(Stage::UdpProve).unwrap();
    let canonize = snap.stage(Stage::CanonizeCore).unwrap();
    assert_eq!(prove.calls, NESTED.len() as u64);
    assert_eq!(
        canonize.calls,
        2 * prove.calls,
        "one outermost canonization per side of each goal"
    );
    assert!(
        canonize.wall_ns <= prove.wall_ns,
        "canonize-core {}ns exceeds udp-prove {}ns",
        canonize.wall_ns,
        prove.wall_ns
    );
    assert!(
        snap.counter(Counter::RwSquashIntro) > 0,
        "squash introduction must fire"
    );
}

/// A byte-bounded cache reports its residency through `ServiceStats` and
/// the `cache-resident-bytes` gauge, and the bound holds after inserts.
#[test]
fn byte_bounded_cache_reports_residency_and_respects_the_cap() {
    const CAP: usize = 16 * 1024;
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        workers: 1,
        cache_capacity: 1024,
        cache_bytes: Some(CAP),
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        recorder: recorder.clone(),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    session.verify_batch(&goals);
    let stats = session.stats();
    assert!(stats.cache_entries > 0, "verdicts must have been cached");
    assert!(
        stats.cache_resident_bytes > 0,
        "cached verdicts must report a nonzero byte cost"
    );
    assert!(
        stats.cache_resident_bytes <= CAP as u64,
        "resident bytes {} exceed the --cache-bytes cap {CAP}",
        stats.cache_resident_bytes
    );
    assert_eq!(
        recorder.snapshot().counter(Counter::CacheResidentBytes),
        stats.cache_resident_bytes,
        "the residency gauge must mirror the service stats"
    );
    assert!(stats.render().contains("resident"), "{}", stats.render());
}

/// `GoalReport::steps` mirrors what the prover consumed: nonzero for a
/// goal the prover actually ran, zero for a cache hit.
#[test]
fn goal_reports_carry_step_counts() {
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        workers: 1,
        cache_capacity: 64,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        recorder: recorder.clone(),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let line = "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1";
    let goal = session.parse_goal(line).unwrap();
    let reports = session.verify_batch(&[goal.clone(), goal]);
    assert!(!reports[0].cached);
    assert!(reports[0].steps > 0, "prover run must consume steps");
    assert!(reports[1].cached);
    assert_eq!(reports[1].steps, 0, "cache hits consume no prover steps");
}

/// The disabled recorder records nothing — its snapshot stays empty even
/// after a full batch (the zero-cost default every caller gets implicitly).
#[test]
fn disabled_recorder_stays_empty() {
    let config = SessionConfig {
        workers: 2,
        cache_capacity: 0,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    session.verify_batch(&goals);
    let snap = session.config().recorder.snapshot();
    assert!(!snap.enabled);
    assert_eq!(snap.goals, 0);
    assert!(snap.stages.iter().all(|s| s.calls == 0));
}

/// Sessions number their goals from 1, so two sessions sharing one
/// recorder (the corpus sweep runs every rule in its own) must be told
/// apart by the label prefix each gets from `Recorder::labelled`.
#[test]
fn sessions_sharing_a_recorder_get_distinct_goal_labels() {
    let recorder = Recorder::enabled();
    for name in ["rules/first", "rules/second"] {
        let config = SessionConfig {
            cache_capacity: 0,
            recorder: recorder.labelled(name),
            ..SessionConfig::default()
        };
        let session = Session::new(DDL, config).unwrap();
        session.verify_batch(&[session.parse_goal(GOAL_LINES[1]).unwrap()]);
    }
    let mut labels: Vec<String> = recorder
        .snapshot()
        .slow_goals
        .into_iter()
        .map(|g| g.label)
        .collect();
    labels.sort();
    assert_eq!(labels, ["rules/first goal 1", "rules/second goal 1"]);
    assert!(!Recorder::disabled().labelled("x").is_enabled());
}

/// A goal's waterfall as `(stage, steps)` rows, in the order they ran.
fn waterfall(recorder: &Recorder, label: &str) -> Vec<(Stage, u64)> {
    let snap = recorder.snapshot();
    let goal = snap
        .slow_goals
        .iter()
        .find(|g| g.label == label)
        .unwrap_or_else(|| panic!("no waterfall for `{label}`"));
    goal.stages
        .iter()
        .map(|&(s, _, steps)| (s, steps))
        .collect()
}

/// The rows of an uncached paper-dialect goal, its prove row carrying
/// `steps`.
fn paper_rows(steps: u64) -> [(Stage, u64); 5] {
    [
        (Stage::Lower, 0),
        (Stage::Normalize, 0),
        (Stage::Fingerprint, 0),
        (Stage::CacheLookup, 0),
        (Stage::UdpProve, steps),
    ]
}

/// A full-dialect goal's waterfall has one row per goal-path stage, in
/// pipeline order: its two `desugar` spans (one per side) merge into one
/// row, and the `udp-prove` row carries the verdict's steps.
#[test]
fn a_full_dialect_goal_has_one_row_per_goal_path_stage() {
    let recorder = Recorder::enabled();
    let config = SessionConfig {
        recorder: recorder.clone(),
        ..SessionConfig::default()
    }
    .with_dialect(Dialect::Full);
    let session = Session::new(DDL, config).unwrap();
    let goal = session.parse_goal(GOAL_LINES[1]).unwrap();
    let report = session.verify_batch(&[goal]).remove(0);
    let steps = report.verdict().unwrap().stats.steps_used;
    assert!(steps > 0);
    assert_eq!(report.steps, steps);
    let mut want = vec![(Stage::Desugar, 0)];
    want.extend(paper_rows(steps));
    assert_eq!(waterfall(&recorder, "goal 1"), want);
    let snap = recorder.snapshot();
    assert_eq!(snap.stage(Stage::Desugar).unwrap().calls, 2);
    assert_eq!(snap.stage(Stage::UdpProve).unwrap().steps, steps);
}

/// A chaos plan under which `probe` panics goal key 0 and spares key 1.
fn panic_first_of_two(probe: &str) -> FaultPlan {
    let base = FaultPlan {
        panic_rate: 0.5,
        exhaust_rate: 0.0,
        delay_rate: 0.0,
        goal_rate: 0.5,
        probe: Some(probe.to_string()),
        ..FaultPlan::default()
    };
    let off = Recorder::disabled();
    (0..)
        .map(|seed| base.with_seed(seed))
        .find(|plan| {
            let faults = FaultInjector::new(plan.clone());
            faults.fire(&off, probe, 0) == Some(FaultAction::Panic)
                && faults.fire(&off, probe, 1).is_none()
        })
        .unwrap()
}

/// A goal that runs on a worker right after a goal panicked there (at the
/// chaos goal probe, which unwinds out of the goal, or inside the
/// contained backend) has only its own rows.
#[test]
fn a_goal_after_a_panicked_goal_has_only_its_own_rows() {
    for probe in [PROBE_GOAL, PROBE_BACKEND_UDP] {
        let recorder = Recorder::enabled();
        let config = SessionConfig {
            workers: 1,
            recorder: recorder.clone(),
            chaos: Some(panic_first_of_two(probe)),
            ..SessionConfig::default()
        };
        let session = Session::new(DDL, config).unwrap();
        let goals = [GOAL_LINES[1], GOAL_LINES[2]].map(|l| session.parse_goal(l).unwrap());
        let reports = session.verify_batch(&goals);
        assert_eq!(reports[0].aborted, Some(AbortReason::Panicked), "{probe}");
        let steps = reports[1].verdict().unwrap().stats.steps_used;
        assert_eq!(waterfall(&recorder, "goal 2"), paper_rows(steps), "{probe}");
        if probe == PROBE_BACKEND_UDP {
            // The contained panic still timed its prove attempt.
            assert_eq!(waterfall(&recorder, "goal 1 (aborted)"), paper_rows(0));
        }
    }
}
