//! Chrome-trace export through a multi-worker session: the `--trace-out`
//! machinery must produce an export that re-validates through the bundled
//! parser with balanced begin/end spans and one lane per worker thread,
//! even under ring-buffer eviction and cache hits.

use std::time::Duration;
use udp_obs::{validate_chrome_trace, Recorder};
use udp_service::{Session, SessionConfig};

const DDL: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                   table r(rs);\ntable s(ss);\nkey r(k);\n";

const GOAL_LINES: [&str; 3] = [
    "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1",
    "SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = 3 \
     == SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = 3) u, s w \
        WHERE u.k = w.k2",
    "SELECT x.a AS a FROM r x WHERE x.a = 2 == SELECT y.a AS a FROM r y WHERE y.a = 7",
];

#[test]
fn trace_export_has_balanced_spans_and_worker_lanes() {
    let recorder = Recorder::with_trace(8, udp_obs::DEFAULT_TRACE_CAPACITY);
    let config = SessionConfig {
        workers: 2,
        cache_capacity: 64,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        recorder: recorder.clone(),
        ..SessionConfig::default()
    };
    let session = Session::new(DDL, config).unwrap();
    // Repeat the goal set so both workers get work and the second pass hits
    // the verdict cache (exercising the cache-hit instant marker).
    let goals: Vec<_> = GOAL_LINES
        .iter()
        .cycle()
        .take(24)
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    session.verify_batch(&goals);

    assert!(recorder.has_trace());
    let trace = recorder.chrome_trace().expect("trace sink is live");
    let check = validate_chrome_trace(&trace).expect("export must re-validate cleanly");
    assert!(check.spans > 0, "a 24-goal batch must record spans");
    assert!(
        check.lanes >= 2,
        "two workers must produce at least two lanes, got {}",
        check.lanes
    );
    assert!(
        check.instants > 0,
        "cache hits on repeated goals must drop instant events"
    );
}

#[test]
fn recorder_without_trace_sink_exports_nothing() {
    let recorder = Recorder::enabled();
    assert!(!recorder.has_trace());
    assert!(recorder.chrome_trace().is_none());
    let disabled = Recorder::disabled();
    assert!(!disabled.has_trace());
    assert!(disabled.chrome_trace().is_none());
}
