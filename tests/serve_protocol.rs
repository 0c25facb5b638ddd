//! Black-box protocol tests for the `udp-serve` binary: a mixed chunk of
//! good and bad goal lines produces one in-order response per line (errors
//! included) and the serving loop survives them; with `--chaos` armed the
//! process still exits normally and the stdout protocol stays deterministic
//! across worker counts; the metrics flags write their outputs without
//! touching stdout.

use std::io::Write;
use std::process::{Command, Stdio};

const SCHEMA: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                      table r(rs);\ntable s(ss);\nkey r(k);\n";

/// Two well-formed goals sandwiching a parse error and an unknown table,
/// split across two chunks by a blank line.
const INPUT: &str = "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1\n\
                     SELECT nonsense FROM ??? == garbage\n\
                     \n\
                     SELECT x.a AS a FROM nosuch x == SELECT x.a AS a FROM nosuch x\n\
                     SELECT x.a AS a FROM r x WHERE x.a = 2 == SELECT y.a AS a FROM r y WHERE y.a = 7\n";

fn run_serve(extra: &[&str], input: &str) -> (String, Option<i32>) {
    let (stdout, _, code) = run_serve_with_stderr(extra, input);
    (stdout, code)
}

fn run_serve_with_stderr(extra: &[&str], input: &str) -> (String, String, Option<i32>) {
    let dir = std::env::temp_dir().join(format!(
        "udp-serve-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let schema = dir.join("schema.sql");
    std::fs::write(&schema, SCHEMA).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_udp-serve"))
        .arg(&schema)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn udp-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("udp-serve must exit");
    let _ = std::fs::remove_dir_all(&dir);
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// A malformed line yields a per-line error response and the loop keeps
/// serving the rest of the chunk — and the next chunk — in input order.
#[test]
fn malformed_lines_get_error_responses_and_the_loop_continues() {
    let (stdout, code) = run_serve(&[], INPUT);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one response per goal line:\n{stdout}");
    assert_eq!(lines[0], "goal 1: Proved");
    assert!(lines[1].starts_with("goal 2: error:"), "{}", lines[1]);
    assert!(lines[2].starts_with("goal 3: error:"), "{}", lines[2]);
    assert!(
        lines[3].starts_with("goal 4: NotProved"),
        "the goal after the bad ones must still verify: {}",
        lines[3]
    );
    assert_eq!(code, Some(1), "error lines map to the failure exit code");
}

/// With a chaos schedule injected the process must never die: every line
/// still gets exactly one in-order response, and the output is identical
/// across worker counts (the fault schedule is keyed by goal index).
#[test]
fn chaos_armed_serving_survives_and_is_worker_invariant() {
    let chaos = "seed=7,rate=0.5,exhaust=0.3,goal-rate=0.2";
    let outputs: Vec<String> = ["1", "2", "4"]
        .iter()
        .map(|jobs| {
            let (stdout, code) = run_serve(&["--jobs", jobs, "--chaos", chaos], INPUT);
            assert!(code.is_some(), "udp-serve must exit, not be killed");
            assert_eq!(
                stdout.lines().count(),
                4,
                "every line answered under chaos:\n{stdout}"
            );
            stdout
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    for line in outputs[0].lines() {
        assert!(line.starts_with("goal "), "protocol framing intact: {line}");
    }
}

/// `--metrics-json`, `--trace-out` and `--trace-goals` write a schema-5
/// snapshot (one goal per served line, balanced spans, tracked memory), a
/// balanced Chrome trace and two stderr waterfalls, and leave the stdout
/// protocol byte-identical.
#[test]
fn metrics_json_trace_out_and_trace_goals_write_their_outputs() {
    const GOALS: &str = "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1\n\
                         SELECT x.a AS a FROM r x WHERE x.a = 2 == SELECT y.a AS a FROM r y WHERE y.a = 7\n\
                         \n\
                         SELECT DISTINCT x.a AS a FROM r x, s y WHERE x.k = y.k2 \
                         == SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k)\n";
    let dir = env!("CARGO_TARGET_TMPDIR");
    let metrics = format!("{dir}/serve_protocol_metrics.json");
    let trace = format!("{dir}/serve_protocol_trace.json");
    let flags = [
        "--jobs",
        "2",
        "--metrics-json",
        &metrics,
        "--trace-out",
        &trace,
        "--trace-goals",
        "2",
    ];
    let (stdout, stderr, code) = run_serve_with_stderr(&flags, GOALS);
    assert_eq!((stdout.clone(), code), run_serve(&["--jobs", "2"], GOALS));
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
    let snapshot = udp_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        snapshot.get("schema_version").and_then(|v| v.as_u64()),
        Some(5)
    );
    assert_eq!(snapshot.get("goals").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(snapshot.get("open_spans").and_then(|v| v.as_u64()), Some(0));
    let tracked = snapshot.get("memory").and_then(|m| m.get("tracked"));
    assert_eq!(tracked.and_then(|v| v.as_bool()), Some(true));
    let check = udp_obs::validate_chrome_trace(&std::fs::read_to_string(&trace).unwrap());
    assert!(check.is_ok(), "{check:?}");
    assert_eq!(stderr.matches("slow goal: ").count(), 2, "{stderr}");
}

/// Slow-goal labels carry the number each goal's protocol line prints,
/// also when every goal arrives in a chunk of its own (each chunk is a
/// batch of one).
#[test]
fn slow_goal_labels_are_protocol_sequence_numbers() {
    const GOALS: &str = "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1\n\
                         \n\
                         SELECT x.a AS a FROM r x WHERE x.a = 2 == SELECT y.a AS a FROM r y WHERE y.a = 7\n";
    let metrics = format!("{}/serve_protocol_labels.json", env!("CARGO_TARGET_TMPDIR"));
    let (stdout, _) = run_serve(&["--metrics-json", &metrics], GOALS);
    assert!(stdout.starts_with("goal 1: Proved\ngoal 2: "), "{stdout}");
    let snapshot = udp_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let mut labels: Vec<&str> = snapshot
        .get("slow_goals")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter_map(|g| g.get("label").and_then(|l| l.as_str()))
        .collect();
    labels.sort();
    assert_eq!(labels, ["goal 1", "goal 2"]);
}
