//! End-to-end tests of the `udp-verify` binary on corpus rule files: verdict
//! lines and exit codes (sequential and `--jobs 2`), `--check-trace` (also
//! beside an unproved goal), `--counterexample` (on every unproved goal),
//! `--spnf`, full-dialect warnings, unsupported goals, and usage errors.

use std::process::{Command, Output};

/// A corpus rule file, by its path under `crates/corpus/rules`.
fn rule(path: &str) -> String {
    format!("{}/crates/corpus/rules/{path}", env!("CARGO_MANIFEST_DIR"))
}

fn udp_verify(file: &str, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_udp-verify"))
        .arg(file)
        .args(flags)
        .output()
        .expect("udp-verify runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The timing-free head of every verdict line: `goal N: Decision`.
fn verdicts(out: &Output) -> Vec<String> {
    stdout(out)
        .lines()
        .filter(|l| l.starts_with("goal ") && l.contains("  ("))
        .map(|l| l.split("  (").next().unwrap().to_string())
        .collect()
}

#[test]
fn verdict_lines_and_exit_codes_agree_across_worker_counts() {
    let cases = [
        ("literature/l01_fig1_index_selection.sql", "Proved", 0),
        ("bugs/b01_count_bug.sql", "NotProved(NoProofFound)", 2),
    ];
    for (file, decision, code) in cases {
        for flags in [&[][..], &["--jobs", "2"][..]] {
            let out = udp_verify(&rule(file), flags);
            assert_eq!(out.status.code(), Some(code), "{file} {flags:?}");
            assert_eq!(
                verdicts(&out),
                [format!("goal 1: {decision}")],
                "{file} {flags:?}"
            );
        }
    }
    // A multi-goal program: one verdict line per goal, the same in both runs.
    let perf = format!("{}/ci/perf-corpus.sql", env!("CARGO_MANIFEST_DIR"));
    let one = udp_verify(&perf, &[]);
    let two = udp_verify(&perf, &["--jobs", "2"]);
    assert_eq!(one.status.code(), two.status.code());
    assert_eq!(verdicts(&one).len(), 21);
    assert_eq!(verdicts(&one), verdicts(&two));
}

#[test]
fn check_trace_revalidates_every_step() {
    let cases = [
        ("literature/l01_fig1_index_selection.sql", &[][..], 10),
        ("literature/l24_where_false_empty.sql", &[][..], 3),
        ("calcite/c23_aggregate_project_merge.sql", &[][..], 14),
        (
            "extensions/e07_distinct_unionall_is_union.sql",
            &["--extended"][..],
            9,
        ),
        ("calcite/u08_order_by.sql", &["--full"][..], 3),
    ];
    for (file, dialect, steps) in cases {
        for jobs in ["1", "2"] {
            let mut flags = dialect.to_vec();
            flags.extend(["--check-trace", "--jobs", jobs]);
            let out = udp_verify(&rule(file), &flags);
            assert_eq!(out.status.code(), Some(0), "{file}: {}", stderr(&out));
            let expected =
                format!("trace check: {steps} steps revalidated over 8 random models each");
            assert!(
                stdout(&out).lines().any(|l| l == expected),
                "{file} --jobs {jobs}: want `{expected}` in\n{}",
                stdout(&out)
            );
        }
    }
}

/// A proved goal's trace is checked even when another goal is not proved:
/// one `trace check:` line, and the exit code of the unproved goal.
#[test]
fn check_trace_checks_proved_goals_beside_an_unproved_one() {
    let file = format!("{}/check_trace_mixed.sql", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &file,
        "schema s(k:int, a:int);\ntable r(s);\n\
         verify SELECT x.a AS a FROM r x WHERE x.a = 1 AND x.k = 2 \
             == SELECT y.a AS a FROM r y WHERE y.k = 2 AND y.a = 1;\n\
         verify SELECT x.a AS a FROM r x WHERE x.a = 1 \
             == SELECT x.a AS a FROM r x WHERE x.a = 2;\n",
    )
    .unwrap();
    let out = udp_verify(&file, &["--check-trace"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert_eq!(verdicts(&out)[0], "goal 1: Proved");
    assert_eq!(
        stdout(&out)
            .lines()
            .filter(|l| l.starts_with("trace check: "))
            .count(),
        1,
        "{}",
        stdout(&out)
    );
}

#[test]
fn counterexample_refutes_the_count_bug() {
    let out = udp_verify(&rule("bugs/b01_count_bug.sql"), &["--counterexample"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stdout(&out);
    assert!(text.contains("counterexample (seed"), "{text}");
    assert!(text.contains("left  ⇒"), "{text}");
    assert!(text.contains("right ⇒"), "{text}");
}

#[test]
fn counterexample_searches_every_unproved_goal() {
    let file = format!(
        "{}/counterexample_second_goal.sql",
        env!("CARGO_TARGET_TMPDIR")
    );
    std::fs::write(
        &file,
        "schema rs(k:int, a:int);\ntable r(rs);\n\
         verify SELECT * FROM r x == SELECT * FROM r y;\n\
         verify SELECT x.a AS a FROM r x == SELECT DISTINCT x.a AS a FROM r x;\n",
    )
    .unwrap();
    let out = udp_verify(&file, &["--counterexample"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(
        verdicts(&out),
        ["goal 1: Proved", "goal 2: NotProved(NoProofFound)"]
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("goal 2: counterexample (seed")),
        "{text}"
    );
    assert!(!text.contains("goal 1: counterexample"), "{text}");
    assert!(!text.contains("no counterexample"), "{text}");
}

#[test]
fn spnf_prints_both_sides_of_every_goal() {
    let perf = format!("{}/ci/perf-corpus.sql", env!("CARGO_MANIFEST_DIR"));
    let out = udp_verify(&perf, &["--spnf", "--jobs", "2"]);
    let text = stdout(&out);
    for goal in 1..=20 {
        for side in ["lhs", "rhs"] {
            let head = format!("goal {goal} {side}: λ");
            assert_eq!(
                text.lines().filter(|l| l.starts_with(&head)).count(),
                1,
                "`{head}` in\n{text}"
            );
        }
    }
}

#[test]
fn full_dialect_warns_about_a_stripped_order_by() {
    let out = udp_verify(&rule("calcite/u08_order_by.sql"), &["--full"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        stderr(&out).contains("ORDER BY stripped"),
        "{}",
        stderr(&out)
    );
    assert_eq!(verdicts(&out), ["goal 1: Proved"]);
}

/// udp-ext rejects an aggregate over an outer join: in a goal, that goal
/// reports udp-ext's `unsupported` message; in a view, the program does.
/// Both exit 3.
#[test]
fn constructs_udp_ext_rejects_are_unsupported() {
    const DDL: &str =
        "schema rs(k:int, a:int?);\nschema ss(k:int, b:int);\ntable r(rs);\ntable s(ss);";
    const COUNT_OVER_LEFT_JOIN: &str = "SELECT COUNT(*) AS n FROM r x LEFT JOIN s y ON x.k = y.k";
    let cases = [
        (
            "goal",
            format!("verify {COUNT_OVER_LEFT_JOIN} == SELECT COUNT(*) AS n FROM r x;"),
            "goal 1: unsupported by udp-ext: ",
        ),
        (
            "view",
            format!(
                "view v as {COUNT_OVER_LEFT_JOIN};\nverify SELECT * FROM v a == SELECT * FROM v b;"
            ),
            "unsupported by udp-ext: ",
        ),
    ];
    for (name, program, line) in cases {
        let file = format!("{}/unsupported_{name}.sql", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&file, format!("{DDL}\n{program}\n")).unwrap();
        let out = udp_verify(&file, &["--full"]);
        assert_eq!(out.status.code(), Some(3), "{name}: {}", stderr(&out));
        assert!(
            stdout(&out).lines().any(|l| l.starts_with(line)),
            "{name}: want a line starting `{line}` in\n{}",
            stdout(&out)
        );
        assert_eq!(stdout(&out).matches("unsupported").count(), 1, "{name}");
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    let file = rule("literature/l01_fig1_index_selection.sql");
    for flags in [
        &["--nosuch"][..],
        &["--backend", "udp"][..],
        &["--timeout", "abc"][..],
    ] {
        let out = udp_verify(&file, flags);
        assert_eq!(out.status.code(), Some(64), "{flags:?}");
        assert!(stderr(&out).contains("usage: udp-verify"), "{flags:?}");
    }
    let out = udp_verify(&file, &["--timeout", "abc"]);
    assert!(
        stderr(&out).contains("missing or invalid value for --timeout"),
        "{}",
        stderr(&out)
    );
}

/// `--metrics-json`, `--trace-out` and `--trace-goals` together: a schema-5
/// snapshot with one goal per program goal, balanced spans and tracked
/// memory; a Chrome trace that passes the span-balance check; and the two
/// slowest goals' waterfalls on stderr.
#[test]
fn metrics_json_trace_out_and_trace_goals_write_their_outputs() {
    let perf = format!("{}/ci/perf-corpus.sql", env!("CARGO_MANIFEST_DIR"));
    let metrics = format!("{}/verify_cli_metrics.json", env!("CARGO_TARGET_TMPDIR"));
    let trace = format!("{}/verify_cli_trace.json", env!("CARGO_TARGET_TMPDIR"));
    let out = udp_verify(
        &perf,
        &[
            "--jobs",
            "2",
            "--metrics-json",
            &metrics,
            "--trace-out",
            &trace,
            "--trace-goals",
            "2",
        ],
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let snapshot = udp_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        snapshot.get("schema_version").and_then(|v| v.as_u64()),
        Some(5)
    );
    assert_eq!(snapshot.get("goals").and_then(|v| v.as_u64()), Some(21));
    assert_eq!(snapshot.get("open_spans").and_then(|v| v.as_u64()), Some(0));
    let tracked = snapshot.get("memory").and_then(|m| m.get("tracked"));
    assert_eq!(tracked.and_then(|v| v.as_bool()), Some(true));
    let check = udp_obs::validate_chrome_trace(&std::fs::read_to_string(&trace).unwrap());
    assert!(check.is_ok(), "{check:?}");
    assert_eq!(stderr(&out).matches("slow goal: ").count(), 2);
}
