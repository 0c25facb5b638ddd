//! SQL-level differential testing: run UDP on every pair from a pool of
//! queries and cross-check its verdicts with the bounded model checker.
//!
//! * Every `Proved` pair must agree on randomized databases (soundness
//!   through the whole pipeline: parse → lower → decide).
//! * Every alias-renamed clone must be proved (a SQL-level completeness
//!   floor).
//! * Known-inequivalent pairs must be refuted by the model checker AND not
//!   proved by UDP.

use udp_core::Decision;
use udp_service::{Session, SessionConfig};
use udp_sql::Dialect;

const DDL: &str = "schema rs(k:int, a:int);\nschema ts(k:int, b:int);\n\
                   table r(rs);\ntable r2(rs);\ntable t2(ts);\nkey r(k);";

/// Pool of pairwise-comparable queries (same single-column output schema).
/// The pool deliberately contains several equivalent clusters and several
/// near-misses (DISTINCT vs not, different filters, bag vs set union).
const POOL: &[&str] = &[
    "SELECT x.a AS v FROM r x",
    "SELECT y.a AS v FROM r y",
    "SELECT x.a AS v FROM r x WHERE x.k = x.k",
    "SELECT DISTINCT x.a AS v FROM r x",
    "SELECT x.a AS v FROM r x WHERE x.k = 1",
    "SELECT x.a AS v FROM r x WHERE x.k = 2",
    "SELECT x.a AS v FROM r x WHERE x.k = 1 OR x.k = 2",
    "SELECT x.a AS v FROM r x WHERE x.k = 2 OR x.k = 1",
    "SELECT x.a AS v FROM r x, r2 y WHERE x.k = y.k",
    "SELECT x.a AS v FROM r x WHERE EXISTS (SELECT * FROM r2 y WHERE y.k = x.k)",
    "SELECT x.a AS v FROM r x UNION ALL SELECT y.a AS v FROM r2 y",
    "SELECT y.a AS v FROM r2 y UNION ALL SELECT x.a AS v FROM r x",
    "SELECT x.a AS v FROM r x UNION SELECT y.a AS v FROM r2 y",
    "SELECT DISTINCT t.v AS v FROM (SELECT x.a AS v FROM r x UNION ALL SELECT y.a AS v FROM r2 y) t",
    "SELECT x.a AS v FROM r x INTERSECT SELECT y.a AS v FROM r2 y",
    "SELECT x.a AS v FROM r x WHERE CASE WHEN x.k = 1 THEN 1 ELSE 0 END = 1",
    "SELECT x.a AS v FROM r x NATURAL JOIN t2 y",
    "SELECT x.a AS v FROM r x, t2 y WHERE x.k = y.k",
    "SELECT v.c0 AS v FROM (VALUES (1), (2)) v",
    "SELECT v.c0 AS v FROM (VALUES (2), (1)) v",
];

/// Decide the one goal of `program` under the extended dialect. A program
/// the front end rejects, or a goal it fails to lower, is an error.
fn decide(program: &str) -> Result<Decision, String> {
    let config = SessionConfig {
        steps: Some(2_000_000),
        wall: Some(std::time::Duration::from_secs(10)),
        dialect: Dialect::Extended,
        ..SessionConfig::default()
    };
    let session = Session::new(program, config).map_err(|e| e.to_string())?;
    let report = session.verify_program_goals().swap_remove(0);
    report
        .outcome
        .map(|v| v.decision)
        .map_err(|e| e.to_string())
}

fn decide_pair(q1: &str, q2: &str) -> Decision {
    let program = format!("{DDL}\nverify {q1} == {q2};");
    match decide(&program) {
        Ok(decision) => decision,
        Err(e) => panic!("pool query failed the front end: {q1} == {q2}: {e}"),
    }
}

fn refuted(q1: &str, q2: &str, trials: usize) -> bool {
    let program = format!("{DDL}\nverify {q1} == {q2};");
    matches!(
        udp_eval::check_program_in(&program, Dialect::Extended, trials),
        Ok(udp_eval::SearchResult::Refuted(_))
    )
}

/// Every pair UDP proves must survive model checking; every pair the model
/// checker refutes must not be proved.
#[test]
fn udp_and_model_checker_never_disagree() {
    let mut proved_pairs = 0;
    let mut refuted_pairs = 0;
    for (i, q1) in POOL.iter().enumerate() {
        for q2 in &POOL[i + 1..] {
            let decision = decide_pair(q1, q2);
            let refutation = refuted(q1, q2, 30);
            if decision.is_proved() {
                proved_pairs += 1;
                assert!(!refutation, "UDP proved a refutable pair:\n  {q1}\n  {q2}");
            }
            if refutation {
                refuted_pairs += 1;
            }
        }
    }
    // The pool contains equivalent clusters and inequivalent pairs; both
    // paths must actually fire for the test to mean anything.
    assert!(
        proved_pairs >= 8,
        "only {proved_pairs} proved pairs — pool too weak"
    );
    assert!(
        refuted_pairs >= 40,
        "only {refuted_pairs} refuted pairs — pool too weak"
    );
}

/// Alias renaming must never block a proof (SQL-level completeness floor).
#[test]
fn alias_renamed_clones_prove() {
    for q in POOL {
        let renamed = q
            .replace(" x", " u8a")
            .replace("x.", "u8a.")
            .replace(" y", " w9b")
            .replace("y.", "w9b.")
            .replace(" v FROM", " v FROM") // projection alias untouched
            .replace(" t", " t7c")
            .replace("t.", "t7c.");
        // Guard against accidental damage to keywords from the crude
        // replacement: skip if the variant no longer parses.
        let program = format!("{DDL}\nverify {q} == {renamed};");
        match decide(&program) {
            Ok(decision) => {
                assert!(
                    decision.is_proved(),
                    "alias-renamed clone not proved:\n  {q}\n  {renamed}"
                );
            }
            Err(_) => continue,
        }
    }
}

/// Fixed known-equivalent pairs across the pool clusters.
#[test]
fn expected_equivalences_hold() {
    let expected = [
        (0usize, 1usize), // alias rename
        (0, 2),           // trivially-true filter
        (6, 7),           // OR commutes
        (10, 11),         // UNION ALL commutes
        (12, 13),         // UNION = DISTINCT over UNION ALL
        (16, 17),         // NATURAL JOIN = explicit equijoin
        (18, 19),         // VALUES rows commute
    ];
    for (i, j) in expected {
        assert!(
            decide_pair(POOL[i], POOL[j]).is_proved(),
            "expected equivalence not proved:\n  {}\n  {}",
            POOL[i],
            POOL[j]
        );
    }
}

/// Fixed known-inequivalent pairs: UDP must not prove them, and the model
/// checker must refute them.
#[test]
fn expected_inequivalences_refuted() {
    let expected = [
        (0usize, 3usize), // bag vs set
        (4, 5),           // different constants
        (0, 4),           // filter vs no filter
        (10, 12),         // UNION ALL vs UNION
        (8, 9),           // join multiplicity vs EXISTS (semijoin)
    ];
    for (i, j) in expected {
        assert!(
            !decide_pair(POOL[i], POOL[j]).is_proved(),
            "proved an inequivalent pair:\n  {}\n  {}",
            POOL[i],
            POOL[j]
        );
        assert!(
            refuted(POOL[i], POOL[j], 100),
            "model checker failed to refute:\n  {}\n  {}",
            POOL[i],
            POOL[j]
        );
    }
}
