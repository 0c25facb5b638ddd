//! Integration tests: fingerprint-cache behavior, parallel-vs-sequential
//! agreement, order preservation, and corpus-wide cached/uncached parity.

use std::time::Duration;
use udp_core::Decision;
use udp_service::{Session, SessionConfig};

const DDL: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                   table r(rs);\ntable s(ss);\nkey r(k);\n";

fn session(workers: usize, cache: usize) -> Session {
    let config = SessionConfig {
        workers,
        cache_capacity: cache,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        ..SessionConfig::default()
    };
    Session::new(DDL, config).unwrap()
}

#[test]
fn alias_renamed_goals_hit_the_cache_with_identical_verdicts() {
    let s = session(1, 64);
    let goals: Vec<_> = [
        "SELECT x.a AS a FROM r x WHERE x.k = 1 == SELECT x.a AS a FROM r x WHERE x.k = 1",
        // Alias-renamed on both sides.
        "SELECT u.a AS a FROM r u WHERE u.k = 1 == SELECT w.a AS a FROM r w WHERE w.k = 1",
        // Another renaming, arbitrary identifiers.
        "SELECT emp.a AS a FROM r emp WHERE emp.k = 1 == SELECT zz.a AS a FROM r zz WHERE zz.k = 1",
    ]
    .iter()
    .map(|l| s.parse_goal(l).unwrap())
    .collect();

    let reports = s.verify_batch(&goals);
    assert!(!reports[0].cached, "first occurrence must run the prover");
    assert!(
        reports[1].cached,
        "alias-renamed goal must be served from cache"
    );
    assert!(reports[2].cached, "every further renaming must hit");
    let d0 = &reports[0].verdict().unwrap().decision;
    for r in &reports[1..] {
        assert_eq!(
            &r.verdict().unwrap().decision,
            d0,
            "cached verdict must be identical"
        );
        assert_eq!(
            r.fingerprints, reports[0].fingerprints,
            "fingerprints must agree"
        );
    }
    assert_eq!(s.stats().cache_hits, 2);
    assert_eq!(s.stats().cache_misses, 1);
}

#[test]
fn conjunct_reordered_goals_hit_the_cache() {
    let s = session(1, 64);
    let goals: Vec<_> = [
        "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2 == SELECT * FROM r y WHERE y.a = 1 AND y.b = 2",
        // WHERE conjuncts and join operands reordered on both sides.
        "SELECT * FROM r x WHERE x.b = 2 AND x.a = 1 == SELECT * FROM r y WHERE y.b = 2 AND y.a = 1",
    ]
    .iter()
    .map(|l| s.parse_goal(l).unwrap())
    .collect();
    let reports = s.verify_batch(&goals);
    assert!(!reports[0].cached);
    assert!(
        reports[1].cached,
        "conjunct order must not defeat the fingerprint"
    );
    assert_eq!(
        reports[0].verdict().unwrap().decision,
        reports[1].verdict().unwrap().decision
    );
}

#[test]
fn join_operand_order_shares_one_side_fingerprint() {
    let s = session(1, 64);
    let g1 = s
        .parse_goal(
            "SELECT x.a AS a, y.c AS c FROM r x, s y WHERE x.k = y.k2 \
             == SELECT x.a AS a, y.c AS c FROM s y, r x WHERE x.k = y.k2",
        )
        .unwrap();
    let reports = s.verify_batch(&[g1]);
    let (f1, f2) = reports[0].fingerprints.unwrap();
    assert_eq!(f1, f2, "both sides canonicalize identically");
    assert!(reports[0].verdict().unwrap().decision.is_proved());
}

#[test]
fn parallel_matches_sequential_on_a_large_batch_in_order() {
    // 120 distinguishable goals: even indices are provable (identical
    // filters), odd indices are not (different constants).
    let lines: Vec<String> = (0..120)
        .map(|i| {
            let c1 = i / 2;
            let c2 = if i % 2 == 0 { c1 } else { c1 + 1000 };
            format!(
                "SELECT x.a AS a FROM r x WHERE x.a = {c1} \
                 == SELECT y.a AS a FROM r y WHERE y.a = {c2}"
            )
        })
        .collect();

    let seq = session(1, 0); // no cache, single thread: the reference
    let goals_seq: Vec<_> = lines.iter().map(|l| seq.parse_goal(l).unwrap()).collect();
    let seq_reports = seq.verify_batch(&goals_seq);

    let par = session(4, 256);
    let goals_par: Vec<_> = lines.iter().map(|l| par.parse_goal(l).unwrap()).collect();
    let par_reports = par.verify_batch(&goals_par);

    assert_eq!(seq_reports.len(), par_reports.len());
    for (i, (a, b)) in seq_reports.iter().zip(&par_reports).enumerate() {
        assert_eq!(a.index, i, "sequential order broken at {i}");
        assert_eq!(b.index, i, "parallel order broken at {i}");
        assert_eq!(
            a.verdict().unwrap().decision,
            b.verdict().unwrap().decision,
            "parallel verdict diverges at goal {i}"
        );
        let expect_proved = i % 2 == 0;
        assert_eq!(
            a.verdict().unwrap().decision.is_proved(),
            expect_proved,
            "goal {i}"
        );
    }
}

#[test]
fn front_end_errors_are_reported_in_position() {
    let s = session(3, 16);
    let goals = vec![
        s.parse_goal("SELECT * FROM r x == SELECT * FROM r y")
            .unwrap(),
        s.parse_goal("SELECT * FROM nosuch x == SELECT * FROM r y")
            .unwrap(),
        s.parse_goal("SELECT * FROM r a == SELECT * FROM r b")
            .unwrap(),
    ];
    let reports = s.verify_batch(&goals);
    assert!(reports[0].verdict().is_some());
    assert!(
        reports[1].outcome.is_err(),
        "unknown table must surface as an error"
    );
    assert!(reports[2].verdict().is_some());
    assert_eq!(s.stats().errors, 1);
}

#[test]
fn cache_hit_returns_memoized_verdict_without_rerunning_decide() {
    let s = session(1, 16);
    let goal = s
        .parse_goal("SELECT DISTINCT * FROM r x == SELECT * FROM r x")
        .unwrap();
    let first = s.verify_batch(std::slice::from_ref(&goal));
    let second = s.verify_batch(std::slice::from_ref(&goal));
    assert!(!first[0].cached);
    assert!(second[0].cached);
    // The memoized verdict is returned verbatim: same decision, same
    // step count as the original run (a fresh decide would re-consume steps).
    assert_eq!(
        first[0].verdict().unwrap().stats.steps_used,
        second[0].verdict().unwrap().stats.steps_used
    );
    assert_eq!(
        first[0].verdict().unwrap().decision,
        second[0].verdict().unwrap().decision
    );
    assert_eq!(s.stats().cache_misses, 1);
    assert_eq!(s.stats().cache_hits, 1);
}

#[test]
fn stats_report_throughput_and_hit_rate() {
    let s = session(2, 32);
    let goal = s
        .parse_goal("SELECT * FROM r x == SELECT * FROM r y")
        .unwrap();
    let goals: Vec<_> = (0..10).map(|_| goal.clone()).collect();
    s.verify_batch(&goals);
    let stats = s.stats();
    assert_eq!(stats.goals, 10);
    assert!(
        stats.cache_hits >= 8,
        "identical goals should mostly hit; got {stats:?}"
    );
    assert!(stats.throughput() > 0.0);
    assert!(stats.hit_rate() > 0.5);
    assert!(stats.render().contains("hit rate"));
}

#[test]
fn timeout_verdicts_are_not_cached() {
    // A starved budget forces Decision::Timeout; a transient budget
    // exhaustion must not be pinned as the session-lifetime answer. The
    // two sides have different canonical forms (a pushdown), so the goal
    // needs the search and cannot take the one-step identity shortcut.
    let config = SessionConfig {
        workers: 1,
        cache_capacity: 16,
        steps: Some(1),
        wall: None,
        ..SessionConfig::default()
    };
    let s = Session::new(DDL, config).unwrap();
    let goal = s
        .parse_goal(
            "SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = 3 \
             == SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = 3) u, s w \
                WHERE u.k = w.k2",
        )
        .unwrap();
    let first = s.verify_batch(std::slice::from_ref(&goal));
    assert_eq!(first[0].verdict().unwrap().decision, Decision::Timeout);
    assert_eq!(
        s.cache_len(),
        0,
        "a Timeout verdict must not enter the cache"
    );
    let second = s.verify_batch(std::slice::from_ref(&goal));
    assert!(
        !second[0].cached,
        "the goal must re-run, not replay the Timeout"
    );
}

#[test]
fn cache_off_reports_carry_the_same_fingerprints_as_cache_on() {
    let line = "SELECT * FROM r x == SELECT * FROM r y";
    let fingerprints = |cache: usize| {
        let s = session(1, cache);
        let goal = s.parse_goal(line).unwrap();
        s.verify_batch(&[goal])[0].fingerprints
    };
    let uncached = fingerprints(0);
    assert!(
        uncached.is_some(),
        "a cache-off report still carries fingerprints"
    );
    assert_eq!(uncached, fingerprints(64), "cache-on and cache-off agree");
}

/// Cached and uncached sessions agree with the plain sequential pipeline on
/// every supported corpus rule (the deliberate-timeout pair is skipped: its
/// budget-bound search is too slow to run three times in CI).
#[test]
fn corpus_cached_and_uncached_runs_agree() {
    for rule in udp_corpus::all_rules() {
        if matches!(
            rule.expect,
            udp_corpus::Expectation::Unsupported | udp_corpus::Expectation::Timeout
        ) {
            continue;
        }
        let mk = |cache: usize, workers: usize| {
            let config = SessionConfig {
                workers,
                cache_capacity: cache,
                steps: Some(20_000_000),
                wall: Some(Duration::from_secs(30)),
                dialect: rule.dialect,
                ..SessionConfig::default()
            };
            Session::new(&rule.text, config).unwrap()
        };
        let uncached = mk(0, 1);
        let cached = mk(64, 2);
        let a = uncached.verify_program_goals();
        let b = cached.verify_program_goals();
        // Run the cached session twice: the repeat must be all hits.
        let c = cached.verify_program_goals();
        for ((ra, rb), rc) in a.iter().zip(&b).zip(&c) {
            let da = &ra
                .verdict()
                .unwrap_or_else(|| panic!("{} rejected", rule.name))
                .decision;
            let db = &rb.verdict().unwrap().decision;
            let dc = &rc.verdict().unwrap().decision;
            assert_eq!(da, db, "{}: cached session diverged", rule.name);
            assert_eq!(da, dc, "{}: cache replay diverged", rule.name);
            assert!(rc.cached, "{}: repeat run should hit the cache", rule.name);
        }
        let observed = &a[0].verdict().unwrap().decision;
        let matches_expectation = match rule.expect {
            udp_corpus::Expectation::Proved => matches!(observed, Decision::Proved),
            udp_corpus::Expectation::NotProved => matches!(observed, Decision::NotProved(_)),
            _ => true,
        };
        assert!(matches_expectation, "{}: {observed:?}", rule.name);
    }
}
