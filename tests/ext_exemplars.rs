//! Acceptance test for the udp-ext subsystem (ISSUE 3): the formerly
//! out-of-fragment Calcite exemplars (`u01`–`u14`) and the Oracle
//! outer-join bug pair (`b02`) must return *definite* verdicts
//! (Proved / NotProved) that the bag-semantics oracle confirms on
//! randomized NULL-containing databases.

use udp_core::expr::Value;
use udp_corpus::{all_rules, run_rule, session_config, Expectation, Rule};
use udp_eval::{differs_on, random_database, seeded_rng, GenConfig};
use udp_service::Session;
use udp_sql::Frontend;

/// The rule's frontend with its goals as written: under the full dialect
/// the session desugars views once but keeps goals raw, which is what the
/// oracle evaluates (the differential suite pins desugared ≡ native).
fn build(rule: &Rule) -> Frontend {
    let session = Session::new(&rule.text, session_config(rule)).unwrap();
    session.frontend().clone()
}

/// Oracle confirmation of a verdict: NotProved pairs must be refuted within
/// the seed budget; Proved pairs must never be.
fn oracle_confirms(rule: &Rule, expect: Expectation) -> bool {
    let fe = build(rule);
    let (q1, q2) = fe.goals.first().cloned().expect("one goal per rule");
    let config = GenConfig::default(); // NULL-dense for nullable columns
    let mut refuted = false;
    for seed in 0..200u64 {
        let mut rng = seeded_rng(seed);
        let db = random_database(&fe.catalog, &fe.constraints, &config, &mut rng);
        match differs_on(&fe, &db, &q1, &q2) {
            Ok(Some(_)) => {
                refuted = true;
                break;
            }
            Ok(None) => {}
            Err(_) => {} // inconclusive database; try the next seed
        }
    }
    match expect {
        Expectation::NotProved => refuted,
        Expectation::Proved => !refuted,
        _ => false,
    }
}

#[test]
fn ext_decided_exemplars_match_verdicts_and_oracle() {
    let rules: Vec<Rule> = all_rules()
        .into_iter()
        .filter(|r| {
            r.name.starts_with("calcite/unsupported-") || r.name == "bugs/oracle-outer-join"
        })
        .collect();
    assert_eq!(rules.len(), 15, "14 u* exemplars + b02");

    let mut definite = 0;
    for rule in &rules {
        let out = run_rule(rule, session_config(rule));
        assert_eq!(
            out.observed, rule.expect,
            "{}: expected {} got {} ({})",
            rule.name, rule.expect, out.observed, out.detail
        );
        if matches!(rule.expect, Expectation::Proved | Expectation::NotProved) {
            definite += 1;
            assert!(
                oracle_confirms(rule, rule.expect),
                "{}: oracle does not confirm {}",
                rule.name,
                rule.expect
            );
        }
    }
    assert!(
        definite >= 10,
        "at least 10 exemplars must be definite, got {definite}"
    );
}

/// Satellite: `b02` is a decided inequivalence and the oracle produces a
/// concrete *NULL-bearing* counterexample database (dept.deptno is
/// nullable, so the refuting instance search ranges over NULLs).
#[test]
fn b02_oracle_outer_join_refuted_on_null_bearing_database() {
    let rule = all_rules()
        .into_iter()
        .find(|r| r.name == "bugs/oracle-outer-join")
        .unwrap();
    assert_eq!(rule.expect, Expectation::NotProved);
    let out = run_rule(&rule, session_config(&rule));
    assert_eq!(out.observed, Expectation::NotProved);

    let fe = build(&rule);
    let (q1, q2) = fe.goals.first().cloned().unwrap();
    let config = GenConfig {
        null_prob: 0.4,
        ..GenConfig::default()
    };
    let mut found = None;
    for seed in 0..500u64 {
        let mut rng = seeded_rng(seed);
        let db = random_database(&fe.catalog, &fe.constraints, &config, &mut rng);
        let has_null = {
            let dept = fe.catalog.relation_id("dept").unwrap();
            db.table(dept)
                .rows
                .iter()
                .any(|row| row.iter().any(Value::is_null))
        };
        if !has_null {
            continue;
        }
        if let Ok(Some((left, right))) = differs_on(&fe, &db, &q1, &q2) {
            // The padded LEFT JOIN keeps every emp row at least once; the
            // divergence is the duplicate-match multiplicity.
            assert!(left.rows.len() > right.rows.len(), "{left:?} vs {right:?}");
            found = Some(db);
            break;
        }
    }
    let db = found.expect("a NULL-bearing counterexample database within 500 seeds");
    let rendered = db.render(&fe.catalog);
    assert!(
        rendered.contains("NULL"),
        "witness shows its NULLs:\n{rendered}"
    );
}
