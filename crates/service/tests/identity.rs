//! The identity shortcut: a goal whose two sides share a canonical form is
//! `Proved` in one budget step, without canonizing, colouring or searching.
//!
//! * an alias-renamed goal proves under a one-step budget, and its report
//!   says it took exactly that step;
//! * its recorded trace (two `normalize` steps plus the identity witness,
//!   which is the shared form) replays through the independent checker;
//! * the `identity-proved` counter counts such goals and only them.

use udp_core::fingerprint::fingerprint_form;
use udp_core::proof::check_trace;
use udp_core::trace::{Rule, StepData};
use udp_core::Decision;
use udp_obs::{Counter, Recorder};
use udp_service::{Session, SessionConfig};

const DDL: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                   table r(rs);\ntable s(ss);\nkey r(k);\n";

/// The same join under different aliases and with its conjuncts swapped.
const ALIAS_RENAMED: &str = "SELECT x.a AS a FROM r x, s y WHERE x.k = y.k2 AND x.b = 5 \
                             == SELECT u.a AS a FROM s w, r u WHERE u.b = 5 AND w.k2 = u.k";

/// A filter pushdown: equivalent, but the two forms differ.
const PUSHDOWN: &str = "SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = 3 \
                        == SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = 3) u, s w \
                           WHERE u.k = w.k2";

fn session(steps: u64, record_trace: bool, recorder: Recorder) -> Session {
    let config = SessionConfig {
        cache_capacity: 0,
        steps: Some(steps),
        wall: None,
        record_trace,
        recorder,
        ..SessionConfig::default()
    };
    Session::new(DDL, config).unwrap()
}

#[test]
fn an_alias_renamed_goal_proves_in_one_step() {
    let s = session(1, false, Recorder::disabled());
    let goal = s.parse_goal(ALIAS_RENAMED).unwrap();
    let (fp1, fp2) = s.fingerprint_goal(&goal).unwrap();
    assert_eq!(fp1, fp2, "the goal's two sides must share a form");
    let report = &s.verify_batch(&[goal])[0];
    assert_eq!(report.verdict().unwrap().decision, Decision::Proved);
    assert_eq!(report.steps, 1);
    assert_eq!(report.aborted, None);
}

#[test]
fn the_identity_trace_replays_and_its_witness_is_the_shared_form() {
    let s = session(1, true, Recorder::disabled());
    let goal = s.parse_goal(ALIAS_RENAMED).unwrap();
    let (fp, _) = s.fingerprint_goal(&goal).unwrap();
    let report = &s.verify_batch(&[goal])[0];
    let verdict = report.verdict().unwrap();
    assert_eq!(verdict.decision, Decision::Proved);
    let steps = verdict.trace.steps();
    let rules: Vec<Rule> = steps.iter().map(|step| step.rule).collect();
    assert_eq!(rules, [Rule::Normalize, Rule::Normalize, Rule::Identity]);
    match &steps[2].data {
        StepData::Witness(form) => assert_eq!(fingerprint_form(form), fp),
        data => panic!("the identity step must carry a witness, got {data:?}"),
    }
    let fe = s.frontend();
    let check = check_trace(&fe.catalog, &fe.constraints, &verdict.trace, 8);
    assert!(check.ok(), "failures: {:?}", check.failures);
    assert_eq!(check.steps_checked, 3);
}

#[test]
fn identity_proved_counts_only_shortcut_goals() {
    let recorder = Recorder::enabled();
    let s = session(2_000_000, false, recorder.clone());
    let goals = [ALIAS_RENAMED, PUSHDOWN, ALIAS_RENAMED].map(|line| s.parse_goal(line).unwrap());
    let reports = s.verify_batch(&goals);
    for r in &reports {
        assert_eq!(r.verdict().unwrap().decision, Decision::Proved);
    }
    assert!(reports[1].steps > 1, "the pushdown pair needs the search");
    assert_eq!(recorder.snapshot().counter(Counter::IdentityProved), 2);
}
