//! Equal canonical forms imply equivalence.
//!
//! The verdict cache and the session's identity shortcut both rely on one
//! claim: when the two sides of a goal share a canonical form
//! (`udp_core::fingerprint::canonical_form_nf`), they differ only by
//! alpha-renaming and by the order of `+`/`×` operands, so they are
//! equivalent. This test states the claim over fixed-seed fuzz pairs,
//! rewrites and mutations alike, in the paper dialect and in the full one.
//! For every pair whose forms are equal:
//!
//! * the bag-semantics oracle finds no counterexample, and
//! * the full Alg 2 search (`udp_core::decide_with`, which never takes the
//!   shortcut) proves the pair under a large step budget.

use udp_core::budget::Budget;
use udp_core::decide::{decide_with, normalize_pair, DecideConfig};
use udp_core::fingerprint::canonical_form_nf;
use udp_core::Decision;
use udp_eval::{find_counterexample_seeded, GenConfig, SearchResult};
use udp_fuzz::{draw_case, Case, FuzzConfig};

const CASES: usize = 400;
const ORACLE_TRIALS: u64 = 10;
const STEPS: u64 = 2_000_000;

/// Lower both sides of a case the way a session does (desugaring through
/// udp-ext in the full dialect); `None` when the front end rejects it.
fn lowered(
    case: &Case,
    full_dialect: bool,
) -> Option<(udp_sql::Frontend, udp_core::QueryU, udp_core::QueryU)> {
    let mut fe = case.fe.clone();
    let goal = (case.base.clone(), case.partner.clone());
    let goal = if full_dialect {
        udp_ext::desugar_goal(&fe, &goal).ok()?
    } else {
        goal
    };
    let (q1, q2) = udp_sql::lower_goal(&mut fe, &goal).ok()?;
    Some((fe, q1, q2))
}

/// Check every equal-form pair among the campaign's first [`CASES`] cases
/// and return how many there were.
fn check_equal_form_pairs(config: &FuzzConfig) -> usize {
    let mut equal = 0;
    for index in 0..CASES {
        let case = draw_case(config, index);
        let Some((fe, q1, q2)) = lowered(&case, config.full_dialect) else {
            continue;
        };
        let (nf1, nf2) = normalize_pair(&q1, &q2);
        let form1 = canonical_form_nf(&fe.catalog, &nf1, q1.out, q1.schema);
        let form2 = canonical_form_nf(&fe.catalog, &nf2, q1.out, q2.schema);
        if form1 != form2 {
            continue;
        }
        equal += 1;
        let what = format!(
            "case {index} ({}, seed {})\n  form: {form1}",
            case.rule, config.seed
        );

        let seeds = (0..ORACLE_TRIALS).map(|i| case.oracle_base.wrapping_add(i));
        let oracle = find_counterexample_seeded(
            &case.fe,
            &case.base,
            &case.partner,
            seeds,
            &GenConfig::default(),
        );
        if let SearchResult::Refuted(ce) = oracle {
            panic!("{what}\n  equal forms, yet {}", ce.render(&case.fe));
        }

        let verdict = decide_with(
            &fe.catalog,
            &fe.constraints,
            &q1,
            &q2,
            DecideConfig {
                budget: Some(Budget::steps(STEPS)),
                ..DecideConfig::default()
            },
        );
        assert_eq!(verdict.decision, Decision::Proved, "{what}");
    }
    equal
}

#[test]
fn equal_forms_are_equivalent_in_the_paper_dialect() {
    let config = FuzzConfig {
        seed: 11,
        ..FuzzConfig::default()
    };
    let equal = check_equal_form_pairs(&config);
    assert!(
        equal >= 100,
        "only {equal} of {CASES} pairs had equal forms"
    );
}

#[test]
fn equal_forms_are_equivalent_in_the_full_dialect() {
    let config = FuzzConfig {
        seed: 23,
        ..FuzzConfig::full()
    };
    let equal = check_equal_form_pairs(&config);
    assert!(
        equal >= 100,
        "only {equal} of {CASES} pairs had equal forms"
    );
}
