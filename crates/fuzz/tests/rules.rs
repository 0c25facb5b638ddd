//! Per-rule unit tests: every rewrite rule must produce a pair the prover
//! proves and the oracle cannot refute; every mutation must produce a pair
//! the oracle refutes (on a witness query chosen to make the injected bug
//! observable) and the prover does not prove. Plus shrinker tests that
//! minimize seeded synthetic disagreements.

use rand::rngs::StdRng;
use rand::SeedableRng;
use udp_fuzz::{node_count, shrink_pair, Mutation, Rewrite};
use udp_service::{Session, SessionConfig};
use udp_sql::ast::Query;
use udp_sql::Frontend;

const DDL: &str = "schema s0(k:int, a:int, b:int);\n\
                   schema s1(k:int, a:int);\n\
                   table t0(s0);\n\
                   table t1(s1);\n\
                   key t0(k);";

fn frontend() -> Frontend {
    udp_sql::prepare_program(DDL).unwrap()
}

fn parse(sql: &str) -> Query {
    udp_sql::parse_query(sql).unwrap()
}

fn parse_full(sql: &str) -> Query {
    udp_sql::parse_query_with(sql, udp_sql::Dialect::Full).unwrap()
}

fn decide(fe: &Frontend, q1: &Query, q2: &Query) -> udp_core::Decision {
    // Full-dialect pairs (outer joins) desugar through udp-ext first, as
    // the Dialect::Full session path does.
    let config = SessionConfig {
        cache_capacity: 0,
        steps: Some(1_000_000),
        wall: None,
        dialect: udp_sql::Dialect::Full,
        ..SessionConfig::default()
    };
    let report =
        Session::from_frontend(fe.clone(), config).verify_batch(&[(q1.clone(), q2.clone())]);
    report[0].verdict().expect("goal lowers").decision.clone()
}

fn oracle_refutes(fe: &Frontend, q1: &Query, q2: &Query) -> bool {
    matches!(
        udp_eval::find_counterexample(fe, q1, q2, 40, &udp_eval::GenConfig::default()),
        udp_eval::SearchResult::Refuted(_)
    )
}

/// Witness query per rewrite rule: a site where the rule applies.
fn rewrite_witness(rule: Rewrite) -> &'static str {
    match rule {
        Rewrite::ConjunctCommute => "SELECT x.a AS p FROM t0 x WHERE x.a = 1 AND x.b = 2",
        Rewrite::JoinCommute => "SELECT x.a AS p, y.a AS q FROM t0 x, t1 y WHERE x.k = y.k",
        Rewrite::AliasRename => {
            "SELECT x.a AS p FROM t0 x WHERE EXISTS (SELECT * FROM t1 y WHERE y.k = x.k)"
        }
        Rewrite::PredicatePushdown => "SELECT x.a AS p FROM t0 x, t1 y WHERE x.a = 1 AND x.k = y.k",
        Rewrite::DistinctIdempotent => "SELECT DISTINCT x.a AS p FROM t0 x WHERE x.b = 0",
        Rewrite::UnionAllCommute => "SELECT x.a AS p FROM t0 x UNION ALL SELECT y.a AS p FROM t1 y",
        Rewrite::UnionAllReassoc => {
            "(SELECT x.a AS p FROM t0 x UNION ALL SELECT y.a AS p FROM t1 y) \
             UNION ALL SELECT z.b AS p FROM t0 z"
        }
        Rewrite::WhereTautology => "SELECT x.a AS p FROM t0 x",
        Rewrite::DoubleNegation => "SELECT x.a AS p FROM t0 x WHERE x.a = 1 OR x.b = 2",
        Rewrite::EqCommute => "SELECT x.a AS p FROM t0 x WHERE x.a = x.b",
        Rewrite::SubqueryWrap => "SELECT x.a AS p FROM t0 x WHERE x.k = 2",
        Rewrite::SubqueryInline => "SELECT x.a AS p FROM (SELECT * FROM t0 y) x WHERE x.k = 2",
        Rewrite::StarExpansion => "SELECT * FROM t0 x WHERE x.a = 1",
    }
}

#[test]
fn every_rewrite_rule_produces_a_proved_unrefuted_pair() {
    let fe = frontend();
    for rule in Rewrite::ALL {
        let base = parse(rewrite_witness(rule));
        let mut rng = StdRng::seed_from_u64(1);
        let rewritten = rule
            .apply(&base, &fe, &mut rng)
            .unwrap_or_else(|| panic!("{} should apply to its witness", rule.name()));
        assert_ne!(base, rewritten, "{} must change the AST", rule.name());
        assert!(
            !oracle_refutes(&fe, &base, &rewritten),
            "{}: oracle refuted a supposedly equivalent pair",
            rule.name()
        );
        assert_eq!(
            decide(&fe, &base, &rewritten),
            udp_core::Decision::Proved,
            "{}: prover failed on its witness pair",
            rule.name()
        );
    }
}

/// Witness query per mutation: a site where the injected bug is observable
/// on small databases.
fn mutation_witness(rule: Mutation) -> &'static str {
    match rule {
        Mutation::ConstPerturb => "SELECT x.k AS p FROM t0 x WHERE x.a = 1",
        Mutation::CmpNegate => "SELECT x.k AS p FROM t0 x WHERE x.a = 1",
        Mutation::DistinctToggle => "SELECT x.a AS p FROM t0 x",
        Mutation::UnionAllDup => "SELECT x.a AS p FROM t0 x",
        Mutation::ConjunctDrop => "SELECT x.k AS p FROM t0 x WHERE x.a = 1 AND x.b = 2",
        Mutation::AggDistinctInsert => "SELECT COUNT(x.a) AS n FROM t0 x",
        // Full dialect: flipping LEFT to FULL adds unmatched t1 rows.
        Mutation::OuterKindFlip => {
            "SELECT x.k AS p, y.k AS q FROM t0 x LEFT JOIN t1 y ON x.k = y.k"
        }
    }
}

#[test]
fn every_mutation_produces_a_refuted_unproved_pair() {
    let fe = frontend();
    for rule in Mutation::ALL {
        let base = parse_full(mutation_witness(rule));
        let mut rng = StdRng::seed_from_u64(1);
        let mutated = rule
            .apply(&base, &mut rng)
            .unwrap_or_else(|| panic!("{} should apply to its witness", rule.name()));
        assert_ne!(base, mutated, "{} must change the AST", rule.name());
        assert!(
            oracle_refutes(&fe, &base, &mutated),
            "{}: oracle could not refute the mutant of its witness",
            rule.name()
        );
        assert_ne!(
            decide(&fe, &base, &mutated),
            udp_core::Decision::Proved,
            "{}: prover proved an inequivalent mutant — soundness bug",
            rule.name()
        );
    }
}

/// The shrinker must reduce a synthetic disagreement: a cluttered
/// inequivalent pair minimizes to a much smaller pair that the oracle still
/// refutes.
#[test]
fn shrinker_reduces_a_synthetic_disagreement() {
    let fe = frontend();
    // Lots of removable clutter: an extra join, an EXISTS guard, a stack of
    // conjuncts — but the disagreement is simply DISTINCT vs not.
    let q1 = parse(
        "SELECT x.a AS p FROM t0 x, t1 y \
         WHERE x.k = y.k AND x.a = 1 AND \
         EXISTS (SELECT * FROM t1 z WHERE z.k = x.k)",
    );
    let q2 = parse(
        "SELECT DISTINCT x.a AS p FROM t0 x, t1 y \
         WHERE x.k = y.k AND x.a = 1 AND \
         EXISTS (SELECT * FROM t1 z WHERE z.k = x.k)",
    );
    assert!(oracle_refutes(&fe, &q1, &q2), "seed pair must disagree");
    let before = node_count(&q1) + node_count(&q2);
    let (s1, s2, steps) = shrink_pair(&q1, &q2, |a, b| oracle_refutes(&fe, a, b), 500);
    let after = node_count(&s1) + node_count(&s2);
    assert!(steps > 0, "shrinker accepted no step");
    assert!(
        after < before / 2,
        "expected a substantial reduction, got {before} → {after}"
    );
    assert!(
        oracle_refutes(&fe, &s1, &s2),
        "shrunk pair must still disagree"
    );
}

/// Shrinking a union-of-junk disagreement drops the irrelevant arm.
#[test]
fn shrinker_drops_irrelevant_union_arms() {
    let fe = frontend();
    let q1 = parse(
        "SELECT x.a AS p FROM t0 x WHERE x.a = 1 \
         UNION ALL SELECT y.a AS p FROM t1 y WHERE y.k = 0",
    );
    let q2 = parse(
        "SELECT x.a AS p FROM t0 x WHERE x.a = 2 \
         UNION ALL SELECT y.a AS p FROM t1 y WHERE y.k = 0",
    );
    assert!(oracle_refutes(&fe, &q1, &q2));
    let (s1, s2, _) = shrink_pair(&q1, &q2, |a, b| oracle_refutes(&fe, a, b), 500);
    // The shared UNION arm is noise; at least one side must have lost it.
    assert!(
        !matches!(s1, Query::UnionAll(..)) || !matches!(s2, Query::UnionAll(..)),
        "shrinker kept both union arms: {s1:?} vs {s2:?}"
    );
    assert!(oracle_refutes(&fe, &s1, &s2));
}

/// A small deterministic campaign end-to-end: zero disagreements and
/// identical stats across two runs with the same seed.
#[test]
fn small_campaign_is_clean_and_deterministic() {
    let config = udp_fuzz::FuzzConfig {
        cases: 40,
        ..udp_fuzz::FuzzConfig::default()
    };
    let a = udp_fuzz::run(&config);
    let b = udp_fuzz::run(&config);
    assert_eq!(a.disagreements(), 0, "failures: {:#?}", a.failures);
    assert_eq!(a.proved, b.proved);
    assert_eq!(a.refuted_mutants, b.refuted_mutants);
    assert_eq!(a.rule_counts, b.rule_counts);
}

/// AliasRename must not let the fresh name be captured by a nested scope
/// that already binds it: here the natural choice `x_r` is taken by the
/// EXISTS subquery, so the rename must pick something else and keep the
/// pair equivalent.
#[test]
fn alias_rename_avoids_capture_by_nested_scopes() {
    let fe = frontend();
    let base = parse(
        "SELECT x.a AS p FROM t0 x \
         WHERE EXISTS (SELECT * FROM t1 x_r WHERE x_r.k = x.k)",
    );
    let mut rng = StdRng::seed_from_u64(1);
    let renamed = Rewrite::AliasRename
        .apply(&base, &fe, &mut rng)
        .expect("rename applies");
    assert!(
        !oracle_refutes(&fe, &base, &renamed),
        "capture changed the semantics: {renamed:?}"
    );
    assert_eq!(decide(&fe, &base, &renamed), udp_core::Decision::Proved);
}

/// AliasRename must also rename correlated references inside the ON clause
/// of an outer join nested in a subquery; a stale `x` there names no table.
#[test]
fn alias_rename_reaches_nested_outer_join_on_clauses() {
    let fe = frontend();
    let base = parse_full(
        "SELECT x.a AS p FROM t0 x WHERE EXISTS \
         (SELECT y.a AS v FROM t1 y LEFT JOIN t1 z ON z.k = x.k WHERE y.k = x.k)",
    );
    let mut rng = StdRng::seed_from_u64(1);
    let renamed = Rewrite::AliasRename
        .apply(&base, &fe, &mut rng)
        .expect("rename applies");
    assert_eq!(
        decide(&fe, &base, &renamed),
        udp_core::Decision::Proved,
        "{renamed:?}"
    );
    assert!(
        !oracle_refutes(&fe, &base, &renamed),
        "rename changed the semantics: {renamed:?}"
    );
}

/// StarExpansion must refuse a `*` whose expansion would produce duplicate
/// output names (two FROM tables sharing an attribute).
#[test]
fn star_expansion_refuses_duplicate_column_names() {
    let fe = frontend();
    // Both t0 and t1 carry `k` and `a`.
    let base = parse("SELECT * FROM t0 x, t1 y WHERE x.k = y.k");
    let mut rng = StdRng::seed_from_u64(1);
    assert_eq!(Rewrite::StarExpansion.apply(&base, &fe, &mut rng), None);
}
