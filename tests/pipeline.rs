//! End-to-end pipeline battery: targeted provable / non-provable pairs
//! exercising each feature of the fragment through the public API.

fn proved(program: &str) -> bool {
    let results = udp::verify(program).expect("well-formed program");
    results
        .iter()
        .all(|g| g.verdict().expect("goal lowers").decision.is_proved())
}

const BASE: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                    table r(rs);\ntable s(ss);\n";

fn with_base(goal: &str) -> String {
    format!("{BASE}verify {goal};")
}

#[test]
fn reflexivity_across_features() {
    for q in [
        "SELECT * FROM r x",
        "SELECT DISTINCT x.a AS a FROM r x",
        "SELECT x.a AS a FROM r x WHERE x.k < 3 AND x.b >= 1",
        "SELECT x.a AS a FROM r x, s y WHERE x.k = y.k2",
        "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k)",
        "SELECT x.a AS a FROM r x WHERE NOT EXISTS (SELECT * FROM s y WHERE y.k2 = x.k)",
        "SELECT x.k AS k, SUM(x.a) AS t FROM r x GROUP BY x.k",
        "SELECT x.a AS a FROM r x UNION ALL SELECT y.c AS c FROM s y",
        "SELECT x.a AS a FROM r x EXCEPT SELECT y.c AS c FROM s y",
    ] {
        assert!(
            proved(&with_base(&format!("{q} == {q}"))),
            "reflexivity failed: {q}"
        );
    }
}

#[test]
fn where_clause_conjunct_order_is_irrelevant() {
    assert!(proved(&with_base(
        "SELECT * FROM r x WHERE x.a = 1 AND x.b = 2 \
         == SELECT * FROM r x WHERE x.b = 2 AND x.a = 1"
    )));
}

#[test]
fn symmetric_equality_predicates() {
    assert!(proved(&with_base(
        "SELECT x.a AS a FROM r x, s y WHERE x.k = y.k2 \
         == SELECT x.a AS a FROM r x, s y WHERE y.k2 = x.k"
    )));
}

#[test]
fn not_of_comparison_flips_operator() {
    assert!(proved(&with_base(
        "SELECT * FROM r x WHERE NOT (x.a < 3) == SELECT * FROM r x WHERE x.a >= 3"
    )));
    assert!(proved(&with_base(
        "SELECT * FROM r x WHERE NOT (x.a = 3) == SELECT * FROM r x WHERE x.a <> 3"
    )));
}

#[test]
fn de_morgan_laws() {
    assert!(proved(&with_base(
        "SELECT * FROM r x WHERE NOT (x.a = 1 AND x.b = 2) \
         == SELECT * FROM r x WHERE x.a <> 1 OR x.b <> 2"
    )));
    assert!(proved(&with_base(
        "SELECT * FROM r x WHERE NOT (x.a = 1 OR x.b = 2) \
         == SELECT * FROM r x WHERE x.a <> 1 AND x.b <> 2"
    )));
}

#[test]
fn double_negation() {
    assert!(proved(&with_base(
        "SELECT * FROM r x WHERE NOT (NOT (x.a = 1)) == SELECT * FROM r x WHERE x.a = 1"
    )));
}

#[test]
fn exists_does_not_multiply() {
    // EXISTS is a semijoin: must NOT equal the join (bag semantics).
    assert!(!proved(&with_base(
        "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) \
         == SELECT x.a AS a FROM r x, s y WHERE y.k2 = x.k"
    )));
}

#[test]
fn distinct_makes_semijoin_and_join_equal() {
    assert!(proved(&with_base(
        "SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) \
         == SELECT DISTINCT x.a AS a FROM r x, s y WHERE y.k2 = x.k"
    )));
}

#[test]
fn except_operand_order_matters() {
    assert!(!proved(&with_base(
        "SELECT x.k AS k FROM r x EXCEPT SELECT y.k2 AS k2 FROM s y \
         == SELECT y.k2 AS k2 FROM s y EXCEPT SELECT x.k AS k FROM r x"
    )));
}

#[test]
fn except_with_same_subtrahend_and_shuffled_minuend() {
    assert!(proved(&with_base(
        "SELECT x.a AS a FROM r x WHERE x.k = 1 AND x.b = 2 \
         EXCEPT SELECT y.c AS c FROM s y \
         == SELECT x.a AS a FROM r x WHERE x.b = 2 AND x.k = 1 \
         EXCEPT SELECT y.c AS c FROM s y"
    )));
}

#[test]
fn projections_are_order_sensitive() {
    // SQL output columns are ordered: (a, b) ≠ (b, a).
    assert!(!proved(&with_base(
        "SELECT x.a AS a, x.b AS b FROM r x == SELECT x.b AS b, x.a AS a FROM r x"
    )));
}

#[test]
fn union_branches_commute() {
    assert!(proved(&with_base(
        "SELECT x.a AS v FROM r x UNION ALL SELECT y.c AS v FROM s y \
         == SELECT y.c AS v FROM s y UNION ALL SELECT x.a AS v FROM r x"
    )));
    // Output column *names* are part of the named data model: renaming the
    // output column is not an equivalence.
    assert!(!proved(&with_base(
        "SELECT x.a AS v FROM r x == SELECT x.a AS w FROM r x"
    )));
}

#[test]
fn constants_are_distinguished() {
    assert!(!proved(&with_base(
        "SELECT * FROM r x WHERE x.a = 1 == SELECT * FROM r x WHERE x.a = 2"
    )));
}

#[test]
fn in_list_vs_or_chain() {
    assert!(proved(&with_base(
        "SELECT x.a AS a FROM r x WHERE x.k IN (SELECT y.k2 AS k2 FROM s y WHERE y.c = 1) \
         == SELECT x.a AS a FROM r x \
            WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k AND y.c = 1)"
    )));
}

#[test]
fn correlated_aggregate_stability() {
    assert!(proved(&with_base(
        "SELECT x.k AS k, SUM(x.a) AS t FROM r x WHERE x.b = 0 GROUP BY x.k \
         == SELECT q.k AS k, SUM(q.a) AS t FROM r q WHERE q.b = 0 GROUP BY q.k"
    )));
}

#[test]
fn different_aggregates_do_not_unify() {
    assert!(!proved(&with_base(
        "SELECT x.k AS k, SUM(x.a) AS t FROM r x GROUP BY x.k \
         == SELECT x.k AS k, MAX(x.a) AS t FROM r x GROUP BY x.k"
    )));
}

#[test]
fn distinct_aggregate_is_not_plain_aggregate() {
    assert!(!proved(&with_base(
        "SELECT x.k AS k, COUNT(x.a) AS n FROM r x GROUP BY x.k \
         == SELECT x.k AS k, COUNT(DISTINCT x.a) AS n FROM r x GROUP BY x.k"
    )));
}

#[test]
fn view_inlining_equals_inline_subquery() {
    let program = "schema rs(k:int, a:int, b:int);\ntable r(rs);\n\
                   view v as SELECT x.k AS k, x.a AS a FROM r x WHERE x.b = 1;\n\
                   verify SELECT t.a AS a FROM v t \
                   == SELECT t.a AS a FROM (SELECT x.k AS k, x.a AS a FROM r x WHERE x.b = 1) t;";
    assert!(proved(program));
}

#[test]
fn key_enables_group_by_key_distinct_removal() {
    // Grouping on a key: the outer DISTINCT introduced by desugaring is
    // absorbable because groups are singletons — provable only with the key.
    let base = "schema rs(k:int, a:int, b:int);\ntable r(rs);\n";
    let goal = "verify SELECT DISTINCT x.k AS k, x.a AS a FROM r x \
                == SELECT x.k AS k, x.a AS a FROM r x;";
    assert!(!proved(&format!("{base}{goal}")));
    assert!(proved(&format!("{base}key r(k);\n{goal}")));
}

#[test]
fn fk_transitivity_through_two_hops() {
    let program = "schema as_(id:int, pb:int);\nschema bs(id:int, pc:int);\nschema cs(id:int);\n\
                   table a(as_);\ntable b(bs);\ntable c(cs);\n\
                   foreign key a(pb) references b(id);\n\
                   foreign key b(pc) references c(id);\n\
                   verify SELECT x.id AS id FROM a x \
                   == SELECT x.id AS id FROM a x \
                      WHERE EXISTS (SELECT * FROM b y WHERE y.id = x.pb);";
    assert!(proved(program));
}

#[test]
fn generic_schema_rules_prove() {
    // The COSETTE-style generic-schema rule from the paper's appendix.
    let program = "schema g(a:int, ??);\ntable r(g);\n\
                   verify SELECT x.a AS a FROM r x WHERE TRUE AND x.a = 10 \
                   == SELECT x.a AS a FROM r x WHERE x.a = 10;";
    assert!(proved(program));
}

#[test]
fn generic_schema_star_passthrough() {
    let program = "schema g(a:int, ??);\ntable r(g);\n\
                   verify SELECT * FROM (SELECT * FROM r x) y \
                   == SELECT * FROM r x;";
    assert!(proved(program));
}
