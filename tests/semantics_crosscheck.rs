//! Cross-validation of the three semantics:
//!
//! 1. the surface evaluator (`udp-eval`, bag semantics over concrete rows),
//! 2. the U-expression interpretation over ℕ (`udp-core::interp`) of the
//!    *lowered* query,
//!
//! must agree on the multiplicity of every output tuple, for randomized
//! databases. This pins the lowering (`udp-sql`) against both the SQL
//! fragment's reference semantics and the algebraic semantics the prover
//! manipulates.

use std::collections::BTreeMap;
use udp_core::interp::{DomainSpec, Interp, Val};
use udp_core::name::Name;
use udp_core::semiring::Nat;
use udp_eval::{eval_query, random_database, seeded_rng, GenConfig};
use udp_sql::{
    build_frontend, lower_query, parse_program, parse_program_with, parse_query_with, Dialect,
};

const DDL: &str = "schema rs(k:int, a:int);\nschema ss(k2:int, b:int);\n\
                   schema ts(k:int, b:int);\n\
                   table r(rs);\ntable s(ss);\ntable t2(ts);";

/// Queries exercised against both semantics. All have closed output schemas
/// so tuples can be compared field-wise.
const QUERIES: &[&str] = &[
    "SELECT * FROM r x",
    "SELECT x.a AS a FROM r x",
    "SELECT DISTINCT x.a AS a FROM r x",
    "SELECT x.a AS a FROM r x WHERE x.k = 1",
    "SELECT x.a AS a, y.b AS b FROM r x, s y WHERE x.k = y.k2",
    "SELECT x.a AS a FROM r x WHERE x.k = 1 OR x.a = 2",
    "SELECT x.a AS a FROM r x WHERE NOT (x.k = 1)",
    "SELECT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k)",
    "SELECT x.a AS a FROM r x WHERE NOT EXISTS (SELECT * FROM s y WHERE y.k2 = x.k)",
    "SELECT x.a AS a FROM r x WHERE x.k IN (SELECT y.k2 AS k2 FROM s y)",
    "SELECT x.a AS a FROM r x UNION ALL SELECT y.b AS b FROM s y",
    "SELECT x.k AS k FROM r x EXCEPT SELECT y.k2 AS k2 FROM s y",
    "SELECT DISTINCT t.a AS a FROM (SELECT x.a AS a FROM r x WHERE x.a > 0) t",
    // Extended dialect (Sec 6.4 features) — parsed with Dialect::Extended.
    "SELECT x.a AS a FROM r x UNION SELECT y.b AS b FROM s y",
    "SELECT x.k AS k FROM r x INTERSECT SELECT y.k2 AS k2 FROM s y",
    "SELECT x.a AS a FROM r x INTERSECT SELECT y.a AS a FROM r y WHERE y.k = 1",
    "SELECT * FROM (VALUES (1, 2), (0, 1), (1, 2)) v",
    "SELECT DISTINCT * FROM (VALUES (1), (1), (2)) v",
    "SELECT v.c0 AS c FROM (VALUES (0), (1), (2)) v WHERE v.c0 = 1",
    "SELECT CASE WHEN x.k = 1 THEN 1 ELSE 0 END AS c FROM r x",
    "SELECT x.a AS a FROM r x WHERE CASE WHEN x.k = 1 THEN x.a ELSE x.k END = 1",
    "SELECT x.a AS a FROM r x WHERE CASE x.k WHEN 0 THEN 1 WHEN 1 THEN 2 ELSE 0 END = 2",
    "SELECT * FROM r x NATURAL JOIN t2 y",
    "SELECT x.a AS a, y.b AS b FROM r x NATURAL JOIN t2 y WHERE x.a = 1",
];

fn row_to_val(columns: &[Name], row: &[udp_core::expr::Value]) -> Val {
    let mut fields = BTreeMap::new();
    for (c, v) in columns.iter().zip(row) {
        let val = match v {
            udp_core::expr::Value::Null => Val::Null,
            udp_core::expr::Value::Int(i) => Val::Int(*i),
            udp_core::expr::Value::Bool(b) => Val::Bool(*b),
            udp_core::expr::Value::Str(s) => Val::Str(s.clone()),
        };
        fields.insert(c.clone(), val);
    }
    Val::Tuple(fields)
}

/// Full-dialect (udp-ext) queries: the reference evaluator runs the
/// *original* query natively (3VL + real outer joins), the ℕ-interpretation
/// runs the *desugared* lowering — NULL tags included in the summation
/// domains of nullable columns. Agreement pins the whole encoding chain.
#[test]
fn full_dialect_crosscheck_over_null_tags() {
    const NDDL: &str = "schema rs(k:int, a:int?);\nschema ss(k:int?, b:int);\n\
                        table r(rs);\ntable s(ss);";
    const NQUERIES: &[&str] = &[
        "SELECT * FROM r x WHERE x.a IS NULL",
        "SELECT * FROM r x WHERE x.a IS NOT NULL",
        "SELECT x.a AS a FROM r x WHERE x.a = 1",
        "SELECT x.a AS a FROM r x WHERE NOT (x.a = 1)",
        "SELECT x.k AS k FROM r x WHERE x.a = NULL",
        "SELECT NULL AS n FROM r x",
        "SELECT x.k AS xk, y.b AS yb FROM r x LEFT JOIN s y ON x.k = y.k",
        "SELECT x.a AS xa, y.b AS yb FROM r x RIGHT JOIN s y ON x.a = y.k",
        "SELECT x.k AS xk, y.k AS yk FROM r x FULL JOIN s y ON x.k = y.k",
        "SELECT CASE WHEN x.a = 1 THEN x.a END AS v FROM r x",
        "SELECT x.k AS k FROM r x WHERE x.a IN (SELECT y.k AS k FROM s y)",
        "SELECT x.k AS k FROM r x WHERE x.a NOT IN (SELECT y.k AS k FROM s y)",
    ];
    let program = parse_program_with(NDDL, Dialect::Full).unwrap();
    let spec = DomainSpec {
        ints: vec![0, 1],
        strs: vec![],
    };
    let config = GenConfig {
        max_rows: 3,
        domain: 2,
        ..GenConfig::default()
    };

    for (qi, sql) in NQUERIES.iter().enumerate() {
        let mut fe = build_frontend(&program).unwrap();
        let query = parse_query_with(sql, Dialect::Full).unwrap();
        let desugared = udp_ext::desugar_query(&fe, &query).unwrap();
        let mut gen = udp_core::expr::VarGen::new();
        let lowered = lower_query(&mut fe, &mut gen, &desugared).unwrap();

        for seed in 0..10u64 {
            let mut rng = seeded_rng(seed * 37 + qi as u64);
            let db = random_database(&fe.catalog, &fe.constraints, &config, &mut rng);

            let result = eval_query(&fe, &db, &query).unwrap();
            let mut expected: BTreeMap<Val, u64> = BTreeMap::new();
            for row in &result.rows {
                *expected
                    .entry(row_to_val(&result.columns, row))
                    .or_insert(0) += 1;
            }

            let mut interp: Interp<Nat> = Interp::new(&fe.catalog, &spec);
            for (rid, rel) in fe.catalog.relations() {
                let schema = fe.catalog.schema(rel.schema);
                let mut rows: BTreeMap<Val, u64> = BTreeMap::new();
                let cols: Vec<Name> = schema.attrs.iter().map(|(n, _)| n.clone()).collect();
                for row in &db.table(rid).rows {
                    *rows.entry(row_to_val(&cols, row)).or_insert(0) += 1;
                }
                interp.set_relation(rid, rows.into_iter().map(|(t, m)| (t, Nat(m))));
            }

            let out_domain = interp
                .domains
                .get(&lowered.schema)
                .cloned()
                .expect("output schema enumerated");
            for t in out_domain {
                let env = BTreeMap::from([(lowered.out, t.clone())]);
                let got = interp.eval_uexpr(&lowered.body, &env);
                let want = Nat(expected.get(&t).copied().unwrap_or(0));
                assert_eq!(
                    got,
                    want,
                    "full-dialect `{sql}` seed {seed}: tuple {t:?} multiplicity {got:?} ≠ {want:?}\n{}",
                    db.render(&fe.catalog)
                );
            }
        }
    }
}

#[test]
fn evaluator_agrees_with_usemiring_interpretation() {
    let program = parse_program(DDL).unwrap();
    let spec = DomainSpec {
        ints: vec![0, 1, 2],
        strs: vec![],
    };
    let config = GenConfig {
        max_rows: 3,
        domain: 3,
        ..GenConfig::default()
    };

    for (qi, sql) in QUERIES.iter().enumerate() {
        // Fresh frontend per query: lowering adds anonymous schemas.
        let mut fe = build_frontend(&program).unwrap();
        let query = parse_query_with(sql, Dialect::Extended).unwrap();
        let mut gen = udp_core::expr::VarGen::new();
        let lowered = lower_query(&mut fe, &mut gen, &query).unwrap();

        for seed in 0..12u64 {
            let mut rng = seeded_rng(seed * 31 + qi as u64);
            let db = random_database(&fe.catalog, &fe.constraints, &config, &mut rng);

            // Reference evaluation → multiset of output tuples.
            let result = eval_query(&fe, &db, &query).unwrap();
            let mut expected: BTreeMap<Val, u64> = BTreeMap::new();
            for row in &result.rows {
                *expected
                    .entry(row_to_val(&result.columns, row))
                    .or_insert(0) += 1;
            }

            // U-semiring interpretation of the lowered body over the same
            // database.
            let mut interp: Interp<Nat> = Interp::new(&fe.catalog, &spec);
            for (rid, rel) in fe.catalog.relations() {
                let schema = fe.catalog.schema(rel.schema);
                let mut rows: BTreeMap<Val, u64> = BTreeMap::new();
                let cols: Vec<Name> = schema.attrs.iter().map(|(n, _)| n.clone()).collect();
                for row in &db.table(rid).rows {
                    *rows.entry(row_to_val(&cols, row)).or_insert(0) += 1;
                }
                interp.set_relation(rid, rows.into_iter().map(|(t, m)| (t, Nat(m))));
            }

            // Multiplicity of every candidate output tuple must match.
            let out_domain = interp
                .domains
                .get(&lowered.schema)
                .cloned()
                .expect("output schema enumerated");
            for t in out_domain {
                let env = BTreeMap::from([(lowered.out, t.clone())]);
                let got = interp.eval_uexpr(&lowered.body, &env);
                let want = Nat(expected.get(&t).copied().unwrap_or(0));
                assert_eq!(
                    got,
                    want,
                    "query `{sql}` seed {seed}: tuple {t:?} multiplicity {got:?} ≠ {want:?}\n{}",
                    db.render(&fe.catalog)
                );
            }
        }
    }
}
