//! Property tests pinning the oracle's three-valued logic to the SQL
//! standard's truth tables: `=`, `AND`, `OR`, `NOT`, and `IS NULL` over
//! NULL-containing rows, plus the derived guarantees (`WHERE` keeps only
//! TRUE, `p OR NOT p` is not a tautology under NULLs).

use udp_core::expr::Value;
use udp_eval::eval::{eval_pred_on_rows, Truth};
use udp_eval::{eval_query, Database, Row, Table};
use udp_sql::ast::{CmpOp, PredExpr, ScalarExpr};
use udp_sql::{build_frontend, parse_program_with, parse_query_with, Dialect, Frontend};

fn setup() -> Frontend {
    let p = parse_program_with("schema rs(a:int?, b:int?);\ntable r(rs);", Dialect::Full).unwrap();
    build_frontend(&p).unwrap()
}

/// Evaluate `pred` against the single row `(a, b)`.
fn truth_of(fe: &Frontend, pred: &PredExpr, a: Value, b: Value) -> Truth {
    let db = Database::new();
    let frames = vec![("x".into(), vec!["a".into(), "b".into()], vec![a, b] as Row)];
    eval_pred_on_rows(fe, &db, pred, &frames).unwrap()
}

fn col(c: &str) -> ScalarExpr {
    ScalarExpr::col("x", c)
}

fn eq_ab() -> PredExpr {
    PredExpr::Cmp(CmpOp::Eq, col("a"), col("b"))
}

const VALUES: [Value; 3] = [Value::Null, Value::Int(0), Value::Int(1)];

#[test]
fn equality_truth_table() {
    let fe = setup();
    for a in &VALUES {
        for b in &VALUES {
            let got = truth_of(&fe, &eq_ab(), a.clone(), b.clone());
            let want = match (a, b) {
                (Value::Null, _) | (_, Value::Null) => Truth::Unknown,
                (x, y) => Truth::from_bool(x == y),
            };
            assert_eq!(got, want, "{a:?} = {b:?}");
        }
    }
}

#[test]
fn ordering_comparisons_are_unknown_on_null() {
    let fe = setup();
    for op in [CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        let p = PredExpr::Cmp(op, col("a"), ScalarExpr::Int(0));
        assert_eq!(
            truth_of(&fe, &p, Value::Null, Value::Int(0)),
            Truth::Unknown,
            "NULL {op} 0"
        );
    }
}

#[test]
fn is_null_is_two_valued() {
    let fe = setup();
    let p = PredExpr::IsNull(Box::new(col("a")));
    assert_eq!(truth_of(&fe, &p, Value::Null, Value::Int(0)), Truth::True);
    assert_eq!(
        truth_of(&fe, &p, Value::Int(3), Value::Int(0)),
        Truth::False
    );
    let not_null = PredExpr::Not(Box::new(p));
    assert_eq!(
        truth_of(&fe, &not_null, Value::Null, Value::Int(0)),
        Truth::False
    );
    assert_eq!(
        truth_of(&fe, &not_null, Value::Int(3), Value::Int(0)),
        Truth::True
    );
}

/// Kleene truth tables for AND / OR / NOT, driven through predicate
/// combinators over rows that realize each input truth value:
/// `a = 1` is True at a=1, False at a=0, Unknown at a=NULL.
#[test]
fn kleene_connectives_match_the_standard() {
    let fe = setup();
    // (row value, resulting truth of `col = 1`)
    let cases: [(Value, Truth); 3] = [
        (Value::Int(1), Truth::True),
        (Value::Int(0), Truth::False),
        (Value::Null, Truth::Unknown),
    ];
    let pa = PredExpr::Cmp(CmpOp::Eq, col("a"), ScalarExpr::Int(1));
    let pb = PredExpr::Cmp(CmpOp::Eq, col("b"), ScalarExpr::Int(1));
    for (va, ta) in &cases {
        for (vb, tb) in &cases {
            let and = PredExpr::And(Box::new(pa.clone()), Box::new(pb.clone()));
            let or = PredExpr::Or(Box::new(pa.clone()), Box::new(pb.clone()));
            assert_eq!(
                truth_of(&fe, &and, va.clone(), vb.clone()),
                ta.and(*tb),
                "{ta:?} AND {tb:?}"
            );
            assert_eq!(
                truth_of(&fe, &or, va.clone(), vb.clone()),
                ta.or(*tb),
                "{ta:?} OR {tb:?}"
            );
        }
        let not = PredExpr::Not(Box::new(pa.clone()));
        assert_eq!(
            truth_of(&fe, &not, va.clone(), Value::Int(0)),
            ta.not(),
            "NOT {ta:?}"
        );
    }
}

#[test]
fn truth_ops_satisfy_kleene_laws() {
    use Truth::*;
    for t in [True, False, Unknown] {
        assert_eq!(t.not().not(), t);
        assert_eq!(t.and(True), t);
        assert_eq!(t.or(False), t);
        assert_eq!(t.and(False), False);
        assert_eq!(t.or(True), True);
        for u in [True, False, Unknown] {
            // De Morgan.
            assert_eq!(t.and(u).not(), t.not().or(u.not()));
            assert_eq!(t.or(u).not(), t.not().and(u.not()));
        }
    }
    assert_eq!(Unknown.and(Unknown), Unknown);
    assert_eq!(Unknown.or(Unknown), Unknown);
    assert_eq!(Unknown.not(), Unknown);
}

/// `WHERE p` and `WHERE NOT p` both drop UNKNOWN rows: excluded middle
/// fails under NULLs, and the evaluator must reproduce that.
#[test]
fn where_keeps_only_definite_truth() {
    let fe = setup();
    let mut db = Database::new();
    let r = fe.catalog.relation_id("r").unwrap();
    db.insert(
        r,
        Table::new(vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(0), Value::Int(0)],
            vec![Value::Null, Value::Int(0)],
        ]),
    );
    let pos = parse_query_with("SELECT * FROM r x WHERE x.a = 1", Dialect::Full).unwrap();
    let neg = parse_query_with("SELECT * FROM r x WHERE NOT (x.a = 1)", Dialect::Full).unwrap();
    let either = parse_query_with(
        "SELECT * FROM r x WHERE x.a = 1 OR NOT (x.a = 1)",
        Dialect::Full,
    )
    .unwrap();
    assert_eq!(eval_query(&fe, &db, &pos).unwrap().rows.len(), 1);
    assert_eq!(eval_query(&fe, &db, &neg).unwrap().rows.len(), 1);
    // The NULL row satisfies neither arm: p ∨ ¬p is not a tautology.
    assert_eq!(eval_query(&fe, &db, &either).unwrap().rows.len(), 2);
}

/// Aggregates skip NULLs; COUNT(*) does not.
#[test]
fn aggregates_ignore_nulls() {
    let fe = setup();
    let mut db = Database::new();
    let r = fe.catalog.relation_id("r").unwrap();
    db.insert(
        r,
        Table::new(vec![
            vec![Value::Int(5), Value::Int(0)],
            vec![Value::Null, Value::Int(0)],
            vec![Value::Int(7), Value::Null],
        ]),
    );
    let q = parse_query_with(
        "SELECT COUNT(*) AS n, COUNT(x.a) AS ca, SUM(x.a) AS sa FROM r x",
        Dialect::Full,
    )
    .unwrap();
    let out = eval_query(&fe, &db, &q).unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::Int(3), Value::Int(2), Value::Int(12)]]
    );
}
