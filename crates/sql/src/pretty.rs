//! Pretty-printing of the surface AST back to SQL text.
//!
//! The printer produces parseable output: `parse(print(q)) == q` up to the
//! desugarings the parser itself performs (JOIN → WHERE conjuncts, BETWEEN →
//! range conjunction), which the round-trip tests pin down.

use crate::ast::*;
use std::fmt::Write;

/// Render a query as SQL text.
pub fn query_to_sql(q: &Query) -> String {
    let mut out = String::new();
    write_query(&mut out, q);
    out
}

/// Render a whole statement.
pub fn statement_to_sql(s: &Statement) -> String {
    match s {
        Statement::Schema { name, attrs, open } => {
            let mut parts: Vec<String> = attrs.iter().map(|(a, t)| format!("{a}:{t}")).collect();
            if *open {
                parts.push("??".into());
            }
            format!("schema {name}({});", parts.join(", "))
        }
        Statement::Table { name, schema } => format!("table {name}({schema});"),
        Statement::Key { table, attrs } => format!("key {table}({});", attrs.join(", ")),
        Statement::ForeignKey {
            table,
            attrs,
            ref_table,
            ref_attrs,
        } => format!(
            "foreign key {table}({}) references {ref_table}({});",
            attrs.join(", "),
            ref_attrs.join(", ")
        ),
        Statement::View { name, query } => format!("view {name} as {};", query_to_sql(query)),
        Statement::Index { name, table, attrs } => {
            format!("index {name} on {table}({});", attrs.join(", "))
        }
        Statement::Verify { q1, q2 } => {
            format!("verify {} == {};", query_to_sql(q1), query_to_sql(q2))
        }
    }
}

/// Render a whole program.
pub fn program_to_sql(p: &Program) -> String {
    p.statements
        .iter()
        .map(statement_to_sql)
        .collect::<Vec<_>>()
        .join("\n")
}

fn write_query(out: &mut String, q: &Query) {
    match q {
        Query::Select(s) => write_select(out, s),
        Query::UnionAll(a, b) => {
            let _ = write!(out, "(");
            write_query(out, a);
            let _ = write!(out, ") UNION ALL (");
            write_query(out, b);
            let _ = write!(out, ")");
        }
        Query::Except(a, b) => {
            let _ = write!(out, "(");
            write_query(out, a);
            let _ = write!(out, ") EXCEPT (");
            write_query(out, b);
            let _ = write!(out, ")");
        }
        Query::Union(a, b) => {
            let _ = write!(out, "(");
            write_query(out, a);
            let _ = write!(out, ") UNION (");
            write_query(out, b);
            let _ = write!(out, ")");
        }
        Query::Intersect(a, b) => {
            let _ = write!(out, "(");
            write_query(out, a);
            let _ = write!(out, ") INTERSECT (");
            write_query(out, b);
            let _ = write!(out, ")");
        }
        Query::Values(rows) => {
            let _ = write!(out, "VALUES ");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let rendered: Vec<String> = row.iter().map(scalar_to_sql).collect();
                let _ = write!(out, "({})", rendered.join(", "));
            }
        }
    }
}

fn write_select(out: &mut String, s: &Select) {
    let _ = write!(out, "SELECT ");
    if s.distinct {
        let _ = write!(out, "DISTINCT ");
    }
    for (i, item) in s.projection.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", ");
        }
        match item {
            SelectItem::Star => {
                let _ = write!(out, "*");
            }
            SelectItem::QualifiedStar(a) => {
                let _ = write!(out, "{a}.*");
            }
            SelectItem::Expr { expr, alias } => {
                let _ = write!(out, "{}", scalar_to_sql(expr));
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    if !s.from.is_empty() {
        let _ = write!(out, " FROM ");
        for (i, item) in s.from.iter().enumerate() {
            // Outer-join / NATURAL JOIN clauses were recorded between
            // adjacent items; re-attach them by adjacency.
            let outer = (i > 0)
                .then(|| {
                    let prev = &s.from[i - 1].alias;
                    s.outer
                        .iter()
                        .find(|oj| oj.left == *prev && oj.right == item.alias)
                })
                .flatten();
            if i > 0 {
                let prev = &s.from[i - 1].alias;
                if let Some(oj) = outer {
                    let _ = write!(out, " {} JOIN ", oj.kind);
                } else if s.natural.iter().any(|(l, r)| l == prev && *r == item.alias) {
                    let _ = write!(out, " NATURAL JOIN ");
                } else {
                    let _ = write!(out, ", ");
                }
            }
            match &item.source {
                TableRef::Table(t) if *t == item.alias => {
                    let _ = write!(out, "{t}");
                }
                TableRef::Table(t) => {
                    let _ = write!(out, "{t} {}", item.alias);
                }
                TableRef::Subquery(q) => {
                    let _ = write!(out, "(");
                    write_query(out, q);
                    let _ = write!(out, ") {}", item.alias);
                }
            }
            if let Some(oj) = outer {
                let _ = write!(out, " ON {}", pred_to_sql(&oj.on));
            }
        }
    }
    if let Some(w) = &s.where_clause {
        let _ = write!(out, " WHERE {}", pred_to_sql(w));
    }
    if !s.group_by.is_empty() {
        let keys: Vec<String> = s.group_by.iter().map(scalar_to_sql).collect();
        let _ = write!(out, " GROUP BY {}", keys.join(", "));
        if let Some(h) = &s.having {
            let _ = write!(out, " HAVING {}", pred_to_sql(h));
        }
    }
}

/// Render a scalar expression.
pub fn scalar_to_sql(e: &ScalarExpr) -> String {
    match e {
        ScalarExpr::Column {
            table: Some(t),
            column,
        } => format!("{t}.{column}"),
        ScalarExpr::Column {
            table: None,
            column,
        } => column.to_string(),
        ScalarExpr::Int(i) => i.to_string(),
        ScalarExpr::Str(s) => format!("'{s}'"),
        ScalarExpr::Null => "NULL".into(),
        ScalarExpr::App(f, args) => {
            let op = match f.as_str() {
                "add" => Some("+"),
                "sub" => Some("-"),
                "mul" => Some("*"),
                "div" => Some("/"),
                _ => None,
            };
            match (op, args.as_slice()) {
                (Some(op), [a, b]) => {
                    format!("({} {op} {})", scalar_to_sql(a), scalar_to_sql(b))
                }
                _ => {
                    let rendered: Vec<String> = args.iter().map(scalar_to_sql).collect();
                    format!("{f}({})", rendered.join(", "))
                }
            }
        }
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            let inner = match arg {
                AggArg::Star => "*".to_string(),
                AggArg::Expr(e) => scalar_to_sql(e),
            };
            if *distinct {
                format!("{}(DISTINCT {inner})", func.to_uppercase())
            } else {
                format!("{}({inner})", func.to_uppercase())
            }
        }
        ScalarExpr::Subquery(q) => format!("({})", query_to_sql(q)),
        ScalarExpr::Case { whens, else_ } => {
            let mut out = String::from("CASE");
            for (b, e) in whens {
                let _ = write!(out, " WHEN {} THEN {}", pred_to_sql(b), scalar_to_sql(e));
            }
            let _ = write!(out, " ELSE {} END", scalar_to_sql(else_));
            out
        }
    }
}

/// Render a predicate.
pub fn pred_to_sql(p: &PredExpr) -> String {
    match p {
        PredExpr::Cmp(op, a, b) => {
            format!("{} {op} {}", scalar_to_sql(a), scalar_to_sql(b))
        }
        PredExpr::And(a, b) => format!("({} AND {})", pred_to_sql(a), pred_to_sql(b)),
        PredExpr::Or(a, b) => format!("({} OR {})", pred_to_sql(a), pred_to_sql(b)),
        // `IS NOT NULL` parses to `Not(IsNull(_))`; print it back that way
        // so the round trip is the identity.
        PredExpr::Not(a) => match a.as_ref() {
            PredExpr::IsNull(e) => format!("{} IS NOT NULL", scalar_to_sql(e)),
            _ => format!("NOT ({})", pred_to_sql(a)),
        },
        PredExpr::IsNull(e) => format!("{} IS NULL", scalar_to_sql(e)),
        PredExpr::True => "TRUE".into(),
        PredExpr::False => "FALSE".into(),
        PredExpr::Exists(q) => format!("EXISTS ({})", query_to_sql(q)),
        PredExpr::InQuery(e, q) => {
            format!("{} IN ({})", scalar_to_sql(e), query_to_sql(q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};

    fn round_trip(sql: &str) {
        let q1 = parse_query(sql).unwrap();
        let printed = query_to_sql(&q1);
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {printed}\n{e}"));
        assert_eq!(
            q1, q2,
            "round trip changed the AST:\n  in:  {sql}\n  out: {printed}"
        );
    }

    #[test]
    fn round_trips_basic_queries() {
        round_trip("SELECT * FROM r x WHERE x.a = 3");
        round_trip("SELECT DISTINCT x.a AS a, x.b AS b FROM r x, s y WHERE x.k = y.k");
        round_trip("SELECT t.a AS a FROM (SELECT * FROM r x WHERE x.a > 1) t");
        round_trip("SELECT x.a AS a FROM r x UNION ALL SELECT y.a AS a FROM s y");
        round_trip("SELECT x.a AS a FROM r x EXCEPT SELECT y.a AS a FROM s y");
    }

    #[test]
    fn round_trips_predicates() {
        round_trip("SELECT * FROM r x WHERE x.a = 1 AND (x.b = 2 OR x.c = 3)");
        round_trip("SELECT * FROM r x WHERE NOT (x.a <> 1)");
        round_trip("SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k = x.k)");
        round_trip("SELECT * FROM r x WHERE x.a IN (SELECT y.a AS a FROM s y)");
        round_trip("SELECT * FROM r x WHERE TRUE");
    }

    #[test]
    fn round_trips_aggregates() {
        round_trip("SELECT x.k AS k, SUM(x.a) AS s FROM r x GROUP BY x.k");
        round_trip("SELECT x.k AS k, COUNT(*) AS n FROM r x GROUP BY x.k HAVING COUNT(*) > 1");
        round_trip("SELECT COUNT(DISTINCT x.a) AS n FROM r x");
    }

    #[test]
    fn round_trips_arithmetic() {
        round_trip("SELECT * FROM r x WHERE x.a + 5 > x.b");
        round_trip("SELECT (x.a * 2) - 1 AS v FROM r x");
    }

    #[test]
    fn round_trips_whole_programs() {
        let text = "schema s(k:int, a:int);\n\
                    table r(s);\n\
                    key r(k);\n\
                    foreign key r(a) references r(k);\n\
                    view v as SELECT * FROM r x WHERE x.a = 1;\n\
                    index i on r(a);\n\
                    verify SELECT * FROM r x == SELECT * FROM r y;";
        let p1 = parse_program(text).unwrap();
        let printed = program_to_sql(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {printed}\n{e}"));
        assert_eq!(p1, p2);
    }

    fn round_trip_ext(sql: &str) {
        use crate::parser::{parse_query_with, Dialect};
        let q1 = parse_query_with(sql, Dialect::Extended).unwrap();
        let printed = query_to_sql(&q1);
        let q2 = parse_query_with(&printed, Dialect::Extended)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {printed}\n{e}"));
        assert_eq!(
            q1, q2,
            "round trip changed the AST:\n  in:  {sql}\n  out: {printed}"
        );
    }

    #[test]
    fn round_trips_extended_dialect() {
        round_trip_ext("SELECT * FROM r x UNION SELECT * FROM s y");
        round_trip_ext("SELECT * FROM r x INTERSECT SELECT * FROM s y");
        round_trip_ext("VALUES (1, 2), (3, 4)");
        round_trip_ext("SELECT * FROM (VALUES (1), (2)) v WHERE v.c0 = 1");
        round_trip_ext("SELECT CASE WHEN x.a = 1 THEN 2 ELSE 3 END AS v FROM r x");
        round_trip_ext("SELECT * FROM r x WHERE CASE WHEN x.a = 1 THEN x.k ELSE x.a END = 5");
        round_trip_ext("SELECT * FROM r x NATURAL JOIN s y");
        round_trip_ext("SELECT * FROM r x NATURAL JOIN s y, t z WHERE z.a = x.a");
    }

    fn round_trip_full(sql: &str) {
        use crate::parser::{parse_query_with, Dialect};
        let q1 = parse_query_with(sql, Dialect::Full).unwrap();
        let printed = query_to_sql(&q1);
        let q2 = parse_query_with(&printed, Dialect::Full)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {printed}\n{e}"));
        assert_eq!(
            q1, q2,
            "round trip changed the AST:\n  in:  {sql}\n  out: {printed}"
        );
    }

    #[test]
    fn round_trips_full_dialect() {
        round_trip_full("SELECT * FROM r x WHERE x.a IS NULL");
        round_trip_full("SELECT * FROM r x WHERE x.a IS NOT NULL");
        round_trip_full("SELECT NULL AS n FROM r x WHERE x.a = NULL");
        round_trip_full("SELECT x.a AS a, y.b AS b FROM r x LEFT JOIN s y ON x.a = y.a");
        round_trip_full("SELECT x.a AS a FROM r x RIGHT JOIN s y ON x.a = y.a WHERE x.a = 1");
        round_trip_full("SELECT x.a AS a FROM r x FULL JOIN s y ON x.a = y.a");
        round_trip_full(
            "SELECT x.a AS a FROM r x LEFT JOIN s y ON x.a = y.a LEFT JOIN t z ON y.b = z.b",
        );
        round_trip_full("SELECT CASE WHEN x.a = 1 THEN 2 END AS v FROM r x");
    }

    #[test]
    fn every_corpus_rule_pretty_prints_and_reparses() {
        // Structural check across the full supported corpus: print ∘ parse
        // is the identity on parseable rule files.
        for (sql, expect_parse) in [(
            "SELECT e.ename AS n FROM emp e JOIN dept d ON e.deptno = d.deptno",
            true,
        )] {
            let q = parse_query(sql);
            assert_eq!(q.is_ok(), expect_parse);
            if let Ok(q) = q {
                let printed = query_to_sql(&q);
                assert_eq!(parse_query(&printed).unwrap(), q);
            }
        }
    }
}
