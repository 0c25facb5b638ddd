//! GROUP BY / HAVING desugaring (Sec 3.2).
//!
//! ```text
//! SELECT x.k AS k, agg(x.a) AS a1 FROM R x GROUP BY x.k
//!   ⇓
//! SELECT DISTINCT y.k AS k,
//!        agg(SELECT x.a AS agg_arg FROM R x WHERE x.k = y.k) AS a1
//! FROM R y
//! ```
//!
//! The paper prints this rewrite without the outer `DISTINCT`; we add it (as
//! COSETTE's implementation does) because the printed form yields one row
//! per *input* row instead of one per group — see DESIGN.md §4. Both sides
//! of every rule desugar identically either way, so provability is
//! unaffected; soundness against the concrete evaluator requires the
//! corrected form.
//!
//! `HAVING` clauses have their aggregates replaced the same way and join the
//! outer `WHERE`. Aggregate arguments become *correlated subqueries*: the
//! FROM list is duplicated with renamed aliases (`x ↦ x__g`) and the group
//! keys equate the renamed copy with the outer row.

use crate::ast::*;
use crate::lower::LowerError;
use std::collections::HashMap;
use udp_core::name::Name;

/// Alias-rename suffix for the inner aggregate copy.
const GROUP_SUFFIX: &str = "__g";

/// Desugar a SELECT with a non-empty GROUP BY into the correlated-aggregate
/// `SELECT DISTINCT` form.
pub fn desugar_group_by(s: &Select) -> Result<Select, LowerError> {
    let keys = group_keys(s)?;
    let mut projection = Vec::with_capacity(s.projection.len());
    for item in &s.projection {
        match item {
            SelectItem::Expr { expr, alias } => {
                projection.push(SelectItem::Expr {
                    expr: replace_aggs(expr, s, &keys)?,
                    alias: alias.clone(),
                });
            }
            other => {
                return Err(LowerError::GroupByUnsupported(format!(
                    "projection item {other:?} not allowed with GROUP BY"
                )))
            }
        }
    }
    let mut where_clause = s.where_clause.clone();
    if let Some(h) = &s.having {
        let h2 = replace_aggs_pred(h, s, &keys)?;
        where_clause = Some(match where_clause {
            Some(w) => PredExpr::and(w, h2),
            None => h2,
        });
    }
    Ok(Select {
        distinct: true,
        projection,
        from: s.from.clone(),
        where_clause,
        group_by: vec![],
        having: None,
        natural: s.natural.clone(),
        outer: s.outer.clone(),
    })
}

/// Group keys as qualified columns; a single FROM item auto-qualifies
/// unqualified keys.
fn group_keys(s: &Select) -> Result<Vec<(Name, Name)>, LowerError> {
    s.group_by
        .iter()
        .map(|g| match g {
            ScalarExpr::Column {
                table: Some(t),
                column,
            } => Ok((t.clone(), column.clone())),
            ScalarExpr::Column {
                table: None,
                column,
            } if s.from.len() == 1 => Ok((s.from[0].alias.clone(), column.clone())),
            other => Err(LowerError::GroupByUnsupported(format!(
                "group key must be a qualified column, got {other:?}"
            ))),
        })
        .collect()
}

/// Build the correlated argument query for one aggregate occurrence:
/// `SELECT e' AS agg_arg FROM F' WHERE w' AND k'ᵢ = kᵢ` where `'` marks the
/// alias-renamed copy.
pub fn aggregate_argument_query(
    s: &Select,
    arg: &AggArg,
    keys: &[(Name, Name)],
) -> Result<Query, LowerError> {
    let proj_expr = match arg {
        AggArg::Star => ScalarExpr::Int(1),
        AggArg::Expr(e) => (**e).clone(),
    };
    let skeleton = Select {
        distinct: false,
        projection: vec![SelectItem::Expr {
            expr: proj_expr,
            alias: Some("agg_arg".into()),
        }],
        from: s.from.clone(),
        where_clause: s.where_clause.clone(),
        group_by: vec![],
        having: None,
        natural: s.natural.clone(),
        outer: s.outer.clone(),
    };
    let map: HashMap<Name, Name> = s
        .from
        .iter()
        .map(|fi| {
            (
                fi.alias.clone(),
                Name::from(format!("{}{}", fi.alias, GROUP_SUFFIX)),
            )
        })
        .collect();
    let mut renamed = rename_select(&skeleton, &map, true);
    for (t, c) in keys {
        let renamed_alias = map.get(t).cloned().unwrap_or_else(|| t.clone());
        let eq = PredExpr::Cmp(
            CmpOp::Eq,
            ScalarExpr::col(renamed_alias, c.clone()),
            ScalarExpr::col(t.clone(), c.clone()),
        );
        renamed.where_clause = Some(match renamed.where_clause.take() {
            Some(w) => PredExpr::and(w, eq),
            None => eq,
        });
    }
    Ok(Query::Select(renamed))
}

fn replace_aggs(
    e: &ScalarExpr,
    s: &Select,
    keys: &[(Name, Name)],
) -> Result<ScalarExpr, LowerError> {
    match e {
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            if is_desugared(arg) {
                return Ok(e.clone());
            }
            let inner = aggregate_argument_query(s, arg, keys)?;
            Ok(ScalarExpr::Agg {
                func: func.clone(),
                arg: AggArg::Expr(Box::new(ScalarExpr::Subquery(Box::new(inner)))),
                distinct: *distinct,
            })
        }
        ScalarExpr::App(f, args) => {
            let rewritten: Result<Vec<_>, _> =
                args.iter().map(|a| replace_aggs(a, s, keys)).collect();
            Ok(ScalarExpr::App(f.clone(), rewritten?))
        }
        ScalarExpr::Case { whens, else_ } => {
            let whens: Result<Vec<_>, _> = whens
                .iter()
                .map(|(b, e)| Ok((replace_aggs_pred(b, s, keys)?, replace_aggs(e, s, keys)?)))
                .collect();
            Ok(ScalarExpr::Case {
                whens: whens?,
                else_: Box::new(replace_aggs(else_, s, keys)?),
            })
        }
        other => Ok(other.clone()),
    }
}

fn replace_aggs_pred(
    p: &PredExpr,
    s: &Select,
    keys: &[(Name, Name)],
) -> Result<PredExpr, LowerError> {
    Ok(match p {
        PredExpr::Cmp(op, a, b) => {
            PredExpr::Cmp(*op, replace_aggs(a, s, keys)?, replace_aggs(b, s, keys)?)
        }
        PredExpr::And(a, b) => PredExpr::And(
            Box::new(replace_aggs_pred(a, s, keys)?),
            Box::new(replace_aggs_pred(b, s, keys)?),
        ),
        PredExpr::Or(a, b) => PredExpr::Or(
            Box::new(replace_aggs_pred(a, s, keys)?),
            Box::new(replace_aggs_pred(b, s, keys)?),
        ),
        PredExpr::Not(a) => PredExpr::Not(Box::new(replace_aggs_pred(a, s, keys)?)),
        other => other.clone(),
    })
}

/// Has this aggregate already been desugared (argument is a subquery)?
pub fn is_desugared(arg: &AggArg) -> bool {
    matches!(arg, AggArg::Expr(e) if matches!(**e, ScalarExpr::Subquery(_)))
}

/// Does the select contain *raw* (not yet desugared) aggregates?
pub fn has_raw_aggregates(s: &Select) -> bool {
    fn raw(e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Agg { arg, .. } => !is_desugared(arg),
            ScalarExpr::App(_, args) => args.iter().any(raw),
            ScalarExpr::Case { whens, else_ } => {
                whens.iter().any(|(b, e)| raw_pred(b) || raw(e)) || raw(else_)
            }
            _ => false,
        }
    }
    fn raw_pred(p: &PredExpr) -> bool {
        match p {
            PredExpr::Cmp(_, a, b) => raw(a) || raw(b),
            PredExpr::And(a, b) | PredExpr::Or(a, b) => raw_pred(a) || raw_pred(b),
            PredExpr::Not(a) => raw_pred(a),
            _ => false,
        }
    }
    s.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => raw(expr),
        _ => false,
    }) || s.having.as_ref().is_some_and(|h| raw_pred(h))
}

// ------------------------------------------------------ alias renaming

/// Rename alias references throughout a query. `map` gives the renames;
/// selects with their own definition of an alias shadow it.
pub fn rename_query(q: &Query, map: &HashMap<Name, Name>) -> Query {
    match q {
        Query::Select(s) => Query::Select(rename_select(s, map, false)),
        Query::UnionAll(a, b) => Query::UnionAll(
            Box::new(rename_query(a, map)),
            Box::new(rename_query(b, map)),
        ),
        Query::Except(a, b) => Query::Except(
            Box::new(rename_query(a, map)),
            Box::new(rename_query(b, map)),
        ),
        Query::Union(a, b) => Query::Union(
            Box::new(rename_query(a, map)),
            Box::new(rename_query(b, map)),
        ),
        Query::Intersect(a, b) => Query::Intersect(
            Box::new(rename_query(a, map)),
            Box::new(rename_query(b, map)),
        ),
        Query::Values(rows) => Query::Values(
            rows.iter()
                .map(|row| row.iter().map(|e| rename_scalar(e, map)).collect())
                .collect(),
        ),
    }
}

/// `rename_own_aliases = true` for the top-level copy (its FROM aliases are
/// renamed too); `false` for nested scopes (their aliases shadow the map).
fn rename_select(s: &Select, map: &HashMap<Name, Name>, rename_own_aliases: bool) -> Select {
    let mut body_map = map.clone();
    if !rename_own_aliases {
        for item in &s.from {
            body_map.remove(&item.alias);
        }
    }
    let from = s
        .from
        .iter()
        .map(|fi| FromItem {
            source: match &fi.source {
                TableRef::Table(t) => TableRef::Table(t.clone()),
                TableRef::Subquery(q) => TableRef::Subquery(Box::new(rename_query(q, &body_map))),
            },
            alias: if rename_own_aliases {
                body_map
                    .get(&fi.alias)
                    .cloned()
                    .unwrap_or_else(|| fi.alias.clone())
            } else {
                fi.alias.clone()
            },
        })
        .collect();
    Select {
        distinct: s.distinct,
        projection: s
            .projection
            .iter()
            .map(|item| match item {
                SelectItem::Star => SelectItem::Star,
                SelectItem::QualifiedStar(a) => {
                    SelectItem::QualifiedStar(body_map.get(a).cloned().unwrap_or_else(|| a.clone()))
                }
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: rename_scalar(expr, &body_map),
                    alias: alias.clone(),
                },
            })
            .collect(),
        from,
        where_clause: s.where_clause.as_ref().map(|p| rename_pred(p, &body_map)),
        group_by: s
            .group_by
            .iter()
            .map(|g| rename_scalar(g, &body_map))
            .collect(),
        having: s.having.as_ref().map(|p| rename_pred(p, &body_map)),
        natural: s
            .natural
            .iter()
            .map(|(l, r)| {
                let rn = |a: &Name| {
                    if rename_own_aliases {
                        body_map.get(a).cloned().unwrap_or_else(|| a.clone())
                    } else {
                        a.clone()
                    }
                };
                (rn(l), rn(r))
            })
            .collect(),
        outer: s
            .outer
            .iter()
            .map(|oj| {
                let rn = |a: &Name| {
                    if rename_own_aliases {
                        body_map.get(a).cloned().unwrap_or_else(|| a.clone())
                    } else {
                        a.clone()
                    }
                };
                crate::ast::OuterJoin {
                    kind: oj.kind,
                    left: rn(&oj.left),
                    right: rn(&oj.right),
                    on: rename_pred(&oj.on, &body_map),
                }
            })
            .collect(),
    }
}

fn rename_scalar(e: &ScalarExpr, map: &HashMap<Name, Name>) -> ScalarExpr {
    match e {
        ScalarExpr::Column {
            table: Some(t),
            column,
        } => ScalarExpr::Column {
            table: Some(map.get(t).cloned().unwrap_or_else(|| t.clone())),
            column: column.clone(),
        },
        ScalarExpr::Column { table: None, .. }
        | ScalarExpr::Int(_)
        | ScalarExpr::Str(_)
        | ScalarExpr::Null => e.clone(),
        ScalarExpr::App(f, args) => ScalarExpr::App(
            f.clone(),
            args.iter().map(|a| rename_scalar(a, map)).collect(),
        ),
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => ScalarExpr::Agg {
            func: func.clone(),
            arg: match arg {
                AggArg::Star => AggArg::Star,
                AggArg::Expr(e) => AggArg::Expr(Box::new(rename_scalar(e, map))),
            },
            distinct: *distinct,
        },
        ScalarExpr::Subquery(q) => ScalarExpr::Subquery(Box::new(rename_query(q, map))),
        ScalarExpr::Case { whens, else_ } => ScalarExpr::Case {
            whens: whens
                .iter()
                .map(|(b, e)| (rename_pred(b, map), rename_scalar(e, map)))
                .collect(),
            else_: Box::new(rename_scalar(else_, map)),
        },
    }
}

/// Rename alias references throughout a predicate (shadowing-aware for
/// nested subqueries). Public for `udp-ext`'s antijoin probe construction.
pub fn rename_pred(p: &PredExpr, map: &HashMap<Name, Name>) -> PredExpr {
    match p {
        PredExpr::Cmp(op, a, b) => PredExpr::Cmp(*op, rename_scalar(a, map), rename_scalar(b, map)),
        PredExpr::And(a, b) => {
            PredExpr::And(Box::new(rename_pred(a, map)), Box::new(rename_pred(b, map)))
        }
        PredExpr::Or(a, b) => {
            PredExpr::Or(Box::new(rename_pred(a, map)), Box::new(rename_pred(b, map)))
        }
        PredExpr::Not(a) => PredExpr::Not(Box::new(rename_pred(a, map))),
        PredExpr::True => PredExpr::True,
        PredExpr::False => PredExpr::False,
        PredExpr::Exists(q) => PredExpr::Exists(Box::new(rename_query(q, map))),
        PredExpr::InQuery(e, q) => {
            PredExpr::InQuery(rename_scalar(e, map), Box::new(rename_query(q, map)))
        }
        PredExpr::IsNull(e) => PredExpr::IsNull(Box::new(rename_scalar(e, map))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn select_of(sql: &str) -> Select {
        match parse_query(sql).unwrap() {
            Query::Select(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_example_desugars_with_distinct() {
        let s = select_of("SELECT x.k AS k, SUM(x.a) AS a1 FROM r x GROUP BY x.k");
        let d = desugar_group_by(&s).unwrap();
        assert!(d.distinct, "corrected desugaring adds DISTINCT");
        assert!(d.group_by.is_empty());
        match &d.projection[1] {
            SelectItem::Expr {
                expr: ScalarExpr::Agg { arg, .. },
                ..
            } => {
                assert!(is_desugared(arg), "aggregate argument is a subquery");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_argument_query_is_correlated_on_keys() {
        let s = select_of("SELECT x.k AS k, SUM(x.a) AS a1 FROM r x WHERE x.a > 0 GROUP BY x.k");
        let q = aggregate_argument_query(
            &s,
            &AggArg::Expr(Box::new(ScalarExpr::col("x", "a"))),
            &[("x".into(), "k".into())],
        )
        .unwrap();
        match q {
            Query::Select(inner) => {
                assert_eq!(inner.from[0].alias, "x__g");
                // where: renamed filter AND x__g.k = x.k
                let w = format!("{:?}", inner.where_clause);
                assert!(w.contains("x__g"), "{w}");
                assert!(w.contains("\"x\""), "correlates to outer alias: {w}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_star_projects_constant_one() {
        let s = select_of("SELECT x.k AS k, COUNT(*) AS n FROM r x GROUP BY x.k");
        let d = desugar_group_by(&s).unwrap();
        match &d.projection[1] {
            SelectItem::Expr {
                expr:
                    ScalarExpr::Agg {
                        arg: AggArg::Expr(e),
                        ..
                    },
                ..
            } => match &**e {
                ScalarExpr::Subquery(q) => match &**q {
                    Query::Select(inner) => match &inner.projection[0] {
                        SelectItem::Expr {
                            expr: ScalarExpr::Int(1),
                            ..
                        } => {}
                        other => panic!("unexpected {other:?}"),
                    },
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn having_joins_where() {
        let s = select_of("SELECT x.k AS k FROM r x GROUP BY x.k HAVING COUNT(*) > 1");
        let d = desugar_group_by(&s).unwrap();
        assert!(d.having.is_none());
        assert!(d.where_clause.is_some());
    }

    #[test]
    fn unqualified_key_autoqualifies_with_single_from() {
        let s = select_of("SELECT x.k AS k FROM r x GROUP BY k");
        assert!(desugar_group_by(&s).is_ok());
    }

    #[test]
    fn multi_from_unqualified_key_rejected() {
        let s = select_of("SELECT x.k AS k FROM r x, s y GROUP BY k");
        assert!(matches!(
            desugar_group_by(&s),
            Err(LowerError::GroupByUnsupported(_))
        ));
    }

    #[test]
    fn shadowed_aliases_are_not_renamed() {
        // inner subquery re-defines x: its x must not be renamed.
        let s = select_of(
            "SELECT x.k AS k, SUM(x.a) AS t FROM r x \
             WHERE EXISTS (SELECT * FROM s x WHERE x.b = 1) GROUP BY x.k",
        );
        let q = aggregate_argument_query(
            &s,
            &AggArg::Expr(Box::new(ScalarExpr::col("x", "a"))),
            &[("x".into(), "k".into())],
        )
        .unwrap();
        let rendered = format!("{q:?}");
        // the EXISTS subquery's own alias binding stays `x`
        assert!(rendered.contains("alias: \"x\""), "{rendered}");
    }

    #[test]
    fn raw_aggregate_detection() {
        let s = select_of("SELECT SUM(x.a) AS t FROM r x");
        assert!(has_raw_aggregates(&s));
        let d = select_of("SELECT x.k AS k, SUM(x.a) AS t FROM r x GROUP BY x.k");
        let d = desugar_group_by(&d).unwrap();
        assert!(!has_raw_aggregates(&d), "desugared aggregates are not raw");
    }

    fn select_of_ext(sql: &str) -> Select {
        match crate::parser::parse_query_with(sql, crate::parser::Dialect::Extended).unwrap() {
            Query::Select(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rename_recurses_into_extended_query_forms() {
        // Aliases defined by each SELECT shadow the rename map, so a
        // UNION/INTERSECT/VALUES tree of self-contained scopes is untouched…
        let q = crate::parser::parse_query_with(
            "SELECT x.a AS v FROM r x UNION SELECT y.a AS v FROM s y \
             INTERSECT SELECT * FROM (VALUES (1)) w",
            crate::parser::Dialect::Extended,
        )
        .unwrap();
        let map = HashMap::from([("x".into(), "x2".into())]);
        assert_eq!(
            rename_query(&q, &map),
            q,
            "locally bound aliases shadow the map"
        );

        // …while a *correlated* reference inside a UNION operand is renamed.
        let q = crate::parser::parse_query_with(
            "SELECT x.a AS v FROM r x WHERE EXISTS \
             (SELECT * FROM s y WHERE y.a = o.a UNION SELECT * FROM s z WHERE z.a = o.a)",
            crate::parser::Dialect::Extended,
        )
        .unwrap();
        let map = HashMap::from([("o".into(), "outer2".into())]);
        let renamed = rename_query(&q, &map);
        let s = format!("{renamed:?}");
        assert!(!s.contains("Some(\"o\")"), "{s}");
        assert_eq!(s.matches("Some(\"outer2\")").count(), 2, "{s}");
    }

    #[test]
    fn rename_recurses_into_case_branches() {
        let s = select_of_ext("SELECT CASE WHEN x.a = 1 THEN x.k ELSE 0 END AS v FROM r x");
        let map = HashMap::from([("x".into(), "u".into())]);
        let renamed = rename_select(&s, &map, true);
        let rendered = format!("{renamed:?}");
        assert!(!rendered.contains("Some(\"x\")"), "{rendered}");
        assert!(rendered.contains("Some(\"u\")"), "{rendered}");
    }

    #[test]
    fn aggregates_inside_case_are_raw_and_desugar() {
        let s = select_of_ext(
            "SELECT x.k AS k, CASE WHEN SUM(x.a) = 0 THEN 0 ELSE 1 END AS v \
             FROM r x GROUP BY x.k",
        );
        assert!(has_raw_aggregates(&s));
        let d = desugar_group_by(&s).unwrap();
        assert!(
            !has_raw_aggregates(&d),
            "CASE-nested aggregates desugar too"
        );
    }

    #[test]
    fn natural_pairs_survive_group_by_desugaring() {
        let s =
            select_of_ext("SELECT x.k AS k, SUM(y.b) AS t FROM r x NATURAL JOIN s y GROUP BY x.k");
        assert_eq!(s.natural.len(), 1);
        let d = desugar_group_by(&s).unwrap();
        assert_eq!(d.natural, s.natural, "outer query keeps its natural pairs");
        // The correlated aggregate-argument copy renames its aliases,
        // including in the natural pairs.
        let q = aggregate_argument_query(
            &s,
            &AggArg::Expr(Box::new(ScalarExpr::col("y", "b"))),
            &[("x".into(), "k".into())],
        )
        .unwrap();
        match q {
            Query::Select(inner) => {
                assert_eq!(inner.natural, vec![("x__g".into(), "y__g".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
