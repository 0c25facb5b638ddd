//! Output-shape and nullability analysis over the surface AST.
//!
//! The 3VL encoding ([`crate::encode`]) and the outer-join elimination
//! ([`crate::outer`]) both need to know, *before lowering*, which columns a
//! query produces and which of them may carry the NULL tag. This module
//! computes that by a light-weight static pass: FROM aliases resolve to
//! their source shapes (base-table schemas, view bodies, derived-table
//! projections) and expression nullability follows SQL strictness (a
//! function application is NULL iff some argument is; aggregates and
//! EXISTS-style constructs never are).
//!
//! Nullability here is an *over*-approximation: marking a never-NULL column
//! nullable only inserts vacuously true guards (which may cost proofs, never
//! soundness); missing a genuinely nullable column would break the encoding,
//! so lookups err on the declared-schema side.

use crate::ExtError;
use udp_core::name::Name;
use udp_sql::ast::{Query, ScalarExpr, Select, SelectItem, TableRef};
use udp_sql::Frontend;

/// The statically inferred output shape of a query: column names with
/// per-column nullability, in projection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// `(column name, may be NULL)` pairs.
    pub cols: Vec<(Name, bool)>,
    /// The source schema is open (`??`): the listed columns are a lower
    /// bound. Open sources cannot be NULL-padded.
    pub open: bool,
}

impl Shape {
    /// Position-independent lookup.
    pub fn nullable(&self, col: &str) -> Option<bool> {
        self.cols.iter().find(|(n, _)| n == col).map(|(_, b)| *b)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<Name> {
        self.cols.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// Alias scope for shape analysis, linked to the enclosing query's scope so
/// correlated references resolve.
pub struct Scope<'a> {
    parent: Option<&'a Scope<'a>>,
    items: Vec<(Name, Shape)>,
}

impl<'a> Scope<'a> {
    /// The empty root scope.
    pub fn root() -> Scope<'static> {
        Scope {
            parent: None,
            items: Vec::new(),
        }
    }

    /// A child scope (for a nested query's own FROM items).
    pub fn child(&'a self) -> Scope<'a> {
        Scope {
            parent: Some(self),
            items: Vec::new(),
        }
    }

    /// Bind an alias to a shape.
    pub fn bind(&mut self, alias: Name, shape: Shape) {
        self.items.push((alias, shape));
    }

    /// Shape of an alias, innermost first.
    pub fn lookup_alias(&self, alias: &str) -> Option<&Shape> {
        self.items
            .iter()
            .rev()
            .find(|(a, _)| a == alias)
            .map(|(_, s)| s)
            .or_else(|| self.parent.and_then(|p| p.lookup_alias(alias)))
    }

    /// Nullability of a column reference. Unknown references resolve to
    /// `false` (the lowerer reports them properly; treating them as
    /// non-nullable keeps the encoding minimal).
    pub fn column_nullable(&self, table: Option<&str>, column: &str) -> bool {
        match table {
            Some(t) => self
                .lookup_alias(t)
                .and_then(|s| s.nullable(column))
                .unwrap_or(false),
            None => {
                let hits: Vec<bool> = self
                    .items
                    .iter()
                    .filter_map(|(_, s)| s.nullable(column))
                    .collect();
                match hits.len() {
                    1 => hits[0],
                    0 => self
                        .parent
                        .map(|p| p.column_nullable(None, column))
                        .unwrap_or(false),
                    // Ambiguous: the lowerer rejects it later; any answer is
                    // moot, but over-approximate.
                    _ => hits.into_iter().any(|b| b),
                }
            }
        }
    }
}

/// May the expression evaluate to NULL? (SQL strictness for functions.)
pub fn expr_nullable(fe: &Frontend, scope: &Scope<'_>, e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Null => true,
        ScalarExpr::Column { table, column } => scope.column_nullable(table.as_deref(), column),
        ScalarExpr::Int(_) | ScalarExpr::Str(_) => false,
        ScalarExpr::App(_, args) => args.iter().any(|a| expr_nullable(fe, scope, a)),
        ScalarExpr::Case { whens, else_ } => {
            whens.iter().any(|(_, v)| expr_nullable(fe, scope, v))
                || expr_nullable(fe, scope, else_)
        }
        // Aggregates and scalar subqueries are non-NULL in this fragment
        // (the evaluator returns 0 for empty aggregates, and scalar
        // subqueries must be singletons).
        ScalarExpr::Agg { .. } | ScalarExpr::Subquery(_) => false,
    }
}

/// Shape of a FROM source (table, view, or derived table).
pub fn source_shape(
    fe: &Frontend,
    scope: &Scope<'_>,
    source: &TableRef,
) -> Result<Shape, ExtError> {
    match source {
        TableRef::Table(name) => {
            if let Some(rid) = fe.catalog.relation_id(name) {
                let schema = fe.catalog.relation_schema(rid);
                let cols = schema
                    .attrs
                    .iter()
                    .enumerate()
                    .map(|(i, (n, _))| {
                        (n.clone(), schema.nullable.get(i).copied().unwrap_or(false))
                    })
                    .collect();
                return Ok(Shape {
                    cols,
                    open: schema.open,
                });
            }
            if let Some(view) = fe.views.get(name) {
                let root = Scope::root();
                return query_shape(fe, &root, &view.clone());
            }
            Err(ExtError::UnknownTable(name.to_string()))
        }
        TableRef::Subquery(q) => query_shape(fe, scope, q),
    }
}

/// Output shape of a whole query.
pub fn query_shape(fe: &Frontend, scope: &Scope<'_>, q: &Query) -> Result<Shape, ExtError> {
    match q {
        Query::Select(s) => select_shape(fe, scope, s),
        Query::UnionAll(a, b) | Query::Union(a, b) => {
            let sa = query_shape(fe, scope, a)?;
            let sb = query_shape(fe, scope, b)?;
            Ok(merge_positional(sa, &sb))
        }
        // EXCEPT / INTERSECT keep (a subset of) the left rows; the right
        // side only filters, but merging keeps the approximation safe.
        Query::Except(a, b) | Query::Intersect(a, b) => {
            let sa = query_shape(fe, scope, a)?;
            let sb = query_shape(fe, scope, b)?;
            Ok(merge_positional(sa, &sb))
        }
        Query::Values(rows) => {
            let arity = rows.first().map(Vec::len).unwrap_or(0);
            let cols = (0..arity)
                .map(|j| {
                    let nullable = rows.iter().any(|row| expr_nullable(fe, scope, &row[j]));
                    (Name::from(format!("c{j}")), nullable)
                })
                .collect();
            Ok(Shape { cols, open: false })
        }
    }
}

fn merge_positional(mut left: Shape, right: &Shape) -> Shape {
    for (i, (_, n)) in left.cols.iter_mut().enumerate() {
        if let Some((_, rn)) = right.cols.get(i) {
            *n = *n || *rn;
        }
    }
    left
}

fn select_shape(fe: &Frontend, scope: &Scope<'_>, s: &Select) -> Result<Shape, ExtError> {
    let mut inner = scope.child();
    for item in &s.from {
        let shape = source_shape(fe, &inner, &item.source)?;
        inner.bind(item.alias.clone(), shape);
    }
    // Columns of NULL-padding aliases (left-preserved sides pad the right
    // alias, and vice versa) become nullable in this select's own scope.
    for oj in &s.outer {
        use udp_sql::ast::OuterKind;
        let mut pad = |alias: &str| {
            for (a, shape) in inner.items.iter_mut() {
                if a == alias {
                    for (_, n) in shape.cols.iter_mut() {
                        *n = true;
                    }
                }
            }
        };
        match oj.kind {
            OuterKind::Left => pad(&oj.right),
            OuterKind::Right => pad(&oj.left),
            OuterKind::Full => {
                pad(&oj.left);
                pad(&oj.right);
            }
        }
    }
    // NATURAL JOIN star-merge: shared columns of the right alias skipped.
    let mut skip: Vec<(Name, Name)> = Vec::new();
    for (la, ra) in &s.natural {
        if let (Some(ls), Some(rs)) = (inner.lookup_alias(la), inner.lookup_alias(ra)) {
            for (n, _) in &ls.cols {
                if rs.nullable(n).is_some() {
                    skip.push((ra.clone(), n.clone()));
                }
            }
        }
    }

    let mut cols: Vec<(Name, bool)> = Vec::new();
    let mut open = false;
    for (i, item) in s.projection.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for (alias, shape) in &inner.items {
                    open |= shape.open && s.projection.len() == 1 && inner.items.len() == 1;
                    for (n, nullable) in &shape.cols {
                        if skip.iter().any(|(a, c)| a == alias && c == n) {
                            continue;
                        }
                        cols.push((n.clone(), *nullable));
                    }
                }
            }
            SelectItem::QualifiedStar(alias) => {
                let shape = inner
                    .lookup_alias(alias)
                    .ok_or_else(|| ExtError::UnknownTable(alias.to_string()))?;
                open |= shape.open && s.projection.len() == 1;
                cols.extend(shape.cols.iter().cloned());
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    ScalarExpr::Column { column, .. } => column.clone(),
                    _ => Name::from(format!("c{i}")),
                });
                cols.push((name, expr_nullable(fe, &inner, expr)));
            }
        }
    }
    Ok(Shape { cols, open })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_sql::{parse_program_with, parse_query_with, Dialect};

    fn fe(ddl: &str) -> Frontend {
        udp_sql::build_frontend(&parse_program_with(ddl, Dialect::Full).unwrap()).unwrap()
    }

    const DDL: &str = "schema rs(k:int, a:int?);\nschema ss(k:int, b:int);\n\
                       table r(rs);\ntable s(ss);";

    fn shape_of(fe: &Frontend, sql: &str) -> Shape {
        let q = parse_query_with(sql, Dialect::Full).unwrap();
        query_shape(fe, &Scope::root(), &q).unwrap()
    }

    #[test]
    fn base_table_nullability_flows_through_star() {
        let fe = fe(DDL);
        let s = shape_of(&fe, "SELECT * FROM r x");
        assert_eq!(s.cols, vec![("k".into(), false), ("a".into(), true)]);
    }

    #[test]
    fn null_literal_and_functions_are_strict() {
        let fe = fe(DDL);
        let s = shape_of(&fe, "SELECT NULL AS n, x.k + 1 AS p, x.a + 1 AS q FROM r x");
        assert_eq!(
            s.cols,
            vec![("n".into(), true), ("p".into(), false), ("q".into(), true)]
        );
    }

    #[test]
    fn left_join_pads_right_side() {
        let fe = fe(DDL);
        let s = shape_of(&fe, "SELECT * FROM r x LEFT JOIN s y ON x.k = y.k");
        assert_eq!(
            s.cols,
            vec![
                ("k".into(), false),
                ("a".into(), true),
                ("k".into(), true),
                ("b".into(), true),
            ]
        );
    }

    #[test]
    fn union_merges_nullability_positionally() {
        let fe = fe(DDL);
        let s = shape_of(
            &fe,
            "SELECT x.k AS v FROM r x UNION ALL SELECT y.a AS v FROM r y",
        );
        assert_eq!(s.cols, vec![("v".into(), true)]);
    }
}
