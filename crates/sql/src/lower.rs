//! Lowering SQL to U-expressions — the denotational semantics of the paper's
//! Appendix C, in one pass over the named AST (see DESIGN.md §4 for why we
//! skip the unnamed binary-tree IR).
//!
//! * `SELECT p FROM q₁ x₁ … qₙ xₙ WHERE b` becomes
//!   `λt. Σ_{x₁…xₙ} ⟦proj⟧(t, x̄) × ⟦q₁⟧(x₁) × … × ⟦qₙ⟧(xₙ) × ⟦b⟧`;
//! * `DISTINCT` wraps the body in `‖·‖`; `UNION ALL` is `+`; `EXCEPT` is
//!   `q₁(t) × not(q₂(t))`; `EXISTS`/`IN` become `‖Σ …‖`, `NOT EXISTS` becomes
//!   `not(Σ …)`;
//! * `GROUP BY` desugars per Sec 3.2 into a correlated aggregate subquery —
//!   with an added outer `DISTINCT` (the paper's printed rewrite returns one
//!   row per input row rather than per group; COSETTE's actual desugaring and
//!   ours add the `DISTINCT`, which is the multiplicity-correct form);
//! * aggregates are uninterpreted functions over lowered subqueries
//!   (`Expr::Agg`), encoded as `agg(Σ_z body(z))` where the `Σ` binder marks
//!   the subquery's output tuple;
//! * views (and GMAP index views) are inlined at their use sites.

use crate::ast::*;
use crate::frontend::Frontend;
use std::collections::BTreeSet;
use std::fmt;
use udp_core::expr::{Expr, Pred, VarGen, VarId};
use udp_core::prelude::QueryU;
use udp_core::schema::{Catalog, SchemaId, Ty};
use udp_core::uexpr::UExpr;

/// Lowering errors.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// Reference to an undeclared table, view, or alias.
    UnknownTable(String),
    /// Reference to a column the scope does not provide.
    UnknownColumn {
        /// Qualifying alias, if written.
        table: Option<String>,
        /// The missing column.
        column: String,
    },
    /// An unqualified column provided by more than one source.
    AmbiguousColumn(String),
    /// Two projection items produce the same output column name.
    DuplicateStarColumn(String),
    /// `*` over an open (generic) schema mixed with other items.
    OpenSchemaProjection(String),
    /// An aggregate call outside GROUP BY / aggregate-only SELECT.
    AggregateMisuse(String),
    /// A GROUP BY form outside the supported desugaring.
    GroupByUnsupported(String),
    /// Set-operation operands with different column counts.
    UnionArityMismatch {
        /// Left arity.
        left: usize,
        /// Right arity.
        right: usize,
    },
    /// View inlining exceeded the nesting limit (cyclic views).
    ViewRecursionLimit(String),
    /// A SELECT with no projection items.
    EmptySelect,
    /// Malformed `VALUES` (empty, or rows of unequal arity).
    ValuesShape(String),
    /// `NATURAL JOIN` over open schemas or with no shared columns.
    NaturalJoin(String),
    /// `CASE` in a position the guarded-disjunction lowering cannot reach
    /// (nested inside a function call, compared against another CASE, …).
    CasePosition(String),
    /// A `Select` still carrying outer-join specs reached the lowerer. Outer
    /// joins must be eliminated by `udp_ext::desugar` first — the core
    /// fragment has no padding semantics.
    OuterJoinNotDesugared,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownTable(t) => write!(f, "unknown table or view `{t}`"),
            LowerError::UnknownColumn {
                table: Some(t),
                column,
            } => {
                write!(f, "unknown column `{t}.{column}`")
            }
            LowerError::UnknownColumn {
                table: None,
                column,
            } => {
                write!(f, "unknown column `{column}`")
            }
            LowerError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            LowerError::DuplicateStarColumn(c) => {
                write!(f, "duplicate column `{c}` in * projection")
            }
            LowerError::OpenSchemaProjection(m) => write!(f, "open-schema projection: {m}"),
            LowerError::AggregateMisuse(m) => write!(f, "aggregate misuse: {m}"),
            LowerError::GroupByUnsupported(m) => write!(f, "GROUP BY restriction: {m}"),
            LowerError::UnionArityMismatch { left, right } => {
                write!(f, "UNION arity mismatch: {left} vs {right} columns")
            }
            LowerError::ViewRecursionLimit(v) => write!(f, "view nesting too deep at `{v}`"),
            LowerError::EmptySelect => write!(f, "SELECT with no projection"),
            LowerError::ValuesShape(m) => write!(f, "malformed VALUES: {m}"),
            LowerError::NaturalJoin(m) => write!(f, "NATURAL JOIN: {m}"),
            LowerError::CasePosition(m) => write!(f, "unsupported CASE position: {m}"),
            LowerError::OuterJoinNotDesugared => write!(
                f,
                "outer join reached the lowerer (run udp-ext desugaring first)"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// Scope for name resolution: FROM aliases of the current query, linking to
/// the enclosing query's scope (correlated subqueries).
struct Scope<'a> {
    parent: Option<&'a Scope<'a>>,
    items: Vec<(String, VarId, SchemaId)>,
}

impl<'a> Scope<'a> {
    fn root() -> Scope<'static> {
        Scope {
            parent: None,
            items: Vec::new(),
        }
    }

    fn child(&'a self) -> Scope<'a> {
        Scope {
            parent: Some(self),
            items: Vec::new(),
        }
    }

    fn lookup_alias(&self, alias: &str) -> Option<(VarId, SchemaId)> {
        self.items
            .iter()
            .rev()
            .find(|(a, _, _)| a == alias)
            .map(|(_, v, s)| (*v, *s))
            .or_else(|| self.parent.and_then(|p| p.lookup_alias(alias)))
    }

    /// Resolve an unqualified column: innermost scope whose items contain a
    /// unique match.
    fn lookup_column(&self, catalog: &Catalog, col: &str) -> Result<(VarId, SchemaId), LowerError> {
        let matches: Vec<(VarId, SchemaId)> = self
            .items
            .iter()
            .filter(|(_, _, s)| catalog.schema(*s).has_attr(col))
            .map(|(_, v, s)| (*v, *s))
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => match self.parent {
                Some(p) => p.lookup_column(catalog, col),
                None => Err(LowerError::UnknownColumn {
                    table: None,
                    column: col.to_string(),
                }),
            },
            _ => Err(LowerError::AmbiguousColumn(col.to_string())),
        }
    }
}

/// The lowering driver.
pub struct Lowerer<'a> {
    /// Catalog/views/constraints; gains anonymous schemas while lowering.
    pub fe: &'a mut Frontend,
    /// Source of globally fresh tuple variables.
    pub gen: &'a mut VarGen,
    view_depth: u32,
}

const MAX_VIEW_DEPTH: u32 = 32;

/// Lower a query to a [`QueryU`] (`λ out. body`). The catalog inside `fe`
/// gains anonymous schemas for subquery output rows.
pub fn lower_query(fe: &mut Frontend, gen: &mut VarGen, q: &Query) -> Result<QueryU, LowerError> {
    let mut lw = Lowerer {
        fe,
        gen,
        view_depth: 0,
    };
    let scope = Scope::root();
    let (out, schema, body) = lw.query(q, &scope, None)?;
    Ok(QueryU::new(out, schema, body))
}

impl<'a> Lowerer<'a> {
    /// Lower a query in `scope`; `expect` optionally forces the output
    /// attribute names (positional UNION compatibility).
    fn query(
        &mut self,
        q: &Query,
        scope: &Scope<'_>,
        expect: Option<&[String]>,
    ) -> Result<(VarId, SchemaId, UExpr), LowerError> {
        match q {
            Query::Select(s) => self.select(s, scope, expect),
            Query::UnionAll(a, b) => {
                let (t1, s1, b1, b2) = self.binary_setop(a, b, scope, expect)?;
                Ok((t1, s1, UExpr::add(b1, b2)))
            }
            Query::Except(a, b) => {
                let (t1, s1, b1, b2) = self.binary_setop(a, b, scope, expect)?;
                Ok((t1, s1, UExpr::mul(b1, UExpr::not(b2))))
            }
            // Extended dialect: UNION = ‖q1 + q2‖ (Sec 6.4's
            // `DISTINCT (q1 UNION ALL q2)` rewrite, applied directly).
            Query::Union(a, b) => {
                let (t1, s1, b1, b2) = self.binary_setop(a, b, scope, expect)?;
                Ok((t1, s1, UExpr::squash(UExpr::add(b1, b2))))
            }
            // Extended dialect: INTERSECT = ‖q1 × q2‖.
            Query::Intersect(a, b) => {
                let (t1, s1, b1, b2) = self.binary_setop(a, b, scope, expect)?;
                Ok((t1, s1, UExpr::squash(UExpr::mul(b1, b2))))
            }
            Query::Values(rows) => self.values(rows, scope, expect),
        }
    }

    /// Lower both operands of a binary set operation onto a shared output
    /// variable: returns `(t, σ, ⟦a⟧(t), ⟦b⟧(t))` with `b`'s columns renamed
    /// positionally to `a`'s.
    fn binary_setop(
        &mut self,
        a: &Query,
        b: &Query,
        scope: &Scope<'_>,
        expect: Option<&[String]>,
    ) -> Result<(VarId, SchemaId, UExpr, UExpr), LowerError> {
        let (t1, s1, b1) = self.query(a, scope, expect)?;
        let names: Vec<String> = self
            .fe
            .catalog
            .schema(s1)
            .attrs
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let (t2, s2, b2) = self.query(b, scope, Some(&names))?;
        let n2 = self.fe.catalog.schema(s2).attrs.len();
        if names.len() != n2 {
            return Err(LowerError::UnionArityMismatch {
                left: names.len(),
                right: n2,
            });
        }
        let b2 = b2.subst(t2, &Expr::Var(t1));
        // The result schema merges nullability positionally: a column is
        // nullable if either operand's is (e.g. the NULL-padded branch of a
        // desugared outer join unions with the inner-join branch).
        let sl = self.fe.catalog.schema(s1);
        let sr = self.fe.catalog.schema(s2);
        let merged: Vec<bool> = (0..sl.attrs.len())
            .map(|i| {
                sl.nullable.get(i).copied().unwrap_or(false)
                    || sr.nullable.get(i).copied().unwrap_or(false)
            })
            .collect();
        let s_out = if merged == sl.nullable {
            s1
        } else {
            let attrs = sl.attrs.clone();
            let open = sl.open;
            self.fe
                .catalog
                .add_anon_schema_nullable(attrs, open, merged)
        };
        Ok((t1, s_out, b1, b2))
    }

    /// Lower `VALUES (…), (…)`: row `i` becomes the term
    /// `[t.c0 = eᵢ₀] × … × [t.cₖ = eᵢₖ]` and the relation is their sum.
    fn values(
        &mut self,
        rows: &[Vec<ScalarExpr>],
        scope: &Scope<'_>,
        expect: Option<&[String]>,
    ) -> Result<(VarId, SchemaId, UExpr), LowerError> {
        let Some(first) = rows.first() else {
            return Err(LowerError::ValuesShape("VALUES with no rows".into()));
        };
        let arity = first.len();
        let names: Vec<String> = match expect {
            Some(e) => {
                if e.len() != arity {
                    return Err(LowerError::UnionArityMismatch {
                        left: e.len(),
                        right: arity,
                    });
                }
                e.to_vec()
            }
            None => (0..arity).map(|i| format!("c{i}")).collect(),
        };
        let out = self.gen.fresh();
        let mut terms = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != arity {
                return Err(LowerError::ValuesShape(format!(
                    "row arity {} differs from first row's {arity}",
                    row.len()
                )));
            }
            let mut factors = Vec::with_capacity(arity);
            for (name, e) in names.iter().zip(row) {
                let v = self.scalar(e, scope)?;
                factors.push(UExpr::eq(Expr::var_attr(out, name), v));
            }
            terms.push(UExpr::product(factors));
        }
        let attrs: Vec<(String, Ty)> = names
            .iter()
            .zip(first)
            .map(|(n, e)| (n.clone(), self.scalar_ty(e, scope)))
            .collect();
        // A VALUES column is nullable if any of its rows is a NULL literal.
        let nullable: Vec<bool> = (0..arity)
            .map(|j| rows.iter().any(|row| self.scalar_nullable(&row[j], scope)))
            .collect();
        let sid = self
            .fe
            .catalog
            .add_anon_schema_nullable(attrs, false, nullable);
        Ok((out, sid, UExpr::sum_of(terms)))
    }

    fn select(
        &mut self,
        s: &Select,
        scope: &Scope<'_>,
        expect: Option<&[String]>,
    ) -> Result<(VarId, SchemaId, UExpr), LowerError> {
        if s.projection.is_empty() {
            return Err(LowerError::EmptySelect);
        }
        if !s.outer.is_empty() {
            return Err(LowerError::OuterJoinNotDesugared);
        }
        // GROUP BY desugars into a correlated-aggregate SELECT DISTINCT.
        if !s.group_by.is_empty() {
            let desugared = crate::desugar::desugar_group_by(s)?;
            return self.select(&desugared, scope, expect);
        }
        // Raw aggregates without GROUP BY: the query returns exactly one row.
        // (Desugared aggregates carry subquery arguments and lower as plain
        // scalars below.)
        if crate::desugar::has_raw_aggregates(s) {
            return self.aggregate_only_select(s, scope, expect);
        }

        // Bind FROM items.
        let mut inner = scope.child();
        let mut bodies: Vec<UExpr> = Vec::with_capacity(s.from.len());
        for item in &s.from {
            let (v, sid, body) = self.from_item(item, scope)?;
            inner.items.push((item.alias.clone(), v, sid));
            bodies.push(body);
        }

        // NATURAL JOIN pairs: equate every shared attribute name; `*`
        // projects each shared column once (skipping the right occurrence).
        let mut natural_preds: Vec<UExpr> = Vec::new();
        let mut natural_skip: BTreeSet<(String, String)> = BTreeSet::new();
        for (la, ra) in &s.natural {
            let (lv, ls) = inner
                .lookup_alias(la)
                .ok_or_else(|| LowerError::UnknownTable(la.clone()))?;
            let (rv, rs) = inner
                .lookup_alias(ra)
                .ok_or_else(|| LowerError::UnknownTable(ra.clone()))?;
            let lschema = self.fe.catalog.schema(ls).clone();
            let rschema = self.fe.catalog.schema(rs).clone();
            if lschema.open || rschema.open {
                return Err(LowerError::NaturalJoin(format!(
                    "`{la} NATURAL JOIN {ra}` requires closed schemas on both sides"
                )));
            }
            let shared: Vec<String> = lschema
                .attrs
                .iter()
                .map(|(n, _)| n.clone())
                .filter(|n| rschema.has_attr(n))
                .collect();
            if shared.is_empty() {
                return Err(LowerError::NaturalJoin(format!(
                    "`{la}` and `{ra}` share no column names"
                )));
            }
            for n in shared {
                natural_preds.push(UExpr::eq(Expr::var_attr(lv, &n), Expr::var_attr(rv, &n)));
                natural_skip.insert((ra.clone(), n));
            }
        }

        // Output schema + projection predicates.
        let out = self.gen.fresh();
        let (schema_attrs, schema_nullable, open, proj_preds) =
            self.projection(&s.projection, &inner, out, expect, &natural_skip)?;
        let out_schema =
            self.fe
                .catalog
                .add_anon_schema_nullable(schema_attrs, open, schema_nullable);

        let mut factors = proj_preds;
        factors.extend(natural_preds);
        factors.extend(bodies);
        if let Some(w) = &s.where_clause {
            factors.push(self.pred(w, &inner, true)?);
        }
        let body = UExpr::product(factors);
        let sum_vars: Vec<(VarId, SchemaId)> =
            inner.items.iter().map(|(_, v, s)| (*v, *s)).collect();
        let mut body = UExpr::sum_over(sum_vars, body);
        if s.distinct {
            body = UExpr::squash(body);
        }
        Ok((out, out_schema, body))
    }

    /// `SELECT agg(…), … FROM … WHERE …` without GROUP BY: exactly one output
    /// row; each aggregate becomes an uninterpreted function of the lowered
    /// argument subquery.
    fn aggregate_only_select(
        &mut self,
        s: &Select,
        scope: &Scope<'_>,
        expect: Option<&[String]>,
    ) -> Result<(VarId, SchemaId, UExpr), LowerError> {
        let out = self.gen.fresh();
        let mut attrs: Vec<(String, Ty)> = Vec::new();
        let mut preds: Vec<UExpr> = Vec::new();
        for (i, item) in s.projection.iter().enumerate() {
            let (expr, alias) = match item {
                SelectItem::Expr { expr, alias } => (expr, alias.clone()),
                _ => {
                    return Err(LowerError::AggregateMisuse(
                        "* projection cannot be mixed with aggregates".into(),
                    ))
                }
            };
            let name = alias.unwrap_or_else(|| default_name(expr, i));
            let lowered = self.agg_scalar(expr, s, scope)?;
            preds.push(UExpr::eq(Expr::var_attr(out, &name), lowered));
            attrs.push((name, Ty::Unknown));
        }
        if let Some(h) = &s.having {
            let lowered = self.agg_pred(h, s, scope, true)?;
            preds.push(lowered);
        }
        if let Some(expected) = expect {
            if expected.len() != attrs.len() {
                return Err(LowerError::UnionArityMismatch {
                    left: expected.len(),
                    right: attrs.len(),
                });
            }
            // Positional rename of the output columns.
            for ((name, _), (pred, new_name)) in
                attrs.iter_mut().zip(preds.iter_mut().zip(expected.iter()))
            {
                if name != new_name {
                    *pred = rename_out_attr(pred.clone(), out, name, new_name);
                    *name = new_name.clone();
                }
            }
        }
        let out_schema = self.fe.catalog.add_anon_schema(attrs, false);
        Ok((out, out_schema, UExpr::product(preds)))
    }

    /// Lower a scalar expression that may contain aggregates over the FROM
    /// of `s` (aggregate-only path).
    fn agg_scalar(
        &mut self,
        e: &ScalarExpr,
        s: &Select,
        scope: &Scope<'_>,
    ) -> Result<Expr, LowerError> {
        match e {
            ScalarExpr::Agg {
                func,
                arg,
                distinct,
            } => {
                let name = if *distinct {
                    format!("{func}_distinct")
                } else {
                    func.clone()
                };
                if let AggArg::Expr(inner) = arg {
                    if let ScalarExpr::Subquery(q) = &**inner {
                        let (z, sid, body) = self.query(q, scope, None)?;
                        return Ok(Expr::agg(name, UExpr::sum(z, sid, body)));
                    }
                }
                let inner = crate::desugar::aggregate_argument_query(s, arg, &[])?;
                let (z, sid, body) = self.query(&inner, scope, None)?;
                Ok(Expr::agg(name, UExpr::sum(z, sid, body)))
            }
            ScalarExpr::App(f, args) => {
                let lowered: Result<Vec<Expr>, LowerError> =
                    args.iter().map(|a| self.agg_scalar(a, s, scope)).collect();
                Ok(Expr::App(f.clone(), lowered?))
            }
            ScalarExpr::Int(i) => Ok(Expr::int(*i)),
            ScalarExpr::Str(v) => Ok(Expr::str(v.clone())),
            other => Err(LowerError::AggregateMisuse(format!(
                "non-aggregate expression `{other:?}` in aggregate-only SELECT"
            ))),
        }
    }

    fn agg_pred(
        &mut self,
        p: &PredExpr,
        s: &Select,
        scope: &Scope<'_>,
        positive: bool,
    ) -> Result<UExpr, LowerError> {
        match p {
            PredExpr::Cmp(op, a, b) => {
                let la = self.agg_scalar(a, s, scope)?;
                let lb = self.agg_scalar(b, s, scope)?;
                Ok(lower_cmp(*op, la, lb, positive))
            }
            PredExpr::And(a, b) if positive => Ok(UExpr::mul(
                self.agg_pred(a, s, scope, true)?,
                self.agg_pred(b, s, scope, true)?,
            )),
            PredExpr::Or(a, b) if positive => Ok(UExpr::squash(UExpr::add(
                self.agg_pred(a, s, scope, true)?,
                self.agg_pred(b, s, scope, true)?,
            ))),
            PredExpr::And(a, b) => Ok(UExpr::squash(UExpr::add(
                self.agg_pred(a, s, scope, false)?,
                self.agg_pred(b, s, scope, false)?,
            ))),
            PredExpr::Or(a, b) => Ok(UExpr::mul(
                self.agg_pred(a, s, scope, false)?,
                self.agg_pred(b, s, scope, false)?,
            )),
            PredExpr::Not(inner) => self.agg_pred(inner, s, scope, !positive),
            PredExpr::True => Ok(if positive { UExpr::One } else { UExpr::Zero }),
            PredExpr::False => Ok(if positive { UExpr::Zero } else { UExpr::One }),
            other => Err(LowerError::AggregateMisuse(format!(
                "unsupported HAVING form without GROUP BY: {other:?}"
            ))),
        }
    }

    fn from_item(
        &mut self,
        item: &FromItem,
        scope: &Scope<'_>,
    ) -> Result<(VarId, SchemaId, UExpr), LowerError> {
        match &item.source {
            TableRef::Table(name) => {
                if let Some(rid) = self.fe.catalog.relation_id(name) {
                    let sid = self.fe.catalog.relation(rid).schema;
                    let v = self.gen.fresh();
                    return Ok((v, sid, UExpr::rel(rid, Expr::Var(v))));
                }
                if let Some(view) = self.fe.views.get(name).cloned() {
                    if self.view_depth >= MAX_VIEW_DEPTH {
                        return Err(LowerError::ViewRecursionLimit(name.clone()));
                    }
                    self.view_depth += 1;
                    // Views are closed queries: lowered in a fresh root scope.
                    let root = Scope::root();
                    let result = self.query(&view, &root, None);
                    self.view_depth -= 1;
                    return result;
                }
                Err(LowerError::UnknownTable(name.clone()))
            }
            TableRef::Subquery(q) => self.query(q, scope, None),
        }
    }

    /// Lower a projection: returns (output attrs, per-attr nullability,
    /// open?, projection preds). `natural_skip` lists `(alias, column)`
    /// occurrences a bare `*` must not emit (NATURAL JOIN merges shared
    /// columns).
    #[allow(clippy::type_complexity)]
    fn projection(
        &mut self,
        items: &[SelectItem],
        scope: &Scope<'_>,
        out: VarId,
        expect: Option<&[String]>,
        natural_skip: &BTreeSet<(String, String)>,
    ) -> Result<(Vec<(String, Ty)>, Vec<bool>, bool, Vec<UExpr>), LowerError> {
        // A single bare star over one source passes the row through,
        // preserving open schemas.
        if items.len() == 1 {
            if let SelectItem::Star = items[0] {
                if scope.items.len() == 1 {
                    let (_, v, sid) = &scope.items[0];
                    let schema = self.fe.catalog.schema(*sid).clone();
                    if schema.open {
                        // [t = x], undecomposable.
                        return Ok((
                            schema.attrs.clone(),
                            schema.nullable.clone(),
                            true,
                            vec![UExpr::eq(Expr::Var(out), Expr::Var(*v))],
                        ));
                    }
                }
            }
            if let SelectItem::QualifiedStar(alias) = &items[0] {
                let (v, sid) = scope
                    .lookup_alias(alias)
                    .ok_or_else(|| LowerError::UnknownTable(alias.clone()))?;
                let schema = self.fe.catalog.schema(sid).clone();
                if schema.open {
                    return Ok((
                        schema.attrs.clone(),
                        schema.nullable.clone(),
                        true,
                        vec![UExpr::eq(Expr::Var(out), Expr::Var(v))],
                    ));
                }
            }
        }

        let mut attrs: Vec<(String, Ty)> = Vec::new();
        let mut nullable: Vec<bool> = Vec::new();
        let mut preds: Vec<UExpr> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut positional = 0usize;

        // Resolve the output column name (positional rename under UNION) and
        // reject duplicates; the caller pushes the attr and pred.
        fn finalize_name(
            expect: Option<&[String]>,
            seen: &mut BTreeSet<String>,
            emitted: usize,
            name: String,
        ) -> Result<String, LowerError> {
            let final_name = match expect {
                Some(names) => {
                    names
                        .get(emitted)
                        .cloned()
                        .ok_or(LowerError::UnionArityMismatch {
                            left: names.len(),
                            right: emitted + 1,
                        })?
                }
                None => name,
            };
            if !seen.insert(final_name.clone()) {
                return Err(LowerError::DuplicateStarColumn(final_name));
            }
            Ok(final_name)
        }

        for item in items {
            match item {
                SelectItem::Star => {
                    for (alias, v, sid) in scope.items.clone() {
                        let schema = self.fe.catalog.schema(sid).clone();
                        if schema.open {
                            return Err(LowerError::OpenSchemaProjection(format!(
                                "`*` over open-schema source `{alias}` mixed with other items"
                            )));
                        }
                        for (i, (a, ty)) in schema.attrs.iter().enumerate() {
                            if natural_skip.contains(&(alias.clone(), a.clone())) {
                                continue;
                            }
                            let n = finalize_name(expect, &mut seen, attrs.len(), a.clone())?;
                            preds.push(UExpr::eq(Expr::var_attr(out, &n), Expr::var_attr(v, a)));
                            attrs.push((n, *ty));
                            nullable.push(schema.nullable.get(i).copied().unwrap_or(false));
                        }
                    }
                }
                SelectItem::QualifiedStar(alias) => {
                    let (v, sid) = scope
                        .lookup_alias(alias)
                        .ok_or_else(|| LowerError::UnknownTable(alias.clone()))?;
                    let schema = self.fe.catalog.schema(sid).clone();
                    if schema.open {
                        return Err(LowerError::OpenSchemaProjection(format!(
                            "`{alias}.*` over an open schema mixed with other items"
                        )));
                    }
                    for (i, (a, ty)) in schema.attrs.iter().enumerate() {
                        let n = finalize_name(expect, &mut seen, attrs.len(), a.clone())?;
                        preds.push(UExpr::eq(Expr::var_attr(out, &n), Expr::var_attr(v, a)));
                        attrs.push((n, *ty));
                        nullable.push(schema.nullable.get(i).copied().unwrap_or(false));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| default_name(expr, positional));
                    let ty = self.scalar_ty(expr, scope);
                    let n = finalize_name(expect, &mut seen, attrs.len(), name)?;
                    let pred = if let ScalarExpr::Case { .. } = expr {
                        // `t.n = CASE …` — guarded disjunction over branches.
                        self.case_cmp(CmpOp::Eq, &Expr::var_attr(out, &n), expr, scope, true)?
                    } else {
                        UExpr::eq(Expr::var_attr(out, &n), self.scalar(expr, scope)?)
                    };
                    preds.push(pred);
                    attrs.push((n, ty));
                    nullable.push(self.scalar_nullable(expr, scope));
                    positional += 1;
                }
            }
        }
        if let Some(names) = expect {
            if names.len() != attrs.len() {
                return Err(LowerError::UnionArityMismatch {
                    left: names.len(),
                    right: attrs.len(),
                });
            }
        }
        Ok((attrs, nullable, false, preds))
    }

    fn scalar_ty(&self, e: &ScalarExpr, scope: &Scope<'_>) -> Ty {
        match e {
            ScalarExpr::Column { table, column } => {
                let sid = match table {
                    Some(t) => scope.lookup_alias(t).map(|(_, s)| s),
                    None => scope
                        .lookup_column(&self.fe.catalog, column)
                        .ok()
                        .map(|(_, s)| s),
                };
                sid.and_then(|s| self.fe.catalog.schema(s).attr_ty(column))
                    .unwrap_or(Ty::Unknown)
            }
            ScalarExpr::Int(_) => Ty::Int,
            ScalarExpr::Str(_) => Ty::Str,
            _ => Ty::Unknown,
        }
    }

    /// May the expression evaluate to the NULL tag? Columns consult the
    /// schema's nullability; function applications are strict (NULL if any
    /// argument is); aggregates and EXISTS-style constructs never produce
    /// NULL in this fragment.
    fn scalar_nullable(&self, e: &ScalarExpr, scope: &Scope<'_>) -> bool {
        match e {
            ScalarExpr::Null => true,
            ScalarExpr::Column { table, column } => {
                let sid = match table {
                    Some(t) => scope.lookup_alias(t).map(|(_, s)| s),
                    None => scope
                        .lookup_column(&self.fe.catalog, column)
                        .ok()
                        .map(|(_, s)| s),
                };
                sid.is_some_and(|s| self.fe.catalog.schema(s).attr_nullable(column))
            }
            ScalarExpr::App(_, args) => args.iter().any(|a| self.scalar_nullable(a, scope)),
            ScalarExpr::Case { whens, else_ } => {
                whens.iter().any(|(_, v)| self.scalar_nullable(v, scope))
                    || self.scalar_nullable(else_, scope)
            }
            _ => false,
        }
    }

    /// Lower a scalar expression (no aggregates allowed here).
    fn scalar(&mut self, e: &ScalarExpr, scope: &Scope<'_>) -> Result<Expr, LowerError> {
        match e {
            ScalarExpr::Column {
                table: Some(t),
                column,
            } => {
                let (v, sid) = scope
                    .lookup_alias(t)
                    .ok_or_else(|| LowerError::UnknownTable(t.clone()))?;
                let schema = self.fe.catalog.schema(sid);
                if schema.is_closed() && !schema.has_attr(column) {
                    return Err(LowerError::UnknownColumn {
                        table: Some(t.clone()),
                        column: column.clone(),
                    });
                }
                Ok(Expr::var_attr(v, column))
            }
            ScalarExpr::Column {
                table: None,
                column,
            } => {
                let (v, _) = scope.lookup_column(&self.fe.catalog, column)?;
                Ok(Expr::var_attr(v, column))
            }
            ScalarExpr::Int(i) => Ok(Expr::int(*i)),
            ScalarExpr::Str(s) => Ok(Expr::str(s.clone())),
            ScalarExpr::Null => Ok(Expr::null()),
            ScalarExpr::App(f, args) => {
                let lowered: Result<Vec<Expr>, LowerError> =
                    args.iter().map(|a| self.scalar(a, scope)).collect();
                Ok(Expr::App(f.clone(), lowered?))
            }
            ScalarExpr::Agg {
                func,
                arg,
                distinct,
            } => {
                // Desugared aggregates carry their (correlated) argument
                // subquery; anything else is misuse.
                if let AggArg::Expr(inner) = arg {
                    if let ScalarExpr::Subquery(q) = &**inner {
                        let (z, sid, body) = self.query(q, scope, None)?;
                        let name = if *distinct {
                            format!("{func}_distinct")
                        } else {
                            func.clone()
                        };
                        return Ok(Expr::agg(name, UExpr::sum(z, sid, body)));
                    }
                }
                Err(LowerError::AggregateMisuse(
                    "aggregate outside GROUP BY / aggregate-only SELECT".into(),
                ))
            }
            ScalarExpr::Subquery(q) => {
                let (z, sid, body) = self.query(q, scope, None)?;
                Ok(Expr::agg("scalar_subquery", UExpr::sum(z, sid, body)))
            }
            ScalarExpr::Case { .. } => Err(LowerError::CasePosition(
                "CASE is only supported as a whole projection item or as one side \
                 of a comparison"
                    .into(),
            )),
        }
    }

    /// Lower `target op CASE WHEN b₁ THEN e₁ … ELSE e₀ END` (or a CASE
    /// projection `t.a = CASE …`) as the squashed guarded disjunction
    ///
    /// ```text
    /// ‖ Σᵢ [¬b₁]…[¬bᵢ₋₁][bᵢ][target op eᵢ]  +  [¬b₁]…[¬bₙ][target op e₀] ‖
    /// ```
    ///
    /// The guards are mutually exclusive and exhaustive, so under the
    /// standard interpretation exactly one branch fires; for the negative
    /// polarity (`NOT (target op CASE …)`) the same guards pair with the
    /// complemented comparison.
    fn case_cmp(
        &mut self,
        op: CmpOp,
        target: &Expr,
        case: &ScalarExpr,
        scope: &Scope<'_>,
        positive: bool,
    ) -> Result<UExpr, LowerError> {
        let ScalarExpr::Case { whens, else_ } = case else {
            return Err(LowerError::CasePosition(
                "case_cmp on a non-CASE expression".into(),
            ));
        };
        let mut terms: Vec<UExpr> = Vec::with_capacity(whens.len() + 1);
        // Guards of the branches already passed over: [¬b₁] × … × [¬bᵢ₋₁].
        let mut prior: Vec<UExpr> = Vec::new();
        let branch = |lw: &mut Self, cond: UExpr, value: &ScalarExpr, prior: &[UExpr]| {
            if value.is_case() {
                return Err(LowerError::CasePosition("nested CASE branches".into()));
            }
            let v = lw.scalar(value, scope)?;
            let cmp = lower_cmp(op, target.clone(), v, positive);
            let mut factors = prior.to_vec();
            factors.push(cond);
            factors.push(cmp);
            Ok(UExpr::product(factors))
        };
        for (b, e) in whens {
            let guard = self.pred(b, scope, true)?;
            terms.push(branch(self, guard, e, &prior)?);
            prior.push(self.pred(b, scope, false)?);
        }
        terms.push(branch(self, UExpr::One, else_, &prior)?);
        Ok(UExpr::squash(UExpr::sum_of(terms)))
    }

    /// Lower a predicate to a U-expression factor. `positive == false`
    /// lowers the logical complement (NOT pushed to atoms).
    fn pred(
        &mut self,
        p: &PredExpr,
        scope: &Scope<'_>,
        positive: bool,
    ) -> Result<UExpr, LowerError> {
        match p {
            PredExpr::Cmp(op, a, b) => match (a.is_case(), b.is_case()) {
                (true, true) => Err(LowerError::CasePosition(
                    "CASE on both sides of a comparison".into(),
                )),
                (true, false) => {
                    let lb = self.scalar(b, scope)?;
                    // `CASE op e` ⇔ `e op⁻¹ CASE` with the flipped comparison.
                    self.case_cmp(flip_cmp(*op), &lb, a, scope, positive)
                }
                (false, true) => {
                    let la = self.scalar(a, scope)?;
                    self.case_cmp(*op, &la, b, scope, positive)
                }
                (false, false) => {
                    let la = self.scalar(a, scope)?;
                    let lb = self.scalar(b, scope)?;
                    Ok(lower_cmp(*op, la, lb, positive))
                }
            },
            PredExpr::And(a, b) => {
                if positive {
                    Ok(UExpr::mul(
                        self.pred(a, scope, true)?,
                        self.pred(b, scope, true)?,
                    ))
                } else {
                    // ¬(a ∧ b) = ‖¬a + ¬b‖
                    Ok(UExpr::squash(UExpr::add(
                        self.pred(a, scope, false)?,
                        self.pred(b, scope, false)?,
                    )))
                }
            }
            PredExpr::Or(a, b) => {
                if positive {
                    // a ∨ b = ‖a + b‖ (Fig 12)
                    Ok(UExpr::squash(UExpr::add(
                        self.pred(a, scope, true)?,
                        self.pred(b, scope, true)?,
                    )))
                } else {
                    Ok(UExpr::mul(
                        self.pred(a, scope, false)?,
                        self.pred(b, scope, false)?,
                    ))
                }
            }
            PredExpr::Not(inner) => self.pred(inner, scope, !positive),
            PredExpr::True => Ok(if positive { UExpr::One } else { UExpr::Zero }),
            PredExpr::False => Ok(if positive { UExpr::Zero } else { UExpr::One }),
            // `e IS NULL` is two-valued: the NULL-tag equality atom.
            PredExpr::IsNull(e) => {
                let le = self.scalar(e, scope)?;
                Ok(if positive {
                    UExpr::eq(le, Expr::null())
                } else {
                    UExpr::Pred(Pred::Ne(le, Expr::null()))
                })
            }
            PredExpr::Exists(q) => {
                let (z, sid, body) = self.query(q, scope, None)?;
                let total = UExpr::sum(z, sid, body);
                Ok(if positive {
                    UExpr::squash(total)
                } else {
                    UExpr::not(total)
                })
            }
            PredExpr::InQuery(e, q) => {
                let le = self.scalar(e, scope)?;
                let (z, sid, body) = self.query(q, scope, None)?;
                let schema = self.fe.catalog.schema(sid);
                let first_attr = schema
                    .attrs
                    .first()
                    .map(|(a, _)| a.clone())
                    .ok_or_else(|| LowerError::OpenSchemaProjection("IN over no columns".into()))?;
                let membership = UExpr::mul(UExpr::eq(Expr::var_attr(z, &first_attr), le), body);
                let total = UExpr::sum(z, sid, membership);
                Ok(if positive {
                    UExpr::squash(total)
                } else {
                    UExpr::not(total)
                })
            }
        }
    }
}

/// Mirror a comparison across its operands: `a op b` ⇔ `b flip(op) a`.
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Lower a comparison under a polarity. Equality uses the built-in `=`/`≠`
/// predicates; the four order comparisons are uninterpreted atoms whose
/// complement is the reversed comparison (total order on non-NULL values).
fn lower_cmp(op: CmpOp, a: Expr, b: Expr, positive: bool) -> UExpr {
    let op = if positive { op } else { op.negate() };
    match op {
        CmpOp::Eq => UExpr::Pred(Pred::Eq(a, b)),
        CmpOp::Ne => UExpr::Pred(Pred::Ne(a, b)),
        other => UExpr::Pred(Pred::lift(other.name(), vec![a, b])),
    }
}

/// Default output column name for an unaliased projection item.
fn default_name(e: &ScalarExpr, position: usize) -> String {
    match e {
        ScalarExpr::Column { column, .. } => column.clone(),
        _ => format!("c{position}"),
    }
}

/// Rewrite `[out.old = e]` into `[out.new = e]` (positional UNION renaming
/// in the aggregate-only path).
fn rename_out_attr(pred: UExpr, out: VarId, old: &str, new: &str) -> UExpr {
    match pred {
        UExpr::Pred(Pred::Eq(lhs, rhs)) => {
            let lhs = match lhs {
                Expr::Attr(base, a) if a == old && *base == Expr::Var(out) => {
                    Expr::var_attr(out, new)
                }
                other => other,
            };
            UExpr::Pred(Pred::Eq(lhs, rhs))
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::build_frontend;
    use crate::parser::{parse_program, parse_query};

    fn setup(ddl: &str) -> Frontend {
        build_frontend(&parse_program(ddl).unwrap()).unwrap()
    }

    fn lower(fe: &mut Frontend, sql: &str) -> QueryU {
        let q = parse_query(sql).unwrap();
        let mut gen = VarGen::new();
        lower_query(fe, &mut gen, &q).unwrap()
    }

    fn lower_err(fe: &mut Frontend, sql: &str) -> LowerError {
        let q = parse_query(sql).unwrap();
        let mut gen = VarGen::new();
        lower_query(fe, &mut gen, &q).unwrap_err()
    }

    const DDL: &str = "schema s(k:int, a:int, b:int);\ntable r(s);\ntable r2(s);\nkey r(k);";

    #[test]
    fn select_star_single_table() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT * FROM r x");
        // Σ_x [t.k = x.k][t.a = x.a][t.b = x.b] R(x)
        match &q.body {
            UExpr::Sum(_, _, body) => {
                let s = format!("{body}");
                assert!(s.contains("R0"), "{s}");
                assert!(s.contains(".k"), "{s}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fe.catalog.schema(q.schema).attrs.len(), 3);
    }

    #[test]
    fn where_clause_becomes_predicate_factor() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT x.a FROM r x WHERE x.a = 5");
        let s = format!("{}", q.body);
        assert!(s.contains("= 5") || s.contains("5 ="), "{s}");
    }

    #[test]
    fn distinct_wraps_in_squash() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT DISTINCT x.a FROM r x");
        assert!(matches!(q.body, UExpr::Squash(_)));
    }

    #[test]
    fn union_all_adds_bodies_with_positional_rename() {
        let mut fe = setup(DDL);
        let q = lower(
            &mut fe,
            "SELECT x.a AS v FROM r x UNION ALL SELECT y.b AS w FROM r2 y",
        );
        assert!(matches!(q.body, UExpr::Add(_, _)));
        let names: Vec<&str> = fe
            .catalog
            .schema(q.schema)
            .attrs
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["v"]);
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let mut fe = setup(DDL);
        let err = lower_err(
            &mut fe,
            "SELECT x.a FROM r x UNION ALL SELECT y.a, y.b FROM r2 y",
        );
        assert!(matches!(err, LowerError::UnionArityMismatch { .. }));
    }

    #[test]
    fn except_lowered_via_not() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT x.a FROM r x EXCEPT SELECT y.a FROM r2 y");
        match q.body {
            UExpr::Mul(_, rhs) => assert!(matches!(*rhs, UExpr::Not(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exists_is_squashed_sum_and_not_exists_is_not() {
        let mut fe = setup(DDL);
        let q = lower(
            &mut fe,
            "SELECT x.a FROM r x WHERE EXISTS (SELECT * FROM r2 y WHERE y.k = x.k)",
        );
        let s = format!("{}", q.body);
        assert!(s.contains('‖'), "{s}");
        let q = lower(
            &mut fe,
            "SELECT x.a FROM r x WHERE NOT EXISTS (SELECT * FROM r2 y WHERE y.k = x.k)",
        );
        let s = format!("{}", q.body);
        assert!(s.contains("not("), "{s}");
    }

    #[test]
    fn in_subquery_desugars_to_membership() {
        let mut fe = setup(DDL);
        let q = lower(
            &mut fe,
            "SELECT x.a FROM r x WHERE x.k IN (SELECT y.k FROM r2 y)",
        );
        let s = format!("{}", q.body);
        assert!(s.contains('‖'), "{s}");
    }

    #[test]
    fn not_pushes_to_atoms() {
        let mut fe = setup(DDL);
        let q = lower(
            &mut fe,
            "SELECT x.a FROM r x WHERE NOT (x.a = 1 AND x.b < 2)",
        );
        let s = format!("{}", q.body);
        // ¬(p ∧ q) = ‖[a≠1] + [b ≥ 2]‖
        assert!(s.contains('≠'), "{s}");
        assert!(s.contains("ge("), "{s}");
    }

    #[test]
    fn view_is_inlined() {
        let mut fe = setup(&format!(
            "{DDL}\nview v as SELECT x.a AS a FROM r x WHERE x.a > 0;"
        ));
        let q = lower(&mut fe, "SELECT t.a FROM v t");
        let s = format!("{}", q.body);
        assert!(s.contains("gt("), "view body inlined: {s}");
        assert!(s.contains("R0"), "{s}");
    }

    #[test]
    fn unqualified_columns_resolve_uniquely() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT a FROM r x WHERE k = 1");
        let s = format!("{}", q.body);
        assert!(s.contains(".k"), "{s}");
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let mut fe = setup(DDL);
        let err = lower_err(&mut fe, "SELECT a FROM r x, r2 y");
        assert!(matches!(err, LowerError::AmbiguousColumn(_)));
    }

    #[test]
    fn correlated_subquery_references_outer_alias() {
        let mut fe = setup(DDL);
        let q = lower(
            &mut fe,
            "SELECT x.a FROM r x WHERE EXISTS (SELECT * FROM r2 y WHERE y.a = x.a)",
        );
        // The inner sum must reference x's variable — smoke-check via display.
        let s = format!("{}", q.body);
        assert!(s.matches("Σ").count() >= 2, "{s}");
    }

    #[test]
    fn group_by_desugars_to_distinct_with_agg_subquery() {
        let mut fe = setup(DDL);
        let q = lower(
            &mut fe,
            "SELECT x.k AS k, SUM(x.a) AS total FROM r x GROUP BY x.k",
        );
        assert!(
            matches!(q.body, UExpr::Squash(_)),
            "desugared query is DISTINCT"
        );
        let s = format!("{}", q.body);
        assert!(s.contains("sum("), "{s}");
    }

    #[test]
    fn whole_table_aggregate_has_no_outer_sum() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT COUNT(*) AS n FROM r x");
        assert!(!matches!(q.body, UExpr::Sum(_, _, _)));
        let s = format!("{}", q.body);
        assert!(s.contains("count("), "{s}");
    }

    #[test]
    fn count_distinct_gets_distinct_marker() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT COUNT(DISTINCT x.a) AS n FROM r x");
        let s = format!("{}", q.body);
        assert!(s.contains("count_distinct("), "{s}");
    }

    #[test]
    fn open_schema_star_keeps_tuple_equality() {
        let mut fe = setup("schema g(a:int, ??);\ntable t(g);");
        let q = lower(&mut fe, "SELECT * FROM t x");
        let s = format!("{}", q.body);
        assert!(s.contains("= t"), "tuple-level equality: {s}");
        assert!(fe.catalog.schema(q.schema).open);
    }

    #[test]
    fn unknown_column_rejected() {
        let mut fe = setup(DDL);
        let err = lower_err(&mut fe, "SELECT x.zzz FROM r x");
        assert!(matches!(err, LowerError::UnknownColumn { .. }));
    }

    fn lower_ext(fe: &mut Frontend, sql: &str) -> QueryU {
        let q = crate::parser::parse_query_with(sql, crate::parser::Dialect::Extended).unwrap();
        let mut gen = VarGen::new();
        lower_query(fe, &mut gen, &q).unwrap()
    }

    fn lower_ext_err(fe: &mut Frontend, sql: &str) -> LowerError {
        let q = crate::parser::parse_query_with(sql, crate::parser::Dialect::Extended).unwrap();
        let mut gen = VarGen::new();
        lower_query(fe, &mut gen, &q).unwrap_err()
    }

    #[test]
    fn set_union_lowers_to_squashed_sum() {
        let mut fe = setup(DDL);
        let q = lower_ext(&mut fe, "SELECT x.a FROM r x UNION SELECT y.a FROM r2 y");
        match &q.body {
            UExpr::Squash(inner) => assert!(matches!(**inner, UExpr::Add(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn intersect_lowers_to_squashed_product() {
        let mut fe = setup(DDL);
        let q = lower_ext(
            &mut fe,
            "SELECT x.a FROM r x INTERSECT SELECT y.a FROM r2 y",
        );
        match &q.body {
            UExpr::Squash(inner) => assert!(matches!(**inner, UExpr::Mul(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn values_lowers_to_sum_of_tuple_equalities() {
        let mut fe = setup(DDL);
        let q = lower_ext(&mut fe, "SELECT * FROM (VALUES (1, 2), (3, 4)) v");
        let s = format!("{}", q.body);
        // two rows ⇒ a + of two product terms mentioning the literals
        assert!(s.contains('1') && s.contains('4'), "{s}");
        assert!(s.contains('+'), "{s}");
        let names: Vec<&str> = fe
            .catalog
            .schema(q.schema)
            .attrs
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["c0", "c1"]);
    }

    #[test]
    fn values_arity_mismatch_rejected() {
        let mut fe = setup(DDL);
        let err = lower_ext_err(&mut fe, "SELECT * FROM (VALUES (1, 2), (3)) v");
        assert!(matches!(err, LowerError::ValuesShape(_)));
    }

    #[test]
    fn natural_join_equates_shared_columns_and_merges_star() {
        let mut fe = setup(
            "schema rs(k:int, a:int);\nschema ss(k:int, b:int);\ntable r(rs);\ntable r2(ss);",
        );
        let q = lower_ext(&mut fe, "SELECT * FROM r x NATURAL JOIN r2 y");
        // Output schema merges the shared column: k, a, b.
        let names: Vec<&str> = fe
            .catalog
            .schema(q.schema)
            .attrs
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["k", "a", "b"]);
        let s = format!("{}", q.body);
        assert!(s.contains(".k = "), "shared-column equality in {s}");
    }

    #[test]
    fn natural_join_without_shared_columns_rejected() {
        let mut fe = setup(
            "schema rs(k:int, a:int);\nschema ss(j:int, b:int);\ntable r(rs);\ntable r2(ss);",
        );
        let err = lower_ext_err(&mut fe, "SELECT * FROM r x NATURAL JOIN r2 y");
        assert!(matches!(err, LowerError::NaturalJoin(_)));
    }

    #[test]
    fn case_in_where_lowers_to_guarded_disjunction() {
        let mut fe = setup(DDL);
        let q = lower_ext(
            &mut fe,
            "SELECT x.a FROM r x WHERE CASE WHEN x.a = 1 THEN 1 ELSE 0 END = 1",
        );
        let s = format!("{}", q.body);
        // squash of a sum with the guard and its complement
        assert!(s.contains('‖'), "{s}");
        assert!(s.contains('≠'), "complement guard in {s}");
    }

    #[test]
    fn case_nested_in_function_call_rejected() {
        let mut fe = setup(DDL);
        let err = lower_ext_err(
            &mut fe,
            "SELECT f(CASE WHEN x.a = 1 THEN 1 ELSE 0 END) AS v FROM r x",
        );
        assert!(matches!(err, LowerError::CasePosition(_)));
    }

    #[test]
    fn case_on_both_sides_rejected() {
        let mut fe = setup(DDL);
        let err = lower_ext_err(
            &mut fe,
            "SELECT x.a FROM r x WHERE CASE WHEN x.a = 1 THEN 1 ELSE 0 END = \
             CASE WHEN x.b = 1 THEN 1 ELSE 0 END",
        );
        assert!(matches!(err, LowerError::CasePosition(_)));
    }

    #[test]
    fn scalar_subquery_becomes_uninterpreted_agg() {
        let mut fe = setup(DDL);
        let q = lower(&mut fe, "SELECT (SELECT MAX(y.a) FROM r2 y) AS m FROM r x");
        let s = format!("{}", q.body);
        assert!(s.contains("scalar_subquery("), "{s}");
    }
}
