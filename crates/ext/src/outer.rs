//! Outer-join elimination: `LEFT`/`RIGHT`/`FULL JOIN … ON p` compiled into
//! the core fragment as an inner join plus an antijoin with NULL padding.
//!
//! Following SPES's symbolic normalization of outer joins, one spec
//! `… a LEFT JOIN b ON p …` inside `SELECT π FROM F WHERE w` becomes
//!
//! ```text
//!   SELECT π FROM F          WHERE p AND w          -- the matching pairs
//! UNION ALL
//!   SELECT π FROM F[b ↦ ⊥b]  WHERE w
//!          AND NOT EXISTS (SELECT * FROM B b' WHERE p[b ↦ b'])
//! ```
//!
//! where `⊥b` is a one-row derived table carrying NULL in every column of
//! `b`'s schema. In U-semiring terms the antijoin guard lowers to
//! `not(Σ_{b'} ⟦B⟧(b') × ⟦p⟧)` — the `not`/squash machinery the paper
//! already provides — and the padded columns carry the distinguished NULL
//! tag. `RIGHT` mirrors the roles; `FULL` emits both antijoin branches.
//! Chained specs eliminate left-to-right: a padded alias's columns are
//! nullable in the residual query, so a later ON condition over them is
//! compiled by the 3VL encoding ([`crate::encode`]) to never-true — exactly
//! SQL's cascade semantics.
//!
//! Restrictions (detected, reported as [`ExtError::Unsupported`]): outer
//! joins under GROUP BY / aggregates, mixed with NATURAL JOIN, or over
//! open-schema (`??`) sources — none arise in the corpus exemplars.

use crate::shape::{source_shape, Scope};
use crate::ExtError;
use std::collections::HashMap;
use udp_core::name::Name;
use udp_sql::ast::*;
use udp_sql::desugar::rename_pred;
use udp_sql::Frontend;

/// Eliminate every outer join in `q`, recursively.
pub fn eliminate(fe: &Frontend, q: &Query) -> Result<Query, ExtError> {
    validate_query(q)?;
    let mut el = Eliminator { fe, next: 0 };
    el.query(q)
}

/// Reject ON conditions that reference a sibling FROM alias outside the
/// join's own (transitively joined) pair — standard SQL scoping, and the
/// boundary of what the native oracle can evaluate pairwise. Checked once
/// on the *original* query: the recursive branches intentionally skip it
/// (their residual spec lists have lost the already-eliminated joins that
/// legitimize cross-references).
fn validate_query(q: &Query) -> Result<(), ExtError> {
    use std::collections::{BTreeSet, HashMap};

    fn locals_of(s: &Select) -> BTreeSet<Name> {
        s.from.iter().map(|fi| fi.alias.clone()).collect()
    }

    /// Qualified aliases referenced in `p` that name `locals`, ignoring
    /// references a nested subquery rebinds (shadowing).
    fn local_refs_pred(p: &PredExpr, locals: &BTreeSet<Name>, out: &mut BTreeSet<Name>) {
        match p {
            PredExpr::Cmp(_, a, b) => {
                local_refs_scalar(a, locals, out);
                local_refs_scalar(b, locals, out);
            }
            PredExpr::And(a, b) | PredExpr::Or(a, b) => {
                local_refs_pred(a, locals, out);
                local_refs_pred(b, locals, out);
            }
            PredExpr::Not(a) => local_refs_pred(a, locals, out),
            PredExpr::True | PredExpr::False => {}
            PredExpr::IsNull(e) => local_refs_scalar(e, locals, out),
            PredExpr::Exists(q) => local_refs_query(q, locals, out),
            PredExpr::InQuery(e, q) => {
                local_refs_scalar(e, locals, out);
                local_refs_query(q, locals, out);
            }
        }
    }

    fn local_refs_scalar(e: &ScalarExpr, locals: &BTreeSet<Name>, out: &mut BTreeSet<Name>) {
        match e {
            ScalarExpr::Column { table: Some(t), .. } => {
                if locals.contains(t) {
                    out.insert(t.clone());
                }
            }
            ScalarExpr::Column { table: None, .. }
            | ScalarExpr::Int(_)
            | ScalarExpr::Str(_)
            | ScalarExpr::Null => {}
            ScalarExpr::App(_, args) => {
                for a in args {
                    local_refs_scalar(a, locals, out);
                }
            }
            ScalarExpr::Agg { arg, .. } => {
                if let AggArg::Expr(inner) = arg {
                    local_refs_scalar(inner, locals, out);
                }
            }
            ScalarExpr::Subquery(q) => local_refs_query(q, locals, out),
            ScalarExpr::Case { whens, else_ } => {
                for (b, v) in whens {
                    local_refs_pred(b, locals, out);
                    local_refs_scalar(v, locals, out);
                }
                local_refs_scalar(else_, locals, out);
            }
        }
    }

    fn local_refs_query(q: &Query, locals: &BTreeSet<Name>, out: &mut BTreeSet<Name>) {
        match q {
            Query::Select(s) => {
                // The nested select's own aliases shadow outer names.
                let visible: BTreeSet<Name> = locals.difference(&locals_of(s)).cloned().collect();
                for item in &s.from {
                    if let TableRef::Subquery(sub) = &item.source {
                        local_refs_query(sub, &visible, out);
                    }
                }
                if let Some(w) = &s.where_clause {
                    local_refs_pred(w, &visible, out);
                }
                if let Some(h) = &s.having {
                    local_refs_pred(h, &visible, out);
                }
                for oj in &s.outer {
                    local_refs_pred(&oj.on, &visible, out);
                }
                for item in &s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        local_refs_scalar(expr, &visible, out);
                    }
                }
            }
            Query::UnionAll(a, b)
            | Query::Except(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b) => {
                local_refs_query(a, locals, out);
                local_refs_query(b, locals, out);
            }
            Query::Values(rows) => {
                for row in rows {
                    for e in row {
                        local_refs_scalar(e, locals, out);
                    }
                }
            }
        }
    }

    fn validate_select(s: &Select) -> Result<(), ExtError> {
        let locals = locals_of(s);
        // Union-find over aliases, mirroring the oracle's join groups.
        let mut group: HashMap<Name, usize> = locals
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i))
            .collect();
        for oj in &s.outer {
            let gl = *group
                .get(&oj.left)
                .ok_or_else(|| ExtError::UnknownTable(oj.left.to_string()))?;
            let gr = *group
                .get(&oj.right)
                .ok_or_else(|| ExtError::UnknownTable(oj.right.to_string()))?;
            if gl == gr {
                return Err(ExtError::Unsupported(format!(
                    "outer join between already-joined aliases `{}` and `{}`",
                    oj.left, oj.right
                )));
            }
            let mut refs = BTreeSet::new();
            local_refs_pred(&oj.on, &locals, &mut refs);
            for r in &refs {
                let g = group[r];
                if g != gl && g != gr {
                    return Err(ExtError::Unsupported(format!(
                        "ON condition of `{} JOIN {}` references sibling alias `{r}` \
                         outside the join pair",
                        oj.kind, oj.right
                    )));
                }
            }
            for g in group.values_mut() {
                if *g == gr {
                    *g = gl;
                }
            }
        }
        Ok(())
    }

    // Every block, ON-clause and VALUES subqueries included: the
    // eliminator rewrites outer joins wherever they are nested.
    let mut result = Ok(());
    q.for_each_select(&mut |s| {
        if result.is_ok() {
            result = validate_select(s);
        }
    });
    result
}

struct Eliminator<'a> {
    fe: &'a Frontend,
    /// Fresh-suffix counter for antijoin probe aliases.
    next: usize,
}

impl Eliminator<'_> {
    fn fresh(&mut self) -> usize {
        let n = self.next;
        self.next += 1;
        n
    }

    fn query(&mut self, q: &Query) -> Result<Query, ExtError> {
        match q {
            Query::Select(s) => self.select(s),
            Query::UnionAll(a, b) => Ok(Query::UnionAll(
                Box::new(self.query(a)?),
                Box::new(self.query(b)?),
            )),
            Query::Except(a, b) => Ok(Query::Except(
                Box::new(self.query(a)?),
                Box::new(self.query(b)?),
            )),
            Query::Union(a, b) => Ok(Query::Union(
                Box::new(self.query(a)?),
                Box::new(self.query(b)?),
            )),
            Query::Intersect(a, b) => Ok(Query::Intersect(
                Box::new(self.query(a)?),
                Box::new(self.query(b)?),
            )),
            Query::Values(rows) => {
                let rows = rows
                    .iter()
                    .map(|row| row.iter().map(|e| self.scalar(e)).collect())
                    .collect::<Result<Vec<Vec<_>>, _>>()?;
                Ok(Query::Values(rows))
            }
        }
    }

    /// Recurse into every nested query of the select (FROM sources,
    /// predicates, projections) without touching its own outer specs.
    fn map_nested(&mut self, s: &Select) -> Result<Select, ExtError> {
        let mut out = s.clone();
        for item in &mut out.from {
            if let TableRef::Subquery(q) = &mut item.source {
                **q = self.query(q)?;
            }
        }
        out.projection = s
            .projection
            .iter()
            .map(|item| {
                Ok(match item {
                    SelectItem::Expr { expr, alias } => SelectItem::Expr {
                        expr: self.scalar(expr)?,
                        alias: alias.clone(),
                    },
                    other => other.clone(),
                })
            })
            .collect::<Result<Vec<_>, ExtError>>()?;
        out.where_clause = s.where_clause.as_ref().map(|p| self.pred(p)).transpose()?;
        out.having = s.having.as_ref().map(|p| self.pred(p)).transpose()?;
        out.outer = s
            .outer
            .iter()
            .map(|oj| {
                Ok(OuterJoin {
                    kind: oj.kind,
                    left: oj.left.clone(),
                    right: oj.right.clone(),
                    on: self.pred(&oj.on)?,
                })
            })
            .collect::<Result<Vec<_>, ExtError>>()?;
        Ok(out)
    }

    fn select(&mut self, s: &Select) -> Result<Query, ExtError> {
        let s = self.map_nested(s)?;
        if s.outer.is_empty() {
            return Ok(Query::Select(s));
        }
        if !s.natural.is_empty() {
            return Err(ExtError::Unsupported(
                "NATURAL JOIN mixed with outer joins".into(),
            ));
        }
        if !s.group_by.is_empty() || udp_sql::desugar::has_raw_aggregates(&s) {
            return Err(ExtError::Unsupported(
                "aggregates over outer joins (wrap the join in a derived table)".into(),
            ));
        }
        if s.distinct {
            // DISTINCT must dedupe *across* the union of branches: strip it
            // from the branches and re-apply over a derived table.
            let mut bag = s.clone();
            bag.distinct = false;
            let united = self.select(&bag)?;
            return Ok(Query::Select(Select {
                distinct: true,
                projection: vec![SelectItem::Star],
                from: vec![FromItem {
                    source: TableRef::Subquery(Box::new(united)),
                    alias: "__dq".into(),
                }],
                where_clause: None,
                group_by: vec![],
                having: None,
                natural: vec![],
                outer: vec![],
            }));
        }

        // Eliminate the first spec; the branches carry the rest and recurse.
        let mut rest = s.outer.clone();
        let spec = rest.remove(0);
        let base = Select {
            outer: rest,
            ..s.clone()
        };

        // Inner branch: the ON condition joins like a WHERE conjunct.
        let mut inner = base.clone();
        inner.where_clause = Some(match inner.where_clause.take() {
            Some(w) => PredExpr::and(spec.on.clone(), w),
            None => spec.on.clone(),
        });

        let query = match spec.kind {
            OuterKind::Left => Query::UnionAll(
                Box::new(self.select(&inner)?),
                Box::new(self.anti_branch(&base, &spec, &spec.right)?),
            ),
            OuterKind::Right => Query::UnionAll(
                Box::new(self.select(&inner)?),
                Box::new(self.anti_branch(&base, &spec, &spec.left)?),
            ),
            OuterKind::Full => Query::UnionAll(
                Box::new(self.select(&inner)?),
                Box::new(Query::UnionAll(
                    Box::new(self.anti_branch(&base, &spec, &spec.right)?),
                    Box::new(self.anti_branch(&base, &spec, &spec.left)?),
                )),
            ),
        };
        Ok(query)
    }

    /// The antijoin branch padding `pad_alias` with NULLs: replace its FROM
    /// item by a one-row all-NULL derived table and require that no row of
    /// the original source satisfies the ON condition.
    fn anti_branch(
        &mut self,
        base: &Select,
        spec: &OuterJoin,
        pad_alias: &Name,
    ) -> Result<Query, ExtError> {
        let idx = base
            .from
            .iter()
            .position(|fi| fi.alias == *pad_alias)
            .ok_or_else(|| ExtError::UnknownTable(pad_alias.to_string()))?;
        let orig = base.from[idx].clone();
        let shape = source_shape(self.fe, &Scope::root(), &orig.source)?;
        if shape.open {
            return Err(ExtError::Unsupported(format!(
                "outer join padding over open-schema source `{pad_alias}`"
            )));
        }

        // `(SELECT NULL AS c1, …, NULL AS ck) pad_alias` — one all-NULL row.
        let padded = Select {
            distinct: false,
            projection: shape
                .cols
                .iter()
                .map(|(n, _)| SelectItem::Expr {
                    expr: ScalarExpr::Null,
                    alias: Some(n.clone()),
                })
                .collect(),
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            natural: vec![],
            outer: vec![],
        };

        // `NOT EXISTS (SELECT * FROM <source> probe WHERE p[pad ↦ probe])`.
        let probe_alias = Name::from(format!("{}__aj{}", pad_alias, self.fresh()));
        let map: HashMap<Name, Name> = HashMap::from([(pad_alias.clone(), probe_alias.clone())]);
        let probe = Select {
            distinct: false,
            projection: vec![SelectItem::Star],
            from: vec![FromItem {
                source: orig.source.clone(),
                alias: probe_alias,
            }],
            where_clause: Some(rename_pred(&spec.on, &map)),
            group_by: vec![],
            having: None,
            natural: vec![],
            outer: vec![],
        };
        let no_match = PredExpr::Not(Box::new(PredExpr::Exists(Box::new(Query::Select(probe)))));

        let mut anti = base.clone();
        anti.from[idx] = FromItem {
            source: TableRef::Subquery(Box::new(Query::Select(padded))),
            alias: pad_alias.clone(),
        };
        anti.where_clause = Some(match anti.where_clause.take() {
            Some(w) => PredExpr::and(no_match, w),
            None => no_match,
        });
        self.select(&anti)
    }

    fn pred(&mut self, p: &PredExpr) -> Result<PredExpr, ExtError> {
        Ok(match p {
            PredExpr::Cmp(op, a, b) => PredExpr::Cmp(*op, self.scalar(a)?, self.scalar(b)?),
            PredExpr::And(a, b) => PredExpr::And(Box::new(self.pred(a)?), Box::new(self.pred(b)?)),
            PredExpr::Or(a, b) => PredExpr::Or(Box::new(self.pred(a)?), Box::new(self.pred(b)?)),
            PredExpr::Not(a) => PredExpr::Not(Box::new(self.pred(a)?)),
            PredExpr::True => PredExpr::True,
            PredExpr::False => PredExpr::False,
            PredExpr::IsNull(e) => PredExpr::IsNull(Box::new(self.scalar(e)?)),
            PredExpr::Exists(q) => PredExpr::Exists(Box::new(self.query(q)?)),
            PredExpr::InQuery(e, q) => PredExpr::InQuery(self.scalar(e)?, Box::new(self.query(q)?)),
        })
    }

    fn scalar(&mut self, e: &ScalarExpr) -> Result<ScalarExpr, ExtError> {
        Ok(match e {
            ScalarExpr::Column { .. }
            | ScalarExpr::Int(_)
            | ScalarExpr::Str(_)
            | ScalarExpr::Null => e.clone(),
            ScalarExpr::App(f, args) => ScalarExpr::App(
                f.clone(),
                args.iter()
                    .map(|a| self.scalar(a))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            ScalarExpr::Agg {
                func,
                arg,
                distinct,
            } => ScalarExpr::Agg {
                func: func.clone(),
                arg: match arg {
                    AggArg::Star => AggArg::Star,
                    AggArg::Expr(inner) => AggArg::Expr(Box::new(self.scalar(inner)?)),
                },
                distinct: *distinct,
            },
            ScalarExpr::Subquery(q) => ScalarExpr::Subquery(Box::new(self.query(q)?)),
            ScalarExpr::Case { whens, else_ } => ScalarExpr::Case {
                whens: whens
                    .iter()
                    .map(|(b, v)| Ok((self.pred(b)?, self.scalar(v)?)))
                    .collect::<Result<Vec<_>, ExtError>>()?,
                else_: Box::new(self.scalar(else_)?),
            },
        })
    }
}
