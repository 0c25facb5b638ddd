//! Three-valued logic compilation: full-dialect predicates become
//! two-valued predicates over the NULL-tag encoding.
//!
//! SQL's `WHERE p` keeps a row exactly when `p` evaluates to **true** under
//! Kleene 3VL. This pass compiles, for every predicate `p`, its *is-true*
//! form `⟨p⟩⁺` (and dually the *is-false* form `⟨p⟩⁻`, used under `NOT`)
//! into the two-valued fragment the lowerer understands:
//!
//! ```text
//! ⟨a op b⟩⁺ = (a IS NOT NULL) ∧ (b IS NOT NULL) ∧ (a op b)
//! ⟨a op b⟩⁻ = (a IS NOT NULL) ∧ (b IS NOT NULL) ∧ (a op⁻¹ b)
//! ⟨p ∧ q⟩⁺  = ⟨p⟩⁺ ∧ ⟨q⟩⁺        ⟨p ∧ q⟩⁻ = ⟨p⟩⁻ ∨ ⟨q⟩⁻
//! ⟨p ∨ q⟩⁺  = ⟨p⟩⁺ ∨ ⟨q⟩⁺        ⟨p ∨ q⟩⁻ = ⟨p⟩⁻ ∧ ⟨q⟩⁻
//! ⟨¬p⟩±     = ⟨p⟩∓
//! ```
//!
//! `IS [NOT] NULL` and `EXISTS` are two-valued already; `e IS NULL` over a
//! compound expression decomposes by SQL strictness. `IN` accounts for NULL
//! probes and members (an unmatched `NOT IN` over a NULL member is
//! *unknown*, not true). Comparisons against `CASE` expand to the guarded
//! disjunction of their branches, each branch's selection condition being
//! the 2VL "guard is true / all prior guards not true" chain.
//!
//! Guards are only inserted where the operand is statically nullable
//! ([`crate::shape`]), so paper/extended-fragment queries encode to
//! themselves and lose no proofs.

use crate::shape::{expr_nullable, query_shape, source_shape, Scope};
use crate::ExtError;
use udp_core::name::Name;
use udp_sql::ast::*;
use udp_sql::Frontend;

/// Encode every predicate in `q` into the two-valued fragment.
pub fn encode_query(fe: &Frontend, q: &Query) -> Result<Query, ExtError> {
    let mut enc = Encoder { fe, next: 0 };
    enc.query(&Scope::root(), q)
}

struct Encoder<'a> {
    fe: &'a Frontend,
    /// Fresh-suffix counter for IN-wrapping aliases.
    next: usize,
}

/// `TRUE`/`FALSE` constant under a boolean.
fn konst(b: bool) -> PredExpr {
    if b {
        PredExpr::True
    } else {
        PredExpr::False
    }
}

/// Mirror a comparison across its operands (`a op b` ⇔ `b flip(op) a`).
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

impl Encoder<'_> {
    fn fresh(&mut self) -> usize {
        let n = self.next;
        self.next += 1;
        n
    }

    fn query(&mut self, scope: &Scope<'_>, q: &Query) -> Result<Query, ExtError> {
        match q {
            Query::Select(s) => Ok(Query::Select(self.select(scope, s)?)),
            Query::UnionAll(a, b) => Ok(Query::UnionAll(
                Box::new(self.query(scope, a)?),
                Box::new(self.query(scope, b)?),
            )),
            Query::Except(a, b) => Ok(Query::Except(
                Box::new(self.query(scope, a)?),
                Box::new(self.query(scope, b)?),
            )),
            Query::Union(a, b) => Ok(Query::Union(
                Box::new(self.query(scope, a)?),
                Box::new(self.query(scope, b)?),
            )),
            Query::Intersect(a, b) => Ok(Query::Intersect(
                Box::new(self.query(scope, a)?),
                Box::new(self.query(scope, b)?),
            )),
            Query::Values(rows) => {
                let rows = rows
                    .iter()
                    .map(|row| row.iter().map(|e| self.scalar(scope, e)).collect())
                    .collect::<Result<Vec<Vec<_>>, _>>()?;
                Ok(Query::Values(rows))
            }
        }
    }

    fn select(&mut self, scope: &Scope<'_>, s: &Select) -> Result<Select, ExtError> {
        if !s.outer.is_empty() {
            return Err(ExtError::Unsupported(
                "encode called before outer-join elimination".into(),
            ));
        }
        let mut inner = scope.child();
        let mut from = Vec::with_capacity(s.from.len());
        for item in &s.from {
            let shape = source_shape(self.fe, &inner, &item.source)?;
            let source = match &item.source {
                TableRef::Table(t) => TableRef::Table(t.clone()),
                // FROM subqueries do not see sibling aliases: encode them
                // under the enclosing scope.
                TableRef::Subquery(q) => TableRef::Subquery(Box::new(self.query(scope, q)?)),
            };
            from.push(FromItem {
                source,
                alias: item.alias.clone(),
            });
            inner.bind(item.alias.clone(), shape);
        }
        let projection = s
            .projection
            .iter()
            .map(|item| {
                Ok(match item {
                    SelectItem::Expr { expr, alias } => SelectItem::Expr {
                        expr: self.scalar(&inner, expr)?,
                        alias: alias.clone(),
                    },
                    other => other.clone(),
                })
            })
            .collect::<Result<Vec<_>, ExtError>>()?;
        let where_clause = s
            .where_clause
            .as_ref()
            .map(|p| self.pred(&inner, p, true))
            .transpose()?;
        let having = s
            .having
            .as_ref()
            .map(|p| self.pred(&inner, p, true))
            .transpose()?;
        let group_by = s
            .group_by
            .iter()
            .map(|e| self.scalar(&inner, e))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Select {
            distinct: s.distinct,
            projection,
            from,
            where_clause,
            group_by,
            having,
            natural: s.natural.clone(),
            outer: vec![],
        })
    }

    /// `⟨p⟩⁺` (`positive`) or `⟨p⟩⁻` (`!positive`): the 2VL is-true /
    /// is-false form.
    fn pred(
        &mut self,
        scope: &Scope<'_>,
        p: &PredExpr,
        positive: bool,
    ) -> Result<PredExpr, ExtError> {
        Ok(match p {
            PredExpr::True => konst(positive),
            PredExpr::False => konst(!positive),
            PredExpr::Not(inner) => self.pred(scope, inner, !positive)?,
            PredExpr::And(a, b) => {
                let (ea, eb) = (
                    self.pred(scope, a, positive)?,
                    self.pred(scope, b, positive)?,
                );
                if positive {
                    PredExpr::And(Box::new(ea), Box::new(eb))
                } else {
                    PredExpr::Or(Box::new(ea), Box::new(eb))
                }
            }
            PredExpr::Or(a, b) => {
                let (ea, eb) = (
                    self.pred(scope, a, positive)?,
                    self.pred(scope, b, positive)?,
                );
                if positive {
                    PredExpr::Or(Box::new(ea), Box::new(eb))
                } else {
                    PredExpr::And(Box::new(ea), Box::new(eb))
                }
            }
            PredExpr::IsNull(e) => self.is_null(scope, e, positive)?,
            PredExpr::Exists(q) => {
                let q2 = self.query(scope, q)?;
                let ex = PredExpr::Exists(Box::new(q2));
                if positive {
                    ex
                } else {
                    PredExpr::Not(Box::new(ex))
                }
            }
            PredExpr::InQuery(e, q) => self.in_query(scope, e, q, positive)?,
            PredExpr::Cmp(op, a, b) => self.cmp(scope, *op, a, b, positive)?,
        })
    }

    /// Null-guards for a comparison operand: `e IS NOT NULL` (2VL) when `e`
    /// is statically nullable; nothing otherwise.
    fn guard(&mut self, scope: &Scope<'_>, e: &ScalarExpr) -> Result<Option<PredExpr>, ExtError> {
        if expr_nullable(self.fe, scope, e) {
            Ok(Some(self.is_null(scope, e, false)?))
        } else {
            Ok(None)
        }
    }

    fn cmp(
        &mut self,
        scope: &Scope<'_>,
        op: CmpOp,
        a: &ScalarExpr,
        b: &ScalarExpr,
        positive: bool,
    ) -> Result<PredExpr, ExtError> {
        match (a.is_case(), b.is_case()) {
            (true, true) => Err(ExtError::Unsupported(
                "CASE on both sides of a comparison".into(),
            )),
            (true, false) => self.case_cmp(scope, flip_cmp(op), b, a, positive),
            (false, true) => self.case_cmp(scope, op, a, b, positive),
            (false, false) => {
                let mut conj: Vec<PredExpr> = Vec::new();
                if let Some(g) = self.guard(scope, a)? {
                    conj.push(g);
                }
                if let Some(g) = self.guard(scope, b)? {
                    conj.push(g);
                }
                let core = PredExpr::Cmp(
                    if positive { op } else { op.negate() },
                    self.scalar(scope, a)?,
                    self.scalar(scope, b)?,
                );
                conj.push(core);
                Ok(fold_and(conj))
            }
        }
    }

    /// `target op CASE WHEN b₁ THEN v₁ … ELSE v₀ END` as a disjunction of
    /// branch selections: branch i fires when its guard is *true* and no
    /// earlier guard is, then contributes `⟨target op vᵢ⟩±`.
    fn case_cmp(
        &mut self,
        scope: &Scope<'_>,
        op: CmpOp,
        target: &ScalarExpr,
        case: &ScalarExpr,
        positive: bool,
    ) -> Result<PredExpr, ExtError> {
        let ScalarExpr::Case { whens, else_ } = case else {
            return Err(ExtError::Unsupported("case_cmp on a non-CASE".into()));
        };
        let mut arms: Vec<PredExpr> = Vec::new();
        // 2VL "not selected yet" chain: ¬⟨b₁⟩⁺ ∧ … ∧ ¬⟨bᵢ₋₁⟩⁺.
        let mut prior: Vec<PredExpr> = Vec::new();
        for (b, v) in whens {
            if v.is_case() {
                return Err(ExtError::Unsupported("nested CASE branches".into()));
            }
            let sel = self.pred(scope, b, true)?;
            let mut conj = prior.clone();
            conj.push(sel.clone());
            conj.push(self.cmp(scope, op, target, v, positive)?);
            arms.push(fold_and(conj));
            prior.push(PredExpr::Not(Box::new(sel)));
        }
        if else_.is_case() {
            return Err(ExtError::Unsupported("nested CASE branches".into()));
        }
        let mut conj = prior;
        conj.push(self.cmp(scope, op, target, else_, positive)?);
        arms.push(fold_and(conj));
        Ok(fold_or(arms))
    }

    /// 2VL `e IS NULL` (`positive`) / `e IS NOT NULL` (`!positive`),
    /// decomposed by SQL strictness.
    fn is_null(
        &mut self,
        scope: &Scope<'_>,
        e: &ScalarExpr,
        positive: bool,
    ) -> Result<PredExpr, ExtError> {
        Ok(match e {
            ScalarExpr::Null => konst(positive),
            ScalarExpr::Int(_) | ScalarExpr::Str(_) => konst(!positive),
            // Aggregates and scalar subqueries are non-NULL in the fragment.
            ScalarExpr::Agg { .. } | ScalarExpr::Subquery(_) => konst(!positive),
            ScalarExpr::Column { table, column } => {
                if scope.column_nullable(table.as_deref(), column) {
                    let atom = PredExpr::IsNull(Box::new(e.clone()));
                    if positive {
                        atom
                    } else {
                        PredExpr::Not(Box::new(atom))
                    }
                } else {
                    konst(!positive)
                }
            }
            // Strict functions: NULL iff some argument is.
            ScalarExpr::App(_, args) => {
                let mut parts = Vec::new();
                for arg in args {
                    if expr_nullable(self.fe, scope, arg) {
                        parts.push(self.is_null(scope, arg, positive)?);
                    }
                }
                if parts.is_empty() {
                    konst(!positive)
                } else if positive {
                    fold_or(parts)
                } else {
                    fold_and(parts)
                }
            }
            // The selected branch's value decides; selection conditions are
            // 2VL and partition all rows, so the disjunction is exact under
            // either polarity.
            ScalarExpr::Case { whens, else_ } => {
                let mut arms = Vec::new();
                let mut prior: Vec<PredExpr> = Vec::new();
                for (b, v) in whens {
                    let sel = self.pred(scope, b, true)?;
                    let mut conj = prior.clone();
                    conj.push(sel.clone());
                    conj.push(self.is_null(scope, v, positive)?);
                    arms.push(fold_and(conj));
                    prior.push(PredExpr::Not(Box::new(sel)));
                }
                let mut conj = prior;
                conj.push(self.is_null(scope, else_, positive)?);
                arms.push(fold_and(conj));
                fold_or(arms)
            }
        })
    }

    /// 3VL `e IN (q)`: TRUE needs a definite match (both sides non-NULL);
    /// FALSE needs the probe non-NULL and every member a definite mismatch
    /// — an unmatched NOT IN over a NULL member is *unknown* — except that
    /// an empty `q` is definitively FALSE whatever the probe.
    fn in_query(
        &mut self,
        scope: &Scope<'_>,
        e: &ScalarExpr,
        q: &Query,
        positive: bool,
    ) -> Result<PredExpr, ExtError> {
        let shape = query_shape(self.fe, scope, q)?;
        let (member_col, member_nullable) = shape
            .cols
            .first()
            .cloned()
            .ok_or_else(|| ExtError::Unsupported("IN over no columns".into()))?;
        let e_nullable = expr_nullable(self.fe, scope, e);
        let q2 = self.query(scope, q)?;
        let e2 = self.scalar(scope, e)?;
        if !e_nullable && !member_nullable {
            let atom = PredExpr::InQuery(e2, Box::new(q2));
            return Ok(if positive {
                atom
            } else {
                PredExpr::Not(Box::new(atom))
            });
        }
        let w = Name::from(format!("__in{}", self.fresh()));
        let wrap = |cond: Option<PredExpr>, q: Query, alias: &Name| {
            Query::Select(Select {
                distinct: false,
                projection: vec![SelectItem::Star],
                from: vec![FromItem {
                    source: TableRef::Subquery(Box::new(q)),
                    alias: alias.clone(),
                }],
                where_clause: cond,
                group_by: vec![],
                having: None,
                natural: vec![],
                outer: vec![],
            })
        };
        let member = ScalarExpr::col(w.clone(), member_col);
        if positive {
            // NULL-tag members never 2VL-match a non-NULL probe, so the
            // plain membership test suffices once the probe is guarded.
            let mut conj = Vec::new();
            if let Some(g) = self.guard(scope, e)? {
                conj.push(g);
            }
            conj.push(PredExpr::InQuery(e2, Box::new(q2)));
            Ok(fold_and(conj))
        } else {
            // Definitely-false: no member matches *or is NULL* …
            let match_or_null = if member_nullable {
                PredExpr::Or(
                    Box::new(PredExpr::IsNull(Box::new(member.clone()))),
                    Box::new(PredExpr::Cmp(CmpOp::Eq, member.clone(), e2.clone())),
                )
            } else {
                PredExpr::Cmp(CmpOp::Eq, member.clone(), e2.clone())
            };
            let none_matches = PredExpr::Not(Box::new(PredExpr::Exists(Box::new(wrap(
                Some(match_or_null),
                q2.clone(),
                &w,
            )))));
            let mut definite = Vec::new();
            if let Some(g) = self.guard(scope, e)? {
                definite.push(g);
            }
            definite.push(none_matches);
            let definite = fold_and(definite);
            if e_nullable {
                // … or the member set is empty (then even a NULL probe is
                // definitively not IN).
                let w2 = Name::from(format!("__in{}", self.fresh()));
                let empty =
                    PredExpr::Not(Box::new(PredExpr::Exists(Box::new(wrap(None, q2, &w2)))));
                Ok(PredExpr::Or(Box::new(empty), Box::new(definite)))
            } else {
                Ok(definite)
            }
        }
    }

    fn scalar(&mut self, scope: &Scope<'_>, e: &ScalarExpr) -> Result<ScalarExpr, ExtError> {
        Ok(match e {
            ScalarExpr::Column { .. }
            | ScalarExpr::Int(_)
            | ScalarExpr::Str(_)
            | ScalarExpr::Null => e.clone(),
            ScalarExpr::App(f, args) => ScalarExpr::App(
                f.clone(),
                args.iter()
                    .map(|a| self.scalar(scope, a))
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
                    AggArg::Expr(inner) => AggArg::Expr(Box::new(self.scalar(scope, inner)?)),
                },
                distinct: *distinct,
            },
            ScalarExpr::Subquery(q) => ScalarExpr::Subquery(Box::new(self.query(scope, q)?)),
            // Value-position CASE: guards become their is-true form; the
            // lowerer's own guarded-disjunction path then computes the
            // "first true branch" chain with correct 2VL complements.
            ScalarExpr::Case { whens, else_ } => ScalarExpr::Case {
                whens: whens
                    .iter()
                    .map(|(b, v)| Ok((self.pred(scope, b, true)?, self.scalar(scope, v)?)))
                    .collect::<Result<Vec<_>, ExtError>>()?,
                else_: Box::new(self.scalar(scope, else_)?),
            },
        })
    }
}

fn fold_and(parts: Vec<PredExpr>) -> PredExpr {
    // Drop TRUE units; short-circuit on FALSE.
    let mut kept: Vec<PredExpr> = Vec::new();
    for p in parts {
        match p {
            PredExpr::True => {}
            PredExpr::False => return PredExpr::False,
            other => kept.push(other),
        }
    }
    let mut it = kept.into_iter();
    match it.next() {
        None => PredExpr::True,
        Some(first) => it.fold(first, PredExpr::and),
    }
}

fn fold_or(parts: Vec<PredExpr>) -> PredExpr {
    let mut kept: Vec<PredExpr> = Vec::new();
    for p in parts {
        match p {
            PredExpr::False => {}
            PredExpr::True => return PredExpr::True,
            other => kept.push(other),
        }
    }
    let mut it = kept.into_iter();
    match it.next() {
        None => PredExpr::False,
        Some(first) => it.fold(first, |acc, p| PredExpr::Or(Box::new(acc), Box::new(p))),
    }
}
