//! `canonize` — Algorithm 1 of the paper.
//!
//! Converts an SPNF expression into canonical form under integrity
//! constraints by exhaustively applying, per term:
//!
//! 1. transitive closure of equality predicates (implicit: a congruence
//!    closure is built from the equality atoms, Alg 1 line 2);
//! 2. Eq. (15) elimination of summation variables, including the
//!    record-pinning variant of Ex 4.7 for closed schemas (line 3);
//! 3. the key identity of Def 4.1 — merging / deduplicating atoms whose key
//!    attributes are congruent (line 5);
//! 4. the foreign-key identity of Def 4.4 — materializing the referenced
//!    parent atom when absent, with a bounded number of rounds since the
//!    chase may diverge on cyclic FK graphs (line 6);
//! 5. the generalized Theorem 4.3: a term whose summation variables are all
//!    *determined* (reachable from free variables through equalities and
//!    key lookups) and whose atoms all range over keyed relations is
//!    duplicate-free, hence equal to its own squash; its nested squash
//!    factor is then dissolved by Lemma 5.1.
//!
//! Under a squash context, two extra identities apply: nested squashes
//! flatten (Lemma 5.1) and congruent duplicate factors collapse (axioms (3)
//! and (4): `‖x · x‖ = ‖x‖`), no key required.

use crate::budget::Exhausted;
use crate::congruence::Congruence;
use crate::ctx::Ctx;
use crate::expr::{Expr, Pred, VarId};
use crate::spnf::{Nf, Term};
use crate::trace::{Rule, StepData};
use udp_obs::Counter;

/// Canonize every term of `nf`. `ambient` carries equality predicates that
/// hold in the enclosing context (outer-term predicates, used when canonizing
/// nested squash/negation bodies). `under_squash` enables the squash-context
/// identities and disables Theorem 4.3 introduction (pointless there).
pub fn canonize_nf(
    ctx: &mut Ctx,
    nf: Nf,
    ambient: &[Pred],
    under_squash: bool,
) -> Result<Nf, Exhausted> {
    if !ctx.opts.canonize {
        return Ok(nf);
    }
    // Clone the handle so the span guard doesn't borrow `ctx` across the
    // mutable uses below (a disabled handle makes this span free).
    let recorder = ctx.recorder.clone();
    let _span = recorder.span(udp_obs::Stage::CanonizeCore);
    let nf = if under_squash {
        nf.flatten_under_squash()
    } else {
        nf
    };
    let mut terms = Vec::with_capacity(nf.terms.len());
    for t in nf.terms {
        if let Some(t) = canonize_term(ctx, t, ambient, under_squash)? {
            terms.push(t);
        }
    }
    Ok(Nf { terms })
}

/// Canonize a single term; `None` means the term simplified to `0`.
pub fn canonize_term(
    ctx: &mut Ctx,
    mut t: Term,
    ambient: &[Pred],
    under_squash: bool,
) -> Result<Option<Term>, Exhausted> {
    let mut fk_added: u32 = 0;
    let fk_limit = if ctx.opts.use_constraints {
        FK_ROUNDS.saturating_mul(t.atoms.len() as u32 + 1)
    } else {
        0
    };

    loop {
        ctx.budget.tick()?;
        ctx.recorder.count(Counter::CanonizeIters, 1);
        t = resolve_term_attrs(ctx, t);
        t.simplify_preds();
        if t.is_zero() {
            return Ok(None);
        }
        let mut cc = build_congruence(ctx, &t, ambient);

        // Semantic zero: the term's equalities (closed under congruence with
        // the ambient context) merge two distinct constants, or refute one
        // of the term's own disequalities. Either way the product denotes 0
        // at every valuation and the term vanishes from the sum.
        if cc.inconsistent() {
            return Ok(None);
        }
        let refuted_ne = t.preds.iter().any(|p| match p {
            Pred::Ne(a, b) => cc.same(a, b),
            _ => false,
        });
        if refuted_ne {
            return Ok(None);
        }
        // Dual simplification: a disequality whose sides are congruent to
        // *distinct constants* is vacuously true and drops. Without this,
        // `[x.a ≠ NULL] × [x.a = 0]` keeps the redundant guard on one side
        // of a goal while variable elimination folds it into `[0 ≠ NULL]`
        // (syntactically trivial) on the other, and the isomorphism check
        // misses — the udp-ext NULL guards made this shape common. The
        // class→constant map is built once per iteration (this runs in the
        // prover's hot loop).
        if t.preds.iter().any(|p| matches!(p, Pred::Ne(_, _))) {
            let consts = cc.class_constants();
            let before_preds = t.preds.len();
            let kept: Vec<Pred> = t
                .preds
                .drain(..)
                .filter(|p| match p {
                    Pred::Ne(a, b) => {
                        let (ca, cb) = (consts.get(&cc.class_of(a)), consts.get(&cc.class_of(b)));
                        !matches!((ca, cb), (Some(x), Some(y)) if x != y)
                    }
                    _ => true,
                })
                .collect();
            t.preds = kept;
            if t.preds.len() != before_preds {
                continue;
            }
        }

        if eliminate_variable(ctx, &mut t, &mut cc, ambient)? {
            continue;
        }
        if ctx.opts.use_constraints && key_chase_step(ctx, &mut t, &mut cc, ambient)? {
            continue;
        }
        if under_squash && squash_dedup_step(ctx, &mut t, &mut cc, ambient)? {
            continue;
        }
        if fk_added < fk_limit && fk_chase_step(ctx, &mut t, &mut cc, ambient)? {
            fk_added += 1;
            continue;
        }
        break;
    }

    // Recursively canonize the nested factors under the term's own
    // equalities.
    let mut inner_ambient: Vec<Pred> = ambient.to_vec();
    inner_ambient.extend(t.preds.iter().cloned());
    if let Some(sq) = t.squash.take() {
        let canon = canonize_nf(ctx, *sq, &inner_ambient, true)?;
        if canon.is_zero() {
            return Ok(None); // ‖0‖ = 0 annihilates the term
        }
        if !canon.is_one() {
            t.squash = Some(Box::new(canon));
        }
    }
    if let Some(neg) = t.negation.take() {
        let canon = canonize_nf(ctx, *neg, &inner_ambient, false)?;
        if !canon.is_zero() {
            t.negation = Some(Box::new(canon)); // not(0) = 1: factor vanishes
        }
    }

    // Squash absorption (generalizing axiom (5) `x·‖x‖ = x`): the factor
    // `‖S‖` drops whenever some summand of `S` maps homomorphically into the
    // rest of the term — then `S ≥ 1` at every valuation where the rest is
    // nonzero, so multiplying by `‖S‖` changes nothing. This is what removes
    // redundant EXISTS semi-joins and magic-set filters.
    if let Some(sq) = &t.squash {
        let mut core = t.clone();
        core.squash = None;
        core.negation = None;
        let mut absorbed = false;
        for s_term in &sq.terms {
            ctx.budget.tick()?;
            if crate::hom::match_terms(ctx, s_term, &core, crate::hom::MatchMode::Hom, ambient)?
                .is_some()
            {
                absorbed = true;
                break;
            }
        }
        if absorbed {
            ctx.recorder.count(Counter::RwSquashFlatten, 1);
            let before = t.clone();
            t.squash = None;
            let after = t.clone();
            ctx.trace
                .record(Rule::SquashFlatten, || StepData::TermRewrite {
                    before,
                    after: vec![after],
                    ambient: ambient.to_vec(),
                });
        }
    }

    // Generalized Theorem 4.3: wrap duplicate-free terms in a squash so that
    // mixed set/bag rewrites (Sec 5.4) meet in SDP.
    if !under_squash
        && ctx.opts.squash_intro
        && ctx.opts.use_constraints
        && (t.squash.is_some() || !t.atoms.is_empty())
    {
        let mut cc = build_congruence(ctx, &t, ambient);
        if is_squash_invariant(ctx, &t, &mut cc) {
            ctx.recorder.count(Counter::RwSquashIntro, 1);
            ctx.trace
                .record(Rule::SquashIntro, || StepData::TermRewrite {
                    before: t.clone(),
                    after: vec![],
                    ambient: ambient.to_vec(),
                });
            let inner = Nf { terms: vec![t] }.flatten_under_squash();
            let inner = canonize_nf(ctx, inner, ambient, true)?;
            if inner.is_zero() {
                return Ok(None);
            }
            return Ok(Some(Term::squash_of(inner)));
        }
    }

    t.sort_factors();
    Ok(Some(t))
}

/// Build the congruence closure from ambient + term equalities.
fn build_congruence(ctx: &Ctx, t: &Term, ambient: &[Pred]) -> Congruence {
    let _span = ctx.recorder.span(udp_obs::Stage::Congruence);
    let mut cc = Congruence::with_recorder(ctx.recorder.clone());
    if ctx.opts.congruence {
        cc.assert_preds(ambient.iter());
        cc.assert_preds(t.preds.iter());
    } else {
        // Ablation mode: only the term's own syntactic equalities, no
        // closure beyond union of identical assertions.
        cc.assert_preds(t.preds.iter());
    }
    cc
}

/// Resolve `Attr(Concat(..))` projections using catalog schemas.
fn resolve_term_attrs(ctx: &Ctx, t: Term) -> Term {
    let catalog = ctx.catalog;
    let left_has = move |sid: crate::schema::SchemaId, attr: &str| {
        let s = catalog.schema(sid);
        if s.has_attr(attr) {
            Some(true)
        } else if s.is_closed() {
            Some(false)
        } else {
            None
        }
    };
    Term {
        vars: t.vars.clone(),
        preds: t
            .preds
            .iter()
            .map(|p| p.map_exprs(&|e| e.clone().resolve_attr_with(&left_has)))
            .collect(),
        squash: t.squash.as_ref().map(|nf| {
            Box::new(map_nf_exprs(nf, &|e| {
                e.clone().resolve_attr_with(&left_has)
            }))
        }),
        negation: t.negation.as_ref().map(|nf| {
            Box::new(map_nf_exprs(nf, &|e| {
                e.clone().resolve_attr_with(&left_has)
            }))
        }),
        atoms: t
            .atoms
            .iter()
            .map(|a| crate::spnf::Atom::new(a.rel, a.arg.clone().resolve_attr_with(&left_has)))
            .collect(),
    }
}

fn map_nf_exprs(nf: &Nf, f: &dyn Fn(&Expr) -> Expr) -> Nf {
    Nf {
        terms: nf
            .terms
            .iter()
            .map(|t| Term {
                vars: t.vars.clone(),
                preds: t.preds.iter().map(|p| p.map_exprs(f)).collect(),
                squash: t.squash.as_ref().map(|s| Box::new(map_nf_exprs(s, f))),
                negation: t.negation.as_ref().map(|n| Box::new(map_nf_exprs(n, f))),
                atoms: t
                    .atoms
                    .iter()
                    .map(|a| crate::spnf::Atom::new(a.rel, f(&a.arg)))
                    .collect(),
            })
            .collect(),
    }
}

/// Eq. (15): eliminate a summation variable that is congruent to an
/// expression not mentioning it — directly, or attribute-wise through record
/// pinning (Ex 4.7) when its schema is closed.
fn eliminate_variable(
    ctx: &mut Ctx,
    t: &mut Term,
    cc: &mut Congruence,
    ambient: &[Pred],
) -> Result<bool, Exhausted> {
    let bound: Vec<VarId> = t.vars.iter().map(|(v, _)| *v).collect();
    // Canonical witness choice: prefer expressions built only from *free*
    // variables (shared between the two sides of a goal), then smaller, then
    // Ord — so both sides of an equivalence pick the same representative.
    let pick = |cc: &mut Congruence, e: &Expr, v: VarId, bound: &[VarId]| -> Option<Expr> {
        cc.members_without_var(e, v)
            .min_by(|a, b| {
                let key = |x: &Expr| {
                    let uses_bound = bound.iter().any(|&w| x.contains_var(w));
                    (uses_bound, x.size())
                };
                key(a).cmp(&key(b)).then_with(|| a.cmp(b))
            })
            .cloned()
    };
    for i in 0..t.vars.len() {
        ctx.budget.tick()?;
        let (v, schema) = t.vars[i];
        // Direct witness from v's congruence class.
        if let Some(w) = pick(cc, &Expr::Var(v), v, &bound) {
            apply_elimination(ctx, t, i, v, w, Rule::Eq15Elim, ambient);
            return Ok(true);
        }
        // Record pinning: every attribute of a closed schema is determined.
        // Never pin a variable that argues a relation atom (here or in a
        // nested factor): `R(⟨…⟩)` forms cripple the atom-guided
        // isomorphism/homomorphism search, while the equalities the pinning
        // would consume are handled by congruence anyway.
        if var_is_atom_arg(t, v) {
            continue;
        }
        let s = ctx.catalog.schema(schema);
        if s.is_closed() && !s.attrs.is_empty() {
            let mut fields = Vec::with_capacity(s.attrs.len());
            let mut ok = true;
            for (a, _) in &s.attrs {
                match pick(cc, &Expr::var_attr(v, a), v, &bound) {
                    Some(e) => fields.push((a.clone(), e)),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                let w = Expr::Record(fields);
                apply_elimination(ctx, t, i, v, w, Rule::RecordPin, ambient);
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Does `v` occur as a direct relation-atom argument, in this term or any
/// nested squash/negation factor?
fn var_is_atom_arg(t: &Term, v: VarId) -> bool {
    fn in_nf(nf: &Nf, v: VarId) -> bool {
        nf.terms.iter().any(|t| var_is_atom_arg(t, v))
    }
    t.atoms.iter().any(|a| a.arg == Expr::Var(v))
        || t.squash.as_ref().is_some_and(|nf| in_nf(nf, v))
        || t.negation.as_ref().is_some_and(|nf| in_nf(nf, v))
}

fn apply_elimination(
    ctx: &mut Ctx,
    t: &mut Term,
    idx: usize,
    v: VarId,
    w: Expr,
    rule: Rule,
    ambient: &[Pred],
) {
    ctx.recorder.count(
        if rule == Rule::RecordPin {
            Counter::RwRecordPin
        } else {
            Counter::RwEq15Elim
        },
        1,
    );
    let before = if ctx.trace.is_enabled() {
        Some(t.clone())
    } else {
        None
    };
    t.vars.remove(idx);
    *t = t.subst(v, &w);
    if let Some(before) = before {
        ctx.trace.record(rule, || StepData::TermRewrite {
            before,
            after: vec![t.clone()],
            ambient: ambient.to_vec(),
        });
    }
}

/// Def 4.1: two atoms over the same keyed relation with congruent key
/// attributes merge into one (plus an equality), and syntactically congruent
/// duplicates over keyed relations collapse.
fn key_chase_step(
    ctx: &mut Ctx,
    t: &mut Term,
    cc: &mut Congruence,
    ambient: &[Pred],
) -> Result<bool, Exhausted> {
    for i in 0..t.atoms.len() {
        for j in (i + 1)..t.atoms.len() {
            ctx.budget.tick()?;
            if t.atoms[i].rel != t.atoms[j].rel {
                continue;
            }
            let rel = t.atoms[i].rel;
            let keys: Vec<Vec<String>> = ctx.cs.keys_of(rel).map(|k| k.to_vec()).collect();
            for key in &keys {
                let ai = t.atoms[i].arg.clone();
                let aj = t.atoms[j].arg.clone();
                let keys_match = key.iter().all(|k| {
                    let ei = Expr::attr(ai.clone(), k.clone()).simplify_head();
                    let ej = Expr::attr(aj.clone(), k.clone()).simplify_head();
                    cc.same(&ei, &ej)
                });
                if !keys_match {
                    continue;
                }
                let before = if ctx.trace.is_enabled() {
                    Some(t.clone())
                } else {
                    None
                };
                if cc.same(&ai, &aj) {
                    // R(t)·R(t) = R(t) for keyed R (Def 4.1 with t = t').
                    ctx.recorder.count(Counter::RwKeyDedup, 1);
                    t.atoms.remove(j);
                    if let Some(before) = before {
                        ctx.trace.record(Rule::KeyDedup, || StepData::TermRewrite {
                            before,
                            after: vec![t.clone()],
                            ambient: ambient.to_vec(),
                        });
                    }
                } else {
                    // [t.k = t'.k]·R(t)·R(t') = [t = t']·R(t).
                    ctx.recorder.count(Counter::RwKeyMerge, 1);
                    t.atoms.remove(j);
                    t.preds.push(Pred::Eq(ai, aj).oriented());
                    if let Some(before) = before {
                        ctx.trace.record(Rule::KeyMerge, || StepData::TermRewrite {
                            before,
                            after: vec![t.clone()],
                            ambient: ambient.to_vec(),
                        });
                    }
                }
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Under a squash: congruent duplicate atoms collapse without any key
/// (axioms (3), (4): `‖x · x‖ = ‖x‖`).
fn squash_dedup_step(
    ctx: &mut Ctx,
    t: &mut Term,
    cc: &mut Congruence,
    ambient: &[Pred],
) -> Result<bool, Exhausted> {
    for i in 0..t.atoms.len() {
        for j in (i + 1)..t.atoms.len() {
            ctx.budget.tick()?;
            if t.atoms[i].rel != t.atoms[j].rel {
                continue;
            }
            let (ai, aj) = (t.atoms[i].arg.clone(), t.atoms[j].arg.clone());
            if cc.same(&ai, &aj) {
                ctx.recorder.count(Counter::RwSquashFlatten, 1);
                let before = if ctx.trace.is_enabled() {
                    Some(t.clone())
                } else {
                    None
                };
                t.atoms.remove(j);
                if let Some(before) = before {
                    // Valid only under a squash: record both sides wrapped.
                    let after = t.clone();
                    ctx.trace
                        .record(Rule::SquashFlatten, || StepData::TermRewrite {
                            before: Term::squash_of(Nf {
                                terms: vec![before],
                            }),
                            after: vec![Term::squash_of(Nf { terms: vec![after] })],
                            ambient: ambient.to_vec(),
                        });
                }
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Bound on foreign-key chase rounds per term (the chase may diverge on
/// cyclic FK graphs, Sec 5.1).
const FK_ROUNDS: u32 = 2;

/// Def 4.4: for an atom `S(e)` with a foreign key `S.k' → R.k`, materialize
/// `Σ_u R(u)·[u.k = e.k']` unless an `R`-atom with congruent key already
/// exists.
fn fk_chase_step(
    ctx: &mut Ctx,
    t: &mut Term,
    cc: &mut Congruence,
    ambient: &[Pred],
) -> Result<bool, Exhausted> {
    for i in 0..t.atoms.len() {
        ctx.budget.tick()?;
        let child = t.atoms[i].rel;
        let arg = t.atoms[i].arg.clone();
        let fks: Vec<(Vec<String>, crate::schema::RelId, Vec<String>)> = ctx
            .cs
            .fks_from(child)
            .map(|(ca, p, pa)| (ca.to_vec(), p, pa.to_vec()))
            .collect();
        for (child_attrs, parent, parent_attrs) in fks {
            let child_keys: Vec<Expr> = child_attrs
                .iter()
                .map(|a| Expr::attr(arg.clone(), a.clone()).simplify_head())
                .collect();
            let already = t.atoms.iter().any(|other| {
                other.rel == parent
                    && parent_attrs.iter().zip(&child_keys).all(|(pa, ck)| {
                        let pe = Expr::attr(other.arg.clone(), pa.clone()).simplify_head();
                        cc.same(&pe, ck)
                    })
            });
            if already {
                continue;
            }
            let schema = ctx.catalog.relation(parent).schema;
            let u = ctx.gen.fresh();
            ctx.recorder.count(Counter::RwFkExpand, 1);
            let before = if ctx.trace.is_enabled() {
                Some(t.clone())
            } else {
                None
            };
            t.vars.push((u, schema));
            t.atoms.push(crate::spnf::Atom::new(parent, Expr::Var(u)));
            for (pa, ck) in parent_attrs.iter().zip(&child_keys) {
                t.preds
                    .push(Pred::Eq(Expr::var_attr(u, pa), ck.clone()).oriented());
            }
            if let Some(before) = before {
                ctx.trace.record(Rule::FkExpand, || StepData::TermRewrite {
                    before,
                    after: vec![t.clone()],
                    ambient: ambient.to_vec(),
                });
            }
            return Ok(true);
        }
    }
    Ok(false)
}

/// Generalized Theorem 4.3 precondition: every summation variable is
/// *determined* from the term's free variables (via a congruent expression
/// over determined variables, or via a key lookup on one of its atoms) and
/// every atom ranges over a keyed relation. Such a term has value 0 or 1 in
/// every model satisfying the constraints, so `T = ‖T‖` by axiom (6).
pub fn is_squash_invariant(ctx: &mut Ctx, t: &Term, cc: &mut Congruence) -> bool {
    if !t.atoms.iter().all(|a| ctx.cs.has_key(a.rel)) {
        return false;
    }
    let bound: Vec<VarId> = t.vars.iter().map(|(v, _)| *v).collect();
    let mut determined: std::collections::BTreeSet<VarId> = std::collections::BTreeSet::new();
    // Everything not bound here counts as fixed (free output variables and
    // enclosing binders).
    let is_fixed = |w: VarId, det: &std::collections::BTreeSet<VarId>, bound: &[VarId]| {
        det.contains(&w) || !bound.contains(&w)
    };
    loop {
        let mut progressed = false;
        for &v in &bound {
            if determined.contains(&v) {
                continue;
            }
            let det = determined.clone();
            let bound_ref = &bound;
            let ok = move |w: VarId| is_fixed(w, &det, bound_ref);
            // (a) directly congruent to a determined expression
            if cc.has_rep_where(&Expr::Var(v), &ok) {
                determined.insert(v);
                progressed = true;
                continue;
            }
            // (b) key lookup: an atom R(v) with all key attributes determined
            let has_keyed_lookup = t.atoms.iter().any(|a| {
                if a.arg != Expr::Var(v) {
                    return false;
                }
                ctx.cs.keys_of(a.rel).any(|key| {
                    key.iter().all(|k| {
                        let det = determined.clone();
                        let ok = move |w: VarId| is_fixed(w, &det, bound_ref);
                        cc.has_rep_where(&Expr::var_attr(v, k), &ok)
                    })
                })
            });
            if has_keyed_lookup {
                determined.insert(v);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    bound.iter().all(|v| determined.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::constraints::ConstraintSet;
    use crate::schema::{Catalog, RelId, Schema, SchemaId, Ty};
    use crate::spnf::normalize;
    use crate::uexpr::UExpr;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Catalog with R(k:int, a:int), key k — the Fig 1 setting.
    fn fig1_setup() -> (Catalog, ConstraintSet, RelId, SchemaId) {
        let mut cat = Catalog::new();
        let sid = cat
            .add_schema(Schema::new(
                "sigma",
                vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        let r = cat.add_relation("R", sid).unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_key(r, vec!["k".into()]);
        (cat, cs, r, sid)
    }

    fn canon(cat: &Catalog, cs: &ConstraintSet, e: &UExpr) -> Nf {
        let nf = normalize(e);
        let mut ctx = Ctx::new(cat, cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(VarId(nf.max_var() + 1));
        canonize_nf(&mut ctx, nf, &[], false).unwrap()
    }

    /// Example 4.7 / Fig 1: the index-rewrite query canonizes down to
    /// `[t.a ≥ 12] × R(t)` (modulo Theorem 4.3 squash introduction).
    #[test]
    fn example_4_7_index_rewrite_canonizes() {
        let (cat, cs, r, sid) = fig1_setup();
        // Index schema I(k, a) — same attrs, closed.
        let t = v(0); // free output variable
        let (t1, t2, t3) = (v(1), v(2), v(3));
        let body = UExpr::product(vec![
            UExpr::eq(Expr::Var(t2), Expr::Var(t)),
            UExpr::eq(Expr::var_attr(t1, "k"), Expr::var_attr(t2, "k")),
            UExpr::Pred(Pred::lift("gte12", vec![Expr::var_attr(t1, "a")])),
            UExpr::eq(Expr::var_attr(t3, "k"), Expr::var_attr(t1, "k")),
            UExpr::eq(Expr::var_attr(t3, "a"), Expr::var_attr(t1, "a")),
            UExpr::rel(r, Expr::Var(t3)),
            UExpr::rel(r, Expr::Var(t2)),
        ]);
        let q2 = UExpr::sum_over(vec![(t1, sid), (t2, sid), (t3, sid)], body);
        let got = canon(&cat, &cs, &q2);

        // Expected: ‖[gte12(t.a)] × R(t)‖ (wrapped by Thm 4.3, R is keyed and
        // there are no remaining summation variables).
        assert_eq!(got.terms.len(), 1);
        let term = &got.terms[0];
        assert!(term.vars.is_empty(), "all summations eliminated: {term}");
        let inner = term
            .squash
            .as_ref()
            .expect("Thm 4.3 wraps the duplicate-free term");
        assert_eq!(inner.terms.len(), 1);
        let it = &inner.terms[0];
        assert_eq!(it.atoms.len(), 1, "single R atom expected: {it}");
        assert_eq!(it.atoms[0].arg, Expr::Var(t));
        assert_eq!(it.preds.len(), 1, "only the range predicate remains: {it}");
    }

    #[test]
    fn eq15_eliminates_directly_bound_var() {
        let (cat, _, r, sid) = fig1_setup();
        let cs = ConstraintSet::new();
        // Σ_{t1} [t1 = t0] × R(t1)  =  R(t0)
        let e = UExpr::sum(
            v(1),
            sid,
            UExpr::mul(
                UExpr::eq(Expr::Var(v(1)), Expr::Var(v(0))),
                UExpr::rel(r, Expr::Var(v(1))),
            ),
        );
        let got = canon(&cat, &cs, &e);
        assert_eq!(got.terms.len(), 1);
        assert!(got.terms[0].vars.is_empty());
        assert_eq!(got.terms[0].atoms[0].arg, Expr::Var(v(0)));
        assert!(got.terms[0].preds.is_empty());
    }

    #[test]
    fn key_merge_collapses_self_join() {
        let (cat, cs, r, sid) = fig1_setup();
        // Σ_{x,y} [x.k = y.k] × [t.a = x.a] × R(x) × R(y)
        let (t, x, y) = (v(0), v(1), v(2));
        let body = UExpr::product(vec![
            UExpr::eq(Expr::var_attr(x, "k"), Expr::var_attr(y, "k")),
            UExpr::eq(Expr::var_attr(t, "a"), Expr::var_attr(x, "a")),
            UExpr::rel(r, Expr::Var(x)),
            UExpr::rel(r, Expr::Var(y)),
        ]);
        let e = UExpr::sum_over(vec![(x, sid), (y, sid)], body);
        let got = canon(&cat, &cs, &e);
        assert_eq!(got.terms.len(), 1);
        let term = &got.terms[0];
        assert_eq!(term.atoms.len(), 1, "self-join collapsed: {term}");
        assert_eq!(term.vars.len(), 1, "one summation variable remains: {term}");
    }

    #[test]
    fn fk_chase_materializes_parent() {
        let mut cat = Catalog::new();
        let s_parent = cat
            .add_schema(Schema::new("p", vec![("id".into(), Ty::Int)], false))
            .unwrap();
        let s_child = cat
            .add_schema(Schema::new("c", vec![("fk".into(), Ty::Int)], false))
            .unwrap();
        let parent = cat.add_relation("P", s_parent).unwrap();
        let child = cat.add_relation("C", s_child).unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_foreign_key(child, vec!["fk".into()], parent, vec!["id".into()]);

        let e = UExpr::rel(child, Expr::Var(v(0)));
        let got = canon(&cat, &cs, &e);
        assert_eq!(got.terms.len(), 1);
        let term = &got.terms[0];
        assert!(
            term.squash.is_some() || term.atoms.len() == 2,
            "parent atom materialized (possibly under Thm 4.3 wrap): {term}"
        );
        // The parent is keyed (Thm 4.5); C itself has no key, so no squash
        // wrap. The fresh parent variable argues an atom, so it stays a
        // variable (atom-argument vars are never record-pinned) with the
        // binding predicate [u.id = c.fk].
        assert_eq!(term.atoms.len(), 2);
        assert_eq!(term.vars.len(), 1, "parent var kept: {term}");
        assert_eq!(term.preds.len(), 1);
    }

    #[test]
    fn fk_chase_does_not_duplicate_existing_parent() {
        let mut cat = Catalog::new();
        let sp = cat
            .add_schema(Schema::new("p", vec![("id".into(), Ty::Int)], false))
            .unwrap();
        let sc = cat
            .add_schema(Schema::new("c", vec![("fk".into(), Ty::Int)], false))
            .unwrap();
        let parent = cat.add_relation("P", sp).unwrap();
        let child = cat.add_relation("C", sc).unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_foreign_key(child, vec!["fk".into()], parent, vec!["id".into()]);

        // Σ_u C(c) × P(u) × [u.id = c.fk] — parent already present.
        let (c, u) = (v(0), v(1));
        let body = UExpr::product(vec![
            UExpr::rel(child, Expr::Var(c)),
            UExpr::rel(parent, Expr::Var(u)),
            UExpr::eq(Expr::var_attr(u, "id"), Expr::var_attr(c, "fk")),
        ]);
        let e = UExpr::sum(u, sp, body);
        let got = canon(&cat, &cs, &e);
        assert_eq!(got.terms[0].atoms.len(), 2, "no duplicate parent atom");
    }

    #[test]
    fn squash_invariance_detects_key_lookup() {
        let (cat, cs, r, sid) = fig1_setup();
        // Σ_x [x.k = t.k] × R(x): x determined via key lookup → invariant.
        let (t, x) = (v(0), v(1));
        let body = UExpr::product(vec![
            UExpr::eq(Expr::var_attr(x, "k"), Expr::var_attr(t, "k")),
            UExpr::rel(r, Expr::Var(x)),
        ]);
        let e = UExpr::sum(x, sid, body);
        let got = canon(&cat, &cs, &e);
        assert_eq!(got.terms.len(), 1);
        assert!(
            got.terms[0].squash.is_some(),
            "Thm 4.3 wrap expected: {}",
            got.terms[0]
        );
    }

    #[test]
    fn no_squash_invariance_without_key_binding() {
        let (cat, cs, r, sid) = fig1_setup();
        // Σ_x [x.a = t.a] × R(x): a is not a key → x undetermined → no wrap.
        let (t, x) = (v(0), v(1));
        let body = UExpr::product(vec![
            UExpr::eq(Expr::var_attr(x, "a"), Expr::var_attr(t, "a")),
            UExpr::rel(r, Expr::Var(x)),
        ]);
        let e = UExpr::sum(x, sid, body);
        let got = canon(&cat, &cs, &e);
        assert!(
            got.terms[0].squash.is_none(),
            "no wrap expected: {}",
            got.terms[0]
        );
        assert_eq!(got.terms[0].vars.len(), 1);
    }

    #[test]
    fn record_pinning_eliminates_projection_var() {
        let (cat, cs, r, sid) = fig1_setup();
        // Σ_{t1,t3} [t1.k = t3.k] × [t1.a = t3.a] × [t.k = t1.k] × R(t3):
        // t1's schema (k, a) is closed and fully pinned by t3 → eliminated.
        let (t, t1, t3) = (v(0), v(1), v(2));
        let body = UExpr::product(vec![
            UExpr::eq(Expr::var_attr(t1, "k"), Expr::var_attr(t3, "k")),
            UExpr::eq(Expr::var_attr(t1, "a"), Expr::var_attr(t3, "a")),
            UExpr::eq(Expr::var_attr(t, "k"), Expr::var_attr(t1, "k")),
            UExpr::rel(r, Expr::Var(t3)),
        ]);
        let e = UExpr::sum_over(vec![(t1, sid), (t3, sid)], body);
        let got = canon(&cat, &cs, &e);
        // After pinning t1 := ⟨k: t3.k, a: t3.a⟩ the wrap may also fire
        // (t3 determined via [t.k = t3.k] key lookup).
        let term = &got.terms[0];
        let inspect = term.squash.as_ref().map(|nf| &nf.terms[0]).unwrap_or(term);
        assert!(
            inspect.vars.len() <= 1,
            "t1 eliminated by record pinning: {term}"
        );
    }

    #[test]
    fn canonize_respects_budget() {
        let (cat, cs, r, sid) = fig1_setup();
        let body = UExpr::product(vec![
            UExpr::eq(Expr::var_attr(v(1), "k"), Expr::var_attr(v(0), "k")),
            UExpr::rel(r, Expr::Var(v(1))),
        ]);
        let e = UExpr::sum(v(1), sid, body);
        let nf = normalize(&e);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2));
        ctx.gen.reserve(VarId(nf.max_var() + 1));
        assert_eq!(canonize_nf(&mut ctx, nf, &[], false), Err(Exhausted::Steps));
    }

    #[test]
    fn ablation_disables_constraints() {
        let (cat, cs, r, sid) = fig1_setup();
        let (t, x, y) = (v(0), v(1), v(2));
        let body = UExpr::product(vec![
            UExpr::eq(Expr::var_attr(x, "k"), Expr::var_attr(y, "k")),
            UExpr::eq(Expr::var_attr(t, "a"), Expr::var_attr(x, "a")),
            UExpr::rel(r, Expr::Var(x)),
            UExpr::rel(r, Expr::Var(y)),
        ]);
        let e = UExpr::sum_over(vec![(x, sid), (y, sid)], body);
        let nf = normalize(&e);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.opts.use_constraints = false;
        ctx.gen.reserve(VarId(nf.max_var() + 1));
        let got = canonize_nf(&mut ctx, nf, &[], false).unwrap();
        assert_eq!(
            got.terms[0].atoms.len(),
            2,
            "no key merge when constraints disabled"
        );
    }
}
