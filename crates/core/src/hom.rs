//! Homomorphism and isomorphism search between SPNF terms.
//!
//! * **Isomorphism** (TDP, Alg 3): a bijection between the summation
//!   variables of two terms under which the predicate sets are mutually
//!   implied (congruence closure, Sec 5.2), the relation-atom multisets
//!   coincide, and the squash / negation factors are recursively equivalent.
//!   Instead of enumerating all bijections `BI(t̄₂, t̄₁)` as written in the
//!   paper, the search is guided by relation-atom matching with
//!   backtracking — equivalent but exponentially cheaper in practice.
//! * **Homomorphism** (SDP containment, Sec 5.2): a mapping from the pattern
//!   term's variables to expressions over the target term such that every
//!   mapped atom exists in the target (modulo congruence) and every mapped
//!   predicate is implied — the classical CQ-containment test \[47\].

use crate::budget::Exhausted;
use crate::colour::{colour_terms, Colouring};
use crate::congruence::Congruence;
use crate::ctx::Ctx;
use crate::equiv::{sdp_equiv, udp_equiv};
use crate::expr::{Expr, Pred, VarId};
use crate::schema::SchemaId;
use crate::spnf::Term;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use udp_obs::Counter;

/// Search mode: exact isomorphism (bag semantics) or homomorphism
/// (set-semantics containment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMode {
    /// Exact isomorphism (bag semantics, Alg 3).
    Iso,
    /// Homomorphism (set-semantics containment, Sec 5.2).
    Hom,
}

/// Where an isomorphism search gets the colour refinements it prunes with
/// (see [`crate::colour`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Colours<'c> {
    /// Refine the pattern and target here.
    Refine,
    /// The caller's colourings of pattern and target, from one palette.
    Given(&'c Colouring, &'c Colouring),
    /// Search unpruned.
    Off,
}

/// Try to find a variable mapping from `pattern` into `target`. Returns the
/// mapping on success.
///
/// The decision procedures maintain globally fresh binders, but direct
/// callers may not: if the two terms' binder sets collide, the pattern is
/// alpha-renamed first and the returned mapping is expressed over the
/// original pattern variables.
pub fn match_terms(
    ctx: &mut Ctx,
    pattern: &Term,
    target: &Term,
    mode: MatchMode,
    ambient: &[Pred],
) -> Result<Option<BTreeMap<VarId, Expr>>, Exhausted> {
    match_terms_with(ctx, pattern, target, mode, ambient, Colours::Refine)
}

/// [`match_terms`] with the colour refinements chosen by the caller.
pub(crate) fn match_terms_with(
    ctx: &mut Ctx,
    pattern: &Term,
    target: &Term,
    mode: MatchMode,
    ambient: &[Pred],
    colours: Colours<'_>,
) -> Result<Option<BTreeMap<VarId, Expr>>, Exhausted> {
    let collide = pattern
        .vars
        .iter()
        .any(|(v, _)| target.vars.iter().any(|(w, _)| w == v));
    if collide {
        // `freshen` renames the outer binders in positional order, so the
        // correspondence back to the original variables is by index.
        // Colourings are positional, so they carry over to `fresh`.
        let fresh = pattern.freshen(&mut ctx.gen);
        let result = match_terms_impl(ctx, &fresh, target, mode, ambient, colours)?;
        return Ok(result.map(|m| {
            m.into_iter()
                .map(|(v, e)| {
                    let orig = fresh
                        .vars
                        .iter()
                        .position(|(fv, _)| *fv == v)
                        .map(|i| pattern.vars[i].0)
                        .unwrap_or(v);
                    (orig, e)
                })
                .collect()
        }));
    }
    match_terms_impl(ctx, pattern, target, mode, ambient, colours)
}

fn match_terms_impl(
    ctx: &mut Ctx,
    pattern: &Term,
    target: &Term,
    mode: MatchMode,
    ambient: &[Pred],
    colours: Colours<'_>,
) -> Result<Option<BTreeMap<VarId, Expr>>, Exhausted> {
    // Quick structural pruning.
    if mode == MatchMode::Iso {
        if pattern.vars.len() != target.vars.len() || pattern.atoms.len() != target.atoms.len() {
            return Ok(None);
        }
        let mut ps: Vec<SchemaId> = pattern.vars.iter().map(|(_, s)| *s).collect();
        let mut ts: Vec<SchemaId> = target.vars.iter().map(|(_, s)| *s).collect();
        ps.sort();
        ts.sort();
        if ps != ts {
            return Ok(None);
        }
        let mut pr: Vec<_> = pattern.atoms.iter().map(|a| a.rel).collect();
        let mut tr: Vec<_> = target.atoms.iter().map(|a| a.rel).collect();
        pr.sort();
        tr.sort();
        if pr != tr {
            return Ok(None);
        }
    }
    if pattern.squash.is_some() != target.squash.is_some()
        || pattern.negation.is_some() != target.negation.is_some()
    {
        return Ok(None);
    }

    // Isomorphisms only: a homomorphism may map a variable onto any
    // variable it is implied by, whatever its colour.
    let refined;
    let colours = match colours {
        Colours::Given(p, t) if mode == MatchMode::Iso => Some((p, t)),
        Colours::Refine if mode == MatchMode::Iso => {
            refined = colour_terms(ctx, &[pattern, target], ambient)?;
            match &refined[..] {
                [Some(p), Some(t)] => Some((p, t)),
                _ => None,
            }
        }
        _ => None,
    };
    let mut colour_of = HashMap::new();
    if let Some((p, t)) = colours {
        if p.signature() != t.signature() {
            return Ok(None);
        }
        for (term, c) in [(pattern, p), (target, t)] {
            for (i, (v, _)) in term.vars.iter().enumerate() {
                colour_of.insert(*v, c.colour(i));
            }
        }
    }

    let mut cc_target = Congruence::with_recorder(ctx.recorder.clone());
    cc_target.assert_preds(ambient.iter());
    cc_target.assert_preds(target.preds.iter());

    let mut m = Matcher {
        pattern,
        target,
        mode,
        ambient,
        cc_target,
        colour_of,
        pattern_bound: pattern.vars.iter().map(|(v, s)| (*v, *s)).collect(),
        target_bound: target.vars.iter().map(|(v, s)| (*v, *s)).collect(),
        mapping: BTreeMap::new(),
        used_target_vars: BTreeSet::new(),
    };
    let mut used_atoms = vec![false; target.atoms.len()];
    if m.match_atoms(ctx, 0, &mut used_atoms)? {
        Ok(Some(m.mapping))
    } else {
        Ok(None)
    }
}

struct Matcher<'a> {
    pattern: &'a Term,
    target: &'a Term,
    mode: MatchMode,
    ambient: &'a [Pred],
    cc_target: Congruence,
    /// Refined colours of both terms' binders (pattern and target binders
    /// are distinct); empty when the search is unpruned.
    colour_of: HashMap<VarId, u64>,
    pattern_bound: BTreeMap<VarId, SchemaId>,
    target_bound: BTreeMap<VarId, SchemaId>,
    mapping: BTreeMap<VarId, Expr>,
    used_target_vars: BTreeSet<VarId>,
}

impl<'a> Matcher<'a> {
    fn match_atoms(
        &mut self,
        ctx: &mut Ctx,
        i: usize,
        used: &mut [bool],
    ) -> Result<bool, Exhausted> {
        if i == self.pattern.atoms.len() {
            return self.match_leftover_vars(ctx);
        }
        let pat_atom = &self.pattern.atoms[i];
        for j in 0..self.target.atoms.len() {
            ctx.budget.tick()?;
            if self.target.atoms[j].rel != pat_atom.rel {
                continue;
            }
            if self.mode == MatchMode::Iso && used[j] {
                continue;
            }
            let snapshot_map = self.mapping.clone();
            let snapshot_used = self.used_target_vars.clone();
            let target_arg = self.target.atoms[j].arg.clone();
            if self.unify(ctx, &pat_atom.arg.clone(), &target_arg)? {
                used[j] = true;
                if self.match_atoms(ctx, i + 1, used)? {
                    return Ok(true);
                }
                used[j] = false;
            }
            self.mapping = snapshot_map;
            self.used_target_vars = snapshot_used;
        }
        Ok(false)
    }

    /// Map pattern variables that occur in no atom (only in predicates or
    /// nested factors): candidates are target variables of the same schema.
    fn match_leftover_vars(&mut self, ctx: &mut Ctx) -> Result<bool, Exhausted> {
        let leftover: Vec<(VarId, SchemaId)> = self
            .pattern_bound
            .iter()
            .filter(|(v, _)| !self.mapping.contains_key(v))
            .map(|(v, s)| (*v, *s))
            .collect();
        self.assign_leftover(ctx, &leftover, 0)
    }

    fn assign_leftover(
        &mut self,
        ctx: &mut Ctx,
        leftover: &[(VarId, SchemaId)],
        i: usize,
    ) -> Result<bool, Exhausted> {
        if i == leftover.len() {
            return self.verify(ctx);
        }
        let (v, schema) = leftover[i];
        let mut candidates: Vec<VarId> = self
            .target_bound
            .iter()
            .filter(|(w, s)| {
                **s == schema
                    && !(self.mode == MatchMode::Iso && self.used_target_vars.contains(w))
                    && self.colours_agree(v, **w)
            })
            .map(|(w, _)| *w)
            .collect();
        // A homomorphism may also map a bound pattern variable to a *free*
        // variable of the shared scope (typically the output tuple) — the
        // isomorphisms of Alg 3 may not (they are bijections between the
        // summation variables). Soundness requires the free variable to
        // range over the pattern variable's schema; evidence comes from
        // either the declared scope (`ctx.free_schemas`, maintained by
        // `decide` and the nested-factor descents) or a target atom `R(w)`
        // with `schema(R) = σᵥ`.
        if self.mode == MatchMode::Hom {
            for (w, s) in &ctx.free_schemas {
                if *s == schema && !self.target_bound.contains_key(w) && !candidates.contains(w) {
                    candidates.push(*w);
                }
            }
            for atom in &self.target.atoms {
                if let Expr::Var(w) = &atom.arg {
                    if !self.target_bound.contains_key(w)
                        && ctx.catalog.relation(atom.rel).schema == schema
                        && !candidates.contains(w)
                    {
                        candidates.push(*w);
                    }
                }
            }
        }
        for w in candidates {
            ctx.budget.tick()?;
            self.mapping.insert(v, Expr::Var(w));
            self.used_target_vars.insert(w);
            if self.assign_leftover(ctx, leftover, i + 1)? {
                return Ok(true);
            }
            self.mapping.remove(&v);
            self.used_target_vars.remove(&w);
        }
        Ok(false)
    }

    /// Syntactic/semantic unification of a pattern expression against a
    /// target expression under the current partial mapping.
    fn unify(&mut self, ctx: &mut Ctx, p: &Expr, t: &Expr) -> Result<bool, Exhausted> {
        ctx.budget.tick()?;
        // Fully instantiated pattern: decide by congruence.
        let p_inst = p.subst_map(&|v| self.mapping.get(&v).cloned());
        let unbound: Vec<VarId> = p_inst
            .free_vars()
            .into_iter()
            .filter(|v| self.pattern_bound.contains_key(v) && !self.mapping.contains_key(v))
            .collect();
        if unbound.is_empty() {
            return Ok(self.exprs_equal(ctx, &p_inst, t));
        }
        match (&p_inst, t) {
            (Expr::Var(v), _) if unbound.contains(v) => match self.mode {
                MatchMode::Hom => {
                    self.mapping.insert(*v, t.clone());
                    Ok(true)
                }
                MatchMode::Iso => {
                    if let Expr::Var(w) = t {
                        let schema_ok = match (self.pattern_bound.get(v), self.target_bound.get(w))
                        {
                            (Some(a), Some(b)) => a == b,
                            _ => false,
                        };
                        if schema_ok
                            && !self.used_target_vars.contains(w)
                            && self.colours_agree(*v, *w)
                        {
                            self.mapping.insert(*v, Expr::Var(*w));
                            self.used_target_vars.insert(*w);
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
            },
            (Expr::Attr(pb, pa), Expr::Attr(tb, ta)) if pa == ta => self.unify(ctx, pb, tb),
            (Expr::App(pf, pargs), Expr::App(tf, targs))
                if pf == tf && pargs.len() == targs.len() =>
            {
                for (a, b) in pargs.clone().iter().zip(targs.clone().iter()) {
                    if !self.unify(ctx, a, b)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (Expr::Record(pf), Expr::Record(tf))
                if pf.len() == tf.len()
                    && pf.iter().map(|(n, _)| n).eq(tf.iter().map(|(n, _)| n)) =>
            {
                for ((_, a), (_, b)) in pf.clone().iter().zip(tf.clone().iter()) {
                    if !self.unify(ctx, a, b)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (Expr::Concat(pl, ps, pr), Expr::Concat(tl, ts, tr)) if ps == ts => {
                Ok(self.unify(ctx, &pl.clone(), &tl.clone())?
                    && self.unify(ctx, &pr.clone(), &tr.clone())?)
            }
            // Structured pattern vs differently-shaped target: enumerate
            // bindings for one unbound variable and retry (e.g. pattern
            // `⟨b = t12.b2⟩` against target `⟨b = t2.b⟩` needs `t12 ↦ w` with
            // `w.b2 ≈ t2.b` in the target's congruence).
            _ => {
                let v = unbound[0];
                let v_schema = self.pattern_bound.get(&v).copied();
                let candidates: Vec<VarId> = self
                    .target_bound
                    .iter()
                    .filter(|(w, s)| {
                        Some(**s) == v_schema
                            && !(self.mode == MatchMode::Iso && self.used_target_vars.contains(w))
                            && self.colours_agree(v, **w)
                    })
                    .map(|(w, _)| *w)
                    .collect();
                for w in candidates {
                    ctx.budget.tick()?;
                    self.mapping.insert(v, Expr::Var(w));
                    self.used_target_vars.insert(w);
                    if self.unify(ctx, &p_inst, t)? {
                        return Ok(true);
                    }
                    self.mapping.remove(&v);
                    self.used_target_vars.remove(&w);
                }
                Ok(false)
            }
        }
    }

    /// May pattern variable `v` map to target variable `w`? Not when their
    /// refined colours differ: no isomorphism pairs them.
    fn colours_agree(&self, v: VarId, w: VarId) -> bool {
        self.colour_of.get(&v) == self.colour_of.get(&w)
    }

    fn exprs_equal(&mut self, ctx: &Ctx, a: &Expr, b: &Expr) -> bool {
        if a == b {
            return true;
        }
        if ctx.opts.congruence {
            self.cc_target.same(a, b)
        } else {
            false
        }
    }

    /// Final verification once all atoms and variables are mapped.
    fn verify(&mut self, ctx: &mut Ctx) -> Result<bool, Exhausted> {
        ctx.budget.tick()?;
        if self.mode == MatchMode::Hom {
            ctx.recorder.count(Counter::HomCandidates, 1);
        } else {
            ctx.recorder.count(Counter::IsoCandidates, 1);
            // Complete bijection required.
            if self.mapping.len() != self.pattern.vars.len()
                || self.used_target_vars.len() != self.target.vars.len()
            {
                return Ok(false);
            }
        }
        let mapping = self.mapping.clone();
        let lookup = move |v: VarId| mapping.get(&v).cloned();

        let mapped_preds: Vec<Pred> = self
            .pattern
            .preds
            .iter()
            .map(|p| p.subst_map(&lookup))
            .collect();

        // Uninterpreted aggregates are compared *semantically*: congruent
        // bodies (recursive UDP under the ambient context) collapse to the
        // same token before congruence closure runs (Sec 5.2's "aggregate
        // functions are treated as uninterpreted functions", strengthened to
        // equate provably equivalent argument queries).
        let mut agg_list: Vec<Expr> = Vec::new();
        for p in mapped_preds
            .iter()
            .chain(self.target.preds.iter())
            .chain(self.ambient.iter())
        {
            collect_aggs_pred(p, &mut agg_list);
        }
        let agg_free_preds = agg_list.is_empty();
        let (mapped_preds, target_preds, ambient_preds) = if agg_free_preds {
            (
                mapped_preds,
                self.target.preds.clone(),
                self.ambient.to_vec(),
            )
        } else {
            // Aggregate-body equivalence may depend on the equalities that
            // hold in this term (e.g. a group-key filter): extend the ambient
            // context with the target's own predicates. Predicates that
            // themselves mention aggregates are dropped — they cannot help
            // compare aggregate *bodies* and would make the recursion (and
            // the memo keys) grow without bound.
            let agg_free = |p: &Pred| {
                let mut tmp = Vec::new();
                collect_aggs_pred(p, &mut tmp);
                tmp.is_empty()
            };
            let mut agg_ambient: Vec<Pred> = self
                .ambient
                .iter()
                .filter(|p| agg_free(p))
                .cloned()
                .collect();
            agg_ambient.extend(self.target.preds.iter().filter(|p| agg_free(p)).cloned());
            let classes = agg_classes(ctx, agg_list, &agg_ambient)?;
            (
                mapped_preds
                    .iter()
                    .map(|p| replace_aggs_pred(p, &classes))
                    .collect(),
                self.target
                    .preds
                    .iter()
                    .map(|p| replace_aggs_pred(p, &classes))
                    .collect(),
                self.ambient
                    .iter()
                    .map(|p| replace_aggs_pred(p, &classes))
                    .collect(),
            )
        };

        // Forward: every mapped pattern predicate is implied by the target's
        // closure. Without aggregates to replace, that closure is
        // `cc_target`'s.
        let mut rebuilt;
        let cc_fwd = if agg_free_preds {
            &mut self.cc_target
        } else {
            rebuilt = Congruence::with_recorder(ctx.recorder.clone());
            rebuilt.assert_preds(ambient_preds.iter());
            rebuilt.assert_preds(target_preds.iter());
            &mut rebuilt
        };
        let target_pool: Vec<Pred> = target_preds
            .iter()
            .chain(ambient_preds.iter())
            .cloned()
            .collect();
        for p in &mapped_preds {
            if !entails_pred(ctx, cc_fwd, &target_pool, p) {
                return Ok(false);
            }
        }
        // Backward (Iso only): every target predicate is implied by the
        // closure of the mapped pattern predicates.
        if self.mode == MatchMode::Iso {
            let mut cc_back = Congruence::with_recorder(ctx.recorder.clone());
            cc_back.assert_preds(ambient_preds.iter());
            cc_back.assert_preds(mapped_preds.iter());
            let back_pool: Vec<Pred> = mapped_preds
                .iter()
                .chain(ambient_preds.iter())
                .cloned()
                .collect();
            for p in &target_preds {
                if !entails_pred(ctx, &mut cc_back, &back_pool, p) {
                    return Ok(false);
                }
            }
        }

        // Nested factors: recursive equivalence under the combined context.
        // The enclosing term's binders are free inside the nested factors, so
        // their schemas join the declared scope for the recursion.
        let mut inner_ambient: Vec<Pred> = self.ambient.to_vec();
        inner_ambient.extend(self.target.preds.iter().cloned());
        let added: Vec<VarId> = self
            .target
            .vars
            .iter()
            .filter(|(v, _)| !ctx.free_schemas.contains_key(v))
            .map(|(v, _)| *v)
            .collect();
        for (v, s) in &self.target.vars {
            ctx.free_schemas.entry(*v).or_insert(*s);
        }
        let nested = self.verify_nested(ctx, &lookup, &inner_ambient);
        for v in added {
            ctx.free_schemas.remove(&v);
        }
        nested
    }

    fn verify_nested(
        &mut self,
        ctx: &mut Ctx,
        lookup: &dyn Fn(VarId) -> Option<Expr>,
        inner_ambient: &[Pred],
    ) -> Result<bool, Exhausted> {
        match (&self.pattern.squash, &self.target.squash) {
            (None, None) => {}
            (Some(p_nf), Some(t_nf)) => {
                let mapped = p_nf.subst_map(lookup);
                if !sdp_equiv(ctx, &mapped, t_nf, inner_ambient)? {
                    return Ok(false);
                }
            }
            _ => return Ok(false),
        }
        match (&self.pattern.negation, &self.target.negation) {
            (None, None) => {}
            (Some(p_nf), Some(t_nf)) => {
                let mapped = p_nf.subst_map(lookup);
                if !udp_equiv(ctx, &mapped, t_nf, inner_ambient)? {
                    return Ok(false);
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Collect aggregate subexpressions (outermost occurrences) of an expression.
fn collect_aggs_expr(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Agg(..) => out.push(e.clone()),
        Expr::Attr(b, _) => collect_aggs_expr(b, out),
        Expr::App(_, args) => args.iter().for_each(|a| collect_aggs_expr(a, out)),
        Expr::Record(fs) => fs.iter().for_each(|(_, a)| collect_aggs_expr(a, out)),
        Expr::Concat(l, _, r) => {
            collect_aggs_expr(l, out);
            collect_aggs_expr(r, out);
        }
        Expr::Var(_) | Expr::Const(_) => {}
    }
}

fn collect_aggs_pred(p: &Pred, out: &mut Vec<Expr>) {
    match p {
        Pred::Eq(a, b) | Pred::Ne(a, b) => {
            collect_aggs_expr(a, out);
            collect_aggs_expr(b, out);
        }
        Pred::Lift { args, .. } => args.iter().for_each(|a| collect_aggs_expr(a, out)),
    }
}

/// Partition a list of aggregate expressions into semantic equivalence
/// classes (same aggregate name, UDP-equivalent bodies under `ambient`).
fn agg_classes(
    ctx: &mut Ctx,
    aggs: Vec<Expr>,
    ambient: &[Pred],
) -> Result<Vec<(Expr, usize)>, Exhausted> {
    let mut reps: Vec<Expr> = Vec::new();
    let mut out: Vec<(Expr, usize)> = Vec::new();
    for a in aggs {
        if out.iter().any(|(e, _)| *e == a) {
            continue;
        }
        let mut cls = None;
        for (i, r) in reps.iter().enumerate() {
            ctx.budget.tick()?;
            if aggs_equiv(ctx, &a, r, ambient)? {
                cls = Some(i);
                break;
            }
        }
        let cls = match cls {
            Some(c) => c,
            None => {
                reps.push(a.clone());
                reps.len() - 1
            }
        };
        out.push((a, cls));
    }
    Ok(out)
}

/// Are two aggregate expressions provably equal? Same aggregate symbol and
/// UDP-equivalent argument queries (the bodies use the convention
/// `agg(Σ_z body(z))`, the `Σ` marking the argument's output tuple).
pub fn aggs_equiv(ctx: &mut Ctx, a: &Expr, b: &Expr, ambient: &[Pred]) -> Result<bool, Exhausted> {
    let (Expr::Agg(n1, b1), Expr::Agg(n2, b2)) = (a, b) else {
        return Ok(false);
    };
    if n1 != n2 {
        return Ok(false);
    }
    let (a1, a2) = (b1.alpha(), b2.alpha());
    if a1 == a2 {
        return Ok(true);
    }
    // Semantic comparison is a recursive UDP call; memoize it (keyed on the
    // alpha-normal bodies and the ambient context).
    let key = (n1.clone(), a1.clone(), a2.clone(), ambient.to_vec());
    if let Some(&cached) = ctx.agg_cache.get(&key) {
        return Ok(cached);
    }
    let result = match (&**b1, &**b2) {
        (crate::uexpr::UExpr::Sum(z1, s1, e1), crate::uexpr::UExpr::Sum(z2, s2, e2)) => {
            // Attribute *names* must agree; types are advisory (aggregate
            // outputs are often `Unknown`).
            let names1: Vec<&str> = ctx
                .catalog
                .schema(*s1)
                .attrs
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            let names2: Vec<&str> = ctx
                .catalog
                .schema(*s2)
                .attrs
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            if names1 != names2 {
                return Ok(false);
            }
            let e2 = e2.subst(*z2, &Expr::Var(*z1));
            let n1 = crate::spnf::normalize_with(e1, &mut ctx.gen);
            let n2 = crate::spnf::normalize_with(&e2, &mut ctx.gen);
            crate::equiv::udp_equiv(ctx, &n1, &n2, ambient)
        }
        _ => Ok(false),
    };
    if let Ok(v) = result {
        ctx.agg_cache.insert(key, v);
    }
    result
}

/// Replace classified aggregate occurrences by opaque class tokens.
fn replace_aggs_expr(e: &Expr, classes: &[(Expr, usize)]) -> Expr {
    if matches!(e, Expr::Agg(..)) {
        if let Some((_, c)) = classes.iter().find(|(a, _)| a == e) {
            return Expr::App(format!("agg·{c}"), vec![]);
        }
    }
    match e {
        Expr::Attr(b, a) => Expr::Attr(Box::new(replace_aggs_expr(b, classes)), a.clone()),
        Expr::App(f, args) => Expr::App(
            f.clone(),
            args.iter().map(|x| replace_aggs_expr(x, classes)).collect(),
        ),
        Expr::Record(fs) => Expr::Record(
            fs.iter()
                .map(|(n, x)| (n.clone(), replace_aggs_expr(x, classes)))
                .collect(),
        ),
        Expr::Concat(l, s, r) => Expr::Concat(
            Box::new(replace_aggs_expr(l, classes)),
            *s,
            Box::new(replace_aggs_expr(r, classes)),
        ),
        other => other.clone(),
    }
}

fn replace_aggs_pred(p: &Pred, classes: &[(Expr, usize)]) -> Pred {
    p.map_exprs(&|e| replace_aggs_expr(e, classes))
}

/// Is predicate `p` implied by the pool's congruence closure?
pub fn entails_pred(ctx: &Ctx, cc: &mut Congruence, pool: &[Pred], p: &Pred) -> bool {
    match p {
        Pred::Eq(a, b) => {
            if a == b {
                return true;
            }
            if ctx.opts.congruence {
                cc.same(a, b)
            } else {
                pool.iter()
                    .any(|q| q.clone().oriented() == p.clone().oriented())
            }
        }
        Pred::Ne(a, b) => {
            // Distinct constants are provably unequal in the standard model.
            if let (Expr::Const(x), Expr::Const(y)) = (a, b) {
                if x != y {
                    return true;
                }
            }
            pool.iter().any(|q| match q {
                Pred::Ne(x, y) => {
                    if ctx.opts.congruence {
                        (cc.same(a, x) && cc.same(b, y)) || (cc.same(a, y) && cc.same(b, x))
                    } else {
                        (a == x && b == y) || (a == y && b == x)
                    }
                }
                _ => false,
            })
        }
        Pred::Lift {
            name,
            args,
            negated,
        } => pool.iter().any(|q| match q {
            Pred::Lift {
                name: n2,
                args: a2,
                negated: neg2,
            } => {
                name == n2
                    && negated == neg2
                    && args.len() == a2.len()
                    && args.iter().zip(a2).all(|(x, y)| {
                        if ctx.opts.congruence {
                            cc.same(x, y)
                        } else {
                            x == y
                        }
                    })
            }
            _ => false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::constraints::ConstraintSet;
    use crate::schema::{Catalog, RelId, Schema, Ty};
    use crate::spnf::Atom;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn setup() -> (Catalog, ConstraintSet) {
        let mut cat = Catalog::new();
        let s = cat
            .add_schema(Schema::new(
                "s",
                vec![("a".into(), Ty::Int), ("k".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        cat.add_relation("R", s).unwrap();
        cat.add_relation("S", s).unwrap();
        (cat, ConstraintSet::new())
    }

    fn term(vars: &[u32], preds: Vec<Pred>, atoms: Vec<(u32, u32)>) -> Term {
        Term {
            vars: vars.iter().map(|&i| (v(i), SchemaId(0))).collect(),
            preds,
            squash: None,
            negation: None,
            atoms: atoms
                .iter()
                .map(|&(r, x)| Atom::new(RelId(r), Expr::Var(v(x))))
                .collect(),
        }
    }

    /// A bound pattern variable occurring only in predicates may map onto a
    /// declared free variable of the same schema (the scope knows `t0:σ0`),
    /// making `[t0.k = t0.k]` trivially entailed.
    #[test]
    fn hom_maps_leftover_variable_to_declared_free_var() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(v(64));
        ctx.declare_free(v(0), SchemaId(0));
        // pattern: Σ_{t1,t2} [t1.k = t0.k] × R(t2); target: Σ_{t9} R(t9).
        let pattern = term(
            &[1, 2],
            vec![Pred::eq(
                Expr::var_attr(v(1), "k"),
                Expr::var_attr(v(0), "k"),
            )],
            vec![(0, 2)],
        );
        let target = term(&[9], vec![], vec![(0, 9)]);
        let found = match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[])
            .unwrap()
            .expect("hom via t1 ↦ t0");
        assert_eq!(found.get(&v(1)), Some(&Expr::Var(v(0))));
        // Isomorphisms are bijections between bound variables only: the same
        // pair must NOT match in Iso mode (and differs in arity anyway).
        assert!(
            match_terms(&mut ctx, &pattern, &target, MatchMode::Iso, &[])
                .unwrap()
                .is_none()
        );
    }

    /// Direct API calls may violate the globally-fresh-binder invariant;
    /// `match_terms` must alpha-rename internally and still answer over the
    /// caller's variable names.
    #[test]
    fn colliding_binders_are_freshened() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(v(64));
        // Both terms bind VarId(1).
        let pattern = term(
            &[1],
            vec![Pred::eq(Expr::var_attr(v(1), "a"), Expr::int(1))],
            vec![(0, 1)],
        );
        let target = term(
            &[1],
            vec![Pred::eq(Expr::var_attr(v(1), "a"), Expr::int(1))],
            vec![(0, 1)],
        );
        let found = match_terms(&mut ctx, &pattern, &target, MatchMode::Iso, &[])
            .unwrap()
            .expect("identical terms are isomorphic despite shared binder ids");
        // The mapping is expressed over the caller's (original) pattern vars.
        assert_eq!(found.get(&v(1)), Some(&Expr::Var(v(1))));
    }

    /// The free-variable extension must respect schemas: a declared free
    /// variable of a different schema is not a candidate.
    #[test]
    fn hom_respects_free_var_schema() {
        let (mut cat, cs) = setup();
        let other = cat
            .add_schema(Schema::new("o", vec![("z".into(), Ty::Int)], false))
            .unwrap();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(v(64));
        // t0 is declared with the WRONG schema for the leftover variable.
        ctx.declare_free(v(0), other);
        let pattern = term(
            &[1, 2],
            vec![Pred::eq(
                Expr::var_attr(v(1), "k"),
                Expr::var_attr(v(0), "k"),
            )],
            vec![(0, 2)],
        );
        let target = term(&[9], vec![], vec![(0, 9)]);
        assert!(
            match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[])
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn iso_finds_variable_renaming() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t1 = term(
            &[1, 2],
            vec![Pred::eq(
                Expr::var_attr(v(1), "a"),
                Expr::var_attr(v(2), "a"),
            )],
            vec![(0, 1), (1, 2)],
        );
        let t2 = term(
            &[5, 6],
            vec![Pred::eq(
                Expr::var_attr(v(6), "a"),
                Expr::var_attr(v(5), "a"),
            )],
            vec![(0, 5), (1, 6)],
        );
        let m = match_terms(&mut ctx, &t2, &t1, MatchMode::Iso, &[]).unwrap();
        let m = m.expect("isomorphic");
        assert_eq!(m[&v(5)], Expr::Var(v(1)));
        assert_eq!(m[&v(6)], Expr::Var(v(2)));
    }

    #[test]
    fn iso_rejects_different_relations() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t1 = term(&[1], vec![], vec![(0, 1)]);
        let t2 = term(&[2], vec![], vec![(1, 2)]);
        assert!(match_terms(&mut ctx, &t2, &t1, MatchMode::Iso, &[])
            .unwrap()
            .is_none());
    }

    #[test]
    fn iso_rejects_missing_predicate() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t1 = term(
            &[1],
            vec![Pred::lift("p", vec![Expr::var_attr(v(1), "a")])],
            vec![(0, 1)],
        );
        let t2 = term(&[2], vec![], vec![(0, 2)]);
        // pattern t1 has a pred the target lacks (backward check kills it too)
        assert!(match_terms(&mut ctx, &t1, &t2, MatchMode::Iso, &[])
            .unwrap()
            .is_none());
        assert!(match_terms(&mut ctx, &t2, &t1, MatchMode::Iso, &[])
            .unwrap()
            .is_none());
    }

    #[test]
    fn iso_uses_congruence_for_predicates() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        // {x.a = y.a, y.a = 1} vs {x.a = 1, y.a = 1}: equivalent closures.
        let t1 = term(
            &[1, 2],
            vec![
                Pred::eq(Expr::var_attr(v(1), "a"), Expr::var_attr(v(2), "a")),
                Pred::eq(Expr::var_attr(v(2), "a"), Expr::int(1)),
            ],
            vec![(0, 1), (0, 2)],
        );
        let t2 = term(
            &[3, 4],
            vec![
                Pred::eq(Expr::var_attr(v(3), "a"), Expr::int(1)),
                Pred::eq(Expr::var_attr(v(4), "a"), Expr::int(1)),
            ],
            vec![(0, 3), (0, 4)],
        );
        assert!(match_terms(&mut ctx, &t2, &t1, MatchMode::Iso, &[])
            .unwrap()
            .is_some());
    }

    #[test]
    fn hom_maps_onto_smaller_term() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        // pattern: R(x), R(y) → target: R(z) — both x,y ↦ z (hom only).
        let pat = term(&[1, 2], vec![], vec![(0, 1), (0, 2)]);
        let tgt = term(&[3], vec![], vec![(0, 3)]);
        assert!(match_terms(&mut ctx, &pat, &tgt, MatchMode::Hom, &[])
            .unwrap()
            .is_some());
        assert!(match_terms(&mut ctx, &pat, &tgt, MatchMode::Iso, &[])
            .unwrap()
            .is_none());
    }

    #[test]
    fn hom_respects_predicates() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        // pattern: R(x) with p(x.a); target: R(z) without p — no hom.
        let pat = term(
            &[1],
            vec![Pred::lift("p", vec![Expr::var_attr(v(1), "a")])],
            vec![(0, 1)],
        );
        let tgt = term(&[3], vec![], vec![(0, 3)]);
        assert!(match_terms(&mut ctx, &pat, &tgt, MatchMode::Hom, &[])
            .unwrap()
            .is_none());
        // with the predicate present, the hom exists.
        let tgt2 = term(
            &[3],
            vec![Pred::lift("p", vec![Expr::var_attr(v(3), "a")])],
            vec![(0, 3)],
        );
        assert!(match_terms(&mut ctx, &pat, &tgt2, MatchMode::Hom, &[])
            .unwrap()
            .is_some());
    }

    #[test]
    fn free_variables_must_match_identically() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        // pattern: [t0.a = x.a] R(x) vs target: [t9.a = y.a] R(y) — different
        // free variables, no match.
        let pat = term(
            &[1],
            vec![Pred::eq(
                Expr::var_attr(v(0), "a"),
                Expr::var_attr(v(1), "a"),
            )],
            vec![(0, 1)],
        );
        let tgt = term(
            &[2],
            vec![Pred::eq(
                Expr::var_attr(v(9), "a"),
                Expr::var_attr(v(2), "a"),
            )],
            vec![(0, 2)],
        );
        assert!(match_terms(&mut ctx, &pat, &tgt, MatchMode::Iso, &[])
            .unwrap()
            .is_none());
    }

    #[test]
    fn ne_predicates_match_modulo_symmetry() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let pat = term(
            &[1, 2],
            vec![Pred::ne(
                Expr::var_attr(v(1), "a"),
                Expr::var_attr(v(2), "a"),
            )],
            vec![(0, 1), (0, 2)],
        );
        let tgt = term(
            &[3, 4],
            vec![Pred::ne(
                Expr::var_attr(v(4), "a"),
                Expr::var_attr(v(3), "a"),
            )],
            vec![(0, 3), (0, 4)],
        );
        assert!(match_terms(&mut ctx, &pat, &tgt, MatchMode::Iso, &[])
            .unwrap()
            .is_some());
    }

    #[test]
    fn distinct_constants_entail_inequality() {
        let (cat, cs) = setup();
        let ctx = Ctx::new(&cat, &cs);
        let mut cc = Congruence::new();
        let p = Pred::ne(Expr::int(1), Expr::int(2));
        assert!(entails_pred(&ctx, &mut cc, &[], &p));
        let q = Pred::ne(Expr::int(1), Expr::int(1));
        assert!(!entails_pred(&ctx, &mut cc, &[], &q));
    }

    /// Each candidate mapping checked in full is counted by mode: Hom checks
    /// as `hom-candidates`, Iso checks as `iso-candidates`.
    #[test]
    fn verify_calls_are_counted_by_mode() {
        let (cat, cs) = setup();
        let recorder = udp_obs::Recorder::enabled();
        let mut ctx = Ctx::new(&cat, &cs)
            .with_budget(Budget::unlimited())
            .with_recorder(recorder.clone());
        let pat = term(&[1], vec![], vec![(0, 1)]);
        let tgt = term(&[2, 3], vec![], vec![(0, 2), (0, 3)]);
        assert!(match_terms(&mut ctx, &pat, &tgt, MatchMode::Hom, &[])
            .unwrap()
            .is_some());
        assert_eq!(recorder.counter(Counter::HomCandidates), 1);
        assert_eq!(recorder.counter(Counter::IsoCandidates), 0);
        let same = term(&[4], vec![], vec![(0, 4)]);
        assert!(match_terms(&mut ctx, &pat, &same, MatchMode::Iso, &[])
            .unwrap()
            .is_some());
        assert_eq!(recorder.counter(Counter::HomCandidates), 1);
        assert_eq!(recorder.counter(Counter::IsoCandidates), 1);
    }
}
