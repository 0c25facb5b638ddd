//! Sum-Product Normal Form (Def 3.3, Theorem 3.4).
//!
//! A normalized U-expression is a sum of *terms*
//!
//! ```text
//! T = Σ_{t₁…t_m} [b₁]…[b_k] · ‖E_s‖ · not(E_n) · R₁(e₁)…R_j(e_j)
//! ```
//!
//! obtained by exhaustively applying the nine rewrite rules of Theorem 3.4,
//! each an instance of a U-semiring axiom: distributivity (rules 1–2, 5),
//! associativity/commutativity (3–4), Σ-extrusion (6–7, axiom (9)), squash
//! fusion (8, axiom (3)) and negation fusion (9, `not(x)·not(y) = not(x+y)`).
//!
//! Our normalizer is big-step structural recursion — it computes the normal
//! form directly rather than running a small-step rewrite loop — but every
//! local construction corresponds to one of the rules above; the proof-trace
//! layer records the phase and the independent checker validates it
//! semantically (see `proof`).
//!
//! Negation is additionally pushed through predicate atoms
//! (`not([b]) ↝ [¬b]`, `not(1) ↝ 0`), which is sound for the standard
//! interpretation in ℕ where `[b] ∈ {0, 1}` — the soundness target of
//! Theorem 5.3 (see DESIGN.md §5).
//!
//! # Cost
//!
//! Each `Σ` alpha-renames its binder to a fresh variable. The renaming is
//! not substituted into the body at the `Σ`: the normalizer carries the
//! binders in scope with their fresh names and renames each predicate and
//! relation atom once, at the leaf, so the input is copied once however
//! deeply its binders nest. [`Nf::mul`] clones a term only for a product
//! other than its last. The output is the normal form that substituting
//! at every `Σ` gives (DESIGN.md §7, "Normalization and congruence
//! without copies").

use crate::expr::{Expr, Pred, VarGen, VarId};
use crate::schema::{RelId, SchemaId};
use crate::uexpr::UExpr;
use std::collections::BTreeSet;
use std::fmt;

/// A relation atom `R(e)` inside a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The base relation.
    pub rel: RelId,
    /// The tuple argument (usually a bound variable).
    pub arg: Expr,
}

impl Atom {
    /// Construct the atom `R(arg)`.
    pub fn new(rel: RelId, arg: Expr) -> Self {
        Atom { rel, arg }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}({})", self.rel.0, self.arg)
    }
}

/// One SPNF term (see module docs). `squash == None` means the factor
/// `‖E_s‖` is absent (`E_s = 1`); `negation == None` means `not(E_n)` is
/// absent (`E_n = 0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term {
    /// Summation variables with their schemas (binders).
    pub vars: Vec<(VarId, SchemaId)>,
    /// Predicate factors `[b_i]`.
    pub preds: Vec<Pred>,
    /// The single squash factor `‖E_s‖`, itself in SPNF.
    pub squash: Option<Box<Nf>>,
    /// The single negation factor `not(E_n)`, itself in SPNF.
    pub negation: Option<Box<Nf>>,
    /// Relation atoms `R_i(e_i)`.
    pub atoms: Vec<Atom>,
}

/// A normal form: a finite sum of terms. The empty sum is `0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Nf {
    /// The summands `T₁ + … + Tₙ` (empty = `0`).
    pub terms: Vec<Term>,
}

impl Term {
    /// The term `1` (empty product, no summation).
    pub fn one() -> Term {
        Term {
            vars: vec![],
            preds: vec![],
            squash: None,
            negation: None,
            atoms: vec![],
        }
    }

    /// The term `1 · ‖nf‖`: a squash factor and nothing else.
    pub fn squash_of(nf: Nf) -> Term {
        Term {
            squash: Some(Box::new(nf)),
            ..Term::one()
        }
    }

    /// Is this the term `1`?
    pub fn is_one(&self) -> bool {
        self.vars.is_empty()
            && self.preds.is_empty()
            && self.squash.is_none()
            && self.negation.is_none()
            && self.atoms.is_empty()
    }

    /// Is this term syntactically `0`? (A trivially false predicate or a
    /// squash of the empty sum, `‖0‖ = 0`.)
    pub fn is_zero(&self) -> bool {
        self.preds.iter().any(Pred::is_trivially_false)
            || self.squash.as_ref().is_some_and(|nf| nf.is_zero())
    }

    /// Free variables: everything mentioned minus the binders.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut all = BTreeSet::new();
        self.collect_mentioned_vars(&mut all);
        for (v, _) in &self.vars {
            all.remove(v);
        }
        all
    }

    fn collect_mentioned_vars(&self, out: &mut BTreeSet<VarId>) {
        for p in &self.preds {
            p.collect_vars(out);
        }
        for a in &self.atoms {
            a.arg.collect_vars(out);
        }
        if let Some(nf) = &self.squash {
            nf.collect_free_vars(out);
        }
        if let Some(nf) = &self.negation {
            nf.collect_free_vars(out);
        }
    }

    /// Blanket substitution on the term body. Binders are *not* renamed;
    /// callers must not substitute a variable bound here unless eliminating
    /// it, and replacement expressions must not mention bound variables of
    /// nested terms (guaranteed by global freshness).
    pub fn subst_map(&self, lookup: &dyn Fn(VarId) -> Option<Expr>) -> Term {
        Term {
            vars: self.vars.clone(),
            preds: self.preds.iter().map(|p| p.subst_map(lookup)).collect(),
            squash: self
                .squash
                .as_ref()
                .map(|nf| Box::new(nf.subst_map(lookup))),
            negation: self
                .negation
                .as_ref()
                .map(|nf| Box::new(nf.subst_map(lookup))),
            atoms: self
                .atoms
                .iter()
                .map(|a| Atom::new(a.rel, a.arg.subst_map(lookup)))
                .collect(),
        }
    }

    /// Substitute a single variable.
    pub fn subst(&self, v: VarId, e: &Expr) -> Term {
        self.subst_map(&|w| if w == v { Some(e.clone()) } else { None })
    }

    /// Product of two terms: concatenates binders and factors, fusing squash
    /// factors via axiom (3) and negation factors via
    /// `not(x)·not(y) = not(x+y)`. Binder sets must be disjoint (global
    /// freshness invariant).
    pub fn mul(mut self, mut other: Term) -> Term {
        debug_assert!(
            self.vars
                .iter()
                .all(|(v, _)| !other.vars.iter().any(|(w, _)| w == v)),
            "binder collision in Term::mul — freshness invariant broken"
        );
        self.vars.append(&mut other.vars);
        self.preds.append(&mut other.preds);
        self.atoms.append(&mut other.atoms);
        self.squash = match (self.squash.take(), other.squash.take()) {
            (None, s) | (s, None) => s,
            (Some(a), Some(b)) => Some(Box::new(Nf::mul(*a, *b))),
        };
        self.negation = match (self.negation.take(), other.negation.take()) {
            (None, n) | (n, None) => n,
            (Some(a), Some(b)) => Some(Box::new(Nf::add(*a, *b))),
        };
        self
    }

    /// Rename every bound variable (recursively, including nested squash and
    /// negation bodies) to a fresh one. Produces an alpha-equivalent copy
    /// safe to multiply with the original.
    pub fn freshen(&self, gen: &mut VarGen) -> Term {
        let mut t = self.clone();
        let renames: Vec<(VarId, VarId)> = t.vars.iter().map(|(v, _)| (*v, gen.fresh())).collect();
        for ((v, _), (_, nv)) in t.vars.iter_mut().zip(&renames) {
            *v = *nv;
        }
        let lookup = move |w: VarId| {
            renames
                .iter()
                .find(|(old, _)| *old == w)
                .map(|(_, nv)| Expr::Var(*nv))
        };
        let mut renamed = Term {
            vars: t.vars,
            ..self.subst_map(&lookup)
        };
        // Recurse into nested normal forms to freshen *their* binders too.
        if let Some(nf) = renamed.squash.take() {
            renamed.squash = Some(Box::new(nf.freshen(gen)));
        }
        if let Some(nf) = renamed.negation.take() {
            renamed.negation = Some(Box::new(nf.freshen(gen)));
        }
        renamed
    }

    /// Drop trivially-true predicates and duplicate factors (justified by
    /// `[e = e] = 1` — derivable from Eq. (13)–(14) — and predicate
    /// idempotence `[b]² = [b]`, from axioms (4) and (11)).
    pub fn simplify_preds(&mut self) {
        self.preds.retain(|p| !p.is_trivially_true());
        let mut seen = BTreeSet::new();
        self.preds = std::mem::take(&mut self.preds)
            .into_iter()
            .map(Pred::oriented)
            .filter(|p| seen.insert(p.clone()))
            .collect();
    }

    /// Canonical sort of factors for deterministic printing and hashing.
    pub fn sort_factors(&mut self) {
        self.preds.sort();
        self.atoms.sort();
    }

    /// Structural size (node count).
    pub fn size(&self) -> usize {
        1 + self.vars.len()
            + self.preds.iter().map(Pred::size).sum::<usize>()
            + self.squash.as_ref().map_or(0, |nf| 1 + nf.size())
            + self.negation.as_ref().map_or(0, |nf| 1 + nf.size())
            + self.atoms.iter().map(|a| 1 + a.arg.size()).sum::<usize>()
    }

    /// Deterministic deep size in bytes — the memory cousin of [`Term::size`]
    /// (see [`crate::uexpr::UExpr::deep_size`] for the exact-fit
    /// convention). The `spnf-bytes` observability counter sums this over
    /// canonical goal pairs, making SPNF blow-up visible in bytes, not
    /// just node counts.
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Term>() + self.heap_size()
    }

    /// Bytes of owned heap data strictly below this term.
    pub fn heap_size(&self) -> usize {
        self.vars.len() * std::mem::size_of::<(VarId, SchemaId)>()
            + self.preds.iter().map(Pred::deep_size).sum::<usize>()
            + self.squash.as_ref().map_or(0, |nf| nf.deep_size())
            + self.negation.as_ref().map_or(0, |nf| nf.deep_size())
            + self
                .atoms
                .iter()
                .map(|a| std::mem::size_of::<Atom>() + a.arg.heap_size())
                .sum::<usize>()
    }

    /// Convert back to a plain [`UExpr`] (used for interpretation-based
    /// testing and by the proof checker).
    pub fn to_uexpr(&self) -> UExpr {
        let mut factors: Vec<UExpr> = Vec::new();
        factors.extend(self.preds.iter().cloned().map(UExpr::Pred));
        if let Some(nf) = &self.squash {
            factors.push(UExpr::squash(nf.to_uexpr()));
        }
        if let Some(nf) = &self.negation {
            factors.push(UExpr::not(nf.to_uexpr()));
        }
        factors.extend(self.atoms.iter().map(|a| UExpr::Rel(a.rel, a.arg.clone())));
        let body = UExpr::product(factors);
        UExpr::sum_over(self.vars.iter().copied(), body)
    }

    /// Largest variable id mentioned (for watermarking fresh generators).
    pub fn max_var(&self) -> u32 {
        self.to_uexpr().max_var()
    }
}

impl Nf {
    /// The normal form `0` (empty sum).
    pub fn zero() -> Nf {
        Nf { terms: vec![] }
    }

    /// The normal form `1` (the single empty-product term).
    pub fn one() -> Nf {
        Nf {
            terms: vec![Term::one()],
        }
    }

    /// Is this syntactically `0`?
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Is this syntactically `1`?
    pub fn is_one(&self) -> bool {
        self.terms.len() == 1 && self.terms[0].is_one()
    }

    /// A normal form holding one term (`0` if the term is trivially zero).
    pub fn from_term(t: Term) -> Nf {
        if t.is_zero() {
            Nf::zero()
        } else {
            Nf { terms: vec![t] }
        }
    }

    /// `E₁ + E₂`: concatenation of term lists.
    pub fn add(mut self, mut other: Nf) -> Nf {
        self.terms.append(&mut other.terms);
        self
    }

    /// `E₁ × E₂`: cross product of term lists (distributivity, rules 1–2).
    /// Each term is cloned once per product but its last: a side with a
    /// single term is moved into the last product, and the other side's
    /// terms are moved into the last row.
    pub fn mul(self, other: Nf) -> Nf {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        let mut rows = self.terms.into_iter().peekable();
        let mut cols = other.terms;
        while let Some(a) = rows.next() {
            if rows.peek().is_some() {
                mul_row(a, cols.iter().cloned(), &mut terms);
            } else {
                mul_row(a, std::mem::take(&mut cols).into_iter(), &mut terms);
            }
        }
        Nf { terms }
    }

    /// Collect free variables of every term into `out`.
    pub fn collect_free_vars(&self, out: &mut BTreeSet<VarId>) {
        for t in &self.terms {
            out.extend(t.free_vars());
        }
    }

    /// Free variables of the whole normal form.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    /// Substitute free variables in every term.
    pub fn subst_map(&self, lookup: &dyn Fn(VarId) -> Option<Expr>) -> Nf {
        Nf {
            terms: self.terms.iter().map(|t| t.subst_map(lookup)).collect(),
        }
    }

    /// Alpha-rename every binder to fresh ids (see [`Term::freshen`]).
    pub fn freshen(&self, gen: &mut VarGen) -> Nf {
        Nf {
            terms: self.terms.iter().map(|t| t.freshen(gen)).collect(),
        }
    }

    /// Structural size (the Sec 6.3 growth metric).
    pub fn size(&self) -> usize {
        1 + self.terms.iter().map(Term::size).sum::<usize>()
    }

    /// Deterministic deep size in bytes (see [`Term::deep_size`]).
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Nf>() + self.heap_size()
    }

    /// Bytes of owned heap data strictly below this normal form.
    pub fn heap_size(&self) -> usize {
        self.terms.iter().map(Term::deep_size).sum()
    }

    /// Convert back to a plain [`UExpr`].
    pub fn to_uexpr(&self) -> UExpr {
        UExpr::sum_of(self.terms.iter().map(Term::to_uexpr))
    }

    /// Largest variable id mentioned in any term.
    pub fn max_var(&self) -> u32 {
        self.terms.iter().map(Term::max_var).max().unwrap_or(0)
    }

    /// Lemma 5.1: under an enclosing squash, `‖a·‖x‖ + y‖ = ‖a·x + y‖` — the
    /// squash factor of each term can be dissolved into the term. Only valid
    /// under a squash context.
    pub fn flatten_under_squash(self) -> Nf {
        let mut out = Vec::with_capacity(self.terms.len());
        for mut t in self.terms {
            match t.squash.take() {
                None => out.push(t),
                Some(inner) => {
                    // t = Σ_v̄ P·‖Σ inner‖·M  ↝  Σ over inner terms of Σ_v̄ P·inner_i·M
                    let inner = inner.flatten_under_squash();
                    mul_row(t, inner.terms.into_iter(), &mut out);
                }
            }
        }
        Nf { terms: out }
    }
}

/// Push the nonzero products `a × b` for each `b` of `bs` onto `out`,
/// cloning `a` for every product but the last, which takes it.
fn mul_row(a: Term, mut bs: impl ExactSizeIterator<Item = Term>, out: &mut Vec<Term>) {
    let mut push = |prod: Term| {
        if !prod.is_zero() {
            out.push(prod);
        }
    };
    let copies = bs.len().saturating_sub(1);
    for b in bs.by_ref().take(copies) {
        push(a.clone().mul(b));
    }
    if let Some(b) = bs.next() {
        push(a.mul(b));
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            write!(f, "Σ_{{")?;
            for (i, (v, s)) in self.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}:σ{}", s.0)?;
            }
            write!(f, "}} ")?;
        }
        let mut wrote = false;
        for p in &self.preds {
            if wrote {
                write!(f, " × ")?;
            }
            write!(f, "{p}")?;
            wrote = true;
        }
        if let Some(nf) = &self.squash {
            if wrote {
                write!(f, " × ")?;
            }
            write!(f, "‖{nf}‖")?;
            wrote = true;
        }
        if let Some(nf) = &self.negation {
            if wrote {
                write!(f, " × ")?;
            }
            write!(f, "not({nf})")?;
            wrote = true;
        }
        for a in &self.atoms {
            if wrote {
                write!(f, " × ")?;
            }
            write!(f, "{a}")?;
            wrote = true;
        }
        if !wrote {
            write!(f, "1")?;
        }
        Ok(())
    }
}

impl fmt::Display for Nf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Normalize a U-expression into SPNF (Theorem 3.4). `gen` must be seeded
/// above every variable in `e` (see [`normalize`] for the convenient entry
/// point).
pub fn normalize_with(e: &UExpr, gen: &mut VarGen) -> Nf {
    normalize_in(e, gen, &mut Vec::new())
}

/// The binders in scope with the fresh variables they were renamed to,
/// innermost last. A `Σ` that rebinds an id shadows the outer entry.
type Renaming = Vec<(VarId, VarId)>;

/// The substitution a [`Renaming`] denotes: the innermost binding wins.
fn renamed(env: &[(VarId, VarId)]) -> impl Fn(VarId) -> Option<Expr> + '_ {
    move |w| {
        env.iter()
            .rev()
            .find(|(v, _)| *v == w)
            .map(|(_, fresh)| Expr::Var(*fresh))
    }
}

fn normalize_in(e: &UExpr, gen: &mut VarGen, env: &mut Renaming) -> Nf {
    match e {
        UExpr::Zero => Nf::zero(),
        UExpr::One => Nf::one(),
        UExpr::Add(a, b) => Nf::add(normalize_in(a, gen, env), normalize_in(b, gen, env)),
        UExpr::Mul(a, b) => Nf::mul(normalize_in(a, gen, env), normalize_in(b, gen, env)),
        UExpr::Pred(p) => pred_nf(p, env),
        UExpr::Rel(r, arg) => {
            let arg = if env.is_empty() {
                arg.clone()
            } else {
                arg.subst_map(&renamed(env))
            };
            let mut t = Term::one();
            t.atoms.push(Atom::new(*r, arg));
            Nf::from_term(t)
        }
        UExpr::Squash(inner) => {
            let nf = normalize_in(inner, gen, env).flatten_under_squash();
            squash_nf(nf)
        }
        UExpr::Not(inner) => normalize_not(inner, gen, env),
        UExpr::Sum(v, schema, body) => {
            // Alpha-rename the binder to a globally fresh variable, then
            // prepend it to every term (axiom (7): Σ distributes over +).
            // The body is renamed at its leaves, not copied here.
            let fresh = gen.fresh();
            env.push((*v, fresh));
            let mut nf = normalize_in(body, gen, env);
            env.pop();
            for t in &mut nf.terms {
                t.vars.insert(0, (fresh, *schema));
            }
            nf
        }
    }
}

/// The normal form of the predicate leaf `[p]` under `env`. Renaming also
/// rewrites record projections `⟨…, a = e, …⟩.a` to `e`, as substituting
/// at each enclosing `Σ` did, so it runs exactly when some `Σ` encloses
/// the leaf.
fn pred_nf(p: &Pred, env: &[(VarId, VarId)]) -> Nf {
    let p = if env.is_empty() {
        p.clone()
    } else {
        p.subst_map(&renamed(env))
    };
    if p.is_trivially_true() {
        Nf::one()
    } else if p.is_trivially_false() {
        Nf::zero()
    } else {
        let mut t = Term::one();
        t.preds.push(p.oriented());
        Nf::from_term(t)
    }
}

/// Build `‖nf‖` as a normal form, applying the cheap squash simplifications:
/// `‖0‖ = 0` (axiom 1), `‖1‖ = 1`, `‖x + x‖ = ‖x‖` (set-semantics
/// idempotence under the squash), and `‖[b₁]…[b_k]‖ = [b₁]…[b_k]`
/// (axioms (3) and (11)).
pub fn squash_nf(mut nf: Nf) -> Nf {
    if nf.is_zero() {
        return Nf::zero();
    }
    // Syntactically duplicate summands are idempotent under a squash.
    let mut seen: Vec<&Term> = Vec::new();
    let mut keep = vec![true; nf.terms.len()];
    for (i, t) in nf.terms.iter().enumerate() {
        if seen.contains(&t) {
            keep[i] = false;
        } else {
            seen.push(t);
        }
    }
    drop(seen);
    let mut it = keep.iter();
    nf.terms.retain(|_| *it.next().unwrap());
    if nf.terms.len() == 1 {
        let t = &nf.terms[0];
        // A bare product of predicates is squash-stable.
        if t.vars.is_empty() && t.atoms.is_empty() && t.negation.is_none() {
            if t.squash.is_none() {
                return nf; // includes the ‖1‖ = 1 case
            }
            // ‖[b…]·‖E‖‖ = [b…]·‖E‖ — predicates factor out (11)+(3), and
            // ‖‖E‖‖ = ‖E‖ from axiom (2) with y = 0.
            return nf;
        }
    }
    Nf::from_term(Term::squash_of(nf))
}

fn normalize_not(e: &UExpr, gen: &mut VarGen, env: &mut Renaming) -> Nf {
    match e {
        // not(0) = 1 (axiom).
        UExpr::Zero => Nf::one(),
        // not(1) = 0 — standard-model step (ℕ), see module docs.
        UExpr::One => Nf::zero(),
        // not([b]) = [¬b] — standard-model step. Negating and renaming
        // commute.
        UExpr::Pred(p) => pred_nf(&p.negate(), env),
        // not(x + y) = not(x) × not(y) (axiom).
        UExpr::Add(a, b) => Nf::mul(normalize_not(a, gen, env), normalize_not(b, gen, env)),
        // not(x × y) = ‖not(x) + not(y)‖ (axiom).
        UExpr::Mul(a, b) => {
            let nf = Nf::add(normalize_not(a, gen, env), normalize_not(b, gen, env))
                .flatten_under_squash();
            squash_nf(nf)
        }
        // not(‖x‖) = not(x) (axiom).
        UExpr::Squash(x) => normalize_not(x, gen, env),
        // Default: keep a negation factor not(E_n) with E_n in SPNF.
        other => {
            let nf = normalize_in(other, gen, env);
            if nf.is_zero() {
                return Nf::one();
            }
            let mut t = Term::one();
            t.negation = Some(Box::new(nf));
            Nf::from_term(t)
        }
    }
}

/// Normalize, seeding the fresh-variable generator automatically.
pub fn normalize(e: &UExpr) -> Nf {
    let mut gen = VarGen::above(e.max_var() + 1);
    normalize_with(e, &mut gen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Pred, VarId};
    use crate::schema::{RelId, SchemaId};

    fn v(i: u32) -> VarId {
        VarId(i)
    }
    const R: RelId = RelId(0);
    const S: RelId = RelId(1);
    const SIG: SchemaId = SchemaId(0);

    fn rel(r: RelId, i: u32) -> UExpr {
        UExpr::rel(r, Expr::Var(v(i)))
    }

    #[test]
    fn zero_and_one() {
        assert!(normalize(&UExpr::Zero).is_zero());
        assert!(normalize(&UExpr::One).is_one());
    }

    #[test]
    fn distributes_mul_over_add() {
        // (R(t0) + S(t0)) × R(t1) → two terms
        let e = UExpr::mul(UExpr::add(rel(R, 0), rel(S, 0)), rel(R, 1));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 2);
        assert_eq!(nf.terms[0].atoms.len(), 2);
    }

    #[test]
    fn sum_distributes_over_add() {
        // Σ_t (R(t) + S(t)) → Σ_t R(t) + Σ_t S(t)
        let body = UExpr::add(rel(R, 0), rel(S, 0));
        let e = UExpr::sum(v(0), SIG, body);
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 2);
        for t in &nf.terms {
            assert_eq!(t.vars.len(), 1);
            assert_eq!(t.atoms.len(), 1);
        }
    }

    #[test]
    fn nested_sums_flatten_into_one_binder_list() {
        let e = UExpr::sum(
            v(0),
            SIG,
            UExpr::sum(v(1), SIG, UExpr::mul(rel(R, 0), rel(S, 1))),
        );
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        assert_eq!(nf.terms[0].vars.len(), 2);
        assert_eq!(nf.terms[0].atoms.len(), 2);
    }

    #[test]
    fn squash_fusion() {
        // ‖R(t0)‖ × ‖S(t0)‖ → single squash factor ‖R×S‖
        let e = UExpr::mul(UExpr::squash(rel(R, 0)), UExpr::squash(rel(S, 0)));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        let t = &nf.terms[0];
        assert!(t.squash.is_some());
        assert_eq!(t.squash.as_ref().unwrap().terms[0].atoms.len(), 2);
    }

    #[test]
    fn negation_fusion() {
        // not(ΣR) × not(ΣS) → not(ΣR + ΣS)
        let e = UExpr::mul(
            UExpr::not(UExpr::sum(v(0), SIG, rel(R, 0))),
            UExpr::not(UExpr::sum(v(1), SIG, rel(S, 1))),
        );
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        let t = &nf.terms[0];
        assert!(t.negation.is_some());
        assert_eq!(t.negation.as_ref().unwrap().terms.len(), 2);
    }

    #[test]
    fn not_of_zero_is_one_and_dual() {
        assert!(normalize(&UExpr::not(UExpr::Zero)).is_one());
        assert!(normalize(&UExpr::not(UExpr::One)).is_zero());
    }

    #[test]
    fn not_pushes_through_pred() {
        let p = Pred::eq(Expr::var_attr(v(0), "a"), Expr::int(1));
        let e = UExpr::not(UExpr::Pred(p.clone()));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        assert_eq!(nf.terms[0].preds[0], p.negate().oriented());
    }

    #[test]
    fn de_morgan_on_not_mul() {
        // not([a]×[b]) = ‖[¬a] + [¬b]‖
        let pa = Pred::lift("p", vec![Expr::var_attr(v(0), "a")]);
        let pb = Pred::lift("q", vec![Expr::var_attr(v(0), "b")]);
        let e = UExpr::not(UExpr::mul(UExpr::Pred(pa), UExpr::Pred(pb)));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        let sq = nf.terms[0].squash.as_ref().expect("squash factor");
        assert_eq!(sq.terms.len(), 2);
    }

    #[test]
    fn squash_of_preds_is_dropped() {
        // ‖[p(t0)]‖ = [p(t0)] by axiom (11)
        let p = Pred::lift("p", vec![Expr::var_attr(v(0), "a")]);
        let e = UExpr::squash(UExpr::Pred(p.clone()));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        assert!(nf.terms[0].squash.is_none());
        assert_eq!(nf.terms[0].preds, vec![p.oriented()]);
    }

    #[test]
    fn nested_squash_flattens() {
        // ‖ R(t0) × ‖S(t0)‖ ‖ = ‖R(t0) × S(t0)‖ (Lemma 5.1)
        let e = UExpr::squash(UExpr::mul(rel(R, 0), UExpr::squash(rel(S, 0))));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        let sq = nf.terms[0].squash.as_ref().expect("squash factor");
        assert_eq!(sq.terms.len(), 1);
        assert!(sq.terms[0].squash.is_none());
        assert_eq!(sq.terms[0].atoms.len(), 2);
    }

    #[test]
    fn trivially_false_pred_kills_term() {
        let p = Pred::ne(Expr::int(3), Expr::int(3));
        let e = UExpr::mul(UExpr::Pred(p), rel(R, 0));
        assert!(normalize(&e).is_zero());
    }

    #[test]
    fn binder_alpha_renaming_avoids_capture() {
        // Σ_t R(t) × Σ_t S(t): inner binder reuses the name t0 — after
        // normalization the two binders must be distinct.
        let inner = UExpr::sum(v(0), SIG, rel(S, 0));
        let e = UExpr::sum(v(0), SIG, UExpr::mul(rel(R, 0), inner));
        let nf = normalize(&e);
        assert_eq!(nf.terms.len(), 1);
        let t = &nf.terms[0];
        assert_eq!(t.vars.len(), 2);
        assert_ne!(t.vars[0].0, t.vars[1].0);
    }

    #[test]
    fn round_trip_to_uexpr_preserves_shape() {
        let e = UExpr::sum(v(0), SIG, UExpr::mul(rel(R, 0), UExpr::squash(rel(S, 0))));
        let nf = normalize(&e);
        let back = nf.to_uexpr();
        // Renormalizing the round-trip gives the same normal form (after
        // alpha-freshening both).
        let nf2 = normalize(&back);
        assert_eq!(nf.terms.len(), nf2.terms.len());
        assert_eq!(nf.terms[0].atoms.len(), nf2.terms[0].atoms.len());
    }

    #[test]
    fn freshen_is_alpha_equivalent() {
        let e = UExpr::sum(v(0), SIG, UExpr::mul(rel(R, 0), rel(S, 0)));
        let nf = normalize(&e);
        let mut gen = VarGen::above(nf.max_var() + 1);
        let fresh = nf.freshen(&mut gen);
        assert_eq!(fresh.terms.len(), nf.terms.len());
        assert_ne!(fresh.terms[0].vars[0].0, nf.terms[0].vars[0].0);
        assert_eq!(fresh.terms[0].atoms.len(), 2);
    }

    #[test]
    fn term_display_is_readable() {
        let e = UExpr::sum(v(0), SIG, rel(R, 0));
        let nf = normalize(&e);
        let s = format!("{nf}");
        assert!(s.contains("Σ"), "display: {s}");
        assert!(s.contains("R0"), "display: {s}");
    }
}
