//! Property-based tests of the rewrite system.
//!
//! Random U-expressions are built from a fuzz-style byte decoder (bounded
//! depth, well-scoped binders) over a two-relation catalog, then:
//!
//! * SPNF conversion must preserve the interpreted value over ℕ and ℕ̄;
//! * canonization must preserve it on constraint-satisfying models;
//! * queries proved equal by UDP must evaluate identically;
//! * alpha-renamed, factor-shuffled clones must always be proved equal;
//! * a shared aggregate body ([`AggBody`]) must behave exactly like the
//!   body it wraps: its fast paths and caches are invisible;
//! * SPNF conversion, which renames binders at the leaves, must give the
//!   normal form of substituting at every `Σ`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use udp_core::budget::Budget;
use udp_core::canonize::canonize_nf;
use udp_core::constraints::ConstraintSet;
use udp_core::ctx::Ctx;
use udp_core::equiv::udp_equiv;
use udp_core::expr::{AggBody, Expr, Pred, VarGen, VarId};
use udp_core::interp::{DomainSpec, Interp};
use udp_core::proof::random_model;
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::semiring::{BoolProv, Fuzzy, NatInf, USemiring};
use udp_core::spnf::{normalize, normalize_with, squash_nf, Atom, Nf, Term};
use udp_core::uexpr::UExpr;

fn catalog() -> (Catalog, SchemaId, RelId, RelId) {
    let mut cat = Catalog::new();
    let sid = cat
        .add_schema(Schema::new(
            "s",
            vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
            false,
        ))
        .unwrap();
    let r = cat.add_relation("R", sid).unwrap();
    let s = cat.add_relation("S", sid).unwrap();
    (cat, sid, r, s)
}

/// Byte-stream decoder for random, well-scoped U-expressions. The free
/// variable `VarId(0)` plays the output tuple. With `shadowing`, a `Σ` may
/// rebind an enclosing binder (or `t0`), and leaves may be correlated
/// aggregates or record-projection redexes.
struct Builder<'a> {
    bytes: &'a [u8],
    pos: usize,
    next_var: u32,
    sid: SchemaId,
    rels: [RelId; 2],
    shadowing: bool,
}

impl<'a> Builder<'a> {
    fn take(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn var(&mut self, bound: &[VarId]) -> VarId {
        if bound.is_empty() {
            VarId(0)
        } else {
            let i = self.take() as usize % (bound.len() + 1);
            if i == 0 {
                VarId(0)
            } else {
                bound[i - 1]
            }
        }
    }

    fn attr(&mut self) -> &'static str {
        if self.take() % 2 == 0 {
            "k"
        } else {
            "a"
        }
    }

    fn pred(&mut self, bound: &[VarId]) -> Pred {
        let v1 = self.var(bound);
        let a1 = self.attr();
        match self.take() % 3 {
            0 => Pred::eq(Expr::var_attr(v1, a1), Expr::int((self.take() % 3) as i64)),
            1 => {
                let v2 = self.var(bound);
                let a2 = self.attr();
                Pred::eq(Expr::var_attr(v1, a1), Expr::var_attr(v2, a2))
            }
            _ => Pred::lift("p", vec![Expr::var_attr(v1, a1)]),
        }
    }

    /// A binder for a new `Σ`: a fresh id, or with `shadowing` sometimes
    /// `t0` or an enclosing binder again.
    fn binder(&mut self, bound: &[VarId]) -> VarId {
        if self.shadowing && self.take().is_multiple_of(3) {
            return self.var(bound);
        }
        self.next_var += 1;
        VarId(self.next_var)
    }

    /// `[v.a = sum(Σ_z R(z) × body)]` with `body` free to mention every
    /// enclosing binder.
    fn agg_pred(&mut self, depth: u8, bound: &mut Vec<VarId>) -> Pred {
        let v = self.var(bound);
        let z = self.binder(bound);
        bound.push(z);
        let body = UExpr::mul(
            UExpr::rel(self.rels[0], Expr::Var(z)),
            self.build(depth, bound),
        );
        bound.pop();
        Pred::eq(
            Expr::var_attr(v, "a"),
            Expr::agg("sum", UExpr::sum(z, self.sid, body)),
        )
    }

    /// `[⟨k = v.a, a = 1⟩.k = w.k]`: a redex that substitution rewrites.
    fn redex_pred(&mut self, bound: &[VarId]) -> Pred {
        let v = self.var(bound);
        let w = self.var(bound);
        let rec = Expr::record(vec![
            ("k".into(), Expr::var_attr(v, "a")),
            ("a".into(), Expr::int(1)),
        ]);
        Pred::eq(Expr::attr(rec, "k"), Expr::var_attr(w, "k"))
    }

    fn build(&mut self, depth: u8, bound: &mut Vec<VarId>) -> UExpr {
        let choice = self.take();
        if depth == 0 {
            if self.shadowing {
                match choice % 8 {
                    6 => return UExpr::Pred(self.agg_pred(0, bound)),
                    7 => return UExpr::Pred(self.redex_pred(bound)),
                    _ => {}
                }
            }
            return match choice % 4 {
                0 => UExpr::One,
                1 => UExpr::Pred(self.pred(bound)),
                2 => {
                    let rel = self.rels[(choice / 4) as usize % 2];
                    let v = self.var(bound);
                    UExpr::rel(rel, Expr::Var(v))
                }
                _ => UExpr::Zero,
            };
        }
        match choice % 8 {
            0 => UExpr::add(self.build(depth - 1, bound), self.build(depth - 1, bound)),
            1 | 2 => UExpr::mul(self.build(depth - 1, bound), self.build(depth - 1, bound)),
            3 => UExpr::squash(self.build(depth - 1, bound)),
            4 => UExpr::not(self.build(depth - 1, bound)),
            5 | 6 => {
                let v = self.binder(bound);
                bound.push(v);
                let body = self.build(depth - 1, bound);
                bound.pop();
                UExpr::sum(v, self.sid, body)
            }
            _ => {
                let rel = self.rels[(choice / 8) as usize % 2];
                let v = self.var(bound);
                let pred = if self.shadowing && choice / 8 % 4 >= 2 {
                    self.agg_pred(depth - 1, bound)
                } else {
                    self.pred(bound)
                };
                UExpr::mul(UExpr::rel(rel, Expr::Var(v)), UExpr::Pred(pred))
            }
        }
    }
}

fn random_uexpr(bytes: &[u8], sid: SchemaId, r: RelId, s: RelId) -> UExpr {
    build_uexpr(bytes, sid, r, s, false)
}

fn build_uexpr(bytes: &[u8], sid: SchemaId, r: RelId, s: RelId, shadowing: bool) -> UExpr {
    let mut b = Builder {
        bytes,
        pos: 0,
        next_var: 0,
        sid,
        rels: [r, s],
        shadowing,
    };
    let depth = 2 + (bytes.first().copied().unwrap_or(0) % 2);
    b.build(depth, &mut Vec::new())
}

/// SPNF conversion as it was first written: alpha-rename each `Σ`'s binder
/// by substituting a fresh variable into the whole body, and multiply by
/// cloning every pair of terms. The oracle for [`normalize_with`].
fn reference_normalize(e: &UExpr, gen: &mut VarGen) -> Nf {
    match e {
        UExpr::Zero => Nf::zero(),
        UExpr::One => Nf::one(),
        UExpr::Add(a, b) => Nf::add(reference_normalize(a, gen), reference_normalize(b, gen)),
        UExpr::Mul(a, b) => reference_mul(reference_normalize(a, gen), reference_normalize(b, gen)),
        UExpr::Pred(p) => {
            if p.is_trivially_true() {
                Nf::one()
            } else if p.is_trivially_false() {
                Nf::zero()
            } else {
                let mut t = Term::one();
                t.preds.push(p.clone().oriented());
                Nf::from_term(t)
            }
        }
        UExpr::Rel(r, arg) => {
            let mut t = Term::one();
            t.atoms.push(Atom::new(*r, arg.clone()));
            Nf::from_term(t)
        }
        UExpr::Squash(inner) => squash_nf(reference_normalize(inner, gen).flatten_under_squash()),
        UExpr::Not(inner) => reference_not(inner, gen),
        UExpr::Sum(v, schema, body) => {
            let fresh = gen.fresh();
            let body = body.subst(*v, &Expr::Var(fresh));
            let mut nf = reference_normalize(&body, gen);
            for t in &mut nf.terms {
                t.vars.insert(0, (fresh, *schema));
            }
            nf
        }
    }
}

fn reference_mul(a: Nf, b: Nf) -> Nf {
    let mut terms = Vec::new();
    for x in &a.terms {
        for y in &b.terms {
            let prod = x.clone().mul(y.clone());
            if !prod.is_zero() {
                terms.push(prod);
            }
        }
    }
    Nf { terms }
}

fn reference_not(e: &UExpr, gen: &mut VarGen) -> Nf {
    match e {
        UExpr::Zero => Nf::one(),
        UExpr::One => Nf::zero(),
        UExpr::Pred(p) => reference_normalize(&UExpr::Pred(p.negate()), gen),
        UExpr::Add(a, b) => reference_mul(reference_not(a, gen), reference_not(b, gen)),
        UExpr::Mul(a, b) => {
            squash_nf(Nf::add(reference_not(a, gen), reference_not(b, gen)).flatten_under_squash())
        }
        UExpr::Squash(x) => reference_not(x, gen),
        other => {
            let nf = reference_normalize(other, gen);
            if nf.is_zero() {
                return Nf::one();
            }
            let mut t = Term::one();
            t.negation = Some(Box::new(nf));
            Nf::from_term(t)
        }
    }
}

/// `sum(Σ_z body)` for a random body: the lowering's aggregate shape, with
/// the body's free variables (the output tuple `t0` among them) left
/// correlated. `plant` adds, by bit, a projection through a concatenation
/// (1) and a projection of a record field (2): the shapes substitution or
/// attribute resolution rewrite even when no variable is replaced.
fn random_agg(bytes: &[u8], sid: SchemaId, r: RelId, s: RelId, plant: u8) -> UExpr {
    let body = random_uexpr(bytes, sid, r, s);
    let z = VarId(body.max_var() + 1);
    let mut factors = vec![body];
    if plant & 1 != 0 {
        let concat = Expr::Concat(Box::new(Expr::Var(z)), sid, Box::new(Expr::Var(VarId(0))));
        factors.push(UExpr::eq(Expr::attr(concat, "a"), Expr::int(1)));
    }
    if plant & 2 != 0 {
        let field = Expr::attr(Expr::record(vec![("a".into(), Expr::int(1))]), "a");
        factors.push(UExpr::eq(Expr::var_attr(z, "k"), field));
    }
    UExpr::sum(z, sid, UExpr::product(factors))
}

fn content_hash(e: &Expr) -> u64 {
    BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(e)
}

fn eval_both<S: USemiring + std::hash::Hash>(
    interp: &Interp<S>,
    sid: SchemaId,
    e1: &UExpr,
    e2: &UExpr,
) -> (Vec<S>, Vec<S>) {
    let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
    let evals = |e: &UExpr| {
        domain
            .iter()
            .map(|t| {
                let env = BTreeMap::from([(VarId(0), t.clone())]);
                interp.eval_uexpr(e, &env)
            })
            .collect::<Vec<S>>()
    };
    (evals(e1), evals(e2))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Theorem 3.4, empirically: SPNF conversion preserves the value in ℕ.
    #[test]
    fn spnf_preserves_nat_semantics(bytes in proptest::collection::vec(any::<u8>(), 8..40),
                                    seed in 0u64..1000) {
        let (cat, sid, r, s) = catalog();
        let cs = ConstraintSet::new();
        let e = random_uexpr(&bytes, sid, r, s);
        let mut gen = VarGen::above(e.max_var() + 1);
        let nf = normalize_with(&e, &mut gen);
        let interp = random_model(&cat, &cs, &DomainSpec { ints: vec![0, 1], strs: vec![] }, seed);
        let (v1, v2) = eval_both(&interp, sid, &e, &nf.to_uexpr());
        prop_assert_eq!(v1, v2, "SPNF changed the ℕ value of {}", e);
    }

    /// …and in ℕ̄ (summation domains are finite here, so ℕ̄ agrees with ℕ on
    /// finite inputs — this exercises the saturating/∞ arithmetic paths).
    #[test]
    fn spnf_preserves_natinf_semantics(bytes in proptest::collection::vec(any::<u8>(), 8..40)) {
        let (cat, sid, r, s) = catalog();
        let e = random_uexpr(&bytes, sid, r, s);
        let mut gen = VarGen::above(e.max_var() + 1);
        let nf = normalize_with(&e, &mut gen);
        let spec = DomainSpec { ints: vec![0, 1], strs: vec![] };
        let mut interp: Interp<NatInf> = Interp::new(&cat, &spec);
        // Seed a relation including an ∞ multiplicity.
        let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
        let rows: Vec<(udp_core::interp::Val, NatInf)> = domain
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let m = match i % 3 {
                    0 => NatInf::Fin(1),
                    1 => NatInf::Fin(2),
                    _ => NatInf::Inf,
                };
                (t.clone(), m)
            })
            .collect();
        interp.set_relation(r, rows);
        let (v1, v2) = eval_both(&interp, sid, &e, &nf.to_uexpr());
        prop_assert_eq!(v1, v2, "SPNF changed the ℕ̄ value of {}", e);
    }

    /// SPNF is axiom-only, so it must also preserve the value in models the
    /// paper never evaluates on — here the Boolean provenance algebra B(X):
    /// normalization cannot change any output row's lineage.
    #[test]
    fn spnf_preserves_boolean_provenance(bytes in proptest::collection::vec(any::<u8>(), 8..40)) {
        let (cat, sid, r, s) = catalog();
        let e = random_uexpr(&bytes, sid, r, s);
        let mut gen = VarGen::above(e.max_var() + 1);
        let nf = normalize_with(&e, &mut gen);
        let spec = DomainSpec { ints: vec![0, 1], strs: vec![] };
        let mut interp: Interp<BoolProv> = Interp::new(&cat, &spec);
        let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
        let tag = |offset: usize| {
            domain
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), BoolProv::var((i + offset) % BoolProv::VARS)))
                .collect::<Vec<_>>()
        };
        interp.set_relation(r, tag(0));
        interp.set_relation(s, tag(2));
        let (v1, v2) = eval_both(&interp, sid, &e, &nf.to_uexpr());
        prop_assert_eq!(v1, v2, "SPNF changed the provenance of {}", e);
    }

    /// …and in the Gödel fuzzy semiring (membership degrees).
    #[test]
    fn spnf_preserves_fuzzy_semantics(bytes in proptest::collection::vec(any::<u8>(), 8..40)) {
        let (cat, sid, r, s) = catalog();
        let e = random_uexpr(&bytes, sid, r, s);
        let mut gen = VarGen::above(e.max_var() + 1);
        let nf = normalize_with(&e, &mut gen);
        let spec = DomainSpec { ints: vec![0, 1], strs: vec![] };
        let mut interp: Interp<Fuzzy> = Interp::new(&cat, &spec);
        let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
        let degrees = [0u8, 25, 60, 100];
        let tag = |offset: usize| {
            domain
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), Fuzzy::new(degrees[(i + offset) % degrees.len()])))
                .collect::<Vec<_>>()
        };
        interp.set_relation(r, tag(0));
        interp.set_relation(s, tag(1));
        let (v1, v2) = eval_both(&interp, sid, &e, &nf.to_uexpr());
        prop_assert_eq!(v1, v2, "SPNF changed the fuzzy value of {}", e);
    }

    /// Algorithm 1, empirically: canonization preserves the value on models
    /// satisfying the key constraint.
    #[test]
    fn canonize_preserves_constrained_semantics(
        bytes in proptest::collection::vec(any::<u8>(), 8..40),
        seed in 0u64..1000,
    ) {
        let (cat, sid, r, s) = catalog();
        let mut cs = ConstraintSet::new();
        cs.add_key(r, vec!["k".into()]);
        let e = random_uexpr(&bytes, sid, r, s);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::new(Some(2_000_000), None));
        ctx.gen.reserve(VarId(e.max_var() + 1));
        let nf = normalize_with(&e, &mut ctx.gen);
        let Ok(canon) = canonize_nf(&mut ctx, nf.clone(), &[], false) else {
            return Ok(()); // budget exhausted on a pathological sample
        };
        let interp =
            random_model(&cat, &cs, &DomainSpec { ints: vec![0, 1], strs: vec![] }, seed);
        let (v1, v2) = eval_both(&interp, sid, &nf.to_uexpr(), &canon.to_uexpr());
        prop_assert_eq!(v1, v2, "canonize changed the value of {}", e);
    }

    /// Soundness, empirically: whenever UDP proves two random expressions
    /// equal, their ℕ values agree on constraint-satisfying models.
    #[test]
    fn udp_verdicts_are_sound(
        b1 in proptest::collection::vec(any::<u8>(), 8..32),
        b2 in proptest::collection::vec(any::<u8>(), 8..32),
        seed in 0u64..500,
    ) {
        let (cat, sid, r, s) = catalog();
        let mut cs = ConstraintSet::new();
        cs.add_key(r, vec!["k".into()]);
        let e1 = random_uexpr(&b1, sid, r, s);
        let e2 = random_uexpr(&b2, sid, r, s);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::new(Some(2_000_000), None));
        ctx.gen.reserve(VarId(e1.max_var().max(e2.max_var()) + 1));
        let n1 = normalize_with(&e1, &mut ctx.gen);
        let n2 = normalize_with(&e2, &mut ctx.gen);
        let Ok(verdict) = udp_equiv(&mut ctx, &n1, &n2, &[]) else { return Ok(()) };
        if verdict {
            let interp =
                random_model(&cat, &cs, &DomainSpec { ints: vec![0, 1], strs: vec![] }, seed);
            let (v1, v2) = eval_both(&interp, sid, &e1, &e2);
            prop_assert_eq!(v1, v2, "UDP proved inequivalent expressions:\n{}\n{}", e1, e2);
        }
    }

    /// Completeness on syntactic clones: an alpha-renamed copy must always
    /// be proved equal.
    #[test]
    fn alpha_renamed_clones_always_prove(bytes in proptest::collection::vec(any::<u8>(), 8..40)) {
        let (cat, sid, r, s) = catalog();
        let cs = ConstraintSet::new();
        let e1 = random_uexpr(&bytes, sid, r, s);
        // Clone with shifted binder ids.
        let shift = e1.max_var() + 10;
        let e2 = {
            fn shift_expr(e: &UExpr, by: u32) -> UExpr {
                match e {
                    UExpr::Sum(v, s, body) => {
                        let nv = VarId(v.0 + by);
                        let shifted = shift_expr(body, by);
                        UExpr::sum(nv, *s, shifted.subst(*v, &Expr::Var(nv)))
                    }
                    UExpr::Add(a, b) => UExpr::add(shift_expr(a, by), shift_expr(b, by)),
                    UExpr::Mul(a, b) => UExpr::mul(shift_expr(a, by), shift_expr(b, by)),
                    UExpr::Squash(a) => UExpr::squash(shift_expr(a, by)),
                    UExpr::Not(a) => UExpr::not(shift_expr(a, by)),
                    other => other.clone(),
                }
            }
            shift_expr(&e1, shift)
        };
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::new(Some(5_000_000), None));
        ctx.gen.reserve(VarId(e1.max_var().max(e2.max_var()) + 1));
        let n1 = normalize_with(&e1, &mut ctx.gen);
        let n2 = normalize_with(&e2, &mut ctx.gen);
        let Ok(verdict) = udp_equiv(&mut ctx, &n1, &n2, &[]) else { return Ok(()) };
        prop_assert!(verdict, "failed to prove an alpha-renamed clone of {}", e1);
    }

    /// A shared aggregate body agrees with the owned body it wraps:
    /// substitution and attribute resolution (fast path or not) give the
    /// aggregate rebuilt from the body's own results, the cached metrics
    /// equal the body's, and equality, order and hashing see content only.
    #[test]
    fn shared_aggregate_bodies_agree_with_owned_ones(
        bytes in proptest::collection::vec(any::<u8>(), 8..40),
        other in proptest::collection::vec(any::<u8>(), 8..40),
        picks in proptest::collection::vec(any::<u8>(), 8..9),
    ) {
        let (_, sid, r, s) = catalog();
        for plant in 0..4 {
            let body = random_agg(&bytes, sid, r, s, plant);
            let agg = Expr::agg("sum", body.clone());
            let Expr::Agg(_, shared) = &agg else { unreachable!() };
            let pred = Pred::eq(Expr::var_attr(VarId(0), "a"), agg.clone());

            // Substitution under a random lookup: each variable up to the
            // body's watermark is kept, renamed fresh, or pinned to a record.
            let top = body.max_var();
            let fresh = top + 1;
            let lookup = |v: VarId| match picks[v.0 as usize % picks.len()] % 3 {
                _ if v.0 > top => None,
                0 => None,
                1 => Some(Expr::Var(VarId(fresh + v.0))),
                _ => Some(Expr::record(vec![
                    ("k".into(), Expr::int(v.0 as i64)),
                    ("a".into(), Expr::var_attr(VarId(fresh + v.0), "a")),
                ])),
            };
            let owned = Expr::agg("sum", body.subst_map(&lookup));
            prop_assert_eq!(&agg.subst_map(&lookup), &owned);
            prop_assert_eq!(
                pred.subst_map(&lookup),
                Pred::eq(Expr::var_attr(VarId(0), "a").subst_map(&lookup), owned)
            );

            // Attribute resolution, with a planted `Concat` resolving left.
            let left_has = |_: SchemaId, a: &str| Some(a == "a");
            let resolved = Expr::agg(
                "sum",
                body.map_exprs(&|e| e.clone().resolve_attr_with(&left_has)),
            );
            prop_assert_eq!(agg.clone().resolve_attr_with(&left_has), resolved);

            // Cached metrics equal the body's.
            prop_assert_eq!(agg.free_vars(), body.free_vars());
            prop_assert_eq!(shared.free_vars(), &body.free_vars());
            for v in 0..=top + 1 {
                prop_assert_eq!(agg.contains_var(VarId(v)), body.free_vars().contains(&VarId(v)));
            }
            prop_assert_eq!(agg.max_var_all(), body.max_var());
            prop_assert_eq!(agg.size(), 1 + body.size());
            prop_assert_eq!(
                agg.deep_size(),
                std::mem::size_of::<Expr>() + "sum".len() + body.deep_size()
            );

            // Two independently built equal aggregates are one value.
            let twin = Expr::agg("sum", body.clone());
            let Expr::Agg(_, twin_body) = &twin else { unreachable!() };
            prop_assert!(!AggBody::ptr_eq(shared, twin_body));
            prop_assert_eq!(&agg, &twin);
            prop_assert_eq!(agg.cmp(&twin), std::cmp::Ordering::Equal);
            prop_assert_eq!(content_hash(&agg), content_hash(&twin));

            // Distinct aggregates order as their bodies do.
            let body2 = random_agg(&other, sid, r, s, plant);
            prop_assert_eq!(agg.cmp(&Expr::agg("sum", body2.clone())), body.cmp(&body2));
            prop_assert_eq!(agg == Expr::agg("sum", body2.clone()), body == body2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Renaming binders at the leaves is invisible: on expressions whose
    /// `Σ`s rebind enclosing binders, whose aggregates mention them and
    /// whose negations cover products and sums, [`normalize`] gives the
    /// normal form that substituting at every `Σ` gives, drawing the same
    /// fresh ids.
    #[test]
    fn leaf_renaming_normalizes_like_substituting_at_every_sum(
        bytes in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let (_, sid, r, s) = catalog();
        let e = build_uexpr(&bytes, sid, r, s, true);
        let mut gen = VarGen::above(e.max_var() + 1);
        let expected = reference_normalize(&e, &mut gen);
        prop_assert_eq!(&normalize(&e), &expected, "{}", e);
        let mut gen2 = VarGen::above(e.max_var() + 1);
        normalize_with(&e, &mut gen2);
        prop_assert_eq!(gen2.watermark(), gen.watermark());
        // The same under `not`, and under a `Σ` rebinding `t0`.
        let wrapped = UExpr::not(UExpr::sum(VarId(0), sid, UExpr::mul(e.clone(), e.clone())));
        let mut gen = VarGen::above(wrapped.max_var() + 1);
        let expected = reference_normalize(&wrapped, &mut gen);
        prop_assert_eq!(&normalize(&wrapped), &expected, "{}", wrapped);
    }
}
