//! Brute-force oracles for the decision-procedure building blocks.
//!
//! Each component is checked against an exhaustive reference implementation
//! on small random inputs:
//!
//! * congruence closure vs. a fixpoint closure over a subterm-closed finite
//!   universe;
//! * homomorphism search vs. enumeration of all variable mappings
//!   (completeness) and Boolean-model containment (soundness);
//! * isomorphism search vs. ℕ-model equality (soundness).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use udp_core::budget::Budget;
use udp_core::congruence::Congruence;
use udp_core::ctx::Ctx;
use udp_core::expr::{Expr, Pred, VarId};
use udp_core::hom::{match_terms, MatchMode};
use udp_core::interp::{DomainSpec, Interp};
use udp_core::proof::random_model;
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::semiring::{Bools, USemiring};
use udp_core::spnf::{Atom, Term};

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

// ---------------------------------------------------------------- congruence

/// The ground-term universe for the congruence oracle: variables, their
/// attribute projections, constants, unary applications, records over the
/// field list `⟨k, a⟩` with their projections, and concatenations of one
/// schema — subterm-closed by construction.
fn universe() -> Vec<Expr> {
    let mut terms = Vec::new();
    for v in 0..3u32 {
        terms.push(Expr::Var(VarId(v)));
        for a in ["k", "a"] {
            terms.push(Expr::var_attr(VarId(v), a));
            terms.push(Expr::App("f".into(), vec![Expr::var_attr(VarId(v), a)]));
        }
    }
    for c in 0..2i64 {
        terms.push(Expr::int(c));
        terms.push(Expr::App("f".into(), vec![Expr::int(c)]));
    }
    for (k, a) in [
        (Expr::var_attr(VarId(0), "k"), Expr::var_attr(VarId(1), "a")),
        (Expr::var_attr(VarId(1), "k"), Expr::int(0)),
        (Expr::var_attr(VarId(2), "a"), Expr::var_attr(VarId(2), "k")),
    ] {
        let rec = Expr::record(vec![("k".into(), k), ("a".into(), a)]);
        terms.push(Expr::attr(rec.clone(), "k"));
        terms.push(Expr::attr(rec.clone(), "a"));
        terms.push(rec);
    }
    for (l, r) in [(0, 1), (2, 0)] {
        terms.push(Expr::Concat(
            Box::new(Expr::Var(VarId(l))),
            SchemaId(0),
            Box::new(Expr::Var(VarId(r))),
        ));
    }
    terms
}

/// The universe terms the tuple theories act on: variables, records and
/// concatenations.
fn tuple_terms(uni: &[Expr]) -> Vec<usize> {
    (0..uni.len())
        .filter(|&i| matches!(uni[i], Expr::Var(_) | Expr::Record(_) | Expr::Concat(..)))
        .collect()
}

/// A term's head symbol and its children, or `None` for a leaf.
fn head(e: &Expr) -> Option<(String, Vec<&Expr>)> {
    match e {
        Expr::Var(_) | Expr::Const(_) => None,
        Expr::Attr(base, a) => Some((format!(".{a}"), vec![base])),
        Expr::App(f, args) => Some((f.clone(), args.iter().collect())),
        Expr::Record(fields) => Some((
            format!("{:?}", fields.iter().map(|(n, _)| n).collect::<Vec<_>>()),
            fields.iter().map(|(_, e)| e).collect(),
        )),
        Expr::Concat(l, s, r) => Some((format!("++{}", s.0), vec![l, r])),
        Expr::Agg(..) => unreachable!("the universe holds no aggregate"),
    }
}

/// Reference closure: reflexive-symmetric-transitive closure of the asserted
/// pairs, plus, iterated to fixpoint over the universe:
/// * congruence: equal heads over pairwise-equal children are equal;
/// * record and concat injectivity: equal records of one field list, or
///   equal concatenations of one schema, have pairwise-equal children;
/// * projection alignment: `b ≈ ⟨…, a = e, …⟩ ⇒ b.a ≈ e`.
fn bruteforce_closure(uni: &[Expr], asserted: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let n = uni.len();
    let mut eq = vec![vec![false; n]; n];
    for (i, row) in eq.iter_mut().enumerate() {
        row[i] = true;
    }
    for &(i, j) in asserted {
        eq[i][j] = true;
        eq[j][i] = true;
    }
    let idx = |e: &Expr| {
        uni.iter()
            .position(|u| u == e)
            .expect("subterm-closed universe")
    };
    let heads: Vec<Option<(String, Vec<usize>)>> = uni
        .iter()
        .map(|e| head(e).map(|(h, cs)| (h, cs.into_iter().map(idx).collect())))
        .collect();
    let mut derived: Vec<(usize, usize)> = Vec::new();
    loop {
        // transitivity
        let mut changed = false;
        for i in 0..n {
            for j in 0..n {
                if !eq[i][j] {
                    continue;
                }
                for k in 0..n {
                    if eq[j][k] && !eq[i][k] {
                        eq[i][k] = true;
                        eq[k][i] = true;
                        changed = true;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let (Some((hi, ci)), Some((hj, cj))) = (&heads[i], &heads[j]) else {
                    continue;
                };
                if hi != hj || ci.len() != cj.len() {
                    continue;
                }
                // congruence
                if ci.iter().zip(cj).all(|(&a, &b)| eq[a][b]) {
                    derived.push((i, j));
                }
                // injectivity
                if eq[i][j] && matches!(uni[i], Expr::Record(_) | Expr::Concat(..)) {
                    derived.extend(ci.iter().copied().zip(cj.iter().copied()));
                }
            }
        }
        // projection alignment
        for (p, e) in uni.iter().enumerate() {
            let Expr::Attr(_, a) = e else { continue };
            let base = heads[p].as_ref().expect("a projection has a head").1[0];
            for (r, rec) in uni.iter().enumerate() {
                let Expr::Record(fields) = rec else { continue };
                if let Some(field) = fields.iter().position(|(name, _)| name == a) {
                    if eq[base][r] {
                        derived.push((p, heads[r].as_ref().expect("a record has a head").1[field]));
                    }
                }
            }
        }
        for (a, b) in derived.drain(..) {
            if !eq[a][b] {
                eq[a][b] = true;
                eq[b][a] = true;
                changed = true;
            }
        }
        if !changed {
            return eq;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The Nelson–Oppen engine agrees with the brute-force closure on every
    /// pair of universe terms. `tuple_pairs` equate variables, records and
    /// concatenations, so the tuple theories fire.
    #[test]
    fn congruence_matches_bruteforce(
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        tuple_pairs in proptest::collection::vec((0usize..16, 0usize..16), 0..3),
    ) {
        let uni = universe();
        let tuples = tuple_terms(&uni);
        let pairs: Vec<(usize, usize)> = pairs
            .into_iter()
            .map(|(i, j)| (i % uni.len(), j % uni.len()))
            .chain(
                tuple_pairs
                    .into_iter()
                    .map(|(i, j)| (tuples[i % tuples.len()], tuples[j % tuples.len()])),
            )
            .collect();
        let oracle = bruteforce_closure(&uni, &pairs);
        let mut cc = Congruence::new();
        for &(i, j) in &pairs {
            cc.assert_eq(&uni[i], &uni[j]);
        }
        for i in 0..uni.len() {
            for j in 0..uni.len() {
                let got = cc.same(&uni[i], &uni[j]);
                // The engine may know MORE than the finite-universe oracle
                // (e.g. via terms outside the universe), but ground
                // congruence closure needs only subterms, so on this
                // subterm-closed universe they must agree exactly.
                prop_assert_eq!(
                    got, oracle[i][j],
                    "congruence disagrees on {} ≈ {} (asserted {:?})",
                    &uni[i], &uni[j], &pairs
                );
            }
        }
    }
}

// -------------------------------------------------------------------- terms

/// A small random conjunctive-query term: bound variables `v1..=vn`, atoms
/// with variable arguments, equality predicates over attributes. `VarId(0)`
/// is the free output variable.
fn random_cq_term(bytes: &[u8], sid: SchemaId, rels: [RelId; 2]) -> Term {
    let mut pos = 0usize;
    let mut take = || {
        let b = bytes.get(pos).copied().unwrap_or(0);
        pos += 1;
        b
    };
    let nvars = 1 + (take() % 3) as u32;
    let vars: Vec<VarId> = (1..=nvars).map(VarId).collect();
    let mut t = Term::one();
    t.vars = vars.iter().map(|v| (*v, sid)).collect();
    let pick = |b: u8| -> VarId {
        let all: Vec<VarId> = std::iter::once(VarId(0))
            .chain(vars.iter().copied())
            .collect();
        all[b as usize % all.len()]
    };
    let natoms = 1 + (take() % 3);
    for _ in 0..natoms {
        let rel = rels[(take() % 2) as usize];
        t.atoms.push(Atom::new(rel, Expr::Var(pick(take()))));
    }
    let npreds = take() % 3;
    for _ in 0..npreds {
        let v1 = pick(take());
        let a1 = if take() % 2 == 0 { "k" } else { "a" };
        if take() % 2 == 0 {
            let v2 = pick(take());
            let a2 = if take() % 2 == 0 { "k" } else { "a" };
            t.preds
                .push(Pred::eq(Expr::var_attr(v1, a1), Expr::var_attr(v2, a2)));
        } else {
            t.preds.push(Pred::eq(
                Expr::var_attr(v1, a1),
                Expr::int((take() % 2) as i64),
            ));
        }
    }
    t
}

/// Brute-force homomorphism existence: try every mapping of the pattern's
/// bound variables to the target's bound variables (or the shared output
/// variable) and check syntactic atom membership + predicate membership.
fn bruteforce_hom_exists(pattern: &Term, target: &Term) -> bool {
    let pvars: Vec<VarId> = pattern.vars.iter().map(|(v, _)| *v).collect();
    let tvars: Vec<VarId> = std::iter::once(VarId(0))
        .chain(target.vars.iter().map(|(v, _)| *v))
        .collect();
    let target_preds: BTreeSet<Pred> = target.preds.iter().map(|p| p.clone().oriented()).collect();
    let target_atoms: BTreeSet<(RelId, Expr)> = target
        .atoms
        .iter()
        .map(|a| (a.rel, a.arg.clone()))
        .collect();
    let mut assignment = vec![0usize; pvars.len()];
    loop {
        let lookup: BTreeMap<VarId, VarId> = pvars
            .iter()
            .zip(&assignment)
            .map(|(v, i)| (*v, tvars[*i]))
            .collect();
        let map = |w: VarId| lookup.get(&w).map(|nv| Expr::Var(*nv));
        let atoms_ok = pattern.atoms.iter().all(|a| {
            let arg = a.arg.subst_map(&map);
            target_atoms.contains(&(a.rel, arg))
        });
        let preds_ok = pattern.preds.iter().all(|p| {
            let q = p.subst_map(&map).oriented();
            q.is_trivially_true() || target_preds.contains(&q)
        });
        if atoms_ok && preds_ok {
            return true;
        }
        // next assignment
        let mut i = 0;
        loop {
            if i == assignment.len() {
                return false;
            }
            assignment[i] += 1;
            if assignment[i] < tvars.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Evaluate a term's body (with binders) under a model, for each candidate
/// output tuple.
fn eval_term<S: USemiring + std::hash::Hash>(
    interp: &Interp<S>,
    sid: SchemaId,
    t: &Term,
) -> Vec<S> {
    let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
    domain
        .iter()
        .map(|out| {
            let env = BTreeMap::from([(VarId(0), out.clone())]);
            interp.eval_uexpr(&t.to_uexpr(), &env)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Completeness of the guided search: whenever the brute-force
    /// enumeration finds a variable-to-variable homomorphism, `match_terms`
    /// must find one too (its search space is a superset).
    #[test]
    fn hom_search_finds_every_bruteforce_witness(
        b1 in proptest::collection::vec(any::<u8>(), 8..24),
        b2 in proptest::collection::vec(any::<u8>(), 8..24),
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let pattern = random_cq_term(&b1, sid, [r, s]);
        let target = random_cq_term(&b2, sid, [r, s]);
        if bruteforce_hom_exists(&pattern, &target) {
            let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
            ctx.gen.reserve(VarId(64));
            ctx.declare_free(VarId(0), sid);
            let found = match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[])
                .unwrap_or(None);
            prop_assert!(
                found.is_some(),
                "brute force finds a hom but match_terms does not:\n  pattern {}\n  target {}",
                pattern, target
            );
        }
    }

    /// Soundness of homomorphisms: a hom pattern → target witnesses the
    /// set-semantics containment target ⊆ pattern. In the Boolean model,
    /// wherever the target is non-zero the pattern must be too.
    #[test]
    fn hom_witnesses_boolean_containment(
        b1 in proptest::collection::vec(any::<u8>(), 8..24),
        b2 in proptest::collection::vec(any::<u8>(), 8..24),
        fill in 0u8..255,
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let pattern = random_cq_term(&b1, sid, [r, s]);
        let target = random_cq_term(&b2, sid, [r, s]);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
        ctx.gen.reserve(VarId(64));
        ctx.declare_free(VarId(0), sid);
        let Ok(Some(_)) = match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[]) else {
            return Ok(());
        };
        let spec = DomainSpec { ints: vec![0, 1], strs: vec![] };
        let mut interp: Interp<Bools> = Interp::new(&cat, &spec);
        let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
        let rows = |offset: u8| {
            domain
                .iter()
                .enumerate()
                .filter(|(i, _)| (fill.wrapping_add(offset) >> (i % 8)) & 1 == 1)
                .map(|(_, t)| (t.clone(), Bools(true)))
                .collect::<Vec<_>>()
        };
        interp.set_relation(r, rows(0));
        interp.set_relation(s, rows(3));
        let pv = eval_term(&interp, sid, &pattern);
        let tv = eval_term(&interp, sid, &target);
        for (p, t) in pv.iter().zip(&tv) {
            prop_assert!(
                !(t.0 && !p.0),
                "hom exists but containment fails:\n  pattern {}\n  target {}",
                pattern, target
            );
        }
    }

    /// Soundness of isomorphisms: if `match_terms` reports an isomorphism,
    /// the two terms denote the same ℕ-valued function.
    #[test]
    fn iso_witnesses_nat_equality(
        b1 in proptest::collection::vec(any::<u8>(), 8..24),
        b2 in proptest::collection::vec(any::<u8>(), 8..24),
        seed in 0u64..500,
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let t1 = random_cq_term(&b1, sid, [r, s]);
        let t2 = random_cq_term(&b2, sid, [r, s]);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
        ctx.gen.reserve(VarId(64));
        let Ok(Some(_)) = match_terms(&mut ctx, &t1, &t2, MatchMode::Iso, &[]) else {
            return Ok(());
        };
        let interp = random_model(&cat, &cs, &DomainSpec { ints: vec![0, 1], strs: vec![] }, seed);
        let v1 = eval_term(&interp, sid, &t1);
        let v2 = eval_term(&interp, sid, &t2);
        prop_assert_eq!(v1, v2, "iso reported for ℕ-inequal terms:\n  {}\n  {}", t1, t2);
    }
}

// ------------------------------------------------------- pruned isomorphisms

/// A random self-join term: binders `base..base+n`, each with one atom (over
/// `R` three times out of four, so relations repeat and colour refinement
/// runs), and equalities between attributes, whole tuples, constants and
/// the free output tuple `VarId(0)`.
fn random_self_join(bytes: &[u8], base: u32, sid: SchemaId, rels: [RelId; 2]) -> Term {
    let mut pos = 0usize;
    let mut take = || {
        let b = bytes.get(pos).copied().unwrap_or(0);
        pos += 1;
        b
    };
    let n = 2 + u32::from(take() % 3);
    let mut t = Term::one();
    t.vars = (base..base + n).map(|v| (VarId(v), sid)).collect();
    for v in base..base + n {
        let rel = rels[usize::from(take() % 4 == 0)];
        t.atoms.push(Atom::new(rel, Expr::Var(VarId(v))));
    }
    let attr = |b: u8| if b % 2 == 0 { "k" } else { "a" };
    for _ in 0..take() % 6 {
        let x = VarId(base + u32::from(take()) % n);
        let y = VarId(base + u32::from(take()) % n);
        let p = match take() % 5 {
            0 | 1 => Pred::eq(
                Expr::var_attr(x, attr(take())),
                Expr::var_attr(y, attr(take())),
            ),
            2 => Pred::eq(Expr::Var(x), Expr::Var(y)),
            3 => Pred::eq(
                Expr::var_attr(x, attr(take())),
                Expr::int(i64::from(take() % 2)),
            ),
            _ => Pred::eq(
                Expr::var_attr(x, attr(take())),
                Expr::var_attr(VarId(0), attr(take())),
            ),
        };
        t.preds.push(p);
    }
    t
}

/// The target for a pattern: usually a renamed copy (binders permuted,
/// predicates reversed and flipped), sometimes with one predicate altered,
/// otherwise an independent random term.
fn random_counterpart(pattern: &Term, bytes: &[u8], sid: SchemaId, rels: [RelId; 2]) -> Term {
    let kind = bytes.first().copied().unwrap_or(0) % 4;
    if kind == 3 {
        return random_self_join(&bytes[1..], 20, sid, rels);
    }
    let n = pattern.vars.len();
    let shift = usize::from(bytes.get(1).copied().unwrap_or(0));
    let rename: BTreeMap<VarId, Expr> = pattern
        .vars
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (*v, Expr::Var(VarId(20 + ((i + shift) % n) as u32))))
        .collect();
    let map = |w: VarId| rename.get(&w).cloned();
    let mut t = pattern.subst_map(&map);
    t.vars = pattern
        .vars
        .iter()
        .map(|(v, s)| {
            let Some(Expr::Var(w)) = rename.get(v) else {
                unreachable!()
            };
            (*w, *s)
        })
        .collect();
    t.preds.reverse();
    for p in t.preds.iter_mut() {
        if let Pred::Eq(a, b) = p {
            *p = Pred::eq(b.clone(), a.clone());
        }
    }
    if kind == 1 && !t.preds.is_empty() {
        // A redundant copy: same closure, one predicate more.
        let p = t.preds[shift % t.preds.len()].clone();
        t.preds.push(p);
    }
    if kind == 2 {
        let extra = random_self_join(&bytes[2..], 20, sid, rels);
        match (t.preds.is_empty(), extra.preds.first()) {
            (false, Some(p)) => t.preds[0] = p.clone(),
            (_, Some(p)) => t.preds.push(p.clone()),
            _ => t.preds.clear(),
        }
    }
    t
}

/// Is `sigma` (pattern binder ↦ target binder) an isomorphism? Atoms map
/// exactly and, with the ambient predicates, the predicate sets entail each
/// other under congruence.
fn is_isomorphism(
    ctx: &Ctx,
    pattern: &Term,
    target: &Term,
    ambient: &[Pred],
    sigma: &BTreeMap<VarId, VarId>,
) -> bool {
    let map = |w: VarId| sigma.get(&w).map(|x| Expr::Var(*x));
    let mut mapped_atoms: Vec<Atom> = pattern
        .atoms
        .iter()
        .map(|a| Atom::new(a.rel, a.arg.subst_map(&map)))
        .collect();
    let mut target_atoms = target.atoms.clone();
    mapped_atoms.sort();
    target_atoms.sort();
    if mapped_atoms != target_atoms {
        return false;
    }
    let mapped: Vec<Pred> = pattern.preds.iter().map(|p| p.subst_map(&map)).collect();
    let entails_all = |from: &[Pred], to: &[Pred]| {
        let pool: Vec<Pred> = from.iter().chain(ambient).cloned().collect();
        let mut cc = Congruence::new();
        cc.assert_preds(pool.iter());
        to.iter()
            .all(|p| udp_core::hom::entails_pred(ctx, &mut cc, &pool, p))
    };
    entails_all(&target.preds, &mapped) && entails_all(&mapped, &target.preds)
}

/// Brute force: does any bijection of binders make an isomorphism?
fn bruteforce_iso_exists(ctx: &Ctx, pattern: &Term, target: &Term, ambient: &[Pred]) -> bool {
    fn go(
        ctx: &Ctx,
        (pattern, target, ambient): (&Term, &Term, &[Pred]),
        sigma: &mut BTreeMap<VarId, VarId>,
        used: &mut Vec<bool>,
    ) -> bool {
        let i = sigma.len();
        if i == pattern.vars.len() {
            return is_isomorphism(ctx, pattern, target, ambient, sigma);
        }
        let (v, s) = pattern.vars[i];
        for (j, (w, ts)) in target.vars.iter().enumerate() {
            if used[j] || *ts != s {
                continue;
            }
            used[j] = true;
            sigma.insert(v, *w);
            if go(ctx, (pattern, target, ambient), sigma, used) {
                return true;
            }
            sigma.remove(&v);
            used[j] = false;
        }
        false
    }
    let mut used = vec![false; target.vars.len()];
    pattern.vars.len() == target.vars.len()
        && go(
            ctx,
            (pattern, target, ambient),
            &mut BTreeMap::new(),
            &mut used,
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Colour-refinement pruning discards no isomorphism: the pruned
    /// matcher finds one exactly when some bijection of binders is one, and
    /// what it finds is one.
    #[test]
    fn pruned_iso_search_agrees_with_every_bijection(
        b1 in proptest::collection::vec(any::<u8>(), 24..40),
        b2 in proptest::collection::vec(any::<u8>(), 24..40),
        context in 0u8..3,
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let pattern = random_self_join(&b1, 1, sid, [r, s]);
        let mut target = random_counterpart(&pattern, &b2, sid, [r, s]);
        let out = |a: &str| Expr::var_attr(VarId(0), a);
        let ambient = match context {
            0 => vec![],
            1 => vec![Pred::eq(out("a"), out("k"))],
            _ => vec![Pred::eq(out("k"), Expr::int(1))],
        };
        if context == 1 {
            // Equal under the ambient context, but not syntactically.
            let swap = |e: &Expr| if *e == out("a") { out("k") } else { e.clone() };
            target.preds = target.preds.iter().map(|p| p.map_exprs(&swap)).collect();
        }
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(VarId(64));
        let expected = bruteforce_iso_exists(&ctx, &pattern, &target, &ambient);
        let found = match_terms(&mut ctx, &pattern, &target, MatchMode::Iso, &ambient).unwrap();
        prop_assert_eq!(
            found.is_some(), expected,
            "pruned matcher and brute force disagree:\n  pattern {}\n  target {}",
            pattern, target
        );
        if let Some(mapping) = found {
            let sigma: BTreeMap<VarId, VarId> = mapping
                .into_iter()
                .map(|(v, e)| match e {
                    Expr::Var(w) => (v, w),
                    other => panic!("iso maps {v} to non-variable {other}"),
                })
                .collect();
            prop_assert!(is_isomorphism(&ctx, &pattern, &target, &ambient, &sigma));
        }
    }
}
