//! Colour refinement (1-WL) of a term's bound variables over the congruence
//! classes of its equalities — an isomorphism invariant that prunes TDP's
//! bijection search (Alg 3).
//!
//! Each term's closure is built from the ambient context plus its own
//! equality predicates, over the nodes `Var(x)` and `x.a` for every bound
//! variable `x` and every attribute name `a` in play, plus a shared list of
//! *anchors*: the subterms of either side's predicates, atom arguments and
//! ambient context that mention no bound variable (constants, the output
//! tuple `t0.v`, enclosing binders). Then:
//!
//! * a variable starts with the colour of its schema;
//! * a class gets the colour of the sorted multiset of its `(variable
//!   colour, attribute)` members, the anchors it contains, and the
//!   relations of the atoms whose argument lies in it;
//! * a variable's next colour hashes its colour with the colours of the
//!   classes of `Var(x)` and of each `x.a`;
//!
//! until the number of distinct variable colours stops growing.
//!
//! **Soundness.** An isomorphism accepted by the matcher makes the two
//! predicate sets mutually entailing, so the two closures coincide after
//! renaming, and it pairs the atoms bijectively modulo that closure. Every
//! ingredient of a colour is therefore carried across by the isomorphism, and
//! so is the round at which refinement stops: a variable and its image have
//! equal colours. Pruning a pairing whose colours differ discards no
//! isomorphism; a hash collision can only merge colours, which weakens the
//! pruning but never makes it wrong.
//!
//! Refinement is switched off (no pruning) under the congruence ablation,
//! when any predicate carries an aggregate (the matcher merges semantically
//! equal aggregates, which the syntactic closure cannot see), and for a term
//! with no repeated relation among its atoms, where the search has nothing
//! to branch on.

use crate::budget::Exhausted;
use crate::congruence::Congruence;
use crate::ctx::Ctx;
use crate::expr::{Expr, Pred, VarId};
use crate::schema::{RelId, SchemaId};
use crate::spnf::Term;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// The refined colours of one term's bound variables.
#[derive(Debug, Clone)]
pub(crate) struct Colouring {
    /// One colour per binder, aligned with `Term::vars` (so positional
    /// alpha-renaming keeps it valid).
    colours: Vec<u64>,
    /// The colours, sorted: equal for isomorphic terms.
    signature: Vec<u64>,
}

impl Colouring {
    /// Colour of the binder at position `i` of `Term::vars`.
    pub(crate) fn colour(&self, i: usize) -> u64 {
        self.colours[i]
    }

    /// The sorted colour multiset, an isomorphism invariant of the term.
    pub(crate) fn signature(&self) -> &[u64] {
        &self.signature
    }
}

/// Colour every term of `terms` against one shared attribute and anchor
/// list, so any two of the colourings are comparable. A term gets `None`
/// when refinement is off for it (see the module docs); every term gets
/// `None` when it is off for the whole set.
pub(crate) fn colour_terms(
    ctx: &mut Ctx,
    terms: &[&Term],
    ambient: &[Pred],
) -> Result<Vec<Option<Colouring>>, Exhausted> {
    let mut out = Vec::with_capacity(terms.len());
    let palette = if ctx.opts.congruence && terms.iter().any(|t| repeats_relation(t)) {
        Palette::new(ctx, terms, ambient)
    } else {
        None
    };
    for t in terms {
        out.push(match &palette {
            Some(p) if repeats_relation(t) => Some(p.colour(ctx, t, ambient)?),
            _ => None,
        });
    }
    Ok(out)
}

fn repeats_relation(t: &Term) -> bool {
    let mut rels: Vec<RelId> = t.atoms.iter().map(|a| a.rel).collect();
    rels.sort_unstable();
    rels.windows(2).any(|w| w[0] == w[1])
}

/// What every colouring of one comparison shares.
struct Palette {
    /// Attribute names of the binders' schemas and of every projection in
    /// the predicates, sorted.
    attrs: Vec<String>,
    /// Subterms mentioning no bound variable, sorted and deduplicated.
    anchors: Vec<Expr>,
}

impl Palette {
    /// `None` when some predicate carries an aggregate, or a variable bound
    /// by one term occurs outside it (the closures could then conflate it
    /// with another term's free variable).
    fn new(ctx: &Ctx, terms: &[&Term], ambient: &[Pred]) -> Option<Palette> {
        let bound: BTreeSet<VarId> = terms
            .iter()
            .flat_map(|t| t.vars.iter().map(|(v, _)| *v))
            .collect();
        let mut attrs = BTreeSet::new();
        let mut anchors = BTreeSet::new();
        let mut scan = |e: &Expr, own: &[(VarId, SchemaId)]| -> bool {
            let mut vars = BTreeSet::new();
            e.collect_vars(&mut vars);
            let foreign = vars
                .iter()
                .any(|v| bound.contains(v) && !own.iter().any(|(w, _)| w == v));
            !foreign && walk(e, &bound, &mut attrs, &mut anchors).is_some()
        };
        for t in terms {
            for e in t.preds.iter().flat_map(pred_exprs) {
                if !scan(e, &t.vars) {
                    return None;
                }
            }
            for a in &t.atoms {
                if !scan(&a.arg, &t.vars) {
                    return None;
                }
            }
        }
        for e in ambient.iter().flat_map(pred_exprs) {
            if !scan(e, &[]) {
                return None;
            }
        }
        for t in terms {
            for (_, s) in &t.vars {
                attrs.extend(ctx.catalog.schema(*s).attrs.iter().map(|(n, _)| n.clone()));
            }
        }
        Some(Palette {
            attrs: attrs.into_iter().collect(),
            anchors: anchors.into_iter().collect(),
        })
    }

    fn colour(&self, ctx: &mut Ctx, t: &Term, ambient: &[Pred]) -> Result<Colouring, Exhausted> {
        let n = t.vars.len();
        let m = self.attrs.len();
        let mut cc = Congruence::with_recorder(ctx.recorder.clone());
        cc.assert_preds(ambient.iter());
        cc.assert_preds(t.preds.iter());
        // Intern every node first: interning may merge classes (record
        // projections), so roots are read only once the closure is complete.
        let mut var_nodes = Vec::with_capacity(n * (m + 1));
        for (v, _) in &t.vars {
            var_nodes.push(cc.intern(&Expr::Var(*v)));
            for a in &self.attrs {
                var_nodes.push(cc.intern(&Expr::var_attr(*v, a.clone())));
            }
        }
        let anchor_nodes: Vec<usize> = self.anchors.iter().map(|e| cc.intern(e)).collect();
        let atom_nodes: Vec<usize> = t.atoms.iter().map(|a| cc.intern(&a.arg)).collect();

        let mut dense: HashMap<usize, usize> = HashMap::new();
        let mut class = |node: usize| {
            let next = dense.len();
            *dense.entry(cc.class_of_node(node)).or_insert(next)
        };
        // slots[x * (m + 1) + s]: the class of `Var(x)` (s = 0) or of
        // `x.attrs[s - 1]`.
        let slots: Vec<usize> = var_nodes.iter().map(|&nd| class(nd)).collect();
        let anchor_classes: Vec<usize> = anchor_nodes.iter().map(|&nd| class(nd)).collect();
        let atom_classes: Vec<usize> = atom_nodes.iter().map(|&nd| class(nd)).collect();
        let k = dense.len();

        // The round-independent part of each class colour.
        let mut fixed: Vec<(Vec<usize>, Vec<RelId>)> = vec![(Vec::new(), Vec::new()); k];
        for (i, &c) in anchor_classes.iter().enumerate() {
            fixed[c].0.push(i);
        }
        for (a, &c) in t.atoms.iter().zip(&atom_classes) {
            fixed[c].1.push(a.rel);
        }
        let fixed: Vec<u64> = fixed
            .into_iter()
            .map(|(anchors, mut rels)| {
                rels.sort_unstable();
                hash(&(anchors, rels))
            })
            .collect();

        let mut colours: Vec<u64> = t.vars.iter().map(|(_, s)| hash(s)).collect();
        let mut distinct = count_distinct(&colours);
        let mut members: Vec<Vec<(u64, usize)>> = vec![Vec::new(); k];
        loop {
            ctx.budget.tick()?;
            members.iter_mut().for_each(Vec::clear);
            for (i, &c) in slots.iter().enumerate() {
                members[c].push((colours[i / (m + 1)], i % (m + 1)));
            }
            let class_colours: Vec<u64> = members
                .iter_mut()
                .zip(&fixed)
                .map(|(ms, f)| {
                    ms.sort_unstable();
                    hash(&(f, &*ms))
                })
                .collect();
            let next: Vec<u64> = (0..n)
                .map(|x| {
                    let row: Vec<u64> = slots[x * (m + 1)..(x + 1) * (m + 1)]
                        .iter()
                        .map(|&c| class_colours[c])
                        .collect();
                    hash(&(colours[x], row))
                })
                .collect();
            let now = count_distinct(&next);
            colours = next;
            if now <= distinct {
                break;
            }
            distinct = now;
        }
        let mut signature = colours.clone();
        signature.sort_unstable();
        Ok(Colouring { colours, signature })
    }
}

fn pred_exprs(p: &Pred) -> Vec<&Expr> {
    match p {
        Pred::Eq(a, b) | Pred::Ne(a, b) => vec![a, b],
        Pred::Lift { args, .. } => args.iter().collect(),
    }
}

/// Collect projected attribute names and bound-variable-free subterms of
/// `e`. Returns whether `e` mentions a bound variable, or `None` when it
/// holds an aggregate.
fn walk(
    e: &Expr,
    bound: &BTreeSet<VarId>,
    attrs: &mut BTreeSet<String>,
    anchors: &mut BTreeSet<Expr>,
) -> Option<bool> {
    let (mut mentions, children): (bool, Vec<&Expr>) = match e {
        Expr::Agg(..) => return None,
        Expr::Var(v) => (bound.contains(v), vec![]),
        Expr::Const(_) => (false, vec![]),
        Expr::Attr(b, a) => {
            attrs.insert(a.clone());
            (false, vec![b])
        }
        Expr::App(_, args) => (false, args.iter().collect()),
        Expr::Record(fs) => (false, fs.iter().map(|(_, x)| x).collect()),
        Expr::Concat(l, _, r) => (false, vec![l, r]),
    };
    for c in children {
        mentions |= walk(c, bound, attrs, anchors)?;
    }
    if !mentions {
        anchors.insert(e.clone());
    }
    Some(mentions)
}

fn hash<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

fn count_distinct(colours: &[u64]) -> usize {
    colours.iter().collect::<BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::constraints::ConstraintSet;
    use crate::ctx::Options;
    use crate::hom::{match_terms, MatchMode};
    use crate::schema::{Catalog, Schema, Ty};
    use crate::spnf::Atom;
    use crate::uexpr::UExpr;

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
        (cat, ConstraintSet::new())
    }

    /// `Σ_vars R(v)…` with the given predicates (all atoms over `R`).
    fn term(vars: &[u32], preds: Vec<Pred>) -> Term {
        Term {
            vars: vars.iter().map(|&i| (v(i), SchemaId(0))).collect(),
            preds,
            squash: None,
            negation: None,
            atoms: vars
                .iter()
                .map(|&i| Atom::new(RelId(0), Expr::Var(v(i))))
                .collect(),
        }
    }

    fn eq(x: u32, a: &str, y: u32, b: &str) -> Pred {
        Pred::eq(Expr::var_attr(v(x), a), Expr::var_attr(v(y), b))
    }

    /// A three-way cycle over `attr` on binders `base..base+3`, its first
    /// binder projected to the output `t0.a`.
    fn anchored_cycle(base: u32, attr: &str) -> Term {
        let mut preds = vec![eq(0, "a", base, "a")];
        for i in 0..3 {
            preds.push(eq(base + i, attr, base + (i + 1) % 3, attr));
        }
        term(&[base, base + 1, base + 2], preds)
    }

    fn signatures(ctx: &mut Ctx, terms: &[&Term]) -> Vec<Option<Vec<u64>>> {
        colour_terms(ctx, terms, &[])
            .unwrap()
            .into_iter()
            .map(|c| c.map(|c| c.signature().to_vec()))
            .collect()
    }

    #[test]
    fn refinement_separates_cycles_over_different_attributes() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs);
        let (a, b, c) = (
            anchored_cycle(1, "k"),
            anchored_cycle(11, "k"),
            anchored_cycle(21, "a"),
        );
        let sigs = signatures(&mut ctx, &[&a, &b, &c]);
        assert!(sigs.iter().all(Option::is_some));
        assert_eq!(sigs[0], sigs[1], "a renamed copy keeps its colours");
        assert_ne!(sigs[0], sigs[2]);
        // The anchored binder is told apart from the other two.
        let colours = colour_terms(&mut ctx, &[&a], &[]).unwrap()[0]
            .clone()
            .unwrap();
        assert_ne!(colours.colour(0), colours.colour(1));
        assert_eq!(colours.colour(1), colours.colour(2));
    }

    #[test]
    fn terms_without_a_repeated_relation_are_not_coloured() {
        let (mut cat, cs) = setup();
        cat.add_relation("S", SchemaId(0)).unwrap();
        let mut t = anchored_cycle(1, "k");
        t.atoms[1].rel = RelId(1);
        t.atoms[2].rel = RelId(1);
        t.atoms.pop();
        let mut ctx = Ctx::new(&cat, &cs);
        assert_eq!(signatures(&mut ctx, &[&t]), vec![None]);
    }

    #[test]
    fn congruence_ablation_disables_refinement() {
        let (cat, cs) = setup();
        let opts = Options {
            congruence: false,
            ..Options::default()
        };
        let mut ctx = Ctx::new(&cat, &cs).with_options(opts);
        let (a, b) = (anchored_cycle(1, "k"), anchored_cycle(21, "a"));
        assert_eq!(signatures(&mut ctx, &[&a, &b]), vec![None, None]);
    }

    /// `verify` merges semantically equal aggregates that differ in syntax,
    /// which the closure cannot see: with an aggregate anywhere, no term is
    /// coloured, and the isomorphism is still found.
    #[test]
    fn aggregates_disable_refinement() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(v(64));
        let agg = |z: u32, flipped: bool| {
            let (l, r) = (Expr::var_attr(v(z), "k"), Expr::var_attr(v(0), "k"));
            let (l, r) = if flipped { (r, l) } else { (l, r) };
            let body = UExpr::mul(UExpr::rel(RelId(0), Expr::Var(v(z))), UExpr::eq(l, r));
            Expr::agg("sum", UExpr::sum(v(z), SchemaId(0), body))
        };
        let pattern = term(
            &[1, 2],
            vec![Pred::eq(Expr::var_attr(v(1), "a"), agg(30, false))],
        );
        let target = term(
            &[11, 12],
            vec![Pred::eq(Expr::var_attr(v(12), "a"), agg(31, true))],
        );
        assert_eq!(signatures(&mut ctx, &[&pattern, &target]), vec![None, None]);
        assert!(
            match_terms(&mut ctx, &pattern, &target, MatchMode::Iso, &[])
                .unwrap()
                .is_some()
        );
    }

    /// A homomorphism may send variables of different colours to one
    /// target variable: Hom mode is never pruned.
    #[test]
    fn hom_mode_is_not_pruned() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(v(64));
        // pattern: R(x1) R(x2) [x1.a = 1]; target: R(y) R(z) [y.a = 1] [z.a = 1].
        let one = |x: u32| Pred::eq(Expr::var_attr(v(x), "a"), Expr::int(1));
        let pattern = term(&[1, 2], vec![one(1)]);
        let target = term(&[11, 12], vec![one(11), one(12)]);
        let sigs = signatures(&mut ctx, &[&pattern, &target]);
        assert_ne!(sigs[0], sigs[1], "x2 is coloured apart from y and z");
        assert!(
            match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[])
                .unwrap()
                .is_some()
        );
    }
}
