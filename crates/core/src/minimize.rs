//! Term minimization (the `minimize` procedure of SDP, Alg 4).
//!
//! Inside a squash, a term denotes a conjunctive query under set semantics;
//! SDP minimizes each term to its *core* using only U-semiring axioms
//! (the paper walks the `R x, R y` example in Ex 5.2: excluded middle splits
//! the sum, Eq. (15) merges the diagonal, and axioms (10)/(4) absorb the
//! off-diagonal part). Operationally this is the classical CQ core
//! computation: repeatedly fold a summation variable onto another via a
//! self-homomorphism, then collapse congruent duplicate factors.

use crate::budget::Exhausted;
use crate::canonize::build_congruence;
use crate::congruence::Congruence;
use crate::ctx::Ctx;
use crate::expr::{Expr, Pred, VarId};
use crate::hom::entails_pred;
use crate::spnf::{Nf, Term};
use crate::trace::{Rule, StepData};

/// Minimize a term under set semantics (only valid inside a squash).
/// `ambient` carries enclosing equalities.
pub fn minimize_term(ctx: &mut Ctx, mut t: Term, ambient: &[Pred]) -> Result<Term, Exhausted> {
    if !ctx.opts.minimize {
        return Ok(t);
    }
    'outer: loop {
        ctx.budget.tick()?;
        let mut cc = build_congruence(ctx, &t, ambient);
        dedupe_atoms(ctx, &mut t, &mut cc)?;

        for i in 0..t.vars.len() {
            let (u, su) = t.vars[i];
            for j in 0..t.vars.len() {
                ctx.budget.tick()?;
                if i == j {
                    continue;
                }
                let (w, sw) = t.vars[j];
                if su != sw {
                    continue;
                }
                if fold_ok(ctx, &t, &mut cc, ambient, u, w)? {
                    let before = if ctx.trace.is_enabled() {
                        Some(t.clone())
                    } else {
                        None
                    };
                    t.vars.remove(i);
                    t = t.subst(u, &Expr::Var(w));
                    t.simplify_preds();
                    if let Some(before) = before {
                        // Minimization is a set-semantics identity: record
                        // both sides under a squash.
                        let after = t.clone();
                        ctx.trace.record(Rule::Minimize, || StepData::TermRewrite {
                            before: Term::squash_of(Nf {
                                terms: vec![before],
                            }),
                            after: vec![Term::squash_of(Nf { terms: vec![after] })],
                            ambient: ambient.to_vec(),
                        });
                    }
                    continue 'outer;
                }
            }
        }
        break;
    }
    t.sort_factors();
    Ok(t)
}

/// Collapse congruent duplicate atoms (valid under squash: `‖x·x‖ = ‖x‖`).
fn dedupe_atoms(ctx: &mut Ctx, t: &mut Term, cc: &mut Congruence) -> Result<(), Exhausted> {
    let mut i = 0;
    while i < t.atoms.len() {
        let mut j = i + 1;
        while j < t.atoms.len() {
            ctx.budget.tick()?;
            if t.atoms[i].rel == t.atoms[j].rel {
                let (a, b) = (t.atoms[i].arg.clone(), t.atoms[j].arg.clone());
                if a == b || (ctx.opts.congruence && cc.same(&a, &b)) {
                    t.atoms.remove(j);
                    continue;
                }
            }
            j += 1;
        }
        i += 1;
    }
    Ok(())
}

/// Is `u ↦ w` a self-homomorphism of `t`? Every atom and predicate mentioning
/// `u` must map (modulo the term's own congruence) onto an existing factor;
/// nested squash/negation factors must not mention `u` (conservative).
fn fold_ok(
    ctx: &mut Ctx,
    t: &Term,
    cc: &mut Congruence,
    ambient: &[Pred],
    u: VarId,
    w: VarId,
) -> Result<bool, Exhausted> {
    if let Some(nf) = &t.squash {
        if nf.free_vars().contains(&u) {
            return Ok(false);
        }
    }
    if let Some(nf) = &t.negation {
        if nf.free_vars().contains(&u) {
            return Ok(false);
        }
    }
    let target = Expr::Var(w);
    // Atoms: the mapped atom must exist among the term's atoms.
    for a in &t.atoms {
        ctx.budget.tick()?;
        if !a.arg.contains_var(u) {
            continue;
        }
        let mapped = a.arg.subst(u, &target);
        let found = t.atoms.iter().any(|b| {
            b.rel == a.rel
                && !b.arg.contains_var(u)
                && (b.arg == mapped || (ctx.opts.congruence && cc.same(&b.arg, &mapped)))
        });
        if !found {
            return Ok(false);
        }
    }
    // Predicates: the mapped predicate must be implied by the term itself.
    let pool: Vec<Pred> = t.preds.iter().chain(ambient.iter()).cloned().collect();
    for p in &t.preds {
        if !p.contains_var(u) {
            continue;
        }
        let mapped = p.subst_map(&|x| if x == u { Some(target.clone()) } else { None });
        if !entails_pred(ctx, cc, &pool, &mapped) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::constraints::ConstraintSet;
    use crate::schema::{Catalog, RelId, Schema, SchemaId, Ty};
    use crate::spnf::Atom;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn setup() -> (Catalog, ConstraintSet) {
        let mut cat = Catalog::new();
        let s = cat
            .add_schema(Schema::new("s", vec![("a".into(), Ty::Int)], false))
            .unwrap();
        cat.add_relation("R", s).unwrap();
        cat.add_relation("S", s).unwrap();
        (cat, ConstraintSet::new())
    }

    fn atom(r: u32, x: u32) -> Atom {
        Atom::new(RelId(r), Expr::Var(v(x)))
    }

    /// Ex 5.2: `DISTINCT x.a FROM R x, R y` minimizes to a single R atom.
    #[test]
    fn redundant_self_join_folds() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t = Term {
            vars: vec![(v(1), SchemaId(0)), (v(2), SchemaId(0))],
            preds: vec![Pred::eq(
                Expr::var_attr(v(1), "a"),
                Expr::var_attr(v(0), "a"),
            )],
            squash: None,
            negation: None,
            atoms: vec![atom(0, 1), atom(0, 2)],
        };
        let m = minimize_term(&mut ctx, t, &[]).unwrap();
        assert_eq!(m.atoms.len(), 1, "minimized: {m}");
        assert_eq!(m.vars.len(), 1);
    }

    /// The head variable cannot be folded away: `DISTINCT x.a FROM R x, R y
    /// WHERE p(y.a)` keeps both atoms only if y is needed… here y is
    /// foldable only when its predicates survive.
    #[test]
    fn fold_blocked_by_unmatched_predicate() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t = Term {
            vars: vec![(v(1), SchemaId(0)), (v(2), SchemaId(0))],
            preds: vec![
                Pred::eq(Expr::var_attr(v(1), "a"), Expr::var_attr(v(0), "a")),
                Pred::lift("p", vec![Expr::var_attr(v(2), "a")]),
            ],
            squash: None,
            negation: None,
            atoms: vec![atom(0, 1), atom(0, 2)],
        };
        let m = minimize_term(&mut ctx, t, &[]).unwrap();
        // y (v2) carries p(y.a) which x does not satisfy; folding y→x would
        // need p(x.a). Not implied → both atoms stay.
        assert_eq!(m.atoms.len(), 2, "not minimizable: {m}");
    }

    #[test]
    fn fold_allowed_when_predicate_implied() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        // x also satisfies p → y folds onto x.
        let t = Term {
            vars: vec![(v(1), SchemaId(0)), (v(2), SchemaId(0))],
            preds: vec![
                Pred::eq(Expr::var_attr(v(1), "a"), Expr::var_attr(v(0), "a")),
                Pred::lift("p", vec![Expr::var_attr(v(1), "a")]),
                Pred::lift("p", vec![Expr::var_attr(v(2), "a")]),
            ],
            squash: None,
            negation: None,
            atoms: vec![atom(0, 1), atom(0, 2)],
        };
        let m = minimize_term(&mut ctx, t, &[]).unwrap();
        assert_eq!(m.atoms.len(), 1, "minimized: {m}");
    }

    #[test]
    fn different_relations_do_not_fold() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t = Term {
            vars: vec![(v(1), SchemaId(0)), (v(2), SchemaId(0))],
            preds: vec![],
            squash: None,
            negation: None,
            atoms: vec![atom(0, 1), atom(1, 2)],
        };
        let m = minimize_term(&mut ctx, t, &[]).unwrap();
        assert_eq!(m.atoms.len(), 2);
    }

    #[test]
    fn chain_of_three_folds_to_one() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        let t = Term {
            vars: vec![
                (v(1), SchemaId(0)),
                (v(2), SchemaId(0)),
                (v(3), SchemaId(0)),
            ],
            preds: vec![],
            squash: None,
            negation: None,
            atoms: vec![atom(0, 1), atom(0, 2), atom(0, 3)],
        };
        let m = minimize_term(&mut ctx, t, &[]).unwrap();
        assert_eq!(m.atoms.len(), 1);
        assert_eq!(m.vars.len(), 1);
    }

    #[test]
    fn minimize_disabled_by_option() {
        let (cat, cs) = setup();
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::unlimited());
        ctx.opts.minimize = false;
        let t = Term {
            vars: vec![(v(1), SchemaId(0)), (v(2), SchemaId(0))],
            preds: vec![],
            squash: None,
            negation: None,
            atoms: vec![atom(0, 1), atom(0, 2)],
        };
        let m = minimize_term(&mut ctx, t, &[]).unwrap();
        assert_eq!(m.atoms.len(), 2);
    }
}
