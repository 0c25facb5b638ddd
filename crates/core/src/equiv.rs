//! The three mutually recursive decision procedures:
//!
//! * [`udp_equiv`] — Algorithm 2 (UDP): canonize both normal forms, then
//!   search for a permutation pairing their terms via TDP.
//! * [`tdp_equiv`] — Algorithm 3 (TDP): isomorphism between two terms (a
//!   bijection of summation variables validated by congruence closure and
//!   recursive factor equivalence).
//! * [`sdp_equiv`] — Algorithm 4 (SDP): equivalence of squashed expressions,
//!   i.e. UCQ set-semantics equivalence — flatten nested squashes
//!   (Lemma 5.1), canonize, then check mutual containment by homomorphisms
//!   \[47\]. Unlike Alg 4, terms are not first minimized to their cores:
//!   a CQ maps homomorphically into another exactly when its core does, so
//!   the test is complete without them and minimizing only spends steps.

use crate::budget::Exhausted;
use crate::canonize::canonize_nf;
use crate::colour::{colour_terms, Colouring};
use crate::ctx::Ctx;
use crate::expr::Pred;
use crate::hom::{match_terms, match_terms_with, Colours, MatchMode};
use crate::spnf::{Nf, Term};
use crate::trace::{Rule, StepData};

/// Algorithm 2: are `a` and `b` U-equivalent given the context's
/// constraints? Inputs are SPNF normal forms (not yet canonized).
pub fn udp_equiv(ctx: &mut Ctx, a: &Nf, b: &Nf, ambient: &[Pred]) -> Result<bool, Exhausted> {
    let ca = canonize_nf(ctx, a.clone(), ambient, false)?;
    let cb = canonize_nf(ctx, b.clone(), ambient, false)?;
    if ca.terms.len() != cb.terms.len() {
        return Ok(false);
    }
    let n = ca.terms.len();
    if n == 0 {
        return Ok(true);
    }
    // Each term is colour-refined once, against one palette for both sides.
    let all: Vec<&Term> = ca.terms.iter().chain(&cb.terms).collect();
    let mut colours = colour_terms(ctx, &all, ambient)?;
    let right_colours = colours.split_off(n);
    // Perfect matching between the two term lists, with lazily memoized TDP
    // verdicts (`None` = not yet computed).
    let mut verdicts: Vec<Vec<Option<bool>>> = vec![vec![None; n]; n];
    let mut assignment = vec![usize::MAX; n];
    let mut used = vec![false; n];
    let found = match_permutation(
        ctx,
        (&ca.terms, &colours),
        (&cb.terms, &right_colours),
        ambient,
        0,
        &mut used,
        &mut verdicts,
        &mut assignment,
    )?;
    if found {
        ctx.trace.record(Rule::Permutation, || {
            StepData::Witness(format!("term pairing: {assignment:?}"))
        });
    }
    Ok(found)
}

/// One side of a permutation search: its canonized terms and their colourings.
type Side<'a> = (&'a [Term], &'a [Option<Colouring>]);

#[allow(clippy::too_many_arguments)]
fn match_permutation(
    ctx: &mut Ctx,
    left: Side<'_>,
    right: Side<'_>,
    ambient: &[Pred],
    i: usize,
    used: &mut [bool],
    verdicts: &mut [Vec<Option<bool>>],
    assignment: &mut [usize],
) -> Result<bool, Exhausted> {
    if i == left.0.len() {
        return Ok(true);
    }
    for j in 0..right.0.len() {
        ctx.budget.tick()?;
        if used[j] {
            continue;
        }
        let ok = match verdicts[i][j] {
            Some(v) => v,
            None => {
                let (t1, t2) = (&left.0[i], &right.0[j]);
                let v = match (&left.1[i], &right.1[j]) {
                    // Isomorphic terms have equal colour multisets.
                    (Some(l), Some(r)) if l.signature() != r.signature() => false,
                    (Some(l), Some(r)) => tdp_with(ctx, t1, t2, ambient, Colours::Given(r, l))?,
                    _ => tdp_with(ctx, t1, t2, ambient, Colours::Off)?,
                };
                verdicts[i][j] = Some(v);
                v
            }
        };
        if ok {
            used[j] = true;
            assignment[i] = j;
            if match_permutation(ctx, left, right, ambient, i + 1, used, verdicts, assignment)? {
                return Ok(true);
            }
            used[j] = false;
        }
    }
    Ok(false)
}

/// Algorithm 3: term equivalence. `t1` is the target, `t2` the pattern; the
/// search looks for a bijection of summation variables (Sec 5.2's `BI`),
/// guided by relation-atom matching.
pub fn tdp_equiv(ctx: &mut Ctx, t1: &Term, t2: &Term, ambient: &[Pred]) -> Result<bool, Exhausted> {
    tdp_with(ctx, t1, t2, ambient, Colours::Refine)
}

fn tdp_with(
    ctx: &mut Ctx,
    t1: &Term,
    t2: &Term,
    ambient: &[Pred],
    colours: Colours<'_>,
) -> Result<bool, Exhausted> {
    let found = match_terms_with(ctx, t2, t1, MatchMode::Iso, ambient, colours)?.is_some();
    if found {
        ctx.trace.record(Rule::TermMatch, || {
            StepData::Witness(format!("{t2}  ≅  {t1}"))
        });
    }
    Ok(found)
}

/// Algorithm 4: equivalence of squashed expressions `‖a‖ = ‖b‖`.
pub fn sdp_equiv(ctx: &mut Ctx, a: &Nf, b: &Nf, ambient: &[Pred]) -> Result<bool, Exhausted> {
    // Lemma 5.1 flattening + canonization under the squash context. The
    // terms are not minimized to their cores: a homomorphism test decides
    // CQ containment without them (DESIGN.md §7).
    let ta = canonize_nf(ctx, a.clone().flatten_under_squash(), ambient, true)?.terms;
    let tb = canonize_nf(ctx, b.clone().flatten_under_squash(), ambient, true)?.terms;
    // ‖0‖ = 0: both empty ⇒ equal; one empty ⇒ the other must have at least
    // one satisfiable term — conservatively report inequivalence.
    if ta.is_empty() || tb.is_empty() {
        return Ok(ta.is_empty() && tb.is_empty());
    }

    // Mutual containment: ∀i ∃j hom(tb_j → ta_i) and ∀j ∃i hom(ta_i → tb_j).
    for t in &ta {
        if !contained_in_some(ctx, t, &tb, ambient)? {
            return Ok(false);
        }
    }
    for t in &tb {
        if !contained_in_some(ctx, t, &ta, ambient)? {
            return Ok(false);
        }
    }
    ctx.trace.record(Rule::Containment, || {
        StepData::Witness(format!(
            "mutual containment across {}×{} terms",
            ta.len(),
            tb.len()
        ))
    });
    Ok(true)
}

/// `t ⊆ some member of pool`? Checked via a homomorphism from the pool term
/// *into* `t` (the classical containment direction).
fn contained_in_some(
    ctx: &mut Ctx,
    t: &Term,
    pool: &[Term],
    ambient: &[Pred],
) -> Result<bool, Exhausted> {
    for candidate in pool {
        ctx.budget.tick()?;
        if match_terms(ctx, candidate, t, MatchMode::Hom, ambient)?.is_some() {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::constraints::ConstraintSet;
    use crate::expr::{Expr, VarId};
    use crate::schema::{Catalog, RelId, Schema, SchemaId, Ty};
    use crate::spnf::normalize;
    use crate::uexpr::UExpr;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn setup() -> (Catalog, ConstraintSet, RelId, RelId, SchemaId) {
        let mut cat = Catalog::new();
        let s = cat
            .add_schema(Schema::new(
                "s",
                vec![("a".into(), Ty::Int), ("k".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        let r = cat.add_relation("R", s).unwrap();
        let s2 = cat.add_relation("S", s).unwrap();
        (cat, ConstraintSet::new(), r, s2, s)
    }

    fn check(cat: &Catalog, cs: &ConstraintSet, e1: &UExpr, e2: &UExpr) -> bool {
        let n1 = normalize(e1);
        let n2 = normalize(e2);
        let mut ctx = Ctx::new(cat, cs).with_budget(Budget::unlimited());
        ctx.gen.reserve(VarId(n1.max_var().max(n2.max_var()) + 1));
        udp_equiv(&mut ctx, &n1, &n2, &[]).unwrap()
    }

    /// Join commutativity: Σ_{x,y} R(x)S(y)[…] = Σ_{y,x} S(y)R(x)[…].
    #[test]
    fn join_commutativity() {
        let (cat, cs, r, s, sid) = setup();
        let out = v(0);
        let q1 = UExpr::sum_over(
            vec![(v(1), sid), (v(2), sid)],
            UExpr::product(vec![
                UExpr::eq(Expr::var_attr(out, "a"), Expr::var_attr(v(1), "a")),
                UExpr::rel(r, Expr::Var(v(1))),
                UExpr::rel(s, Expr::Var(v(2))),
            ]),
        );
        let q2 = UExpr::sum_over(
            vec![(v(3), sid), (v(4), sid)],
            UExpr::product(vec![
                UExpr::rel(s, Expr::Var(v(3))),
                UExpr::rel(r, Expr::Var(v(4))),
                UExpr::eq(Expr::var_attr(out, "a"), Expr::var_attr(v(4), "a")),
            ]),
        );
        assert!(check(&cat, &cs, &q1, &q2));
    }

    /// R ≠ R × R under bag semantics.
    #[test]
    fn bag_semantics_distinguishes_self_join() {
        let (cat, cs, r, _, sid) = setup();
        let q1 = UExpr::sum(
            v(1),
            sid,
            UExpr::mul(
                UExpr::eq(Expr::var_attr(v(0), "a"), Expr::var_attr(v(1), "a")),
                UExpr::rel(r, Expr::Var(v(1))),
            ),
        );
        let q2 = UExpr::sum_over(
            vec![(v(2), sid), (v(3), sid)],
            UExpr::product(vec![
                UExpr::eq(Expr::var_attr(v(0), "a"), Expr::var_attr(v(2), "a")),
                UExpr::eq(Expr::var_attr(v(2), "a"), Expr::var_attr(v(3), "a")),
                UExpr::rel(r, Expr::Var(v(2))),
                UExpr::rel(r, Expr::Var(v(3))),
            ]),
        );
        assert!(!check(&cat, &cs, &q1, &q2));
    }

    /// But DISTINCT of both IS equivalent (Ex 5.2 with an extra predicate).
    #[test]
    fn set_semantics_identifies_redundant_join() {
        let (cat, cs, r, _, sid) = setup();
        let q1 = UExpr::squash(UExpr::sum(
            v(1),
            sid,
            UExpr::mul(
                UExpr::eq(Expr::var_attr(v(0), "a"), Expr::var_attr(v(1), "a")),
                UExpr::rel(r, Expr::Var(v(1))),
            ),
        ));
        let q2 = UExpr::squash(UExpr::sum_over(
            vec![(v(2), sid), (v(3), sid)],
            UExpr::product(vec![
                UExpr::eq(Expr::var_attr(v(0), "a"), Expr::var_attr(v(2), "a")),
                UExpr::eq(Expr::var_attr(v(2), "a"), Expr::var_attr(v(3), "a")),
                UExpr::rel(r, Expr::Var(v(2))),
                UExpr::rel(r, Expr::Var(v(3))),
            ]),
        ));
        assert!(check(&cat, &cs, &q1, &q2));
    }

    /// Ex 5.2 verbatim: DISTINCT x.a FROM R x, R y ≡ DISTINCT a FROM R.
    #[test]
    fn example_5_2_distinct_product() {
        let (cat, cs, r, _, sid) = setup();
        let q1 = UExpr::squash(UExpr::sum_over(
            vec![(v(1), sid), (v(2), sid)],
            UExpr::product(vec![
                UExpr::eq(Expr::var_attr(v(1), "a"), Expr::var_attr(v(0), "a")),
                UExpr::rel(r, Expr::Var(v(1))),
                UExpr::rel(r, Expr::Var(v(2))),
            ]),
        ));
        let q2 = UExpr::squash(UExpr::sum(
            v(3),
            sid,
            UExpr::mul(
                UExpr::eq(Expr::var_attr(v(3), "a"), Expr::var_attr(v(0), "a")),
                UExpr::rel(r, Expr::Var(v(3))),
            ),
        ));
        assert!(check(&cat, &cs, &q1, &q2));
    }

    /// UNION ALL is commutative: (R + S) = (S + R).
    #[test]
    fn union_all_commutes() {
        let (cat, cs, r, s, _) = setup();
        let q1 = UExpr::add(
            UExpr::rel(r, Expr::Var(v(0))),
            UExpr::rel(s, Expr::Var(v(0))),
        );
        let q2 = UExpr::add(
            UExpr::rel(s, Expr::Var(v(0))),
            UExpr::rel(r, Expr::Var(v(0))),
        );
        assert!(check(&cat, &cs, &q1, &q2));
    }

    /// R + R ≠ R under bag semantics (term-count mismatch).
    #[test]
    fn union_all_not_idempotent() {
        let (cat, cs, r, _, _) = setup();
        let q1 = UExpr::add(
            UExpr::rel(r, Expr::Var(v(0))),
            UExpr::rel(r, Expr::Var(v(0))),
        );
        let q2 = UExpr::rel(r, Expr::Var(v(0)));
        assert!(!check(&cat, &cs, &q1, &q2));
    }

    /// DISTINCT (R + R) = DISTINCT R.
    #[test]
    fn distinct_union_is_idempotent() {
        let (cat, cs, r, _, _) = setup();
        let q1 = UExpr::squash(UExpr::add(
            UExpr::rel(r, Expr::Var(v(0))),
            UExpr::rel(r, Expr::Var(v(0))),
        ));
        let q2 = UExpr::squash(UExpr::rel(r, Expr::Var(v(0))));
        assert!(check(&cat, &cs, &q1, &q2));
    }

    /// NOT EXISTS factors must match recursively.
    #[test]
    fn negation_factors_compared_recursively() {
        let (cat, cs, r, s, sid) = setup();
        let not_exists = |rel, i: u32| {
            UExpr::not(UExpr::sum(
                v(i),
                sid,
                UExpr::mul(
                    UExpr::eq(Expr::var_attr(v(i), "k"), Expr::var_attr(v(0), "k")),
                    UExpr::rel(rel, Expr::Var(v(i))),
                ),
            ))
        };
        let q1 = UExpr::mul(UExpr::rel(r, Expr::Var(v(0))), not_exists(s, 1));
        let q2 = UExpr::mul(UExpr::rel(r, Expr::Var(v(0))), not_exists(s, 2));
        let q3 = UExpr::mul(UExpr::rel(r, Expr::Var(v(0))), not_exists(r, 3));
        assert!(check(&cat, &cs, &q1, &q2));
        assert!(!check(&cat, &cs, &q1, &q3));
    }

    /// Budget exhaustion surfaces as Err, not a wrong verdict.
    #[test]
    fn budget_exhaustion_propagates() {
        let (cat, cs, r, _, sid) = setup();
        let q = UExpr::sum(v(1), sid, UExpr::rel(r, Expr::Var(v(1))));
        let n = normalize(&q);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(1));
        assert_eq!(udp_equiv(&mut ctx, &n, &n, &[]), Err(Exhausted::Steps));
    }

    /// Different multiplicity of identical terms must not collapse:
    /// R + R + S vs R + S + S.
    #[test]
    fn term_multiset_matching_is_exact() {
        let (cat, cs, r, s, _) = setup();
        let rr = || UExpr::rel(r, Expr::Var(v(0)));
        let ss = || UExpr::rel(s, Expr::Var(v(0)));
        let q1 = UExpr::sum_of(vec![rr(), rr(), ss()]);
        let q2 = UExpr::sum_of(vec![rr(), ss(), ss()]);
        assert!(!check(&cat, &cs, &q1, &q2));
        let q3 = UExpr::sum_of(vec![ss(), rr(), rr()]);
        assert!(check(&cat, &cs, &q1, &q3));
    }
}
