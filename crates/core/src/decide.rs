//! Top-level driver: decide the U-equivalence of two queries.
//!
//! A query denotes a function `Tuple(σ) → U`; we represent it as a
//! [`QueryU`]: an output variable, its schema, and the body U-expression with
//! that variable free. `decide` aligns the output variables, converts both
//! bodies to SPNF (recording sizes for the Sec 6.3 growth experiment), and
//! runs UDP (Alg 2) under the configured budget.

use crate::budget::{Budget, Exhausted};
use crate::constraints::ConstraintSet;
use crate::ctx::{Ctx, Options};
use crate::equiv::udp_equiv;
use crate::expr::{Expr, VarGen, VarId};
use crate::schema::{Catalog, SchemaId};
use crate::spnf::{normalize_with, Nf};
use crate::trace::{Rule, StepData, Trace};
use crate::uexpr::UExpr;
use std::time::Instant;

/// A query as a U-expression: `λ out. body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryU {
    /// The output tuple variable, free in `body`.
    pub out: VarId,
    /// Schema of the output tuple.
    pub schema: SchemaId,
    /// `⟦q⟧(out)` as a U-expression.
    pub body: UExpr,
}

impl QueryU {
    /// Package an output variable, its schema, and a body.
    pub fn new(out: VarId, schema: SchemaId, body: UExpr) -> Self {
        QueryU { out, schema, body }
    }
}

/// Outcome of a `decide` run. UDP is sound but incomplete: `NotProved` means
/// "no proof found", not "inequivalent" (use `udp-eval`'s counterexample
/// finder for refutation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The queries are U-equivalent (hence equivalent under standard SQL
    /// semantics, Theorem 5.3).
    Proved,
    /// No proof found within the searched space.
    NotProved(NotProvedReason),
    /// Budget (steps or wall clock) exhausted before an answer.
    Timeout,
}

impl Decision {
    /// Did UDP prove the equivalence?
    pub fn is_proved(&self) -> bool {
        matches!(self, Decision::Proved)
    }

    /// Is this a definite decision (`Proved` / `NotProved`), as opposed to
    /// the budget artifact `Timeout`? Definite decisions are cacheable and
    /// must be stable under worker count, cache state, and injected
    /// faults.
    pub fn is_definite(&self) -> bool {
        !matches!(self, Decision::Timeout)
    }
}

/// Why the search concluded without a proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotProvedReason {
    /// The output schemas differ in their attribute lists.
    SchemaMismatch,
    /// Canonical forms exist but no term pairing/homomorphism was found.
    NoProofFound,
}

/// Measurements accompanying a verdict (feeds Fig 7 and the Sec 6.3 SPNF
/// growth numbers).
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// U-expression sizes before SPNF conversion (q1, q2).
    pub size_before: (usize, usize),
    /// Normal-form sizes after SPNF conversion (q1, q2).
    pub size_after: (usize, usize),
    /// Search steps consumed.
    pub steps_used: u64,
    /// Wall-clock time of the whole decision.
    pub wall: std::time::Duration,
    /// Which budget limit tripped when the decision is [`Decision::Timeout`]
    /// (`None` for definite decisions): deterministic step cap or wall-clock
    /// deadline.
    pub exhausted: Option<Exhausted>,
}

impl Stats {
    /// Relative size growth through SPNF, in percent (Sec 6.3 metric).
    pub fn growth_percent(&self) -> f64 {
        let before = (self.size_before.0 + self.size_before.1) as f64;
        let after = (self.size_after.0 + self.size_after.1) as f64;
        if before == 0.0 {
            0.0
        } else {
            (after - before) / before * 100.0
        }
    }
}

/// Verdict: decision + proof trace + measurements.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The outcome.
    pub decision: Decision,
    /// Recorded proof steps (empty unless tracing was requested).
    pub trace: Trace,
    /// Sizes, steps, and timing.
    pub stats: Stats,
}

impl Verdict {
    /// Deterministic deep size in bytes (exact-fit convention, see
    /// [`crate::uexpr::UExpr::deep_size`]) — what one cached verdict costs
    /// the byte-bounded verdict cache. The decision and stats are inline;
    /// the trace's recorded steps are the only heap freight.
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Verdict>() + self.trace.heap_size()
    }
}

/// Configuration for a `decide` run.
#[derive(Debug, Clone, Default)]
pub struct DecideConfig {
    /// Budget per goal (`None` = the standard 30 s / 20M-step budget).
    pub budget: Option<Budget>,
    /// Feature switches (ablations).
    pub options: Options,
    /// Record a replayable proof trace.
    pub record_trace: bool,
    /// Stage-metrics sink for the nested canonize-core / congruence spans
    /// (defaults to the free disabled handle).
    pub recorder: udp_obs::Recorder,
}

/// Decide whether `q1 ≡ q2` under `cs`, with default configuration.
pub fn decide(catalog: &Catalog, cs: &ConstraintSet, q1: &QueryU, q2: &QueryU) -> Verdict {
    decide_with(catalog, cs, q1, q2, DecideConfig::default())
}

/// Decide with explicit configuration: [`normalize_pair`], then
/// [`decide_normalized_with`], then [`record_normalization`].
pub fn decide_with(
    catalog: &Catalog,
    cs: &ConstraintSet,
    q1: &QueryU,
    q2: &QueryU,
    config: DecideConfig,
) -> Verdict {
    let start = Instant::now();
    let (nf1, nf2) = normalize_pair(q1, q2);
    let mut verdict = decide_normalized_with(
        catalog, cs, q1.out, q1.schema, q2.schema, &nf1, &nf2, config,
    );
    record_normalization(&mut verdict, q1, q2, &nf1, &nf2);
    verdict.stats.wall = start.elapsed();
    verdict
}

/// The right body with its output variable renamed to the left's.
fn aligned_rhs(q1: &QueryU, q2: &QueryU) -> UExpr {
    if q2.out == q1.out {
        q2.body.clone()
    } else {
        q2.body.subst(q2.out, &Expr::Var(q1.out))
    }
}

/// SPNF-normalize a lowered goal pair: the right side's output variable is
/// aligned onto the left's by substitution, then both bodies are normalized
/// with one shared fresh-variable generator (globally fresh binders are an
/// invariant the matchers rely on).
///
/// This is the one alignment and normalization in the workspace: `decide`,
/// the service's cache keys and its prover all consume its output.
pub fn normalize_pair(q1: &QueryU, q2: &QueryU) -> (Nf, Nf) {
    let body2 = aligned_rhs(q1, q2);
    let mut gen = VarGen::above(q1.body.max_var().max(body2.max_var()).max(q1.out.0) + 1);
    let nf1 = normalize_with(&q1.body, &mut gen);
    let nf2 = normalize_with(&body2, &mut gen);
    (nf1, nf2)
}

/// Complete a verdict that [`decide_normalized_with`] reached from the
/// [`normalize_pair`] forms of `q1` and `q2`: `size_before` becomes the
/// lowered (pre-SPNF) sizes, and an enabled trace gains the two
/// `normalize` steps ahead of the prover's steps, so it replays from the
/// lowered bodies exactly as a [`decide_with`] trace does.
pub fn record_normalization(verdict: &mut Verdict, q1: &QueryU, q2: &QueryU, nf1: &Nf, nf2: &Nf) {
    verdict.stats.size_before = (q1.body.size(), q2.body.size());
    if verdict.trace.is_enabled() {
        let mut trace = Trace::enabled();
        trace.record(Rule::Normalize, || StepData::Normalize {
            before: q1.body.clone(),
            after: nf1.clone(),
        });
        trace.record(Rule::Normalize, || StepData::Normalize {
            before: aligned_rhs(q1, q2),
            after: nf2.clone(),
        });
        trace.append(std::mem::take(&mut verdict.trace));
        verdict.trace = trace;
    }
}

/// Output schemas must agree attribute-wise (by name — types are advisory,
/// e.g. aggregate outputs infer as Unknown).
fn schemas_compatible(catalog: &Catalog, sid1: SchemaId, sid2: SchemaId) -> bool {
    let s1 = catalog.schema(sid1);
    let s2 = catalog.schema(sid2);
    let same_names = || {
        s1.attrs
            .iter()
            .map(|(n, _)| n)
            .eq(s2.attrs.iter().map(|(n, _)| n))
    };
    if s1.is_closed() && s2.is_closed() {
        same_names()
    } else {
        sid1 == sid2 || same_names()
    }
}

/// Decide from **pre-normalized** SPNF forms. Both `nf1` and `nf2` must
/// denote their query bodies with the *same* output variable `out` free
/// (align `q2.out` onto `q1.out` by substitution before normalizing).
///
/// This is the batch-service hot path: the caller has already paid the SPNF
/// normalization (to compute canonical fingerprints), so this entry point
/// skips re-normalizing. Proof traces recorded here omit the two `normalize`
/// steps and `size_before` reports the normalized sizes, until
/// [`record_normalization`] adds the pre-SPNF side.
#[allow(clippy::too_many_arguments)]
pub fn decide_normalized_with(
    catalog: &Catalog,
    cs: &ConstraintSet,
    out: VarId,
    schema1: SchemaId,
    schema2: SchemaId,
    nf1: &Nf,
    nf2: &Nf,
    config: DecideConfig,
) -> Verdict {
    let start = Instant::now();
    let trace = if config.record_trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let mut stats = Stats {
        size_before: (nf1.size(), nf2.size()),
        size_after: (nf1.size(), nf2.size()),
        ..Stats::default()
    };

    if !schemas_compatible(catalog, schema1, schema2) {
        stats.wall = start.elapsed();
        return Verdict {
            decision: Decision::NotProved(NotProvedReason::SchemaMismatch),
            trace,
            stats,
        };
    }

    let mut ctx = Ctx::new(catalog, cs)
        .with_budget(config.budget.unwrap_or_default())
        .with_options(config.options)
        .with_recorder(config.recorder.clone());
    ctx.trace = trace;
    let watermark = nf1.max_var().max(nf2.max_var()).max(out.0) + 1;
    ctx.gen.reserve(VarId(watermark));
    ctx.declare_free(out, schema1);

    let decision = match udp_equiv(&mut ctx, nf1, nf2, &[]) {
        Ok(true) => Decision::Proved,
        Ok(false) => Decision::NotProved(NotProvedReason::NoProofFound),
        Err(kind) => {
            stats.exhausted = Some(kind);
            Decision::Timeout
        }
    };
    stats.steps_used = ctx.budget.steps_used();
    stats.wall = start.elapsed();
    Verdict {
        decision,
        trace: ctx.trace,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use crate::schema::{Schema, Ty};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn setup() -> (Catalog, ConstraintSet) {
        let mut cat = Catalog::new();
        let s = cat
            .add_schema(Schema::new(
                "s",
                vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        cat.add_relation("R", s).unwrap();
        (cat, ConstraintSet::new())
    }

    /// Fig 1 end to end: `SELECT * FROM R WHERE a ≥ 12` equals its
    /// index-lookup rewrite, given key R.k.
    #[test]
    fn fig1_index_rewrite_proved() {
        let (cat, mut cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        cs.add_key(r, vec!["k".into()]);

        let t = v(0);
        let q1 = QueryU::new(
            t,
            sid,
            UExpr::mul(
                UExpr::rel(r, Expr::Var(t)),
                UExpr::Pred(Pred::lift("gte12", vec![Expr::var_attr(t, "a")])),
            ),
        );
        let (t1, t2, t3) = (v(1), v(2), v(3));
        let q2 = QueryU::new(
            t,
            sid,
            UExpr::sum_over(
                vec![(t1, sid), (t2, sid), (t3, sid)],
                UExpr::product(vec![
                    UExpr::eq(Expr::Var(t2), Expr::Var(t)),
                    UExpr::eq(Expr::var_attr(t1, "k"), Expr::var_attr(t2, "k")),
                    UExpr::Pred(Pred::lift("gte12", vec![Expr::var_attr(t1, "a")])),
                    UExpr::eq(Expr::var_attr(t3, "k"), Expr::var_attr(t1, "k")),
                    UExpr::eq(Expr::var_attr(t3, "a"), Expr::var_attr(t1, "a")),
                    UExpr::rel(r, Expr::Var(t3)),
                    UExpr::rel(r, Expr::Var(t2)),
                ]),
            ),
        );
        let verdict = decide(&cat, &cs, &q1, &q2);
        assert!(
            verdict.decision.is_proved(),
            "verdict: {:?}",
            verdict.decision
        );
    }

    /// Without the key constraint the Fig 1 rewrite is *not* provable (and
    /// indeed not valid under bag semantics).
    #[test]
    fn fig1_fails_without_key() {
        let (cat, cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        let t = v(0);
        let q1 = QueryU::new(t, sid, UExpr::rel(r, Expr::Var(t)));
        let (x, y) = (v(1), v(2));
        let q2 = QueryU::new(
            t,
            sid,
            UExpr::sum_over(
                vec![(x, sid), (y, sid)],
                UExpr::product(vec![
                    UExpr::eq(Expr::Var(x), Expr::Var(t)),
                    UExpr::eq(Expr::var_attr(y, "k"), Expr::var_attr(x, "k")),
                    UExpr::rel(r, Expr::Var(x)),
                    UExpr::rel(r, Expr::Var(y)),
                ]),
            ),
        );
        let verdict = decide(&cat, &cs, &q1, &q2);
        assert!(!verdict.decision.is_proved());
    }

    /// …and with the key it becomes provable (self-join elimination).
    #[test]
    fn self_join_elimination_with_key() {
        let (cat, mut cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        cs.add_key(r, vec!["k".into()]);
        let t = v(0);
        let q1 = QueryU::new(t, sid, UExpr::rel(r, Expr::Var(t)));
        let (x, y) = (v(1), v(2));
        let q2 = QueryU::new(
            t,
            sid,
            UExpr::sum_over(
                vec![(x, sid), (y, sid)],
                UExpr::product(vec![
                    UExpr::eq(Expr::Var(x), Expr::Var(t)),
                    UExpr::eq(Expr::var_attr(y, "k"), Expr::var_attr(x, "k")),
                    UExpr::rel(r, Expr::Var(x)),
                    UExpr::rel(r, Expr::Var(y)),
                ]),
            ),
        );
        let verdict = decide(&cat, &cs, &q1, &q2);
        assert!(
            verdict.decision.is_proved(),
            "verdict: {:?}",
            verdict.decision
        );
    }

    #[test]
    fn schema_mismatch_detected() {
        let (mut cat, cs) = setup();
        let other = cat
            .add_schema(Schema::new("t2", vec![("z".into(), Ty::Int)], false))
            .unwrap();
        let sid = cat.schema_id("s").unwrap();
        let r = cat.relation_id("R").unwrap();
        let q1 = QueryU::new(v(0), sid, UExpr::rel(r, Expr::Var(v(0))));
        let q2 = QueryU::new(v(0), other, UExpr::rel(r, Expr::Var(v(0))));
        let verdict = decide(&cat, &cs, &q1, &q2);
        assert_eq!(
            verdict.decision,
            Decision::NotProved(NotProvedReason::SchemaMismatch)
        );
    }

    #[test]
    fn timeout_reported() {
        let (cat, cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        let q = QueryU::new(
            v(0),
            sid,
            UExpr::sum(v(1), sid, UExpr::rel(r, Expr::Var(v(1)))),
        );
        let verdict = decide_with(
            &cat,
            &cs,
            &q,
            &q,
            DecideConfig {
                budget: Some(Budget::steps(1)),
                ..Default::default()
            },
        );
        assert_eq!(verdict.decision, Decision::Timeout);
        assert_eq!(verdict.stats.exhausted, Some(Exhausted::Steps));
    }

    #[test]
    fn stats_record_sizes_and_growth() {
        let (cat, cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        let q = QueryU::new(v(0), sid, UExpr::rel(r, Expr::Var(v(0))));
        let verdict = decide(&cat, &cs, &q, &q);
        assert!(verdict.decision.is_proved());
        assert!(verdict.stats.size_before.0 > 0);
        assert!(verdict.stats.size_after.0 > 0);
        let _ = verdict.stats.growth_percent();
    }

    #[test]
    fn trace_records_proof_steps() {
        let (cat, mut cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        cs.add_key(r, vec!["k".into()]);
        let t = v(0);
        let q1 = QueryU::new(t, sid, UExpr::rel(r, Expr::Var(t)));
        let verdict = decide_with(
            &cat,
            &cs,
            &q1,
            &q1,
            DecideConfig {
                record_trace: true,
                ..Default::default()
            },
        );
        assert!(verdict.decision.is_proved());
        assert!(!verdict.trace.is_empty());
        let rendered = verdict.trace.render();
        assert!(rendered.contains("normalize"));
    }
}
