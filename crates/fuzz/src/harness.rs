//! The cross-check harness: generate → transform → check → shrink → report.
//!
//! Every case builds a random catalog and base query, derives a partner via
//! a metamorphic rewrite (expected equivalent) or a mutation (expected
//! inequivalent), and cross-checks the pair three ways:
//!
//! 1. **prover** — UDP through an uncached [`udp_service::Session`]
//!    (deterministic steps-only budget);
//! 2. **oracle** — the bag-semantics evaluator over random databases
//!    ([`udp_eval::find_counterexample_seeded`]);
//! 3. **service** — a cached session run twice (the repeat must be a cache
//!    hit with the same verdict) plus canonical-fingerprint stability across
//!    sessions.
//!
//! Both queries also round-trip through the pretty printer and parser
//! before any engine sees them, so each case exercises the full text
//! frontier. Any disagreement is greedily shrunk with the same check as the
//! predicate and reported with reproduction seeds.

use crate::catalog::{random_frontend, SchemaProfile};
use crate::gen::{GenProfile, QueryGen};
use crate::mutate::Mutation;
use crate::rewrite::Rewrite;
use crate::shrink::shrink_pair;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};
use std::collections::BTreeMap;
use std::fmt;
use udp_core::Decision;
use udp_eval::{find_counterexample_seeded, GenConfig, SearchResult};
use udp_service::{Session, SessionConfig};
use udp_sql::ast::Query;
use udp_sql::pretty::query_to_sql;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: case `i` derives its own RNG from `(seed, i)`, so a
    /// failing case replays independently of `cases`.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Random databases per oracle search.
    pub oracle_trials: usize,
    /// Steps-only decide budget (no wall clock — verdicts must be
    /// deterministic so cached/uncached parity is meaningful).
    pub steps: u64,
    /// Fraction of cases that mutate (vs. rewrite).
    pub mutation_ratio: f64,
    /// Shrink failing pairs before reporting.
    pub shrink: bool,
    /// Shrinker check budget per failure.
    pub max_shrink_checks: usize,
    /// Catalog shape.
    pub schema: SchemaProfile,
    /// Query shape.
    pub query: GenProfile,
    /// Full-dialect mode: nullable catalogs, NULL predicates, and outer
    /// joins in the generators; sessions run under `Dialect::Full` (udp-ext
    /// desugaring) and round-trips re-parse with the full dialect.
    pub full_dialect: bool,
    /// Chaos differential: when set, every case is *additionally* run
    /// through a session with this fault schedule armed (re-seeded per
    /// case, since every fuzz goal sits at batch index 0) and the faulted
    /// run's definite verdicts must be a subset of the clean run's —
    /// faults may degrade a goal to Timeout or an aborted error, never
    /// flip a decision, and the process must survive.
    pub chaos: Option<udp_obs::FaultPlan>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            cases: 200,
            oracle_trials: 10,
            steps: 500_000,
            mutation_ratio: 0.35,
            shrink: true,
            max_shrink_checks: 300,
            schema: SchemaProfile::default(),
            query: GenProfile::default(),
            full_dialect: false,
            chaos: None,
        }
    }
}

impl FuzzConfig {
    /// The full-dialect campaign configuration (NULL + outer-join
    /// generators enabled).
    pub fn full() -> Self {
        FuzzConfig {
            schema: SchemaProfile::full(),
            query: GenProfile::full(),
            full_dialect: true,
            ..FuzzConfig::default()
        }
    }
}

/// Why a case was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The prover proved a pair the concrete oracle refutes — a soundness
    /// bug somewhere in the pipeline.
    Soundness,
    /// An expected-equivalent rewrite pair was refuted by the oracle — the
    /// rewrite rule (or an engine) is wrong.
    RewriteRefuted,
    /// An expected-equivalent pair from a rule inside the prover's
    /// completeness envelope came back NotProved.
    MissedProof,
    /// Cached, uncached, or repeated verdicts disagree.
    CacheMismatch,
    /// Re-verifying the identical goal was not served from cache.
    CacheMissedHit,
    /// Canonical fingerprints differ across repeated computations or
    /// sessions.
    FingerprintUnstable,
    /// A chaos-faulted run produced a definite verdict that the clean run
    /// did not — injected faults must only ever *degrade* (Timeout /
    /// aborted), never flip or invent a decision.
    ChaosVerdictFlip,
    /// `parse(pretty(q))` changed the AST.
    RoundTrip,
    /// A generated goal was rejected by the frontend.
    Frontend,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Soundness => "SOUNDNESS",
            FailureKind::RewriteRefuted => "rewrite-refuted",
            FailureKind::MissedProof => "missed-proof",
            FailureKind::CacheMismatch => "cache-mismatch",
            FailureKind::CacheMissedHit => "cache-missed-hit",
            FailureKind::FingerprintUnstable => "fingerprint-unstable",
            FailureKind::ChaosVerdictFlip => "chaos-verdict-flip",
            FailureKind::RoundTrip => "round-trip",
            FailureKind::Frontend => "frontend-reject",
        })
    }
}

/// One reported disagreement, post-shrink.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index (replay with the same master seed).
    pub case: usize,
    /// Failure class.
    pub kind: FailureKind,
    /// The rewrite/mutation rule that built the pair.
    pub rule: &'static str,
    /// DDL of the case's catalog.
    pub ddl: String,
    /// Left query (minimized, pretty-printed).
    pub q1: String,
    /// Right query (minimized, pretty-printed).
    pub q2: String,
    /// Human-readable diagnostic (verdicts, counterexample, …).
    pub detail: String,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
}

impl Failure {
    /// Full report block.
    pub fn render(&self) -> String {
        format!(
            "[{}] case {} rule {} (shrunk {} steps)\n-- catalog --\n{}\n-- q1 --\n{}\n-- q2 --\n{}\n-- detail --\n{}",
            self.kind, self.case, self.rule, self.shrink_steps, self.ddl, self.q1, self.q2,
            self.detail
        )
    }
}

/// Aggregate statistics over a run.
#[derive(Debug, Clone, Default)]
pub struct FuzzStats {
    /// Cases executed.
    pub cases: usize,
    /// Expected-equivalent pairs generated.
    pub rewrite_pairs: usize,
    /// Expected-inequivalent pairs generated.
    pub mutant_pairs: usize,
    /// Rewrite pairs the prover proved.
    pub proved: usize,
    /// Rewrite pairs NotProved by rules outside the completeness envelope.
    pub not_proved: usize,
    /// Budget exhaustions (either pair kind).
    pub timeouts: usize,
    /// Mutants the oracle refuted (the expected outcome).
    pub refuted_mutants: usize,
    /// Mutants neither proved nor refuted (oracle too weak or dead site).
    pub unrefuted_mutants: usize,
    /// Mutants the prover *proved* equivalent (mutation landed in dead
    /// code; legitimate, counted for visibility).
    pub benign_mutants: usize,
    /// Oracle runs with no evaluable database.
    pub oracle_inconclusive: usize,
    /// Chaos differential only: cases whose faulted run degraded (aborted
    /// or timed out where the clean run decided) — the *expected* effect of
    /// injection, counted as evidence the schedule actually fired.
    pub chaos_degraded: usize,
    /// Per-rule application counts.
    pub rule_counts: BTreeMap<&'static str, usize>,
    /// All disagreements found.
    pub failures: Vec<Failure>,
}

impl FuzzStats {
    /// Number of disagreements (the harness's failure count).
    pub fn disagreements(&self) -> usize {
        self.failures.len()
    }

    /// Multi-line summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cases            {}\n  rewrite pairs  {} (proved {}, not-proved {})\n  mutant pairs   {} (refuted {}, unrefuted {}, benign {})\n  timeouts (either kind) {}\n  oracle inconclusive    {}\n",
            self.cases,
            self.rewrite_pairs,
            self.proved,
            self.not_proved,
            self.mutant_pairs,
            self.refuted_mutants,
            self.unrefuted_mutants,
            self.benign_mutants,
            self.timeouts,
            self.oracle_inconclusive,
        ));
        if self.chaos_degraded > 0 {
            out.push_str(&format!(
                "  chaos-degraded cases   {}\n",
                self.chaos_degraded
            ));
        }
        out.push_str("rule applications:\n");
        for (rule, n) in &self.rule_counts {
            out.push_str(&format!("  {rule:<22} {n}\n"));
        }
        out.push_str(&format!("disagreements    {}\n", self.disagreements()));
        out
    }
}

/// Derive the per-case RNG seed.
fn case_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fisher–Yates shuffle (deterministic under the case RNG).
fn shuffled<T: Copy>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
    v
}

fn session_config(
    steps: u64,
    cache_capacity: usize,
    fingerprints: bool,
    dialect: udp_sql::Dialect,
) -> SessionConfig {
    SessionConfig {
        workers: 1,
        cache_capacity,
        steps: Some(steps),
        wall: None, // steps-only: verdicts must be deterministic
        fingerprints,
        dialect,
        ..SessionConfig::default()
    }
}

/// Run the whole campaign.
pub fn run(config: &FuzzConfig) -> FuzzStats {
    if let Some(plan) = &config.chaos {
        // `uncontained=1` is the chaos gate's must-fail self-test: panic
        // *outside* every containment boundary so the process dies loudly,
        // proving the CI smoke actually detects an escaped panic. The
        // message is deliberately not `chaos: `-prefixed — the silencer
        // must not swallow it.
        if plan.uncontained {
            panic!("uncontained panic escape (chaos self-test)");
        }
    }
    let mut stats = FuzzStats {
        cases: config.cases,
        ..FuzzStats::default()
    };
    for index in 0..config.cases {
        run_case(config, index, &mut stats);
    }
    stats
}

/// One drawn query pair: a random catalog, a base query, and its partner
/// under a rewrite or a mutation.
#[derive(Debug, Clone)]
pub struct Case {
    /// DDL of the case's catalog.
    pub ddl: String,
    /// The catalog, built from `ddl`.
    pub fe: udp_sql::Frontend,
    /// The generated query.
    pub base: Query,
    /// The rewritten or mutated partner of `base`.
    pub partner: Query,
    /// The rewrite/mutation rule that built the pair.
    pub rule: &'static str,
    /// Was the partner built by a mutation (expected inequivalent)?
    pub is_mutation: bool,
    /// Does the rewrite promise a proof (always `false` for mutations)?
    pub expect_proof: bool,
    /// First oracle seed of the case.
    pub oracle_base: u64,
}

/// Draw case `index` of a campaign: a pure function of `(config.seed,
/// index)` and the generator profiles, so a case replays independently of
/// `cases`.
pub fn draw_case(config: &FuzzConfig, index: usize) -> Case {
    let mut rng = udp_eval::seeded_rng(case_seed(config.seed, index));
    let (ddl, fe) = random_frontend(&mut rng, &config.schema);
    let qg = QueryGen::new(&fe, config.query.clone());
    let base = qg.query(&mut rng);

    let is_mutation = rng.random_bool(config.mutation_ratio);
    let (rule, expect_proof, partner) = if is_mutation {
        let picked = shuffled(&Mutation::ALL, &mut rng)
            .into_iter()
            .find_map(|m| m.apply(&base, &mut rng).map(|q| (m.name(), q)));
        // UnionAllDup applies to any query, so a pick always exists.
        let (name, q) = picked.expect("some mutation always applies");
        (name, false, q)
    } else {
        let picked = shuffled(&Rewrite::ALL, &mut rng).into_iter().find_map(|r| {
            r.apply(&base, &fe, &mut rng)
                .map(|q| (r.name(), r.expect_proof(), q))
        });
        // WhereTautology applies to any SELECT, so a pick always exists.
        picked.expect("some rewrite always applies")
    };
    let oracle_base = rng.next_u64();
    Case {
        ddl,
        fe,
        base,
        partner,
        rule,
        is_mutation,
        expect_proof,
        oracle_base,
    }
}

/// Run one case (exposed for replay-style debugging in tests).
pub fn run_case(config: &FuzzConfig, index: usize, stats: &mut FuzzStats) {
    let Case {
        ddl,
        fe,
        base,
        partner,
        rule,
        is_mutation,
        expect_proof,
        oracle_base,
    } = draw_case(config, index);
    *stats.rule_counts.entry(rule).or_insert(0) += 1;
    if is_mutation {
        stats.mutant_pairs += 1;
    } else {
        stats.rewrite_pairs += 1;
    }

    let case = CaseCtx {
        config,
        ddl: &ddl,
        fe: &fe,
        oracle_base,
        chaos_degraded: std::cell::Cell::new(false),
    };

    let outcome = case.check(&base, &partner, is_mutation, expect_proof);
    if case.chaos_degraded.get() {
        stats.chaos_degraded += 1;
    }
    match outcome {
        Ok(outcome) => outcome.tally(stats),
        Err((kind, detail)) => {
            let (q1, q2, steps) = if config.shrink {
                shrink_pair(
                    &base,
                    &partner,
                    |a, b| case.fails_as(kind, a, b),
                    config.max_shrink_checks,
                )
            } else {
                (base.clone(), partner.clone(), 0)
            };
            stats.failures.push(Failure {
                case: index,
                kind,
                rule,
                ddl: ddl.clone(),
                q1: query_to_sql(&q1),
                q2: query_to_sql(&q2),
                detail,
                shrink_steps: steps,
            });
        }
    }
}

/// Benign (non-failure) case classification.
enum Outcome {
    Proved,
    NotProved,
    Timeout,
    MutantRefuted,
    MutantUnrefuted,
    MutantBenign,
    OracleInconclusive,
}

impl Outcome {
    fn tally(self, stats: &mut FuzzStats) {
        match self {
            Outcome::Proved => stats.proved += 1,
            Outcome::NotProved => stats.not_proved += 1,
            Outcome::Timeout => stats.timeouts += 1,
            Outcome::MutantRefuted => stats.refuted_mutants += 1,
            Outcome::MutantUnrefuted => stats.unrefuted_mutants += 1,
            Outcome::MutantBenign => stats.benign_mutants += 1,
            Outcome::OracleInconclusive => stats.oracle_inconclusive += 1,
        }
    }
}

/// Per-case context shared between the main check and the shrinker
/// predicate.
struct CaseCtx<'a> {
    config: &'a FuzzConfig,
    ddl: &'a str,
    fe: &'a udp_sql::Frontend,
    oracle_base: u64,
    /// Did this case's chaos run degrade (abort or lose a decision)?
    /// Interior mutability because `check` is also the shrinker predicate.
    chaos_degraded: std::cell::Cell<bool>,
}

impl CaseCtx<'_> {
    fn oracle_seeds(&self) -> impl Iterator<Item = u64> {
        let base = self.oracle_base;
        (0..self.config.oracle_trials as u64).map(move |i| base.wrapping_add(i))
    }

    fn oracle(&self, q1: &Query, q2: &Query) -> SearchResult {
        find_counterexample_seeded(self.fe, q1, q2, self.oracle_seeds(), &GenConfig::default())
    }

    /// The full three-way cross-check. `Err` carries the failure class and
    /// a diagnostic.
    fn check(
        &self,
        q1: &Query,
        q2: &Query,
        is_mutation: bool,
        expect_proof: bool,
    ) -> Result<Outcome, (FailureKind, String)> {
        // 1. Text frontier: both sides must survive pretty → parse intact.
        let dialect = if self.config.full_dialect {
            udp_sql::Dialect::Full
        } else {
            udp_sql::Dialect::Paper
        };
        for q in [q1, q2] {
            let sql = query_to_sql(q);
            match udp_sql::parse_query_with(&sql, dialect) {
                Ok(back) if back == *q => {}
                Ok(_) => {
                    return Err((
                        FailureKind::RoundTrip,
                        format!("re-parse changed the AST of `{sql}`"),
                    ))
                }
                Err(e) => {
                    return Err((
                        FailureKind::RoundTrip,
                        format!("printed SQL `{sql}` does not parse: {e}"),
                    ))
                }
            }
        }

        // 2. Prover + service parity.
        let goal = (q1.clone(), q2.clone());
        let uncached = Session::new(
            self.ddl,
            session_config(self.config.steps, 0, false, dialect),
        )
        .map_err(|e| (FailureKind::Frontend, format!("uncached session: {e}")))?;
        let cached = Session::new(
            self.ddl,
            session_config(self.config.steps, 64, true, dialect),
        )
        .map_err(|e| (FailureKind::Frontend, format!("cached session: {e}")))?;
        let goals = [goal.clone()];
        let r_u = &uncached.verify_batch(&goals)[0];
        let r_c1 = &cached.verify_batch(&goals)[0];
        let r_c2 = &cached.verify_batch(&goals)[0];
        let d_u = match &r_u.outcome {
            Ok(v) => v.decision.clone(),
            Err(e) => return Err((FailureKind::Frontend, format!("goal rejected: {e}"))),
        };
        for r in [r_c1, r_c2] {
            match &r.outcome {
                Ok(v) if v.decision == d_u => {}
                Ok(v) => {
                    return Err((
                        FailureKind::CacheMismatch,
                        format!(
                            "uncached {:?} vs cached {:?} (cached hit: {})",
                            d_u, v.decision, r.cached
                        ),
                    ))
                }
                Err(e) => {
                    return Err((
                        FailureKind::CacheMismatch,
                        format!("cached session rejected the goal: {e}"),
                    ))
                }
            }
        }
        if d_u != Decision::Timeout && !r_c2.cached {
            return Err((
                FailureKind::CacheMissedHit,
                format!("repeat verification of an identical goal missed the cache ({d_u:?})"),
            ));
        }

        // 2b. Chaos differential: replay the goal through a session with
        //     the fault schedule armed. Every fuzz goal sits at batch
        //     index 0, so the plan is re-seeded per case (mixing in the
        //     case-derived oracle base) to vary which probes fire. The
        //     invariant is degradation-only: a faulted run may time out or
        //     abort, but any *definite* verdict it produces must be the
        //     clean run's.
        if let Some(plan) = &self.config.chaos {
            let plan = plan.with_seed(plan.seed ^ self.oracle_base);
            let chaotic = Session::new(
                self.ddl,
                session_config(self.config.steps, 0, false, dialect).with_chaos(Some(plan)),
            )
            .map_err(|e| (FailureKind::Frontend, format!("chaos session: {e}")))?;
            let r_x = &chaotic.verify_batch(&goals)[0];
            match &r_x.outcome {
                Ok(v) if v.decision.is_definite() => {
                    if v.decision != d_u {
                        return Err((
                            FailureKind::ChaosVerdictFlip,
                            format!(
                                "clean run decided {d_u:?} but the faulted run \
                                 decided {:?} (aborted: {:?})",
                                v.decision, r_x.aborted
                            ),
                        ));
                    }
                }
                // Degraded to Timeout or an aborted error: the allowed
                // (and expected) effect of injection.
                Ok(_) | Err(_) => {
                    if d_u.is_definite() {
                        self.chaos_degraded.set(true);
                    }
                }
            }
        }

        // 3. Fingerprint stability: repeated computations, a fresh session,
        //    and the worker-side report must all agree.
        let f_a = cached.fingerprint_goal(&goal);
        let f_b = cached.fingerprint_goal(&goal);
        let f_c = uncached.fingerprint_goal(&goal);
        let f_report = r_c1.fingerprints;
        if f_a != f_b || f_a != f_c || f_a.as_ref().ok() != f_report.as_ref() {
            return Err((
                FailureKind::FingerprintUnstable,
                format!("fingerprints diverge: {f_a:?} / {f_b:?} / {f_c:?} / report {f_report:?}"),
            ));
        }

        // 4. Concrete oracle, and classification.
        let proved = d_u == Decision::Proved;
        match self.oracle(q1, q2) {
            SearchResult::Refuted(ce) => {
                if proved {
                    Err((
                        FailureKind::Soundness,
                        format!("prover says Proved; {}", ce.render(self.fe)),
                    ))
                } else if is_mutation {
                    Ok(Outcome::MutantRefuted)
                } else {
                    Err((
                        FailureKind::RewriteRefuted,
                        format!("expected-equivalent pair refuted; {}", ce.render(self.fe)),
                    ))
                }
            }
            SearchResult::NoCounterexample { .. } => {
                // A budget exhaustion says nothing about the pair, whichever
                // kind it is: count it as a timeout, not as unrefuted/missed.
                if d_u == Decision::Timeout {
                    Ok(Outcome::Timeout)
                } else if is_mutation {
                    Ok(if proved {
                        Outcome::MutantBenign
                    } else {
                        Outcome::MutantUnrefuted
                    })
                } else if proved {
                    Ok(Outcome::Proved)
                } else if expect_proof {
                    Err((
                        FailureKind::MissedProof,
                        format!("expected a proof, got {d_u:?}"),
                    ))
                } else {
                    Ok(Outcome::NotProved)
                }
            }
            SearchResult::Inconclusive(_) => Ok(Outcome::OracleInconclusive),
        }
    }

    /// Shrinker predicate: does the candidate pair fail with the *same*
    /// class? Candidates that no longer parse/lower/evaluate return `false`
    /// and are rejected. Re-checks classify as a rewrite pair
    /// (`is_mutation = false`): `Soundness` classifies identically either
    /// way, and the remaining classes are only reachable from rewrites.
    fn fails_as(&self, kind: FailureKind, q1: &Query, q2: &Query) -> bool {
        matches!(self.check(q1, q2, false, true), Err((k, _)) if k == kind)
    }
}
