//! # udp-service
//!
//! A high-throughput batch verification engine layered on `udp-core` and
//! `udp-sql`, built for serving many `verify` goals against one schema:
//!
//! * a [`Session`] parses the schema/constraint declarations **once** and
//!   verifies any number of goal pairs against the shared catalog;
//! * a **canonical-fingerprint cache** memoizes verdicts: each side of a goal
//!   is reduced to its canonical SPNF form
//!   ([`udp_core::fingerprint::canonical_form`] — invariant under alias
//!   renaming, conjunct reordering, and join-operand order), and a bounded
//!   LRU keyed on the form pair short-circuits syntactically distinct but
//!   canonically identical goals without re-running `decide`;
//! * an **identity shortcut**: a goal whose two sides share one canonical
//!   form is `Proved` in one budget step, without canonizing or searching
//!   (see `udp_solve`'s crate docs);
//! * a **parallel scheduler** ([`scheduler`]) fans a batch out over a fixed
//!   pool of OS threads (no external dependencies), preserves input order in
//!   the results, and enforces the per-goal budget;
//! * [`ServiceStats`] aggregates throughput, cache hit rate, and a per-goal
//!   latency histogram.
//!
//! ```
//! use udp_service::{Session, SessionConfig};
//!
//! let program = "
//!     schema s(k:int, a:int);
//!     table r(s);
//!     verify SELECT * FROM r x == SELECT * FROM r y;
//!     verify SELECT * FROM r u == SELECT * FROM r w;
//! ";
//! let session = Session::new(program, SessionConfig::default()).unwrap();
//! let reports = session.verify_program_goals();
//! assert!(reports.iter().all(|r| r.verdict().unwrap().decision.is_proved()));
//! // The second goal is an alias-renaming of the first: served from cache.
//! assert!(reports[1].cached);
//! ```
//!
//! The cache is sound because a canonical form determines the `decide`
//! outcome given the session's fixed catalog, constraints, and options; keys
//! are the *full* form pair (not just the 128-bit fingerprint), so hash
//! collisions cannot produce a wrong verdict. The shortcut is sound because
//! equal forms differ only by alpha-renaming and `+`/`×` operand order.

#![warn(missing_docs)]

pub mod cache;
pub mod scheduler;
pub mod stats;

pub use stats::ServiceStats;

use cache::Lru;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use udp_core::ctx::Options;
use udp_core::decide::record_normalization;
use udp_core::fingerprint::{canonical_form_nf, fingerprint_form, Fingerprint};
use udp_core::spnf::Nf;
use udp_core::{QueryU, Verdict};
use udp_obs::fault::PROBE_GOAL;
use udp_obs::{Counter, FaultAction, FaultInjector, FaultPlan, Recorder, Stage};
use udp_solve::{normalize_pair, SolveConfig, SolveMode};
use udp_sql::ast::Query;
use udp_sql::parser::{parse_program_with_warnings, Warning};
use udp_sql::{Dialect, Frontend, ParseError, VerifyError};

/// Configuration for a verification session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads for batch verification (`0` and `1` both mean
    /// in-thread sequential execution).
    pub workers: usize,
    /// Verdict-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Verdict-cache resident-byte cap (`--cache-bytes`): entries are
    /// charged their key length plus `Verdict::deep_size`, and inserts
    /// evict least-recently-used entries *by bytes* until the total fits
    /// (`None` = bounded by entry count only).
    pub cache_bytes: Option<usize>,
    /// Per-goal step budget (`None` = unlimited on that axis).
    pub steps: Option<u64>,
    /// Per-goal wall-clock budget (`None` = unlimited on that axis).
    pub wall: Option<Duration>,
    /// Prover feature switches.
    pub options: Options,
    /// Parser dialect for the program and goal lines.
    pub dialect: Dialect,
    /// Record proof traces (cache hits replay the memoized trace).
    pub record_trace: bool,
    /// Stage-metrics recorder threaded through the whole goal path (parse,
    /// desugar, lower, normalize, fingerprint, cache, prove, queue wait).
    /// The default disabled handle makes every instrumentation point free.
    pub recorder: Recorder,
    /// Deterministic chaos schedule (`--chaos`): seeded panics, forced
    /// budget exhaustion, and delays at the named probe points. `None`
    /// (the default) injects nothing and costs one `Option` check per
    /// probe.
    pub chaos: Option<FaultPlan>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: 1,
            cache_capacity: 4096,
            cache_bytes: None,
            steps: Some(20_000_000),
            wall: Some(Duration::from_secs(30)),
            options: Options::default(),
            dialect: Dialect::Paper,
            record_trace: false,
            recorder: Recorder::disabled(),
            chaos: None,
        }
    }
}

impl SessionConfig {
    /// Set the parser dialect.
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Attach a stage-metrics recorder (see [`udp_obs::Recorder`]).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Arm the deterministic chaos injector (see [`SessionConfig::chaos`]).
    pub fn with_chaos(mut self, plan: Option<FaultPlan>) -> Self {
        self.chaos = plan;
        self
    }
}

/// Why a goal's report is an abort rather than a decision — the service's
/// error taxonomy for degraded goals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The goal or its prover panicked; the unwind was contained by the
    /// worker supervisor or the backend boundary.
    Panicked,
    /// The budget's step or wall limit tripped (a deterministic timeout
    /// under a step-only budget).
    BudgetExhausted,
}

impl AbortReason {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::Panicked => "panicked",
            AbortReason::BudgetExhausted => "budget-exhausted",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a goal has no verdict. `Display` prints the error message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalError {
    /// udp-ext rejected a construct combination it does not encode: the
    /// goal is outside the supported fragment.
    Unsupported(String),
    /// The goal failed to desugar or lower, or it aborted (see
    /// [`GoalReport::aborted`]).
    Failed(String),
}

impl fmt::Display for GoalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoalError::Unsupported(m) | GoalError::Failed(m) => f.write_str(m),
        }
    }
}

impl From<udp_ext::ExtError> for GoalError {
    fn from(e: udp_ext::ExtError) -> Self {
        VerifyError::from(e).into()
    }
}

impl From<VerifyError> for GoalError {
    fn from(e: VerifyError) -> Self {
        match e {
            VerifyError::Unsupported(m) => GoalError::Unsupported(m),
            // A goal's desugaring message stands alone, without the
            // program-level "desugaring error" prefix.
            VerifyError::Desugar(m) => GoalError::Failed(m),
            e => GoalError::Failed(e.to_string()),
        }
    }
}

/// Result of one goal processed by a session.
#[derive(Debug, Clone)]
pub struct GoalReport {
    /// Position of the goal in its batch.
    pub index: usize,
    /// The verdict, or why there is none.
    pub outcome: Result<Verdict, GoalError>,
    /// Was the verdict served from the fingerprint cache?
    pub cached: bool,
    /// Canonical fingerprints of (lhs, rhs), when lowering succeeded.
    pub fingerprints: Option<(Fingerprint, Fingerprint)>,
    /// End-to-end wall time for this goal (lowering + cache probe + decide).
    pub wall: Duration,
    /// Search steps the prover consumed (0 for cache hits and front-end
    /// errors).
    pub steps: u64,
    /// Set when the goal degraded instead of deciding: a contained panic
    /// (`outcome` is the error), or a `Timeout` verdict annotated with
    /// *which* limit ended it. `None` for definite verdicts, cache hits,
    /// and front-end errors.
    pub aborted: Option<AbortReason>,
}

impl GoalReport {
    /// The verdict, if the front end accepted the goal.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.outcome.as_ref().ok()
    }

    /// One-line, timing-free description (stable across runs and worker
    /// counts — the `udp-serve` protocol output).
    pub fn render_verdict(&self) -> String {
        match &self.outcome {
            Ok(v) => format!("{:?}", v.decision),
            Err(e) => format!("error: {e}"),
        }
    }
}

type CacheKey = (String, String);

/// A verification session: one parsed schema, many goals.
pub struct Session {
    base: Frontend,
    warnings: Vec<Warning>,
    config: SessionConfig,
    cache: Mutex<Lru<CacheKey, Verdict>>,
    stats: Mutex<ServiceStats>,
    faults: FaultInjector,
}

impl Session {
    /// Parse `program` (DDL plus optional `verify` goals) and build the
    /// shared catalog once. Under [`Dialect::Full`], view bodies are
    /// desugared through `udp-ext` here; goals are desugared per
    /// verification (they may arrive later via [`Session::verify_batch`]).
    pub fn new(program: &str, config: SessionConfig) -> Result<Session, VerifyError> {
        let (mut base, warnings) = config.recorder.time(Stage::Parse, || {
            let (program, warnings) =
                parse_program_with_warnings(program, config.dialect).map_err(VerifyError::Parse)?;
            let base = udp_sql::build_frontend(&program).map_err(VerifyError::Frontend)?;
            Ok::<_, VerifyError>((base, warnings))
        })?;
        if config.dialect == Dialect::Full {
            base.recorder = config.recorder.clone();
            udp_ext::desugar_views(&mut base)?;
        }
        let mut session = Session::from_frontend(base, config);
        session.warnings = warnings;
        Ok(session)
    }

    /// Wrap an already-prepared frontend.
    pub fn from_frontend(mut base: Frontend, config: SessionConfig) -> Session {
        let mut cache = Lru::new(config.cache_capacity);
        cache.set_byte_limit(config.cache_bytes);
        base.recorder = config.recorder.clone();
        let faults = match &config.chaos {
            Some(plan) => {
                // Keep stderr clean under a high-rate campaign: injected
                // (`chaos: `-prefixed) panics are expected; real ones still
                // print through the forwarded hook.
                udp_obs::install_chaos_panic_silencer();
                FaultInjector::new(plan.clone())
            }
            None => FaultInjector::disabled(),
        };
        Session {
            base,
            warnings: Vec::new(),
            config,
            cache: Mutex::new(cache),
            stats: Mutex::new(ServiceStats::default()),
            faults,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The warnings the program parse recorded (e.g. an `ORDER BY` that
    /// the full dialect stripped).
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// The shared frontend every worker clones: catalog, constraints,
    /// views, and the program's goals.
    pub fn frontend(&self) -> &Frontend {
        &self.base
    }

    /// The `verify` goals declared in the session program, in order.
    pub fn program_goals(&self) -> Vec<(Query, Query)> {
        self.base.goals.clone()
    }

    /// Parse a standalone goal line (`q1 == q2`, optionally wrapped as
    /// `verify … ;`) under the session dialect.
    pub fn parse_goal(&self, line: &str) -> Result<(Query, Query), ParseError> {
        udp_sql::parse_goal_rec(line, self.config.dialect, &self.config.recorder)
    }

    /// Verify every goal declared in the session program.
    pub fn verify_program_goals(&self) -> Vec<GoalReport> {
        self.verify_batch(&self.program_goals())
    }

    /// Verify a batch of goals, fanning out over the configured worker pool.
    /// Results come back in input order.
    pub fn verify_batch(&self, goals: &[(Query, Query)]) -> Vec<GoalReport> {
        let started = Instant::now();
        let reports = scheduler::run_batch(self, goals);
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .batch_wall += started.elapsed();
        reports
    }

    /// Snapshot of the session statistics (cache residency is read live
    /// from the cache, so end-of-run snapshots report the final footprint).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        stats.cache_entries = cache.len() as u64;
        stats.cache_resident_bytes = cache.resident_bytes() as u64;
        stats
    }

    /// Live entries in the verdict cache.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Byte cost one cached verdict charges against `--cache-bytes`: both
    /// canonical-form key strings plus the verdict's deterministic deep
    /// size. Exact-fit accounting (see `Verdict::deep_size`), so the cost
    /// — and therefore eviction behavior — is identical across workers.
    fn entry_cost(key: &CacheKey, verdict: &Verdict) -> usize {
        std::mem::size_of::<CacheKey>() + key.0.len() + key.1.len() + verdict.deep_size()
    }

    /// Lower one goal on a fresh frontend clone and return its canonical
    /// fingerprints without verifying it. This is the stability hook the
    /// `udp-fuzz` harness asserts against: the same goal must fingerprint
    /// identically across repeated calls, fresh sessions, and worker counts
    /// — otherwise the verdict cache could silently stop deduplicating (or
    /// worse, collide).
    pub fn fingerprint_goal(
        &self,
        goal: &(Query, Query),
    ) -> Result<(Fingerprint, Fingerprint), GoalError> {
        let mut fe = self.base_clone();
        let (q1, q2) = self.lower_goal(&mut fe, goal)?;
        let (nf1, nf2) = normalize_pair(&q1, &q2);
        let (form1, form2) = Self::canonical_key(&fe, &q1, &q2, &nf1, &nf2);
        Ok((fingerprint_form(&form1), fingerprint_form(&form2)))
    }

    /// Desugar (under [`Dialect::Full`]) and lower one goal on `fe`, the
    /// way a worker does. `fe` gains the goal's anonymous subquery schemas.
    fn lower_goal(
        &self,
        fe: &mut Frontend,
        goal: &(Query, Query),
    ) -> Result<(QueryU, QueryU), GoalError> {
        let goal = self.desugar_if_full(fe, goal)?;
        Ok(udp_sql::lower_goal(fe, &goal)?)
    }

    /// Lower the program's goals, in order, onto the shared frontend and
    /// return the lowered pairs. Every worker clone then starts out holding
    /// the goals' anonymous subquery schemas, so each program goal lowers
    /// to the same schema ids on any worker, and the proof traces of their
    /// verdicts replay over [`Session::frontend`]'s catalog. Nothing is
    /// recorded: the verification that follows owns the metrics.
    pub fn lower_program_goals(&mut self) -> Vec<Result<(QueryU, QueryU), GoalError>> {
        let mut fe = std::mem::take(&mut self.base);
        let recorder = std::mem::replace(&mut fe.recorder, Recorder::disabled());
        let lowered = fe
            .goals
            .clone()
            .iter()
            .map(|goal| self.lower_goal(&mut fe, goal))
            .collect();
        fe.recorder = recorder;
        self.base = fe;
        lowered
    }

    /// Canonical cache key of a lowered + normalized goal pair.
    fn canonical_key(fe: &Frontend, q1: &QueryU, q2: &QueryU, nf1: &Nf, nf2: &Nf) -> CacheKey {
        (
            canonical_form_nf(&fe.catalog, nf1, q1.out, q1.schema),
            canonical_form_nf(&fe.catalog, nf2, q1.out, q2.schema),
        )
    }

    /// Per-goal solve configuration (the prover builds a fresh budget from
    /// these limits; a budget's wall clock starts at its first tick, so
    /// pre-building configs here is safe). The goal's batch index becomes
    /// the chaos `fault_key`, keeping any injection schedule a pure function
    /// of the input batch — identical across worker counts.
    /// `identical_forms` (the two canonical forms are equal) selects the
    /// identity shortcut.
    fn solve_config(&self, index: usize, identical_forms: bool) -> SolveConfig {
        SolveConfig {
            steps: self.config.steps,
            wall: self.config.wall,
            options: self.config.options.clone(),
            record_trace: self.config.record_trace,
            recorder: self.config.recorder.clone(),
            faults: self.faults.clone(),
            fault_key: index as u64,
            identical_forms,
        }
    }

    /// Under [`Dialect::Full`], desugar a goal through `udp-ext` (outer-join
    /// elimination + 3VL encoding) against the session catalog; other
    /// dialects pass through. Exactly one desugaring per goal happens here —
    /// program goals are stored raw, so batch and program paths agree.
    fn desugar_if_full(
        &self,
        fe: &Frontend,
        goal: &(Query, Query),
    ) -> Result<(Query, Query), GoalError> {
        if self.config.dialect == Dialect::Full {
            Ok(udp_ext::desugar_goal(fe, goal)?)
        } else {
            Ok(goal.clone())
        }
    }

    /// Process one goal on a worker's private frontend clone. Shared state
    /// touched: the verdict cache and the stats aggregate (both mutexed).
    pub(crate) fn process_goal(
        &self,
        fe: &mut Frontend,
        index: usize,
        goal: &(Query, Query),
    ) -> GoalReport {
        let started = Instant::now();
        let recorder = &self.config.recorder;
        let _goal_span = recorder.trace_span("goal");
        let mut obs = recorder.goal();
        // Chaos goal probe: *outside* the backend containment boundary, so
        // an injected panic here exercises the scheduler's worker
        // supervision (the panic unwinds out of `process_goal` and is
        // caught in `scheduler::supervise`).
        match self.faults.fire(recorder, PROBE_GOAL, index as u64) {
            Some(FaultAction::Panic) => {
                panic!("chaos: injected panic at {PROBE_GOAL} (goal {index})")
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Exhaust) | None => {} // goal probe never exhausts
        }
        // Desugaring and lowering record their *global* stage totals inside
        // `udp-ext` / `udp-sql` (the single-writer rule — see `udp_obs`);
        // `time_local` adds them to this goal's waterfall only.
        let front_end = obs
            .time_local(Stage::Desugar, || self.desugar_if_full(fe, goal))
            .and_then(|goal| {
                obs.time_local(Stage::Lower, || udp_sql::lower_goal(fe, &goal))
                    .map_err(GoalError::from)
            });
        let (q1, q2) = match front_end {
            Ok(pair) => pair,
            Err(e) => {
                let wall = started.elapsed();
                self.stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(wall, false, false, true);
                obs.finish(|| format!("goal {index} (front-end error)"), wall, 0);
                return GoalReport {
                    index,
                    outcome: Err(e),
                    cached: false,
                    fingerprints: None,
                    wall,
                    steps: 0,
                    aborted: None,
                };
            }
        };
        // Deterministic structure-size accounting: deep sizes are exact-fit
        // byte counts, so the tallies are worker-invariant. The walk is only
        // paid when the recorder is live.
        if recorder.is_enabled() {
            recorder.count(
                Counter::TermBytes,
                (q1.body.deep_size() + q2.body.deep_size()) as u64,
            );
        }
        // Normalize each side exactly once: the SPNF forms feed both the
        // canonical cache key and (on a miss) the decision procedure via
        // `decide_normalized_with`.
        let (nf1, nf2) = obs.time(Stage::Normalize, || normalize_pair(&q1, &q2));
        if recorder.is_enabled() {
            recorder.count(
                Counter::SpnfBytes,
                (nf1.deep_size() + nf2.deep_size()) as u64,
            );
        }

        // Canonical forms resolve schemas by content and relations by name,
        // so keys agree across worker frontends (whose anonymous-schema ids
        // diverge as they lower different goals). Every goal renders them:
        // they key the cache, decide the identity shortcut and are hashed
        // into the report's fingerprints.
        let caching = self.config.cache_capacity > 0;
        let (key, fingerprints) = obs.time(Stage::Fingerprint, || {
            let key = Self::canonical_key(fe, &q1, &q2, &nf1, &nf2);
            recorder.count(
                Counter::FingerprintBytes,
                (key.0.len() + key.1.len()) as u64,
            );
            let fps = (fingerprint_form(&key.0), fingerprint_form(&key.1));
            (key, Some(fps))
        });

        if caching {
            let hit = obs.time(Stage::CacheLookup, || {
                let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                recorder.count(Counter::CacheProbes, 1);
                // The depth walk is O(position); only pay for it when the
                // recorder is live.
                if recorder.is_enabled() {
                    if let Some(depth) = cache.depth_of(&key) {
                        recorder.count(Counter::CacheHitDepth, depth);
                    }
                }
                cache.get(&key)
            });
            if let Some(verdict) = hit {
                recorder.instant("cache-hit");
                let wall = started.elapsed();
                let proved = verdict.decision.is_proved();
                self.stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(wall, true, proved, false);
                obs.finish(|| format!("goal {index} (cache hit)"), wall, 0);
                return GoalReport {
                    index,
                    outcome: Ok(verdict),
                    cached: true,
                    fingerprints,
                    wall,
                    steps: 0,
                    aborted: None,
                };
            }
        }

        let goal = udp_solve::Goal {
            catalog: &fe.catalog,
            constraints: &fe.constraints,
            out: q1.out,
            schema1: q1.schema,
            schema2: q2.schema,
            nf1: &nf1,
            nf2: &nf2,
            config: self.solve_config(index, key.0 == key.1),
        };
        // A contained prover panic leaves no verdict: an aborted goal,
        // surfaced as an error and never cached.
        let mut verdict = match udp_solve::solve_normalized(&goal, SolveMode::Udp) {
            Ok(verdict) => verdict,
            Err(reason) => {
                let wall = started.elapsed();
                self.note_aborted();
                self.stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(wall, false, false, true);
                obs.finish(|| format!("goal {index} (aborted)"), wall, 0);
                return GoalReport {
                    index,
                    outcome: Err(GoalError::Failed(format!("goal aborted: {reason}"))),
                    cached: false,
                    fingerprints,
                    wall,
                    steps: 0,
                    aborted: Some(AbortReason::Panicked),
                };
            }
        };
        let steps = verdict.stats.steps_used;
        obs.add(Stage::UdpProve, verdict.stats.wall, steps);
        record_normalization(&mut verdict, &q1, &q2, &nf1, &nf2);
        // A degraded-but-reported goal: a `Timeout` verdict means the step
        // cap or the wall deadline ended the search.
        let aborted = (verdict.decision == udp_core::Decision::Timeout)
            .then_some(AbortReason::BudgetExhausted);
        // A Timeout is budget exhaustion, not a fact about the goal: caching
        // it would pin a transient, scheduling-dependent answer for every
        // canonically equal goal in the session. Let those re-run.
        if caching && verdict.decision != udp_core::Decision::Timeout {
            let cost = Self::entry_cost(&key, &verdict);
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.insert_with_cost(key, verdict.clone(), cost);
            // Residency is a gauge (last level wins), stored under the cache
            // lock so it always reflects a state the cache actually had.
            recorder.gauge(Counter::CacheResidentBytes, cache.resident_bytes() as u64);
        }
        let wall = started.elapsed();
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).record(
            wall,
            false,
            verdict.decision.is_proved(),
            false,
        );
        obs.finish(|| format!("goal {index}"), wall, steps);
        GoalReport {
            index,
            outcome: Ok(verdict),
            cached: false,
            fingerprints,
            wall,
            steps,
            aborted,
        }
    }

    /// The single increment site for [`Counter::GoalAborted`]: a goal whose
    /// report is an abort (worker or prover panic) rather than a decision.
    pub(crate) fn note_aborted(&self) {
        self.config.recorder.count(Counter::GoalAborted, 1);
        self.config.recorder.instant("goal-aborted");
    }

    /// Build the report for a goal whose worker panicked outside the
    /// backend containment boundary (the supervisor caught the unwind).
    /// The panic message is part of the report, so chaos-injected panics —
    /// whose messages are deterministic — keep batch output byte-identical
    /// across worker counts.
    pub(crate) fn panic_report(&self, index: usize, wall: Duration, msg: String) -> GoalReport {
        self.note_aborted();
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(wall, false, false, true);
        GoalReport {
            index,
            outcome: Err(GoalError::Failed(format!("goal panicked: {msg}"))),
            cached: false,
            fingerprints: None,
            wall,
            steps: 0,
            aborted: Some(AbortReason::Panicked),
        }
    }

    /// Build the report for a goal slot the collector never received — a
    /// worker died in a way even the supervisor could not report (e.g. an
    /// abort-on-double-panic). Degraded bookkeeping instead of a collector
    /// panic: the batch stays order-preserving and complete.
    pub(crate) fn missing_report(&self, index: usize) -> GoalReport {
        self.panic_report(
            index,
            Duration::ZERO,
            "worker never reported (supervision gap)".to_string(),
        )
    }
}
