//! # udp-solve
//!
//! The proving step of one verification goal, shared by every driver (the
//! `udp-service` session, and through it `udp-verify` and `udp-serve`):
//! [`solve_normalized`] runs the paper's decision procedure
//! ([`udp_core::decide::decide_normalized_with`]) on a goal whose two sides
//! [`normalize_pair`] brought into SPNF, under a fresh budget built from
//! the goal's [`SolveConfig`].
//!
//! ## Identity shortcut
//!
//! When the caller has found that the two sides share a canonical form
//! ([`SolveConfig::identical_forms`]), the goal is `Proved` in one budget
//! step: no canonization, colouring or search. Equal forms mean the sides
//! differ only by renaming bound variables and reordering `+`/`×`
//! operands, which are U-semiring axioms. Alg 2 has no such step.
//!
//! ## Fault containment
//!
//! This crate is the workspace's *backend containment boundary*: the prove
//! call runs under `catch_unwind`, so a panicking prover (a real defect, or
//! a chaos fault injected at the [`PROBE_BACKEND_UDP`] probe) becomes an
//! `Err` carrying the panic message instead of unwinding through the
//! worker pool. Callers report such a goal as aborted and never cache it.
//!
//! [`PROBE_BACKEND_UDP`]: udp_obs::fault::PROBE_BACKEND_UDP

#![warn(missing_docs)]

pub use udp_core::decide::normalize_pair;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use udp_core::budget::Budget;
use udp_core::constraints::ConstraintSet;
use udp_core::ctx::Options;
use udp_core::decide::{decide_normalized_with, DecideConfig, Stats};
use udp_core::expr::VarId;
use udp_core::fingerprint::canonical_form_nf;
use udp_core::schema::{Catalog, SchemaId};
use udp_core::spnf::Nf;
use udp_core::trace::{Rule, StepData, Trace};
use udp_core::{Decision, Verdict};
use udp_obs::fault::{panic_message, FaultAction, PROBE_BACKEND_UDP};
use udp_obs::{Counter, Stage};

/// Per-goal resource and feature configuration.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Step budget (`None` = unlimited on that axis).
    pub steps: Option<u64>,
    /// Wall-clock budget (`None` = unlimited on that axis).
    pub wall: Option<Duration>,
    /// Prover feature switches.
    pub options: Options,
    /// Record a proof trace.
    pub record_trace: bool,
    /// Stage-metrics sink passed down to the prover (nested canonize-core /
    /// congruence spans). The default disabled handle is free.
    pub recorder: udp_obs::Recorder,
    /// Deterministic chaos injection at the backend probe; the default
    /// disabled injector is one `Option` check per goal.
    pub faults: udp_obs::FaultInjector,
    /// Goal key fed to the fault injector — the goal's batch index, so an
    /// injection schedule is a pure function of the input batch and stays
    /// byte-identical across worker counts.
    pub fault_key: u64,
    /// The caller found both sides' canonical forms
    /// (`udp_core::fingerprint::canonical_form_nf`) equal: prove the goal
    /// in one budget step instead of running the decision procedure.
    pub identical_forms: bool,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            steps: Some(20_000_000),
            wall: Some(Duration::from_secs(30)),
            options: Options::default(),
            record_trace: false,
            recorder: udp_obs::Recorder::disabled(),
            faults: udp_obs::FaultInjector::default(),
            fault_key: 0,
            identical_forms: false,
        }
    }
}

impl SolveConfig {
    /// A fresh budget honoring the configured limits.
    pub fn budget(&self) -> Budget {
        Budget::new(self.steps, self.wall)
    }
}

/// A fully lowered and SPNF-normalized verification goal. Both normal forms
/// must denote their query bodies with the *same* output variable `out`
/// free ([`normalize_pair`] aligns the right side onto the left).
pub struct Goal<'a> {
    /// Declared schemas and relations.
    pub catalog: &'a Catalog,
    /// Integrity constraints in scope.
    pub constraints: &'a ConstraintSet,
    /// The shared output tuple variable, free in both normal forms.
    pub out: VarId,
    /// Output schema of the left query.
    pub schema1: SchemaId,
    /// Output schema of the right query.
    pub schema2: SchemaId,
    /// Left side in SPNF.
    pub nf1: &'a Nf,
    /// Right side in SPNF.
    pub nf2: &'a Nf,
    /// Budgets and feature switches.
    pub config: SolveConfig,
}

/// How [`solve_normalized`] proves a goal. UDP is the only mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// The UDP decision procedure.
    #[default]
    Udp,
}

/// Prove a normalized goal with UDP (the mode argument has one value), or
/// with the identity shortcut when [`SolveConfig::identical_forms`] is set.
///
/// `Err` carries the message of a contained panic: the goal produced no
/// verdict. A chaos `Exhaust` action reruns the attempt with a zero-step
/// budget, so the goal ends `Timeout` through UDP's ordinary exit path.
/// The shortcut sits behind the same probe and containment, so injected
/// faults reach identical goals too.
pub fn solve_normalized(goal: &Goal, _mode: SolveMode) -> Result<Verdict, String> {
    let config = &goal.config;
    let recorder = &config.recorder;
    // Tag the prover's allocations and open a live trace span (the stage
    // table gets the same wall from the caller's `GoalObs::add`, which does
    // not re-emit trace events).
    let _tag = recorder.alloc_scope(Stage::UdpProve);
    let _span = recorder.trace_span("udp-prove");
    let action = config
        .faults
        .fire(recorder, PROBE_BACKEND_UDP, config.fault_key);
    if let Some(FaultAction::Delay(d)) = action {
        std::thread::sleep(d);
    }
    let budget = match action {
        Some(FaultAction::Exhaust) => Budget::new(Some(0), config.wall),
        _ => config.budget(),
    };
    // `AssertUnwindSafe` is sound: a panicking attempt contributes nothing
    // afterwards — its context and budget unwind with the stack, and the
    // shared recorder state is only updated through atomics.
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(FaultAction::Panic) = action {
            panic!(
                "chaos: injected panic at {PROBE_BACKEND_UDP} (goal {})",
                config.fault_key
            );
        }
        if config.identical_forms {
            return prove_identity(goal, budget);
        }
        decide_normalized_with(
            goal.catalog,
            goal.constraints,
            goal.out,
            goal.schema1,
            goal.schema2,
            goal.nf1,
            goal.nf2,
            DecideConfig {
                budget: Some(budget),
                options: config.options.clone(),
                record_trace: config.record_trace,
                recorder: recorder.clone(),
            },
        )
    }));
    match result {
        Ok(verdict) => {
            if !verdict.decision.is_definite() {
                recorder.instant("budget-exhausted");
            }
            Ok(verdict)
        }
        Err(payload) => {
            recorder.count(Counter::BackendFault, 1);
            recorder.instant("backend-fault");
            Err(format!("udp backend faulted: {}", panic_message(&*payload)))
        }
    }
}

/// The identity shortcut: charge one budget step, then end the goal
/// `Proved` with one trace step whose witness is the shared canonical form
/// (re-rendered only when a trace is recorded).
fn prove_identity(goal: &Goal, mut budget: Budget) -> Verdict {
    let start = Instant::now();
    let config = &goal.config;
    let mut trace = if config.record_trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let size = (goal.nf1.size(), goal.nf2.size());
    let mut stats = Stats {
        size_before: size,
        size_after: size,
        ..Stats::default()
    };
    let decision = match budget.tick() {
        Ok(()) => {
            config.recorder.count(Counter::IdentityProved, 1);
            trace.record(Rule::Identity, || {
                StepData::Witness(canonical_form_nf(
                    goal.catalog,
                    goal.nf1,
                    goal.out,
                    goal.schema1,
                ))
            });
            Decision::Proved
        }
        Err(kind) => {
            stats.exhausted = Some(kind);
            Decision::Timeout
        }
    };
    stats.steps_used = budget.steps_used();
    stats.wall = start.elapsed();
    Verdict {
        decision,
        trace,
        stats,
    }
}
