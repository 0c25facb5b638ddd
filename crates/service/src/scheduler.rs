//! Fixed worker-pool scheduler for goal batches.
//!
//! Plain `std::thread::scope` workers pulling goal indices from a shared
//! atomic counter and reporting `(index, report)` pairs over an mpsc channel;
//! the collector reassembles results in input order. Each worker owns a
//! private clone of the session's prepared [`udp_sql::Frontend`], so lowering
//! (which grows the catalog with anonymous subquery schemas) never contends.

use crate::{GoalReport, Session};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use udp_obs::fault::panic_message;
use udp_obs::Stage;
use udp_sql::ast::Query;

/// Worker supervision: run one goal with the unwind contained, so a
/// poisoned goal (chaos goal-probe injection or a real defect outside the
/// backend containment boundary) yields an aborted [`GoalReport`] instead
/// of killing the worker thread — the batch stays complete and
/// order-preserving, and the other goals are untouched.
///
/// `AssertUnwindSafe` is sound for the same reason as the backend boundary:
/// the panicking goal's partial state unwinds with the stack, the worker's
/// frontend clone is rebuilt fresh (lowering may have half-grown its
/// catalog), and cross-goal state (cache, stats, recorder) is only ever
/// updated under poison-tolerant locks or atomics.
fn supervise(
    session: &Session,
    fe: &mut udp_sql::Frontend,
    index: usize,
    number: usize,
    goal: &(Query, Query),
) -> GoalReport {
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| {
        session.process_goal(fe, index, number, goal)
    })) {
        Ok(report) => report,
        Err(payload) => {
            // The half-used frontend may hold partially lowered state;
            // replace it so later goals on this worker start clean.
            *fe = session.base_clone();
            session.panic_report(index, started.elapsed(), panic_message(&*payload))
        }
    }
}

/// Run `goals` through the session's worker pool, preserving input order.
/// `numbers[i]` labels goal `i`'s metrics.
///
/// Queue wait (batch submission → a worker picking a goal up) is recorded
/// as the `queue-wait` stage once per goal, *in both branches*: sequential
/// execution is just a one-worker queue, and recording it there too keeps
/// per-stage call counts identical across worker counts (an invariant the
/// metrics tests pin down).
pub(crate) fn run_batch(
    session: &Session,
    goals: &[(Query, Query)],
    numbers: &[usize],
) -> Vec<GoalReport> {
    let workers = session.config().workers.max(1).min(goals.len().max(1));
    let recorder = &session.config().recorder;
    let batch_start = Instant::now();
    let run = |fe: &mut udp_sql::Frontend, i: usize| {
        if recorder.is_enabled() {
            recorder.record(Stage::QueueWait, batch_start.elapsed(), 0);
        }
        supervise(session, fe, i, numbers[i], &goals[i])
    };
    if workers <= 1 {
        let mut fe = session.base_clone();
        return (0..goals.len()).map(|i| run(&mut fe, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, GoalReport)>();
    let mut slots: Vec<Option<GoalReport>> = (0..goals.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || {
                let mut fe = session.base_clone();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= goals.len() {
                        break;
                    }
                    if tx.send((i, run(&mut fe, i))).is_err() {
                        break; // collector gone; nothing useful left to do
                    }
                }
            });
        }
        drop(tx);
        for (i, report) in rx {
            slots[i] = Some(report);
        }
    });
    // A slot the collector never received — a worker died in a way even the
    // supervisor could not report (e.g. an abort-on-double-panic) — gets an
    // aborted report instead of a collector panic: the batch stays
    // order-preserving and complete.
    let gap = "worker never reported (supervision gap)";
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| session.panic_report(i, Duration::ZERO, gap)))
        .collect()
}

impl Session {
    /// A fresh private frontend for one worker.
    pub(crate) fn base_clone(&self) -> udp_sql::Frontend {
        self.base.clone()
    }
}
