//! Property tests of the recorder's structural invariants:
//!
//! * **span balance** — every span enter has a matching exit, across
//!   arbitrary interleavings of spans, panicking closures, and threads,
//!   so `open_spans()` is 0 at quiescence;
//! * **waterfall bound** — a goal's per-stage (goal-path) sum never
//!   exceeds the goal wall the driver reports, when the driver times the
//!   stages inside the goal window;
//! * **count conservation** — global stage calls equal the sum of what
//!   each thread recorded, regardless of interleaving.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use udp_obs::{Recorder, Stage};

/// Decode one byte into a stage (all 12, dense).
fn stage_of(b: u8) -> Stage {
    Stage::ALL[b as usize % Stage::COUNT]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary open/close interleavings leave no span open: spans are
    /// RAII guards, so nesting depth is tracked by a shadow stack here and
    /// the recorder's counter must agree at every prefix end.
    #[test]
    fn spans_balance_under_arbitrary_nesting(ops in proptest::collection::vec(any::<u8>(), 1..60)) {
        let r = Recorder::enabled();
        let mut stack = Vec::new();
        for &op in &ops {
            if op % 3 == 0 && !stack.is_empty() {
                stack.pop(); // drop closes the span
            } else {
                stack.push(r.span(stage_of(op)));
            }
            prop_assert_eq!(r.open_spans() as usize, stack.len());
        }
        drop(stack);
        prop_assert_eq!(r.open_spans(), 0);
        prop_assert_eq!(r.snapshot().open_spans, 0);
    }

    /// Spans record even when the timed closure panics (guard drops during
    /// unwind), so a panicking backend cannot leak an open span.
    #[test]
    fn spans_survive_panics(stages in proptest::collection::vec(any::<u8>(), 1..10)) {
        let r = Recorder::enabled();
        for &b in &stages {
            let r2 = r.clone();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                r2.time(stage_of(b), || panic!("backend blew up"));
            }));
        }
        prop_assert_eq!(r.open_spans(), 0);
        let total: u64 = r.snapshot().stages.iter().map(|s| s.calls).sum();
        prop_assert_eq!(total, stages.len() as u64);
    }

    /// A driver that times stages inside its goal window can never produce
    /// a goal-path waterfall sum exceeding the goal wall it measures.
    #[test]
    fn waterfall_sum_is_bounded_by_goal_wall(spins in proptest::collection::vec(1u32..40, 1..7)) {
        let r = Recorder::enabled();
        let started = Instant::now();
        let goal = r.goal();
        for (i, &spin) in spins.iter().enumerate() {
            let stage = [Stage::Lower, Stage::Normalize, Stage::Fingerprint,
                         Stage::CacheLookup, Stage::UdpProve, Stage::Desugar]
                [i % 6];
            r.time(stage, || {
                // Busy-work proportional to `spin`, below timer noise floors.
                let mut acc = 0u64;
                for k in 0..(spin as u64 * 50) { acc = acc.wrapping_add(k * k); }
                std::hint::black_box(acc);
            });
        }
        let wall = started.elapsed();
        goal.finish(|| "prop goal".into(), wall, 0);
        let snap = r.snapshot();
        let trace = &snap.slow_goals[0];
        let stage_sum: u64 = trace.stages.iter()
            .filter(|(s, _, _)| s.in_goal_path())
            .map(|(_, ns, _)| *ns)
            .sum();
        prop_assert!(stage_sum <= trace.wall_ns,
            "stage sum {}ns exceeds goal wall {}ns", stage_sum, trace.wall_ns);
        // And globally: coverage over one goal cannot exceed 1 (plus timer
        // granularity slack).
        prop_assert!(snap.coverage() <= 1.001, "coverage {}", snap.coverage());
    }

    /// Clones on worker threads aggregate into the same tables: global
    /// calls are conserved across any split of work between threads.
    #[test]
    fn thread_clones_conserve_counts(work in proptest::collection::vec(any::<u8>(), 2..24)) {
        let r = Recorder::enabled();
        let mid = work.len() / 2;
        let (left, right) = (work[..mid].to_vec(), work[mid..].to_vec());
        std::thread::scope(|scope| {
            for chunk in [left.clone(), right.clone()] {
                let rc = r.clone();
                scope.spawn(move || {
                    for &b in &chunk {
                        rc.record(stage_of(b), Duration::from_micros(1 + b as u64), b as u64);
                    }
                });
            }
        });
        let snap = r.snapshot();
        let total: u64 = snap.stages.iter().map(|s| s.calls).sum();
        prop_assert_eq!(total, work.len() as u64);
        for stage in Stage::ALL {
            let want = work.iter().filter(|&&b| stage_of(b) == stage).count() as u64;
            prop_assert_eq!(snap.stage(stage).unwrap().calls, want);
            prop_assert_eq!(snap.stage(stage).unwrap().hist.total(), want);
        }
        prop_assert_eq!(snap.open_spans, 0);
    }
}
