//! The [`Recorder`]: a cloneable, thread-safe handle aggregating stage
//! timings, plus the per-goal window ([`GoalObs`]) that collects a goal's
//! stage waterfall.
//!
//! ## Cost contract
//!
//! A disabled recorder (the default everywhere) must be *free*: every
//! operation is one `Option` branch — no clock reads, no atomics, no
//! allocation. The throughput bench prints an enabled recorder's rate
//! against a disabled one's on the uncached workload, as medians and
//! quartiles over alternating rounds. An enabled recorder uses relaxed atomics per stage cell and a
//! mutex only on goal completion (the bounded slow-goal list).
//!
//! ## One span per stage occurrence
//!
//! A stage occurrence is timed once, where it runs, by [`Recorder::span`]
//! (or [`Recorder::time`], which wraps it). That one guard writes the
//! stage table, tags the thread's allocations with the stage, emits the
//! trace event and, for a goal-path stage, adds a row to the waterfall of
//! the goal this recorder has open on the thread ([`Recorder::goal`]).
//! [`Recorder::record`] does the same for an interval measured from
//! outside (the scheduler's queue wait). No other call writes a stage, so
//! no stage is counted twice.

use crate::alloc::{self, MemSession};
use crate::counter::Counter;
use crate::hist::{bucket_of_us, Histogram, LATENCY_BUCKETS};
use crate::snapshot::{CounterSnapshot, GoalTrace, MetricsSnapshot, StageSnapshot};
use crate::stage::Stage;
use crate::trace::TraceSink;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default capacity of the slowest-goal list.
pub const DEFAULT_SLOW_CAPACITY: usize = 32;

/// Per-stage aggregation cell (relaxed atomics; exactness across threads is
/// restored at snapshot time by quiescence, which every caller has when it
/// snapshots after its batch joins).
struct StageCell {
    calls: AtomicU64,
    wall_ns: AtomicU64,
    steps: AtomicU64,
    hist: [AtomicU64; LATENCY_BUCKETS],
}

impl StageCell {
    fn new() -> StageCell {
        StageCell {
            calls: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, wall: Duration, steps: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        if steps > 0 {
            self.steps.fetch_add(steps, Ordering::Relaxed);
        }
        let us = (wall.as_nanos() / 1_000) as u64;
        self.hist[bucket_of_us(us.max(1))].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bounded list of the slowest goals, kept sorted by descending wall time.
struct SlowGoals {
    capacity: usize,
    goals: Vec<GoalTrace>,
}

impl SlowGoals {
    fn push(&mut self, trace: GoalTrace) {
        if self.capacity == 0 {
            return;
        }
        if self.goals.len() == self.capacity
            && trace.wall_ns <= self.goals.last().map_or(0, |g| g.wall_ns)
        {
            return;
        }
        let at = self.goals.partition_point(|g| g.wall_ns >= trace.wall_ns);
        self.goals.insert(at, trace);
        self.goals.truncate(self.capacity);
    }
}

/// One waterfall row: stage, wall nanoseconds, steps.
type Row = (Stage, u64, u64);

/// The waterfall of the goal open on a thread: rows in the order the
/// stages ran, owned by one recorder's tables.
struct Waterfall {
    /// Address of the owning recorder's `Inner`: spans of other recorders
    /// do not join.
    owner: usize,
    rows: Vec<Row>,
}

thread_local! {
    /// The goal open on this thread ([`Recorder::goal`] sets it, the
    /// goal's [`GoalObs`] clears it).
    static OPEN_GOAL: RefCell<Option<Waterfall>> = const { RefCell::new(None) };
}

struct Inner {
    stages: [StageCell; Stage::COUNT],
    /// The [`Counter`] taxonomy's tallies (relaxed; exact at quiescence).
    counters: [AtomicU64; Counter::COUNT],
    goals: AtomicU64,
    goal_wall_ns: AtomicU64,
    /// Live span guards (enter − exit); the span-balance invariant says
    /// this is 0 whenever no stage is executing.
    open_spans: AtomicI64,
    slow: Mutex<SlowGoals>,
    /// Optional event-trace collector (`--trace-out`); absent by default
    /// so metrics-only recorders pay nothing for it.
    trace: Option<TraceSink>,
    /// Optional memory-accounting session ([`Recorder::track_memory`]);
    /// absent by default so the allocator hooks stay dormant.
    memory: Mutex<Option<MemSession>>,
}

impl Inner {
    /// Record one stage occurrence of `wall` ending at `end`: the stage
    /// table, the event trace and, for a goal-path stage, the waterfall of
    /// this recorder's goal open on the calling thread. Adjacent rows of
    /// one stage merge (a goal's two `desugar` spans are one row).
    fn record(&self, stage: Stage, wall: Duration, end: Instant, steps: u64) {
        self.stages[stage.as_index()].record(wall, steps);
        if let Some(sink) = &self.trace {
            sink.span(stage.name(), end - wall, end);
        }
        if !stage.in_goal_path() {
            return;
        }
        let owner = self as *const Inner as usize;
        let wall_ns = wall.as_nanos() as u64;
        let _ = OPEN_GOAL.try_with(|open| {
            let mut open = open.borrow_mut();
            let Some(goal) = open.as_mut().filter(|g| g.owner == owner) else {
                return;
            };
            match goal.rows.last_mut() {
                Some((last, ns, st)) if *last == stage => {
                    *ns += wall_ns;
                    *st += steps;
                }
                _ => goal.rows.push((stage, wall_ns, steps)),
            }
        });
    }
}

/// Cloneable handle to the stage-metrics aggregation tables. The default
/// handle is *disabled* and free (see the module docs); an enabled handle
/// shares its tables with every clone, so one recorder can observe a whole
/// worker pool, many sessions, or a corpus sweep at once.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    /// Prefix of the goal labels finished through this handle
    /// ([`Recorder::labelled`]); `None` on a disabled handle.
    label_prefix: Option<Arc<str>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Recorder {
    /// The free no-op handle (what every config defaults to).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// An enabled recorder keeping up to [`DEFAULT_SLOW_CAPACITY`] slowest
    /// goal waterfalls.
    pub fn enabled() -> Recorder {
        Recorder::with_slow_capacity(DEFAULT_SLOW_CAPACITY)
    }

    /// An enabled recorder keeping up to `capacity` slowest goal traces.
    pub fn with_slow_capacity(capacity: usize) -> Recorder {
        Recorder::build(capacity, None)
    }

    /// An enabled recorder that also collects per-worker event traces
    /// (spans + instants) into bounded rings of `trace_capacity` events per
    /// lane, exportable with [`Recorder::chrome_trace`].
    pub fn with_trace(slow_capacity: usize, trace_capacity: usize) -> Recorder {
        Recorder::build(slow_capacity, Some(TraceSink::new(trace_capacity)))
    }

    fn build(slow_capacity: usize, trace: Option<TraceSink>) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                stages: std::array::from_fn(|_| StageCell::new()),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                goals: AtomicU64::new(0),
                goal_wall_ns: AtomicU64::new(0),
                open_spans: AtomicI64::new(0),
                slow: Mutex::new(SlowGoals {
                    capacity: slow_capacity,
                    goals: Vec::new(),
                }),
                trace,
                memory: Mutex::new(None),
            })),
            label_prefix: None,
        }
    }

    /// A handle on the same tables whose goals are labelled
    /// `"{prefix} {label}"` in the slowest-goal list, so sessions that
    /// number their goals from 0 can share one recorder and still be told
    /// apart. A disabled recorder stays disabled and free.
    pub fn labelled(&self, prefix: &str) -> Recorder {
        Recorder {
            inner: self.inner.clone(),
            label_prefix: self.inner.as_ref().map(|_| prefix.into()),
        }
    }

    /// Attach a memory-accounting session (see [`crate::alloc`]): resets
    /// the global allocation table and enables stage-attributed allocator
    /// bookkeeping for this recorder's lifetime. Sessions are exclusive
    /// per process; a losing race leaves the snapshot's memory section
    /// inactive rather than corrupting the owner's numbers. No-op on a
    /// disabled recorder or when called twice.
    pub fn track_memory(&self) {
        if let Some(inner) = &self.inner {
            let mut mem = inner.memory.lock().unwrap_or_else(|e| e.into_inner());
            if mem.is_none() {
                *mem = Some(MemSession::start());
            }
        }
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one stage occurrence measured from outside (queue wait),
    /// ending now: everything a [`Span`] records except the allocation tag.
    pub fn record(&self, stage: Stage, wall: Duration, steps: u64) {
        if let Some(inner) = &self.inner {
            inner.record(stage, wall, Instant::now(), steps);
        }
    }

    /// Bump a profiling counter by `n`. One branch when disabled, one
    /// relaxed `fetch_add` when enabled — cheap enough for rewrite loops.
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter.as_index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Store a gauge counter's current level (an atomic store, replacing
    /// the previous value — for non-monotone quantities like cache
    /// residency). One branch when disabled.
    #[inline]
    pub fn gauge(&self, counter: Counter, value: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter.as_index()].store(value, Ordering::Relaxed);
        }
    }

    /// Read one counter's current total.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.counters[counter.as_index()].load(Ordering::Relaxed)
        })
    }

    /// Drop a point event (cache hit, budget exhaustion, contained fault)
    /// into the calling worker's trace lane. No-op without a sink.
    pub fn instant(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.trace {
                sink.instant(name);
            }
        }
    }

    /// Is an event-trace sink attached?
    pub fn has_trace(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace.is_some())
    }

    /// Render the attached event trace as Chrome Trace Event JSON
    /// (`None` without a sink). See [`crate::trace`].
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner
            .as_ref()
            .and_then(|i| i.trace.as_ref())
            .map(TraceSink::chrome_trace)
    }

    /// Open a stage span: the one way to time a stage occurrence (see the
    /// module docs). The guard tags the thread's allocations with `stage`
    /// while open and records the occurrence when dropped. Disabled
    /// recorders return an inert guard without reading the clock or
    /// touching the tag.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        match &self.inner {
            Some(inner) => {
                inner.open_spans.fetch_add(1, Ordering::Relaxed);
                Span {
                    tag: Some(alloc::stage_tag(stage)),
                    live: Some((inner, stage, Instant::now())),
                    steps: 0,
                }
            }
            None => Span {
                tag: None,
                live: None,
                steps: 0,
            },
        }
    }

    /// Time a closure as one stage occurrence (a [`Recorder::span`]).
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let _span = self.span(stage);
        f()
    }

    /// Open one goal's window on this thread: until the returned
    /// [`GoalObs`] finishes or drops, this recorder's goal-path stage
    /// occurrences on the thread become the goal's waterfall rows. Inert
    /// (no clock read, no thread-local access) when disabled.
    pub fn goal(&self) -> GoalObs {
        let open = self.inner.as_ref().map(|inner| {
            let waterfall = Waterfall {
                owner: Arc::as_ptr(inner) as usize,
                rows: Vec::with_capacity(8),
            };
            OpenGoal {
                inner: inner.clone(),
                label_prefix: self.label_prefix.clone(),
                started: Instant::now(),
                outer: OPEN_GOAL.with(|open| open.replace(Some(waterfall))),
            }
        });
        GoalObs {
            open,
            _thread: PhantomData,
        }
    }

    /// Number of currently open span guards (0 at quiescence — the
    /// span-balance invariant).
    pub fn open_spans(&self) -> i64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.open_spans.load(Ordering::Relaxed))
    }

    /// Snapshot the aggregation tables. Cheap enough to call repeatedly
    /// (the in-flight `--stats-every` summaries); exact at quiescence.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::empty();
        };
        let stages = Stage::ALL
            .into_iter()
            .map(|stage| {
                let cell = &inner.stages[stage.as_index()];
                let mut buckets = [0u64; LATENCY_BUCKETS];
                for (b, a) in buckets.iter_mut().zip(cell.hist.iter()) {
                    *b = a.load(Ordering::Relaxed);
                }
                StageSnapshot {
                    stage,
                    calls: cell.calls.load(Ordering::Relaxed),
                    wall_ns: cell.wall_ns.load(Ordering::Relaxed),
                    steps: cell.steps.load(Ordering::Relaxed),
                    hist: Histogram::from_buckets(buckets),
                }
            })
            .collect();
        let counters = Counter::ALL
            .into_iter()
            .map(|counter| CounterSnapshot {
                counter,
                value: inner.counters[counter.as_index()].load(Ordering::Relaxed),
            })
            .collect();
        MetricsSnapshot {
            enabled: true,
            goals: inner.goals.load(Ordering::Relaxed),
            goal_wall_ns: inner.goal_wall_ns.load(Ordering::Relaxed),
            open_spans: inner.open_spans.load(Ordering::Relaxed),
            stages,
            counters,
            slow_goals: inner
                .slow
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .goals
                .clone(),
            memory: inner
                .memory
                .lock()
                .unwrap()
                .as_ref()
                .and_then(MemSession::snapshot),
        }
    }
}

/// RAII stage-span guard from [`Recorder::span`]; records on drop, so
/// every enter has a matching exit, including on early returns, `?`
/// propagation and unwinding. While open, the thread's allocations are
/// tagged with the span's stage (the guard restores the enclosing tag on
/// drop).
pub struct Span<'a> {
    tag: Option<alloc::TagGuard>,
    live: Option<(&'a Inner, Stage, Instant)>,
    steps: u64,
}

impl Span<'_> {
    /// Set the budget steps this occurrence consumed (the prove call's).
    pub fn set_steps(&mut self, steps: u64) {
        self.steps = steps;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((inner, stage, started)) = self.live.take() {
            let end = Instant::now();
            // Bookkeeping after the interval is charged to the enclosing tag.
            self.tag = None;
            inner.open_spans.fetch_sub(1, Ordering::Relaxed);
            inner.record(stage, end - started, end, self.steps);
        }
    }
}

/// An open goal's state behind [`GoalObs`].
struct OpenGoal {
    inner: Arc<Inner>,
    label_prefix: Option<Arc<str>>,
    started: Instant,
    /// The waterfall this goal displaced (a goal opened inside another
    /// goal's window on the same thread), restored when this one closes.
    outer: Option<Waterfall>,
}

/// One goal's window, from [`Recorder::goal`]: collects the goal's stage
/// waterfall on the opening thread and, on [`GoalObs::finish`], folds the
/// goal into the global tables and offers the waterfall to the
/// slowest-goal list. Dropping it unfinished (a panicking goal) closes
/// the window without recording the goal. It emits the goal's `"goal"`
/// trace span either way. Inert when the recorder is disabled.
pub struct GoalObs {
    open: Option<OpenGoal>,
    /// The window lives in a thread-local: keep it on its thread.
    _thread: PhantomData<*const ()>,
}

impl GoalObs {
    /// Close the window: restore the displaced goal, emit the `"goal"`
    /// trace span, and return the goal with its waterfall rows.
    fn close(&mut self) -> Option<(OpenGoal, Vec<Row>)> {
        let mut goal = self.open.take()?;
        let rows = OPEN_GOAL
            .try_with(|open| open.replace(goal.outer.take()))
            .ok()
            .flatten()
            .map_or_else(Vec::new, |w| w.rows);
        if let Some(sink) = &goal.inner.trace {
            sink.span("goal", goal.started, Instant::now());
        }
        Some((goal, rows))
    }

    /// Complete the goal: fold into the goal counters and offer the
    /// waterfall to the slowest-goal list. The label is lazy so disabled
    /// recorders never pay for rendering it.
    pub fn finish(mut self, label: impl FnOnce() -> String, wall: Duration, steps: u64) {
        let Some((goal, stages)) = self.close() else {
            return;
        };
        let wall_ns = wall.as_nanos() as u64;
        goal.inner.goals.fetch_add(1, Ordering::Relaxed);
        goal.inner
            .goal_wall_ns
            .fetch_add(wall_ns, Ordering::Relaxed);
        let label = match &goal.label_prefix {
            Some(prefix) => format!("{prefix} {}", label()),
            None => label(),
        };
        let mut slow = goal.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
        slow.push(GoalTrace {
            label,
            wall_ns,
            steps,
            stages,
        });
    }
}

impl Drop for GoalObs {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(Stage::Lower, Duration::from_micros(5), 3);
        let x = r.time(Stage::Parse, || 42);
        assert_eq!(x, 42);
        let g = r.goal();
        r.record(Stage::UdpProve, Duration::from_micros(9), 1);
        g.finish(|| "g".into(), Duration::from_micros(10), 1);
        let snap = r.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.goals, 0);
        assert!(snap.stages.is_empty());
    }

    #[test]
    fn record_and_span_aggregate_per_stage() {
        let r = Recorder::enabled();
        r.record(Stage::Lower, Duration::from_micros(10), 7);
        r.record(Stage::Lower, Duration::from_micros(20), 3);
        {
            let _s = r.span(Stage::Congruence);
            assert_eq!(r.open_spans(), 1);
        }
        assert_eq!(r.open_spans(), 0);
        let snap = r.snapshot();
        let lower = snap.stage(Stage::Lower).unwrap();
        assert_eq!(lower.calls, 2);
        assert_eq!(lower.steps, 10);
        assert!(lower.wall_ns >= 30_000);
        assert_eq!(lower.hist.total(), 2);
        assert_eq!(snap.stage(Stage::Congruence).unwrap().calls, 1);
    }

    #[test]
    fn clones_share_tables() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.record(Stage::Parse, Duration::from_micros(1), 0);
        assert_eq!(r.snapshot().stage(Stage::Parse).unwrap().calls, 1);
    }

    #[test]
    fn goal_waterfalls_feed_the_slow_list_in_order() {
        let r = Recorder::with_slow_capacity(2);
        for (name, us) in [("a", 10), ("b", 300), ("c", 50)] {
            let g = r.goal();
            r.record(Stage::UdpProve, Duration::from_micros(us), us);
            g.finish(|| name.into(), Duration::from_micros(us + 1), us);
        }
        let snap = r.snapshot();
        assert_eq!(snap.goals, 3);
        let labels: Vec<&str> = snap.slow_goals.iter().map(|g| g.label.as_str()).collect();
        assert_eq!(labels, ["b", "c"]); // top-2 by wall, descending
        assert_eq!(snap.stage(Stage::UdpProve).unwrap().calls, 3);
    }

    #[test]
    fn goal_spans_become_waterfall_rows_and_adjacent_rows_merge() {
        let r = Recorder::enabled();
        let g = r.goal();
        r.time(Stage::Desugar, || ());
        r.time(Stage::Desugar, || ());
        r.time(Stage::Congruence, || ()); // detail stage: no row
        {
            let mut span = r.span(Stage::UdpProve);
            span.set_steps(7);
        }
        r.record(Stage::QueueWait, Duration::from_micros(3), 0); // no row
        g.finish(|| "g".into(), Duration::from_secs(1), 7);
        let snap = r.snapshot();
        let rows: Vec<(Stage, u64)> = snap.slow_goals[0]
            .stages
            .iter()
            .map(|&(s, _, steps)| (s, steps))
            .collect();
        assert_eq!(rows, [(Stage::Desugar, 0), (Stage::UdpProve, 7)]);
        assert_eq!(snap.stage(Stage::Desugar).unwrap().calls, 2);
        assert_eq!(snap.stage(Stage::UdpProve).unwrap().steps, 7);
    }

    #[test]
    fn spans_of_another_recorder_do_not_join_the_goal() {
        let r = Recorder::enabled();
        let other = Recorder::enabled();
        let g = r.goal();
        other.time(Stage::Lower, || ());
        other.record(Stage::Normalize, Duration::from_micros(4), 0);
        r.time(Stage::Fingerprint, || ());
        // A labelled handle shares the tables: its spans do join.
        r.labelled("p").time(Stage::CacheLookup, || ());
        g.finish(|| "g".into(), Duration::from_secs(1), 0);
        let stages: Vec<Stage> = r.snapshot().slow_goals[0]
            .stages
            .iter()
            .map(|&(s, _, _)| s)
            .collect();
        assert_eq!(stages, [Stage::Fingerprint, Stage::CacheLookup]);
        assert_eq!(other.snapshot().stage(Stage::Lower).unwrap().calls, 1);
        assert!(other.snapshot().slow_goals.is_empty());
    }

    #[test]
    fn a_dropped_goal_closes_its_window() {
        let r = Recorder::with_trace(DEFAULT_SLOW_CAPACITY, 64);
        let _ = std::panic::catch_unwind(|| {
            let _g = r.goal();
            r.time(Stage::Lower, || ());
            panic!("goal blew up");
        });
        r.time(Stage::Normalize, || ()); // outside every goal: no row
        let g = r.goal();
        r.time(Stage::Fingerprint, || ());
        g.finish(|| "next".into(), Duration::from_secs(1), 0);
        let snap = r.snapshot();
        assert_eq!(snap.goals, 1, "an unfinished goal is not counted");
        let goal_events = r
            .chrome_trace()
            .unwrap()
            .matches("\"name\": \"goal\"")
            .count();
        assert_eq!(goal_events, 4, "both goals emit their B/E `goal` span");
        let stages: Vec<Stage> = snap.slow_goals[0]
            .stages
            .iter()
            .map(|&(s, _, _)| s)
            .collect();
        assert_eq!(stages, [Stage::Fingerprint]);
    }

    #[test]
    fn a_nested_goal_restores_the_outer_window() {
        let r = Recorder::enabled();
        let outer = r.goal();
        r.time(Stage::Lower, || ());
        let inner = r.goal();
        r.time(Stage::Normalize, || ());
        inner.finish(|| "inner".into(), Duration::from_secs(1), 0);
        r.time(Stage::UdpProve, || ());
        outer.finish(|| "outer".into(), Duration::from_secs(2), 0);
        let snap = r.snapshot();
        let rows = |label: &str| -> Vec<Stage> {
            let g = snap.slow_goals.iter().find(|g| g.label == label).unwrap();
            g.stages.iter().map(|&(s, _, _)| s).collect()
        };
        assert_eq!(rows("outer"), [Stage::Lower, Stage::UdpProve]);
        assert_eq!(rows("inner"), [Stage::Normalize]);
    }

    #[test]
    fn span_guard_records_on_early_drop() {
        let r = Recorder::enabled();
        fn inner(r: &Recorder) -> Result<(), ()> {
            let _s = r.span(Stage::CanonizeCore);
            Err(()) // early exit still closes the span
        }
        let _ = inner(&r);
        assert_eq!(r.open_spans(), 0);
        assert_eq!(r.snapshot().stage(Stage::CanonizeCore).unwrap().calls, 1);
    }
}
