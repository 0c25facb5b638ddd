//! The [`Recorder`]: a cloneable, thread-safe handle aggregating stage
//! timings, plus the per-goal span collector ([`GoalObs`]).
//!
//! ## Cost contract
//!
//! A disabled recorder (the default everywhere) must be *free*: every
//! operation is one `Option` branch — no clock reads, no atomics, no
//! allocation. The throughput bench verifies <2% overhead on the uncached
//! workload. An enabled recorder uses relaxed atomics per stage cell and a
//! mutex only on goal completion (the bounded slow-goal list).
//!
//! ## Single-writer discipline
//!
//! Every stage occurrence is recorded by exactly one layer (see
//! [`crate::Stage`] and DESIGN.md §8): goal-path stages by the goal driver
//! via [`GoalObs`], library-internal stages (`parse`, `canonize-core`,
//! `congruence`, …) by the owning crate via [`Recorder::span`] /
//! [`Recorder::record`]. [`GoalObs::time_local`] exists for the driver to
//! put a stage into the goal's waterfall when a lower layer already records
//! it globally (lowering, desugaring) — double-counting a stage in the
//! global tables would break the coverage invariant.

use crate::alloc::{self, MemSession};
use crate::counter::Counter;
use crate::hist::{bucket_of_us, Histogram, LATENCY_BUCKETS};
use crate::snapshot::{CounterSnapshot, GoalTrace, MetricsSnapshot, StageSnapshot};
use crate::stage::Stage;
use crate::trace::TraceSink;
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

    /// Record one completed stage occurrence with a known duration. The
    /// occurrence also lands in the event trace (as a span ending now) when
    /// a sink is attached — callers record immediately after the work, so
    /// `now − wall` is the span's true start.
    pub fn record(&self, stage: Stage, wall: Duration, steps: u64) {
        if let Some(inner) = &self.inner {
            inner.stages[stage.as_index()].record(wall, steps);
            if let Some(sink) = &inner.trace {
                let end = Instant::now();
                sink.span(stage.name(), end - wall, end);
            }
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

    /// Open a trace-only span (no stage-table write): for intervals that
    /// are *already* aggregated elsewhere under the single-writer rule —
    /// e.g. `udp-solve` wraps the prove call so the trace shows the live
    /// interval while the `udp-prove` table is still fed once, by the goal
    /// driver, from the verdict's wall.
    pub fn trace_span(&self, name: &'static str) -> TraceSpan<'_> {
        let sink = self.inner.as_ref().and_then(|i| i.trace.as_ref());
        TraceSpan {
            live: sink.map(|s| (s, name, Instant::now())),
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

    /// Open a stage span; the guard records the elapsed time when dropped
    /// and tags the thread's allocations with `stage` while open.
    /// Disabled recorders return an inert guard without reading the clock
    /// or touching the tag.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        match &self.inner {
            Some(inner) => {
                inner.open_spans.fetch_add(1, Ordering::Relaxed);
                Span {
                    _tag: Some(alloc::stage_tag(stage)),
                    live: Some((inner, stage, Instant::now())),
                }
            }
            None => Span {
                _tag: None,
                live: None,
            },
        }
    }

    /// Tag the current thread's allocations with `stage` until the guard
    /// drops, **without** touching the stage tables — for intervals whose
    /// wall time is recorded elsewhere under the single-writer rule (the
    /// prove call, whose wall the goal driver folds in post-hoc via
    /// [`GoalObs::add`]). `None` (no thread-local write) when
    /// disabled.
    pub fn alloc_scope(&self, stage: Stage) -> Option<alloc::TagGuard> {
        self.inner.as_ref().map(|_| alloc::stage_tag(stage))
    }

    /// Time a closure as one stage occurrence.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let _span = self.span(stage);
        f()
    }

    /// Start collecting one goal's stage waterfall.
    pub fn goal(&self) -> GoalObs {
        GoalObs {
            inner: self.inner.clone(),
            label_prefix: self.label_prefix.clone(),
            stages: Vec::new(),
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

/// RAII stage-span guard; records on drop. Every enter therefore has a
/// matching exit, including on early returns and `?` propagation. While
/// open, the thread's allocations are tagged with the span's stage (the
/// guard restores the enclosing tag on drop).
pub struct Span<'a> {
    _tag: Option<alloc::TagGuard>,
    live: Option<(&'a Inner, Stage, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((inner, stage, started)) = self.live.take() {
            let end = Instant::now();
            inner.stages[stage.as_index()].record(end - started, 0);
            inner.open_spans.fetch_sub(1, Ordering::Relaxed);
            if let Some(sink) = &inner.trace {
                sink.span(stage.name(), started, end);
            }
        }
    }
}

/// RAII trace-only span guard from [`Recorder::trace_span`]: feeds the
/// event trace without touching the stage tables. Inert without a sink.
pub struct TraceSpan<'a> {
    live: Option<(&'a TraceSink, &'static str, Instant)>,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if let Some((sink, name, started)) = self.live.take() {
            sink.span(name, started, Instant::now());
        }
    }
}

/// Per-goal span collector: a local (lock-free) waterfall of stage timings
/// that is folded into the global tables — and, if slow enough, the top-N
/// list — on [`GoalObs::finish`]. Obtained from [`Recorder::goal`]; inert
/// when the recorder is disabled.
pub struct GoalObs {
    inner: Option<Arc<Inner>>,
    label_prefix: Option<Arc<str>>,
    stages: Vec<(Stage, Duration, u64)>,
}

impl GoalObs {
    /// Is the underlying recorder enabled? (Lets drivers skip label
    /// rendering and other observation-only work.)
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Time a closure as one stage occurrence: waterfall + global tables
    /// (+ the event trace, if a sink is attached — this is the stage's
    /// single global writer, so it owns the trace span too).
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else {
            return f();
        };
        let tag = alloc::stage_tag(stage);
        let started = Instant::now();
        let r = f();
        let end = Instant::now();
        drop(tag);
        if let Some(sink) = &inner.trace {
            sink.span(stage.name(), started, end);
        }
        self.add(stage, end - started, 0);
        r
    }

    /// Time a closure into the waterfall **only** — for stages a lower
    /// layer already records globally (lowering inside `udp-sql`,
    /// desugaring inside `udp-ext`). Recording those globally here too
    /// would double-count them.
    pub fn time_local<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        if self.inner.is_none() {
            return f();
        }
        let tag = alloc::stage_tag(stage);
        let started = Instant::now();
        let r = f();
        let elapsed = started.elapsed();
        drop(tag);
        self.stages.push((stage, elapsed, 0));
        r
    }

    /// Add an occurrence with an externally measured duration (the prove
    /// call's wall from its verdict): waterfall + global.
    pub fn add(&mut self, stage: Stage, wall: Duration, steps: u64) {
        let Some(inner) = &self.inner else { return };
        inner.stages[stage.as_index()].record(wall, steps);
        self.stages.push((stage, wall, steps));
    }

    /// Complete the goal: fold into the goal counters and offer the
    /// waterfall to the slowest-goal list. The label is lazy so disabled
    /// recorders never pay for rendering it.
    pub fn finish(self, label: impl FnOnce() -> String, wall: Duration, steps: u64) {
        let Some(inner) = &self.inner else { return };
        let wall_ns = wall.as_nanos() as u64;
        inner.goals.fetch_add(1, Ordering::Relaxed);
        inner.goal_wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        let label = match &self.label_prefix {
            Some(prefix) => format!("{prefix} {}", label()),
            None => label(),
        };
        let mut slow = inner.slow.lock().unwrap_or_else(|e| e.into_inner());
        slow.push(GoalTrace {
            label,
            wall_ns,
            steps,
            stages: self
                .stages
                .iter()
                .map(|(s, d, st)| (*s, d.as_nanos() as u64, *st))
                .collect(),
        });
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
        let mut g = r.goal();
        g.add(Stage::UdpProve, Duration::from_micros(9), 1);
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
            let mut g = r.goal();
            g.add(Stage::UdpProve, Duration::from_micros(us), us);
            g.finish(|| name.into(), Duration::from_micros(us + 1), us);
        }
        let snap = r.snapshot();
        assert_eq!(snap.goals, 3);
        let labels: Vec<&str> = snap.slow_goals.iter().map(|g| g.label.as_str()).collect();
        assert_eq!(labels, ["b", "c"]); // top-2 by wall, descending
        assert_eq!(snap.stage(Stage::UdpProve).unwrap().calls, 3);
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
