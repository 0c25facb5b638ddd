//! # udp-obs: stage-level observability for the verification pipeline
//!
//! A zero-dependency instrumentation core shared by every layer of the
//! workspace. It provides:
//!
//! * [`Stage`] — the taxonomy of pipeline phases (parse → desugar → lower →
//!   normalize → fingerprint → cache lookup → prove → counterexample), split
//!   into *goal-path* stages whose shares sum to a coverage metric and
//!   *detail* stages that overlap them (see [`stage`]);
//! * [`Recorder`] — a cloneable handle to shared per-stage tables (calls,
//!   nanosecond wall, Budget steps, log₂ latency histograms). A stage
//!   occurrence is timed once, where it runs, by one [`Recorder::span`]:
//!   the span writes the stage table, tags the thread's allocations, emits
//!   the trace event and joins the open goal's waterfall. The default
//!   [`Recorder::disabled`] handle makes every operation a single branch:
//!   no clock reads, no atomics, so leaving instrumentation threaded
//!   through hot paths costs nothing (<2% on the throughput bench);
//! * [`GoalObs`] — one goal's window on its thread, collecting the stage
//!   waterfall its spans produce and folding it into a bounded
//!   slowest-goals list on completion;
//! * [`Counter`] — the intra-prover counter taxonomy (canonize iterations,
//!   axiom-family rewrite firings, congruence-closure traffic, term and
//!   cache sizes, contained faults), tallied on the same recorder, each
//!   at one increment site (see [`counter`]);
//! * [`Histogram`] — the log₂ latency histogram previously private to
//!   `udp-service`'s stats, now shared by stage cells and service stats;
//! * [`alloc`] — the memory domain: a tracking `GlobalAlloc` wrapper
//!   ([`alloc::TrackingAlloc`]) attributing allocation calls/bytes/frees to
//!   the innermost open stage via a thread-local tag pushed by
//!   [`Recorder::span`], plus a process-wide live-bytes high-watermark; dormant
//!   (one relaxed boolean load) until a [`MemSession`] starts;
//! * [`trace`] — bounded per-worker event buffers behind the same recorder
//!   handle, exported as Chrome Trace Event JSON (`--trace-out`) and
//!   re-validated by [`trace::validate_chrome_trace`];
//! * [`MetricsSnapshot`] — a stable, versioned JSON rendering
//!   (`--metrics-json`) plus human-readable tables (`--stats-every`,
//!   `--trace-goals`), and [`json`] — a small parser to round-trip and
//!   validate those snapshots without serde;
//! * [`ObsOutputs`] — the one writer for those outputs: the
//!   `--metrics-json`/`--trace-goals`/`--trace-out` requests, the recorder
//!   mode they need, and the files and waterfalls written at exit.
//!
//! The crate sits at the bottom of the dependency stack (below `udp-core`)
//! and is deliberately free of workspace and external dependencies; the
//! `validate-metrics` bin checks snapshot schema and invariants in CI, and
//! the `udp-prof-diff` bin diffs two snapshots as a perf-regression gate.

#![warn(missing_docs)]

pub mod alloc;
pub mod counter;
pub mod fault;
pub mod hist;
pub mod json;
pub mod outputs;
pub mod recorder;
pub mod snapshot;
pub mod stage;
pub mod trace;

pub use alloc::{MemSession, MemorySnapshot, TrackingAlloc};
pub use counter::Counter;
pub use fault::{install_chaos_panic_silencer, FaultAction, FaultInjector, FaultPlan};
pub use hist::{bucket_of, bucket_of_us, Histogram, LATENCY_BUCKETS};
pub use outputs::ObsOutputs;
pub use recorder::{GoalObs, Recorder, Span, DEFAULT_SLOW_CAPACITY};
pub use snapshot::{CounterSnapshot, GoalTrace, MetricsSnapshot, StageSnapshot};
pub use stage::Stage;
pub use trace::{validate_chrome_trace, TraceCheck, TraceSink, DEFAULT_TRACE_CAPACITY};
