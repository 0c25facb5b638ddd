//! Point-in-time views of a [`crate::Recorder`]'s tables, and the stable
//! machine-readable JSON rendering behind `--metrics-json`.
//!
//! The JSON schema (version 5 — version 4 without the per-backend
//! `backends` array, whose one remaining row duplicated the `udp-prove`
//! stage, and with the `canonize` stage renamed `normalize`; version 4
//! added the `faults` section, version 3 the `memory` section: per-stage
//! allocation attribution, the live-bytes high-watermark, bytes-per-goal,
//! and cache residency):
//!
//! ```json
//! {
//!   "schema_version": 5,
//!   "goals": 240,
//!   "goal_wall_us": 18234.5,
//!   "coverage": 0.97,
//!   "open_spans": 0,
//!   "stages": [
//!     {"stage": "lower", "calls": 240, "wall_us": 512.3, "share": 0.028,
//!      "steps": 0, "p50_us": 2, "p99_us": 16, "goal_path": true,
//!      "hist": [0, 12, ...]},
//!     ...
//!   ],
//!   "counters": [
//!     {"counter": "canonize-iters", "value": 1312},
//!     {"counter": "congruence-finds", "value": 4821},
//!     ...
//!   ],
//!   "faults": {
//!     "backend_faults": 0,
//!     "goals_aborted": 0,
//!     "faults_injected": 0
//!   },
//!   "memory": {
//!     "tracked": true,
//!     "live_bytes": 1048576,
//!     "peak_live_bytes": 4194304,
//!     "alloc_bytes": 92873472,
//!     "alloc_calls": 301202,
//!     "bytes_per_goal": 386972.8,
//!     "cache_resident_bytes": 52480,
//!     "stages": [
//!       {"stage": "normalize", "alloc_calls": 1202, "alloc_bytes": 482304,
//!        "bytes_freed": 430080},
//!       ...,
//!       {"stage": "untagged", "alloc_calls": 88, "alloc_bytes": 9216,
//!        "bytes_freed": 4096}
//!     ]
//!   },
//!   "slow_goals": [
//!     {"label": "goal 17", "wall_us": 900.1, "steps": 4821,
//!      "stages": [{"stage": "normalize", "wall_us": 120.0, "steps": 0}, ...]}
//!   ]
//! }
//! ```
//!
//! `stages` always lists all [`Stage::ALL`] entries in pipeline order, even
//! at zero calls, so consumers can index by position or by name; `counters`
//! likewise lists all [`Counter::ALL`] entries. Shares are fractions of
//! `goal_wall_us`; only `goal_path: true` shares may be summed (their sum
//! is `coverage` — see [`crate::stage`]).
//!
//! `memory` is `null` for recorders without a memory session
//! ([`crate::Recorder::track_memory`]); when present, its `stages` array
//! lists every stage in pipeline order plus a trailing `"untagged"` row,
//! and `"tracked": false` flags a process without the tracking allocator
//! installed (every allocation row is then zero, though `bytes_per_goal`'s
//! deterministic cousins `term-bytes`/`spnf-bytes` still appear under
//! `counters`). See [`crate::alloc`] for attribution semantics.

use crate::alloc::MemorySnapshot;
use crate::counter::Counter;
use crate::hist::Histogram;
use crate::stage::Stage;

/// Aggregated totals for one stage.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Completed occurrences.
    pub calls: u64,
    /// Total wall time, nanoseconds. (Accumulated in ns — µs truncation
    /// on short stages would visibly under-report coverage.)
    pub wall_ns: u64,
    /// Total Budget steps attributed to this stage.
    pub steps: u64,
    /// Per-occurrence latency histogram.
    pub hist: Histogram,
}

impl StageSnapshot {
    /// Total wall time in (fractional) microseconds.
    pub fn wall_us(&self) -> f64 {
        self.wall_ns as f64 / 1_000.0
    }
}

/// One goal's recorded waterfall: `(stage, wall_ns, steps)` in the order
/// the stages ran.
#[derive(Debug, Clone)]
pub struct GoalTrace {
    /// Driver-assigned label (e.g. `"goal 17"` or a corpus rule name).
    pub label: String,
    /// End-to-end wall time of the goal, nanoseconds.
    pub wall_ns: u64,
    /// Budget steps the goal consumed.
    pub steps: u64,
    /// The stage waterfall.
    pub stages: Vec<(Stage, u64, u64)>,
}

/// One [`Counter`]'s total at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct CounterSnapshot {
    /// Which counter.
    pub counter: Counter,
    /// Its monotonic total.
    pub value: u64,
}

/// A point-in-time copy of a recorder's aggregation tables.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Whether the recorder was enabled (disabled handles snapshot empty).
    pub enabled: bool,
    /// Goals finished (`GoalObs::finish` calls).
    pub goals: u64,
    /// Total per-goal wall time, nanoseconds.
    pub goal_wall_ns: u64,
    /// Open span guards at snapshot time (0 at quiescence).
    pub open_spans: i64,
    /// All stages in [`Stage::ALL`] order; empty when disabled.
    pub stages: Vec<StageSnapshot>,
    /// All counters in [`Counter::ALL`] order; empty when disabled.
    pub counters: Vec<CounterSnapshot>,
    /// Slowest goals, descending by wall time.
    pub slow_goals: Vec<GoalTrace>,
    /// The allocation-attribution table, when a memory session is attached
    /// (see [`crate::alloc`]); `None` otherwise.
    pub memory: Option<MemorySnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot of a disabled recorder.
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: false,
            goals: 0,
            goal_wall_ns: 0,
            open_spans: 0,
            stages: Vec::new(),
            counters: Vec::new(),
            slow_goals: Vec::new(),
            memory: None,
        }
    }

    /// Look up one stage's totals.
    pub fn stage(&self, stage: Stage) -> Option<&StageSnapshot> {
        self.stages.get(stage.as_index())
    }

    /// One counter's total (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.as_index()).map_or(0, |c| c.value)
    }

    /// Total per-goal wall time in (fractional) microseconds.
    pub fn goal_wall_us(&self) -> f64 {
        self.goal_wall_ns as f64 / 1_000.0
    }

    /// `stage`'s share of total goal wall time (0 when no goal time).
    pub fn share(&self, stage: Stage) -> f64 {
        if self.goal_wall_ns == 0 {
            return 0.0;
        }
        self.stage(stage)
            .map_or(0.0, |s| s.wall_ns as f64 / self.goal_wall_ns as f64)
    }

    /// Fraction of goal wall time attributed to goal-path stages — the
    /// "did we account for where the time went?" number. Sums only the
    /// non-overlapping stages, so 1.0 is the ideal.
    pub fn coverage(&self) -> f64 {
        Stage::ALL
            .into_iter()
            .filter(|s| s.in_goal_path())
            .map(|s| self.share(s))
            .sum()
    }

    /// Mean tracked allocation bytes per finished goal (0 without a
    /// memory session or goals).
    pub fn bytes_per_goal(&self) -> f64 {
        match &self.memory {
            Some(mem) if self.goals > 0 => mem.total_alloc_bytes() as f64 / self.goals as f64,
            _ => 0.0,
        }
    }

    /// Render the version-5 metrics JSON (see the module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 5,\n");
        out.push_str(&format!("  \"goals\": {},\n", self.goals));
        out.push_str(&format!(
            "  \"goal_wall_us\": {},\n",
            fmt_f64(self.goal_wall_us())
        ));
        out.push_str(&format!("  \"coverage\": {},\n", fmt_f64(self.coverage())));
        out.push_str(&format!("  \"open_spans\": {},\n", self.open_spans));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": {}, \"calls\": {}, \"wall_us\": {}, \"share\": {}, \
                 \"steps\": {}, \"p50_us\": {}, \"p99_us\": {}, \"goal_path\": {}, \
                 \"hist\": [{}]}}{}\n",
                json_str(s.stage.name()),
                s.calls,
                fmt_f64(s.wall_us()),
                fmt_f64(self.share(s.stage)),
                s.steps,
                s.hist.percentile_us(0.5),
                s.hist.percentile_us(0.99),
                s.stage.in_goal_path(),
                s.hist
                    .buckets()
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"counter\": {}, \"value\": {}}}{}\n",
                json_str(c.counter.name()),
                c.value,
                if i + 1 < self.counters.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"faults\": {\n");
        out.push_str(&format!(
            "    \"backend_faults\": {},\n",
            self.counter(Counter::BackendFault)
        ));
        out.push_str(&format!(
            "    \"goals_aborted\": {},\n",
            self.counter(Counter::GoalAborted)
        ));
        out.push_str(&format!(
            "    \"faults_injected\": {}\n",
            self.counter(Counter::FaultsInjected)
        ));
        out.push_str("  },\n");
        match &self.memory {
            None => out.push_str("  \"memory\": null,\n"),
            Some(mem) => {
                out.push_str("  \"memory\": {\n");
                out.push_str(&format!("    \"tracked\": {},\n", mem.tracked));
                out.push_str(&format!("    \"live_bytes\": {},\n", mem.live_bytes));
                out.push_str(&format!(
                    "    \"peak_live_bytes\": {},\n",
                    mem.peak_live_bytes
                ));
                out.push_str(&format!(
                    "    \"alloc_bytes\": {},\n",
                    mem.total_alloc_bytes()
                ));
                out.push_str(&format!(
                    "    \"alloc_calls\": {},\n",
                    mem.total_alloc_calls()
                ));
                out.push_str(&format!(
                    "    \"bytes_per_goal\": {},\n",
                    fmt_f64(self.bytes_per_goal())
                ));
                out.push_str(&format!(
                    "    \"cache_resident_bytes\": {},\n",
                    self.counter(Counter::CacheResidentBytes)
                ));
                out.push_str("    \"stages\": [\n");
                for (i, row) in mem.stages.iter().enumerate() {
                    out.push_str(&format!(
                        "      {{\"stage\": {}, \"alloc_calls\": {}, \"alloc_bytes\": {}, \
                         \"bytes_freed\": {}}}{}\n",
                        json_str(row.name()),
                        row.alloc_calls,
                        row.alloc_bytes,
                        row.bytes_freed,
                        if i + 1 < mem.stages.len() { "," } else { "" }
                    ));
                }
                out.push_str("    ]\n");
                out.push_str("  },\n");
            }
        }
        out.push_str("  \"slow_goals\": [\n");
        for (i, g) in self.slow_goals.iter().enumerate() {
            let stages = g
                .stages
                .iter()
                .map(|(s, ns, steps)| {
                    format!(
                        "{{\"stage\": {}, \"wall_us\": {}, \"steps\": {}}}",
                        json_str(s.name()),
                        fmt_f64(*ns as f64 / 1_000.0),
                        steps
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"label\": {}, \"wall_us\": {}, \"steps\": {}, \"stages\": [{}]}}{}\n",
                json_str(&g.label),
                fmt_f64(g.wall_ns as f64 / 1_000.0),
                g.steps,
                stages,
                if i + 1 < self.slow_goals.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable stage table (the `--stats` / `--stats-every` view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "obs: {} goals, {:.1}ms goal wall, coverage {:.1}%\n",
            self.goals,
            self.goal_wall_us() / 1_000.0,
            self.coverage() * 100.0
        ));
        for s in &self.stages {
            if s.calls == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<21} {:>8} calls  {:>10.1}us  {:>5.1}%  p50 {:>6}us  p99 {:>6}us{}\n",
                s.stage.name(),
                s.calls,
                s.wall_us(),
                self.share(s.stage) * 100.0,
                s.hist.percentile_us(0.5),
                s.hist.percentile_us(0.99),
                if s.stage.in_goal_path() {
                    ""
                } else {
                    "  (detail)"
                }
            ));
        }
        let live: Vec<&CounterSnapshot> = self.counters.iter().filter(|c| c.value > 0).collect();
        if !live.is_empty() {
            out.push_str("  counters:\n");
            for c in live {
                out.push_str(&format!("    {:<21} {:>14}\n", c.counter.name(), c.value));
            }
        }
        if let Some(mem) = &self.memory {
            if mem.tracked {
                out.push_str(&format!(
                    "  memory: {:.1}KiB/goal, peak live {:.1}KiB, cache resident {:.1}KiB\n",
                    self.bytes_per_goal() / 1024.0,
                    mem.peak_live_bytes as f64 / 1024.0,
                    self.counter(Counter::CacheResidentBytes) as f64 / 1024.0
                ));
                for row in &mem.stages {
                    if row.alloc_calls == 0 && row.bytes_freed == 0 {
                        continue;
                    }
                    out.push_str(&format!(
                        "    {:<21} {:>10} allocs  {:>12} B alloc  {:>12} B freed\n",
                        row.name(),
                        row.alloc_calls,
                        row.alloc_bytes,
                        row.bytes_freed
                    ));
                }
            } else {
                out.push_str("  memory: untracked (binary built without the tracking allocator)\n");
            }
        }
        out
    }

    /// Render the top-`n` slowest goals with their stage waterfalls
    /// (the `--trace-goals N` view).
    pub fn render_slow_goals(&self, n: usize) -> String {
        let mut out = String::new();
        for g in self.slow_goals.iter().take(n) {
            out.push_str(&format!(
                "slow goal: {} ({:.1}us, {} steps)\n",
                g.label,
                g.wall_ns as f64 / 1_000.0,
                g.steps
            ));
            for (stage, ns, steps) in &g.stages {
                let share = if g.wall_ns > 0 {
                    *ns as f64 / g.wall_ns as f64 * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    {:<21} {:>10.1}us  {:>5.1}%{}\n",
                    stage.name(),
                    *ns as f64 / 1_000.0,
                    share,
                    if *steps > 0 {
                        format!("  {steps} steps")
                    } else {
                        String::new()
                    }
                ));
            }
        }
        out
    }
}

/// Format a float with enough precision for round-trips and no `NaN`/`inf`
/// leaking into the JSON.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:.3}");
    s
}

/// JSON-escape a string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use std::time::Duration;

    #[test]
    fn shares_and_coverage_come_from_goal_path_stages() {
        let r = Recorder::enabled();
        let g = r.goal();
        r.record(Stage::Lower, Duration::from_micros(25), 0);
        r.record(Stage::UdpProve, Duration::from_micros(50), 100);
        // Nested detail time must not inflate coverage.
        r.record(Stage::Congruence, Duration::from_micros(40), 0);
        g.finish(|| "g0".into(), Duration::from_micros(100), 100);
        let snap = r.snapshot();
        assert!((snap.share(Stage::Lower) - 0.25).abs() < 0.01);
        assert!((snap.coverage() - 0.75).abs() < 0.01);
        assert!(snap.share(Stage::Congruence) > 0.3); // reported...
        assert!(snap.coverage() < 0.8); // ...but not summed
    }

    #[test]
    fn json_has_all_stages_and_escapes_labels() {
        let r = Recorder::enabled();
        let g = r.goal();
        r.record(Stage::Normalize, Duration::from_micros(5), 0);
        g.finish(|| "a \"quoted\" goal".into(), Duration::from_micros(10), 0);
        let json = r.snapshot().to_json();
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", s.name())), "{}", s);
        }
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"schema_version\": 5"));
        assert!(!json.contains("\"backends\""));
        assert!(json.contains("\"faults\": {"));
        assert!(json.contains("\"backend_faults\": 0"));
        assert!(
            json.contains("\"memory\": null"),
            "no memory session ⇒ null section"
        );
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\"", c.name())), "{}", c);
        }
    }

    #[test]
    fn memory_section_renders_all_rows_and_the_untagged_tail() {
        let r = Recorder::enabled();
        r.track_memory();
        let g = r.goal();
        r.record(Stage::Normalize, Duration::from_micros(5), 0);
        g.finish(|| "g".into(), Duration::from_micros(10), 0);
        let snap = r.snapshot();
        let json = snap.to_json();
        if let Some(mem) = &snap.memory {
            assert_eq!(mem.stages.len(), crate::alloc::ALLOC_ROWS);
            assert!(json.contains("\"memory\": {"));
            assert!(json.contains("\"peak_live_bytes\""));
            assert!(json.contains("\"bytes_per_goal\""));
            assert!(json.contains("\"cache_resident_bytes\""));
            assert!(json.contains("\"stage\": \"untagged\""));
            // Unit tests run without the tracking allocator installed.
            assert!(!mem.tracked);
            assert!(snap.render().contains("memory: untracked"));
        } else {
            // Another test in this process holds the exclusive session;
            // the snapshot then reports no memory rather than lying.
            assert!(json.contains("\"memory\": null"));
        }
    }

    #[test]
    fn counters_snapshot_and_render() {
        let r = Recorder::enabled();
        r.count(Counter::CanonizeIters, 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter(Counter::CanonizeIters), 3);
        assert_eq!(snap.counter(Counter::RwFkExpand), 0);
        assert_eq!(snap.counters.len(), Counter::COUNT);
        let rendered = snap.render();
        assert!(rendered.contains("canonize-iters"));
        assert!(
            !rendered.contains("rw-fk-expand"),
            "zero counters stay hidden"
        );
    }

    #[test]
    fn render_views_do_not_panic_on_empty() {
        let snap = MetricsSnapshot::empty();
        assert!(snap.render().contains("0 goals"));
        assert_eq!(snap.render_slow_goals(5), "");
        assert_eq!(snap.coverage(), 0.0);
    }
}
