//! Batch-verification throughput: goals/sec through a `udp-service` session
//! at 1, N/2, and N workers, over a corpus-shaped workload (filter / join /
//! distinct / group-by rewrite goals plus alias-renamed duplicates, the mix
//! the evaluation corpus exercises rule by rule).
//!
//! Run with `cargo bench --bench throughput`. The final summary prints the
//! measured speedup of N workers over 1 (the scheduler is expected to clear
//! 1.5× at 4 workers on any multicore host) and writes a machine-readable
//! `BENCH_solve.json` — the workload rate at each worker count — so the
//! perf trajectory is recorded run over run.
//!
//! The observability self-profile rides along: it measures the `udp-obs`
//! recorder's overhead (enabled vs the default disabled handle, uncached
//! 1-worker workload) and runs a stage-attribution sweep over the corpus,
//! writing `BENCH_obs.json` — per-stage shares, the goal-path coverage
//! fraction (expected ≥ 0.90), and the deterministic counter deltas per
//! corpus goal family (rewrite firings and congruence traffic attributed to
//! literature / calcite / bugs / extensions).
//!
//! The memory self-profile (`BENCH_mem.json`) rides the same corpus sweep
//! under an active allocation-tracking session: bytes/goal by stage and by
//! rule family, the peak live-bytes watermark, and the marginal cost of
//! tracking over a plain enabled recorder (acceptance: ≤5%).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use udp_corpus::{all_rules, session_config, Expectation, Source};
use udp_obs::{Counter, Recorder, TrackingAlloc};
use udp_service::{Session, SessionConfig};
use udp_sql::ast::Query;

/// The bench harness installs the tracking allocator so the memory
/// self-profile (`BENCH_mem.json`) measures real attributed bytes and the
/// tracking-overhead number reflects the shipping binaries (which install
/// the same wrapper).
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const DDL: &str = "schema rs(k:int, a:int, b:int);\nschema ss(k2:int, c:int);\n\
                   schema ts(id:int, e:int);\n\
                   table r(rs);\ntable r2(rs);\ntable s(ss);\ntable t(ts);\nkey r(k);\n";

/// Corpus-shaped goal workload: each index yields a deterministic rewrite
/// goal; roughly a third are alias-renamed clones of earlier goals (the
/// fingerprint cache's bread and butter), and a sprinkle are non-theorems.
fn goal_line(i: usize) -> String {
    let c = i % 13;
    match i % 6 {
        0 => format!(
            "SELECT x.a AS a, y.c AS c FROM r x, s y WHERE x.k = y.k2 AND x.a = {c} \
             == SELECT x.a AS a, y.c AS c FROM (SELECT * FROM r x2 WHERE x2.a = {c}) x, s y \
                WHERE x.k = y.k2"
        ),
        1 => format!(
            "SELECT u.a AS a, w.c AS c FROM r u, s w WHERE u.k = w.k2 AND u.a = {c} \
             == SELECT u.a AS a, w.c AS c FROM (SELECT * FROM r v WHERE v.a = {c}) u, s w \
                WHERE u.k = w.k2"
        ),
        2 => format!(
            "SELECT DISTINCT x.a AS a FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k2 = x.k) AND x.b = {c} \
             == SELECT DISTINCT x.a AS a FROM r x, s y WHERE y.k2 = x.k AND x.b = {c}"
        ),
        3 => format!(
            "SELECT x.k AS k, SUM(x.a) AS t FROM r x WHERE x.b = {c} GROUP BY x.k \
             == SELECT q.k AS k, SUM(q.a) AS t FROM r q WHERE q.b = {c} GROUP BY q.k"
        ),
        4 => format!(
            "SELECT x.a AS v FROM r x WHERE x.a = {c} UNION ALL SELECT z.a AS v FROM r2 z \
             == SELECT z.a AS v FROM r2 z UNION ALL SELECT x.a AS v FROM r x WHERE x.a = {c}"
        ),
        _ => format!(
            // Non-theorem: different constants.
            "SELECT x.a AS a FROM r x WHERE x.a = {c} == SELECT y.a AS a FROM r y WHERE y.a = {}",
            c + 400
        ),
    }
}

fn workload(session: &Session, n: usize) -> Vec<(Query, Query)> {
    (0..n)
        .map(|i| session.parse_goal(&goal_line(i)).unwrap())
        .collect()
}

fn session_with(workers: usize, cache: usize) -> Session {
    session_with_recorder(workers, cache, Recorder::disabled())
}

fn session_with_recorder(workers: usize, cache: usize, recorder: Recorder) -> Session {
    let config = SessionConfig {
        workers,
        cache_capacity: cache,
        steps: Some(2_000_000),
        wall: Some(Duration::from_secs(10)),
        recorder,
        ..SessionConfig::default()
    };
    Session::new(DDL, config).unwrap()
}

const GOALS: usize = 240;

fn bench_throughput(c: &mut Criterion) {
    let max_workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(8);
    let mut counts = vec![1, (max_workers / 2).max(2), max_workers];
    counts.dedup();

    for &workers in &counts {
        c.bench_function(&format!("throughput/uncached/workers-{workers}"), |b| {
            b.iter(|| {
                let session = session_with(workers, 0);
                let goals = workload(&session, GOALS);
                black_box(session.verify_batch(&goals));
            })
        });
    }
    c.bench_function("throughput/cached/workers-max", |b| {
        let session = session_with(max_workers, 4096);
        let goals = workload(&session, GOALS);
        session.verify_batch(&goals); // warm the cache
        b.iter(|| black_box(session.verify_batch(&goals)))
    });

    // Direct speedup summary (single measurement per configuration, goals/s).
    let mut rates = Vec::new();
    for &workers in &counts {
        let session = session_with(workers, 0);
        let goals = workload(&session, GOALS);
        let t0 = Instant::now();
        let reports = session.verify_batch(&goals);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(reports.len(), GOALS);
        rates.push((workers, GOALS as f64 / secs));
    }
    let base = rates[0].1;
    for (workers, rate) in &rates {
        println!(
            "throughput summary: {workers} workers → {rate:.0} goals/s ({:.2}× vs 1 worker)",
            rate / base
        );
    }

    write_solve_summary(&rates);
    write_obs_summary();
}

/// Best-of-`reps` workload rate (goals/s) under a given recorder, 1 worker,
/// no cache — the configuration where per-goal instrumentation cost is most
/// visible (nothing amortizes over threads or cache hits).
fn obs_rate(reps: usize, recorder: &Recorder) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let session = session_with_recorder(1, 0, recorder.clone());
        let goals = workload(&session, GOALS);
        let t0 = Instant::now();
        let reports = session.verify_batch(&goals);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(reports.len(), GOALS);
        best = best.max(GOALS as f64 / secs);
    }
    best
}

/// Corpus families in the order they sweep; labels double as the keys of
/// the `counters` object in `BENCH_obs.json`.
const FAMILIES: [(Source, &str); 4] = [
    (Source::Literature, "literature"),
    (Source::Calcite, "calcite"),
    (Source::Bugs, "bugs"),
    (Source::Extension, "extensions"),
];

/// Stage-attribution sweep over the evaluation corpus under one shared
/// enabled recorder. Rules run grouped by dataset family; the counters are
/// monotone, so the snapshot delta across a family boundary attributes
/// rewrite firings and congruence traffic to that family exactly. Disproof-expected rules additionally run
/// the bounded counterexample search so the refutation path gets a stage
/// row. Returns the goal count, the nonzero deterministic-counter deltas
/// per family, and — when the recorder carries a memory session — the
/// per-family allocation-byte deltas by stage (the same boundary-delta
/// trick; allocation cells are monotone too).
#[allow(clippy::type_complexity)]
fn corpus_obs_sweep(
    recorder: &Recorder,
) -> (
    usize,
    Vec<(&'static str, Vec<(Counter, u64)>)>,
    Vec<(&'static str, Vec<(&'static str, u64)>)>,
) {
    let rules = all_rules();
    let mut goals = 0usize;
    let mut families = Vec::new();
    let mut mem_families = Vec::new();
    let mut prev = vec![0u64; Counter::COUNT];
    let mut prev_mem: Vec<u64> = Vec::new();
    for (source, label) in FAMILIES {
        for rule in rules.iter().filter(|r| r.source == source) {
            let config = SessionConfig {
                cache_capacity: 0,
                recorder: recorder.clone(),
                ..session_config(rule)
            };
            let session = match Session::new(&rule.text, config) {
                Ok(s) => s,
                Err(_) => continue, // out-of-fragment rule
            };
            goals += session.verify_program_goals().len();
            if rule.expect == Expectation::NotProved {
                let _ = udp_eval::check_program_in_with(&rule.text, rule.dialect, 200, recorder);
            }
        }
        let snap = recorder.snapshot();
        let mut deltas = Vec::new();
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            let v = snap.counter(counter);
            // Saturating: gauges (cache residency) may move down between
            // family boundaries; a plain subtraction would wrap.
            let delta = v.saturating_sub(prev[i]);
            prev[i] = v;
            if delta > 0 && counter.is_deterministic() {
                deltas.push((counter, delta));
            }
        }
        families.push((label, deltas));
        let mut mem_deltas = Vec::new();
        if let Some(mem) = &snap.memory {
            if prev_mem.len() != mem.stages.len() {
                prev_mem = vec![0u64; mem.stages.len()];
            }
            for (i, row) in mem.stages.iter().enumerate() {
                let delta = row.alloc_bytes.saturating_sub(prev_mem[i]);
                prev_mem[i] = row.alloc_bytes;
                if delta > 0 {
                    mem_deltas.push((row.name(), delta));
                }
            }
        }
        mem_families.push((label, mem_deltas));
    }
    (goals, families, mem_families)
}

/// Observability self-profile: instrumentation overhead (enabled vs the
/// default disabled handle on the uncached workload) and a corpus-wide
/// stage-attribution run, recorded as `BENCH_obs.json` at the workspace
/// root. `coverage` is the share of measured per-goal wall time attributed
/// to exclusive goal-path stages — the acceptance floor is 0.90. The
/// `counters` object carries the per-family deterministic deltas.
fn write_obs_summary() {
    const REPS: usize = 3;
    let disabled_rate = obs_rate(REPS, &Recorder::disabled());
    let enabled = Recorder::enabled();
    let enabled_rate = obs_rate(REPS, &enabled);
    let overhead = 1.0 - enabled_rate / disabled_rate;
    // Allocation tracking rides on an enabled recorder; its marginal cost
    // (vs plain enabled) is the ≤5% acceptance number. The recorder — and
    // with it the exclusive memory session — must drop before the corpus
    // sweep opens its own session below.
    let tracking_rate = {
        let tracking = Recorder::enabled();
        tracking.track_memory();
        obs_rate(REPS, &tracking)
    };
    let tracking_overhead = 1.0 - tracking_rate / enabled_rate;

    let corpus_recorder = Recorder::enabled();
    corpus_recorder.track_memory();
    let (corpus_goals, families, mem_families) = corpus_obs_sweep(&corpus_recorder);
    let snap = corpus_recorder.snapshot();
    let coverage = snap.coverage();
    println!(
        "obs summary: disabled {disabled_rate:.0} goals/s, enabled {enabled_rate:.0} goals/s \
         ({:+.1}% overhead), tracking {tracking_rate:.0} goals/s ({:+.1}% over enabled); \
         corpus: {corpus_goals} goals, stage coverage {:.1}%",
        overhead * 100.0,
        tracking_overhead * 100.0,
        coverage * 100.0
    );
    for (label, deltas) in &families {
        let firings: u64 = deltas
            .iter()
            .filter(|(c, _)| c.name().starts_with("rw-"))
            .map(|(_, v)| *v)
            .sum();
        println!("obs corpus family {label}: {firings} rewrite firings");
    }

    let mut counters = String::new();
    for (label, deltas) in &families {
        if !counters.is_empty() {
            counters.push_str(",\n");
        }
        let entries: Vec<String> = deltas
            .iter()
            .map(|(c, v)| format!("\"{}\": {v}", c.name()))
            .collect();
        counters.push_str(&format!("      \"{label}\": {{{}}}", entries.join(", ")));
    }

    let mut stages = String::new();
    for s in &snap.stages {
        if s.calls == 0 {
            continue;
        }
        if !stages.is_empty() {
            stages.push_str(",\n");
        }
        stages.push_str(&format!(
            "    {{\"stage\": \"{}\", \"calls\": {}, \"wall_us\": {:.1}, \"share\": {:.4}, \"goal_path\": {}}}",
            s.stage.name(),
            s.calls,
            s.wall_us(),
            snap.share(s.stage),
            s.stage.in_goal_path()
        ));
    }
    let json = format!(
        "{{\n  \"workload\": {{\n    \"goals\": {GOALS},\n    \"disabled_goals_per_sec\": {disabled_rate:.1},\n    \"enabled_goals_per_sec\": {enabled_rate:.1},\n    \"enabled_overhead\": {overhead:.4}\n  }},\n  \"corpus\": {{\n    \"goals\": {corpus_goals},\n    \"goal_wall_us\": {:.1},\n    \"coverage\": {coverage:.4},\n    \"counters\": {{\n{counters}\n    }},\n    \"stages\": [\n{stages}\n    ]\n  }}\n}}\n",
        snap.goal_wall_us()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }

    write_mem_summary(
        &snap,
        corpus_goals,
        &mem_families,
        enabled_rate,
        tracking_rate,
        tracking_overhead,
    );
}

/// Emit the memory self-profile as `BENCH_mem.json`: workload tracking
/// overhead plus corpus bytes/goal broken down by stage and by rule family
/// — the before-picture the planned interning/arena refactor (ROADMAP
/// item 1) will be diffed against.
fn write_mem_summary(
    snap: &udp_obs::MetricsSnapshot,
    corpus_goals: usize,
    mem_families: &[(&'static str, Vec<(&'static str, u64)>)],
    enabled_rate: f64,
    tracking_rate: f64,
    tracking_overhead: f64,
) {
    let Some(mem) = &snap.memory else {
        eprintln!("no memory session on the corpus recorder; skipping BENCH_mem.json");
        return;
    };
    let goals = corpus_goals.max(1) as u64;
    println!(
        "mem summary: corpus {:.1} KiB/goal allocated, peak live {:.1} MiB, tracked = {}",
        mem.total_alloc_bytes() as f64 / goals as f64 / 1024.0,
        mem.peak_live_bytes as f64 / (1024.0 * 1024.0),
        mem.tracked
    );

    let mut stages = String::new();
    for row in &mem.stages {
        if row.alloc_bytes == 0 {
            continue;
        }
        if !stages.is_empty() {
            stages.push_str(",\n");
        }
        stages.push_str(&format!(
            "      {{\"stage\": \"{}\", \"alloc_calls\": {}, \"alloc_bytes\": {}, \
             \"bytes_freed\": {}, \"bytes_per_goal\": {:.1}}}",
            row.name(),
            row.alloc_calls,
            row.alloc_bytes,
            row.bytes_freed,
            row.alloc_bytes as f64 / goals as f64
        ));
    }
    let mut families = String::new();
    for (label, deltas) in mem_families {
        if !families.is_empty() {
            families.push_str(",\n");
        }
        let entries: Vec<String> = deltas
            .iter()
            .map(|(stage, bytes)| format!("\"{stage}\": {bytes}"))
            .collect();
        families.push_str(&format!("      \"{label}\": {{{}}}", entries.join(", ")));
    }
    let json = format!(
        "{{\n  \"workload\": {{\n    \"goals\": {GOALS},\n    \"enabled_goals_per_sec\": {enabled_rate:.1},\n    \"tracking_goals_per_sec\": {tracking_rate:.1},\n    \"tracking_overhead\": {tracking_overhead:.4}\n  }},\n  \"corpus\": {{\n    \"goals\": {corpus_goals},\n    \"tracked\": {},\n    \"alloc_bytes\": {},\n    \"alloc_calls\": {},\n    \"bytes_per_goal\": {:.1},\n    \"peak_live_bytes\": {},\n    \"stages\": [\n{stages}\n    ],\n    \"families\": {{\n{families}\n    }}\n  }}\n}}\n",
        mem.tracked,
        mem.total_alloc_bytes(),
        mem.total_alloc_calls(),
        mem.total_alloc_bytes() as f64 / goals as f64,
        mem.peak_live_bytes
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mem.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

/// Emit the worker-scaling rates as `BENCH_solve.json` at the workspace
/// root (benches run with the package directory as cwd).
fn write_solve_summary(rates: &[(usize, f64)]) {
    let base = rates[0].1;
    let rows: Vec<String> = rates
        .iter()
        .map(|(workers, rate)| {
            format!(
                "    {{\"workers\": {workers}, \"goals_per_sec\": {rate:.1}, \"speedup\": {:.3}}}",
                rate / base
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"goals\": {GOALS},\n  \"uncached\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solve.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput
}
criterion_main!(benches);
