//! Batch-verification throughput: goals/sec through a `udp-service` session
//! at 1, N/2, and N workers, over a corpus-shaped workload (filter / join /
//! distinct / group-by rewrite goals plus alias-renamed duplicates, the mix
//! the evaluation corpus exercises rule by rule).
//!
//! Run with `cargo bench --bench throughput`. The stdout summary prints
//! the measured rate at each worker count and its speedup over 1 worker,
//! then the `udp-obs` recorder's overhead (enabled vs the default disabled
//! handle) and the allocation tracker's overhead over a plain enabled
//! recorder, all on the uncached 1-worker workload. These are single-shot
//! numbers; timed claims belong to the repo benchmark (`udpbench/`).
//!
//! The bench also sweeps the evaluation corpus under one enabled,
//! memory-tracking recorder and writes its metrics snapshot (schema 5,
//! through `udp_obs::ObsOutputs`, the binaries' `--metrics-json` writer)
//! to `BENCH.json` at the repo root. CI checks it with
//! `validate-metrics --min-coverage 0.9 BENCH.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use udp_corpus::{all_rules, session_config};
use udp_obs::{ObsOutputs, Recorder, TrackingAlloc};
use udp_service::{Session, SessionConfig};
use udp_sql::ast::Query;

/// The bench harness installs the tracking allocator so `BENCH.json`'s
/// memory section holds real attributed bytes and the tracking-overhead
/// number reflects the shipping binaries (which install the same wrapper).
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

    obs_summary();
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

/// Verify every corpus rule in its own uncached session under `recorder`.
/// Rules outside the fragment are skipped.
fn corpus_sweep(recorder: &Recorder) {
    for rule in all_rules() {
        let config = SessionConfig {
            recorder: recorder.clone(),
            ..session_config(&rule)
        };
        if let Ok(session) = Session::new(&rule.text, config) {
            session.verify_program_goals();
        }
    }
}

/// Recorder and tracking overhead on the uncached workload, printed to
/// stdout, then the corpus sweep's snapshot written to `BENCH.json`.
fn obs_summary() {
    const REPS: usize = 3;
    let disabled_rate = obs_rate(REPS, &Recorder::disabled());
    let enabled_rate = obs_rate(REPS, &Recorder::enabled());
    // The tracking recorder, and with it the process-wide memory session,
    // must drop before the corpus sweep opens its own.
    let tracking_rate = {
        let tracking = Recorder::enabled();
        tracking.track_memory();
        obs_rate(REPS, &tracking)
    };

    let outputs = ObsOutputs {
        metrics_json: Some(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json").into()),
        ..ObsOutputs::default()
    };
    let recorder = outputs.recorder();
    corpus_sweep(&recorder);
    let snap = recorder.snapshot();
    println!(
        "obs summary: disabled {disabled_rate:.0} goals/s, enabled {enabled_rate:.0} goals/s \
         ({:+.1}% overhead), tracking {tracking_rate:.0} goals/s ({:+.1}% over enabled); \
         corpus: {} goals, stage coverage {:.1}%",
        (1.0 - enabled_rate / disabled_rate) * 100.0,
        (1.0 - tracking_rate / enabled_rate) * 100.0,
        snap.goals,
        snap.coverage() * 100.0
    );
    // Fail loudly: CI validates BENCH.json next, and a stale committed copy
    // must not pass for a fresh one.
    outputs.write(&recorder).expect("write BENCH.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput
}
criterion_main!(benches);
