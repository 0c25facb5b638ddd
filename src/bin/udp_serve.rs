//! `udp-serve` — batch/streaming verification service over stdin/stdout.
//!
//! ```text
//! udp-serve SCHEMA.sql [--jobs N] [--extended] [--full] [--timeout SECS] [--steps N]
//!                      [--cache-size N] [--cache-bytes N] [--stats] [--stats-every N]
//!                      [--fingerprints] [--metrics-json PATH] [--trace-goals N]
//!                      [--trace-out PATH] [--chaos [SPEC]]
//! ```
//!
//! `SCHEMA.sql` declares the shared catalog (schema/table/key/foreign
//! key/view/index statements); any `verify` goals it contains are verified
//! as a startup batch. After that, every line read from stdin is one goal —
//! `q1 == q2`, optionally wrapped as `verify q1 == q2;` — and produces
//! exactly one response line on stdout, in input order:
//!
//! ```text
//! goal 1: Proved
//! goal 2: NotProved(NoProofFound)
//! goal 3: error: unknown table `nosuch`
//! ```
//!
//! Lines are timing-free and deterministic, so outputs are byte-identical
//! across worker counts and cache states. Blank lines flush the pending
//! chunk through the parallel scheduler (responses still appear in order);
//! EOF flushes the rest. `--stats` prints a throughput/cache/latency summary
//! to stderr at exit; `--stats-every N` prints the same running summary to
//! stderr after every N flushed chunks (long-lived sessions get periodic
//! progress without waiting for EOF); `--fingerprints` appends each side's
//! canonical fingerprint to response lines (they are stable across runs).
//!
//! `--cache-bytes N` additionally bounds the verdict cache by resident
//! bytes (key lengths plus deep verdict size), evicting by bytes rather
//! than entry count.
//!
//! Fault tolerance: a goal line that panics mid-verification (or is
//! malformed) produces a per-line `error:` response and the serving loop
//! continues — workers are supervised, prover panics are contained, and
//! `--chaos [seed=N,rate=P,...]` injects a deterministic fault schedule
//! (see `udp_obs::FaultPlan`) for drills.
//!
//! Observability: `--metrics-json PATH` enables the `udp-obs` stage
//! recorder (including the per-stage memory session when the binary's
//! tracking allocator is installed) and writes the machine-readable
//! snapshot to `PATH` at exit;
//! `--trace-goals N` prints the N slowest goals with their stage waterfalls
//! to stderr at exit; `--trace-out PATH` writes a Chrome Trace Event JSON
//! export (one lane per worker thread) at exit. All metrics output goes to
//! stderr or `PATH`, so the stdout protocol stays byte-identical.
//!
//! Exit codes: `0` every goal proved, `2` some goal was not proved, `1`
//! input/schema errors, `64` usage errors.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;
use udp_obs::{FaultPlan, ObsOutputs, TrackingAlloc};
use udp_service::{GoalReport, Session, SessionConfig};

/// Route every heap allocation through the `udp-obs` tracking wrapper so
/// `--metrics-json` runs can attribute bytes to pipeline stages. Without an
/// active memory session this is one relaxed load per call (see
/// `udp_obs::alloc`), so the untracked path stays effectively free.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut config = SessionConfig::default();
    let mut show_stats = false;
    let mut stats_every = 0usize;
    let mut show_fingerprints = false;
    let mut obs = ObsOutputs::default();

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => config.workers = parse_num(it.next(), "--jobs"),
            "--timeout" => {
                config.wall = Some(Duration::from_secs(parse_num(it.next(), "--timeout") as u64))
            }
            "--steps" => config.steps = Some(parse_num(it.next(), "--steps") as u64),
            "--cache-size" => config.cache_capacity = parse_num(it.next(), "--cache-size"),
            "--cache-bytes" => config.cache_bytes = Some(parse_num(it.next(), "--cache-bytes")),
            "--extended" => config.dialect = udp_sql::Dialect::Extended,
            "--full" => config.dialect = udp_sql::Dialect::Full,
            "--stats" => show_stats = true,
            "--stats-every" => stats_every = parse_num(it.next(), "--stats-every"),
            "--fingerprints" => show_fingerprints = true,
            "--chaos" => {
                config.chaos = Some(FaultPlan::from_flag(&mut it).unwrap_or_else(|e| usage(&e)))
            }
            other if obs.take_flag(other, &mut it).unwrap_or_else(|e| usage(&e)) => {}
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag `{other}`")),
            other if file.is_none() => file = Some(other.to_string()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(file) = file else {
        usage("missing schema file")
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recorder = obs.recorder();
    config.recorder = recorder.clone();
    let session = match Session::new(&text, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("schema error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut seq = 0usize;
    let mut all_proved = true;
    let mut any_error = false;
    let mut chunks_flushed = 0usize;

    // Startup batch: goals declared in the schema file itself.
    let program_goals = session.program_goals();
    if !program_goals.is_empty() {
        let reports = session.verify_batch(&program_goals);
        for r in &reports {
            seq += 1;
            write_report(&mut out, seq, r, show_fingerprints);
            note_outcome(r, &mut all_proved, &mut any_error);
        }
        let _ = out.flush();
    }

    // One rendering shared by the periodic `--stats-every` line and the
    // end-of-stream report: service stats plus — when the recorder is live —
    // the full counter/stage snapshot, so the final line at EOF carries the
    // same information (counters included) as the periodic ones.
    let full_stats = || {
        let mut s = session.stats().render();
        if recorder.is_enabled() {
            s.push('\n');
            s.push_str(&recorder.snapshot().render());
        }
        s
    };

    // Streaming: accumulate goal lines; a blank line or EOF flushes the
    // chunk through the scheduler (order within the chunk is preserved).
    type ParsedLine = (
        usize,
        Result<(udp_sql::ast::Query, udp_sql::ast::Query), String>,
    );
    let mut pending: Vec<ParsedLine> = Vec::new();
    let mut flush = |pending: &mut Vec<ParsedLine>,
                     out: &mut dyn Write,
                     all_proved: &mut bool,
                     any_error: &mut bool| {
        let (numbers, goals): (Vec<usize>, Vec<_>) = pending
            .iter()
            .filter_map(|(seq, g)| Some((*seq, g.as_ref().ok()?.clone())))
            .unzip();
        let mut reports = session.verify_numbered(&goals, &numbers).into_iter();
        for (line_seq, parsed) in pending.drain(..) {
            match parsed {
                Ok(_) => match reports.next() {
                    Some(r) => {
                        write_report(out, line_seq, &r, show_fingerprints);
                        note_outcome(&r, all_proved, any_error);
                    }
                    // The scheduler backfills even panicked goals with
                    // aborted reports, so this is unreachable in practice —
                    // but a served protocol never dies on an invariant slip:
                    // degrade to an error line and keep streaming.
                    None => {
                        *any_error = true;
                        let _ = writeln!(out, "goal {line_seq}: error: report missing");
                    }
                },
                Err(e) => {
                    *any_error = true;
                    let _ = writeln!(out, "goal {line_seq}: error: {e}");
                }
            }
        }
        let _ = out.flush();
        chunks_flushed += 1;
        if stats_every > 0 && chunks_flushed % stats_every == 0 {
            eprintln!("[stats after {chunks_flushed} chunks] {}", full_stats());
        }
    };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            flush(&mut pending, &mut out, &mut all_proved, &mut any_error);
            continue;
        }
        if trimmed.starts_with("--") || trimmed.starts_with('#') {
            continue; // comment
        }
        seq += 1;
        let parsed = session.parse_goal(trimmed).map_err(|e| e.to_string());
        pending.push((seq, parsed));
    }
    flush(&mut pending, &mut out, &mut all_proved, &mut any_error);

    if show_stats || stats_every > 0 {
        // End-of-stream emits the same full stats as the periodic lines —
        // `--stats-every` sessions get a final report even when the chunk
        // count is not a multiple of N.
        eprintln!("[final stats] {}", full_stats());
    }
    if let Err(e) = obs.write(&recorder) {
        eprintln!("error writing metrics: {e}");
        return ExitCode::FAILURE;
    }
    if any_error {
        ExitCode::FAILURE
    } else if all_proved {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn note_outcome(r: &GoalReport, all_proved: &mut bool, any_error: &mut bool) {
    match &r.outcome {
        Ok(v) if v.decision.is_proved() => {}
        Ok(_) => *all_proved = false,
        Err(_) => *any_error = true,
    }
}

fn write_report(out: &mut dyn Write, seq: usize, r: &GoalReport, show_fingerprints: bool) {
    let mut line = format!("goal {seq}: {}", r.render_verdict());
    if show_fingerprints {
        if let Some((f1, f2)) = r.fingerprints {
            line.push_str(&format!("  [{f1} {f2}]"));
        }
    }
    let _ = writeln!(out, "{line}");
}

fn parse_num(v: Option<&String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("missing or invalid value for {flag}")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: udp-serve SCHEMA.sql [--jobs N] [--extended] [--full] [--timeout SECS] [--steps N] \
         [--cache-size N] [--cache-bytes N] [--stats] [--stats-every N] [--fingerprints] \
         [--metrics-json PATH] [--trace-goals N] [--trace-out PATH] \
         [--chaos [seed=N,rate=P,exhaust=P,delay=P,goal-rate=P,probe=NAME]]"
    );
    std::process::exit(64);
}
