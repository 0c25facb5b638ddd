//! `udp-verify` — command-line front end for the prover.
//!
//! ```text
//! udp-verify FILE.sql [--trace] [--check-trace] [--counterexample]
//!                     [--spnf] [--extended] [--full] [--timeout SECS] [--jobs N]
//!                     [--cache-bytes N] [--stats] [--metrics-json PATH]
//!                     [--trace-goals N] [--trace-out PATH] [--chaos [SPEC]]
//! ```
//!
//! Reads an input program (schema/table/key/foreign key/view/index
//! declarations plus `verify q1 == q2;` goals) and verifies its goals on a
//! `udp-service` session with `N` workers (default 1) and a fingerprint
//! verdict cache, printing one verdict line per goal. Every flag runs on
//! that one session: `--trace` prints the recorded proof script,
//! `--check-trace` replays it through the independent checker,
//! `--counterexample` hunts for a refuting database when no proof is found,
//! `--spnf` prints each goal's lowered U-expressions in sum-product normal
//! form, `--extended` enables the Sec 6.4 dialect extensions (set-semantics
//! UNION, INTERSECT, VALUES, CASE, NATURAL JOIN), and `--full` additionally
//! enables the udp-ext fragment extensions (NULL semantics, outer joins,
//! ORDER BY stripping — stripped clauses surface as warnings on stderr).
//! `--stats` prints the session's throughput/cache/latency summary to
//! stderr at exit.
//!
//! Observability: `--metrics-json PATH` enables the `udp-obs` stage
//! recorder and writes the machine-readable snapshot (schema version 5 —
//! per-stage totals, shares, p50/p99, intra-prover counters, fault totals,
//! and a memory section with per-stage allocation attribution from the
//! binary's tracking allocator) to `PATH` on exit;
//! `--trace-goals N` prints the N slowest goals with their stage waterfalls
//! to stderr; `--trace-out PATH` additionally buffers per-thread event
//! traces and writes them as Chrome Trace Event JSON (loadable in
//! Perfetto / `chrome://tracing`, one lane per worker thread) at exit. Any
//! of these flags turns recording on; with none of them, the
//! instrumentation stays in its free disabled mode.
//!
//! Chaos testing: `--chaos [seed=N,rate=P,...]` arms the deterministic
//! fault injector (seeded panics, forced budget exhaustion, artificial
//! delays at named probes — see `udp_obs::FaultPlan`); contained faults
//! degrade goals instead of killing the process. Pair with `--stats` to see
//! the error count.
//!
//! Exit codes: `0` every goal proved, `2` some goal was not proved, `1` a
//! goal failed (front-end error, contained panic) or input errors, `3` an
//! unsupported feature (the parser's, or a construct udp-ext rejects in a
//! view or goal), `64` usage errors.

use std::process::ExitCode;
use std::time::Duration;
use udp_obs::{ObsOutputs, TrackingAlloc};
use udp_service::{GoalError, Session, SessionConfig};

/// Route every heap allocation through the `udp-obs` tracking wrapper so
/// `--metrics-json` runs can attribute bytes to pipeline stages; without an
/// active memory session each call costs one relaxed load.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut trace = false;
    let mut check_trace = false;
    let mut counterexample = false;
    let mut spnf = false;
    let mut dialect = udp_sql::Dialect::Paper;
    let mut timeout = 30u64;
    let mut jobs = 1usize;
    let mut cache_bytes: Option<usize> = None;
    let mut show_stats = false;
    let mut obs = ObsOutputs::default();
    let mut chaos: Option<udp_obs::FaultPlan> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--check-trace" => {
                trace = true;
                check_trace = true;
            }
            "--counterexample" => counterexample = true,
            "--extended" => dialect = udp_sql::Dialect::Extended,
            "--full" => dialect = udp_sql::Dialect::Full,
            "--spnf" => spnf = true,
            "--stats" => show_stats = true,
            "--timeout" => {
                timeout = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --timeout"));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --jobs"));
            }
            "--cache-bytes" => {
                cache_bytes = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("missing value for --cache-bytes")),
                );
            }
            "--metrics-json" => {
                obs.metrics_json = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("missing value for --metrics-json")),
                );
            }
            "--trace-goals" => {
                obs.trace_goals = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --trace-goals"));
            }
            "--trace-out" => {
                obs.trace_out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("missing value for --trace-out")),
                );
            }
            "--chaos" => {
                // Optional spec: `--chaos` alone runs the default campaign;
                // `--chaos seed=N,rate=P,...` overrides it.
                let spec = match it.peek() {
                    Some(s) if !s.starts_with('-') && s.contains('=') => {
                        it.next().map(|s| s.as_str()).unwrap_or("")
                    }
                    _ => "",
                };
                chaos = Some(
                    udp_obs::FaultPlan::parse(spec)
                        .unwrap_or_else(|e| usage(&format!("bad --chaos spec: {e}"))),
                );
            }
            "--help" | "-h" => {
                usage("");
            }
            other if other.starts_with('-') => usage(&format!("unknown flag `{other}`")),
            other if file.is_none() => file = Some(other.to_string()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(file) = file else {
        usage("missing input file")
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Any observability flag enables the recorder; otherwise every
    // instrumentation point in the pipeline stays a no-op.
    let recorder = obs.recorder();

    let config = SessionConfig {
        workers: jobs,
        steps: Some(20_000_000),
        wall: Some(Duration::from_secs(timeout)),
        dialect,
        record_trace: trace,
        cache_bytes,
        recorder: recorder.clone(),
        chaos,
        ..SessionConfig::default()
    };
    let mut session = match Session::new(&text, config) {
        Ok(s) => s,
        Err(e) => {
            if let Some(m) = e.unsupported_message() {
                println!("{m}");
                return ExitCode::from(3);
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in session.warnings() {
        eprintln!("{w}");
    }
    // Lowering the goals up front gives every worker their anonymous
    // subquery schemas, so the traces replay over the session's catalog.
    if spnf || check_trace {
        for (i, lowered) in session.lower_program_goals().iter().enumerate() {
            if let (true, Ok((q1, q2))) = (spnf, lowered) {
                for (side, q) in [("lhs", q1), ("rhs", q2)] {
                    let nf = udp_core::spnf::normalize(&q.body);
                    println!("goal {} {side}: λ{}. {nf}", i + 1, q.out);
                }
            }
        }
    }

    let reports = session.verify_program_goals();
    let mut all_proved = true;
    let mut any_error = false;
    let mut any_unsupported = false;
    for r in &reports {
        match &r.outcome {
            Ok(v) => {
                print_verdict(r.index, v);
                if trace && v.decision.is_proved() {
                    println!("{}", v.trace.render());
                }
                all_proved &= v.decision.is_proved();
            }
            Err(e @ GoalError::Unsupported(_)) => {
                println!("goal {}: {e}", r.index + 1);
                all_proved = false;
                any_unsupported = true;
            }
            // A goal-level failure (front-end error, contained panic)
            // degrades that goal only — the remaining goals still report.
            Err(e) => {
                eprintln!("error on goal {}: {e}", r.index + 1);
                all_proved = false;
                any_error = true;
            }
        }
    }
    if show_stats {
        eprintln!("{}", session.stats().render());
    }

    if check_trace && all_proved {
        let fe = session.frontend();
        for v in reports.iter().filter_map(|r| r.verdict()) {
            let report = udp_core::proof::check_trace(&fe.catalog, &fe.constraints, &v.trace, 8);
            if report.ok() {
                println!(
                    "trace check: {} steps revalidated over {} random models each",
                    report.steps_checked, report.models_per_step
                );
            } else {
                for f in &report.failures {
                    eprintln!("trace check FAILURE: {f}");
                }
                return ExitCode::FAILURE;
            }
        }
    }

    if counterexample && !all_proved {
        // The search records `Stage::Counterexample` inside udp-eval itself
        // (single-writer rule) — no wrapper timing here.
        match udp_eval::check_program_in_with(&text, dialect, 500, &recorder) {
            Ok(udp_eval::SearchResult::Refuted(ce)) => {
                println!("{}", ce.render(session.frontend()));
            }
            Ok(udp_eval::SearchResult::NoCounterexample { trials }) => {
                println!("no counterexample in {trials} random databases (inconclusive)");
            }
            Ok(udp_eval::SearchResult::Inconclusive(e)) => {
                println!("model checker inconclusive: {e}");
            }
            Err(e) => eprintln!("model checker error: {e}"),
        }
    }

    if let Err(e) = obs.write(&recorder) {
        eprintln!("error writing metrics: {e}");
        return ExitCode::FAILURE;
    }

    if any_error {
        ExitCode::FAILURE
    } else if any_unsupported {
        ExitCode::from(3)
    } else if all_proved {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn print_verdict(i: usize, v: &udp_core::Verdict) {
    println!(
        "goal {}: {:?}  ({:.2} ms, {} steps, SPNF sizes {:?} → {:?})",
        i + 1,
        v.decision,
        v.stats.wall.as_secs_f64() * 1e3,
        v.stats.steps_used,
        v.stats.size_before,
        v.stats.size_after,
    );
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: udp-verify FILE.sql [--trace] [--check-trace] [--counterexample] \
         [--spnf] [--extended] [--full] [--timeout SECS] [--jobs N] [--cache-bytes N] \
         [--stats] [--metrics-json PATH] [--trace-goals N] [--trace-out PATH] \
         [--chaos [seed=N,rate=P,exhaust=P,delay=P,goal-rate=P,probe=NAME]]"
    );
    std::process::exit(64);
}
