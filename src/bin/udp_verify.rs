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
//! `--counterexample` hunts for a refuting database for every unproved goal,
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
use udp_eval::SearchResult;
use udp_obs::{FaultPlan, ObsOutputs, TrackingAlloc};
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
    let mut chaos: Option<FaultPlan> = None;

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
            "--timeout" => timeout = parse_num(it.next(), "--timeout"),
            "--jobs" => jobs = parse_num(it.next(), "--jobs"),
            "--cache-bytes" => cache_bytes = Some(parse_num(it.next(), "--cache-bytes")),
            "--chaos" => chaos = Some(FaultPlan::from_flag(&mut it).unwrap_or_else(|e| usage(&e))),
            other if obs.take_flag(other, &mut it).unwrap_or_else(|e| usage(&e)) => {}
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

    // Every `Proved` verdict's trace is replayed, whatever its sibling
    // goals decided.
    if check_trace {
        let fe = session.frontend();
        let proved = reports.iter().filter_map(|r| r.verdict());
        for v in proved.filter(|v| v.decision.is_proved()) {
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
        // The model checker evaluates the parsed queries, not the session's
        // lowered ones: parse the program once for it, then search every
        // goal that was not proved. The search times
        // `Stage::Counterexample` inside udp-eval, where it runs — no
        // wrapper timing here.
        let parsed = udp_sql::parse_program_with(&text, dialect)
            .map_err(|e| e.to_string())
            .and_then(|p| udp_sql::build_frontend(&p).map_err(|e| e.to_string()));
        match parsed {
            Ok(fe) => {
                let gen = udp_eval::GenConfig::default();
                let unproved = reports
                    .iter()
                    .filter(|r| !r.verdict().is_some_and(|v| v.decision.is_proved()));
                for r in unproved {
                    let (q1, q2) = &fe.goals[r.index];
                    let found =
                        udp_eval::find_counterexample_with(&fe, q1, q2, 500, &gen, &recorder);
                    let line = match found {
                        SearchResult::Refuted(ce) => ce.render(&fe),
                        SearchResult::NoCounterexample { trials } => {
                            format!("no counterexample in {trials} random databases (inconclusive)")
                        }
                        SearchResult::Inconclusive(e) => format!("model checker inconclusive: {e}"),
                    };
                    println!("goal {}: {line}", r.index + 1);
                }
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

fn parse_num<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("missing or invalid value for {flag}")))
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
