//! `udp-fuzz` — metamorphic fuzzing campaign driver.
//!
//! ```text
//! udp-fuzz [--seed N] [--cases M] [--trials T] [--steps S]
//!          [--mutation-ratio R] [--no-shrink] [--quiet] [--full]
//!          [--chaos [SPEC]]
//! ```
//!
//! Generates `M` random query pairs (semantics-preserving rewrites and
//! bug-injecting mutations), cross-checks each against the prover, the
//! bag-semantics oracle, and the service cache, and shrinks + prints any
//! disagreement. Exit code `0` means zero disagreements; `1`
//! means at least one (full reports on stdout); `64` is a usage error.
//!
//! Runs are fully deterministic in `--seed`: case `i` derives its own RNG
//! from `(seed, i)`, so a single failing case replays with the same seed
//! regardless of `--cases`.
//!
//! `--chaos [seed=N,rate=P,...]` adds a chaos differential: each case is
//! re-verified through a session with the deterministic fault schedule
//! armed (seeded panics, forced exhaustions, delays — see
//! `udp_obs::FaultPlan`), and any definite verdict from the faulted run
//! must match the clean run's — injected faults may only degrade, never
//! flip a decision (`chaos-verdict-flip`). `uncontained=1` in the spec is
//! the CI gate's must-fail self-test: the harness panics outside every
//! containment boundary and the process must visibly die.

use std::process::ExitCode;
use udp_fuzz::{run, FuzzConfig};

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("udp-fuzz: {msg}");
    }
    eprintln!(
        "usage: udp-fuzz [--seed N] [--cases M] [--trials T] [--steps S]\n\
         \x20               [--mutation-ratio R] [--no-shrink] [--quiet] [--full]\n\
         \x20               [--chaos [seed=N,rate=P,exhaust=P,delay=P,goal-rate=P,uncontained=1]]"
    );
    std::process::exit(64)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--full` swaps in the full-dialect profiles (NULL + outer joins), so
    // it must be applied before the numeric overrides.
    let mut config = if args.iter().any(|a| a == "--full") {
        FuzzConfig::full()
    } else {
        FuzzConfig::default()
    };
    let mut quiet = false;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage(&format!("missing/invalid value for {name}")))
        };
        match arg.as_str() {
            "--seed" => config.seed = num("--seed"),
            "--cases" => config.cases = num("--cases") as usize,
            "--trials" => config.oracle_trials = num("--trials") as usize,
            "--steps" => config.steps = num("--steps"),
            "--mutation-ratio" => {
                config.mutation_ratio = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage("--mutation-ratio wants a value in [0, 1]"));
            }
            "--no-shrink" => config.shrink = false,
            "--chaos" => {
                config.chaos =
                    Some(udp_obs::FaultPlan::from_flag(&mut it).unwrap_or_else(|e| usage(&e)))
            }
            "--full" => {} // consumed above
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let stats = run(&config);
    if !quiet {
        print!("{}", stats.render());
    }
    for failure in &stats.failures {
        println!("\n{}", failure.render());
    }
    if stats.disagreements() == 0 {
        if !quiet {
            println!(
                "OK: {} cases, zero decide/oracle/cache disagreements (seed {})",
                stats.cases, config.seed
            );
        }
        ExitCode::SUCCESS
    } else {
        println!(
            "FAIL: {} disagreement(s) over {} cases (seed {})",
            stats.disagreements(),
            stats.cases,
            config.seed
        );
        ExitCode::FAILURE
    }
}
