//! # udpbench
//!
//! The repository benchmark: time to a verdict on the paper's rewrite-rule
//! corpus, a seeded goal stream served by `udp-serve`, and seeded cyclic
//! self-joins that stress the isomorphism search. It drives the program
//! only from outside — through the `udp-serve` binary and the crates'
//! public functions — and checks every verdict against a known answer.
//!
//! ```text
//! udpbench --workload corpus|stream|joins|all --seed N --seconds S --trace 0|1
//!          --serve-bin PATH --work-dir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` (only in the
//! `udpbench-traced` binary, which counts allocations) prints the
//! per-layer metrics of a separate traced run. Stdout holds one row per
//! workload and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 1 when any verdict was wrong or missing, 64 on bad
//! arguments, and 0 otherwise.

pub mod check;
pub mod gen;
pub mod layers;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `corpus`, `stream`, `joins`, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The `udp-serve` executable (required).
    pub serve_bin: PathBuf,
    /// Where schema files and span dumps go (required).
    pub work_dir: PathBuf,
}

/// Workload names, in `all` order.
pub const WORKLOADS: [&str; 3] = ["corpus", "stream", "joins"];

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "udpbench: {msg}\nusage: udpbench --workload corpus|stream|joins|all --seed N \
         --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR"
    );
    ExitCode::from(64)
}

impl Args {
    /// Parse `std::env::args`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(10),
            trace: false,
            serve_bin: PathBuf::new(),
            work_dir: PathBuf::new(),
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("missing value for {flag}"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    args.seconds = Duration::from_secs(s);
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--serve-bin" => args.serve_bin = value()?.into(),
                "--work-dir" => args.work_dir = value()?.into(),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.serve_bin.as_os_str().is_empty() || args.work_dir.as_os_str().is_empty() {
            return Err("--serve-bin and --work-dir are required".into());
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        Ok(args)
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when the run produced no sample for it.
    pub value: Option<f64>,
    /// Context printed in the workload's row.
    pub note: String,
}

fn run_one(args: &Args, workload: &'static str) -> std::io::Result<run::Report> {
    match (workload, args.trace) {
        ("corpus", false) => run::corpus(args),
        ("corpus", true) => run::corpus_traced(args),
        (w, false) => run::served(args, w),
        (w, true) => run::served_traced(args, w),
    }
}

fn json_metric(name: &str, m: &Metric) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.value.expect("checked before printing"),
        m.unit
    )
}

/// Run the requested workloads and print their rows and the JSON result.
/// `counting` says whether this binary installs the allocation counter.
pub fn main_with(counting: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.trace && !counting {
        return usage("--trace 1 needs the udpbench-traced binary");
    }
    let workloads: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .into_iter()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let mut reports = Vec::new();
    for w in workloads {
        match run_one(&args, w) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("udpbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    let mut fields = Vec::new();
    for r in &reports {
        attempted += r.checker.attempted;
        failed += r.checker.failed();
        let cells: Vec<String> = r
            .metrics
            .iter()
            .map(|m| {
                let v = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
                if m.note.is_empty() {
                    format!("{}={v} {}", m.name, m.unit)
                } else {
                    format!("{}={v} {} [{}]", m.name, m.unit, m.note)
                }
            })
            .collect();
        println!("{}: {}", r.workload, cells.join("  "));
        for row in &r.rows {
            println!("{}: {row}", r.workload);
        }
        for f in &r.checker.failures {
            eprintln!("udpbench: {}: FAILED {f}", r.workload);
        }
        for m in &r.metrics {
            if m.value.is_none() {
                eprintln!("udpbench: {}: no samples for {}", r.workload, m.name);
                return ExitCode::FAILURE;
            }
            let name = if reports.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", r.workload, m.name)
            };
            fields.push(json_metric(&name, m));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
