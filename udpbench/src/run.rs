//! Workload runners. Each returns a [`Report`]: the checker's tally plus
//! the run's metrics.

use crate::check::{Checker, Label, Outcome};
use crate::gen::{self, shuffle, CorpusRule, Goal, Served};
use crate::layers::{Mirror, Samples};
use crate::serve::{self, ServeCmd, Server};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Args, Metric};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use udp_service::{Session, SessionConfig};
use udp_sql::Dialect;

/// Corpus passes per run, at least: 100 goals × 10 = 1000 samples.
pub const CORPUS_MIN_PASSES: usize = 10;
/// Goals in one pass of the `stream` workload.
pub const STREAM_GOALS: usize = 3000;
/// Goals one `udp-serve` process serves before the client starts a fresh
/// one. A process's peak memory is set by the few heaviest goals it met,
/// so the median over several such sessions, not one long-lived process,
/// is what stays put from seed to seed.
pub const SESSION_GOALS: usize = 500;
/// Rounds of the `joins` workload (12 goals each).
pub const JOINS_ROUNDS: usize = 6;
/// `udp-serve --steps` of the `joins` workload. Goals up to 6 atoms decide,
/// as do the 7-atom rotations and the 8-atom rotations over `sal`; the 7-
/// and 8-atom mismatches (80k and 700k steps) and the other 8-atom
/// rotations (about 100k) are budget-bound, so exactly 16 of the 72 goals
/// time out on every seed. A small budget keeps a pass short, and more
/// passes make each goal's fastest latency steadier on a shared machine.
pub const JOINS_STEPS: u64 = 50_000;
/// `udp-serve --steps` of the `stream` workload. Most stream goals
/// decide in under 300 steps; the rare heavy ones spend 10–20 µs per step
/// in canonization, so a larger budget lets a handful of goals set the
/// run's throughput and tail. About 3% of the goals exhaust it.
pub const STREAM_STEPS: u64 = 1_000;
/// `udp-serve --timeout` of the served workloads: far above any goal, so
/// only the step budget decides which goals time out.
pub const SERVED_WALL_SECS: u64 = 3600;
/// Set-up measurements per run; the median is reported.
pub const SETUP_REPEATS: usize = 9;

/// Everything one workload run produced.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Verdict tally of the measured goals.
    pub checker: Checker,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Extra table rows (error share, c39).
    pub rows: Vec<String>,
}

impl Report {
    fn new(workload: &'static str, checker: Checker) -> Report {
        Report {
            workload,
            checker,
            metrics: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: Option<f64>,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            note,
        });
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Measurements of one or more passes over a fixed goal list.
///
/// Background load on a shared machine only ever adds time, and it comes
/// in bursts of seconds. So each goal's latency is its fastest pass, and
/// the summaries are taken over goals.
#[derive(Default)]
struct Passes {
    /// Per goal (by index): its fastest answer (µs), and whether that
    /// answer was a definite verdict.
    per_goal: Vec<Option<(f64, bool)>>,
    /// Passes completed.
    passes: usize,
    /// Set-up seconds, one per measurement.
    setup: Vec<f64>,
    /// Peak RSS (KiB), one per measurement.
    rss_kib: Vec<f64>,
}

impl Passes {
    fn record(&mut self, goal: usize, outcome: Outcome, latency: Duration) {
        if self.per_goal.len() <= goal {
            self.per_goal.resize(goal + 1, None);
        }
        if outcome == Outcome::Failed {
            return;
        }
        let fresh = (us(latency), outcome.is_decided());
        let slot = &mut self.per_goal[goal];
        if slot.is_none_or(|(best, _)| fresh.0 < best) {
            *slot = Some(fresh);
        }
    }

    /// Each goal's fastest latency; goals without a definite verdict
    /// (budget-bound ones) are left out.
    fn goal_latencies(&self) -> Vec<f64> {
        self.per_goal
            .iter()
            .flatten()
            .filter(|(_, decided)| *decided)
            .map(|(best, _)| *best)
            .collect()
    }

    /// Goals answered per second of answering time, at each goal's
    /// fastest latency (budget-bound goals included): the throughput of
    /// one closed-loop client.
    fn goals_per_s(&self) -> Option<f64> {
        let answered: Vec<f64> = self
            .per_goal
            .iter()
            .flatten()
            .map(|(best, _)| *best)
            .collect();
        let busy_s: f64 = answered.iter().sum::<f64>() / 1e6;
        (busy_s > 0.0).then(|| answered.len() as f64 / busy_s)
    }

    /// The end-to-end metrics of `report`'s workload.
    fn end_to_end(&self, report: &mut Report) {
        let latencies = self.goal_latencies();
        let tail = stats::tail(&latencies);
        let c = &report.checker;
        let (attempted, failed, timeouts) = (c.attempted, c.failed(), c.timeouts);
        let decided = c.decided as f64 / attempted.max(1) as f64;
        let errors = failed as f64 / attempted.max(1) as f64;
        let passes = self.passes;
        report.metric(
            "goal_p50_us",
            "us",
            stats::median(&latencies),
            format!(
                "{} goals, each the fastest of {passes} passes",
                latencies.len()
            ),
        );
        report.metric(
            "goal_tail_us",
            "us",
            tail.map(|t| t.value),
            tail.map_or("too few goals".into(), |t| {
                format!("{}, {} of {} goals beyond", t.label(), t.beyond, t.samples)
            }),
        );
        report.metric(
            "goals_per_s",
            "1/s",
            self.goals_per_s(),
            "goals / summed fastest latencies".to_string(),
        );
        report.metric(
            "decided_share",
            "share",
            Some(decided),
            format!("{timeouts} timeouts"),
        );
        report.metric(
            "peak_rss_mb",
            "MB",
            stats::median(&self.rss_kib).map(|k| k / 1024.0),
            String::new(),
        );
        report.metric(
            "setup_s",
            "s",
            stats::median(&self.setup),
            format!("median of {}", self.setup.len()),
        );
        // Printed, not a bounded metric: it is 0 when the program is right,
        // and the JSON carries it as `failed` / `attempted`.
        report
            .rows
            .insert(0, format!("error_share={errors} ({failed} of {attempted})"));
    }
}

fn session_config(dialect: Dialect) -> SessionConfig {
    SessionConfig::default().with_dialect(dialect)
}

/// One in-process corpus pass in `order`: a fresh session per rule, whose
/// construction is set-up and whose `verify_program_goals` is the goal.
fn corpus_pass(rules: &[CorpusRule], order: &[usize], checker: &mut Checker, p: &mut Passes) {
    let mut setup = Duration::ZERO;
    for &i in order {
        let rule = &rules[i];
        let t0 = Instant::now();
        let session = Session::new(&rule.text, session_config(rule.dialect));
        let t1 = Instant::now();
        setup += t1 - t0;
        let (verdict, latency) = match session {
            Ok(s) => {
                let reports = s.verify_program_goals();
                let latency = t1.elapsed();
                let verdict = match reports.as_slice() {
                    [r] => Ok(r.render_verdict()),
                    other => Err(format!("{} reports for one goal", other.len())),
                };
                (verdict, latency)
            }
            Err(e) => (Err(e.to_string()), t1.elapsed()),
        };
        let outcome = checker.record(
            &rule.name,
            i,
            rule.label,
            verdict.as_deref().map_err(Clone::clone),
        );
        p.record(i, outcome, latency);
    }
    p.passes += 1;
    p.setup.push(setup.as_secs_f64());
}

/// The `corpus` workload, untraced.
pub fn corpus(args: &Args) -> std::io::Result<Report> {
    let rules = gen::corpus();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..rules.len()).collect();
    let mut checker = Checker::default();
    let mut p = Passes::default();
    let start = Instant::now();
    while p.passes < CORPUS_MIN_PASSES || start.elapsed() < args.seconds {
        shuffle(&mut order, &mut rng);
        corpus_pass(&rules, &order, &mut checker, &mut p);
    }
    p.rss_kib.push(serve::own_peak_rss_kib()? as f64);
    let mut report = Report::new("corpus", checker);
    p.end_to_end(&mut report);
    Ok(report)
}

/// The served workloads' inputs and `udp-serve` command.
struct ServedSetup {
    served: Served,
    cmd: ServeCmd,
    steps: u64,
}

fn served_setup(args: &Args, workload: &str) -> std::io::Result<ServedSetup> {
    let (served, steps) = match workload {
        "stream" => (gen::stream(args.seed, STREAM_GOALS), STREAM_STEPS),
        _ => (gen::joins(args.seed, JOINS_ROUNDS), JOINS_STEPS),
    };
    let schema = serve::write_file(&args.work_dir, &format!("{workload}.sql"), &served.ddl)?;
    let cmd = served_cmd(args, schema, steps);
    Ok(ServedSetup { served, cmd, steps })
}

fn serve_cmd(args: &Args, schema: std::path::PathBuf, flags: Vec<String>) -> ServeCmd {
    ServeCmd {
        bin: args.serve_bin.clone(),
        schema,
        flags,
    }
}

/// `udp-serve` as the served workloads run it: full dialect, one worker,
/// a steps-only budget.
fn served_cmd(args: &Args, schema: std::path::PathBuf, steps: u64) -> ServeCmd {
    let flags = [
        "--full".to_string(),
        "--jobs".to_string(),
        "1".to_string(),
        "--steps".to_string(),
        steps.to_string(),
        "--timeout".to_string(),
        SERVED_WALL_SECS.to_string(),
    ];
    serve_cmd(args, schema, flags.to_vec())
}

/// Ask one goal; `None` when the server is gone.
fn ask(
    server: &mut Server,
    name: &str,
    g: &Goal,
    checker: &mut Checker,
) -> (Outcome, Duration, Option<String>) {
    let t0 = Instant::now();
    let response = server.ask(&g.line);
    let latency = t0.elapsed();
    let outcome = checker.record(
        name,
        g.identity,
        g.label,
        response.as_deref().map_err(|e| e.to_string()),
    );
    (outcome, latency, response.ok())
}

/// One closed-loop pass of `goals` through a fresh server.
fn served_pass(
    cmd: &ServeCmd,
    workload: &str,
    goals: &[Goal],
    checker: &mut Checker,
    p: &mut Passes,
) -> std::io::Result<()> {
    for (session, chunk) in goals.chunks(SESSION_GOALS).enumerate() {
        let mut server = cmd.spawn()?;
        for (j, g) in chunk.iter().enumerate() {
            let i = session * SESSION_GOALS + j;
            let (outcome, latency, response) =
                ask(&mut server, &format!("{workload} goal {i}"), g, checker);
            p.record(i, outcome, latency);
            if response.is_none() {
                return Err(std::io::Error::other("udp-serve stopped answering"));
            }
        }
        p.rss_kib.push(server.peak_rss_kib()? as f64);
        server.close()?;
    }
    p.passes += 1;
    Ok(())
}

fn setup_times(cmd: &ServeCmd, p: &mut Passes) -> std::io::Result<()> {
    for _ in 0..SETUP_REPEATS {
        p.setup.push(cmd.setup_time()?.as_secs_f64());
    }
    Ok(())
}

/// The `stream` or `joins` workload, untraced.
pub fn served(args: &Args, workload: &'static str) -> std::io::Result<Report> {
    let s = served_setup(args, workload)?;
    let mut checker = Checker::default();
    let mut p = Passes::default();
    setup_times(&s.cmd, &mut p)?;
    let start = Instant::now();
    while p.passes == 0 || start.elapsed() < args.seconds {
        served_pass(&s.cmd, workload, &s.served.goals, &mut checker, &mut p)?;
    }
    let mut report = Report::new(workload, checker);
    p.end_to_end(&mut report);
    if workload == "joins" {
        c39_row(args, s.steps, &mut report)?;
    }
    Ok(report)
}

/// c39 through `udp-serve` under the `joins` budget, in its own row and
/// outside every `joins` metric.
fn c39_row(args: &Args, steps: u64, report: &mut Report) -> std::io::Result<()> {
    let (ddl, goal) = gen::c39();
    let schema = serve::write_file(&args.work_dir, "c39.sql", &ddl)?;
    let cmd = served_cmd(args, schema, steps);
    let mut checker = Checker::default();
    let mut server = cmd.spawn()?;
    let (outcome, latency, response) = ask(&mut server, "joins c39", &goal, &mut checker);
    server.close()?;
    report.rows.push(format!(
        "c39: {} in {:.1} ms under --steps {steps} ({outcome:?}; label {:?})",
        response.as_deref().unwrap_or("no response"),
        latency.as_secs_f64() * 1e3,
        Label::NotProved,
    ));
    // After the metrics: c39 is checked and counted, never averaged in.
    report.checker.attempted += checker.attempted;
    report.checker.failures.extend(checker.failures);
    Ok(())
}

/// Per-layer metric names with units; each is reported as a median under
/// its own name and as a tail under `<name>.tail`.
pub const PER_GOAL: [(&str, &str); 28] = [
    ("sql.parse_us", "us"),
    ("sql.lower_us", "us"),
    ("sql.lower_nodes", "count"),
    ("ext.desugar_us", "us"),
    ("core.spnf_us", "us"),
    ("core.spnf_nodes", "count"),
    ("core.spnf_growth", "ratio"),
    ("core.fingerprint_us", "us"),
    ("core.fingerprint_bytes", "bytes"),
    ("core.canonize_us", "us"),
    ("core.canonize_terms", "count"),
    ("core.canonize_calls_per_goal", "count"),
    ("core.prove_us", "us"),
    ("core.prove_steps", "count"),
    ("core.us_per_step", "us"),
    ("solve.overhead_us", "us"),
    ("service.overhead_us", "us"),
    ("serve.io_us", "us"),
    ("sql.alloc_bytes", "bytes"),
    ("sql.alloc_calls", "count"),
    ("ext.alloc_bytes", "bytes"),
    ("ext.alloc_calls", "count"),
    ("core.alloc_bytes", "bytes"),
    ("core.alloc_calls", "count"),
    ("solve.alloc_bytes", "bytes"),
    ("solve.alloc_calls", "count"),
    ("service.alloc_bytes", "bytes"),
    ("service.alloc_calls", "count"),
];

/// What a traced run measured, before it becomes metrics.
struct Traced {
    samples: Samples,
    passes: usize,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    tracer: Tracer,
}

impl Traced {
    fn new() -> Traced {
        Traced {
            samples: Samples::new(),
            passes: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    fn finish(self, args: &Args, mut report: Report) -> std::io::Result<Report> {
        for (name, unit) in PER_GOAL {
            let xs = self.samples.get(name).map_or(&[][..], Vec::as_slice);
            let tail = stats::tail(xs);
            let n = format!("n={}", xs.len());
            report.metric(name, unit, stats::median(xs), n.clone());
            let note = tail.map_or(n, |t| format!("{}, n={}", t.label(), t.samples));
            report.metric(format!("{name}.tail"), unit, tail.map(|t| t.value), note);
        }
        let hits = self
            .samples
            .get("service.cache_hit")
            .map_or(&[][..], Vec::as_slice);
        report.metric(
            "service.cache_hit_share",
            "share",
            (!hits.is_empty()).then(|| hits.iter().sum::<f64>() / hits.len() as f64),
            format!("n={}", hits.len()),
        );
        let (u, t) = (stats::median(&self.untraced), stats::median(&self.traced));
        let overhead = u.zip(t).map(|(u, t)| t - u);
        report.metric(
            "trace.overhead_us",
            "us",
            overhead,
            format!("traced p50 {t:?} us vs untraced {u:?} us"),
        );
        report.metric(
            "trace.overhead_share",
            "share",
            overhead.zip(u).map(|(o, u)| o / u),
            String::new(),
        );
        serve::write_file(
            &args.work_dir,
            &format!("spans-{}.jsonl", report.workload),
            &self.tracer.to_jsonl(),
        )?;
        Ok(report)
    }
}

/// The `corpus` workload, traced: one untraced pass, then traced passes.
/// Each traced goal also goes through `udp-serve` (one process per rule) so
/// the serving layer is measured on the corpus too.
pub fn corpus_traced(args: &Args) -> std::io::Result<Report> {
    let rules = gen::corpus();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..rules.len()).collect();
    let mut checker = Checker::default();
    let mut t = Traced::new();
    let mut warm = Passes::default();
    shuffle(&mut order, &mut rng);
    corpus_pass(&rules, &order, &mut Checker::default(), &mut warm);
    t.untraced = warm.goal_latencies();

    let defaults = SessionConfig::default();
    let start = Instant::now();
    while t.passes == 0 || start.elapsed() < args.seconds {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let rule = &rules[i];
            let schema = serve::write_file(&args.work_dir, "corpus.sql", &rule.ddl)?;
            let flags = gen::dialect_flag(rule.dialect)
                .map(String::from)
                .into_iter()
                .collect();
            let mut server = serve_cmd(args, schema, flags).spawn()?;
            let g = Goal {
                line: rule.goal_line.clone(),
                label: rule.label,
                identity: i,
            };
            let (outcome, latency, response) = ask(&mut server, &rule.name, &g, &mut checker);
            server.close()?;
            let session = Session::new(&rule.ddl, session_config(rule.dialect))
                .map_err(std::io::Error::other)?;
            let mirror = Mirror::new(&rule.ddl, rule.dialect, defaults.steps, defaults.wall)
                .map_err(std::io::Error::other)?;
            let goal = GoalRun {
                goal: &g,
                latency,
                response,
                outcome,
            };
            traced_goal(&mut t, &mirror, &session, goal, false, &mut checker);
        }
        t.passes += 1;
    }
    t.finish(args, Report::new("corpus", checker))
}

/// A goal's round trip through `udp-serve`.
struct GoalRun<'a> {
    goal: &'a Goal,
    latency: Duration,
    response: Option<String>,
    outcome: Outcome,
}

/// Measure one goal's layers and check that the in-process verdict agrees
/// with the one the client received. The goal's traced latency, for the
/// tracing overhead, is the client round trip when `client_latency` (the
/// served workloads' `goal_p50_us`) and the in-process service call
/// otherwise (the corpus's).
fn traced_goal(
    t: &mut Traced,
    mirror: &Mirror,
    session: &Session,
    run: GoalRun,
    client_latency: bool,
    checker: &mut Checker,
) {
    t.tracer.next_goal();
    let root = t.tracer.external("goal", None, run.latency);
    trace::set_counting(true);
    let measured = mirror.goal(&mut t.tracer, root, &run.goal.line, session, &mut t.samples);
    trace::set_counting(false);
    match measured {
        Ok((report, service)) => {
            if run.outcome.is_decided() {
                t.traced
                    .push(us(if client_latency { run.latency } else { service }));
            }
            let local = report.render_verdict();
            if let Some(remote) = run.response.filter(|r| *r != local) {
                checker.failures.push(format!(
                    "{}: udp-serve said {remote}, the session said {local}",
                    run.goal.line
                ));
            }
        }
        Err(e) => checker.failures.push(format!("{}: {e}", run.goal.line)),
    }
}

/// The `stream` or `joins` workload, traced: one untraced pass, then
/// traced passes in which every goal also runs through an in-process
/// session with the same configuration and cache state as the server.
pub fn served_traced(args: &Args, workload: &'static str) -> std::io::Result<Report> {
    let s = served_setup(args, workload)?;
    let mut checker = Checker::default();
    let mut t = Traced::new();
    let mut warm = Passes::default();
    served_pass(
        &s.cmd,
        workload,
        &s.served.goals,
        &mut Checker::default(),
        &mut warm,
    )?;
    t.untraced = warm.goal_latencies();

    let config = SessionConfig {
        steps: Some(s.steps),
        wall: Some(Duration::from_secs(SERVED_WALL_SECS)),
        ..session_config(gen::SERVED_DIALECT)
    };
    let start = Instant::now();
    while t.passes == 0 || start.elapsed() < args.seconds {
        for (n, chunk) in s.served.goals.chunks(SESSION_GOALS).enumerate() {
            let mut server = s.cmd.spawn()?;
            let session =
                Session::new(&s.served.ddl, config.clone()).map_err(std::io::Error::other)?;
            let mirror = Mirror::new(
                &s.served.ddl,
                gen::SERVED_DIALECT,
                config.steps,
                config.wall,
            )
            .map_err(std::io::Error::other)?;
            for (j, g) in chunk.iter().enumerate() {
                let name = format!("{workload} goal {}", n * SESSION_GOALS + j);
                let (outcome, latency, response) = ask(&mut server, &name, g, &mut checker);
                if response.is_none() {
                    return Err(std::io::Error::other("udp-serve stopped answering"));
                }
                let goal = GoalRun {
                    goal: g,
                    latency,
                    response,
                    outcome,
                };
                traced_goal(&mut t, &mirror, &session, goal, true, &mut checker);
            }
            server.close()?;
        }
        t.passes += 1;
    }
    t.finish(args, Report::new(workload, checker))
}
