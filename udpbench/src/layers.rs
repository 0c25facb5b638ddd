//! Per-layer measurement of one goal: the service call plus the public
//! functions it runs inside, called again by the benchmark (see
//! [`crate::trace`]).

use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::time::Duration;
use udp_core::budget::Budget;
use udp_core::canonize::canonize_nf;
use udp_core::ctx::Ctx;
use udp_core::decide::{decide_normalized_with, DecideConfig};
use udp_core::expr::VarId;
use udp_core::fingerprint::{canonical_form_nf, fingerprint_form};
use udp_obs::{Recorder, Stage};
use udp_service::{GoalReport, Session};
use udp_solve::{SolveConfig, SolveMode};
use udp_sql::{Dialect, Frontend};

/// Per-goal samples of each per-layer quantity, by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// What the repeated calls need to redo the service's work.
pub struct Mirror {
    /// The session's base frontend (schema parsed, views desugared).
    pub base: Frontend,
    /// Parser dialect.
    pub dialect: Dialect,
    /// The session's per-goal step budget.
    pub steps: Option<u64>,
    /// The session's per-goal wall budget.
    pub wall: Option<Duration>,
}

impl Mirror {
    /// The base frontend a session with this dialect builds from `ddl`.
    pub fn new(
        ddl: &str,
        dialect: Dialect,
        steps: Option<u64>,
        wall: Option<Duration>,
    ) -> Result<Mirror, String> {
        let mut base = crate::gen::base_frontend(ddl, dialect)?;
        base.goals.clear();
        Ok(Mirror {
            base,
            dialect,
            steps,
            wall,
        })
    }

    fn budget(&self) -> Budget {
        Budget::new(self.steps, self.wall)
    }

    /// Measure one goal. `root` is the goal's round-trip span. The goal line
    /// is parsed and verified by `session` (a `service` span). Unless the
    /// verdict is a `Timeout` or an error, every layer the service ran is
    /// called again as a child span and the goal's per-layer quantities are
    /// pushed to `samples`. Returns the service's report and the duration
    /// of its call.
    pub fn goal(
        &self,
        tracer: &mut Tracer,
        root: SpanId,
        line: &str,
        session: &Session,
        samples: &mut Samples,
    ) -> Result<(GoalReport, Duration), String> {
        let (parse, parsed) = tracer.span("sql.parse", Some(root), || {
            udp_sql::parse_goal_in(line, self.dialect)
        });
        let goal = parsed.map_err(|e| e.to_string())?;
        let (service, mut reports) = tracer.span("service", Some(root), || {
            session.verify_batch(std::slice::from_ref(&goal))
        });
        let report = reports.pop().ok_or("the session returned no report")?;
        let service_dur = tracer.get(service).dur;
        match &report.outcome {
            Ok(v) if v.decision.is_definite() => {}
            _ => return Ok((report, service_dur)),
        }
        push(
            samples,
            "service.cache_hit",
            f64::from(u8::from(report.cached)),
        );

        let mut fe = self.base.clone();
        let (desugar, goal) = if self.dialect == Dialect::Full {
            let (id, desugared) = tracer.span("ext.desugar", Some(service), || {
                udp_ext::desugar_goal(&fe, &goal)
            });
            (Some(id), desugared.map_err(|e| e.to_string())?)
        } else {
            (None, goal)
        };
        let (lower, lowered) = tracer.span("sql.lower", Some(service), || {
            udp_sql::lower_goal(&mut fe, &goal)
        });
        let (q1, q2) = lowered.map_err(|e| e.to_string())?;
        let (spnf, (nf1, nf2)) = tracer.span("core.spnf", Some(service), || {
            udp_solve::normalize_pair(&q1, &q2)
        });
        let (fingerprint, form_bytes) = tracer.span("core.fingerprint", Some(service), || {
            let f1 = canonical_form_nf(&fe.catalog, &nf1, q1.out, q1.schema);
            let f2 = canonical_form_nf(&fe.catalog, &nf2, q1.out, q2.schema);
            std::hint::black_box((fingerprint_form(&f1), fingerprint_form(&f2)));
            f1.len() + f2.len()
        });

        let lower_nodes = (q1.body.size() + q2.body.size()) as f64;
        let spnf_nodes = (nf1.size() + nf2.size()) as f64;
        push(samples, "sql.lower_nodes", lower_nodes);
        push(samples, "core.spnf_nodes", spnf_nodes);
        push(
            samples,
            "core.spnf_growth",
            spnf_nodes / lower_nodes.max(1.0),
        );
        push(samples, "core.fingerprint_bytes", form_bytes as f64);

        // The prover runs only on a cache miss.
        let mut prove = None;
        if !report.cached {
            let solve_goal = udp_solve::Goal {
                catalog: &fe.catalog,
                constraints: &fe.constraints,
                out: q1.out,
                schema1: q1.schema,
                schema2: q2.schema,
                nf1: &nf1,
                nf2: &nf2,
                config: SolveConfig {
                    steps: self.steps,
                    wall: self.wall,
                    ..SolveConfig::default()
                },
            };
            let (solve, _) = tracer.span("solve", Some(service), || {
                udp_solve::solve_normalized(&solve_goal, SolveMode::Udp)
            });
            let decide = |recorder: Recorder| {
                decide_normalized_with(
                    &fe.catalog,
                    &fe.constraints,
                    q1.out,
                    q1.schema,
                    q2.schema,
                    &nf1,
                    &nf2,
                    DecideConfig {
                        budget: Some(self.budget()),
                        recorder,
                        ..DecideConfig::default()
                    },
                )
            };
            let (id, verdict) =
                tracer.span("core.prove", Some(solve), || decide(Recorder::disabled()));
            prove = Some(id);
            let prove_us = tracer.get(id).dur.as_secs_f64() * 1e6;
            let steps = verdict.stats.steps_used;
            push(samples, "core.prove_us", prove_us);
            push(samples, "core.prove_steps", steps as f64);
            if steps > 0 {
                push(samples, "core.us_per_step", prove_us / steps as f64);
            }
            push(samples, "solve.overhead_us", tracer.self_us(solve));
            let (solve_bytes, solve_calls) = tracer.self_alloc(solve);
            push(samples, "solve.alloc_bytes", solve_bytes);
            push(samples, "solve.alloc_calls", solve_calls);

            // One canonize pass per side on a public context: a probe of
            // canonize's own cost, outside the service's tree.
            let (c1, c2) = (nf1.clone(), nf2.clone());
            let watermark = nf1.max_var().max(nf2.max_var()).max(q1.out.0) + 1;
            let (canon, terms) = tracer.span("core.canonize", None, || {
                let mut ctx = Ctx::new(&fe.catalog, &fe.constraints).with_budget(self.budget());
                ctx.gen.reserve(VarId(watermark));
                ctx.declare_free(q1.out, q1.schema);
                let t1 = canonize_nf(&mut ctx, c1, &[], false).map_or(0, |nf| nf.terms.len());
                let t2 = canonize_nf(&mut ctx, c2, &[], false).map_or(0, |nf| nf.terms.len());
                t1 + t2
            });
            push(samples, "core.canonize_us", tracer.self_us(canon));
            push(samples, "core.canonize_terms", terms as f64);

            // Canonize passes inside the prover, counted by the program's
            // own recorder in a separate call outside every timed span.
            let recorder = Recorder::enabled();
            decide(recorder.clone());
            let calls = recorder
                .snapshot()
                .stage(Stage::CanonizeCore)
                .map_or(0, |s| s.calls);
            push(samples, "core.canonize_calls_per_goal", calls as f64);
        }

        push(samples, "sql.parse_us", tracer.self_us(parse));
        push(samples, "sql.lower_us", tracer.self_us(lower));
        push(samples, "core.spnf_us", tracer.self_us(spnf));
        push(samples, "core.fingerprint_us", tracer.self_us(fingerprint));
        push(samples, "service.overhead_us", tracer.self_us(service));
        push(samples, "serve.io_us", tracer.self_us(root));

        let alloc = |ids: &[Option<SpanId>]| {
            ids.iter()
                .flatten()
                .map(|&id| tracer.self_alloc(id))
                .fold((0.0, 0.0), |(b, c), (b2, c2)| (b + b2, c + c2))
        };
        let layers: [(&'static str, &'static str, Vec<Option<SpanId>>); 4] = [
            (
                "sql.alloc_bytes",
                "sql.alloc_calls",
                vec![Some(parse), Some(lower)],
            ),
            (
                "core.alloc_bytes",
                "core.alloc_calls",
                vec![Some(spnf), Some(fingerprint), prove],
            ),
            (
                "service.alloc_bytes",
                "service.alloc_calls",
                vec![Some(service)],
            ),
            ("ext.alloc_bytes", "ext.alloc_calls", vec![desugar]),
        ];
        for (bytes_name, calls_name, ids) in layers {
            if ids.iter().all(Option::is_none) {
                continue;
            }
            let (bytes, calls) = alloc(&ids);
            push(samples, bytes_name, bytes);
            push(samples, calls_name, calls);
        }
        if let Some(id) = desugar {
            push(samples, "ext.desugar_us", tracer.self_us(id));
        }
        Ok((report, service_dur))
    }
}
