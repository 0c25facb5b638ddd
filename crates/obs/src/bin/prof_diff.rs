//! Perf-regression diff gate: compare two profiling snapshots and fail on
//! deltas beyond tolerance.
//!
//! Usage:
//!   `udp-prof-diff --baseline BASE.json [--baseline BASE.json...]
//!                  [--tolerance F] [--min-share F] [--min-count N]
//!                  [--mem-tolerance F] [--inflate NAME:FACTOR] CURRENT.json...`
//!
//! All inputs are `--metrics-json` snapshots (schema version 5). Several
//! baseline or CURRENT snapshots — repeated runs of one command — are each
//! reduced to the per-entry median of the figures the gates compare (stage
//! calls and shares, counters, memory rows), so one descheduled run cannot
//! fail the gate alone. Four families of checks run; the first three
//! against `--tolerance` (default 0.15):
//!
//! * **stage shares** — compared as absolute share-point deltas, but only
//!   for stages whose share reaches `--min-share` (default 0.02) in either
//!   snapshot. Shares are ratios of the same run's wall clock, so they are
//!   robust to the absolute speed of the machine. `queue-wait` is the
//!   exception: it sums every goal's wait since its batch started, so its
//!   share grows with batch length (about `(n-1)/2` with one worker) and is
//!   compared relatively, in percent of goal wall;
//! * **stage call counts** — compared relatively when the baseline has at
//!   least `--min-count` (default 10) calls; call counts are deterministic
//!   for a fixed input;
//! * **deterministic counters** — the [`Counter`] taxonomy minus gauges,
//!   cache-order-dependent depths and fault tallies, compared relatively under
//!   the same floor. These are the sharpest signal: a rewrite-loop
//!   regression shows up here even when wall time hides it;
//! * **memory** — when both snapshots carry a *tracked* memory section,
//!   bytes-per-goal and per-stage `alloc_bytes` are compared
//!   relatively against `--mem-tolerance` (default 0.30 — allocation byte
//!   totals are stable for a fixed build but drift slightly across
//!   toolchains, so the byte gate is wider than the count gates). Stage
//!   rows under a 64 KiB floor are skipped as noise.
//!
//! `--inflate NAME:FACTOR` multiplies one stage's share/calls (or one
//! counter's value) in the *current* snapshot before diffing; the special
//! target `alloc-bytes` scales the whole memory section (bytes-per-goal
//! plus every stage row). CI uses it to prove the gates actually fire: an
//! inflated run must exit non-zero.
//!
//! Exit code: 0 when every delta is within tolerance, 1 otherwise (or on
//! malformed input).

use std::collections::{BTreeMap, BTreeSet};
use udp_obs::json::{parse, Value};
use udp_obs::{Counter, Stage};

fn fail(msg: &str) -> ! {
    eprintln!("udp-prof-diff: error: {msg}");
    std::process::exit(1);
}

/// The parts of a metrics snapshot the gates compare.
#[derive(Default)]
struct Prof {
    /// stage name → (calls, share of goal wall).
    stages: BTreeMap<String, (f64, f64)>,
    /// counter name → value.
    counters: BTreeMap<String, f64>,
    /// Tracked allocation bytes per goal (`None` when the snapshot has no
    /// memory session or it was untracked).
    mem_bytes_per_goal: Option<f64>,
    /// memory stage name → alloc_bytes (tracked sessions only).
    mem_stage_bytes: BTreeMap<String, f64>,
}

/// Load a metrics snapshot.
fn load(path: &str) -> Prof {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let root = parse(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e}")));
    if root.get("schema_version").and_then(Value::as_f64) != Some(5.0) {
        fail(&format!("{path}: not a schema-version-5 metrics snapshot"));
    }
    let mut prof = Prof::default();
    let stages = root
        .get("stages")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&format!("{path}: \"stages\" is not an array")));
    for entry in stages {
        let name = entry
            .get("stage")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(&format!("{path}: stage entry without a name")));
        let calls = entry.get("calls").and_then(Value::as_f64).unwrap_or(0.0);
        let share = entry.get("share").and_then(Value::as_f64).unwrap_or(0.0);
        prof.stages.insert(name.to_string(), (calls, share));
    }
    let counters = root.get("counters").and_then(Value::as_array);
    for entry in counters.into_iter().flatten() {
        if let (Some(name), Some(v)) = (
            entry.get("counter").and_then(Value::as_str),
            entry.get("value").and_then(Value::as_f64),
        ) {
            prof.counters.insert(name.to_string(), v);
        }
    }
    // Only a *tracked* memory session gates (an untracked one is all
    // zeros and would only produce vacuous checks).
    if let Some(mem) = root.get("memory") {
        if mem.get("tracked").and_then(Value::as_bool) == Some(true) {
            prof.mem_bytes_per_goal = mem.get("bytes_per_goal").and_then(Value::as_f64);
            if let Some(rows) = mem.get("stages").and_then(Value::as_array) {
                for row in rows {
                    if let (Some(name), Some(b)) = (
                        row.get("stage").and_then(Value::as_str),
                        row.get("alloc_bytes").and_then(Value::as_f64),
                    ) {
                        prof.mem_stage_bytes.insert(name.to_string(), b);
                    }
                }
            }
        }
    }
    prof
}

/// The per-entry median of several runs' figures (the mean of the middle
/// two for an even count). An entry a run lacks counts as 0 there, as the
/// gates read a missing entry; the memory figures stay only when every run
/// tracked memory.
fn median(profs: &[Prof]) -> Prof {
    fn mid(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        let m = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[m]
        } else {
            (xs[m - 1] + xs[m]) / 2.0
        }
    }
    fn column(maps: Vec<&BTreeMap<String, f64>>) -> BTreeMap<String, f64> {
        let keys: BTreeSet<&String> = maps.iter().flat_map(|m| m.keys()).collect();
        keys.into_iter()
            .map(|k| {
                let xs = maps.iter().map(|m| m.get(k).copied().unwrap_or(0.0));
                (k.clone(), mid(xs.collect()))
            })
            .collect()
    }
    let stage_names: BTreeSet<&String> = profs.iter().flat_map(|p| p.stages.keys()).collect();
    let stages = stage_names
        .into_iter()
        .map(|k| {
            let (calls, shares) = profs
                .iter()
                .map(|p| p.stages.get(k).copied().unwrap_or((0.0, 0.0)))
                .unzip();
            (k.clone(), (mid(calls), mid(shares)))
        })
        .collect();
    let mem_bytes_per_goal = profs
        .iter()
        .map(|p| p.mem_bytes_per_goal)
        .collect::<Option<Vec<_>>>()
        .map(mid);
    Prof {
        stages,
        counters: column(profs.iter().map(|p| &p.counters).collect()),
        mem_bytes_per_goal,
        mem_stage_bytes: if mem_bytes_per_goal.is_some() {
            column(profs.iter().map(|p| &p.mem_stage_bytes).collect())
        } else {
            BTreeMap::new()
        },
    }
}

/// How the gate's messages name a group of snapshots.
fn label(paths: &[String]) -> String {
    match paths {
        [one] => one.clone(),
        [first, rest @ ..] => format!("the median of {first} and {} more", rest.len()),
        [] => String::new(),
    }
}

struct Gate {
    tolerance: f64,
    min_share: f64,
    failures: u32,
    checks: u32,
}

impl Gate {
    /// Relative comparison within `tolerance`, skipped when the baseline
    /// value is under `floor`.
    fn relative(
        &mut self,
        kind: &str,
        name: &str,
        base: f64,
        cur: f64,
        tolerance: f64,
        floor: f64,
    ) {
        if base < floor {
            return;
        }
        self.checks += 1;
        let delta = (cur - base) / base;
        let ok = delta.abs() <= tolerance;
        if !ok {
            self.failures += 1;
        }
        println!(
            "{} {kind:<13} {name:<21} {base:>14.0} -> {cur:>14.0}  ({:+.1}%)",
            if ok { "  ok " } else { "FAIL " },
            delta * 100.0
        );
    }

    /// Absolute share-point comparison for stage wall shares.
    fn share(&mut self, name: &str, base: f64, cur: f64) {
        if base.max(cur) < self.min_share {
            return;
        }
        self.checks += 1;
        let delta = cur - base;
        let ok = delta.abs() <= self.tolerance;
        if !ok {
            self.failures += 1;
        }
        println!(
            "{} {:<13} {name:<21} {:>13.1}% -> {:>13.1}%  ({:+.1}pt)",
            if ok { "  ok " } else { "FAIL " },
            "stage-share",
            base * 100.0,
            cur * 100.0,
            delta * 100.0
        );
    }
}

fn main() {
    let mut baselines: Vec<String> = Vec::new();
    let mut currents: Vec<String> = Vec::new();
    let mut tolerance = 0.15_f64;
    let mut min_share = 0.02_f64;
    let mut min_count = 10.0_f64;
    let mut mem_tolerance = 0.30_f64;
    let mut inflate: Vec<(String, f64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--baseline" => baselines.push(take("--baseline")),
            "--tolerance" => {
                tolerance = take("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| fail("--tolerance needs a float"))
            }
            "--min-share" => {
                min_share = take("--min-share")
                    .parse()
                    .unwrap_or_else(|_| fail("--min-share needs a float"))
            }
            "--min-count" => {
                min_count = take("--min-count")
                    .parse()
                    .unwrap_or_else(|_| fail("--min-count needs a float"))
            }
            "--mem-tolerance" => {
                mem_tolerance = take("--mem-tolerance")
                    .parse()
                    .unwrap_or_else(|_| fail("--mem-tolerance needs a float"))
            }
            "--inflate" => {
                let spec = take("--inflate");
                let (name, factor) = spec
                    .split_once(':')
                    .unwrap_or_else(|| fail("--inflate wants NAME:FACTOR"));
                let factor: f64 = factor
                    .parse()
                    .unwrap_or_else(|_| fail("--inflate factor must be a float"));
                inflate.push((name.to_string(), factor));
            }
            _ if arg.starts_with("--") => fail(&format!("unknown flag {arg}")),
            _ => currents.push(arg),
        }
    }
    if baselines.is_empty() {
        fail(
            "usage: udp-prof-diff --baseline BASE.json [--baseline BASE.json...] \
             [--tolerance F] [--min-share F] [--min-count N] [--mem-tolerance F] \
             [--inflate NAME:FACTOR] CURRENT.json...",
        )
    }
    if currents.is_empty() {
        fail("missing CURRENT.json argument");
    }
    let (baseline, current) = (label(&baselines), label(&currents));
    let base = median(&baselines.iter().map(|p| load(p)).collect::<Vec<_>>());
    let mut cur = median(&currents.iter().map(|p| load(p)).collect::<Vec<_>>());
    for (name, factor) in &inflate {
        if name == "alloc-bytes" {
            if cur.mem_bytes_per_goal.is_none() {
                fail(&format!(
                    "--inflate alloc-bytes: {current} has no tracked memory section"
                ));
            }
            if let Some(v) = cur.mem_bytes_per_goal.as_mut() {
                *v *= factor;
            }
            for v in cur.mem_stage_bytes.values_mut() {
                *v *= factor;
            }
        } else if let Some((calls, share)) = cur.stages.get_mut(name) {
            *calls *= factor;
            *share *= factor;
        } else if let Some(v) = cur.counters.get_mut(name) {
            *v *= factor;
        } else {
            fail(&format!("--inflate target \"{name}\" not in {current}"));
        }
        println!("note: inflated \"{name}\" by {factor}x in {current}");
    }

    let mut gate = Gate {
        tolerance,
        min_share,
        failures: 0,
        checks: 0,
    };
    for (name, (base_calls, base_share)) in &base.stages {
        let (cur_calls, cur_share) = cur.stages.get(name).copied().unwrap_or((0.0, 0.0));
        if name == Stage::QueueWait.name() {
            let (base_pct, cur_pct) = (base_share * 100.0, cur_share * 100.0);
            let floor = min_share * 100.0;
            gate.relative("stage-share%", name, base_pct, cur_pct, tolerance, floor);
        } else {
            gate.share(name, *base_share, cur_share);
        }
        gate.relative(
            "stage-calls",
            name,
            *base_calls,
            cur_calls,
            tolerance,
            min_count,
        );
    }
    for (name, base_v) in &base.counters {
        // Gauges, cache-order depths and fault tallies are schedule
        // dependent; only the deterministic taxonomy gates.
        if !Counter::parse(name).is_some_and(Counter::is_deterministic) {
            continue;
        }
        let cur_v = cur.counters.get(name).copied().unwrap_or(0.0);
        gate.relative("counter", name, *base_v, cur_v, tolerance, min_count);
    }
    // Memory gates run only when both snapshots carry a tracked memory
    // section (comparing a tracked run against an untracked baseline — or
    // vice versa — would diff real bytes against structural zeros). Byte
    // totals drift more than counts across toolchains, hence the separate,
    // wider tolerance; tiny stage rows are skipped as noise.
    if let (Some(base_bpg), Some(cur_bpg)) = (base.mem_bytes_per_goal, cur.mem_bytes_per_goal) {
        gate.relative(
            "mem",
            "bytes-per-goal",
            base_bpg,
            cur_bpg,
            mem_tolerance,
            1024.0,
        );
        for (name, base_b) in &base.mem_stage_bytes {
            let cur_b = cur.mem_stage_bytes.get(name).copied().unwrap_or(0.0);
            gate.relative("mem-bytes", name, *base_b, cur_b, mem_tolerance, 65536.0);
        }
    }

    if gate.checks == 0 {
        fail("nothing to compare (empty baseline or all entries under the floors)");
    }
    if gate.failures > 0 {
        eprintln!(
            "udp-prof-diff: FAIL: {} of {} checks beyond ±{:.0}% / ±{:.0}pt \
             ({baseline} vs {current})",
            gate.failures,
            gate.checks,
            tolerance * 100.0,
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "udp-prof-diff: OK ({} checks within ±{:.0}% / ±{:.0}pt, {baseline} vs {current})",
        gate.checks,
        tolerance * 100.0,
        tolerance * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(calls: f64, share: f64, counter: Option<f64>, mem: Option<f64>) -> Prof {
        Prof {
            stages: BTreeMap::from([("udp-prove".to_string(), (calls, share))]),
            counters: counter
                .map(|v| ("unions".to_string(), v))
                .into_iter()
                .collect(),
            mem_bytes_per_goal: mem,
            mem_stage_bytes: mem.map(|v| ("parse".to_string(), v)).into_iter().collect(),
        }
    }

    #[test]
    fn median_is_taken_per_entry_with_missing_entries_as_zero() {
        let runs = [
            prof(10.0, 0.5, Some(7.0), Some(100.0)),
            prof(30.0, 0.1, None, Some(300.0)),
            prof(20.0, 0.9, Some(9.0), Some(200.0)),
        ];
        let m = median(&runs);
        assert_eq!(m.stages["udp-prove"], (20.0, 0.5));
        assert_eq!(m.counters["unions"], 7.0);
        assert_eq!(m.mem_bytes_per_goal, Some(200.0));
        assert_eq!(m.mem_stage_bytes["parse"], 200.0);
        let even = median(&runs[..2]);
        assert_eq!(even.stages["udp-prove"], (20.0, 0.3));
        assert_eq!(even.counters["unions"], 3.5);
    }

    #[test]
    fn memory_gates_only_when_every_run_tracked_it() {
        let m = median(&[prof(1.0, 0.1, None, Some(5.0)), prof(1.0, 0.1, None, None)]);
        assert_eq!(m.mem_bytes_per_goal, None);
        assert!(m.mem_stage_bytes.is_empty());
    }
}
