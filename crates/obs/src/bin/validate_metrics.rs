//! Schema and invariant validator for `--metrics-json` snapshots and
//! `--trace-out` Chrome traces (CI).
//!
//! Usage: `validate-metrics [--min-coverage F] PATH`
//!        `validate-metrics --trace [--min-lanes N] PATH`
//!
//! Metrics mode checks, against schema version 5:
//! * required top-level keys with the right types;
//! * `stages` lists every known stage name exactly once, in order;
//! * `counters` lists every known counter name exactly once, in order,
//!   with a non-negative value;
//! * `memory` is `null` (no memory session) or an object whose stage rows
//!   list every stage in order plus a final `"untagged"` row, whose row
//!   sums reproduce the `alloc_bytes`/`alloc_calls` totals, whose peak
//!   watermark dominates live bytes, and whose `bytes_per_goal` is
//!   consistent with `alloc_bytes / goals`; an untracked session (no
//!   tracking allocator installed in the producing binary) must be
//!   all-zero;
//! * every share is in `[0, 1.5]` (detail stages such as program parsing
//!   run outside the goal window, so a share may pass 1.0, but not by 50%);
//! * `coverage` equals the sum of `goal_path: true` shares (±0.02);
//! * `coverage >= min_coverage` (default 0.9) whenever goals were proved
//!   uncached — i.e. `goals > 0` and prove-stage calls exist;
//! * `open_spans == 0` (span balance at quiescence);
//! * every `slow_goals` row names a goal-path stage, and a goal's rows sum
//!   to at most its `wall_us` (plus 0.001 us of rounding per row);
//! * the `faults` section exists and its three totals agree with the
//!   matching entries in `counters` (one producer, two views — any
//!   disagreement means a second writer crept in).
//!
//! Trace mode re-parses a Chrome Trace Event export and checks the
//! span-balance invariant (every `"E"` closes the matching `"B"`, nothing
//! stays open) plus a minimum lane count.
//!
//! Exit code 0 on success, 1 with a message on the first violation.

use udp_obs::json::{parse, Value};
use udp_obs::{validate_chrome_trace, Counter, Stage};

fn fail(msg: &str) -> ! {
    eprintln!("validate-metrics: FAIL: {msg}");
    std::process::exit(1);
}

fn need<'v>(obj: &'v Value, key: &str) -> &'v Value {
    obj.get(key)
        .unwrap_or_else(|| fail(&format!("missing key \"{key}\"")))
}

fn need_num(obj: &Value, key: &str) -> f64 {
    need(obj, key)
        .as_f64()
        .unwrap_or_else(|| fail(&format!("key \"{key}\" is not a number")))
}

fn main() {
    let mut min_coverage = 0.9_f64;
    let mut min_lanes = 1usize;
    let mut trace_mode = false;
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-coverage" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--min-coverage needs a value"));
                min_coverage = v
                    .parse()
                    .unwrap_or_else(|_| fail("--min-coverage needs a float"));
            }
            "--min-lanes" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--min-lanes needs a value"));
                min_lanes = v
                    .parse()
                    .unwrap_or_else(|_| fail("--min-lanes needs an integer"));
            }
            "--trace" => trace_mode = true,
            _ => path = Some(arg),
        }
    }
    let path = path.unwrap_or_else(|| {
        fail("usage: validate-metrics [--min-coverage F] PATH | --trace [--min-lanes N] PATH")
    });
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));

    if trace_mode {
        let check = validate_chrome_trace(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        if check.lanes < min_lanes {
            fail(&format!(
                "{path}: {} lanes, want at least {min_lanes}",
                check.lanes
            ));
        }
        if check.spans == 0 {
            fail(&format!("{path}: trace carries no spans"));
        }
        println!(
            "validate-metrics: OK ({path}: {} lanes, {} balanced spans, {} instants)",
            check.lanes, check.spans, check.instants
        );
        return;
    }

    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("invalid JSON: {e}")));

    if need_num(&doc, "schema_version") as u64 != 5 {
        fail("schema_version != 5");
    }
    let goals = need_num(&doc, "goals");
    let goal_wall_us = need_num(&doc, "goal_wall_us");
    let coverage = need_num(&doc, "coverage");
    let open_spans = need_num(&doc, "open_spans");
    if open_spans != 0.0 {
        fail(&format!(
            "open_spans = {open_spans}, want 0 (span imbalance)"
        ));
    }

    let stages = need(&doc, "stages")
        .as_array()
        .unwrap_or_else(|| fail("\"stages\" is not an array"));
    if stages.len() != Stage::COUNT {
        fail(&format!(
            "stages has {} entries, want {}",
            stages.len(),
            Stage::COUNT
        ));
    }
    let mut path_share_sum = 0.0;
    let mut prove_calls = 0u64;
    for (i, entry) in stages.iter().enumerate() {
        let name = need(entry, "stage")
            .as_str()
            .unwrap_or_else(|| fail("stage name is not a string"));
        let stage =
            Stage::parse(name).unwrap_or_else(|| fail(&format!("unknown stage \"{name}\"")));
        if stage.as_index() != i {
            fail(&format!("stage \"{name}\" out of order (index {i})"));
        }
        let share = need_num(entry, "share");
        // Queue-wait is summed over the whole batch while goals sit enqueued
        // concurrently, so its share is legitimately superlinear in batch
        // size (every goal in a flushed chunk waits at once); only the lower
        // bound applies to it.
        let upper = if stage == Stage::QueueWait {
            f64::INFINITY
        } else {
            1.5
        };
        if !(0.0..=upper).contains(&share) {
            fail(&format!("stage \"{name}\" share {share} outside [0, 1.5]"));
        }
        let calls = need_num(entry, "calls");
        need_num(entry, "wall_us");
        need_num(entry, "steps");
        need_num(entry, "p50_us");
        need_num(entry, "p99_us");
        let goal_path = need(entry, "goal_path")
            .as_bool()
            .unwrap_or_else(|| fail("goal_path is not a bool"));
        if goal_path != stage.in_goal_path() {
            fail(&format!("stage \"{name}\" goal_path flag mismatch"));
        }
        if goal_path {
            path_share_sum += share;
        }
        if stage == Stage::UdpProve {
            prove_calls += calls as u64;
        }
        let hist = need(entry, "hist")
            .as_array()
            .unwrap_or_else(|| fail("hist is not an array"));
        if hist.len() != udp_obs::LATENCY_BUCKETS {
            fail(&format!("stage \"{name}\" hist has {} buckets", hist.len()));
        }
    }
    if (coverage - path_share_sum).abs() > 0.02 {
        fail(&format!(
            "coverage {coverage} disagrees with goal-path share sum {path_share_sum}"
        ));
    }
    if goals > 0.0 && prove_calls > 0 && coverage < min_coverage {
        fail(&format!(
            "coverage {coverage:.3} below minimum {min_coverage} over {goals} goals"
        ));
    }
    if goals > 0.0 && goal_wall_us <= 0.0 {
        fail("goals > 0 but goal_wall_us <= 0");
    }

    let counters = need(&doc, "counters")
        .as_array()
        .unwrap_or_else(|| fail("\"counters\" is not an array"));
    if counters.len() != Counter::COUNT {
        fail(&format!(
            "counters has {} entries, want {}",
            counters.len(),
            Counter::COUNT
        ));
    }
    let counter_total = |want: Counter| -> f64 {
        let entry = &counters[want.as_index()];
        need_num(entry, "value")
    };
    for (i, entry) in counters.iter().enumerate() {
        let name = need(entry, "counter")
            .as_str()
            .unwrap_or_else(|| fail("counter name is not a string"));
        let counter =
            Counter::parse(name).unwrap_or_else(|| fail(&format!("unknown counter \"{name}\"")));
        if counter.as_index() != i {
            fail(&format!("counter \"{name}\" out of order (index {i})"));
        }
        if need_num(entry, "value") < 0.0 {
            fail(&format!("counter \"{name}\" has a negative value"));
        }
    }

    let faults = need(&doc, "faults");
    for (key, counter) in [
        ("backend_faults", Counter::BackendFault),
        ("goals_aborted", Counter::GoalAborted),
        ("faults_injected", Counter::FaultsInjected),
    ] {
        let v = need_num(faults, key);
        if v < 0.0 {
            fail(&format!("faults.{key} is negative ({v})"));
        }
        let from_counter = counter_total(counter);
        if v != from_counter {
            fail(&format!(
                "faults.{key} = {v} disagrees with counter \"{}\" = {from_counter}",
                counter.name()
            ));
        }
    }

    let memory = need(&doc, "memory");
    let mut memory_desc = "absent".to_string();
    if !matches!(memory, Value::Null) {
        let tracked = need(memory, "tracked")
            .as_bool()
            .unwrap_or_else(|| fail("memory.tracked is not a bool"));
        let live = need_num(memory, "live_bytes");
        let peak = need_num(memory, "peak_live_bytes");
        let alloc_bytes = need_num(memory, "alloc_bytes");
        let alloc_calls = need_num(memory, "alloc_calls");
        let bytes_per_goal = need_num(memory, "bytes_per_goal");
        let cache_resident = need_num(memory, "cache_resident_bytes");
        for (name, v) in [
            ("live_bytes", live),
            ("peak_live_bytes", peak),
            ("alloc_bytes", alloc_bytes),
            ("alloc_calls", alloc_calls),
            ("bytes_per_goal", bytes_per_goal),
            ("cache_resident_bytes", cache_resident),
        ] {
            if v < 0.0 {
                fail(&format!("memory.{name} is negative ({v})"));
            }
        }
        if peak < live {
            fail(&format!(
                "memory peak watermark {peak} below live bytes {live}"
            ));
        }
        if !tracked && (alloc_calls != 0.0 || alloc_bytes != 0.0 || peak != 0.0) {
            fail("memory session is untracked but reports nonzero allocation totals");
        }
        if goals > 0.0 {
            let expect = alloc_bytes / goals;
            if (bytes_per_goal - expect).abs() > expect.abs() * 0.01 + 1.0 {
                fail(&format!(
                    "memory bytes_per_goal {bytes_per_goal} disagrees with alloc_bytes/goals {expect}"
                ));
            }
        }
        let rows = need(memory, "stages")
            .as_array()
            .unwrap_or_else(|| fail("memory.stages is not an array"));
        if rows.len() != Stage::COUNT + 1 {
            fail(&format!(
                "memory.stages has {} rows, want {} (every stage plus \"untagged\")",
                rows.len(),
                Stage::COUNT + 1
            ));
        }
        let mut row_bytes = 0.0;
        let mut row_calls = 0.0;
        for (i, row) in rows.iter().enumerate() {
            let name = need(row, "stage")
                .as_str()
                .unwrap_or_else(|| fail("memory stage name is not a string"));
            if i < Stage::COUNT {
                let stage = Stage::parse(name)
                    .unwrap_or_else(|| fail(&format!("unknown memory stage \"{name}\"")));
                if stage.as_index() != i {
                    fail(&format!("memory stage \"{name}\" out of order (index {i})"));
                }
            } else if name != "untagged" {
                fail(&format!(
                    "memory.stages must end with \"untagged\", found \"{name}\""
                ));
            }
            for key in ["alloc_calls", "alloc_bytes", "bytes_freed"] {
                if need_num(row, key) < 0.0 {
                    fail(&format!("memory stage \"{name}\" has negative \"{key}\""));
                }
            }
            row_bytes += need_num(row, "alloc_bytes");
            row_calls += need_num(row, "alloc_calls");
        }
        if row_bytes != alloc_bytes || row_calls != alloc_calls {
            fail(&format!(
                "memory stage rows sum to {row_bytes} B / {row_calls} calls, \
                 totals claim {alloc_bytes} B / {alloc_calls} calls"
            ));
        }
        memory_desc = if tracked {
            format!("{:.1} KiB/goal", bytes_per_goal / 1024.0)
        } else {
            "untracked".to_string()
        };
    }

    let slow = need(&doc, "slow_goals")
        .as_array()
        .unwrap_or_else(|| fail("\"slow_goals\" is not an array"));
    for g in slow {
        let label = need(g, "label")
            .as_str()
            .unwrap_or_else(|| fail("slow goal label is not a string"));
        let wall_us = need_num(g, "wall_us");
        let rows = need(g, "stages")
            .as_array()
            .unwrap_or_else(|| fail("slow goal stages is not an array"));
        let mut row_us = 0.0;
        for s in rows {
            let name = need(s, "stage")
                .as_str()
                .unwrap_or_else(|| fail("slow goal stage name is not a string"));
            match Stage::parse(name) {
                None => fail(&format!("slow goal references unknown stage \"{name}\"")),
                Some(stage) if !stage.in_goal_path() => fail(&format!(
                    "slow goal row \"{name}\" is not a goal-path stage"
                )),
                Some(_) => row_us += need_num(s, "wall_us"),
            }
        }
        // Each row and the wall are rounded to 0.001 us in the JSON.
        if row_us > wall_us + 0.001 * rows.len() as f64 {
            fail(&format!(
                "slow goal \"{label}\" rows sum to {row_us:.3} us, over its wall {wall_us:.3} us"
            ));
        }
    }

    println!(
        "validate-metrics: OK ({path}: {} goals, coverage {:.1}%, {} slow goals, \
         memory {memory_desc})",
        goals as u64,
        coverage * 100.0,
        slow.len()
    );
}
