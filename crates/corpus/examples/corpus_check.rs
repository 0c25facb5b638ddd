//! Quick corpus sweep: print observed vs expected verdict per rule.
//!
//! With `--strict`, exit non-zero on any expectations drift — the CI step
//! that keeps every rule file's `-- expect:` header honest against the
//! prover's actual verdict.
use udp_corpus::{all_rules, run_rule, session_config};

fn main() {
    let strict = std::env::args().any(|a| a == "--strict");
    let mut mismatches = 0;
    for rule in all_rules() {
        let out = run_rule(&rule, session_config(&rule));
        let ok = out.observed == rule.expect;
        if !ok {
            mismatches += 1;
        }
        println!(
            "{} {:40} expect={:<11} got={:<11} {:?} {}",
            if ok { "ok  " } else { "FAIL" },
            rule.name,
            rule.expect.to_string(),
            out.observed.to_string(),
            out.wall,
            out.detail
        );
    }
    println!("\nmismatches: {mismatches}");
    if strict && mismatches > 0 {
        std::process::exit(1);
    }
}
