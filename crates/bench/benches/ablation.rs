//! Ablation benches: the prover with individual phases disabled, over a
//! fixed sample of provable corpus rules. Complements the proved-count
//! ablation table of the `experiments` binary with timing data.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use udp_bench::ablation_configs;
use udp_corpus::{all_rules, run_rule, session_config, Expectation, Rule};
use udp_service::SessionConfig;

/// A fixed, diverse sample: first provable rule of each category mix.
fn sample() -> Vec<Rule> {
    let names = [
        "literature/fig1-index-selection",
        "literature/join-associate",
        "literature/distinct-product-absorb",
        "calcite/filter-merge",
        "calcite/filter-aggregate-transpose",
        "calcite/semijoin-remove-fk",
    ];
    all_rules()
        .into_iter()
        .filter(|r| names.contains(&r.name.as_str()) && r.expect == Expectation::Proved)
        .collect()
}

fn bench_ablation(c: &mut Criterion) {
    let rules = sample();
    assert!(!rules.is_empty());
    for (name, opts) in ablation_configs() {
        c.bench_function(&format!("ablation/{name}"), |b| {
            b.iter(|| {
                for rule in &rules {
                    let config = SessionConfig {
                        options: opts.clone(),
                        ..session_config(rule)
                    };
                    // Ablated configurations may legitimately fail to prove;
                    // we measure the work either way.
                    black_box(run_rule(rule, config));
                }
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation
}
criterion_main!(benches);
