//! Fig 7: UDP execution time per dataset × feature category.
//!
//! Each Criterion group benches the full pipeline (parse → catalog → lower →
//! UDP) over the proved rules of one dataset/category bucket, mirroring the
//! per-category means the paper reports.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use udp_corpus::{all_rules, run_rule, session_config, Category, Expectation, Rule, Source};

fn prove(rule: &Rule) {
    let outcome = black_box(run_rule(rule, session_config(rule)));
    assert_eq!(
        outcome.observed,
        Expectation::Proved,
        "{} must prove",
        rule.name
    );
}

fn bucket(source: Source, category: Category) -> Vec<Rule> {
    all_rules()
        .into_iter()
        .filter(|r| {
            r.source == source && r.expect == Expectation::Proved && r.has_category(category)
        })
        .collect()
}

fn bench_fig7(c: &mut Criterion) {
    for source in [Source::Literature, Source::Calcite] {
        for (cat, label) in [
            (Category::Ucq, "ucq"),
            (Category::Cond, "cond"),
            (Category::Agg, "agg"),
            (Category::DistinctSubquery, "distinct"),
        ] {
            let rules = bucket(source, cat);
            if rules.is_empty() {
                continue;
            }
            let name = format!("fig7/{source}/{label}");
            c.bench_function(&name, |b| {
                b.iter(|| {
                    for rule in &rules {
                        prove(rule);
                    }
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig7
}
criterion_main!(benches);
