//! # udp-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Sec 6), plus an ablation table of the prover's phases. The
//! `experiments` binary prints the tables. The `throughput` bench
//! (`cargo bench -p udp-bench --bench throughput`) prints batch goals/s and
//! the recorder's overhead, and writes the corpus sweep's metrics snapshot
//! to `BENCH.json`. Timed comparisons go through the repo benchmark
//! (`udpbench/`), not through either.

use std::collections::BTreeMap;
use udp_core::ctx::Options;
use udp_corpus::{
    all_rules, run_rule, session_config, Category, Expectation, Rule, RuleOutcome, Source,
};
use udp_eval::{EvalError, SearchResult};
use udp_service::SessionConfig;

/// Outcome of running the full corpus once.
#[derive(Debug, Clone)]
pub struct CorpusRun {
    /// `(rule, what happened)` for every corpus rule, in registry order.
    pub results: Vec<(Rule, RuleOutcome)>,
}

/// Run every corpus rule with the given prover options.
pub fn run_corpus(options: Options) -> CorpusRun {
    let results = all_rules()
        .into_iter()
        .map(|rule| {
            let config = SessionConfig {
                options: options.clone(),
                ..session_config(&rule)
            };
            let outcome = run_rule(&rule, config);
            (rule, outcome)
        })
        .collect();
    CorpusRun { results }
}

impl CorpusRun {
    /// Results restricted to one dataset.
    pub fn by_source(&self, s: Source) -> impl Iterator<Item = &(Rule, RuleOutcome)> {
        self.results.iter().filter(move |(r, _)| r.source == s)
    }

    /// Fig 5 row: (total, supported, proved, unproved-but-supported).
    pub fn fig5_row(&self, s: Source) -> (usize, usize, usize, usize) {
        let rules: Vec<_> = self.by_source(s).collect();
        // The Calcite corpus embeds exemplars for the 193 out-of-fragment
        // pairs; the total comes from the paper's constant.
        let total = match s {
            Source::Calcite => udp_corpus::CALCITE_TOTAL_RULES,
            _ => rules.len(),
        };
        let supported = rules
            .iter()
            .filter(|(_, o)| o.observed != Expectation::Unsupported)
            .count();
        let proved = rules
            .iter()
            .filter(|(_, o)| o.observed == Expectation::Proved)
            .count();
        (total, supported, proved, supported - proved)
    }

    /// Fig 6 row: proved-rule counts per category.
    pub fn fig6_row(&self, s: Source) -> (usize, BTreeMap<Category, usize>) {
        let proved: Vec<_> = self
            .by_source(s)
            .filter(|(_, o)| o.observed == Expectation::Proved)
            .collect();
        let mut per = BTreeMap::new();
        for c in Category::ALL {
            per.insert(c, proved.iter().filter(|(r, _)| r.has_category(c)).count());
        }
        (proved.len(), per)
    }

    /// Fig 7 row: mean wall time (ms) of proved rules, overall and per
    /// category.
    pub fn fig7_row(&self, s: Source) -> (f64, BTreeMap<Category, f64>) {
        let proved: Vec<_> = self
            .by_source(s)
            .filter(|(_, o)| o.observed == Expectation::Proved)
            .collect();
        let mean = |xs: Vec<f64>| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let overall = mean(
            proved
                .iter()
                .map(|(_, o)| o.wall.as_secs_f64() * 1e3)
                .collect(),
        );
        let mut per = BTreeMap::new();
        for c in Category::ALL {
            per.insert(
                c,
                mean(
                    proved
                        .iter()
                        .filter(|(r, _)| r.has_category(c))
                        .map(|(_, o)| o.wall.as_secs_f64() * 1e3)
                        .collect(),
                ),
            );
        }
        (overall, per)
    }

    /// Sec 6.3 SPNF growth: mean relative size increase (%) per source.
    pub fn spnf_growth(&self, s: Source) -> f64 {
        let growths: Vec<f64> = self
            .by_source(s)
            .filter_map(|(_, o)| o.stats.as_ref().map(|st| st.growth_percent()))
            .collect();
        if growths.is_empty() {
            0.0
        } else {
            growths.iter().sum::<f64>() / growths.len() as f64
        }
    }

    /// Total proved across the corpus (all datasets, extensions included).
    pub fn total_proved(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, o)| o.observed == Expectation::Proved)
            .count()
    }

    /// Total proved across the paper's Fig 5 datasets only — the "62 rules"
    /// headline excludes the beyond-the-paper extension rules.
    pub fn total_proved_paper(&self) -> usize {
        self.results
            .iter()
            .filter(|(r, o)| r.source.is_paper() && o.observed == Expectation::Proved)
            .count()
    }

    /// Rules whose observed outcome diverges from the expectation.
    pub fn mismatches(&self) -> Vec<&(Rule, RuleOutcome)> {
        self.results
            .iter()
            .filter(|(r, o)| r.expect != o.observed)
            .collect()
    }
}

/// Hunt a counterexample to a rule's goal over 200 random databases,
/// parsing the rule in its own dialect. A rule the evaluator cannot parse or
/// build is `Inconclusive`.
pub fn model_check(rule: &Rule) -> SearchResult {
    udp_eval::check_program_in(&rule.text, rule.dialect, 200)
        .unwrap_or_else(|e| SearchResult::Inconclusive(EvalError::Unsupported(e)))
}

/// Named ablation configurations: the full prover, then each phase of
/// [`Options`] switched off on its own (the `experiments ablation` table).
pub fn ablation_configs() -> Vec<(&'static str, Options)> {
    let base = Options::default();
    vec![
        ("full", base.clone()),
        (
            "no-canonize",
            Options {
                canonize: false,
                ..base.clone()
            },
        ),
        (
            "no-congruence",
            Options {
                congruence: false,
                ..base.clone()
            },
        ),
        (
            "no-constraints",
            Options {
                use_constraints: false,
                ..base.clone()
            },
        ),
        (
            "no-squash-intro",
            Options {
                squash_intro: false,
                ..base
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_configs_are_distinct() {
        let configs = ablation_configs();
        assert_eq!(configs.len(), 5);
        assert!(configs[1].1.canonize != configs[0].1.canonize);
    }

    #[test]
    fn model_checker_refutes_every_not_proved_bug_and_extension_rule() {
        let rules: Vec<Rule> = all_rules()
            .into_iter()
            .filter(|r| {
                matches!(r.source, Source::Bugs | Source::Extension)
                    && r.expect == Expectation::NotProved
            })
            .collect();
        assert_eq!(rules.len(), 4);
        for rule in &rules {
            let result = model_check(rule);
            assert!(
                matches!(result, SearchResult::Refuted(_)),
                "{}: {result:?}",
                rule.name
            );
        }
    }
}
