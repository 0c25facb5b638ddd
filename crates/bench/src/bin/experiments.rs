//! Regenerate every table and figure of the paper's evaluation (Sec 6).
//!
//! ```text
//! cargo run --release -p udp-bench --bin experiments            # everything
//! cargo run --release -p udp-bench --bin experiments -- fig5    # one table
//! ```
//!
//! Sections: `fig5`, `fig6`, `fig7`, `spnf`, `cosette`, `bugs`, `ablation`,
//! `extensions`.

use udp_bench::{ablation_configs, model_check, run_corpus, CorpusRun};
use udp_core::ctx::Options;
use udp_corpus::{Category, CosetteStatus, Expectation, Rule, Source};
use udp_eval::SearchResult;
use udp_sql::Dialect;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("== UDP evaluation reproduction ==");
    println!("(paper: Chu et al., VLDB 2018; each table prints the paper's figures beneath it)\n");

    let run = run_corpus(Options::default());
    report_mismatches(&run);

    if want("fig5") {
        fig5(&run);
    }
    if want("fig6") {
        fig6(&run);
    }
    if want("fig7") {
        fig7(&run);
    }
    if want("spnf") {
        spnf(&run);
    }
    if want("cosette") {
        cosette(&run);
    }
    if want("bugs") {
        bugs();
    }
    if want("ablation") {
        ablation();
    }
    if want("extensions") {
        extensions(&run);
    }
}

fn report_mismatches(run: &CorpusRun) {
    let mismatches = run.mismatches();
    if mismatches.is_empty() {
        println!(
            "corpus: all {} rules behave as expected\n",
            run.results.len()
        );
    } else {
        println!("corpus: {} UNEXPECTED outcomes:", mismatches.len());
        for (r, o) in mismatches {
            println!(
                "  {} expected {} got {} {}",
                r.name, r.expect, o.observed, o.detail
            );
        }
        println!();
    }
}

fn fig5(run: &CorpusRun) {
    println!("-- Fig 5: proved and unproved rewrite rules --");
    println!(
        "{:<12} {:>6} {:>10} {:>8} {:>10}",
        "Dataset", "Rules", "Supported", "Proved", "Unproved"
    );
    for s in [Source::Literature, Source::Calcite, Source::Bugs] {
        let (total, supported, proved, unproved) = run.fig5_row(s);
        println!("{s:<12} {total:>6} {supported:>10} {proved:>8} {unproved:>10}");
    }
    println!(
        "(Calcite totals include the {} out-of-fragment pairs, represented by \
         per-feature exemplars; paper row: 232 / 39 / 33 / 6)\n",
        udp_corpus::CALCITE_TOTAL_RULES - udp_corpus::CALCITE_SUPPORTED_RULES
    );
}

fn fig6(run: &CorpusRun) {
    println!("-- Fig 6: characterization of proved rules (categories overlap) --");
    println!(
        "{:<12} {:>6} {:>5} {:>5} {:>20} {:>22}",
        "Dataset", "Total", "UCQ", "Cond", "Grouping/Agg/Having", "DISTINCT in subquery"
    );
    for s in [Source::Literature, Source::Calcite] {
        let (total, per) = run.fig6_row(s);
        println!(
            "{s:<12} {total:>6} {:>5} {:>5} {:>20} {:>22}",
            per[&Category::Ucq],
            per[&Category::Cond],
            per[&Category::Agg],
            per[&Category::DistinctSubquery]
        );
    }
    // The Calcite row counts each rule in its own dialect; the paper's
    // dialect proves the rules that need no `-- dialect:` extension.
    let (calcite, _) = run.fig6_row(Source::Calcite);
    let beyond_paper: Vec<&str> = run
        .by_source(Source::Calcite)
        .filter(|(r, o)| o.observed == Expectation::Proved && r.dialect != Dialect::Paper)
        .map(|(r, _)| r.name.as_str())
        .collect();
    println!(
        "(paper: Literature 29 = 15/9/2/4; Calcite 34 = 21/2/11/1 — the paper's\n \
         Fig 5 says 33 while its Fig 6 row sums to 34; we prove {calcite} Calcite rules,\n \
         {} of them in the paper's dialect; beyond it: {})\n",
        calcite - beyond_paper.len(),
        beyond_paper.join(", ")
    );
}

fn fig7(run: &CorpusRun) {
    println!("-- Fig 7: UDP execution time (ms, mean over proved rules) --");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>20} {:>22}",
        "Dataset", "Overall", "UCQ", "Cond", "Grouping/Agg/Having", "DISTINCT in subquery"
    );
    for s in [Source::Literature, Source::Calcite] {
        let (overall, per) = run.fig7_row(s);
        println!(
            "{s:<12} {overall:>8.2} {:>8.2} {:>8.2} {:>20.2} {:>22.2}",
            per[&Category::Ucq],
            per[&Category::Cond],
            per[&Category::Agg],
            per[&Category::DistinctSubquery]
        );
    }
    println!("(paper, authors' testbed: Literature 6594/3481/9984/8628/8224;\n Calcite 4160/2705/6429/6909/6428 — shapes, not absolute values, compare)\n");
}

fn spnf(run: &CorpusRun) {
    println!("-- Sec 6.3: U-expression size growth through SPNF --");
    for s in [Source::Literature, Source::Calcite] {
        println!("{s:<12} mean growth: {:+.1}%", run.spnf_growth(s));
    }
    println!("(paper: Literature +4.1%, Calcite +0.7%)\n");
}

fn cosette(run: &CorpusRun) {
    println!("-- Sec 6.3: comparison to COSETTE --");
    let proved: Vec<_> = run
        .results
        .iter()
        .filter(|(r, o)| r.source.is_paper() && o.observed == Expectation::Proved)
        .collect();
    let expressible = proved
        .iter()
        .filter(|(r, _)| r.cosette != CosetteStatus::Inexpressible)
        .count();
    let manual = proved
        .iter()
        .filter(|(r, _)| r.cosette == CosetteStatus::Manual)
        .count();
    println!("rules proved by UDP:                      {}", proved.len());
    println!("…expressible in COSETTE:                  {expressible}");
    println!("…manually proven in COSETTE:              {manual}");
    println!("…automatically provable by COSETTE:       0");
    println!("(paper: 61 of UDP's rules expressible, 17 manually proven, none automatic;\n e.g. Ex 4.7 took a 320-line Coq script in COSETTE)\n");
}

fn bugs() {
    println!("-- Sec 6.2 Bugs: UDP fails, the model checker refutes --");
    let rules = udp_corpus::all_rules();
    for rule in rules.iter().filter(|r| r.source == Source::Bugs) {
        match rule.expect {
            Expectation::NotProved => print_model_check(rule),
            Expectation::Unsupported => {
                println!(
                    "{:<32} outside the fragment (NULL semantics), as in the paper",
                    rule.name
                )
            }
            _ => {}
        }
    }
    println!();
}

/// One line: the rule and what the model checker found for it.
fn print_model_check(rule: &Rule) {
    match model_check(rule) {
        SearchResult::Refuted(ce) => println!(
            "{:<32} refuted by the model checker (seed {})",
            rule.name, ce.seed
        ),
        other => println!("{:<32} {other:?}", rule.name),
    }
}

fn ablation() {
    println!("-- Ablations: proved-rule counts with phases disabled (paper datasets) --");
    println!(
        "{:<16} {:>8} {:>12}",
        "Configuration", "Proved", "of expected"
    );
    let expected = run_corpus(Options::default()).total_proved_paper();
    for (name, opts) in ablation_configs() {
        let run = run_corpus(opts);
        println!("{name:<16} {:>8} {expected:>12}", run.total_proved_paper());
    }
    println!();
}

/// Beyond the paper: the Sec 6.4 dialect extensions, run under
/// `Dialect::Extended`, reported per feature.
fn extensions(run: &CorpusRun) {
    println!("-- Extensions (Sec 6.4 'future work' features, extended dialect) --");
    println!(
        "{:<16} {:>6} {:>8} {:>10}",
        "Feature", "Rules", "Proved", "Not-proved"
    );
    let ext: Vec<_> = run.by_source(Source::Extension).collect();
    let mut features: Vec<String> = ext
        .iter()
        .filter_map(|(r, _)| r.ext_feature.clone())
        .collect();
    features.sort();
    features.dedup();
    for f in &features {
        let rows: Vec<_> = ext
            .iter()
            .filter(|(r, _)| r.ext_feature.as_deref() == Some(f))
            .collect();
        let proved = rows
            .iter()
            .filter(|(_, o)| o.observed == Expectation::Proved)
            .count();
        println!(
            "{f:<16} {:>6} {proved:>8} {:>10}",
            rows.len(),
            rows.len() - proved
        );
    }
    let total_proved = ext
        .iter()
        .filter(|(_, o)| o.observed == Expectation::Proved)
        .count();
    println!(
        "{:<16} {:>6} {total_proved:>8} {:>10}",
        "total",
        ext.len(),
        ext.len() - total_proved
    );
    // The one expected failure is the deliberately wrong rewrite; show the
    // model checker refuting it.
    for (r, o) in &ext {
        if r.expect == Expectation::NotProved && o.observed == Expectation::NotProved {
            print_model_check(r);
        }
    }
    println!();
}
