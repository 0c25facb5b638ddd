//! Validate an optimizer rule suite — the paper's motivating use case
//! (Sec 1: Calcite ships 232 rewrite tests, none formally validated).
//!
//! Sweeps the embedded Calcite corpus, proving what UDP can prove and
//! delegating the rest to the counterexample hunter, then prints a triage
//! report like a rule author would want: proved / refuted / inconclusive /
//! out of fragment.
//!
//! ```text
//! cargo run --release --example optimizer_validate
//! ```

use udp_corpus::{all_rules, run_rule, session_config, Expectation, Source};
use udp_service::SessionConfig;
use udp_sql::Dialect;

fn main() {
    let rules: Vec<_> = all_rules()
        .into_iter()
        .filter(|r| r.source == Source::Calcite)
        .collect();
    let mut proved = 0;
    let mut refuted = 0;
    let mut inconclusive = 0;
    let mut unsupported = 0;

    for rule in &rules {
        let short = rule.name.trim_start_matches("calcite/");
        // Every rule runs in the paper's fragment: the ones that need the
        // extended or full dialect are out of it.
        let config = SessionConfig {
            dialect: Dialect::Paper,
            ..session_config(rule)
        };
        let outcome = run_rule(rule, config);
        match outcome.observed {
            Expectation::Proved => {
                proved += 1;
                // The prover's own time, not the whole pipeline's.
                let wall = outcome.stats.as_ref().expect("a verdict has stats").wall;
                println!("{short:<36} PROVED in {:.2} ms", wall.as_secs_f64() * 1e3);
            }
            // A verdict without a proof, as opposed to a front-end rejection.
            _ if outcome.stats.is_some() => {
                // No proof: hunt a counterexample before flagging for review.
                match udp_eval::check_program(&rule.text, 200) {
                    Ok(udp_eval::SearchResult::Refuted(ce)) => {
                        refuted += 1;
                        println!("{short:<36} REFUTED (witness seed {})", ce.seed);
                    }
                    _ => {
                        inconclusive += 1;
                        println!("{short:<36} no proof, no counterexample — review manually");
                    }
                }
            }
            _ => {
                unsupported += 1;
                println!("{short:<36} out of fragment ({})", outcome.detail);
            }
        }
    }

    println!(
        "\n{} rules: {proved} proved, {refuted} refuted, {inconclusive} inconclusive, \
         {unsupported} out of fragment",
        rules.len()
    );
    assert_eq!(proved, 33, "Fig 5: 33 provable Calcite rules");
}
