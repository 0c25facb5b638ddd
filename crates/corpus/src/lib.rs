//! # udp-corpus
//!
//! The benchmark corpus of the paper's evaluation (Sec 6.2): rewrite rules
//! from the data-management literature, from Apache Calcite's optimizer test
//! suite, and documented optimizer bugs. Each rule is a standalone program in
//! the input language with a structured metadata header:
//!
//! ```text
//! -- name: calcite/filter-merge
//! -- source: calcite
//! -- categories: ucq
//! -- expect: proved
//! -- cosette: expressible
//! -- note: FilterMergeRule — adjacent filters fuse into a conjunction.
//! schema emp_s(…); table emp(emp_s); …
//! verify <q1> == <q2>;
//! ```
//!
//! The full Calcite suite has 232 test-case pairs, 39 in the supported
//! fragment (Fig 5); the 193 out-of-fragment cases are represented here by
//! one exemplar per blocking feature plus [`CALCITE_TOTAL_RULES`] for the
//! bookkeeping (see EXPERIMENTS.md).
//!
//! The corpus is its directory: [`all_rules`] embeds every file under
//! `rules/literature`, `rules/calcite`, `rules/extensions` and `rules/bugs`
//! (in that order, each sorted by file name). To add a rule, drop a `.sql`
//! file with the metadata header into one of them; there is no list to
//! edit. An unknown directory or a non-`.sql` file under `rules/` fails the
//! build.

#![warn(missing_docs)]

mod registry;

pub use registry::all_rules;

use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};
use udp_core::Decision;
use udp_service::{AbortReason, GoalError, Session, SessionConfig};

/// Paper constant: total number of Calcite test-case pairs examined
/// (Sec 6.2).
pub const CALCITE_TOTAL_RULES: usize = 232;
/// Paper constant: Calcite pairs inside the supported fragment (Fig 5).
pub const CALCITE_SUPPORTED_RULES: usize = 39;

/// Rule origin (Fig 5 rows, plus the beyond-the-paper extension dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    /// Rewrite rules from the data-management literature (Sec 6.2).
    Literature,
    /// Pairs from Apache Calcite's optimizer test suite (Sec 6.2).
    Calcite,
    /// Previously documented optimizer bugs (Sec 6.2).
    Bugs,
    /// Rules exercising the Sec 6.4 dialect extensions (set-semantics UNION,
    /// INTERSECT, VALUES, CASE, NATURAL JOIN). Not part of the Fig 5
    /// reproduction — these run under [`udp_sql::Dialect::Extended`].
    Extension,
}

impl Source {
    /// Is this one of the paper's Fig 5 datasets (as opposed to the
    /// beyond-the-paper extensions)?
    pub fn is_paper(self) -> bool {
        !matches!(self, Source::Extension)
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Source::Literature => "Literature",
            Source::Calcite => "Calcite",
            Source::Bugs => "Bugs",
            Source::Extension => "Extensions",
        })
    }
}

/// Feature categories of Fig 6 (not mutually exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Unions of conjunctive queries.
    Ucq,
    /// Requires integrity constraints as preconditions.
    Cond,
    /// Grouping, aggregates, HAVING.
    Agg,
    /// DISTINCT inside a subquery.
    DistinctSubquery,
}

impl Category {
    /// Every Fig 6 category, in display order.
    pub const ALL: [Category; 4] = [
        Category::Ucq,
        Category::Cond,
        Category::Agg,
        Category::DistinctSubquery,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Ucq => "UCQ",
            Category::Cond => "Cond",
            Category::Agg => "Grouping/Agg/Having",
            Category::DistinctSubquery => "DISTINCT in subquery",
        })
    }
}

/// Expected outcome when running UDP on the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expectation {
    /// UDP proves the equivalence.
    Proved,
    /// Within the fragment but no proof is found (e.g. arithmetic, Sec 6.4,
    /// or a genuinely buggy rewrite).
    NotProved,
    /// The search exhausts the budget (the "30 minutes" Calcite pair).
    Timeout,
    /// Rejected by the front end (feature outside the fragment).
    Unsupported,
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Expectation::Proved => "proved",
            Expectation::NotProved => "not-proved",
            Expectation::Timeout => "timeout",
            Expectation::Unsupported => "unsupported",
        })
    }
}

/// COSETTE comparison status (Sec 6.3): whether the prior system could
/// express the rule, and whether its authors proved it manually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CosetteStatus {
    /// Expressible in COSETTE and manually proven there (one of the 17).
    Manual,
    /// Expressible in COSETTE but never proven.
    Expressible,
    /// Not expressible (FK / index constraints COSETTE lacks).
    Inexpressible,
}

/// One corpus rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule id, `dataset/slug`.
    pub name: String,
    /// The dataset it belongs to.
    pub source: Source,
    /// Fig 6 feature categories.
    pub categories: BTreeSet<Category>,
    /// Expected UDP outcome.
    pub expect: Expectation,
    /// COSETTE comparison status (Sec 6.3).
    pub cosette: CosetteStatus,
    /// Free-text provenance / explanation.
    pub note: String,
    /// Parser dialect the rule requires (`-- dialect: extended`); defaults
    /// to the paper fragment.
    pub dialect: udp_sql::Dialect,
    /// For `Source::Extension` rules: which extension the rule exercises
    /// (`set-union`, `intersect`, `values`, `case`, `natural-join`).
    pub ext_feature: Option<String>,
    /// The full program text (DDL + `verify`).
    pub text: String,
}

impl Rule {
    /// Is the rule tagged with the given Fig 6 category?
    pub fn has_category(&self, c: Category) -> bool {
        self.categories.contains(&c)
    }
}

/// Errors while parsing a rule file's metadata header.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleParseError {
    /// The rule file being parsed.
    pub file: String,
    /// What was malformed.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corpus rule `{}`: {}", self.file, self.message)
    }
}

impl std::error::Error for RuleParseError {}

/// Parse a rule file (header comments + program text).
pub fn parse_rule(file: &str, text: &str) -> Result<Rule, RuleParseError> {
    let err = |message: String| RuleParseError {
        file: file.to_string(),
        message,
    };
    let mut name = None;
    let mut source = None;
    let mut categories = BTreeSet::new();
    let mut expect = None;
    let mut cosette = CosetteStatus::Expressible;
    let mut note = String::new();
    let mut dialect = udp_sql::Dialect::Paper;
    let mut ext_feature = None;

    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("--") else {
            continue;
        };
        let Some((key, value)) = rest.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match key.trim() {
            "name" => name = Some(value.to_string()),
            "source" => {
                source = Some(match value {
                    "literature" => Source::Literature,
                    "calcite" => Source::Calcite,
                    "bugs" => Source::Bugs,
                    "extension" => Source::Extension,
                    other => return Err(err(format!("unknown source `{other}`"))),
                })
            }
            "dialect" => {
                dialect = match value {
                    "paper" => udp_sql::Dialect::Paper,
                    "extended" => udp_sql::Dialect::Extended,
                    "full" => udp_sql::Dialect::Full,
                    other => return Err(err(format!("unknown dialect `{other}`"))),
                }
            }
            "ext-feature" => ext_feature = Some(value.to_string()),
            "categories" => {
                for c in value.split(',').map(str::trim).filter(|c| !c.is_empty()) {
                    categories.insert(match c {
                        "ucq" => Category::Ucq,
                        "cond" => Category::Cond,
                        "agg" => Category::Agg,
                        "distinct" => Category::DistinctSubquery,
                        other => return Err(err(format!("unknown category `{other}`"))),
                    });
                }
            }
            "expect" => {
                expect = Some(match value {
                    "proved" => Expectation::Proved,
                    "not-proved" => Expectation::NotProved,
                    "timeout" => Expectation::Timeout,
                    "unsupported" => Expectation::Unsupported,
                    other => return Err(err(format!("unknown expectation `{other}`"))),
                })
            }
            "cosette" => {
                cosette = match value {
                    "manual" => CosetteStatus::Manual,
                    "expressible" => CosetteStatus::Expressible,
                    "inexpressible" => CosetteStatus::Inexpressible,
                    other => return Err(err(format!("unknown cosette status `{other}`"))),
                }
            }
            "note" => note = value.to_string(),
            _ => {} // free-form comment
        }
    }
    Ok(Rule {
        name: name.ok_or_else(|| err("missing `-- name:`".into()))?,
        source: source.ok_or_else(|| err("missing `-- source:`".into()))?,
        categories,
        expect: expect.ok_or_else(|| err("missing `-- expect:`".into()))?,
        cosette,
        note,
        dialect,
        ext_feature,
        text: text.to_string(),
    })
}

/// The session configuration a rule runs under: the rule's dialect and the
/// corpus budget, 5M steps / 25 s per goal (300k steps for a `timeout`
/// rule, which exhausts any budget). No verdict cache: a rule's session
/// decides one goal, so a cached verdict could never be reused.
pub fn session_config(rule: &Rule) -> SessionConfig {
    let steps = match rule.expect {
        Expectation::Timeout => 300_000,
        _ => 5_000_000,
    };
    SessionConfig {
        cache_capacity: 0,
        steps: Some(steps),
        wall: Some(Duration::from_secs(25)),
        dialect: rule.dialect,
        ..SessionConfig::default()
    }
}

/// Run a rule on a [`Session`] built from `config` (normally
/// [`session_config`]) and return the observed outcome. Parser feature
/// rejections and udp-ext's unsupported constructs (in a view or in the
/// goal) all count as `Unsupported`: none reaches the decision procedure.
///
/// # Panics
///
/// When the session contains a panic on the rule's goal: a crash is a
/// prover bug, never an outcome a rule can expect.
pub fn run_rule(rule: &Rule, config: SessionConfig) -> RuleOutcome {
    let started = Instant::now();
    let (observed, detail, stats) = match Session::new(&rule.text, config) {
        Err(e) => match e.unsupported_message() {
            Some(m) => (Expectation::Unsupported, m, None),
            None => (
                Expectation::NotProved,
                format!("front-end error: {e}"),
                None,
            ),
        },
        // A rule file contains exactly one goal by convention.
        Ok(session) => {
            let report = session.verify_program_goals().swap_remove(0);
            match report.outcome {
                Ok(verdict) => {
                    let observed = match verdict.decision {
                        Decision::Proved => Expectation::Proved,
                        Decision::Timeout => Expectation::Timeout,
                        Decision::NotProved(_) => Expectation::NotProved,
                    };
                    let warnings: Vec<String> =
                        session.warnings().iter().map(|w| w.to_string()).collect();
                    (observed, warnings.join("; "), Some(verdict.stats))
                }
                Err(e) if report.aborted == Some(AbortReason::Panicked) => {
                    panic!("{}: {e}", rule.name)
                }
                Err(e @ GoalError::Unsupported(_)) => {
                    (Expectation::Unsupported, e.to_string(), None)
                }
                Err(e) => (
                    Expectation::NotProved,
                    format!("front-end error: {e}"),
                    None,
                ),
            }
        }
    };
    RuleOutcome {
        observed,
        wall: started.elapsed(),
        detail,
        stats,
    }
}

/// Observed outcome of running a rule.
#[derive(Debug, Clone)]
pub struct RuleOutcome {
    /// What actually happened.
    pub observed: Expectation,
    /// Wall-clock time of the whole pipeline run (Fig 7 metric).
    pub wall: Duration,
    /// Extra context (rejection feature, front-end error, …).
    pub detail: String,
    /// Prover statistics when the goal was decided.
    pub stats: Option<udp_core::decide::Stats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_display_honours_width() {
        assert_eq!(format!("{:<12}|", Source::Bugs), "Bugs        |");
    }

    #[test]
    fn parse_rule_header() {
        let text = "-- name: test/x\n-- source: calcite\n-- categories: ucq, cond\n\
                    -- expect: proved\n-- cosette: manual\n-- note: hello\nschema s(a:int);";
        let r = parse_rule("x.sql", text).unwrap();
        assert_eq!(r.name, "test/x");
        assert_eq!(r.source, Source::Calcite);
        assert!(r.has_category(Category::Ucq));
        assert!(r.has_category(Category::Cond));
        assert_eq!(r.expect, Expectation::Proved);
        assert_eq!(r.cosette, CosetteStatus::Manual);
        assert_eq!(r.note, "hello");
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(parse_rule("x", "-- name: a\n").is_err());
        assert!(parse_rule("x", "-- source: calcite\n-- expect: proved\n").is_err());
    }

    #[test]
    fn unknown_values_rejected() {
        let text = "-- name: a\n-- source: nasa\n-- expect: proved\n";
        assert!(parse_rule("x", text).is_err());
    }

    #[test]
    fn registry_loads_every_rule() {
        let rules = all_rules();
        assert!(
            rules.len() >= 80,
            "expected a full corpus, got {}",
            rules.len()
        );
        let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all_rules().len(), "duplicate rule names");
    }

    #[test]
    fn corpus_counts_match_fig5_structure() {
        let rules = all_rules();
        let lit: Vec<_> = rules
            .iter()
            .filter(|r| r.source == Source::Literature)
            .collect();
        let cal: Vec<_> = rules
            .iter()
            .filter(|r| r.source == Source::Calcite)
            .collect();
        let bugs: Vec<_> = rules.iter().filter(|r| r.source == Source::Bugs).collect();
        assert_eq!(lit.len(), 29, "29 literature rules (Fig 5)");
        assert_eq!(bugs.len(), 3, "3 documented bugs (Fig 5)");
        // Fig 5's "supported" column counts the *paper* fragment: rules the
        // prototype handles without the udp-ext / extended-dialect
        // desugarings.
        let cal_paper_supported = cal
            .iter()
            .filter(|r| {
                r.dialect == udp_sql::Dialect::Paper && r.expect != Expectation::Unsupported
            })
            .count();
        assert_eq!(
            cal_paper_supported, CALCITE_SUPPORTED_RULES,
            "39 supported Calcite rules (Fig 5)"
        );
        let cal_paper_proved = cal
            .iter()
            .filter(|r| r.dialect == udp_sql::Dialect::Paper && r.expect == Expectation::Proved)
            .count();
        assert_eq!(cal_paper_proved, 33, "33 proved Calcite rules (Fig 5)");
        let lit_proved = lit
            .iter()
            .filter(|r| r.expect == Expectation::Proved)
            .count();
        assert_eq!(lit_proved, 29, "all literature rules proved (Fig 5)");
        // Beyond the paper: udp-ext flips the out-of-fragment exemplars to
        // definite expectations — only window functions stay rejected.
        let ext_decided = cal
            .iter()
            .filter(|r| {
                r.dialect != udp_sql::Dialect::Paper && r.expect != Expectation::Unsupported
            })
            .count();
        assert!(
            ext_decided >= 10,
            "at least 10 of the 14 u* exemplars are ext-decided, got {ext_decided}"
        );
        let still_unsupported: Vec<&str> = cal
            .iter()
            .filter(|r| r.expect == Expectation::Unsupported)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            still_unsupported,
            vec!["calcite/unsupported-window-over"],
            "only window functions remain out of reach"
        );
    }
}
