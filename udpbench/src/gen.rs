//! Seeded workload inputs. The program under test only ever sees the text
//! produced here: DDL, goal lines, and corpus rule programs. Labels are
//! fixed at generation time.

use crate::check::Label;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use udp_core::constraints::Constraint;
use udp_eval::{find_counterexample_seeded, GenConfig, SearchResult};
use udp_fuzz::{random_frontend, GenProfile, Mutation, QueryGen, Rewrite, SchemaProfile};
use udp_sql::ast::Query;
use udp_sql::pretty::query_to_sql;
use udp_sql::{Dialect, Frontend};

/// One goal line with its known answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    /// `q1 == q2`, as sent to `udp-serve`.
    pub line: String,
    /// Known answer.
    pub label: Label,
    /// Index of the goal this one repeats (itself for an original).
    pub identity: usize,
}

/// A catalog plus a goal stream, served by one `udp-serve` process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// The schema file's contents.
    pub ddl: String,
    /// Goals in stream order.
    pub goals: Vec<Goal>,
}

/// Share of stream goals that are alias-renamed copies of earlier goals.
pub const STREAM_COPY_SHARE: f64 = 0.3;
/// A copy repeats one of this many most recent original goals, so every
/// original is repeated about equally often.
pub const STREAM_COPY_WINDOW: usize = 64;
/// Share of fresh stream goals built by a mutation rather than a rewrite.
pub const STREAM_MUTATION_SHARE: f64 = 0.35;
/// Random databases the oracle tries per mutant.
const ORACLE_TRIALS: u64 = 10;

/// Parser dialect of the served workloads (`udp-serve --full`).
pub const SERVED_DIALECT: Dialect = Dialect::Full;

/// Fisher–Yates shuffle under `rng`.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

fn goal_line(q1: &Query, q2: &Query) -> String {
    format!("{} == {}", query_to_sql(q1), query_to_sql(q2)).replace('\n', " ")
}

/// The frontend a session in `dialect` builds from `ddl`: the program
/// parsed once, with views desugared under the full dialect.
pub fn base_frontend(ddl: &str, dialect: Dialect) -> Result<Frontend, String> {
    let mut fe = udp_sql::prepare_program_in(ddl, dialect).map_err(|e| e.to_string())?;
    if dialect == Dialect::Full {
        udp_ext::desugar_views(&mut fe).map_err(|e| e.to_string())?;
    }
    Ok(fe)
}

/// Does the goal line reach the prover unchanged? It must parse back to the
/// same queries and desugar and lower without error, so no operation of the
/// run fails on input the benchmark chose.
fn servable(base: &Frontend, line: &str, goal: &(Query, Query)) -> bool {
    if udp_sql::parse_goal_in(line, SERVED_DIALECT).ok().as_ref() != Some(goal) {
        return false;
    }
    let mut fe = base.clone();
    udp_ext::desugar_goal(&fe, goal)
        .ok()
        .is_some_and(|g| udp_sql::lower_goal(&mut fe, &g).is_ok())
}

/// The stream's catalog shape: the fuzzer's full-dialect profile, always
/// trying a foreign key.
fn stream_schema_profile() -> SchemaProfile {
    SchemaProfile {
        fk_prob: 1.0,
        ..SchemaProfile::full()
    }
}

/// Catalogs the stream accepts: three tables, each with every attribute
/// column of the profile, two of them nullable; two keys; a foreign key.
/// Fixing the shape keeps the cost of a typical goal from swinging with
/// the seed (nullable columns multiply the 3VL encoding's work); which
/// tables, columns and schemas carry the keys, the foreign key and the
/// NULLs still vary.
fn rich_catalog(fe: &Frontend, profile: &SchemaProfile) -> bool {
    let count = |want: fn(&Constraint) -> bool| fe.constraints.iter().filter(|c| want(c)).count();
    let shaped = fe.catalog.relations().all(|(id, _)| {
        let schema = fe.catalog.relation_schema(id);
        let nullable = schema.nullable.iter().filter(|&&n| n).count();
        schema.attrs.len() == 1 + profile.max_extra_attrs && nullable == 2
    });
    fe.catalog.num_relations() == profile.max_tables
        && shaped
        && count(|c| matches!(c, Constraint::Key { .. })) == 2
        && count(|c| matches!(c, Constraint::ForeignKey { .. })) == 1
}

/// The `stream` workload: `n` goals over one random catalog (see
/// [`rich_catalog`]). Fresh goals pair a random query
/// with a rewrite (label `Equivalent`) or a mutation (label `NotProved` when the
/// oracle refutes it, else unlabelled); about [`STREAM_COPY_SHARE`] of the
/// goals are alias-renamed copies of recent goals, which the fingerprint
/// cache should serve.
pub fn stream(seed: u64, n: usize) -> Served {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_5245_414d);
    let profile = stream_schema_profile();
    let (ddl, fe) = loop {
        let (ddl, fe) = random_frontend(&mut rng, &profile);
        if rich_catalog(&fe, &profile) {
            break (ddl, fe);
        }
    };
    let base = base_frontend(&ddl, SERVED_DIALECT).expect("generated DDL builds a catalog");
    let qg = QueryGen::new(&fe, GenProfile::full());
    let mut goals: Vec<Goal> = Vec::with_capacity(n);
    let mut originals: Vec<(usize, (Query, Query))> = Vec::new();
    while goals.len() < n {
        if !originals.is_empty() && rng.random_bool(STREAM_COPY_SHARE) {
            let recent = originals.len().saturating_sub(STREAM_COPY_WINDOW);
            let (identity, (q1, q2)) = &originals[rng.random_range(recent..originals.len())];
            if let Some(renamed) = Rewrite::AliasRename.apply(q1, &fe, &mut rng) {
                let line = goal_line(&renamed, q2);
                if servable(&base, &line, &(renamed, q2.clone())) {
                    goals.push(Goal {
                        line,
                        label: goals[*identity].label,
                        identity: *identity,
                    });
                }
                continue;
            }
        }
        let q1 = qg.query(&mut rng);
        let (q2, label) = if rng.random_bool(STREAM_MUTATION_SHARE) {
            let mut order = Mutation::ALL;
            shuffle(&mut order, &mut rng);
            let Some(q2) = order.iter().find_map(|m| m.apply(&q1, &mut rng)) else {
                continue;
            };
            let trials = rng.next_u64();
            let seeds = (0..ORACLE_TRIALS).map(|i| trials.wrapping_add(i));
            let label =
                match find_counterexample_seeded(&fe, &q1, &q2, seeds, &GenConfig::default()) {
                    SearchResult::Refuted(_) => Label::NotProved,
                    _ => Label::Unlabelled,
                };
            (q2, label)
        } else {
            let mut order = Rewrite::ALL;
            shuffle(&mut order, &mut rng);
            let Some(q2) = order.iter().find_map(|r| r.apply(&q1, &fe, &mut rng)) else {
                continue;
            };
            (q2, Label::Equivalent)
        };
        let line = goal_line(&q1, &q2);
        let goal = (q1, q2);
        if servable(&base, &line, &goal) {
            originals.push((goals.len(), goal));
            goals.push(Goal {
                line,
                label,
                identity: goals.len(),
            });
        }
    }
    Served { ddl, goals }
}

/// Join sizes of the `joins` workload.
pub const JOIN_ATOMS: std::ops::RangeInclusive<usize> = 3..=8;
const JOIN_ATTRS: [&str; 3] = ["empno", "deptno", "sal"];

/// A self-join of `emp` with `names.len()` atoms, where the atom at FROM
/// position `p` has alias `{prefix}{names[p]}`, equality edges `(p, q,
/// attr)` between positions, and the `sal` of position `out` as output
/// column `column`.
fn self_join(
    prefix: &str,
    names: &[usize],
    edges: &[(usize, usize, &str)],
    out: usize,
    column: &str,
) -> String {
    let alias = |p: usize| format!("{prefix}{}", names[p]);
    let from: Vec<String> = (0..names.len())
        .map(|p| format!("emp {}", alias(p)))
        .collect();
    let conds: Vec<String> = edges
        .iter()
        .map(|(p, q, a)| format!("{}.{a} = {}.{a}", alias(*p), alias(*q)))
        .collect();
    format!(
        "SELECT {}.sal AS {column} FROM {} WHERE {}",
        alias(out),
        from.join(", "),
        conds.join(" AND ")
    )
}

/// Cycle edges over `atoms` in order, all on `attr`.
fn cycle<'a>(atoms: &[usize], attr: &'a str) -> Vec<(usize, usize, &'a str)> {
    if atoms.len() < 2 {
        return Vec::new();
    }
    (0..atoms.len())
        .map(|i| (atoms[i], atoms[(i + 1) % atoms.len()], attr))
        .collect()
}

/// The `joins` workload: `rounds` rounds, each with one rotation and one
/// mismatch of a cyclic self-join per size in [`JOIN_ATOMS`], over the
/// schema of the corpus's c39 rule. The cycle's attribute is fixed by the
/// round, so every seed draws the same mix of sizes, kinds and attributes;
/// the seed picks the rotations, alias names, orientations, predicate
/// order and the mismatch's shape.
///
/// A rotation shifts the cycle's atoms, renames them, flips and shuffles
/// the equalities, and must be `Proved`. A mismatch keeps the atoms but equates
/// them differently, in the style of c39: the cycle runs over another
/// attribute, or splits into two smaller cycles. The equality classes
/// differ, so under bag semantics without keys the two sides count
/// different tuples and must not be `Proved`.
pub fn joins(seed: u64, rounds: usize) -> Served {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x004a_4f49_4e53);
    let (ddl, _) = c39();
    let mut goals = Vec::new();
    for round in 0..rounds {
        let attr = JOIN_ATTRS[round % JOIN_ATTRS.len()];
        for k in JOIN_ATOMS {
            for mismatch in [false, true] {
                let positions: Vec<usize> = (0..k).collect();
                let ordered: Vec<usize> = (1..=k).collect();
                // A distinct output column per goal keeps every goal's
                // canonical form distinct: no goal is a cache hit, so each
                // one runs the search.
                let column = format!("v{}", goals.len());
                let lhs = self_join("a", &ordered, &cycle(&positions, attr), 0, &column);
                // perm[i]: the right-hand position of left atom i, a
                // rotation of the cycle by a nonzero offset (the identity
                // is a much easier search). Alias names are permuted too.
                let offset = rng.random_range(1..k);
                let perm: Vec<usize> = (0..k).map(|i| (i + offset) % k).collect();
                let mut names = ordered;
                shuffle(&mut names, &mut rng);
                let mut edges = if !mismatch {
                    cycle(&perm, attr)
                } else if k >= 4 && rng.random_bool(0.5) {
                    let cut = rng.random_range(2..=k - 2);
                    let mut e = cycle(&perm[..cut], attr);
                    e.extend(cycle(&perm[cut..], attr));
                    e
                } else {
                    let others: Vec<&str> = JOIN_ATTRS.into_iter().filter(|a| *a != attr).collect();
                    cycle(&perm, others[rng.random_range(0..others.len())])
                };
                for e in edges.iter_mut() {
                    if rng.random_bool(0.5) {
                        *e = (e.1, e.0, e.2);
                    }
                }
                shuffle(&mut edges, &mut rng);
                let rhs = self_join("b", &names, &edges, perm[0], &column);
                let label = if mismatch {
                    Label::NotProved
                } else {
                    Label::Proved
                };
                goals.push(Goal {
                    line: format!("{lhs} == {rhs}"),
                    label,
                    identity: goals.len(),
                });
            }
        }
    }
    Served { ddl, goals }
}

/// The corpus's c39 rule (`calcite/timeout-large-join`) as DDL plus its
/// verbatim goal: two 9-way cyclic self-joins equated on different
/// attributes. It must not be `Proved`.
pub fn c39() -> (String, Goal) {
    let rule = udp_corpus::all_rules()
        .into_iter()
        .find(|r| r.name == "calcite/timeout-large-join")
        .expect("the corpus holds c39");
    let (ddl, line) = split_program(&rule.text).expect("c39 has one verify goal");
    (
        ddl,
        Goal {
            line,
            label: Label::NotProved,
            identity: usize::MAX,
        },
    )
}

/// One corpus rule, ready to run in-process or through `udp-serve`.
#[derive(Debug, Clone)]
pub struct CorpusRule {
    /// Rule id, `dataset/slug`.
    pub name: String,
    /// The whole rule program (DDL plus its `verify` goal).
    pub text: String,
    /// Parser dialect the rule needs.
    pub dialect: Dialect,
    /// The rule's `-- expect:` header.
    pub label: Label,
    /// The program without its goal (a `udp-serve` schema file).
    pub ddl: String,
    /// The goal as one `udp-serve` line.
    pub goal_line: String,
}

/// Every corpus rule whose header expects a definite verdict.
pub fn corpus() -> Vec<CorpusRule> {
    udp_corpus::all_rules()
        .into_iter()
        .filter_map(|r| {
            let label = match r.expect {
                udp_corpus::Expectation::Proved => Label::Proved,
                udp_corpus::Expectation::NotProved => Label::NotProved,
                _ => return None,
            };
            let (ddl, goal_line) = split_program(&r.text)?;
            Some(CorpusRule {
                name: r.name,
                dialect: r.dialect,
                label,
                ddl,
                goal_line,
                text: r.text,
            })
        })
        .collect()
}

/// `udp-serve` flag selecting `dialect`.
pub fn dialect_flag(dialect: Dialect) -> Option<&'static str> {
    match dialect {
        Dialect::Paper => None,
        Dialect::Extended => Some("--extended"),
        Dialect::Full => Some("--full"),
    }
}

/// Split a one-goal program at its `verify` statement: the DDL before it,
/// and the goal joined into one line with comment lines dropped.
pub fn split_program(text: &str) -> Option<(String, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| {
        let l = l.trim_start();
        l.get(..6)
            .is_some_and(|kw| kw.eq_ignore_ascii_case("verify"))
            && l[6..].chars().next().is_none_or(char::is_whitespace)
    })?;
    let ddl = lines[..at].join("\n") + "\n";
    let goal: Vec<&str> = lines[at..]
        .iter()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with("--"))
        .collect();
    Some((ddl, goal.join(" ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(stream(7, 40), stream(7, 40));
        assert_eq!(joins(7, 2), joins(7, 2));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(stream(7, 40), stream(8, 40));
        assert_ne!(joins(7, 2), joins(8, 2));
    }

    #[test]
    fn stream_repeats_earlier_goals() {
        let s = stream(3, 200);
        let copies = s
            .goals
            .iter()
            .enumerate()
            .filter(|(i, g)| g.identity != *i)
            .count();
        assert!((30..=90).contains(&copies), "{copies} copies of 200");
        for (i, g) in s.goals.iter().enumerate() {
            assert!(g.identity <= i);
            assert_eq!(g.label, s.goals[g.identity].label);
        }
    }

    #[test]
    fn joins_are_stratified_by_size_and_kind() {
        let j = joins(1, 3);
        assert_eq!(j.goals.len(), JOIN_ATOMS.count() * 3 * 2);
        let sizes = JOIN_ATOMS.count();
        let proved = j.goals.iter().filter(|g| g.label == Label::Proved).count();
        assert_eq!(proved, sizes * 3);
    }

    #[test]
    fn corpus_goal_lines_parse_to_the_rule_goals() {
        let rules = corpus();
        assert_eq!(rules.len(), 100);
        for r in &rules {
            let fe = udp_sql::prepare_program_in(&r.text, r.dialect).unwrap();
            let parsed = udp_sql::parse_goal_in(&r.goal_line, r.dialect).unwrap();
            assert_eq!(fe.goals, vec![parsed], "{}", r.name);
            assert!(udp_sql::prepare_program_in(&r.ddl, r.dialect)
                .unwrap()
                .goals
                .is_empty());
        }
    }
}
