//! Bounded counterexample search — the "model checker" companion of UDP
//! (the authors' prior work \[21\], used on the Bugs dataset in Sec 6.2).
//!
//! UDP only proves equivalence; when it fails, this module hunts for a
//! witness database on which the two queries disagree (as bags). Finding one
//! refutes the rewrite — this is how the COUNT bug \[32\] is exposed.

use crate::db::Database;
use crate::eval::{eval_query, EvalError};
use crate::gen::{random_database, seeded_rng, GenConfig};
use udp_obs::{Recorder, Stage};
use udp_sql::ast::Query;
use udp_sql::Frontend;

/// A refutation witness.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The distinguishing database instance.
    pub db: Database,
    /// The generator seed that produced it (for reproduction).
    pub seed: u64,
    /// The first query's result on `db`.
    pub left: crate::db::ResultBag,
    /// The second query's result on `db`.
    pub right: crate::db::ResultBag,
}

impl CounterExample {
    /// Render the witness database and both results for a report.
    pub fn render(&self, fe: &Frontend) -> String {
        format!(
            "counterexample (seed {}):\n{}\nleft  ⇒ {:?}\nright ⇒ {:?}",
            self.seed,
            self.db.render(&fe.catalog),
            self.left.rows,
            self.right.rows,
        )
    }
}

/// Search outcome.
#[derive(Debug, Clone)]
pub enum SearchResult {
    /// A distinguishing database was found.
    Refuted(Box<CounterExample>),
    /// No disagreement within the budget (consistent with equivalence).
    NoCounterexample {
        /// Databases actually evaluated (evaluator errors are skipped).
        trials: usize,
    },
    /// The evaluator could not run the queries (e.g. a scalar subquery with
    /// non-singleton cardinality on every candidate database).
    Inconclusive(EvalError),
}

/// Evaluate both queries on one concrete database. `Ok(Some((l, r)))` means
/// the results disagree as bags (both returned in canonical order);
/// `Ok(None)` means they agree on this instance. This is the single-database
/// reuse hook for harnesses that manage their own database streams.
pub fn differs_on(
    fe: &Frontend,
    db: &Database,
    q1: &Query,
    q2: &Query,
) -> Result<Option<(crate::db::ResultBag, crate::db::ResultBag)>, EvalError> {
    let r1 = eval_query(fe, db, q1)?;
    let r2 = eval_query(fe, db, q2)?;
    if r1.same_bag(&r2) {
        Ok(None)
    } else {
        Ok(Some((r1.canonical(), r2.canonical())))
    }
}

/// Evaluate both queries on `trials` random constraint-satisfying databases.
pub fn find_counterexample(
    fe: &Frontend,
    q1: &Query,
    q2: &Query,
    trials: usize,
    config: &GenConfig,
) -> SearchResult {
    find_counterexample_seeded(fe, q1, q2, 0..trials as u64, config)
}

/// [`find_counterexample`] with the stage probe threaded through: the
/// search records [`Stage::Counterexample`] here, *inside* the crate that
/// owns the work, so every driver — `udp-verify`, fuzz harnesses, tests —
/// gets identical attribution instead of each wrapping the call themselves
/// (the single-writer rule of `udp_obs`).
pub fn find_counterexample_with(
    fe: &Frontend,
    q1: &Query,
    q2: &Query,
    trials: usize,
    config: &GenConfig,
    recorder: &Recorder,
) -> SearchResult {
    recorder.time(Stage::Counterexample, || {
        find_counterexample_seeded(fe, q1, q2, 0..trials as u64, config)
    })
}

/// [`find_counterexample`] over an explicit stream of generator seeds, so
/// callers (e.g. the `udp-fuzz` harness) can vary the databases per case
/// instead of replaying seeds `0..trials` every time.
pub fn find_counterexample_seeded(
    fe: &Frontend,
    q1: &Query,
    q2: &Query,
    seeds: impl IntoIterator<Item = u64>,
    config: &GenConfig,
) -> SearchResult {
    let mut last_err: Option<EvalError> = None;
    let mut ran = 0usize;
    for seed in seeds {
        let mut rng = seeded_rng(seed);
        let db = random_database(&fe.catalog, &fe.constraints, config, &mut rng);
        match differs_on(fe, &db, q1, q2) {
            Ok(None) => ran += 1,
            Ok(Some((left, right))) => {
                return SearchResult::Refuted(Box::new(CounterExample {
                    db,
                    seed,
                    left,
                    right,
                }));
            }
            Err(e) => last_err = Some(e),
        }
    }
    if ran == 0 {
        if let Some(e) = last_err {
            return SearchResult::Inconclusive(e);
        }
    }
    SearchResult::NoCounterexample { trials: ran }
}

/// Convenience: run the first `verify` goal of a program text (paper
/// dialect).
pub fn check_program(text: &str, trials: usize) -> Result<SearchResult, String> {
    check_program_in(text, udp_sql::Dialect::Paper, trials)
}

/// [`check_program`] with an explicit parser [`udp_sql::Dialect`].
pub fn check_program_in(
    text: &str,
    dialect: udp_sql::Dialect,
    trials: usize,
) -> Result<SearchResult, String> {
    check_program_in_with(text, dialect, trials, &Recorder::disabled())
}

/// [`check_program_in`] recording the search on `recorder`. Parsing and
/// frontend construction are deliberately outside the probe — only the
/// database-generation/evaluation loop is counterexample-search time.
pub fn check_program_in_with(
    text: &str,
    dialect: udp_sql::Dialect,
    trials: usize,
    recorder: &Recorder,
) -> Result<SearchResult, String> {
    let program = udp_sql::parse_program_with(text, dialect).map_err(|e| e.to_string())?;
    let fe = udp_sql::build_frontend(&program).map_err(|e| e.to_string())?;
    let (q1, q2) = fe.goals.first().cloned().ok_or("no verify goal")?;
    Ok(find_counterexample_with(
        &fe,
        &q1,
        &q2,
        trials,
        &GenConfig::default(),
        recorder,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_queries_have_no_counterexample() {
        let text = "schema rs(k:int, a:int);\ntable r(rs);\n\
                    verify SELECT * FROM r x WHERE x.a = 1 == SELECT * FROM r y WHERE y.a = 1;";
        match check_program(text, 30).unwrap() {
            SearchResult::NoCounterexample { trials } => assert!(trials > 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bag_inequivalent_queries_are_refuted() {
        // R vs R UNION ALL R differ whenever R is non-empty.
        let text = "schema rs(k:int, a:int);\ntable r(rs);\n\
                    verify SELECT * FROM r x == \
                    SELECT * FROM r x UNION ALL SELECT * FROM r y;";
        match check_program(text, 30).unwrap() {
            SearchResult::Refuted(ce) => {
                assert!(ce.left.rows.len() < ce.right.rows.len());
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn set_vs_bag_distinction_is_refuted() {
        let text = "schema rs(k:int, a:int);\ntable r(rs);\n\
                    verify SELECT x.a AS a FROM r x == SELECT DISTINCT x.a AS a FROM r x;";
        match check_program(text, 50).unwrap() {
            SearchResult::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    /// The COUNT bug [32]: the grouped rewrite loses parts with zero
    /// matching supplies. The model checker finds a witness, reproducing the
    /// Bugs row of Fig 5.
    #[test]
    fn count_bug_is_refuted() {
        let text = "schema parts_s(pnum:int, qoh:int);\nschema supply_s(pnum:int, shipdate:int);\n\
             table parts(parts_s);\ntable supply(supply_s);\n\
             verify\n\
             SELECT p.pnum AS pnum FROM parts p \
             WHERE p.qoh = (SELECT COUNT(s.shipdate) AS c FROM supply s WHERE s.pnum = p.pnum AND s.shipdate < 10)\n\
             ==\n\
             SELECT p.pnum AS pnum FROM parts p, \
             (SELECT s.pnum AS pnum, COUNT(s.shipdate) AS ct FROM supply s WHERE s.shipdate < 10 GROUP BY s.pnum) t \
             WHERE p.qoh = t.ct AND p.pnum = t.pnum;";
        match check_program(text, 200).unwrap() {
            SearchResult::Refuted(_) => {}
            other => panic!("expected the COUNT bug to be refuted, got {other:?}"),
        }
    }
}
