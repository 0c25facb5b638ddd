//! The seed-11 `stream` verdict census. The benchmark's checker accepts
//! `NotProved(NoProofFound)` for an equivalent rewrite, so a lost proof on
//! the stream would not show there. This test serves the stream's 3,000
//! goals the way `udp-serve FILE --full --jobs 1 --steps 1000` does and
//! compares every verdict line with `fixtures/stream11_census.verdicts`.
//!
//! A change that moves a verdict must edit that file and say why. The
//! file is `udp-serve`'s output on the fixture goals:
//!
//! ```sh
//! udp-serve crates/service/tests/fixtures/stream11_census.ddl --full \
//!     --jobs 1 --steps 1000 < crates/service/tests/fixtures/stream11_census.goals
//! ```

use std::collections::BTreeMap;
use udp_service::{Session, SessionConfig};
use udp_sql::Dialect;

const DDL: &str = include_str!("fixtures/stream11_census.ddl");
const GOALS: &str = include_str!("fixtures/stream11_census.goals");
const VERDICTS: &str = include_str!("fixtures/stream11_census.verdicts");

/// Verdict lines by kind: `Proved`, `NotProved(…)`, `Timeout`, ….
fn census<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, usize> {
    let mut counts = BTreeMap::new();
    for l in lines {
        let verdict = l.split_once(": ").map_or(l, |(_, v)| v);
        let kind = verdict.split(['(', ' ']).next().unwrap_or(verdict);
        *counts.entry(kind).or_insert(0) += 1;
    }
    counts
}

#[test]
fn seed_11_stream_verdicts_match_the_census() {
    // Steps alone bound a goal, so a slow build reaches the same verdicts.
    let config = SessionConfig {
        steps: Some(1000),
        wall: None,
        ..SessionConfig::default()
    }
    .with_dialect(Dialect::Full);
    let session = Session::new(DDL, config).unwrap();
    let goals: Vec<_> = GOALS
        .lines()
        .map(|l| session.parse_goal(l).unwrap())
        .collect();
    let actual: Vec<String> = session
        .verify_batch(&goals)
        .iter()
        .enumerate()
        .map(|(i, r)| format!("goal {}: {}", i + 1, r.render_verdict()))
        .collect();
    let expected: Vec<&str> = VERDICTS.lines().collect();
    assert_eq!(actual.len(), expected.len(), "one verdict per goal");
    let moved: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  {a}   (was: {e})"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} verdicts moved; census {:?}, expected {:?}:\n{}",
        moved.len(),
        expected.len(),
        census(actual.iter().map(String::as_str)),
        census(expected.iter().copied()),
        moved.join("\n")
    );
}
