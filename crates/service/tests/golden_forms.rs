//! Golden canonical forms. A goal's two canonical forms key the verdict
//! cache and decide the identity shortcut, so a change to how
//! `udp_core::fingerprint` renders them must leave every form
//! byte-identical. This test pins the 128-bit fingerprints of both sides
//! of:
//!
//! * every goal of every corpus rule;
//! * four heavy goals of the seed-11 `stream` workload (aggregates over
//!   `FULL JOIN … UNION ALL`, nested `DISTINCT`/`FULL JOIN`), kept as
//!   fixtures with the stream's catalog;
//! * goals with a `'§'` string constant, the one text a factor can carry
//!   that looks like the mark of the binder being coloured;
//! * correlated aggregates in a factor that also mentions another binder,
//!   so one aggregate body renders in several colouring contexts.
//!
//! The expected table is `tests/golden_forms.txt`, one line per goal:
//! `<label> <lhs fingerprint> <rhs fingerprint>`, or `<label> <error>` when
//! the goal does not lower.

use udp_service::{Session, SessionConfig};
use udp_sql::Dialect;

const EXPECTED: &str = include_str!("golden_forms.txt");
const STREAM_DDL: &str = include_str!("fixtures/stream_seed11.ddl");
const STREAM_GOALS: &str = include_str!("fixtures/stream_seed11.goals");
/// Line numbers of the fixture goals in the seed-11 stream.
const STREAM_LINES: [usize; 4] = [995, 1208, 1407, 2593];

const MARK_DDL: &str = "schema s(k:int, n:string, a:int);\ntable r(s);\nkey r(k);\n";
/// Two binders, and a factor whose constant renders as `§`; the second
/// goal puts the constant inside an aggregate body and a squash.
const MARK_GOALS: [&str; 2] = [
    "SELECT x.a AS a FROM r x, r y WHERE x.k = y.a AND y.n = '§' \
     == SELECT u.a AS a FROM r v, r u WHERE v.n = '§' AND u.k = v.a",
    "SELECT DISTINCT x.a AS a FROM r x, r y WHERE x.k = y.a AND x.n = 'a§b' \
       AND EXISTS (SELECT * FROM r z WHERE z.n = '§' AND z.k = y.k) \
     == SELECT x.k AS a, COUNT(*) AS c FROM r x, r y WHERE x.k = y.a AND y.n = '§' \
       GROUP BY x.k HAVING COUNT(*) > 1",
];

/// Each aggregate body mentions `x` and sits in a factor with `y`.
const AGG_GOALS: [&str; 2] = [
    "SELECT x.k AS k FROM r x, r y WHERE x.a = y.k \
       AND y.a = (SELECT COUNT(*) FROM r z WHERE z.k = x.k) \
     == SELECT u.k AS k FROM r v, r u WHERE v.a = (SELECT COUNT(*) FROM r w WHERE w.k = u.k) \
       AND u.a = v.k",
    "SELECT x.k AS k, SUM(y.a) AS s FROM r x, r y WHERE x.a = y.k \
       AND y.a > (SELECT MAX(z.a) FROM r z WHERE z.n = x.n) GROUP BY x.k \
     == SELECT x.k AS k, SUM(y.a) AS s FROM r x, r y WHERE y.k = x.a \
       AND (SELECT MAX(z.a) FROM r z WHERE z.n = x.n) < y.a GROUP BY x.k",
];

fn line(
    label: &str,
    session: &Session,
    goal: &(udp_sql::ast::Query, udp_sql::ast::Query),
) -> String {
    match session.fingerprint_goal(goal) {
        Ok((lhs, rhs)) => format!("{label} {lhs} {rhs}"),
        Err(e) => format!("{label} error: {e}"),
    }
}

fn actual_table() -> Vec<String> {
    let mut table = Vec::new();
    for rule in udp_corpus::all_rules() {
        match Session::new(&rule.text, udp_corpus::session_config(&rule)) {
            Ok(session) => {
                for (i, goal) in session.program_goals().iter().enumerate() {
                    table.push(line(&format!("{}#{i}", rule.name), &session, goal));
                }
            }
            Err(e) => table.push(format!("{} error: {e}", rule.name)),
        }
    }
    let full = SessionConfig::default().with_dialect(Dialect::Full);
    let stream = Session::new(STREAM_DDL, full.clone()).unwrap();
    let goals: Vec<&str> = STREAM_GOALS.lines().collect();
    assert_eq!(goals.len(), STREAM_LINES.len());
    for (n, text) in STREAM_LINES.iter().zip(goals) {
        let goal = stream.parse_goal(text).unwrap();
        table.push(line(&format!("stream-seed11#{n}"), &stream, &goal));
    }
    let mark = Session::new(MARK_DDL, full).unwrap();
    for (i, text) in MARK_GOALS.iter().enumerate() {
        let goal = mark.parse_goal(text).unwrap();
        table.push(line(&format!("section-sign#{i}"), &mark, &goal));
    }
    for (i, text) in AGG_GOALS.iter().enumerate() {
        let goal = mark.parse_goal(text).unwrap();
        table.push(line(&format!("correlated-aggregate#{i}"), &mark, &goal));
    }
    table
}

#[test]
fn canonical_forms_match_the_golden_table() {
    let actual = actual_table();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    let changed: Vec<String> = actual
        .iter()
        .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(a, e)| e.map(|e| *e != a.as_str()).unwrap_or(true))
        .map(|(a, e)| format!("  expected {}\n  actual   {a}", e.unwrap_or(&"(none)")))
        .collect();
    assert!(
        changed.is_empty() && actual.len() == expected.len(),
        "{} of {} golden lines changed ({} expected lines):\n{}",
        changed.len(),
        actual.len(),
        expected.len(),
        changed.join("\n")
    );
}

#[test]
fn the_mark_goals_render_a_literal_section_sign() {
    // Guards the fixture itself: the constant must reach the form.
    let mark = Session::new(
        MARK_DDL,
        SessionConfig::default().with_dialect(Dialect::Full),
    )
    .unwrap();
    let mut fe = mark.frontend().clone();
    let goal = mark.parse_goal(MARK_GOALS[0]).unwrap();
    let goal = udp_ext::desugar_goal(&fe, &goal).unwrap();
    let (q1, q2) = udp_sql::lower_goal(&mut fe, &goal).unwrap();
    let (nf1, _) = udp_core::decide::normalize_pair(&q1, &q2);
    let form = udp_core::fingerprint::canonical_form_nf(&fe.catalog, &nf1, q1.out, q1.schema);
    assert!(form.contains("\"§\""), "{form}");
}
