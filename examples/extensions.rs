//! The Sec 6.4 dialect extensions in action: set-semantics UNION,
//! INTERSECT, VALUES, CASE, and NATURAL JOIN — the features the paper lists
//! as "handled by syntactic rewrites" and leaves as future work.
//!
//! ```text
//! cargo run --example extensions
//! ```

fn main() {
    // Set-semantics UNION is `DISTINCT (… UNION ALL …)`: proving
    // `R ∪ R = DISTINCT R` exercises the squash idempotence ‖x + x‖ = ‖x‖.
    let union_dedup = "
        schema s(k:int, a:int);
        table r(s);
        verify
        SELECT * FROM r x UNION SELECT * FROM r y
        ==
        SELECT DISTINCT * FROM r z;
    ";
    report("UNION dedups", union_dedup);

    // INTERSECT lowers to ‖q1(t) × q2(t)‖; a projection INTERSECT is the
    // same thing as a DISTINCT semijoin.
    let intersect_semijoin = "
        schema s(k:int, a:int);
        table r(s);
        table r2(s);
        verify
        SELECT x.k AS k FROM r x INTERSECT SELECT y.k AS k FROM r2 y
        ==
        SELECT DISTINCT x.k AS k FROM r x
        WHERE EXISTS (SELECT * FROM r2 y WHERE y.k = x.k);
    ";
    report("INTERSECT is a DISTINCT semijoin", intersect_semijoin);

    // A VALUES literal relation is a sum of tuple-equality terms, so row
    // order is irrelevant.
    let values_commute = "
        verify
        SELECT * FROM (VALUES (1, 2), (3, 4)) v
        ==
        SELECT * FROM (VALUES (3, 4), (1, 2)) w;
    ";
    report("VALUES rows commute", values_commute);

    // CASE compared against a constant folds to its live branch: the dead
    // branch's guard is trivially false after constant folding.
    let case_fold = "
        schema s(k:int, a:int);
        table r(s);
        verify
        SELECT * FROM r x WHERE CASE WHEN x.a = 1 THEN 1 ELSE 0 END = 1
        ==
        SELECT * FROM r x WHERE x.a = 1;
    ";
    report("CASE folds to its live branch", case_fold);

    // NATURAL JOIN desugars into explicit equality on the shared column
    // names, with `*` emitting each shared column once.
    let natural_join = "
        schema rs(k:int, a:int);
        schema ss(k:int, b:int);
        table r(rs);
        table r2(ss);
        verify
        SELECT * FROM r x NATURAL JOIN r2 y
        ==
        SELECT x.k AS k, x.a AS a, y.b AS b FROM r x, r2 y WHERE x.k = y.k;
    ";
    report("NATURAL JOIN is an equijoin", natural_join);

    // Soundness check: set UNION is *not* bag UNION ALL. UDP refuses to
    // prove it, and the model checker produces a concrete witness.
    let wrong = "
        schema s(k:int, a:int);
        table r(s);
        verify
        SELECT * FROM r x UNION SELECT * FROM r y
        ==
        SELECT * FROM r x UNION ALL SELECT * FROM r y;
    ";
    assert!(!verify_extended(wrong).decision.is_proved());
    match udp::eval::check_program_in(wrong, udp::sql::Dialect::Extended, 200).unwrap() {
        udp::eval::SearchResult::Refuted(ce) => {
            println!(
                "UNION vs UNION ALL: not proved, refuted at seed {} \
                 ({} vs {} result rows)",
                ce.seed,
                ce.left.rows.len(),
                ce.right.rows.len()
            );
        }
        other => panic!("expected a refutation, got {other:?}"),
    }
}

/// The verdict of the program's first goal under the extended dialect.
fn verify_extended(program: &str) -> udp::Verdict {
    let config = udp::SessionConfig::default().with_dialect(udp::sql::Dialect::Extended);
    let session = udp::Session::new(program, config).expect("well-formed program");
    let report = session.verify_program_goals().swap_remove(0);
    report.outcome.expect("goal lowers")
}

fn report(label: &str, program: &str) {
    let v = &verify_extended(program);
    println!(
        "{label}: {:?} in {:.2} ms ({} steps)",
        v.decision,
        v.stats.wall.as_secs_f64() * 1e3,
        v.stats.steps_used
    );
    assert!(v.decision.is_proved(), "{label} should prove");
}
