//! The paper's running example (Fig 1 / Ex 4.7): proving that an
//! index-lookup plan computes the same result as a table scan, given a key.
//!
//! The GMAP treatment (Sec 4.1) models the index as a view projecting the
//! indexed attribute and the key; the plan using the index selects from the
//! view and joins back on the key. With `--trace` semantics: the proof
//! script shows Eq. (15) summation elimination, the Def 4.1 key merge, and
//! the Theorem 4.3 squash introduction.
//!
//! ```text
//! cargo run --example index_rewrite
//! ```

fn main() {
    let program = "
        schema rs(k:int, a:int);
        table r(rs);
        key r(k);
        index i on r(a);

        verify
        SELECT * FROM r t WHERE t.a >= 12
        ==
        SELECT t2.* FROM i t1, r t2 WHERE t1.k = t2.k AND t1.a >= 12;
    ";

    let config = udp::SessionConfig {
        record_trace: true,
        ..Default::default()
    };
    let mut session = udp::Session::new(program, config).expect("well-formed program");
    // Lowering the goal onto the session's frontend first puts its anonymous
    // subquery schemas into the catalog the trace replays over.
    session.lower_program_goals();
    let goal = session.verify_program_goals().swap_remove(0);
    let verdict = goal.verdict().expect("goal lowers");
    println!("Fig 1 index rewrite: {:?}", verdict.decision);
    assert!(verdict.decision.is_proved());

    println!("\nproof trace ({} steps):", verdict.trace.len());
    println!("{}", verdict.trace.render());

    // Replay the trace through the independent checker (the substitute for
    // the paper's Lean kernel — see DESIGN.md §4).
    let fe = session.frontend();
    let report = udp_core::proof::check_trace(&fe.catalog, &fe.constraints, &verdict.trace, 8);
    assert!(report.ok(), "trace check failures: {:?}", report.failures);
    println!(
        "trace revalidated: {} steps × {} random constraint-satisfying models",
        report.steps_checked, report.models_per_step
    );

    // Without the key, the rewrite is not valid (an index row can match two
    // base rows) — UDP must refuse.
    let no_key = "
        schema rs(k:int, a:int);
        table r(rs);
        view i as SELECT x.a AS a, x.k AS k FROM r x;
        verify
        SELECT * FROM r t WHERE t.a >= 12
        ==
        SELECT t2.* FROM i t1, r t2 WHERE t1.k = t2.k AND t1.a >= 12;
    ";
    let results = udp::verify(no_key).expect("well-formed program");
    println!(
        "\nwithout the key: {:?}",
        results[0].verdict().unwrap().decision
    );
    assert!(!results[0].verdict().unwrap().decision.is_proved());
}
