//! Quickstart: declare a schema, state a rewrite, and prove it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

fn main() {
    // Filter merge: two stacked filters equal their conjunction. This is
    // Calcite's FilterMergeRule, stated over an arbitrary table `r`.
    let program = "
        schema s(k:int, a:int, b:int);
        table r(s);

        verify
        SELECT * FROM (SELECT * FROM r x WHERE x.a > 1) y WHERE y.b > 2
        ==
        SELECT * FROM r x WHERE x.a > 1 AND x.b > 2;
    ";

    let results = udp::verify(program).expect("well-formed program");
    for (i, goal) in results.iter().enumerate() {
        let verdict = goal.verdict().expect("goal lowers");
        println!(
            "goal {}: {:?} in {:.2} ms ({} proof-search steps)",
            i + 1,
            verdict.decision,
            verdict.stats.wall.as_secs_f64() * 1e3,
            verdict.stats.steps_used
        );
    }
    assert!(results[0].verdict().unwrap().decision.is_proved());

    // Equivalences that require a key fail without it…
    let no_key = "
        schema s(k:int, a:int, b:int);
        table r(s);
        verify
        SELECT DISTINCT * FROM r x == SELECT * FROM r x;
    ";
    let results = udp::verify(no_key).expect("well-formed program");
    println!("without key: {:?}", results[0].verdict().unwrap().decision);
    assert!(!results[0].verdict().unwrap().decision.is_proved());

    // …and prove once the key is declared (rows become duplicate-free).
    let with_key = "
        schema s(k:int, a:int, b:int);
        table r(s);
        key r(k);
        verify
        SELECT DISTINCT * FROM r x == SELECT * FROM r x;
    ";
    let results = udp::verify(with_key).expect("well-formed program");
    println!("with key:    {:?}", results[0].verdict().unwrap().decision);
    assert!(results[0].verdict().unwrap().decision.is_proved());
}
