//! The COUNT bug (Ganski & Wong, SIGMOD 1987) — the Bugs row of Fig 5.
//!
//! Unnesting a correlated COUNT subquery into a grouped join loses the
//! parts with *zero* matching supplies (COUNT should report 0 for them; the
//! join drops them entirely). UDP correctly fails to prove the rewrite, and
//! the bounded model checker (the paper's companion tool [21]) produces a
//! concrete witness database.
//!
//! ```text
//! cargo run --example count_bug
//! ```

fn main() {
    let program = "
        schema parts_s(pnum:int, qoh:int);
        schema supply_s(pnum:int, shipdate:int);
        table parts(parts_s);
        table supply(supply_s);

        verify
        SELECT p.pnum AS pnum FROM parts p
        WHERE p.qoh = (SELECT COUNT(s.shipdate) AS c FROM supply s
                       WHERE s.pnum = p.pnum AND s.shipdate < 10)
        ==
        SELECT p.pnum AS pnum
        FROM parts p,
             (SELECT s.pnum AS pnum, COUNT(s.shipdate) AS ct
              FROM supply s WHERE s.shipdate < 10 GROUP BY s.pnum) t
        WHERE p.qoh = t.ct AND p.pnum = t.pnum;
    ";

    // 1. The prover must NOT prove the buggy rewrite.
    let results = udp::verify(program).expect("well-formed program");
    println!(
        "UDP on the COUNT-bug rewrite: {:?}",
        results[0].verdict().unwrap().decision
    );
    assert!(
        !results[0].verdict().unwrap().decision.is_proved(),
        "soundness violation!"
    );

    // 2. The model checker refutes it with a concrete database: a part with
    //    qoh = 0 and no supplies is returned by the original query (COUNT =
    //    0) but not by the rewrite.
    match udp_eval::check_program(program, 500).unwrap() {
        udp_eval::SearchResult::Refuted(ce) => {
            let parsed = udp_sql::parse_program(program).unwrap();
            let fe = udp_sql::build_frontend(&parsed).unwrap();
            println!("\n{}", ce.render(&fe));
            println!("the rewrite is refuted — matching the Bugs row of Fig 5");
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}
