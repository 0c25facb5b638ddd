//! The Sec 5.4 illustration: a Starburst rewrite mixing set and bag
//! semantics, provable only because `itm.itemno` is a key — the first rule
//! the paper reports as formally proved ever.
//!
//! ```text
//! cargo run --example starburst_distinct
//! ```

fn main() {
    let program = "
        schema price_s(itemno:int, np:int);
        schema itm_s(itemno:int, type:string);
        table price(price_s);
        table itm(itm_s);
        key itm(itemno);

        verify
        SELECT ip.np AS np, i2.type AS type, i2.itemno AS itemno
        FROM (SELECT DISTINCT itp.itemno AS itn, itp.np AS np
              FROM price itp WHERE itp.np > 1000) ip, itm i2
        WHERE ip.itn = i2.itemno
        ==
        SELECT DISTINCT p.np AS np, i2.type AS type, i2.itemno AS itemno
        FROM price p, itm i2
        WHERE p.np > 1000 AND p.itemno = i2.itemno;
    ";

    let results = udp::verify(program).expect("well-formed program");
    println!(
        "Starburst mixed set/bag rewrite: {:?}",
        results[0].verdict().unwrap().decision
    );
    assert!(results[0].verdict().unwrap().decision.is_proved());

    // Drop the key and the rewrite is no longer valid: the left query can
    // return duplicate (np, type, itemno) rows when two itm rows share an
    // itemno, while the right side dedupes. UDP refuses, and the model
    // checker produces a witness database. (The filter threshold is lowered
    // into the generator's tiny active domain so the hunt is not vacuous.)
    let no_key = "
        schema price_s(itemno:int, np:int);
        schema itm_s(itemno:int, type:string);
        table price(price_s);
        table itm(itm_s);

        verify
        SELECT ip.np AS np, i2.type AS type, i2.itemno AS itemno
        FROM (SELECT DISTINCT itp.itemno AS itn, itp.np AS np
              FROM price itp WHERE itp.np > 1) ip, itm i2
        WHERE ip.itn = i2.itemno
        ==
        SELECT DISTINCT p.np AS np, i2.type AS type, i2.itemno AS itemno
        FROM price p, itm i2
        WHERE p.np > 1 AND p.itemno = i2.itemno;
    ";
    let results = udp::verify(no_key).expect("well-formed program");
    println!(
        "without the key: {:?}",
        results[0].verdict().unwrap().decision
    );
    assert!(!results[0].verdict().unwrap().decision.is_proved());

    match udp_eval::check_program(no_key, 500).unwrap() {
        udp_eval::SearchResult::Refuted(ce) => {
            let parsed = udp_sql::parse_program(no_key).unwrap();
            let fe = udp_sql::build_frontend(&parsed).unwrap();
            println!("\nmodel checker witness:\n{}", ce.render(&fe));
        }
        other => panic!("expected a witness, got {other:?}"),
    }
}
