//! Why-provenance through the U-semiring semantics.
//!
//! The paper's Def 4.6 quantifies over *all* U-semirings: a proved rewrite
//! is equal in every model, not just the bag semantics ℕ. This example
//! exploits that by evaluating queries under the Boolean provenance algebra
//! `B(X)` (`udp_core::semiring::BoolProv`): tag each base tuple with its own
//! variable, and each output row's annotation records which input tuples it
//! depends on — the lineage reading of K-relations (Green et al.).
//!
//! We prove Ex 5.2 (the redundant self-join under DISTINCT), then show the
//! two sides assign the *same provenance* to every output row, so the
//! rewrite is safe for provenance-tracking engines too.
//!
//! ```text
//! cargo run --example provenance
//! ```

use std::collections::BTreeMap;
use udp_core::expr::VarGen;
use udp_core::interp::{DomainSpec, Interp, Val};
use udp_core::semiring::{BoolProv, USemiring};
use udp_sql::{build_frontend, lower_query, parse_program};

fn main() {
    let program = "
        schema s(k:int, a:int);
        table r(s);
        verify
        SELECT DISTINCT x.a AS a FROM r x, r y WHERE x.a = y.a
        ==
        SELECT DISTINCT x.a AS a FROM r x;
    ";

    // 1. UDP proves the rewrite (Ex 5.2 of the paper).
    let results = udp::verify(program).expect("well-formed program");
    assert!(results[0].verdict().unwrap().decision.is_proved());
    println!(
        "Ex 5.2 proved in {:.2} ms",
        results[0].verdict().unwrap().stats.wall.as_secs_f64() * 1e3
    );

    // 2. Lower both sides to U-expressions over a shared catalog.
    let parsed = parse_program(program).unwrap();
    let mut fe = build_frontend(&parsed).unwrap();
    let goals = fe.goals.clone();
    let mut gen = VarGen::new();
    let q1 = lower_query(&mut fe, &mut gen, &goals[0].0).unwrap();
    let q2 = lower_query(&mut fe, &mut gen, &goals[0].1).unwrap();

    // 3. Build a provenance-annotated instance: three tuples of r, each
    //    tagged with its own variable x0, x1, x2.
    let spec = DomainSpec {
        ints: vec![0, 1],
        strs: vec![],
    };
    let mut interp: Interp<BoolProv> = Interp::new(&fe.catalog, &spec);
    let r = fe.catalog.relation_id("r").unwrap();
    let tagged = [
        (tuple(&[("k", 0), ("a", 0)]), BoolProv::var(0)),
        (tuple(&[("k", 1), ("a", 0)]), BoolProv::var(1)),
        (tuple(&[("k", 1), ("a", 1)]), BoolProv::var(2)),
    ];
    interp.set_relation(r, tagged.to_vec());

    // 4. Evaluate both queries on every candidate output row and compare
    //    annotations.
    let out_domain = interp.domains[&q1.schema].clone();
    println!("\noutput row  lineage(q1) == lineage(q2)");
    for t in out_domain {
        let env1 = BTreeMap::from([(q1.out, t.clone())]);
        let env2 = BTreeMap::from([(q2.out, t.clone())]);
        let p1 = interp.eval_uexpr(&q1.body, &env1);
        let p2 = interp.eval_uexpr(&q2.body, &env2);
        assert_eq!(p1, p2, "proved rewrites preserve provenance on {t:?}");
        println!("  {:?}  {}", t, describe(p1));
    }

    // 5. Read the lineage: the a = 0 row survives deleting either of the
    //    two a = 0 source tuples, but not both; the a = 1 row depends on
    //    exactly the third tuple.
    let env = BTreeMap::from([(q2.out, tuple(&[("a", 0)]))]);
    let lin = interp.eval_uexpr(&q2.body, &env);
    assert_eq!(lin, BoolProv::var(0).add(&BoolProv::var(1)));
    assert!(lin.eval_at(0b001), "x0 alone suffices");
    assert!(lin.eval_at(0b010), "x1 alone suffices");
    assert!(!lin.eval_at(0b100), "x2 alone does not");
    println!("\nlineage of the a=0 row: x0 ∨ x1 (either witness suffices)");
}

fn tuple(fields: &[(&str, i64)]) -> Val {
    Val::Tuple(
        fields
            .iter()
            .map(|(n, v)| (n.to_string(), Val::Int(*v)))
            .collect(),
    )
}

/// Render a provenance annotation over the three tagged variables as the
/// minimal sets of source tuples that support the row.
fn describe(p: BoolProv) -> String {
    if p == BoolProv::zero() {
        return "∅ (row absent)".into();
    }
    let mut supports = Vec::new();
    for present in 0u32..8 {
        if p.eval_at(present) {
            // keep only minimal supports
            if !supports.iter().any(|s| present & s == *s) {
                supports.push(present);
            }
        }
    }
    let render = |mask: u32| {
        let vars: Vec<String> = (0..3)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| format!("x{i}"))
            .collect();
        if vars.is_empty() {
            "⊤".to_string()
        } else {
            vars.join("∧")
        }
    };
    supports
        .iter()
        .map(|s| render(*s))
        .collect::<Vec<_>>()
        .join(" ∨ ")
}
