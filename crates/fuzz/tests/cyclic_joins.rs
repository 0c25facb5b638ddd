//! Seeded cyclic self-joins of 3–10 atoms in the style of the paper's
//! timed-out Calcite pair: rotations must be `Proved`, and attribute-swap
//! and split-cycle mismatches must be `NotProved` and refuted by the
//! bag-semantics oracle — all within a small step budget, which only
//! colour refinement of the isomorphism search makes possible.
//!
//! These shapes are kept out of `Rewrite::ALL` / `Mutation::ALL`, whose
//! draws feed other seeded campaigns.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use udp_core::Decision;
use udp_service::{Session, SessionConfig};
use udp_sql::Frontend;

const DDL: &str = "schema emp_s(empno:int, deptno:int, sal:int);\ntable emp(emp_s);";
const ATTRS: [&str; 3] = ["empno", "deptno", "sal"];
const STEPS: u64 = 5_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Rotation,
    AttributeSwap,
    SplitCycle,
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Cycle edges over `atoms` in order, all on `attr`.
fn cycle<'a>(atoms: &[usize], attr: &'a str) -> Vec<(usize, usize, &'a str)> {
    (0..atoms.len())
        .map(|i| (atoms[i], atoms[(i + 1) % atoms.len()], attr))
        .collect()
}

/// `SELECT {out}.sal FROM emp … WHERE …` with alias `{prefix}{names[p]}` at
/// FROM position `p`.
fn self_join(prefix: &str, names: &[usize], edges: &[(usize, usize, &str)], out: usize) -> String {
    let alias = |p: usize| format!("{prefix}{}", names[p]);
    let from: Vec<String> = (0..names.len())
        .map(|p| format!("emp {}", alias(p)))
        .collect();
    let conds: Vec<String> = edges
        .iter()
        .map(|(p, q, a)| format!("{}.{a} = {}.{a}", alias(*p), alias(*q)))
        .collect();
    format!(
        "SELECT {}.sal AS v FROM {} WHERE {}",
        alias(out),
        from.join(", "),
        conds.join(" AND ")
    )
}

/// A `k`-cycle over `attr` against a shuffled, renamed rotation of it, or
/// against a mismatch of the given shape.
fn pair(k: usize, attr: &str, shape: Shape, rng: &mut StdRng) -> (String, String) {
    let ordered: Vec<usize> = (1..=k).collect();
    let lhs = self_join("a", &ordered, &cycle(&(0..k).collect::<Vec<_>>(), attr), 0);
    let offset = rng.random_range(1..k);
    let perm: Vec<usize> = (0..k).map(|i| (i + offset) % k).collect();
    let mut names = ordered;
    shuffle(&mut names, rng);
    let mut edges = match shape {
        Shape::Rotation => cycle(&perm, attr),
        Shape::AttributeSwap => {
            let others: Vec<&str> = ATTRS.into_iter().filter(|a| *a != attr).collect();
            cycle(&perm, others[rng.random_range(0..others.len())])
        }
        Shape::SplitCycle => {
            let cut = rng.random_range(2..=k - 2);
            let mut e = cycle(&perm[..cut], attr);
            e.extend(cycle(&perm[cut..], attr));
            e
        }
    };
    for e in edges.iter_mut() {
        if rng.random_bool(0.5) {
            *e = (e.1, e.0, e.2);
        }
    }
    shuffle(&mut edges, rng);
    (lhs, self_join("b", &names, &edges, perm[0]))
}

fn decide(fe: &Frontend, q1: &str, q2: &str) -> Decision {
    let config = SessionConfig {
        cache_capacity: 0,
        steps: Some(STEPS),
        wall: None,
        ..SessionConfig::default()
    };
    let goal = (
        udp_sql::parse_query(q1).unwrap(),
        udp_sql::parse_query(q2).unwrap(),
    );
    let report = Session::from_frontend(fe.clone(), config).verify_batch(&[goal]);
    report[0].verdict().expect("goal lowers").decision.clone()
}

fn oracle_refutes(fe: &Frontend, q1: &str, q2: &str) -> bool {
    // Small tables keep a 10-way join cheap to evaluate; a two-valued
    // domain makes equal and unequal attributes both likely.
    let config = udp_eval::GenConfig {
        max_rows: 3,
        domain: 2,
        ..udp_eval::GenConfig::default()
    };
    matches!(
        udp_eval::find_counterexample(
            fe,
            &udp_sql::parse_query(q1).unwrap(),
            &udp_sql::parse_query(q2).unwrap(),
            40,
            &config,
        ),
        udp_eval::SearchResult::Refuted(_)
    )
}

#[test]
fn cyclic_self_joins_decide_within_a_small_budget() {
    let fe = udp_sql::prepare_program(DDL).unwrap();
    let mut rng = StdRng::seed_from_u64(0x0c39);
    for k in 3..=10 {
        for (round, attr) in ATTRS.into_iter().enumerate() {
            let mut shapes = vec![Shape::Rotation, Shape::AttributeSwap];
            if k >= 4 {
                shapes.push(Shape::SplitCycle);
            }
            for shape in shapes {
                let (q1, q2) = pair(k, attr, shape, &mut rng);
                let got = decide(&fe, &q1, &q2);
                let ok = match shape {
                    Shape::Rotation => got == Decision::Proved,
                    _ => matches!(got, Decision::NotProved(_)),
                };
                assert!(ok, "{shape:?} k={k} round={round}: {got:?}\n  {q1}\n  {q2}");
                // Every mismatch is a real inequivalence.
                if shape != Shape::Rotation {
                    assert!(
                        oracle_refutes(&fe, &q1, &q2),
                        "{shape:?} k={k}: oracle finds no counterexample:\n  {q1}\n  {q2}"
                    );
                }
            }
        }
    }
}
