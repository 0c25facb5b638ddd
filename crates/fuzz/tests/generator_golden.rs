//! Golden generator output. udpbench's `stream` workload and every fuzz
//! campaign draw their inputs from this crate, so a change to how the
//! generators build ASTs must leave what they draw byte-identical for a
//! given seed. This test renders, for fixed seeds and two profiles (the
//! default one, and the full-dialect one with a foreign key that the stream
//! uses):
//!
//! * the DDL of [`random_frontend`];
//! * a few [`QueryGen::query`] draws;
//! * every [`Rewrite::ALL`] and [`Mutation::ALL`] application to each draw,
//!   all from one random stream, as a stream goal draws them;
//!
//! through [`query_to_sql`] and compares the text with
//! `tests/generator_golden.txt`. A deliberate change to the generators
//! regenerates that file from a scratch print of `render()`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;
use udp_fuzz::{random_frontend, GenProfile, Mutation, QueryGen, Rewrite, SchemaProfile};
use udp_sql::pretty::query_to_sql;

const GOLDEN: &str = include_str!("generator_golden.txt");
const SEEDS: [u64; 3] = [1, 2, 11];
const QUERIES_PER_SEED: usize = 4;

fn one_line(sql: String) -> String {
    sql.replace('\n', " ")
}

fn render() -> String {
    let profiles = [
        ("default", SchemaProfile::default(), GenProfile::default()),
        (
            "full-fk",
            SchemaProfile {
                fk_prob: 1.0,
                ..SchemaProfile::full()
            },
            GenProfile::full(),
        ),
    ];
    let mut out = String::new();
    for (label, schema_profile, gen_profile) in &profiles {
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let (ddl, fe) = random_frontend(&mut rng, schema_profile);
            writeln!(out, "== {label} seed {seed}").unwrap();
            writeln!(out, "ddl: {}", one_line(ddl)).unwrap();
            let qg = QueryGen::new(&fe, gen_profile.clone());
            for i in 0..QUERIES_PER_SEED {
                let q = qg.query(&mut rng);
                writeln!(out, "q{i}: {}", one_line(query_to_sql(&q))).unwrap();
                for r in Rewrite::ALL {
                    let text = r
                        .apply(&q, &fe, &mut rng)
                        .map_or_else(|| "-".to_string(), |q2| one_line(query_to_sql(&q2)));
                    writeln!(out, "  {}: {text}", r.name()).unwrap();
                }
                for m in Mutation::ALL {
                    let text = m
                        .apply(&q, &mut rng)
                        .map_or_else(|| "-".to_string(), |q2| one_line(query_to_sql(&q2)));
                    writeln!(out, "  {}: {text}", m.name()).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn generator_output_is_pinned() {
    let actual = render();
    for (n, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {} of generator_golden.txt", n + 1);
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "line count of generator_golden.txt"
    );
}
