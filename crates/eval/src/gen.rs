//! Random database generation honoring integrity constraints.
//!
//! Small active domains and table sizes (the "small scope hypothesis" the
//! authors' model checker \[21\] relies on): counterexamples to buggy rewrites
//! almost always exist within a handful of rows.

use crate::db::{Database, Row, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use udp_core::constraints::{Constraint, ConstraintSet};
use udp_core::expr::Value;
use udp_core::schema::{Catalog, RelId, Ty};

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum rows per table (inclusive); tables may be empty.
    pub max_rows: usize,
    /// Active domain size for integers (values `0..domain`).
    pub domain: i64,
    /// Probability that a *nullable* attribute draws NULL (non-nullable
    /// attributes never do). The default keeps databases NULL-dense enough
    /// that 3VL corner cases show up within a handful of rows.
    pub null_prob: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_rows: 4,
            domain: 4,
            null_prob: 0.3,
        }
    }
}

/// Generate a random database satisfying `cs` over `catalog`'s relations.
pub fn random_database(
    catalog: &Catalog,
    cs: &ConstraintSet,
    config: &GenConfig,
    rng: &mut StdRng,
) -> Database {
    let mut db = Database::new();
    // Generate in FK dependency order: parents before children. With a
    // bounded number of passes this handles chains; cycles fall back to
    // whatever parents exist (possibly forcing empty children).
    let order = topo_order(catalog, cs);
    for rel in order {
        let schema = catalog.relation_schema(rel).clone();
        let n = rng.random_range(0..=config.max_rows);
        let mut rows: Vec<Row> = Vec::with_capacity(n);
        'row: for _ in 0..n {
            let mut row: Row = schema
                .attrs
                .iter()
                .enumerate()
                .map(|(i, (_, ty))| {
                    let nullable = schema.nullable.get(i).copied().unwrap_or(false);
                    if nullable && rng.random_bool(config.null_prob) {
                        Value::Null
                    } else {
                        random_value(*ty, config, rng)
                    }
                })
                .collect();
            // Foreign keys: copy key values from a random parent row.
            for (child_attrs, parent, parent_attrs) in cs.fks_from(rel) {
                let parent_rows = &db.table(parent).rows;
                if parent_rows.is_empty() {
                    continue 'row; // no parent ⇒ cannot emit this child row
                }
                let parent_schema = catalog.relation_schema(parent);
                let pick = parent_rows[rng.random_range(0..parent_rows.len())].clone();
                for (ca, pa) in child_attrs.iter().zip(parent_attrs.iter()) {
                    let ci = schema.attr_index(ca);
                    let pi = parent_schema.attr_index(pa);
                    if let (Some(ci), Some(pi)) = (ci, pi) {
                        row[ci] = pick[pi].clone();
                    }
                }
            }
            rows.push(row);
        }
        // Keys: drop rows duplicating an earlier row's key.
        for c in cs.iter() {
            if let Constraint::Key { rel: r, attrs } = c {
                if *r != rel {
                    continue;
                }
                let idxs: Vec<usize> = attrs.iter().filter_map(|a| schema.attr_index(a)).collect();
                if idxs.len() != attrs.len() {
                    continue;
                }
                let mut seen: Vec<Vec<Value>> = Vec::new();
                rows.retain(|row| {
                    let key: Vec<Value> = idxs.iter().map(|&i| row[i].clone()).collect();
                    if seen.contains(&key) {
                        false
                    } else {
                        seen.push(key);
                        true
                    }
                });
            }
        }
        db.insert(rel, Table::new(rows));
    }
    db
}

fn random_value(ty: Ty, config: &GenConfig, rng: &mut StdRng) -> Value {
    match ty {
        Ty::Int | Ty::Unknown => Value::Int(rng.random_range(0..config.domain)),
        Ty::Bool => Value::Bool(rng.random_bool(0.5)),
        Ty::Str => {
            let n: u8 = rng.random_range(0..4);
            Value::Str(format!("s{n}"))
        }
    }
}

/// Relations ordered parents-first along foreign keys (best effort; cycles
/// keep declaration order).
fn topo_order(catalog: &Catalog, cs: &ConstraintSet) -> Vec<RelId> {
    let rels: Vec<RelId> = catalog.relations().map(|(id, _)| id).collect();
    let mut ordered: Vec<RelId> = Vec::with_capacity(rels.len());
    let mut remaining: Vec<RelId> = rels.clone();
    for _ in 0..rels.len() + 1 {
        let mut progressed = false;
        remaining.retain(|&rel| {
            let parents_done = cs
                .fks_from(rel)
                .all(|(_, parent, _)| parent == rel || ordered.contains(&parent));
            if parents_done {
                ordered.push(rel);
                progressed = true;
                false
            } else {
                true
            }
        });
        if !progressed {
            break;
        }
    }
    ordered.extend(remaining); // FK cycles: append as-is
    ordered
}

/// Deterministic RNG from a seed (reproducible counterexamples).
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_sql::{build_frontend, parse_program};

    fn setup() -> (udp_sql::Frontend, GenConfig) {
        let p = parse_program(
            "schema ps(id:int, w:int);\nschema cs(id:int, fk:int);\n\
             table parent(ps);\ntable child(cs);\n\
             key parent(id);\nkey child(id);\n\
             foreign key child(fk) references parent(id);",
        )
        .unwrap();
        (build_frontend(&p).unwrap(), GenConfig::default())
    }

    #[test]
    fn keys_are_unique() {
        let (fe, config) = setup();
        let parent = fe.catalog.relation_id("parent").unwrap();
        for seed in 0..50 {
            let mut rng = seeded_rng(seed);
            let db = random_database(&fe.catalog, &fe.constraints, &config, &mut rng);
            let rows = &db.table(parent).rows;
            let mut keys: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
            keys.sort();
            let before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), before, "duplicate parent key (seed {seed})");
        }
    }

    #[test]
    fn foreign_keys_reference_parents() {
        let (fe, config) = setup();
        let parent = fe.catalog.relation_id("parent").unwrap();
        let child = fe.catalog.relation_id("child").unwrap();
        for seed in 0..50 {
            let mut rng = seeded_rng(seed);
            let db = random_database(&fe.catalog, &fe.constraints, &config, &mut rng);
            let parent_keys: Vec<&Value> = db.table(parent).rows.iter().map(|r| &r[0]).collect();
            for row in &db.table(child).rows {
                assert!(
                    parent_keys.contains(&&row[1]),
                    "dangling FK {:?} (seed {seed})",
                    row[1]
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (fe, config) = setup();
        let mut r1 = seeded_rng(7);
        let mut r2 = seeded_rng(7);
        let d1 = random_database(&fe.catalog, &fe.constraints, &config, &mut r1);
        let d2 = random_database(&fe.catalog, &fe.constraints, &config, &mut r2);
        assert_eq!(d1, d2);
    }
}
