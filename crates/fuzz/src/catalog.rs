//! Random schema generation: small catalogs of integer-typed tables with
//! optional keys and foreign keys, emitted as DDL *text* (via the pretty
//! printer) so every fuzz case also exercises the `schema`/`table`/`key`/
//! `foreign key` round trip through the parser.
//!
//! The shapes follow the same small-scope philosophy as
//! [`udp_eval::gen::random_database`]: a handful of tables with a handful of
//! attributes is enough scope for counterexamples to buggy rewrites.

use rand::rngs::StdRng;
use rand::RngExt;
use udp_core::name::Name;
use udp_sql::ast::{Program, Statement};
use udp_sql::pretty::program_to_sql;
use udp_sql::{build_frontend, Frontend};

/// Attribute-name pool beyond the leading key column `k`.
const ATTRS: [&str; 4] = ["a", "b", "c", "d"];

/// Shape parameters for random catalogs.
#[derive(Debug, Clone)]
pub struct SchemaProfile {
    /// Maximum number of schemas (at least 1 is always generated).
    pub max_schemas: usize,
    /// Maximum number of tables (at least 1 is always generated).
    pub max_tables: usize,
    /// Maximum attributes per schema beyond the leading `k` column.
    pub max_extra_attrs: usize,
    /// Probability a table declares `key t(k)`.
    pub key_prob: f64,
    /// Probability of one foreign-key edge between two distinct tables
    /// (requires a keyed parent).
    pub fk_prob: f64,
    /// Probability a non-key attribute is declared nullable (`a:int?`,
    /// full-dialect profile; `0.0` keeps the paper fragment). The leading
    /// key column `k` stays non-nullable so keys and FKs remain honest.
    pub nullable_prob: f64,
}

impl Default for SchemaProfile {
    fn default() -> Self {
        SchemaProfile {
            max_schemas: 2,
            max_tables: 3,
            max_extra_attrs: 3,
            key_prob: 0.4,
            fk_prob: 0.25,
            nullable_prob: 0.0,
        }
    }
}

impl SchemaProfile {
    /// The full-dialect profile: some non-key columns are nullable, so
    /// random databases carry NULLs and the 3VL machinery is exercised.
    pub fn full() -> Self {
        SchemaProfile {
            nullable_prob: 0.45,
            ..SchemaProfile::default()
        }
    }
}

/// Generate a random DDL [`Program`] (schemas, tables, keys, at most one
/// foreign key). All attributes are `int`: the decision procedure treats
/// attribute types loosely, and a uniform type keeps every generated
/// comparison well-typed for the concrete evaluator.
pub fn random_ddl(rng: &mut StdRng, profile: &SchemaProfile) -> Program {
    let n_schemas = rng.random_range(1..=profile.max_schemas.max(1));
    let mut statements = Vec::new();
    let mut schema_names = Vec::new();
    for i in 0..n_schemas {
        // `0..=` on purpose: k-only schemas are legal and must be covered
        // (they also make the FK-attribute validation in `random_frontend`
        // reachable when the child attribute draw picks `a`).
        let n_extra = rng.random_range(0..=profile.max_extra_attrs);
        let mut attrs = vec![(Name::from("k"), Name::from("int"))];
        for attr in ATTRS.iter().take(n_extra) {
            let ty = if rng.random_bool(profile.nullable_prob) {
                "int?"
            } else {
                "int"
            };
            attrs.push((Name::from(*attr), Name::from(ty)));
        }
        let name = Name::from(format!("s{i}"));
        statements.push(Statement::Schema {
            name: name.clone(),
            attrs,
            open: false,
        });
        schema_names.push(name);
    }

    let n_tables = rng.random_range(1..=profile.max_tables.max(1));
    let mut keyed = Vec::new();
    for i in 0..n_tables {
        let schema = schema_names[rng.random_range(0..schema_names.len())].clone();
        let name = Name::from(format!("t{i}"));
        statements.push(Statement::Table {
            name: name.clone(),
            schema,
        });
        if rng.random_bool(profile.key_prob) {
            statements.push(Statement::Key {
                table: name.clone(),
                attrs: vec!["k".into()],
            });
            keyed.push(name);
        }
    }

    // At most one FK edge: child.<attr> references parent.k. The child
    // attribute may be `k` itself (a 1:1 edge) — both shapes are legal and
    // the database generator honors either.
    if n_tables >= 2 && !keyed.is_empty() && rng.random_bool(profile.fk_prob) {
        let parent = keyed[rng.random_range(0..keyed.len())].clone();
        let child = Name::from(format!("t{}", rng.random_range(0..n_tables)));
        if child != parent {
            // Only `k` is guaranteed to exist on the child's schema; an `a`
            // draw against a k-only child is caught by `fk_attrs_exist` and
            // regenerated.
            let attr = if rng.random_bool(0.7) { "a" } else { "k" };
            statements.push(Statement::ForeignKey {
                table: child,
                attrs: vec![attr.into()],
                ref_table: parent,
                ref_attrs: vec!["k".into()],
            });
        }
    }
    Program { statements }
}

/// Generate a random catalog and return it both as DDL text (what a fuzz
/// case feeds to [`udp_service::Session::new`]) and as a built [`Frontend`]
/// (what the evaluator oracle consumes).
///
/// The text comes from the pretty printer and is re-parsed here, so a DDL
/// print/parse bug fails fast with the generating seed attached.
pub fn random_frontend(rng: &mut StdRng, profile: &SchemaProfile) -> (String, Frontend) {
    loop {
        let program = random_ddl(rng, profile);
        let text = program_to_sql(&program);
        match udp_sql::parse_program(&text).ok().and_then(|reparsed| {
            // The FK may name an attribute the child schema lacks (`a` on a
            // k-only schema): regenerate rather than building a frontend
            // whose constraints dangle.
            if fk_attrs_exist(&reparsed) {
                build_frontend(&reparsed).ok().map(|fe| (reparsed, fe))
            } else {
                None
            }
        }) {
            Some((reparsed, fe)) => {
                assert_eq!(
                    program, reparsed,
                    "DDL print/parse round trip changed the program:\n{text}"
                );
                return (text, fe);
            }
            None => continue,
        }
    }
}

/// Does every foreign-key statement name attributes its tables actually
/// have? (`build_frontend` does not validate FK attribute names — the
/// database generator would just skip the copy — but the fuzzer wants
/// honest constraints.)
fn fk_attrs_exist(program: &Program) -> bool {
    let schema_of_table = |table: &Name| -> Option<&[(Name, Name)]> {
        let schema_name = program.statements.iter().find_map(|s| match s {
            Statement::Table { name, schema } if name == table => Some(schema),
            _ => None,
        })?;
        program.statements.iter().find_map(|s| match s {
            Statement::Schema { name, attrs, .. } if name == schema_name => Some(attrs.as_slice()),
            _ => None,
        })
    };
    program.statements.iter().all(|s| match s {
        Statement::ForeignKey {
            table,
            attrs,
            ref_table,
            ref_attrs,
        } => {
            let child_ok = schema_of_table(table)
                .is_some_and(|sa| attrs.iter().all(|a| sa.iter().any(|(n, _)| n == a)));
            let parent_ok = schema_of_table(ref_table)
                .is_some_and(|sa| ref_attrs.iter().all(|a| sa.iter().any(|(n, _)| n == a)));
            child_ok && parent_ok
        }
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_catalogs_build_and_round_trip() {
        let profile = SchemaProfile::default();
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (text, fe) = random_frontend(&mut rng, &profile);
            assert!(fe.catalog.num_relations() >= 1, "seed {seed}: {text}");
            // The text must rebuild to an identical catalog shape.
            let fe2 = udp_sql::prepare_program(&text).unwrap();
            assert_eq!(fe.catalog.num_relations(), fe2.catalog.num_relations());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = SchemaProfile::default();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(
            random_frontend(&mut r1, &profile).0,
            random_frontend(&mut r2, &profile).0
        );
    }
}
