//! Catalog construction from parsed programs.
//!
//! Processes the DDL statements of a [`Program`] into a core [`Catalog`] +
//! [`ConstraintSet`], collects view definitions, synthesizes the GMAP view
//! for each `index` statement (Sec 4.1: an index on `R.a` is the view
//! `SELECT x.a, x.k FROM R x` where `k` is the key of `R`), and gathers the
//! `verify` goals.

use crate::ast::{FromItem, Program, Query, Select, SelectItem, Statement, TableRef};
use std::collections::HashMap;
use std::fmt;
use udp_core::constraints::ConstraintSet;
use udp_core::name::Name;
use udp_core::schema::{Catalog, CatalogError, Schema, Ty};

/// A fully processed program, ready for lowering.
#[derive(Debug, Clone, Default)]
pub struct Frontend {
    /// Schemas and relations (gains anonymous schemas during lowering).
    pub catalog: Catalog,
    /// Keys and foreign keys declared by the program.
    pub constraints: ConstraintSet,
    /// View definitions by name (indexes become views here too).
    pub views: HashMap<Name, Query>,
    /// `verify` goals in program order.
    pub goals: Vec<(Query, Query)>,
    /// Stage-metrics sink: lowering (and, via `udp-ext`, desugaring) record
    /// through this handle, which drivers replace with an enabled recorder.
    /// The default disabled handle is free.
    pub recorder: udp_obs::Recorder,
}

/// Errors from catalog construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// Catalog-level redeclaration errors.
    Catalog(CatalogError),
    /// A table declared over an undeclared schema.
    UnknownSchema(String),
    /// A constraint/index over an undeclared table.
    UnknownTable(String),
    /// A constraint/index over an undeclared attribute.
    UnknownAttribute {
        /// The table searched.
        table: String,
        /// The missing attribute.
        attr: String,
    },
    /// GMAP index views require a declared key (the index projects it).
    IndexedTableHasNoKey(String),
    /// A view name bound twice.
    DuplicateView(String),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Catalog(e) => write!(f, "{e}"),
            FrontendError::UnknownSchema(s) => write!(f, "unknown schema `{s}`"),
            FrontendError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            FrontendError::UnknownAttribute { table, attr } => {
                write!(f, "table `{table}` has no attribute `{attr}`")
            }
            FrontendError::IndexedTableHasNoKey(t) => {
                write!(
                    f,
                    "cannot build GMAP index view: table `{t}` has no declared key"
                )
            }
            FrontendError::DuplicateView(v) => write!(f, "view `{v}` declared twice"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<CatalogError> for FrontendError {
    fn from(e: CatalogError) -> Self {
        FrontendError::Catalog(e)
    }
}

/// Parse a declared type name; a trailing `?` marks the attribute nullable
/// (udp-ext encoding) and rides on the name through the surface AST.
fn parse_ty(name: &str) -> (Ty, bool) {
    let (base, nullable) = match name.strip_suffix('?') {
        Some(base) => (base, true),
        None => (name, false),
    };
    let ty = match base {
        "int" | "integer" | "bigint" | "smallint" => Ty::Int,
        "bool" | "boolean" => Ty::Bool,
        "string" | "varchar" | "char" | "text" => Ty::Str,
        _ => Ty::Unknown,
    };
    (ty, nullable)
}

/// Build a [`Frontend`] from a parsed program.
pub fn build_frontend(program: &Program) -> Result<Frontend, FrontendError> {
    let mut fe = Frontend::default();
    for stmt in &program.statements {
        match stmt {
            Statement::Schema { name, attrs, open } => {
                let parsed: Vec<(Name, Ty, bool)> = attrs
                    .iter()
                    .map(|(a, t)| {
                        let (ty, nullable) = parse_ty(t);
                        (a.clone(), ty, nullable)
                    })
                    .collect();
                let nullable = parsed.iter().map(|(_, _, n)| *n).collect();
                let attrs = parsed.into_iter().map(|(a, t, _)| (a, t)).collect();
                fe.catalog.add_schema(
                    Schema::new(name.clone(), attrs, *open).with_nullability(nullable),
                )?;
            }
            Statement::Table { name, schema } => {
                let sid = fe
                    .catalog
                    .schema_id(schema)
                    .ok_or_else(|| FrontendError::UnknownSchema(schema.to_string()))?;
                fe.catalog.add_relation(name.clone(), sid)?;
            }
            Statement::Key { table, attrs } => {
                let rid = fe
                    .catalog
                    .relation_id(table)
                    .ok_or_else(|| FrontendError::UnknownTable(table.to_string()))?;
                let schema = fe.catalog.relation_schema(rid);
                for a in attrs {
                    if schema.is_closed() && !schema.has_attr(a) {
                        return Err(FrontendError::UnknownAttribute {
                            table: table.to_string(),
                            attr: a.to_string(),
                        });
                    }
                }
                fe.constraints.add_key(rid, attrs.clone());
            }
            Statement::ForeignKey {
                table,
                attrs,
                ref_table,
                ref_attrs,
            } => {
                let child = fe
                    .catalog
                    .relation_id(table)
                    .ok_or_else(|| FrontendError::UnknownTable(table.to_string()))?;
                let parent = fe
                    .catalog
                    .relation_id(ref_table)
                    .ok_or_else(|| FrontendError::UnknownTable(ref_table.to_string()))?;
                fe.constraints
                    .add_foreign_key(child, attrs.clone(), parent, ref_attrs.clone());
            }
            Statement::View { name, query } => {
                if fe.views.insert(name.clone(), query.clone()).is_some() {
                    return Err(FrontendError::DuplicateView(name.to_string()));
                }
            }
            Statement::Index { name, table, attrs } => {
                let view = synthesize_index_view(&fe, table, attrs)?;
                if fe.views.insert(name.clone(), view).is_some() {
                    return Err(FrontendError::DuplicateView(name.to_string()));
                }
            }
            Statement::Verify { q1, q2 } => {
                fe.goals.push((q1.clone(), q2.clone()));
            }
        }
    }
    Ok(fe)
}

/// GMAP (Sec 4.1): `index i on r(a…)` becomes the view
/// `SELECT x.a…, x.k… FROM r x` where `k…` is the first declared key of `r`.
fn synthesize_index_view(
    fe: &Frontend,
    table: &Name,
    attrs: &[Name],
) -> Result<Query, FrontendError> {
    let rid = fe
        .catalog
        .relation_id(table)
        .ok_or_else(|| FrontendError::UnknownTable(table.to_string()))?;
    let key = fe
        .constraints
        .keys_of(rid)
        .next()
        .ok_or_else(|| FrontendError::IndexedTableHasNoKey(table.to_string()))?
        .to_vec();
    let schema = fe.catalog.relation_schema(rid);
    let mut proj_attrs: Vec<Name> = attrs.to_vec();
    for k in &key {
        if !proj_attrs.contains(k) {
            proj_attrs.push(k.clone());
        }
    }
    for a in &proj_attrs {
        if schema.is_closed() && !schema.has_attr(a) {
            return Err(FrontendError::UnknownAttribute {
                table: table.to_string(),
                attr: a.to_string(),
            });
        }
    }
    let x = Name::from("x");
    let projection = proj_attrs
        .into_iter()
        .map(|a| SelectItem::Expr {
            expr: crate::ast::ScalarExpr::col(x.clone(), a.clone()),
            alias: Some(a),
        })
        .collect();
    Ok(Query::Select(Select {
        distinct: false,
        projection,
        from: vec![FromItem {
            source: TableRef::Table(table.clone()),
            alias: x,
        }],
        where_clause: None,
        group_by: vec![],
        having: None,
        natural: vec![],
        outer: vec![],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn fe(input: &str) -> Frontend {
        build_frontend(&parse_program(input).unwrap()).unwrap()
    }

    #[test]
    fn builds_catalog_and_constraints() {
        let fe = fe("schema s(k:int, a:int);\n\
                     table r(s);\n\
                     table r2(s);\n\
                     key r(k);\n\
                     foreign key r2(a) references r(k);");
        assert!(fe.catalog.relation_id("r").is_some());
        let rid = fe.catalog.relation_id("r").unwrap();
        assert!(fe.constraints.has_key(rid));
        let r2 = fe.catalog.relation_id("r2").unwrap();
        assert_eq!(fe.constraints.fks_from(r2).count(), 1);
    }

    #[test]
    fn index_becomes_gmap_view() {
        let fe = fe("schema s(k:int, a:int);\n\
                     table r(s);\n\
                     key r(k);\n\
                     index i on r(a);");
        let view = fe.views.get("i").expect("index registered as a view");
        match view {
            Query::Select(s) => {
                // projects the indexed attribute and the key
                assert_eq!(s.projection.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn index_requires_key() {
        let p = parse_program("schema s(k:int, a:int);\ntable r(s);\nindex i on r(a);").unwrap();
        assert_eq!(
            build_frontend(&p).unwrap_err(),
            FrontendError::IndexedTableHasNoKey("r".into())
        );
    }

    #[test]
    fn key_on_unknown_attribute_rejected() {
        let p = parse_program("schema s(k:int);\ntable r(s);\nkey r(zzz);").unwrap();
        assert!(matches!(
            build_frontend(&p).unwrap_err(),
            FrontendError::UnknownAttribute { .. }
        ));
    }

    #[test]
    fn goals_collected_in_order() {
        let fe = fe("schema s(a:int);\ntable r(s);\n\
                     verify SELECT * FROM r x == SELECT * FROM r y;\n\
                     verify SELECT * FROM r x == SELECT * FROM r x;");
        assert_eq!(fe.goals.len(), 2);
    }

    #[test]
    fn open_schema_key_allowed() {
        let fe = fe("schema s(a:int, ??);\ntable r(s);\nkey r(k0);");
        let rid = fe.catalog.relation_id("r").unwrap();
        assert!(fe.constraints.has_key(rid));
    }
}
