//! Schemas, relations, and the catalog of declared database objects.
//!
//! The paper (Sec 3.2, Appendix A) requires explicit declaration of table
//! schemas; each schema `σ` induces a summation domain `Tuple(σ)`. A schema is
//! a list of named, typed attributes and may be *generic* (`open == true`,
//! written `??` in the input language), meaning it contains at least the
//! listed attributes but possibly more. Generic schemas let one state rewrite
//! rules over arbitrary relations, as in COSETTE.

use crate::name::Name;
use std::collections::HashMap;
use std::fmt;

/// Attribute types of the SQL fragment (Fig 8 of the paper). Types are only
/// used for sanity checking and workload generation; the decision procedure
/// treats values symbolically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit integers.
    Int,
    /// Booleans.
    Bool,
    /// Strings.
    Str,
    /// Unknown type: attributes of generic schemas or results of
    /// uninterpreted functions.
    Unknown,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Bool => write!(f, "bool"),
            Ty::Str => write!(f, "string"),
            Ty::Unknown => write!(f, "?"),
        }
    }
}

/// Identifier of an interned schema within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaId(pub u32);

/// Identifier of an interned base relation within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

/// A tuple schema: ordered named attributes, possibly open (`??`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Declared name (anonymous schemas get a generated `$anonN` name).
    pub name: Name,
    /// Ordered `(attribute, type)` pairs.
    pub attrs: Vec<(Name, Ty)>,
    /// `true` when the schema was declared with `??` — it may contain further
    /// unknown attributes, so tuple equality cannot be decomposed
    /// attribute-wise.
    pub open: bool,
    /// Per-attribute nullability, aligned with `attrs` (udp-ext encoding:
    /// a nullable attribute's summation domain includes the distinguished
    /// NULL tag). Declared via the `?` type suffix in the input language;
    /// derived-table columns inherit nullability from their defining
    /// expressions. Empty means all attributes are non-nullable.
    pub nullable: Vec<bool>,
}

impl Schema {
    /// Build a schema from its name, attributes, and openness flag (all
    /// attributes non-nullable).
    pub fn new(name: impl Into<Name>, attrs: Vec<(Name, Ty)>, open: bool) -> Self {
        let nullable = vec![false; attrs.len()];
        Schema {
            name: name.into(),
            attrs,
            open,
            nullable,
        }
    }

    /// Attach per-attribute nullability flags (must align with `attrs`).
    pub fn with_nullability(mut self, nullable: Vec<bool>) -> Self {
        debug_assert_eq!(nullable.len(), self.attrs.len());
        self.nullable = nullable;
        self
    }

    /// May `attr` hold the NULL tag? Unknown attributes are non-nullable.
    pub fn attr_nullable(&self, attr: &str) -> bool {
        self.attr_index(attr)
            .is_some_and(|i| self.nullable.get(i).copied().unwrap_or(false))
    }

    /// Position of an attribute, if declared.
    pub fn attr_index(&self, attr: &str) -> Option<usize> {
        self.attrs.iter().position(|(a, _)| a == attr)
    }

    /// Is `attr` a declared attribute?
    pub fn has_attr(&self, attr: &str) -> bool {
        self.attr_index(attr).is_some()
    }

    /// Declared type of `attr`, if present.
    pub fn attr_ty(&self, attr: &str) -> Option<Ty> {
        self.attrs.iter().find(|(a, _)| a == attr).map(|(_, t)| *t)
    }

    /// Whether tuple equality over this schema can be decomposed into
    /// attribute equalities (requires all attributes to be known).
    pub fn is_closed(&self) -> bool {
        !self.open
    }
}

/// A declared base relation: a name bound to a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Table name as declared in the input program.
    pub name: Name,
    /// Row schema of the relation.
    pub schema: SchemaId,
}

/// The catalog of declared schemas and base relations. Constraints (keys,
/// foreign keys) live in [`crate::constraints::ConstraintSet`]; views and
/// indexes are inlined by the front end before lowering and therefore never
/// reach the core.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    schemas: Vec<Schema>,
    relations: Vec<Relation>,
    schema_by_name: HashMap<Name, SchemaId>,
    relation_by_name: HashMap<Name, RelId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a schema. Re-declaring a name with identical content returns the
    /// existing id; conflicting redeclaration is an error.
    pub fn add_schema(&mut self, schema: Schema) -> Result<SchemaId, CatalogError> {
        if let Some(&id) = self.schema_by_name.get(&schema.name) {
            if self.schemas[id.0 as usize] == schema {
                return Ok(id);
            }
            return Err(CatalogError::DuplicateSchema(schema.name.to_string()));
        }
        let id = SchemaId(self.schemas.len() as u32);
        self.schema_by_name.insert(schema.name.clone(), id);
        self.schemas.push(schema);
        Ok(id)
    }

    /// Intern an *anonymous* schema (e.g. the output row type of a
    /// subquery). Anonymous schemas are not looked up by name and are
    /// **deduplicated by content**: a tuple domain is determined entirely by
    /// its attribute list, so two structurally identical anonymous schemas
    /// are interchangeable — and giving them one id lets the equivalence
    /// procedures (whose variable matching compares [`SchemaId`]s) pair
    /// summation variables introduced by separate lowerings of the same
    /// subquery text.
    pub fn add_anon_schema(&mut self, attrs: Vec<(Name, Ty)>, open: bool) -> SchemaId {
        let nullable = vec![false; attrs.len()];
        self.add_anon_schema_nullable(attrs, open, nullable)
    }

    /// [`Catalog::add_anon_schema`] with explicit per-attribute nullability
    /// (udp-ext encoding: NULL-padded outer-join columns). Nullability is
    /// part of the dedup key — a nullable column's summation domain differs
    /// from its non-nullable twin's.
    pub fn add_anon_schema_nullable(
        &mut self,
        attrs: Vec<(Name, Ty)>,
        open: bool,
        nullable: Vec<bool>,
    ) -> SchemaId {
        debug_assert_eq!(nullable.len(), attrs.len());
        if let Some(id) = self.schemas.iter().position(|s| {
            s.name.starts_with("$anon")
                && s.attrs == attrs
                && s.open == open
                && s.nullable == nullable
        }) {
            return SchemaId(id as u32);
        }
        let id = SchemaId(self.schemas.len() as u32);
        let name = Name::from(format!("$anon{}", id.0));
        self.schemas.push(Schema {
            name,
            attrs,
            open,
            nullable,
        });
        id
    }

    /// Intern a base relation. Identical redeclaration is idempotent;
    /// rebinding a name to a different schema is an error.
    pub fn add_relation(
        &mut self,
        name: impl Into<Name>,
        schema: SchemaId,
    ) -> Result<RelId, CatalogError> {
        let name = name.into();
        if let Some(&id) = self.relation_by_name.get(&name) {
            if self.relations[id.0 as usize].schema == schema {
                return Ok(id);
            }
            return Err(CatalogError::DuplicateRelation(name.to_string()));
        }
        let id = RelId(self.relations.len() as u32);
        self.relation_by_name.insert(name.clone(), id);
        self.relations.push(Relation { name, schema });
        Ok(id)
    }

    /// The schema with the given id (panics on a foreign id).
    pub fn schema(&self, id: SchemaId) -> &Schema {
        &self.schemas[id.0 as usize]
    }

    /// The relation with the given id (panics on a foreign id).
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// The row schema of a relation.
    pub fn relation_schema(&self, id: RelId) -> &Schema {
        self.schema(self.relations[id.0 as usize].schema)
    }

    /// Look up a declared (non-anonymous) schema by name.
    pub fn schema_id(&self, name: &str) -> Option<SchemaId> {
        self.schema_by_name.get(name).copied()
    }

    /// Look up a relation by name.
    pub fn relation_id(&self, name: &str) -> Option<RelId> {
        self.relation_by_name.get(name).copied()
    }

    /// Iterate over every schema, anonymous ones included.
    pub fn schemas(&self) -> impl Iterator<Item = (SchemaId, &Schema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(i, s)| (SchemaId(i as u32), s))
    }

    /// Iterate over every declared relation.
    pub fn relations(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u32), r))
    }

    /// Number of declared relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of interned schemas (anonymous ones included).
    pub fn num_schemas(&self) -> usize {
        self.schemas.len()
    }
}

/// Errors raised while building a catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A schema name redeclared with a different shape.
    DuplicateSchema(String),
    /// A relation name rebound to a different schema.
    DuplicateRelation(String),
    /// Reference to an undeclared schema.
    UnknownSchema(String),
    /// Reference to an undeclared relation.
    UnknownRelation(String),
    /// Reference to an attribute the schema does not declare.
    UnknownAttribute {
        /// The schema that was searched.
        schema: String,
        /// The missing attribute.
        attr: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateSchema(n) => {
                write!(f, "schema `{n}` redeclared with a different shape")
            }
            CatalogError::DuplicateRelation(n) => {
                write!(f, "relation `{n}` redeclared with a different schema")
            }
            CatalogError::UnknownSchema(n) => write!(f, "unknown schema `{n}`"),
            CatalogError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            CatalogError::UnknownAttribute { schema, attr } => {
                write!(f, "schema `{schema}` has no attribute `{attr}`")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col(name: &str) -> Schema {
        Schema::new(
            name,
            vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)],
            false,
        )
    }

    #[test]
    fn intern_schema_and_relation() {
        let mut cat = Catalog::new();
        let s = cat.add_schema(two_col("s")).unwrap();
        let r = cat.add_relation("r", s).unwrap();
        assert_eq!(cat.schema_id("s"), Some(s));
        assert_eq!(cat.relation_id("r"), Some(r));
        assert_eq!(cat.relation(r).name, "r");
        assert_eq!(cat.relation_schema(r).attrs.len(), 2);
    }

    #[test]
    fn identical_redeclaration_is_idempotent() {
        let mut cat = Catalog::new();
        let s1 = cat.add_schema(two_col("s")).unwrap();
        let s2 = cat.add_schema(two_col("s")).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(cat.num_schemas(), 1);
    }

    #[test]
    fn conflicting_redeclaration_fails() {
        let mut cat = Catalog::new();
        cat.add_schema(two_col("s")).unwrap();
        let other = Schema::new("s", vec![("x".into(), Ty::Bool)], false);
        assert_eq!(
            cat.add_schema(other),
            Err(CatalogError::DuplicateSchema("s".into()))
        );
    }

    #[test]
    fn anonymous_schemas_dedupe_by_content() {
        let mut cat = Catalog::new();
        let a = cat.add_anon_schema(vec![("a".into(), Ty::Int)], false);
        // Identical content interns to the same id: separate lowerings of
        // the same subquery must produce pairable summation variables.
        let b = cat.add_anon_schema(vec![("a".into(), Ty::Int)], false);
        assert_eq!(a, b);
        // Different content (attrs or openness) stays distinct.
        assert_ne!(a, cat.add_anon_schema(vec![("b".into(), Ty::Int)], false));
        assert_ne!(a, cat.add_anon_schema(vec![("a".into(), Ty::Int)], true));
        // A *named* schema with identical content is never reused — only
        // `$anon` schemas participate in the dedup.
        let named = cat
            .add_schema(Schema::new("n", vec![("c".into(), Ty::Int)], false))
            .unwrap();
        assert_ne!(
            named,
            cat.add_anon_schema(vec![("c".into(), Ty::Int)], false)
        );
    }

    #[test]
    fn attr_lookup() {
        let s = two_col("s");
        assert_eq!(s.attr_index("b"), Some(1));
        assert_eq!(s.attr_ty("a"), Some(Ty::Int));
        assert!(!s.has_attr("zzz"));
        assert!(s.is_closed());
    }

    #[test]
    fn open_schema_not_closed() {
        let s = Schema::new("g", vec![("a".into(), Ty::Int)], true);
        assert!(!s.is_closed());
    }
}
