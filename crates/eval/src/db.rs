//! Concrete databases: bags of rows per relation.

use std::collections::HashMap;
use std::fmt;
use udp_core::expr::Value;
use udp_core::name::Name;
use udp_core::schema::{Catalog, RelId};

/// A row, positionally aligned with its schema's attribute list.
pub type Row = Vec<Value>;

/// A bag of rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// The rows, duplicates meaningful (bag semantics).
    pub rows: Vec<Row>,
}

impl Table {
    /// A table holding the given rows.
    pub fn new(rows: Vec<Row>) -> Self {
        Table { rows }
    }

    /// Number of rows (with multiplicity).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A database instance: one table per base relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    tables: HashMap<RelId, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a relation to a table (replacing any previous contents).
    pub fn insert(&mut self, rel: RelId, table: Table) {
        self.tables.insert(rel, table);
    }

    /// The table of a relation (empty if never inserted).
    pub fn table(&self, rel: RelId) -> &Table {
        static EMPTY: Table = Table { rows: Vec::new() };
        self.tables.get(&rel).unwrap_or(&EMPTY)
    }

    /// Pretty-print against a catalog (for counterexample reports).
    pub fn render(&self, catalog: &Catalog) -> String {
        use fmt::Write;
        let mut out = String::new();
        let mut rels: Vec<&RelId> = self.tables.keys().collect();
        rels.sort();
        for rel in rels {
            let r = catalog.relation(*rel);
            let schema = catalog.schema(r.schema);
            let cols: Vec<&str> = schema.attrs.iter().map(|(n, _)| n.as_str()).collect();
            let _ = writeln!(out, "{}({}):", r.name, cols.join(", "));
            let table = &self.tables[rel];
            if table.is_empty() {
                let _ = writeln!(out, "  (empty)");
            }
            for row in &table.rows {
                let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                let _ = writeln!(out, "  ({})", vals.join(", "));
            }
        }
        out
    }
}

/// A query result: named columns plus a bag of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultBag {
    /// Output column names, in projection order.
    pub columns: Vec<Name>,
    /// Result rows (bag semantics).
    pub rows: Vec<Row>,
}

impl ResultBag {
    /// Canonical form for bag comparison: rows sorted.
    pub fn canonical(mut self) -> ResultBag {
        self.rows.sort();
        self
    }

    /// Are two results equal as bags (ignoring row order)?
    pub fn same_bag(&self, other: &ResultBag) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a = self.rows.clone();
        let mut b = other.rows.clone();
        a.sort();
        b.sort();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_table_is_empty() {
        let db = Database::new();
        assert!(db.table(RelId(3)).is_empty());
    }

    #[test]
    fn bag_equality_ignores_order() {
        let a = ResultBag {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        let b = ResultBag {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(1)]],
        };
        assert!(a.same_bag(&b));
        let c = ResultBag {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)]],
        };
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn bag_equality_respects_multiplicity() {
        let a = ResultBag {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(1)]],
        };
        let b = ResultBag {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)]],
        };
        assert!(!a.same_bag(&b));
    }
}
