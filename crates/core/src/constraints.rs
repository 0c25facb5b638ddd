//! Integrity constraints as U-semiring identities (Sec 4).
//!
//! * **Key** (Def 4.1): `[t.k = t'.k] · R(t) · R(t') = [t = t'] · R(t)`.
//! * **Foreign key** (Def 4.4): `S(t') = S(t') · Σ_t R(t) · [t.k = t'.k']`.
//!
//! Views and indexes are *not* represented here: following the GMAP approach
//! (Sec 4.1) the front end inlines them before lowering, so the core only
//! ever sees base relations plus these two identity families.

use crate::name::Name;
use crate::schema::RelId;

/// A single declared constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `attrs` form a key of `rel` (Def 4.1). Composite keys supported.
    Key {
        /// The keyed relation.
        rel: RelId,
        /// Key attributes (composite keys supported).
        attrs: Vec<Name>,
    },
    /// `child.child_attrs` references `parent.parent_attrs` (Def 4.4);
    /// `parent_attrs` is implicitly a key of `parent` (Theorem 4.5).
    ForeignKey {
        /// Referencing relation.
        child: RelId,
        /// Referencing attributes.
        child_attrs: Vec<Name>,
        /// Referenced relation.
        parent: RelId,
        /// Referenced (key) attributes.
        parent_attrs: Vec<Name>,
    },
}

/// The set of constraints in scope for one verification problem.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// An empty constraint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a constraint (idempotent). Foreign keys also register the
    /// derived key on the parent attributes (Theorem 4.5).
    pub fn add(&mut self, c: Constraint) {
        if !self.constraints.contains(&c) {
            // A foreign key makes its parent attributes a key of the parent
            // (Theorem 4.5); register that derived key so the key chase and
            // the squash-invariance analysis can use it.
            if let Constraint::ForeignKey {
                parent,
                parent_attrs,
                ..
            } = &c
            {
                let derived = Constraint::Key {
                    rel: *parent,
                    attrs: parent_attrs.clone(),
                };
                if !self.constraints.contains(&derived) {
                    self.constraints.push(derived);
                }
            }
            self.constraints.push(c);
        }
    }

    /// Declare `attrs` a key of `rel` (Def 4.1).
    pub fn add_key(&mut self, rel: RelId, attrs: Vec<Name>) {
        self.add(Constraint::Key { rel, attrs });
    }

    /// Declare a foreign key `child.child_attrs → parent.parent_attrs`
    /// (Def 4.4).
    pub fn add_foreign_key(
        &mut self,
        child: RelId,
        child_attrs: Vec<Name>,
        parent: RelId,
        parent_attrs: Vec<Name>,
    ) {
        self.add(Constraint::ForeignKey {
            child,
            child_attrs,
            parent,
            parent_attrs,
        });
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Number of constraints (derived keys included).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Iterate over every constraint.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// All declared keys of `rel`.
    pub fn keys_of(&self, rel: RelId) -> impl Iterator<Item = &[Name]> {
        self.constraints.iter().filter_map(move |c| match c {
            Constraint::Key { rel: r, attrs } if *r == rel => Some(attrs.as_slice()),
            _ => None,
        })
    }

    /// Does `rel` have at least one key? (Precondition of the generalized
    /// Theorem 4.3 squash-invariance: a keyed relation has multiplicity 0/1
    /// per tuple, since setting `t = t'` in Def 4.1 gives `R(t)² = R(t)`.)
    pub fn has_key(&self, rel: RelId) -> bool {
        self.keys_of(rel).next().is_some()
    }

    /// Foreign keys whose child is `rel`.
    pub fn fks_from(&self, rel: RelId) -> impl Iterator<Item = (&[Name], RelId, &[Name])> {
        self.constraints.iter().filter_map(move |c| match c {
            Constraint::ForeignKey {
                child,
                child_attrs,
                parent,
                parent_attrs,
            } if *child == rel => Some((child_attrs.as_slice(), *parent, parent_attrs.as_slice())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_fks_are_queryable() {
        let mut cs = ConstraintSet::new();
        cs.add_key(RelId(0), vec!["k".into()]);
        cs.add_foreign_key(RelId(1), vec!["fk".into()], RelId(0), vec!["k".into()]);
        assert!(cs.has_key(RelId(0)));
        assert!(!cs.has_key(RelId(2)));
        assert_eq!(cs.keys_of(RelId(0)).count(), 1);
        let fks: Vec<_> = cs.fks_from(RelId(1)).collect();
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].1, RelId(0));
    }

    #[test]
    fn foreign_key_implies_parent_key() {
        let mut cs = ConstraintSet::new();
        cs.add_foreign_key(RelId(1), vec!["fk".into()], RelId(0), vec!["id".into()]);
        assert!(
            cs.has_key(RelId(0)),
            "Theorem 4.5: FK target attributes are a key"
        );
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut cs = ConstraintSet::new();
        cs.add_key(RelId(0), vec!["k".into()]);
        cs.add_key(RelId(0), vec!["k".into()]);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn composite_keys() {
        let mut cs = ConstraintSet::new();
        cs.add_key(RelId(0), vec!["a".into(), "b".into()]);
        let keys: Vec<_> = cs.keys_of(RelId(0)).collect();
        assert_eq!(keys[0].len(), 2);
    }
}
