//! Shared names: the attribute, alias, table, function, aggregate and
//! predicate symbols of a query.
//!
//! The prover treats every name as an uninterpreted symbol (Sec 3.2,
//! Sec 6.4): it only compares, orders, hashes and prints them. A [`Name`]
//! holds its text once, behind an `Arc<str>`, so copying an AST or IR node
//! copies a pointer instead of the bytes. The lexer builds one `Name` per
//! identifier; everything after it clones.
//!
//! `Eq`, `Ord`, `Hash`, `Display` and `Debug` are exactly those of the
//! text, so every sort, tie-break, rendering and fingerprint that orders or
//! prints names is the one an owned `String` gives (DESIGN.md §7, "Names
//! are shared text").

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A name from the query text: immutable, cheap to clone, and compared,
/// ordered and hashed by its text.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The text of the name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

/// Lets a `HashMap<Name, _>` or `BTreeMap<Name, _>` be probed with a `&str`
/// (the `Hash` and `Ord` of a `Name` are those of its text).
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Name {
        n.clone()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}
