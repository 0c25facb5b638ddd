//! Canonical forms and fingerprints of queries.
//!
//! A batch verification service wants to recognize that two goals are "the
//! same problem" even when their SQL texts differ — alias renaming, conjunct
//! reordering, join-operand order, and subquery nesting all perturb the text
//! (and the lowered [`UExpr`]) without changing the SPNF semantics. This
//! module computes a **canonical form**: a stable textual rendering of a
//! query's sum-product normal form in which
//!
//! * bound variables carry canonical de Bruijn-style numbers assigned by a
//!   structural coloring (invariant under alpha-renaming),
//! * factors and summands are sorted by their canonical rendering (invariant
//!   under `×`/`+` reordering),
//! * schemas are rendered by *content* (attribute names, types,
//!   nullability, openness) and relations by *name* — never by catalog id,
//!   so forms agree across independently-built catalogs of the same program
//!   (anonymous subquery schemas get arbitrary ids during lowering).
//!
//! A [`Fingerprint`] is a 128-bit FNV-1a hash of the canonical form. The
//! service layer keys its verdict cache on the full canonical-form pair (so a
//! hash collision can never produce a wrong verdict) and reports the compact
//! fingerprints.
//!
//! Two queries with equal canonical forms are **equivalent**, not merely
//! given equal `decide` outcomes: the form determines the normal form up to
//! renaming bound variables and reordering `+`/`×` operands, and both are
//! U-semiring axioms. The service's identity shortcut proves such a goal
//! without running Alg 2; `crates/fuzz/tests/identity_forms.rs` checks the
//! claim against the oracle and the full search.
//!
//! Canonicalization is *sound but not complete*: alpha-equivalent queries
//! with highly symmetric self-joins may receive different canonical forms
//! (costing a cache hit or a shortcut, never a wrong verdict).
//!
//! # Cost
//!
//! The service renders both forms of every goal before any proving, so
//! their cost lands on every served goal. Rendering a term whose factors
//! are `f_1 … f_n` costs:
//!
//! * one allocation-free occurrence walk over the factors, recording which
//!   of the term's binders each one mentions (a factor carrying a literal
//!   `§` counts as mentioning every binder);
//! * for each binder, one rendering of each factor that mentions it: the
//!   binder's colour;
//! * one final rendering of each factor once the binders are numbered.
//!
//! So factor `f_i` renders `1 + m_i` times, `m_i` the number of binders it
//! mentions, where colouring from every factor would cost `1 + B` for `B`
//! binders. An aggregate body renders at most once per distinct context
//! within one form — the body's identity, the next free canonical id and
//! the state of each of its free variables — and every other occurrence
//! appends the memoized text. Renderers append to one output buffer; text
//! that must be sorted before it is emitted goes through scratch strings
//! that are reused, so a form allocates little beyond its own text.

use crate::decide::QueryU;
use crate::expr::{AggBody, Expr, Pred, Value, VarId};
use crate::schema::{Catalog, RelId, SchemaId};
use crate::spnf::{normalize, Atom, Nf, Term};
use crate::uexpr::UExpr;
use std::collections::HashMap;
use std::fmt::{self, Write};

/// A 128-bit hash of a query's canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a over 128 bits.
fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Canonical form of a query (see module docs). Two queries with equal
/// canonical forms over the same catalog are equivalent.
pub fn canonical_form(catalog: &Catalog, q: &QueryU) -> String {
    canonical_form_nf(catalog, &normalize(&q.body), q.out, q.schema)
}

/// [`canonical_form`] over an already-normalized body (avoids a second SPNF
/// normalization when the caller needs the [`Nf`] anyway, e.g. to feed
/// [`crate::decide::decide_normalized_with`]). `out` is the output variable
/// free in `nf`; `schema` its schema.
pub fn canonical_form_nf(catalog: &Catalog, nf: &Nf, out: VarId, schema: SchemaId) -> String {
    let mut cx = Canon {
        catalog,
        env: HashMap::new(),
        next: 0,
        bodies: HashMap::new(),
        key: Vec::new(),
        pool: Vec::new(),
    };
    cx.bind(out); // the output variable is canonical id 0
    let mut form = String::from("λ0:");
    schema_desc(catalog, schema, &mut form);
    form.push_str(". ");
    cx.nf(nf, &mut form);
    form
}

/// Fingerprint of a query: a 128-bit hash of [`canonical_form`].
pub fn fingerprint(catalog: &Catalog, q: &QueryU) -> Fingerprint {
    fingerprint_form(&canonical_form(catalog, q))
}

/// Fingerprint of an already-computed canonical form (avoids recomputing the
/// form when the caller also needs it as an exact cache key).
pub fn fingerprint_form(form: &str) -> Fingerprint {
    Fingerprint(fnv128(form.as_bytes()))
}

/// Render a schema by content: `{a:Int,b:Str?}`, with `?` marking a
/// nullable attribute (its summation domain also holds the NULL tag) and
/// `,??` when open.
fn schema_desc(catalog: &Catalog, id: SchemaId, out: &mut String) {
    let s = catalog.schema(id);
    out.push('{');
    for (i, (name, ty)) in s.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{name}:{ty:?}");
        if s.nullable.get(i).copied().unwrap_or(false) {
            out.push('?');
        }
    }
    if !s.is_closed() {
        out.push_str(",??");
    }
    out.push('}');
}

/// Rendering context: maps numbered variables to canonical ids. Variables
/// absent from `env` are term-bound but not yet numbered; they render as the
/// mask `?` (or `§` for the variable currently being colored).
///
/// Every renderer appends to an `out` buffer. Text that must be sorted
/// before it is emitted (factors, summands, the operands of `=`, `≠`, `+`
/// and `·`) is rendered into scratch strings drawn from `pool` and handed
/// back after use, so a form allocates little beyond its own text.
struct Canon<'a> {
    catalog: &'a Catalog,
    env: HashMap<VarId, u32>,
    next: u32,
    /// Aggregate-body renderings, keyed by `Canon::agg_body`.
    bodies: HashMap<Box<[u32]>, String>,
    /// Scratch buffer for building a `bodies` key.
    key: Vec<u32>,
    /// Cleared scratch strings, reused by `take`.
    pool: Vec<String>,
}

/// Sentinel for the binder currently being colored (renders `§`).
const SELF_MARK: u32 = u32::MAX;
/// Sentinel for a bound-but-not-yet-numbered binder (renders `?`).
/// Variables in neither state and absent from `env` are genuinely *free*:
/// their identity is semantic and is preserved verbatim (`fN`), never masked
/// — two queries differing only in which free variable they mention must
/// not share a canonical form.
const MASK: u32 = u32::MAX - 1;
/// A free variable's state in an aggregate-body memo key (`env` has no
/// entry for it, so it renders `fN`).
const FREE: u32 = u32::MAX - 2;

impl<'a> Canon<'a> {
    fn bind(&mut self, v: VarId) -> u32 {
        let id = self.next;
        self.next += 1;
        self.env.insert(v, id);
        id
    }

    /// An empty scratch string.
    fn take(&mut self) -> String {
        self.pool.pop().unwrap_or_default()
    }

    /// Hand scratch strings back to the pool.
    fn recycle(&mut self, parts: impl IntoIterator<Item = String>) {
        for mut part in parts {
            part.clear();
            self.pool.push(part);
        }
    }

    /// Append `parts` joined by `sep`, recycling them.
    fn join(&mut self, parts: Vec<String>, sep: &str, out: &mut String) {
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(part);
        }
        self.recycle(parts);
    }

    /// Append `x` and `y` in sorted order, `sep` between them, recycling
    /// both.
    fn join_sorted(&mut self, x: String, y: String, sep: &str, out: &mut String) {
        let (x, y) = if x > y { (y, x) } else { (x, y) };
        out.push_str(&x);
        out.push_str(sep);
        out.push_str(&y);
        self.recycle([x, y]);
    }

    fn nf(&mut self, nf: &Nf, out: &mut String) {
        if nf.terms.is_empty() {
            out.push('0');
            return;
        }
        let mut terms = Vec::with_capacity(nf.terms.len());
        for t in &nf.terms {
            let mut s = self.take();
            self.term(t, &mut s);
            terms.push(s);
        }
        terms.sort();
        self.join(terms, " + ", out);
    }

    /// An atom `R(e)`.
    fn atom(&mut self, rel: RelId, arg: &Expr, out: &mut String) {
        out.push_str(&self.catalog.relation(rel).name);
        out.push('(');
        self.expr(arg, out);
        out.push(')');
    }

    /// Canonicalize one SPNF term: color its binders, number them, then
    /// render all factors under the extended environment, sorted.
    fn term(&mut self, t: &Term, out: &mut String) {
        let saved_env = self.env.clone();
        let saved_next = self.next;

        // Color each binder by the sorted multiset of factor renderings it
        // occurs in, with itself marked `§` and other unnumbered binders
        // masked `?`. Alpha-renaming cannot change a color; conjunct order
        // cannot either (the multiset is sorted).
        let bound: Vec<VarId> = t.vars.iter().map(|(v, _)| *v).collect();
        for v in &bound {
            self.env.insert(*v, MASK);
        }
        // Only a factor that mentions the binder can render `§` — except
        // one carrying a literal `§`, which `Mentions` marks as mentioning
        // every binder. So the loop renders each factor only for the
        // binders it mentions and keeps exactly the renderings that a loop
        // over every factor would.
        let mentions = Mentions::of(self.catalog, t);
        let mut colored: Vec<(Vec<String>, usize, VarId)> = Vec::with_capacity(bound.len());
        for (i, v) in bound.iter().enumerate() {
            let mut color = Vec::new();
            self.env.insert(*v, SELF_MARK); // render as `§`
            for (f, factor) in factors(t).enumerate() {
                if !mentions.has(f, i) {
                    continue;
                }
                let mut r = self.take();
                self.factor(factor, true, &mut r);
                if r.contains('§') {
                    color.push(r);
                } else {
                    self.recycle([r]);
                }
            }
            self.env.insert(*v, MASK);
            color.sort();
            colored.push((color, i, *v));
        }
        for v in &bound {
            self.env.remove(v);
        }
        // Number binders by (color, original position) — the positional
        // tie-break only fires between same-colored (symmetric) binders,
        // where either choice renders identically. Ids are handed out in
        // that order, so the `Σ{…}` list below is sorted by id.
        colored.sort();
        if !colored.is_empty() {
            out.push_str("Σ{");
            for (n, (color, i, v)) in colored.into_iter().enumerate() {
                let id = self.bind(v);
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{id}:");
                schema_desc(self.catalog, t.vars[i].1, out);
                self.recycle(color);
            }
            out.push_str("} ");
        }

        // Predicates and atoms sorted, then the squash and the negation.
        let mut rendered = Vec::with_capacity(t.preds.len() + t.atoms.len() + 2);
        for factor in factors(t) {
            let mut s = self.take();
            self.factor(factor, false, &mut s);
            rendered.push(s);
        }
        rendered[..t.preds.len() + t.atoms.len()].sort();
        if rendered.is_empty() {
            out.push('1');
        } else {
            self.join(rendered, "·", out);
        }

        self.env = saved_env;
        self.next = saved_next;
    }

    /// Render one factor. `masked` renders a nested normal form as the
    /// coloring loop does, with its binders unnumbered.
    fn factor(&mut self, factor: Factor<'_>, masked: bool, out: &mut String) {
        let (nf, open, close) = match factor {
            Factor::Pred(p) => return self.pred(p, out),
            Factor::Atom(a) => return self.atom(a.rel, &a.arg, out),
            Factor::Squash(nf) => (nf, "‖", "‖"),
            Factor::Negation(nf) => (nf, "¬(", ")"),
        };
        out.push_str(open);
        if masked {
            self.nf_masked(nf, out);
        } else {
            self.nf(nf, out);
        }
        out.push_str(close);
    }

    /// Render a nested normal form during coloring, without numbering its
    /// binders (they render masked).
    fn nf_masked(&mut self, nf: &Nf, out: &mut String) {
        let mut terms = Vec::with_capacity(nf.terms.len());
        for t in &nf.terms {
            // The nested term's own binders are alpha-renameable: mask
            // them so they cannot leak as free variables.
            for (v, _) in &t.vars {
                self.env.insert(*v, MASK);
            }
            let mut rendered = Vec::with_capacity(t.preds.len() + t.atoms.len() + 2);
            for factor in factors(t) {
                let mut s = self.take();
                self.factor(factor, true, &mut s);
                rendered.push(s);
            }
            for (v, _) in &t.vars {
                self.env.remove(v);
            }
            rendered.sort();
            let mut s = self.take();
            self.join(rendered, "·", &mut s);
            terms.push(s);
        }
        terms.sort();
        self.join(terms, " + ", out);
    }

    /// An expression rendered into a scratch string.
    fn expr_text(&mut self, e: &Expr) -> String {
        let mut s = self.take();
        self.expr(e, &mut s);
        s
    }

    fn pred(&mut self, p: &Pred, out: &mut String) {
        match p {
            Pred::Eq(a, b) => self.comparison(a, b, "=", out),
            Pred::Ne(a, b) => self.comparison(a, b, "≠", out),
            Pred::Lift {
                name,
                args,
                negated,
            } => {
                out.push('[');
                if *negated {
                    out.push('¬');
                }
                out.push_str(name);
                out.push('(');
                self.exprs(args, out);
                out.push_str(")]");
            }
        }
    }

    /// `[a op b]`, operands sorted.
    fn comparison(&mut self, a: &Expr, b: &Expr, op: &str, out: &mut String) {
        let (x, y) = (self.expr_text(a), self.expr_text(b));
        out.push('[');
        self.join_sorted(x, y, op, out);
        out.push(']');
    }

    /// Comma-separated expressions.
    fn exprs(&mut self, args: &[Expr], out: &mut String) {
        for (i, e) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.expr(e, out);
        }
    }

    fn expr(&mut self, e: &Expr, out: &mut String) {
        match e {
            Expr::Var(v) => match self.env.get(v) {
                Some(&SELF_MARK) => out.push('§'),
                Some(&MASK) => out.push('?'),
                Some(id) => {
                    let _ = write!(out, "t{id}");
                }
                // Genuinely free: identity is semantic, render it verbatim.
                None => {
                    let _ = write!(out, "f{}", v.0);
                }
            },
            Expr::Attr(base, a) => {
                self.expr(base, out);
                out.push('.');
                out.push_str(a);
            }
            Expr::Const(c) => {
                let _ = write!(out, "{c}");
            }
            Expr::App(f, args) => {
                out.push_str(f);
                out.push('(');
                self.exprs(args, out);
                out.push(')');
            }
            Expr::Agg(name, body) => {
                out.push_str(name);
                out.push('(');
                self.agg_body(body, out);
                out.push(')');
            }
            Expr::Record(fields) => {
                out.push('⟨');
                for (i, (n, e)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(n);
                    out.push('=');
                    self.expr(e, out);
                }
                out.push('⟩');
            }
            Expr::Concat(l, s, r) => {
                out.push('(');
                self.expr(l, out);
                out.push('⧺');
                schema_desc(self.catalog, *s, out);
                out.push(':');
                self.expr(r, out);
                out.push(')');
            }
        }
    }

    /// Render an aggregate body, at most once per distinct context. A
    /// rendering reads only the body, `next` (the first id its own binders
    /// take) and the `env` state of each of its free variables (its bound
    /// ones are rebound inside), so a memo hit under the same key appends
    /// exactly the text a fresh rendering would.
    fn agg_body(&mut self, body: &AggBody, out: &mut String) {
        // Identity is the shared allocation: every body reachable from the
        // normal form outlives this `Canon`, so no address is reused.
        let id = std::ptr::from_ref::<UExpr>(body) as usize as u64;
        self.key.clear();
        self.key.extend([id as u32, (id >> 32) as u32, self.next]);
        for v in body.free_vars() {
            self.key.push(self.env.get(v).copied().unwrap_or(FREE));
        }
        if let Some(text) = self.bodies.get(self.key.as_slice()) {
            out.push_str(text);
            return;
        }
        let key: Box<[u32]> = self.key.as_slice().into();
        let start = out.len();
        self.uexpr(body, out);
        self.bodies.insert(key, out[start..].to_string());
    }

    /// Render a raw U-expression (aggregate bodies are not in SPNF).
    /// Binders are numbered in traversal order — deterministic, and stable
    /// under alpha-renaming because the structure fixes the traversal.
    fn uexpr(&mut self, e: &UExpr, out: &mut String) {
        match e {
            UExpr::Zero => out.push('0'),
            UExpr::One => out.push('1'),
            UExpr::Add(a, b) => {
                let (x, y) = (self.uexpr_text(a), self.uexpr_text(b));
                out.push('(');
                self.join_sorted(x, y, " + ", out);
                out.push(')');
            }
            UExpr::Mul(a, b) => {
                let (x, y) = (self.uexpr_text(a), self.uexpr_text(b));
                self.join_sorted(x, y, "·", out);
            }
            UExpr::Pred(p) => self.pred(p, out),
            UExpr::Rel(r, arg) => self.atom(*r, arg, out),
            UExpr::Squash(inner) => {
                out.push('‖');
                self.uexpr(inner, out);
                out.push('‖');
            }
            UExpr::Not(inner) => {
                out.push_str("¬(");
                self.uexpr(inner, out);
                out.push(')');
            }
            UExpr::Sum(v, s, body) => {
                let saved = self.env.get(v).copied();
                let id = self.bind(*v);
                let _ = write!(out, "Σ{{{id}:");
                schema_desc(self.catalog, *s, out);
                out.push_str("} ");
                self.uexpr(body, out);
                match saved {
                    Some(old) => {
                        self.env.insert(*v, old);
                    }
                    None => {
                        self.env.remove(v);
                    }
                }
                self.next -= 1;
            }
        }
    }

    /// A U-expression rendered into a scratch string.
    fn uexpr_text(&mut self, e: &UExpr) -> String {
        let mut s = self.take();
        self.uexpr(e, &mut s);
        s
    }
}

/// One factor of an SPNF term.
#[derive(Clone, Copy)]
enum Factor<'t> {
    Pred(&'t Pred),
    Atom(&'t Atom),
    Squash(&'t Nf),
    Negation(&'t Nf),
}

/// The factors of `t`: the predicates, the atoms, then the squash and the
/// negation when present.
fn factors(t: &Term) -> impl Iterator<Item = Factor<'_>> {
    t.preds
        .iter()
        .map(Factor::Pred)
        .chain(t.atoms.iter().map(Factor::Atom))
        .chain(t.squash.as_deref().map(Factor::Squash))
        .chain(t.negation.as_deref().map(Factor::Negation))
}

/// Which of a term's binders each of its factors mentions, as one bit row
/// per factor, in `factors` order. A factor mentions a binder it has free
/// (an aggregate body counts its free variables). A factor carrying a
/// literal `§` — a string constant or a name — renders `§` whichever
/// binder is coloured, so it mentions every binder.
struct Mentions {
    words: usize,
    rows: Vec<u64>,
}

impl Mentions {
    fn of(catalog: &Catalog, t: &Term) -> Mentions {
        let words = t.vars.len().div_ceil(64);
        let mut rows = vec![0; factors(t).count() * words];
        if words > 0 {
            for (factor, row) in factors(t).zip(rows.chunks_mut(words)) {
                let mut occurs = Occurs {
                    catalog,
                    bound: &t.vars,
                    row,
                };
                occurs.factor(factor);
            }
        }
        Mentions { words, rows }
    }

    /// Does factor `f` mention binder `i`?
    fn has(&self, f: usize, i: usize) -> bool {
        self.rows[f * self.words + i / 64] >> (i % 64) & 1 == 1
    }
}

/// Allocation-free occurrence walk over one factor, setting the bits of
/// `row` (see `Mentions`).
struct Occurs<'a> {
    catalog: &'a Catalog,
    bound: &'a [(VarId, SchemaId)],
    row: &'a mut [u64],
}

impl Occurs<'_> {
    fn name(&mut self, name: &str) {
        if name.contains('§') {
            self.row.fill(u64::MAX);
        }
    }

    fn schema(&mut self, id: SchemaId) {
        for (name, _) in &self.catalog.schema(id).attrs {
            self.name(name);
        }
    }

    fn atom(&mut self, rel: RelId, arg: &Expr) {
        self.name(&self.catalog.relation(rel).name);
        self.expr(arg);
    }

    fn var(&mut self, v: VarId) {
        if let Some(i) = self.bound.iter().position(|(w, _)| *w == v) {
            self.row[i / 64] |= 1 << (i % 64);
        }
    }

    fn factor(&mut self, factor: Factor<'_>) {
        match factor {
            Factor::Pred(p) => self.pred(p),
            Factor::Atom(a) => self.atom(a.rel, &a.arg),
            Factor::Squash(nf) | Factor::Negation(nf) => {
                for t in &nf.terms {
                    factors(t).for_each(|f| self.factor(f));
                }
            }
        }
    }

    fn pred(&mut self, p: &Pred) {
        match p {
            Pred::Eq(a, b) | Pred::Ne(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Pred::Lift { name, args, .. } => {
                self.name(name);
                args.iter().for_each(|e| self.expr(e));
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Var(v) => self.var(*v),
            Expr::Attr(base, a) => {
                self.name(a);
                self.expr(base);
            }
            Expr::Const(Value::Str(s)) => self.name(s),
            Expr::Const(_) => {}
            Expr::App(f, args) => {
                self.name(f);
                args.iter().for_each(|e| self.expr(e));
            }
            Expr::Agg(name, body) => {
                self.name(name);
                body.free_vars().iter().for_each(|v| self.var(*v));
                self.uexpr(body);
            }
            Expr::Record(fields) => {
                for (n, e) in fields {
                    self.name(n);
                    self.expr(e);
                }
            }
            Expr::Concat(l, s, r) => {
                self.schema(*s);
                self.expr(l);
                self.expr(r);
            }
        }
    }

    /// Walk an aggregate body for literal marks only: its mentions are its
    /// free variables, which `expr` already counted.
    fn uexpr(&mut self, e: &UExpr) {
        let bound = std::mem::take(&mut self.bound);
        self.uexpr_in(e);
        self.bound = bound;
    }

    fn uexpr_in(&mut self, e: &UExpr) {
        match e {
            UExpr::Zero | UExpr::One => {}
            UExpr::Add(a, b) | UExpr::Mul(a, b) => {
                self.uexpr_in(a);
                self.uexpr_in(b);
            }
            UExpr::Pred(p) => self.pred(p),
            UExpr::Rel(r, arg) => self.atom(*r, arg),
            UExpr::Squash(inner) | UExpr::Not(inner) => self.uexpr_in(inner),
            UExpr::Sum(_, s, body) => {
                self.schema(*s);
                self.uexpr_in(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintSet;
    use crate::schema::{Schema, Ty};

    fn setup() -> (Catalog, SchemaId, crate::schema::RelId) {
        let mut cat = Catalog::new();
        let sid = cat
            .add_schema(Schema::new(
                "s",
                vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        let r = cat.add_relation("R", sid).unwrap();
        (cat, sid, r)
    }

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn alpha_renamed_queries_share_a_fingerprint() {
        let (cat, sid, r) = setup();
        let q1 = QueryU::new(
            v(0),
            sid,
            UExpr::sum_over(
                vec![(v(1), sid)],
                UExpr::product(vec![
                    UExpr::eq(Expr::Var(v(1)), Expr::Var(v(0))),
                    UExpr::rel(r, Expr::Var(v(1))),
                ]),
            ),
        );
        let q2 = QueryU::new(
            v(7),
            sid,
            UExpr::sum_over(
                vec![(v(3), sid)],
                UExpr::product(vec![
                    UExpr::eq(Expr::Var(v(3)), Expr::Var(v(7))),
                    UExpr::rel(r, Expr::Var(v(3))),
                ]),
            ),
        );
        assert_eq!(canonical_form(&cat, &q1), canonical_form(&cat, &q2));
        assert_eq!(fingerprint(&cat, &q1), fingerprint(&cat, &q2));
    }

    #[test]
    fn factor_order_is_canonicalized() {
        let (cat, sid, r) = setup();
        let pred1 = UExpr::eq(Expr::var_attr(v(1), "a"), Expr::int(1));
        let pred2 = UExpr::eq(Expr::var_attr(v(1), "k"), Expr::int(2));
        let atom = UExpr::rel(r, Expr::Var(v(1)));
        let conj = |factors: Vec<UExpr>| {
            QueryU::new(
                v(0),
                sid,
                UExpr::sum_over(
                    vec![(v(1), sid)],
                    UExpr::product(
                        std::iter::once(UExpr::eq(Expr::Var(v(1)), Expr::Var(v(0))))
                            .chain(factors)
                            .collect::<Vec<_>>(),
                    ),
                ),
            )
        };
        let q1 = conj(vec![pred1.clone(), pred2.clone(), atom.clone()]);
        let q2 = conj(vec![pred2, atom, pred1]);
        assert_eq!(canonical_form(&cat, &q1), canonical_form(&cat, &q2));
    }

    #[test]
    fn different_queries_differ() {
        let (cat, sid, r) = setup();
        let base = |c: i64| {
            QueryU::new(
                v(0),
                sid,
                UExpr::sum_over(
                    vec![(v(1), sid)],
                    UExpr::product(vec![
                        UExpr::eq(Expr::Var(v(1)), Expr::Var(v(0))),
                        UExpr::eq(Expr::var_attr(v(1), "a"), Expr::int(c)),
                        UExpr::rel(r, Expr::Var(v(1))),
                    ]),
                ),
            )
        };
        assert_ne!(fingerprint(&cat, &base(1)), fingerprint(&cat, &base(2)));
    }

    #[test]
    fn asymmetric_self_join_canonicalizes_consistently() {
        let (cat, sid, r) = setup();
        // Σ_{x,y} [x = out]·[x.a = 1]·R(x)·R(y) with the two binder orders
        // and factor orders swapped: the coloring must give x (which carries
        // the extra predicate) the same number both times.
        let mk = |first: VarId, second: VarId, swap_factors: bool| {
            let mut factors = vec![
                UExpr::eq(Expr::Var(v(1)), Expr::Var(v(0))),
                UExpr::eq(Expr::var_attr(v(1), "a"), Expr::int(1)),
                UExpr::rel(r, Expr::Var(v(1))),
                UExpr::rel(r, Expr::Var(v(2))),
            ];
            if swap_factors {
                factors.reverse();
            }
            QueryU::new(
                v(0),
                sid,
                UExpr::sum_over(vec![(first, sid), (second, sid)], UExpr::product(factors)),
            )
        };
        let q1 = mk(v(1), v(2), false);
        let q2 = mk(v(2), v(1), true);
        assert_eq!(canonical_form(&cat, &q1), canonical_form(&cat, &q2));
    }

    #[test]
    fn distinct_free_variables_produce_distinct_forms() {
        // Free variables other than `out` carry semantic identity: a query
        // mentioning f5 is NOT interchangeable with one mentioning f9, so
        // their canonical forms must differ (a shared form here would let a
        // verdict cache serve a wrong answer).
        let (cat, sid, r) = setup();
        let with_free = |free: u32| {
            QueryU::new(
                v(0),
                sid,
                UExpr::mul(
                    UExpr::rel(r, Expr::Var(v(0))),
                    UExpr::eq(Expr::var_attr(v(free), "a"), Expr::int(1)),
                ),
            )
        };
        assert_ne!(
            canonical_form(&cat, &with_free(5)),
            canonical_form(&cat, &with_free(9))
        );
        // …while the bound/out variables still canonicalize away.
        assert_eq!(canonical_form(&cat, &with_free(5)), {
            let q = QueryU::new(
                v(3),
                sid,
                UExpr::mul(
                    UExpr::rel(r, Expr::Var(v(3))),
                    UExpr::eq(Expr::var_attr(v(5), "a"), Expr::int(1)),
                ),
            );
            canonical_form(&cat, &q)
        });
    }

    /// `R(t0)·Σ_{t:σ}[t.a = NULL]` is 0 when σ's `a` is non-nullable and
    /// `R(t0)` when it is nullable: the two must not share a form.
    #[test]
    fn nullability_is_part_of_the_form() {
        let (mut cat, sid, r) = setup();
        let attrs = || vec![("a".into(), Ty::Int)];
        let plain = cat.add_anon_schema(attrs(), false);
        let nullable = cat.add_anon_schema_nullable(attrs(), false, vec![true]);
        let query = |sigma: SchemaId| {
            QueryU::new(
                v(0),
                sid,
                UExpr::mul(
                    UExpr::rel(r, Expr::Var(v(0))),
                    UExpr::sum(
                        v(1),
                        sigma,
                        UExpr::eq(Expr::var_attr(v(1), "a"), Expr::null()),
                    ),
                ),
            )
        };
        let (q1, q2) = (query(plain), query(nullable));
        let spec = crate::interp::DomainSpec::default();
        let cs = ConstraintSet::new();
        assert!(
            crate::proof::check_equivalence(&cat, &cs, v(0), sid, &q1.body, &q2.body, 4, &spec)
                .is_err(),
            "the two queries must disagree on some model"
        );
        assert_ne!(canonical_form(&cat, &q1), canonical_form(&cat, &q2));
        assert!(canonical_form(&cat, &q2).contains("a:Int?"));
    }

    #[test]
    fn equal_canonical_forms_imply_equal_verdicts() {
        let (cat, sid, r) = setup();
        let cs = ConstraintSet::new();
        let q1 = QueryU::new(v(0), sid, UExpr::rel(r, Expr::Var(v(0))));
        let q2 = QueryU::new(v(5), sid, UExpr::rel(r, Expr::Var(v(5))));
        assert_eq!(canonical_form(&cat, &q1), canonical_form(&cat, &q2));
        let d1 = crate::decide(&cat, &cs, &q1, &q1);
        let d2 = crate::decide(&cat, &cs, &q2, &q2);
        assert_eq!(d1.decision, d2.decision);
    }
}
