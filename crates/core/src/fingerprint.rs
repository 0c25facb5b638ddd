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

use crate::decide::QueryU;
use crate::expr::{Expr, Pred, VarId};
use crate::schema::{Catalog, SchemaId};
use crate::spnf::{normalize, Nf, Term};
use crate::uexpr::UExpr;
use std::collections::HashMap;
use std::fmt;

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
    };
    cx.bind(out); // the output variable is canonical id 0
    let body = cx.render_nf(nf);
    format!("λ{}:{}. {}", 0, schema_desc(catalog, schema), body)
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
fn schema_desc(catalog: &Catalog, id: SchemaId) -> String {
    let s = catalog.schema(id);
    let mut out = String::from("{");
    for (i, (name, ty)) in s.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(name);
        out.push(':');
        out.push_str(&format!("{ty:?}"));
        if s.nullable.get(i).copied().unwrap_or(false) {
            out.push('?');
        }
    }
    if !s.is_closed() {
        out.push_str(",??");
    }
    out.push('}');
    out
}

/// Rendering context: maps numbered variables to canonical ids. Variables
/// absent from `env` are term-bound but not yet numbered; they render as the
/// mask `?` (or `§` for the variable currently being colored).
struct Canon<'a> {
    catalog: &'a Catalog,
    env: HashMap<VarId, u32>,
    next: u32,
}

/// Sentinel for the binder currently being colored (renders `§`).
const SELF_MARK: u32 = u32::MAX;
/// Sentinel for a bound-but-not-yet-numbered binder (renders `?`).
/// Variables in neither state and absent from `env` are genuinely *free*:
/// their identity is semantic and is preserved verbatim (`fN`), never masked
/// — two queries differing only in which free variable they mention must
/// not share a canonical form.
const MASK: u32 = u32::MAX - 1;

impl<'a> Canon<'a> {
    fn bind(&mut self, v: VarId) -> u32 {
        let id = self.next;
        self.next += 1;
        self.env.insert(v, id);
        id
    }

    fn render_nf(&mut self, nf: &Nf) -> String {
        let mut terms: Vec<String> = nf.terms.iter().map(|t| self.render_term(t)).collect();
        terms.sort();
        if terms.is_empty() {
            "0".into()
        } else {
            terms.join(" + ")
        }
    }

    /// Canonicalize one SPNF term: color its binders, number them, then
    /// render all factors under the extended environment, sorted.
    fn render_term(&mut self, t: &Term) -> String {
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
        let mut colored: Vec<(Vec<String>, usize, VarId)> = Vec::with_capacity(bound.len());
        for (i, v) in bound.iter().enumerate() {
            let mut color = Vec::new();
            self.env.insert(*v, SELF_MARK); // render as `§`
            for p in &t.preds {
                let r = self.render_pred(p);
                if r.contains('§') {
                    color.push(r);
                }
            }
            for a in &t.atoms {
                let r = format!(
                    "{}({})",
                    self.catalog.relation(a.rel).name,
                    self.render_expr(&a.arg)
                );
                if r.contains('§') {
                    color.push(r);
                }
            }
            if let Some(nf) = &t.squash {
                let r = self.render_nf_masked(nf);
                if r.contains('§') {
                    color.push(format!("‖{r}‖"));
                }
            }
            if let Some(nf) = &t.negation {
                let r = self.render_nf_masked(nf);
                if r.contains('§') {
                    color.push(format!("¬({r})"));
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
        // where either choice renders identically.
        colored.sort();
        let mut binders: Vec<(u32, String)> = Vec::with_capacity(colored.len());
        for (_, i, v) in &colored {
            let id = self.bind(*v);
            binders.push((id, schema_desc(self.catalog, t.vars[*i].1)));
        }
        binders.sort();

        let mut factors: Vec<String> = Vec::new();
        for p in &t.preds {
            factors.push(self.render_pred(p));
        }
        for a in &t.atoms {
            factors.push(format!(
                "{}({})",
                self.catalog.relation(a.rel).name,
                self.render_expr(&a.arg)
            ));
        }
        factors.sort();
        if let Some(nf) = &t.squash {
            factors.push(format!("‖{}‖", self.render_nf(nf)));
        }
        if let Some(nf) = &t.negation {
            factors.push(format!("¬({})", self.render_nf(nf)));
        }

        let mut out = String::new();
        if !binders.is_empty() {
            out.push_str("Σ{");
            for (i, (id, desc)) in binders.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{id}:{desc}"));
            }
            out.push_str("} ");
        }
        if factors.is_empty() {
            out.push('1');
        } else {
            out.push_str(&factors.join("·"));
        }

        self.env = saved_env;
        self.next = saved_next;
        out
    }

    /// Render a nested normal form during coloring, without numbering its
    /// binders (they render masked).
    fn render_nf_masked(&mut self, nf: &Nf) -> String {
        let mut terms: Vec<String> = nf
            .terms
            .iter()
            .map(|t| {
                // The nested term's own binders are alpha-renameable: mask
                // them so they cannot leak as free variables.
                for (v, _) in &t.vars {
                    self.env.insert(*v, MASK);
                }
                let mut factors: Vec<String> = Vec::new();
                for p in &t.preds {
                    factors.push(self.render_pred(p));
                }
                for a in &t.atoms {
                    factors.push(format!(
                        "{}({})",
                        self.catalog.relation(a.rel).name,
                        self.render_expr(&a.arg)
                    ));
                }
                if let Some(inner) = &t.squash {
                    factors.push(format!("‖{}‖", self.render_nf_masked(inner)));
                }
                if let Some(inner) = &t.negation {
                    factors.push(format!("¬({})", self.render_nf_masked(inner)));
                }
                for (v, _) in &t.vars {
                    self.env.remove(v);
                }
                factors.sort();
                factors.join("·")
            })
            .collect();
        terms.sort();
        terms.join(" + ")
    }

    fn render_pred(&mut self, p: &Pred) -> String {
        match p {
            Pred::Eq(a, b) => {
                let (mut x, mut y) = (self.render_expr(a), self.render_expr(b));
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                format!("[{x}={y}]")
            }
            Pred::Ne(a, b) => {
                let (mut x, mut y) = (self.render_expr(a), self.render_expr(b));
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                format!("[{x}≠{y}]")
            }
            Pred::Lift {
                name,
                args,
                negated,
            } => {
                let args: Vec<String> = args.iter().map(|e| self.render_expr(e)).collect();
                format!(
                    "[{}{}({})]",
                    if *negated { "¬" } else { "" },
                    name,
                    args.join(",")
                )
            }
        }
    }

    fn render_expr(&mut self, e: &Expr) -> String {
        match e {
            Expr::Var(v) => match self.env.get(v) {
                Some(&SELF_MARK) => "§".into(),
                Some(&MASK) => "?".into(),
                Some(id) => format!("t{id}"),
                // Genuinely free: identity is semantic, render it verbatim.
                None => format!("f{}", v.0),
            },
            Expr::Attr(base, a) => format!("{}.{a}", self.render_expr(base)),
            Expr::Const(c) => format!("{c}"),
            Expr::App(f, args) => {
                let args: Vec<String> = args.iter().map(|e| self.render_expr(e)).collect();
                format!("{f}({})", args.join(","))
            }
            Expr::Agg(name, body) => format!("{name}({})", self.render_uexpr(body)),
            Expr::Record(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(n, e)| format!("{n}={}", self.render_expr(e)))
                    .collect();
                format!("⟨{}⟩", fields.join(","))
            }
            Expr::Concat(l, s, r) => format!(
                "({}⧺{}:{})",
                self.render_expr(l),
                schema_desc(self.catalog, *s),
                self.render_expr(r)
            ),
        }
    }

    /// Render a raw U-expression (aggregate bodies are not in SPNF).
    /// Binders are numbered in traversal order — deterministic, and stable
    /// under alpha-renaming because the structure fixes the traversal.
    fn render_uexpr(&mut self, e: &UExpr) -> String {
        match e {
            UExpr::Zero => "0".into(),
            UExpr::One => "1".into(),
            UExpr::Add(a, b) => {
                let (mut x, mut y) = (self.render_uexpr(a), self.render_uexpr(b));
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                format!("({x} + {y})")
            }
            UExpr::Mul(a, b) => {
                let (mut x, mut y) = (self.render_uexpr(a), self.render_uexpr(b));
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                format!("{x}·{y}")
            }
            UExpr::Pred(p) => self.render_pred(p),
            UExpr::Rel(r, arg) => {
                format!(
                    "{}({})",
                    self.catalog.relation(*r).name,
                    self.render_expr(arg)
                )
            }
            UExpr::Squash(inner) => format!("‖{}‖", self.render_uexpr(inner)),
            UExpr::Not(inner) => format!("¬({})", self.render_uexpr(inner)),
            UExpr::Sum(v, s, body) => {
                let saved = self.env.get(v).copied();
                let id = self.bind(*v);
                let body = self.render_uexpr(body);
                match saved {
                    Some(old) => {
                        self.env.insert(*v, old);
                    }
                    None => {
                        self.env.remove(v);
                    }
                }
                self.next -= 1;
                format!("Σ{{{id}:{}}} {body}", schema_desc(self.catalog, *s))
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
        let attrs = || vec![("a".to_string(), Ty::Int)];
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
