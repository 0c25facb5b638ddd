//! Concrete interpretation of U-expressions over a U-semiring model.
//!
//! `⟦E⟧ : (environment, interpretation) → S` for any [`USemiring`] `S`, with
//! *finite* summation domains (every tuple over small per-type value
//! domains). This is the executable counterpart of Def 3.2, used to
//! validate the rewrite system: SPNF conversion and canonization must
//! preserve the interpreted value on every (constraint-satisfying)
//! interpretation — our empirical stand-in for the paper's Lean proofs (see
//! `proof`).
//!
//! Uninterpreted functions, predicates, and aggregates receive fixed
//! pseudo-random (hash-based) interpretations — any function is an
//! admissible model of an uninterpreted symbol.

use crate::expr::{Expr, Pred, Value, VarId};
use crate::name::Name;
use crate::schema::{Catalog, RelId, SchemaId, Ty};
use crate::semiring::USemiring;
use crate::uexpr::UExpr;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// A concrete value: scalar or named tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Val {
    /// The distinguished NULL tag (udp-ext encoding): one extra domain
    /// element of every nullable attribute, equal only to itself.
    Null,
    /// Integer scalar.
    Int(i64),
    /// Boolean scalar.
    Bool(bool),
    /// String scalar.
    Str(String),
    /// Named tuple.
    Tuple(BTreeMap<Name, Val>),
}

impl Val {
    /// Project a field of a tuple value.
    pub fn field(&self, name: &str) -> Option<&Val> {
        match self {
            Val::Tuple(fields) => fields.get(name),
            _ => None,
        }
    }
}

/// An interpretation: finite summation domains per schema and a multiplicity
/// function per relation.
#[derive(Debug, Clone)]
pub struct Interp<S: USemiring> {
    /// All tuples of each schema's summation domain `Tuple(σ)`.
    pub domains: HashMap<SchemaId, Vec<Val>>,
    /// Relation functions `⟦R⟧ : Tuple(σ) → S` (absent tuples map to 0).
    pub relations: HashMap<RelId, HashMap<Val, S>>,
    /// Salt for the uninterpreted-symbol models.
    pub salt: u64,
}

/// Per-type value domains used to enumerate `Tuple(σ)`.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Values an `int`-typed attribute ranges over.
    pub ints: Vec<i64>,
    /// Values a `string`-typed attribute ranges over.
    pub strs: Vec<String>,
}

impl Default for DomainSpec {
    fn default() -> Self {
        DomainSpec {
            ints: vec![0, 1, 2],
            strs: vec!["s0".into(), "s1".into()],
        }
    }
}

impl DomainSpec {
    fn values(&self, ty: Ty) -> Vec<Val> {
        match ty {
            Ty::Int | Ty::Unknown => self.ints.iter().map(|i| Val::Int(*i)).collect(),
            Ty::Bool => vec![Val::Bool(false), Val::Bool(true)],
            Ty::Str => self.strs.iter().map(|s| Val::Str(s.clone())).collect(),
        }
    }

    /// Domain values of one attribute; nullable attributes (udp-ext
    /// encoding) additionally range over the NULL tag.
    fn values_nullable(&self, ty: Ty, nullable: bool) -> Vec<Val> {
        let mut vals = self.values(ty);
        if nullable {
            vals.push(Val::Null);
        }
        vals
    }
}

/// Enumerate every tuple of `schema` over the domain spec. Open schemas are
/// enumerated over their declared attributes only (a finite restriction —
/// adequate for testing, documented in DESIGN.md). Nullable attributes
/// additionally range over [`Val::Null`].
pub fn enumerate_tuples(catalog: &Catalog, schema: SchemaId, spec: &DomainSpec) -> Vec<Val> {
    let s = catalog.schema(schema);
    let mut tuples: Vec<BTreeMap<Name, Val>> = vec![BTreeMap::new()];
    for (i, (attr, ty)) in s.attrs.iter().enumerate() {
        let nullable = s.nullable.get(i).copied().unwrap_or(false);
        let vals = spec.values_nullable(*ty, nullable);
        let mut next = Vec::with_capacity(tuples.len() * vals.len());
        for t in &tuples {
            for v in &vals {
                let mut t2 = t.clone();
                t2.insert(attr.clone(), v.clone());
                next.push(t2);
            }
        }
        tuples = next;
    }
    tuples.into_iter().map(Val::Tuple).collect()
}

impl<S: USemiring + Hash> Interp<S> {
    /// Build an interpretation with full domains for every schema and empty
    /// relations.
    pub fn new(catalog: &Catalog, spec: &DomainSpec) -> Self {
        let mut domains = HashMap::new();
        for (sid, _) in catalog.schemas() {
            domains.insert(sid, enumerate_tuples(catalog, sid, spec));
        }
        Interp {
            domains,
            relations: HashMap::new(),
            salt: 0,
        }
    }

    /// Set the multiplicity function of a relation (absent tuples map to 0).
    pub fn set_relation(&mut self, rel: RelId, rows: impl IntoIterator<Item = (Val, S)>) {
        self.relations.insert(rel, rows.into_iter().collect());
    }

    fn rel_value(&self, rel: RelId, tuple: &Val) -> S {
        self.relations
            .get(&rel)
            .and_then(|m| m.get(tuple))
            .cloned()
            .unwrap_or_else(S::zero)
    }

    fn hash_of(&self, tag: &str, parts: &[&dyn DynHash]) -> u64 {
        let mut h = DefaultHasher::new();
        self.salt.hash(&mut h);
        tag.hash(&mut h);
        for p in parts {
            p.dyn_hash(&mut h);
        }
        h.finish()
    }

    /// Evaluate a scalar/tuple expression.
    pub fn eval_expr(&self, e: &Expr, env: &BTreeMap<VarId, Val>) -> Val {
        match e {
            Expr::Var(v) => env.get(v).cloned().unwrap_or(Val::Int(0)),
            Expr::Attr(base, a) => {
                let b = self.eval_expr(base, env);
                b.field(a).cloned().unwrap_or(Val::Int(0))
            }
            Expr::Const(Value::Null) => Val::Null,
            Expr::Const(Value::Int(i)) => Val::Int(*i),
            Expr::Const(Value::Bool(b)) => Val::Bool(*b),
            Expr::Const(Value::Str(s)) => Val::Str(s.clone()),
            Expr::App(f, args) => {
                let vals: Vec<Val> = args.iter().map(|a| self.eval_expr(a, env)).collect();
                Val::Int((self.hash_of("fn", &[&f.as_str(), &vals]) % 101) as i64)
            }
            Expr::Agg(name, body) => {
                // Uninterpreted aggregate of the function λz.⟦body⟧: hash the
                // graph of the function over the (finite) domain.
                match &**body {
                    UExpr::Sum(z, sid, inner) => {
                        let domain: &[Val] =
                            self.domains.get(sid).map(|d| d.as_slice()).unwrap_or(&[]);
                        let mut graph: Vec<(Val, S)> = Vec::with_capacity(domain.len());
                        let mut env2 = env.clone();
                        for t in domain {
                            env2.insert(*z, t.clone());
                            graph.push((t.clone(), self.eval_uexpr(inner, &env2)));
                        }
                        Val::Int((self.hash_of("agg", &[&name.as_str(), &graph]) % 101) as i64)
                    }
                    other => {
                        let v = self.eval_uexpr(other, env);
                        Val::Int((self.hash_of("agg0", &[&name.as_str(), &v]) % 101) as i64)
                    }
                }
            }
            Expr::Record(fields) => Val::Tuple(
                fields
                    .iter()
                    .map(|(n, e)| (n.clone(), self.eval_expr(e, env)))
                    .collect(),
            ),
            Expr::Concat(l, _, r) => {
                let lv = self.eval_expr(l, env);
                let rv = self.eval_expr(r, env);
                match (lv, rv) {
                    (Val::Tuple(mut a), Val::Tuple(b)) => {
                        for (k, v) in b {
                            a.entry(k).or_insert(v);
                        }
                        Val::Tuple(a)
                    }
                    (a, _) => a,
                }
            }
        }
    }

    /// Evaluate a predicate to a boolean (\[b\] ∈ {0, 1}).
    pub fn eval_pred(&self, p: &Pred, env: &BTreeMap<VarId, Val>) -> bool {
        match p {
            Pred::Eq(a, b) => self.eval_expr(a, env) == self.eval_expr(b, env),
            Pred::Ne(a, b) => self.eval_expr(a, env) != self.eval_expr(b, env),
            Pred::Lift {
                name,
                args,
                negated,
            } => {
                let vals: Vec<Val> = args.iter().map(|a| self.eval_expr(a, env)).collect();
                let raw = match name.as_str() {
                    // Comparisons get their standard meaning so that e.g.
                    // `NOT (a < b) = (a >= b)` really holds in the model.
                    "lt" | "le" | "gt" | "ge" if vals.len() == 2 => {
                        let ord = vals[0].cmp(&vals[1]);
                        match name.as_str() {
                            "lt" => ord.is_lt(),
                            "le" => ord.is_le(),
                            "gt" => ord.is_gt(),
                            _ => ord.is_ge(),
                        }
                    }
                    _ => self.hash_of("pred", &[&name.as_str(), &vals]) % 2 == 0,
                };
                raw != *negated
            }
        }
    }

    /// Evaluate a U-expression to a semiring value.
    pub fn eval_uexpr(&self, e: &UExpr, env: &BTreeMap<VarId, Val>) -> S {
        match e {
            UExpr::Zero => S::zero(),
            UExpr::One => S::one(),
            UExpr::Add(a, b) => self.eval_uexpr(a, env).add(&self.eval_uexpr(b, env)),
            UExpr::Mul(a, b) => self.eval_uexpr(a, env).mul(&self.eval_uexpr(b, env)),
            UExpr::Pred(p) => S::from_bool(self.eval_pred(p, env)),
            UExpr::Rel(r, arg) => {
                let t = self.eval_expr(arg, env);
                self.rel_value(*r, &t)
            }
            UExpr::Squash(x) => self.eval_uexpr(x, env).squash(),
            UExpr::Not(x) => self.eval_uexpr(x, env).not(),
            UExpr::Sum(v, sid, body) => {
                let domain: &[Val] = self.domains.get(sid).map(|d| d.as_slice()).unwrap_or(&[]);
                let mut acc = S::zero();
                let mut env2 = env.clone();
                for t in domain {
                    env2.insert(*v, t.clone());
                    acc = acc.add(&self.eval_uexpr(body, &env2));
                }
                acc
            }
        }
    }

    /// Does this interpretation satisfy a key constraint on `rel.attrs`?
    pub fn satisfies_key(&self, rel: RelId, attrs: &[Name]) -> bool {
        let Some(rows) = self.relations.get(&rel) else {
            return true;
        };
        let live: Vec<(&Val, &S)> = rows.iter().filter(|(_, s)| **s != S::zero()).collect();
        for (i, (t1, s1)) in live.iter().enumerate() {
            // multiplicity must be idempotent: R(t)² = R(t)
            if s1.mul(s1) != **s1 {
                return false;
            }
            for (t2, _) in live.iter().skip(i + 1) {
                let same_key = attrs.iter().all(|a| t1.field(a) == t2.field(a));
                if same_key {
                    return false;
                }
            }
        }
        true
    }
}

/// Object-safe hashing helper.
trait DynHash {
    fn dyn_hash(&self, h: &mut DefaultHasher);
}

impl<T: Hash> DynHash for T {
    fn dyn_hash(&self, h: &mut DefaultHasher) {
        self.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Nat;
    use crate::spnf::normalize;

    fn setup() -> (Catalog, SchemaId, RelId) {
        let mut cat = Catalog::new();
        let sid = cat
            .add_schema(crate::schema::Schema::new(
                "s",
                vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        let r = cat.add_relation("R", sid).unwrap();
        (cat, sid, r)
    }

    fn tup(k: i64, a: i64) -> Val {
        Val::Tuple(BTreeMap::from([
            ("k".into(), Val::Int(k)),
            ("a".into(), Val::Int(a)),
        ]))
    }

    #[test]
    fn domains_enumerate_all_tuples() {
        let (cat, sid, _) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let tuples = enumerate_tuples(&cat, sid, &spec);
        assert_eq!(tuples.len(), 4); // 2 attrs × 2 values
    }

    #[test]
    fn relation_multiplicities() {
        let (cat, _, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<Nat> = Interp::new(&cat, &spec);
        interp.set_relation(r, vec![(tup(0, 1), Nat(2))]);
        let e = UExpr::rel(r, Expr::Var(VarId(0)));
        let env = BTreeMap::from([(VarId(0), tup(0, 1))]);
        assert_eq!(interp.eval_uexpr(&e, &env), Nat(2));
        let env0 = BTreeMap::from([(VarId(0), tup(1, 1))]);
        assert_eq!(interp.eval_uexpr(&e, &env0), Nat(0));
    }

    #[test]
    fn summation_counts_multiplicities() {
        let (cat, sid, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<Nat> = Interp::new(&cat, &spec);
        interp.set_relation(r, vec![(tup(0, 0), Nat(2)), (tup(1, 1), Nat(3))]);
        // Σ_t R(t) = 5
        let e = UExpr::sum(VarId(0), sid, UExpr::rel(r, Expr::Var(VarId(0))));
        assert_eq!(interp.eval_uexpr(&e, &BTreeMap::new()), Nat(5));
        // Σ_t ‖R(t)‖ = 2
        let e = UExpr::sum(
            VarId(0),
            sid,
            UExpr::squash(UExpr::rel(r, Expr::Var(VarId(0)))),
        );
        assert_eq!(interp.eval_uexpr(&e, &BTreeMap::new()), Nat(2));
    }

    #[test]
    fn eq15_holds_in_model() {
        // Σ_t [t = e] × R(t) = R(e)
        let (cat, sid, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<Nat> = Interp::new(&cat, &spec);
        interp.set_relation(r, vec![(tup(0, 1), Nat(4))]);
        let env = BTreeMap::from([(VarId(9), tup(0, 1))]);
        let lhs = UExpr::sum(
            VarId(0),
            sid,
            UExpr::mul(
                UExpr::eq(Expr::Var(VarId(0)), Expr::Var(VarId(9))),
                UExpr::rel(r, Expr::Var(VarId(0))),
            ),
        );
        assert_eq!(interp.eval_uexpr(&lhs, &env), Nat(4));
    }

    #[test]
    fn normalize_preserves_value_on_example() {
        let (cat, sid, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<Nat> = Interp::new(&cat, &spec);
        interp.set_relation(r, vec![(tup(0, 0), Nat(1)), (tup(1, 0), Nat(2))]);
        let e = UExpr::squash(UExpr::mul(
            UExpr::sum(VarId(0), sid, UExpr::rel(r, Expr::Var(VarId(0)))),
            UExpr::add(
                UExpr::One,
                UExpr::sum(VarId(1), sid, UExpr::rel(r, Expr::Var(VarId(1)))),
            ),
        ));
        let nf = normalize(&e);
        let before = interp.eval_uexpr(&e, &BTreeMap::new());
        let after = interp.eval_uexpr(&nf.to_uexpr(), &BTreeMap::new());
        assert_eq!(before, after);
    }

    #[test]
    fn key_satisfaction_detects_duplicates() {
        let (cat, _, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<Nat> = Interp::new(&cat, &spec);
        interp.set_relation(r, vec![(tup(0, 0), Nat(1)), (tup(0, 1), Nat(1))]);
        assert!(!interp.satisfies_key(r, &["k".into()]));
        assert!(interp.satisfies_key(r, &["k".into(), "a".into()]));
        // multiplicity 2 violates the key identity (R(t)² ≠ R(t))
        let mut interp2: Interp<Nat> = Interp::new(&cat, &spec);
        interp2.set_relation(r, vec![(tup(0, 0), Nat(2))]);
        assert!(!interp2.satisfies_key(r, &["k".into()]));
    }

    #[test]
    fn join_lineage_under_boolean_provenance() {
        use crate::semiring::BoolProv;
        // R = {t0 ↦ x0, t1 ↦ x1}; the self-join on `k` of the two distinct
        // tuples is empty, and the diagonal pairs carry lineage xᵢ ∧ xᵢ = xᵢ.
        let (cat, sid, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<BoolProv> = Interp::new(&cat, &spec);
        interp.set_relation(
            r,
            vec![(tup(0, 0), BoolProv::var(0)), (tup(1, 1), BoolProv::var(1))],
        );
        // Σ_{t,u} [t.k = u.k] × R(t) × R(u)  — lineage of the join's support.
        let (t, u) = (VarId(0), VarId(1));
        let e = UExpr::sum_over(
            vec![(t, sid), (u, sid)],
            UExpr::product(vec![
                UExpr::eq(Expr::var_attr(t, "k"), Expr::var_attr(u, "k")),
                UExpr::rel(r, Expr::Var(t)),
                UExpr::rel(r, Expr::Var(u)),
            ]),
        );
        let lineage = interp.eval_uexpr(&e, &BTreeMap::new());
        // x0 ∨ x1: the join is non-empty iff either base tuple is present.
        assert_eq!(lineage, BoolProv::var(0).add(&BoolProv::var(1)));
        // Deleting both inputs kills the result; keeping either preserves it.
        assert!(!lineage.eval_at(0b00));
        assert!(lineage.eval_at(0b01));
        assert!(lineage.eval_at(0b10));
    }

    #[test]
    fn fuzzy_degrees_combine_with_min_and_max() {
        use crate::semiring::Fuzzy;
        let (cat, sid, r) = setup();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let mut interp: Interp<Fuzzy> = Interp::new(&cat, &spec);
        interp.set_relation(
            r,
            vec![(tup(0, 0), Fuzzy::new(30)), (tup(1, 1), Fuzzy::new(80))],
        );
        // Σ_t R(t): the best membership degree of any tuple.
        let e = UExpr::sum(VarId(0), sid, UExpr::rel(r, Expr::Var(VarId(0))));
        assert_eq!(interp.eval_uexpr(&e, &BTreeMap::new()), Fuzzy::new(80));
        // Σ_{t,u≠t} R(t) × R(u): best degree of a pair = min within the pair.
        let (t, u) = (VarId(0), VarId(1));
        let e = UExpr::sum_over(
            vec![(t, sid), (u, sid)],
            UExpr::product(vec![
                UExpr::Pred(crate::expr::Pred::Ne(Expr::Var(t), Expr::Var(u))),
                UExpr::rel(r, Expr::Var(t)),
                UExpr::rel(r, Expr::Var(u)),
            ]),
        );
        assert_eq!(interp.eval_uexpr(&e, &BTreeMap::new()), Fuzzy::new(30));
    }

    #[test]
    fn comparisons_have_standard_meaning() {
        let (cat, _, _) = setup();
        let spec = DomainSpec::default();
        let interp: Interp<Nat> = Interp::new(&cat, &spec);
        let p = Pred::lift("lt", vec![Expr::int(1), Expr::int(2)]);
        assert!(interp.eval_pred(&p, &BTreeMap::new()));
        assert!(!interp.eval_pred(&p.negate(), &BTreeMap::new()));
    }
}
