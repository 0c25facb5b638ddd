//! Congruence closure over scalar/tuple expressions (Nelson–Oppen \[43\]).
//!
//! TDP checks predicate-set equivalence by "first computing the equivalence
//! classes of variables and function applications and then checking for
//! equivalence of the expressions using the equivalence classes" (Sec 5.2).
//! This module implements that engine: a union-find over hash-consed
//! expression nodes with upward congruence propagation
//! (`x ≈ y ⇒ f(…x…) ≈ f(…y…)`, including attribute projections
//! `x ≈ y ⇒ x.a ≈ y.a`), plus the tuple-theory decompositions
//! record-injectivity and concat-injectivity.
//!
//! Aggregates `agg(E)` are uninterpreted: a node's signature is the aggregate
//! name plus an alpha-normalized body *skeleton* in which free variables are
//! replaced by numbered placeholders; the actual free variables become
//! congruence children, so `sum(… y₁ …) ≈ sum(… y₂ …)` follows from
//! `y₁ ≈ y₂`. The skeleton is computed once per shared body
//! ([`crate::expr::AggBody::skeleton`]) and the node holds it by reference,
//! so interning an aggregate again — in every canonize iteration and every
//! matcher candidate — copies a pointer and hashes a cached hash.

use crate::expr::{AggBody, Expr, Pred, Value, VarId};
use crate::schema::SchemaId;
use crate::uexpr::UExpr;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use udp_obs::{Counter, Recorder};

/// Node operator: the un-curried head symbol of an expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Op {
    Var(VarId),
    Const(Value),
    Attr(String),
    App(String),
    /// Aggregate: name + the body's shared skeleton (free variables
    /// replaced by placeholders in sorted order, binders alpha-normalized).
    Agg(String, AggBody),
    Record(Vec<String>),
    Concat(SchemaId),
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    children: Vec<usize>,
    /// A representative source expression for reporting / witness search.
    expr: Expr,
    /// Free variables occurring anywhere below this node.
    vars: BTreeSet<VarId>,
}

/// Congruence closure engine. Build one per SPNF term, assert its equality
/// predicates, then query.
#[derive(Debug, Default)]
pub struct Congruence {
    nodes: Vec<Node>,
    /// Union-find parent links.
    uf: Vec<usize>,
    /// Hash-consing / congruence signatures: (op, canonical child roots).
    sig: HashMap<(Op, Vec<usize>), usize>,
    /// Application nodes that have a member of the keyed class as a child.
    parents: HashMap<usize, Vec<usize>>,
    /// Members of each class (keyed by root).
    members: HashMap<usize, Vec<usize>>,
    /// Pending merges discovered during congruence propagation.
    worklist: Vec<(usize, usize)>,
    /// Counter sink: [`Counter::TermNodes`], [`Counter::CongruenceUnions`],
    /// [`Counter::CongruenceFinds`]. Disabled by default.
    recorder: Recorder,
}

/// Alpha-normalize a U-expression: rename bound variables to a canonical
/// numbering (first-binder-encountered order), leaving free variables alone.
/// Two alpha-equivalent expressions normalize to identical trees.
pub fn alpha_normalize(e: &UExpr) -> UExpr {
    fn go(e: &UExpr, next: &mut u32, env: &BTreeMap<VarId, VarId>) -> UExpr {
        match e {
            UExpr::Zero => UExpr::Zero,
            UExpr::One => UExpr::One,
            UExpr::Add(a, b) => UExpr::add(go(a, next, env), go(b, next, env)),
            UExpr::Mul(a, b) => UExpr::mul(go(a, next, env), go(b, next, env)),
            UExpr::Pred(p) => UExpr::Pred(p.subst_map(&|v| env.get(&v).map(|nv| Expr::Var(*nv)))),
            UExpr::Rel(r, arg) => {
                UExpr::Rel(*r, arg.subst_map(&|v| env.get(&v).map(|nv| Expr::Var(*nv))))
            }
            UExpr::Squash(x) => UExpr::squash(go(x, next, env)),
            UExpr::Not(x) => UExpr::not(go(x, next, env)),
            UExpr::Sum(v, s, body) => {
                let nv = VarId(ALPHA_BASE + *next);
                *next += 1;
                let mut env2 = env.clone();
                env2.insert(*v, nv);
                UExpr::Sum(nv, *s, Box::new(go(body, next, &env2)))
            }
        }
    }
    go(e, &mut 0, &BTreeMap::new())
}

/// Base id for canonical bound variables in alpha-normal forms; far above any
/// variable a realistic problem generates.
pub const ALPHA_BASE: u32 = 1 << 30;

/// Base id for free-variable placeholders in aggregate skeletons.
const PLACEHOLDER_BASE: u32 = (1 << 30) + (1 << 29);

/// Abstract an aggregate body with free variables `free`: replace each by
/// a numbered placeholder (in sorted order) and alpha-normalize binders.
/// [`AggBody::skeleton`] caches the result per body.
pub(crate) fn abstract_agg_body(body: &UExpr, free: &BTreeSet<VarId>) -> UExpr {
    let mapping: BTreeMap<VarId, VarId> = free
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, VarId(PLACEHOLDER_BASE + i as u32)))
        .collect();
    let abstracted = body.subst_map(&|v| mapping.get(&v).map(|nv| Expr::Var(*nv)));
    alpha_normalize(&abstracted)
}

impl Congruence {
    /// An empty closure.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty closure tallying its traffic on `recorder`.
    pub fn with_recorder(recorder: Recorder) -> Self {
        Self {
            recorder,
            ..Self::default()
        }
    }

    fn root(&self, mut i: usize) -> usize {
        self.recorder.count(Counter::CongruenceFinds, 1);
        while self.uf[i] != i {
            i = self.uf[i];
        }
        i
    }

    /// Intern an expression, returning its node id.
    pub fn intern(&mut self, e: &Expr) -> usize {
        let (op, child_exprs): (Op, Vec<&Expr>) = match e {
            Expr::Var(v) => (Op::Var(*v), vec![]),
            Expr::Const(c) => (Op::Const(c.clone()), vec![]),
            Expr::Attr(base, a) => (Op::Attr(a.clone()), vec![base]),
            Expr::App(f, args) => (Op::App(f.clone()), args.iter().collect()),
            Expr::Agg(name, body) => {
                let children: Vec<usize> = body
                    .free_vars()
                    .iter()
                    .map(|v| self.intern(&Expr::Var(*v)))
                    .collect();
                let op = Op::Agg(name.clone(), body.skeleton().clone());
                return self.intern_node(op, children, e);
            }
            Expr::Record(fields) => (
                Op::Record(fields.iter().map(|(n, _)| n.clone()).collect()),
                fields.iter().map(|(_, v)| v).collect(),
            ),
            Expr::Concat(l, s, r) => (Op::Concat(*s), vec![l.as_ref(), r.as_ref()]),
        };
        let children: Vec<usize> = child_exprs.into_iter().map(|c| self.intern(c)).collect();
        self.intern_node(op, children, e)
    }

    fn intern_node(&mut self, op: Op, children: Vec<usize>, expr: &Expr) -> usize {
        let canon: Vec<usize> = children.iter().map(|&c| self.root(c)).collect();
        if let Some(&existing) = self.sig.get(&(op.clone(), canon.clone())) {
            return existing;
        }
        let id = self.nodes.len();
        self.recorder.count(Counter::TermNodes, 1);
        let mut vars = BTreeSet::new();
        expr.collect_vars(&mut vars);
        self.nodes.push(Node {
            op: op.clone(),
            children: children.clone(),
            expr: expr.clone(),
            vars,
        });
        self.uf.push(id);
        self.members.insert(id, vec![id]);
        self.sig.insert((op, canon.clone()), id);
        for c in canon {
            self.parents.entry(c).or_default().push(id);
        }
        // Theory propagation: the new node may be an Attr over a class that
        // already holds a record (projection alignment fires on the child's
        // class), or may itself join a class with records later.
        self.propagate_theories(id);
        for c in self.nodes[id].children.clone() {
            let rc = self.root(c);
            self.propagate_theories(rc);
        }
        self.process_worklist();
        id
    }

    /// Assert `a = b`.
    pub fn assert_eq(&mut self, a: &Expr, b: &Expr) {
        let na = self.intern(a);
        let nb = self.intern(b);
        self.merge(na, nb);
        self.process_worklist();
    }

    /// Assert every equality predicate in `preds` (other atoms ignored).
    pub fn assert_preds<'a>(&mut self, preds: impl IntoIterator<Item = &'a Pred>) {
        for p in preds {
            if let Pred::Eq(a, b) = p {
                self.assert_eq(a, b);
            }
        }
    }

    /// Has the closure merged two *distinct* constants into one class? A
    /// set of equalities entailing `c₁ = c₂` for different constants is
    /// unsatisfiable, so a term carrying them denotes `0` at every
    /// valuation.
    pub fn inconsistent(&self) -> bool {
        let mut const_of_class: HashMap<usize, &Value> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Op::Const(c) = &n.op {
                let r = self.root(i);
                match const_of_class.get(&r) {
                    Some(prev) if **prev != *c => return true,
                    _ => {
                        const_of_class.insert(r, c);
                    }
                }
            }
        }
        false
    }

    /// One-pass map from class root to the constant the class carries (if
    /// any). Built once and probed per predicate — the batch counterpart of
    /// [`Congruence::constant_of`] for hot paths.
    pub fn class_constants(&self) -> HashMap<usize, Value> {
        let mut out = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Op::Const(c) = &n.op {
                out.insert(self.root(i), c.clone());
            }
        }
        out
    }

    /// The constant (if any) in the class of `e`.
    pub fn constant_of(&mut self, e: &Expr) -> Option<Value> {
        let r = self.class_of(e);
        self.class_constants().remove(&r)
    }

    /// Is `a ≠ b` *entailed* by the closure — both classes carry constants
    /// and the constants differ? (The dual of [`Congruence::inconsistent`]:
    /// such a disequality predicate is vacuously true and can be dropped.)
    pub fn entails_ne(&mut self, a: &Expr, b: &Expr) -> bool {
        match (self.constant_of(a), self.constant_of(b)) {
            (Some(ca), Some(cb)) => ca != cb,
            _ => false,
        }
    }

    /// Are `a` and `b` in the same class?
    pub fn same(&mut self, a: &Expr, b: &Expr) -> bool {
        let na = self.intern(a);
        let nb = self.intern(b);
        self.root(na) == self.root(nb)
    }

    /// Class id (root) of an expression.
    pub fn class_of(&mut self, e: &Expr) -> usize {
        let n = self.intern(e);
        self.root(n)
    }

    /// Class id (root) of a node returned by [`Congruence::intern`].
    pub fn class_of_node(&self, node: usize) -> usize {
        self.root(node)
    }

    fn merge(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return;
        }
        self.recorder.count(Counter::CongruenceUnions, 1);
        // Union by member count.
        let (big, small) = {
            let la = self.members.get(&ra).map_or(0, Vec::len);
            let lb = self.members.get(&rb).map_or(0, Vec::len);
            if la >= lb {
                (ra, rb)
            } else {
                (rb, ra)
            }
        };
        self.uf[small] = big;
        let small_members = self.members.remove(&small).unwrap_or_default();
        self.members.entry(big).or_default().extend(small_members);

        // Re-canonicalize parent signatures of the absorbed class; congruent
        // parents get scheduled for merging.
        let moved_parents = self.parents.remove(&small).unwrap_or_default();
        for p in moved_parents {
            let canon: Vec<usize> = self.nodes[p]
                .children
                .iter()
                .map(|&c| self.root(c))
                .collect();
            let key = (self.nodes[p].op.clone(), canon);
            if let Some(&other) = self.sig.get(&key) {
                if self.root(other) != self.root(p) {
                    self.worklist.push((other, p));
                }
            } else {
                self.sig.insert(key, p);
            }
            self.parents.entry(big).or_default().push(p);
        }
        self.propagate_theories(big);
    }

    fn process_worklist(&mut self) {
        while let Some((a, b)) = self.worklist.pop() {
            self.merge(a, b);
        }
    }

    /// Tuple-theory rules on the class containing `node`:
    /// record-injectivity, concat-injectivity, and record/projection
    /// alignment (`c ≈ ⟨…, a = e, …⟩ ⇒ c.a ≈ e`).
    fn propagate_theories(&mut self, node: usize) {
        let root = self.root(node);
        let members = match self.members.get(&root) {
            Some(m) => m.clone(),
            None => return,
        };
        // Record / Concat injectivity among members.
        let mut first_record: Option<usize> = None;
        let mut first_concat: Option<usize> = None;
        for &m in &members {
            match &self.nodes[m].op {
                Op::Record(names) => {
                    if let Some(r0) = first_record {
                        if let Op::Record(names0) = &self.nodes[r0].op {
                            if names0 == names {
                                for (c0, c1) in self.nodes[r0]
                                    .children
                                    .clone()
                                    .into_iter()
                                    .zip(self.nodes[m].children.clone())
                                {
                                    self.worklist.push((c0, c1));
                                }
                            }
                        }
                    } else {
                        first_record = Some(m);
                    }
                }
                Op::Concat(s) => {
                    if let Some(c0) = first_concat {
                        if let Op::Concat(s0) = &self.nodes[c0].op {
                            if s0 == s {
                                for (a, b) in self.nodes[c0]
                                    .children
                                    .clone()
                                    .into_iter()
                                    .zip(self.nodes[m].children.clone())
                                {
                                    self.worklist.push((a, b));
                                }
                            }
                        }
                    } else {
                        first_concat = Some(m);
                    }
                }
                _ => {}
            }
        }
        // Projection alignment: for a record member and any Attr parent of
        // this class, merge the projection with the record field.
        if let Some(rec) = first_record {
            let (names, fields) = match &self.nodes[rec].op {
                Op::Record(names) => (names.clone(), self.nodes[rec].children.clone()),
                _ => unreachable!(),
            };
            let parent_list = self.parents.get(&root).cloned().unwrap_or_default();
            for p in parent_list {
                if let Op::Attr(a) = &self.nodes[p].op {
                    // Only when the projected base is in this class.
                    let base = self.nodes[p].children[0];
                    if self.root(base) == root {
                        if let Some(idx) = names.iter().position(|n| n == a) {
                            self.worklist.push((p, fields[idx]));
                        }
                    }
                }
            }
        }
    }

    /// Find a member of `e`'s class whose expression does not mention `v`
    /// (the witness required by Eq. (15) elimination). Prefers the smallest
    /// such expression for compact output.
    pub fn rep_without_var(&mut self, e: &Expr, v: VarId) -> Option<Expr> {
        let root = self.class_of(e);
        let members = self.members.get(&root)?;
        members
            .iter()
            .filter(|&&m| !self.nodes[m].vars.contains(&v))
            .map(|&m| self.nodes[m].expr.clone())
            .min_by_key(Expr::size)
    }

    /// All member expressions of `e`'s class that do not mention `v`
    /// (callers apply their own canonical-witness preference).
    pub fn members_without_var(&mut self, e: &Expr, v: VarId) -> Vec<Expr> {
        let root = self.class_of(e);
        match self.members.get(&root) {
            None => vec![],
            Some(members) => members
                .iter()
                .filter(|&&m| !self.nodes[m].vars.contains(&v))
                .map(|&m| self.nodes[m].expr.clone())
                .collect(),
        }
    }

    /// Find a member of `e`'s class whose free variables all satisfy `ok`
    /// (used by the squash-invariance analysis: "is this expression
    /// determined by already-determined variables?").
    pub fn rep_where(&mut self, e: &Expr, ok: &dyn Fn(VarId) -> bool) -> Option<Expr> {
        let root = self.class_of(e);
        let members = self.members.get(&root)?;
        members
            .iter()
            .filter(|&&m| self.nodes[m].vars.iter().all(|&w| ok(w)))
            .map(|&m| self.nodes[m].expr.clone())
            .min_by_key(Expr::size)
    }

    /// Does the closure entail `a = b` given the asserted equalities?
    pub fn entails_eq(&mut self, a: &Expr, b: &Expr) -> bool {
        self.same(a, b)
    }

    /// Number of interned nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Has nothing been interned yet?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, VarId};
    use crate::schema::{RelId, SchemaId};

    fn v(i: u32) -> VarId {
        VarId(i)
    }
    fn va(i: u32, a: &str) -> Expr {
        Expr::var_attr(v(i), a)
    }

    #[test]
    fn reflexive_and_symmetric() {
        let mut cc = Congruence::new();
        assert!(cc.same(&va(0, "a"), &va(0, "a")));
        cc.assert_eq(&va(0, "a"), &va(1, "b"));
        assert!(cc.same(&va(1, "b"), &va(0, "a")));
    }

    #[test]
    fn transitivity() {
        let mut cc = Congruence::new();
        cc.assert_eq(&va(0, "a"), &va(1, "a"));
        cc.assert_eq(&va(1, "a"), &va(2, "a"));
        assert!(cc.same(&va(0, "a"), &va(2, "a")));
        assert!(!cc.same(&va(0, "a"), &va(3, "a")));
    }

    #[test]
    fn function_congruence() {
        let mut cc = Congruence::new();
        cc.assert_eq(&va(0, "a"), &va(1, "a"));
        let fa = Expr::app("f", vec![va(0, "a")]);
        let fb = Expr::app("f", vec![va(1, "a")]);
        assert!(cc.same(&fa, &fb));
        let ga = Expr::app("g", vec![va(0, "a")]);
        assert!(!cc.same(&fa, &ga));
    }

    #[test]
    fn congruence_propagates_after_later_merge() {
        let mut cc = Congruence::new();
        let fa = Expr::app("f", vec![va(0, "a")]);
        let fb = Expr::app("f", vec![va(1, "a")]);
        cc.intern(&fa);
        cc.intern(&fb);
        assert!(!cc.same(&fa, &fb));
        cc.assert_eq(&va(0, "a"), &va(1, "a"));
        assert!(cc.same(&fa, &fb));
    }

    /// The paper's Sec 5.2 example: {a=b, c=d, b=e, f(a)=g(d)} is equivalent
    /// to {a=b, a=e, c=d, f(e)=g(c)}.
    #[test]
    fn paper_congruence_example() {
        let a = || va(0, "a");
        let b = || va(1, "b");
        let c = || va(2, "c");
        let d = || va(3, "d");
        let e = || va(4, "e");
        let mut cc = Congruence::new();
        cc.assert_eq(&a(), &b());
        cc.assert_eq(&c(), &d());
        cc.assert_eq(&b(), &e());
        cc.assert_eq(&Expr::app("f", vec![a()]), &Expr::app("g", vec![d()]));
        // From the closure: f(e) ≈ f(a) ≈ g(d) ≈ g(c).
        assert!(cc.same(&Expr::app("f", vec![e()]), &Expr::app("g", vec![c()])));
    }

    #[test]
    fn attribute_projection_congruence() {
        let mut cc = Congruence::new();
        cc.assert_eq(&Expr::Var(v(0)), &Expr::Var(v(1)));
        assert!(cc.same(&va(0, "k"), &va(1, "k")));
    }

    #[test]
    fn record_projection_alignment() {
        let mut cc = Congruence::new();
        let rec = Expr::record(vec![("a".into(), va(2, "x")), ("b".into(), Expr::int(5))]);
        cc.assert_eq(&Expr::Var(v(0)), &rec);
        assert!(cc.same(&va(0, "a"), &va(2, "x")));
        assert!(cc.same(&va(0, "b"), &Expr::int(5)));
    }

    #[test]
    fn record_injectivity() {
        let mut cc = Congruence::new();
        let r1 = Expr::record(vec![("a".into(), va(0, "x")), ("b".into(), va(0, "y"))]);
        let r2 = Expr::record(vec![("a".into(), va(1, "x")), ("b".into(), va(1, "y"))]);
        cc.assert_eq(&r1, &r2);
        assert!(cc.same(&va(0, "x"), &va(1, "x")));
        assert!(cc.same(&va(0, "y"), &va(1, "y")));
    }

    #[test]
    fn concat_injectivity() {
        let mut cc = Congruence::new();
        let c1 = Expr::Concat(
            Box::new(Expr::Var(v(0))),
            SchemaId(0),
            Box::new(Expr::Var(v(1))),
        );
        let c2 = Expr::Concat(
            Box::new(Expr::Var(v(2))),
            SchemaId(0),
            Box::new(Expr::Var(v(3))),
        );
        cc.assert_eq(&c1, &c2);
        assert!(cc.same(&Expr::Var(v(0)), &Expr::Var(v(2))));
        assert!(cc.same(&Expr::Var(v(1)), &Expr::Var(v(3))));
    }

    #[test]
    fn rep_without_var_finds_witness() {
        let mut cc = Congruence::new();
        // t0 = t1.k — eliminating t0 should find witness t1.k.
        cc.assert_eq(&Expr::Var(v(0)), &va(1, "k"));
        let w = cc.rep_without_var(&Expr::Var(v(0)), v(0)).unwrap();
        assert_eq!(w, va(1, "k"));
        // no witness avoiding t1
        assert!(
            cc.rep_without_var(&Expr::Var(v(0)), v(1)).is_none() || {
                let w2 = cc.rep_without_var(&Expr::Var(v(0)), v(1)).unwrap();
                !w2.contains_var(v(1))
            }
        );
    }

    #[test]
    fn aggregate_skeleton_congruence() {
        // agg bodies identical up to alpha-renaming and a congruent free var
        let mk = |outer: u32, inner: u32| {
            let body = UExpr::sum(
                v(inner),
                SchemaId(0),
                UExpr::mul(
                    UExpr::rel(RelId(0), Expr::Var(v(inner))),
                    UExpr::eq(va(inner, "k"), va(outer, "k")),
                ),
            );
            Expr::agg("sum", body)
        };
        let mut cc = Congruence::new();
        // different inner binder ids, same outer var → equal immediately
        assert!(cc.same(&mk(9, 1), &mk(9, 2)));
        // different outer vars → only equal once outer vars merged
        assert!(!cc.same(&mk(7, 1), &mk(8, 2)));
        cc.assert_eq(&Expr::Var(v(7)), &Expr::Var(v(8)));
        assert!(cc.same(&mk(7, 1), &mk(8, 2)));
    }

    #[test]
    fn alpha_normalize_identifies_renamings() {
        let e1 = UExpr::sum(v(3), SchemaId(0), UExpr::rel(RelId(0), Expr::Var(v(3))));
        let e2 = UExpr::sum(v(9), SchemaId(0), UExpr::rel(RelId(0), Expr::Var(v(9))));
        assert_eq!(alpha_normalize(&e1), alpha_normalize(&e2));
        let e3 = UExpr::sum(v(9), SchemaId(1), UExpr::rel(RelId(0), Expr::Var(v(9))));
        assert_ne!(alpha_normalize(&e1), alpha_normalize(&e3));
    }
}
