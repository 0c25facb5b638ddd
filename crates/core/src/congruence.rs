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
//!
//! # Cost
//!
//! A closure is rebuilt for every canonize iteration and every matcher
//! candidate, so its construction is on the hot path. Interning an
//! expression that is already present allocates only its operator and
//! child list, the signature key it is looked up by. A new node stores
//! its source expression, nothing derived from it. Classes are indexed by
//! root in plain vectors, and a flag per class skips the tuple theories
//! unless the class holds a record or a concatenation.

use crate::expr::{AggBody, Expr, Pred, Value, VarId};
use crate::schema::SchemaId;
use crate::uexpr::UExpr;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
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
}

/// The signature table's hasher: one multiply-rotate step per word, with
/// no per-table random key. Nothing iterates over the table, so its order
/// is never observed. Keys carry names from the query text, but a table
/// holds one goal's terms, so a crafted collision can slow only that goal.
#[derive(Default)]
struct SigHasher(u64);

impl Hasher for SigHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(u64::from(b));
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type SigTable = HashMap<(Op, Vec<usize>), usize, BuildHasherDefault<SigHasher>>;

/// Congruence closure engine. Build one per SPNF term, assert its equality
/// predicates, then query.
#[derive(Debug, Default)]
pub struct Congruence {
    nodes: Vec<Node>,
    /// Union-find parent links.
    uf: Vec<usize>,
    /// Hash-consing / congruence signatures: (op, canonical child roots).
    sig: SigTable,
    /// By root: application nodes that have a member of its class as a
    /// child.
    parents: Vec<Vec<usize>>,
    /// By root: the members of its class, in insertion-then-merge order
    /// (the first record or concat member anchors the tuple theories).
    /// Empty for non-roots.
    members: Vec<Vec<usize>>,
    /// By root: does its class hold a record or concat member? Only such a
    /// class has tuple-theory work.
    tuple: Vec<bool>,
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
        let (op, children) = match e {
            Expr::Var(v) => (Op::Var(*v), vec![]),
            Expr::Const(c) => (Op::Const(c.clone()), vec![]),
            Expr::Attr(base, a) => (Op::Attr(a.clone()), vec![self.intern(base)]),
            Expr::App(f, args) => {
                let children = args.iter().map(|a| self.intern(a)).collect();
                (Op::App(f.clone()), children)
            }
            Expr::Agg(name, body) => {
                let children = body
                    .free_vars()
                    .iter()
                    .map(|v| self.intern(&Expr::Var(*v)))
                    .collect();
                (Op::Agg(name.clone(), body.skeleton().clone()), children)
            }
            Expr::Record(fields) => {
                let children = fields.iter().map(|(_, v)| self.intern(v)).collect();
                (
                    Op::Record(fields.iter().map(|(n, _)| n.clone()).collect()),
                    children,
                )
            }
            Expr::Concat(l, s, r) => (Op::Concat(*s), vec![self.intern(l), self.intern(r)]),
        };
        self.intern_node(op, children, e)
    }

    /// Look `op` over `children` up in the signature table, or add it.
    /// Children are stored as the roots they have now: a root stays in its
    /// class, so every later `root` of a child is unchanged.
    fn intern_node(&mut self, op: Op, mut children: Vec<usize>, expr: &Expr) -> usize {
        for c in children.iter_mut() {
            *c = self.root(*c);
        }
        let id = self.nodes.len();
        match self.sig.entry((op, children)) {
            Entry::Occupied(hit) => return *hit.get(),
            Entry::Vacant(slot) => {
                let (op, children) = slot.key();
                for &c in children {
                    self.parents[c].push(id);
                }
                self.nodes.push(Node {
                    op: op.clone(),
                    children: children.clone(),
                    expr: expr.clone(),
                });
                slot.insert(id);
            }
        }
        self.recorder.count(Counter::TermNodes, 1);
        self.uf.push(id);
        self.members.push(vec![id]);
        self.parents.push(Vec::new());
        self.tuple
            .push(matches!(self.nodes[id].op, Op::Record(_) | Op::Concat(_)));
        // Theory propagation: the new node may be an Attr over a class that
        // already holds a record (projection alignment fires on the child's
        // class), or may itself join a class with records later.
        self.propagate_theories(id);
        for i in 0..self.nodes[id].children.len() {
            let rc = self.root(self.nodes[id].children[i]);
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
    /// any). Built once and probed per predicate.
    pub fn class_constants(&self) -> HashMap<usize, Value> {
        let mut out = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Op::Const(c) = &n.op {
                out.insert(self.root(i), c.clone());
            }
        }
        out
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
        let (big, small) = if self.members[ra].len() >= self.members[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.uf[small] = big;
        let small_members = std::mem::take(&mut self.members[small]);
        self.members[big].extend(small_members);
        self.tuple[big] |= self.tuple[small];

        // Re-canonicalize parent signatures of the absorbed class; congruent
        // parents get scheduled for merging.
        let moved_parents = std::mem::take(&mut self.parents[small]);
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
            self.parents[big].push(p);
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
        if !self.tuple[root] {
            return;
        }
        let members = self.members[root].clone();
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
            let parent_list = self.parents[root].clone();
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

    /// The member expressions of `e`'s class that do not mention `v` (the
    /// witnesses Eq. (15) elimination may use; callers apply their own
    /// canonical-witness preference).
    pub fn members_without_var(&mut self, e: &Expr, v: VarId) -> impl Iterator<Item = &Expr> {
        let root = self.class_of(e);
        self.members[root]
            .iter()
            .map(|&m| &self.nodes[m].expr)
            .filter(move |x| !x.contains_var(v))
    }

    /// Does `e`'s class have a member whose free variables all satisfy `ok`?
    /// (The squash-invariance analysis: "is this expression determined by
    /// already-determined variables?")
    pub fn has_rep_where(&mut self, e: &Expr, ok: &dyn Fn(VarId) -> bool) -> bool {
        let root = self.class_of(e);
        self.members[root]
            .iter()
            .any(|&m| self.nodes[m].expr.free_vars().iter().all(|&w| ok(w)))
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
        // A long chain closes end to end, also under a function symbol.
        let mut cc = Congruence::new();
        for i in 0..128 {
            cc.assert_eq(&va(i, "a"), &va(i + 1, "a"));
        }
        let f = |i| Expr::app("f", vec![va(i, "a")]);
        assert!(cc.same(&f(0), &f(128)));
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
    fn members_without_var_are_witnesses() {
        let mut cc = Congruence::new();
        // t0 = t1.k — eliminating t0 should find witness t1.k.
        cc.assert_eq(&Expr::Var(v(0)), &va(1, "k"));
        let w: Vec<&Expr> = cc.members_without_var(&Expr::Var(v(0)), v(0)).collect();
        assert_eq!(w, vec![&va(1, "k")]);
        // No witness avoids t1 but t0 itself.
        let w: Vec<&Expr> = cc.members_without_var(&Expr::Var(v(0)), v(1)).collect();
        assert_eq!(w, vec![&Expr::Var(v(0))]);
        // A class without records carries no tuple-theory flag; asserting a
        // record into it sets the flag on the merged root.
        let root = cc.class_of(&Expr::Var(v(0)));
        assert!(!cc.tuple[root]);
        cc.assert_eq(
            &Expr::Var(v(0)),
            &Expr::record(vec![("k".into(), va(2, "k"))]),
        );
        let root = cc.class_of(&Expr::Var(v(0)));
        assert!(cc.tuple[root]);
        assert!(cc.has_rep_where(&Expr::Var(v(0)), &|w| w == v(2)));
        assert!(!cc.has_rep_where(&Expr::Var(v(0)), &|w| w == v(3)));
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
