//! Scalar and tuple expressions, predicates, variables, and substitution.
//!
//! These correspond to `Expression`/`Predicate` in Fig 2 of the paper and to
//! the path expressions of the unnamed IR (Appendix A.2). We use flat named
//! schemas instead of the paper's binary-tree encoding (a Lean artifact, see
//! DESIGN.md §4); a tuple expression is either a tuple variable, a record
//! constructor, or a concatenation of two tuples (the output of a join under
//! `SELECT *`).

use crate::schema::SchemaId;
use crate::uexpr::UExpr;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A tuple variable. Variables are globally fresh within one verification
/// problem; [`VarGen`] hands them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Generator of fresh [`VarId`]s.
#[derive(Debug, Clone, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a generator whose ids start above every variable in `exprs`,
    /// so freshly generated variables cannot capture.
    pub fn above(start: u32) -> Self {
        VarGen { next: start }
    }

    /// Hand out the next fresh variable.
    pub fn fresh(&mut self) -> VarId {
        let v = VarId(self.next);
        self.next += 1;
        v
    }

    /// First id this generator has not yet issued.
    pub fn watermark(&self) -> u32 {
        self.next
    }

    /// Bump the watermark so all future ids exceed `v`.
    pub fn reserve(&mut self, v: VarId) {
        if v.0 >= self.next {
            self.next = v.0 + 1;
        }
    }
}

/// Constant values appearing in queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The distinguished NULL tag of the udp-ext nullable-value encoding: a
    /// constant distinct from every other constant. SQL's three-valued
    /// comparison semantics are compiled away *before* lowering (udp-ext
    /// guards every comparison over nullable operands with non-NULL checks),
    /// so the core treats NULL as an ordinary constant: `[null = null]`
    /// holds, and congruence closure refutes `[x = null] × [x = 3]`.
    Null,
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
}

impl Value {
    /// Is this the distinguished NULL tag?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Bytes of owned heap data (string contents by `len`; the value
    /// itself is inline in its containing expression).
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// Scalar- or tuple-valued expressions.
///
/// `App` covers uninterpreted functions (UDFs, arithmetic, casts — anything
/// the paper treats as an uninterpreted function, Sec 6.4). `Agg` is an
/// uninterpreted aggregate applied to a U-expression denoting a subquery
/// (Sec 3.2: "aggregates are treated as uninterpreted functions").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// A tuple variable `t`.
    Var(VarId),
    /// Attribute access `e.a`.
    Attr(Box<Expr>, String),
    /// Constant literal.
    Const(Value),
    /// Uninterpreted function application `f(e₁, …, eₙ)`.
    App(String, Vec<Expr>),
    /// Uninterpreted aggregate `agg(E)` over a subquery's U-expression. The
    /// body may reference outer tuple variables (correlated aggregate). It
    /// is an [`AggBody`]: built once, shared by reference between every
    /// copy of the expression, with its free variables, congruence skeleton
    /// and alpha-normal form computed at most once.
    Agg(String, AggBody),
    /// Record constructor `{a₁ = e₁, …, aₙ = eₙ}` — a tuple literal.
    Record(Vec<(String, Expr)>),
    /// Tuple concatenation; the `SchemaId` is the schema of the left operand,
    /// needed to resolve attribute accesses through the concatenation.
    Concat(Box<Expr>, SchemaId, Box<Expr>),
}

impl Expr {
    /// The variable `t`.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Attribute access `base.a`.
    pub fn attr(base: Expr, a: impl Into<String>) -> Expr {
        Expr::Attr(Box::new(base), a.into())
    }

    /// `t.a` for a variable `t` — the overwhelmingly common case.
    pub fn var_attr(v: VarId, a: impl Into<String>) -> Expr {
        Expr::attr(Expr::Var(v), a)
    }

    /// Integer constant.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// The distinguished NULL constant (udp-ext nullable-value encoding).
    pub fn null() -> Expr {
        Expr::Const(Value::Null)
    }

    /// String constant.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Const(Value::Str(s.into()))
    }

    /// Uninterpreted function application.
    pub fn app(f: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::App(f.into(), args)
    }

    /// Uninterpreted aggregate `agg(body)`.
    pub fn agg(name: impl Into<String>, body: UExpr) -> Expr {
        Expr::Agg(name.into(), AggBody::new(body))
    }

    /// Record (tuple literal) constructor.
    pub fn record(fields: Vec<(String, Expr)>) -> Expr {
        Expr::Record(fields)
    }

    /// Whether `v` occurs free in this expression (including inside
    /// aggregate bodies).
    pub fn contains_var(&self, v: VarId) -> bool {
        match self {
            Expr::Var(w) => *w == v,
            Expr::Attr(e, _) => e.contains_var(v),
            Expr::Const(_) => false,
            Expr::App(_, args) => args.iter().any(|e| e.contains_var(v)),
            Expr::Agg(_, body) => body.free_vars().contains(&v),
            Expr::Record(fields) => fields.iter().any(|(_, e)| e.contains_var(v)),
            Expr::Concat(l, _, r) => l.contains_var(v) || r.contains_var(v),
        }
    }

    /// Collect free variables into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Expr::Var(v) => {
                out.insert(*v);
            }
            Expr::Attr(e, _) => e.collect_vars(out),
            Expr::Const(_) => {}
            Expr::App(_, args) => {
                for e in args {
                    e.collect_vars(out);
                }
            }
            Expr::Agg(_, body) => {
                out.extend(body.free_vars());
            }
            Expr::Record(fields) => {
                for (_, e) in fields {
                    e.collect_vars(out);
                }
            }
            Expr::Concat(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// Free variables of the expression (aggregate bodies included).
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Substitute `v := replacement` and simplify record/concat projections.
    pub fn subst(&self, v: VarId, replacement: &Expr) -> Expr {
        self.subst_map(&|w| {
            if w == v {
                Some(replacement.clone())
            } else {
                None
            }
        })
    }

    /// Substitute according to `lookup` (None = keep variable).
    pub fn subst_map(&self, lookup: &dyn Fn(VarId) -> Option<Expr>) -> Expr {
        match self {
            Expr::Var(w) => lookup(*w).unwrap_or(Expr::Var(*w)),
            Expr::Attr(e, a) => Expr::attr(e.subst_map(lookup), a.clone()).simplify_head(),
            Expr::Const(c) => Expr::Const(c.clone()),
            Expr::App(f, args) => Expr::App(
                f.clone(),
                args.iter().map(|e| e.subst_map(lookup)).collect(),
            ),
            Expr::Agg(name, body) => Expr::Agg(name.clone(), body.subst_map(lookup)),
            Expr::Record(fields) => Expr::Record(
                fields
                    .iter()
                    .map(|(a, e)| (a.clone(), e.subst_map(lookup)))
                    .collect(),
            ),
            Expr::Concat(l, s, r) => Expr::Concat(
                Box::new(l.subst_map(lookup)),
                *s,
                Box::new(r.subst_map(lookup)),
            ),
        }
    }

    /// Simplify a *head* attribute access: `{…, a = e, …}.a → e`. Concat
    /// resolution needs the catalog and is done in
    /// [`Expr::resolve_attr_with`].
    pub fn simplify_head(self) -> Expr {
        if let Expr::Attr(base, a) = &self {
            if let Expr::Record(fields) = base.as_ref() {
                if let Some((_, e)) = fields.iter().find(|(n, _)| n == &a[..]) {
                    return e.clone();
                }
            }
        }
        self
    }

    /// Resolve `Attr(Concat(l, sl, r), a)` given a predicate telling whether
    /// schema `sl` (the left side) is closed and contains `a`. Returns the
    /// rewritten expression (possibly unchanged). Recurses into aggregate
    /// bodies.
    pub fn resolve_attr_with(self, left_has: &dyn Fn(SchemaId, &str) -> Option<bool>) -> Expr {
        match self {
            Expr::Attr(base, a) => {
                let base = base.resolve_attr_with(left_has);
                if let Expr::Concat(l, sl, r) = &base {
                    match left_has(*sl, &a) {
                        Some(true) => {
                            return Expr::attr((**l).clone(), a)
                                .simplify_head()
                                .resolve_attr_with(left_has)
                        }
                        Some(false) => {
                            return Expr::attr((**r).clone(), a)
                                .simplify_head()
                                .resolve_attr_with(left_has)
                        }
                        None => {}
                    }
                }
                Expr::Attr(Box::new(base), a).simplify_head()
            }
            Expr::App(f, args) => Expr::App(
                f,
                args.into_iter()
                    .map(|e| e.resolve_attr_with(left_has))
                    .collect(),
            ),
            Expr::Agg(name, body) => Expr::Agg(name, body.resolve_attr_with(left_has)),
            Expr::Record(fields) => Expr::Record(
                fields
                    .into_iter()
                    .map(|(n, e)| (n, e.resolve_attr_with(left_has)))
                    .collect(),
            ),
            Expr::Concat(l, s, r) => Expr::Concat(
                Box::new(l.resolve_attr_with(left_has)),
                s,
                Box::new(r.resolve_attr_with(left_has)),
            ),
            other => other,
        }
    }

    /// Structural size, counting every node (used by the SPNF-growth
    /// experiment of Sec 6.3).
    pub fn size(&self) -> usize {
        match self {
            Expr::Var(_) | Expr::Const(_) => 1,
            Expr::Attr(e, _) => 1 + e.size(),
            Expr::App(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Agg(_, body) => 1 + body.size(),
            Expr::Record(fields) => 1 + fields.iter().map(|(_, e)| e.size()).sum::<usize>(),
            Expr::Concat(l, _, r) => 1 + l.size() + r.size(),
        }
    }

    /// Deterministic deep size in bytes (see [`crate::uexpr::UExpr::deep_size`]
    /// for the exact-fit convention).
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Expr>() + self.heap_size()
    }

    /// Bytes of owned heap data strictly below this node.
    pub fn heap_size(&self) -> usize {
        match self {
            Expr::Var(_) => 0,
            Expr::Attr(e, name) => e.deep_size() + name.len(),
            Expr::Const(v) => v.heap_size(),
            Expr::App(name, args) => name.len() + args.iter().map(Expr::deep_size).sum::<usize>(),
            // In full at every occurrence, shared or not (DESIGN.md §9).
            Expr::Agg(name, body) => name.len() + body.deep_size(),
            Expr::Record(fields) => fields
                .iter()
                .map(|(n, e)| std::mem::size_of::<(String, Expr)>() + n.len() + e.heap_size())
                .sum(),
            Expr::Concat(l, _, r) => l.deep_size() + r.deep_size(),
        }
    }

    /// Largest variable id occurring in this expression (for watermarking).
    pub fn max_var(&self) -> Option<u32> {
        self.free_vars().iter().map(|v| v.0).max()
    }

    /// Largest variable id occurring *anywhere*, including variables bound
    /// inside aggregate bodies — the watermark for fresh-variable generators.
    /// Using [`Expr::max_var`] here would allow a generator to re-issue an
    /// aggregate's inner binder and capture it.
    pub fn max_var_all(&self) -> u32 {
        match self {
            Expr::Var(v) => v.0,
            Expr::Attr(e, _) => e.max_var_all(),
            Expr::Const(_) => 0,
            Expr::App(_, args) => args.iter().map(Expr::max_var_all).max().unwrap_or(0),
            Expr::Agg(_, body) => body.max_var(),
            Expr::Record(fields) => fields
                .iter()
                .map(|(_, e)| e.max_var_all())
                .max()
                .unwrap_or(0),
            Expr::Concat(l, _, r) => l.max_var_all().max(r.max_var_all()),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Attr(e, a) => write!(f, "{e}.{a}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::App(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Agg(name, body) => write!(f, "{name}({body})"),
            Expr::Record(fields) => {
                write!(f, "⟨")?;
                for (i, (a, e)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}={e}")?;
                }
                write!(f, "⟩")
            }
            Expr::Concat(l, _, r) => write!(f, "({l} ⧺ {r})"),
        }
    }
}

/// The argument subquery of an [`Expr::Agg`]: an immutable U-expression
/// behind an `Arc`, so cloning an aggregate (every substitution, attribute
/// resolution, congruence node and matcher candidate does) copies a pointer
/// instead of the whole body.
///
/// Built once, the body never changes, and everything cached on it is a
/// pure function of its content: the free variables, whether it holds a
/// `Concat` or a record-projection redex, a content hash, and — on first
/// use — its size, largest variable id, congruence skeleton
/// ([`AggBody::skeleton`]) and alpha-normal form ([`AggBody::alpha`]).
/// `Eq`, `Ord` and `Hash` are content-based (pointer equality is only a
/// fast path), and `deep_size` counts the body once per occurrence, so no
/// verdict, canonical form, cache key or counter can depend on what is
/// shared.
#[derive(Clone)]
pub struct AggBody(Arc<AggInner>);

struct AggInner {
    body: UExpr,
    free: BTreeSet<VarId>,
    /// Some `Concat` occurs in the body (attribute resolution may rewrite).
    has_concat: bool,
    /// Some `⟨…, a = e, …⟩.a` occurs in the body (substitution and
    /// resolution rewrite it even when no variable is replaced).
    has_redex: bool,
    hash: u64,
    size: OnceLock<usize>,
    max_var: OnceLock<u32>,
    skeleton: OnceLock<AggBody>,
    alpha: OnceLock<AggBody>,
}

impl AggBody {
    /// Share `body` as an aggregate argument.
    pub fn new(body: UExpr) -> AggBody {
        let free = body.free_vars();
        let (mut has_concat, mut has_redex) = (false, false);
        scan_uexpr(&body, &mut has_concat, &mut has_redex);
        let mut h = DefaultHasher::new();
        body.hash(&mut h);
        AggBody(Arc::new(AggInner {
            body,
            free,
            has_concat,
            has_redex,
            hash: h.finish(),
            size: OnceLock::new(),
            max_var: OnceLock::new(),
            skeleton: OnceLock::new(),
            alpha: OnceLock::new(),
        }))
    }

    /// Do `a` and `b` share one allocation? (Sharing is invisible to
    /// `==`; this is for tests of the fast paths.)
    pub fn ptr_eq(a: &AggBody, b: &AggBody) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Free variables of the body.
    pub fn free_vars(&self) -> &BTreeSet<VarId> {
        &self.0.free
    }

    /// Structural size of the body ([`UExpr::size`]).
    pub fn size(&self) -> usize {
        *self.0.size.get_or_init(|| self.0.body.size())
    }

    /// Largest variable id in the body, bound ones included
    /// ([`UExpr::max_var`]).
    pub fn max_var(&self) -> u32 {
        *self.0.max_var.get_or_init(|| self.0.body.max_var())
    }

    /// [`UExpr::subst_map`] on the body, returning this very body when no
    /// free variable is replaced and nothing else would be rewritten.
    pub fn subst_map(&self, lookup: &dyn Fn(VarId) -> Option<Expr>) -> AggBody {
        if !self.0.has_redex && self.0.free.iter().all(|&v| lookup(v).is_none()) {
            return self.clone();
        }
        AggBody::new(self.0.body.subst_map(lookup))
    }

    /// [`Expr::resolve_attr_with`] on every operand of the body, returning
    /// this very body when it has no projection to resolve.
    pub fn resolve_attr_with(&self, left_has: &dyn Fn(SchemaId, &str) -> Option<bool>) -> AggBody {
        if !self.0.has_concat && !self.0.has_redex {
            return self.clone();
        }
        AggBody::new(
            self.0
                .body
                .map_exprs(&|e| e.clone().resolve_attr_with(left_has)),
        )
    }

    /// The congruence skeleton: free variables replaced by numbered
    /// placeholders in [`AggBody::free_vars`] order, binders
    /// alpha-normalized (see [`crate::congruence`]).
    pub fn skeleton(&self) -> &AggBody {
        self.0.skeleton.get_or_init(|| {
            AggBody::new(crate::congruence::abstract_agg_body(
                &self.0.body,
                &self.0.free,
            ))
        })
    }

    /// The alpha-normal form ([`crate::congruence::alpha_normalize`]).
    pub fn alpha(&self) -> &AggBody {
        self.0
            .alpha
            .get_or_init(|| AggBody::new(crate::congruence::alpha_normalize(&self.0.body)))
    }
}

/// Record whether `e`'s operands hold a `Concat` or a record-projection
/// redex (nested aggregates answer from their own cache).
fn scan_uexpr(e: &UExpr, concat: &mut bool, redex: &mut bool) {
    match e {
        UExpr::Zero | UExpr::One => {}
        UExpr::Add(a, b) | UExpr::Mul(a, b) => {
            scan_uexpr(a, concat, redex);
            scan_uexpr(b, concat, redex);
        }
        UExpr::Pred(Pred::Eq(a, b) | Pred::Ne(a, b)) => {
            scan_expr(a, concat, redex);
            scan_expr(b, concat, redex);
        }
        UExpr::Pred(Pred::Lift { args, .. }) => {
            args.iter().for_each(|a| scan_expr(a, concat, redex))
        }
        UExpr::Rel(_, a) => scan_expr(a, concat, redex),
        UExpr::Squash(x) | UExpr::Not(x) | UExpr::Sum(_, _, x) => scan_uexpr(x, concat, redex),
    }
}

fn scan_expr(e: &Expr, concat: &mut bool, redex: &mut bool) {
    match e {
        Expr::Var(_) | Expr::Const(_) => {}
        Expr::Attr(base, a) => {
            if let Expr::Record(fields) = base.as_ref() {
                *redex |= fields.iter().any(|(n, _)| n == a);
            }
            scan_expr(base, concat, redex);
        }
        Expr::App(_, args) => args.iter().for_each(|a| scan_expr(a, concat, redex)),
        Expr::Agg(_, body) => {
            *concat |= body.0.has_concat;
            *redex |= body.0.has_redex;
        }
        Expr::Record(fields) => fields.iter().for_each(|(_, a)| scan_expr(a, concat, redex)),
        Expr::Concat(l, _, r) => {
            *concat = true;
            scan_expr(l, concat, redex);
            scan_expr(r, concat, redex);
        }
    }
}

/// The body itself, for readers that walk it.
impl Deref for AggBody {
    type Target = UExpr;
    fn deref(&self) -> &UExpr {
        &self.0.body
    }
}

impl PartialEq for AggBody {
    fn eq(&self, other: &AggBody) -> bool {
        AggBody::ptr_eq(self, other) || (self.0.hash == other.0.hash && self.0.body == other.0.body)
    }
}

impl Eq for AggBody {}

impl Ord for AggBody {
    fn cmp(&self, other: &AggBody) -> Ordering {
        if AggBody::ptr_eq(self, other) {
            Ordering::Equal
        } else {
            self.0.body.cmp(&other.0.body)
        }
    }
}

impl PartialOrd for AggBody {
    fn partial_cmp(&self, other: &AggBody) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for AggBody {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for AggBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.body, f)
    }
}

impl fmt::Display for AggBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0.body, f)
    }
}

/// Atomic predicates `[b]` of the U-semiring semantics. Boolean structure
/// (AND/OR/NOT/EXISTS) is translated into U-expression operations
/// (`×`/`+‖·‖`/`not`), so only atoms remain, each satisfying axiom (11)
/// `[b] = ‖[b]‖`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// `[e₁ = e₂]`, subject to axioms (12)–(14).
    Eq(Expr, Expr),
    /// `[e₁ ≠ e₂]` — the complement introduced by excluded middle (12).
    Ne(Expr, Expr),
    /// Uninterpreted predicate `[p(e₁,…,eₙ)]` (comparisons such as `a ≥ 12`
    /// are uninterpreted atoms to the decision procedure). `negated` encodes
    /// `not([p(...)])`.
    Lift {
        /// Predicate symbol.
        name: String,
        /// Operand expressions.
        args: Vec<Expr>,
        /// Whether the atom is complemented.
        negated: bool,
    },
}

impl Pred {
    /// The equality atom `[a = b]`.
    pub fn eq(a: Expr, b: Expr) -> Pred {
        Pred::Eq(a, b)
    }

    /// The inequality atom `[a ≠ b]`.
    pub fn ne(a: Expr, b: Expr) -> Pred {
        Pred::Ne(a, b)
    }

    /// A (positive) uninterpreted predicate atom.
    pub fn lift(name: impl Into<String>, args: Vec<Expr>) -> Pred {
        Pred::Lift {
            name: name.into(),
            args,
            negated: false,
        }
    }

    /// Logical complement: `[b] ↦ [¬b]` (excluded middle for equality;
    /// negation flag for lifted atoms).
    pub fn negate(&self) -> Pred {
        match self {
            Pred::Eq(a, b) => Pred::Ne(a.clone(), b.clone()),
            Pred::Ne(a, b) => Pred::Eq(a.clone(), b.clone()),
            Pred::Lift {
                name,
                args,
                negated,
            } => Pred::Lift {
                name: name.clone(),
                args: args.clone(),
                negated: !negated,
            },
        }
    }

    /// Orient the predicate canonically: equality/inequality operands sorted.
    pub fn oriented(self) -> Pred {
        match self {
            Pred::Eq(a, b) => {
                if a <= b {
                    Pred::Eq(a, b)
                } else {
                    Pred::Eq(b, a)
                }
            }
            Pred::Ne(a, b) => {
                if a <= b {
                    Pred::Ne(a, b)
                } else {
                    Pred::Ne(b, a)
                }
            }
            p => p,
        }
    }

    /// Trivially true? (`[e = e]`, or `≠` between distinct constants.)
    pub fn is_trivially_true(&self) -> bool {
        match self {
            Pred::Eq(a, b) => a == b,
            Pred::Ne(Expr::Const(a), Expr::Const(b)) => a != b,
            _ => false,
        }
    }

    /// Trivially false? (`[e ≠ e]`, or `=` between distinct constants.)
    pub fn is_trivially_false(&self) -> bool {
        match self {
            Pred::Ne(a, b) => a == b,
            Pred::Eq(Expr::Const(a), Expr::Const(b)) => a != b,
            _ => false,
        }
    }

    /// Collect free variables into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Pred::Eq(a, b) | Pred::Ne(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::Lift { args, .. } => {
                for e in args {
                    e.collect_vars(out);
                }
            }
        }
    }

    /// Free variables of the predicate.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Does `v` occur in the predicate?
    pub fn contains_var(&self, v: VarId) -> bool {
        match self {
            Pred::Eq(a, b) | Pred::Ne(a, b) => a.contains_var(v) || b.contains_var(v),
            Pred::Lift { args, .. } => args.iter().any(|e| e.contains_var(v)),
        }
    }

    /// Substitute variables according to `lookup` (`None` = keep).
    pub fn subst_map(&self, lookup: &dyn Fn(VarId) -> Option<Expr>) -> Pred {
        match self {
            Pred::Eq(a, b) => Pred::Eq(a.subst_map(lookup), b.subst_map(lookup)),
            Pred::Ne(a, b) => Pred::Ne(a.subst_map(lookup), b.subst_map(lookup)),
            Pred::Lift {
                name,
                args,
                negated,
            } => Pred::Lift {
                name: name.clone(),
                args: args.iter().map(|e| e.subst_map(lookup)).collect(),
                negated: *negated,
            },
        }
    }

    /// Apply `f` to every top-level operand expression.
    pub fn map_exprs(&self, f: &dyn Fn(&Expr) -> Expr) -> Pred {
        match self {
            Pred::Eq(a, b) => Pred::Eq(f(a), f(b)),
            Pred::Ne(a, b) => Pred::Ne(f(a), f(b)),
            Pred::Lift {
                name,
                args,
                negated,
            } => Pred::Lift {
                name: name.clone(),
                args: args.iter().map(f).collect(),
                negated: *negated,
            },
        }
    }

    /// Structural size (node count).
    pub fn size(&self) -> usize {
        match self {
            Pred::Eq(a, b) | Pred::Ne(a, b) => 1 + a.size() + b.size(),
            Pred::Lift { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// Deterministic deep size in bytes (see [`crate::uexpr::UExpr::deep_size`]
    /// for the exact-fit convention).
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Pred>() + self.heap_size()
    }

    /// Bytes of owned heap data strictly below this predicate.
    pub fn heap_size(&self) -> usize {
        match self {
            Pred::Eq(a, b) | Pred::Ne(a, b) => a.heap_size() + b.heap_size(),
            Pred::Lift { name, args, .. } => {
                name.len() + args.iter().map(Expr::deep_size).sum::<usize>()
            }
        }
    }

    /// See [`Expr::max_var_all`].
    pub fn max_var_all(&self) -> u32 {
        match self {
            Pred::Eq(a, b) | Pred::Ne(a, b) => a.max_var_all().max(b.max_var_all()),
            Pred::Lift { args, .. } => args.iter().map(Expr::max_var_all).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Eq(a, b) => write!(f, "[{a} = {b}]"),
            Pred::Ne(a, b) => write!(f, "[{a} ≠ {b}]"),
            Pred::Lift {
                name,
                args,
                negated,
            } => {
                if *negated {
                    write!(f, "[¬{name}(")?;
                } else {
                    write!(f, "[{name}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_distinct() {
        let mut g = VarGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        g.reserve(VarId(100));
        assert_eq!(g.fresh(), VarId(101));
    }

    #[test]
    fn subst_replaces_and_projects_records() {
        let v = VarId(0);
        let e = Expr::var_attr(v, "a");
        let rec = Expr::record(vec![("a".into(), Expr::int(7)), ("b".into(), Expr::int(9))]);
        assert_eq!(e.subst(v, &rec), Expr::int(7));
    }

    #[test]
    fn subst_leaves_other_vars() {
        let e = Expr::var_attr(VarId(1), "a");
        assert_eq!(e.subst(VarId(0), &Expr::int(3)), e);
    }

    #[test]
    fn contains_var_sees_through_nesting() {
        let e = Expr::app("f", vec![Expr::var_attr(VarId(3), "x")]);
        assert!(e.contains_var(VarId(3)));
        assert!(!e.contains_var(VarId(4)));
    }

    #[test]
    fn pred_negation_round_trips() {
        let p = Pred::lift("gte", vec![Expr::var_attr(VarId(0), "a"), Expr::int(12)]);
        assert_eq!(p.negate().negate(), p);
        let q = Pred::eq(Expr::int(1), Expr::int(2));
        assert_eq!(q.negate(), Pred::ne(Expr::int(1), Expr::int(2)));
    }

    #[test]
    fn orientation_is_canonical() {
        let a = Expr::var_attr(VarId(1), "a");
        let b = Expr::var_attr(VarId(0), "b");
        let p1 = Pred::eq(a.clone(), b.clone()).oriented();
        let p2 = Pred::eq(b, a).oriented();
        assert_eq!(p1, p2);
    }

    #[test]
    fn trivial_predicates() {
        let e = Expr::var_attr(VarId(0), "a");
        assert!(Pred::eq(e.clone(), e.clone()).is_trivially_true());
        assert!(Pred::ne(e.clone(), e.clone()).is_trivially_false());
        assert!(!Pred::eq(e.clone(), Expr::int(1)).is_trivially_true());
    }

    /// `sum(Σ_{t5} R(t5) × [t5.k = t0.k])`, correlated on `t0`.
    fn correlated_sum() -> Expr {
        let body = UExpr::mul(
            UExpr::rel(crate::schema::RelId(0), Expr::Var(VarId(5))),
            UExpr::eq(Expr::var_attr(VarId(5), "k"), Expr::var_attr(VarId(0), "k")),
        );
        Expr::agg("sum", UExpr::sum(VarId(5), SchemaId(0), body))
    }

    fn body_of(e: &Expr) -> &AggBody {
        match e {
            Expr::Agg(_, body) => body,
            other => panic!("not an aggregate: {other}"),
        }
    }

    /// The sharing fast path: a substitution that replaces no free variable
    /// of the body (`t7` is not in it; `t5` is bound) returns the very same
    /// body, while one that does builds a new body.
    #[test]
    fn substitution_missing_the_body_shares_it() {
        let agg = correlated_sum();
        for v in [VarId(7), VarId(5)] {
            let same = agg.subst(v, &Expr::int(3));
            assert!(AggBody::ptr_eq(body_of(&agg), body_of(&same)));
        }
        let moved = agg.subst(VarId(0), &Expr::Var(VarId(9)));
        assert!(!AggBody::ptr_eq(body_of(&agg), body_of(&moved)));
        assert!(moved.contains_var(VarId(9)) && !moved.contains_var(VarId(0)));
        let resolved = agg.clone().resolve_attr_with(&|_, _| Some(true));
        assert!(AggBody::ptr_eq(body_of(&agg), body_of(&resolved)));
    }

    #[test]
    fn aggregate_bodies_are_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<AggBody>();
        shareable::<Expr>();
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::app("f", vec![Expr::var_attr(VarId(0), "a"), Expr::int(1)]);
        assert_eq!(e.size(), 4); // f + (attr + var) + const
    }
}
