//! Semantics-preserving metamorphic rewrites.
//!
//! Each rule maps a query to an equivalent query (bag semantics), producing
//! a known-Equivalent pair for the cross-check harness: the prover should
//! prove it (when [`Rewrite::expect_proof`] holds), and the bag-semantics
//! oracle must never refute it — a refutation is a bug in the rule or in one
//! of the engines, and the harness shrinks and reports it.
//!
//! Rules apply at the first matching site reachable through set-operation
//! arms (not inside FROM subqueries — nested sites are reached over time
//! because generation is random). `apply` returns `None` when the rule has
//! no applicable site *or* the rewrite would be the identity (e.g. swapping
//! the operands of `x = x`).

use rand::rngs::StdRng;
use rand::RngExt;
use udp_core::name::Name;
use udp_sql::ast::{CmpOp, FromItem, PredExpr, Query, ScalarExpr, Select, SelectItem, TableRef};
use udp_sql::Frontend;

/// The library of semantics-preserving rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rewrite {
    /// Swap the two children of a WHERE conjunction: `p AND q` → `q AND p`.
    ConjunctCommute,
    /// Swap two FROM items (cross-join commutativity). Requires an explicit
    /// projection — `*` output column order depends on FROM order.
    JoinCommute,
    /// Rename a FROM alias and every reference to it (including correlated
    /// references inside EXISTS subqueries).
    AliasRename,
    /// Push a single-alias conjunct below its scan:
    /// `FROM t x … WHERE c AND rest` → `FROM (SELECT * FROM t x WHERE c) x …
    /// WHERE rest`.
    PredicatePushdown,
    /// `‖‖q‖‖ = ‖q‖`: wrap a DISTINCT query as
    /// `SELECT DISTINCT * FROM (q) dq`.
    DistinctIdempotent,
    /// `a UNION ALL b` → `b UNION ALL a` (bag union commutes).
    UnionAllCommute,
    /// Reassociate a nested UNION ALL: `(a ∪ b) ∪ c` ↔ `a ∪ (b ∪ c)`.
    UnionAllReassoc,
    /// `WHERE p` → `WHERE p AND TRUE` (and `WHERE TRUE` when absent).
    WhereTautology,
    /// `WHERE p` → `WHERE NOT (NOT p)`.
    DoubleNegation,
    /// Swap the operands of an interpreted comparison: `a = b` → `b = a`,
    /// `a <> b` → `b <> a`. (Orderings are uninterpreted symbols to the
    /// prover — `a < b` / `b > a` would *not* be provable.)
    EqCommute,
    /// Wrap a base-table scan in an identity derived table:
    /// `FROM t x` → `FROM (SELECT * FROM t x0) x`.
    SubqueryWrap,
    /// Inverse of [`Rewrite::SubqueryWrap`]: inline an identity derived
    /// table back to its base-table scan.
    SubqueryInline,
    /// Expand a bare `*` projection to the explicit qualified column list.
    StarExpansion,
}

impl Rewrite {
    /// Every rule, in a fixed order (shuffled per case by the harness).
    pub const ALL: [Rewrite; 13] = [
        Rewrite::ConjunctCommute,
        Rewrite::JoinCommute,
        Rewrite::AliasRename,
        Rewrite::PredicatePushdown,
        Rewrite::DistinctIdempotent,
        Rewrite::UnionAllCommute,
        Rewrite::UnionAllReassoc,
        Rewrite::WhereTautology,
        Rewrite::DoubleNegation,
        Rewrite::EqCommute,
        Rewrite::SubqueryWrap,
        Rewrite::SubqueryInline,
        Rewrite::StarExpansion,
    ];

    /// Stable rule name for stats and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rewrite::ConjunctCommute => "conjunct-commute",
            Rewrite::JoinCommute => "join-commute",
            Rewrite::AliasRename => "alias-rename",
            Rewrite::PredicatePushdown => "predicate-pushdown",
            Rewrite::DistinctIdempotent => "distinct-idempotent",
            Rewrite::UnionAllCommute => "union-all-commute",
            Rewrite::UnionAllReassoc => "union-all-reassoc",
            Rewrite::WhereTautology => "where-tautology",
            Rewrite::DoubleNegation => "double-negation",
            Rewrite::EqCommute => "eq-commute",
            Rewrite::SubqueryWrap => "subquery-wrap",
            Rewrite::SubqueryInline => "subquery-inline",
            Rewrite::StarExpansion => "star-expansion",
        }
    }

    /// Is `udp_core::decide` expected to *prove* pairs this rule produces?
    /// When `true`, a NotProved verdict on such a pair is reported as a
    /// completeness regression. Rules that routinely step outside UDP's
    /// completeness envelope opt out and are checked against the oracle
    /// only.
    pub fn expect_proof(self) -> bool {
        // All current rules stay inside the prover's reach: canonical SPNF
        // handles commutation/renaming, squash idempotence covers DISTINCT,
        // and sum unnesting covers the derived-table rules. The harness
        // verifies this empirically on every run.
        true
    }

    /// Try to apply the rule; `None` when no site matches or the result
    /// would be identical to the input.
    pub fn apply(self, q: &Query, fe: &Frontend, rng: &mut StdRng) -> Option<Query> {
        let out = match self {
            Rewrite::ConjunctCommute => map_first_select(q, &mut |s| {
                let p = s.where_clause.as_ref()?;
                let swapped = swap_first_and(p)?;
                Some(Select {
                    where_clause: Some(swapped),
                    ..s.clone()
                })
            }),
            Rewrite::JoinCommute => map_first_select(q, &mut |s| {
                if s.from.len() < 2 || !s.natural.is_empty() || !s.outer.is_empty() {
                    return None;
                }
                if s.projection
                    .iter()
                    .any(|item| !matches!(item, SelectItem::Expr { .. }))
                {
                    return None; // `*` output order depends on FROM order
                }
                let mut from = s.from.clone();
                let i = rng.random_range(0..from.len() - 1);
                from.swap(i, i + 1);
                Some(Select { from, ..s.clone() })
            }),
            Rewrite::AliasRename => map_first_select(q, &mut |s| {
                if s.from.is_empty() || !s.natural.is_empty() || !s.outer.is_empty() {
                    return None;
                }
                let idx = rng.random_range(0..s.from.len());
                let old = s.from[idx].alias.clone();
                // The fresh name must avoid *every* alias bound anywhere in
                // the block — a nested scope that already binds it would
                // capture the renamed correlated references.
                let mut taken = std::collections::BTreeSet::new();
                collect_aliases(&Query::Select(s.clone()), &mut taken);
                let mut new = format!("{old}_r");
                while taken.contains(new.as_str()) {
                    new.push('r');
                }
                Some(rename_alias_in_select(s, idx, &old, &Name::from(new)))
            }),
            Rewrite::PredicatePushdown => map_first_select(q, &mut |s| {
                if !s.natural.is_empty() || !s.outer.is_empty() {
                    return None;
                }
                let p = s.where_clause.as_ref()?;
                let conjuncts = flatten_conjuncts(p);
                for (ci, c) in conjuncts.iter().enumerate() {
                    if !pushable(c) {
                        continue;
                    }
                    for (fi, item) in s.from.iter().enumerate() {
                        let TableRef::Table(table) = &item.source else {
                            continue;
                        };
                        if !refs_only_alias(c, &item.alias) {
                            continue;
                        }
                        let inner = Select {
                            distinct: false,
                            projection: vec![SelectItem::Star],
                            from: vec![FromItem {
                                source: TableRef::Table(table.clone()),
                                alias: item.alias.clone(),
                            }],
                            where_clause: Some((*c).clone()),
                            group_by: vec![],
                            having: None,
                            natural: vec![],
                            outer: vec![],
                        };
                        let mut from = s.from.clone();
                        from[fi] = FromItem {
                            source: TableRef::Subquery(Box::new(Query::Select(inner))),
                            alias: item.alias.clone(),
                        };
                        let rest: Vec<&PredExpr> = conjuncts
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != ci)
                            .map(|(_, c)| *c)
                            .collect();
                        return Some(Select {
                            from,
                            where_clause: rebuild_conjunction(&rest),
                            ..s.clone()
                        });
                    }
                }
                None
            }),
            Rewrite::DistinctIdempotent => {
                let Query::Select(s) = q else { return None };
                if !s.distinct || s.has_aggregates() {
                    return None;
                }
                if s.projection
                    .iter()
                    .any(|item| matches!(item, SelectItem::Expr { alias: None, .. }))
                {
                    return None; // derived table needs nameable columns
                }
                Some(Query::Select(Select {
                    distinct: true,
                    projection: vec![SelectItem::Star],
                    from: vec![FromItem {
                        source: TableRef::Subquery(Box::new(q.clone())),
                        alias: "dq".into(),
                    }],
                    where_clause: None,
                    group_by: vec![],
                    having: None,
                    natural: vec![],
                    outer: vec![],
                }))
            }
            Rewrite::UnionAllCommute => match q {
                Query::UnionAll(a, b) => Some(Query::UnionAll(b.clone(), a.clone())),
                _ => None,
            },
            Rewrite::UnionAllReassoc => match q {
                Query::UnionAll(ab, c) => {
                    if let Query::UnionAll(a, b) = ab.as_ref() {
                        Some(Query::UnionAll(
                            a.clone(),
                            Box::new(Query::UnionAll(b.clone(), c.clone())),
                        ))
                    } else if let Query::UnionAll(b, c2) = c.as_ref() {
                        Some(Query::UnionAll(
                            Box::new(Query::UnionAll(ab.clone(), b.clone())),
                            c2.clone(),
                        ))
                    } else {
                        None
                    }
                }
                _ => None,
            },
            Rewrite::WhereTautology => map_first_select(q, &mut |s| {
                let where_clause = match &s.where_clause {
                    Some(p) => PredExpr::and(p.clone(), PredExpr::True),
                    None => PredExpr::True,
                };
                Some(Select {
                    where_clause: Some(where_clause),
                    ..s.clone()
                })
            }),
            Rewrite::DoubleNegation => map_first_select(q, &mut |s| {
                let p = s.where_clause.as_ref()?;
                Some(Select {
                    where_clause: Some(PredExpr::Not(Box::new(PredExpr::Not(Box::new(p.clone()))))),
                    ..s.clone()
                })
            }),
            Rewrite::EqCommute => map_first_select(q, &mut |s| {
                let p = s.where_clause.as_ref()?;
                let swapped = swap_first_eq(p)?;
                Some(Select {
                    where_clause: Some(swapped),
                    ..s.clone()
                })
            }),
            Rewrite::SubqueryWrap => map_first_select(q, &mut |s| {
                if !s.natural.is_empty() || !s.outer.is_empty() {
                    return None;
                }
                let (fi, item, table) = s.from.iter().enumerate().find_map(|(i, f)| {
                    if let TableRef::Table(t) = &f.source {
                        Some((i, f, t.clone()))
                    } else {
                        None
                    }
                })?;
                let inner_alias = Name::from(format!("{}_w", item.alias));
                let inner = Select {
                    distinct: false,
                    projection: vec![SelectItem::Star],
                    from: vec![FromItem {
                        source: TableRef::Table(table),
                        alias: inner_alias,
                    }],
                    where_clause: None,
                    group_by: vec![],
                    having: None,
                    natural: vec![],
                    outer: vec![],
                };
                let mut from = s.from.clone();
                from[fi] = FromItem {
                    source: TableRef::Subquery(Box::new(Query::Select(inner))),
                    alias: item.alias.clone(),
                };
                Some(Select { from, ..s.clone() })
            }),
            Rewrite::SubqueryInline => map_first_select(q, &mut |s| {
                let (fi, table) = s.from.iter().enumerate().find_map(|(i, f)| {
                    let TableRef::Subquery(sub) = &f.source else {
                        return None;
                    };
                    let Query::Select(inner) = sub.as_ref() else {
                        return None;
                    };
                    let identity = !inner.distinct
                        && inner.projection == vec![SelectItem::Star]
                        && inner.from.len() == 1
                        && inner.where_clause.is_none()
                        && inner.group_by.is_empty()
                        && inner.having.is_none()
                        && inner.natural.is_empty()
                        && inner.outer.is_empty();
                    if !identity {
                        return None;
                    }
                    match &inner.from[0].source {
                        TableRef::Table(t) => Some((i, t.clone())),
                        TableRef::Subquery(_) => None,
                    }
                })?;
                let mut from = s.from.clone();
                from[fi] = FromItem {
                    source: TableRef::Table(table),
                    alias: from[fi].alias.clone(),
                };
                Some(Select { from, ..s.clone() })
            }),
            Rewrite::StarExpansion => map_first_select(q, &mut |s| {
                if s.projection != vec![SelectItem::Star]
                    || !s.natural.is_empty()
                    || !s.outer.is_empty()
                {
                    return None;
                }
                let mut projection = Vec::new();
                let mut seen = std::collections::BTreeSet::new();
                for item in &s.from {
                    let TableRef::Table(t) = &item.source else {
                        return None;
                    };
                    let rid = fe.catalog.relation_id(t)?;
                    let schema = fe.catalog.relation_schema(rid);
                    if !schema.is_closed() {
                        return None;
                    }
                    for (attr, _) in &schema.attrs {
                        // A name shared across FROM items would turn into
                        // duplicate output aliases (which lowering rejects
                        // for `*` too, but the expansion must not silently
                        // relabel an invalid query as equivalent).
                        if !seen.insert(attr.clone()) {
                            return None;
                        }
                        projection.push(SelectItem::Expr {
                            expr: ScalarExpr::col(item.alias.clone(), attr.clone()),
                            alias: Some(attr.clone()),
                        });
                    }
                }
                Some(Select {
                    projection,
                    ..s.clone()
                })
            }),
        };
        out.filter(|rewritten| rewritten != q)
    }
}

/// Apply `f` to the first SELECT block reachable through set-operation arms
/// (left-to-right), rebuilding the query around the transformed block.
/// Shared with [`crate::mutate`], so rewrites and mutations always target
/// the same sites.
pub(crate) fn map_first_select(
    q: &Query,
    f: &mut impl FnMut(&Select) -> Option<Select>,
) -> Option<Query> {
    match q {
        Query::Select(s) => f(s).map(Query::Select),
        Query::UnionAll(a, b) => rebuild_setop(a, b, f, Query::UnionAll),
        Query::Except(a, b) => rebuild_setop(a, b, f, Query::Except),
        Query::Union(a, b) => rebuild_setop(a, b, f, Query::Union),
        Query::Intersect(a, b) => rebuild_setop(a, b, f, Query::Intersect),
        Query::Values(_) => None,
    }
}

fn rebuild_setop(
    a: &Query,
    b: &Query,
    f: &mut impl FnMut(&Select) -> Option<Select>,
    ctor: impl Fn(Box<Query>, Box<Query>) -> Query,
) -> Option<Query> {
    if let Some(a2) = map_first_select(a, f) {
        return Some(ctor(Box::new(a2), Box::new(b.clone())));
    }
    map_first_select(b, f).map(|b2| ctor(Box::new(a.clone()), Box::new(b2)))
}

/// Collect every FROM alias bound anywhere in the query, including inside
/// derived tables and predicate subqueries (used to pick capture-free fresh
/// names for [`Rewrite::AliasRename`]).
fn collect_aliases(q: &Query, out: &mut std::collections::BTreeSet<Name>) {
    match q {
        Query::Select(s) => {
            for f in &s.from {
                out.insert(f.alias.clone());
                if let TableRef::Subquery(sub) = &f.source {
                    collect_aliases(sub, out);
                }
            }
            for item in &s.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    collect_aliases_scalar(expr, out);
                }
            }
            for e in &s.group_by {
                collect_aliases_scalar(e, out);
            }
            for p in s.where_clause.iter().chain(s.having.iter()) {
                collect_aliases_pred(p, out);
            }
        }
        Query::UnionAll(a, b)
        | Query::Except(a, b)
        | Query::Union(a, b)
        | Query::Intersect(a, b) => {
            collect_aliases(a, out);
            collect_aliases(b, out);
        }
        Query::Values(rows) => {
            for e in rows.iter().flatten() {
                collect_aliases_scalar(e, out);
            }
        }
    }
}

fn collect_aliases_pred(p: &PredExpr, out: &mut std::collections::BTreeSet<Name>) {
    match p {
        PredExpr::Cmp(_, a, b) => {
            collect_aliases_scalar(a, out);
            collect_aliases_scalar(b, out);
        }
        PredExpr::And(a, b) | PredExpr::Or(a, b) => {
            collect_aliases_pred(a, out);
            collect_aliases_pred(b, out);
        }
        PredExpr::Not(a) => collect_aliases_pred(a, out),
        PredExpr::True | PredExpr::False => {}
        PredExpr::Exists(q) => collect_aliases(q, out),
        PredExpr::InQuery(e, q) => {
            collect_aliases_scalar(e, out);
            collect_aliases(q, out);
        }
        PredExpr::IsNull(e) => collect_aliases_scalar(e, out),
    }
}

fn collect_aliases_scalar(e: &ScalarExpr, out: &mut std::collections::BTreeSet<Name>) {
    match e {
        ScalarExpr::Column { .. } | ScalarExpr::Int(_) | ScalarExpr::Str(_) | ScalarExpr::Null => {}
        ScalarExpr::App(_, args) => {
            for a in args {
                collect_aliases_scalar(a, out);
            }
        }
        ScalarExpr::Agg { arg, .. } => {
            if let udp_sql::ast::AggArg::Expr(inner) = arg {
                collect_aliases_scalar(inner, out);
            }
        }
        ScalarExpr::Subquery(q) => collect_aliases(q, out),
        ScalarExpr::Case { whens, else_ } => {
            for (b, v) in whens {
                collect_aliases_pred(b, out);
                collect_aliases_scalar(v, out);
            }
            collect_aliases_scalar(else_, out);
        }
    }
}

/// Swap the children of the first `And` node (pre-order, WHERE-level only —
/// no descent into subqueries).
fn swap_first_and(p: &PredExpr) -> Option<PredExpr> {
    match p {
        PredExpr::And(a, b) => Some(PredExpr::And(b.clone(), a.clone())),
        PredExpr::Or(a, b) => {
            if let Some(a2) = swap_first_and(a) {
                Some(PredExpr::Or(Box::new(a2), b.clone()))
            } else {
                swap_first_and(b).map(|b2| PredExpr::Or(a.clone(), Box::new(b2)))
            }
        }
        PredExpr::Not(a) => swap_first_and(a).map(|a2| PredExpr::Not(Box::new(a2))),
        _ => None,
    }
}

/// Swap the operands of the first `=` / `<>` comparison (pre-order, no
/// descent into subqueries).
fn swap_first_eq(p: &PredExpr) -> Option<PredExpr> {
    match p {
        PredExpr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), a, b) => {
            Some(PredExpr::Cmp(*op, b.clone(), a.clone()))
        }
        PredExpr::And(a, b) => {
            if let Some(a2) = swap_first_eq(a) {
                Some(PredExpr::And(Box::new(a2), b.clone()))
            } else {
                swap_first_eq(b).map(|b2| PredExpr::And(a.clone(), Box::new(b2)))
            }
        }
        PredExpr::Or(a, b) => {
            if let Some(a2) = swap_first_eq(a) {
                Some(PredExpr::Or(Box::new(a2), b.clone()))
            } else {
                swap_first_eq(b).map(|b2| PredExpr::Or(a.clone(), Box::new(b2)))
            }
        }
        PredExpr::Not(a) => swap_first_eq(a).map(|a2| PredExpr::Not(Box::new(a2))),
        _ => None,
    }
}

/// Flatten a top-level `And` chain into its conjuncts (left-to-right).
pub fn flatten_conjuncts(p: &PredExpr) -> Vec<&PredExpr> {
    match p {
        PredExpr::And(a, b) => {
            let mut out = flatten_conjuncts(a);
            out.extend(flatten_conjuncts(b));
            out
        }
        _ => vec![p],
    }
}

/// Rebuild a conjunction from conjunct references; `None` when empty.
pub fn rebuild_conjunction(conjuncts: &[&PredExpr]) -> Option<PredExpr> {
    let mut it = conjuncts.iter();
    let first = (*it.next()?).clone();
    Some(it.fold(first, |acc, c| PredExpr::and(acc, (*c).clone())))
}

/// Is the conjunct safe to push below a scan? It must be a pure comparison
/// tree: no subqueries (their correlation would change) and no aggregates.
fn pushable(p: &PredExpr) -> bool {
    match p {
        PredExpr::Cmp(_, a, b) => scalar_pushable(a) && scalar_pushable(b),
        PredExpr::And(a, b) | PredExpr::Or(a, b) => pushable(a) && pushable(b),
        PredExpr::Not(a) => pushable(a),
        PredExpr::True | PredExpr::False => true,
        PredExpr::IsNull(e) => scalar_pushable(e),
        PredExpr::Exists(_) | PredExpr::InQuery(..) => false,
    }
}

fn scalar_pushable(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Column { .. } | ScalarExpr::Int(_) | ScalarExpr::Str(_) | ScalarExpr::Null => {
            true
        }
        ScalarExpr::App(_, args) => args.iter().all(scalar_pushable),
        ScalarExpr::Agg { .. } | ScalarExpr::Subquery(_) | ScalarExpr::Case { .. } => false,
    }
}

/// Does every column reference in `p` name exactly `alias`? (Unqualified
/// references disqualify — their binding is ambiguous to syntactic
/// analysis.)
fn refs_only_alias(p: &PredExpr, alias: &str) -> bool {
    let scalar_ok = |e: &ScalarExpr| -> bool {
        fn walk(e: &ScalarExpr, alias: &str) -> bool {
            match e {
                ScalarExpr::Column { table, .. } => table.as_deref() == Some(alias),
                ScalarExpr::Int(_) | ScalarExpr::Str(_) | ScalarExpr::Null => true,
                ScalarExpr::App(_, args) => args.iter().all(|a| walk(a, alias)),
                ScalarExpr::Agg { .. } | ScalarExpr::Subquery(_) | ScalarExpr::Case { .. } => false,
            }
        }
        walk(e, alias)
    };
    match p {
        PredExpr::Cmp(_, a, b) => scalar_ok(a) && scalar_ok(b),
        PredExpr::And(a, b) | PredExpr::Or(a, b) => {
            refs_only_alias(a, alias) && refs_only_alias(b, alias)
        }
        PredExpr::Not(a) => refs_only_alias(a, alias),
        PredExpr::True | PredExpr::False => true,
        PredExpr::IsNull(e) => scalar_ok(e),
        PredExpr::Exists(_) | PredExpr::InQuery(..) => false,
    }
}

/// Rename FROM item `idx`'s alias from `old` to `new` across the whole
/// SELECT block, descending into predicate subqueries (for correlated
/// references) but stopping wherever a nested scope rebinds `old`.
fn rename_alias_in_select(s: &Select, idx: usize, old: &str, new: &Name) -> Select {
    let mut out = s.clone();
    out.from[idx].alias = new.clone();
    for item in &mut out.projection {
        if let SelectItem::QualifiedStar(a) = item {
            if a == old {
                *a = new.clone();
            }
        }
        if let SelectItem::Expr { expr, .. } = item {
            *expr = rename_in_scalar(expr, old, new);
        }
    }
    out.where_clause = out
        .where_clause
        .as_ref()
        .map(|p| rename_in_pred(p, old, new));
    out.group_by = out
        .group_by
        .iter()
        .map(|e| rename_in_scalar(e, old, new))
        .collect();
    out.having = out.having.as_ref().map(|p| rename_in_pred(p, old, new));
    out
}

fn rename_in_scalar(e: &ScalarExpr, old: &str, new: &Name) -> ScalarExpr {
    match e {
        ScalarExpr::Column { table, column } if table.as_deref() == Some(old) => {
            ScalarExpr::Column {
                table: Some(new.clone()),
                column: column.clone(),
            }
        }
        ScalarExpr::Column { .. } | ScalarExpr::Int(_) | ScalarExpr::Str(_) | ScalarExpr::Null => {
            e.clone()
        }
        ScalarExpr::App(f, args) => ScalarExpr::App(
            f.clone(),
            args.iter().map(|a| rename_in_scalar(a, old, new)).collect(),
        ),
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => ScalarExpr::Agg {
            func: func.clone(),
            arg: match arg {
                udp_sql::ast::AggArg::Star => udp_sql::ast::AggArg::Star,
                udp_sql::ast::AggArg::Expr(inner) => {
                    udp_sql::ast::AggArg::Expr(Box::new(rename_in_scalar(inner, old, new)))
                }
            },
            distinct: *distinct,
        },
        ScalarExpr::Subquery(q) => ScalarExpr::Subquery(Box::new(rename_in_query(q, old, new))),
        ScalarExpr::Case { whens, else_ } => ScalarExpr::Case {
            whens: whens
                .iter()
                .map(|(b, v)| (rename_in_pred(b, old, new), rename_in_scalar(v, old, new)))
                .collect(),
            else_: Box::new(rename_in_scalar(else_, old, new)),
        },
    }
}

fn rename_in_pred(p: &PredExpr, old: &str, new: &Name) -> PredExpr {
    match p {
        PredExpr::Cmp(op, a, b) => PredExpr::Cmp(
            *op,
            rename_in_scalar(a, old, new),
            rename_in_scalar(b, old, new),
        ),
        PredExpr::And(a, b) => PredExpr::And(
            Box::new(rename_in_pred(a, old, new)),
            Box::new(rename_in_pred(b, old, new)),
        ),
        PredExpr::Or(a, b) => PredExpr::Or(
            Box::new(rename_in_pred(a, old, new)),
            Box::new(rename_in_pred(b, old, new)),
        ),
        PredExpr::Not(a) => PredExpr::Not(Box::new(rename_in_pred(a, old, new))),
        PredExpr::True => PredExpr::True,
        PredExpr::False => PredExpr::False,
        PredExpr::IsNull(e) => PredExpr::IsNull(Box::new(rename_in_scalar(e, old, new))),
        PredExpr::Exists(q) => PredExpr::Exists(Box::new(rename_in_query(q, old, new))),
        PredExpr::InQuery(e, q) => PredExpr::InQuery(
            rename_in_scalar(e, old, new),
            Box::new(rename_in_query(q, old, new)),
        ),
    }
}

fn rename_in_query(q: &Query, old: &str, new: &Name) -> Query {
    match q {
        Query::Select(s) => {
            if s.from.iter().any(|f| f.alias == old) {
                // `old` is rebound in this scope: every reference below here
                // means the inner binding, so the rename stops.
                return q.clone();
            }
            let mut out = s.clone();
            out.from = s
                .from
                .iter()
                .map(|f| FromItem {
                    source: match &f.source {
                        TableRef::Table(t) => TableRef::Table(t.clone()),
                        TableRef::Subquery(sub) => {
                            TableRef::Subquery(Box::new(rename_in_query(sub, old, new)))
                        }
                    },
                    alias: f.alias.clone(),
                })
                .collect();
            for item in &mut out.projection {
                match item {
                    SelectItem::QualifiedStar(a) if a == old => *a = new.clone(),
                    SelectItem::Expr { expr, .. } => *expr = rename_in_scalar(expr, old, new),
                    _ => {}
                }
            }
            out.where_clause = out
                .where_clause
                .as_ref()
                .map(|p| rename_in_pred(p, old, new));
            out.group_by = out
                .group_by
                .iter()
                .map(|e| rename_in_scalar(e, old, new))
                .collect();
            out.having = out.having.as_ref().map(|p| rename_in_pred(p, old, new));
            Query::Select(out)
        }
        Query::UnionAll(a, b) => Query::UnionAll(
            Box::new(rename_in_query(a, old, new)),
            Box::new(rename_in_query(b, old, new)),
        ),
        Query::Except(a, b) => Query::Except(
            Box::new(rename_in_query(a, old, new)),
            Box::new(rename_in_query(b, old, new)),
        ),
        Query::Union(a, b) => Query::Union(
            Box::new(rename_in_query(a, old, new)),
            Box::new(rename_in_query(b, old, new)),
        ),
        Query::Intersect(a, b) => Query::Intersect(
            Box::new(rename_in_query(a, old, new)),
            Box::new(rename_in_query(b, old, new)),
        ),
        Query::Values(rows) => Query::Values(
            rows.iter()
                .map(|r| r.iter().map(|e| rename_in_scalar(e, old, new)).collect())
                .collect(),
        ),
    }
}
