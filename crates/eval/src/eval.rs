//! Reference bag-semantics evaluator for the supported SQL fragment.
//!
//! This is the concrete counterpart of the U-semiring semantics over ℕ:
//! `⟦q⟧(db)` is a bag of rows. It is used to *validate* the prover
//! empirically (UDP-proved pairs must agree on randomized databases) and to
//! hunt counterexamples for unproved pairs (the companion model checker of
//! the authors' prior work \[21\]).
//!
//! Semantics notes, matching the paper's IR (Fig 12):
//! * `EXCEPT` is `q₁(t) × not(q₂(t))` — rows of `q₁` (with multiplicity)
//!   whose tuple does not occur in `q₂` at all; *not* multiset difference.
//! * Uninterpreted functions (arithmetic is interpreted, casts are not) are
//!   deterministic hash functions — any interpretation is admissible when
//!   hunting counterexamples for rules that hold for *all* interpretations.
//! * Aggregates are computed for real (`SUM`/`COUNT`/`AVG`/`MIN`/`MAX`,
//!   with DISTINCT variants); `AVG` uses integer division (types are
//!   integers).
//! * A scalar subquery must return exactly one row; other cardinalities
//!   raise [`EvalError::ScalarCardinality`].
//! * **Three-valued logic** (full dialect): predicates evaluate to a
//!   [`Truth`] value following SQL's Kleene semantics — comparisons
//!   touching NULL are [`Truth::Unknown`], `WHERE`/`HAVING`/CASE guards
//!   keep only [`Truth::True`], `IS [NOT] NULL` and `EXISTS` stay
//!   two-valued, and `IN` accounts for NULL members. Outer joins are
//!   evaluated **natively** (per-row match-or-pad), independently of the
//!   udp-ext antijoin desugaring, so differential tests genuinely
//!   cross-check the encoding.

use crate::db::{Database, ResultBag, Row};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use udp_core::expr::Value;
use udp_core::name::Name;

use udp_sql::ast::*;
use udp_sql::Frontend;

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Reference to an undeclared table or view.
    UnknownTable(String),
    /// Reference to a column the scope does not provide.
    UnknownColumn(String),
    /// An unqualified column provided by more than one source.
    AmbiguousColumn(String),
    /// A scalar subquery returned a number of rows other than one.
    ScalarCardinality(usize),
    /// An operation applied to values of the wrong type.
    TypeError(String),
    /// Set-operation operands with different column counts.
    ArityMismatch,
    /// A form the evaluator does not implement.
    Unsupported(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EvalError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            EvalError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            EvalError::ScalarCardinality(n) => {
                write!(f, "scalar subquery returned {n} rows (expected 1)")
            }
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::ArityMismatch => write!(f, "UNION/EXCEPT arity mismatch"),
            EvalError::Unsupported(m) => write!(f, "unsupported in evaluator: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// SQL three-valued logic (Kleene). `WHERE`, `HAVING`, CASE guards, and
/// join conditions keep a row only when the predicate is [`Truth::True`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// NULL-contaminated: neither true nor false.
    Unknown,
}

impl Truth {
    /// Lift a two-valued bool.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Kleene negation (`NOT Unknown = Unknown`).
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Does a `WHERE` keep the row?
    pub fn is_true(self) -> bool {
        self == Truth::True
    }
}

/// Environment frame: alias → (column names, current row).
#[derive(Debug, Clone, Default)]
struct Env<'a> {
    parent: Option<&'a Env<'a>>,
    frames: Vec<(Name, Vec<Name>, Row)>,
}

impl<'a> Env<'a> {
    fn child(&'a self) -> Env<'a> {
        Env {
            parent: Some(self),
            frames: Vec::new(),
        }
    }

    fn lookup_qualified(&self, alias: &str, col: &str) -> Option<Value> {
        for (a, cols, row) in self.frames.iter().rev() {
            if a == alias {
                return cols.iter().position(|c| c == col).map(|i| row[i].clone());
            }
        }
        self.parent.and_then(|p| p.lookup_qualified(alias, col))
    }

    fn lookup_unqualified(&self, col: &str) -> Result<Option<Value>, EvalError> {
        let hits: Vec<Value> = self
            .frames
            .iter()
            .filter_map(|(_, cols, row)| cols.iter().position(|c| c == col).map(|i| row[i].clone()))
            .collect();
        match hits.len() {
            1 => Ok(Some(hits.into_iter().next().unwrap())),
            0 => match self.parent {
                Some(p) => p.lookup_unqualified(col),
                None => Ok(None),
            },
            _ => Err(EvalError::AmbiguousColumn(col.to_string())),
        }
    }
}

/// Evaluate a query against a database.
pub fn eval_query(fe: &Frontend, db: &Database, q: &Query) -> Result<ResultBag, EvalError> {
    let env = Env::default();
    eval_query_env(fe, db, q, &env)
}

fn eval_query_env(
    fe: &Frontend,
    db: &Database,
    q: &Query,
    env: &Env<'_>,
) -> Result<ResultBag, EvalError> {
    match q {
        Query::Select(s) => eval_select(fe, db, s, env),
        Query::UnionAll(a, b) => {
            let ra = eval_query_env(fe, db, a, env)?;
            let rb = eval_query_env(fe, db, b, env)?;
            if ra.columns.len() != rb.columns.len() {
                return Err(EvalError::ArityMismatch);
            }
            let mut rows = ra.rows;
            rows.extend(rb.rows);
            Ok(ResultBag {
                columns: ra.columns,
                rows,
            })
        }
        Query::Except(a, b) => {
            let ra = eval_query_env(fe, db, a, env)?;
            let rb = eval_query_env(fe, db, b, env)?;
            if ra.columns.len() != rb.columns.len() {
                return Err(EvalError::ArityMismatch);
            }
            // Paper IR semantics: keep q1 rows whose tuple is absent from q2.
            let rows = ra
                .rows
                .into_iter()
                .filter(|r| !rb.rows.contains(r))
                .collect();
            Ok(ResultBag {
                columns: ra.columns,
                rows,
            })
        }
        // Extended dialect: set-semantics UNION = dedup(q1 ++ q2).
        Query::Union(a, b) => {
            let ra = eval_query_env(fe, db, a, env)?;
            let rb = eval_query_env(fe, db, b, env)?;
            if ra.columns.len() != rb.columns.len() {
                return Err(EvalError::ArityMismatch);
            }
            let mut rows = ra.rows;
            rows.extend(rb.rows);
            dedup_rows(&mut rows);
            Ok(ResultBag {
                columns: ra.columns,
                rows,
            })
        }
        // Extended dialect: set-semantics INTERSECT = dedup(q1 ∩ q2).
        Query::Intersect(a, b) => {
            let ra = eval_query_env(fe, db, a, env)?;
            let rb = eval_query_env(fe, db, b, env)?;
            if ra.columns.len() != rb.columns.len() {
                return Err(EvalError::ArityMismatch);
            }
            let mut rows: Vec<Row> = ra
                .rows
                .into_iter()
                .filter(|r| rb.rows.contains(r))
                .collect();
            dedup_rows(&mut rows);
            Ok(ResultBag {
                columns: ra.columns,
                rows,
            })
        }
        // Extended dialect: VALUES — one row per tuple of constants.
        Query::Values(value_rows) => {
            let Some(first) = value_rows.first() else {
                return Err(EvalError::Unsupported("VALUES with no rows".into()));
            };
            let columns: Vec<Name> = (0..first.len())
                .map(|i| Name::from(format!("c{i}")))
                .collect();
            let mut rows = Vec::with_capacity(value_rows.len());
            for vr in value_rows {
                if vr.len() != first.len() {
                    return Err(EvalError::ArityMismatch);
                }
                let row: Result<Row, EvalError> =
                    vr.iter().map(|e| eval_scalar(fe, db, e, env)).collect();
                rows.push(row?);
            }
            Ok(ResultBag { columns, rows })
        }
    }
}

/// Remove duplicate rows, keeping first occurrences (set semantics).
fn dedup_rows(rows: &mut Vec<Row>) {
    let mut seen: Vec<Row> = Vec::new();
    rows.retain(|r| {
        if seen.contains(r) {
            false
        } else {
            seen.push(r.clone());
            true
        }
    });
}

/// A set of FROM items already joined together (native outer-join
/// evaluation). Initially one group per FROM item; each outer-join spec
/// merges the two groups containing its aliases, concatenating their rows
/// with NULL padding where the join fails to match.
#[derive(Debug, Clone)]
struct SourceGroup {
    /// `(alias, columns)` per member, in FROM order.
    members: Vec<(Name, Vec<Name>)>,
    /// Joined rows: each row concatenates the member widths in order.
    rows: Vec<Row>,
}

impl SourceGroup {
    fn width(&self) -> usize {
        self.members.iter().map(|(_, cols)| cols.len()).sum()
    }

    /// Push one env frame per member, slicing `row` by member widths.
    fn push_frames(&self, row: &Row, scope: &mut Env<'_>) {
        let mut offset = 0;
        for (alias, cols) in &self.members {
            let w = cols.len();
            scope.frames.push((
                alias.clone(),
                cols.clone(),
                row[offset..offset + w].to_vec(),
            ));
            offset += w;
        }
    }
}

/// Flattened per-alias view of the groups, for name resolution and `*`
/// expansion (kept in FROM order).
struct FlatSource {
    alias: Name,
    cols: Vec<Name>,
    group: usize,
    offset: usize,
}

fn flatten(groups: &[SourceGroup]) -> Vec<FlatSource> {
    let mut flat = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let mut offset = 0;
        for (alias, cols) in &g.members {
            flat.push(FlatSource {
                alias: alias.clone(),
                cols: cols.clone(),
                group: gi,
                offset,
            });
            offset += cols.len();
        }
    }
    flat
}

fn eval_select(
    fe: &Frontend,
    db: &Database,
    s: &Select,
    env: &Env<'_>,
) -> Result<ResultBag, EvalError> {
    // GROUP BY / raw aggregates route through the same desugaring the prover
    // uses, so both semantics coincide by construction.
    if !s.group_by.is_empty() {
        let desugared = udp_sql::desugar::desugar_group_by(s)
            .map_err(|e| EvalError::Unsupported(e.to_string()))?;
        return eval_select(fe, db, &desugared, env);
    }
    if udp_sql::desugar::has_raw_aggregates(s) {
        return eval_aggregate_only(fe, db, s, env);
    }

    // Each FROM item starts as its own join group.
    let mut groups: Vec<SourceGroup> = Vec::new();
    for item in &s.from {
        let (cols, rows) = eval_from_item(fe, db, item, env)?;
        groups.push(SourceGroup {
            members: vec![(item.alias.clone(), cols)],
            rows,
        });
    }

    // Fold outer joins natively, merging groups pairwise.
    for oj in &s.outer {
        apply_outer_join(fe, db, &mut groups, oj, env)?;
    }

    let flat = flatten(&groups);
    let natural = natural_join_plan(s, &flat)?;
    let columns = projection_columns(s, &flat, &natural.skip)?;
    let mut out_rows: Vec<Row> = Vec::new();
    cross_product(
        fe,
        db,
        s,
        env,
        &groups,
        &flat,
        0,
        &mut Vec::new(),
        &natural,
        &mut out_rows,
    )?;

    if s.distinct {
        dedup_rows(&mut out_rows);
    }
    Ok(ResultBag {
        columns,
        rows: out_rows,
    })
}

/// Merge the groups containing `oj.left` and `oj.right` per the outer-join
/// semantics: matched pairs survive, unmatched rows of the preserved side
/// are padded with NULL on the other side.
fn apply_outer_join(
    fe: &Frontend,
    db: &Database,
    groups: &mut Vec<SourceGroup>,
    oj: &udp_sql::ast::OuterJoin,
    env: &Env<'_>,
) -> Result<(), EvalError> {
    use udp_sql::ast::OuterKind;
    let find = |alias: &str| {
        groups
            .iter()
            .position(|g| g.members.iter().any(|(a, _)| a == alias))
            .ok_or_else(|| EvalError::UnknownTable(alias.to_string()))
    };
    let li = find(&oj.left)?;
    let ri = find(&oj.right)?;
    if li == ri {
        return Err(EvalError::Unsupported(format!(
            "outer join between already-joined aliases `{}` and `{}`",
            oj.left, oj.right
        )));
    }
    // Remove the higher index first so the lower one stays valid.
    let (l, r) = if li < ri {
        let r = groups.remove(ri);
        let l = groups.remove(li);
        (l, r)
    } else {
        let l = groups.remove(li);
        let r = groups.remove(ri);
        (l, r)
    };
    let (lw, rw) = (l.width(), r.width());
    let on_true = |lrow: &Row, rrow: &Row| -> Result<bool, EvalError> {
        let mut scope = env.child();
        l.push_frames(lrow, &mut scope);
        r.push_frames(rrow, &mut scope);
        Ok(eval_pred(fe, db, &oj.on, &scope)?.is_true())
    };
    let concat = |a: &Row, b: &Row| {
        let mut row = a.clone();
        row.extend(b.iter().cloned());
        row
    };
    let nulls = |n: usize| vec![Value::Null; n];
    let mut rows: Vec<Row> = Vec::new();
    match oj.kind {
        OuterKind::Left | OuterKind::Full => {
            for lrow in &l.rows {
                let mut matched = false;
                for rrow in &r.rows {
                    if on_true(lrow, rrow)? {
                        matched = true;
                        rows.push(concat(lrow, rrow));
                    }
                }
                if !matched {
                    rows.push(concat(lrow, &nulls(rw)));
                }
            }
            if oj.kind == OuterKind::Full {
                for rrow in &r.rows {
                    let mut matched = false;
                    for lrow in &l.rows {
                        if on_true(lrow, rrow)? {
                            matched = true;
                            break;
                        }
                    }
                    if !matched {
                        rows.push(concat(&nulls(lw), rrow));
                    }
                }
            }
        }
        OuterKind::Right => {
            for rrow in &r.rows {
                let mut matched = false;
                for lrow in &l.rows {
                    if on_true(lrow, rrow)? {
                        matched = true;
                        rows.push(concat(lrow, rrow));
                    }
                }
                if !matched {
                    rows.push(concat(&nulls(lw), rrow));
                }
            }
        }
    }
    let mut members = l.members;
    members.extend(r.members);
    groups.insert(li.min(ri), SourceGroup { members, rows });
    Ok(())
}

/// Execution plan for the extended dialect's `NATURAL JOIN`: which column
/// positions to equate, and which right-hand occurrences a `*` projection
/// must skip (shared columns are emitted once). Indices are into the
/// flattened source list.
#[derive(Debug, Default)]
struct NaturalPlan {
    /// `((left source, left column), (right source, right column))` pairs.
    eqs: Vec<((usize, usize), (usize, usize))>,
    /// `(source, column)` occurrences omitted from `*` expansion.
    skip: std::collections::BTreeSet<(usize, usize)>,
}

fn natural_join_plan(s: &Select, flat: &[FlatSource]) -> Result<NaturalPlan, EvalError> {
    let mut plan = NaturalPlan::default();
    for (la, ra) in &s.natural {
        let li = flat
            .iter()
            .position(|f| f.alias == *la)
            .ok_or_else(|| EvalError::UnknownTable(la.to_string()))?;
        let ri = flat
            .iter()
            .position(|f| f.alias == *ra)
            .ok_or_else(|| EvalError::UnknownTable(ra.to_string()))?;
        let mut shared = false;
        for (lc, lname) in flat[li].cols.iter().enumerate() {
            if let Some(rc) = flat[ri].cols.iter().position(|c| c == lname) {
                plan.eqs.push(((li, lc), (ri, rc)));
                plan.skip.insert((ri, rc));
                shared = true;
            }
        }
        if !shared {
            return Err(EvalError::Unsupported(format!(
                "NATURAL JOIN of `{la}` and `{ra}` with no shared columns"
            )));
        }
    }
    Ok(plan)
}

/// Value of flattened source `fi`, column `ci`, under the per-group picks.
fn flat_value<'a>(flat: &[FlatSource], picked: &'a [Row], fi: usize, ci: usize) -> &'a Value {
    let f = &flat[fi];
    &picked[f.group][f.offset + ci]
}

#[allow(clippy::too_many_arguments)]
fn cross_product(
    fe: &Frontend,
    db: &Database,
    s: &Select,
    env: &Env<'_>,
    groups: &[SourceGroup],
    flat: &[FlatSource],
    idx: usize,
    picked: &mut Vec<Row>,
    natural: &NaturalPlan,
    out: &mut Vec<Row>,
) -> Result<(), EvalError> {
    if idx == groups.len() {
        for ((li, lc), (ri, rc)) in &natural.eqs {
            // NATURAL JOIN equality is a join predicate: NULLs never match.
            let (a, b) = (
                flat_value(flat, picked, *li, *lc),
                flat_value(flat, picked, *ri, *rc),
            );
            if a.is_null() || b.is_null() || a != b {
                return Ok(());
            }
        }
        let mut scope = env.child();
        for (g, row) in groups.iter().zip(picked.iter()) {
            g.push_frames(row, &mut scope);
        }
        if let Some(w) = &s.where_clause {
            if !eval_pred(fe, db, w, &scope)?.is_true() {
                return Ok(());
            }
        }
        out.push(project_row(fe, db, s, &scope, flat, picked, &natural.skip)?);
        return Ok(());
    }
    let rows = groups[idx].rows.clone();
    for row in rows {
        picked.push(row);
        cross_product(fe, db, s, env, groups, flat, idx + 1, picked, natural, out)?;
        picked.pop();
    }
    Ok(())
}

fn eval_from_item(
    fe: &Frontend,
    db: &Database,
    item: &FromItem,
    env: &Env<'_>,
) -> Result<(Vec<Name>, Vec<Row>), EvalError> {
    match &item.source {
        TableRef::Table(name) => {
            if let Some(rid) = fe.catalog.relation_id(name) {
                let schema = fe.catalog.relation_schema(rid);
                let cols = schema.attrs.iter().map(|(n, _)| n.clone()).collect();
                return Ok((cols, db.table(rid).rows.clone()));
            }
            if let Some(view) = fe.views.get(name) {
                let r = eval_query_env(fe, db, view, &Env::default())?;
                return Ok((r.columns, r.rows));
            }
            Err(EvalError::UnknownTable(name.to_string()))
        }
        TableRef::Subquery(q) => {
            let r = eval_query_env(fe, db, q, env)?;
            Ok((r.columns, r.rows))
        }
    }
}

fn projection_columns(
    s: &Select,
    flat: &[FlatSource],
    natural_skip: &std::collections::BTreeSet<(usize, usize)>,
) -> Result<Vec<Name>, EvalError> {
    let mut out = Vec::new();
    for (i, item) in s.projection.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for (si, f) in flat.iter().enumerate() {
                    for (ci, c) in f.cols.iter().enumerate() {
                        if !natural_skip.contains(&(si, ci)) {
                            out.push(c.clone());
                        }
                    }
                }
            }
            SelectItem::QualifiedStar(alias) => {
                let f = flat
                    .iter()
                    .find(|f| f.alias == *alias)
                    .ok_or_else(|| EvalError::UnknownTable(alias.to_string()))?;
                out.extend(f.cols.iter().cloned());
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    ScalarExpr::Column { column, .. } => column.clone(),
                    _ => Name::from(format!("c{i}")),
                });
                out.push(name);
            }
        }
    }
    Ok(out)
}

fn project_row(
    fe: &Frontend,
    db: &Database,
    s: &Select,
    scope: &Env<'_>,
    flat: &[FlatSource],
    picked: &[Row],
    natural_skip: &std::collections::BTreeSet<(usize, usize)>,
) -> Result<Row, EvalError> {
    let mut row = Vec::new();
    for item in &s.projection {
        match item {
            SelectItem::Star => {
                for (si, f) in flat.iter().enumerate() {
                    for ci in 0..f.cols.len() {
                        if !natural_skip.contains(&(si, ci)) {
                            row.push(flat_value(flat, picked, si, ci).clone());
                        }
                    }
                }
            }
            SelectItem::QualifiedStar(alias) => {
                let (si, f) = flat
                    .iter()
                    .enumerate()
                    .find(|(_, f)| f.alias == *alias)
                    .ok_or_else(|| EvalError::UnknownTable(alias.to_string()))?;
                for ci in 0..f.cols.len() {
                    row.push(flat_value(flat, picked, si, ci).clone());
                }
            }
            SelectItem::Expr { expr, .. } => {
                row.push(eval_scalar(fe, db, expr, scope)?);
            }
        }
    }
    Ok(row)
}

/// `SELECT agg(…) … FROM … WHERE …` without GROUP BY: one output row.
fn eval_aggregate_only(
    fe: &Frontend,
    db: &Database,
    s: &Select,
    env: &Env<'_>,
) -> Result<ResultBag, EvalError> {
    let mut columns = Vec::new();
    let mut row = Vec::new();
    for (i, item) in s.projection.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(EvalError::Unsupported("* with aggregates".into()));
        };
        columns.push(alias.clone().unwrap_or_else(|| Name::from(format!("c{i}"))));
        row.push(eval_agg_scalar(fe, db, expr, s, env)?);
    }
    if let Some(h) = &s.having {
        if !eval_agg_pred(fe, db, h, s, env)?.is_true() {
            return Ok(ResultBag {
                columns,
                rows: vec![],
            });
        }
    }
    Ok(ResultBag {
        columns,
        rows: vec![row],
    })
}

fn eval_agg_scalar(
    fe: &Frontend,
    db: &Database,
    e: &ScalarExpr,
    s: &Select,
    env: &Env<'_>,
) -> Result<Value, EvalError> {
    match e {
        ScalarExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            let values: Vec<Value> = if let AggArg::Expr(inner) = arg {
                if let ScalarExpr::Subquery(q) = &**inner {
                    let r = eval_query_env(fe, db, q, env)?;
                    r.rows.into_iter().map(|mut row| row.remove(0)).collect()
                } else {
                    let inner_q = udp_sql::desugar::aggregate_argument_query(s, arg, &[])
                        .map_err(|e| EvalError::Unsupported(e.to_string()))?;
                    let r = eval_query_env(fe, db, &inner_q, env)?;
                    r.rows.into_iter().map(|mut row| row.remove(0)).collect()
                }
            } else {
                let inner_q = udp_sql::desugar::aggregate_argument_query(s, arg, &[])
                    .map_err(|e| EvalError::Unsupported(e.to_string()))?;
                let r = eval_query_env(fe, db, &inner_q, env)?;
                r.rows.into_iter().map(|mut row| row.remove(0)).collect()
            };
            compute_aggregate(func, values, *distinct)
        }
        ScalarExpr::App(f, args) => {
            let vals: Result<Vec<Value>, _> = args
                .iter()
                .map(|a| eval_agg_scalar(fe, db, a, s, env))
                .collect();
            apply_function(f, &vals?)
        }
        ScalarExpr::Int(i) => Ok(Value::Int(*i)),
        ScalarExpr::Str(v) => Ok(Value::Str(v.clone())),
        other => Err(EvalError::Unsupported(format!(
            "{other:?} in aggregate-only SELECT"
        ))),
    }
}

fn eval_agg_pred(
    fe: &Frontend,
    db: &Database,
    p: &PredExpr,
    s: &Select,
    env: &Env<'_>,
) -> Result<Truth, EvalError> {
    match p {
        PredExpr::Cmp(op, a, b) => {
            let va = eval_agg_scalar(fe, db, a, s, env)?;
            let vb = eval_agg_scalar(fe, db, b, s, env)?;
            compare(*op, &va, &vb)
        }
        PredExpr::And(a, b) => {
            Ok(eval_agg_pred(fe, db, a, s, env)?.and(eval_agg_pred(fe, db, b, s, env)?))
        }
        PredExpr::Or(a, b) => {
            Ok(eval_agg_pred(fe, db, a, s, env)?.or(eval_agg_pred(fe, db, b, s, env)?))
        }
        PredExpr::Not(a) => Ok(eval_agg_pred(fe, db, a, s, env)?.not()),
        PredExpr::True => Ok(Truth::True),
        PredExpr::False => Ok(Truth::False),
        PredExpr::IsNull(e) => Ok(Truth::from_bool(
            eval_agg_scalar(fe, db, e, s, env)?.is_null(),
        )),
        other => Err(EvalError::Unsupported(format!(
            "{other:?} in HAVING without GROUP BY"
        ))),
    }
}

/// Compute a concrete aggregate.
pub fn compute_aggregate(
    func: &str,
    mut values: Vec<Value>,
    distinct: bool,
) -> Result<Value, EvalError> {
    // SQL aggregates ignore NULL inputs (`COUNT(*)` never sees one: the
    // desugaring feeds it the literal 1 per row).
    values.retain(|v| !v.is_null());
    if distinct {
        let mut seen: Vec<Value> = Vec::new();
        values.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
    let ints = || -> Result<Vec<i64>, EvalError> {
        values
            .iter()
            .map(|v| match v {
                Value::Int(i) => Ok(*i),
                other => Err(EvalError::TypeError(format!("{func} over {other}"))),
            })
            .collect()
    };
    match func {
        "count" => Ok(Value::Int(values.len() as i64)),
        "sum" => Ok(Value::Int(ints()?.iter().sum())),
        "min" => Ok(Value::Int(ints()?.into_iter().min().unwrap_or(0))),
        "max" => Ok(Value::Int(ints()?.into_iter().max().unwrap_or(0))),
        "avg" => {
            let v = ints()?;
            if v.is_empty() {
                Ok(Value::Int(0))
            } else {
                Ok(Value::Int(v.iter().sum::<i64>() / v.len() as i64))
            }
        }
        other => {
            // Uninterpreted aggregate: deterministic hash of the multiset.
            let mut sorted = values;
            sorted.sort();
            let mut h = DefaultHasher::new();
            other.hash(&mut h);
            sorted.hash(&mut h);
            Ok(Value::Int((h.finish() % 97) as i64))
        }
    }
}

fn eval_scalar(
    fe: &Frontend,
    db: &Database,
    e: &ScalarExpr,
    env: &Env<'_>,
) -> Result<Value, EvalError> {
    match e {
        ScalarExpr::Column {
            table: Some(t),
            column,
        } => env
            .lookup_qualified(t, column)
            .ok_or_else(|| EvalError::UnknownColumn(format!("{t}.{column}"))),
        ScalarExpr::Column {
            table: None,
            column,
        } => env
            .lookup_unqualified(column)?
            .ok_or_else(|| EvalError::UnknownColumn(column.to_string())),
        ScalarExpr::Int(i) => Ok(Value::Int(*i)),
        ScalarExpr::Str(s) => Ok(Value::Str(s.clone())),
        ScalarExpr::App(f, args) => {
            let vals: Result<Vec<Value>, _> =
                args.iter().map(|a| eval_scalar(fe, db, a, env)).collect();
            apply_function(f, &vals?)
        }
        ScalarExpr::Agg {
            func,
            arg: AggArg::Expr(inner),
            distinct,
        } => {
            // Desugared aggregate: argument is a correlated subquery.
            if let ScalarExpr::Subquery(q) = &**inner {
                let r = eval_query_env(fe, db, q, env)?;
                let values = r.rows.into_iter().map(|mut row| row.remove(0)).collect();
                compute_aggregate(func, values, *distinct)
            } else {
                Err(EvalError::Unsupported(
                    "raw aggregate outside GROUP BY".into(),
                ))
            }
        }
        ScalarExpr::Agg { .. } => Err(EvalError::Unsupported(
            "raw aggregate outside GROUP BY".into(),
        )),
        ScalarExpr::Subquery(q) => {
            let r = eval_query_env(fe, db, q, env)?;
            if r.rows.len() != 1 || r.rows[0].len() != 1 {
                return Err(EvalError::ScalarCardinality(r.rows.len()));
            }
            Ok(r.rows[0][0].clone())
        }
        ScalarExpr::Null => Ok(Value::Null),
        ScalarExpr::Case { whens, else_ } => {
            // A CASE branch fires only when its guard is TRUE (not UNKNOWN).
            for (b, e) in whens {
                if eval_pred(fe, db, b, env)?.is_true() {
                    return eval_scalar(fe, db, e, env);
                }
            }
            eval_scalar(fe, db, else_, env)
        }
    }
}

/// Interpreted arithmetic; everything else is a deterministic hash function
/// (an admissible interpretation of an uninterpreted symbol). All functions
/// are strict in NULL: any NULL argument yields NULL (SQL semantics).
fn apply_function(f: &str, args: &[Value]) -> Result<Value, EvalError> {
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    };
    match (f, args) {
        ("add", [a, b]) => match (int(a), int(b)) {
            (Some(x), Some(y)) => Ok(Value::Int(x.wrapping_add(y))),
            _ => Err(EvalError::TypeError("add".into())),
        },
        ("sub", [a, b]) => match (int(a), int(b)) {
            (Some(x), Some(y)) => Ok(Value::Int(x.wrapping_sub(y))),
            _ => Err(EvalError::TypeError("sub".into())),
        },
        ("mul", [a, b]) => match (int(a), int(b)) {
            (Some(x), Some(y)) => Ok(Value::Int(x.wrapping_mul(y))),
            _ => Err(EvalError::TypeError("mul".into())),
        },
        ("div", [a, b]) => match (int(a), int(b)) {
            (Some(x), Some(y)) if y != 0 => Ok(Value::Int(x / y)),
            (Some(_), Some(_)) => Ok(Value::Int(0)),
            _ => Err(EvalError::TypeError("div".into())),
        },
        _ => {
            let mut h = DefaultHasher::new();
            f.hash(&mut h);
            args.hash(&mut h);
            Ok(Value::Int((h.finish() % 97) as i64))
        }
    }
}

/// Evaluate a predicate against explicit `(alias, columns, row)` frames
/// under SQL's three-valued logic. This is the probe the 3VL truth-table
/// property tests use.
pub fn eval_pred_on_rows(
    fe: &Frontend,
    db: &Database,
    p: &PredExpr,
    frames: &[(Name, Vec<Name>, Row)],
) -> Result<Truth, EvalError> {
    let mut env = Env::default();
    env.frames.extend(frames.iter().cloned());
    eval_pred(fe, db, p, &env)
}

/// Evaluate a predicate under SQL's three-valued logic.
fn eval_pred(
    fe: &Frontend,
    db: &Database,
    p: &PredExpr,
    env: &Env<'_>,
) -> Result<Truth, EvalError> {
    match p {
        PredExpr::Cmp(op, a, b) => {
            let va = eval_scalar(fe, db, a, env)?;
            let vb = eval_scalar(fe, db, b, env)?;
            compare(*op, &va, &vb)
        }
        PredExpr::And(a, b) => Ok(eval_pred(fe, db, a, env)?.and(eval_pred(fe, db, b, env)?)),
        PredExpr::Or(a, b) => Ok(eval_pred(fe, db, a, env)?.or(eval_pred(fe, db, b, env)?)),
        PredExpr::Not(a) => Ok(eval_pred(fe, db, a, env)?.not()),
        PredExpr::True => Ok(Truth::True),
        PredExpr::False => Ok(Truth::False),
        // IS NULL is two-valued even on NULL operands.
        PredExpr::IsNull(e) => Ok(Truth::from_bool(eval_scalar(fe, db, e, env)?.is_null())),
        PredExpr::Exists(q) => {
            let r = eval_query_env(fe, db, q, env)?;
            Ok(Truth::from_bool(!r.rows.is_empty()))
        }
        PredExpr::InQuery(e, q) => {
            // SQL `IN` over NULLs: TRUE on a (non-NULL = non-NULL) match;
            // FALSE only if every member definitively differs; UNKNOWN if
            // unmatched but the probe or some member is NULL.
            let v = eval_scalar(fe, db, e, env)?;
            let r = eval_query_env(fe, db, q, env)?;
            let mut acc = Truth::False;
            for row in &r.rows {
                let member = row
                    .first()
                    .ok_or_else(|| EvalError::Unsupported("IN over no columns".into()))?;
                acc = acc.or(compare(CmpOp::Eq, &v, member)?);
                if acc == Truth::True {
                    break;
                }
            }
            Ok(acc)
        }
    }
}

fn compare(op: CmpOp, a: &Value, b: &Value) -> Result<Truth, EvalError> {
    let ord = match (a, b) {
        // Any NULL operand makes every comparison UNKNOWN (3VL).
        (Value::Null, _) | (_, Value::Null) => return Ok(Truth::Unknown),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => {
            // Heterogeneous comparison: only (in)equality is meaningful.
            return match op {
                CmpOp::Eq => Ok(Truth::False),
                CmpOp::Ne => Ok(Truth::True),
                _ => Err(EvalError::TypeError(format!("compare {a} {op} {b}"))),
            };
        }
    };
    Ok(Truth::from_bool(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => !ord.is_eq(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Table;
    use udp_sql::{build_frontend, parse_program, parse_query};

    fn setup() -> (Frontend, Database) {
        let p = parse_program("schema rs(k:int, a:int);\ntable r(rs);\ntable s(rs);").unwrap();
        let fe = build_frontend(&p).unwrap();
        let mut db = Database::new();
        let r = fe.catalog.relation_id("r").unwrap();
        let s = fe.catalog.relation_id("s").unwrap();
        db.insert(
            r,
            Table::new(vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(2), Value::Int(20)],
            ]),
        );
        db.insert(s, Table::new(vec![vec![Value::Int(2), Value::Int(99)]]));
        (fe, db)
    }

    fn run(fe: &Frontend, db: &Database, sql: &str) -> ResultBag {
        eval_query(fe, db, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn filter_and_project() {
        let (fe, db) = setup();
        let r = run(&fe, &db, "SELECT x.a AS a FROM r x WHERE x.k = 2");
        assert_eq!(r.columns, vec!["a"]);
        assert_eq!(r.rows, vec![vec![Value::Int(20)], vec![Value::Int(20)]]);
    }

    #[test]
    fn distinct_dedupes() {
        let (fe, db) = setup();
        let r = run(&fe, &db, "SELECT DISTINCT x.a AS a FROM r x WHERE x.k = 2");
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn join_multiplicities() {
        let (fe, db) = setup();
        let r = run(
            &fe,
            &db,
            "SELECT x.a AS a, y.a AS b FROM r x, s y WHERE x.k = y.k",
        );
        // two copies of (2,20) in r join the single s row
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn union_all_and_except() {
        let (fe, db) = setup();
        let r = run(
            &fe,
            &db,
            "SELECT x.k AS k FROM r x UNION ALL SELECT y.k AS k FROM s y",
        );
        assert_eq!(r.rows.len(), 4);
        let r = run(
            &fe,
            &db,
            "SELECT x.k AS k FROM r x EXCEPT SELECT y.k AS k FROM s y",
        );
        // k=2 rows are eliminated entirely (paper IR semantics)
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn exists_and_in() {
        let (fe, db) = setup();
        let r = run(
            &fe,
            &db,
            "SELECT x.k AS k FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.k = x.k)",
        );
        assert_eq!(r.rows.len(), 2);
        let r = run(
            &fe,
            &db,
            "SELECT x.k AS k FROM r x WHERE x.k IN (SELECT y.k AS k FROM s y)",
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn group_by_aggregates() {
        let (fe, db) = setup();
        let r = run(
            &fe,
            &db,
            "SELECT x.k AS k, SUM(x.a) AS s FROM r x GROUP BY x.k",
        );
        let mut rows = r.rows;
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(40)],
            ]
        );
    }

    #[test]
    fn count_star_whole_table() {
        let (fe, db) = setup();
        let r = run(&fe, &db, "SELECT COUNT(*) AS n FROM r x");
        assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
        // Empty filter still yields one row with count 0.
        let r = run(&fe, &db, "SELECT COUNT(*) AS n FROM r x WHERE x.k = 99");
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn count_distinct() {
        let (fe, db) = setup();
        let r = run(&fe, &db, "SELECT COUNT(DISTINCT x.k) AS n FROM r x");
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn scalar_subquery_cardinality() {
        let (fe, db) = setup();
        let r = run(
            &fe,
            &db,
            "SELECT (SELECT COUNT(*) AS n FROM s y) AS c FROM r x WHERE x.k = 1",
        );
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn views_are_evaluated() {
        let p = parse_program(
            "schema rs(k:int, a:int);\ntable r(rs);\nview v as SELECT x.a AS a FROM r x WHERE x.a > 15;",
        )
        .unwrap();
        let fe = build_frontend(&p).unwrap();
        let mut db = Database::new();
        let r = fe.catalog.relation_id("r").unwrap();
        db.insert(
            r,
            Table::new(vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ]),
        );
        let out = run(&fe, &db, "SELECT * FROM v t");
        assert_eq!(out.rows, vec![vec![Value::Int(20)]]);
    }

    #[test]
    fn arithmetic_is_interpreted() {
        let (fe, db) = setup();
        let r = run(&fe, &db, "SELECT x.a + 1 AS b FROM r x WHERE x.k = 1");
        assert_eq!(r.rows, vec![vec![Value::Int(11)]]);
    }

    fn run_ext(fe: &Frontend, db: &Database, sql: &str) -> ResultBag {
        let q = udp_sql::parse_query_with(sql, udp_sql::Dialect::Extended).unwrap();
        eval_query(fe, db, &q).unwrap()
    }

    #[test]
    fn set_union_dedupes() {
        let (fe, db) = setup();
        // r has (1,10),(2,20),(2,20): bag union with itself has 6 rows,
        // set union has 2 distinct ones.
        let r = run_ext(&fe, &db, "SELECT * FROM r x UNION SELECT * FROM r y");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn intersect_is_set_semantics() {
        let (fe, db) = setup();
        let r = run_ext(
            &fe,
            &db,
            "SELECT x.k AS k FROM r x INTERSECT SELECT y.k AS k FROM s y",
        );
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn values_evaluates_to_literal_rows() {
        let (fe, db) = setup();
        let r = run_ext(&fe, &db, "SELECT * FROM (VALUES (1, 2), (3, 4)) v");
        assert_eq!(r.columns, vec!["c0", "c1"]);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn case_picks_first_matching_branch() {
        let (fe, db) = setup();
        let r = run_ext(
            &fe,
            &db,
            "SELECT CASE WHEN x.k = 1 THEN 100 WHEN x.a = 20 THEN 200 ELSE 0 END AS v FROM r x",
        );
        let mut vals: Vec<i64> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        vals.sort();
        assert_eq!(vals, vec![100, 200, 200]);
    }

    #[test]
    fn natural_join_merges_shared_columns() {
        let p = udp_sql::parse_program(
            "schema rs(k:int, a:int);\nschema ss(k:int, b:int);\ntable r(rs);\ntable t2(ss);",
        )
        .unwrap();
        let fe = udp_sql::build_frontend(&p).unwrap();
        let mut db = Database::new();
        let r = fe.catalog.relation_id("r").unwrap();
        let t2 = fe.catalog.relation_id("t2").unwrap();
        db.insert(
            r,
            Table::new(vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ]),
        );
        db.insert(t2, Table::new(vec![vec![Value::Int(2), Value::Int(99)]]));
        let out = run_ext(&fe, &db, "SELECT * FROM r x NATURAL JOIN t2 y");
        assert_eq!(out.columns, vec!["k", "a", "b"]);
        assert_eq!(
            out.rows,
            vec![vec![Value::Int(2), Value::Int(20), Value::Int(99)]]
        );
    }
}
