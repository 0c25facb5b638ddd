//! Surface AST for the SQL fragment of Fig 2 plus the DDL statement forms of
//! the input language (`schema`/`table`/`key`/`foreign key`/`view`/`index`/
//! `verify`), modeled on the COSETTE input language the paper builds on.

use std::fmt;
use udp_core::name::Name;

/// A whole input program: declarations followed by verification goals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Declarations and `verify` goals, in source order.
    pub statements: Vec<Statement>,
}

impl Program {
    /// All `verify` goals in the program.
    pub fn goals(&self) -> impl Iterator<Item = (&Query, &Query)> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Verify { q1, q2 } => Some((q1, q2)),
            _ => None,
        })
    }
}

/// Top-level statements (Fig 2 `Statement`).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `schema s(a:int, b:string, ??);` — `open` marks the generic `??`.
    Schema {
        /// Schema name.
        name: Name,
        /// `(attribute, type-name)` pairs as written.
        attrs: Vec<(Name, Name)>,
        /// Declared with `??` (generic schema).
        open: bool,
    },
    /// `table r(s);`
    Table {
        /// Table name.
        name: Name,
        /// Name of its declared schema.
        schema: Name,
    },
    /// `key r(a, b);`
    Key {
        /// The keyed table.
        table: Name,
        /// Key attributes.
        attrs: Vec<Name>,
    },
    /// `foreign key s(x) references r(k);`
    ForeignKey {
        /// Referencing table.
        table: Name,
        /// Referencing attributes.
        attrs: Vec<Name>,
        /// Referenced table.
        ref_table: Name,
        /// Referenced attributes.
        ref_attrs: Vec<Name>,
    },
    /// `view v as SELECT …;`
    View {
        /// View name.
        name: Name,
        /// Its defining query (inlined at use sites).
        query: Query,
    },
    /// `index i on r(a);` — treated as a view per the GMAP approach.
    Index {
        /// Index name.
        name: Name,
        /// Indexed table.
        table: Name,
        /// Indexed attributes.
        attrs: Vec<Name>,
    },
    /// `verify q1 == q2;`
    Verify {
        /// Left query.
        q1: Query,
        /// Right query.
        q2: Query,
    },
}

/// Queries (Fig 2 `Query`, plus the extended-dialect forms of Sec 6.4).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A SELECT block.
    Select(Select),
    /// `UNION ALL` — bag union, `q1(t) + q2(t)`.
    UnionAll(Box<Query>, Box<Query>),
    /// `EXCEPT` with the paper's IR semantics: `q1(t) × not(q2(t))`.
    Except(Box<Query>, Box<Query>),
    /// `UNION` under set semantics (extended dialect). Per Sec 6.4 this is
    /// syntactic sugar for `DISTINCT (q1 UNION ALL q2)`; it lowers to
    /// `‖q1(t) + q2(t)‖`.
    Union(Box<Query>, Box<Query>),
    /// `INTERSECT` under set semantics (extended dialect): `‖q1(t) × q2(t)‖`.
    /// (`INTERSECT ALL` — min of multiplicities — is *not* expressible in a
    /// U-semiring and stays unsupported.)
    Intersect(Box<Query>, Box<Query>),
    /// `VALUES (…), (…)` — a literal relation (extended dialect). Row `i`
    /// contributes the term `[t.c0 = eᵢ₀] × … × [t.cₖ = eᵢₖ]`; the whole
    /// construct lowers to the sum of its row terms.
    Values(Vec<Vec<ScalarExpr>>),
}

impl Query {
    /// Visit every SELECT block of the query in pre-order: a block before
    /// the blocks nested in it, set-operation branches left to right. Inside
    /// a block the walk enters its FROM subqueries, then the subqueries of
    /// the projection, WHERE, GROUP BY, HAVING and outer-join ON clauses,
    /// including those under CASE arms and aggregate arguments; VALUES rows
    /// are searched too. The walk tracks no scopes: a caller that needs to
    /// know which block binds an alias reads each block's FROM list.
    pub fn for_each_select(&self, f: &mut impl FnMut(&Select)) {
        match self {
            Query::Select(s) => {
                f(s);
                for item in &s.from {
                    if let TableRef::Subquery(q) = &item.source {
                        q.for_each_select(f);
                    }
                }
                for item in &s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        scalar_selects(expr, f);
                    }
                }
                if let Some(w) = &s.where_clause {
                    pred_selects(w, f);
                }
                for g in &s.group_by {
                    scalar_selects(g, f);
                }
                if let Some(h) = &s.having {
                    pred_selects(h, f);
                }
                for oj in &s.outer {
                    pred_selects(&oj.on, f);
                }
            }
            Query::UnionAll(a, b)
            | Query::Except(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b) => {
                a.for_each_select(f);
                b.for_each_select(f);
            }
            Query::Values(rows) => {
                for e in rows.iter().flatten() {
                    scalar_selects(e, f);
                }
            }
        }
    }
}

/// The scalar half of [`Query::for_each_select`].
fn scalar_selects(e: &ScalarExpr, f: &mut impl FnMut(&Select)) {
    match e {
        ScalarExpr::Column { .. } | ScalarExpr::Int(_) | ScalarExpr::Str(_) | ScalarExpr::Null => {}
        ScalarExpr::App(_, args) => {
            for a in args {
                scalar_selects(a, f);
            }
        }
        ScalarExpr::Agg { arg, .. } => {
            if let AggArg::Expr(inner) = arg {
                scalar_selects(inner, f);
            }
        }
        ScalarExpr::Subquery(q) => q.for_each_select(f),
        ScalarExpr::Case { whens, else_ } => {
            for (b, v) in whens {
                pred_selects(b, f);
                scalar_selects(v, f);
            }
            scalar_selects(else_, f);
        }
    }
}

/// The predicate half of [`Query::for_each_select`].
fn pred_selects(p: &PredExpr, f: &mut impl FnMut(&Select)) {
    match p {
        PredExpr::Cmp(_, a, b) => {
            scalar_selects(a, f);
            scalar_selects(b, f);
        }
        PredExpr::And(a, b) | PredExpr::Or(a, b) => {
            pred_selects(a, f);
            pred_selects(b, f);
        }
        PredExpr::Not(a) => pred_selects(a, f),
        PredExpr::True | PredExpr::False => {}
        PredExpr::IsNull(e) => scalar_selects(e, f),
        PredExpr::Exists(q) => q.for_each_select(f),
        PredExpr::InQuery(e, q) => {
            scalar_selects(e, f);
            q.for_each_select(f);
        }
    }
}

/// A SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection items.
    pub projection: Vec<SelectItem>,
    /// FROM sources with aliases (JOIN … ON folds into `where_clause`).
    pub from: Vec<FromItem>,
    /// WHERE predicate, if any.
    pub where_clause: Option<PredExpr>,
    /// GROUP BY keys (desugared before lowering).
    pub group_by: Vec<ScalarExpr>,
    /// HAVING predicate (requires `group_by`).
    pub having: Option<PredExpr>,
    /// `NATURAL JOIN` alias pairs (extended dialect): each entry
    /// `(left, right)` equates every attribute name the two sources' closed
    /// schemas share, and a bare `*` projection emits the shared columns
    /// once (from the left source). The right alias of each pair is the
    /// FROM item immediately following the left one.
    pub natural: Vec<(Name, Name)>,
    /// Outer joins (full dialect): each spec names the alias immediately
    /// preceding the joined item (`left`), the joined item's alias
    /// (`right`), and the `ON` predicate. Kept separate from `where_clause`
    /// because the ON condition of an outer join does *not* filter — it
    /// decides padding. The udp-ext subsystem eliminates these before
    /// lowering; [`crate::lower`] rejects a `Select` that still carries one.
    pub outer: Vec<OuterJoin>,
}

/// Outer-join flavor (full dialect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterKind {
    /// `LEFT [OUTER] JOIN` — unmatched left rows survive, right columns
    /// NULL-padded.
    Left,
    /// `RIGHT [OUTER] JOIN`.
    Right,
    /// `FULL [OUTER] JOIN`.
    Full,
}

impl fmt::Display for OuterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OuterKind::Left => "LEFT",
            OuterKind::Right => "RIGHT",
            OuterKind::Full => "FULL",
        })
    }
}

/// One `… {LEFT|RIGHT|FULL} JOIN item ON pred` clause (full dialect).
#[derive(Debug, Clone, PartialEq)]
pub struct OuterJoin {
    /// The join flavor.
    pub kind: OuterKind,
    /// Alias of the FROM item immediately preceding the joined one.
    pub left: Name,
    /// Alias of the joined FROM item.
    pub right: Name,
    /// The `ON` condition (mandatory for outer joins).
    pub on: PredExpr,
}

impl Select {
    /// Does any projection item or the HAVING clause contain an aggregate?
    pub fn has_aggregates(&self) -> bool {
        self.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }) || self
            .having
            .as_ref()
            .is_some_and(PredExpr::contains_aggregate)
    }
}

/// Projection items (Fig 2 `Projection`).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `x.*`
    QualifiedStar(Name),
    /// `e AS a` (alias optional for bare column references).
    Expr {
        /// The projected expression.
        expr: ScalarExpr,
        /// Output column name, if given.
        alias: Option<Name>,
    },
}

/// One entry of a FROM clause: a table or subquery with an alias.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// The table or subquery scanned.
    pub source: TableRef,
    /// Alias binding the row variable.
    pub alias: Name,
}

/// What a FROM item scans.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named base table or view.
    Table(Name),
    /// A parenthesized subquery.
    Subquery(Box<Query>),
}

/// Scalar expressions (Fig 2 `Expression`).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// `[x.]a`
    Column {
        /// Qualifying alias, if written.
        table: Option<Name>,
        /// Column name.
        column: Name,
    },
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// The `NULL` literal (full dialect). Lowered to the distinguished NULL
    /// tag constant of the udp-ext nullable-value encoding; comparison
    /// predicates over it are compiled to SQL's three-valued semantics by
    /// `udp_ext::encode` before lowering.
    Null,
    /// Uninterpreted function application; arithmetic operators are encoded
    /// as `add`/`sub`/`mul`/`div` (uninterpreted, Sec 6.4).
    App(Name, Vec<ScalarExpr>),
    /// Aggregate call `agg(e)` / `agg(*)` / `agg(DISTINCT e)`.
    Agg {
        /// Aggregate name (`sum`, `count`, …).
        func: Name,
        /// The argument form.
        arg: AggArg,
        /// `DISTINCT` aggregate?
        distinct: bool,
    },
    /// Scalar subquery `(SELECT …)` used as a value.
    Subquery(Box<Query>),
    /// Searched `CASE WHEN b THEN e … ELSE e END` (extended dialect). The
    /// `ELSE` arm is mandatory — without it SQL produces NULL, which the
    /// fragment excludes. The simple form `CASE e WHEN v THEN r …` is
    /// desugared by the parser into the searched form. A comparison against
    /// a CASE lowers to the guarded disjunction of its branch comparisons.
    Case {
        /// `(guard, value)` arms in source order.
        whens: Vec<(PredExpr, ScalarExpr)>,
        /// The mandatory ELSE value.
        else_: Box<ScalarExpr>,
    },
}

/// Argument of an aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub enum AggArg {
    /// `agg(*)`.
    Star,
    /// `agg(e)`.
    Expr(Box<ScalarExpr>),
}

impl ScalarExpr {
    /// The qualified column `table.column`.
    pub fn col(table: impl Into<Name>, column: impl Into<Name>) -> Self {
        ScalarExpr::Column {
            table: Some(table.into()),
            column: column.into(),
        }
    }

    /// Does the expression contain an aggregate call anywhere?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            ScalarExpr::Agg { .. } => true,
            ScalarExpr::App(_, args) => args.iter().any(ScalarExpr::contains_aggregate),
            ScalarExpr::Case { whens, else_ } => {
                whens
                    .iter()
                    .any(|(b, e)| b.contains_aggregate() || e.contains_aggregate())
                    || else_.contains_aggregate()
            }
            _ => false,
        }
    }

    /// Is this expression a `CASE`? Comparisons against CASE lower through a
    /// dedicated guarded-disjunction path rather than [`ScalarExpr`] lowering.
    pub fn is_case(&self) -> bool {
        matches!(self, ScalarExpr::Case { .. })
    }
}

/// Comparison operators. Everything except `=`/`<>` is an uninterpreted
/// predicate to the prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Name used when lowering: `=`/`<>` are interpreted, the rest become
    /// uninterpreted predicate symbols.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The complementary comparison (`NOT (a < b)` ⇔ `a >= b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Predicates (Fig 2 `Predicate`).
#[derive(Debug, Clone, PartialEq)]
pub enum PredExpr {
    /// A comparison `e₁ op e₂`.
    Cmp(CmpOp, ScalarExpr, ScalarExpr),
    /// Conjunction.
    And(Box<PredExpr>, Box<PredExpr>),
    /// Disjunction.
    Or(Box<PredExpr>, Box<PredExpr>),
    /// Negation.
    Not(Box<PredExpr>),
    /// The constant `TRUE`.
    True,
    /// The constant `FALSE`.
    False,
    /// `EXISTS (q)`.
    Exists(Box<Query>),
    /// `e IN (q)` — desugars to an existential.
    InQuery(ScalarExpr, Box<Query>),
    /// `e IS NULL` (full dialect). Two-valued even over NULLs: true exactly
    /// when `e` carries the NULL tag. `e IS NOT NULL` parses as
    /// `Not(IsNull(e))`.
    IsNull(Box<ScalarExpr>),
}

impl PredExpr {
    /// Conjunction constructor.
    pub fn and(a: PredExpr, b: PredExpr) -> PredExpr {
        PredExpr::And(Box::new(a), Box::new(b))
    }

    /// Does the predicate contain an aggregate call anywhere?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            PredExpr::Cmp(_, a, b) => a.contains_aggregate() || b.contains_aggregate(),
            PredExpr::And(a, b) | PredExpr::Or(a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            PredExpr::Not(a) => a.contains_aggregate(),
            PredExpr::IsNull(e) => e.contains_aggregate(),
            _ => false,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negation_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn aggregate_detection() {
        let agg = ScalarExpr::Agg {
            func: "sum".into(),
            arg: AggArg::Expr(Box::new(ScalarExpr::col("x", "a"))),
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        assert!(ScalarExpr::App("add".into(), vec![agg.clone()]).contains_aggregate());
        assert!(!ScalarExpr::col("x", "a").contains_aggregate());
        let p = PredExpr::Cmp(CmpOp::Gt, agg, ScalarExpr::Int(0));
        assert!(p.contains_aggregate());
    }

    #[test]
    fn for_each_select_visits_every_block_once_in_pre_order() {
        // Each block is named by its first FROM alias, numbered in the
        // pre-order the walk promises.
        let q = crate::parser::parse_query_with(
            "SELECT (SELECT b2.a AS v FROM r b2) AS p, \
                    CASE WHEN EXISTS (SELECT * FROM r b3) \
                         THEN (SELECT b4.a AS v FROM r b4) ELSE 0 END AS c, \
                    SUM((SELECT b5.a AS v FROM r b5)) AS s \
             FROM (SELECT * FROM r b1) b0 LEFT JOIN r y ON EXISTS (SELECT * FROM r b9) \
             WHERE EXISTS (SELECT * FROM r b6) \
             GROUP BY (SELECT b7.a AS v FROM r b7) \
             HAVING EXISTS (SELECT * FROM r b8) \
             UNION ALL \
             SELECT * FROM (VALUES ((SELECT b11.a AS v FROM r b11))) b10",
            crate::parser::Dialect::Full,
        )
        .unwrap();
        let mut seen = Vec::new();
        q.for_each_select(&mut |s| seen.push(s.from[0].alias.to_string()));
        let want: Vec<String> = (0..12).map(|i| format!("b{i}")).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn goals_iterator_extracts_verifies() {
        let q = Query::Select(Select {
            distinct: false,
            projection: vec![SelectItem::Star],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            natural: vec![],
            outer: vec![],
        });
        let p = Program {
            statements: vec![
                Statement::Table {
                    name: "r".into(),
                    schema: "s".into(),
                },
                Statement::Verify {
                    q1: q.clone(),
                    q2: q.clone(),
                },
            ],
        };
        assert_eq!(p.goals().count(), 1);
    }
}
