//! Recursive-descent parser for the input language.
//!
//! Grammar (statements follow the COSETTE input language; queries follow
//! Fig 2 with conventional SQL surface syntax):
//!
//! ```text
//! program   := statement*
//! statement := schema IDENT '(' attr, … [',' '??'] ')' ';'
//!            | table IDENT '(' IDENT ')' ';'
//!            | key IDENT '(' IDENT, … ')' ';'
//!            | foreign key IDENT '(' … ')' references IDENT '(' … ')' ';'
//!            | view IDENT as query ';'
//!            | index IDENT on IDENT '(' IDENT, … ')' ';'
//!            | verify query '==' query ';'
//! query     := select [UNION ALL select | EXCEPT select]*
//! ```
//!
//! `JOIN … ON p` desugars into a cross product plus a WHERE conjunct;
//! unsupported features (CASE, NULL, outer joins, set-UNION, windows, …) are
//! recognized and reported as [`ParseError::Unsupported`] so the harness can
//! reproduce the Fig 5 "supported rules" bucketing.

use crate::ast::*;
use crate::feature::Feature;
use crate::lexer::{lex, LexError, Spanned, Tok};
use std::fmt;
use udp_core::name::Name;

/// Which SQL fragment the parser accepts.
///
/// [`Dialect::Paper`] is the exact fragment of Fig 2 — the one the paper's
/// prototype supports and the one the Fig 5 reproduction depends on (the 193
/// out-of-fragment Calcite rules *must* be rejected for the counts to
/// match). [`Dialect::Extended`] adds the features Sec 6.4 describes as
/// "handled by syntactic rewrites": set-semantics `UNION`, `INTERSECT`,
/// `VALUES` literal relations, searched/simple `CASE` (with a mandatory
/// `ELSE`), and `NATURAL JOIN`. [`Dialect::Full`] further adds the udp-ext
/// fragment extensions — NULL literals, `IS [NOT] NULL`, outer joins, and
/// `ORDER BY` stripping — whose encodings live in the `udp-ext` crate.
/// Window functions remain outside every dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dialect {
    /// The paper's Fig 2 fragment (default).
    #[default]
    Paper,
    /// Fig 2 plus the Sec 6.4 syntactic-rewrite extensions.
    Extended,
    /// [`Dialect::Extended`] plus the udp-ext constructs: `NULL` literals,
    /// `IS [NOT] NULL`, `LEFT`/`RIGHT`/`FULL [OUTER] JOIN … ON`, and
    /// top-level `ORDER BY` (stripped with a recorded warning — bag
    /// semantics make it a no-op). Programs parsed in this dialect must run
    /// through `udp_ext` desugaring before lowering (`udp_sql::lower`
    /// rejects un-desugared outer joins).
    Full,
}

/// Parse errors, including feature-based rejections.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failure.
    Lex(LexError),
    /// Malformed input.
    Syntax {
        /// What was expected / found.
        message: String,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        col: u32,
    },
    /// A recognized SQL feature outside the selected dialect.
    Unsupported {
        /// The offending feature.
        feature: Feature,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        col: u32,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Syntax { message, line, col } => {
                write!(f, "syntax error at {line}:{col}: {message}")
            }
            ParseError::Unsupported { feature, line, col } => {
                write!(f, "unsupported feature at {line}:{col}: {feature}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// The rejected feature, if this is a feature-based rejection.
    pub fn unsupported_feature(&self) -> Option<Feature> {
        match self {
            ParseError::Unsupported { feature, .. } => Some(*feature),
            _ => None,
        }
    }
}

/// Parse a whole program in the paper dialect.
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    parse_program_with(input, Dialect::Paper)
}

/// Parse a whole program in the given [`Dialect`].
pub fn parse_program_with(input: &str, dialect: Dialect) -> Result<Program, ParseError> {
    parse_program_with_warnings(input, dialect).map(|(p, _)| p)
}

/// A non-fatal condition the parser resolved on its own (full dialect), e.g.
/// a stripped top-level `ORDER BY`.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    /// What was stripped or rewritten.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warning at {}:{}: {}", self.line, self.col, self.message)
    }
}

/// [`parse_program_with`], also returning the warnings the parse recorded
/// (currently only the full dialect's `ORDER BY` stripping emits any).
pub fn parse_program_with_warnings(
    input: &str,
    dialect: Dialect,
) -> Result<(Program, Vec<Warning>), ParseError> {
    let toks = lex(input).map_err(ParseError::Lex)?;
    let mut p = Parser::new(toks, dialect);
    let mut statements = Vec::new();
    while !p.at_eof() {
        statements.push(p.statement()?);
    }
    Ok((Program { statements }, p.warnings))
}

/// Parse a single query in the paper dialect (convenience for tests and the
/// REPL-ish CLI).
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    parse_query_with(input, Dialect::Paper)
}

/// Parse a single query in the given [`Dialect`].
pub fn parse_query_with(input: &str, dialect: Dialect) -> Result<Query, ParseError> {
    let toks = lex(input).map_err(ParseError::Lex)?;
    let mut p = Parser::new(toks, dialect);
    let q = p.query()?;
    p.eat_semi_opt();
    p.expect_eof()?;
    Ok(q)
}

/// Identifiers that terminate an implicit alias position.
const RESERVED: &[&str] = &[
    "select",
    "from",
    "where",
    "group",
    "having",
    "union",
    "except",
    "intersect",
    "on",
    "join",
    "inner",
    "left",
    "right",
    "full",
    "cross",
    "order",
    "as",
    "and",
    "or",
    "not",
    "exists",
    "in",
    "verify",
    "schema",
    "table",
    "key",
    "foreign",
    "references",
    "view",
    "index",
    "distinct",
    "limit",
    "natural",
    "case",
    "when",
    "then",
    "else",
    "end",
    "values",
    "is",
    "null",
    "outer",
    "asc",
    "desc",
];

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    dialect: Dialect,
    /// Predicates from `JOIN … ON` clauses awaiting merge into the enclosing
    /// SELECT's WHERE. Scoped by a watermark in [`Parser::select`] so nested
    /// subqueries cannot steal the enclosing query's join predicates.
    pending_join_preds: Vec<PredExpr>,
    /// `NATURAL JOIN` alias pairs, same side-channel discipline as
    /// `pending_join_preds` (extended dialect only).
    pending_natural: Vec<(Name, Name)>,
    /// Outer-join specs, same side-channel discipline (full dialect only).
    pending_outer: Vec<OuterJoin>,
    /// Non-fatal notes (full dialect `ORDER BY` stripping).
    warnings: Vec<Warning>,
}

impl Parser {
    fn new(toks: Vec<Spanned>, dialect: Dialect) -> Parser {
        Parser {
            toks,
            pos: 0,
            dialect,
            pending_join_preds: Vec::new(),
            pending_natural: Vec::new(),
            pending_outer: Vec::new(),
            warnings: Vec::new(),
        }
    }

    fn extended(&self) -> bool {
        matches!(self.dialect, Dialect::Extended | Dialect::Full)
    }

    fn full(&self) -> bool {
        self.dialect == Dialect::Full
    }
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.toks[self.pos];
        (s.line, s.col)
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError::Syntax {
            message: message.into(),
            line,
            col,
        })
    }

    fn unsupported<T>(&self, feature: Feature) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError::Unsupported { feature, line, col })
    }

    /// Is the current token the given (case-folded) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek().describe()))
        }
    }

    fn expect_tok(&mut self, t: Tok) -> Result<(), ParseError> {
        if *self.peek() == t {
            self.advance();
            Ok(())
        } else {
            self.err(format!(
                "expected {}, found {}",
                t.describe(),
                self.peek().describe()
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<Name, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {}", other.describe())),
        }
    }

    fn eat_semi_opt(&mut self) {
        while matches!(self.peek(), Tok::Semi) {
            self.advance();
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            self.err(format!("trailing input: {}", self.peek().describe()))
        }
    }

    // ---------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_kw("schema") {
            return self.schema_stmt();
        }
        if self.eat_kw("table") {
            let name = self.expect_ident()?;
            self.expect_tok(Tok::LParen)?;
            let schema = self.expect_ident()?;
            self.expect_tok(Tok::RParen)?;
            self.expect_tok(Tok::Semi)?;
            return Ok(Statement::Table { name, schema });
        }
        if self.eat_kw("key") {
            let table = self.expect_ident()?;
            let attrs = self.paren_ident_list()?;
            self.expect_tok(Tok::Semi)?;
            return Ok(Statement::Key { table, attrs });
        }
        if self.eat_kw("foreign") {
            self.expect_kw("key")?;
            let table = self.expect_ident()?;
            let attrs = self.paren_ident_list()?;
            self.expect_kw("references")?;
            let ref_table = self.expect_ident()?;
            let ref_attrs = self.paren_ident_list()?;
            self.expect_tok(Tok::Semi)?;
            return Ok(Statement::ForeignKey {
                table,
                attrs,
                ref_table,
                ref_attrs,
            });
        }
        if self.eat_kw("view") {
            let name = self.expect_ident()?;
            self.expect_kw("as")?;
            let query = self.query()?;
            self.expect_tok(Tok::Semi)?;
            return Ok(Statement::View { name, query });
        }
        if self.eat_kw("index") {
            let name = self.expect_ident()?;
            self.expect_kw("on")?;
            let table = self.expect_ident()?;
            let attrs = self.paren_ident_list()?;
            self.expect_tok(Tok::Semi)?;
            return Ok(Statement::Index { name, table, attrs });
        }
        if self.eat_kw("verify") {
            let q1 = self.query()?;
            self.expect_tok(Tok::EqEq)?;
            let q2 = self.query()?;
            self.expect_tok(Tok::Semi)?;
            return Ok(Statement::Verify { q1, q2 });
        }
        if self.at_kw("with") {
            return self.unsupported(Feature::With);
        }
        self.err(format!(
            "expected a statement, found {}",
            self.peek().describe()
        ))
    }

    fn schema_stmt(&mut self) -> Result<Statement, ParseError> {
        let name = self.expect_ident()?;
        self.expect_tok(Tok::LParen)?;
        let mut attrs = Vec::new();
        let mut open = false;
        loop {
            if matches!(self.peek(), Tok::QQ) {
                self.advance();
                open = true;
            } else {
                let attr = self.expect_ident()?;
                self.expect_tok(Tok::Colon)?;
                let mut ty = self.expect_ident()?;
                // `a:int?` marks the attribute nullable (udp-ext encoding);
                // the suffix rides on the type name through the AST.
                if matches!(self.peek(), Tok::Question) {
                    self.advance();
                    ty = Name::from(format!("{ty}?"));
                }
                attrs.push((attr, ty));
            }
            if !matches!(self.peek(), Tok::Comma) {
                break;
            }
            self.advance();
        }
        self.expect_tok(Tok::RParen)?;
        self.expect_tok(Tok::Semi)?;
        Ok(Statement::Schema { name, attrs, open })
    }

    fn paren_ident_list(&mut self) -> Result<Vec<Name>, ParseError> {
        self.expect_tok(Tok::LParen)?;
        let mut out = vec![self.expect_ident()?];
        while matches!(self.peek(), Tok::Comma) {
            self.advance();
            out.push(self.expect_ident()?);
        }
        self.expect_tok(Tok::RParen)?;
        Ok(out)
    }

    // --------------------------------------------------------------- query

    pub(crate) fn query(&mut self) -> Result<Query, ParseError> {
        let mut q = self.query_atom()?;
        loop {
            if self.at_kw("union") {
                self.advance();
                if self.eat_kw("all") {
                    let rhs = self.query_atom()?;
                    q = Query::UnionAll(Box::new(q), Box::new(rhs));
                } else if self.extended() {
                    let rhs = self.query_atom()?;
                    q = Query::Union(Box::new(q), Box::new(rhs));
                } else {
                    return self.unsupported(Feature::SetUnion);
                }
            } else if self.at_kw("except") {
                self.advance();
                self.eat_kw("all");
                let rhs = self.query_atom()?;
                q = Query::Except(Box::new(q), Box::new(rhs));
            } else if self.at_kw("intersect") {
                // `INTERSECT ALL` (min of multiplicities) is not expressible
                // in a U-semiring; only the set-semantics form is extended.
                if !self.extended() || matches!(self.peek2(), Tok::Ident(s) if s == "all") {
                    return self.unsupported(Feature::Intersect);
                }
                self.advance();
                let rhs = self.query_atom()?;
                q = Query::Intersect(Box::new(q), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(q)
    }

    fn query_atom(&mut self) -> Result<Query, ParseError> {
        if matches!(self.peek(), Tok::LParen) {
            self.advance();
            let q = self.query()?;
            self.expect_tok(Tok::RParen)?;
            return Ok(q);
        }
        if self.at_kw("values") {
            if !self.extended() {
                return self.unsupported(Feature::Values);
            }
            return self.values();
        }
        self.select()
    }

    /// `VALUES (e, …) [, (e, …)]*` (extended dialect). All rows must have the
    /// same arity; the lowerer checks this against the first row.
    fn values(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(Tok::LParen)?;
            let mut row = vec![self.expr()?];
            while matches!(self.peek(), Tok::Comma) {
                self.advance();
                row.push(self.expr()?);
            }
            self.expect_tok(Tok::RParen)?;
            rows.push(row);
            if !matches!(self.peek(), Tok::Comma) {
                break;
            }
            self.advance();
        }
        Ok(Query::Values(rows))
    }

    fn select(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let projection = self.projection()?;
        let join_mark = self.pending_join_preds.len();
        let natural_mark = self.pending_natural.len();
        let outer_mark = self.pending_outer.len();
        let from = if self.eat_kw("from") {
            self.from_list()?
        } else {
            Vec::new()
        };
        let join_preds = self.pending_join_preds.split_off(join_mark);
        let natural = self.pending_natural.split_off(natural_mark);
        let outer = self.pending_outer.split_off(outer_mark);
        let mut where_clause = if self.eat_kw("where") {
            Some(self.pred()?)
        } else {
            None
        };
        for jp in join_preds {
            where_clause = Some(match where_clause {
                Some(w) => PredExpr::and(jp, w),
                None => jp,
            });
        }
        let mut group_by = Vec::new();
        let mut having = None;
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while matches!(self.peek(), Tok::Comma) {
                self.advance();
                group_by.push(self.expr()?);
            }
            if self.eat_kw("having") {
                having = Some(self.pred()?);
            }
        }
        if self.at_kw("order") {
            if !self.full() {
                return self.unsupported(Feature::OrderBy);
            }
            // Bag semantics make ORDER BY (without LIMIT/FETCH) a no-op:
            // strip it and record a warning instead of rejecting (u08).
            let (line, col) = self.here();
            self.expect_kw("order")?;
            self.expect_kw("by")?;
            loop {
                let _ = self.expr()?;
                let _ = self.eat_kw("asc") || self.eat_kw("desc");
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.advance();
            }
            self.warnings.push(Warning {
                message: "ORDER BY stripped (irrelevant under bag semantics)".into(),
                line,
                col,
            });
        }
        if self.at_kw("order") || self.at_kw("limit") || self.at_kw("fetch") {
            return self.unsupported(Feature::OrderBy);
        }
        Ok(Query::Select(Select {
            distinct,
            projection,
            from,
            where_clause,
            group_by,
            having,
            natural,
            outer,
        }))
    }

    fn projection(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Tok::Comma) {
            self.advance();
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if matches!(self.peek(), Tok::Star) {
            self.advance();
            return Ok(SelectItem::Star);
        }
        // `x.*`
        if let Tok::Ident(name) = self.peek().clone() {
            if matches!(self.peek2(), Tok::Dot)
                && matches!(
                    self.toks[(self.pos + 2).min(self.toks.len() - 1)].tok,
                    Tok::Star
                )
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedStar(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else if let Tok::Ident(name) = self.peek().clone() {
            if RESERVED.contains(&name.as_str()) {
                None
            } else {
                self.advance();
                Some(name)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn from_list(&mut self) -> Result<Vec<FromItem>, ParseError> {
        let mut items = Vec::new();
        let mut join_preds: Vec<PredExpr> = Vec::new();
        items.push(self.from_item()?);
        loop {
            if matches!(self.peek(), Tok::Comma) {
                self.advance();
                items.push(self.from_item()?);
            } else if self.at_kw("join") || self.at_kw("inner") || self.at_kw("cross") {
                let cross = self.at_kw("cross");
                self.advance(); // join | inner | cross
                if !cross && self.at_kw("join") {
                    // consumed `inner`, now `join`
                    self.advance();
                } else if cross {
                    self.expect_kw("join")?;
                }
                items.push(self.from_item()?);
                if self.eat_kw("on") {
                    join_preds.push(self.pred()?);
                }
            } else if self.at_kw("left") || self.at_kw("right") || self.at_kw("full") {
                if !self.full() {
                    return self.unsupported(Feature::OuterJoin);
                }
                let kind = if self.at_kw("left") {
                    OuterKind::Left
                } else if self.at_kw("right") {
                    OuterKind::Right
                } else {
                    OuterKind::Full
                };
                self.advance(); // left | right | full
                self.eat_kw("outer");
                self.expect_kw("join")?;
                let left_alias = items
                    .last()
                    .map(|fi: &FromItem| fi.alias.clone())
                    .ok_or(())
                    .or_else(|()| self.err("outer join with no left operand"))?;
                let item = self.from_item()?;
                self.expect_kw("on")?;
                let on = self.pred()?;
                self.pending_outer.push(OuterJoin {
                    kind,
                    left: left_alias,
                    right: item.alias.clone(),
                    on,
                });
                items.push(item);
            } else if self.at_kw("natural") {
                if !self.extended() {
                    return self.unsupported(Feature::NaturalJoin);
                }
                self.advance();
                self.expect_kw("join")?;
                let left_alias = items
                    .last()
                    .map(|fi: &FromItem| fi.alias.clone())
                    .ok_or(())
                    .or_else(|()| self.err("NATURAL JOIN with no left operand"))?;
                let item = self.from_item()?;
                self.pending_natural.push((left_alias, item.alias.clone()));
                items.push(item);
            } else {
                break;
            }
        }
        // JOIN … ON desugars into WHERE conjuncts; stash them on the last
        // item via a marker is ugly — instead we return them through a
        // side-channel: wrap into a pseudo-subquery is worse. We simply merge
        // them into the caller's WHERE by storing in `self.pending_join`.
        self.pending_join_preds.extend(join_preds);
        Ok(items)
    }

    fn from_item(&mut self) -> Result<FromItem, ParseError> {
        if matches!(self.peek(), Tok::LParen) {
            self.advance();
            let q = self.query()?;
            self.expect_tok(Tok::RParen)?;
            self.eat_kw("as");
            let alias = self.expect_ident()?;
            return Ok(FromItem {
                source: TableRef::Subquery(Box::new(q)),
                alias,
            });
        }
        let table = self.expect_ident()?;
        if RESERVED.contains(&table.as_str()) {
            return self.err(format!("expected table name, found keyword `{table}`"));
        }
        self.eat_kw("as");
        let alias = if let Tok::Ident(name) = self.peek().clone() {
            if RESERVED.contains(&name.as_str()) {
                table.clone()
            } else {
                self.advance();
                name
            }
        } else {
            table.clone()
        };
        Ok(FromItem {
            source: TableRef::Table(table),
            alias,
        })
    }

    // ---------------------------------------------------------- predicates

    fn pred(&mut self) -> Result<PredExpr, ParseError> {
        self.or_pred()
    }

    fn or_pred(&mut self) -> Result<PredExpr, ParseError> {
        let mut p = self.and_pred()?;
        while self.eat_kw("or") {
            let rhs = self.and_pred()?;
            p = PredExpr::Or(Box::new(p), Box::new(rhs));
        }
        Ok(p)
    }

    fn and_pred(&mut self) -> Result<PredExpr, ParseError> {
        let mut p = self.not_pred()?;
        while self.eat_kw("and") {
            let rhs = self.not_pred()?;
            p = PredExpr::And(Box::new(p), Box::new(rhs));
        }
        Ok(p)
    }

    fn not_pred(&mut self) -> Result<PredExpr, ParseError> {
        if self.eat_kw("not") {
            let inner = self.not_pred()?;
            return Ok(PredExpr::Not(Box::new(inner)));
        }
        self.primary_pred()
    }

    fn primary_pred(&mut self) -> Result<PredExpr, ParseError> {
        if self.eat_kw("true") {
            return Ok(PredExpr::True);
        }
        if self.eat_kw("false") {
            return Ok(PredExpr::False);
        }
        if self.eat_kw("exists") {
            self.expect_tok(Tok::LParen)?;
            let q = self.query()?;
            self.expect_tok(Tok::RParen)?;
            return Ok(PredExpr::Exists(Box::new(q)));
        }
        // `( pred )` vs `( expr ) op expr`: backtrack.
        if matches!(self.peek(), Tok::LParen)
            && !matches!(self.peek2(), Tok::Ident(s) if s == "select")
        {
            let save = self.pos;
            self.advance();
            if let Ok(p) = self.pred() {
                if matches!(self.peek(), Tok::RParen) {
                    // Could still be `(expr) op …`; only accept if no
                    // comparison follows.
                    self.advance();
                    if !self.at_cmp_op() {
                        return Ok(p);
                    }
                }
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        if self.at_kw("is") {
            if !self.full() {
                return self.unsupported(Feature::Null);
            }
            self.advance();
            let negated = self.eat_kw("not");
            if !self.eat_kw("null") {
                return self.err(format!(
                    "expected NULL after IS, found {}",
                    self.peek().describe()
                ));
            }
            let atom = PredExpr::IsNull(Box::new(lhs));
            return Ok(if negated {
                PredExpr::Not(Box::new(atom))
            } else {
                atom
            });
        }
        if self.eat_kw("between") {
            let lo = self.expr()?;
            self.expect_kw("and")?;
            let hi = self.expr()?;
            return Ok(PredExpr::and(
                PredExpr::Cmp(CmpOp::Ge, lhs.clone(), lo),
                PredExpr::Cmp(CmpOp::Le, lhs, hi),
            ));
        }
        if self.eat_kw("in") {
            self.expect_tok(Tok::LParen)?;
            let q = self.query()?;
            self.expect_tok(Tok::RParen)?;
            return Ok(PredExpr::InQuery(lhs, Box::new(q)));
        }
        if self.eat_kw("not") {
            self.expect_kw("in")?;
            self.expect_tok(Tok::LParen)?;
            let q = self.query()?;
            self.expect_tok(Tok::RParen)?;
            return Ok(PredExpr::Not(Box::new(PredExpr::InQuery(lhs, Box::new(q)))));
        }
        let op = self.cmp_op()?;
        let rhs = self.expr()?;
        Ok(PredExpr::Cmp(op, lhs, rhs))
    }

    fn at_cmp_op(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge
        )
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            other => {
                return self.err(format!(
                    "expected comparison operator, found {}",
                    other.describe()
                ))
            }
        };
        self.advance();
        Ok(op)
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<ScalarExpr, ParseError> {
        let mut e = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => "add",
                Tok::Minus => "sub",
                _ => break,
            };
            self.advance();
            let rhs = self.term()?;
            e = ScalarExpr::App(op.into(), vec![e, rhs]);
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<ScalarExpr, ParseError> {
        let mut e = self.factor()?;
        loop {
            let op = match self.peek() {
                Tok::Star => "mul",
                Tok::Slash => "div",
                _ => break,
            };
            self.advance();
            let rhs = self.factor()?;
            e = ScalarExpr::App(op.into(), vec![e, rhs]);
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<ScalarExpr, ParseError> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.advance();
                Ok(ScalarExpr::Int(i))
            }
            Tok::Str(s) => {
                self.advance();
                Ok(ScalarExpr::Str(s))
            }
            Tok::LParen => {
                if matches!(self.peek2(), Tok::Ident(s) if s == "select") {
                    self.advance();
                    let q = self.query()?;
                    self.expect_tok(Tok::RParen)?;
                    return Ok(ScalarExpr::Subquery(Box::new(q)));
                }
                self.advance();
                let e = self.expr()?;
                self.expect_tok(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                match name.as_str() {
                    "case" => {
                        if !self.extended() {
                            return self.unsupported(Feature::Case);
                        }
                        return self.case_expr();
                    }
                    "null" => {
                        if !self.full() {
                            return self.unsupported(Feature::Null);
                        }
                        self.advance();
                        return Ok(ScalarExpr::Null);
                    }
                    "cast" => {
                        // CAST(e AS type) — parsed, lowered as an
                        // uninterpreted function (Sec 6.4: such rules parse
                        // but remain unproved).
                        self.advance();
                        self.expect_tok(Tok::LParen)?;
                        let e = self.expr()?;
                        self.expect_kw("as")?;
                        let ty = self.expect_ident()?;
                        self.expect_tok(Tok::RParen)?;
                        return Ok(ScalarExpr::App(Name::from(format!("cast_{ty}")), vec![e]));
                    }
                    _ => {}
                }
                self.advance();
                // function call or aggregate
                if matches!(self.peek(), Tok::LParen) {
                    self.advance();
                    if self.at_kw("over") {
                        return self.unsupported(Feature::Window);
                    }
                    let is_agg = matches!(name.as_str(), "sum" | "count" | "avg" | "min" | "max");
                    let distinct = is_agg && self.eat_kw("distinct");
                    if is_agg && matches!(self.peek(), Tok::Star) {
                        self.advance();
                        self.expect_tok(Tok::RParen)?;
                        self.check_window_suffix()?;
                        return Ok(ScalarExpr::Agg {
                            func: name,
                            arg: AggArg::Star,
                            distinct,
                        });
                    }
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Tok::RParen) {
                        args.push(self.expr()?);
                        while matches!(self.peek(), Tok::Comma) {
                            self.advance();
                            args.push(self.expr()?);
                        }
                    }
                    self.expect_tok(Tok::RParen)?;
                    self.check_window_suffix()?;
                    if is_agg {
                        if args.len() != 1 {
                            return self.err(format!("aggregate `{name}` takes one argument"));
                        }
                        return Ok(ScalarExpr::Agg {
                            func: name,
                            arg: AggArg::Expr(Box::new(args.pop().unwrap())),
                            distinct,
                        });
                    }
                    return Ok(ScalarExpr::App(name, args));
                }
                // qualified column
                if matches!(self.peek(), Tok::Dot) {
                    self.advance();
                    let col = self.expect_ident()?;
                    return Ok(ScalarExpr::Column {
                        table: Some(name),
                        column: col,
                    });
                }
                Ok(ScalarExpr::Column {
                    table: None,
                    column: name,
                })
            }
            other => self.err(format!("expected expression, found {}", other.describe())),
        }
    }

    /// `CASE [e] WHEN … THEN … [WHEN …]* ELSE … END` (extended dialect).
    /// The simple form (`CASE e WHEN v THEN r`) desugars to the searched form
    /// (`CASE WHEN e = v THEN r`). `ELSE` is mandatory: SQL's implicit
    /// `ELSE NULL` is outside the fragment (no NULL semantics).
    fn case_expr(&mut self) -> Result<ScalarExpr, ParseError> {
        self.expect_kw("case")?;
        // Simple form: an operand expression before the first WHEN.
        let operand = if self.at_kw("when") {
            None
        } else {
            Some(self.expr()?)
        };
        let mut whens = Vec::new();
        while self.eat_kw("when") {
            let cond = match &operand {
                None => self.pred()?,
                Some(op) => {
                    let v = self.expr()?;
                    PredExpr::Cmp(CmpOp::Eq, op.clone(), v)
                }
            };
            self.expect_kw("then")?;
            let value = self.expr()?;
            whens.push((cond, value));
        }
        if whens.is_empty() {
            return self.err("CASE requires at least one WHEN arm");
        }
        let else_ = if self.eat_kw("else") {
            Box::new(self.expr()?)
        } else if self.full() {
            // SQL's implicit `ELSE NULL` (full dialect only).
            Box::new(ScalarExpr::Null)
        } else {
            // `CASE … END` without ELSE yields NULL for unmatched rows.
            return self.unsupported(Feature::Null);
        };
        self.expect_kw("end")?;
        Ok(ScalarExpr::Case { whens, else_ })
    }

    fn check_window_suffix(&mut self) -> Result<(), ParseError> {
        if self.at_kw("over") {
            return self.unsupported(Feature::Window);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(input: &str) -> Query {
        parse_query(input).unwrap()
    }

    #[test]
    fn simple_select() {
        let query = q("SELECT * FROM r x WHERE x.a = 3");
        match query {
            Query::Select(s) => {
                assert!(!s.distinct);
                assert_eq!(s.projection, vec![SelectItem::Star]);
                assert_eq!(s.from.len(), 1);
                assert_eq!(s.from[0].alias, "x");
                assert!(s.where_clause.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn implicit_and_explicit_aliases() {
        let query = q("SELECT t.a AS b, t.c d, t.e FROM r AS t");
        match query {
            Query::Select(s) => {
                assert_eq!(s.projection.len(), 3);
                match &s.projection[0] {
                    SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("b")),
                    other => panic!("unexpected {other:?}"),
                }
                match &s.projection[1] {
                    SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("d")),
                    other => panic!("unexpected {other:?}"),
                }
                match &s.projection[2] {
                    SelectItem::Expr { alias, .. } => assert!(alias.is_none()),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn table_without_alias_gets_its_own_name() {
        let query = q("SELECT * FROM emp WHERE emp.deptno = 10");
        match query {
            Query::Select(s) => assert_eq!(s.from[0].alias, "emp"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_all_and_except() {
        let query = q("SELECT * FROM r x UNION ALL SELECT * FROM s y EXCEPT SELECT * FROM t z");
        assert!(matches!(query, Query::Except(_, _)));
    }

    #[test]
    fn set_union_is_unsupported() {
        let err = parse_query("SELECT * FROM r x UNION SELECT * FROM s y").unwrap_err();
        assert_eq!(err.unsupported_feature(), Some(Feature::SetUnion));
    }

    #[test]
    fn outer_join_is_unsupported() {
        let err = parse_query("SELECT * FROM r x LEFT JOIN s y ON x.a = y.a").unwrap_err();
        assert_eq!(err.unsupported_feature(), Some(Feature::OuterJoin));
    }

    #[test]
    fn case_and_null_are_unsupported() {
        let err = parse_query("SELECT CASE WHEN x.a = 1 THEN 2 ELSE 3 END FROM r x").unwrap_err();
        assert_eq!(err.unsupported_feature(), Some(Feature::Case));
        let err = parse_query("SELECT * FROM r x WHERE x.a IS NULL").unwrap_err();
        assert_eq!(err.unsupported_feature(), Some(Feature::Null));
    }

    #[test]
    fn exists_and_in_subqueries() {
        let query = q("SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y WHERE y.a = x.a)");
        match query {
            Query::Select(s) => assert!(matches!(s.where_clause, Some(PredExpr::Exists(_)))),
            other => panic!("unexpected {other:?}"),
        }
        let query = q("SELECT * FROM r x WHERE x.a IN (SELECT y.a FROM s y)");
        match query {
            Query::Select(s) => assert!(matches!(s.where_clause, Some(PredExpr::InQuery(_, _)))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_having_and_aggregates() {
        let query = q("SELECT x.k, SUM(x.a) AS total FROM r x GROUP BY x.k HAVING COUNT(*) > 1");
        match query {
            Query::Select(s) => {
                assert_eq!(s.group_by.len(), 1);
                assert!(s.having.is_some());
                assert!(s.has_aggregates());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_parses_as_uninterpreted_apps() {
        let query = q("SELECT * FROM r t WHERE t.a + 5 > t.b");
        match query {
            Query::Select(s) => match s.where_clause.unwrap() {
                PredExpr::Cmp(CmpOp::Gt, lhs, _) => {
                    assert!(matches!(lhs, ScalarExpr::App(name, _) if name == "add"));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cast_parses_as_uninterpreted_function() {
        let query = q("SELECT CAST(x.a AS varchar) AS s FROM r x");
        match query {
            Query::Select(s) => match &s.projection[0] {
                SelectItem::Expr {
                    expr: ScalarExpr::App(name, _),
                    ..
                } => {
                    assert_eq!(name, "cast_varchar");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parenthesized_predicates_and_precedence() {
        let query = q("SELECT * FROM r x WHERE (x.a = 1 OR x.b = 2) AND x.c = 3");
        match query {
            Query::Select(s) => {
                assert!(matches!(s.where_clause, Some(PredExpr::And(_, _))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn between_desugars_to_range_conjunction() {
        let query = q("SELECT * FROM r x WHERE x.a BETWEEN 1 AND 10");
        match query {
            Query::Select(s) => assert!(matches!(s.where_clause, Some(PredExpr::And(_, _)))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_program_parses() {
        let program = parse_program(
            "schema s(k:int, a:int);\n\
             table r(s);\n\
             key r(k);\n\
             index i on r(a);\n\
             view v as SELECT * FROM r x WHERE x.a = 1;\n\
             verify SELECT * FROM r t == SELECT * FROM r t;\n",
        )
        .unwrap();
        assert_eq!(program.statements.len(), 6);
        assert_eq!(program.goals().count(), 1);
    }

    #[test]
    fn generic_schema_parses() {
        let program = parse_program("schema s(a:int, ??);").unwrap();
        match &program.statements[0] {
            Statement::Schema { open, attrs, .. } => {
                assert!(*open);
                assert_eq!(attrs.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn join_on_becomes_where_conjunct() {
        let query = q("SELECT * FROM r x JOIN s y ON x.a = y.a WHERE x.b = 1");
        match query {
            Query::Select(s) => {
                assert_eq!(s.from.len(), 2);
                // JOIN pred merged into WHERE
                assert!(matches!(s.where_clause, Some(PredExpr::And(_, _))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn qx(input: &str) -> Query {
        parse_query_with(input, Dialect::Extended).unwrap()
    }

    #[test]
    fn extended_union_and_intersect_parse() {
        let q = qx("SELECT * FROM r x UNION SELECT * FROM s y");
        assert!(matches!(q, Query::Union(_, _)));
        let q = qx("SELECT * FROM r x INTERSECT SELECT * FROM s y");
        assert!(matches!(q, Query::Intersect(_, _)));
        // UNION ALL still parses as the bag operator in both dialects.
        let q = qx("SELECT * FROM r x UNION ALL SELECT * FROM s y");
        assert!(matches!(q, Query::UnionAll(_, _)));
    }

    #[test]
    fn intersect_all_is_unsupported_in_both_dialects() {
        for d in [Dialect::Paper, Dialect::Extended] {
            let err = parse_query_with("SELECT * FROM r x INTERSECT ALL SELECT * FROM s y", d)
                .unwrap_err();
            assert_eq!(err.unsupported_feature(), Some(Feature::Intersect));
        }
    }

    #[test]
    fn extended_values_parses() {
        let q = qx("VALUES (1, 2), (3, 4)");
        match q {
            Query::Values(rows) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // As a FROM source.
        let q = qx("SELECT * FROM (VALUES (1), (2)) v");
        match q {
            Query::Select(s) => {
                assert!(matches!(&s.from[0].source, TableRef::Subquery(q)
                    if matches!(**q, Query::Values(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extended_case_parses_searched_and_simple() {
        let q = qx("SELECT CASE WHEN x.a = 1 THEN 2 ELSE 3 END AS v FROM r x");
        match q {
            Query::Select(s) => match &s.projection[0] {
                SelectItem::Expr {
                    expr: ScalarExpr::Case { whens, .. },
                    ..
                } => {
                    assert_eq!(whens.len(), 1);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // Simple form desugars to equality guards.
        let q = qx("SELECT CASE x.a WHEN 1 THEN 2 WHEN 5 THEN 6 ELSE 3 END AS v FROM r x");
        match q {
            Query::Select(s) => match &s.projection[0] {
                SelectItem::Expr {
                    expr: ScalarExpr::Case { whens, .. },
                    ..
                } => {
                    assert_eq!(whens.len(), 2);
                    assert!(matches!(&whens[0].0, PredExpr::Cmp(CmpOp::Eq, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_without_else_is_null_semantics() {
        let err = parse_query_with(
            "SELECT CASE WHEN x.a = 1 THEN 2 END AS v FROM r x",
            Dialect::Extended,
        )
        .unwrap_err();
        assert_eq!(err.unsupported_feature(), Some(Feature::Null));
    }

    #[test]
    fn extended_natural_join_records_alias_pair() {
        let q = qx("SELECT * FROM r x NATURAL JOIN s y WHERE x.a = 1");
        match q {
            Query::Select(s) => {
                assert_eq!(s.from.len(), 2);
                assert_eq!(s.natural, vec![("x".into(), "y".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Nested subqueries must not leak natural pairs outward.
        let q = qx("SELECT * FROM r x WHERE EXISTS (SELECT * FROM s y NATURAL JOIN t z)");
        match q {
            Query::Select(s) => assert!(s.natural.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_dialect_still_rejects_extensions() {
        for (sql, feature) in [
            (
                "SELECT * FROM r x UNION SELECT * FROM s y",
                Feature::SetUnion,
            ),
            (
                "SELECT * FROM r x INTERSECT SELECT * FROM s y",
                Feature::Intersect,
            ),
            ("VALUES (1)", Feature::Values),
            (
                "SELECT CASE WHEN x.a = 1 THEN 2 ELSE 3 END AS v FROM r x",
                Feature::Case,
            ),
            ("SELECT * FROM r x NATURAL JOIN s y", Feature::NaturalJoin),
        ] {
            let err = parse_query(sql).unwrap_err();
            assert_eq!(err.unsupported_feature(), Some(feature), "{sql}");
        }
    }

    fn qf(input: &str) -> Query {
        parse_query_with(input, Dialect::Full).unwrap()
    }

    #[test]
    fn full_dialect_parses_null_and_is_null() {
        let q = qf("SELECT NULL AS n FROM r x WHERE x.a IS NULL");
        match q {
            Query::Select(s) => {
                assert!(matches!(
                    &s.projection[0],
                    SelectItem::Expr {
                        expr: ScalarExpr::Null,
                        ..
                    }
                ));
                assert!(matches!(s.where_clause, Some(PredExpr::IsNull(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
        // IS NOT NULL parses as Not(IsNull).
        let q = qf("SELECT * FROM r x WHERE x.a IS NOT NULL");
        match q {
            Query::Select(s) => match s.where_clause {
                Some(PredExpr::Not(inner)) => {
                    assert!(matches!(*inner, PredExpr::IsNull(_)))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_dialect_parses_outer_joins() {
        for (sql, kind) in [
            (
                "SELECT x.a AS a FROM r x LEFT JOIN s y ON x.k = y.k",
                OuterKind::Left,
            ),
            (
                "SELECT x.a AS a FROM r x RIGHT OUTER JOIN s y ON x.k = y.k",
                OuterKind::Right,
            ),
            (
                "SELECT x.a AS a FROM r x FULL JOIN s y ON x.k = y.k",
                OuterKind::Full,
            ),
        ] {
            match qf(sql) {
                Query::Select(s) => {
                    assert_eq!(s.from.len(), 2, "{sql}");
                    assert_eq!(s.outer.len(), 1, "{sql}");
                    assert_eq!(s.outer[0].kind, kind, "{sql}");
                    assert_eq!(s.outer[0].left, "x");
                    assert_eq!(s.outer[0].right, "y");
                    // The ON predicate stays out of WHERE: it decides
                    // padding, not filtering.
                    assert!(s.where_clause.is_none(), "{sql}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn full_dialect_strips_order_by_with_warning() {
        let (program, warnings) = parse_program_with_warnings(
            "schema s(a:int);
table r(s);
             verify SELECT * FROM r x ORDER BY x.a DESC == SELECT * FROM r x;",
            Dialect::Full,
        )
        .unwrap();
        assert_eq!(program.goals().count(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].message.contains("ORDER BY"));
        // The stripped query is a plain select.
        let (q1, _) = program.goals().next().unwrap();
        assert!(matches!(q1, Query::Select(_)));
    }

    #[test]
    fn full_dialect_case_without_else_gets_null_arm() {
        let q = qf("SELECT CASE WHEN x.a = 1 THEN 2 END AS v FROM r x");
        match q {
            Query::Select(s) => match &s.projection[0] {
                SelectItem::Expr {
                    expr: ScalarExpr::Case { else_, .. },
                    ..
                } => assert_eq!(**else_, ScalarExpr::Null),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nullable_attribute_suffix_parses_in_every_dialect() {
        for d in [Dialect::Paper, Dialect::Extended, Dialect::Full] {
            let p = parse_program_with("schema s(a:int?, b:int);", d).unwrap();
            match &p.statements[0] {
                Statement::Schema { attrs, .. } => {
                    assert_eq!(attrs[0].1, "int?");
                    assert_eq!(attrs[1].1, "int");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn extended_dialect_still_rejects_full_constructs() {
        for (sql, feature) in [
            ("SELECT * FROM r x WHERE x.a IS NULL", Feature::Null),
            ("SELECT NULL AS n FROM r x", Feature::Null),
            (
                "SELECT * FROM r x LEFT JOIN s y ON x.a = y.a",
                Feature::OuterJoin,
            ),
            ("SELECT * FROM r x ORDER BY x.a", Feature::OrderBy),
        ] {
            let err = parse_query_with(sql, Dialect::Extended).unwrap_err();
            assert_eq!(err.unsupported_feature(), Some(feature), "{sql}");
        }
    }

    #[test]
    fn scalar_subquery_in_select() {
        let query = q("SELECT (SELECT MAX(y.a) FROM s y) AS m FROM r x");
        match query {
            Query::Select(s) => match &s.projection[0] {
                SelectItem::Expr {
                    expr: ScalarExpr::Subquery(_),
                    ..
                } => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
