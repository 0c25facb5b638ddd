//! # udp-sql
//!
//! SQL front end for the UDP equivalence prover: lexer, parser, catalog
//! construction, view/index inlining (GMAP), GROUP BY desugaring, and
//! lowering to U-expressions — the denotational semantics of the paper's
//! Appendix C over flat named schemas.
//!
//! The typical pipeline:
//!
//! ```
//! use udp_sql::{parse_program, build_frontend, lower_query};
//! use udp_core::expr::VarGen;
//!
//! let program = parse_program(
//!     "schema s(k:int, a:int);\n\
//!      table r(s);\n\
//!      key r(k);\n\
//!      verify SELECT * FROM r x == SELECT * FROM r y;",
//! ).unwrap();
//! let mut fe = build_frontend(&program).unwrap();
//! let goals = fe.goals.clone();
//! let mut gen = VarGen::new();
//! let q1 = lower_query(&mut fe, &mut gen, &goals[0].0).unwrap();
//! let q2 = lower_query(&mut fe, &mut gen, &goals[0].1).unwrap();
//! let verdict = udp_core::decide(&fe.catalog, &fe.constraints, &q1, &q2);
//! assert!(verdict.decision.is_proved());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod desugar;
pub mod feature;
pub mod frontend;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;

pub use frontend::{build_frontend, Frontend, FrontendError};
pub use lower::{lower_query, LowerError};
pub use parser::{
    parse_program, parse_program_with, parse_query, parse_query_with, Dialect, ParseError,
};

/// Parse a program and build its catalog/constraints/views **once**, leaving
/// the `verify` goals un-lowered in [`Frontend::goals`]. This is the reuse
/// point for batch services: one prepared frontend serves many goals (each
/// lowered via [`lower_goal`]) without re-parsing the DDL.
pub fn prepare_program_in(input: &str, dialect: Dialect) -> Result<Frontend, VerifyError> {
    let program = parse_program_with(input, dialect).map_err(VerifyError::Parse)?;
    build_frontend(&program).map_err(VerifyError::Frontend)
}

/// [`prepare_program_in`] under the paper dialect.
pub fn prepare_program(input: &str) -> Result<Frontend, VerifyError> {
    prepare_program_in(input, Dialect::Paper)
}

/// [`parse_goal_in`] with an observability recorder: the goal-line parse is
/// recorded as one `parse` stage occurrence.
pub fn parse_goal_rec(
    line: &str,
    dialect: Dialect,
    recorder: &udp_obs::Recorder,
) -> Result<(ast::Query, ast::Query), ParseError> {
    recorder.time(udp_obs::Stage::Parse, || parse_goal_in(line, dialect))
}

/// Lower one goal pair against a prepared frontend, with a fresh variable
/// generator (goals are independent verification problems). The frontend
/// gains any anonymous subquery schemas the goal needs.
pub fn lower_goal(
    fe: &mut Frontend,
    goal: &(ast::Query, ast::Query),
) -> Result<(udp_core::QueryU, udp_core::QueryU), VerifyError> {
    // The one `lower` span, where the lowering runs: every driver funnels
    // through here, so each goal's lowering is counted exactly once (and
    // joins the waterfall of a goal open on this thread).
    let recorder = fe.recorder.clone();
    let _span = recorder.span(udp_obs::Stage::Lower);
    let mut gen = udp_core::expr::VarGen::new();
    let q1 = lower_query(fe, &mut gen, &goal.0).map_err(VerifyError::Lower)?;
    let q2 = lower_query(fe, &mut gen, &goal.1).map_err(VerifyError::Lower)?;
    Ok((q1, q2))
}

/// Parse a standalone goal `q1 == q2` (optionally wrapped as
/// `verify q1 == q2;`) into a pair of queries, for line-oriented protocols
/// where the DDL was declared once up front.
pub fn parse_goal_in(line: &str, dialect: Dialect) -> Result<(ast::Query, ast::Query), ParseError> {
    let trimmed = line.trim().trim_end_matches(';').trim();
    // Strip an optional `verify` keyword the way the lexer would see it:
    // case-insensitively, followed by any whitespace.
    let goal = match trimmed.get(..6) {
        Some(kw)
            if kw.eq_ignore_ascii_case("verify")
                && trimmed[6..].chars().next().is_some_and(char::is_whitespace) =>
        {
            trimmed[6..].trim()
        }
        _ => trimmed,
    };
    let program = parse_program_with(&format!("verify {goal};"), dialect)?;
    for stmt in program.statements {
        if let ast::Statement::Verify { q1, q2 } = stmt {
            return Ok((q1, q2));
        }
    }
    unreachable!("a `verify` statement always parses to Statement::Verify")
}

/// Errors from preparing a program or lowering a goal.
#[derive(Debug)]
pub enum VerifyError {
    /// The program failed to parse.
    Parse(ParseError),
    /// Catalog/constraint construction failed.
    Frontend(FrontendError),
    /// Lowering to U-expressions failed.
    Lower(LowerError),
    /// A pre-lowering desugaring stage rejected the program (e.g. an
    /// unknown table in a full-dialect view). Carried as a message so this
    /// crate stays independent of the stages layered above it.
    Desugar(String),
    /// A desugaring stage met a construct combination it does not encode
    /// (udp-ext's `Unsupported`): the program is outside the supported
    /// fragment. The message names the stage and is displayed as is.
    Unsupported(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Parse(e) => write!(f, "{e}"),
            VerifyError::Frontend(e) => write!(f, "{e}"),
            VerifyError::Lower(e) => write!(f, "{e}"),
            VerifyError::Desugar(m) => write!(f, "desugaring error: {m}"),
            VerifyError::Unsupported(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for VerifyError {}

impl VerifyError {
    /// The unsupported feature, if this failure is a feature-based
    /// rejection (Fig 5 bucketing).
    pub fn unsupported_feature(&self) -> Option<feature::Feature> {
        match self {
            VerifyError::Parse(e) => e.unsupported_feature(),
            _ => None,
        }
    }

    /// The one-line report for a program outside the supported fragment
    /// (`unsupported: <feature>` for a parser feature rejection, the
    /// desugarer's message for a [`VerifyError::Unsupported`]), or `None`
    /// when the failure is an error.
    pub fn unsupported_message(&self) -> Option<String> {
        match self {
            VerifyError::Unsupported(m) => Some(m.clone()),
            _ => self
                .unsupported_feature()
                .map(|feature| format!("unsupported: {feature}")),
        }
    }
}
