//! Proof traces.
//!
//! The paper implements UDP inside Lean so that a successful run yields a
//! machine-checked proof from the U-semiring axioms. Our substitute (see
//! DESIGN.md §4) records every axiom application performed by the rewriting
//! phases as a [`Step`]; the `proof` module then *independently revalidates*
//! each step — structurally where the rule admits a cheap syntactic check and
//! semantically (randomized interpretation over ℕ with constraint-satisfying
//! models) otherwise.

use crate::expr::Pred;
use crate::spnf::{Nf, Term};
use crate::uexpr::UExpr;
use std::fmt;

/// The axiom or derived identity justifying a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Theorem 3.4 (SPNF conversion; rules (1)–(9), each an axiom instance).
    Normalize,
    /// Eq. (15): `Σ_t [t = e] × f(t) = f(e)` (derived from (9), (13), (14)).
    Eq15Elim,
    /// Record pinning (Ex 4.7): all attributes of a closed-schema variable
    /// are determined, so `t = ⟨e₁,…,e_k⟩` follows from (13) and the tuple
    /// theory, then Eq. (15) applies.
    RecordPin,
    /// Def 4.1 applied to two atoms with equal keys:
    /// `[t.k=t'.k]·R(t)·R(t') = [t=t']·R(t)`.
    KeyMerge,
    /// `R(t)² = R(t)` for keyed `R` (Def 4.1 with `t = t'`).
    KeyDedup,
    /// Def 4.4: multiply `S(t')` by `Σ_t R(t)·[t.k = t'.k']` ( = 1 ).
    FkExpand,
    /// Generalized Theorem 4.3: a duplicate-free term equals its squash.
    SquashIntro,
    /// Lemma 5.1: dissolve a nested squash under a squash context.
    SquashFlatten,
    /// Predicate-set equivalence via congruence closure (Sec 5.2).
    PredEquiv,
    /// A term bijection found by TDP.
    TermMatch,
    /// A homomorphism/containment found by SDP.
    Containment,
    /// Top-level term permutation found by UDP.
    Permutation,
    /// Both sides share one canonical form: they differ only by renaming
    /// bound variables and reordering `+`/`×` operands (the identity
    /// shortcut, beyond Alg 2).
    Identity,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::Normalize => "normalize (Thm 3.4)",
            Rule::Eq15Elim => "Σ-elimination (Eq 15)",
            Rule::RecordPin => "record pinning (Ex 4.7)",
            Rule::KeyMerge => "key merge (Def 4.1)",
            Rule::KeyDedup => "key dedup (Def 4.1, t = t')",
            Rule::FkExpand => "foreign-key expansion (Def 4.4)",
            Rule::SquashIntro => "squash introduction (Thm 4.3)",
            Rule::SquashFlatten => "squash flattening (Lemma 5.1)",
            Rule::PredEquiv => "predicate equivalence (congruence)",
            Rule::TermMatch => "term isomorphism (TDP)",
            Rule::Containment => "containment homomorphism (SDP)",
            Rule::Permutation => "term permutation (UDP)",
            Rule::Identity => "canonical identity (α-renaming, +/× commutativity)",
        };
        f.write_str(s)
    }
}

/// Structured payload of a step, carrying enough to revalidate it.
#[derive(Debug, Clone)]
pub enum StepData {
    /// SPNF conversion of a whole expression.
    Normalize {
        /// The expression before normalization.
        before: UExpr,
        /// Its sum-product normal form.
        after: Nf,
    },
    /// A single-term rewrite `before = Σ after` justified by `Rule`, valid
    /// under the ambient predicate context: the recorded identity is
    /// `[b̄] × before = [b̄] × Σ after`. Rewrites inside nested squash /
    /// negation factors may use equalities of the *enclosing* term (e.g.
    /// record pinning against an outer join key), so the context is part of
    /// the step.
    TermRewrite {
        /// The term before the rewrite.
        before: Term,
        /// The terms it became (empty marks a Theorem 4.3 squash flag).
        after: Vec<Term>,
        /// Predicates of the enclosing context the rewrite may rely on.
        ambient: Vec<Pred>,
    },
    /// A search success with a human-readable witness description.
    Witness(String),
}

impl StepData {
    /// Bytes of owned heap data strictly below this payload (exact-fit
    /// convention, see [`crate::uexpr::UExpr::deep_size`]).
    pub fn heap_size(&self) -> usize {
        match self {
            StepData::Normalize { before, after } => before.heap_size() + after.heap_size(),
            StepData::TermRewrite {
                before,
                after,
                ambient,
            } => {
                before.heap_size()
                    + after.iter().map(Term::deep_size).sum::<usize>()
                    + ambient.iter().map(Pred::deep_size).sum::<usize>()
            }
            StepData::Witness(w) => w.len(),
        }
    }
}

/// One recorded proof step.
#[derive(Debug, Clone)]
pub struct Step {
    /// The axiom or derived identity applied.
    pub rule: Rule,
    /// The before/after payload.
    pub data: StepData,
}

/// An append-only proof trace. Disabled traces skip all recording work.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    steps: Vec<Step>,
}

impl Trace {
    /// A trace that records steps.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            steps: vec![],
        }
    }

    /// A trace that drops everything (no recording overhead).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one step; `data` is only evaluated when recording is on.
    #[inline]
    pub fn record(&mut self, rule: Rule, data: impl FnOnce() -> StepData) {
        if self.enabled {
            self.steps.push(Step { rule, data: data() });
        }
    }

    /// Append another trace's steps after this trace's (when recording).
    pub fn append(&mut self, other: Trace) {
        if self.enabled {
            self.steps.extend(other.steps);
        }
    }

    /// The recorded steps, in application order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Were any steps recorded?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Bytes of owned heap data held by the recorded steps — the dominant
    /// cost of caching a traced verdict (see [`crate::decide::Verdict::deep_size`]).
    pub fn heap_size(&self) -> usize {
        self.steps
            .iter()
            .map(|s| std::mem::size_of::<Step>() + s.data.heap_size())
            .sum()
    }

    /// Render the trace as an indented, human-readable proof script.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let _ = write!(out, "{:>3}. {}", i + 1, step.rule);
            match &step.data {
                StepData::Normalize { before, after } => {
                    let _ = write!(out, "\n       {before}\n     = {after}");
                }
                StepData::TermRewrite {
                    before,
                    after,
                    ambient,
                } => {
                    if !ambient.is_empty() {
                        let rendered: Vec<String> = ambient.iter().map(|p| p.to_string()).collect();
                        let _ = write!(out, " (under {})", rendered.join(" × "));
                    }
                    let _ = write!(out, "\n       {before}");
                    for t in after {
                        let _ = write!(out, "\n     = {t}");
                    }
                }
                StepData::Witness(w) => {
                    let _ = write!(out, " — {w}");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(Rule::Eq15Elim, || StepData::Witness("x".into()));
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_accumulates_and_renders() {
        let mut t = Trace::enabled();
        t.record(Rule::KeyMerge, || StepData::Witness("R(t1) ~ R(t2)".into()));
        t.record(Rule::Permutation, || StepData::Witness("identity".into()));
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains("key merge"));
        assert!(s.contains("identity"));
    }
}
