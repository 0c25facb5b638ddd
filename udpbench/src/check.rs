//! The verdict checker: every response is compared with the answer fixed
//! when the input was generated, and every repeat of a goal must get the
//! verdict its first occurrence got.

use std::collections::HashMap;

/// The known answer of a goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Equivalent, and inside the prover's reach: `NotProved` contradicts it.
    Proved,
    /// Inequivalent: `Proved` contradicts it.
    NotProved,
    /// Equivalent, but perhaps beyond the prover's reach (a fuzzer
    /// rewrite): only a verdict that asserts inequivalence contradicts it.
    /// `NotProved(NoProofFound)` asserts nothing, since the prover is
    /// incomplete.
    Equivalent,
    /// No known answer (a mutant the oracle could not refute).
    Unlabelled,
}

/// What a response said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `Proved`.
    Proved,
    /// `NotProved(…)`.
    NotProved,
    /// `Timeout`: the step budget ran out.
    Timeout,
    /// `error: …`, an unreadable line, or no response at all.
    Failed,
}

impl Outcome {
    /// Classify a verdict rendering (`GoalReport::render_verdict`, which is
    /// also what `udp-serve` prints after `goal N: `).
    pub fn parse(verdict: &str) -> Outcome {
        if verdict == "Proved" {
            Outcome::Proved
        } else if verdict.starts_with("NotProved") {
            Outcome::NotProved
        } else if verdict == "Timeout" {
            Outcome::Timeout
        } else {
            Outcome::Failed
        }
    }

    /// A definite verdict (`Proved` / `NotProved`).
    pub fn is_decided(self) -> bool {
        matches!(self, Outcome::Proved | Outcome::NotProved)
    }
}

/// The one `NotProved` verdict that asserts inequivalence: the two sides
/// have different output columns.
pub const SCHEMA_MISMATCH: &str = "NotProved(SchemaMismatch)";

/// Does `verdict` (classified as `outcome`) contradict `label`? A
/// `Timeout` never does: it says nothing about the goal.
pub fn contradicts(label: Label, outcome: Outcome, verdict: &str) -> bool {
    match (label, outcome) {
        (Label::Proved, Outcome::NotProved) | (Label::NotProved, Outcome::Proved) => true,
        (Label::Equivalent, Outcome::NotProved) => verdict == SCHEMA_MISMATCH,
        _ => false,
    }
}

/// Running tally of one run's responses.
#[derive(Debug, Default)]
pub struct Checker {
    /// First verdict seen per goal identity (a goal and its repeats share
    /// one identity).
    first: HashMap<usize, String>,
    /// Goals attempted.
    pub attempted: usize,
    /// Goals with a definite verdict.
    pub decided: usize,
    /// Goals that hit the step budget.
    pub timeouts: usize,
    /// Failure descriptions, one per failed goal.
    pub failures: Vec<String>,
}

impl Checker {
    /// Record the response to goal `name`, whose repeats share `identity`.
    /// `response` is the verdict text, or why none arrived.
    pub fn record(
        &mut self,
        name: &str,
        identity: usize,
        label: Label,
        response: Result<&str, String>,
    ) -> Outcome {
        self.attempted += 1;
        let verdict = match response {
            Ok(v) => v,
            Err(why) => {
                self.failures.push(format!("{name}: no verdict ({why})"));
                return Outcome::Failed;
            }
        };
        let outcome = Outcome::parse(verdict);
        let failure = if outcome == Outcome::Failed {
            Some(format!("{name}: {verdict}"))
        } else if contradicts(label, outcome, verdict) {
            Some(format!("{name}: {verdict} contradicts the label {label:?}"))
        } else {
            match self.first.get(&identity) {
                Some(first) if first != verdict => Some(format!(
                    "{name}: {verdict} differs from the first verdict {first} of the same goal"
                )),
                Some(_) => None,
                None => {
                    self.first.insert(identity, verdict.to_string());
                    None
                }
            }
        };
        match failure {
            Some(f) => {
                self.failures.push(f);
                Outcome::Failed
            }
            None => {
                match outcome {
                    Outcome::Timeout => self.timeouts += 1,
                    _ => self.decided += 1,
                }
                outcome
            }
        }
    }

    /// Failed goals.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_wrong_verdicts_fail() {
        let mut c = Checker::default();
        assert_eq!(
            c.record("g1", 1, Label::Proved, Ok("Proved")),
            Outcome::Proved
        );
        // A proof of an inequivalent goal, and a missed proof.
        assert_eq!(
            c.record("g2", 2, Label::NotProved, Ok("Proved")),
            Outcome::Failed
        );
        assert_eq!(
            c.record("g3", 3, Label::Proved, Ok("NotProved(NoProofFound)")),
            Outcome::Failed
        );
        assert_eq!(c.failed(), 2);
        assert_eq!(c.decided, 1);
    }

    #[test]
    fn an_equivalent_goal_may_go_unproved_but_not_refuted() {
        let mut c = Checker::default();
        c.record("g1", 1, Label::Equivalent, Ok("Proved"));
        c.record("g2", 2, Label::Equivalent, Ok("NotProved(NoProofFound)"));
        assert_eq!(
            c.record("g3", 3, Label::Equivalent, Ok(SCHEMA_MISMATCH)),
            Outcome::Failed
        );
        assert_eq!((c.decided, c.failed()), (2, 1));
    }

    #[test]
    fn repeats_must_agree_with_the_first_verdict() {
        let mut c = Checker::default();
        c.record("g1", 7, Label::Unlabelled, Ok("NotProved(NoProofFound)"));
        assert_eq!(
            c.record("g1 again", 7, Label::Unlabelled, Ok("Proved")),
            Outcome::Failed
        );
        assert_eq!(
            c.record(
                "g1 copy",
                7,
                Label::Unlabelled,
                Ok("NotProved(NoProofFound)")
            ),
            Outcome::NotProved
        );
        assert_eq!(c.failed(), 1);
    }

    #[test]
    fn errors_and_silence_fail_but_timeouts_do_not() {
        let mut c = Checker::default();
        c.record("g1", 1, Label::NotProved, Ok("Timeout"));
        c.record("g2", 2, Label::Proved, Ok("error: unknown table `t9`"));
        c.record("g3", 3, Label::Proved, Err("pipe closed".into()));
        assert_eq!(
            (c.attempted, c.decided, c.timeouts, c.failed()),
            (3, 0, 1, 2)
        );
    }
}
