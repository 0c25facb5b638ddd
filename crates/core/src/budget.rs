//! Resource budgets for the decision procedure.
//!
//! The paper runs UDP with a 30-second wall-clock limit (Sec 6.2) and reports
//! one Calcite rule that "does not return a result after running for 30
//! minutes". For reproducible CI runs we additionally support a
//! *deterministic step budget*: every backtracking step and rewrite pass
//! consumes one step; exhaustion yields the `Unknown`/timeout outcome rather
//! than an unsound answer.

use std::time::{Duration, Instant};

/// Raised when the step or time budget is exhausted, carrying *which* limit
/// tripped. Decision procedures propagate it; the driver maps it to
/// [`crate::decide::Decision::Timeout`] and keeps the kind in
/// [`crate::decide::Stats::exhausted`] so callers can tell a deterministic
/// step cap from a wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The deterministic step cap ran out.
    Steps,
    /// The wall-clock deadline passed.
    Wall,
}

impl Exhausted {
    /// Stable lower-case name for reasons and error taxonomies.
    pub fn name(self) -> &'static str {
        match self {
            Exhausted::Steps => "steps",
            Exhausted::Wall => "wall",
        }
    }
}

/// Combined step + wall-clock budget.
///
/// The wall clock starts at the budget's *first tick*, not at construction:
/// a `Budget` (e.g. inside a [`crate::decide::DecideConfig`]) can be built
/// ahead of time, cloned, and shipped to worker threads without its deadline
/// silently burning down while the goal waits in a queue.
#[derive(Debug, Clone)]
pub struct Budget {
    steps_left: u64,
    /// Wall-clock allowance; materialized into `deadline` on first tick.
    wall: Option<Duration>,
    deadline: Option<Instant>,
    /// Check the clock only every N ticks to keep ticking cheap.
    clock_stride: u64,
    ticks: u64,
    /// When the first tick happened (the same instant the deadline is
    /// materialized from); `None` until then.
    started: Option<Instant>,
    /// Which limit tripped first, once any has; repeated ticks after
    /// exhaustion keep reporting the same kind (steps are zeroed on a
    /// wall trip, which would otherwise masquerade as `Steps`).
    tripped: Option<Exhausted>,
}

impl Budget {
    /// Default budget mirroring the paper's 30 s limit with a generous
    /// deterministic step cap.
    pub fn standard() -> Self {
        Budget::new(Some(20_000_000), Some(Duration::from_secs(30)))
    }

    /// Unlimited budget (tests of small fixtures).
    pub fn unlimited() -> Self {
        Budget::new(None, None)
    }

    /// A small budget for provoking the timeout path deterministically.
    /// A pure step budget with no wall-clock deadline (deterministic).
    pub fn steps(n: u64) -> Self {
        Budget::new(Some(n), None)
    }

    /// A budget with an optional step cap and an optional wall-clock
    /// deadline (`None` = unlimited on that axis).
    pub fn new(steps: Option<u64>, wall: Option<Duration>) -> Self {
        Budget {
            steps_left: steps.unwrap_or(u64::MAX),
            wall,
            deadline: None,
            clock_stride: 4096,
            ticks: 0,
            started: None,
            tripped: None,
        }
    }

    /// Consume one step; fails when either budget is exhausted.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Exhausted> {
        if self.steps_left == 0 {
            let kind = *self.tripped.get_or_insert(Exhausted::Steps);
            return Err(kind);
        }
        if self.ticks == 0 {
            let now = Instant::now();
            self.started = Some(now);
            if let Some(w) = self.wall {
                self.deadline = Some(now + w);
            }
        }
        self.steps_left -= 1;
        self.ticks += 1;
        if self.ticks % self.clock_stride == 0 {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.steps_left = 0;
                    self.tripped = Some(Exhausted::Wall);
                    return Err(Exhausted::Wall);
                }
            }
        }
        Ok(())
    }

    /// Which limit tripped, once any has (`None` while the budget is live).
    pub fn exhausted_kind(&self) -> Option<Exhausted> {
        self.tripped
    }

    /// Steps consumed so far (feeds the Fig 7 stats).
    pub fn steps_used(&self) -> u64 {
        self.ticks
    }

    /// Wall time elapsed since the first tick (zero before any tick) —
    /// the per-goal wall the observability layer attributes to a stage.
    pub fn elapsed(&self) -> Duration {
        self.started.map_or(Duration::ZERO, |s| s.elapsed())
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_exhausts() {
        let mut b = Budget::steps(3);
        assert!(b.tick().is_ok());
        assert!(b.tick().is_ok());
        assert!(b.tick().is_ok());
        assert_eq!(b.tick(), Err(Exhausted::Steps));
        assert_eq!(b.tick(), Err(Exhausted::Steps));
        assert_eq!(b.exhausted_kind(), Some(Exhausted::Steps));
    }

    #[test]
    fn unlimited_never_exhausts_quickly() {
        let mut b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.tick().is_ok());
        }
        assert_eq!(b.steps_used(), 10_000);
    }

    #[test]
    fn elapsed_starts_at_first_tick() {
        let mut b = Budget::steps(10);
        assert_eq!(b.elapsed(), Duration::ZERO);
        b.tick().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn wall_clock_deadline_trips() {
        let mut b = Budget::new(None, Some(Duration::from_millis(0)));
        b.clock_stride = 1;
        assert_eq!(b.tick(), Err(Exhausted::Wall));
        // Repeat ticks keep reporting the original trip kind even though
        // the step counter was zeroed by the deadline.
        assert_eq!(b.tick(), Err(Exhausted::Wall));
        assert_eq!(b.exhausted_kind(), Some(Exhausted::Wall));
    }
}
