//! Deterministic fault injection (the chaos harness).
//!
//! A [`FaultPlan`] describes *seeded* injection of panics, forced budget
//! exhaustion, and artificial delays at named probe points; a
//! [`FaultInjector`] is the cheap cloneable handle threaded through solve
//! and service (disabled = one `Option` check per probe). Whether a probe
//! fires is a pure function of `(seed, probe name, goal key)` — no RNG
//! state, no atomics — so an injection schedule is byte-identical across
//! worker counts and runs, which is what lets the chaos gate compare a
//! faulted run against a clean one goal by goal.
//!
//! The injector is also the *single global increment site* for
//! [`Counter::FaultsInjected`], preserving the counter crate's
//! one-writer-per-counter discipline.

use crate::counter::Counter;
use crate::recorder::Recorder;
use std::any::Any;
use std::iter::Peekable;
use std::sync::Arc;
use std::time::Duration;

/// Probe point: just before the prover runs, inside the backend
/// containment boundary (`udp_solve::solve_normalized`).
pub const PROBE_BACKEND_UDP: &str = "backend:udp";
/// Probe point: at the top of per-goal processing in the service worker,
/// *outside* the backend containment boundary — exercises worker
/// supervision rather than backend isolation.
pub const PROBE_GOAL: &str = "goal";

/// A seeded fault-injection schedule (`--chaos seed=N,rate=P,...`).
///
/// Rates are probabilities in `[0, 1]` evaluated per `(probe, key)` pair;
/// at most one action fires per probe visit (panic wins over exhaustion
/// wins over delay).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every firing decision.
    pub seed: u64,
    /// Probability a backend probe panics (`rate=P`).
    pub panic_rate: f64,
    /// Probability a backend probe gets its budget forced to zero
    /// (`exhaust=P`).
    pub exhaust_rate: f64,
    /// Probability a probe sleeps for [`FaultPlan::delay_us`] (`delay=P`).
    pub delay_rate: f64,
    /// Length of an injected delay in microseconds (`delay-us=U`).
    pub delay_us: u64,
    /// Probability the *goal* probe panics — inside the worker but outside
    /// backend containment (`goal-rate=P`).
    pub goal_rate: f64,
    /// Restrict injection to one named probe (`probe=NAME`); `None`
    /// injects at every probe.
    pub probe: Option<String>,
    /// Self-test switch (`uncontained=1`): consumers panic *outside* every
    /// containment boundary, proving the CI chaos gate actually detects an
    /// escape. Never set in real campaigns.
    pub uncontained: bool,
}

impl Default for FaultPlan {
    /// The bare `--chaos` campaign: a mixed schedule of panics,
    /// exhaustions, and delays at a fixed seed.
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            panic_rate: 0.10,
            exhaust_rate: 0.05,
            delay_rate: 0.02,
            delay_us: 50,
            goal_rate: 0.02,
            probe: None,
            uncontained: false,
        }
    }
}

impl FaultPlan {
    /// Parse a `--chaos` spec: comma-separated `key=value` pairs over the
    /// defaults. Keys: `seed=N`, `rate=P` (panic), `exhaust=P`, `delay=P`,
    /// `delay-us=U`, `goal-rate=P`, `probe=NAME`, `uncontained=1`. An
    /// empty spec yields the default campaign.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: expected key=value, got `{part}`"))?;
            match k {
                "seed" => plan.seed = parse_u64(k, v)?,
                "rate" => plan.panic_rate = parse_rate(k, v)?,
                "exhaust" => plan.exhaust_rate = parse_rate(k, v)?,
                "delay" => plan.delay_rate = parse_rate(k, v)?,
                "delay-us" => plan.delay_us = parse_u64(k, v)?,
                "goal-rate" => plan.goal_rate = parse_rate(k, v)?,
                "probe" => plan.probe = Some(v.to_string()),
                "uncontained" => plan.uncontained = v == "1" || v == "true",
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Parse the optional spec of a `--chaos [SPEC]` flag: the next
    /// argument when it reads as one (`key=value`, no leading `-`), else
    /// the default campaign. `Err` is the usage message for a bad spec.
    pub fn from_flag<'a>(
        args: &mut Peekable<impl Iterator<Item = &'a String>>,
    ) -> Result<FaultPlan, String> {
        let spec = match args.peek() {
            Some(s) if !s.starts_with('-') && s.contains('=') => args.next().map_or("", |s| s),
            _ => "",
        };
        FaultPlan::parse(spec).map_err(|e| format!("bad --chaos spec: {e}"))
    }

    /// The same schedule under a different seed (per-case reseeding in the
    /// fuzzer, where every goal is batch index 0).
    pub fn with_seed(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..self.clone()
        }
    }

    /// Render back into the `key=value,...` spec form (diagnostics).
    pub fn render(&self) -> String {
        let mut s = format!(
            "seed={},rate={},exhaust={},delay={},delay-us={},goal-rate={}",
            self.seed,
            self.panic_rate,
            self.exhaust_rate,
            self.delay_rate,
            self.delay_us,
            self.goal_rate
        );
        if let Some(p) = &self.probe {
            s.push_str(&format!(",probe={p}"));
        }
        if self.uncontained {
            s.push_str(",uncontained=1");
        }
        s
    }
}

fn parse_u64(k: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("chaos spec: `{k}` wants an integer, got `{v}`"))
}

fn parse_rate(k: &str, v: &str) -> Result<f64, String> {
    let r: f64 = v
        .parse()
        .map_err(|_| format!("chaos spec: `{k}` wants a number, got `{v}`"))?;
    if (0.0..=1.0).contains(&r) {
        Ok(r)
    } else {
        Err(format!("chaos spec: `{k}` must be in [0, 1], got `{v}`"))
    }
}

/// What an armed probe does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a `chaos: `-prefixed message (the containment layer
    /// catches it; the panic-hook silencer keeps stderr clean).
    Panic,
    /// Force the budget to immediate exhaustion (backend probes only).
    Exhaust,
    /// Sleep for the given duration before proceeding.
    Delay(Duration),
}

/// Cloneable injection handle. [`FaultInjector::default`] is disabled and
/// costs one `Option` check per probe; an enabled handle shares its plan
/// via `Arc`.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: Option<Arc<FaultPlan>>,
}

impl FaultInjector {
    /// An armed injector for the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan: Some(Arc::new(plan)),
        }
    }

    /// The disabled injector (same as `Default`).
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// Is any plan armed?
    pub fn is_enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_deref()
    }

    /// Decide whether the probe fires for this goal key — a pure function
    /// of `(seed, probe, key)`. Returns the action to take, tallying
    /// [`Counter::FaultsInjected`] (this is that counter's only increment
    /// site). The caller *performs* the action: panicking, zeroing the
    /// budget, or sleeping are containment-boundary decisions the injector
    /// stays out of.
    pub fn fire(&self, recorder: &Recorder, probe: &str, key: u64) -> Option<FaultAction> {
        let plan = self.plan.as_deref()?;
        if let Some(only) = &plan.probe {
            if only != probe {
                return None;
            }
        }
        let f = unit_float(mix(plan.seed, probe, key));
        // The goal probe sits outside the backend containment boundary:
        // only supervised-panic and delay injection make sense there.
        let (panic_rate, exhaust_rate, delay_rate) = if probe == PROBE_GOAL {
            (plan.goal_rate, 0.0, plan.delay_rate)
        } else {
            (plan.panic_rate, plan.exhaust_rate, plan.delay_rate)
        };
        let action = if f < panic_rate {
            FaultAction::Panic
        } else if f < panic_rate + exhaust_rate {
            FaultAction::Exhaust
        } else if f < panic_rate + exhaust_rate + delay_rate {
            FaultAction::Delay(Duration::from_micros(plan.delay_us))
        } else {
            return None;
        };
        recorder.count(Counter::FaultsInjected, 1);
        Some(action)
    }
}

/// FNV-1a over the probe name, then a splitmix64 finalizer over the
/// combination — cheap, stateless, and well-distributed enough to realize
/// the configured rates.
fn mix(seed: u64, probe: &str, key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in probe.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(seed ^ h ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)` with 53 bits of precision.
fn unit_float(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The message a panic carried: its `&str` or `String` payload, or
/// `"non-string panic payload"` for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Install a process-wide panic hook that suppresses the default stderr
/// backtrace banner for `chaos: `-prefixed panics (injected ones) while
/// forwarding everything else to the previous hook. Idempotent; call once
/// per chaos-enabled process so a high-rate campaign doesn't flood stderr
/// with *expected* panics while real defects still print.
pub fn install_chaos_panic_silencer() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if panic_message(info.payload()).starts_with("chaos: ") {
                return; // expected, injected — keep stderr clean
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let str_payload: Box<dyn Any + Send> = Box::new("static");
        assert_eq!(panic_message(&*str_payload), "static");
        let string_payload: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*string_payload), "owned");
        let other: Box<dyn Any + Send> = Box::new(7u32);
        assert_eq!(panic_message(&*other), "non-string panic payload");
    }

    #[test]
    fn parse_defaults_and_overrides() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let p = FaultPlan::parse("seed=42,rate=0.5,exhaust=0.25,delay-us=9,probe=goal").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.panic_rate, 0.5);
        assert_eq!(p.exhaust_rate, 0.25);
        assert_eq!(p.delay_us, 9);
        assert_eq!(p.probe.as_deref(), Some("goal"));
        assert!(!p.uncontained);
        assert!(FaultPlan::parse("rate=1.5").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("rate").is_err());
    }

    #[test]
    fn render_round_trips() {
        let p = FaultPlan::parse("seed=7,rate=0.08,uncontained=1,probe=backend:udp").unwrap();
        assert_eq!(FaultPlan::parse(&p.render()).unwrap(), p);
    }

    #[test]
    fn firing_is_deterministic_and_rate_bounded() {
        let inj = FaultInjector::new(FaultPlan::parse("seed=3,rate=0.3,exhaust=0.1").unwrap());
        let rec = Recorder::disabled();
        let mut fired = 0usize;
        for key in 0..1000u64 {
            let a = inj.fire(&rec, PROBE_BACKEND_UDP, key);
            assert_eq!(
                a,
                inj.fire(&rec, PROBE_BACKEND_UDP, key),
                "not a pure function"
            );
            if a.is_some() {
                fired += 1;
            }
        }
        // ~40% nominal; generous bounds — this pins determinism and
        // rough calibration, not the exact hash stream.
        assert!((250..=550).contains(&fired), "fired {fired}/1000");
    }

    #[test]
    fn rate_one_always_panics_and_rate_zero_never_fires() {
        let rec = Recorder::disabled();
        let all = FaultInjector::new(FaultPlan::parse("rate=1").unwrap());
        let none =
            FaultInjector::new(FaultPlan::parse("rate=0,exhaust=0,delay=0,goal-rate=0").unwrap());
        for key in 0..100u64 {
            assert_eq!(
                all.fire(&rec, PROBE_BACKEND_UDP, key),
                Some(FaultAction::Panic)
            );
            assert_eq!(none.fire(&rec, PROBE_BACKEND_UDP, key), None);
            assert_eq!(none.fire(&rec, PROBE_GOAL, key), None);
        }
    }

    #[test]
    fn probe_filter_restricts_injection() {
        let rec = Recorder::disabled();
        let inj = FaultInjector::new(FaultPlan::parse("rate=1,probe=backend:udp").unwrap());
        assert_eq!(
            inj.fire(&rec, PROBE_BACKEND_UDP, 0),
            Some(FaultAction::Panic)
        );
        assert_eq!(inj.fire(&rec, PROBE_GOAL, 0), None);
    }

    #[test]
    fn goal_probe_uses_goal_rate() {
        let rec = Recorder::disabled();
        // Backend panic rate zero, goal rate one: only the goal probe fires.
        let inj =
            FaultInjector::new(FaultPlan::parse("rate=0,exhaust=0,delay=0,goal-rate=1").unwrap());
        assert_eq!(inj.fire(&rec, PROBE_GOAL, 5), Some(FaultAction::Panic));
        assert_eq!(inj.fire(&rec, PROBE_BACKEND_UDP, 5), None);
    }

    #[test]
    fn firing_tallies_the_injection_counter() {
        let rec = Recorder::with_slow_capacity(1);
        let inj = FaultInjector::new(FaultPlan::parse("rate=1").unwrap());
        inj.fire(&rec, PROBE_BACKEND_UDP, 1);
        inj.fire(&rec, PROBE_BACKEND_UDP, 2);
        assert_eq!(rec.counter(Counter::FaultsInjected), 2);
        // Disabled injector touches nothing.
        FaultInjector::disabled().fire(&rec, PROBE_BACKEND_UDP, 1);
        assert_eq!(rec.counter(Counter::FaultsInjected), 2);
    }

    #[test]
    fn delays_carry_the_configured_duration() {
        let rec = Recorder::disabled();
        let inj =
            FaultInjector::new(FaultPlan::parse("rate=0,exhaust=0,delay=1,delay-us=123").unwrap());
        assert_eq!(
            inj.fire(&rec, PROBE_BACKEND_UDP, 9),
            Some(FaultAction::Delay(Duration::from_micros(123)))
        );
    }
}
