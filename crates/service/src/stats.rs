//! Aggregate measurements for a verification session.
//!
//! Latency bucketing and percentile estimation live in [`udp_obs`] (shared
//! with the stage recorder, so service stats and stage metrics can never
//! disagree on bucket boundaries); this module aggregates them per goal.

use std::time::Duration;
use udp_obs::Histogram;

pub use udp_obs::LATENCY_BUCKETS;

/// Running aggregate over every goal a [`crate::Session`] has processed.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Goals processed (including cache hits and front-end errors).
    pub goals: u64,
    /// Goals answered from the fingerprint cache.
    pub cache_hits: u64,
    /// Goals that ran the full decision procedure.
    pub cache_misses: u64,
    /// Goals rejected by the front end (parse/lower errors) or aborted by a
    /// contained panic.
    pub errors: u64,
    /// Goals whose verdict was `Proved`.
    pub proved: u64,
    /// Sum of per-goal wall time (lower + cache probe + decide).
    pub goal_wall: Duration,
    /// Wall time of the batches as observed by the caller (parallel time,
    /// not the per-goal sum).
    pub batch_wall: Duration,
    /// Log₂ histogram of per-goal latency in microseconds.
    pub latency_us: Histogram,
    /// Live verdict-cache entries at snapshot time (filled by
    /// [`crate::Session::stats`] from the cache itself).
    pub cache_entries: u64,
    /// Summed byte cost of those entries — key lengths plus
    /// `Verdict::deep_size` (what `--cache-bytes` bounds).
    pub cache_resident_bytes: u64,
}

impl ServiceStats {
    /// Record one finished goal.
    pub fn record(&mut self, wall: Duration, cached: bool, proved: bool, error: bool) {
        self.goals += 1;
        if error {
            self.errors += 1;
        } else if cached {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        if proved {
            self.proved += 1;
        }
        self.goal_wall += wall;
        self.latency_us.record(wall);
    }

    /// Cache hit rate over goals that reached the cache (0.0 when none did).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Goals per second of batch wall time (0.0 before any batch ran).
    pub fn throughput(&self) -> f64 {
        let secs = self.batch_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.goals as f64 / secs
        }
    }

    /// Latency percentile estimate from the histogram (`q` in `0.0..=1.0`),
    /// as the upper bound of the bucket containing the q-quantile.
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        self.latency_us.percentile_us(q)
    }

    /// Human-readable one-stop report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} goals in {:.3} s ({:.1} goals/s) | {} proved, {} errors | \
             cache: {} hits / {} misses ({:.1}% hit rate) | \
             latency p50 < {} µs, p99 < {} µs",
            self.goals,
            self.batch_wall.as_secs_f64(),
            self.throughput(),
            self.proved,
            self.errors,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.latency_percentile_us(0.5),
            self.latency_percentile_us(0.99),
        );
        if self.cache_entries > 0 {
            out.push_str(&format!(
                " | resident {} entries / {} B",
                self.cache_entries, self.cache_resident_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_outcomes() {
        let mut s = ServiceStats::default();
        s.record(Duration::from_micros(3), false, true, false);
        s.record(Duration::from_micros(300), true, true, false);
        s.record(Duration::from_micros(30), false, false, true);
        assert_eq!(s.goals, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.proved, 2);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut s = ServiceStats::default();
        for _ in 0..99 {
            s.record(Duration::from_micros(10), false, true, false);
        }
        s.record(Duration::from_millis(100), false, true, false);
        assert!(s.latency_percentile_us(0.5) <= 16);
        assert!(s.latency_percentile_us(0.999) > 50_000);
    }

    #[test]
    fn render_mentions_the_essentials() {
        let mut s = ServiceStats::default();
        s.record(Duration::from_micros(5), false, true, false);
        s.batch_wall = Duration::from_millis(1);
        let r = s.render();
        assert!(r.contains("goals/s"), "{r}");
        assert!(r.contains("hit rate"), "{r}");
    }
}
