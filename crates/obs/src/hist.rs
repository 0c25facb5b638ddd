//! The workspace's shared log₂ latency histogram.
//!
//! Lifted out of `crates/service/src/stats.rs` so every layer — service
//! stats and the stage recorder — buckets and estimates
//! percentiles identically.

use std::time::Duration;

/// Number of log₂ latency buckets (bucket `i` covers `[2^i, 2^(i+1))` µs;
/// the last bucket absorbs everything slower).
pub const LATENCY_BUCKETS: usize = 24;

/// Log₂ bucket index for a wall time.
pub fn bucket_of(wall: Duration) -> usize {
    bucket_of_us(wall.as_micros().max(1) as u64)
}

/// Log₂ bucket index for a latency already in microseconds.
pub fn bucket_of_us(us: u64) -> usize {
    let us = us.max(1);
    (63 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// A log₂ histogram of microsecond latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Wrap raw bucket counts (the recorder's atomic snapshot path).
    pub fn from_buckets(buckets: [u64; LATENCY_BUCKETS]) -> Histogram {
        Histogram { buckets }
    }

    /// Record one latency observation.
    pub fn record(&mut self, wall: Duration) {
        self.buckets[bucket_of(wall)] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Latency percentile estimate (`q` in `0.0..=1.0`), as the upper bound
    /// of the bucket containing the q-quantile. `0` when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank.max(1) {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_in_microseconds() {
        assert_eq!(bucket_of(Duration::from_micros(0)), 0);
        assert_eq!(bucket_of(Duration::from_micros(1)), 0);
        assert_eq!(bucket_of(Duration::from_micros(2)), 1);
        assert_eq!(bucket_of(Duration::from_micros(3)), 1);
        assert_eq!(bucket_of(Duration::from_micros(1024)), 10);
        // The last bucket absorbs everything slower.
        assert_eq!(bucket_of(Duration::from_secs(3600)), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(100));
        assert!(h.percentile_us(0.5) <= 16);
        assert!(h.percentile_us(0.999) > 50_000);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn empty_percentile_is_zero() {
        assert_eq!(Histogram::new().percentile_us(0.99), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(5));
        b.record(Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.total(), 3);
    }
}
