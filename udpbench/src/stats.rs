//! Order statistics over per-goal samples.
//!
//! Timings are summarised as a median and a *tail*: the highest percentile
//! of [`LADDER`] that still leaves at least [`MIN_BEYOND`] samples ranked
//! above it. Samples are goals (each summarised over its passes), whose
//! number the workload fixes, so the percentile does not drift when a
//! faster program completes more passes in the same run.

/// Candidate tail percentiles, highest first, in per-mille.
pub const LADDER: [u32; 5] = [990, 950, 900, 750, 500];

/// Samples that must rank above a tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the per-mille percentile `pm` among `n`
/// sorted samples.
fn rank(pm: u32, n: usize) -> usize {
    (pm as usize * n).div_ceil(1000).max(1) - 1
}

/// Samples ranked strictly above the per-mille percentile `pm` of `n`.
pub fn beyond(pm: u32, n: usize) -> usize {
    n - 1 - rank(pm, n)
}

/// The highest [`LADDER`] percentile (per-mille) that leaves at least
/// [`MIN_BEYOND`] of `n` samples above it, or `None` when `n` is too small
/// for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    LADDER.into_iter().find(|&pm| beyond(pm, n) >= MIN_BEYOND)
}

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank per-mille percentile of already sorted samples.
pub fn percentile(sorted: &[f64], pm: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(pm, sorted.len())])
}

/// Median (mean of the two middle samples for even counts).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A tail value with the percentile that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Per-mille percentile (990 = p99).
    pub per_mille: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

impl Tail {
    /// `p99`, `p95`, …
    pub fn label(&self) -> String {
        if self.per_mille.is_multiple_of(10) {
            format!("p{}", self.per_mille / 10)
        } else {
            format!("p{}", self.per_mille as f64 / 10.0)
        }
    }
}

/// Tail of `xs`.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let pm = tail_percentile(xs.len())?;
    let v = sorted(xs);
    Some(Tail {
        per_mille: pm,
        value: percentile(&v, pm)?,
        beyond: beyond(pm, v.len()),
        samples: v.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 20..5000 {
            let pm = tail_percentile(n).expect("20 samples admit a median");
            assert!(beyond(pm, n) >= MIN_BEYOND, "n={n} pm={pm}");
            // No higher ladder step would also qualify.
            for higher in LADDER.iter().filter(|&&p| p > pm) {
                assert!(beyond(*higher, n) < MIN_BEYOND, "n={n} {higher} also fits");
            }
        }
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(1010), Some(990));
        assert_eq!(tail_percentile(15), None);
    }

    #[test]
    fn tail_counts_samples_above_the_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.per_mille, 900);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.label(), "p90");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
