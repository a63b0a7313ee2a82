//! Order statistics: medians with quartiles over repetitions, and the
//! percentile picker for latency samples.

/// A median with its quartiles and sample count — how every timed number
/// in this benchmark is reported (never best-of).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A value that was counted or computed once, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of `samples` (order irrelevant). Empty input
/// summarises to zeros with `n == 0`.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: interpolated(&sorted, 0.5),
        q1: interpolated(&sorted, 0.25),
        q3: interpolated(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p · n` samples at or below it. Empty input gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(((p * n as f64).ceil() as usize).max(1))
}

/// The tail percentiles this benchmark reports, highest first.
pub const TAILS: [f64; 5] = [0.9999, 0.999, 0.99, 0.95, 0.9];

/// The highest of [`TAILS`] not above `cap` that still has at least ten of
/// `n` samples beyond it — a tail estimated from fewer is one outlier's
/// value. `None` when even p90 has fewer (n < 100).
pub fn supported_tail(n: usize, cap: f64) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .find(|&p| p <= cap && beyond(n, p) >= 10)
}

/// [`percentile`] at [`supported_tail`]`(n, cap)`, falling back to the
/// maximum when no tail is supported; returns the percentile used too.
pub fn tail(sorted: &[u64], cap: f64) -> (u64, f64) {
    match supported_tail(sorted.len(), cap) {
        Some(p) => (percentile(sorted, p), p),
        None => (sorted.last().copied().unwrap_or(0), 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_order_independent_and_interpolates() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(supported_tail(1_000, 0.99), Some(0.99));
        assert_eq!(supported_tail(999, 0.99), Some(0.95));
        assert_eq!(supported_tail(10_000, 0.999), Some(0.999));
        assert_eq!(supported_tail(10_000, 0.99), Some(0.99));
        assert_eq!(supported_tail(9_999, 0.999), Some(0.99));
        assert_eq!(supported_tail(100, 0.99), Some(0.9));
        assert_eq!(supported_tail(99, 0.99), None);
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail(&v, 0.99), (990, 0.99));
        let few: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&few, 0.99), (20, 1.0));
    }
}
