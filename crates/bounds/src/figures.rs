//! Data series for the paper's figures.
//!
//! * [`figure3`] — competitive-ratio bounds versus the offline cache size
//!   `h` for fixed online size `k` and block size `B`: the GC lower bound,
//!   the IBLP upper bound (optimal split per `h`), the Item-Cache lower
//!   bound (Theorem 2), the Block-Cache lower bound (Theorem 3), and the
//!   Sleator–Tarjan reference.
//! * [`figure6`] — IBLP's Theorem 7 bound versus `h` for several *fixed*
//!   layer splits, against the per-`h` optimal split; this exhibits the
//!   §5.3 phenomenon that no single split is competitive at every `h`.

use crate::competitive::{
    gc_lower_bound, sleator_tarjan, thm2_item_cache_lower, thm3_block_cache_lower,
};
use crate::iblp::{iblp_optimal_split, thm7_iblp};

/// One point of the Figure 3 series.
#[derive(Clone, Debug)]
pub struct Figure3Point {
    /// Offline (optimal) cache size `h`.
    pub h: usize,
    /// Sleator–Tarjan traditional-caching bound.
    pub sleator_tarjan: Option<f64>,
    /// The universal GC lower bound (lower envelope of Theorem 4).
    pub gc_lower: Option<f64>,
    /// IBLP's Theorem 7 upper bound with the optimal split for this `h`.
    pub iblp_upper: Option<f64>,
    /// Theorem 2 lower bound for item caches (e.g. item LRU).
    pub item_cache_lower: Option<f64>,
    /// Theorem 3 lower bound for block caches (∞ until `k > B(h−1)`).
    pub block_cache_lower: Option<f64>,
}

/// Compute the Figure 3 series for online size `k`, block size `B`, over
/// the given `h` values (the paper uses `k = 1.28M`, `B = 64`, sweeping
/// `h` up to `k`).
pub fn figure3(k: usize, block_size: usize, h_values: &[usize]) -> Vec<Figure3Point> {
    h_values
        .iter()
        .map(|&h| Figure3Point {
            h,
            sleator_tarjan: sleator_tarjan(k, h),
            gc_lower: gc_lower_bound(k, h, block_size),
            iblp_upper: iblp_optimal_split(k, h, block_size).map(|(_, r)| r),
            item_cache_lower: thm2_item_cache_lower(k, h, block_size),
            block_cache_lower: thm3_block_cache_lower(k, h, block_size),
        })
        .collect()
}

/// One point of the Figure 6 series.
#[derive(Clone, Debug)]
pub struct Figure6Point {
    /// Offline (optimal) cache size `h`.
    pub h: usize,
    /// Theorem 7 bound with the optimal split recomputed per `h`.
    pub optimal_split: Option<f64>,
    /// Theorem 7 bound for each fixed item-layer size, aligned with the
    /// `fixed_item_sizes` passed to [`figure6`].
    pub fixed_splits: Vec<Option<f64>>,
}

/// Compute the Figure 6 series: IBLP with each `fixed_item_sizes[j]` as a
/// constant item-layer size (block layer takes the rest of `k`) versus the
/// per-`h` optimal split.
pub fn figure6(
    k: usize,
    block_size: usize,
    h_values: &[usize],
    fixed_item_sizes: &[usize],
) -> Vec<Figure6Point> {
    assert!(
        fixed_item_sizes
            .iter()
            .all(|&i| i > 0 && i + block_size <= k),
        "fixed splits must leave room for one block"
    );
    h_values
        .iter()
        .map(|&h| Figure6Point {
            h,
            optimal_split: iblp_optimal_split(k, h, block_size).map(|(_, r)| r),
            fixed_splits: fixed_item_sizes
                .iter()
                .map(|&i| thm7_iblp(i, k - i, h, block_size))
                .collect(),
        })
        .collect()
}

/// A geometric ladder of `h` values from `lo` to `hi` (inclusive-ish),
/// suitable for log-x plots like the paper's figures.
pub fn geometric_h_values(lo: usize, hi: usize, points_per_decade: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi > lo && points_per_decade >= 1);
    let ratio = 10f64.powf(1.0 / points_per_decade as f64);
    let mut v = Vec::new();
    let mut x = lo as f64;
    while (x as usize) < hi {
        let val = x as usize;
        if v.last() != Some(&val) {
            v.push(val);
        }
        x *= ratio;
    }
    v.push(hi);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: usize = 1_280_000;
    const B: usize = 64;

    #[test]
    fn figure3_series_shape() {
        let hs = geometric_h_values(128, K / 2, 4);
        let series = figure3(K, B, &hs);
        assert_eq!(series.len(), hs.len());
        // At small h the GC lower bound sits near its large-k limit and the
        // item-cache bound is ≈ B× the ST bound.
        let first = &series[0];
        let st = first.sleator_tarjan.unwrap();
        let item = first.item_cache_lower.unwrap();
        assert!((item / (st * B as f64) - 1.0).abs() < 0.01);
        // Lower bound ≤ IBLP upper bound everywhere.
        for p in &series {
            if let (Some(lb), Some(ub)) = (p.gc_lower, p.iblp_upper) {
                assert!(lb <= ub * 1.01, "h={}: {lb} > {ub}", p.h);
            }
        }
    }

    #[test]
    fn figure3_block_cache_blows_up() {
        // The block-cache curve is infinite once h > k/B + 1.
        let series = figure3(K, B, &[K / B / 2, K / B + 2, K / 2]);
        assert!(series[0].block_cache_lower.unwrap().is_finite());
        assert!(series[2].block_cache_lower.unwrap().is_infinite());
    }

    #[test]
    fn figure3_iblp_tracks_lower_bound_within_3x() {
        // §5.3: the upper bound differs from the lower bound by at most a
        // small multiplicative factor (≈ 3×) across all h.
        let hs = geometric_h_values(256, K / 4, 6);
        for p in figure3(K, B, &hs) {
            if let (Some(lb), Some(ub)) = (p.gc_lower, p.iblp_upper) {
                assert!(ub / lb < 3.5, "h={}: gap {}", p.h, ub / lb);
            }
        }
    }

    #[test]
    fn figure6_fixed_splits_degrade_away_from_design_point() {
        // A split tuned for small h must be clearly worse than optimal at
        // larger h (the §5.3 "unknown optimal size" phenomenon). Theorem 7
        // requires i > h, so the comparison stops below the fixed split's
        // item-layer size (≈ 12 K lines for h = 1 Ki).
        let small_h_split = iblp_optimal_split(K, 1 << 10, B).unwrap().0;
        let hs = [1 << 10, 1 << 12, (small_h_split * 3) / 4];
        let series = figure6(K, B, &hs, &[small_h_split]);
        let last = series.last().unwrap();
        let (fixed, optimal) = (last.fixed_splits[0].unwrap(), last.optimal_split.unwrap());
        assert!(
            fixed > 1.5 * optimal,
            "fixed {fixed} should degrade vs optimal {optimal}"
        );
        // And at its own design point the fixed split matches the optimum.
        let first = &series[0];
        assert!((first.fixed_splits[0].unwrap() / first.optimal_split.unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn geometric_values_are_ascending_and_cover() {
        let v = geometric_h_values(100, 10_000, 3);
        assert_eq!(*v.first().unwrap(), 100);
        assert_eq!(*v.last().unwrap(), 10_000);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "room for one block")]
    fn figure6_validates_splits() {
        let _ = figure6(1000, 64, &[10], &[1000]);
    }
}
