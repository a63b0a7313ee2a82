//! SHARDS-style spatially-hashed reuse-distance sampling.
//!
//! Exact Mattson MRCs (see [`mrc`](crate::mrc)) cost `O(T log T)` time and
//! `O(M)` space for `M` distinct ids — too much for production-scale
//! traces. SHARDS (Waldspurger et al., FAST '15) observes that reuse
//! distances can be estimated from a *spatially hashed* sample: keep an
//! access iff
//!
//! ```text
//! hash(id) mod P < T
//! ```
//!
//! so that every access to a sampled id is kept (reuse pairs survive
//! intact), the sample rate is `R = T / P`, and each measured reuse
//! distance is an unbiased `R`-thinning of the true one — rescaling by
//! `1/R` recovers the full-trace distance. Each sampled access carries
//! weight `1/R`, and the curve uses the paper's *SHARDS-adj* correction:
//! miss counts are normalized against the expected sampled weight (the
//! trace length), not the actual one, which keeps heavy-hitter sampling
//! luck out of the tails.
//!
//! Two operating modes:
//!
//! * **Fixed-rate** ([`SamplerConfig::fixed`]): constant threshold; work
//!   and memory shrink by `R` (rates down to 0.1 % remain accurate on
//!   skewed traces).
//! * **Fixed-size** ([`SamplerConfig::adaptive`]): start at rate 1 and
//!   *lower* the threshold whenever the sample holds more than `s_max`
//!   distinct ids, evicting the ids with the largest hashes — memory is
//!   `O(s_max)` regardless of trace size or working-set size.
//!
//! The hash is [`mix64`] — a full-avalanche bijective mixer — restricted
//! to [`MODULUS`] buckets, so threshold comparisons see uniform bits; the
//! table hash used elsewhere (`FxHasher`) is too weak for thresholding.
//!
//! At rate `1.0` the sampler degenerates to the exact algorithm and the
//! returned curve is bit-identical to [`item_mrc`](crate::item_mrc) /
//! [`block_mrc`](crate::block_mrc) output — tested, and relied on by the
//! CLI's `--exact` flag.

use crate::mrc::{Fenwick, MissRatioCurve};
use gc_types::{mix64, BlockMap, CompiledTrace, FxHashMap, ItemId, Trace};
use std::collections::BinaryHeap;

/// Hash-space size `P` for the `hash(id) mod P < T` filter. 24 bits gives
/// rate granularity of `2^-24` ≈ 6e-8 — far finer than any useful rate —
/// while leaving 40 bits of the mixed hash unused (hygiene, not need).
pub const MODULUS: u64 = 1 << 24;

/// Configuration for the spatially-hashed sampler.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplerConfig {
    /// Initial sample rate `R = T / P` in `(0, 1]`.
    pub rate: f64,
    /// Seed salting the spatial hash, so independent runs can sample
    /// different id subsets. The same seed always selects the same ids.
    pub seed: u64,
    /// Fixed-size mode: cap on distinct sampled ids. When the sample
    /// exceeds this, the threshold is lowered (largest-hash ids evicted)
    /// until it fits.
    pub s_max: Option<usize>,
}

impl SamplerConfig {
    /// Fixed-rate sampling at `rate` ∈ (0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn fixed(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "sample rate must be in (0, 1], got {rate}"
        );
        SamplerConfig {
            rate,
            seed: 0,
            s_max: None,
        }
    }

    /// Fixed-size sampling: start at rate 1 and adapt the threshold down
    /// so the sample never holds more than `s_max` distinct ids.
    ///
    /// # Panics
    ///
    /// Panics if `s_max` is zero.
    pub fn adaptive(s_max: usize) -> Self {
        assert!(s_max > 0, "s_max must be positive");
        SamplerConfig {
            rate: 1.0,
            seed: 0,
            s_max: Some(s_max),
        }
    }

    /// Replace the hash seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The initial integer threshold `T` ∈ [1, [`MODULUS`]].
    fn initial_threshold(&self) -> u64 {
        ((self.rate * MODULUS as f64).round() as u64).clamp(1, MODULUS)
    }
}

/// What the sampler actually did — useful for reporting and diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct SampleStats {
    /// Accesses that passed the spatial filter.
    pub sampled_accesses: u64,
    /// Distinct ids in the sample when the pass finished.
    pub distinct_sampled: usize,
    /// Final effective rate `T / P` (equals the configured rate in
    /// fixed-rate mode; ≤ 1 and typically lower in adaptive mode).
    pub final_rate: f64,
}

/// Max-heap entry: adaptive mode evicts the largest-hash ids first.
type HeapEntry = (u64, u64); // (hash, id)

fn sampled_mrc_over_ids(
    ids: impl Iterator<Item = u64>,
    len: usize,
    max_size: usize,
    cfg: &SamplerConfig,
) -> (MissRatioCurve, SampleStats) {
    let salt = mix64(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let mut threshold = cfg.initial_threshold();

    // Weighted distance histogram. `cold_far_weight` merges first-touch
    // and beyond-max_size distances: both miss at every reported size.
    let mut hist = vec![0f64; max_size + 1];
    let mut cold_far_weight = 0f64;
    let mut total_weight = 0f64;
    let mut sampled_accesses = 0u64;

    let mut fenwick = Fenwick::new(len);
    let mut last_pos: FxHashMap<u64, usize> = FxHashMap::default();
    // Only populated in adaptive mode; tracks (hash, id) per sampled id so
    // threshold lowering can evict the largest hashes.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();

    for (pos, id) in ids.enumerate() {
        let h = mix64(id ^ salt) & (MODULUS - 1);
        if h >= threshold {
            continue;
        }
        // Weight and distance scaling use the rate in force *when the
        // access is observed*; adaptive lowering only affects later
        // accesses (standard SHARDS bookkeeping).
        let rate_now = threshold as f64 / MODULUS as f64;
        let w = 1.0 / rate_now;
        sampled_accesses += 1;
        total_weight += w;

        match last_pos.insert(id, pos) {
            None => {
                cold_far_weight += w;
                if cfg.s_max.is_some() {
                    heap.push((h, id));
                }
            }
            Some(prev) => {
                // Sampled distinct ids touched strictly between the two
                // accesses; rescale by 1/R to estimate the full-trace
                // stack distance.
                let between = fenwick.prefix(pos) - fenwick.prefix(prev);
                let scaled = (f64::from(between) * w).round() as usize;
                if scaled < hist.len() {
                    hist[scaled] += w;
                } else {
                    cold_far_weight += w;
                }
                fenwick.add(prev, -1);
            }
        }
        fenwick.add(pos, 1);

        if let Some(s_max) = cfg.s_max {
            while last_pos.len() > s_max {
                // Lower the threshold to the largest hash in the sample
                // and drop every id at or above it. Ids sharing that hash
                // value all go (the filter is strict `<`).
                let (h_max, _) = *heap.peek().expect("sample non-empty over s_max");
                threshold = h_max;
                while let Some(&(h2, id2)) = heap.peek() {
                    if h2 < threshold {
                        break;
                    }
                    heap.pop();
                    if let Some(p) = last_pos.remove(&id2) {
                        fenwick.add(p, -1);
                    }
                }
            }
        }
    }

    let stats = SampleStats {
        sampled_accesses,
        distinct_sampled: last_pos.len(),
        final_rate: threshold as f64 / MODULUS as f64,
    };

    // SHARDS-adj estimator (Waldspurger et al., FAST '15 §3.3): normalize
    // by the *expected* sampled weight — exactly the trace length, since
    // each access contributes weight `1/R` with probability `R` — and
    // credit the difference between expected and actual to the distance-0
    // bucket. Dividing by the actual total instead would propagate
    // heavy-hitter sampling luck to every size: a hot id has tiny reuse
    // distances, so whether it lands in the sample swings the total
    // weight while barely touching the tails. With the adjustment,
    // `misses[0]` is exactly `len` and each tail is an unbiased count
    // estimate in its own right. At rate 1.0 the correction is exactly
    // zero and the rounded counts are bit-identical to the exact
    // algorithm's.
    let mut misses = vec![0u64; max_size + 1];
    if total_weight > 0.0 {
        hist[0] += len as f64 - total_weight;
        let mut tail = cold_far_weight;
        for k in (0..=max_size).rev() {
            tail += hist[k];
            misses[k] = (tail.round().max(0.0) as u64).min(len as u64);
        }
    } else if len > 0 {
        // Nothing sampled (tiny rate, unlucky ids): no information, so
        // conservatively report the all-miss curve rather than a fake hit.
        misses.fill(len as u64);
    }
    (
        MissRatioCurve {
            accesses: len as u64,
            misses,
        },
        stats,
    )
}

/// Sampled item-granular MRC — the estimator of [`item_mrc`](crate::item_mrc) —
/// with the [`SampleStats`] of the pass.
///
/// Runtime and memory scale with the sample rate: at 1 % the Fenwick pass
/// touches ~1 % of accesses and the position map holds ~1 % of distinct
/// ids, for a near-linear end-to-end pass dominated by the hash filter.
pub fn sampled_item_mrc(
    trace: &Trace,
    max_size: usize,
    cfg: &SamplerConfig,
) -> (MissRatioCurve, SampleStats) {
    sampled_mrc_over_ids(trace.iter().map(|i| i.0), trace.len(), max_size, cfg)
}

/// [`sampled_item_mrc`]'s curve over a compiled trace.
///
/// The spatial filter must hash the *original* keys — `mix64` of a dense
/// rename would select a different id subset and change the estimate — so
/// this streams each access through the compiled decode table (one flat
/// `Vec` load) instead of re-mixing sparse ids from a `Trace`. Same ids
/// hashed, same seed: bit-identical to [`sampled_item_mrc`] on the source
/// trace.
pub fn sampled_item_mrc_compiled(
    compiled: &CompiledTrace,
    max_size: usize,
    cfg: &SamplerConfig,
) -> MissRatioCurve {
    let dense = compiled
        .map()
        .dense_universe()
        .expect("compiled trace always carries a dense map");
    let decode = dense.decoder();
    sampled_mrc_over_ids(
        compiled
            .accesses()
            .iter()
            .map(|a| decode.item(ItemId(u64::from(a.item))).0),
        compiled.len(),
        max_size,
        cfg,
    )
    .0
}

/// Sampled block-granular MRC — the estimator of
/// [`block_mrc`](crate::block_mrc), hashing *block* ids so all items of a
/// sampled block are kept together (granularity-consistent sampling) —
/// with the [`SampleStats`] of the pass.
pub fn sampled_block_mrc(
    trace: &Trace,
    map: &BlockMap,
    max_slots: usize,
    cfg: &SamplerConfig,
) -> (MissRatioCurve, SampleStats) {
    sampled_mrc_over_ids(
        trace.iter().map(|i| map.block_of(i).0),
        trace.len(),
        max_slots,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrc::{block_mrc, item_mrc};

    fn skewed_trace(len: usize, universe: u64, seed: u64) -> Trace {
        // Zipf-ish: square a uniform variate to concentrate mass on low
        // ids, plus a streaming tail — enough structure for a curve with
        // an actual knee.
        let mut x = seed | 1;
        let ids = (0..len).map(move |i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if x % 5 == 0 {
                universe + (i as u64 % (universe / 2))
            } else {
                ((u * u) * universe as f64) as u64
            }
        });
        Trace::from_ids(ids)
    }

    #[test]
    fn rate_one_is_bit_identical_to_exact() {
        let trace = skewed_trace(30_000, 2000, 7);
        let exact = item_mrc(&trace, 512);
        let (sampled, _) = sampled_item_mrc(&trace, 512, &SamplerConfig::fixed(1.0));
        assert_eq!(exact.accesses, sampled.accesses);
        assert_eq!(exact.misses, sampled.misses);

        let map = BlockMap::strided(16);
        let exact_b = block_mrc(&trace, &map, 64);
        let (sampled_b, _) = sampled_block_mrc(&trace, &map, 64, &SamplerConfig::fixed(1.0));
        assert_eq!(exact_b.misses, sampled_b.misses);
    }

    #[test]
    fn deterministic_for_seed_and_rate() {
        let trace = skewed_trace(40_000, 3000, 99);
        let cfg = SamplerConfig::fixed(0.05).with_seed(1234);
        let (a, _) = sampled_item_mrc(&trace, 400, &cfg);
        let (b, _) = sampled_item_mrc(&trace, 400, &cfg);
        assert_eq!(a.misses, b.misses);
        // A different seed samples different ids — almost surely a
        // different curve on this trace.
        let (c, _) = sampled_item_mrc(&trace, 400, &cfg.clone().with_seed(4321));
        assert_ne!(a.misses, c.misses);
    }

    #[test]
    fn curves_converge_to_exact_as_rate_rises() {
        let trace = skewed_trace(60_000, 2000, 21);
        let exact = item_mrc(&trace, 512);
        let err = |rate: f64| {
            let (approx, _) =
                sampled_item_mrc(&trace, 512, &SamplerConfig::fixed(rate).with_seed(5));
            (0..=512)
                .map(|k| (exact.miss_ratio(k) - approx.miss_ratio(k)).abs())
                .fold(0.0f64, f64::max)
        };
        let e_10 = err(0.10);
        let e_50 = err(0.50);
        let e_90 = err(0.90);
        assert!(e_10 < 0.08, "10% rate error {e_10}");
        assert!(e_50 < 0.04, "50% rate error {e_50}");
        assert!(e_90 < 0.02, "90% rate error {e_90}");
    }

    #[test]
    fn block_curve_converges_too() {
        let trace = skewed_trace(60_000, 4000, 77);
        let map = BlockMap::strided(16);
        let exact = block_mrc(&trace, &map, 128);
        // The block universe is tiny (~250 ids of very unequal mass), far
        // below the sampled-id count SHARDS assumes; the realized sample
        // weight alone swings by ±15% at rate 0.5. Use a generous rate —
        // the point here is that *block-granular* hashing converges like
        // item hashing does, not low-rate accuracy (that is checked at
        // scale by `tests/shards_at_scale.rs`).
        let (approx, _) =
            sampled_block_mrc(&trace, &map, 128, &SamplerConfig::fixed(0.9).with_seed(2));
        let max_err = (0..=128)
            .map(|k| (exact.miss_ratio(k) - approx.miss_ratio(k)).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.05, "block curve error {max_err}");
    }

    #[test]
    fn sampled_curve_is_monotone() {
        let trace = skewed_trace(50_000, 2500, 3);
        for rate in [0.01, 0.1, 0.5] {
            let (curve, _) = sampled_item_mrc(&trace, 300, &SamplerConfig::fixed(rate));
            assert!(
                curve.misses.windows(2).all(|w| w[1] <= w[0]),
                "non-monotone at rate {rate}"
            );
        }
    }

    #[test]
    fn adaptive_with_roomy_cap_matches_exact() {
        // s_max ≥ distinct ids: the threshold never drops, so the pass is
        // the exact algorithm.
        let trace = skewed_trace(20_000, 500, 13);
        let exact = item_mrc(&trace, 256);
        let (curve, stats) = sampled_item_mrc(&trace, 256, &SamplerConfig::adaptive(100_000));
        assert_eq!(exact.misses, curve.misses);
        assert!((stats.final_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_caps_sample_size_and_stays_accurate() {
        let trace = skewed_trace(80_000, 8000, 41);
        let exact = item_mrc(&trace, 1024);
        let (curve, stats) = sampled_item_mrc(&trace, 1024, &SamplerConfig::adaptive(512));
        assert!(
            stats.distinct_sampled <= 512,
            "sample overflowed: {}",
            stats.distinct_sampled
        );
        assert!(stats.final_rate < 1.0, "threshold never adapted");
        let max_err = (0..=1024)
            .map(|k| (exact.miss_ratio(k) - curve.miss_ratio(k)).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.08, "adaptive error {max_err}");
    }

    #[test]
    fn compiled_sampling_is_bit_identical_to_sparse() {
        // Scattered sparse keys: dense renaming changes every id, so this
        // fails unless the compiled pass hashes the *decoded* ids.
        let trace = Trace::from_ids(skewed_trace(40_000, 2500, 19).iter().map(|i| i.0 * 9_973));
        let map = BlockMap::strided(16);
        let compiled = CompiledTrace::compile(&trace, &map).unwrap();
        for cfg in [
            SamplerConfig::fixed(0.05).with_seed(7),
            SamplerConfig::fixed(1.0),
            SamplerConfig::adaptive(400).with_seed(3),
        ] {
            let (sparse, _) = sampled_item_mrc(&trace, 300, &cfg);
            let dense = sampled_item_mrc_compiled(&compiled, 300, &cfg);
            assert_eq!(sparse.misses, dense.misses, "{cfg:?}");
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        let (curve, _) = sampled_item_mrc(&Trace::new(), 16, &SamplerConfig::fixed(0.01));
        assert_eq!(curve.accesses, 0);
        assert!(curve.misses.iter().all(|&m| m == 0));
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_rate_rejected() {
        let _ = SamplerConfig::fixed(0.0);
    }
}
