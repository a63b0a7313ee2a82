//! Synthetic workload generators.
//!
//! These provide the "realistic scenario" side of the evaluation: traces
//! with controllable temporal locality (item popularity skew) and spatial
//! locality (how clustered accesses are within blocks). The central knob is
//! [`BlockRunConfig::spatial_locality`], which interpolates between
//! item-granular random access (no spatial locality, `g(n) ≈ f(n)`) and
//! whole-block streaming (maximal spatial locality, `g(n) ≈ f(n)/B`).

use gc_types::rng::StdRng;
use gc_types::{BlockMap, ItemId, Trace};

/// Uniform random accesses over `num_items` items.
pub fn uniform(num_items: u64, len: usize, seed: u64) -> Trace {
    assert!(num_items > 0, "need at least one item");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Trace::new().named(format!("uniform(n={num_items})"));
    t.reserve(len);
    for _ in 0..len {
        t.push(ItemId(rng.gen_range(0..num_items)));
    }
    t
}

/// A Zipf-distributed sampler over ranks `0..n` with exponent `theta`.
///
/// `theta = 0` is uniform; larger values are more skewed. Sampling uses the
/// precomputed-CDF + binary-search method, which is exact and fast enough
/// for the universe sizes the benchmarks use (≤ a few million items).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `theta ≥ 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be ≥ 0");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u = rng.gen_f64();
        // partition_point returns the first rank whose CDF value is ≥ u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Zipfian accesses: item popularity follows a Zipf law with exponent
/// `theta` (temporal locality knob; `theta ≈ 0.8–1.0` is typical of real
/// cache workloads).
pub fn zipfian(num_items: u64, theta: f64, len: usize, seed: u64) -> Trace {
    let zipf = Zipf::new(num_items, theta);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Trace::new().named(format!("zipf(n={num_items},θ={theta})"));
    t.reserve(len);
    for _ in 0..len {
        t.push(ItemId(zipf.sample(&mut rng)));
    }
    t
}

/// A sequential scan over `num_items` items, wrapped until `len` requests
/// are produced. Maximal spatial locality, minimal temporal locality.
pub fn scan(num_items: u64, len: usize) -> Trace {
    assert!(num_items > 0, "need at least one item");
    let mut t = Trace::new().named(format!("scan(n={num_items})"));
    t.reserve(len);
    for pos in 0..len {
        t.push(ItemId(pos as u64 % num_items));
    }
    t
}

/// Configuration for the block-run workload, the workhorse synthetic
/// generator of this crate.
#[derive(Clone, Debug)]
pub struct BlockRunConfig {
    /// Number of blocks in the universe.
    pub num_blocks: u64,
    /// Block size `B` (the trace is meant for [`BlockMap::strided`] with
    /// this size).
    pub block_size: usize,
    /// Zipf exponent for block popularity (temporal locality knob).
    pub block_theta: f64,
    /// Probability that the next request stays inside the current block,
    /// walking to its next item (spatial locality knob in `[0, 1]`).
    ///
    /// `0.0` degenerates to item-granular random access; `1.0` streams
    /// whole blocks.
    pub spatial_locality: f64,
    /// Number of requests to generate.
    pub len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BlockRunConfig {
    fn default() -> Self {
        BlockRunConfig {
            num_blocks: 1024,
            block_size: 16,
            block_theta: 0.8,
            spatial_locality: 0.5,
            len: 100_000,
            seed: 0xB10C,
        }
    }
}

/// Generate a block-run trace: pick a block by Zipf popularity, then emit a
/// geometric-length run of consecutive items inside it.
///
/// The expected run length is `1 / (1 - spatial_locality)` capped at the
/// block size, so `spatial_locality` directly controls the empirical
/// `f(n)/g(n)` ratio of §2.
pub fn block_runs(cfg: &BlockRunConfig) -> Trace {
    assert!(cfg.num_blocks > 0 && cfg.block_size > 0, "empty universe");
    assert!(
        (0.0..=1.0).contains(&cfg.spatial_locality),
        "spatial_locality must be in [0,1]"
    );
    let zipf = Zipf::new(cfg.num_blocks, cfg.block_theta);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = Trace::new().named(format!(
        "block_runs(blocks={},B={},θ={},s={})",
        cfg.num_blocks, cfg.block_size, cfg.block_theta, cfg.spatial_locality
    ));
    t.reserve(cfg.len);
    let b = cfg.block_size as u64;
    let mut emitted = 0usize;
    while emitted < cfg.len {
        let block = zipf.sample(&mut rng);
        let mut offset = rng.gen_range(0..b);
        loop {
            t.push(ItemId(block * b + offset));
            emitted += 1;
            if emitted >= cfg.len {
                break;
            }
            // Continue the run with probability `spatial_locality`, moving
            // to the next item of the block (wrapping).
            if rng.gen_f64() >= cfg.spatial_locality {
                break;
            }
            offset = (offset + 1) % b;
        }
    }
    t
}

/// The [`BlockMap`] matching a [`BlockRunConfig`].
pub fn block_runs_map(cfg: &BlockRunConfig) -> BlockMap {
    BlockMap::strided(cfg.block_size)
}

/// One phase of a [`phased`] workload.
#[derive(Clone, Debug)]
pub enum Phase {
    /// Uniform accesses over an item range starting at `base`.
    Uniform {
        /// First item id of the range.
        base: u64,
        /// Number of items in the range.
        num_items: u64,
        /// Requests in this phase.
        len: usize,
    },
    /// A sequential scan over an item range starting at `base`.
    Scan {
        /// First item id of the range.
        base: u64,
        /// Number of items in the range.
        num_items: u64,
        /// Requests in this phase.
        len: usize,
    },
    /// A block-run workload (ids offset by `base`).
    BlockRuns {
        /// Offset added to every generated item id.
        base: u64,
        /// Generator configuration.
        cfg: BlockRunConfig,
    },
}

/// Concatenate phases into a single trace, reseeding per phase.
///
/// Phased traces model working-set shifts — the situation where online
/// policies pay their competitive penalty.
pub fn phased(phases: &[Phase], seed: u64) -> Trace {
    let mut t = Trace::new().named("phased");
    for (idx, phase) in phases.iter().enumerate() {
        let phase_seed = seed
            .wrapping_add(idx as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match phase {
            Phase::Uniform {
                base,
                num_items,
                len,
            } => {
                let sub = uniform(*num_items, *len, phase_seed);
                for item in &sub {
                    t.push(ItemId(item.0 + base));
                }
            }
            Phase::Scan {
                base,
                num_items,
                len,
            } => {
                let sub = scan(*num_items, *len);
                for item in &sub {
                    t.push(ItemId(item.0 + base));
                }
            }
            Phase::BlockRuns { base, cfg } => {
                let mut cfg = cfg.clone();
                cfg.seed = phase_seed;
                let sub = block_runs(&cfg);
                for item in &sub {
                    t.push(ItemId(item.0 + base));
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::FxHashSet;

    /// Every tracked `fault_rate` (`BENCH_gcbench.json`) comes from
    /// these seeded streams, and `gcbench` stamps its reports by this very
    /// prefix: an edit to `gc_types::rng` that moves them must fail here
    /// first.
    #[test]
    fn uniform_stream_is_pinned() {
        let ids: Vec<u64> = uniform(1_000_000, 4, 42).iter().map(|i| i.0).collect();
        assert_eq!(ids, [874_250, 204_626, 814_362, 906_883]);
    }

    #[test]
    fn uniform_respects_universe_and_len() {
        let t = uniform(10, 1000, 1);
        assert_eq!(t.len(), 1000);
        assert!(t.iter().all(|i| i.0 < 10));
        assert!(
            t.distinct_items() > 5,
            "should touch most of a small universe"
        );
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(
            uniform(100, 50, 7).requests(),
            uniform(100, 50, 7).requests()
        );
        assert_ne!(
            uniform(100, 50, 7).requests(),
            uniform(100, 50, 8).requests()
        );
    }

    #[test]
    fn zipf_skew_orders_frequencies() {
        let t = zipfian(1000, 1.2, 20_000, 3);
        let mut counts = vec![0u32; 1000];
        for i in t.iter() {
            counts[i.as_usize()] += 1;
        }
        // Rank 0 must dominate a deep tail rank under heavy skew.
        assert!(counts[0] > 20 * counts[900].max(1));
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let t = zipfian(10, 0.0, 50_000, 4);
        let mut counts = vec![0u32; 10];
        for i in t.iter() {
            counts[i.as_usize()] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!((*max as f64 / *min as f64) < 1.2, "counts {counts:?}");
    }

    #[test]
    fn scan_wraps() {
        let t = scan(3, 7);
        let ids: Vec<u64> = t.iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn block_runs_stay_in_block_when_fully_spatial() {
        let cfg = BlockRunConfig {
            num_blocks: 8,
            block_size: 4,
            block_theta: 0.0,
            spatial_locality: 1.0,
            len: 400,
            seed: 5,
        };
        let t = block_runs(&cfg);
        let map = block_runs_map(&cfg);
        // With spatial_locality = 1.0 every run is infinite, so the whole
        // trace stays inside the first sampled block.
        let blocks: FxHashSet<_> = t.iter().map(|i| map.block_of(i)).collect();
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn block_runs_zero_spatial_is_item_granular() {
        let cfg = BlockRunConfig {
            num_blocks: 64,
            block_size: 8,
            block_theta: 0.0,
            spatial_locality: 0.0,
            len: 5000,
            seed: 6,
        };
        let t = block_runs(&cfg);
        assert_eq!(t.len(), 5000);
        // Runs have length exactly 1, so consecutive requests rarely share
        // a block (1/64 of the time by chance).
        let map = block_runs_map(&cfg);
        let same_block_pairs = t
            .requests()
            .windows(2)
            .filter(|w| map.same_block(w[0], w[1]))
            .count();
        assert!(same_block_pairs < 400, "got {same_block_pairs}");
    }

    #[test]
    fn block_runs_spatial_knob_monotone_in_fg_ratio() {
        // Higher spatial_locality ⇒ higher windowed f(n)/g(n) ratio.
        let make = |s: f64| {
            let cfg = BlockRunConfig {
                num_blocks: 256,
                block_size: 16,
                block_theta: 0.0,
                spatial_locality: s,
                len: 20_000,
                seed: 9,
            };
            let t = block_runs(&cfg);
            let map = block_runs_map(&cfg);
            let f = crate::working_set::max_distinct_items_in_window(&t, 64);
            let g = crate::working_set::max_distinct_blocks_in_window(&t, &map, 64);
            f as f64 / g as f64
        };
        let low = make(0.1);
        let high = make(0.9);
        assert!(high > low * 1.5, "low={low} high={high}");
    }

    #[test]
    fn phased_concatenates_and_offsets() {
        let t = phased(
            &[
                Phase::Scan {
                    base: 0,
                    num_items: 4,
                    len: 4,
                },
                Phase::Uniform {
                    base: 100,
                    num_items: 5,
                    len: 10,
                },
            ],
            1,
        );
        assert_eq!(t.len(), 14);
        assert!(t.requests()[..4].iter().all(|i| i.0 < 4));
        assert!(t.requests()[4..].iter().all(|i| (100..105).contains(&i.0)));
    }

    #[test]
    #[should_panic(expected = "spatial_locality")]
    fn block_runs_rejects_bad_knob() {
        let cfg = BlockRunConfig {
            spatial_locality: 1.5,
            ..Default::default()
        };
        let _ = block_runs(&cfg);
    }

    #[test]
    fn zipf_sampler_len() {
        let z = Zipf::new(42, 1.0);
        assert_eq!(z.len(), 42);
        assert!(!z.is_empty());
    }
}
