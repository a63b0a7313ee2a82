//! Benchmark-owned input generator.
//!
//! Inputs must be identical under the real and the offline-stub `rand`
//! (their seeded sequences differ) and must survive changes to `gc-trace`,
//! so nothing here calls either: a splitmix64 stream, a Zipf CDF table and
//! three trace shapes. The program under test only ever sees the resulting
//! [`Trace`]. Generation is sequential, so a longer trace from the same
//! seed and shape extends a shorter one — `sim-roster`'s `mixed` trace is a
//! prefix of `serve-hot`'s.

use gc_cache::gc_types::{ItemId, Trace};

/// The splitmix64 generator (Steele, Lea, Flood 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `0..n` (multiply-shift; bias below 2^-64·n).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A Zipf sampler over ranks `0..n`: precomputed CDF, binary search.
#[derive(Clone, Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Ranks `0..n` with probability proportional to `1 / (rank+1)^theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0 && theta >= 0.0, "zipf needs n > 0 and theta >= 0");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += (rank as f64).powf(-theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        ZipfTable { cdf }
    }

    /// Draw one rank.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// A trace shape; together with a seed and a length it fixes the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// Pick a block by Zipf popularity, then walk a geometric-length run
    /// of consecutive items inside it (`spatial` = continue probability).
    BlockRuns {
        /// Blocks in the universe.
        blocks: u64,
        /// Items per block.
        block_size: u64,
        /// Zipf exponent of block popularity.
        theta: f64,
        /// Probability the next request stays in the block.
        spatial: f64,
    },
    /// Independent Zipf draws over items.
    Zipf {
        /// Items in the universe.
        items: u64,
        /// Zipf exponent of item popularity.
        theta: f64,
    },
    /// Independent uniform draws over items.
    Uniform {
        /// Items in the universe.
        items: u64,
    },
}

/// Generate `len` requests of `shape` from `seed`.
pub fn generate(shape: Shape, len: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<ItemId> = Vec::with_capacity(len);
    match shape {
        Shape::BlockRuns {
            blocks,
            block_size,
            theta,
            spatial,
        } => {
            let zipf = ZipfTable::new(blocks, theta);
            while out.len() < len {
                let block = zipf.sample(&mut rng);
                let mut offset = rng.below(block_size);
                loop {
                    out.push(ItemId(block * block_size + offset));
                    if out.len() >= len || rng.next_f64() >= spatial {
                        break;
                    }
                    offset = (offset + 1) % block_size;
                }
            }
        }
        Shape::Zipf { items, theta } => {
            let zipf = ZipfTable::new(items, theta);
            out.extend((0..len).map(|_| ItemId(zipf.sample(&mut rng))));
        }
        Shape::Uniform { items } => {
            out.extend((0..len).map(|_| ItemId(rng.below(items))));
        }
    }
    Trace::from_requests(out)
}

/// The `mixed` shape shared by `sim-roster` and `serve-hot-*`: temporal
/// skew over blocks plus spatial runs inside them.
pub const MIXED: Shape = Shape::BlockRuns {
    blocks: 4096,
    block_size: 16,
    theta: 0.9,
    spatial: 0.6,
};

/// The `uniform` shape of `sim-roster`: no locality of either kind, a
/// universe 16× the cache.
pub const UNIFORM: Shape = Shape::Uniform { items: 65_536 };

/// A seeded Poisson arrival schedule: `n` due times in nanoseconds from 0,
/// exponential gaps with mean `1e9 / rate_per_s`.
pub fn poisson_schedule(rate_per_s: f64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_and_longer_extends_shorter() {
        for shape in [
            MIXED,
            UNIFORM,
            Shape::Zipf {
                items: 1024,
                theta: 0.8,
            },
        ] {
            let a = generate(shape, 5_000, 7);
            let b = generate(shape, 5_000, 7);
            let longer = generate(shape, 9_000, 7);
            let other = generate(shape, 5_000, 8);
            assert_eq!(a.requests(), b.requests());
            assert_eq!(a.requests(), &longer.requests()[..5_000]);
            assert_ne!(a.requests(), other.requests());
        }
    }

    #[test]
    fn splitmix_matches_the_published_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn shapes_stay_inside_their_universe() {
        let t = generate(MIXED, 20_000, 3);
        assert!(t.iter().all(|i| i.0 < 4096 * 16));
        let u = generate(UNIFORM, 20_000, 3);
        assert!(u.iter().all(|i| i.0 < 65_536));
        // Zipf skew: rank 0 is the most requested item.
        let z = generate(
            Shape::Zipf {
                items: 64,
                theta: 1.0,
            },
            20_000,
            3,
        );
        let zeros = z.iter().filter(|i| i.0 == 0).count();
        let lasts = z.iter().filter(|i| i.0 == 63).count();
        assert!(zeros > 10 * lasts.max(1));
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_on_rate() {
        let a = poisson_schedule(5_000.0, 20_000, 11);
        assert_eq!(a, poisson_schedule(5_000.0, 20_000, 11));
        assert_ne!(a, poisson_schedule(5_000.0, 20_000, 12));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let secs = *a.last().unwrap() as f64 / 1e9;
        assert!(
            (secs - 4.0).abs() < 0.2,
            "20k arrivals at 5k/s took {secs}s"
        );
    }
}
