//! Seeded pseudo-random numbers (splitmix64) for trace generators, the
//! randomized policies and the fault simulator.
//!
//! Every tracked number in this repository — the fault rates in
//! `BENCH_gcbench.json`, the seeded test expectations — was produced from
//! these exact streams, so the generator, the seeding step and the range
//! reduction below are **frozen**: changing any of them moves every
//! seeded trace. `gc-trace` pins a prefix of
//! `synthetic::uniform(1_000_000, _, 42)` so such an edit fails a test
//! before it silently moves a `fault_rate`.
//!
//! The names follow the `rand` crate (`StdRng`, `seed_from_u64`,
//! `gen_range`), which is what the call sites were written against.

use std::ops::{Range, RangeInclusive};

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's generator: splitmix64 behind a one-step warm-up.
#[derive(Clone, Debug)]
pub struct StdRng {
    state: u64,
}

/// The randomized policies' generator — the same splitmix64 stream.
pub type SmallRng = StdRng;

// `#[inline]` on the whole drawing path: the randomized policies draw on
// every miss from another crate, and these bodies must stay as inlinable
// there as the generic functions they replaced were.
impl StdRng {
    /// Construct from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // One warm-up step decorrelates small consecutive seeds.
        let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
        let _ = splitmix64(&mut state);
        StdRng { state }
    }

    /// Next uniform 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `range`.
    #[inline]
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// Ranges usable with [`StdRng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a uniform value from the range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u64, usize, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_frozen() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let first: Vec<u64> = (0..3).map(|_| a.next_u64()).collect();
        assert_eq!(first, (0..3).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(first[0], StdRng::seed_from_u64(43).next_u64());
        // The first request of `synthetic::uniform(1_000_000, _, 42)`.
        assert_eq!(
            StdRng::seed_from_u64(42).gen_range(0..1_000_000u64),
            874_250
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert!((3..9u64).contains(&rng.gen_range(3..9u64)));
            assert!((-4..=4i64).contains(&rng.gen_range(-4..=4i64)));
            assert!((0.0..1.0).contains(&rng.gen_f64()));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
