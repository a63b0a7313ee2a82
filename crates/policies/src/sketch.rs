//! A Count-Min Sketch with periodic aging — the frequency substrate for
//! [`WTinyLfu`](crate::WTinyLfu).
//!
//! Four rows of 4-bit-style saturating counters (stored as `u8`, capped at
//! 15 as in the TinyLFU paper) indexed by independent multiply-shift
//! hashes. After `sample_size` increments every counter is halved (the
//! *reset* operation), which ages out stale popularity.

use gc_types::{DenseDecode, ItemId};

const ROWS: usize = 4;
const COUNTER_MAX: u8 = 15;

/// Frequency sketch with conservative 4-bit counters and halving decay.
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width_mask: u64,
    rows: Vec<Vec<u8>>,
    increments: u64,
    sample_size: u64,
    seeds: [u64; ROWS],
    /// Dense-ID traces hash through this inverse translation so the
    /// bucket choices — and therefore every admission duel — are
    /// bit-identical to the run over the original sparse ids.
    decode: Option<DenseDecode>,
}

impl CountMinSketch {
    /// A sketch sized for roughly `expected_items` distinct hot items: the
    /// width is the next power of two ≥ `expected_items`, and the aging
    /// period is `10 × expected_items` increments.
    pub fn new(expected_items: usize) -> Self {
        let width = expected_items.next_power_of_two().max(16);
        CountMinSketch {
            width_mask: width as u64 - 1,
            rows: vec![vec![0u8; width]; ROWS],
            increments: 0,
            sample_size: (10 * expected_items as u64).max(160),
            seeds: [
                0x9E37_79B9_7F4A_7C15,
                0xC2B2_AE3D_27D4_EB4F,
                0x1656_67B1_9E37_79F9,
                0x2545_F491_4F6C_DD1D,
            ],
            decode: None,
        }
    }

    /// A sketch over a dense-renamed universe: items are translated back to
    /// their original ids via `decode` before hashing.
    pub fn with_decode(expected_items: usize, decode: DenseDecode) -> Self {
        let mut s = Self::new(expected_items);
        s.decode = Some(decode);
        s
    }

    #[inline]
    fn raw_key(&self, item: ItemId) -> u64 {
        match &self.decode {
            Some(decode) => decode.item(item).0,
            None => item.0,
        }
    }

    #[inline]
    fn index(&self, key: u64, row: usize) -> usize {
        let h = key.wrapping_add(1).wrapping_mul(self.seeds[row]);
        ((h >> 32) & self.width_mask) as usize
    }

    /// Record one occurrence of `item`.
    pub fn increment(&mut self, item: ItemId) {
        // Conservative update: only bump the minimal counters.
        let key = self.raw_key(item);
        let current = self.estimate_key(key);
        if current < COUNTER_MAX as u64 {
            for row in 0..ROWS {
                let idx = self.index(key, row);
                let c = &mut self.rows[row][idx];
                if u64::from(*c) == current {
                    *c += 1;
                }
            }
        }
        self.increments += 1;
        if self.increments >= self.sample_size {
            self.age();
        }
    }

    /// Estimated frequency of `item` (min over rows, ≤ 15).
    pub fn estimate(&self, item: ItemId) -> u64 {
        self.estimate_key(self.raw_key(item))
    }

    #[inline]
    fn estimate_key(&self, key: u64) -> u64 {
        (0..ROWS)
            .map(|row| u64::from(self.rows[row][self.index(key, row)]))
            .min()
            .expect("ROWS > 0")
    }

    /// Halve every counter (the TinyLFU reset).
    fn age(&mut self) {
        for row in &mut self.rows {
            for c in row {
                *c >>= 1;
            }
        }
        self.increments = 0;
    }

    /// Clear all counters.
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(0);
        }
        self.increments = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequent_items_estimate_higher() {
        let mut s = CountMinSketch::new(1024);
        for _ in 0..12 {
            s.increment(ItemId(7));
        }
        s.increment(ItemId(9));
        assert!(s.estimate(ItemId(7)) > s.estimate(ItemId(9)));
        assert!(s.estimate(ItemId(7)) >= 10);
    }

    #[test]
    fn estimates_never_undercount_single_item() {
        // Count-min property: estimate ≥ true count (before aging/cap).
        let mut s = CountMinSketch::new(4096);
        for i in 0..500u64 {
            s.increment(ItemId(i));
        }
        for i in 0..500u64 {
            assert!(s.estimate(ItemId(i)) >= 1, "undercounted {i}");
        }
    }

    #[test]
    fn counters_saturate_at_fifteen() {
        let mut s = CountMinSketch::new(64);
        for _ in 0..100 {
            s.increment(ItemId(3));
        }
        assert!(s.estimate(ItemId(3)) <= 15);
    }

    #[test]
    fn aging_halves_counts() {
        let mut s = CountMinSketch::new(16); // sample_size = 160
        for _ in 0..10 {
            s.increment(ItemId(1));
        }
        let before = s.estimate(ItemId(1));
        // Force an aging pass with unrelated traffic.
        for i in 0..200u64 {
            s.increment(ItemId(100 + i % 7));
        }
        let after = s.estimate(ItemId(1));
        assert!(after < before, "aging did not decay: {before} -> {after}");
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut s = CountMinSketch::new(64);
        s.increment(ItemId(5));
        s.clear();
        assert_eq!(s.estimate(ItemId(5)), 0);
    }
}
