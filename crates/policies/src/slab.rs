//! Slab-backed key state: dense `Vec`-indexed indices and bit sets, plus
//! the sparse hash-map fallbacks.
//!
//! Every policy in this crate keys its replacement state by raw `u64` ids
//! (items or blocks). Against an arbitrary trace those keys are sparse and
//! a hash map is the only option — but when the trace has been *compiled*
//! ([`gc_types::CompiledTrace`]) the keys are dense `0..n`, and the map
//! collapses to a direct array load. The two structures here make that
//! switch a construction-time decision instead of a per-policy rewrite:
//!
//! * [`KeyIndex`] — `key → u32` position map (the `FxHashMap<u64, u32>`
//!   shape used by [`LruList`](crate::lru_list::LruList) and the item
//!   policies' position indices). Dense: 4 bytes per key, the position
//!   itself, with `u32::MAX` for an absent key.
//! * [`KeySet`] — membership set (FIFO presence, marking sets). Dense:
//!   one bit per key.
//!
//! A dense structure spans its whole universe, so its bytes per key are
//! what a policy pays per item of a compiled trace's block closure. That is
//! why nothing else is stored per key: `clear()` is a fill, which only a
//! policy's `reset` calls. Debug builds assert that dense keys are in
//! range, which catches the classic slab bug (an id from one universe
//! probed against another's index) at the boundary instead of as silent
//! corruption.
//!
//! [`Universe`] captures the dense-or-sparse decision once, from a
//! [`BlockMap`]: policies take it at construction and ask it for
//! appropriately-backed indices. The sparse path is the fallback for
//! uncompiled / streamed traces and stays bit-identical to the historic
//! hash-map implementation.

use gc_types::{BlockMap, DenseDecode, FxHashMap, FxHashSet};

/// The key-space a policy's state is built for: either the open sparse
/// `u64` space (hash-backed state) or a compiled dense universe of
/// `n_items` items / `n_blocks` blocks (array-backed state).
#[derive(Clone, Debug, Default)]
pub struct Universe {
    dense: Option<DenseInfo>,
}

#[derive(Clone, Debug)]
struct DenseInfo {
    n_items: usize,
    n_blocks: usize,
    decode: DenseDecode,
}

impl Universe {
    /// The open sparse key space (hash-map-backed state everywhere).
    pub fn sparse() -> Self {
        Universe { dense: None }
    }

    /// The universe of `map`: dense when the map was produced by trace
    /// compilation, sparse otherwise.
    pub fn of(map: &BlockMap) -> Self {
        Universe {
            dense: map.dense_universe().map(|d| DenseInfo {
                n_items: d.n_items() as usize,
                n_blocks: d.n_blocks() as usize,
                decode: d.decoder().clone(),
            }),
        }
    }

    /// Whether this universe is dense.
    pub fn is_dense(&self) -> bool {
        self.dense.is_some()
    }

    /// Dense item → original sparse id translation (dense universes
    /// only). Sketches and samplers hash through this so their bucket
    /// choices match the uncompiled run bit for bit.
    pub fn decode(&self) -> Option<DenseDecode> {
        self.dense.as_ref().map(|d| d.decode.clone())
    }

    /// A position index keyed by item ids.
    pub fn item_index(&self) -> KeyIndex {
        match &self.dense {
            Some(d) => KeyIndex::dense(d.n_items),
            None => KeyIndex::sparse(),
        }
    }

    /// A position index keyed by block ids.
    pub fn block_index(&self) -> KeyIndex {
        match &self.dense {
            Some(d) => KeyIndex::dense(d.n_blocks),
            None => KeyIndex::sparse(),
        }
    }

    /// A membership set keyed by item ids.
    pub fn item_set(&self) -> KeySet {
        match &self.dense {
            Some(d) => KeySet::dense(d.n_items),
            None => KeySet::sparse(),
        }
    }

    /// A membership set keyed by block ids.
    pub fn block_set(&self) -> KeySet {
        match &self.dense {
            Some(d) => KeySet::dense(d.n_blocks),
            None => KeySet::sparse(),
        }
    }

    /// Number of dense items, if dense.
    pub fn n_items(&self) -> Option<usize> {
        self.dense.as_ref().map(|d| d.n_items)
    }

    /// Number of dense blocks, if dense.
    pub fn n_blocks(&self) -> Option<usize> {
        self.dense.as_ref().map(|d| d.n_blocks)
    }
}

/// The stored position a dense [`KeyIndex`] slot holds when its key is
/// absent; [`LruList`](crate::lru_list::LruList) never uses it as a slot.
const ABSENT: u32 = u32::MAX;

/// `key → u32` position map: hash-backed for sparse keys, a flat `Vec`
/// of positions for dense keys.
#[derive(Clone, Debug)]
pub enum KeyIndex {
    /// Open key space: hash probe per lookup.
    Sparse(FxHashMap<u64, u32>),
    /// Dense `0..n` key space: one array load per lookup.
    Dense {
        /// Per-key positions; `u32::MAX` marks an absent key.
        slots: Vec<u32>,
        /// Live entries.
        len: usize,
    },
}

impl KeyIndex {
    /// An empty hash-backed index.
    pub fn sparse() -> Self {
        KeyIndex::Sparse(FxHashMap::default())
    }

    /// An empty dense index over keys `0..n`.
    pub fn dense(n: usize) -> Self {
        KeyIndex::Dense {
            slots: vec![ABSENT; n],
            len: 0,
        }
    }

    /// The position stored for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        match self {
            KeyIndex::Sparse(map) => map.get(&key).copied(),
            KeyIndex::Dense { slots, .. } => {
                let pos = *slots.get(key as usize)?;
                (pos != ABSENT).then_some(pos)
            }
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Store `pos` for `key`, returning the previous position if any.
    /// A dense index cannot store `u32::MAX`.
    #[inline]
    pub fn insert(&mut self, key: u64, pos: u32) -> Option<u32> {
        match self {
            KeyIndex::Sparse(map) => map.insert(key, pos),
            KeyIndex::Dense { slots, len } => {
                debug_assert!(
                    (key as usize) < slots.len(),
                    "key {key} outside dense universe of {}",
                    slots.len()
                );
                debug_assert_ne!(pos, ABSENT, "position u32::MAX marks an absent key");
                let old = std::mem::replace(&mut slots[key as usize], pos);
                if old == ABSENT {
                    *len += 1;
                    None
                } else {
                    Some(old)
                }
            }
        }
    }

    /// Remove `key`, returning its position if it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        match self {
            KeyIndex::Sparse(map) => map.remove(&key),
            KeyIndex::Dense { slots, len } => {
                let slot = slots.get_mut(key as usize)?;
                if *slot == ABSENT {
                    return None;
                }
                *len -= 1;
                Some(std::mem::replace(slot, ABSENT))
            }
        }
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            KeyIndex::Sparse(map) => map.len(),
            KeyIndex::Dense { len, .. } => *len,
        }
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries. O(n) for dense indices (a fill); policies call it
    /// only from `reset`.
    pub fn clear(&mut self) {
        match self {
            KeyIndex::Sparse(map) => map.clear(),
            KeyIndex::Dense { slots, len } => {
                slots.fill(ABSENT);
                *len = 0;
            }
        }
    }
}

/// Membership set over `u64` keys: hash-backed or a bit set.
#[derive(Clone, Debug)]
pub enum KeySet {
    /// Open key space.
    Sparse(FxHashSet<u64>),
    /// Dense `0..n` key space: one bit per key.
    Dense {
        /// Bit `k % 64` of word `k / 64` is set iff key `k` is present;
        /// the last word's bits at and past `n` stay clear.
        bits: Vec<u64>,
        /// Universe size `n`.
        n: usize,
        /// Live entries.
        len: usize,
    },
}

impl KeySet {
    /// An empty hash-backed set.
    pub fn sparse() -> Self {
        KeySet::Sparse(FxHashSet::default())
    }

    /// An empty dense set over keys `0..n`.
    pub fn dense(n: usize) -> Self {
        KeySet::Dense {
            bits: vec![0; n.div_ceil(64)],
            n,
            len: 0,
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        match self {
            KeySet::Sparse(set) => set.contains(&key),
            KeySet::Dense { bits, .. } => bits
                .get((key / 64) as usize)
                .is_some_and(|word| word & (1 << (key % 64)) != 0),
        }
    }

    /// Insert `key`; returns `true` if newly inserted.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        match self {
            KeySet::Sparse(set) => set.insert(key),
            KeySet::Dense { bits, n, len } => {
                // The last word has room past `n`: without this check an
                // out-of-range key would land in its padding bits.
                debug_assert!(
                    (key as usize) < *n,
                    "key {key} outside dense universe of {n}"
                );
                let word = &mut bits[(key / 64) as usize];
                let bit = 1 << (key % 64);
                if *word & bit != 0 {
                    false
                } else {
                    *word |= bit;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// Remove `key`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        match self {
            KeySet::Sparse(set) => set.remove(&key),
            KeySet::Dense { bits, len, .. } => match bits.get_mut((key / 64) as usize) {
                Some(word) if *word & (1 << (key % 64)) != 0 => {
                    *word &= !(1 << (key % 64));
                    *len -= 1;
                    true
                }
                _ => false,
            },
        }
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            KeySet::Sparse(set) => set.len(),
            KeySet::Dense { len, .. } => *len,
        }
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries. O(n / 64) for dense sets (a fill); policies call
    /// it only from `reset`.
    pub fn clear(&mut self) {
        match self {
            KeySet::Sparse(set) => set.clear(),
            KeySet::Dense { bits, len, .. } => {
                bits.fill(0);
                *len = 0;
            }
        }
    }
}

/// The sparse universe and a dense one over item keys `0..n`, for tests
/// that run a policy over both [`KeyIndex`] backings.
#[cfg(test)]
pub(crate) fn both_universes(n: u64) -> [Universe; 2] {
    let ct =
        gc_types::CompiledTrace::compile(&gc_types::Trace::from_ids(0..n), &BlockMap::strided(1))
            .expect("identity trace compiles");
    [Universe::sparse(), Universe::of(ct.map())]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_pair() -> [KeyIndex; 2] {
        [KeyIndex::sparse(), KeyIndex::dense(64)]
    }

    #[test]
    fn index_insert_get_remove_both_backings() {
        for mut idx in index_pair() {
            assert_eq!(idx.get(3), None);
            assert_eq!(idx.insert(3, 7), None);
            assert_eq!(idx.insert(5, 9), None);
            assert_eq!(idx.len(), 2);
            assert_eq!(idx.get(3), Some(7));
            assert_eq!(idx.insert(3, 8), Some(7), "overwrite returns old");
            assert_eq!(idx.len(), 2);
            assert_eq!(idx.remove(3), Some(8));
            assert_eq!(idx.remove(3), None);
            assert_eq!(idx.len(), 1);
            assert!(idx.contains(5) && !idx.contains(3));
        }
    }

    #[test]
    fn index_is_reused_after_clear() {
        for mut idx in index_pair() {
            for round in 0..3u32 {
                assert_eq!(idx.insert(1, 10 + round), None, "round {round}");
                assert_eq!(idx.insert(63, 20 + round), None);
                assert_eq!(idx.insert(1, 30 + round), Some(10 + round));
                assert_eq!(idx.len(), 2);
                idx.clear();
                assert!(idx.is_empty());
                assert_eq!(idx.get(1), None, "a cleared key reads absent");
                assert_eq!(idx.get(63), None);
                assert_eq!(idx.remove(63), None);
            }
            assert_eq!(idx.insert(1, 0), None);
            assert_eq!(idx.get(1), Some(0), "position 0 is a live position");
            assert_eq!(idx.remove(1), Some(0));
            assert!(idx.is_empty());
        }
    }

    #[test]
    fn bit_set_matches_the_sparse_set_across_word_edges() {
        // 130 keys: two full words and a last word with 62 padding bits.
        let n = 130u64;
        let mut sparse = KeySet::sparse();
        let mut dense = KeySet::dense(n as usize);
        let edges = [0, 63, 64, 127, 128, n - 1];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = if x % 3 == 0 {
                edges[(x / 3 % edges.len() as u64) as usize]
            } else {
                x % n
            };
            match x % 11 {
                0..=4 => assert_eq!(sparse.insert(key), dense.insert(key), "insert {key}"),
                5..=7 => assert_eq!(sparse.remove(key), dense.remove(key), "remove {key}"),
                8 | 9 => assert_eq!(sparse.contains(key), dense.contains(key), "probe {key}"),
                _ if step % 97 == 0 => {
                    sparse.clear();
                    dense.clear();
                }
                _ => {}
            }
            assert_eq!(sparse.len(), dense.len());
        }
        // Clear, then re-insert every key, the word edges included.
        sparse.clear();
        dense.clear();
        assert!(edges.iter().all(|&k| !dense.contains(k)));
        for key in (0..n).rev() {
            assert_eq!(sparse.insert(key), dense.insert(key));
        }
        assert_eq!(dense.len(), n as usize);
        assert!(edges.iter().all(|&k| dense.contains(k)));
        assert!(!dense.contains(n), "padding bits stay clear");
        assert!(!dense.contains(191));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside dense universe")]
    fn bit_set_refuses_a_key_in_its_padding_bits() {
        // Key 100 has a bit in the last word of a 70-key set.
        KeySet::dense(70).insert(100);
    }

    #[test]
    fn set_basic_both_backings() {
        for mut set in [KeySet::sparse(), KeySet::dense(32)] {
            assert!(set.insert(4));
            assert!(!set.insert(4));
            assert!(set.contains(4));
            assert_eq!(set.len(), 1);
            assert!(set.remove(4));
            assert!(!set.remove(4));
            assert!(set.is_empty());
            set.insert(9);
            set.clear();
            assert!(!set.contains(9));
        }
    }

    #[test]
    fn dense_out_of_range_reads_are_absent() {
        let idx = KeyIndex::dense(4);
        assert_eq!(idx.get(100), None);
        let set = KeySet::dense(4);
        assert!(!set.contains(100));
    }

    #[test]
    fn universe_of_sparse_map_is_sparse() {
        let u = Universe::of(&BlockMap::strided(4));
        assert!(!u.is_dense());
        assert!(matches!(u.item_index(), KeyIndex::Sparse(_)));
        assert!(u.decode().is_none());
    }

    #[test]
    fn universe_of_compiled_map_is_dense() {
        use gc_types::{CompiledTrace, Trace};
        let ct =
            CompiledTrace::compile(&Trace::from_ids([0, 9, 100]), &BlockMap::strided(4)).unwrap();
        let u = Universe::of(ct.map());
        assert!(u.is_dense());
        assert_eq!(u.n_items(), Some(12));
        assert_eq!(u.n_blocks(), Some(3));
        assert!(matches!(u.item_index(), KeyIndex::Dense { .. }));
        let decode = u.decode().unwrap();
        assert_eq!(decode.item(gc_types::ItemId(11)), gc_types::ItemId(103));
    }

    #[test]
    fn differential_index_sparse_vs_dense() {
        let mut sparse = KeyIndex::sparse();
        let mut dense = KeyIndex::dense(40);
        let mut x = 0x9E37_79B9u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 40;
            match x % 7 {
                0..=2 => assert_eq!(
                    sparse.insert(key, (x % 97) as u32),
                    dense.insert(key, (x % 97) as u32)
                ),
                3..=4 => assert_eq!(sparse.remove(key), dense.remove(key)),
                5 => assert_eq!(sparse.get(key), dense.get(key)),
                _ => {
                    if x % 101 == 0 {
                        sparse.clear();
                        dense.clear();
                    }
                    assert_eq!(sparse.len(), dense.len());
                }
            }
        }
    }
}
