//! The single-pass simulation engine.
//!
//! Besides counting hits and misses, the engine attributes every hit to
//! temporal or spatial locality per §2 of the paper:
//!
//! > In GC Caching, hits can also come from spatial locality, i.e., when an
//! > item `I` is in cache due to an earlier access to a different item in
//! > the same block. (Any hits to item `I` beyond the first are due to
//! > temporal locality, since `I` would have been brought in cache anyway.)
//!
//! Concretely: when a miss co-loads items beyond the requested one, those
//! items become *spatial candidates*. The first hit to a candidate is a
//! spatial hit (and clears the candidacy); hits to non-candidates are
//! temporal. Eviction or re-loading keeps candidacy in sync.
//!
//! ## Hot-path discipline
//!
//! The loop performs no per-access heap allocation: policies report into a
//! single reused [`AccessScratch`], and candidacy lives in a
//! [`SpatialSet`] — a dense bitmap indexed by `ItemId` (with a hash-set
//! spillover for pathologically large ids) instead of a hash set per se.
//! Both structures grow to their high-water mark once and are then reused
//! for the rest of the simulation.

use crate::stats::SimStats;
use gc_policies::GcPolicy;
use gc_types::{AccessKind, AccessScratch, CompiledTrace, FxHashSet, ItemId, Trace};

/// Ids below this bound live in the dense bitmap (`2^26` bits = 8 MiB at
/// the very worst); anything larger spills into a hash set so sparse
/// explicit block maps with huge ids cannot exhaust memory.
const DENSE_LIMIT: u64 = 1 << 26;

/// A set of [`ItemId`]s tuned for the simulator's spatial-candidate
/// tracking: a grow-on-demand bitmap for small ids (the overwhelmingly
/// common case — trace generators and block maps produce dense ids) plus
/// an [`FxHashSet`] overflow for ids at or above 2²⁶.
///
/// Compared to a hash set, membership updates are a shift and a mask with
/// no hashing and no probing, and the bitmap never reallocates once it has
/// covered the largest id seen.
#[derive(Clone, Debug, Default)]
pub struct SpatialSet {
    words: Vec<u64>,
    overflow: FxHashSet<ItemId>,
}

impl SpatialSet {
    /// An empty set.
    pub fn new() -> Self {
        SpatialSet::default()
    }

    /// Add `item` to the set.
    #[inline]
    pub fn insert(&mut self, item: ItemId) {
        let id = item.0;
        if id < DENSE_LIMIT {
            let word = (id / 64) as usize;
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= 1 << (id % 64);
        } else {
            self.overflow.insert(item);
        }
    }

    /// Remove `item`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, item: ItemId) -> bool {
        let id = item.0;
        if id < DENSE_LIMIT {
            let word = (id / 64) as usize;
            if word >= self.words.len() {
                return false;
            }
            let mask = 1u64 << (id % 64);
            let present = self.words[word] & mask != 0;
            self.words[word] &= !mask;
            present
        } else {
            self.overflow.remove(&item)
        }
    }

    /// Whether `item` is in the set.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        let id = item.0;
        if id < DENSE_LIMIT {
            let word = (id / 64) as usize;
            word < self.words.len() && self.words[word] & (1 << (id % 64)) != 0
        } else {
            self.overflow.contains(&item)
        }
    }

    /// The §2 attribution step of a miss on `item` whose policy report is
    /// `scratch`: every co-loaded item becomes a candidate, the requested
    /// item is resident on its own merits, and evicted items stop being
    /// candidates. A later hit asks [`remove`](Self::remove) whether it was
    /// spatial.
    // Always inlined: the engine loop and the shard's critical section
    // keep their miss step free of a call, as when it was written out.
    #[inline(always)]
    pub fn record_miss(&mut self, item: ItemId, scratch: &AccessScratch) {
        debug_assert!(
            scratch.loaded.contains(&item),
            "a miss must load the request"
        );
        for &z in &scratch.loaded {
            if z != item {
                self.insert(z);
            }
        }
        self.remove(item);
        for &z in &scratch.evicted {
            self.remove(z);
        }
    }

    /// Empty the set, keeping the bitmap's allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.overflow.clear();
    }
}

/// Run `policy` over the whole `trace`, returning aggregate statistics.
///
/// ```
/// use gc_policies::BlockLru;
/// use gc_types::{BlockMap, Trace};
///
/// let mut cache = BlockLru::new(16, BlockMap::strided(4));
/// let stats = gc_sim::simulate(&mut cache, &Trace::from_ids([0, 1, 2, 1]));
/// assert_eq!(stats.misses, 1);
/// assert_eq!(stats.spatial_hits, 2); // first touches of co-loaded 1 and 2
/// assert_eq!(stats.temporal_hits, 1); // the revisit of 1
/// ```
pub fn simulate<P: GcPolicy + ?Sized>(policy: &mut P, trace: &Trace) -> SimStats {
    simulate_with_warmup(policy, trace, 0)
}

/// Run `policy` over `trace`, excluding the first `warmup` requests from
/// the statistics (they still update the cache).
///
/// Use this with the adversarial generators, whose
/// [`warmup_len`](gc_trace::AdversaryReport::warmup_len) prefix fills the
/// cache before the measured rounds begin.
pub fn simulate_with_warmup<P: GcPolicy + ?Sized>(
    policy: &mut P,
    trace: &Trace,
    warmup: usize,
) -> SimStats {
    run_loop(policy, trace.iter(), warmup)
}

/// Run `policy` over a [`CompiledTrace`], returning statistics identical
/// to [`simulate`] on the source trace when the policy was built against
/// [`CompiledTrace::map`].
///
/// The loop streams the flat dense-ID access array: every id is small, so
/// the spatial-candidate set stays in its bitmap fast path, and the policy
/// (built against the dense map) resolves membership with `Vec` indexing
/// instead of hash probes.
pub fn simulate_compiled<P: GcPolicy + ?Sized>(
    policy: &mut P,
    compiled: &CompiledTrace,
) -> SimStats {
    simulate_compiled_with_warmup(policy, compiled, 0)
}

/// [`simulate_compiled`] excluding the first `warmup` requests from the
/// statistics (they still update the cache).
pub fn simulate_compiled_with_warmup<P: GcPolicy + ?Sized>(
    policy: &mut P,
    compiled: &CompiledTrace,
    warmup: usize,
) -> SimStats {
    run_loop(policy, compiled.iter_items(), warmup)
}

// The shared simulation loop; `items` is either the sparse request stream
// or the compiled dense one. Per-access work must stay allocation- and
// hash-free on the compiled path.
// lint: hot-path
fn run_loop<P: GcPolicy + ?Sized>(
    policy: &mut P,
    items: impl Iterator<Item = ItemId>,
    warmup: usize,
) -> SimStats {
    let mut stats = SimStats::default();
    let mut scratch = AccessScratch::new();
    // Items resident only by virtue of a co-load, not yet re-requested.
    let mut spatial_candidates = SpatialSet::new();

    for (idx, item) in items.enumerate() {
        let counted = idx >= warmup;
        match policy.access_into(item, &mut scratch) {
            AccessKind::Hit => {
                let spatial = spatial_candidates.remove(item);
                if counted {
                    stats.accesses += 1;
                    if spatial {
                        stats.spatial_hits += 1;
                    } else {
                        stats.temporal_hits += 1;
                    }
                }
            }
            AccessKind::Miss => {
                spatial_candidates.record_miss(item, &scratch);
                if counted {
                    stats.accesses += 1;
                    stats.misses += 1;
                    stats.items_loaded += scratch.loaded.len() as u64;
                    stats.items_evicted += scratch.evicted.len() as u64;
                }
            }
        }
        stats.peak_len = stats.peak_len.max(policy.len());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_policies::{BlockLru, Iblp, ItemLru};
    use gc_types::BlockMap;

    #[test]
    fn item_lru_on_repeat_trace() {
        // LRU of capacity 2 over [1, 2, 1, 2, 3, 1]:
        //   1 miss, 2 miss, 1 hit, 2 hit   (cache {1, 2}, MRU 2)
        //   3 miss evicting 1, 1 miss evicting 2.
        let trace = Trace::from_ids([1, 2, 1, 2, 3, 1]);
        let mut lru = ItemLru::new(2);
        let s = simulate(&mut lru, &trace);
        assert_eq!(s.accesses, 6);
        assert_eq!(s.misses, 4);
        assert_eq!(s.temporal_hits, 2, "the revisits of 1 and 2");
        assert_eq!(s.spatial_hits, 0, "item caches never co-load");
        assert_eq!(s.items_loaded, s.misses);
    }

    #[test]
    fn spatial_attribution_block_cache() {
        // B=4 streaming: each block's first access misses, the next three
        // hit spatially — and a revisit within the block is temporal.
        let map = BlockMap::strided(4);
        let mut c = BlockLru::new(8, map);
        let trace = Trace::from_ids([0, 1, 2, 1, 3]);
        let s = simulate(&mut c, &trace);
        assert_eq!(s.misses, 1);
        assert_eq!(s.spatial_hits, 3, "first touches of 1, 2, 3");
        assert_eq!(s.temporal_hits, 1, "revisit of 1");
    }

    #[test]
    fn candidate_cleared_on_eviction() {
        // Co-loaded item evicted before ever being touched, then reloaded
        // and touched: still a spatial hit (it was co-loaded again).
        let map = BlockMap::strided(2);
        let mut c = BlockLru::new(2, map); // 1 block slot
        let trace = Trace::from_ids([0, 2, 0, 1]);
        // 0 loads block0 {0,1}; 2 loads block1 evicting block0 (candidate 1
        // cleared); 0 reloads block0 (1 candidate again); 1 hits spatially.
        let s = simulate(&mut c, &trace);
        assert_eq!(s.misses, 3);
        assert_eq!(s.spatial_hits, 1);
    }

    #[test]
    fn warmup_excluded_from_counts() {
        let trace = Trace::from_ids([1, 2, 3, 1, 2, 3]);
        let mut lru = ItemLru::new(4);
        let s = simulate_with_warmup(&mut lru, &trace, 3);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 0, "warm cache hits everything after warmup");
        assert_eq!(s.temporal_hits, 3);
    }

    #[test]
    fn iblp_spatial_and_temporal_mix() {
        let map = BlockMap::strided(4);
        let mut c = Iblp::new(4, 8, map);
        // Block 0 streams (spatial), then item 0 re-hits (temporal).
        let trace = Trace::from_ids([0, 1, 2, 3, 0, 0]);
        let s = simulate(&mut c, &trace);
        assert_eq!(s.misses, 1);
        assert_eq!(s.spatial_hits, 3);
        assert_eq!(s.temporal_hits, 2);
        assert!(s.peak_len > 0);
    }

    #[test]
    fn fault_rate_matches_eviction_free_run() {
        let trace = Trace::from_ids(0..100u64);
        let mut lru = ItemLru::new(128);
        let s = simulate(&mut lru, &trace);
        assert_eq!(s.misses, 100);
        assert!((s.fault_rate() - 1.0).abs() < 1e-12);
        assert_eq!(s.items_evicted, 0);
        assert_eq!(s.peak_len, 100);
    }

    #[test]
    fn compiled_simulation_matches_sparse_bit_for_bit() {
        let map = BlockMap::strided(4);
        let mut x = 77u64;
        let trace = Trace::from_ids((0..3000).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) % 5000
        }));
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        let mut sparse = Iblp::new(8, 16, map);
        let mut dense = Iblp::new(8, 16, ct.map().clone());
        assert_eq!(
            simulate_with_warmup(&mut sparse, &trace, 100),
            simulate_compiled_with_warmup(&mut dense, &ct, 100)
        );
    }

    #[test]
    fn boxed_policies_work() {
        let map = BlockMap::strided(4);
        let mut boxed: Box<dyn GcPolicy> = Box::new(BlockLru::new(8, map));
        let s = simulate(&mut boxed, &Trace::from_ids([0, 1, 4, 5]));
        assert_eq!(s.misses, 2);
        assert_eq!(s.spatial_hits, 2);
    }

    #[test]
    fn spatial_set_dense_and_overflow() {
        let mut s = SpatialSet::new();
        let small = ItemId(1000);
        let edge = ItemId(DENSE_LIMIT - 1);
        let huge = ItemId(u64::MAX - 3);
        for id in [small, edge, huge] {
            assert!(!s.contains(id));
            s.insert(id);
            assert!(s.contains(id));
        }
        assert!(s.remove(huge));
        assert!(!s.remove(huge), "double remove reports absence");
        assert!(s.remove(edge));
        assert!(!s.contains(edge));
        assert!(s.contains(small));
        s.clear();
        assert!(!s.contains(small));
    }

    #[test]
    fn spatial_set_remove_beyond_bitmap_is_false() {
        let mut s = SpatialSet::new();
        s.insert(ItemId(3));
        // An id whose word the bitmap never grew to must report absent
        // without growing the bitmap.
        assert!(!s.remove(ItemId(1_000_000)));
        assert!(s.contains(ItemId(3)));
    }
}
