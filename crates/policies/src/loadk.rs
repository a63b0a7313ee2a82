//! The `a`-parameter policy family of Theorem 4.
//!
//! §4.3 classifies deterministic policies by the number `a` of distinct
//! accesses a block must receive before the policy loads *all* of it, and
//! §4.4 concludes the ratio is minimized at the extremes: load a single
//! item (`a = B`, an item cache) or the whole block immediately (`a = 1`),
//! "and nothing in between". [`ThresholdLoad`] realizes the whole family so
//! the claim — and the Theorem 4 lower bound — can be checked empirically.
//!
//! Eviction is item-granular LRU regardless of `a` (§4.4's second
//! recommendation: evict items individually, preferring never-accessed
//! ones is explored by [`Gcm`](crate::Gcm); here plain LRU keeps the
//! family pure).

use crate::lru_list::LruList;
use crate::slab::Universe;
use crate::GcPolicy;
use gc_types::{AccessKind, AccessScratch, BlockId, BlockMap, FxHashMap, FxHashSet, ItemId};

/// Per-block distinct-access tracking, sparse (hash maps) or dense
/// (epoch-stamped arrays: an item counts toward its block's pending set
/// iff its stamp equals the block's current epoch; a full load bumps the
/// block epoch, invalidating all stamps at once).
#[derive(Clone, Debug)]
enum Pending {
    Sparse(FxHashMap<BlockId, FxHashSet<ItemId>>),
    Dense {
        /// Current epoch of each block, never 0.
        block_epoch: Vec<u32>,
        count: Vec<u32>,
        /// Epoch at which each item last counted toward its block; 0 is
        /// no epoch.
        item_epoch: Vec<u32>,
    },
}

/// The epoch every dense block starts in.
const EPOCH_FIRST: u32 = 1;

impl Pending {
    fn new(universe: &Universe) -> Self {
        match (universe.n_items(), universe.n_blocks()) {
            (Some(n_items), Some(n_blocks)) => Pending::Dense {
                block_epoch: vec![EPOCH_FIRST; n_blocks],
                count: vec![0; n_blocks],
                item_epoch: vec![0; n_items],
            },
            _ => Pending::Sparse(FxHashMap::default()),
        }
    }

    /// Record a distinct access of `item` within `block`; returns the
    /// block's distinct-access count afterwards.
    fn note(&mut self, block: BlockId, item: ItemId) -> usize {
        match self {
            Pending::Sparse(map) => {
                let set = map.entry(block).or_default();
                set.insert(item);
                set.len()
            }
            Pending::Dense {
                block_epoch,
                count,
                item_epoch,
            } => {
                let b = block.0 as usize;
                let i = item.0 as usize;
                if item_epoch[i] != block_epoch[b] {
                    item_epoch[i] = block_epoch[b];
                    count[b] += 1;
                }
                count[b] as usize
            }
        }
    }

    /// The block was fully loaded: restart its distinct-access count.
    fn complete(&mut self, block: BlockId, map: &BlockMap) {
        match self {
            Pending::Sparse(blocks) => {
                blocks.remove(&block);
            }
            Pending::Dense {
                block_epoch,
                count,
                item_epoch,
            } => {
                let b = block.0 as usize;
                block_epoch[b] = match block_epoch[b].checked_add(1) {
                    Some(epoch) => epoch,
                    None => {
                        // The block's epochs wrapped: zero its items'
                        // stamps so none can alias a reused epoch.
                        for z in map.items_of(block) {
                            item_epoch[z.0 as usize] = 0;
                        }
                        EPOCH_FIRST
                    }
                };
                count[b] = 0;
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Pending::Sparse(map) => map.clear(),
            Pending::Dense {
                block_epoch,
                count,
                item_epoch,
            } => {
                block_epoch.fill(EPOCH_FIRST);
                count.fill(0);
                item_epoch.fill(0);
            }
        }
    }

    /// Put every dense block at `epoch`, with odd items last counted in
    /// the first epoch and even items never counted: a state a long run
    /// can leave, from which a test reaches the wrap in a few full loads.
    #[cfg(test)]
    fn start_at(&mut self, epoch: u32) {
        if let Pending::Dense {
            block_epoch,
            item_epoch,
            ..
        } = self
        {
            block_epoch.fill(epoch);
            for (i, stamp) in item_epoch.iter_mut().enumerate() {
                *stamp = if i % 2 == 1 { EPOCH_FIRST } else { 0 };
            }
        }
    }
}

/// Loads the full block once `a` distinct items of it have been requested
/// (cumulatively since the block was last fully loaded); below the
/// threshold it loads only the requested item. Evicts item-granular LRU.
///
/// * `a = 1` — the "load whole block, evict items" policy §4.4 recommends
///   for large caches.
/// * `a = B` — behaves like an item cache until a block's every item has
///   been requested.
#[derive(Clone, Debug)]
pub struct ThresholdLoad {
    capacity: usize,
    threshold: usize,
    map: BlockMap,
    items: LruList,
    /// Distinct items of each block requested since its last full load.
    pending: Pending,
}

impl ThresholdLoad {
    /// A threshold-`a` cache of `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity < B`, `a == 0`, or `a > B`.
    pub fn new(capacity: usize, threshold: usize, map: BlockMap) -> Self {
        let b = map.max_block_size();
        assert!(capacity >= b, "capacity {capacity} below block size {b}");
        assert!(
            (1..=b).contains(&threshold),
            "threshold a={threshold} outside [1, B={b}]"
        );
        let universe = Universe::of(&map);
        ThresholdLoad {
            capacity,
            threshold,
            map,
            items: LruList::with_index(capacity, universe.item_index()),
            pending: Pending::new(&universe),
        }
    }

    /// The policy's `a` parameter.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn evict_overflow(&mut self, evicted: &mut Vec<ItemId>) {
        while self.items.len() > self.capacity {
            let victim = ItemId(self.items.evict_lru().expect("nonempty"));
            evicted.push(victim);
        }
    }
}

impl GcPolicy for ThresholdLoad {
    fn name(&self) -> String {
        format!(
            "ThresholdLoad(k={},a={},B={})",
            self.capacity,
            self.threshold,
            self.map.max_block_size()
        )
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.items.contains(item.0)
    }

    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if !self.items.touch(item.0) {
            return AccessKind::Hit;
        }
        // `touch` inserted the item; decide whether this miss crosses the
        // block's distinct-access threshold.
        let block = self.map.block_of(item);
        let full_load = self.pending.note(block, item) >= self.threshold;

        out.clear();
        out.loaded.push(item);
        if full_load {
            self.pending.complete(block, &self.map);
            for z in self.map.items_of(block) {
                if z != item && self.items.touch(z.0) {
                    out.loaded.push(z);
                }
            }
        }
        self.evict_overflow(&mut out.evicted);
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.items.clear();
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4() -> BlockMap {
        BlockMap::strided(4)
    }

    #[test]
    fn a1_loads_whole_block_immediately() {
        let mut c = ThresholdLoad::new(8, 1, map4());
        let r = c.access(ItemId(0));
        assert_eq!(r.loaded().len(), 4);
        assert!(c.access(ItemId(3)).is_hit());
    }

    #[test]
    fn a2_loads_block_on_second_distinct_miss() {
        let mut c = ThresholdLoad::new(8, 2, map4());
        let r = c.access(ItemId(0));
        assert_eq!(r.loaded(), &[ItemId(0)], "first distinct access: item only");
        assert!(!c.contains(ItemId(1)));
        let r = c.access(ItemId(1));
        assert_eq!(r.loaded().len(), 3, "second distinct access: rest of block");
        assert!(c.contains(ItemId(2)) && c.contains(ItemId(3)));
    }

    #[test]
    fn a_equals_b_behaves_like_item_cache_until_saturation() {
        let mut c = ThresholdLoad::new(8, 4, map4());
        assert_eq!(c.access(ItemId(0)).loaded().len(), 1);
        assert_eq!(c.access(ItemId(1)).loaded().len(), 1);
        assert_eq!(c.access(ItemId(2)).loaded().len(), 1);
        // Fourth distinct item completes the block: full load is a no-op
        // beyond the request itself (everything already resident).
        assert_eq!(c.access(ItemId(3)).loaded().len(), 1);
    }

    #[test]
    fn repeated_misses_on_same_item_do_not_advance_threshold() {
        let mut c = ThresholdLoad::new(4, 2, map4());
        c.access(ItemId(0));
        // Push item 0 out with another block's items.
        c.access(ItemId(4));
        c.access(ItemId(5)); // block 1 crosses threshold, loads 4..8 (4 items)
        assert!(!c.contains(ItemId(0)));
        // Second miss on item 0: its pending set still {0}, so the
        // *distinct* count stays 1 — still a single-item load.
        let r = c.access(ItemId(0));
        assert_eq!(r.loaded(), &[ItemId(0)]);
    }

    #[test]
    fn eviction_is_item_granular_lru() {
        let mut c = ThresholdLoad::new(4, 1, map4());
        c.access(ItemId(0)); // block 0 fills the cache
        let r = c.access(ItemId(4)); // block 1 loads 4 items, evicts all of block 0
        assert_eq!(r.evicted().len(), 4);
        // LRU order within the load: items were touched 0,1,2,3 so all left.
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn threshold_validated() {
        assert!(std::panic::catch_unwind(|| ThresholdLoad::new(8, 0, map4())).is_err());
        assert!(std::panic::catch_unwind(|| ThresholdLoad::new(8, 5, map4())).is_err());
        assert!(std::panic::catch_unwind(|| ThresholdLoad::new(2, 1, map4())).is_err());
    }

    #[test]
    fn capacity_respected_under_full_loads() {
        let mut c = ThresholdLoad::new(6, 1, map4());
        let mut x = 5u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access(ItemId(x % 100));
            assert!(c.len() <= 6);
        }
    }

    #[test]
    fn dense_block_epochs_survive_their_wrap() {
        // One block of 8 items and a = 2. Blocks start one epoch below
        // the last, so the second full load wraps the block's epoch.
        let map = BlockMap::strided(8);
        let ct = gc_types::CompiledTrace::compile(&gc_types::Trace::from_ids(0..8), &map).unwrap();
        let mut wrapped = ThresholdLoad::new(8, 2, ct.map().clone());
        wrapped.pending.start_at(u32::MAX - 1);
        let mut sparse = ThresholdLoad::new(8, 2, map);
        // Two full loads through items 0 and 1 wrap the epoch; then items
        // 2 (never counted) and 3 (counted in the first epoch) must count
        // as two distinct accesses. An epoch that wrapped to 0 would alias
        // item 2's stamp, and one restarted without zeroing the block's
        // stamps would alias item 3's.
        let requests = [0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 7, 2, 0, 3];
        for (step, &z) in requests.iter().enumerate() {
            let got = wrapped.access(ItemId(z));
            assert_eq!(got, sparse.access(ItemId(z)), "step {step}, item {z}");
            if step == 5 {
                assert_eq!(got.loaded().len(), 8, "items 2 and 3 load the block");
            }
            // Empty the cache so every request is a miss that counts.
            wrapped.items.clear();
            sparse.items.clear();
        }
        let Pending::Dense { block_epoch, .. } = &wrapped.pending else {
            panic!("a compiled map builds dense pending state");
        };
        assert!(block_epoch[0] < u32::MAX - 1, "the epoch wrapped");
    }

    #[test]
    fn reset_clears_pending() {
        let mut c = ThresholdLoad::new(8, 2, map4());
        c.access(ItemId(0));
        c.reset();
        // After reset the block needs two distinct accesses again.
        let r = c.access(ItemId(1));
        assert_eq!(r.loaded(), &[ItemId(1)]);
    }
}
