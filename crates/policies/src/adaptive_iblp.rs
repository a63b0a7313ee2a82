//! Adaptive IBLP — online tuning of the item/block split.
//!
//! §5.3 shows the optimal IBLP partition depends on the offline comparison
//! size `h`, which a deployed cache cannot know. This extension (in the
//! spirit of ARC's adaptation) learns the split from the workload instead:
//! two *ghost lists* record recently evicted item-layer items and recently
//! evicted block-layer blocks. A miss that would have been a hit with a
//! larger item layer (ghost item hit) votes to grow `i`; a miss that a
//! larger block layer would have caught votes to grow `b`. At the end of
//! each epoch the boundary moves one block-width toward the winner.
//!
//! Evaluated by the tests below and `tests/extensions.rs`: on
//! phase-changing workloads the adaptive split tracks the better static
//! split without knowing it in advance.

use crate::iblp::Iblp;
use crate::lru_list::LruList;
use crate::slab::Universe;
use crate::GcPolicy;
use gc_types::{AccessKind, AccessScratch, BlockMap, ItemId};

/// IBLP with epoch-based ghost-list adaptation of the layer split: a
/// paper-configured [`Iblp`] core, plus the ghost lists and votes.
#[derive(Clone, Debug)]
pub struct AdaptiveIblp {
    core: Iblp,
    /// Where `reset` returns the boundary — the construction-time split,
    /// so a seeded policy re-seeds rather than snapping back to even.
    initial_item_size: usize,
    /// Recently evicted item-layer items (ids only).
    item_ghost: LruList,
    /// Recently evicted block-layer blocks (ids only).
    block_ghost: LruList,
    epoch_len: u64,
    accesses_this_epoch: u64,
    grow_item_votes: u64,
    grow_block_votes: u64,
    /// Evictions caused by an epoch boundary that landed on a hit; they are
    /// reported with the next miss so `AccessResult::Hit` stays payload-free.
    pending: Vec<ItemId>,
}

impl AdaptiveIblp {
    /// An adaptive IBLP of `capacity` lines, starting from an even split.
    pub fn new(capacity: usize, map: BlockMap) -> Self {
        Self::with_split(capacity, capacity / 2, map)
    }

    /// An adaptive IBLP seeded at a specific split instead of the even
    /// default — e.g. the best split of an offline MRC grid
    /// ([`mrc_bundle`]), so adaptation starts from the profiled optimum
    /// and only has to track drift, not find the split from scratch.
    /// `reset` returns to this seed.
    ///
    /// [`mrc_bundle`]: ../gc_sim/mrc/fn.mrc_bundle.html
    ///
    /// # Panics
    ///
    /// Panics unless each layer gets at least one block of room:
    /// `B ≤ item_lines ≤ capacity − B`.
    pub fn with_split(capacity: usize, item_lines: usize, map: BlockMap) -> Self {
        let b = map.max_block_size();
        assert!(
            capacity >= 2 * b,
            "need at least one block of room per layer (capacity {capacity}, B {b})"
        );
        assert!(
            (b..=capacity - b).contains(&item_lines),
            "seed split i={item_lines} leaves a layer below one block (capacity {capacity}, B {b})"
        );
        let universe = Universe::of(&map);
        // Both layers are built at `capacity` lines, so either has room to
        // grow into without reallocating, then cut to the seed split.
        let mut core = Iblp::new(capacity, capacity, map);
        core.set_split(item_lines, capacity - item_lines);
        AdaptiveIblp {
            core,
            initial_item_size: item_lines,
            epoch_len: (4 * capacity as u64).max(64),
            item_ghost: LruList::with_index(capacity, universe.item_index()),
            block_ghost: LruList::with_index(capacity, universe.block_index()),
            accesses_this_epoch: 0,
            grow_item_votes: 0,
            grow_block_votes: 0,
            pending: Vec::new(),
        }
    }

    /// Current item-layer size (lines).
    pub fn item_layer_size(&self) -> usize {
        self.core.item_layer_size()
    }

    /// Current block-layer size (lines).
    pub fn block_layer_size(&self) -> usize {
        self.core.block_layer_size()
    }

    /// Record an item-layer victim, if any, in the item ghost (which holds
    /// `capacity` ids), and in `evicted` if it left the cache.
    fn ghost_item(&mut self, victim: Option<(ItemId, bool)>, evicted: &mut Vec<ItemId>) {
        let Some((victim, left)) = victim else { return };
        self.item_ghost.touch(victim.0);
        if left {
            evicted.push(victim);
        }
        if self.item_ghost.len() > self.core.capacity() {
            self.item_ghost.evict_lru();
        }
    }

    fn maybe_adapt(&mut self, evicted: &mut Vec<ItemId>) {
        self.accesses_this_epoch += 1;
        if self.accesses_this_epoch < self.epoch_len {
            return;
        }
        let b = self.core.map().max_block_size();
        let (i, k) = (self.core.item_layer_size(), self.core.capacity());
        if self.grow_item_votes > self.grow_block_votes && i + b <= k - b {
            self.core.set_split(i + b, k - i - b);
        } else if self.grow_block_votes > self.grow_item_votes && i >= 2 * b {
            self.core.set_split(i - b, k - i + b);
        }
        self.accesses_this_epoch = 0;
        self.grow_item_votes = 0;
        self.grow_block_votes = 0;
        // Shrink both layers into their new budgets, recording overall
        // evictions.
        while let Some(victim) = self.core.evict_item_overflow() {
            self.ghost_item(Some(victim), evicted);
        }
        while let Some(victim) = self.core.evict_block_overflow(evicted) {
            self.block_ghost.touch(victim.0);
        }
        while self.block_ghost.len() > self.core.capacity() {
            self.block_ghost.evict_lru();
        }
    }
}

impl GcPolicy for AdaptiveIblp {
    fn name(&self) -> String {
        format!(
            "AdaptiveIBLP(k={},i={},B={})",
            self.core.capacity(),
            self.core.item_layer_size(),
            self.core.map().max_block_size()
        )
    }

    fn capacity(&self) -> usize {
        self.core.capacity()
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.core.contains(item)
    }

    // lint: hot-path
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        // Epoch-boundary evictions accumulate in the policy-owned `pending`
        // buffer (taken and restored, so its allocation is reused) and are
        // folded into the next miss's report, as are the evictions of a
        // promotion on a hit (the access itself is still a hit).
        let mut pending = std::mem::take(&mut self.pending);
        self.maybe_adapt(&mut pending);
        let block = match self.core.hit(item) {
            Ok(victim) => {
                self.ghost_item(victim, &mut pending);
                self.pending = pending;
                return AccessKind::Hit;
            }
            Err(block) => block,
        };

        // Overall miss: ghost votes first.
        if self.item_ghost.remove(item.0) {
            self.grow_item_votes += 1;
        }
        if self.block_ghost.remove(block.0) {
            self.grow_block_votes += 1;
        }

        out.clear();
        self.core.load_block(block, &mut out.loaded);
        let had_pending = !pending.is_empty();
        out.evicted.append(&mut pending);
        self.pending = pending;
        // The block ghost is trimmed only at epoch boundaries.
        if let Some(victim) = self.core.evict_block_overflow(&mut out.evicted) {
            self.block_ghost.touch(victim.0);
        }
        let victim = self.core.promote(item);
        self.ghost_item(victim, &mut out.evicted);
        // Epoch-boundary evictions may have been undone by this access
        // reloading the same block; report only what is really gone, once.
        // This access's own evictions are distinct and non-resident: the
        // block victim is never `block` and reports only items outside the
        // item layer, and an item-layer victim is reported only when its
        // block is not cached. With nothing pending there is nothing to
        // clean.
        let this: &Self = self;
        if had_pending {
            out.evicted.sort_unstable();
            out.evicted.dedup();
            out.evicted.retain(|e| !this.contains(*e));
        }
        debug_assert!(out.evicted.iter().all(|e| !this.contains(*e)));
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.core.reset();
        let i = self.initial_item_size;
        self.core.set_split(i, self.core.capacity() - i);
        self.item_ghost.clear();
        self.block_ghost.clear();
        self.accesses_this_epoch = 0;
        self.grow_item_votes = 0;
        self.grow_block_votes = 0;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::Trace;

    fn misses(policy: &mut dyn GcPolicy, trace: &Trace) -> u64 {
        trace.iter().filter(|&i| policy.access(i).is_miss()).count() as u64
    }

    #[test]
    fn adapts_toward_block_layer_on_block_loops() {
        let map = BlockMap::strided(8);
        let mut c = AdaptiveIblp::new(64, map);
        let start = c.item_layer_size();
        // Cyclic whole-block loop over 20 blocks (160 items): item reuse
        // distance (160) exceeds the item layer + ghost reach (≤ 96), so
        // only the block ghost (reuse distance 20 blocks) fires.
        let mut trace = Trace::new();
        for round in 0..250u64 {
            let blk = round % 20;
            for off in 0..8u64 {
                trace.push(ItemId(blk * 8 + off));
            }
        }
        let _ = misses(&mut c, &trace);
        assert!(
            c.item_layer_size() < start,
            "split did not move toward blocks: {} -> {}",
            start,
            c.item_layer_size()
        );
    }

    #[test]
    fn adapts_toward_item_layer_on_sparse_reuse() {
        let map = BlockMap::strided(8);
        let mut c = AdaptiveIblp::new(64, map);
        let start = c.item_layer_size();
        // Loop over 80 sparse items, one per block: the item ghost's reach
        // (item layer + ghost ≈ 96) covers the loop, but the block ghost
        // (64 entries < 80 blocks) never fires.
        let loop_items: Vec<u64> = (0..80u64).map(|i| i * 8).collect();
        let trace = Trace::from_ids(loop_items.iter().cycle().copied().take(40_000));
        let _ = misses(&mut c, &trace);
        assert!(
            c.item_layer_size() > start,
            "split did not move toward items: {} -> {}",
            start,
            c.item_layer_size()
        );
    }

    #[test]
    fn tracks_better_static_split_on_phased_workload() {
        use crate::iblp::Iblp;
        let map = BlockMap::strided(8);
        // Phase 1: sparse hot loop (item-friendly). Phase 2: streams
        // (block-friendly). An even static split is mediocre at both.
        let mut trace = Trace::new();
        let loop_items: Vec<u64> = (0..40u64).map(|i| i * 8).collect();
        for item in loop_items.iter().cycle().take(30_000) {
            trace.push(ItemId(*item));
        }
        for id in 1_000_000..1_030_000u64 {
            trace.push(ItemId(id));
        }
        let mut adaptive = AdaptiveIblp::new(64, map.clone());
        let mut static_even = Iblp::balanced(64, map);
        let m_adaptive = misses(&mut adaptive, &trace);
        let m_static = misses(&mut static_even, &trace);
        assert!(
            m_adaptive <= m_static + m_static / 10,
            "adaptive {m_adaptive} much worse than static {m_static}"
        );
    }

    #[test]
    fn invariants_under_adaptation() {
        let map = BlockMap::strided(4);
        let mut c = AdaptiveIblp::new(32, map);
        let mut x = 21u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = ItemId(x % 96);
            let pre = c.contains(item);
            let r = c.access(item);
            assert_eq!(pre, r.is_hit());
            assert!(c.contains(item));
            assert!(c.len() <= c.capacity());
            for e in r.evicted() {
                assert!(!c.contains(*e), "zombie {e}");
            }
        }
    }

    #[test]
    fn reset_restores_even_split() {
        let map = BlockMap::strided(8);
        let mut c = AdaptiveIblp::new(64, map);
        let _ = misses(&mut c, &Trace::from_ids(0..20_000u64));
        c.reset();
        assert_eq!(c.item_layer_size(), 32);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn with_split_seeds_and_reset_returns_to_seed() {
        let map = BlockMap::strided(8);
        let mut c = AdaptiveIblp::with_split(64, 48, map);
        assert_eq!(c.item_layer_size(), 48);
        assert_eq!(c.block_layer_size(), 16);
        // Drive a block-friendly workload so the split moves, then reset.
        let mut trace = Trace::new();
        for round in 0..250u64 {
            for off in 0..8u64 {
                trace.push(ItemId((round % 20) * 8 + off));
            }
        }
        let _ = misses(&mut c, &trace);
        c.reset();
        assert_eq!(c.item_layer_size(), 48, "reset must restore the seed");
    }

    #[test]
    #[should_panic(expected = "seed split")]
    fn with_split_rejects_layer_below_one_block() {
        let _ = AdaptiveIblp::with_split(64, 60, BlockMap::strided(8));
    }
}
