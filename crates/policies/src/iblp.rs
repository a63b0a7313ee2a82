//! Item-Block Layered Partitioning (IBLP) — the paper's policy (§5).
//!
//! IBLP splits its `k = i + b` lines into two layers (Figure 4):
//!
//! * an **item layer** of `i` lines: an item-granular LRU that serves every
//!   access and loads only requested items (temporal locality);
//! * a **block layer** of `b` lines: a block-granular LRU that serves only
//!   accesses that *miss* in the item layer, loading and evicting whole
//!   blocks (spatial locality).
//!
//! Three design choices from §5.1 are honored here:
//!
//! 1. **Ordering** — item-layer hits do *not* touch the block layer's LRU
//!    list, so a block with one hot item cannot pin itself in the block
//!    layer and pollute it.
//! 2. **Promotion** — every access loads the requested item into the item
//!    layer, so temporal reuse is served there and stops perturbing the
//!    block layer.
//! 3. **Neither inclusive nor exclusive** — an item may occupy a line in
//!    both layers at once; each copy consumes one line of its layer's
//!    budget, exactly like a real partitioned cache.
//!
//! [`IblpConfig`] switches off the first two, one at a time, for the
//! ablation tests below. [`AdaptiveIblp`](crate::AdaptiveIblp) drives the
//! layer steps here and only moves the split.
//!
//! Theorem 7 bounds IBLP's competitive ratio; `gc-bounds` has the closed
//! forms and the §5.3 optimal split.

use crate::lru_list::LruList;
use crate::slab::Universe;
use crate::GcPolicy;
use gc_types::{AccessKind, AccessScratch, BlockId, BlockMap, ItemId};

/// Switches for the first two §5.1 design choices of [`Iblp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IblpConfig {
    /// If `true`, an item-layer hit also touches the block's LRU entry —
    /// the pollution mistake §5.1 warns against.
    pub touch_block_on_item_hit: bool,
    /// If `false`, block-layer hits do not promote the item into the item
    /// layer (temporal reuse keeps hammering the block layer).
    pub promote_on_block_hit: bool,
}

impl IblpConfig {
    /// The paper's design (what [`Iblp::new`] builds).
    pub fn paper() -> Self {
        IblpConfig {
            touch_block_on_item_hit: false,
            promote_on_block_hit: true,
        }
    }

    /// Ablation 1: item hits refresh block recency.
    pub fn block_touching() -> Self {
        IblpConfig {
            touch_block_on_item_hit: true,
            ..Self::paper()
        }
    }

    /// Ablation 2: no promotion on block-layer hits.
    pub fn no_promotion() -> Self {
        IblpConfig {
            promote_on_block_hit: false,
            ..Self::paper()
        }
    }
}

/// The IBLP policy. See the module docs for semantics.
///
/// ```
/// use gc_policies::{GcPolicy, Iblp};
/// use gc_types::{BlockMap, ItemId};
///
/// let mut cache = Iblp::new(8, 8, BlockMap::strided(4));
/// assert!(cache.access(ItemId(0)).is_miss()); // loads the whole block
/// assert!(cache.access(ItemId(1)).is_hit());  // spatial hit via block layer
/// assert!(cache.access(ItemId(0)).is_hit());  // temporal hit via item layer
/// ```
#[derive(Clone, Debug)]
pub struct Iblp {
    config: IblpConfig,
    item_size: usize,
    block_size_lines: usize,
    block_slots: usize,
    map: BlockMap,
    item_layer: LruList,
    block_layer: LruList,
    /// Lines held by the block layer, maintained incrementally so `len`
    /// is O(1) — the simulator reads it after every access for `peak_len`.
    block_lines: usize,
    /// Items a hit's promotion pushed out of the cache; a hit carries no
    /// report, so they are reported with the next miss.
    pending: Vec<ItemId>,
}

impl Iblp {
    /// Build IBLP with an item layer of `item_size` lines and a block layer
    /// of `block_size_lines` lines (holding `⌊block_size_lines/B⌋` blocks).
    ///
    /// # Panics
    /// Panics if `item_size == 0` or the block layer cannot hold one block.
    pub fn new(item_size: usize, block_size_lines: usize, map: BlockMap) -> Self {
        Self::with_config(item_size, block_size_lines, map, IblpConfig::paper())
    }

    /// [`new`](Self::new) with the §5.1 design choices set by `config`.
    pub fn with_config(
        item_size: usize,
        block_size_lines: usize,
        map: BlockMap,
        config: IblpConfig,
    ) -> Self {
        assert!(item_size > 0, "item layer must hold at least one item");
        let b = map.max_block_size();
        assert!(
            block_size_lines >= b,
            "block layer of {block_size_lines} lines cannot hold a block of {b} items"
        );
        let universe = Universe::of(&map);
        Iblp {
            config,
            item_size,
            block_size_lines,
            block_slots: block_size_lines / b,
            item_layer: LruList::with_index(item_size, universe.item_index()),
            block_layer: LruList::with_index(block_size_lines / b, universe.block_index()),
            map,
            block_lines: 0,
            pending: Vec::new(),
        }
    }

    /// IBLP with an even split: `i = ⌈k/2⌉`, `b = ⌊k/2⌋` — the
    /// configuration analyzed in §7.3 / Table 2.
    pub fn balanced(capacity: usize, map: BlockMap) -> Self {
        let i = capacity.div_ceil(2);
        Self::new(i, capacity - i, map)
    }

    /// Item-layer size `i`.
    pub fn item_layer_size(&self) -> usize {
        self.item_size
    }

    /// Block-layer size `b` in lines.
    pub fn block_layer_size(&self) -> usize {
        self.block_size_lines
    }

    pub(crate) fn map(&self) -> &BlockMap {
        &self.map
    }

    /// Resize the layers to `item_size` and `block_size_lines` lines; the
    /// caller drains a shrunk layer with its `evict_*_overflow` step.
    pub(crate) fn set_split(&mut self, item_size: usize, block_size_lines: usize) {
        self.item_size = item_size;
        self.block_size_lines = block_size_lines;
        self.block_slots = block_size_lines / self.map.max_block_size();
    }

    /// Serve `item` if either layer holds it: `Ok` with the victim of the
    /// hit's promotion, if any, or `Err` with the item's block on a miss.
    /// The §5.1 switches are read here and nowhere else.
    // lint: hot-path
    #[inline]
    pub(crate) fn hit(&mut self, item: ItemId) -> Result<Option<(ItemId, bool)>, BlockId> {
        // Item-layer hit: serve without disturbing the block layer.
        if self.item_layer.contains(item.0) {
            self.item_layer.touch(item.0);
            if self.config.touch_block_on_item_hit {
                let block = self.map.block_of(item);
                if self.block_layer.contains(block.0) {
                    self.block_layer.touch(block.0);
                }
            }
            return Ok(None);
        }
        // Block-layer hit: refresh the block's recency, promote the item.
        let block = self.map.block_of(item);
        if !self.block_layer.contains(block.0) {
            return Err(block);
        }
        self.block_layer.touch(block.0);
        Ok(if self.config.promote_on_block_hit {
            self.promote(item)
        } else {
            None
        })
    }

    /// Load `block` into the block layer, reporting on `loaded` only the
    /// items the item layer does not already hold.
    // lint: hot-path
    #[inline]
    pub(crate) fn load_block(&mut self, block: BlockId, loaded: &mut Vec<ItemId>) {
        for z in self.map.items_of(block) {
            if !self.item_layer.contains(z.0) {
                loaded.push(z);
            }
        }
        self.block_layer.touch(block.0);
        self.block_lines += self.map.block_len(block);
    }

    /// Evict and return the block layer's LRU block if the layer is over
    /// budget, reporting on `evicted` only its items the item layer lacks.
    // lint: hot-path
    #[inline]
    pub(crate) fn evict_block_overflow(&mut self, evicted: &mut Vec<ItemId>) -> Option<BlockId> {
        if self.block_layer.len() <= self.block_slots {
            return None;
        }
        let victim = BlockId(self.block_layer.evict_lru().expect("nonempty"));
        self.block_lines -= self.map.block_len(victim);
        for z in self.map.items_of(victim) {
            if !self.item_layer.contains(z.0) {
                evicted.push(z);
            }
        }
        Some(victim)
    }

    /// Touch `item` into the item layer, then evict its overflow.
    // lint: hot-path
    #[inline]
    pub(crate) fn promote(&mut self, item: ItemId) -> Option<(ItemId, bool)> {
        self.item_layer.touch(item.0);
        self.evict_item_overflow()
    }

    /// Evict the item layer's LRU item if the layer is over budget, with
    /// whether it left the cache (no copy of its block in the block layer).
    // lint: hot-path
    #[inline]
    pub(crate) fn evict_item_overflow(&mut self) -> Option<(ItemId, bool)> {
        if self.item_layer.len() <= self.item_size {
            return None;
        }
        let victim = ItemId(self.item_layer.evict_lru().expect("nonempty"));
        let covered = self.block_layer.contains(self.map.block_of(victim).0);
        Some((victim, !covered))
    }
}

impl GcPolicy for Iblp {
    fn name(&self) -> String {
        let (i, lines) = (self.item_size, self.block_size_lines);
        let b = self.map.max_block_size();
        let IblpConfig {
            touch_block_on_item_hit: touch,
            promote_on_block_hit: promote,
        } = self.config;
        if self.config == IblpConfig::paper() {
            format!("IBLP(i={i},b={lines},B={b})")
        } else {
            format!("IBLP(i={i},b={lines},B={b},touch={touch},promote={promote})")
        }
    }

    fn capacity(&self) -> usize {
        self.item_size + self.block_size_lines
    }

    /// Lines in use across both layers. An item resident in both layers
    /// occupies two lines, matching the partitioned-cache space model of
    /// §5.1 (the layers are neither inclusive nor exclusive).
    fn len(&self) -> usize {
        self.item_layer.len() + self.block_lines
    }

    fn contains(&self, item: ItemId) -> bool {
        self.item_layer.contains(item.0)
            || self
                .map
                .try_block_of(item)
                .is_some_and(|b| self.block_layer.contains(b.0))
    }

    // lint: hot-path
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        let block = match self.hit(item) {
            Ok(victim) => {
                if let Some((victim, true)) = victim {
                    self.pending.push(victim);
                }
                return AccessKind::Hit;
            }
            Err(block) => block,
        };
        // Overall miss: load the whole block into the block layer.
        out.clear();
        self.load_block(block, &mut out.loaded);
        debug_assert!(out.loaded.contains(&item));
        // Report what the hits since the last miss pushed out, except the
        // items this load brought back: each left the cache when its block
        // was not cached, and no block is loaded between two misses.
        if !self.pending.is_empty() {
            let map = &self.map;
            out.evicted
                .extend(self.pending.drain(..).filter(|&z| map.block_of(z) != block));
        }
        let victim = self.evict_block_overflow(&mut out.evicted);
        debug_assert_ne!(victim, Some(block), "just-loaded block cannot be LRU");
        if let Some((victim, true)) = self.promote(item) {
            out.evicted.push(victim);
        }
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.item_layer.clear();
        self.block_layer.clear();
        self.block_lines = 0;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::Trace;

    fn map4() -> BlockMap {
        BlockMap::strided(4)
    }

    #[test]
    fn spatial_hits_come_from_block_layer() {
        let mut c = Iblp::new(4, 8, map4());
        let r = c.access(ItemId(0));
        assert!(r.is_miss());
        assert_eq!(r.loaded().len(), 4, "whole block loads");
        // Sibling items hit via the block layer.
        assert!(c.access(ItemId(1)).is_hit());
        assert!(c.access(ItemId(3)).is_hit());
    }

    #[test]
    fn temporal_hits_do_not_touch_block_lru() {
        // Block layer holds 2 blocks (b=8, B=4). Access blocks 0 then 1,
        // then hammer item 0 (an item-layer hit after promotion). Block 0
        // must NOT be refreshed in the block layer, so loading block 2
        // evicts block 0, not block 1.
        let mut c = Iblp::new(4, 8, map4());
        c.access(ItemId(0)); // block 0 loads; item 0 promoted
        c.access(ItemId(4)); // block 1 loads
        for _ in 0..5 {
            assert!(c.access(ItemId(0)).is_hit(), "item-layer hit");
        }
        let r = c.access(ItemId(8)); // block 2
        assert!(r.is_miss());
        // Block 0 was LRU in the block layer despite the hot item.
        assert!(!c.block_layer.contains(0));
        assert!(c.block_layer.contains(1));
        // Item 0 survives in the item layer.
        assert!(c.contains(ItemId(0)));
    }

    #[test]
    fn eviction_respects_layer_overlap() {
        // An item evicted from the item layer stays resident if its block
        // is still in the block layer.
        let mut c = Iblp::new(1, 4, map4());
        c.access(ItemId(0)); // block 0 in block layer; item 0 in item layer
        let r = c.access(ItemId(1)); // hit via block layer; promotion evicts 0 from item layer
        assert!(r.is_hit());
        assert!(c.contains(ItemId(0)), "still covered by block layer");
    }

    #[test]
    fn eviction_reported_when_uncovered() {
        // Item promoted long ago whose block has left the block layer is
        // truly evicted when it falls off the item layer.
        let mut c = Iblp::new(2, 4, map4()); // 1 block slot
        c.access(ItemId(0)); // block 0; item layer [0]
        c.access(ItemId(4)); // block 1 replaces block 0; item layer [4,0]
                             // Now item 0 is only in the item layer. Two more promotions push it out.
        let r1 = c.access(ItemId(5)); // hit via block layer; item layer [5,4], 0 evicted
        assert!(r1.is_hit());
        assert!(!c.contains(ItemId(0)), "item 0 fully evicted");
    }

    #[test]
    fn hit_victims_are_reported_by_the_next_miss() {
        // As above, the hit on 5 pushes item 0 out of the cache; the next
        // miss reports it — unless that miss reloads 0's block.
        let evicted = |next: u64| {
            let mut c = Iblp::new(2, 4, map4());
            for id in [0, 4, 5] {
                c.access(ItemId(id));
            }
            let r = c.access(ItemId(next));
            assert!(r.is_miss());
            let mut evicted = r.evicted().to_vec();
            evicted.sort_unstable();
            evicted
        };
        // Block 2 replaces block 1: 6 and 7 go with it, then item 4
        // (uncovered now) falls off the item layer.
        assert_eq!(evicted(8), [0, 4, 6, 7].map(ItemId));
        // Block 0 comes back with item 0 in it: 0 is loaded, not evicted.
        assert_eq!(evicted(1), [4, 6, 7].map(ItemId));
    }

    #[test]
    fn miss_lists_block_evictions() {
        let mut c = Iblp::new(4, 4, map4()); // 1 block slot
        c.access(ItemId(0)); // block 0
        let r = c.access(ItemId(4)); // block 1 evicts block 0
                                     // Items 1,2,3 leave (not in item layer); item 0 survives in item layer.
        assert_eq!(r.evicted(), &[ItemId(1), ItemId(2), ItemId(3)]);
        assert!(c.contains(ItemId(0)));
        assert!(r.loaded().contains(&ItemId(4)));
    }

    #[test]
    fn loaded_excludes_items_already_in_item_layer() {
        let mut c = Iblp::new(4, 4, map4()); // 1 block slot
        c.access(ItemId(0)); // block 0; item 0 promoted
        c.access(ItemId(4)); // block 1 replaces block 0; item 0 only in item layer
        let r = c.access(ItemId(1)); // block 0 reloads
        assert!(r.is_miss());
        // Item 0 was already resident (item layer), so block 0's reload
        // brings in 1, 2, 3 only.
        assert_eq!(r.loaded(), &[ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn capacity_and_len_count_lines() {
        let mut c = Iblp::new(3, 8, map4());
        assert_eq!(c.capacity(), 11);
        c.access(ItemId(0));
        // Item 0 occupies an item-layer line AND a block-layer line.
        assert_eq!(c.len(), 1 + 4);
        c.access(ItemId(4));
        assert_eq!(c.len(), 2 + 8);
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn balanced_split() {
        let c = Iblp::balanced(64, map4());
        assert_eq!(c.item_layer_size(), 32);
        assert_eq!(c.block_layer_size(), 32);
        assert_eq!(c.capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "cannot hold a block")]
    fn block_layer_must_fit_one_block() {
        let _ = Iblp::new(4, 2, map4());
    }

    #[test]
    fn beats_item_cache_on_streaming() {
        // Whole-block streaming: IBLP hits B−1 of every B accesses; an item
        // cache of equal size misses everything (universe >> k).
        use crate::item::ItemLru;
        let map = BlockMap::strided(8);
        let mut iblp = Iblp::new(8, 8, map);
        let mut lru = ItemLru::new(16);
        let mut iblp_misses = 0;
        let mut lru_misses = 0;
        for id in 0..4000u64 {
            if iblp.access(ItemId(id)).is_miss() {
                iblp_misses += 1;
            }
            if lru.access(ItemId(id)).is_miss() {
                lru_misses += 1;
            }
        }
        assert_eq!(lru_misses, 4000);
        assert_eq!(iblp_misses, 4000 / 8);
    }

    #[test]
    fn beats_block_cache_on_sparse_reuse() {
        // One hot item per block, working set of 6 blocks: a block cache of
        // 16 lines (2 block slots) thrashes; IBLP's item layer holds all 6.
        use crate::block::BlockLru;
        let map = BlockMap::strided(8);
        let mut iblp = Iblp::new(8, 8, map.clone());
        let mut blk = BlockLru::new(16, map);
        let mut iblp_misses = 0;
        let mut blk_misses = 0;
        for round in 0..200u64 {
            for b in 0..6u64 {
                let item = ItemId(b * 8);
                if iblp.access(item).is_miss() && round > 0 {
                    iblp_misses += 1;
                }
                if blk.access(item).is_miss() && round > 0 {
                    blk_misses += 1;
                }
            }
        }
        assert_eq!(iblp_misses, 0, "item layer covers the working set");
        assert!(blk_misses > 500, "block cache thrashes: {blk_misses}");
    }

    #[test]
    fn reset_clears_both_layers() {
        let mut c = Iblp::new(4, 8, map4());
        c.access(ItemId(0));
        c.reset();
        assert_eq!(c.len(), 0);
        assert!(c.access(ItemId(0)).is_miss());
    }

    #[test]
    fn contains_matches_access_outcome() {
        let mut c = Iblp::new(3, 8, map4());
        let ids = [0u64, 5, 1, 9, 13, 2, 7, 0, 4, 11, 3, 8, 1];
        for &id in &ids {
            let pre = c.contains(ItemId(id));
            let r = c.access(ItemId(id));
            assert_eq!(pre, r.is_hit(), "at {id}");
        }
    }

    fn misses(policy: &mut dyn GcPolicy, trace: &Trace) -> u64 {
        trace.iter().filter(|&i| policy.access(i).is_miss()).count() as u64
    }

    /// The §5.1 pollution trace: one block with a single hot item that is
    /// hammered between accesses to streaming blocks. If item hits refresh
    /// block recency, the hot item's mostly-useless block pins a block slot.
    fn pollution_trace(b: u64, blocks: u64, rounds: u64) -> Trace {
        let mut t = Trace::new();
        for round in 0..rounds {
            // Hot item from block 0 (only item 0 is ever used there).
            for _ in 0..b {
                t.push(ItemId(0));
            }
            // Stream a handful of fully-used blocks (cycled).
            let blk = 1 + (round % blocks);
            for off in 0..b {
                t.push(ItemId(blk * b + off));
            }
        }
        t
    }

    #[test]
    fn paper_config_matches_canonical_iblp() {
        let map = BlockMap::strided(4);
        let trace = pollution_trace(4, 6, 300);
        let mut canonical = Iblp::new(8, 8, map.clone());
        let mut variant = Iblp::with_config(8, 8, map, IblpConfig::paper());
        for item in trace.iter() {
            assert_eq!(
                canonical.access(item).is_hit(),
                variant.access(item).is_hit(),
                "diverged at {item}"
            );
        }
    }

    #[test]
    fn ablation_block_touching_hurts_on_pollution_trace() {
        // With touching, the hot item's block stays MRU in the block layer
        // and the streaming blocks thrash in the remaining slot(s).
        let map = BlockMap::strided(4);
        let trace = pollution_trace(4, 3, 500);
        let mut paper = Iblp::with_config(4, 8, map.clone(), IblpConfig::paper());
        let mut spoiled = Iblp::with_config(4, 8, map, IblpConfig::block_touching());
        let m_paper = misses(&mut paper, &trace);
        let m_spoiled = misses(&mut spoiled, &trace);
        assert!(
            m_paper <= m_spoiled,
            "paper {m_paper} should not lose to block-touching {m_spoiled}"
        );
    }

    #[test]
    fn ablation_no_promotion_loses_block_hit_reuse() {
        // The promotion path matters when an item's first touch is a
        // block-layer hit (a co-load) and the block then leaves the block
        // layer: with promotion the item survives in the item layer; without
        // it the next access misses. Micro-scenario with B = 4, 2 block
        // slots, item layer of 8:
        let map = BlockMap::strided(4);
        let trace = Trace::from_ids([
            1, // miss: loads block 0, promotes item 1
            0, // BLOCK-LAYER hit on a co-load — the config decision point
            4, // miss: block 1
            8, // miss: block 2 — evicts block 0 from the block layer
            0, // promoted ⇒ item-layer hit; unpromoted ⇒ miss
        ]);
        let mut paper = Iblp::with_config(8, 8, map.clone(), IblpConfig::paper());
        let mut spoiled = Iblp::with_config(8, 8, map, IblpConfig::no_promotion());
        assert_eq!(misses(&mut paper, &trace), 3);
        assert_eq!(misses(&mut spoiled, &trace), 4, "lost the reuse of item 0");
    }

    #[test]
    fn promotion_tradeoff_stream_pollution_is_real() {
        // The flip side §5.1 accepts: promoting *every* access lets
        // streaming items churn a tiny item layer. With a hot item whose
        // reuse distance spans a whole streamed block, the paper config
        // pays for its choice — documenting that the design is a trade-off,
        // not a free lunch (the item layer must be sized for the hot set).
        let map = BlockMap::strided(8);
        let mut trace = Trace::new();
        for round in 0..200u64 {
            trace.push(ItemId(0));
            let blk = 1 + (round % 2);
            for off in 0..8 {
                trace.push(ItemId(blk * 8 + off));
            }
        }
        let mut tiny = Iblp::with_config(2, 16, map.clone(), IblpConfig::paper());
        let mut sized = Iblp::with_config(16, 16, map, IblpConfig::paper());
        let m_tiny = misses(&mut tiny, &trace);
        let m_sized = misses(&mut sized, &trace);
        assert!(
            m_sized < m_tiny / 2,
            "sizing the item layer for the hot set must pay off: {m_sized} vs {m_tiny}"
        );
    }

    #[test]
    fn invariants_hold_for_all_configs() {
        for config in [
            IblpConfig::paper(),
            IblpConfig::block_touching(),
            IblpConfig::no_promotion(),
        ] {
            let map = BlockMap::strided(4);
            let mut c = Iblp::with_config(6, 8, map, config);
            let mut x = 11u64;
            for _ in 0..2000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let item = ItemId(x % 48);
                let pre = c.contains(item);
                let r = c.access(item);
                assert_eq!(pre, r.is_hit(), "{config:?}");
                assert!(c.contains(item));
                assert!(c.len() <= c.capacity());
                for e in r.evicted() {
                    assert!(!c.contains(*e), "{config:?}: zombie {e}");
                }
            }
            c.reset();
            assert_eq!(c.len(), 0);
        }
    }
}
