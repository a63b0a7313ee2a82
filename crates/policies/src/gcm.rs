//! Granularity-Change Marking (GCM) — the paper's randomized policy (§6.1).
//!
//! GCM extends the classic marking algorithm to granularity change:
//!
//! * requested items are **marked**; evictions pick a uniformly random
//!   *unmarked* item, and a new phase (all marks cleared) starts only when
//!   every resident item is marked;
//! * on a miss, the **whole block is loaded but only the requested item is
//!   marked** — co-loaded items enter the cache as unmarked guests, so
//!   spatial guesses can never displace items with demonstrated temporal
//!   locality;
//! * in the common case where fewer than `B` unmarked lines remain, the
//!   requested item is loaded and the remaining unmarked lines are
//!   *replaced by* randomly chosen items of the accessed block.
//!
//! Without guests (`coload_limit == 0`) GCM is the classic marking
//! algorithm of Fiat et al. (`item-marking`), which §6.1 shows pays a
//! factor `B` on block-streaming traces.

use crate::slab::{KeyIndex, KeySet, Universe};
use crate::GcPolicy;
use gc_types::rng::SmallRng;
use gc_types::{AccessKind, AccessScratch, BlockMap, ItemId};

/// The GCM policy. See the module docs.
#[derive(Clone, Debug)]
pub struct Gcm {
    capacity: usize,
    map: BlockMap,
    /// Maximum co-loaded guests per miss (`B − 1` = full GCM, `0` = the
    /// classic marking algorithm). §6.2 raises — and leaves open — whether
    /// intermediate values help; `tests/randomized.rs` measures the
    /// family's two extremes against GCM.
    coload_limit: usize,
    /// If `true`, co-loaded guests are *marked* on load — the strawman
    /// §6.1 rejects ("a policy that loads and marks every item in the
    /// block also has issues": unused guests become unevictable until the
    /// next phase, shrinking the effective cache).
    mark_coloads: bool,
    marked: KeySet,
    /// Marking order of the current phase; the phase-change drain walks
    /// this so the unmark order (an input to the random victim choice) is
    /// identical for the sparse and dense backings.
    marked_order: Vec<ItemId>,
    /// Unmarked resident items in a vector for O(1) uniform choice.
    unmarked: Vec<ItemId>,
    unmarked_pos: KeyIndex,
    rng: SmallRng,
    /// Reusable buffer for the per-miss co-load candidate snapshot.
    co_buf: Vec<ItemId>,
}

impl Gcm {
    /// A GCM cache of `capacity` items over the given block partition.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, map: BlockMap, seed: u64) -> Self {
        let limit = map.max_block_size().saturating_sub(1);
        Self::with_coload_limit(capacity, map, seed, limit)
    }

    /// The §6.2 partial-loading family: co-load at most `coload_limit`
    /// random items of the accessed block per miss. `0` degenerates to the
    /// classic marking algorithm, `B − 1` is full GCM.
    pub fn with_coload_limit(
        capacity: usize,
        map: BlockMap,
        seed: u64,
        coload_limit: usize,
    ) -> Self {
        Self::with_options(capacity, map, seed, coload_limit, false)
    }

    /// Full configuration, including the §6.1 strawman `mark_coloads`
    /// (guests enter marked and cannot be evicted until the next phase).
    pub fn with_options(
        capacity: usize,
        map: BlockMap,
        seed: u64,
        coload_limit: usize,
        mark_coloads: bool,
    ) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let universe = Universe::of(&map);
        Gcm {
            capacity,
            map,
            coload_limit,
            mark_coloads,
            marked: universe.item_set(),
            marked_order: Vec::new(),
            unmarked: Vec::new(),
            unmarked_pos: universe.item_index(),
            rng: SmallRng::seed_from_u64(seed),
            co_buf: Vec::new(),
        }
    }

    fn resident(&self, item: ItemId) -> bool {
        self.marked.contains(item.0) || self.unmarked_pos.contains(item.0)
    }

    fn mark(&mut self, item: ItemId) {
        if self.marked.insert(item.0) {
            self.marked_order.push(item);
        }
    }

    fn remove_unmarked_at(&mut self, pos: usize) -> ItemId {
        let victim = self.unmarked.swap_remove(pos);
        self.unmarked_pos.remove(victim.0);
        if pos < self.unmarked.len() {
            self.unmarked_pos.insert(self.unmarked[pos].0, pos as u32);
        }
        victim
    }

    fn take_unmarked(&mut self, item: ItemId) -> bool {
        if let Some(pos) = self.unmarked_pos.get(item.0) {
            self.remove_unmarked_at(pos as usize);
            true
        } else {
            false
        }
    }

    fn push_unmarked(&mut self, item: ItemId) {
        self.unmarked_pos.insert(item.0, self.unmarked.len() as u32);
        self.unmarked.push(item);
    }

    /// Evict one random unmarked item, starting a new phase if none exist.
    fn evict_one(&mut self) -> ItemId {
        if self.unmarked.is_empty() {
            // Phase change: all marks are cleared, in marking order.
            for &item in &self.marked_order {
                self.marked.remove(item.0);
                self.unmarked_pos.insert(item.0, self.unmarked.len() as u32);
                self.unmarked.push(item);
            }
            self.marked_order.clear();
        }
        let pos = self.rng.gen_range(0..self.unmarked.len());
        self.remove_unmarked_at(pos)
    }
}

impl GcPolicy for Gcm {
    fn name(&self) -> String {
        let b = self.map.max_block_size();
        if self.coload_limit == 0 {
            format!("ItemMarking(k={})", self.capacity)
        } else if self.coload_limit >= b.saturating_sub(1) {
            format!("GCM(k={},B={b})", self.capacity)
        } else {
            format!("GCM(k={},B={b},j={})", self.capacity, self.coload_limit)
        }
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.marked.len() + self.unmarked.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.resident(item)
    }

    // lint: hot-path
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        // Resident: mark (promote out of the unmarked pool) and hit.
        if self.marked.contains(item.0) {
            return AccessKind::Hit;
        }
        if self.take_unmarked(item) {
            self.mark(item);
            return AccessKind::Hit;
        }

        // Snapshot the block's absent items *before* any eviction, so an
        // item evicted to make room is never re-loaded in the same access
        // (which would corrupt the load/evict accounting). The snapshot
        // lives in a policy-owned buffer; steady state never reallocates.
        // Classic marking (`coload_limit == 0`) loads no guest, so it takes
        // no snapshot and draws nothing from the RNG for one.
        let mut co = std::mem::take(&mut self.co_buf);
        co.clear();
        if self.coload_limit > 0 {
            let block = self.map.block_of(item);
            co.extend(
                self.map
                    .items_of(block)
                    .filter(|&z| z != item && !self.resident(z)),
            );
            self.rng.shuffle(&mut co);
        }

        // Miss: make room for the requested item, insert it marked.
        out.clear();
        if self.len() == self.capacity {
            let victim = self.evict_one();
            out.evicted.push(victim);
        }
        self.mark(item);
        out.loaded.push(item);

        // Co-load the rest of the block unmarked, replacing existing
        // unmarked lines when no free space remains. Evictions happen
        // before insertions so co-loaded guests never displace each other.
        let free = self.capacity - self.len();
        let take = co
            .len()
            .min(free + self.unmarked.len())
            .min(self.coload_limit);
        let need_evictions = take.saturating_sub(free);
        for _ in 0..need_evictions {
            let pos = self.rng.gen_range(0..self.unmarked.len());
            let victim = self.remove_unmarked_at(pos);
            out.evicted.push(victim);
        }
        for &z in &co[..take] {
            if self.mark_coloads {
                self.mark(z);
            } else {
                self.push_unmarked(z);
            }
            out.loaded.push(z);
        }
        self.co_buf = co;
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.marked.clear();
        self.marked_order.clear();
        self.unmarked.clear();
        self.unmarked_pos.clear();
        self.co_buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4() -> BlockMap {
        BlockMap::strided(4)
    }

    #[test]
    fn miss_coloads_block_unmarked() {
        let mut c = Gcm::new(8, map4(), 1);
        let r = c.access(ItemId(0));
        assert!(r.is_miss());
        assert_eq!(r.loaded().len(), 4, "whole block co-loads");
        assert_eq!(c.marked.len(), 1, "only the request is marked");
        // Sibling hits are spatial hits and mark the sibling.
        assert!(c.access(ItemId(1)).is_hit());
        assert_eq!(c.marked.len(), 2);
    }

    #[test]
    fn guests_never_displace_marked_items() {
        // Capacity 4, B = 4. Mark three items from distinct blocks, then
        // miss on a new block: only the single unmarked line may be
        // replaced, so exactly one co-item fits alongside the request...
        let mut c = Gcm::new(4, map4(), 2);
        c.access(ItemId(0)); // marks 0, co-loads 3 guests from block 0
        assert!(c.access(ItemId(1)).is_hit()); // marks 1
        assert!(c.access(ItemId(2)).is_hit()); // marks 2
                                               // marked {0,1,2}, one unmarked guest (item 3).
        let r = c.access(ItemId(4));
        assert!(r.is_miss());
        // Item 4 replaced the guest; zero free lines and zero unmarked left
        // means no co-loading beyond that.
        assert!(c.contains(ItemId(0)) && c.contains(ItemId(1)) && c.contains(ItemId(2)));
        assert!(c.contains(ItemId(4)));
        assert_eq!(c.len(), 4);
        assert_eq!(c.marked.len(), 4);
    }

    #[test]
    fn phase_resets_when_all_marked() {
        let mut c = Gcm::new(2, BlockMap::singleton(), 3);
        c.access(ItemId(1));
        c.access(ItemId(2)); // both marked (B=1: no co-loads)
        let r = c.access(ItemId(3)); // full + all marked → phase reset
        assert!(r.is_miss());
        assert_eq!(r.evicted().len(), 1);
        assert_eq!(c.len(), 2);
        // After the reset, 3 is marked; the surviving old item is unmarked.
        assert_eq!(c.marked.len(), 1);
    }

    #[test]
    fn singleton_blocks_match_classic_marking_structure() {
        // With B = 1, GCM is exactly the classic marking algorithm: no
        // co-loads ever.
        let mut c = Gcm::new(4, BlockMap::singleton(), 4);
        for id in 0..10u64 {
            let r = c.access(ItemId(id));
            assert_eq!(r.loaded().len(), 1);
        }
    }

    #[test]
    fn partial_coload_when_few_unmarked() {
        // Capacity 6, B=4. Fill with 5 marked + 1 unmarked, then miss:
        // the request loads and exactly one co-item replaces the last
        // unmarked line (the §6.1 special case).
        let mut c = Gcm::new(6, map4(), 5);
        c.access(ItemId(0));
        for id in [1u64, 2, 3] {
            assert!(c.access(ItemId(id)).is_hit());
        }
        // block 0 fully marked (4 marked). Load block 1's item 4:
        // free = 2 ⇒ 4 marked + 1 marked(4) + guests…
        let r = c.access(ItemId(4));
        assert!(r.is_miss());
        assert_eq!(c.len(), 6, "cache exactly full");
        assert!(c.marked.len() >= 5);
        // Guests loaded = min(3 co-items, free=1 + unmarked=0… after insert)
        assert!(r.loaded().len() >= 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let ids: Vec<u64> = (0..3000).map(|i| (i * 7919) % 256).collect();
        let run = |seed| {
            let mut c = Gcm::new(32, map4(), seed);
            ids.iter()
                .filter(|&&id| c.access(ItemId(id)).is_miss())
                .count()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = Gcm::new(10, map4(), 6);
        let mut x = 1u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access(ItemId(x % 200));
            assert!(c.len() <= 10);
        }
    }

    #[test]
    fn contains_agrees_with_access() {
        let mut c = Gcm::new(12, map4(), 7);
        let mut x = 99u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let item = ItemId(x % 64);
            let pre = c.contains(item);
            assert_eq!(pre, c.access(item).is_hit());
        }
    }

    #[test]
    fn coload_limit_zero_never_coloads() {
        let mut c = Gcm::with_coload_limit(8, map4(), 3, 0);
        for id in 0..32u64 {
            let r = c.access(ItemId(id));
            assert_eq!(r.loaded().len(), 1, "classic marking never co-loads");
        }
        // Without guests GCM is the classic marking algorithm, and says so.
        assert_eq!(c.name(), "ItemMarking(k=8)");
    }

    #[test]
    fn coload_limit_caps_guests() {
        let mut c = Gcm::with_coload_limit(16, map4(), 4, 2);
        let r = c.access(ItemId(0));
        assert!(r.loaded().len() <= 3, "request + at most 2 guests");
        assert_eq!(c.coload_limit, 2);
    }

    #[test]
    fn marked_coloads_pollute_sparse_working_sets() {
        // The §6.1 strawman: guests enter marked and pin garbage lines,
        // shrinking the cache on a sparse working set that plain GCM holds
        // entirely.
        let b = 8usize;
        let map = BlockMap::strided(b);
        let loop_items: Vec<u64> = (0..28u64).map(|i| i * b as u64).collect();
        let run = |mark: bool| {
            let mut c = Gcm::with_options(32, map.clone(), 5, b - 1, mark);
            let mut misses = 0u64;
            for (idx, &id) in loop_items.iter().cycle().take(8000).enumerate() {
                if c.access(ItemId(id)).is_miss() && idx >= 1000 {
                    misses += 1;
                }
            }
            misses
        };
        let gcm = run(false);
        let strawman = run(true);
        assert!(
            gcm * 5 < strawman.max(1),
            "unmarked co-loading must avoid pollution: gcm {gcm} vs strawman {strawman}"
        );
    }

    #[test]
    fn beats_plain_marking_on_streaming() {
        let map = BlockMap::strided(8);
        let mut gcm = Gcm::new(32, map.clone(), 8);
        let mut plain = Gcm::with_coload_limit(32, map, 8, 0);
        let mut gcm_misses = 0;
        let mut plain_misses = 0;
        for id in 0..4000u64 {
            if gcm.access(ItemId(id)).is_miss() {
                gcm_misses += 1;
            }
            if plain.access(ItemId(id)).is_miss() {
                plain_misses += 1;
            }
        }
        // §6.1: plain marking pays B× on block streaming.
        assert_eq!(plain_misses, 4000);
        assert!(gcm_misses <= 4000 / 7, "gcm {gcm_misses}");
    }
}
