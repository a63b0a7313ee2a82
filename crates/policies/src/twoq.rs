//! The 2Q item cache (Johnson & Shasha, VLDB'94).
//!
//! 2Q filters one-shot accesses away from the main LRU: new items enter a
//! small FIFO (`A1in`); only items re-referenced *after leaving* `A1in`
//! (tracked by the ghost queue `A1out`, which stores ids but no data) are
//! promoted into the main LRU (`Am`). Included here as a scan-resistant
//! item-cache baseline: like all item caches it is subject to the
//! Theorem 2 lower bound, which the integration tests exercise.

use crate::lru_list::LruList;
use crate::slab::{KeySet, Universe};
use crate::GcPolicy;
use gc_types::{AccessKind, AccessScratch, ItemId};
use std::collections::VecDeque;

/// The 2Q replacement policy (item-granular).
#[derive(Clone, Debug)]
pub struct TwoQ {
    capacity: usize,
    /// Capacity of the A1in FIFO (resident).
    kin: usize,
    /// Capacity of the A1out ghost queue (ids only, non-resident).
    kout: usize,
    a1in: VecDeque<ItemId>,
    a1in_set: KeySet,
    /// The ghost queue as a FIFO: a key is never re-touched while it sits
    /// here (it enters only on a spill from `A1in` and leaves on a ghost
    /// hit), so its LRU order is insertion order.
    a1out: LruList,
    am: LruList,
}

impl TwoQ {
    /// A 2Q cache of `capacity` items: `|A1in| = capacity/4` (at least 1)
    /// and a ghost queue of `capacity` id-only entries (ghost entries cost
    /// metadata, not lines; a full-size ghost — as in ARC — keeps the
    /// reuse signal alive under heavy one-shot pollution).
    pub fn new(capacity: usize) -> Self {
        Self::with_universe(capacity, &Universe::sparse())
    }

    /// A 2Q cache whose queue-membership sets are backed by `universe`.
    pub fn with_universe(capacity: usize, universe: &Universe) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let kin = (capacity / 4).max(1).min(capacity);
        TwoQ {
            capacity,
            kin,
            kout: capacity,
            a1in: VecDeque::new(),
            a1in_set: universe.item_set(),
            a1out: LruList::with_index(capacity + 1, universe.item_index()),
            am: LruList::with_index(capacity, universe.item_index()),
        }
    }

    /// Demote the A1in FIFO head to the ghost queue.
    fn spill_a1in(&mut self) -> ItemId {
        let victim = self.a1in.pop_front().expect("spill on nonempty A1in");
        self.a1in_set.remove(victim.0);
        self.a1out.touch(victim.0);
        if self.a1out.len() > self.kout {
            self.a1out.evict_lru();
        }
        victim
    }

    /// Capacity of the Am main LRU.
    fn am_cap(&self) -> usize {
        self.capacity - self.kin
    }
}

impl GcPolicy for TwoQ {
    fn name(&self) -> String {
        format!(
            "2Q(k={},kin={},kout={})",
            self.capacity, self.kin, self.kout
        )
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.a1in_set.contains(item.0) || self.am.contains(item.0)
    }

    // lint: hot-path
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if self.am.contains(item.0) {
            self.am.touch(item.0);
            return AccessKind::Hit;
        }
        if self.a1in_set.contains(item.0) {
            // 2Q leaves A1in hits in place (no reordering): correlated
            // references within a burst shouldn't look like reuse.
            return AccessKind::Hit;
        }
        // The queues have hard bounds (as in the original paper): A1in
        // holds at most kin items and Am at most capacity − kin, so total
        // residency never exceeds capacity.
        out.clear();
        out.loaded.push(item);
        let ghost_hit = self.a1out.remove(item.0);
        if ghost_hit && self.am_cap() > 0 {
            // Ghost hit: this item has real reuse — promote to Am.
            if self.am.len() == self.am_cap() {
                if let Some(victim) = self.am.evict_lru() {
                    out.evicted.push(ItemId(victim));
                }
            }
            self.am.touch(item.0);
        } else {
            if self.a1in.len() == self.kin {
                // Spilling to the ghost removes the item from residency.
                let victim = self.spill_a1in();
                out.evicted.push(victim);
            }
            self.a1in.push_back(item);
            self.a1in_set.insert(item.0);
        }
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.a1in.clear();
        self.a1in_set.clear();
        self.a1out.clear();
        self.am.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_scans_do_not_pollute_am() {
        let mut c = TwoQ::new(8); // kin = 2
                                  // Establish a hot item with reuse: 1 enters A1in, spills to ghost,
                                  // returns → Am.
        c.access(ItemId(1));
        c.access(ItemId(2));
        c.access(ItemId(3)); // spills 1 to ghost
        assert!(!c.contains(ItemId(1)));
        c.access(ItemId(1)); // ghost hit → Am
        assert!(c.contains(ItemId(1)));
        // A long scan of one-shot items must not evict 1 from Am.
        for id in 100..200u64 {
            c.access(ItemId(id));
        }
        assert!(c.contains(ItemId(1)), "scan polluted Am");
    }

    #[test]
    fn a1in_hits_do_not_promote() {
        let mut c = TwoQ::new(8);
        c.access(ItemId(5));
        assert!(c.access(ItemId(5)).is_hit(), "A1in hit");
        // Still in A1in: two more insertions spill it.
        c.access(ItemId(6));
        c.access(ItemId(7));
        assert!(
            !c.contains(ItemId(5)),
            "burst reuse must not pin A1in items"
        );
    }

    #[test]
    fn capacity_respected() {
        let mut c = TwoQ::new(6);
        let mut x = 1u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access(ItemId(x % 50));
            assert!(c.len() <= 6);
        }
    }

    #[test]
    fn contains_matches_access() {
        let mut c = TwoQ::new(5);
        let mut x = 77u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let item = ItemId(x % 24);
            let pre = c.contains(item);
            assert_eq!(pre, c.access(item).is_hit());
            assert!(c.contains(item));
        }
    }

    #[test]
    fn evictions_really_leave() {
        use gc_types::AccessResult;
        let mut c = TwoQ::new(4);
        for id in 0..100u64 {
            if let AccessResult::Miss { evicted, .. } = c.access(ItemId(id)) {
                for e in evicted {
                    assert!(!c.contains(e));
                }
            }
        }
    }

    #[test]
    fn capacity_one_works() {
        let mut c = TwoQ::new(1);
        assert!(c.access(ItemId(1)).is_miss());
        assert!(c.access(ItemId(1)).is_hit());
        let r = c.access(ItemId(2));
        assert_eq!(r.evicted(), &[ItemId(1)]);
        assert_eq!(c.len(), 1);
    }
}
