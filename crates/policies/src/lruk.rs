//! LRU-K (O'Neil, O'Neil & Weikum, SIGMOD'93) — evict the item whose K-th
//! most recent reference is oldest.
//!
//! LRU-K distinguishes items with genuine reuse (K or more references)
//! from one-shot items: an item seen fewer than K times has backward
//! K-distance ∞ and is evicted first (ties broken by oldest last
//! reference). `K = 2` is the classic database-buffer setting.
//!
//! The eviction order has two parts. Items with fewer than K references
//! sit in a *young* LRU list: they all rank below every other item, and
//! among themselves by last reference, which is recency. The others sit in
//! an indexed binary min-heap keyed by the time of their K-th most recent
//! reference. That key is unique (it is the clock value of one particular
//! access) and a hit only raises it, so the victim is the young list's
//! LRU end, or else the heap's minimum — the same item the total order
//! `(K-th time or 0, last time)` puts first. Hits and misses cost O(1) on
//! the young list and O(log capacity) on the heap.

use crate::lru_list::LruList;
use crate::slab::{KeyIndex, Universe};
use crate::GcPolicy;
use gc_types::{AccessKind, AccessScratch, ItemId};

/// Reference histories in one arena: slot `s` owns the `k` words
/// `times[s*k..(s+1)*k]`, a ring of its most recent reference times.
/// Slots are recycled through a free list, so a warm cache allocates
/// nothing per item.
#[derive(Clone, Debug)]
struct Histories {
    k: usize,
    times: Vec<u64>,
    slots: Vec<Slot>,
    free: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    item: u64,
    /// References recorded, saturating at `k`.
    refs: u32,
    /// Ring position of the next write, which is the oldest recorded time
    /// once `refs == k`.
    cursor: u32,
}

impl Histories {
    fn new(k: usize, slots: usize) -> Self {
        Histories {
            k,
            times: Vec::with_capacity(k * slots),
            slots: Vec::with_capacity(slots),
            free: Vec::with_capacity(slots),
        }
    }

    /// A fresh, empty history for `item`.
    fn alloc(&mut self, item: u64) -> u32 {
        let slot = Slot {
            item,
            refs: 0,
            cursor: 0,
        };
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                self.times.resize(self.times.len() + self.k, 0);
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, s: u32) {
        self.free.push(s);
    }

    /// Record a reference at time `t`.
    fn record(&mut self, s: u32, t: u64) {
        let slot = &mut self.slots[s as usize];
        self.times[s as usize * self.k + slot.cursor as usize] = t;
        slot.cursor = if slot.cursor as usize + 1 == self.k {
            0
        } else {
            slot.cursor + 1
        };
        slot.refs = (slot.refs + 1).min(self.k as u32);
    }

    /// Whether the slot holds `k` references.
    fn full(&self, s: u32) -> bool {
        self.slots[s as usize].refs as usize == self.k
    }

    /// The K-th most recent reference time (meaningful once [`full`]).
    ///
    /// [`full`]: Histories::full
    fn kth(&self, s: u32) -> u64 {
        self.times[s as usize * self.k + self.slots[s as usize].cursor as usize]
    }

    fn item(&self, s: u32) -> u64 {
        self.slots[s as usize].item
    }

    fn clear(&mut self) {
        self.times.clear();
        self.slots.clear();
        self.free.clear();
    }
}

/// A binary min-heap of `(key, slot)` with each slot's heap position, so a
/// raised key sifts down from where it sits.
#[derive(Clone, Debug)]
struct SlotHeap {
    heap: Vec<(u64, u32)>,
    /// Heap position per slot (stale for slots not in the heap).
    pos: Vec<u32>,
}

impl SlotHeap {
    fn new(slots: usize) -> Self {
        SlotHeap {
            heap: Vec::with_capacity(slots),
            pos: vec![0; slots],
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, s: u32, key: u64) {
        self.heap.push((key, s));
        self.sift_up(self.heap.len() - 1);
    }

    /// Raise the key of `s`, which is in the heap.
    fn raise(&mut self, s: u32, key: u64) {
        let i = self.pos[s as usize] as usize;
        debug_assert!(self.heap[i].1 == s && key > self.heap[i].0);
        self.heap[i].0 = key;
        self.sift_down(i);
    }

    fn pop_min(&mut self) -> Option<u32> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last.1);
        }
        let min = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(min.1)
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].0 < self.heap[left].0 {
                right
            } else {
                left
            };
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: (u64, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

/// The LRU-K replacement policy (item-granular).
#[derive(Clone, Debug)]
pub struct LruK {
    capacity: usize,
    k: usize,
    clock: u64,
    /// Item → history slot, for resident and retained items alike.
    slot_of: KeyIndex,
    histories: Histories,
    /// Resident slots with fewer than K references, by last reference.
    young: LruList,
    /// Resident slots with K references, by K-th most recent reference.
    old: SlotHeap,
    /// Slots of recently evicted items whose history is kept (O'Neil et
    /// al.'s *Retained Information Period*): without it, a reloaded item
    /// restarts as a singleton and LRU-K degenerates to LRU under
    /// thrashing. Bounded LRU of `capacity` entries.
    retained: LruList,
}

impl LruK {
    /// An LRU-K cache of `capacity` items tracking the last `k` references.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `k == 0`.
    pub fn new(capacity: usize, k: usize) -> Self {
        Self::with_universe(capacity, k, &Universe::sparse())
    }

    /// An LRU-K cache whose item → history index is backed by `universe`.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `k == 0`.
    pub fn with_universe(capacity: usize, k: usize, universe: &Universe) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(k > 0, "K must be positive");
        // At most `capacity` resident and `capacity` retained histories
        // are live at once (a miss evicts, trims the retained list, and
        // only then allocates), so slot ids stay below `2 * capacity`.
        let slots = 2 * capacity;
        LruK {
            capacity,
            k,
            clock: 0,
            slot_of: universe.item_index(),
            histories: Histories::new(k, slots),
            young: LruList::with_index(capacity, KeyIndex::dense(slots)),
            old: SlotHeap::new(slots),
            retained: LruList::with_index(capacity + 1, KeyIndex::dense(slots)),
        }
    }

    /// Record a reference to slot `s` now and file it in the eviction
    /// order; `in_old` says whether `s` already sits in the heap.
    fn reference(&mut self, s: u32, in_old: bool) {
        self.histories.record(s, self.clock);
        if !self.histories.full(s) {
            self.young.touch(u64::from(s));
        } else if in_old {
            self.old.raise(s, self.histories.kth(s));
        } else {
            self.young.remove(u64::from(s));
            self.old.push(s, self.histories.kth(s));
        }
    }
}

impl GcPolicy for LruK {
    fn name(&self) -> String {
        format!("LRU-{}(k={})", self.k, self.capacity)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.slot_of
            .get(item.0)
            .is_some_and(|s| !self.retained.contains(u64::from(s)))
    }

    // lint: hot-path
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        self.clock += 1;
        if let Some(s) = self.slot_of.get(item.0) {
            if !self.retained.contains(u64::from(s)) {
                let in_old = self.histories.full(s);
                self.reference(s, in_old);
                return AccessKind::Hit;
            }
        }
        out.clear();
        out.loaded.push(item);
        if self.len() == self.capacity {
            let victim = match self.young.evict_lru() {
                Some(s) => s as u32,
                None => self.old.pop_min().expect("full cache"),
            };
            // Retain the victim's history for a while (bounded LRU).
            self.retained.touch(u64::from(victim));
            while self.retained.len() > self.capacity {
                let stale = self.retained.evict_lru().expect("nonempty") as u32;
                self.slot_of.remove(self.histories.item(stale));
                self.histories.release(stale);
            }
            out.evicted.push(ItemId(self.histories.item(victim)));
        }
        // Resurrect the retained history if it survived the trim above.
        let s = match self.slot_of.get(item.0) {
            Some(s) => {
                self.retained.remove(u64::from(s));
                s
            }
            None => {
                let s = self.histories.alloc(item.0);
                self.slot_of.insert(item.0, s);
                s
            }
        };
        self.reference(s, false);
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.slot_of.clear();
        self.histories.clear();
        self.young.clear();
        self.old.clear();
        self.retained.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::both_universes;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn once_referenced_items_evicted_before_reused_ones() {
        let mut c = LruK::new(3, 2);
        c.access(ItemId(1));
        c.access(ItemId(1)); // 1 has 2 refs
        c.access(ItemId(2)); // 1 ref
        c.access(ItemId(3)); // 1 ref
        let r = c.access(ItemId(4));
        // Victim must be 2 (singleton with the oldest last reference),
        // even though 1 is the least *recently* used overall? — no: 1 was
        // touched twice early. LRU would evict 1; LRU-2 evicts 2.
        assert_eq!(r.evicted(), &[ItemId(2)]);
        assert!(c.contains(ItemId(1)));
    }

    #[test]
    fn k1_degenerates_to_lru() {
        use crate::item::ItemLru;
        let mut lruk = LruK::new(5, 1);
        let mut lru = ItemLru::new(5);
        let mut x = 12u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = ItemId(x % 17);
            assert_eq!(lruk.access(item).is_hit(), lru.access(item).is_hit());
        }
    }

    #[test]
    fn scan_resistance_vs_lru() {
        use crate::item::ItemLru;
        // Hot set of 4 items with reuse + a 3-item one-shot scan burst per
        // round. LRU's recency order lets the burst push hot items out;
        // LRU-2 ranks the single-reference scanners below the hot set.
        let mut trace = Vec::new();
        for round in 0..200u64 {
            for hot in 0..4u64 {
                trace.push(hot);
            }
            for s in 0..3u64 {
                trace.push(1000 + round * 3 + s);
            }
        }
        let run = |mut p: Box<dyn GcPolicy>| {
            let mut misses = 0;
            for &id in &trace {
                if p.access(ItemId(id)).is_miss() {
                    misses += 1;
                }
            }
            misses
        };
        let lruk_misses = run(Box::new(LruK::new(5, 2)));
        let lru_misses = run(Box::new(ItemLru::new(5)));
        assert!(
            lruk_misses < lru_misses,
            "LRU-2 {lruk_misses} should beat LRU {lru_misses} under scan pollution"
        );
    }

    #[test]
    fn capacity_and_agreement_invariants() {
        let mut c = LruK::new(7, 2);
        let mut x = 3u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let item = ItemId(x % 30);
            let pre = c.contains(item);
            let r = c.access(item);
            assert_eq!(pre, r.is_hit());
            assert!(c.len() <= 7);
            for e in r.evicted() {
                assert!(!c.contains(*e));
            }
        }
    }

    #[test]
    fn history_window_is_bounded() {
        let mut c = LruK::new(2, 2);
        for _ in 0..100 {
            c.access(ItemId(1));
        }
        let s = c.slot_of.get(1).unwrap();
        assert_eq!(c.histories.slots[s as usize].refs, 2);
        assert_eq!(c.histories.times.len(), 2, "one slot of k words");
        assert_eq!(c.histories.kth(s), 99, "second most recent of 1..=100");
    }

    /// Reference model: LRU-K's total order as a `BTreeSet` of
    /// `(kth, newest, item)`, `kth = 0` below K references, with the same
    /// bounded retained-history rule.
    struct Model {
        capacity: usize,
        k: usize,
        clock: u64,
        resident: BTreeMap<u64, Vec<u64>>,
        order: BTreeSet<(u64, u64, u64)>,
        /// Oldest first.
        retained: Vec<(u64, Vec<u64>)>,
    }

    impl Model {
        fn new(capacity: usize, k: usize) -> Self {
            Model {
                capacity,
                k,
                clock: 0,
                resident: BTreeMap::new(),
                order: BTreeSet::new(),
                retained: Vec::new(),
            }
        }

        fn key(&self, item: u64, times: &[u64]) -> (u64, u64, u64) {
            let kth = times.len().checked_sub(self.k).map_or(0, |i| times[i]);
            (kth, *times.last().unwrap(), item)
        }

        /// `None` on a hit, the evicted items on a miss.
        fn access(&mut self, item: u64) -> Option<Vec<u64>> {
            self.clock += 1;
            let (mut times, outcome) = match self.resident.remove(&item) {
                Some(times) => {
                    self.order.remove(&self.key(item, &times));
                    (times, None)
                }
                None => {
                    let mut evicted = Vec::new();
                    if self.resident.len() == self.capacity {
                        let (_, _, victim) = self.order.pop_first().unwrap();
                        let times = self.resident.remove(&victim).unwrap();
                        self.retained.push((victim, times));
                        if self.retained.len() > self.capacity {
                            self.retained.remove(0);
                        }
                        evicted.push(victim);
                    }
                    let times = match self.retained.iter().position(|(r, _)| *r == item) {
                        Some(p) => self.retained.remove(p).1,
                        None => Vec::new(),
                    };
                    (times, Some(evicted))
                }
            };
            times.push(self.clock);
            if times.len() > self.k {
                times.remove(0);
            }
            self.order.insert(self.key(item, &times));
            self.resident.insert(item, times);
            outcome
        }

        fn reset(&mut self) {
            *self = Model::new(self.capacity, self.k);
        }
    }

    #[test]
    fn stress_against_reference_model() {
        for k in 1..=3 {
            for universe in both_universes(30) {
                let mut fast = LruK::with_universe(8, k, &universe);
                let mut slow = Model::new(8, k);
                let mut out = AccessScratch::new();
                let mut x: u64 = 0x2545_F491_4F6C_DD1D;
                for step in 0..20_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 997 == 0 {
                        fast.reset();
                        slow.reset();
                        continue;
                    }
                    // A hot third of the traffic on 6 keys, so items reach
                    // K references and the heap side is exercised.
                    let key = if x % 3 == 0 { x % 6 } else { x % 30 };
                    let ctx = format!("k={k} dense={} step {step}", universe.is_dense());
                    assert_eq!(
                        fast.contains(ItemId(key)),
                        slow.resident.contains_key(&key),
                        "{ctx}"
                    );
                    let kind = fast.access_into(ItemId(key), &mut out);
                    match slow.access(key) {
                        None => assert!(kind.is_hit(), "{ctx}"),
                        Some(evicted) => {
                            assert!(kind.is_miss(), "{ctx}");
                            let evicted: Vec<ItemId> = evicted.into_iter().map(ItemId).collect();
                            assert_eq!(out.evicted, evicted, "{ctx}");
                        }
                    }
                    assert_eq!(fast.len(), slow.resident.len(), "{ctx}");
                }
            }
        }
    }
}
