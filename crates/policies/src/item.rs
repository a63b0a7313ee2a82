//! Item Caches: policies that load only the requested item.
//!
//! These are the "traditional caches" of the paper's §2 baseline — they
//! exploit temporal locality only. Theorem 2 shows any such policy pays a
//! competitive penalty of roughly `B×` in the GC model; they remain the
//! right choice when the online cache is barely larger than the comparison
//! point (§4.4).

use crate::lru_list::LruList;
use crate::slab::{KeyIndex, KeySet, Universe};
use crate::GcPolicy;
use gc_types::rng::SmallRng;
use gc_types::{AccessKind, AccessScratch, ItemId};
use std::collections::VecDeque;

fn check_capacity(capacity: usize) -> usize {
    assert!(capacity > 0, "cache capacity must be positive");
    capacity
}

/// Least-Recently-Used item cache — the canonical online policy and the
/// building block of IBLP's item layer.
#[derive(Clone, Debug)]
pub struct ItemLru {
    capacity: usize,
    list: LruList,
}

impl ItemLru {
    /// An LRU cache holding up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_universe(capacity, &Universe::sparse())
    }

    /// An LRU cache whose key index is backed by `universe` (dense array
    /// loads for compiled traces, hash probes otherwise).
    pub fn with_universe(capacity: usize, universe: &Universe) -> Self {
        ItemLru {
            capacity: check_capacity(capacity),
            list: LruList::with_index(capacity, universe.item_index()),
        }
    }
}

impl GcPolicy for ItemLru {
    fn name(&self) -> String {
        format!("ItemLRU(k={})", self.capacity)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.list.contains(item.0)
    }

    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if !self.list.touch(item.0) {
            return AccessKind::Hit;
        }
        out.clear();
        out.loaded.push(item);
        if self.list.len() > self.capacity {
            let victim = self.list.evict_lru().expect("nonempty after insert");
            out.evicted.push(ItemId(victim));
        }
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.list.clear();
    }
}

/// First-In-First-Out item cache: evicts in insertion order, ignoring
/// recency (hits do not move an item).
#[derive(Clone, Debug)]
pub struct ItemFifo {
    capacity: usize,
    queue: VecDeque<ItemId>,
    present: KeySet,
}

impl ItemFifo {
    /// A FIFO cache holding up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_universe(capacity, &Universe::sparse())
    }

    /// A FIFO cache whose presence set is backed by `universe`.
    pub fn with_universe(capacity: usize, universe: &Universe) -> Self {
        ItemFifo {
            capacity: check_capacity(capacity),
            queue: VecDeque::with_capacity(capacity + 1),
            present: universe.item_set(),
        }
    }
}

impl GcPolicy for ItemFifo {
    fn name(&self) -> String {
        format!("ItemFIFO(k={})", self.capacity)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.present.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.present.contains(item.0)
    }

    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if self.present.contains(item.0) {
            return AccessKind::Hit;
        }
        out.clear();
        out.loaded.push(item);
        if self.present.len() == self.capacity {
            let victim = self.queue.pop_front().expect("queue tracks presence");
            self.present.remove(victim.0);
            out.evicted.push(victim);
        }
        self.queue.push_back(item);
        self.present.insert(item.0);
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.present.clear();
    }
}

/// CLOCK (second-chance) item cache: a FIFO ring with one reference bit per
/// entry — the classic low-overhead LRU approximation.
#[derive(Clone, Debug)]
pub struct ItemClock {
    capacity: usize,
    ring: Vec<(ItemId, bool)>,
    hand: usize,
    index: KeyIndex,
}

impl ItemClock {
    /// A CLOCK cache holding up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_universe(capacity, &Universe::sparse())
    }

    /// A CLOCK cache whose position index is backed by `universe`.
    pub fn with_universe(capacity: usize, universe: &Universe) -> Self {
        ItemClock {
            capacity: check_capacity(capacity),
            ring: Vec::with_capacity(capacity),
            hand: 0,
            index: universe.item_index(),
        }
    }
}

impl GcPolicy for ItemClock {
    fn name(&self) -> String {
        format!("ItemCLOCK(k={})", self.capacity)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.index.contains(item.0)
    }

    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if let Some(pos) = self.index.get(item.0) {
            self.ring[pos as usize].1 = true;
            return AccessKind::Hit;
        }
        out.clear();
        out.loaded.push(item);
        // New entries start with the reference bit clear; only a hit sets
        // it. That is what makes the hand's "second chance" meaningful.
        if self.ring.len() < self.capacity {
            self.index.insert(item.0, self.ring.len() as u32);
            self.ring.push((item, false));
        } else {
            // Advance the hand until an unreferenced entry is found.
            loop {
                let (victim, referenced) = self.ring[self.hand];
                if referenced {
                    self.ring[self.hand].1 = false;
                    self.hand = (self.hand + 1) % self.capacity;
                } else {
                    self.index.remove(victim.0);
                    out.evicted.push(victim);
                    self.ring[self.hand] = (item, false);
                    self.index.insert(item.0, self.hand as u32);
                    self.hand = (self.hand + 1) % self.capacity;
                    break;
                }
            }
        }
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.ring.clear();
        self.index.clear();
        self.hand = 0;
    }
}

/// Least-Frequently-Used item cache with LRU tie-breaking.
///
/// Frequencies persist only while the item is resident (no ghost history).
/// The order is the classic O(1) frequency-bucket structure: one bucket
/// per frequency present, linked in increasing frequency, each a FIFO of
/// its items. An access moves an item to the tail of the next bucket, so
/// entry order into a bucket is last-access order, and the victim — least
/// frequent, then least recent — is the head of the first bucket.
///
/// Buckets come from a pool of at most `capacity + 1` nodes (one per
/// nonempty bucket, plus the one a hit creates before its old bucket
/// empties), never from a table indexed by frequency: a hot item's
/// frequency is unbounded.
#[derive(Clone, Debug)]
pub struct ItemLfu {
    capacity: usize,
    /// Item → its node in `nodes`.
    index: KeyIndex,
    nodes: Vec<LfuNode>,
    buckets: Vec<Bucket>,
    /// Head of the free list of `buckets`, chained through `next`.
    free_bucket: u32,
    /// The lowest-frequency bucket (`NIL` when empty).
    min_bucket: u32,
}

const NIL: u32 = u32::MAX;

/// One resident item: its bucket and its neighbours in that bucket's FIFO.
#[derive(Clone, Copy, Debug)]
struct LfuNode {
    item: u64,
    bucket: u32,
    prev: u32,
    next: u32,
}

/// The items of one frequency, oldest access at `head`, and the buckets of
/// the next lower (`prev`) and higher (`next`) frequency present.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    freq: u64,
    head: u32,
    tail: u32,
    prev: u32,
    next: u32,
}

impl ItemLfu {
    /// An LFU cache holding up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_universe(capacity, &Universe::sparse())
    }

    /// An LFU cache whose item index is backed by `universe`.
    pub fn with_universe(capacity: usize, universe: &Universe) -> Self {
        ItemLfu {
            capacity: check_capacity(capacity),
            index: universe.item_index(),
            nodes: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity + 1),
            free_bucket: NIL,
            min_bucket: NIL,
        }
    }

    /// A new empty bucket of `freq` linked between `prev` and `next`.
    fn new_bucket(&mut self, freq: u64, prev: u32, next: u32) -> u32 {
        let bucket = Bucket {
            freq,
            head: NIL,
            tail: NIL,
            prev,
            next,
        };
        let b = if self.free_bucket != NIL {
            let b = self.free_bucket;
            self.free_bucket = self.buckets[b as usize].next;
            self.buckets[b as usize] = bucket;
            b
        } else {
            self.buckets.push(bucket);
            (self.buckets.len() - 1) as u32
        };
        if prev != NIL {
            self.buckets[prev as usize].next = b;
        } else {
            self.min_bucket = b;
        }
        if next != NIL {
            self.buckets[next as usize].prev = b;
        }
        b
    }

    /// Append node `n` at the tail of bucket `b`.
    fn push_back(&mut self, n: u32, b: u32) {
        let tail = self.buckets[b as usize].tail;
        self.nodes[n as usize].bucket = b;
        self.nodes[n as usize].prev = tail;
        self.nodes[n as usize].next = NIL;
        if tail != NIL {
            self.nodes[tail as usize].next = n;
        } else {
            self.buckets[b as usize].head = n;
        }
        self.buckets[b as usize].tail = n;
    }

    /// Take node `n` out of its bucket, releasing the bucket if it empties.
    fn unlink(&mut self, n: u32) {
        let LfuNode {
            bucket, prev, next, ..
        } = self.nodes[n as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.buckets[bucket as usize].head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.buckets[bucket as usize].tail = prev;
        }
        if self.buckets[bucket as usize].head == NIL {
            let Bucket { prev, next, .. } = self.buckets[bucket as usize];
            if prev != NIL {
                self.buckets[prev as usize].next = next;
            } else {
                self.min_bucket = next;
            }
            if next != NIL {
                self.buckets[next as usize].prev = prev;
            }
            self.buckets[bucket as usize].next = self.free_bucket;
            self.free_bucket = bucket;
        }
    }
}

impl GcPolicy for ItemLfu {
    fn name(&self) -> String {
        format!("ItemLFU(k={})", self.capacity)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.index.contains(item.0)
    }

    // lint: hot-path
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if let Some(n) = self.index.get(item.0) {
            // Move to the tail of the next frequency's bucket, creating it
            // before the old bucket can empty so the link position holds.
            let b = self.nodes[n as usize].bucket;
            let Bucket { freq, next, .. } = self.buckets[b as usize];
            let up = if next != NIL && self.buckets[next as usize].freq == freq + 1 {
                next
            } else {
                self.new_bucket(freq + 1, b, next)
            };
            self.unlink(n);
            self.push_back(n, up);
            return AccessKind::Hit;
        }
        out.clear();
        out.loaded.push(item);
        // A full cache hands the victim's node to the new item, so `nodes`
        // never outgrows `capacity` and needs no free list.
        let n = if self.nodes.len() == self.capacity {
            let n = self.buckets[self.min_bucket as usize].head;
            self.unlink(n);
            let victim = self.nodes[n as usize].item;
            self.index.remove(victim);
            out.evicted.push(ItemId(victim));
            self.nodes[n as usize].item = item.0;
            n
        } else {
            self.nodes.push(LfuNode {
                item: item.0,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.index.insert(item.0, n);
        let first = self.min_bucket;
        let ones = if first != NIL && self.buckets[first as usize].freq == 1 {
            first
        } else {
            self.new_bucket(1, NIL, first)
        };
        self.push_back(n, ones);
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.buckets.clear();
        self.free_bucket = NIL;
        self.min_bucket = NIL;
    }
}

/// Random-replacement item cache (seeded, hence reproducible).
#[derive(Clone, Debug)]
pub struct ItemRandom {
    capacity: usize,
    items: Vec<ItemId>,
    index: KeyIndex,
    rng: SmallRng,
}

impl ItemRandom {
    /// A random-replacement cache holding up to `capacity` items.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self::with_universe(capacity, seed, &Universe::sparse())
    }

    /// A random-replacement cache whose position index is backed by
    /// `universe`.
    pub fn with_universe(capacity: usize, seed: u64, universe: &Universe) -> Self {
        ItemRandom {
            capacity: check_capacity(capacity),
            items: Vec::with_capacity(capacity),
            index: universe.item_index(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl GcPolicy for ItemRandom {
    fn name(&self) -> String {
        format!("ItemRandom(k={})", self.capacity)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.index.contains(item.0)
    }

    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        if self.index.contains(item.0) {
            return AccessKind::Hit;
        }
        out.clear();
        out.loaded.push(item);
        if self.items.len() == self.capacity {
            let pos = self.rng.gen_range(0..self.items.len());
            let victim = self.items.swap_remove(pos);
            self.index.remove(victim.0);
            if pos < self.items.len() {
                self.index.insert(self.items[pos].0, pos as u32);
            }
            out.evicted.push(victim);
        }
        self.index.insert(item.0, self.items.len() as u32);
        self.items.push(item);
        AccessKind::Miss
    }

    fn reset(&mut self) {
        self.items.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::both_universes;
    use crate::Gcm;
    use gc_types::AccessResult;
    use gc_types::BlockMap;
    use std::collections::{BTreeMap, BTreeSet};

    /// The classic marking algorithm: GCM that never co-loads.
    fn marking(capacity: usize, seed: u64) -> Gcm {
        Gcm::with_coload_limit(capacity, BlockMap::singleton(), seed, 0)
    }

    fn drive(policy: &mut impl GcPolicy, ids: &[u64]) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for &id in ids {
            match policy.access(ItemId(id)) {
                AccessResult::Hit => hits += 1,
                AccessResult::Miss { .. } => misses += 1,
            }
        }
        (hits, misses)
    }

    /// Invariant check shared by all item policies.
    fn invariants(policy: &mut impl GcPolicy, ids: &[u64]) {
        for &id in ids {
            let item = ItemId(id);
            let was_present = policy.contains(item);
            let result = policy.access(item);
            assert_eq!(result.is_hit(), was_present, "contains/access disagree");
            if let AccessResult::Miss { loaded, evicted } = &result {
                assert_eq!(loaded, &vec![item], "item caches load only the request");
                for e in evicted {
                    assert!(!policy.contains(*e), "evicted item still present");
                }
            }
            assert!(
                policy.contains(item),
                "requested item must be resident after access"
            );
            assert!(policy.len() <= policy.capacity(), "capacity exceeded");
        }
    }

    fn pseudo_ids(len: usize, universe: u64) -> Vec<u64> {
        let mut x = 0x9E37_79B9u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % universe
            })
            .collect()
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = ItemLru::new(2);
        c.access(ItemId(1));
        c.access(ItemId(2));
        c.access(ItemId(1)); // 1 is now MRU
        let r = c.access(ItemId(3));
        assert_eq!(r.evicted(), &[ItemId(2)]);
        assert!(c.contains(ItemId(1)));
        assert!(!c.contains(ItemId(2)));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = ItemFifo::new(2);
        c.access(ItemId(1));
        c.access(ItemId(2));
        c.access(ItemId(1)); // hit: does NOT refresh
        let r = c.access(ItemId(3));
        assert_eq!(
            r.evicted(),
            &[ItemId(1)],
            "FIFO evicts first-in despite the hit"
        );
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut c = ItemClock::new(2);
        c.access(ItemId(1));
        c.access(ItemId(2));
        c.access(ItemId(1)); // sets 1's ref bit
        let r = c.access(ItemId(3));
        // Hand passes 1 (referenced: cleared), evicts 2.
        assert_eq!(r.evicted(), &[ItemId(2)]);
        assert!(c.contains(ItemId(1)));
    }

    #[test]
    fn lfu_protects_frequent_items() {
        let mut c = ItemLfu::new(2);
        c.access(ItemId(1));
        c.access(ItemId(1));
        c.access(ItemId(1));
        c.access(ItemId(2));
        let r = c.access(ItemId(3));
        assert_eq!(
            r.evicted(),
            &[ItemId(2)],
            "the singleton loses to the hot item"
        );
    }

    #[test]
    fn lfu_ties_break_lru() {
        let mut c = ItemLfu::new(2);
        c.access(ItemId(1));
        c.access(ItemId(2));
        // Both have frequency 1; 1 is older.
        let r = c.access(ItemId(3));
        assert_eq!(r.evicted(), &[ItemId(1)]);
    }

    #[test]
    fn random_is_reproducible() {
        let ids = pseudo_ids(2000, 64);
        let mut a = ItemRandom::new(16, 42);
        let mut b = ItemRandom::new(16, 42);
        assert_eq!(drive(&mut a, &ids), drive(&mut b, &ids));
    }

    #[test]
    fn marking_hits_mark_items() {
        let mut c = marking(3, 1);
        c.access(ItemId(1));
        c.access(ItemId(2));
        c.access(ItemId(3));
        // All marked; next miss starts a new phase and evicts one of them.
        let r = c.access(ItemId(4));
        assert_eq!(r.evicted().len(), 1);
        assert!(c.contains(ItemId(4)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn marking_never_evicts_marked_while_unmarked_exist() {
        let mut c = marking(3, 7);
        c.access(ItemId(1)); // marked
        c.access(ItemId(2)); // marked
        c.access(ItemId(3)); // marked
                             // Phase reset on next miss, then re-mark 1.
        c.access(ItemId(4));
        c.access(ItemId(1));
        // 1 and 4 are marked; eviction must take 2 or 3.
        let r = c.access(ItemId(5));
        let v = r.evicted()[0];
        assert!(v == ItemId(2) || v == ItemId(3), "evicted {v}");
    }

    #[test]
    fn all_policies_satisfy_invariants() {
        let ids = pseudo_ids(5000, 100);
        invariants(&mut ItemLru::new(32), &ids);
        invariants(&mut ItemFifo::new(32), &ids);
        invariants(&mut ItemClock::new(32), &ids);
        invariants(&mut ItemLfu::new(32), &ids);
        invariants(&mut ItemRandom::new(32, 3), &ids);
        invariants(&mut marking(32, 3), &ids);
    }

    #[test]
    fn reset_restores_cold_cache() {
        let ids = pseudo_ids(100, 20);
        let mut c = ItemLru::new(8);
        drive(&mut c, &ids);
        c.reset();
        assert_eq!(c.len(), 0);
        let r = c.access(ItemId(ids[0]));
        assert!(r.is_miss());
    }

    #[test]
    fn capacity_one_caches_work() {
        for policy in [
            Box::new(ItemLru::new(1)) as Box<dyn GcPolicy>,
            Box::new(ItemFifo::new(1)),
            Box::new(ItemClock::new(1)),
            Box::new(ItemLfu::new(1)),
            Box::new(ItemRandom::new(1, 0)),
            Box::new(marking(1, 0)),
        ] {
            let mut p = policy;
            assert!(p.access(ItemId(1)).is_miss());
            assert!(p.access(ItemId(1)).is_hit());
            let r = p.access(ItemId(2));
            assert_eq!(r.evicted(), &[ItemId(1)], "{}", p.name());
            assert_eq!(p.len(), 1);
        }
    }

    #[test]
    fn lru_beats_fifo_on_hot_item_plus_scan() {
        // Hot item 0 interleaved with a cold scan. LRU pins the hot item
        // forever; FIFO cycles it out once per capacity-many cold items.
        let mut ids = Vec::with_capacity(20_000);
        for i in 0..10_000u64 {
            ids.push(0);
            ids.push(100 + i);
        }
        let (lru_hits, _) = drive(&mut ItemLru::new(64), &ids);
        let (fifo_hits, _) = drive(&mut ItemFifo::new(64), &ids);
        assert_eq!(lru_hits, 9_999, "LRU never evicts the hot item");
        assert!(fifo_hits < lru_hits, "lru={lru_hits} fifo={fifo_hits}");
    }

    /// Reference model: LFU's total order as a `BTreeSet` of
    /// `(freq, seq, item)`, where `seq` is the last-access clock.
    #[derive(Default)]
    struct LfuModel {
        clock: u64,
        entries: BTreeMap<u64, (u64, u64)>,
        order: BTreeSet<(u64, u64, u64)>,
    }

    impl LfuModel {
        /// `None` on a hit, the evicted items on a miss.
        fn access(&mut self, item: u64, capacity: usize) -> Option<Vec<u64>> {
            self.clock += 1;
            if let Some(&(freq, seq)) = self.entries.get(&item) {
                self.order.remove(&(freq, seq, item));
                self.order.insert((freq + 1, self.clock, item));
                self.entries.insert(item, (freq + 1, self.clock));
                return None;
            }
            let mut evicted = Vec::new();
            if self.entries.len() == capacity {
                let (_, _, victim) = self.order.pop_first().unwrap();
                self.entries.remove(&victim);
                evicted.push(victim);
            }
            self.order.insert((1, self.clock, item));
            self.entries.insert(item, (1, self.clock));
            Some(evicted)
        }
    }

    #[test]
    fn lfu_stress_against_reference_model() {
        for universe in both_universes(30) {
            let mut fast = ItemLfu::with_universe(8, &universe);
            let mut slow = LfuModel::default();
            let mut out = AccessScratch::new();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for step in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 997 == 0 {
                    fast.reset();
                    slow = LfuModel::default();
                    continue;
                }
                // Skewed keys, so frequencies spread over many buckets.
                let key = if x % 3 == 0 { x % 6 } else { x % 30 };
                let ctx = format!("dense={} step {step}", universe.is_dense());
                assert_eq!(
                    fast.contains(ItemId(key)),
                    slow.entries.contains_key(&key),
                    "{ctx}"
                );
                let kind = fast.access_into(ItemId(key), &mut out);
                match slow.access(key, 8) {
                    None => assert!(kind.is_hit(), "{ctx}"),
                    Some(evicted) => {
                        assert!(kind.is_miss(), "{ctx}");
                        let evicted: Vec<ItemId> = evicted.into_iter().map(ItemId).collect();
                        assert_eq!(out.evicted, evicted, "{ctx}");
                    }
                }
                assert_eq!(fast.len(), slow.entries.len(), "{ctx}");
                assert!(
                    fast.buckets.len() <= 9,
                    "{ctx}: bucket pool outgrew capacity + 1"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = ItemLru::new(0);
    }
}
