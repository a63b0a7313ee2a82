//! Per-access outcome vocabulary shared by policies and the simulator.

use crate::ItemId;

/// How a cache hit was earned (§2 of the paper).
///
/// * A **temporal** hit comes from the item's own earlier access keeping it
///   resident.
/// * A **spatial** hit happens when the item is resident only because a miss
///   on a *different* item of the same block co-loaded it. Only the first
///   such hit is spatial; once an item has been requested, later hits to it
///   are temporal (it "would have been brought in anyway").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HitKind {
    /// Hit earned by temporal locality.
    Temporal,
    /// Hit earned by spatial locality (first touch of a co-loaded item).
    Spatial,
}

/// Whether an access hit or missed, without any payload.
///
/// This is the return type of the zero-allocation access path
/// (`GcPolicy::access_into` in `gc-policies`): the load/evict payload of a
/// miss goes into a caller-owned [`AccessScratch`] instead of freshly
/// allocated `Vec`s, so the hot loop of the simulator performs no heap
/// allocation per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The requested item was resident.
    Hit,
    /// The requested item was absent; one unit of cost was paid.
    Miss,
}

impl AccessKind {
    /// Whether this access was a hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessKind::Hit)
    }

    /// Whether this access was a miss (i.e. cost one unit).
    #[inline]
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

/// Caller-owned, reusable buffers for one access's load/evict report.
///
/// A policy's `access_into` clears and refills these on every **miss**; on
/// a hit the contents are stale and must not be read. Reusing one scratch
/// across a whole simulation keeps the per-access hot path allocation-free
/// (the buffers quickly reach the high-water mark — at most `B` loads and
/// a handful of evictions per miss — and are never reallocated again).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessScratch {
    /// Items loaded from the requested item's block (includes the
    /// requested item itself). Valid only after a miss.
    pub loaded: Vec<ItemId>,
    /// Items evicted to make room. Valid only after a miss.
    pub evicted: Vec<ItemId>,
}

impl AccessScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        AccessScratch::default()
    }

    /// A scratch with room for `loaded` loads and `evicted` evictions,
    /// avoiding even the warm-up reallocations.
    pub fn with_capacity(loaded: usize, evicted: usize) -> Self {
        AccessScratch {
            loaded: Vec::with_capacity(loaded),
            evicted: Vec::with_capacity(evicted),
        }
    }

    /// Empty both buffers, keeping their allocations. Policies call this at
    /// the top of every miss path.
    #[inline]
    pub fn clear(&mut self) {
        self.loaded.clear();
        self.evicted.clear();
    }

    /// Materialize an [`AccessResult`] from this scratch, draining the
    /// buffers on a miss. Used by the allocating convenience wrapper.
    pub fn take_result(&mut self, kind: AccessKind) -> AccessResult {
        match kind {
            AccessKind::Hit => AccessResult::Hit,
            AccessKind::Miss => AccessResult::Miss {
                loaded: std::mem::take(&mut self.loaded),
                evicted: std::mem::take(&mut self.evicted),
            },
        }
    }
}

/// The outcome of one cache access as reported by a policy.
///
/// On a miss the policy reports exactly which items it chose to load from
/// the missing item's block (always including the requested item — the
/// model forbids loading a subset that excludes it) and which resident
/// items it evicted to make room.
///
/// This owned form is the convenience vocabulary; the
/// simulator's hot path uses [`AccessKind`] + [`AccessScratch`] instead to
/// avoid the two `Vec` allocations per miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The requested item was resident.
    Hit,
    /// The requested item was absent; one unit of cost was paid.
    Miss {
        /// Items loaded from the requested item's block (includes the
        /// requested item itself).
        loaded: Vec<ItemId>,
        /// Items evicted to make room.
        evicted: Vec<ItemId>,
    },
}

impl AccessResult {
    /// Whether this access was a hit.
    #[inline]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// Whether this access was a miss (i.e. cost one unit).
    #[inline]
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }

    /// The items loaded by this access (empty for hits).
    pub fn loaded(&self) -> &[ItemId] {
        match self {
            AccessResult::Hit => &[],
            AccessResult::Miss { loaded, .. } => loaded,
        }
    }

    /// The items evicted by this access (empty for hits).
    pub fn evicted(&self) -> &[ItemId] {
        match self {
            AccessResult::Hit => &[],
            AccessResult::Miss { evicted, .. } => evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_accessors() {
        let r = AccessResult::Hit;
        assert!(r.is_hit());
        assert!(!r.is_miss());
        assert!(r.loaded().is_empty());
        assert!(r.evicted().is_empty());
    }

    #[test]
    fn miss_accessors() {
        let r = AccessResult::Miss {
            loaded: vec![ItemId(1), ItemId(2)],
            evicted: vec![ItemId(9)],
        };
        assert!(r.is_miss());
        assert_eq!(r.loaded(), &[ItemId(1), ItemId(2)]);
        assert_eq!(r.evicted(), &[ItemId(9)]);
    }

    #[test]
    fn hit_kind_is_copy_and_eq() {
        let a = HitKind::Spatial;
        let b = a;
        assert_eq!(a, b);
        assert_ne!(HitKind::Spatial, HitKind::Temporal);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Hit.is_hit());
        assert!(!AccessKind::Hit.is_miss());
        assert!(AccessKind::Miss.is_miss());
        assert!(!AccessKind::Miss.is_hit());
    }

    #[test]
    fn scratch_clear_keeps_capacity() {
        let mut s = AccessScratch::with_capacity(8, 4);
        s.loaded.extend([ItemId(1), ItemId(2)]);
        s.evicted.push(ItemId(9));
        let cap = s.loaded.capacity();
        s.clear();
        assert!(s.loaded.is_empty() && s.evicted.is_empty());
        assert_eq!(s.loaded.capacity(), cap, "clear must not shrink");
    }

    #[test]
    fn scratch_take_result() {
        let mut s = AccessScratch::new();
        assert_eq!(s.take_result(AccessKind::Hit), AccessResult::Hit);
        s.loaded.push(ItemId(3));
        s.evicted.push(ItemId(7));
        let r = s.take_result(AccessKind::Miss);
        assert_eq!(r.loaded(), &[ItemId(3)]);
        assert_eq!(r.evicted(), &[ItemId(7)]);
        assert!(s.loaded.is_empty() && s.evicted.is_empty());
    }
}
