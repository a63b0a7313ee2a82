//! # gc-policies
//!
//! Online replacement policies for the Granularity-Change Caching Problem.
//!
//! The model (Definition 1 of the paper): items have unit size, the item
//! universe is partitioned into blocks of at most `B` items, and on a miss
//! the cache may load **any subset of the missing item's block for one unit
//! of cost** (the subset must contain the requested item). Items are cached
//! and evicted individually — that freedom is what separates GC caching
//! from variable-size caching.
//!
//! ## Policy families
//!
//! * **Item caches** ([`item`]) load only the requested item: [`ItemLru`],
//!   [`ItemFifo`], [`ItemClock`], [`ItemLfu`], [`ItemRandom`], and the
//!   classic marking algorithm, which is [`Gcm`] with no co-loads
//!   (`item-marking`). They capture temporal locality and ignore spatial
//!   locality (Theorem 2 shows they forfeit a factor `≈ B`).
//! * **Block caches** ([`block`]) load *and evict* whole blocks:
//!   [`BlockLru`], [`BlockFifo`]. They capture spatial locality but one
//!   hot item pins `B` lines (Theorem 3 shows the effective size drops to
//!   `k/B`).
//! * **IBLP** ([`iblp`]) — *Item-Block Layered Partitioning*, the paper's
//!   policy (§5): an item-granular LRU front layer of size `i` backed by a
//!   block-granular LRU layer of size `b`. Loads whole blocks, evicts
//!   items; competitive ratio within ~3× of the general lower bound.
//!   [`IblpConfig`] switches the two §5.1 design choices off one at a time
//!   for the ablations ([`Iblp::with_config`]).
//! * **GCM** ([`gcm`]) — *Granularity-Change Marking* (§6): a randomized
//!   marking policy that co-loads a block's items unmarked, so spatial
//!   guesses never displace items with proven temporal locality.
//! * **ThresholdLoad** ([`loadk`]) — the `a`-parameter family of Theorem 4:
//!   loads the full block only after `a` distinct items of the block have
//!   been requested. `a = 1` and `a = B` are the extremes §4.4 recommends.
//! * **Extended item-cache roster** — [`TwoQ`], [`Slru`], [`LruK`], and
//!   [`WTinyLfu`] (with its [`CountMinSketch`] substrate): production
//!   scan-resistant policies, all still subject to the Theorem 2 item-cache
//!   lower bound.
//! * **Extensions** ([`adaptive_iblp`]) — an ARC-style ghost-list
//!   adaptation of the IBLP split, built on IBLP's own layers (§5.3 shows
//!   no static split is right for every comparison size).
//!
//! All policies implement [`GcPolicy`] and report per-access
//! [`AccessResult`]s precise enough for the simulator to attribute hits to
//! temporal vs spatial locality.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive_iblp;
pub mod block;
pub mod factory;
pub mod gcm;
pub mod iblp;
pub mod item;
pub mod loadk;
pub mod lru_list;
pub mod lruk;
pub mod sketch;
pub mod slab;
pub mod slru;
pub mod tinylfu;
pub mod twoq;

pub use adaptive_iblp::AdaptiveIblp;
pub use block::{BlockFifo, BlockLru};
pub use factory::PolicyKind;
pub use gcm::Gcm;
pub use iblp::{Iblp, IblpConfig};
pub use item::{ItemClock, ItemFifo, ItemLfu, ItemLru, ItemRandom};
pub use loadk::ThresholdLoad;
pub use lruk::LruK;
pub use sketch::CountMinSketch;
pub use slab::{KeyIndex, KeySet, Universe};
pub use slru::Slru;
pub use tinylfu::WTinyLfu;
pub use twoq::TwoQ;

use gc_types::{AccessKind, AccessResult, AccessScratch, ItemId};

/// An online cache policy for the GC Caching Problem.
///
/// Implementations own their [`BlockMap`](gc_types::BlockMap) (it is
/// `Arc`-backed and cheap to clone) and their full replacement state. The
/// simulator drives them one request at a time through [`access_into`],
/// reusing a single [`AccessScratch`] so the steady-state hot path never
/// touches the heap. The allocating [`access`] wrapper remains for tests
/// and one-off callers.
///
/// [`access`]: GcPolicy::access
/// [`access_into`]: GcPolicy::access_into
pub trait GcPolicy {
    /// Human-readable policy name, including salient parameters.
    fn name(&self) -> String;

    /// Total capacity `k` in items.
    fn capacity(&self) -> usize;

    /// Items currently resident.
    fn len(&self) -> usize;

    /// Whether the cache currently holds `item` (i.e. a request to it now
    /// would hit).
    fn contains(&self, item: ItemId) -> bool;

    /// Serve one request, mutating the cache and reporting what happened
    /// through the caller-owned scratch buffers.
    ///
    /// Contract: on a **miss** the policy clears `out` and fills
    /// `out.loaded` with exactly the items loaded (always including
    /// `item`) and `out.evicted` with the items evicted from the cache as
    /// a whole. On a **hit** the scratch is left untouched (its contents
    /// are stale and must not be read). Implementations must not allocate
    /// per call beyond the scratch's own one-time growth.
    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind;

    /// Serve one request, reporting the outcome as an owned
    /// [`AccessResult`] (allocating on misses).
    ///
    /// Convenience wrapper over [`access_into`](GcPolicy::access_into) for
    /// tests and non-hot-path callers; simulation loops should hold an
    /// [`AccessScratch`] and call `access_into` directly.
    fn access(&mut self, item: ItemId) -> AccessResult {
        let mut out = AccessScratch::new();
        let kind = self.access_into(item, &mut out);
        out.take_result(kind)
    }

    /// Clear all cached state, returning to the post-construction state.
    fn reset(&mut self);

    /// Whether the cache holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Boxed-policy convenience: a box around any policy (sized or trait
/// object, `Send` or not) is itself a policy, so `Box<dyn GcPolicy>` and
/// the runtime's per-shard `Box<dyn GcPolicy + Send>` both drive the
/// simulator directly.
impl<P: GcPolicy + ?Sized> GcPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn contains(&self, item: ItemId) -> bool {
        (**self).contains(item)
    }

    fn access_into(&mut self, item: ItemId, out: &mut AccessScratch) -> AccessKind {
        (**self).access_into(item, out)
    }

    fn access(&mut self, item: ItemId) -> AccessResult {
        (**self).access(item)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}
