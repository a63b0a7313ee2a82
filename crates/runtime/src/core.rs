//! The per-shard critical section, shared verbatim by both execution
//! modes and by every request path.
//!
//! [`ShardCore::serve`] is the one place a request meets a shard. Its
//! access half is exactly the offline engine's loop body — policy access
//! through the zero-alloc `AccessScratch` path, spatial candidate
//! bookkeeping, counters — which is what keeps the 1-shard/1-thread
//! runtime **bit-identical** to `gc_sim::simulate` in every mode and at
//! every batch size: locked mode runs it under a mutex, owner mode runs it
//! on the shard's owner thread, and neither adds or removes a single
//! policy-visible operation. Its fetch half is the paper's other outcome:
//! a miss pays one load of its block, either inline here
//! ([`FetchPath::Inline`]) or deferred to the caller's single-flight fetch
//! ([`FetchPath::Coalesced`]). The core is built with the block map, fetch
//! path and backend of its runtime, so no caller decides the fetch again.
//!
//! Requests arrive in the runtime's ids. Over a compiled map each shard's
//! policy is built against the shard's own dense universe (only the blocks
//! routed to it, see [`BlockMap::partition_dense`]), so `serve` first
//! translates the item into that universe; the policy and the spatial
//! candidates see only local ids, and the fetch keeps the runtime's block.
//!
//! The core is generic over the policy's unsized type so owner threads,
//! which build and drive their policy entirely on one thread, do not need
//! the `Send` bound that locked mode's cross-thread mutex requires.

use crate::backend::BlockBackend;
use crate::config::FetchPath;
use crate::sync::Arc;
use gc_policies::GcPolicy;
use gc_sim::SpatialSet;
use gc_types::{
    AccessKind, AccessScratch, BlockId, BlockMap, GcError, ItemId, LocalIds, RuntimeStats,
};

/// What one request did inside its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Served {
    /// Resident; no fetch needed.
    Hit {
        /// First touch of a co-loaded item (spatial hit).
        spatial: bool,
    },
    /// Missed; the policy admitted `admitted` items and the shard loaded
    /// the block inline, `fetched` items.
    Fetched { admitted: usize, fetched: usize },
    /// Missed; the policy admitted `admitted` items and the caller must
    /// pay for (or join) the block fetch through the flight table.
    Deferred { admitted: usize },
}

/// The block of `item` under `map`, or the error every request path
/// reports for an item outside it.
#[inline]
pub(crate) fn block_of(map: &BlockMap, item: ItemId) -> Result<BlockId, GcError> {
    map.try_block_of(item).ok_or_else(|| {
        GcError::InvalidParameter(format!("item {item} is not in the runtime's block map"))
    })
}

/// One shard's policy state plus exactly the bookkeeping the offline
/// engine keeps per simulation, and what it needs to fetch a miss.
pub(crate) struct ShardCore<P: GcPolicy + ?Sized> {
    pub policy: Box<P>,
    scratch: AccessScratch,
    /// Items resident only by virtue of a co-load, not yet re-requested.
    candidates: SpatialSet,
    /// Runtime id → the shard's own dense id (compiled maps only; the
    /// sparse maps' hash-backed policy state takes runtime ids as they
    /// are). Shared by every shard of the runtime.
    local: Option<Arc<LocalIds>>,
    /// The runtime's map, which names the block a miss fetches.
    map: BlockMap,
    fetch: FetchPath,
    backend: Arc<dyn BlockBackend>,
    /// Reuse buffer for inline fetches (empty in coalesced mode).
    fetch_buf: Vec<ItemId>,
    /// Access-path counters; inline mode also accounts fetches here.
    pub stats: RuntimeStats,
}

impl<P: GcPolicy + ?Sized> ShardCore<P> {
    pub fn new(
        policy: Box<P>,
        local: Option<Arc<LocalIds>>,
        map: BlockMap,
        fetch: FetchPath,
        backend: Arc<dyn BlockBackend>,
    ) -> Self {
        ShardCore {
            policy,
            scratch: AccessScratch::new(),
            candidates: SpatialSet::new(),
            local,
            map,
            fetch,
            backend,
            fetch_buf: Vec::new(),
            stats: RuntimeStats::default(),
        }
    }

    /// Serve one request: run the engine's loop body, and on a miss either
    /// load the block inline or hand the fetch back to the caller.
    ///
    /// An inline load goes into the shard's reuse buffer and is accounted
    /// here: no allocation after the buffer warms up, no flight-table
    /// traffic, no timestamps. It trusts the [`BlockBackend`] contract
    /// that a successful load returns every item of the block — membership
    /// of the requested item is a debug assertion, not a per-miss
    /// release-mode scan (the coalesced path, which faces arbitrary
    /// concurrent backends behind real latency, keeps the hard check).
    ///
    /// # Errors
    ///
    /// The inline load's error, or [`GcError::InvalidParameter`] when an
    /// inline miss's item is outside the block map (callers check items
    /// before they reach a shard, so this does not happen through them).
    // lint: hot-path
    #[inline]
    pub fn serve(&mut self, item: ItemId) -> Result<Served, GcError> {
        let local = match &self.local {
            Some(ids) => ids.item(item),
            None => item,
        };
        match self.policy.access_into(local, &mut self.scratch) {
            AccessKind::Hit => {
                let spatial = self.candidates.remove(local);
                self.stats.accesses += 1;
                if spatial {
                    self.stats.spatial_hits += 1;
                } else {
                    self.stats.temporal_hits += 1;
                }
                self.stats.peak_len = self.stats.peak_len.max(self.policy.len());
                Ok(Served::Hit { spatial })
            }
            AccessKind::Miss => {
                self.candidates.record_miss(local, &self.scratch);
                let admitted = self.scratch.loaded.len();
                self.stats.accesses += 1;
                self.stats.misses += 1;
                self.stats.admitted_items += admitted as u64;
                self.stats.evicted_items += self.scratch.evicted.len() as u64;
                self.stats.peak_len = self.stats.peak_len.max(self.policy.len());
                match self.fetch {
                    FetchPath::Coalesced => Ok(Served::Deferred { admitted }),
                    FetchPath::Inline => {
                        let block = block_of(&self.map, item)?;
                        self.backend.load_block_into(block, &mut self.fetch_buf)?;
                        debug_assert!(
                            self.fetch_buf.contains(&item),
                            "fetched block {block} does not contain requested item {item}"
                        );
                        let fetched = self.fetch_buf.len();
                        self.stats.backend_fetches += 1;
                        self.stats.fetched_items += fetched as u64;
                        Ok(Served::Fetched { admitted, fetched })
                    }
                }
            }
        }
    }

    /// Return the shard to its post-construction state.
    pub fn reset(&mut self) {
        self.policy.reset();
        self.candidates.clear();
        self.stats = RuntimeStats::default();
    }
}
