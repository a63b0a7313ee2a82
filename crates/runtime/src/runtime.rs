//! The sharded, thread-safe GC-cache front end.
//!
//! Keys are hash-sharded **by block** to `S` independent shards, each
//! wrapping one policy instance, so items of the same block always land on
//! the same shard and the policy's block-granular decisions (co-loads,
//! block evictions, spatial attribution) stay coherent. The per-access
//! critical section is exactly the offline engine's loop body
//! ([`ShardCore::serve`](crate::core::ShardCore)), which is what makes
//! the 1-shard/1-thread runtime bit-identical to `gc_sim::simulate` on the
//! same trace — in **both** execution modes and at every batch size.
//!
//! How that critical section is reached is configured by
//! [`RuntimeConfig`]: locked shards driven in place by caller threads, or
//! owner threads fed through bounded queues (see [`config`](crate::config)
//! for the trade-offs). Depending on the [`FetchPath`](crate::FetchPath),
//! misses either fetch inline inside the critical section or leave the
//! shard and fetch through the striped [`SingleFlight`] table, where
//! concurrent misses on items of the same block coalesce into **one**
//! backend load; the shard core, built with the fetch path, decides which
//! for every request. The fetcher returns the whole block (the paper's
//! "rest of the block is free" rule); each miss's policy has already
//! chosen the subset it admits, and the runtime counts admitted vs
//! fetched items to measure that subset-selection.
//!
//! # Stats without shared atomics
//!
//! Access-path counters live inside each shard's critical section (mutex-
//! or owner-protected — private cache lines, no cross-core sharing).
//! Coalesced-path fetch counters are accumulated **session-locally** by
//! each caller and folded into per-shard accumulators at batch boundaries,
//! so the request hot path touches no shared `AtomicU64` at all.
//! [`per_shard_stats`](GcRuntime::per_shard_stats) takes a consistent
//! cross-shard cut: all shard locks held at once (locked mode) or a
//! barrier-aligned owner rendezvous (owner mode) — no more torn aggregates
//! from snapshotting shards one at a time mid-run. Fetch folds from
//! batches still in flight land at their next batch boundary; counters are
//! exact whenever callers are quiesced (which is when the harness reads
//! them).

use crate::backend::BlockBackend;
use crate::config::{ExecMode, RuntimeConfig};
use crate::core::{block_of, Served, ShardCore};
use crate::owner::{BatchJob, Msg, OwnerPool, ReplySlot};
use crate::session::Session;
use crate::singleflight::{FetchRole, SingleFlight};
use crate::sync::{Arc, Mutex};
use gc_policies::{GcPolicy, PolicyKind};
use gc_sim::SimStats;
use gc_types::{mix64, BlockId, BlockMap, GcError, ItemId, LatencyHistogram, RuntimeStats};
use std::time::Duration;

/// The outcome of one runtime access, as seen by the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The item was resident.
    Hit {
        /// Whether this was the item's first touch after being co-loaded
        /// by a sibling's miss (§2's spatial-locality hit).
        spatial: bool,
    },
    /// The item was absent; a block fetch was paid for (or joined).
    Miss {
        /// Whether this miss coalesced onto an in-flight fetch of the
        /// same block instead of performing its own backend load.
        coalesced: bool,
        /// Items the backend's fetch returned (the whole block).
        fetched_items: usize,
        /// Items this miss's policy chose to admit from the block.
        admitted_items: usize,
    },
}

impl ServeOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, ServeOutcome::Hit { .. })
    }

    /// Whether the access missed.
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

/// Session-local accumulator for coalesced-path fetch telemetry. Lives in
/// caller-private memory on the hot path; folded into the per-shard
/// accumulator at batch boundaries.
#[derive(Clone, Debug, Default)]
pub(crate) struct FetchStats {
    pub backend_fetches: u64,
    pub coalesced_fetches: u64,
    pub fetched_items: u64,
    pub latency: LatencyHistogram,
    /// Coalesced fetches that genuinely parked on the flight table —
    /// delayed hits, with their wait-time distribution. Same-flush dedup
    /// repeats are coalesced but *not* delayed (zero wait, same window).
    pub delayed_hits: u64,
    pub waiter_wait: LatencyHistogram,
}

impl FetchStats {
    #[inline]
    pub fn record_lead(&mut self, fetched: usize, latency: Duration) {
        self.backend_fetches += 1;
        self.fetched_items += fetched as u64;
        self.latency
            .record(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    #[inline]
    pub fn record_coalesced(&mut self) {
        self.coalesced_fetches += 1;
    }

    #[inline]
    pub fn record_delayed(&mut self, wait: Duration) {
        self.coalesced_fetches += 1;
        self.delayed_hits += 1;
        self.waiter_wait
            .record(wait.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn is_empty(&self) -> bool {
        self.backend_fetches == 0 && self.coalesced_fetches == 0 && self.fetched_items == 0
    }

    pub fn merge(&mut self, other: &FetchStats) {
        self.backend_fetches += other.backend_fetches;
        self.coalesced_fetches += other.coalesced_fetches;
        self.fetched_items += other.fetched_items;
        self.latency.merge(&other.latency);
        self.delayed_hits += other.delayed_hits;
        self.waiter_wait.merge(&other.waiter_wait);
    }

    pub fn clear(&mut self) {
        self.backend_fetches = 0;
        self.coalesced_fetches = 0;
        self.fetched_items = 0;
        self.latency.clear();
        self.delayed_hits = 0;
        self.waiter_wait.clear();
    }

    fn fold_into(&self, stats: &mut RuntimeStats) {
        stats.backend_fetches += self.backend_fetches;
        stats.coalesced_fetches += self.coalesced_fetches;
        stats.fetched_items += self.fetched_items;
        stats.fetch_latency.merge(&self.latency);
        stats.delayed_hits += self.delayed_hits;
        stats.waiter_wait.merge(&self.waiter_wait);
    }
}

/// The two shard execution engines behind one API.
enum Engine {
    /// Shards behind mutexes; caller threads run the policy in place.
    Locked(Vec<Mutex<ShardCore<dyn GcPolicy + Send>>>),
    /// One owner thread per shard, fed by bounded MPSC queues.
    Owner(OwnerPool),
}

/// A thread-safe, shard-partitioned GC cache runtime.
///
/// ```
/// use gc_policies::PolicyKind;
/// use gc_runtime::{GcRuntime, SyntheticBackend};
/// use gc_types::{BlockMap, ItemId};
/// use std::sync::Arc;
///
/// let map = BlockMap::strided(4);
/// let backend = Arc::new(SyntheticBackend::new(map.clone()));
/// let rt = GcRuntime::new(&PolicyKind::IblpBalanced, 64, map, 2, backend).unwrap();
/// assert!(rt.get(ItemId(0)).unwrap().is_miss());
/// assert!(rt.get(ItemId(0)).unwrap().is_hit());
/// let stats = rt.aggregate_stats();
/// assert_eq!(stats.accesses, 2);
/// assert_eq!(stats.hits() + stats.misses, 2);
/// ```
pub struct GcRuntime {
    config: RuntimeConfig,
    map: BlockMap,
    backend: Arc<dyn BlockBackend>,
    flight: SingleFlight,
    engine: Engine,
    /// Strength-reduced block → shard routing (hot path: one request ≈
    /// tens of ns, so an integer division here is measurable).
    route: ShardRoute,
    /// Per-shard folds of session-local coalesced-path fetch stats.
    fetch_folds: Vec<Mutex<FetchStats>>,
}

/// Block → shard routing, strength-reduced at construction.
#[derive(Clone, Copy)]
enum ShardRoute {
    /// One shard: no hash, no division.
    Single,
    /// Power-of-two shard count: hash then mask.
    Mask(u64),
    /// General shard count: hash then modulo.
    Mod(u64),
}

impl ShardRoute {
    fn new(shards: usize) -> ShardRoute {
        if shards == 1 {
            ShardRoute::Single
        } else if shards.is_power_of_two() {
            ShardRoute::Mask(shards as u64 - 1)
        } else {
            ShardRoute::Mod(shards as u64)
        }
    }

    /// Shard index of a block (block-affine hash). For power-of-two shard
    /// counts `hash & (S-1) == hash % S`, so the strength reduction never
    /// changes placement.
    #[inline]
    fn shard(self, block: BlockId) -> usize {
        match self {
            ShardRoute::Single => 0,
            ShardRoute::Mask(mask) => (mix64(block.0) & mask) as usize,
            ShardRoute::Mod(n) => (mix64(block.0) % n) as usize,
        }
    }
}

/// Split `capacity` lines over `shards` shards as evenly as possible
/// (first `capacity % shards` shards get one extra line).
pub fn shard_capacities(capacity: usize, shards: usize) -> Vec<usize> {
    let base = capacity / shards;
    let extra = capacity % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

impl GcRuntime {
    /// Build a runtime with default execution knobs (locked shards, no
    /// batching, coalesced fetches): `shards` independent instances of
    /// `kind`, each sized to its share of `capacity`, serving blocks from
    /// `backend`.
    ///
    /// With `shards == 1` the lone shard gets the full capacity, which is
    /// what makes single-shard runs directly comparable (bit-identical on
    /// hit/miss stats, single-threaded) to `gc_sim::simulate`.
    ///
    /// # Errors
    ///
    /// [`GcError::ZeroShards`] for `shards == 0`, [`GcError::ZeroCapacity`]
    /// for `capacity == 0`, and [`GcError::CapacityTooSmall`] when
    /// `capacity < shards` (some shard would have no lines at all) or some
    /// shard's share is below [`PolicyKind::min_capacity`].
    pub fn new(
        kind: &PolicyKind,
        capacity: usize,
        map: BlockMap,
        shards: usize,
        backend: Arc<dyn BlockBackend>,
    ) -> Result<GcRuntime, GcError> {
        GcRuntime::with_config(kind, capacity, map, RuntimeConfig::new(shards), backend)
    }

    /// Build a runtime with explicit execution knobs (mode, batching,
    /// fetch path, queue depth). See [`RuntimeConfig`].
    ///
    /// # Errors
    ///
    /// Everything [`new`](Self::new) rejects, plus invalid `batch` /
    /// `queue_depth` values.
    pub fn with_config(
        kind: &PolicyKind,
        capacity: usize,
        map: BlockMap,
        config: RuntimeConfig,
        backend: Arc<dyn BlockBackend>,
    ) -> Result<GcRuntime, GcError> {
        config.validate(capacity)?;
        // The smallest shard gets ⌊capacity / shards⌋ lines.
        let required = kind.min_capacity(map.max_block_size()) * config.shards;
        if capacity < required {
            return Err(GcError::CapacityTooSmall { capacity, required });
        }
        let route = ShardRoute::new(config.shards);
        // Over a compiled map each shard's policy gets a dense universe of
        // the blocks routed to it alone, so its arrays scale with its share
        // of the universe; sparse maps serve every shard as they are.
        let (policy_maps, local) = match map.partition_dense(config.shards, |b| route.shard(b)) {
            Some(split) => (split.parts, Some(Arc::new(split.local))),
            None => (vec![map.clone(); config.shards], None),
        };
        let shards: Vec<(usize, BlockMap)> = shard_capacities(capacity, config.shards)
            .into_iter()
            .zip(policy_maps)
            .collect();
        let engine = match config.mode {
            ExecMode::Locked => Engine::Locked(
                shards
                    .iter()
                    .map(|(c, policy_map)| {
                        Mutex::new(ShardCore::new(
                            kind.build_send(*c, policy_map),
                            local.clone(),
                            map.clone(),
                            config.fetch,
                            Arc::clone(&backend),
                        ))
                    })
                    .collect(),
            ),
            ExecMode::Owner => Engine::Owner(OwnerPool::new(
                kind,
                shards,
                &local,
                &map,
                &backend,
                config.fetch,
                config.queue_depth,
            )),
        };
        let fetch_folds = (0..config.shards)
            .map(|_| Mutex::new(FetchStats::default()))
            .collect();
        Ok(GcRuntime {
            route,
            config,
            map,
            backend,
            flight: SingleFlight::new(),
            engine,
            fetch_folds,
        })
    }

    /// The runtime's execution configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    pub(crate) fn map(&self) -> &BlockMap {
        &self.map
    }

    /// Shard index of a block (block-affine hash).
    #[inline]
    pub(crate) fn shard_index(&self, block: BlockId) -> usize {
        self.route.shard(block)
    }

    /// The shard serving `item` — block-affine: every item of a block maps
    /// to the same shard, so block-granular policy decisions stay local.
    pub fn shard_of(&self, item: ItemId) -> Option<usize> {
        let block = self.map.try_block_of(item)?;
        Some(self.shard_index(block))
    }

    /// Whether this runtime was built against the same dense map as
    /// `other` (table-level equality, so a clone or an identical
    /// recompilation both pass). Compiled serving requires this: dense ids
    /// are only meaningful against the map that assigned them.
    pub(crate) fn same_dense_map(&self, other: &BlockMap) -> bool {
        // Decoder equality checks pointers first: map clones share their
        // decode tables, so the common case never walks the vectors.
        match (self.map.dense_universe(), other.dense_universe()) {
            (Some(a), Some(b)) => a.decoder() == b.decoder(),
            _ => false,
        }
    }

    /// Open a batched session: the hot-path handle that groups requests
    /// per shard and amortizes synchronization over
    /// [`RuntimeConfig::batch`] accesses. Sessions are cheap but not free
    /// (a few vectors per shard); open one per worker thread, not one per
    /// request.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Serve one request.
    ///
    /// Convenience single-request path (one synchronization event per
    /// call); throughput-sensitive callers should use [`session`]
    /// (Self::session). Hits complete inside the shard's critical section.
    /// Misses run the policy (admission + eviction) there too, then fetch
    /// the block inline or through the single-flight table depending on
    /// [`RuntimeConfig::fetch`].
    pub fn get(&self, item: ItemId) -> Result<ServeOutcome, GcError> {
        let block = block_of(&self.map, item)?;
        let shard = self.shard_index(block);

        // Phase 1 — the engine's loop body inside the shard's critical
        // section; inline fetches complete there as well.
        let served = match &self.engine {
            Engine::Locked(shards) => shards[shard].lock().serve(item)?,
            Engine::Owner(pool) => {
                let slot = ReplySlot::new();
                pool.send(
                    shard,
                    Msg::Batch {
                        job: BatchJob {
                            items: vec![item],
                            replies: Vec::new(),
                        },
                        slot: Arc::clone(&slot),
                    },
                );
                let mut job = slot.wait();
                // lint: allow(panic): the owner loop pushes exactly one
                // reply per item and this job carried exactly one item.
                job.replies.pop().expect("one reply per request")?
            }
        };
        let admitted = match served {
            Served::Hit { spatial } => return Ok(ServeOutcome::Hit { spatial }),
            Served::Fetched { admitted, fetched } => {
                return Ok(ServeOutcome::Miss {
                    coalesced: false,
                    fetched_items: fetched,
                    admitted_items: admitted,
                })
            }
            Served::Deferred { admitted } => admitted,
        };

        // Phase 2 — the unit-cost block fetch through the single-flight
        // table, outside the shard.
        let mut local = FetchStats::default();
        let mut buf = Vec::new();
        let outcome = self.coalesced_fetch(block, item, admitted, &mut buf, &mut local);
        self.fold_fetch(shard, &local);
        outcome
    }

    /// The shared coalesced-path fetch: one single-flight exchange that
    /// leaves the block in the caller's reuse buffer `buf`, telemetry
    /// recorded into a caller-local accumulator.
    pub(crate) fn coalesced_fetch(
        &self,
        block: BlockId,
        item: ItemId,
        admitted: usize,
        buf: &mut Vec<ItemId>,
        local: &mut FetchStats,
    ) -> Result<ServeOutcome, GcError> {
        let (result, role) = self
            .flight
            .fetch_into(block.0, buf, |out| self.backend.load_block_into(block, out));
        result?;
        let payload = &*buf;
        if !payload.contains(&item) {
            return Err(GcError::Backend {
                block,
                message: format!("fetched block does not contain requested item {item}"),
            });
        }
        match role {
            FetchRole::Led { latency } => {
                local.record_lead(payload.len(), latency);
                Ok(ServeOutcome::Miss {
                    coalesced: false,
                    fetched_items: payload.len(),
                    admitted_items: admitted,
                })
            }
            FetchRole::Coalesced { wait } => {
                // `fetched_items` counts backend supply, so only the led
                // fetch accounts the payload; waiters share it for free —
                // but they *waited* on it, which is what the delayed-hit
                // counter and wait histogram capture.
                local.record_delayed(wait);
                Ok(ServeOutcome::Miss {
                    coalesced: true,
                    fetched_items: payload.len(),
                    admitted_items: admitted,
                })
            }
        }
    }

    /// Fold a caller-local fetch accumulator into its shard's fold.
    pub(crate) fn fold_fetch(&self, shard: usize, local: &FetchStats) {
        if !local.is_empty() {
            self.fetch_folds[shard].lock().merge(local);
        }
    }

    pub(crate) fn engine_locked(&self) -> Option<&[Mutex<ShardCore<dyn GcPolicy + Send>>]> {
        match &self.engine {
            Engine::Locked(shards) => Some(shards),
            Engine::Owner(_) => None,
        }
    }

    pub(crate) fn engine_owner(&self) -> Option<&OwnerPool> {
        match &self.engine {
            Engine::Locked(_) => None,
            Engine::Owner(pool) => Some(pool),
        }
    }

    /// Snapshot one shard's counters (access path + fetch path). Taken
    /// from the same consistent cut as [`per_shard_stats`]
    /// (Self::per_shard_stats).
    pub fn shard_stats(&self, shard: usize) -> RuntimeStats {
        self.per_shard_stats().swap_remove(shard)
    }

    /// Snapshot every shard's counters, in shard order, from one
    /// consistent cross-shard cut: locked mode holds every shard lock at
    /// once; owner mode pauses every owner at a shared barrier. Fetch
    /// folds from caller batches still in flight land at their next batch
    /// boundary — counters are exact at quiescent points.
    pub fn per_shard_stats(&self) -> Vec<RuntimeStats> {
        let mut stats: Vec<RuntimeStats> = match &self.engine {
            Engine::Locked(shards) => {
                let guards: Vec<_> = shards.iter().map(|s| s.lock()).collect();
                guards.iter().map(|g| g.stats.clone()).collect()
            }
            Engine::Owner(pool) => pool.snapshot_all(),
        };
        for (i, st) in stats.iter_mut().enumerate() {
            self.fetch_folds[i].lock().fold_into(st);
        }
        stats
    }

    /// Aggregate counters over all shards (one consistent cut), with the
    /// backend's per-tier fetch telemetry attached when the backend is
    /// tiered. Tiers are a backend-wide resource shared by every shard, so
    /// they appear only here, never in per-shard rows.
    pub fn aggregate_stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::default();
        for s in self.per_shard_stats() {
            total.merge(&s);
        }
        total.tiers = self.backend.tier_snapshot();
        total
    }

    /// Fold the aggregate runtime counters into the offline simulator's
    /// stats shape, so runtime results are directly comparable with
    /// `gc_sim::simulate` output: `admitted_items` maps to `items_loaded`
    /// (both count what the policy admitted, not what the backend
    /// fetched). The fetch-path telemetry has no simulator analogue and is
    /// dropped; read it via [`aggregate_stats`](Self::aggregate_stats).
    pub fn drain(&self) -> SimStats {
        let agg = self.aggregate_stats();
        SimStats {
            accesses: agg.accesses,
            misses: agg.misses,
            temporal_hits: agg.temporal_hits,
            spatial_hits: agg.spatial_hits,
            items_loaded: agg.admitted_items,
            items_evicted: agg.evicted_items,
            peak_len: agg.peak_len,
        }
    }

    /// Calls currently blocked on an in-flight fetch (diagnostic; see
    /// [`SingleFlight::pending_waiters`]).
    pub fn pending_coalesced_waiters(&self) -> usize {
        self.flight.pending_waiters()
    }

    /// Reset every shard to its post-construction state and zero all
    /// counters. Not linearizable with concurrent `get`s; quiesce first.
    pub fn reset(&self) {
        match &self.engine {
            Engine::Locked(shards) => {
                for s in shards {
                    s.lock().reset();
                }
            }
            Engine::Owner(pool) => pool.reset_all(),
        }
        for fold in &self.fetch_folds {
            fold.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SyntheticBackend;
    use crate::config::FetchPath;

    fn runtime(kind: &PolicyKind, capacity: usize, block_size: usize, shards: usize) -> GcRuntime {
        let map = BlockMap::strided(block_size);
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        GcRuntime::new(kind, capacity, map, shards, backend).unwrap()
    }

    fn all_configs(shards: usize) -> Vec<RuntimeConfig> {
        let mut cfgs = Vec::new();
        for mode in [ExecMode::Locked, ExecMode::Owner] {
            for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
                for batch in [1usize, 4] {
                    cfgs.push(
                        RuntimeConfig::new(shards)
                            .with_mode(mode)
                            .with_fetch(fetch)
                            .with_batch(batch),
                    );
                }
            }
        }
        cfgs
    }

    #[test]
    fn construction_guards() {
        let map = BlockMap::strided(4);
        let backend: Arc<dyn BlockBackend> = Arc::new(SyntheticBackend::new(map.clone()));
        assert!(matches!(
            GcRuntime::new(
                &PolicyKind::ItemLru,
                16,
                map.clone(),
                0,
                Arc::clone(&backend)
            ),
            Err(GcError::ZeroShards)
        ));
        assert!(matches!(
            GcRuntime::new(
                &PolicyKind::ItemLru,
                0,
                map.clone(),
                2,
                Arc::clone(&backend)
            ),
            Err(GcError::ZeroCapacity)
        ));
        assert!(matches!(
            GcRuntime::new(
                &PolicyKind::ItemLru,
                3,
                map.clone(),
                8,
                Arc::clone(&backend)
            ),
            Err(GcError::CapacityTooSmall { .. })
        ));
        // Every shard must hold one IBLP split: 2 shards × 2B lines.
        let iblp = |capacity| {
            GcRuntime::new(
                &PolicyKind::IblpBalanced,
                capacity,
                map.clone(),
                2,
                Arc::clone(&backend),
            )
        };
        assert_eq!(
            iblp(15).err(),
            Some(GcError::CapacityTooSmall {
                capacity: 15,
                required: 16
            })
        );
        assert!(iblp(16).is_ok());
    }

    #[test]
    fn capacity_splits_evenly_with_remainder_first() {
        assert_eq!(shard_capacities(16, 4), vec![4, 4, 4, 4]);
        assert_eq!(shard_capacities(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(shard_capacities(7, 1), vec![7]);
    }

    #[test]
    fn block_affine_sharding() {
        let rt = runtime(&PolicyKind::ItemLru, 64, 8, 4);
        // All items of one block map to the same shard.
        for block in 0..32u64 {
            let shard0 = rt.shard_of(ItemId(block * 8)).unwrap();
            for off in 1..8u64 {
                assert_eq!(rt.shard_of(ItemId(block * 8 + off)), Some(shard0));
            }
        }
        // And blocks actually spread over shards.
        let mut seen: Vec<usize> = (0..64u64)
            .map(|b| rt.shard_of(ItemId(b * 8)).unwrap())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 1, "blocks must spread across shards");
    }

    #[test]
    fn hit_miss_and_spatial_attribution_in_every_config() {
        // Mirrors the engine's doctest: BlockLru co-loads, first touches of
        // co-loaded items are spatial hits. Must hold in every mode, fetch
        // path, and batch size.
        let map = BlockMap::strided(4);
        for cfg in all_configs(1) {
            let backend = Arc::new(SyntheticBackend::new(map.clone()));
            let rt = GcRuntime::with_config(
                &PolicyKind::BlockLru,
                16,
                map.clone(),
                cfg.clone(),
                backend,
            )
            .unwrap();
            for id in [0u64, 1, 2, 1] {
                rt.get(ItemId(id)).unwrap();
            }
            let s = rt.aggregate_stats();
            assert_eq!(s.accesses, 4, "{cfg:?}");
            assert_eq!(s.misses, 1, "{cfg:?}");
            assert_eq!(s.spatial_hits, 2, "{cfg:?}");
            assert_eq!(s.temporal_hits, 1, "{cfg:?}");
            assert_eq!(s.backend_fetches, 1, "{cfg:?}");
            assert_eq!(s.coalesced_fetches, 0, "{cfg:?}");
            assert_eq!(s.fetched_items, 4, "{cfg:?}");
            if cfg.fetch == FetchPath::Coalesced {
                assert_eq!(s.fetch_latency.count(), 1, "{cfg:?}");
            }
        }
    }

    #[test]
    fn admitted_vs_fetched_measures_subset_selection() {
        // An item policy admits exactly one item per miss while the backend
        // always fetches the whole 4-item block.
        let rt = runtime(&PolicyKind::ItemLru, 16, 4, 1);
        for id in [0u64, 1, 2, 3] {
            let out = rt.get(ItemId(id)).unwrap();
            assert_eq!(
                out,
                ServeOutcome::Miss {
                    coalesced: false,
                    fetched_items: 4,
                    admitted_items: 1
                }
            );
        }
        let s = rt.aggregate_stats();
        assert_eq!(s.admitted_items, 4);
        assert_eq!(s.fetched_items, 16);
        assert!((s.admission_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn drain_folds_to_sim_shape() {
        let rt = runtime(&PolicyKind::IblpBalanced, 32, 4, 2);
        for id in 0..64u64 {
            rt.get(ItemId(id)).unwrap();
        }
        let agg = rt.aggregate_stats();
        let sim = rt.drain();
        assert_eq!(sim.accesses, agg.accesses);
        assert_eq!(sim.misses, agg.misses);
        assert_eq!(sim.temporal_hits, agg.temporal_hits);
        assert_eq!(sim.spatial_hits, agg.spatial_hits);
        assert_eq!(sim.items_loaded, agg.admitted_items);
        assert_eq!(sim.items_evicted, agg.evicted_items);
        assert_eq!(sim.hits() + sim.misses, sim.accesses);
    }

    #[test]
    fn unknown_item_is_a_clean_error() {
        let map = BlockMap::from_groups(vec![vec![ItemId(1), ItemId(2)]]).unwrap();
        for cfg in all_configs(1) {
            let backend = Arc::new(SyntheticBackend::new(map.clone()));
            let rt =
                GcRuntime::with_config(&PolicyKind::ItemLru, 8, map.clone(), cfg, backend).unwrap();
            assert!(matches!(
                rt.get(ItemId(99)),
                Err(GcError::InvalidParameter(_))
            ));
            assert!(rt.get(ItemId(1)).unwrap().is_miss());
        }
    }

    #[test]
    fn reset_returns_to_empty_in_both_modes() {
        let map = BlockMap::strided(4);
        for mode in [ExecMode::Locked, ExecMode::Owner] {
            let backend = Arc::new(SyntheticBackend::new(map.clone()));
            let rt = GcRuntime::with_config(
                &PolicyKind::ItemLru,
                8,
                map.clone(),
                RuntimeConfig::new(2).with_mode(mode),
                backend,
            )
            .unwrap();
            for id in 0..8u64 {
                rt.get(ItemId(id)).unwrap();
            }
            assert!(rt.aggregate_stats().accesses > 0);
            rt.reset();
            let s = rt.aggregate_stats();
            assert_eq!(s, RuntimeStats::default());
            assert!(rt.get(ItemId(0)).unwrap().is_miss(), "cache emptied");
        }
    }

    #[test]
    fn per_shard_stats_sum_to_aggregate() {
        let rt = runtime(&PolicyKind::ItemLru, 64, 4, 4);
        for id in 0..256u64 {
            rt.get(ItemId(id % 96)).unwrap();
        }
        let per = rt.per_shard_stats();
        let mut folded = RuntimeStats::default();
        for s in &per {
            folded.merge(s);
        }
        assert_eq!(folded, rt.aggregate_stats());
        assert_eq!(folded.accesses, 256);
    }

    #[test]
    fn inline_fetch_skips_latency_histogram() {
        let map = BlockMap::strided(4);
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        let rt = GcRuntime::with_config(
            &PolicyKind::ItemLru,
            16,
            map,
            RuntimeConfig::new(1).with_fetch(FetchPath::Inline),
            backend,
        )
        .unwrap();
        for id in 0..8u64 {
            rt.get(ItemId(id)).unwrap();
        }
        let s = rt.aggregate_stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.backend_fetches, 8);
        assert_eq!(s.coalesced_fetches, 0);
        assert!(s.fetch_latency.is_empty(), "inline fetches are not timed");
    }
}
