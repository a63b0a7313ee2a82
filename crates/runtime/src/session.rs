//! Batched request sessions: the runtime's hot-path handle.
//!
//! A [`Session`] groups consecutive requests by destination shard and
//! executes each group under **one** synchronization event — one mutex
//! acquire in locked mode, one queue hand-off in owner mode — so the
//! per-request cost of coordination falls roughly linearly in the batch
//! window. There is one buffered path at every shard count: every request,
//! pushed by hand, replayed by [`Session::run`] or streamed from a compiled
//! trace, enters a per-shard queue and reaches its shard through
//! `ShardCore::serve` at the next flush. Block lookup is the runtime's
//! [`BlockMap`](gc_types::BlockMap): a push that the map does not know is
//! refused before it is queued.
//!
//! Per-shard request order is exactly arrival order (groups are built by
//! appending and executed front to back), which is why batching is
//! invisible whenever one session drives each shard — one thread, or the
//! harness's shard-affine workers: the policy sees the same access
//! sequence per shard no matter the window size.
//!
//! Coalesced-path misses are *deferred*: the shard critical section only
//! classifies the access and runs the policy; the fetches happen after the
//! lock is released (or the owner reply returns), deduplicated per flush —
//! if several misses in one window land on the same block, one leads the
//! single-flight fetch and the rest are accounted as coalesced, mirroring
//! what concurrent callers would observe. Fetch telemetry accumulates in
//! session-local memory and folds into the runtime's per-shard
//! accumulators at flush boundaries, so the hot path shares no counters
//! with other threads.
//!
//! A session that returns an error from a flush is *poisoned*: pending
//! requests may be partially executed and further use is not meaningful.
//! Drop it; counters already accumulated are still folded on drop so
//! conservation laws keep holding. A refused push is not such an error:
//! nothing was queued, and the session keeps serving.

use crate::core::{block_of, Served};
use crate::owner::{BatchJob, Msg, ReplySlot};
use crate::runtime::{FetchStats, GcRuntime};
use crate::sync::Arc;
use gc_types::{CompiledTrace, FxHashMap, GcError, ItemId};

/// A per-worker batched request handle over a [`GcRuntime`].
///
/// ```
/// use gc_policies::PolicyKind;
/// use gc_runtime::{GcRuntime, RuntimeConfig, SyntheticBackend};
/// use gc_types::{BlockMap, ItemId};
/// use std::sync::Arc;
///
/// let map = BlockMap::strided(4);
/// let backend = Arc::new(SyntheticBackend::new(map.clone()));
/// let rt = GcRuntime::with_config(
///     &PolicyKind::ItemLru,
///     64,
///     map,
///     RuntimeConfig::new(2).with_batch(8),
///     backend,
/// )
/// .unwrap();
/// let mut session = rt.session();
/// session.run((0..32u64).map(ItemId)).unwrap();
/// session.finish().unwrap();
/// assert_eq!(rt.aggregate_stats().accesses, 32);
/// ```
pub struct Session<'rt> {
    rt: &'rt GcRuntime,
    batch: usize,
    /// Pending items per shard, in arrival order.
    items: Vec<Vec<ItemId>>,
    pending_total: usize,
    /// Owner mode: one reusable reply slot per shard.
    slots: Vec<Arc<ReplySlot>>,
    /// Owner mode: one recycled job per shard (vectors travel roundtrip).
    spare: Vec<BatchJob>,
    /// Scratch: shards a flush sent jobs to, in send order.
    sent: Vec<usize>,
    /// Scratch: coalesced-path misses deferred past the critical section.
    deferred: Vec<Deferred>,
    /// Scratch: per-flush block dedup (raw block ids already fetched).
    seen: FxHashMap<u64, ()>,
    /// Session-local fetch telemetry per shard, folded at flush.
    fetch_local: Vec<FetchStats>,
    /// Reuse buffer the coalesced path loads (or copies) blocks into.
    fetch_buf: Vec<ItemId>,
}

struct Deferred {
    shard: usize,
    item: ItemId,
    admitted: usize,
}

impl<'rt> Session<'rt> {
    pub(crate) fn new(rt: &'rt GcRuntime) -> Session<'rt> {
        let n = rt.shards();
        let owner = rt.engine_owner().is_some();
        Session {
            rt,
            batch: rt.config().batch,
            items: (0..n).map(|_| Vec::new()).collect(),
            pending_total: 0,
            slots: if owner {
                (0..n).map(|_| ReplySlot::new()).collect()
            } else {
                Vec::new()
            },
            spare: if owner {
                (0..n).map(|_| BatchJob::default()).collect()
            } else {
                Vec::new()
            },
            sent: Vec::new(),
            deferred: Vec::new(),
            seen: FxHashMap::default(),
            fetch_local: (0..n).map(|_| FetchStats::default()).collect(),
            fetch_buf: Vec::new(),
        }
    }

    /// Enqueue one request; flushes automatically when the batch window
    /// fills.
    ///
    /// # Errors
    ///
    /// [`GcError::InvalidParameter`] for items outside the block map
    /// (nothing is queued), or any error surfaced by an automatic flush.
    #[inline]
    pub fn push(&mut self, item: ItemId) -> Result<(), GcError> {
        let block = block_of(self.rt.map(), item)?;
        self.enqueue(self.rt.shard_index(block), item)
    }

    /// Queue `item` for `shard`, flushing when the window fills.
    #[inline]
    fn enqueue(&mut self, shard: usize, item: ItemId) -> Result<(), GcError> {
        self.items[shard].push(item);
        self.pending_total += 1;
        if self.pending_total >= self.batch {
            self.flush()?;
        }
        Ok(())
    }

    /// Serve every request from `trace` to completion (including a final
    /// flush of the tail window). Returns the number of requests served.
    /// Requests pushed earlier stay ahead of the trace's.
    pub fn run<I>(&mut self, trace: I) -> Result<u64, GcError>
    where
        I: IntoIterator<Item = ItemId>,
    {
        let mut served = 0u64;
        for item in trace {
            self.push(item)?;
            served += 1;
        }
        self.flush()?;
        Ok(served)
    }

    /// Serve, in trace order, exactly the accesses of `compiled` routed to
    /// the shards worker `worker` of `workers` owns (shard `s` belongs to
    /// worker `s % workers`) — one worker's share in
    /// `serve_trace_compiled`. Every shard sees the same subsequence at
    /// any `workers`; `worker == 0`, `workers == 1` replays everything.
    /// Includes a final flush; returns the number of requests served.
    ///
    /// The runtime must have been built against the same dense map the
    /// trace was compiled with (a clone or identical recompilation also
    /// passes) — dense ids are only meaningful against the map that
    /// assigned them. Routing reads each access's block off the dense map
    /// (a shift for a strided map, one array load for a CSR map), then
    /// costs one shard hash.
    /// Policy-visible stats are bit-identical to [`Session::run`] over the
    /// decoded trace on a 1-shard runtime, and to the same dense stream at
    /// any shard count (multi-shard routing hashes block *ids*, which
    /// renaming changes).
    ///
    /// # Errors
    ///
    /// [`GcError::InvalidParameter`] if the runtime's block map is not
    /// the trace's dense map, or any error surfaced by a flush.
    // lint: hot-path
    pub(crate) fn run_compiled_owned(
        &mut self,
        compiled: &CompiledTrace,
        worker: usize,
        workers: usize,
    ) -> Result<u64, GcError> {
        if !self.rt.same_dense_map(compiled.map()) {
            return Err(GcError::InvalidParameter(
                "compiled trace and runtime were built against different block maps".into(),
            ));
        }
        // Whether each shard is this worker's.
        let owned: Vec<bool> = (0..self.rt.shards())
            .map(|s| s % workers == worker)
            .collect();
        let map = compiled.map();
        let mut served = 0u64;
        for a in compiled.accesses() {
            let item = ItemId(u64::from(a.item));
            let shard = self.rt.shard_index(block_of(map, item)?);
            if owned[shard] {
                self.enqueue(shard, item)?;
                served += 1;
            }
        }
        self.flush()?;
        Ok(served)
    }

    /// Number of requests currently buffered, not yet executed.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Execute every buffered request now, one synchronization event per
    /// non-empty shard group, then run (deduplicated) coalesced fetches
    /// and fold fetch telemetry.
    pub fn flush(&mut self) -> Result<(), GcError> {
        if self.pending_total == 0 {
            return Ok(());
        }
        if let Some(shards) = self.rt.engine_locked() {
            for (shard, shard_mutex) in shards.iter().enumerate() {
                let items = &mut self.items[shard];
                if items.is_empty() {
                    continue;
                }
                {
                    let mut core = shard_mutex.lock();
                    for &item in items.iter() {
                        if let Served::Deferred { admitted } = core.serve(item)? {
                            self.deferred.push(Deferred {
                                shard,
                                item,
                                admitted,
                            });
                        }
                    }
                }
                items.clear();
            }
        } else {
            self.flush_owner()?;
        }
        self.pending_total = 0;
        self.run_deferred()?;
        self.fold();
        Ok(())
    }

    /// Owner-mode flush: hand every non-empty shard group to its owner
    /// first (so owners overlap across shards), then collect replies in
    /// send order. Jobs and their vectors are recycled roundtrip.
    fn flush_owner(&mut self) -> Result<(), GcError> {
        // lint: allow(panic): flush_owner is only called when the runtime
        // was built in owner mode; the engine variant is fixed at build.
        let pool = self.rt.engine_owner().expect("owner mode");
        self.sent.clear();
        for shard in 0..pool.shards() {
            if self.items[shard].is_empty() {
                continue;
            }
            let mut job = std::mem::take(&mut self.spare[shard]);
            std::mem::swap(&mut job.items, &mut self.items[shard]);
            pool.send(
                shard,
                Msg::Batch {
                    job,
                    slot: Arc::clone(&self.slots[shard]),
                },
            );
            self.sent.push(shard);
        }
        // Collect every outstanding reply before surfacing any error, so
        // the slots stay paired with flushes.
        let mut first_err: Option<GcError> = None;
        for &shard in &self.sent {
            let mut job = self.slots[shard].wait();
            for (&item, reply) in job.items.iter().zip(&job.replies) {
                match reply {
                    Ok(Served::Deferred { admitted }) => self.deferred.push(Deferred {
                        shard,
                        item,
                        admitted: *admitted,
                    }),
                    Ok(_) => {}
                    Err(e) => {
                        first_err.get_or_insert_with(|| e.clone());
                    }
                }
            }
            job.items.clear();
            job.replies.clear();
            self.spare[shard] = job;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Run the flush's deferred coalesced fetches. Misses that share a
    /// block within one flush are deduplicated: the first leads (or joins)
    /// the single-flight fetch, the rest are accounted as coalesced — the
    /// same accounting concurrent callers coalescing on the flight table
    /// would produce, so `misses == backend_fetches + coalesced_fetches`
    /// stays exact at every batch size.
    fn run_deferred(&mut self) -> Result<(), GcError> {
        if self.deferred.is_empty() {
            return Ok(());
        }
        self.seen.clear();
        // Draining empties the queue even when a fetch fails part-way.
        for Deferred {
            shard,
            item,
            admitted,
        } in self.deferred.drain(..)
        {
            let block = block_of(self.rt.map(), item)?;
            if self.seen.contains_key(&block.0) {
                // Backend supply was accounted by the fetch that led (or
                // joined) this block earlier in the flush.
                self.fetch_local[shard].record_coalesced();
            } else {
                self.rt.coalesced_fetch(
                    block,
                    item,
                    admitted,
                    &mut self.fetch_buf,
                    &mut self.fetch_local[shard],
                )?;
                self.seen.insert(block.0, ());
            }
        }
        Ok(())
    }

    /// Fold session-local fetch telemetry into the runtime's per-shard
    /// accumulators (no-op for shards with nothing recorded).
    fn fold(&mut self) {
        for (shard, local) in self.fetch_local.iter_mut().enumerate() {
            if !local.is_empty() {
                self.rt.fold_fetch(shard, local);
                local.clear();
            }
        }
    }

    /// Flush the tail window and fold all remaining telemetry.
    pub fn finish(mut self) -> Result<(), GcError> {
        self.flush()
        // Drop folds any telemetry recorded by this final flush.
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // Never executes pending requests (flushing can fail); only folds
        // telemetry already recorded so counters are not lost on the error
        // path.
        self.fold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SyntheticBackend;
    use crate::config::{ExecMode, FetchPath, RuntimeConfig};
    use gc_policies::PolicyKind;
    use gc_types::BlockMap;

    fn rt(cfg: RuntimeConfig) -> GcRuntime {
        let map = BlockMap::strided(4);
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        GcRuntime::with_config(&PolicyKind::ItemLru, 32, map, cfg, backend).unwrap()
    }

    /// Comparable counters: everything except the wall-clock latency
    /// distribution (timing varies run to run), keeping its sample count.
    fn counters(runtime: &GcRuntime) -> (gc_types::RuntimeStats, u64) {
        let mut s = runtime.aggregate_stats();
        let n = s.fetch_latency.count();
        s.fetch_latency = Default::default();
        (s, n)
    }

    #[test]
    fn batched_session_matches_unbatched_gets() {
        let trace: Vec<ItemId> = (0..200u64).map(|i| ItemId((i * 7) % 64)).collect();

        let reference = rt(RuntimeConfig::new(2));
        for &it in &trace {
            reference.get(it).unwrap();
        }
        let want = counters(&reference).0;

        for batch in [1usize, 3, 16, 256] {
            let runtime = rt(RuntimeConfig::new(2).with_batch(batch));
            let mut session = runtime.session();
            assert_eq!(session.run(trace.iter().copied()).unwrap(), 200);
            session.finish().unwrap();
            let got = counters(&runtime).0;
            // Policy-visible stats are bit-identical at every batch size.
            assert_eq!(got.accesses, want.accesses, "batch={batch}");
            assert_eq!(got.misses, want.misses, "batch={batch}");
            assert_eq!(got.temporal_hits, want.temporal_hits, "batch={batch}");
            assert_eq!(got.spatial_hits, want.spatial_hits, "batch={batch}");
            assert_eq!(got.admitted_items, want.admitted_items, "batch={batch}");
            assert_eq!(got.evicted_items, want.evicted_items, "batch={batch}");
            assert_eq!(got.peak_len, want.peak_len, "batch={batch}");
            // Backend supply tracks led fetches exactly (4-item blocks).
            assert_eq!(got.fetched_items, got.backend_fetches * 4, "batch={batch}");
            // The fetch *split* may shift toward coalesced (per-flush block
            // dedup turns repeat same-block misses into coalesced fetches)
            // but conservation stays exact and dedup never fetches more.
            assert_eq!(
                got.misses,
                got.backend_fetches + got.coalesced_fetches,
                "batch={batch}"
            );
            assert!(got.backend_fetches <= want.backend_fetches, "batch={batch}");
            if batch == 1 {
                assert_eq!(got.backend_fetches, want.backend_fetches);
            }
        }
    }

    #[test]
    fn owner_session_matches_locked_session() {
        let trace: Vec<ItemId> = (0..300u64).map(|i| ItemId((i * 13) % 96)).collect();
        let locked = rt(RuntimeConfig::new(3).with_batch(8));
        let mut s = locked.session();
        s.run(trace.iter().copied()).unwrap();
        s.finish().unwrap();

        let owner = rt(RuntimeConfig::new(3)
            .with_mode(ExecMode::Owner)
            .with_batch(8));
        let mut s = owner.session();
        s.run(trace.iter().copied()).unwrap();
        s.finish().unwrap();

        assert_eq!(counters(&locked), counters(&owner));
    }

    #[test]
    fn same_block_misses_in_one_window_coalesce() {
        // 4 items of one block, capacity-starved item policy → every
        // access misses, but one flush fetches the block once and accounts
        // the rest as coalesced.
        let map = BlockMap::strided(4);
        let backend = Arc::new(crate::CountingBackend::new(SyntheticBackend::new(
            map.clone(),
        )));
        let runtime = GcRuntime::with_config(
            &PolicyKind::ItemLru,
            1,
            map,
            RuntimeConfig::new(1).with_batch(4),
            Arc::clone(&backend) as Arc<dyn crate::BlockBackend>,
        )
        .unwrap();
        let mut session = runtime.session();
        session.run([0u64, 1, 2, 3].map(ItemId)).unwrap();
        session.finish().unwrap();
        let s = runtime.aggregate_stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.backend_fetches, 1);
        assert_eq!(s.coalesced_fetches, 3);
        assert_eq!(s.misses, s.backend_fetches + s.coalesced_fetches);
        assert_eq!(backend.loads(), 1);
    }

    #[test]
    fn pending_counts_and_explicit_flush() {
        let runtime = rt(RuntimeConfig::new(2).with_batch(100));
        let mut session = runtime.session();
        for i in 0..5u64 {
            session.push(ItemId(i)).unwrap();
        }
        assert_eq!(session.pending(), 5);
        assert_eq!(runtime.aggregate_stats().accesses, 0, "still buffered");
        session.flush().unwrap();
        assert_eq!(session.pending(), 0);
        assert_eq!(runtime.aggregate_stats().accesses, 5);
    }

    #[test]
    fn compiled_run_matches_dense_stream_across_configs() {
        // On a runtime built against the dense map, the compiled path and
        // a sparse replay of the dense id stream must produce identical
        // counters in every execution variant — routing off the dense map
        // is an optimization, never a behavior change.
        let map = BlockMap::strided(4);
        let ids: Vec<u64> = (0..500u64).map(|i| ((i * 29) % 120) * 1_009).collect();
        let trace = gc_types::Trace::from_ids(ids);
        let compiled = gc_types::CompiledTrace::compile(&trace, &map).unwrap();
        let build = |cfg: RuntimeConfig| {
            let m = compiled.map().clone();
            let backend = Arc::new(SyntheticBackend::new(m.clone()));
            GcRuntime::with_config(&PolicyKind::ItemLru, 32, m, cfg, backend).unwrap()
        };
        for cfg in [
            RuntimeConfig::new(1).with_batch(1),
            RuntimeConfig::new(1).with_batch(16),
            RuntimeConfig::new(1)
                .with_fetch(FetchPath::Inline)
                .with_batch(16),
            RuntimeConfig::new(2).with_batch(8),
            RuntimeConfig::new(2)
                .with_mode(ExecMode::Owner)
                .with_batch(8),
        ] {
            let sparse_rt = build(cfg.clone());
            let mut s = sparse_rt.session();
            s.run(compiled.iter_items()).unwrap();
            s.finish().unwrap();

            let compiled_rt = build(cfg.clone());
            let mut s = compiled_rt.session();
            assert_eq!(s.run_compiled_owned(&compiled, 0, 1).unwrap(), 500);
            s.finish().unwrap();

            assert_eq!(counters(&sparse_rt), counters(&compiled_rt), "{cfg:?}");
        }
    }

    #[test]
    fn unknown_item_rejected_at_push() {
        let map = BlockMap::from_groups(vec![vec![ItemId(1)]]).unwrap();
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        let runtime =
            GcRuntime::with_config(&PolicyKind::ItemLru, 4, map, RuntimeConfig::new(1), backend)
                .unwrap();
        let mut session = runtime.session();
        assert!(session.push(ItemId(9)).is_err());
        assert!(session.push(ItemId(1)).is_ok());
    }

    /// Every mode × fetch variant at `shards` shards and batch `batch`.
    fn variants(shards: usize, batch: usize) -> Vec<RuntimeConfig> {
        let mut cfgs = Vec::new();
        for mode in [ExecMode::Locked, ExecMode::Owner] {
            for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
                cfgs.push(
                    RuntimeConfig::new(shards)
                        .with_mode(mode)
                        .with_fetch(fetch)
                        .with_batch(batch),
                );
            }
        }
        cfgs
    }

    #[test]
    fn items_past_a_compiled_map_are_refused_and_the_runtime_keeps_serving() {
        // 48 blocks of 4 dense items: item 192 and beyond are outside the
        // universe even though the map has a stride.
        let trace = gc_types::Trace::from_ids((0..48u64).map(|b| b * 4_000));
        let compiled = CompiledTrace::compile(&trace, &BlockMap::strided(4)).unwrap();
        let map = compiled.map().clone();
        let outside = [ItemId(192), ItemId(1_192), ItemId(u64::MAX)];
        for shards in [1usize, 2] {
            for cfg in variants(shards, 8) {
                let backend = Arc::new(SyntheticBackend::new(map.clone()));
                let runtime = GcRuntime::with_config(
                    &PolicyKind::ItemLru,
                    32,
                    map.clone(),
                    cfg.clone(),
                    backend,
                )
                .unwrap();
                let mut session = runtime.session();
                for item in outside {
                    let err = session.push(item).unwrap_err();
                    assert!(matches!(err, GcError::InvalidParameter(_)), "{cfg:?}");
                    let err = runtime.session().run([ItemId(0), item]).unwrap_err();
                    assert!(matches!(err, GcError::InvalidParameter(_)), "{cfg:?}");
                }
                assert_eq!(session.pending(), 0, "a refused push queues nothing");
                // Still serving: the same session, a fresh one, and `get`.
                session.run((0..100u64).map(ItemId)).unwrap();
                session.finish().unwrap();
                let mut fresh = runtime.session();
                assert_eq!(fresh.run((100..192u64).map(ItemId)).unwrap(), 92);
                fresh.finish().unwrap();
                assert!(runtime.get(ItemId(5)).is_ok());
                // `run([0, bad])` served its valid item on each attempt, or
                // left it queued in the dropped session.
                let s = runtime.aggregate_stats();
                assert!(s.accesses >= 193, "{cfg:?}: {}", s.accesses);
                assert_eq!(s.misses, s.backend_fetches + s.coalesced_fetches, "{cfg:?}");
            }
        }
    }

    #[test]
    fn pushed_requests_stay_ahead_of_a_compiled_replay() {
        // A prefix pushed by hand and still pending when the compiled
        // replay starts must reach the shards first: the result equals one
        // session pushing every request in order.
        let map = BlockMap::strided(4);
        let ids: Vec<u64> = (0..400u64).map(|i| ((i * 37) % 90) * 11).collect();
        let compiled = CompiledTrace::compile(&gc_types::Trace::from_ids(ids), &map).unwrap();
        let dense: Vec<ItemId> = compiled.iter_items().collect();
        for shards in [1usize, 3] {
            for batch in [1usize, 7, 64] {
                for cfg in variants(shards, batch) {
                    let build = || {
                        let m = compiled.map().clone();
                        let backend = Arc::new(SyntheticBackend::new(m.clone()));
                        GcRuntime::with_config(&PolicyKind::BlockLru, 24, m, cfg.clone(), backend)
                            .unwrap()
                    };
                    let want = build();
                    let mut s = want.session();
                    s.run(dense[..5].iter().chain(&dense).copied()).unwrap();
                    s.finish().unwrap();

                    let got = build();
                    let mut s = got.session();
                    for &item in &dense[..5] {
                        s.push(item).unwrap();
                    }
                    assert_eq!(s.run_compiled_owned(&compiled, 0, 1).unwrap(), 400);
                    s.finish().unwrap();
                    assert_eq!(counters(&got), counters(&want), "{cfg:?}");
                }
            }
        }
    }
}
