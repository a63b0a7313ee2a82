//! Closed-loop load harness: replay a trace against a [`GcRuntime`] from
//! concurrent workers and report wall-clock throughput.
//!
//! The split is **shard-affine**. For `T` threads over `S` shards the
//! harness starts `W = min(T, S)` workers, and worker `w` owns the shards
//! `s` with `s % W == w`. It replays, in trace order, exactly the requests
//! routed to its shards through its own batched [`Session`], issuing the
//! next request as soon as the previous batch completes — a *closed
//! loop*: offered load adapts to service rate, so the numbers measure
//! capacity, not queueing under a fixed arrival rate. No two
//! workers touch the same shard, and every shard sees its subsequence of
//! the trace in trace order at every `T` and every batch size, so
//! per-shard counters equal `gc_sim::simulate` on that subsequence and do
//! not depend on the thread count or on scheduling.
//!
//! The trade: threads beyond `S` add nothing, and because a shard belongs
//! to one worker, misses on one shard never overlap across callers — with
//! a blocking backend, one shard's fetches run one after another. Callers
//! that want overlapping misses drive [`GcRuntime::get`] from their own
//! threads.

use crate::runtime::GcRuntime;
use crate::session::Session;
use gc_types::{CompiledTrace, GcError, RuntimeStats, Trace};
use std::time::Instant;

/// The result of one [`serve_trace`] run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Wall-clock duration of the replay, in seconds.
    pub wall_seconds: f64,
    /// Requests served (the trace length).
    pub requests: u64,
    /// Requests per second of wall-clock time.
    pub throughput_rps: f64,
    /// Workers the replay started: `min(threads, shards)`.
    pub workers: usize,
    /// Aggregate runtime counters after the replay.
    pub stats: RuntimeStats,
    /// Per-shard counters after the replay, in shard order.
    pub per_shard: Vec<RuntimeStats>,
}

/// Replay `trace` against `runtime` from `min(threads, shards)`
/// shard-affine closed-loop workers, each batching through a [`Session`]
/// sized by the runtime's [`RuntimeConfig::batch`](crate::RuntimeConfig).
/// An item outside the block map belongs to worker 0, whose session
/// reports it.
///
/// Counters accumulate in the runtime (call [`GcRuntime::reset`] between
/// runs to measure each independently). The first error any worker hits is
/// returned; the other workers finish their own shards first, so the
/// runtime is quiescent on return either way.
///
/// # Errors
///
/// Propagates the first [`GcError`] produced by any worker — backend
/// failures and unknown trace items surface here.
pub fn serve_trace(
    runtime: &GcRuntime,
    trace: &Trace,
    threads: usize,
) -> Result<ServeReport, GcError> {
    replay(runtime, trace.len(), threads, |session, w, workers| {
        if workers == 1 {
            // The one worker owns every shard: skip the filter's lookup.
            return session.run(trace.iter());
        }
        let owner = |item| runtime.shard_of(item).map_or(0, |s| s % workers);
        session.run(trace.iter().filter(|&item| owner(item) == w))
    })
}

/// Replay a compiled trace against `runtime` from `min(threads, shards)`
/// shard-affine closed-loop workers — the dense-ID counterpart of
/// [`serve_trace`]. Each worker scans the precompiled `(item, block)` array
/// and serves the accesses its shards own, skipping the per-request block
/// lookup.
///
/// The runtime must have been built against the trace's dense map — dense
/// ids mean nothing under any other; on one shard, counters are
/// bit-identical to [`serve_trace`] over the decoded trace.
///
/// # Errors
///
/// Propagates the first [`GcError`] produced by any worker — a map
/// mismatch or backend failure surfaces here.
pub fn serve_trace_compiled(
    runtime: &GcRuntime,
    compiled: &CompiledTrace,
    threads: usize,
) -> Result<ServeReport, GcError> {
    replay(runtime, compiled.len(), threads, |session, w, workers| {
        session.run_compiled_owned(compiled, w, workers)
    })
}

/// Run `work(session, w, workers)` on each of `min(threads, shards)`
/// workers, then report the replay of `requests` requests.
fn replay<F>(
    runtime: &GcRuntime,
    requests: usize,
    threads: usize,
    work: F,
) -> Result<ServeReport, GcError>
where
    F: Fn(&mut Session<'_>, usize, usize) -> Result<u64, GcError> + Sync,
{
    let workers = threads.min(runtime.shards()).max(1);
    let t0 = Instant::now();
    let worker_results = gc_sim::pool::run_indexed(workers, workers, |w| {
        let mut session = runtime.session();
        work(&mut session, w, workers)?;
        session.finish()
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    for r in worker_results {
        r?;
    }
    let requests = requests as u64;
    Ok(ServeReport {
        wall_seconds,
        requests,
        throughput_rps: if wall_seconds > 0.0 {
            requests as f64 / wall_seconds
        } else {
            0.0
        },
        workers,
        stats: runtime.aggregate_stats(),
        per_shard: runtime.per_shard_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SyntheticBackend;
    use crate::config::{ExecMode, FetchPath, RuntimeConfig};
    use gc_policies::PolicyKind;
    use gc_types::{BlockMap, ItemId};
    use std::sync::Arc;

    fn runtime(shards: usize) -> GcRuntime {
        runtime_with(RuntimeConfig::new(shards))
    }

    fn runtime_with(cfg: RuntimeConfig) -> GcRuntime {
        let map = BlockMap::strided(4);
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        GcRuntime::with_config(&PolicyKind::IblpBalanced, 64, map, cfg, backend).unwrap()
    }

    #[test]
    fn single_thread_replays_in_trace_order() {
        let rt = runtime(1);
        let trace = Trace::from_ids([0u64, 1, 2, 1]);
        let report = serve_trace(&rt, &trace, 1).unwrap();
        assert_eq!(report.requests, 4);
        assert_eq!(report.stats.accesses, 4);
        assert!(report.throughput_rps > 0.0);
        assert_eq!(report.per_shard.len(), 1);
    }

    #[test]
    fn workers_cover_the_whole_trace_exactly_once() {
        let rt = runtime(4);
        let ids: Vec<u64> = (0..10_000u64).map(|i| i % 512).collect();
        let trace = Trace::from_ids(ids);
        let report = serve_trace(&rt, &trace, 8).unwrap();
        assert_eq!(report.workers, 4, "threads beyond the shard count idle");
        assert_eq!(report.stats.accesses, 10_000);
        assert_eq!(
            report.stats.hits() + report.stats.misses,
            report.stats.accesses
        );
        assert_eq!(
            report.stats.misses,
            report.stats.backend_fetches + report.stats.coalesced_fetches
        );
    }

    #[test]
    fn conservation_holds_in_every_mode_and_batch() {
        let ids: Vec<u64> = (0..8_000u64).map(|i| (i * 17) % 768).collect();
        let trace = Trace::from_ids(ids);
        for mode in [ExecMode::Locked, ExecMode::Owner] {
            for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
                for batch in [1usize, 64] {
                    let cfg = RuntimeConfig::new(4)
                        .with_mode(mode)
                        .with_fetch(fetch)
                        .with_batch(batch);
                    let rt = runtime_with(cfg.clone());
                    let report = serve_trace(&rt, &trace, 4).unwrap();
                    assert_eq!(report.stats.accesses, 8_000, "{cfg:?}");
                    assert_eq!(
                        report.stats.hits() + report.stats.misses,
                        report.stats.accesses,
                        "{cfg:?}"
                    );
                    assert_eq!(
                        report.stats.misses,
                        report.stats.backend_fetches + report.stats.coalesced_fetches,
                        "{cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_workers_cover_the_whole_trace_exactly_once() {
        let ids: Vec<u64> = (0..10_000u64).map(|i| (i % 512) * 1_021).collect();
        let trace = Trace::from_ids(ids);
        let map = BlockMap::strided(4);
        let compiled = gc_types::CompiledTrace::compile(&trace, &map).unwrap();
        let dense_map = compiled.map().clone();
        let backend = Arc::new(SyntheticBackend::new(dense_map.clone()));
        let rt = GcRuntime::with_config(
            &PolicyKind::IblpBalanced,
            64,
            dense_map,
            RuntimeConfig::new(4).with_batch(8),
            backend,
        )
        .unwrap();
        let report = serve_trace_compiled(&rt, &compiled, 8).unwrap();
        assert_eq!(report.requests, 10_000);
        assert_eq!(report.stats.accesses, 10_000);
        assert_eq!(
            report.stats.hits() + report.stats.misses,
            report.stats.accesses
        );
        assert_eq!(
            report.stats.misses,
            report.stats.backend_fetches + report.stats.coalesced_fetches
        );
    }

    #[test]
    fn worker_errors_propagate() {
        let map = BlockMap::from_groups(vec![vec![ItemId(0), ItemId(1)], vec![ItemId(2)]]).unwrap();
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        let rt = GcRuntime::new(&PolicyKind::ItemLru, 8, map, 2, backend).unwrap();
        // 77 is not in the map: it belongs to worker 0, which reports it.
        let trace = Trace::from_ids([0u64, 2, 77]);
        assert!(serve_trace(&rt, &trace, 2).is_err());
    }
}
