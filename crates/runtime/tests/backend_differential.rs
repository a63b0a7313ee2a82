//! Backend differential tests: swapping the storage layer must be
//! invisible to the policy.
//!
//! The store module's whole design rests on one claim: `disk`, `mem`, and
//! `tiered` backends serve exactly the canonical block contents the
//! [`SyntheticBackend`] serves (all of them materialize through the same
//! function), so every policy-visible counter — hits, misses, admissions,
//! evictions, fetches — is **bit-identical** across backends at 1 shard /
//! 1 thread. Only the telemetry that measures *where time went* (latency
//! histograms, per-tier counters) may differ; those are cleared before
//! comparison.

use gc_policies::PolicyKind;
use gc_runtime::{
    serve_trace, serve_trace_compiled, BackendSpec, BlockBackend, ExecMode, FetchPath, GcRuntime,
    RuntimeConfig,
};
use gc_trace::synthetic;
use gc_types::{BlockId, BlockMap, CompiledTrace, FxHashSet, RuntimeStats, Trace};
use std::path::PathBuf;
use std::sync::Arc;

const CAPACITY: usize = 96;
const BLOCK_SIZE: usize = 8;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc-backend-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The blocks a trace touches under `map` — what `serve` prepopulates a
/// disk store with.
fn touched_blocks(trace: &Trace, map: &BlockMap) -> Vec<BlockId> {
    let mut seen = FxHashSet::default();
    let mut blocks = Vec::new();
    for &item in trace.requests() {
        let block = map.block_of(item);
        if seen.insert(block.0) {
            blocks.push(block);
        }
    }
    blocks
}

/// Serve `trace` and return aggregate stats with the timing-only fields
/// cleared: backends legitimately differ in *when*, never in *what*.
fn serve_with(
    kind: &PolicyKind,
    trace: &Trace,
    map: &BlockMap,
    cfg: RuntimeConfig,
    backend: Arc<dyn BlockBackend>,
) -> RuntimeStats {
    let rt = GcRuntime::with_config(kind, CAPACITY, map.clone(), cfg, backend).unwrap();
    serve_trace(&rt, trace, 1).unwrap();
    let mut stats = rt.aggregate_stats();
    stats.fetch_latency = Default::default();
    stats.waiter_wait = Default::default();
    stats.tiers.clear();
    stats
}

/// Both execution modes at a couple of batch sizes — enough to catch a
/// backend that misbehaves under the owner path's fold timing without
/// re-running the full differential matrix (tests/differential.rs owns
/// the exhaustive sweep for the synthetic backend).
fn configs() -> Vec<RuntimeConfig> {
    let mut cfgs = Vec::new();
    for mode in [ExecMode::Locked, ExecMode::Owner] {
        for batch in [1usize, 32] {
            cfgs.push(
                RuntimeConfig::new(1)
                    .with_mode(mode)
                    .with_fetch(FetchPath::Coalesced)
                    .with_batch(batch),
            );
        }
    }
    cfgs
}

#[test]
fn disk_and_tiered_match_synthetic_across_roster() {
    let dir = temp_dir("roster");
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::zipfian(4096, 0.9, 10_000, 42);
    let blocks = touched_blocks(&trace, &map);

    for (i, kind) in PolicyKind::extended_roster(7).into_iter().enumerate() {
        for (j, cfg) in configs().into_iter().enumerate() {
            let reference = serve_with(
                &kind,
                &trace,
                &map,
                cfg.clone(),
                BackendSpec::synthetic_default().build(&map, &[]).unwrap(),
            );

            let specs = [
                "mem:128".to_string(),
                format!("disk:{}", dir.join(format!("d-{i}-{j}.gcs")).display()),
                format!(
                    "tiered:mem:64+disk:{}",
                    dir.join(format!("t-{i}-{j}.gcs")).display()
                ),
            ];
            for raw in &specs {
                let spec: BackendSpec = raw.parse().unwrap();
                let backend = spec.build(&map, &blocks).unwrap();
                let got = serve_with(&kind, &trace, &map, cfg.clone(), backend);
                assert_eq!(
                    got, reference,
                    "{raw} diverged from synthetic for {kind:?} under {cfg:?}"
                );
            }
        }
    }
}

#[test]
fn cold_disk_store_matches_prepopulated_one() {
    // First-touch appends (cold store) and pure reads (prepopulated
    // store) must produce the same policy-visible stats — persistence is
    // a side effect, not an input.
    let dir = temp_dir("cold-warm");
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::scan(2048, 10_000);
    let blocks = touched_blocks(&trace, &map);
    let kind = PolicyKind::IblpBalanced;
    let cfg = RuntimeConfig::new(1);

    let cold_spec: BackendSpec = format!("disk:{}", dir.join("cold.gcs").display())
        .parse()
        .unwrap();
    let warm_spec: BackendSpec = format!("disk:{}", dir.join("warm.gcs").display())
        .parse()
        .unwrap();
    let cold = serve_with(
        &kind,
        &trace,
        &map,
        cfg.clone(),
        cold_spec.build(&map, &[]).unwrap(),
    );
    let warm = serve_with(
        &kind,
        &trace,
        &map,
        cfg,
        warm_spec.build(&map, &blocks).unwrap(),
    );
    assert_eq!(cold, warm);
}

#[test]
fn tiered_matches_synthetic_on_compiled_traces() {
    // The compiled serving path hands the runtime dense block ids; the
    // tiered hierarchy must be just as invisible there.
    let dir = temp_dir("compiled");
    let map = BlockMap::strided(BLOCK_SIZE);
    let mut x = 9u64;
    let ids: Vec<u64> = (0..8_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % 800) * 10_007
        })
        .collect();
    let trace = Trace::from_ids(ids);
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    let dense_map = compiled.map().clone();

    for kind in [
        PolicyKind::ItemLru,
        PolicyKind::BlockLru,
        PolicyKind::Gcm { seed: 3 },
    ] {
        for cfg in configs() {
            let serve_compiled = |backend: Arc<dyn BlockBackend>| {
                let rt = GcRuntime::with_config(
                    &kind,
                    CAPACITY,
                    dense_map.clone(),
                    cfg.clone(),
                    backend,
                )
                .unwrap();
                serve_trace_compiled(&rt, &compiled, 1).unwrap();
                let mut stats = rt.aggregate_stats();
                stats.fetch_latency = Default::default();
                stats.waiter_wait = Default::default();
                stats.tiers.clear();
                stats
            };
            let reference = serve_compiled(
                BackendSpec::synthetic_default()
                    .build(&dense_map, &[])
                    .unwrap(),
            );
            let spec: BackendSpec = format!(
                "tiered:mem:64+disk:{}",
                dir.join(format!("c-{kind:?}-{}-{}.gcs", cfg.mode, cfg.batch))
                    .display()
            )
            .parse()
            .unwrap();
            let got = serve_compiled(spec.build(&dense_map, &[]).unwrap());
            assert_eq!(
                got, reference,
                "compiled tiered diverged from synthetic for {kind:?} under {cfg:?}"
            );
        }
    }
}

#[test]
fn tiered_snapshot_accounts_every_backend_fetch() {
    // Conservation across layers: every runtime backend fetch hit exactly
    // one tier, and L1 stores equal L2 fetches (write-through).
    let dir = temp_dir("conservation");
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::zipfian(1024, 0.8, 20_000, 11);
    let spec: BackendSpec = format!("tiered:mem:16+disk:{}", dir.join("c.gcs").display())
        .parse()
        .unwrap();
    let backend = spec.build(&map, &touched_blocks(&trace, &map)).unwrap();
    let rt = GcRuntime::with_config(
        &PolicyKind::ItemLru,
        64,
        map.clone(),
        RuntimeConfig::new(1),
        backend,
    )
    .unwrap();
    serve_trace(&rt, &trace, 1).unwrap();
    let stats = rt.aggregate_stats();

    assert_eq!(stats.tiers.len(), 2, "two tiers reported");
    let (l1, l2) = (&stats.tiers[0], &stats.tiers[1]);
    assert_eq!(l1.label, "mem");
    assert_eq!(l2.label, "disk");
    assert_eq!(
        l1.fetches + l2.fetches,
        stats.backend_fetches,
        "each backend fetch served by exactly one tier"
    );
    assert_eq!(l1.stores, l2.fetches, "write-through population");
    assert!(
        l1.fetches > 0 && l2.fetches > 0,
        "a 16-block L1 under a 1024-item zipf both hits and misses: {l1:?} / {l2:?}"
    );
    assert_eq!(l1.latency.count(), l1.fetches);
    assert_eq!(l2.latency.count(), l2.fetches);
}

/// Populate a store at `path` with `blocks`, then drop it, so the next
/// open recovers every record from the file.
fn populate_and_close(path: &std::path::Path, map: &BlockMap, blocks: &[BlockId]) -> u64 {
    let spec: BackendSpec = format!("disk:{}", path.display()).parse().unwrap();
    drop(spec.build(map, blocks).unwrap());
    std::fs::metadata(path).unwrap().len()
}

/// The specs that serve a reopened store at `path`: the store alone, and
/// as the authoritative tier under a RAM tier.
fn reopened_specs(path: &std::path::Path) -> [BackendSpec; 2] {
    [
        format!("disk:{}", path.display()).parse().unwrap(),
        format!("tiered:mem:64+disk:{}", path.display())
            .parse()
            .unwrap(),
    ]
}

#[test]
fn reopened_disk_and_tiered_match_synthetic_across_roster() {
    // Every block the trace touches was stored, synced and the store
    // dropped before serving: each open recovers the file, and every
    // disk-tier load reads a recovered record. No load appends, so the
    // file's length never moves.
    let dir = temp_dir("reopened");
    let path = dir.join("populated.gcs");
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::zipfian(4096, 0.9, 10_000, 42);
    let len = populate_and_close(&path, &map, &touched_blocks(&trace, &map));

    for kind in PolicyKind::extended_roster(7) {
        for cfg in configs() {
            let reference = serve_with(
                &kind,
                &trace,
                &map,
                cfg.clone(),
                BackendSpec::synthetic_default().build(&map, &[]).unwrap(),
            );
            for spec in reopened_specs(&path) {
                let got = serve_with(
                    &kind,
                    &trace,
                    &map,
                    cfg.clone(),
                    spec.build(&map, &[]).unwrap(),
                );
                assert_eq!(
                    got, reference,
                    "reopened {spec} diverged from synthetic for {kind:?} under {cfg:?}"
                );
            }
        }
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        len,
        "nothing appended"
    );
}

#[test]
fn reopened_tiered_matches_synthetic_on_compiled_traces() {
    let dir = temp_dir("reopened-compiled");
    let path = dir.join("populated.gcs");
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::zipfian(8192, 0.8, 10_000, 5);
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    let dense_map = compiled.map().clone();
    let dense_blocks: Vec<BlockId> = (0..compiled.n_blocks()).map(BlockId).collect();
    let len = populate_and_close(&path, &dense_map, &dense_blocks);

    for kind in [
        PolicyKind::IblpBalanced,
        PolicyKind::WTinyLfu,
        PolicyKind::Gcm { seed: 3 },
    ] {
        for cfg in configs() {
            let serve_compiled = |backend: Arc<dyn BlockBackend>| {
                let rt = GcRuntime::with_config(
                    &kind,
                    CAPACITY,
                    dense_map.clone(),
                    cfg.clone(),
                    backend,
                )
                .unwrap();
                serve_trace_compiled(&rt, &compiled, 1).unwrap();
                let mut stats = rt.aggregate_stats();
                stats.fetch_latency = Default::default();
                stats.waiter_wait = Default::default();
                stats.tiers.clear();
                stats
            };
            let reference = serve_compiled(
                BackendSpec::synthetic_default()
                    .build(&dense_map, &[])
                    .unwrap(),
            );
            for spec in reopened_specs(&path) {
                let got = serve_compiled(spec.build(&dense_map, &[]).unwrap());
                assert_eq!(
                    got, reference,
                    "reopened compiled {spec} diverged from synthetic for {kind:?} under {cfg:?}"
                );
            }
        }
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        len,
        "nothing appended"
    );
}
