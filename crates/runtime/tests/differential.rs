//! Differential tests: the runtime with one shard driven by one thread
//! must be **bit-identical** to the offline engine on the same trace —
//! in every execution mode, on both fetch paths, and at every batch size.
//!
//! This is the correctness anchor for the whole serving path: the shard's
//! critical section claims to be exactly the engine's loop body, and these
//! tests hold it to that claim across every policy in the extended roster,
//! multiple trace shapes, every `RuntimeConfig` execution variant, and
//! (via proptest) randomized seeds. Batching must be invisible here
//! because per-shard request order is arrival order no matter the window;
//! owner mode must be invisible because the owner thread runs the same
//! `ShardCore::access` body the locked path runs.
//!
//! The harness's workers are shard-affine, so the anchor extends to every
//! shard and thread count: shard `s` of an `S`-shard runtime is the engine
//! run on the trace's subsequence routed to `s`, at `T` = 1, 2, 3 or 8.

use gc_policies::PolicyKind;
use gc_runtime::{
    serve_trace, serve_trace_compiled, shard_capacities, ExecMode, FetchPath, GcRuntime,
    RuntimeConfig, SyntheticBackend,
};
use gc_sim::SimStats;
use gc_trace::synthetic;
use gc_types::{BlockMap, CompiledTrace, RuntimeStats, Trace};
use std::sync::Arc;

const CAPACITY: usize = 96;
const BLOCK_SIZE: usize = 8;

/// Every execution variant a 1-shard runtime can run in.
fn all_configs() -> Vec<RuntimeConfig> {
    let mut cfgs = Vec::new();
    for mode in [ExecMode::Locked, ExecMode::Owner] {
        for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
            for batch in [1usize, 7, 64] {
                cfgs.push(
                    RuntimeConfig::new(1)
                        .with_mode(mode)
                        .with_fetch(fetch)
                        .with_batch(batch),
                );
            }
        }
    }
    cfgs
}

/// Offline reference: the engine over a fresh policy instance.
fn offline(kind: &PolicyKind, trace: &Trace, map: &BlockMap) -> SimStats {
    let mut policy = kind.build(CAPACITY, map);
    gc_sim::simulate(&mut policy, trace)
}

/// Runtime under test: one shard, one thread, zero-latency backend, under
/// an explicit execution config.
fn online(kind: &PolicyKind, trace: &Trace, map: &BlockMap, cfg: RuntimeConfig) -> SimStats {
    let backend = Arc::new(SyntheticBackend::new(map.clone()));
    let rt = GcRuntime::with_config(kind, CAPACITY, map.clone(), cfg, backend).unwrap();
    serve_trace(&rt, trace, 1).unwrap();
    rt.drain()
}

fn assert_identical(kind: &PolicyKind, trace: &Trace, map: &BlockMap, label: &str) {
    let expect = offline(kind, trace, map);
    for cfg in all_configs() {
        let got = online(kind, trace, map, cfg.clone());
        assert_eq!(
            got, expect,
            "runtime diverged from engine for {kind:?} on {label} under {cfg:?}"
        );
    }
}

#[test]
fn whole_roster_matches_engine_on_zipfian_10k() {
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::zipfian(4096, 0.9, 10_000, 42);
    for kind in PolicyKind::extended_roster(7) {
        assert_identical(&kind, &trace, &map, "zipfian(4096, 0.9) x 10k");
    }
}

#[test]
fn whole_roster_matches_engine_on_scan() {
    // Sequential scans maximize spatial hits and evictions — the paths
    // where candidate bookkeeping could drift.
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::scan(2048, 10_000);
    for kind in PolicyKind::extended_roster(11) {
        assert_identical(&kind, &trace, &map, "scan(2048) x 10k");
    }
}

#[test]
fn matches_engine_on_explicit_block_map() {
    // Irregular (non-strided) blocks exercise the map-driven fetch path.
    let groups: Vec<Vec<gc_types::ItemId>> = (0..64u64)
        .map(|b| {
            let width = 1 + (b % 7);
            (0..width).map(|i| gc_types::ItemId(b * 8 + i)).collect()
        })
        .collect();
    let map = BlockMap::from_groups(groups).unwrap();
    let ids: Vec<u64> = (0..10_000u64).map(|i| (i * 37 + i / 13) % 512).collect();
    let trace: Trace = Trace::from_ids(ids.into_iter().filter(|&id| {
        // Keep only ids that exist in the irregular map.
        map.try_block_of(gc_types::ItemId(id)).is_some()
    }));
    for kind in [
        PolicyKind::ItemLru,
        PolicyKind::BlockLru,
        PolicyKind::IblpBalanced,
        PolicyKind::Gcm { seed: 3 },
    ] {
        assert_identical(&kind, &trace, &map, "irregular blocks");
    }
}

/// Runtime under test, compiled serving path: one shard, one thread, the
/// runtime built against the trace's dense map.
fn online_compiled(kind: &PolicyKind, compiled: &CompiledTrace, cfg: RuntimeConfig) -> SimStats {
    let map = compiled.map().clone();
    let backend = Arc::new(SyntheticBackend::new(map.clone()));
    let rt = GcRuntime::with_config(kind, CAPACITY, map, cfg, backend).unwrap();
    serve_trace_compiled(&rt, compiled, 1).unwrap();
    rt.drain()
}

/// Every `PolicyKind` variant, including the ones outside the rosters.
fn full_roster() -> Vec<PolicyKind> {
    let mut roster = PolicyKind::extended_roster(7);
    roster.extend([
        PolicyKind::ItemRandom { seed: 7 },
        PolicyKind::BlockFifo,
        PolicyKind::Iblp { item_lines: 24 },
        PolicyKind::PartialGcm { seed: 7, coload: 2 },
    ]);
    assert_eq!(roster.len(), 18, "roster must cover every PolicyKind");
    roster
}

#[test]
fn compiled_serving_matches_engine_across_full_roster() {
    // Scattered sparse keys over a strided map, so the dense rename
    // actually renames; the compiled 1-shard/1-thread runtime must stay
    // bit-identical to the offline sparse engine in every execution
    // variant, for every policy.
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
    for kind in full_roster() {
        let expect = offline(&kind, &trace, &map);
        for cfg in all_configs() {
            let got = online_compiled(&kind, &compiled, cfg.clone());
            assert_eq!(
                got, expect,
                "compiled runtime diverged from sparse engine for {kind:?} under {cfg:?}"
            );
        }
    }
}

#[test]
fn compiled_serving_matches_engine_on_explicit_block_map() {
    // Ragged explicit blocks compile to a CSR dense map: the compiled
    // session must agree with the sparse engine even though the sparse
    // runtime path would have gone through hash lookups.
    let groups: Vec<Vec<gc_types::ItemId>> = (0..64u64)
        .map(|b| {
            let width = 1 + (b % 7);
            (0..width)
                .map(|i| gc_types::ItemId(b * 65_537 + i * 101))
                .collect()
        })
        .collect();
    let map = BlockMap::from_groups(groups.clone()).unwrap();
    let flat: Vec<gc_types::ItemId> = groups.into_iter().flatten().collect();
    let mut x = 31u64;
    let ids: Vec<u64> = (0..8_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            flat[((x >> 33) as usize) % flat.len()].0
        })
        .collect();
    let trace = Trace::from_ids(ids);
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    for kind in [
        PolicyKind::ItemLru,
        PolicyKind::BlockLru,
        PolicyKind::IblpBalanced,
        PolicyKind::Gcm { seed: 3 },
    ] {
        let expect = offline(&kind, &trace, &map);
        for cfg in all_configs() {
            let got = online_compiled(&kind, &compiled, cfg.clone());
            assert_eq!(
                got, expect,
                "compiled runtime diverged from sparse engine for {kind:?} under {cfg:?}"
            );
        }
    }
}

#[test]
fn compiled_serving_rejects_mismatched_runtime_map() {
    // A runtime built against the *sparse* map must refuse a compiled
    // trace: dense ids are only meaningful against the dense map.
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = Trace::from_ids((0..64u64).map(|i| i * 1_000));
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    let backend = Arc::new(SyntheticBackend::new(map.clone()));
    let rt = GcRuntime::with_config(
        &PolicyKind::ItemLru,
        CAPACITY,
        map,
        RuntimeConfig::new(1),
        backend,
    )
    .unwrap();
    assert!(serve_trace_compiled(&rt, &compiled, 1).is_err());
}

/// The policy-visible counters of one shard, in a shape both sides share.
fn shard_shape(s: &RuntimeStats) -> [u64; 6] {
    [
        s.accesses,
        s.misses,
        s.temporal_hits,
        s.spatial_hits,
        s.admitted_items,
        s.evicted_items,
    ]
}

fn sim_shape(s: &SimStats) -> [u64; 6] {
    [
        s.accesses,
        s.misses,
        s.temporal_hits,
        s.spatial_hits,
        s.items_loaded,
        s.items_evicted,
    ]
}

/// Aggregate counters minus the wall-clock fetch latencies.
fn aggregate_counters(rt: &GcRuntime) -> RuntimeStats {
    let mut s = rt.aggregate_stats();
    s.fetch_latency = Default::default();
    s
}

#[test]
fn every_shard_matches_engine_on_its_subsequence_at_any_thread_count() {
    // Shard-affine workers: whatever the thread count, shard `s` serves
    // exactly the trace's requests routed to it, in trace order, at its
    // share of the capacity — so it must count what the offline engine
    // counts on that subsequence, in every execution variant, through both
    // the sparse and the compiled harness.
    const CAP: usize = 512;
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = Trace::from_ids(
        synthetic::zipfian(4096, 0.8, 3_000, 5)
            .iter()
            .map(|item| item.0 * 7_919),
    );
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    let build = |kind: &PolicyKind, map: &BlockMap, cfg: RuntimeConfig| {
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        GcRuntime::with_config(kind, CAP, map.clone(), cfg, backend).unwrap()
    };
    for kind in [PolicyKind::BlockLru, PolicyKind::IblpBalanced] {
        for shards in [1usize, 3, 8] {
            for compiled_path in [false, true] {
                let (map, trace) = if compiled_path {
                    (compiled.map().clone(), compiled.iter_items().collect())
                } else {
                    (map.clone(), trace.clone())
                };
                let router = build(&kind, &map, RuntimeConfig::new(shards));
                let capacities = shard_capacities(CAP, shards);
                let expect: Vec<[u64; 6]> = (0..shards)
                    .map(|s| {
                        let mine: Trace = trace
                            .iter()
                            .filter(|&i| router.shard_of(i) == Some(s))
                            .collect();
                        let mut policy = kind.build(capacities[s], &map);
                        sim_shape(&gc_sim::simulate(&mut policy, &mine))
                    })
                    .collect();
                let serve = |cfg: &RuntimeConfig, threads: usize| {
                    let rt = build(&kind, &map, cfg.clone());
                    let report = if compiled_path {
                        serve_trace_compiled(&rt, &compiled, threads)
                    } else {
                        serve_trace(&rt, &trace, threads)
                    }
                    .unwrap();
                    assert_eq!(report.workers, threads.min(shards), "{cfg:?}");
                    rt
                };
                for mode in [ExecMode::Locked, ExecMode::Owner] {
                    for fetch in [FetchPath::Inline, FetchPath::Coalesced] {
                        for batch in [1usize, 64] {
                            let cfg = RuntimeConfig::new(shards)
                                .with_mode(mode)
                                .with_fetch(fetch)
                                .with_batch(batch);
                            for threads in [1usize, 2, 3, 8] {
                                let rt = serve(&cfg, threads);
                                let got: Vec<[u64; 6]> =
                                    rt.per_shard_stats().iter().map(shard_shape).collect();
                                assert_eq!(
                                    got, expect,
                                    "{kind:?} compiled={compiled_path} T={threads} {cfg:?}"
                                );
                            }
                            assert_eq!(
                                aggregate_counters(&serve(&cfg, 8)),
                                aggregate_counters(&serve(&cfg, 8)),
                                "two T=8 runs differ: {kind:?} compiled={compiled_path} {cfg:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn shard_universes_of_compiled_maps_match_engine_per_shard() {
    // Over a compiled map each shard's policy runs on a dense universe of
    // its own blocks. That renaming is monotone and its decode tables
    // compose, so shard `s` must still count exactly what the engine
    // counts on `s`'s subsequence against the whole compiled map — on a
    // strided map and on a ragged explicit (CSR) one, with a TinyLFU that
    // hashes original keys through the shard's decode table.
    const CAP: usize = 384;
    let strided = BlockMap::strided(BLOCK_SIZE);
    let groups: Vec<Vec<gc_types::ItemId>> = (0..300u64)
        .map(|b| {
            (0..1 + b % BLOCK_SIZE as u64)
                .rev()
                .map(|i| gc_types::ItemId(i * 100_003 + b * 7))
                .collect()
        })
        .collect();
    let flat: Vec<u64> = groups.iter().flatten().map(|z| z.0).collect();
    let explicit = BlockMap::from_groups(groups).unwrap();
    let zipf = synthetic::zipfian(flat.len() as u64, 0.8, 3_000, 17);
    let arms = [
        (
            "strided",
            CompiledTrace::compile(
                &Trace::from_ids(zipf.iter().map(|item| item.0 * 7_919)),
                &strided,
            )
            .unwrap(),
        ),
        (
            "explicit",
            CompiledTrace::compile(
                &Trace::from_ids(zipf.iter().map(|item| flat[item.0 as usize])),
                &explicit,
            )
            .unwrap(),
        ),
    ];
    let kinds = [
        PolicyKind::IblpBalanced,
        PolicyKind::WTinyLfu,
        PolicyKind::ItemLfu,
        PolicyKind::Gcm { seed: 5 },
    ];
    for (label, compiled) in &arms {
        let map = compiled.map().clone();
        let dense: Trace = compiled.iter_items().collect();
        for kind in &kinds {
            for shards in [1usize, 3, 8] {
                let build = |cfg: RuntimeConfig| {
                    let backend = Arc::new(SyntheticBackend::new(map.clone()));
                    GcRuntime::with_config(kind, CAP, map.clone(), cfg, backend).unwrap()
                };
                let router = build(RuntimeConfig::new(shards));
                let capacities = shard_capacities(CAP, shards);
                let expect: Vec<[u64; 6]> = (0..shards)
                    .map(|s| {
                        let mine: Trace = dense
                            .iter()
                            .filter(|&i| router.shard_of(i) == Some(s))
                            .collect();
                        let mut policy = kind.build(capacities[s], &map);
                        sim_shape(&gc_sim::simulate(&mut policy, &mine))
                    })
                    .collect();
                for mode in [ExecMode::Locked, ExecMode::Owner] {
                    for fetch in [FetchPath::Inline, FetchPath::Coalesced] {
                        let cfg = RuntimeConfig::new(shards)
                            .with_mode(mode)
                            .with_fetch(fetch)
                            .with_batch(16);
                        for threads in [1usize, 2] {
                            let compiled_rt = build(cfg.clone());
                            serve_trace_compiled(&compiled_rt, compiled, threads).unwrap();
                            let pushed_rt = build(cfg.clone());
                            serve_trace(&pushed_rt, &dense, threads).unwrap();
                            for rt in [&compiled_rt, &pushed_rt] {
                                let got: Vec<[u64; 6]> =
                                    rt.per_shard_stats().iter().map(shard_shape).collect();
                                assert_eq!(got, expect, "{kind:?} {label} T={threads} {cfg:?}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn pushed_prefix_then_run_keeps_arrival_order() {
    // A session that pushes part of the trace by hand and then runs the
    // rest must serve the whole trace in arrival order, on the sparse map
    // and on the compiled (dense) one: at 1 shard it equals the engine on
    // the whole trace, at 3 shards a session that pushed every request.
    let map = BlockMap::strided(BLOCK_SIZE);
    let trace = synthetic::zipfian(2048, 0.8, 6_000, 13);
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    let dense: Trace = compiled.iter_items().collect();
    let arms = [
        ("sparse", map, trace),
        ("dense", compiled.map().clone(), dense),
    ];
    for kind in [PolicyKind::BlockLru, PolicyKind::IblpBalanced] {
        for (label, map, trace) in &arms {
            let expect = offline(&kind, trace, map);
            for shards in [1usize, 3] {
                for cfg in all_configs() {
                    let cfg = RuntimeConfig { shards, ..cfg };
                    let serve = |prefix: usize| {
                        let backend = Arc::new(SyntheticBackend::new(map.clone()));
                        let rt = GcRuntime::with_config(
                            &kind,
                            CAPACITY,
                            map.clone(),
                            cfg.clone(),
                            backend,
                        )
                        .unwrap();
                        let mut session = rt.session();
                        for item in trace.iter().take(prefix) {
                            session.push(item).unwrap();
                        }
                        session.run(trace.iter().skip(prefix)).unwrap();
                        session.finish().unwrap();
                        rt
                    };
                    let got = serve(1_001);
                    if shards == 1 {
                        assert_eq!(got.drain(), expect, "{kind:?} {label} {cfg:?}");
                    } else {
                        assert_eq!(
                            aggregate_counters(&got),
                            aggregate_counters(&serve(trace.len())),
                            "{kind:?} {label} {cfg:?}"
                        );
                    }
                }
            }
        }
    }
}

mod randomized {
    use super::*;
    use testkit::prelude::*;

    proptest! {
        // A handful of cases is plenty: each case already sweeps the whole
        // extended roster and every execution variant, and CI time matters
        // more than extra seeds.
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn roster_matches_engine_across_seeds(
            trace_seed in 0u64..1_000_000,
            roster_seed in 0u64..1_000_000,
            // Zipf skew in tenths (0.2..=1.1); testkit has no f64 range
            // strategy.
            theta_tenths in 2u64..12,
        ) {
            let theta = theta_tenths as f64 / 10.0;
            let map = BlockMap::strided(BLOCK_SIZE);
            let trace = synthetic::zipfian(2048, theta, 10_000, trace_seed);
            for kind in PolicyKind::extended_roster(roster_seed) {
                let expect = offline(&kind, &trace, &map);
                for cfg in all_configs() {
                    let got = online(&kind, &trace, &map, cfg.clone());
                    prop_assert_eq!(
                        got,
                        expect,
                        "runtime diverged from engine for {:?} under {:?} (trace_seed={}, theta={})",
                        kind,
                        cfg,
                        trace_seed,
                        theta
                    );
                }
            }
        }
    }
}
