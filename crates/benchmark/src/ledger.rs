//! The per-layer ledger: each layer timed from outside, by direct calls
//! into its public items on the same inputs the workloads use.
//!
//! Every number is a median over repetitions after one untimed pass.
//! Stage pairs that differ in exactly one mechanism are subtracted to give
//! that mechanism's self time (`runtime.self.*`, `sim.engine_self_ns`).

use crate::names::{ROSTER, ROSTER_TRACES};
use crate::spans;
use crate::stats::{median, summarize, Summary};
use crate::{Outcome, RunConfig};
use gc_cache::gc_runtime::{BackendSpec, BlockStore, DiskBackend, MemBackend, SingleFlight};
use gc_cache::gc_sim::{item_mrc_compiled, sampled_item_mrc_compiled, SamplerConfig};
use gc_cache::gc_trace::synthetic::{block_runs, BlockRunConfig};
use gc_cache::gc_types::AccessKind;
use gc_cache::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Accesses per `window` span on the workloads too fast to span singly.
pub const WINDOW: usize = 4096;

/// One untimed pass, then `reps` timed ones, each on fresh state from
/// `make`, built outside the timed region; seconds per timed pass.
pub fn time_fresh<S>(
    reps: usize,
    mut make: impl FnMut() -> S,
    mut pass: impl FnMut(&mut S),
) -> Vec<f64> {
    pass(&mut make());
    (0..reps)
        .map(|_| {
            let mut state = make();
            let t0 = Instant::now();
            pass(&mut state);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// [`time_fresh`] for a pass that needs no state.
pub fn time_reps(reps: usize, mut pass: impl FnMut()) -> Vec<f64> {
    time_fresh(reps, || (), |()| pass())
}

fn per_op_ns(secs: &[f64], ops: usize) -> Summary {
    let ns: Vec<f64> = secs.iter().map(|s| s * 1e9 / ops as f64).collect();
    summarize(&ns)
}

/// The roster as policy kinds, in [`ROSTER`] order.
pub fn roster_kinds() -> Vec<PolicyKind> {
    ROSTER
        .iter()
        .map(|(label, spec)| {
            PolicyKind::parse(spec).unwrap_or_else(|e| panic!("roster label {label}: {e}"))
        })
        .collect()
}

/// The bare policy loop: `access_into` over a compiled trace with nothing
/// around it. Returns the miss count. Records one `window` span per
/// [`WINDOW`] accesses on a thread that is recording.
pub fn policy_loop(policy: &mut dyn GcPolicy, compiled: &CompiledTrace) -> u64 {
    let mut scratch = AccessScratch::new();
    let mut misses = 0u64;
    for (w, window) in compiled.accesses().chunks(WINDOW).enumerate() {
        spans::open(spans::WINDOW, w as u64);
        for a in window {
            if policy.access_into(ItemId(u64::from(a.item)), &mut scratch) == AccessKind::Miss {
                misses += 1;
            }
        }
        spans::close();
    }
    misses
}

/// `trace.*`: `gc_trace::synthetic::block_runs`, which no workload uses as
/// input (inputs come from [`crate::gen`]) but whose cost users pay.
pub fn trace_layer(out: &mut Outcome, cfg: &RunConfig) {
    let len = cfg.len(1 << 18, WINDOW);
    let secs = time_reps(3, || {
        black_box(block_runs(&BlockRunConfig {
            num_blocks: 4096,
            block_size: 16,
            block_theta: 0.9,
            spatial_locality: 0.6,
            len,
            seed: cfg.seed,
        }));
    });
    out.push(
        "trace.generate_ns_per_access",
        "ns/access",
        per_op_ns(&secs, len),
    );
}

/// `compiled.*` for the workload's own trace.
pub fn compiled_layer(out: &mut Outcome, trace: &Trace, map: &BlockMap) {
    let compile = || CompiledTrace::compile(trace, map).expect("generated items are in the map");
    let compiled = compile();
    let secs = time_reps(3, || {
        black_box(compile());
    });
    out.push(
        "compiled.compile_ns_per_access",
        "ns/access",
        per_op_ns(&secs, trace.len()),
    );
    out.exact("compiled.n_items", "count", compiled.n_items() as f64);
    out.exact("compiled.n_blocks", "count", compiled.n_blocks() as f64);
}

/// `policies.<label>.<trace>.*`: the bare loop for the whole roster.
/// Returns the IBLP ns/access per trace, the subtrahend of
/// `sim.engine_self_ns`.
pub fn policies_layer(
    out: &mut Outcome,
    traces: &[&CompiledTrace; 2],
    capacity: usize,
) -> [f64; 2] {
    let mut iblp_ns = [0.0; 2];
    for ((label, _), kind) in ROSTER.iter().zip(roster_kinds()) {
        for (t, compiled) in traces.iter().enumerate() {
            let mut misses = 0;
            let secs = time_fresh(
                3,
                || kind.build(capacity, compiled.map()),
                |policy| misses = policy_loop(policy.as_mut(), compiled),
            );
            let ns = per_op_ns(&secs, compiled.len());
            if *label == "iblp" {
                iblp_ns[t] = ns.median;
            }
            let trace = ROSTER_TRACES[t];
            out.push(
                format!("policies.{label}.{trace}.ns_per_access"),
                "ns/access",
                ns,
            );
            out.exact(
                format!("policies.{label}.{trace}.fault_rate"),
                "ratio",
                misses as f64 / compiled.len() as f64,
            );
        }
    }
    iblp_ns
}

/// The paper's quantities from a run's counters: items admitted per miss,
/// the admitted share of what the backend fetched, and how much of the
/// co-loaded supply was used before eviction (spatial hits over items
/// admitted beyond the requested one).
pub fn paper_quantities(out: &mut Outcome, misses: u64, admitted: u64, fetched: u64, spatial: u64) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.exact(
        "policies.admitted_per_miss",
        "items",
        ratio(admitted, misses),
    );
    out.exact("policies.admit_share", "ratio", ratio(admitted, fetched));
    out.exact(
        "policies.coload_utilisation",
        "ratio",
        ratio(spatial, admitted.saturating_sub(misses)),
    );
}

/// `sim.*`: the engine around the policy, and the two MRC passes.
pub fn sim_layer(
    out: &mut Outcome,
    traces: &[&CompiledTrace; 2],
    capacity: usize,
    iblp_bare_ns: [f64; 2],
) {
    let mixed = traces[0];
    let secs = time_reps(3, || {
        black_box(mixed.iter_items().fold(0u64, |acc, i| acc ^ i.0));
    });
    out.push(
        "sim.raw_iter_ns",
        "ns/access",
        per_op_ns(&secs, mixed.len()),
    );

    let mut engine_ns = [0.0; 2];
    for (t, compiled) in traces.iter().enumerate() {
        engine_ns[t] = engine_ns_per_access(compiled, capacity).median;
        out.exact(
            format!("sim.engine_ns.{}", ROSTER_TRACES[t]),
            "ns/access",
            engine_ns[t],
        );
    }
    out.exact(
        "sim.engine_self_ns",
        "ns/access",
        engine_ns[0] - iblp_bare_ns[0],
    );

    let secs = time_reps(3, || {
        black_box(item_mrc_compiled(mixed, capacity));
    });
    out.push(
        "sim.mrc_exact_ns_per_access",
        "ns/access",
        per_op_ns(&secs, mixed.len()),
    );
    let sampler = SamplerConfig::fixed(0.01);
    let secs = time_reps(3, || {
        black_box(sampled_item_mrc_compiled(mixed, capacity, &sampler));
    });
    out.push(
        "sim.mrc_sampled_ns_per_access",
        "ns/access",
        per_op_ns(&secs, mixed.len()),
    );
}

/// `simulate_compiled` with IBLP, ns per access: the engine ceiling the
/// serving stages are compared against.
pub fn engine_ns_per_access(compiled: &CompiledTrace, capacity: usize) -> Summary {
    let secs = time_fresh(
        3,
        || PolicyKind::IblpBalanced.build(capacity, compiled.map()),
        |policy| {
            black_box(simulate_compiled(policy.as_mut(), compiled));
        },
    );
    per_op_ns(&secs, compiled.len())
}

/// One serving stage of the runtime ledger: a fresh runtime per
/// repetition, built outside the timed region; ns per request, 1 thread.
fn stage_ns(make: impl Fn() -> GcRuntime, requests: usize, serve: impl Fn(&GcRuntime)) -> Summary {
    per_op_ns(&time_fresh(3, make, |rt| serve(rt)), requests)
}

/// `runtime.*`: the ledger on the `serve-hot` trace — IBLP, one thread,
/// each stage differing from its neighbour in one mechanism — and the
/// self times their differences give. `e2e_ns` is this run's untraced
/// `serve-hot-1t` cost per request, for `runtime.self.gap_explained`.
pub fn runtime_layer(
    out: &mut Outcome,
    trace: &Trace,
    compiled: &CompiledTrace,
    capacity: usize,
    scratch: &Path,
    e2e_ns: f64,
) {
    let n = compiled.len();
    let dense = compiled.map().clone();
    let sparse_map = BlockMap::strided(16);
    let synthetic =
        |map: &BlockMap| -> Arc<dyn BlockBackend> { Arc::new(SyntheticBackend::new(map.clone())) };
    let build = |map: &BlockMap, cfg: RuntimeConfig, backend: Arc<dyn BlockBackend>| {
        GcRuntime::with_config(
            &PolicyKind::IblpBalanced,
            capacity,
            map.clone(),
            cfg,
            backend,
        )
        .expect("ledger runtime config is valid")
    };
    let hot = |shards: usize| {
        RuntimeConfig::new(shards)
            .with_batch(64)
            .with_fetch(FetchPath::Inline)
    };
    let compiled_serve = |rt: &GcRuntime| {
        black_box(serve_trace_compiled(rt, compiled, 1).expect("ledger serve"));
    };

    let engine = engine_ns_per_access(compiled, capacity).median;
    let s1 = stage_ns(
        || build(&dense, hot(1), synthetic(&dense)),
        n,
        compiled_serve,
    );
    let s8 = stage_ns(
        || build(&dense, hot(8), synthetic(&dense)),
        n,
        compiled_serve,
    );
    let sparse = stage_ns(
        || build(&sparse_map, hot(8), synthetic(&sparse_map)),
        n,
        |rt| {
            let mut session = rt.session();
            black_box(session.run(trace.iter()).expect("ledger serve"));
            session.finish().expect("ledger serve");
        },
    );
    let get = stage_ns(
        || build(&dense, hot(8).with_batch(1), synthetic(&dense)),
        n,
        |rt| {
            for item in compiled.iter_items() {
                black_box(rt.get(item).expect("ledger get"));
            }
        },
    );
    let coalesced = stage_ns(
        || {
            build(
                &dense,
                hot(8).with_fetch(FetchPath::Coalesced),
                synthetic(&dense),
            )
        },
        n,
        compiled_serve,
    );
    let owner = stage_ns(
        || build(&dense, hot(8).with_mode(ExecMode::Owner), synthetic(&dense)),
        n,
        compiled_serve,
    );
    let mem = stage_ns(
        || {
            let backend = MemBackend::new(dense.clone(), 65_536).expect("mem capacity > 0");
            build(&dense, hot(8), Arc::new(backend))
        },
        n,
        compiled_serve,
    );
    let disk_path = scratch.join("ledger-disk.store");
    let all_blocks: Vec<BlockId> = (0..compiled.n_blocks()).map(BlockId).collect();
    let disk_spec = BackendSpec::Disk {
        path: disk_path.clone(),
    };
    let _ = std::fs::remove_file(&disk_path);
    drop(
        disk_spec
            .build(&dense, &all_blocks)
            .expect("ledger disk store populates"),
    );
    let disk = stage_ns(
        || {
            let backend = disk_spec
                .build(&dense, &[])
                .expect("ledger disk store opens");
            build(&dense, hot(8), backend)
        },
        n,
        compiled_serve,
    );
    let _ = std::fs::remove_file(&disk_path);

    for (stage, v) in [
        ("session_1shard", s1),
        ("session_8shard", s8),
        ("session_sparse_8shard", sparse),
        ("get_8shard", get),
        ("coalesced_8shard", coalesced),
        ("owner_8shard", owner),
        ("mem_8shard", mem),
        ("disk_8shard", disk),
    ] {
        out.push(format!("runtime.{stage}_ns"), "ns/req", v);
    }
    let session_self = s1.median - engine;
    let routing_self = s8.median - s1.median;
    for (term, v) in [
        ("session", session_self),
        ("routing", routing_self),
        ("hashing", sparse.median - s8.median),
        ("lock_hop", get.median - s8.median),
        ("flight", coalesced.median - s8.median),
    ] {
        out.exact(format!("runtime.self.{term}_ns"), "ns/req", v);
    }
    // The serve-hot-1t path is engine + session + routing; the other three
    // terms price alternatives that path does not take.
    let gap = e2e_ns - engine;
    out.exact(
        "runtime.self.gap_explained",
        "ratio",
        if gap > 0.0 {
            (session_self + routing_self) / gap
        } else {
            0.0
        },
    );
}

/// `singleflight.fetch_ns`: one uncontended `SingleFlight::fetch` with a
/// loader that does nothing.
pub fn singleflight_fetch_ns(out: &mut Outcome, cfg: &RunConfig) {
    let n = cfg.len(1 << 18, 1024);
    let flight = SingleFlight::new();
    let secs = time_reps(5, || {
        for key in 0..n as u64 {
            let (result, role) = flight.fetch(key & 1023, || Ok(Vec::new()));
            black_box((result.is_ok(), role));
        }
    });
    out.push("singleflight.fetch_ns", "ns", per_op_ns(&secs, n));
}

/// `store.mem.load_ns`, `store.disk.load_ns`: resident-block loads by
/// direct calls, blocks visited in a seeded scattered order.
pub fn store_read_layer(out: &mut Outcome, map: &BlockMap, n_blocks: u64, scratch: &Path) {
    let order: Vec<BlockId> = {
        let mut rng = crate::gen::SplitMix64::new(n_blocks);
        (0..n_blocks)
            .map(|_| BlockId(rng.below(n_blocks)))
            .collect()
    };
    let mut buf = Vec::new();

    let mem = MemBackend::new(map.clone(), n_blocks as usize).expect("mem capacity > 0");
    for b in 0..n_blocks {
        mem.load_block_into(BlockId(b), &mut buf)
            .expect("mem load materialises");
    }
    let secs = time_reps(5, || {
        for &b in &order {
            mem.load_block_into(b, &mut buf).expect("mem load");
        }
    });
    out.push("store.mem.load_ns", "ns", per_op_ns(&secs, order.len()));

    let path = scratch.join("ledger-read.store");
    let disk = DiskBackend::create_with(&path, map.clone(), (0..n_blocks).map(BlockId))
        .expect("ledger disk store creates");
    let secs = time_reps(5, || {
        for &b in &order {
            disk.load_block_into(b, &mut buf).expect("disk load");
        }
    });
    out.push("store.disk.load_ns", "ns", per_op_ns(&secs, order.len()));
    drop(disk);
    let _ = std::fs::remove_file(&path);
}

/// `store.disk.store_ns`, `.sync_ms`, `.open_ms`, `.bytes_per_user_byte`:
/// the write and recovery path by direct calls. Each repetition appends
/// every block to a fresh store, overwrites a quarter of them through
/// `BlockStore::store_block` (dead records are what makes the file larger
/// than the user data), syncs, and reopens.
pub fn store_write_layer(out: &mut Outcome, map: &BlockMap, n_blocks: u64, scratch: &Path) {
    let path = scratch.join("ledger-write.store");
    let (mut store_ns, mut sync_ms, mut open_ms, mut amplification) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let synthetic = SyntheticBackend::new(map.clone());
    let blocks: Vec<(BlockId, Vec<ItemId>)> = (0..n_blocks)
        .map(|b| {
            (
                BlockId(b),
                synthetic
                    .load_block(BlockId(b))
                    .expect("block is in the map"),
            )
        })
        .collect();
    let user_bytes: usize = blocks.iter().map(|(_, items)| items.len() * 8).sum();
    for _ in 0..5 {
        let _ = std::fs::remove_file(&path);
        let disk = DiskBackend::open(&path, map.clone()).expect("ledger disk store opens");
        let t0 = Instant::now();
        for (b, items) in &blocks {
            disk.store_block(*b, items).expect("append");
        }
        let overwrites = blocks.len() / 4;
        for (b, items) in &blocks[..overwrites] {
            disk.store_block(*b, items).expect("overwrite");
        }
        store_ns.push(t0.elapsed().as_secs_f64() * 1e9 / (blocks.len() + overwrites) as f64);
        let t0 = Instant::now();
        disk.sync().expect("sync");
        sync_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(disk);
        let t0 = Instant::now();
        let reopened = DiskBackend::open(&path, map.clone()).expect("ledger disk store reopens");
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        debug_assert_eq!(reopened.stored_blocks(), blocks.len());
        let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        amplification.push(file_bytes as f64 / user_bytes.max(1) as f64);
    }
    let _ = std::fs::remove_file(&path);
    out.push("store.disk.store_ns", "ns", summarize(&store_ns));
    out.push("store.disk.sync_ms", "ms", summarize(&sync_ms));
    out.push("store.disk.open_ms", "ms", summarize(&open_ms));
    out.exact(
        "store.disk.bytes_per_user_byte",
        "B/B",
        median(&amplification),
    );
}
