//! `serve-tiered-read` and `serve-disk-cold`: the block store used both
//! ways, so work that helps reads and costs writes (or the reverse) shows.
//! Both are closed loop, 1 thread, IBLP capacity 4096, 8 locked shards,
//! `Session` batch 8, coalesced fetch. The caller-visible request is one
//! batch window — 8 pushes, the last of which flushes — and every window
//! is timed: `req_p50_us`/`req_p99_us` are per window.
//!
//! **tiered-read** — `tiered:mem:256+disk:<file>` with the disk tier
//! prepopulated, fsynced and reopened; 2 M accesses over 16 384 blocks × 16
//! (θ 0.6), so the working set is 64× the RAM tier and the read path
//! (`DiskBackend` index lock, per-load `Vec`, `pread`; `MemBackend`
//! staging; tier histograms) does most of the work.
//!
//! **disk-cold** — a fresh `disk:<file>` store per repetition, not
//! prepopulated; 1 M accesses over 262 144 blocks × 16 (θ 0.2, spatial
//! 0.5), so most misses are first-touch appends. The timed region ends
//! with `DiskBackend::sync()`. Then the store is dropped, reopened
//! (`recovery_s`: the recovery scan, median of 5) and every block read
//! back: each must equal what `SyntheticBackend` serves, and the record
//! count must equal the distinct blocks touched.

use super::{
    check_conservation, counters, p50_p99_us, push_end_to_end, slice_sums, timed_setup,
    typical_rps, Pass, Traced,
};
use crate::gen::{generate, Shape};
use crate::ledger;
use crate::spans::{self, ThreadSpans, TracingBackend};
use crate::stats::{median, summarize};
use crate::{Outcome, RunConfig};
use gc_cache::gc_runtime::{BackendSpec, BlockStore, DiskBackend};
use gc_cache::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const CAPACITY: usize = 4096;
const SHARDS: usize = 8;
const BATCH: usize = 8;
const RAM_TIER_BLOCKS: usize = 256;
/// A traced pass spans one batch window in this many. A window is ≈ 7 µs
/// with ≈ 4 block loads, and reading the clock costs ≈ 33 ns on the box
/// this was defined on: spanning every window and load costs 8–10 % of
/// the pass, one in four 4–5 %, one in eight 2–4 % — under the 5 % the
/// traced numbers are trusted at. Self times are per spanned request, so
/// sampling leaves them unbiased.
const TRACE_EVERY: usize = 8;

const TIERED_SHAPE: Shape = Shape::BlockRuns {
    blocks: 16_384,
    block_size: 16,
    theta: 0.6,
    spatial: 0.5,
};
const COLD_SHAPE: Shape = Shape::BlockRuns {
    blocks: 262_144,
    block_size: 16,
    theta: 0.2,
    spatial: 0.5,
};

fn runtime(map: &BlockMap, backend: Arc<dyn BlockBackend>) -> GcRuntime {
    GcRuntime::with_config(
        &PolicyKind::IblpBalanced,
        CAPACITY,
        map.clone(),
        RuntimeConfig::new(SHARDS).with_batch(BATCH),
        backend,
    )
    .expect("serve-store runtime config is valid")
}

/// One closed-loop pass: push the compiled trace's dense items through a
/// session, timing each batch window. Returns seconds from first push to
/// last flush, window times in ns, and whether any request failed. When
/// `record`, one window in [`TRACE_EVERY`] is a `request` span.
fn windowed_pass(rt: &GcRuntime, compiled: &CompiledTrace, record: bool) -> (f64, Vec<u64>, bool) {
    let mut windows = Vec::with_capacity(compiled.len() / BATCH + 1);
    let mut session = rt.session();
    let mut failed = false;
    let t0 = spans::now_ns();
    let mut end = t0;
    for (w, window) in compiled.accesses().chunks(BATCH).enumerate() {
        // The window is timed in every pass; a recording pass reuses the
        // two clock readings for the span instead of taking two more.
        let start = spans::now_ns();
        let record = record && w % TRACE_EVERY == 0;
        if record {
            spans::open_at(spans::REQUEST, w as u64, start);
        }
        for a in window {
            failed |= session.push(ItemId(u64::from(a.item))).is_err();
        }
        failed |= session.flush().is_err();
        end = spans::now_ns();
        windows.push(end - start);
        if record {
            spans::close_at(end);
        }
    }
    failed |= session.finish().is_err();
    ((end - t0) as f64 / 1e9, windows, failed)
}

/// Span buffer for one traced pass: a span per spanned window plus at
/// most one load per access in it.
fn span_capacity(compiled: &CompiledTrace) -> usize {
    (compiled.len() / BATCH + compiled.len()) / TRACE_EVERY + BATCH + 16
}

struct Inputs {
    trace: Trace,
    compiled: CompiledTrace,
    first: GcRuntime,
}

fn tiered_spec(path: &Path) -> BackendSpec {
    format!("tiered:mem:{RAM_TIER_BLOCKS}+disk:{}", path.display())
        .parse()
        .expect("backend spec is well formed")
}

/// Open the hierarchy over the existing disk file: a cold RAM tier over a
/// recovered disk tier.
fn tiered_backend(spec: &BackendSpec, map: &BlockMap, traced: bool) -> Arc<dyn BlockBackend> {
    let backend = spec.build(map, &[]).expect("prepopulated store reopens");
    if traced {
        Arc::new(TracingBackend::new(backend))
    } else {
        backend
    }
}

pub(super) fn run_tiered_read(cfg: &RunConfig) -> Outcome {
    const WHAT: &str = "serve-tiered-read";
    let mut out = Outcome::default();
    let path = cfg.scratch.join("tiered.store");
    let spec = tiered_spec(&path);
    let (inputs, setup_s) = timed_setup(cfg, || {
        let trace = generate(TIERED_SHAPE, cfg.len(1 << 21, BATCH * 512), cfg.seed);
        let compiled = CompiledTrace::compile(&trace, &BlockMap::strided(16))
            .expect("generated items are in the map");
        // Populate + fsync, drop, reopen: serving then measures reads
        // against a durable store recovered on open.
        let _ = std::fs::remove_file(&path);
        let all: Vec<BlockId> = (0..compiled.n_blocks()).map(BlockId).collect();
        drop(
            spec.build(compiled.map(), &all)
                .expect("disk tier populates"),
        );
        let first = runtime(compiled.map(), tiered_backend(&spec, compiled.map(), false));
        Inputs {
            trace,
            compiled,
            first,
        }
    });
    let Inputs {
        trace,
        compiled,
        first,
    } = inputs;
    let map = compiled.map().clone();
    let n = compiled.len() as u64;

    // Reference: the same run over the synthetic backend. Layering changes
    // where time goes, never what the policy sees.
    let synthetic = runtime(&map, Arc::new(SyntheticBackend::new(map.clone())));
    let (_, _, synthetic_failed) = windowed_pass(&synthetic, &compiled, false);
    let reference = counters(&synthetic.aggregate_stats());
    out.ops.check(!synthetic_failed, || {
        format!("{WHAT}: synthetic reference run failed")
    });
    drop(synthetic);

    let check = |out: &mut Outcome, rt: &GcRuntime, failed: bool| {
        out.ops.requests(n, u64::from(failed) * n, "session push");
        let stats = rt.aggregate_stats();
        check_conservation(&mut out.ops, &stats, n, WHAT);
        out.ops.check(counters(&stats) == reference, || {
            format!("{WHAT}: counters differ from the synthetic-backend run: {stats:?}")
        });
        let (l1, l2) = (&stats.tiers[0], &stats.tiers[1]);
        out.ops.check(
            l1.fetches + l2.fetches == stats.backend_fetches && l1.stores == l2.fetches,
            || format!("{WHAT}: tier conservation broken: {:?}", stats.tiers),
        );
        stats
    };

    let (warm_s, _, warm_failed) = windowed_pass(&first, &compiled, false);
    let warm_stats = check(&mut out, &first, warm_failed);
    drop(first);

    if cfg.trace {
        let traced = Traced::alternate(|record| {
            let rt = runtime(&map, tiered_backend(&spec, &map, record));
            if record {
                spans::start_thread(span_capacity(&compiled));
            }
            let (secs, latency_ns, failed) = windowed_pass(&rt, &compiled, record);
            let spans: Vec<ThreadSpans> = vec![spans::finish_thread()];
            check(&mut out, &rt, failed);
            Pass {
                secs,
                spans,
                latency_ns,
            }
        });
        traced.report(&mut out, cfg, WHAT, BATCH);
        out.push("req_p99_us", "us", traced.p99_us());
        super::push_runtime_counters(&mut out, &warm_stats);
        for tier in &warm_stats.tiers {
            let label = &tier.label;
            out.exact(
                format!("store.{label}.fetches"),
                "count",
                tier.fetches as f64,
            );
            if label == "mem" {
                out.exact("store.mem.stores", "count", tier.stores as f64);
            }
            for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
                out.exact(
                    format!("store.{label}.load_{name}_us"),
                    "us",
                    tier.latency.quantile_nanos(q) as f64 / 1e3,
                );
            }
        }
        out.exact(
            "store.l1_hit_share",
            "ratio",
            warm_stats.tiers[0].fetches as f64 / warm_stats.backend_fetches.max(1) as f64,
        );
        ledger::compiled_layer(&mut out, &trace, &BlockMap::strided(16));
        ledger::store_read_layer(&mut out, &map, compiled.n_blocks(), &cfg.scratch);
    } else {
        let reps = cfg.reps(9, 0.8, warm_s);
        let (mut rps, mut fault, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
        let mut slices = Vec::new();
        for _ in 0..reps {
            let rt = runtime(&map, tiered_backend(&spec, &map, false));
            let (secs, mut windows, failed) = windowed_pass(&rt, &compiled, false);
            let stats = check(&mut out, &rt, failed);
            rps.push(n as f64 / secs);
            fault.push(stats.fault_rate());
            slices.push(slice_sums(&windows));
            let (a, b) = p50_p99_us(&mut windows);
            p50.push(a);
            p99.push(b);
        }
        let rps = typical_rps(n, &slices, 0.0, &rps);
        push_end_to_end(&mut out, setup_s, rps, &fault, &p50, &p99);
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// One `serve-disk-cold` repetition.
struct ColdPass {
    /// Seconds of the timed region: serving, then `sync()`.
    secs: f64,
    /// Seconds of the `sync()` alone.
    sync_s: f64,
    windows_ns: Vec<u64>,
    failed: bool,
    stats: RuntimeStats,
    /// Records in the store after the pass.
    stored: usize,
}

/// Serve the trace on a fresh store at `path`, then `sync()`.
fn cold_pass(path: &Path, compiled: &CompiledTrace, record: bool) -> ColdPass {
    let _ = std::fs::remove_file(path);
    let map = compiled.map().clone();
    let disk = Arc::new(DiskBackend::open(path, map.clone()).expect("fresh store opens"));
    let backend: Arc<dyn BlockBackend> = if record {
        Arc::new(TracingBackend::new(disk.clone()))
    } else {
        disk.clone()
    };
    let rt = runtime(&map, backend);
    let t0 = Instant::now();
    let (serve_s, windows_ns, mut failed) = windowed_pass(&rt, compiled, record);
    failed |= disk.sync().is_err();
    let secs = t0.elapsed().as_secs_f64();
    ColdPass {
        secs,
        sync_s: secs - serve_s,
        windows_ns,
        failed,
        stats: rt.aggregate_stats(),
        stored: disk.stored_blocks(),
    }
}

pub(super) fn run_disk_cold(cfg: &RunConfig) -> Outcome {
    const WHAT: &str = "serve-disk-cold";
    let mut out = Outcome::default();
    let path: PathBuf = cfg.scratch.join("cold.store");
    let ((trace, compiled), setup_s) = timed_setup(cfg, || {
        let trace = generate(COLD_SHAPE, cfg.len(1 << 20, BATCH * 512), cfg.seed);
        let compiled = CompiledTrace::compile(&trace, &BlockMap::strided(16))
            .expect("generated items are in the map");
        // The first store and runtime: an empty file with its header synced.
        let _ = std::fs::remove_file(&path);
        let disk = DiskBackend::open(&path, compiled.map().clone()).expect("fresh store opens");
        drop(runtime(compiled.map(), Arc::new(disk)));
        (trace, compiled)
    });
    let map = compiled.map().clone();
    let n = compiled.len() as u64;
    // The dense universe is exactly the closure of the blocks the trace
    // touches, and every touched block misses at least once.
    let distinct_blocks = compiled.n_blocks() as usize;

    let mut reference = None;
    let mut check = |out: &mut Outcome, pass: &ColdPass| {
        out.ops
            .requests(n, u64::from(pass.failed) * n, "session push + sync");
        check_conservation(&mut out.ops, &pass.stats, n, WHAT);
        let reference = *reference.get_or_insert_with(|| counters(&pass.stats));
        out.ops.check(counters(&pass.stats) == reference, || {
            format!(
                "{WHAT}: counters differ between repetitions: {:?}",
                pass.stats
            )
        });
        out.ops.check(pass.stored == distinct_blocks, || {
            format!(
                "{WHAT}: {} records for {distinct_blocks} distinct blocks",
                pass.stored
            )
        });
    };

    let warm = cold_pass(&path, &compiled, false);
    check(&mut out, &warm);

    if cfg.trace {
        let traced = Traced::alternate(|record| {
            if record {
                spans::start_thread(span_capacity(&compiled));
            }
            let pass = cold_pass(&path, &compiled, record);
            let spans = vec![spans::finish_thread()];
            check(&mut out, &pass);
            Pass {
                secs: pass.secs,
                spans,
                latency_ns: pass.windows_ns,
            }
        });
        traced.report(&mut out, cfg, WHAT, BATCH);
        out.push("req_p99_us", "us", traced.p99_us());
        super::push_runtime_counters(&mut out, &warm.stats);
        ledger::compiled_layer(&mut out, &trace, &BlockMap::strided(16));
        ledger::store_write_layer(
            &mut out,
            &map,
            compiled.n_blocks().min(1 << 16),
            &cfg.scratch,
        );
    } else {
        let reps = cfg.reps(9, 0.8, warm.secs);
        let (mut rps, mut fault, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
        let (mut slices, mut sync_s) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let mut pass = cold_pass(&path, &compiled, false);
            check(&mut out, &pass);
            rps.push(n as f64 / pass.secs);
            fault.push(pass.stats.fault_rate());
            slices.push(slice_sums(&pass.windows_ns));
            sync_s.push(pass.sync_s);
            let (a, b) = p50_p99_us(&mut pass.windows_ns);
            p50.push(a);
            p99.push(b);
        }
        let rps = typical_rps(n, &slices, median(&sync_s), &rps);
        push_end_to_end(&mut out, setup_s, rps, &fault, &p50, &p99);
    }

    // Durability: the last pass's store, as a restart finds it.
    let mut recovery_s = Vec::new();
    let mut reopened = None;
    for _ in 0..5 {
        drop(reopened.take());
        let t0 = Instant::now();
        let store = DiskBackend::open(&path, map.clone());
        recovery_s.push(t0.elapsed().as_secs_f64());
        reopened = store.ok();
    }
    out.push("recovery_s", "s", summarize(&recovery_s));
    match reopened {
        None => out
            .ops
            .check(false, || format!("{WHAT}: synced store does not reopen")),
        Some(store) => {
            out.ops.check(store.stored_blocks() == distinct_blocks, || {
                format!(
                    "{WHAT}: reopened store holds {} records, {distinct_blocks} were acknowledged",
                    store.stored_blocks()
                )
            });
            let synthetic = SyntheticBackend::new(map.clone());
            let mut got = Vec::new();
            let mut wrong = 0u64;
            for b in (0..compiled.n_blocks()).map(BlockId) {
                let held = store.try_load_into(b, &mut got).unwrap_or(false);
                let same = held && synthetic.load_block(b).is_ok_and(|want| want == got);
                wrong += u64::from(!same);
            }
            out.ops
                .requests(compiled.n_blocks(), wrong, "read-back after reopen");
        }
    }
    let _ = std::fs::remove_file(&path);
    out
}
