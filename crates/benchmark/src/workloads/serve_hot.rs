//! `serve-hot-1t` / `serve-hot-2t`: the serving fast path. Closed loop,
//! `serve_trace_compiled` from 1 or 2 threads; IBLP, capacity 4096, 8
//! locked shards, batch 64, inline fetch, zero-latency synthetic backend,
//! the 4 M-access `mixed` trace. Session batching, shard routing and the
//! lock hop are the whole difference from the engine ceiling; backend and
//! single-flight are idle. The 2-thread variant is the same layer used
//! differently: a gain there that costs the 1-thread path shows here.
//!
//! A request is ≈ 30–150 ns, too short to time singly. Latency is taken
//! in a separate pass over the first quarter of the trace, where each
//! thread pushes raw keys through `Session::push` and times every
//! 64-request batch window from its first push to the return of the flush
//! the 64th triggers: `req_p50_us`/`req_p99_us` are per batch window, the
//! longest any request in it waited.

use super::{
    check_conservation, counters, p50_p99_us, push_end_to_end, sim_shape, timed_setup, Pass, Traced,
};
use crate::gen::{generate, MIXED};
use crate::ledger;
use crate::spans;
use crate::stats::{median, summarize};
use crate::{Outcome, RunConfig};
use gc_cache::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const CAPACITY: usize = 4096;
const SHARDS: usize = 8;
const BATCH: usize = 64;
const FULL_LEN: usize = 1 << 22;

struct Inputs {
    trace: Trace,
    compiled: CompiledTrace,
    /// The first runtime, built inside set-up so its cost is counted.
    first: GcRuntime,
}

fn runtime(compiled: &CompiledTrace, shards: usize) -> GcRuntime {
    let map = compiled.map().clone();
    GcRuntime::with_config(
        &PolicyKind::IblpBalanced,
        CAPACITY,
        map.clone(),
        RuntimeConfig::new(shards)
            .with_batch(BATCH)
            .with_fetch(FetchPath::Inline),
        Arc::new(SyntheticBackend::new(map)),
    )
    .expect("serve-hot runtime config is valid")
}

fn setup(cfg: &RunConfig) -> Inputs {
    let trace = generate(MIXED, cfg.len(FULL_LEN, ledger::WINDOW), cfg.seed);
    let compiled = CompiledTrace::compile(&trace, &BlockMap::strided(16))
        .expect("generated items are in the map");
    let first = runtime(&compiled, SHARDS);
    Inputs {
        trace,
        compiled,
        first,
    }
}

/// The windowed pass: `threads` threads push their strided share of the
/// first `len` accesses through `Session::push`, timing each batch window
/// (`BATCH` pushes, the last of which flushes). Returns the slowest
/// thread's seconds from the common start, the
/// window times in ns, and the spans of recording threads (one `window`
/// span per [`ledger::WINDOW`] requests when `record`).
fn windowed_pass(
    rt: &GcRuntime,
    compiled: &CompiledTrace,
    len: usize,
    threads: usize,
    record: bool,
) -> (f64, Vec<u64>, Vec<spans::ThreadSpans>) {
    let accesses = &compiled.accesses()[..len];
    let barrier = Barrier::new(threads);
    let per_thread: Vec<(f64, Vec<u64>, spans::ThreadSpans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let barrier = &barrier;
                scope.spawn(move || {
                    if record {
                        spans::start_thread(len / ledger::WINDOW + 2);
                    }
                    let mine: Vec<ItemId> = accesses
                        .iter()
                        .skip(w)
                        .step_by(threads)
                        .map(|a| ItemId(u64::from(a.item)))
                        .collect();
                    let mut windows = Vec::with_capacity(mine.len() / BATCH + 1);
                    let mut session = rt.session();
                    barrier.wait();
                    let t0 = Instant::now();
                    for (s, span) in mine.chunks(ledger::WINDOW).enumerate() {
                        spans::open(spans::WINDOW, s as u64);
                        for window in span.chunks(BATCH) {
                            let t = Instant::now();
                            for &item in window {
                                session.push(item).expect("dense items are in the map");
                            }
                            session.flush().expect("zero-latency backend cannot fail");
                            windows.push(t.elapsed().as_nanos() as u64);
                        }
                        spans::close();
                    }
                    session.finish().expect("nothing left to flush");
                    (t0.elapsed().as_secs_f64(), windows, spans::finish_thread())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let (mut secs, mut windows, mut threads_spans) = (0.0f64, Vec::new(), Vec::new());
    for (t, w, s) in per_thread {
        secs = secs.max(t);
        windows.extend(w);
        threads_spans.push(s);
    }
    (secs, windows, threads_spans)
}

pub(super) fn run(cfg: &RunConfig, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = timed_setup(cfg, || setup(cfg));
    let Inputs {
        trace,
        compiled,
        first,
    } = inputs;
    let n = compiled.len() as u64;
    let what = format!("serve-hot-{threads}t");

    // Oracle: one shard driven by one thread is the offline engine, on the
    // compiled and on the sparse trace.
    let rt1 = runtime(&compiled, 1);
    serve_trace_compiled(&rt1, &compiled, 1).expect("zero-latency backend cannot fail");
    let drained = rt1.drain();
    let kind = PolicyKind::IblpBalanced;
    let dense = simulate_compiled(kind.build(CAPACITY, compiled.map()).as_mut(), &compiled);
    let sparse = simulate(
        kind.build(CAPACITY, &BlockMap::strided(16)).as_mut(),
        &trace,
    );
    out.ops.check(sim_shape(&drained) == sim_shape(&dense), || {
        format!("{what}: 1-shard drain {drained:?} != simulate_compiled {dense:?}")
    });
    out.ops.check(sim_shape(&dense) == sim_shape(&sparse), || {
        format!("{what}: simulate_compiled {dense:?} != simulate {sparse:?}")
    });
    drop(rt1);

    // Warm-up pass on the runtime set-up built.
    let warm =
        serve_trace_compiled(&first, &compiled, threads).expect("zero-latency backend cannot fail");
    check_conservation(&mut out.ops, &warm.stats, n, &what);
    let reference = counters(&warm.stats);
    drop(first);

    let latency_len = (compiled.len() / 4).max(BATCH);
    if cfg.trace {
        let traced = Traced::alternate(|record| {
            let rt = runtime(&compiled, SHARDS);
            let (secs, latency_ns, spans) =
                windowed_pass(&rt, &compiled, compiled.len(), threads, record);
            Pass {
                secs,
                spans,
                latency_ns,
            }
        });
        traced.report(&mut out, cfg, &what, ledger::WINDOW);
        out.push("req_p99_us", "us", traced.p99_us());
        out.exact("backend.loads", "count", warm.stats.backend_fetches as f64);
        super::push_runtime_counters(&mut out, &warm.stats);
        ledger::compiled_layer(&mut out, &trace, &BlockMap::strided(16));
        if threads == 1 {
            let e2e_ns = median(&ledger::time_fresh(
                3,
                || runtime(&compiled, SHARDS),
                |rt| {
                    serve_trace_compiled(rt, &compiled, 1)
                        .expect("zero-latency backend cannot fail");
                },
            )) * 1e9
                / n as f64;
            // The ledger runs on a prefix: per-request cost is steady after
            // the first few thousand requests, and eight stages × four
            // passes over the whole trace would outlast the workload.
            let prefix = Trace::from_requests(
                trace.requests()[..cfg.len(1 << 20, ledger::WINDOW).min(trace.len())].to_vec(),
            );
            let (trace, compiled) = (
                &prefix,
                &CompiledTrace::compile(&prefix, &BlockMap::strided(16))
                    .expect("generated items are in the map"),
            );
            ledger::runtime_layer(&mut out, trace, compiled, CAPACITY, &cfg.scratch, e2e_ns);
            ledger::singleflight_fetch_ns(&mut out, cfg);
        } else {
            let hit_rates: Vec<f64> = (0..5)
                .map(|_| {
                    let rt = runtime(&compiled, SHARDS);
                    serve_trace_compiled(&rt, &compiled, 2)
                        .expect("zero-latency backend cannot fail")
                        .stats
                        .hit_rate()
                })
                .collect();
            let s = summarize(&hit_rates);
            out.push("runtime.hit_rate_2t", "ratio", s);
            out.exact("runtime.hit_rate_2t_spread", "ratio", s.q3 - s.q1);
        }
        return out;
    }

    let reps = cfg.reps(9, 0.6, warm.wall_seconds);
    let (mut rps, mut fault) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let rt = runtime(&compiled, SHARDS);
        let report = serve_trace_compiled(&rt, &compiled, threads);
        let failed = u64::from(report.is_err());
        out.ops.requests(n, failed * n, "serve_trace_compiled");
        let Ok(report) = report else { continue };
        check_conservation(&mut out.ops, &report.stats, n, &what);
        if threads == 1 {
            out.ops.check(counters(&report.stats) == reference, || {
                format!("{what}: repetition {rep} counters differ from the warm-up pass")
            });
        }
        rps.push(report.throughput_rps);
        fault.push(report.stats.fault_rate());
    }

    let lat_reps = cfg.reps(9, 0.2, warm.wall_seconds / 4.0);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for _ in 0..lat_reps {
        let rt = runtime(&compiled, SHARDS);
        let (_, mut windows, _) = windowed_pass(&rt, &compiled, latency_len, threads, false);
        check_conservation(
            &mut out.ops,
            &rt.aggregate_stats(),
            latency_len as u64,
            &what,
        );
        let (a, b) = p50_p99_us(&mut windows);
        p50.push(a);
        p99.push(b);
    }
    push_end_to_end(&mut out, setup_s, summarize(&rps), &fault, &p50, &p99);
    out
}
