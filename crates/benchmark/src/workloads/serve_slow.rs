//! `serve-slow-open`: the miss path under waiting. Two caller threads,
//! unbatched `GcRuntime::get`, coalesced fetch, 2 shards, `item-lru` with
//! 64 lines over Zipf(1024 items, θ 0.8) in 64-item blocks, and a
//! `synthetic:100,25` backend that *sleeps* 100–125 µs per block load.
//! Single-flight, parked waiters and the backend dominate; policy cost is
//! noise, so a hot-path CPU optimisation should predict no change here.
//!
//! Three phases, each on a fresh runtime:
//! - **closed loop** — both threads send as fast as replies return:
//!   `throughput_rps` (capacity) and `fault_rate`;
//! - **open loop at 6 000 req/s** — a seeded Poisson schedule split across
//!   the two threads, latency timed from the due time, in 8 segments:
//!   `req_p50_us`, `req_p99_us` (median over segments);
//! - **rate ladder** — the same at each rate of [`LADDER_RPS`]:
//!   `slo_rate_rps`, the highest rate with p99 ≤ 1 ms and no growing
//!   backlog, every lower rate passing too.
//!
//! The open-loop phases last a fixed share of `--seconds` (40 % each), up
//! to 60 000 requests at the fixed rate and 1.5 s per ladder rate; a rate
//! is never judged on fewer than 1 000 requests.

use super::{check_conservation, timed_setup, Pass, Traced};
use crate::gen::{generate, poisson_schedule, Shape};
use crate::ledger;
use crate::names::{LADDER_RPS, OPEN_RATE_RPS, SLO_P99_US};
use crate::openloop::{
    backlog_max, highest_sustained, judge_rate, run_schedule, Sample, SpinClock,
};
use crate::spans::{self, ThreadSpans, TracingBackend};
use crate::stats::{percentile, summarize, tail};
use crate::{Outcome, RunConfig};
use gc_cache::gc_runtime::BackendSpec;
use gc_cache::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CAPACITY: usize = 64;
const SHARDS: usize = 2;
const THREADS: usize = 2;
const BLOCK: usize = 64;
const BACKEND: &str = "synthetic:100,25";
const SHAPE: Shape = Shape::Zipf {
    items: 1024,
    theta: 0.8,
};

fn runtime(map: &BlockMap, traced: bool) -> GcRuntime {
    let spec: BackendSpec = BACKEND.parse().expect("backend spec is well formed");
    let mut backend = spec.build(map, &[]).expect("synthetic backend builds");
    if traced {
        backend = Arc::new(TracingBackend::new(backend));
    }
    GcRuntime::with_config(
        &PolicyKind::ItemLru,
        CAPACITY,
        map.clone(),
        RuntimeConfig::new(SHARDS),
        backend,
    )
    .expect("serve-slow runtime config is valid")
}

/// One `get`, checked: it must succeed, and a miss must have fetched the
/// whole block.
fn get_ok(rt: &GcRuntime, item: ItemId) -> bool {
    match rt.get(item) {
        Ok(ServeOutcome::Hit { .. }) => true,
        Ok(ServeOutcome::Miss { fetched_items, .. }) => fetched_items == BLOCK,
        Err(_) => false,
    }
}

/// Closed loop: thread `w` serves requests `w, w+2, …` of `items` back to
/// back. Returns the slowest thread's seconds, failures, and spans (one
/// `request` span per `get` when `record`).
fn closed_pass(rt: &GcRuntime, items: &[ItemId], record: bool) -> (f64, u64, Vec<ThreadSpans>) {
    let barrier = Barrier::new(THREADS);
    let results: Vec<(f64, u64, ThreadSpans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let barrier = &barrier;
                scope.spawn(move || {
                    if record {
                        spans::start_thread(items.len() + 16);
                    }
                    let mut failed = 0u64;
                    barrier.wait();
                    let t0 = Instant::now();
                    for (i, &item) in items.iter().enumerate().skip(w).step_by(THREADS) {
                        if record {
                            spans::open(spans::REQUEST, i as u64);
                        }
                        failed += u64::from(!get_ok(rt, item));
                        if record {
                            spans::close();
                        }
                    }
                    (t0.elapsed().as_secs_f64(), failed, spans::finish_thread())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let secs = results.iter().map(|r| r.0).fold(0.0, f64::max);
    let failed = results.iter().map(|r| r.1).sum();
    (secs, failed, results.into_iter().map(|r| r.2).collect())
}

/// Open loop: request `i` of `items` is due at `due_ns[i]` and belongs to
/// thread `i % 2`. Returns each thread's samples in send order.
fn open_pass(rt: &GcRuntime, items: &[ItemId], due_ns: &[u64]) -> Vec<Vec<Sample>> {
    // Origin slightly in the future so both threads are spinning before
    // the first request falls due.
    let clock = SpinClock(Instant::now() + Duration::from_millis(2));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let clock = &clock;
                scope.spawn(move || {
                    let mine: Vec<usize> = (w..items.len()).step_by(THREADS).collect();
                    let due: Vec<u64> = mine.iter().map(|&i| due_ns[i]).collect();
                    run_schedule(clock, &due, |k| get_ok(rt, items[mine[k]]))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    })
}

/// Run one offered rate on a fresh runtime; all threads' samples and the
/// runtime's counters.
fn open_rate(
    out: &mut Outcome,
    map: &BlockMap,
    items: &[ItemId],
    rate: f64,
    seed: u64,
) -> (Vec<Vec<Sample>>, RuntimeStats) {
    let rt = runtime(map, false);
    let due = poisson_schedule(rate, items.len(), seed);
    let per_thread = open_pass(&rt, items, &due);
    let failed = per_thread.iter().flatten().filter(|s| !s.ok).count() as u64;
    out.ops
        .requests(items.len() as u64, failed, "open-loop get");
    let stats = rt.aggregate_stats();
    check_conservation(&mut out.ops, &stats, items.len() as u64, "serve-slow-open");
    (per_thread, stats)
}

pub(super) fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let map = BlockMap::strided(BLOCK);
    let floor = if cfg.quick { 200 } else { 1_000 };

    let closed_n = cfg.len(6_000, THREADS);
    let open_s = cfg.phase_seconds(0.4);
    let open_n = ((OPEN_RATE_RPS * open_s) as usize).clamp(floor, 60_000);
    let rung_s = (open_s / LADDER_RPS.len() as f64).min(1.5);
    let rung_n = |rate: u32| ((f64::from(rate) * rung_s) as usize).max(floor);
    let longest = closed_n
        .max(open_n)
        .max(LADDER_RPS.iter().map(|&r| rung_n(r)).max().unwrap_or(0));

    let ((trace, first), setup_s) = timed_setup(cfg, || {
        let trace = generate(SHAPE, longest, cfg.seed);
        // Compiled only to count it into set-up like every workload;
        // `get` takes raw keys.
        std::hint::black_box(
            CompiledTrace::compile(&trace, &map).expect("generated items are in the map"),
        );
        let first = runtime(&map, false);
        (trace, first)
    });
    let items = trace.requests();

    // Warm-up pass on the runtime set-up built.
    let (warm_s, warm_failed, _) = closed_pass(&first, &items[..closed_n], false);
    out.ops
        .requests(closed_n as u64, warm_failed, "closed-loop get");
    check_conservation(
        &mut out.ops,
        &first.aggregate_stats(),
        closed_n as u64,
        "serve-slow-open",
    );
    drop(first);

    if cfg.trace {
        let traced = Traced::alternate(|record| {
            let rt = runtime(&map, record);
            let (secs, failed, spans) = closed_pass(&rt, &items[..closed_n], record);
            out.ops.requests(closed_n as u64, failed, "closed-loop get");
            Pass {
                secs,
                spans,
                latency_ns: Vec::new(),
            }
        });
        traced.report(&mut out, cfg, "serve-slow-open", 1);
        ledger::compiled_layer(&mut out, &trace, &map);
        ledger::singleflight_fetch_ns(&mut out, cfg);
    } else {
        let reps = cfg.reps(9, 0.2, warm_s);
        let (mut rps, mut fault) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let rt = runtime(&map, false);
            let (secs, failed, _) = closed_pass(&rt, &items[..closed_n], false);
            out.ops.requests(closed_n as u64, failed, "closed-loop get");
            let stats = rt.aggregate_stats();
            check_conservation(&mut out.ops, &stats, closed_n as u64, "serve-slow-open");
            rps.push(closed_n as f64 / secs);
            fault.push(stats.fault_rate());
        }
        out.push("setup_s", "s", setup_s);
        out.push("throughput_rps", "req/s", summarize(&rps));
        out.push("fault_rate", "ratio", summarize(&fault));
    }

    // Open loop at the frozen rate, in segments on fresh runtimes: a
    // scheduling stall of the box lands in one segment's tail, and the
    // median over segments is the tail of a typical one.
    let segments = if cfg.quick { 3 } else { 8 };
    let segment_n = (open_n / segments).max(floor);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let (mut latency, mut late, mut backlog) = (Vec::new(), Vec::new(), 0usize);
    let mut counters = RuntimeStats::default();
    for k in 0..segments {
        let (per_thread, stats) = open_rate(
            &mut out,
            &map,
            &items[..segment_n],
            OPEN_RATE_RPS,
            cfg.seed ^ (0x0FE1 + k as u64),
        );
        counters.merge(&stats);
        backlog = backlog.max(per_thread.iter().map(|t| backlog_max(t)).max().unwrap_or(0));
        let mut segment: Vec<u64> = per_thread
            .iter()
            .flatten()
            .map(|s| if s.ok { s.latency_ns() } else { u64::MAX })
            .collect();
        segment.sort_unstable();
        p50.push(percentile(&segment, 0.5) as f64 / 1e3);
        p99.push(percentile(&segment, 0.99) as f64 / 1e3);
        latency.extend(segment);
        late.extend(per_thread.iter().flatten().map(Sample::lateness_ns));
    }
    if cfg.trace {
        super::push_runtime_counters(&mut out, &counters);
        late.sort_unstable();
        latency.sort_unstable();
        out.exact(
            "driver.send_late_p99_us",
            "us",
            percentile(&late, 0.99) as f64 / 1e3,
        );
        out.exact("driver.backlog_max", "count", backlog as f64);
        // p99.9 over all segments where at least ten samples lie beyond
        // it; the highest percentile that has that many otherwise.
        out.exact(
            "driver.req_p999_us",
            "us",
            tail(&latency, 0.999).0 as f64 / 1e3,
        );
        out.exact("driver.req_p999_samples", "count", latency.len() as f64);
    } else {
        out.push("req_p50_us", "us", summarize(&p50));
    }
    out.push("req_p99_us", "us", summarize(&p99));

    // The ladder. The end-to-end run stops at the first rate that fails,
    // which fixes `slo_rate_rps`; the traced run reports every rate.
    let slo_ns = (SLO_P99_US * 1e3) as u64;
    let mut verdicts = Vec::with_capacity(LADDER_RPS.len());
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let (per_thread, _) = open_rate(
            &mut out,
            &map,
            &items[..rung_n(rate)],
            f64::from(rate),
            cfg.seed ^ (0x1ADD + k as u64),
        );
        let all: Vec<Sample> = per_thread.into_iter().flatten().collect();
        let verdict = judge_rate(&all, slo_ns);
        if cfg.trace {
            out.exact(
                format!("driver.rate_{rate}.p99_us"),
                "us",
                verdict.p99_ns as f64 / 1e3,
            );
        }
        verdicts.push((f64::from(rate), verdict.pass));
        if !verdict.pass && !cfg.trace {
            break;
        }
    }
    out.exact("slo_rate_rps", "req/s", highest_sustained(&verdicts));
    out
}
