//! The six workloads. Each module has one `run(cfg)` that does the
//! end-to-end run (tracing off) or the traced run (per-layer metrics),
//! and counts every request and every correctness check into
//! [`Ops`](crate::Ops).

mod serve_hot;
mod serve_slow;
mod serve_store;
mod sim_roster;

use crate::names;
use crate::spans::{self, ThreadSpans};
use crate::stats::{median, percentile, summarize, Summary};
use crate::{Ops, Outcome, RunConfig};
use gc_cache::prelude::*;
use std::time::Instant;

/// Run workload `name`. The end-to-end run reports [`names::end_to_end`]
/// and the [`names::unbounded`] metrics the workload has; the traced run
/// reports the per-layer metrics of the layers the workload exercises.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("cannot create scratch {}: {e}", cfg.scratch.display()))?;
    let mut out = match name {
        "sim-roster" => sim_roster::run(cfg),
        "serve-hot-1t" => serve_hot::run(cfg, 1),
        "serve-hot-2t" => serve_hot::run(cfg, 2),
        "serve-slow-open" => serve_slow::run(cfg),
        "serve-tiered-read" => serve_store::run_tiered_read(cfg),
        "serve-disk-cold" => serve_store::run_disk_cold(cfg),
        other => return Err(names::unknown_workload(other)),
    };
    if !cfg.trace {
        out.exact("peak_rss_mb", "MiB", crate::peak_rss_mb());
        for def in names::end_to_end() {
            let reported = out.get(&def.name);
            out.ops.check(reported.is_some_and(|v| v > 0.0), || {
                format!("{name}: end-to-end metric {} is {reported:?}", def.name)
            });
        }
    }
    Ok(out)
}

/// Run `build` repeatedly, timing each run: at least 5 times and until
/// half a second has gone into it (at most 40 times; twice when quick).
/// Returns the last result and the summary of the times. Set-up is
/// repeated within a run so that one slow fsync or page-fault burst does
/// not decide `setup_s`, and a set-up of a millisecond is repeated more
/// because its relative noise is larger.
fn timed_setup<T>(cfg: &RunConfig, mut build: impl FnMut() -> T) -> (T, Summary) {
    let (min, max, budget_s) = if cfg.quick { (2, 2, 0.0) } else { (5, 40, 0.5) };
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < min || (secs.len() < max && secs.iter().sum::<f64>() < budget_s) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), summarize(&secs))
}

/// The counters that must repeat exactly between repetitions of a
/// 1-thread workload, and between backends: everything in
/// [`RuntimeStats`] except the latency histograms and tier telemetry.
fn counters(s: &RuntimeStats) -> [u64; 11] {
    [
        s.accesses,
        s.misses,
        s.temporal_hits,
        s.spatial_hits,
        s.admitted_items,
        s.evicted_items,
        s.peak_len as u64,
        s.backend_fetches,
        s.coalesced_fetches,
        s.fetched_items,
        s.delayed_hits,
    ]
}

/// The policy-visible part of [`counters`]: what `gc_sim::simulate` also
/// counts, in `SimStats` field order.
fn sim_shape(s: &SimStats) -> [u64; 7] {
    [
        s.accesses,
        s.misses,
        s.temporal_hits,
        s.spatial_hits,
        s.items_loaded,
        s.items_evicted,
        s.peak_len as u64,
    ]
}

/// Conservation laws every serving run must satisfy.
fn check_conservation(ops: &mut Ops, s: &RuntimeStats, requests: u64, what: &str) {
    ops.check(s.accesses == requests, || {
        format!("{what}: served {} of {requests} requests", s.accesses)
    });
    ops.check(s.hits() + s.misses == s.accesses, || {
        format!("{what}: hits + misses != accesses ({s:?})")
    });
    ops.check(s.misses == s.backend_fetches + s.coalesced_fetches, || {
        format!("{what}: misses != backend_fetches + coalesced_fetches ({s:?})")
    });
}

/// Latency samples (ns) of one repetition as p50 and p99 in µs.
fn p50_p99_us(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 0.5) as f64 / 1e3,
        percentile(samples, 0.99) as f64 / 1e3,
    )
}

/// Slices a pass is cut into for [`typical_seconds`].
const SLICES: usize = 64;

/// One pass's part times folded into [`SLICES`] consecutive slice sums.
fn slice_sums(parts_ns: &[u64]) -> Vec<f64> {
    let per = parts_ns.len().div_ceil(SLICES).max(1);
    parts_ns
        .chunks(per)
        .map(|c| c.iter().sum::<u64>() as f64)
        .collect()
}

/// Seconds of a typical pass: each slice's time is its median over the
/// repetitions, and the slices are summed. The box stalls for milliseconds
/// several times a second; a stall lands in different slices in different
/// repetitions, so the per-slice median drops it, where the median of
/// whole-pass times keeps whatever share of stalls every pass caught.
fn typical_seconds(slices_per_rep: &[Vec<f64>]) -> f64 {
    let n = slices_per_rep.first().map_or(0, Vec::len);
    (0..n)
        .map(|k| median(&slices_per_rep.iter().map(|rep| rep[k]).collect::<Vec<_>>()))
        .sum::<f64>()
        / 1e9
}

/// Throughput from [`typical_seconds`] (plus `extra_s`, time outside the
/// slices), with the quartiles of the per-repetition whole-pass rates.
fn typical_rps(
    requests: u64,
    slices_per_rep: &[Vec<f64>],
    extra_s: f64,
    rep_rps: &[f64],
) -> Summary {
    Summary {
        median: requests as f64 / (typical_seconds(slices_per_rep) + extra_s),
        ..summarize(rep_rps)
    }
}

/// Report the end-to-end metrics a closed-loop workload measures per
/// repetition (`peak_rss_mb` is added by [`run`]).
fn push_end_to_end(
    out: &mut Outcome,
    setup_s: Summary,
    rps: Summary,
    fault_rate: &[f64],
    p50_us: &[f64],
    p99_us: &[f64],
) {
    out.push("setup_s", "s", setup_s);
    out.push("throughput_rps", "req/s", rps);
    out.push("fault_rate", "ratio", summarize(fault_rate));
    out.push("req_p50_us", "us", summarize(p50_us));
    out.push("req_p99_us", "us", summarize(p99_us));
}

/// One closed-loop pass as the traced run needs it.
struct Pass {
    /// Wall seconds of the timed region.
    secs: f64,
    /// Spans recorded (empty for an untraced pass).
    spans: Vec<ThreadSpans>,
    /// Caller-visible latencies, ns, in any order.
    latency_ns: Vec<u64>,
}

/// What a traced run learned from its spans and its paired untraced
/// passes.
struct Traced {
    threads: Vec<ThreadSpans>,
    /// Spans that go to the span file but not into the totals (the
    /// ledger's `window` spans on `sim-roster`).
    file_only: Vec<ThreadSpans>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Latencies of each untraced pass, ascending.
    untraced_latency_ns: Vec<Vec<u64>>,
}

impl Traced {
    /// Alternate untraced and traced passes (five of each after one
    /// untimed pass), keeping the spans of the last traced one.
    fn alternate(mut pass: impl FnMut(bool) -> Pass) -> Traced {
        pass(false);
        let mut t = Traced {
            threads: Vec::new(),
            file_only: Vec::new(),
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
            untraced_latency_ns: Vec::new(),
        };
        for _ in 0..5 {
            let mut untraced = pass(false);
            t.untraced_s.push(untraced.secs);
            untraced.latency_ns.sort_unstable();
            t.untraced_latency_ns.push(untraced.latency_ns);
            let traced = pass(true);
            t.traced_s.push(traced.secs);
            t.threads = traced.spans;
        }
        t
    }

    /// `req_p99_us` as the traced run reports it: the p99 of each untraced
    /// pass, summarised over the passes.
    fn p99_us(&self) -> Summary {
        let per_pass: Vec<f64> = self
            .untraced_latency_ns
            .iter()
            .map(|l| percentile(l, 0.99) as f64 / 1e3)
            .collect();
        summarize(&per_pass)
    }

    /// Report `tracing.*` and `backend.*` (the latter from the
    /// `backend.load` spans), and write the span file. `per_scope` is how
    /// many requests one scope span covers.
    fn report(&self, out: &mut Outcome, cfg: &RunConfig, workload: &str, per_scope: usize) {
        let totals = spans::totals(&self.threads);
        let requests = (totals.scopes as usize * per_scope).max(1);
        let (untraced, traced) = (median(&self.untraced_s), median(&self.traced_s));
        out.exact(
            "tracing.overhead_share",
            "ratio",
            (traced - untraced) / untraced,
        );
        out.exact(
            "tracing.runtime_self_ns",
            "ns/req",
            totals.self_ns() as f64 / requests as f64,
        );
        out.exact(
            "tracing.backend_ns",
            "ns/req",
            totals.child_ns as f64 / requests as f64,
        );
        out.exact("tracing.spans", "count", totals.recorded as f64);
        if !totals.load_ns.is_empty() {
            out.exact("backend.loads", "count", totals.load_ns.len() as f64);
            out.exact(
                "backend.busy_s",
                "s",
                totals.load_ns.iter().sum::<u64>() as f64 / 1e9,
            );
            out.exact(
                "backend.load_p50_us",
                "us",
                percentile(&totals.load_ns, 0.5) as f64 / 1e3,
            );
            out.exact(
                "backend.load_p99_us",
                "us",
                percentile(&totals.load_ns, 0.99) as f64 / 1e3,
            );
        }
        out.ops.check(totals.dropped == 0, || {
            format!(
                "{workload}: {} spans dropped, buffer too small",
                totals.dropped
            )
        });
        let path = cfg.scratch.join(format!("spans-{workload}.jsonl"));
        let all: Vec<ThreadSpans> = self
            .threads
            .iter()
            .chain(&self.file_only)
            .cloned()
            .collect();
        let written = spans::write_jsonl(&path, &all);
        out.ops.check(written.is_ok(), || {
            format!("{workload}: cannot write {}: {written:?}", path.display())
        });
    }
}

/// `singleflight.*` and `policies.*` paper quantities from a serving
/// run's counters.
fn push_runtime_counters(out: &mut Outcome, s: &RuntimeStats) {
    crate::ledger::paper_quantities(
        out,
        s.misses,
        s.admitted_items,
        s.fetched_items,
        s.spatial_hits,
    );
    out.exact("singleflight.coalescing_rate", "ratio", s.coalescing_rate());
    out.exact("singleflight.delayed_hits", "count", s.delayed_hits as f64);
    out.exact(
        "singleflight.waiter_p50_us",
        "us",
        s.waiter_wait.quantile_nanos(0.5) as f64 / 1e3,
    );
    out.exact(
        "singleflight.waiter_p99_us",
        "us",
        s.waiter_wait.quantile_nanos(0.99) as f64 / 1e3,
    );
    out.exact("singleflight.leaders", "count", s.backend_fetches as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_slice_medians_drop_a_stall_that_whole_pass_medians_keep() {
        // 640 parts of 1 µs; every repetition catches one 200 µs stall, each
        // in a different slice.
        let reps: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                let mut parts = vec![1_000u64; 640];
                parts[r * 100] += 200_000;
                slice_sums(&parts)
            })
            .collect();
        assert!(reps.iter().all(|s| s.len() == SLICES));
        assert_eq!(typical_seconds(&reps), 640e-6);
        let whole: Vec<f64> = reps.iter().map(|s| s.iter().sum::<f64>() / 1e9).collect();
        assert_eq!(median(&whole), 840e-6);
        let rps = typical_rps(640, &reps, 360e-6, &[1.0, 2.0, 3.0]);
        assert_eq!((rps.median, rps.n), (640.0 / 1e-3, 3));
    }
}
