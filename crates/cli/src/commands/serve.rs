//! `serve`: replay a trace through the concurrent sharded runtime.

use super::workload::{workload, Workload};
use super::{invalid, positive_capacity, Failure};
use crate::args::Args;
use gc_cache::gc_runtime::{
    serve_trace, serve_trace_compiled, BackendSpec, ExecMode, FetchPath, GcRuntime, RuntimeConfig,
};
use gc_cache::gc_types::json::{Json, ToJson, Value};
use gc_cache::gc_types::{FxHashSet, LatencyHistogram};
use gc_cache::prelude::*;
use std::io::Write;

pub const USAGE: &str = "\
replay a trace through the concurrent sharded runtime
--policy <label> --capacity <k> [--shards S] [--threads T]
[--mode locked|owner] [--batch N] [--fetch coalesced|inline]
[--queue-depth D]
[--backend synthetic[:lat_us[,jit_us]]|mem[:blocks]|
disk:<path>|tiered:<l1>+<l2>] (disk stores are prepopulated
with the trace's blocks and recovered on open; tiered L1
must be mem|disk)
[--compile] [--json] [--trace <file> | workload flags]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let label = args.get_str("policy").unwrap_or("iblp");
    let kind = PolicyKind::parse(label).map_err(|e| e.to_string())?;
    let capacity = positive_capacity(args)?;
    let shards: usize = args.get_or("shards", 4usize)?;
    let threads: usize = args.get_or("threads", 4usize)?;
    let mode: ExecMode = args
        .get_str("mode")
        .unwrap_or("locked")
        .parse()
        .map_err(|e: GcError| e.to_string())?;
    let batch: usize = args.get_or("batch", 1usize)?;
    let fetch: FetchPath = args
        .get_str("fetch")
        .unwrap_or("coalesced")
        .parse()
        .map_err(|e: GcError| e.to_string())?;
    let queue_depth: usize = args.get_or("queue-depth", 4usize)?;

    // Reject nonsense up front with structured errors. The config
    // builders floor `batch`/`queue_depth` at 1, which would silently
    // rewrite an explicit `--batch 0` instead of refusing it; and a
    // `--queue-depth` under `--mode locked` would be accepted and then
    // ignored (the queue exists only in owner mode).
    if threads == 0 {
        return Err(invalid("--threads must be >= 1".into()));
    }
    if batch == 0 {
        return Err(invalid(
            "--batch must be >= 1 (a batch window of 1 disables batching)".into(),
        ));
    }
    if queue_depth == 0 {
        return Err(invalid("--queue-depth must be >= 1".into()));
    }
    if mode == ExecMode::Locked && args.get_str("queue-depth").is_some() {
        return Err(invalid(
            "--queue-depth only applies to --mode owner; drop the flag or select --mode owner"
                .into(),
        ));
    }

    // Parse the backend spec, naming the flag in every failure.
    let backend_spec: BackendSpec = match args.get_str("backend").unwrap_or("synthetic").parse() {
        Ok(spec) => spec,
        Err(GcError::InvalidParameter(msg)) => return Err(invalid(format!("--backend: {msg}"))),
        Err(e) => return Err(e.to_string().into()),
    };
    let compile = args.switch("compile");
    let json = args.switch("json");
    let Workload { trace, map, .. } = workload(args)?;

    let config = RuntimeConfig::new(shards)
        .with_mode(mode)
        .with_batch(batch)
        .with_fetch(fetch)
        .with_queue_depth(queue_depth);
    let compiled = compile
        .then(|| CompiledTrace::compile(&trace, &map))
        .transpose()
        .map_err(|e| e.to_string())?;
    // The compiled path serves dense ids, so the runtime (and its
    // backend) must be built against the trace's dense map.
    let serve_map = match &compiled {
        Some(ct) => ct.map().clone(),
        None => map,
    };
    // Disk stores are prepopulated (and fsynced) with exactly the blocks
    // the trace touches, so serving measures recovered reads rather than
    // first-touch appends. Strided maps are unbounded; enumerating the
    // touched set is the only way to know what to persist.
    let prepopulate: Vec<BlockId> = match &compiled {
        Some(ct) => (0..ct.n_blocks()).map(BlockId).collect(),
        None => {
            let mut seen = FxHashSet::default();
            trace
                .requests()
                .iter()
                .map(|&item| serve_map.block_of(item))
                .filter(|b| seen.insert(b.0))
                .collect()
        }
    };
    let backend = backend_spec
        .build(&serve_map, &prepopulate)
        .map_err(|e| match e {
            GcError::InvalidParameter(msg) => invalid(format!("--backend: {msg}")),
            // A disk path that doesn't exist, isn't writable, or isn't a
            // store file is a bad parameter from the caller's seat — name
            // the flag so the fix is obvious.
            e @ GcError::Io { .. } => invalid(format!("--backend: {e}")),
            e => e.to_string().into(),
        })?;
    let runtime = GcRuntime::with_config(&kind, capacity, serve_map, config, backend)
        .map_err(|e| e.to_string())?;
    let report = match &compiled {
        Some(ct) => serve_trace_compiled(&runtime, ct, threads),
        None => serve_trace(&runtime, &trace, threads),
    }
    .map_err(|e| e.to_string())?;
    let s = &report.stats;
    let micros = |h: &LatencyHistogram, q: f64| h.quantile_nanos(q) as f64 / 1_000.0;

    if json {
        // Only the synthetic backend has a configured latency; the others
        // model their own.
        let backend_latency_us = match &backend_spec {
            BackendSpec::Synthetic { latency, .. } => latency.as_micros() as u64,
            _ => 0,
        };
        // Ratios and latencies keep the decimal places the report has
        // always had; a float written as is would print all seventeen.
        let fixed = |x: f64, decimals: i32| -> Json {
            let scale = 10f64.powi(decimals);
            Value::Float((x * scale).round() / scale).into()
        };
        let us = |h, q| fixed(micros(h, q), 1);
        let tiers: Vec<Json> = s
            .tiers
            .iter()
            .map(|t| {
                Json::object([
                    ("label", t.label.to_json()),
                    ("fetches", t.fetches.to_json()),
                    ("stores", t.stores.to_json()),
                    ("fetch_p50_us", us(&t.latency, 0.50)),
                    ("fetch_p99_us", us(&t.latency, 0.99)),
                ])
            })
            .collect();
        let per_shard: Vec<Json> = report
            .per_shard
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Json::object([
                    ("shard", i.to_json()),
                    ("accesses", p.accesses.to_json()),
                    ("misses", p.misses.to_json()),
                    ("backend_fetches", p.backend_fetches.to_json()),
                    ("coalesced_fetches", p.coalesced_fetches.to_json()),
                ])
            })
            .collect();
        let doc = Json::object([
            ("workload", trace.name.to_json()),
            ("policy", kind.label().to_json()),
            ("capacity", capacity.to_json()),
            ("shards", shards.to_json()),
            ("threads", threads.to_json()),
            ("workers", report.workers.to_json()),
            ("mode", mode.to_string().to_json()),
            ("batch", batch.to_json()),
            ("fetch", fetch.to_string().to_json()),
            ("compiled", Value::Bool(compile).into()),
            ("backend", backend_spec.to_string().to_json()),
            ("backend_latency_us", backend_latency_us.to_json()),
            ("requests", report.requests.to_json()),
            ("wall_seconds", fixed(report.wall_seconds, 6)),
            (
                "throughput_rps",
                (report.throughput_rps.round() as u64).to_json(),
            ),
            ("hit_rate", fixed(s.hit_rate(), 6)),
            ("temporal_hits", s.temporal_hits.to_json()),
            ("spatial_hits", s.spatial_hits.to_json()),
            ("misses", s.misses.to_json()),
            ("backend_fetches", s.backend_fetches.to_json()),
            ("coalesced_fetches", s.coalesced_fetches.to_json()),
            ("coalescing_rate", fixed(s.coalescing_rate(), 6)),
            ("delayed_hits", s.delayed_hits.to_json()),
            ("waiter_wait_p50_us", us(&s.waiter_wait, 0.50)),
            ("waiter_wait_p99_us", us(&s.waiter_wait, 0.99)),
            ("fetched_items", s.fetched_items.to_json()),
            ("admitted_items", s.admitted_items.to_json()),
            ("admission_ratio", fixed(s.admission_ratio(), 6)),
            ("fetch_p50_us", us(&s.fetch_latency, 0.50)),
            ("fetch_p99_us", us(&s.fetch_latency, 0.99)),
            ("tiers", Value::Array(tiers).into()),
            ("per_shard", Value::Array(per_shard).into()),
        ]);
        writeln!(out, "{}", doc.to_string_pretty())?;
        return Ok(());
    }

    writeln!(out, "workload: {} ({} requests)", trace.name, trace.len())?;
    writeln!(
        out,
        "runtime:  {} | capacity {capacity} | {shards} shard(s) | {threads} thread(s), {} worker(s) | mode {mode} | batch {batch} | fetch {fetch}{} | backend {backend_spec}",
        kind.label(),
        report.workers,
        if compile { " | compiled" } else { "" },
    )?;
    writeln!(
        out,
        "served {} requests in {:.3}s  ({:.0} req/s)",
        report.requests, report.wall_seconds, report.throughput_rps
    )?;
    writeln!(out, "hit rate         {:.6}", s.hit_rate())?;
    writeln!(out, "temporal hits    {}", s.temporal_hits)?;
    writeln!(out, "spatial hits     {}", s.spatial_hits)?;
    writeln!(out, "misses           {}", s.misses)?;
    writeln!(
        out,
        "backend fetches  {}  (+{} coalesced, rate {:.3})",
        s.backend_fetches,
        s.coalesced_fetches,
        s.coalescing_rate()
    )?;
    if s.delayed_hits > 0 {
        writeln!(
            out,
            "delayed hits     {}  (rate {:.3}; waited p50 {:.1} µs, p99 {:.1} µs)",
            s.delayed_hits,
            s.delayed_hit_rate(),
            micros(&s.waiter_wait, 0.50),
            micros(&s.waiter_wait, 0.99)
        )?;
    }
    writeln!(
        out,
        "admission        {} of {} fetched items ({:.3})",
        s.admitted_items,
        s.fetched_items,
        s.admission_ratio()
    )?;
    if !s.fetch_latency.is_empty() {
        writeln!(
            out,
            "fetch latency    p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
            micros(&s.fetch_latency, 0.50),
            micros(&s.fetch_latency, 0.99),
            s.fetch_latency.max_nanos() as f64 / 1_000.0
        )?;
    }
    for t in &s.tiers {
        writeln!(
            out,
            "  tier {:<5} {} fetches, {} stores, fetch p50 {:.1} µs, p99 {:.1} µs",
            t.label,
            t.fetches,
            t.stores,
            micros(&t.latency, 0.50),
            micros(&t.latency, 0.99)
        )?;
    }
    for (i, p) in report.per_shard.iter().enumerate() {
        writeln!(
            out,
            "  shard {i}: {} accesses, {} misses, {} fetches",
            p.accesses, p.misses, p.backend_fetches
        )?;
    }
    Ok(())
}
