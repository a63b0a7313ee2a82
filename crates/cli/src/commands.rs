//! Subcommand implementations.

use crate::args::Args;
use gc_cache::gc_bounds::figures::{figure3, figure6, geometric_h_values};
use gc_cache::gc_bounds::iblp_optimal_split;
use gc_cache::gc_bounds::table1;
use gc_cache::gc_locality::table2;
use gc_cache::gc_offline::gc_belady_heuristic;
use gc_cache::gc_sim::compare::{render_table, ComparisonRow};
use gc_cache::gc_sim::sweep::{run_sweep, run_sweep_compiled, to_csv, SweepJob};
use gc_cache::gc_trace::adversary;
use gc_cache::gc_trace::synthetic::{block_runs, BlockRunConfig};
use gc_cache::gc_trace::WorkingSetProfile;
use gc_cache::prelude::*;

const HELP: &str = "gc-cache — Granularity-Change caching toolkit

USAGE: gc-cache <command> [--flag value ...]

COMMANDS:
  simulate   run one policy over a synthetic workload
             --policy <label> --capacity <k> [--warmup W] [--compile]
             [workload flags]
             workload flags: --workload block-runs|scan|zipf|chase|walk|
             hotspot|strided, --block-size B --len L --seed X --items N,
             plus per-workload knobs (--blocks/--theta/--spatial for
             block-runs, --stride, --step, --hot-fraction/--hot-weight)
  sweep      compare the standard policy roster across capacities
             --capacities a,b,c [workload flags as above] [--csv]
             [--compile] replay through the dense-ID compiled engine
             (bit-identical results)
             fault isolation: [--checkpoint <path> --checkpoint-every N]
             [--resume <path>] [--on-error fail|skip]; any of these
             switches to checked CSV output, isolating panicking cells
             and persisting progress for crash-safe resume
  adversary  run a §4 adversary against a live policy
             --which st|thm2|thm3|thm4 --k K --h H [--block-size B
             --rounds R --a A]
  figure3    competitive-ratio bound curves (paper Figure 3)
             [--k 1280000 --block-size 64]
  figure6    fixed vs optimal IBLP splits (paper Figure 6)
             [--k 1280000 --block-size 64]
  table1     salient bound comparison points (paper Table 1)
             [--h 16384 --block-size 64]
  table2     fault-rate bounds for polynomial locality (paper Table 2)
             [--p 2 --block-size 64 --h 1048576]
  fg         empirical f(n)/g(n) working-set profile of a workload
             [workload flags as above]
  mrc        item/block miss-ratio curves + IBLP split grid (Mattson),
             exact or SHARDS-sampled, curves computed in parallel
             --capacity <k> [--sample-rate R | --smax N | --exact]
             [--sample-seed S] [--threads T] [--compile] [workload flags
             as above]
             [--checkpoint <path>] [--resume <path>] persist each curve
             as it completes and resume an interrupted bundle
             (--compile streams dense precompiled ids; not combinable
             with checkpointing)
  bracket    two-sided bracket on the offline GC optimum
             --capacity <h> [workload flags as above]
  serve      replay a trace through the concurrent sharded runtime
             --policy <label> --capacity <k> [--shards S] [--threads T]
             [--mode locked|owner] [--batch N] [--fetch coalesced|inline]
             [--queue-depth D] [--backend-latency-us L] [--jitter-us J]
             [--backend synthetic[:lat_us[,jit_us]]|mem[:blocks]|
             disk:<path>|tiered:<l1>+<l2>] (disk stores are prepopulated
             with the trace's blocks and recovered on open; tiered L1
             must be mem|disk)
             [--compile] [--json] [--trace <file> | workload flags]
  store      populate (or extend) a persistent disk block store
             --path <file> [--blocks N] [--block-size B] [--sync-every K]
             appends missing blocks, fsyncs every K, prints an acked
             line per durable batch (crash-safe: a kill mid-run never
             loses acked blocks)
  generate   write a workload to a trace file
             --out <path> [--format json|text] [workload flags as above]
  stats      locality diagnostics of a workload (reuse distances, block
             runs, utilization) [workload flags or --load <path>]
  help       this text

Text traces given via --load stream with bounded memory; malformed lines
follow --on-error fail|skip|quarantine (default fail), quarantined lines
go to --quarantine <path> (default <load>.quarantine), and ingest aborts
past --error-budget N malformed lines (default 1000).
";

/// Dispatch on the first positional argument.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        print!("{HELP}");
        return Ok(());
    };
    let args = Args::parse(cmd, rest)?;
    match cmd.as_str() {
        "simulate" => simulate_cmd(&args),
        "sweep" => sweep_cmd(&args),
        "adversary" => adversary_cmd(&args),
        "figure3" => figure3_cmd(&args),
        "figure6" => figure6_cmd(&args),
        "table1" => table1_cmd(&args),
        "table2" => table2_cmd(&args),
        "fg" => fg_cmd(&args),
        "mrc" => mrc_cmd(&args),
        "serve" => serve_cmd(&args),
        "store" => store_cmd(&args),
        "bracket" => bracket_cmd(&args),
        "generate" => generate_cmd(&args),
        "stats" => stats_cmd(&args),
        "help" | "--help" | "-h" => {
            args.finish()?;
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Workload parameters shared by all generator-backed subcommands.
struct Workload {
    trace: Trace,
    map: BlockMap,
    block_size: usize,
}

/// Every workload flag, read before any of them is acted on, so a
/// subcommand can call [`Args::finish`] ahead of generating a trace or
/// opening a file. A flag only some workloads use is accepted with all of
/// them.
struct WorkloadSpec {
    load: Option<String>,
    on_error: Option<String>,
    quarantine: Option<String>,
    error_budget: usize,
    kind: String,
    block_size: usize,
    len: usize,
    seed: u64,
    items: u64,
    blocks: u64,
    theta: Option<f64>,
    spatial: f64,
    step: u64,
    hot_fraction: f64,
    hot_weight: f64,
    stride: Option<u64>,
}

impl WorkloadSpec {
    fn from_args(args: &Args) -> Result<WorkloadSpec, String> {
        Ok(WorkloadSpec {
            // `serve` documents the file flag as --trace; it is an alias
            // of --load.
            load: args
                .get_str("load")
                .or(args.get_str("trace"))
                .map(String::from),
            on_error: args.get_str("on-error").map(String::from),
            quarantine: args.get_str("quarantine").map(String::from),
            error_budget: args.get_or("error-budget", 1000usize)?,
            kind: args.get_str("workload").unwrap_or("block-runs").to_string(),
            block_size: args.get_or("block-size", 16usize)?,
            len: args.get_or("len", 200_000usize)?,
            seed: args.get_or("seed", 42u64)?,
            items: args.get_or("items", 16_384u64)?,
            blocks: args.get_or("blocks", 1024u64)?,
            theta: args.get("theta")?,
            spatial: args.get_or("spatial", 0.5f64)?,
            step: args.get_or("step", 4u64)?,
            hot_fraction: args.get_or("hot-fraction", 0.01f64)?,
            hot_weight: args.get_or("hot-weight", 0.9f64)?,
            stride: args.get("stride")?,
        })
    }

    /// Build the workload selected by `--workload` (default `block-runs`):
    /// `block-runs | scan | zipf | chase | walk | hotspot | strided` — or
    /// load a previously generated trace file via `--load <path>`.
    ///
    /// Text traces are ingested streaming (bounded memory) under the
    /// `--on-error fail|skip|quarantine` policy; quarantined lines go to
    /// `--quarantine <path>` (default `<load>.quarantine`) and ingest
    /// aborts once more than `--error-budget` lines are malformed.
    fn build(&self) -> Result<Workload, String> {
        use gc_cache::gc_trace::{generators_ext, synthetic};
        let (block_size, len, seed, items) = (self.block_size, self.len, self.seed, self.items);
        if let Some(path) = self.load.as_deref() {
            if path.ends_with(".json") {
                let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let file = gc_cache::gc_trace::io::from_json(&raw).map_err(|e| e.to_string())?;
                let block_size = file.block_map.max_block_size();
                return Ok(Workload {
                    trace: file.trace,
                    map: file.block_map,
                    block_size,
                });
            }
            use gc_cache::gc_trace::io::{read_text_with, IngestOptions, IngestPolicy, LazyFile};
            let policy: IngestPolicy = self
                .on_error
                .as_deref()
                .unwrap_or("fail")
                .parse()
                .map_err(|e: GcError| e.to_string())?;
            let default_sidecar = format!("{path}.quarantine");
            let mut sidecar = LazyFile::new(self.quarantine.as_deref().unwrap_or(&default_sidecar));
            let mut opts = IngestOptions {
                policy,
                quarantine: (policy == IngestPolicy::Quarantine)
                    .then_some(&mut sidecar as &mut dyn std::io::Write),
                error_budget: self.error_budget,
            };
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let (trace, stats) =
                read_text_with(file, &mut opts).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("# ingest {path}: {stats}");
            if sidecar.created() {
                eprintln!(
                    "# quarantined lines written to {}",
                    sidecar.path().display()
                );
            }
            return Ok(Workload {
                trace,
                map: BlockMap::strided(block_size),
                block_size,
            });
        }
        let trace = match self.kind.as_str() {
            "block-runs" => {
                let cfg = BlockRunConfig {
                    num_blocks: self.blocks,
                    block_size,
                    block_theta: self.theta.unwrap_or(0.8),
                    spatial_locality: self.spatial,
                    len,
                    seed,
                };
                if !(0.0..=1.0).contains(&cfg.spatial_locality) {
                    return Err("--spatial must be in [0,1]".into());
                }
                block_runs(&cfg)
            }
            "scan" => synthetic::scan(items, len),
            "zipf" => synthetic::zipfian(items, self.theta.unwrap_or(0.9), len, seed),
            "chase" => generators_ext::pointer_chase(items, len, seed),
            "walk" => generators_ext::random_walk(items, self.step, len, seed),
            "hotspot" => {
                generators_ext::hotspot(items, self.hot_fraction, self.hot_weight, len, seed)
            }
            "strided" => {
                generators_ext::strided(items, self.stride.unwrap_or(block_size as u64), len)
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        Ok(Workload {
            trace,
            map: BlockMap::strided(block_size),
            block_size,
        })
    }
}

/// The workload the flags select. Reads the workload flags and then
/// refuses whatever the subcommand has not read ([`Args::finish`]) before
/// anything is generated or opened — so call it after every other flag.
fn workload(args: &Args) -> Result<Workload, String> {
    let spec = WorkloadSpec::from_args(args)?;
    args.finish()?;
    spec.build()
}

/// `--capacity`, refused when zero: every policy constructor asserts a
/// positive capacity, and an operator typo should not surface as a panic.
fn positive_capacity(args: &Args) -> Result<usize, String> {
    match args.require("capacity")? {
        0 => Err(GcError::InvalidParameter("--capacity must be >= 1".into()).to_string()),
        capacity => Ok(capacity),
    }
}

fn simulate_cmd(args: &Args) -> Result<(), String> {
    let label = args.get_str("policy").unwrap_or("iblp");
    let kind = PolicyKind::parse(label).map_err(|e| e.to_string())?;
    let capacity = positive_capacity(args)?;
    let warmup: usize = args.get_or("warmup", 0usize)?;
    let compile = args.switch("compile");
    let Workload { trace, map, .. } = workload(args)?;

    let (policy_name, stats) = if compile {
        let compiled = CompiledTrace::compile(&trace, &map).map_err(|e| e.to_string())?;
        let mut policy = kind.build(capacity, compiled.map());
        let stats = gc_cache::gc_sim::simulate_compiled_with_warmup(&mut policy, &compiled, warmup);
        println!(
            "# compiled: {} dense items in {} blocks",
            compiled.n_items(),
            compiled.n_blocks()
        );
        (policy.name(), stats)
    } else {
        let mut policy = kind.build(capacity, &map);
        (
            policy.name(),
            gc_cache::gc_sim::simulate_with_warmup(&mut policy, &trace, warmup),
        )
    };
    println!("workload: {} ({} requests)", trace.name, trace.len());
    println!("policy:   {policy_name}");
    println!("accesses        {}", stats.accesses);
    println!("misses          {}", stats.misses);
    println!("fault rate      {:.6}", stats.fault_rate());
    println!("temporal hits   {}", stats.temporal_hits);
    println!("spatial hits    {}", stats.spatial_hits);
    println!("avg load width  {:.3}", stats.load_width());
    let offline = gc_belady_heuristic(&trace, &map, capacity);
    println!(
        "offline block-Belady: {} misses (ratio {:.3})",
        offline,
        stats.misses as f64 / offline.max(1) as f64
    );
    Ok(())
}

fn serve_cmd(args: &Args) -> Result<(), String> {
    use gc_cache::gc_runtime::{
        serve_trace, BackendSpec, ExecMode, FetchPath, GcRuntime, RuntimeConfig,
    };
    use std::time::Duration;

    let label = args.get_str("policy").unwrap_or("iblp");
    let kind = PolicyKind::parse(label).map_err(|e| e.to_string())?;
    let capacity = positive_capacity(args)?;
    let shards: usize = args.get_or("shards", 4usize)?;
    let threads: usize = args.get_or("threads", 4usize)?;
    let mode: ExecMode = args
        .get_str("mode")
        .unwrap_or("locked")
        .parse()
        .map_err(|e: gc_cache::gc_types::GcError| e.to_string())?;
    let batch: usize = args.get_or("batch", 1usize)?;
    let fetch: FetchPath = args
        .get_str("fetch")
        .unwrap_or("coalesced")
        .parse()
        .map_err(|e: gc_cache::gc_types::GcError| e.to_string())?;
    let queue_depth: usize = args.get_or("queue-depth", 4usize)?;
    let latency = Duration::from_micros(args.get_or("backend-latency-us", 0u64)?);
    let jitter = Duration::from_micros(args.get_or("jitter-us", 0u64)?);

    // Reject nonsense up front with structured errors. The config
    // builders floor `batch`/`queue_depth` at 1, which would silently
    // rewrite an explicit `--batch 0` instead of refusing it; and a
    // `--queue-depth` under `--mode locked` would be accepted and then
    // ignored (the queue exists only in owner mode).
    let invalid = |msg: String| gc_cache::gc_types::GcError::InvalidParameter(msg).to_string();
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
        Err(gc_cache::gc_types::GcError::InvalidParameter(msg)) => {
            return Err(invalid(format!("--backend: {msg}")))
        }
        Err(e) => return Err(e.to_string()),
    };
    let backend_spec = match backend_spec {
        // The latency flags predate --backend and keep working for the
        // synthetic backend: an explicit flag overrides the spec's value.
        BackendSpec::Synthetic {
            latency: spec_latency,
            jitter: spec_jitter,
        } => BackendSpec::Synthetic {
            latency: if args.get_str("backend-latency-us").is_some() {
                latency
            } else {
                spec_latency
            },
            jitter: if args.get_str("jitter-us").is_some() {
                jitter
            } else {
                spec_jitter
            },
        },
        other => {
            for flag in ["backend-latency-us", "jitter-us"] {
                if args.get_str(flag).is_some() {
                    return Err(invalid(format!(
                        "--{flag} only applies to the synthetic backend; --backend {other} \
                         models its own latency (drop the flag or use --backend \
                         synthetic:<lat_us>,<jitter_us>)"
                    )));
                }
            }
            other
        }
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
            let mut seen = gc_cache::gc_types::FxHashSet::default();
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
            gc_cache::gc_types::GcError::InvalidParameter(msg) => {
                invalid(format!("--backend: {msg}"))
            }
            // A disk path that doesn't exist, isn't writable, or isn't a
            // store file is a bad parameter from the caller's seat — name
            // the flag so the fix is obvious.
            e @ gc_cache::gc_types::GcError::Io { .. } => invalid(format!("--backend: {e}")),
            e => e.to_string(),
        })?;
    let runtime = GcRuntime::with_config(&kind, capacity, serve_map, config, backend)
        .map_err(|e| e.to_string())?;
    let report = match &compiled {
        Some(ct) => gc_cache::gc_runtime::serve_trace_compiled(&runtime, ct, threads),
        None => serve_trace(&runtime, &trace, threads),
    }
    .map_err(|e| e.to_string())?;
    let s = &report.stats;
    let micros =
        |h: &gc_cache::gc_types::LatencyHistogram, q: f64| h.quantile_nanos(q) as f64 / 1_000.0;

    if json {
        use gc_cache::gc_types::json::{Json, ToJson, Value};
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
            ("backend_latency_us", (latency.as_micros() as u64).to_json()),
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
        println!("{}", doc.to_string_pretty());
        return Ok(());
    }

    println!("workload: {} ({} requests)", trace.name, trace.len());
    println!(
        "runtime:  {} | capacity {capacity} | {shards} shard(s) | {threads} thread(s), {} worker(s) | mode {mode} | batch {batch} | fetch {fetch}{} | backend {backend_spec}",
        kind.label(),
        report.workers,
        if compile { " | compiled" } else { "" },
    );
    println!(
        "served {} requests in {:.3}s  ({:.0} req/s)",
        report.requests, report.wall_seconds, report.throughput_rps
    );
    println!("hit rate         {:.6}", s.hit_rate());
    println!("temporal hits    {}", s.temporal_hits);
    println!("spatial hits     {}", s.spatial_hits);
    println!("misses           {}", s.misses);
    println!(
        "backend fetches  {}  (+{} coalesced, rate {:.3})",
        s.backend_fetches,
        s.coalesced_fetches,
        s.coalescing_rate()
    );
    if s.delayed_hits > 0 {
        println!(
            "delayed hits     {}  (rate {:.3}; waited p50 {:.1} µs, p99 {:.1} µs)",
            s.delayed_hits,
            s.delayed_hit_rate(),
            micros(&s.waiter_wait, 0.50),
            micros(&s.waiter_wait, 0.99)
        );
    }
    println!(
        "admission        {} of {} fetched items ({:.3})",
        s.admitted_items,
        s.fetched_items,
        s.admission_ratio()
    );
    if !s.fetch_latency.is_empty() {
        println!(
            "fetch latency    p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
            micros(&s.fetch_latency, 0.50),
            micros(&s.fetch_latency, 0.99),
            s.fetch_latency.max_nanos() as f64 / 1_000.0
        );
    }
    for t in &s.tiers {
        println!(
            "  tier {:<5} {} fetches, {} stores, fetch p50 {:.1} µs, p99 {:.1} µs",
            t.label,
            t.fetches,
            t.stores,
            micros(&t.latency, 0.50),
            micros(&t.latency, 0.99)
        );
    }
    for (i, p) in report.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: {} accesses, {} misses, {} fetches",
            p.accesses, p.misses, p.backend_fetches
        );
    }
    Ok(())
}

/// `store`: populate (or extend) a persistent disk block store, fsyncing
/// every `--sync-every` blocks and printing an `acked <last_block>` line
/// per durable batch. Crash-safety harnesses kill this process mid-run
/// and assert every acked block survives bit-identically.
fn store_cmd(args: &Args) -> Result<(), String> {
    use gc_cache::gc_runtime::{BlockStore, DiskBackend};
    use std::io::Write;

    let invalid = |msg: String| gc_cache::gc_types::GcError::InvalidParameter(msg).to_string();
    let Some(path) = args.get_str("path") else {
        return Err(invalid(
            "--path is required (segment file to populate)".into(),
        ));
    };
    let block_size: usize = args.get_or("block-size", 16usize)?;
    let blocks: u64 = args.get_or("blocks", 1024u64)?;
    let sync_every: u64 = args.get_or("sync-every", 64u64)?;
    args.finish()?;
    if block_size == 0 {
        return Err(invalid("--block-size must be >= 1".into()));
    }
    if blocks == 0 {
        return Err(invalid("--blocks must be >= 1".into()));
    }
    if sync_every == 0 {
        return Err(invalid(
            "--sync-every must be >= 1 (it is the fsync cadence in blocks)".into(),
        ));
    }

    let store = DiskBackend::open(path, BlockMap::strided(block_size)).map_err(|e| match e {
        gc_cache::gc_types::GcError::InvalidParameter(msg) => invalid(format!("--path: {msg}")),
        e @ gc_cache::gc_types::GcError::Io { .. } => invalid(format!("--path: {e}")),
        e => e.to_string(),
    })?;
    let already = store.stored_blocks();
    let mut appended = 0usize;
    let mut start = 0u64;
    while start < blocks {
        let end = (start + sync_every).min(blocks);
        appended += store
            .populate((start..end).map(BlockId))
            .map_err(|e| e.to_string())?;
        store.sync().map_err(|e| e.to_string())?;
        // The ack line is the durability contract: by the time it is
        // visible, every block up to `end - 1` has been fsynced.
        println!("acked {}", end - 1);
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        start = end;
    }
    println!(
        "store {path}: {} blocks held ({already} pre-existing, {appended} appended)",
        store.stored_blocks()
    );
    Ok(())
}

fn sweep_cmd(args: &Args) -> Result<(), String> {
    let capacities: Vec<usize> = args
        .get_list("capacities")?
        .unwrap_or_else(|| vec![256, 1024, 4096]);
    let warmup: usize = args.get_or("warmup", 0usize)?;
    let kinds = PolicyKind::standard_roster(args.get_or("seed", 42u64)?);
    let threads: usize = args.get_or("threads", 0usize)?;
    let checkpoint_path = args.get_str("checkpoint").map(std::path::PathBuf::from);
    let resume_path = args.get_str("resume").map(std::path::PathBuf::from);
    let on_error = args.get_str("on-error");
    let checkpoint_every: usize = args.get_or("checkpoint-every", 25usize)?;
    let checked = checkpoint_path.is_some() || resume_path.is_some() || on_error.is_some();
    let compile = args.switch("compile");
    let csv = args.switch("csv");
    if compile && checked {
        return Err("--compile does not combine with checkpointed sweeps".into());
    }

    let Workload { trace, map, .. } = workload(args)?;
    let jobs: Vec<SweepJob> = capacities
        .iter()
        .flat_map(|&capacity| {
            kinds.iter().map(move |kind| SweepJob {
                kind: kind.clone(),
                capacity,
                warmup,
            })
        })
        .collect();
    if checked {
        use gc_cache::gc_sim::checkpoint::{load_json, SweepCheckpoint};
        use gc_cache::gc_sim::sweep::{run_sweep_checked, to_csv_checked, OnError, SweepRunConfig};
        let on_error: OnError = match on_error.unwrap_or("fail") {
            // The ingest policy name is accepted here too; cells have no
            // sidecar, so it degrades to skip.
            "quarantine" => OnError::Skip,
            other => other.parse()?,
        };
        let resume: Option<SweepCheckpoint> = resume_path
            .as_deref()
            .map(load_json)
            .transpose()
            .map_err(|e| e.to_string())?;
        if let Some(ckpt) = &resume {
            eprintln!(
                "# resuming: {} of {} cells already recorded",
                ckpt.cells.len(),
                ckpt.total_cells
            );
        }
        // Keep checkpointing to the resume file unless a new sink is given.
        let sink = checkpoint_path.or(resume_path);
        let cfg = SweepRunConfig {
            threads,
            on_error,
            checkpoint_path: sink.as_deref(),
            checkpoint_every,
            resume,
        };
        let outcome = run_sweep_checked(&jobs, &trace, &map, &cfg).map_err(|e| e.to_string())?;
        for (index, reason) in &outcome.failures {
            eprintln!("# cell {index} failed: {reason}");
        }
        print!("{}", to_csv_checked(&outcome, &jobs));
        return Ok(());
    }
    let results = if compile {
        let compiled = CompiledTrace::compile(&trace, &map).map_err(|e| e.to_string())?;
        run_sweep_compiled(&jobs, &compiled, threads)
    } else {
        run_sweep(&jobs, &trace, &map, threads)
    };
    if csv {
        print!("{}", to_csv(&results));
        return Ok(());
    }
    // Jobs are capacity-major, so each chunk is one capacity's roster.
    for cells in results.chunks(kinds.len()) {
        println!("== capacity {} ==", cells[0].job.capacity);
        let mut rows: Vec<ComparisonRow> = cells
            .iter()
            .map(|r| ComparisonRow {
                label: r.job.kind.label(),
                policy_name: r.policy_name.clone(),
                stats: r.stats.clone(),
            })
            .collect();
        rows.sort_by_key(|r| r.stats.misses);
        print!("{}", render_table(&rows));
        println!();
    }
    Ok(())
}

fn adversary_cmd(args: &Args) -> Result<(), String> {
    let which = args.get_str("which").unwrap_or("thm2");
    let k: usize = args.require("k")?;
    let h: usize = args.require("h")?;
    let b: usize = args.get_or("block-size", 16usize)?;
    let rounds: usize = args.get_or("rounds", 100usize)?;
    let a: usize = args.get_or("a", 1usize)?;
    args.finish()?;
    let rep = match which {
        "st" => {
            let mut probe = ProbeAdapter::new(ItemLru::new(k));
            adversary::sleator_tarjan(&mut probe, k, h, rounds)
        }
        "thm2" => {
            let mut probe = ProbeAdapter::new(ItemLru::new(k));
            adversary::item_cache(&mut probe, k, h, b, rounds)
        }
        "thm3" => {
            let mut probe = ProbeAdapter::new(BlockLru::new(k, BlockMap::strided(b)));
            adversary::block_cache(&mut probe, k, h, b, rounds)
        }
        "thm4" => {
            let mut probe = ProbeAdapter::new(ThresholdLoad::new(k, a, BlockMap::strided(b)));
            adversary::general(&mut probe, k, h, b, rounds)
        }
        other => return Err(format!("unknown adversary {other:?} (st|thm2|thm3|thm4)")),
    };
    println!(
        "trace: {} ({} requests, warmup {})",
        rep.trace.name,
        rep.trace.len(),
        rep.warmup_len
    );
    println!("online misses  {}", rep.online_misses);
    println!("offline misses {}", rep.opt_misses);
    println!(
        "certified competitive ratio ≥ {:.3}",
        rep.competitive_ratio()
    );
    Ok(())
}

fn figure3_cmd(args: &Args) -> Result<(), String> {
    let k: usize = args.get_or("k", 1_280_000usize)?;
    let b: usize = args.get_or("block-size", 64usize)?;
    args.finish()?;
    let hs = geometric_h_values(b * 2, k - 1, 6);
    println!("h,sleator_tarjan,gc_lower,iblp_upper,item_cache_lower,block_cache_lower");
    for p in figure3(k, b, &hs) {
        let fmt = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x:.4}"),
            Some(_) => "inf".to_string(),
            None => "".to_string(),
        };
        println!(
            "{},{},{},{},{},{}",
            p.h,
            fmt(p.sleator_tarjan),
            fmt(p.gc_lower),
            fmt(p.iblp_upper),
            fmt(p.item_cache_lower),
            fmt(p.block_cache_lower)
        );
    }
    Ok(())
}

fn figure6_cmd(args: &Args) -> Result<(), String> {
    let k: usize = args.get_or("k", 1_280_000usize)?;
    let b: usize = args.get_or("block-size", 64usize)?;
    args.finish()?;
    // Fixed splits tuned for three design points, as in the paper's plot.
    let design_points = [k / 1024, k / 64, k / 8];
    let fixed: Vec<usize> = design_points
        .iter()
        .filter_map(|&h| iblp_optimal_split(k, h, b).map(|(i, _)| i))
        .collect();
    let hs = geometric_h_values(b * 2, k / 2, 6);
    let header: Vec<String> = fixed.iter().map(|i| format!("fixed_i_{i}")).collect();
    println!("h,optimal,{}", header.join(","));
    for p in figure6(k, b, &hs, &fixed) {
        let fmt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
        let cells: Vec<String> = p.fixed_splits.iter().map(|&v| fmt(v)).collect();
        println!("{},{},{}", p.h, fmt(p.optimal_split), cells.join(","));
    }
    Ok(())
}

fn table1_cmd(args: &Args) -> Result<(), String> {
    let h: usize = args.get_or("h", 1usize << 14)?;
    let b: usize = args.get_or("block-size", 64usize)?;
    args.finish()?;
    print!("{}", table1::render(&table1::table1(h, b)));
    Ok(())
}

fn table2_cmd(args: &Args) -> Result<(), String> {
    let p: f64 = args.get_or("p", 3.0f64)?;
    if p <= 1.0 {
        return Err("--p must be > 1".into());
    }
    let b: usize = args.get_or("block-size", 64usize)?;
    let h: usize = args.get_or("h", 1usize << 20)?;
    args.finish()?;
    println!(
        "Table 2 (f(n) = n^(1/p), i = b = h = {h}, B = {b}; rows 1-3: p = 2, rows 4-6: p = {p}):"
    );
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>14}",
        "f(n)", "g(n)", "lower bound", "item-layer UB", "block-layer UB"
    );
    for row in table2::table2_paper(p, b, h) {
        println!(
            "{:<12} {:<22} {:>14.3e} {:>14.3e} {:>14.3e}",
            row.f_desc, row.g_desc, row.lower_asym, row.item_asym, row.block_asym
        );
    }
    Ok(())
}

fn mrc_cmd(args: &Args) -> Result<(), String> {
    use gc_cache::gc_sim::mrc::{mrc_bundle, split_grid_from_curves, MrcBundle, MrcMode};
    use gc_cache::gc_sim::pool::run_indexed;
    use gc_cache::gc_sim::shards::{
        sampled_block_mrc_with_stats, sampled_item_mrc_with_stats, SamplerConfig,
    };
    let capacity: usize = args.require("capacity")?;
    let threads: usize = args.get_or("threads", 0usize)?;
    let sample_rate: Option<f64> = args.get("sample-rate")?;
    let s_max: Option<usize> = args.get("smax")?;
    let exact = args.switch("exact") || (sample_rate.is_none() && s_max.is_none());
    let sample_seed: u64 = args.get_or("sample-seed", 0u64)?;
    let checkpoint_path = args.get_str("checkpoint").map(std::path::PathBuf::from);
    let resume_path = args.get_str("resume").map(std::path::PathBuf::from);
    let compile = args.switch("compile");
    let Workload {
        trace,
        map,
        block_size,
    } = workload(args)?;

    let mode = if exact {
        MrcMode::Exact
    } else {
        let cfg = match s_max {
            Some(n) => SamplerConfig::adaptive(n),
            None => {
                let rate = sample_rate.expect("sampled mode implies a rate or an s_max");
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(format!("--sample-rate must be in (0,1], got {rate}"));
                }
                SamplerConfig::fixed(rate)
            }
        }
        .with_seed(sample_seed);
        MrcMode::Sampled(cfg)
    };

    if compile && (checkpoint_path.is_some() || resume_path.is_some()) {
        return Err("--compile does not combine with checkpointed MRC bundles".into());
    }
    let compiled = compile
        .then(|| CompiledTrace::compile(&trace, &map))
        .transpose()
        .map_err(|e| e.to_string())?;
    let bundle = if checkpoint_path.is_some() || resume_path.is_some() {
        // Checkpointed mode: both curve passes run fault-isolated on the
        // pool and are persisted as they finish; the per-curve sampler
        // stats footer is not available here.
        use gc_cache::gc_sim::checkpoint::{load_json, MrcCheckpoint};
        use gc_cache::gc_sim::mrc::{mrc_bundle_checked, MrcRunConfig};
        let resume: Option<MrcCheckpoint> = resume_path
            .as_deref()
            .map(load_json)
            .transpose()
            .map_err(|e| e.to_string())?;
        let sink = checkpoint_path.or(resume_path);
        let cfg = MrcRunConfig {
            threads,
            checkpoint_path: sink.as_deref(),
            resume,
        };
        mrc_bundle_checked(&trace, &map, capacity, &mode, &cfg).map_err(|e| e.to_string())?
    } else if let MrcMode::Sampled(cfg) = &mode {
        // Run the two sampled passes on the shared pool, keeping the
        // per-curve sampler stats for the footer. The compiled variant
        // hashes decoded original ids, so its sample (and curve) is
        // bit-identical to the sparse pass.
        use gc_cache::gc_sim::shards::{
            sampled_block_mrc_compiled_with_stats, sampled_item_mrc_compiled_with_stats,
        };
        let mut passes = run_indexed(2, threads, |i| match (&compiled, i) {
            (Some(ct), 0) => sampled_item_mrc_compiled_with_stats(ct, capacity, cfg),
            (Some(ct), _) => sampled_block_mrc_compiled_with_stats(ct, capacity / block_size, cfg),
            (None, 0) => sampled_item_mrc_with_stats(&trace, capacity, cfg),
            (None, _) => sampled_block_mrc_with_stats(&trace, &map, capacity / block_size, cfg),
        });
        let (block, block_stats) = passes.pop().expect("two passes");
        let (item, item_stats) = passes.pop().expect("two passes");
        println!(
            "# sampled MRC: {} seed={} | items: {}/{} accesses kept, {} distinct, final rate {:.5} | blocks: {} kept, {} distinct, final rate {:.5}",
            match &cfg.s_max {
                Some(n) => format!("s_max={n}"),
                None => format!("rate={}", cfg.rate),
            },
            cfg.seed,
            item_stats.sampled_accesses,
            trace.len(),
            item_stats.distinct_sampled,
            item_stats.final_rate,
            block_stats.sampled_accesses,
            block_stats.distinct_sampled,
            block_stats.final_rate,
        );
        let grid = split_grid_from_curves(&item, &block, capacity, block_size);
        MrcBundle { item, block, grid }
    } else if let Some(ct) = &compiled {
        gc_cache::gc_sim::mrc::mrc_bundle_compiled(ct, capacity, &MrcMode::Exact, threads)
    } else {
        mrc_bundle(&trace, &map, capacity, &MrcMode::Exact, threads)
    };

    println!("size,item_miss_ratio,block_slots,block_miss_ratio");
    let mut k = 1usize;
    while k <= capacity {
        let slots = (k / block_size).max(1);
        println!(
            "{k},{:.6},{slots},{:.6}",
            bundle.item.miss_ratio(k),
            bundle.block.miss_ratio(slots)
        );
        k *= 2;
    }
    let best = bundle.best_split().ok_or("empty split grid")?;
    println!(
        "# best IBLP split estimate at budget {capacity}: i={} b={} (≈{} misses)",
        best.item_lines, best.block_lines, best.miss_estimate
    );
    if !exact {
        println!(
            "# seed an adaptive policy with it: AdaptiveIblp::with_split({capacity}, {}, map)",
            best.item_lines
        );
    }
    Ok(())
}

fn bracket_cmd(args: &Args) -> Result<(), String> {
    use gc_cache::gc_offline::bracket_opt;
    let capacity: usize = args.require("capacity")?;
    let Workload { trace, map, .. } = workload(args)?;
    let bracket = bracket_opt(&trace, &map, capacity);
    println!("trace: {} ({} requests)", trace.name, trace.len());
    println!("offline optimum bracket at h = {capacity}:");
    println!("  lower bound (windows)      {}", bracket.lower);
    println!("  upper bound (block-Belady) {}", bracket.upper);
    println!("  gap                        {:.3}×", bracket.gap());
    Ok(())
}

fn generate_cmd(args: &Args) -> Result<(), String> {
    let out = args
        .get_str("out")
        .ok_or("missing required flag --out <path>")?
        .to_string();
    let format = args.get_str("format").unwrap_or("json");
    let Workload { trace, map, .. } = workload(args)?;
    match format {
        "json" => {
            std::fs::write(&out, gc_cache::gc_trace::io::to_json(&trace, &map))
                .map_err(|e| format!("{out}: {e}"))?;
        }
        "text" => {
            let mut buf = Vec::new();
            gc_cache::gc_trace::io::write_text(&trace, &mut buf).map_err(|e| e.to_string())?;
            std::fs::write(&out, buf).map_err(|e| format!("{out}: {e}"))?;
        }
        other => return Err(format!("unknown format {other:?} (json|text)")),
    }
    println!("wrote {} requests to {out}", trace.len());
    Ok(())
}

fn stats_cmd(args: &Args) -> Result<(), String> {
    let Workload { trace, map, .. } = workload(args)?;
    println!("{}", gc_cache::gc_trace::stats::summarize(&trace, &map));
    Ok(())
}

fn fg_cmd(args: &Args) -> Result<(), String> {
    let Workload {
        trace,
        map,
        block_size,
    } = workload(args)?;
    let windows = WorkingSetProfile::geometric_windows(trace.len().min(1 << 16));
    let profile = WorkingSetProfile::compute(&trace, &map, &windows);
    profile
        .check_consistency(block_size)
        .map_err(|e| format!("inconsistent profile: {e}"))?;
    println!("n,f(n),g(n),f/g");
    for ((&n, &f), (&g, ratio)) in profile
        .window_sizes
        .iter()
        .zip(&profile.f)
        .zip(profile.g.iter().zip(profile.fg_ratio()))
    {
        println!("{n},{f},{g},{ratio:.3}");
    }
    Ok(())
}
