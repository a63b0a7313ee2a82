//! The workload flags shared by every subcommand that replays a trace: a
//! synthetic generator with its own knobs, or a trace file.

use crate::args::Args;
use gc_cache::gc_trace::io::{read_text_with, IngestOptions, IngestPolicy, LazyFile};
use gc_cache::gc_trace::synthetic::{self, block_runs, BlockRunConfig};
use gc_cache::gc_trace::{generators_ext, io};
use gc_cache::prelude::*;

pub const USAGE: &str = "\
WORKLOAD FLAGS (simulate, sweep, fg, mrc, bracket, serve, generate, stats):
  --workload K (default block-runs) --block-size B (16) --len L (200000),
  plus the knobs kind K reads and no others:
    block-runs  --blocks N --theta T --spatial S --seed X
    scan        --items N
    zipf        --items N --theta T --seed X
    chase       --items N --seed X
    walk        --items N --step S --seed X
    hotspot     --items N --hot-fraction F --hot-weight W --seed X
    strided     --items N --stride S
  defaults: --blocks 1024, --items 16384, --theta 0.8 (zipf 0.9),
  --spatial 0.5, --seed 42, --step 4, --hot-fraction 0.01,
  --hot-weight 0.9, --stride B.
  --load <path> (alias --trace) replays a trace file instead and takes no
  generator flag. A .json trace carries its own block map. A text trace is
  cut into --block-size blocks and streams with bounded memory; malformed
  lines follow --on-error fail|skip|quarantine (default fail), quarantined
  lines go to --quarantine <path> (default <load>.quarantine), and ingest
  aborts past --error-budget N malformed lines (default 1000).
";

/// A trace and the block map it is replayed under.
pub struct Workload {
    pub trace: Trace,
    pub map: BlockMap,
    /// Items per block (for a `.json` trace, its largest block).
    pub block_size: usize,
}

/// The workload flags, read in full before any of them is acted on, so
/// that [`Args::finish`] can refuse the rest before a trace is generated
/// or a file opened. Each source reads only the flags it uses.
enum WorkloadSpec {
    Json(String),
    Text {
        path: String,
        block_size: usize,
        policy: IngestPolicy,
        quarantine: Option<String>,
        error_budget: usize,
    },
    Generated {
        block_size: usize,
        generate: Box<dyn FnOnce() -> Trace>,
    },
}

impl WorkloadSpec {
    fn from_args(args: &Args) -> Result<WorkloadSpec, String> {
        // `serve` documents the file flag as --trace; it is an alias of
        // --load.
        match args.get_str("load").or(args.get_str("trace")) {
            Some(path) if path.ends_with(".json") => Ok(WorkloadSpec::Json(path.to_string())),
            Some(path) => Ok(WorkloadSpec::Text {
                path: path.to_string(),
                block_size: args.get_or("block-size", 16usize)?,
                policy: args
                    .get_str("on-error")
                    .unwrap_or("fail")
                    .parse()
                    .map_err(|e: GcError| e.to_string())?,
                quarantine: args.get_str("quarantine").map(String::from),
                error_budget: args.get_or("error-budget", 1000usize)?,
            }),
            None => Self::generator(args),
        }
    }

    /// The generator `--workload` names (default `block-runs`), with the
    /// knobs that generator takes and no others.
    fn generator(args: &Args) -> Result<WorkloadSpec, String> {
        let block_size: usize = args.get_or("block-size", 16usize)?;
        let len: usize = args.get_or("len", 200_000usize)?;
        let items = || args.get_or("items", 16_384u64);
        let seed = || args.get_or("seed", 42u64);
        let generate: Box<dyn FnOnce() -> Trace> =
            match args.get_str("workload").unwrap_or("block-runs") {
                "block-runs" => {
                    let cfg = BlockRunConfig {
                        num_blocks: args.get_or("blocks", 1024u64)?,
                        block_size,
                        block_theta: args.get_or("theta", 0.8f64)?,
                        spatial_locality: args.get_or("spatial", 0.5f64)?,
                        len,
                        seed: seed()?,
                    };
                    if !(0.0..=1.0).contains(&cfg.spatial_locality) {
                        return Err("--spatial must be in [0,1]".into());
                    }
                    Box::new(move || block_runs(&cfg))
                }
                "scan" => {
                    let items = items()?;
                    Box::new(move || synthetic::scan(items, len))
                }
                "zipf" => {
                    let (items, theta, seed) = (items()?, args.get_or("theta", 0.9f64)?, seed()?);
                    Box::new(move || synthetic::zipfian(items, theta, len, seed))
                }
                "chase" => {
                    let (items, seed) = (items()?, seed()?);
                    Box::new(move || generators_ext::pointer_chase(items, len, seed))
                }
                "walk" => {
                    let (items, step, seed) = (items()?, args.get_or("step", 4u64)?, seed()?);
                    Box::new(move || generators_ext::random_walk(items, step, len, seed))
                }
                "hotspot" => {
                    let (items, fraction, weight, seed) = (
                        items()?,
                        args.get_or("hot-fraction", 0.01f64)?,
                        args.get_or("hot-weight", 0.9f64)?,
                        seed()?,
                    );
                    Box::new(move || generators_ext::hotspot(items, fraction, weight, len, seed))
                }
                "strided" => {
                    let (items, stride) = (items()?, args.get_or("stride", block_size as u64)?);
                    Box::new(move || generators_ext::strided(items, stride, len))
                }
                other => return Err(format!("unknown workload {other:?}")),
            };
        Ok(WorkloadSpec::Generated {
            block_size,
            generate,
        })
    }

    fn build(self) -> Result<Workload, String> {
        match self {
            WorkloadSpec::Json(path) => {
                let raw = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let file = io::from_json(&raw).map_err(|e| e.to_string())?;
                Ok(Workload {
                    block_size: file.block_map.max_block_size(),
                    trace: file.trace,
                    map: file.block_map,
                })
            }
            WorkloadSpec::Text {
                path,
                block_size,
                policy,
                quarantine,
                error_budget,
            } => {
                let default_sidecar = format!("{path}.quarantine");
                let mut sidecar = LazyFile::new(quarantine.as_deref().unwrap_or(&default_sidecar));
                let mut opts = IngestOptions {
                    policy,
                    quarantine: (policy == IngestPolicy::Quarantine)
                        .then_some(&mut sidecar as &mut dyn std::io::Write),
                    error_budget,
                };
                let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
                let (trace, stats) =
                    read_text_with(file, &mut opts).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("# ingest {path}: {stats}");
                if sidecar.created() {
                    eprintln!(
                        "# quarantined lines written to {}",
                        sidecar.path().display()
                    );
                }
                Ok(Workload {
                    trace,
                    map: BlockMap::strided(block_size),
                    block_size,
                })
            }
            WorkloadSpec::Generated {
                block_size,
                generate,
            } => Ok(Workload {
                trace: generate(),
                map: BlockMap::strided(block_size),
                block_size,
            }),
        }
    }
}

/// The workload the flags select. Reads the workload flags and then
/// refuses whatever the subcommand has not read ([`Args::finish`]) before
/// anything is generated or opened — so call it after every other flag.
pub fn workload(args: &Args) -> Result<Workload, String> {
    let spec = WorkloadSpec::from_args(args)?;
    args.finish()?;
    spec.build()
}
