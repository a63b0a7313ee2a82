//! `mrc`: item and block miss-ratio curves plus the IBLP split grid.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
use gc_cache::gc_sim::checkpoint::{load_json, MrcCheckpoint};
use gc_cache::gc_sim::mrc::{mrc_bundle, mrc_bundle_compiled, MrcMode, MrcRunConfig};
use gc_cache::gc_sim::shards::SamplerConfig;
use gc_cache::prelude::*;
use std::io::Write;

pub const USAGE: &str = "\
item/block miss-ratio curves + IBLP split grid (Mattson),
exact or SHARDS-sampled, curves computed in parallel
--capacity <k> [--sample-rate R | --smax N | --exact]
[--sample-seed S] [--threads T] [workload flags]
[--compile] streams dense precompiled ids: exact curves
only, not combinable with checkpointing
[--checkpoint <path>] [--resume <path>] persist each curve
as it completes and resume an interrupted bundle";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let capacity: usize = args.require("capacity")?;
    let threads: usize = args.get_or("threads", 0usize)?;
    let sample_rate: Option<f64> = args.get("sample-rate")?;
    let s_max: Option<usize> = args.get("smax")?;
    let exact = args.switch("exact") || (sample_rate.is_none() && s_max.is_none());
    let sample_seed: u64 = args.get_or("sample-seed", 0u64)?;
    let checkpoint_path = args.get_str("checkpoint").map(std::path::PathBuf::from);
    let resume_path = args.get_str("resume").map(std::path::PathBuf::from);
    // Under sampling the hash filter dominates and compiling first only
    // costs time and memory, so a sampled run does not read `--compile`
    // and the workload's flag check refuses it.
    let compile = exact && args.switch("compile");
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
                    return Err(format!("--sample-rate must be in (0,1], got {rate}").into());
                }
                SamplerConfig::fixed(rate)
            }
        }
        .with_seed(sample_seed);
        MrcMode::Sampled(cfg)
    };

    let bundle = if compile {
        if checkpoint_path.is_some() || resume_path.is_some() {
            return Err("--compile does not combine with checkpointed MRC bundles".into());
        }
        let compiled = CompiledTrace::compile(&trace, &map).map_err(|e| e.to_string())?;
        mrc_bundle_compiled(&compiled, capacity, threads)
    } else {
        let resume: Option<MrcCheckpoint> = resume_path
            .as_deref()
            .map(load_json)
            .transpose()
            .map_err(|e| e.to_string())?;
        // Keep checkpointing to the resume file unless a new sink is given.
        let sink = checkpoint_path.or(resume_path);
        let cfg = MrcRunConfig {
            threads,
            checkpoint_path: sink.as_deref(),
            resume,
        };
        mrc_bundle(&trace, &map, capacity, &mode, &cfg)
    }
    .map_err(|e| e.to_string())?;

    // Resumed curves carry no sampler account, so the footer needs both
    // curves computed by this run.
    if let (MrcMode::Sampled(cfg), Some(item_stats), Some(block_stats)) =
        (&mode, &bundle.item_stats, &bundle.block_stats)
    {
        writeln!(
            out,
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
        )?;
    }
    writeln!(out, "size,item_miss_ratio,block_slots,block_miss_ratio")?;
    let mut k = 1usize;
    while k <= capacity {
        let slots = (k / block_size).max(1);
        writeln!(
            out,
            "{k},{:.6},{slots},{:.6}",
            bundle.item.miss_ratio(k),
            bundle.block.miss_ratio(slots)
        )?;
        k *= 2;
    }
    let best = bundle.best_split().ok_or("empty split grid")?;
    writeln!(
        out,
        "# best IBLP split estimate at budget {capacity}: i={} b={} (≈{} misses)",
        best.item_lines, best.block_lines, best.miss_estimate
    )?;
    if !exact {
        writeln!(
            out,
            "# seed an adaptive policy with it: AdaptiveIblp::with_split({capacity}, {}, map)",
            best.item_lines
        )?;
    }
    Ok(())
}
