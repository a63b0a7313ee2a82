//! `simulate`: one policy over one workload, with the offline reference.

use super::workload::{workload, Workload};
use super::{positive_capacity, Failure};
use crate::args::Args;
use gc_cache::gc_offline::gc_belady_heuristic;
use gc_cache::prelude::*;
use std::io::Write;

pub const USAGE: &str = "\
run one policy over a synthetic workload
--policy <label> --capacity <k> [--warmup W] [--compile]
[workload flags]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let label = args.get_str("policy").unwrap_or("iblp");
    let kind = PolicyKind::parse(label).map_err(|e| e.to_string())?;
    let capacity = positive_capacity(args)?;
    let warmup: usize = args.get_or("warmup", 0usize)?;
    let compile = args.switch("compile");
    let Workload { trace, map, .. } = workload(args)?;
    let required = kind.min_capacity(map.max_block_size());
    if capacity < required {
        return Err(GcError::CapacityTooSmall { capacity, required }
            .to_string()
            .into());
    }

    let (policy_name, stats) = if compile {
        let compiled = CompiledTrace::compile(&trace, &map).map_err(|e| e.to_string())?;
        let mut policy = kind.build(capacity, compiled.map());
        let stats = gc_cache::gc_sim::simulate_compiled_with_warmup(&mut policy, &compiled, warmup);
        writeln!(
            out,
            "# compiled: {} dense items in {} blocks",
            compiled.n_items(),
            compiled.n_blocks()
        )?;
        (policy.name(), stats)
    } else {
        let mut policy = kind.build(capacity, &map);
        (
            policy.name(),
            gc_cache::gc_sim::simulate_with_warmup(&mut policy, &trace, warmup),
        )
    };
    writeln!(out, "workload: {} ({} requests)", trace.name, trace.len())?;
    writeln!(out, "policy:   {policy_name}")?;
    writeln!(out, "accesses        {}", stats.accesses)?;
    writeln!(out, "misses          {}", stats.misses)?;
    writeln!(out, "fault rate      {:.6}", stats.fault_rate())?;
    writeln!(out, "temporal hits   {}", stats.temporal_hits)?;
    writeln!(out, "spatial hits    {}", stats.spatial_hits)?;
    writeln!(out, "avg load width  {:.3}", stats.load_width())?;
    let offline = gc_belady_heuristic(&trace, &map, capacity);
    writeln!(
        out,
        "offline block-Belady: {} misses (ratio {:.3})",
        offline,
        stats.misses as f64 / offline.max(1) as f64
    )?;
    Ok(())
}
