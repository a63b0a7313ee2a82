//! `simulate`: one policy over one workload, with the offline reference.

use super::positive_capacity;
use super::workload::{workload, Workload};
use crate::args::Args;
use gc_cache::gc_offline::gc_belady_heuristic;
use gc_cache::prelude::*;

pub const USAGE: &str = "\
run one policy over a synthetic workload
--policy <label> --capacity <k> [--warmup W] [--compile]
[workload flags]";

pub fn run(args: &Args) -> Result<(), String> {
    let label = args.get_str("policy").unwrap_or("iblp");
    let kind = PolicyKind::parse(label).map_err(|e| e.to_string())?;
    let capacity = positive_capacity(args)?;
    let warmup: usize = args.get_or("warmup", 0usize)?;
    let compile = args.switch("compile");
    let Workload { trace, map, .. } = workload(args)?;
    let required = kind.min_capacity(map.max_block_size());
    if capacity < required {
        return Err(GcError::CapacityTooSmall { capacity, required }.to_string());
    }

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
