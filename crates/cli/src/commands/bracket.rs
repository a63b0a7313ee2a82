//! `bracket`: a two-sided bracket on the offline GC optimum.

use super::workload::{workload, Workload};
use crate::args::Args;
use gc_cache::gc_offline::bracket_opt;

pub const USAGE: &str = "\
two-sided bracket on the offline GC optimum
--capacity <h> [workload flags]";

pub fn run(args: &Args) -> Result<(), String> {
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
