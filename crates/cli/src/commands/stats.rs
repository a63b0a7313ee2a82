//! `stats`: locality diagnostics of a workload.

use super::workload::{workload, Workload};
use crate::args::Args;
use gc_cache::gc_trace::stats::summarize;

pub const USAGE: &str = "\
locality diagnostics of a workload (reuse distances, block
runs, utilization) [workload flags or --load <path>]";

pub fn run(args: &Args) -> Result<(), String> {
    let Workload { trace, map, .. } = workload(args)?;
    println!("{}", summarize(&trace, &map));
    Ok(())
}
