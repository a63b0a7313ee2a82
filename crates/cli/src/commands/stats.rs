//! `stats`: locality diagnostics of a workload.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
use gc_cache::gc_trace::stats::summarize;
use std::io::Write;

pub const USAGE: &str = "\
locality diagnostics of a workload (reuse distances, block
runs, utilization) [workload flags or --load <path>]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let Workload { trace, map, .. } = workload(args)?;
    writeln!(out, "{}", summarize(&trace, &map))?;
    Ok(())
}
