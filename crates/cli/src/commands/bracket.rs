//! `bracket`: a two-sided bracket on the offline GC optimum.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
use gc_cache::gc_offline::bracket_opt;
use std::io::Write;

pub const USAGE: &str = "\
two-sided bracket on the offline GC optimum
--capacity <h> [workload flags]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let capacity: usize = args.require("capacity")?;
    let Workload { trace, map, .. } = workload(args)?;
    let bracket = bracket_opt(&trace, &map, capacity);
    writeln!(out, "trace: {} ({} requests)", trace.name, trace.len())?;
    writeln!(out, "offline optimum bracket at h = {capacity}:")?;
    writeln!(out, "  lower bound (windows)      {}", bracket.lower)?;
    writeln!(out, "  upper bound (block-Belady) {}", bracket.upper)?;
    writeln!(out, "  gap                        {:.3}×", bracket.gap())?;
    Ok(())
}
