//! `fg`: the empirical `f(n)`/`g(n)` working-set profile of a workload.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
use gc_cache::gc_trace::WorkingSetProfile;
use std::io::Write;

pub const USAGE: &str = "\
empirical f(n)/g(n) working-set profile of a workload
[workload flags]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
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
    writeln!(out, "n,f(n),g(n),f/g")?;
    for ((&n, &f), (&g, ratio)) in profile
        .window_sizes
        .iter()
        .zip(&profile.f)
        .zip(profile.g.iter().zip(profile.fg_ratio()))
    {
        writeln!(out, "{n},{f},{g},{ratio:.3}")?;
    }
    Ok(())
}
