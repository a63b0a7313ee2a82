//! `fg`: the empirical `f(n)`/`g(n)` working-set profile of a workload.

use super::workload::{workload, Workload};
use crate::args::Args;
use gc_cache::gc_trace::WorkingSetProfile;

pub const USAGE: &str = "\
empirical f(n)/g(n) working-set profile of a workload
[workload flags]";

pub fn run(args: &Args) -> Result<(), String> {
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
