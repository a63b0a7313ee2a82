//! `figure6`: the paper's Figure 6, fixed vs optimal IBLP splits, as CSV.

use super::{cell, Failure};
use crate::args::Args;
use gc_cache::gc_bounds::figures::{figure6, geometric_h_values};
use gc_cache::gc_bounds::iblp_optimal_split;
use std::io::Write;

pub const USAGE: &str = "\
fixed vs optimal IBLP splits (paper Figure 6)
[--k 1280000 --block-size 64]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let k: usize = args.get_or("k", 1_280_000usize)?;
    let b: usize = args.get_or("block-size", 64usize)?;
    args.finish()?;
    // Fixed splits tuned for three design points, as in the paper's plot.
    let design_points = [k / 1024, k / 64, k / 8];
    let fixed: Vec<usize> = design_points
        .iter()
        .filter_map(|&h| iblp_optimal_split(k, h, b).map(|(i, _)| i))
        .collect();
    let hs = geometric_h_values(b * 2, k / 2, 6);
    let header: Vec<String> = fixed.iter().map(|i| format!("fixed_i_{i}")).collect();
    writeln!(out, "h,optimal,{}", header.join(","))?;
    for p in figure6(k, b, &hs, &fixed) {
        let cells: Vec<String> = p.fixed_splits.iter().map(|&v| cell(v)).collect();
        writeln!(out, "{},{},{}", p.h, cell(p.optimal_split), cells.join(","))?;
    }
    Ok(())
}
