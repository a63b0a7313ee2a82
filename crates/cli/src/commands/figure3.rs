//! `figure3`: the paper's Figure 3 bound curves as CSV.

use super::{cell, Failure};
use crate::args::Args;
use gc_cache::gc_bounds::figures::{figure3, geometric_h_values};
use std::io::Write;

pub const USAGE: &str = "\
competitive-ratio bound curves (paper Figure 3)
[--k 1280000 --block-size 64]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let k: usize = args.get_or("k", 1_280_000usize)?;
    let b: usize = args.get_or("block-size", 64usize)?;
    args.finish()?;
    let hs = geometric_h_values(b * 2, k - 1, 6);
    writeln!(
        out,
        "h,sleator_tarjan,gc_lower,iblp_upper,item_cache_lower,block_cache_lower"
    )?;
    for p in figure3(k, b, &hs) {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            p.h,
            cell(p.sleator_tarjan),
            cell(p.gc_lower),
            cell(p.iblp_upper),
            cell(p.item_cache_lower),
            cell(p.block_cache_lower)
        )?;
    }
    Ok(())
}
