//! `table2`: the paper's Table 2, fault-rate bounds for polynomial
//! locality, asymptotic and exact.

use super::Failure;
use crate::args::Args;
use gc_cache::gc_locality::table2::table2_paper;
use std::io::Write;

pub const USAGE: &str = "\
fault-rate bounds for polynomial locality (paper Table 2)
[--p 3 --block-size 64 --h 1048576]; rows 1-3 are p = 2,
rows 4-6 are p = --p (> 1)";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let p: f64 = args.get_or("p", 3.0f64)?;
    if p <= 1.0 {
        return Err("--p must be > 1".into());
    }
    let b: usize = args.get_or("block-size", 64usize)?;
    let h: usize = args.get_or("h", 1usize << 20)?;
    args.finish()?;
    writeln!(
        out,
        "Table 2 (f(n) = n^(1/p), i = b = h = {h}, B = {b}; rows 1-3: p = 2, rows 4-6: p = {p}):"
    )?;
    writeln!(
        out,
        "{:<12} {:<26} {:>13} {:>13} {:>13}  |  {:>13} {:>13} {:>13}",
        "f(n)",
        "g(n)",
        "LB (asym)",
        "item UB",
        "block UB",
        "LB (exact)",
        "item (exact)",
        "block (exact)"
    )?;
    for row in table2_paper(p, b, h) {
        writeln!(
            out,
            "{:<12} {:<26} {:>13.3e} {:>13.3e} {:>13.3e}  |  {:>13.3e} {:>13.3e} {:>13.3e}",
            row.f_desc,
            row.g_desc,
            row.lower_asym,
            row.item_asym,
            row.block_asym,
            row.lower_exact,
            row.item_exact,
            row.block_exact
        )?;
    }
    writeln!(
        out,
        "\nIBLP's bound is min(item UB, block UB); the largest gap vs the lower\n\
         bound is the middle row of each group (ratio B^(1-1/p)), as §7.3 argues.\n\
         Note: the printed paper lists the middle rows' g as x^(1/p)/B^(1/2); the\n\
         matching LB column and §7.3 correspond to B^((p-1)/p) (equal at p = 2)."
    )?;
    Ok(())
}
