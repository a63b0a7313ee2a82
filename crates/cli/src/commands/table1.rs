//! `table1`: the paper's Table 1, salient bound comparison points.

use super::Failure;
use crate::args::Args;
use gc_cache::gc_bounds::table1::{render, table1};
use std::io::Write;

pub const USAGE: &str = "\
salient bound comparison points (paper Table 1)
[--h 16384 --block-size 64]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    // A large h makes the ±1 terms vanish, so the paper's asymptotic
    // cells emerge.
    let h: usize = args.get_or("h", 1usize << 14)?;
    let b: usize = args.get_or("block-size", 64usize)?;
    args.finish()?;
    write!(out, "{}", render(&table1(h, b)))?;
    writeln!(
        out,
        "\npaper's asymptotic cells:  ST: 2h⇒2   LB: 2h⇒B, √B·h⇒√B, Bh⇒2   \
         UB: 2h⇒2B, √(2B)h⇒√(2B), Bh⇒3"
    )?;
    Ok(())
}
