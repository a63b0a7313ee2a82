//! `adversary`: one §4 lower-bound construction against a live policy.

use super::Failure;
use crate::args::Args;
use gc_cache::gc_trace::adversary;
use gc_cache::prelude::*;
use std::io::Write;

pub const USAGE: &str = "\
run a §4 adversary against a live policy
--which st|thm2|thm3|thm4 --k K --h H [--block-size B
--rounds R --a A]";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let which = args.get_str("which").unwrap_or("thm2");
    let k: usize = args.require("k")?;
    let h: usize = args.require("h")?;
    let b: usize = args.get_or("block-size", 16usize)?;
    let rounds: usize = args.get_or("rounds", 100usize)?;
    let a: usize = args.get_or("a", 1usize)?;
    args.finish()?;
    let rep = match which {
        "st" => {
            let mut probe = ProbeAdapter::new(ItemLru::new(k));
            adversary::sleator_tarjan(&mut probe, k, h, rounds)
        }
        "thm2" => {
            let mut probe = ProbeAdapter::new(ItemLru::new(k));
            adversary::item_cache(&mut probe, k, h, b, rounds)
        }
        "thm3" => {
            let mut probe = ProbeAdapter::new(BlockLru::new(k, BlockMap::strided(b)));
            adversary::block_cache(&mut probe, k, h, b, rounds)
        }
        "thm4" => {
            let mut probe = ProbeAdapter::new(ThresholdLoad::new(k, a, BlockMap::strided(b)));
            adversary::general(&mut probe, k, h, b, rounds)
        }
        other => return Err(format!("unknown adversary {other:?} (st|thm2|thm3|thm4)").into()),
    };
    writeln!(
        out,
        "trace: {} ({} requests, warmup {})",
        rep.trace.name,
        rep.trace.len(),
        rep.warmup_len
    )?;
    writeln!(out, "online misses  {}", rep.online_misses)?;
    writeln!(out, "offline misses {}", rep.opt_misses)?;
    writeln!(
        out,
        "certified competitive ratio ≥ {:.3}",
        rep.competitive_ratio()
    )?;
    Ok(())
}
