//! Miss-ratio-curve exploration: size a granularity-change cache offline.
//!
//! The capacity-planning workflow, production-scale edition:
//!
//! 1. compute item-LRU and block-LRU miss-ratio curves **in parallel** on
//!    the shared worker pool ([`mrc_bundle`]), exactly and SHARDS-sampled;
//! 2. compare the sampled curves (a tenth of the work — SHARDS accuracy
//!    scales with the *sampled distinct-id count*, so this small demo
//!    workload uses 10 %; multi-million-id production traces run at 1 %
//!    or below, see `crates/sim/tests/shards_at_scale.rs`);
//! 3. derive the IBLP split grid, shortlist the best split, and verify it
//!    by simulation — including an [`AdaptiveIblp`] *seeded* at the
//!    MRC-chosen split via [`AdaptiveIblp::with_split`].
//!
//! Run with:
//! ```sh
//! cargo run --release -p gc-cache --example mrc_explorer
//! ```
//!
//! [`mrc_bundle`]: gc_cache::gc_sim::mrc::mrc_bundle

use gc_cache::gc_sim::mrc::{mrc_bundle, MrcMode};
use gc_cache::gc_sim::shards::SamplerConfig;
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::prelude::*;
use std::time::Instant;

fn main() {
    let cfg = BlockRunConfig {
        num_blocks: 2048,
        block_size: 16,
        block_theta: 0.95,
        spatial_locality: 0.7,
        len: 400_000,
        seed: 31,
    };
    let trace = block_runs(&cfg);
    let map = block_runs_map(&cfg);
    println!(
        "workload: {} requests, {} items, {} blocks (B = {})\n",
        trace.len(),
        trace.distinct_items(),
        trace.distinct_blocks(&map),
        cfg.block_size
    );

    // Both curves + split grid for a 4096-line budget, curve passes in
    // parallel on the shared pool.
    let capacity = 4096;
    let t0 = Instant::now();
    let exact = mrc_bundle(&trace, &map, capacity, &MrcMode::Exact, 0).expect("capacity > B");
    let exact_time = t0.elapsed();

    // Pick the rate for the universe: ~31 K distinct items means 10 %
    // still samples ~3 K ids — enough support for a tight curve. At 1 %
    // (≈ 300 ids) the curve visibly wobbles; production-scale traces with
    // millions of ids are where 1 % shines (`shards_at_scale.rs` holds it
    // to a 0.02 sup-error there).
    let sampler = SamplerConfig::fixed(0.1).with_seed(7);
    let t1 = Instant::now();
    let sampled =
        mrc_bundle(&trace, &map, capacity, &MrcMode::Sampled(sampler), 0).expect("capacity > B");
    let sampled_time = t1.elapsed();

    println!("item-LRU MRC (size → miss ratio, exact vs 10% sample):");
    for shift in [6u32, 8, 10, 12] {
        let k = 1usize << shift;
        println!(
            "  {:>6} → {:.4}  ~{:.4}",
            k,
            exact.item.miss_ratio(k),
            sampled.item.miss_ratio(k)
        );
    }
    println!("block-LRU MRC (block slots → miss ratio, exact vs 10% sample):");
    for shift in [2u32, 4, 6, 8] {
        let s = 1usize << shift;
        println!(
            "  {:>6} → {:.4}  ~{:.4}",
            s,
            exact.block.miss_ratio(s),
            sampled.block.miss_ratio(s)
        );
    }
    let max_err = (0..=capacity)
        .map(|k| (exact.item.miss_ratio(k) - sampled.item.miss_ratio(k)).abs())
        .fold(0.0f64, f64::max);
    let stats = sampled.item_stats.expect("a fresh sampled curve");
    println!(
        "\nsampling: {} of {} accesses kept ({} distinct ids); exact {:?} vs sampled {:?}; max item-curve error {:.4}",
        stats.sampled_accesses,
        trace.len(),
        stats.distinct_sampled,
        exact_time,
        sampled_time,
        max_err
    );

    let best = exact.best_split().expect("nonempty grid");
    println!(
        "\nbest split by MRC estimate (budget {capacity}): i = {}, b = {} (≈ {} misses)",
        best.item_lines, best.block_lines, best.miss_estimate
    );
    if let Some(sampled_best) = sampled.best_split() {
        println!(
            "  10% sample shortlists: i = {}, b = {}",
            sampled_best.item_lines, sampled_best.block_lines
        );
    }

    // Verify the shortlist by simulation: static splits, plus an adaptive
    // policy seeded at the MRC choice (vs the even default).
    for (label, i) in [("mrc-chosen", best.item_lines), ("balanced", capacity / 2)] {
        let mut iblp = Iblp::new(i, capacity - i, map.clone());
        let stats = simulate(&mut iblp, &trace);
        println!(
            "  {label:<16} i={i:<5} → fault rate {:.4} ({} misses)",
            stats.fault_rate(),
            stats.misses
        );
    }
    for (label, mut adaptive) in [
        (
            "adaptive@mrc",
            AdaptiveIblp::with_split(capacity, best.item_lines, map.clone()),
        ),
        ("adaptive@even", AdaptiveIblp::new(capacity, map.clone())),
    ] {
        let stats = simulate(&mut adaptive, &trace);
        println!(
            "  {label:<16} i={:<5} → fault rate {:.4} ({} misses, split ended at i={})",
            match label {
                "adaptive@mrc" => best.item_lines,
                _ => capacity / 2,
            },
            stats.fault_rate(),
            stats.misses,
            adaptive.item_layer_size()
        );
    }
    println!(
        "\nThe grid estimate is min(item-curve, block-curve) per split — each\n\
         layer alone already filters — so it shortlists partitions cheaply\n\
         before committing simulation time; sampling makes the curves\n\
         themselves near-free at production trace lengths."
    );
}
