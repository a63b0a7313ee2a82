//! Quickstart: simulate the paper's three protagonists on one workload.
//!
//! Run with:
//! ```sh
//! cargo run --release -p gc-cache --example quickstart
//! ```

use gc_cache::gc_sim::compare::render_table;
use gc_cache::gc_sim::sweep::{run_sweep, SweepJob, SweepResult, SweepRunConfig};
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::prelude::*;

fn main() {
    // A workload over 512 blocks of 16 items with Zipfian block popularity
    // (temporal locality) and geometric within-block runs (spatial
    // locality) — the mixed regime the paper's introduction motivates.
    let cfg = BlockRunConfig {
        num_blocks: 512,
        block_size: 16,
        block_theta: 0.9,
        spatial_locality: 0.6,
        len: 500_000,
        seed: 7,
    };
    let trace = block_runs(&cfg);
    let map = block_runs_map(&cfg);

    println!(
        "workload: {} requests, {} distinct items, {} distinct blocks (B = {})\n",
        trace.len(),
        trace.distinct_items(),
        trace.distinct_blocks(&map),
        cfg.block_size
    );

    // Same capacity for everyone; IBLP splits it across its two layers.
    let capacity = 2048;
    let jobs: Vec<SweepJob> = [
        PolicyKind::ItemLru,
        PolicyKind::BlockLru,
        PolicyKind::IblpBalanced,
        PolicyKind::Gcm { seed: 1 },
    ]
    .into_iter()
    .map(|kind| SweepJob {
        kind,
        capacity,
        warmup: 10_000, // excluded from the stats
    })
    .collect();
    let outcome =
        run_sweep(&jobs, &trace, &map, &SweepRunConfig::default()).expect("no cell panics");
    let cells: Vec<&SweepResult> = outcome.completed().collect();
    println!("capacity = {capacity} items, warm-up = 10k requests\n");
    println!("{}", render_table(&cells));

    println!(
        "note: 'spatial' hits are first touches of co-loaded items (§2 of the paper);\n\
         item caches never have them, block caches live off them, IBLP takes both."
    );
}
