//! Tournament: every policy in the registry, across the full
//! spatial-locality spectrum, in parallel.
//!
//! The spatial-locality knob sweeps from 0.0 (pure temporal — item caches'
//! home turf) to 0.95 (streaming — block caches' home turf), showing the
//! crossover the paper predicts and IBLP/GCM's robustness across it.
//!
//! Run with:
//! ```sh
//! cargo run --release -p gc-cache --example policy_tournament
//! ```

use gc_cache::gc_sim::sweep::{run_sweep, SweepJob, SweepOutcome, SweepRunConfig};
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::prelude::*;

fn main() {
    let kinds = PolicyKind::extended_roster(42);
    let capacity = 1024;

    println!(
        "{:<14} {}",
        "policy",
        ["s=0.00", "s=0.25", "s=0.50", "s=0.75", "s=0.95"]
            .map(|s| format!("{s:>9}"))
            .join(" ")
    );

    let mut table: Vec<(String, Vec<f64>)> = kinds
        .iter()
        .map(|kind| (kind.label(), Vec::new()))
        .collect();

    for &spatial in &[0.0, 0.25, 0.5, 0.75, 0.95] {
        let cfg = BlockRunConfig {
            num_blocks: 1024,
            block_size: 16,
            block_theta: 0.8,
            spatial_locality: spatial,
            len: 400_000,
            seed: 99,
        };
        let trace = block_runs(&cfg);
        let map = block_runs_map(&cfg);
        let jobs: Vec<SweepJob> = kinds
            .iter()
            .map(|kind| SweepJob {
                kind: kind.clone(),
                capacity,
                warmup: 20_000,
            })
            .collect();
        for (row, result) in table.iter_mut().zip(sweep(&jobs, &trace, &map).completed()) {
            row.1.push(result.stats.fault_rate());
        }
    }

    for (label, rates) in &table {
        let cells: Vec<String> = rates.iter().map(|r| format!("{r:>9.4}")).collect();
        println!("{label:<14} {}", cells.join(" "));
    }

    // Column winners.
    println!();
    for (col, &s) in [0.0, 0.25, 0.5, 0.75, 0.95].iter().enumerate() {
        let winner = table
            .iter()
            .min_by(|a, b| a.1[col].total_cmp(&b.1[col]))
            .expect("nonempty table");
        println!(
            "best at spatial={s:.2}: {} ({:.4})",
            winner.0, winner.1[col]
        );
    }

    // Round 2: the block-cache killer. Hot items one-per-block (Theorem 3's
    // pollution regime) interleaved with whole-block streams: block caches
    // waste B−1 lines per hot item, item caches miss every stream line,
    // IBLP and loadk:a=1 take both sides.
    println!("\n== round 2: sparse hot items + fresh streams (B = 16) ==");
    let b = 16u64;
    let mut trace = Trace::new();
    for round in 0..2000u64 {
        for hot in 0..96u64 {
            trace.push(ItemId(hot * b));
        }
        let fresh = 1_000_000 + round;
        for off in 0..b {
            trace.push(ItemId(fresh * b + off));
        }
    }
    let map = BlockMap::strided(b as usize);
    let jobs: Vec<SweepJob> = kinds
        .iter()
        .map(|kind| SweepJob {
            kind: kind.clone(),
            capacity: 512,
            warmup: 512,
        })
        .collect();
    let mut round2: Vec<(String, f64)> = kinds
        .iter()
        .zip(sweep(&jobs, &trace, &map).completed())
        .map(|(kind, result)| (kind.label(), result.stats.fault_rate()))
        .collect();
    round2.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (label, rate) in &round2 {
        println!("{label:<14} {rate:>9.4}");
    }
    println!(
        "\nRound 1: item policies lead at s=0, block caches at high s. Round 2\n\
         breaks the block caches (1/B effective size on sparse rows) while the\n\
         layered policies stay near the front at every setting — robustness\n\
         across locality mixes is the paper's design goal."
    );
}

/// Every job on one thread per core; the roster never panics.
fn sweep(jobs: &[SweepJob], trace: &Trace, map: &BlockMap) -> SweepOutcome {
    run_sweep(jobs, trace, map, &SweepRunConfig::default()).expect("every capacity fits its policy")
}
