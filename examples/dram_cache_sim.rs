//! A die-stacked DRAM cache scenario (the systems motivation in §1).
//!
//! SRAM-line-granularity requests (64 B items) arrive at a DRAM cache whose
//! backing store serves 2 KB rows (blocks of B = 32 lines). Three tenants
//! share the cache:
//!
//! * an OLTP-like tenant — hot, skewed point reads (temporal locality),
//! * an analytics tenant — long sequential row scans (spatial locality),
//! * a logger — append-only writes that stream and never return.
//!
//! The example sweeps the DRAM cache size and prints the fault rate of an
//! item cache, a block ("footprint") cache, IBLP, and GCM, plus the
//! offline block-aware Belady comparator — reproducing in miniature the
//! motivation for footprint caches [Jevdjic 2013] that the paper cites.
//!
//! Run with:
//! ```sh
//! cargo run --release -p gc-cache --example dram_cache_sim
//! ```

use gc_cache::gc_offline::gc_belady_heuristic;
use gc_cache::gc_sim::sweep::{run_sweep, SweepJob, SweepRunConfig};
use gc_cache::gc_trace::synthetic::{zipfian, Phase};
use gc_cache::gc_trace::transforms;
use gc_cache::prelude::*;

const BLOCK: usize = 32; // 2 KB row / 64 B line

fn workload() -> Trace {
    // OLTP tenant: Zipfian over 4 Ki hot lines spread one-per-row (sparse
    // rows — poison for block caches). Ids 0, 32, 64, ...
    let oltp_raw = zipfian(4096, 1.1, 120_000, 11);
    let oltp = Trace::from_requests(
        oltp_raw
            .iter()
            .map(|i| ItemId(i.0 * BLOCK as u64))
            .collect(),
    );

    // Analytics tenant: repeated scans over a 2 Mi-line table (whole rows).
    let analytics = gc_cache::gc_trace::synthetic::phased(
        &[Phase::Scan {
            base: 1 << 24,
            num_items: 1 << 21,
            len: 120_000,
        }],
        3,
    );

    // Logger: streaming appends, never re-read.
    let logger = gc_cache::gc_trace::synthetic::phased(
        &[Phase::Scan {
            base: 1 << 30,
            num_items: u32::MAX as u64,
            len: 60_000,
        }],
        5,
    );

    transforms::interleave(&[&oltp, &analytics, &logger]).named("dram-cache-mix")
}

fn main() {
    let trace = workload();
    let map = BlockMap::strided(BLOCK);
    println!(
        "DRAM cache mix: {} requests, {} distinct lines, {} distinct rows\n",
        trace.len(),
        trace.distinct_items(),
        trace.distinct_blocks(&map)
    );

    let kinds = [
        PolicyKind::ItemLru,
        PolicyKind::BlockLru,
        PolicyKind::IblpBalanced,
        PolicyKind::Gcm { seed: 2 },
    ];
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11} {:>13}",
        "capacity", "item-lru", "block-lru", "iblp", "gcm", "block-belady"
    );
    for shift in [12u32, 13, 14, 15, 16] {
        let capacity = 1usize << shift;
        let jobs: Vec<SweepJob> = kinds
            .iter()
            .map(|kind| SweepJob {
                kind: kind.clone(),
                capacity,
                warmup: 10_000,
            })
            .collect();
        let outcome = run_sweep(&jobs, &trace, &map, &SweepRunConfig::default())
            .expect("every capacity fits its policy");
        let offline = gc_belady_heuristic(&trace, &map, capacity);
        print!("{:<10}", format!("{}Ki", capacity >> 10));
        for r in outcome.completed() {
            print!(" {:>11.4}", r.stats.fault_rate());
        }
        println!(" {:>13.4}", offline as f64 / trace.len() as f64);
    }
    println!(
        "\nIBLP's item layer absorbs the OLTP tenant while its block layer\n\
         serves the scans; the block cache wastes 31/32 of each OLTP row."
    );
}
