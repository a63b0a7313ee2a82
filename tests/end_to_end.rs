//! End-to-end integration: workload generation → simulation → comparison →
//! offline reference → serialization, across every crate boundary.

use gc_cache::gc_offline::{belady_misses, gc_belady_heuristic};
use gc_cache::gc_sim::sweep::{run_sweep, SweepJob, SweepResult, SweepRunConfig};
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::gc_trace::{io, transforms};
use gc_cache::prelude::*;

/// Each kind at one capacity, in kind order.
fn column(
    kinds: &[PolicyKind],
    capacity: usize,
    trace: &Trace,
    map: &BlockMap,
) -> Vec<SweepResult> {
    let jobs: Vec<SweepJob> = kinds
        .iter()
        .map(|kind| SweepJob {
            kind: kind.clone(),
            capacity,
            warmup: 0,
        })
        .collect();
    let outcome = run_sweep(&jobs, trace, map, &SweepRunConfig::default()).unwrap();
    outcome.completed().cloned().collect()
}

fn mixed_workload(seed: u64) -> (Trace, BlockMap) {
    let cfg = BlockRunConfig {
        num_blocks: 256,
        block_size: 16,
        block_theta: 0.9,
        spatial_locality: 0.65,
        len: 60_000,
        seed,
    };
    (block_runs(&cfg), block_runs_map(&cfg))
}

#[test]
fn full_roster_runs_and_respects_offline_floor() {
    let (trace, map) = mixed_workload(1);
    let capacity = 512;
    let rows = column(&PolicyKind::standard_roster(7), capacity, &trace, &map);
    assert_eq!(rows.len(), PolicyKind::standard_roster(7).len());

    // The block-aware Belady heuristic is an offline strategy: it may use
    // the future, so every online policy must miss at least as much.
    let offline = gc_belady_heuristic(&trace, &map, capacity);
    for row in &rows {
        assert!(
            row.stats.misses >= offline,
            "{} beat the offline heuristic: {} < {offline}",
            row.job.kind,
            row.stats.misses
        );
        assert_eq!(row.stats.accesses, trace.len() as u64);
        assert_eq!(
            row.stats.hits() + row.stats.misses,
            trace.len() as u64,
            "{} accounting broken",
            row.job.kind
        );
    }
}

#[test]
fn item_caches_have_zero_spatial_hits_and_block_caches_many() {
    let (trace, map) = mixed_workload(2);
    let kinds = [
        PolicyKind::ItemLru,
        PolicyKind::BlockLru,
        PolicyKind::IblpBalanced,
    ];
    let [item, block, iblp] = &column(&kinds, 512, &trace, &map)[..] else {
        panic!("one row per kind");
    };
    assert_eq!(item.stats.spatial_hits, 0);
    assert!(block.stats.spatial_hits > 1000);
    assert!(iblp.stats.spatial_hits > 0);
    assert!(iblp.stats.temporal_hits > 0);
}

#[test]
fn sweep_scales_capacity_sanely() {
    let (trace, map) = mixed_workload(3);
    let jobs: Vec<SweepJob> = [128usize, 512, 2048]
        .iter()
        .flat_map(|&capacity| {
            [PolicyKind::ItemLru, PolicyKind::IblpBalanced]
                .into_iter()
                .map(move |kind| SweepJob {
                    kind,
                    capacity,
                    warmup: 1000,
                })
        })
        .collect();
    let outcome = run_sweep(&jobs, &trace, &map, &SweepRunConfig::default()).unwrap();
    let results: Vec<SweepResult> = outcome.completed().cloned().collect();
    // For each policy, bigger caches should not miss (much) more. LRU is
    // exactly monotone; IBLP moves its split, allow 2% slack.
    for pair in results.chunks(2).collect::<Vec<_>>().windows(2) {
        for (small, large) in pair[0].iter().zip(pair[1]) {
            assert!(
                large.stats.misses as f64 <= small.stats.misses as f64 * 1.02,
                "{}: {} -> {}",
                small.policy_name,
                small.stats.misses,
                large.stats.misses
            );
        }
    }
}

#[test]
fn traces_roundtrip_through_files() {
    let (trace, map) = mixed_workload(4);
    // JSON (trace + map).
    let back = io::from_json(&io::to_json(&trace, &map)).unwrap();
    assert_eq!(back.trace.requests(), trace.requests());
    assert_eq!(back.block_map.max_block_size(), 16);
    // Text (trace only).
    let mut buf = Vec::new();
    io::write_text(&trace, &mut buf).unwrap();
    let text_back = io::read_text(buf.as_slice()).unwrap();
    assert_eq!(text_back.requests(), trace.requests());
    // Simulating the deserialized trace gives identical stats.
    let mut a = ItemLru::new(256);
    let mut b = ItemLru::new(256);
    let sa = gc_cache::gc_sim::simulate(&mut a, &trace);
    let sb = gc_cache::gc_sim::simulate(&mut b, &back.trace);
    assert_eq!(sa, sb);
}

#[test]
fn transformed_traces_behave() {
    let (trace, map) = mixed_workload(5);
    let doubled = transforms::repeat(&trace, 2);
    assert_eq!(doubled.len(), trace.len() * 2);
    // Second pass of a repeated trace has a warm cache: strictly fewer
    // misses than 2× the single-pass count for a reuse-heavy workload.
    let mut once = ItemLru::new(1024);
    let mut twice = ItemLru::new(1024);
    let s1 = gc_cache::gc_sim::simulate(&mut once, &trace);
    let s2 = gc_cache::gc_sim::simulate(&mut twice, &doubled);
    assert!(s2.misses < 2 * s1.misses);
    let _ = map;
}

#[test]
fn belady_is_a_floor_for_item_caches_only() {
    // Belady-MIN bounds item caches from below, but GC policies may beat
    // it by exploiting spatial locality — the paper's whole point.
    let (trace, map) = mixed_workload(6);
    let capacity = 512;
    let floor = belady_misses(&trace, capacity);
    let mut lru = ItemLru::new(capacity);
    let lru_misses = gc_cache::gc_sim::simulate(&mut lru, &trace).misses;
    assert!(lru_misses >= floor);

    let mut iblp = Iblp::balanced(capacity, map);
    let iblp_misses = gc_cache::gc_sim::simulate(&mut iblp, &trace).misses;
    assert!(
        iblp_misses < floor,
        "IBLP ({iblp_misses}) should beat item-granular OPT ({floor}) on a spatial workload"
    );
}
