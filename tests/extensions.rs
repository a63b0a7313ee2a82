//! Integration tests for the extension layer: MRC-driven sizing, OPT
//! brackets, the extended policy roster, hierarchy composition, and the
//! §6 randomized-family behaviors.

use gc_cache::gc_offline::{bracket_opt, gc_belady_heuristic};
use gc_cache::gc_sim::mrc::{item_mrc, mrc_bundle, MrcMode};
use gc_cache::gc_sim::{simulate, simulate_hierarchy};
use gc_cache::gc_trace::generators_ext::{affinity_remap, hotspot, pointer_chase, strided};
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::prelude::*;

fn mixed(seed: u64, len: usize) -> (Trace, BlockMap) {
    let cfg = BlockRunConfig {
        num_blocks: 512,
        block_size: 16,
        block_theta: 0.9,
        spatial_locality: 0.65,
        len,
        seed,
    };
    (block_runs(&cfg), block_runs_map(&cfg))
}

#[test]
fn extended_roster_runs_and_respects_opt_bracket() {
    let (trace, map) = mixed(41, 40_000);
    let capacity = 512;
    let bracket = bracket_opt(&trace, &map, capacity);
    assert!(bracket.lower <= bracket.upper);
    for kind in PolicyKind::extended_roster(5) {
        let mut policy = kind.build(capacity, &map);
        let stats = simulate(&mut policy, &trace);
        assert!(
            stats.misses >= bracket.lower,
            "{}: {} misses below the OPT lower bound {}",
            kind.label(),
            stats.misses,
            bracket.lower
        );
        assert_eq!(stats.hits() + stats.misses, trace.len() as u64);
    }
}

#[test]
fn mrc_chosen_split_beats_balanced_on_spatial_heavy_workload() {
    let cfg = BlockRunConfig {
        num_blocks: 1024,
        block_size: 16,
        block_theta: 0.95,
        spatial_locality: 0.75,
        len: 80_000,
        seed: 42,
    };
    let trace = block_runs(&cfg);
    let map = block_runs_map(&cfg);
    let capacity = 1024;
    let bundle = mrc_bundle(&trace, &map, capacity, &MrcMode::Exact, 0).expect("capacity > B");
    let best = bundle.best_split().expect("nonempty grid");
    let mut chosen = Iblp::new(best.item_lines, best.block_lines, map.clone());
    let mut balanced = Iblp::balanced(capacity, map);
    let m_chosen = simulate(&mut chosen, &trace).misses;
    let m_balanced = simulate(&mut balanced, &trace).misses;
    assert!(
        m_chosen <= m_balanced,
        "MRC-chosen {m_chosen} vs balanced {m_balanced}"
    );
}

#[test]
fn scan_resistant_policies_beat_lru_under_pollution() {
    // Hot set (established during a few clean rounds — SLRU has no ghost
    // metadata, so it can only learn reuse it actually observes) followed
    // by sustained scan pollution: 2Q, SLRU, LRU-2 and W-TinyLFU must all
    // beat plain LRU.
    let mut trace = Trace::new();
    for round in 0..500u64 {
        for hot in 0..24u64 {
            trace.push(ItemId(hot));
        }
        if round >= 4 {
            for s in 0..12u64 {
                trace.push(ItemId(100_000 + round * 12 + s));
            }
        }
    }
    let map = BlockMap::singleton();
    let lru_misses = {
        let mut p = ItemLru::new(32);
        simulate(&mut p, &trace).misses
    };
    for kind in [
        PolicyKind::TwoQ,
        PolicyKind::Slru,
        PolicyKind::LruK { k: 2 },
        PolicyKind::WTinyLfu,
    ] {
        let mut p = kind.build(32, &map);
        let misses = simulate(&mut p, &trace).misses;
        assert!(
            misses < lru_misses,
            "{} ({misses}) did not beat LRU ({lru_misses}) under scan pollution",
            kind.label()
        );
    }
}

#[test]
fn pointer_chase_defeats_coloading() {
    // On pointer chasing, co-loading buys nothing: IBLP and ItemLRU of
    // equal size should be within a whisker of each other, and the offline
    // heuristic close to item-Belady.
    let trace = pointer_chase(4096, 60_000, 13);
    let map = BlockMap::strided(16);
    let mut iblp = Iblp::balanced(512, map.clone());
    let mut lru = ItemLru::new(512);
    let m_iblp = simulate(&mut iblp, &trace).misses as f64;
    let m_lru = simulate(&mut lru, &trace).misses as f64;
    assert!(
        m_iblp >= 0.9 * m_lru,
        "co-loading cannot help a pointer chase: iblp {m_iblp} vs lru {m_lru}"
    );
}

#[test]
fn affinity_remap_turns_chase_into_streams() {
    // Data placement fixes what the policy cannot: remapping a pointer
    // chase by affinity makes consecutive links share blocks, and the same
    // GC cache's misses collapse.
    let trace = pointer_chase(2048, 40_000, 17);
    let map = BlockMap::strided(16);
    let remapped = affinity_remap(&trace, 16);
    let mut before = Iblp::balanced(256, map.clone());
    let mut after = Iblp::balanced(256, map);
    let m_before = simulate(&mut before, &trace).misses;
    let m_after = simulate(&mut after, &remapped).misses;
    assert!(
        m_after * 4 < m_before,
        "affinity remap should collapse misses: {m_after} vs {m_before}"
    );
}

#[test]
fn strided_access_is_block_cache_poison() {
    // A stride equal to the block size touches a new block every access:
    // the block cache loads B lines to use 1.
    let trace = strided(1 << 16, 16, 30_000);
    let map = BlockMap::strided(16);
    let mut blk = BlockLru::new(512, map.clone());
    let mut item = ItemLru::new(512);
    let s_blk = simulate(&mut blk, &trace);
    let s_item = simulate(&mut item, &trace);
    assert_eq!(s_blk.spatial_hits, 0, "stride skips every co-loaded line");
    assert!(s_blk.misses >= s_item.misses);
}

#[test]
fn hierarchy_composition_matches_manual_filtering() {
    // simulate_hierarchy(L1, L2) must equal running L2 on the trace of
    // L1's misses, collected manually.
    let (trace, map) = mixed(43, 30_000);
    let mut l1a = ItemLru::new(64);
    let mut l2a = Iblp::balanced(512, map.clone());
    let combined = simulate_hierarchy(&mut l1a, &mut l2a, &trace);

    let mut l1b = ItemLru::new(64);
    let mut filtered = Trace::new();
    for item in trace.iter() {
        if l1b.access(item).is_miss() {
            filtered.push(item);
        }
    }
    let mut l2b = Iblp::balanced(512, map);
    let direct = simulate(&mut l2b, &filtered);
    assert_eq!(combined.l2.accesses, direct.accesses);
    assert_eq!(combined.l2.misses, direct.misses);
    assert_eq!(combined.l2.spatial_hits, direct.spatial_hits);
}

#[test]
fn hotspot_mrc_has_sharp_knee() {
    // 1% of items get 90% of accesses: the MRC must fall steeply once the
    // hot set fits.
    let trace = hotspot(100_000, 0.01, 0.9, 60_000, 23);
    let curve = item_mrc(&trace, 4096);
    let hot_size = 1000;
    assert!(
        curve.miss_ratio(hot_size) < 0.35,
        "knee missing: {}",
        curve.miss_ratio(hot_size)
    );
    assert!(curve.miss_ratio(16) > 0.5);
}

#[test]
fn adaptive_iblp_stays_close_to_best_static_on_mixed_load() {
    let (trace, map) = mixed(44, 60_000);
    let capacity = 512;
    let mut adaptive = AdaptiveIblp::new(capacity, map.clone());
    let m_adaptive = simulate(&mut adaptive, &trace).misses;
    // Best static split from a coarse scan.
    let b = map.max_block_size();
    let mut best_static = u64::MAX;
    let mut i = b;
    while i < capacity {
        let mut p = Iblp::new(i, capacity - i, map.clone());
        best_static = best_static.min(simulate(&mut p, &trace).misses);
        i += capacity / 8;
    }
    assert!(
        (m_adaptive as f64) <= 1.3 * best_static as f64,
        "adaptive {m_adaptive} vs best static {best_static}"
    );
    // And it must never fall below the offline comparator.
    let offline = gc_belady_heuristic(&trace, &map, capacity);
    assert!(m_adaptive >= offline);
}
