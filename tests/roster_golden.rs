//! Golden oracle for the `sim-roster` policies.
//!
//! The compiled ≡ sparse suites prove that the two key representations
//! agree with each other, but an edit to a policy's order structure changes
//! both sides at once. This file pins every [`SimStats`] field of thirteen
//! policies (the ten of the `sim-roster` benchmark, LRU-K at `k = 1` and
//! `k = 3`, and item-granular marking) on two seeded `gc-trace` traces,
//! through both [`simulate`] and [`simulate_compiled`]. The pinned values
//! were recorded from the implementation that predates the O(1) order
//! structures of 2Q, LRU-K and LFU, so a rewrite that changes any eviction
//! decision fails here even when its sparse and compiled paths agree.
//!
//! Every policy must also report every eviction: on both traces, items
//! loaded minus items reported evicted stays within the capacity.
//!
//! The same traces pin the three [`IblpConfig`] ablations, and a
//! phase-changing trace pins where a seeded [`AdaptiveIblp`] moves its
//! split. Those values, and the `item-marking` rows, were recorded before
//! the IBLP variants and the marking caches were merged into one
//! implementation each.

use gc_cache::gc_trace::synthetic::{block_runs, uniform, BlockRunConfig};
use gc_cache::prelude::*;

const CAPACITY: usize = 512;
const BLOCK: usize = 16;
const LEN: usize = 20_000;

/// Policy specs: the `sim-roster` ten, then LRU-K at the other depths,
/// then classic marking.
const SPECS: [&str; 13] = [
    "item-lru",
    "item-lfu",
    "block-lru",
    "iblp",
    "adaptive-iblp",
    "gcm",
    "loadk:a=1",
    "2q",
    "lru-k",
    "tinylfu",
    "lru-k:k=1",
    "lru-k:k=3",
    "item-marking",
];

/// `(accesses, misses, temporal_hits, spatial_hits, items_loaded,
/// items_evicted, peak_len)`.
type Golden = (u64, u64, u64, u64, u64, u64, usize);

/// Block locality: Zipf-popular blocks walked in geometric runs.
fn runs_trace() -> Trace {
    block_runs(&BlockRunConfig {
        num_blocks: 1024,
        block_size: BLOCK,
        block_theta: 0.9,
        spatial_locality: 0.6,
        len: LEN,
        seed: 0x601D,
    })
}

/// No locality: uniform over a universe 16× the cache.
fn uniform_trace() -> Trace {
    uniform(16 * CAPACITY as u64, LEN, 0x601E)
}

fn flatten(s: &SimStats) -> Golden {
    (
        s.accesses,
        s.misses,
        s.temporal_hits,
        s.spatial_hits,
        s.items_loaded,
        s.items_evicted,
        s.peak_len,
    )
}

/// Both engines' stats for every spec on `trace`, in `SPECS` order.
fn run(trace: &Trace) -> Vec<(Golden, Golden)> {
    let map = BlockMap::strided(BLOCK);
    let compiled = CompiledTrace::compile(trace, &map).expect("generated items are in the map");
    SPECS
        .iter()
        .map(|spec| {
            let kind = PolicyKind::parse(spec).expect("roster spec parses");
            let sparse = simulate(kind.build(CAPACITY, &map).as_mut(), trace);
            let dense = simulate_compiled(kind.build(CAPACITY, compiled.map()).as_mut(), &compiled);
            (flatten(&sparse), flatten(&dense))
        })
        .collect()
}

fn check(name: &str, trace: &Trace, golden: &[Golden; 13]) {
    for ((spec, (sparse, dense)), want) in SPECS.iter().zip(run(trace)).zip(golden) {
        assert_eq!(sparse, *want, "{spec} on {name}: simulate moved");
        assert_eq!(dense, *want, "{spec} on {name}: simulate_compiled moved");
        // Every eviction is reported: what was loaded and never reported
        // evicted is still resident, and no more than the cache holds.
        let (loaded, evicted) = (sparse.4, sparse.5);
        assert!(
            loaded - evicted <= CAPACITY as u64,
            "{spec} on {name}: {loaded} items loaded, {evicted} reported evicted, \
             more than {CAPACITY} left resident"
        );
    }
}

#[test]
fn block_runs_trace_is_pinned() {
    check(
        "runs",
        &runs_trace(),
        &[
            (20000, 14371, 5629, 0, 14371, 13859, 512),    // item-lru
            (20000, 12676, 7324, 0, 12676, 12164, 512),    // item-lfu
            (20000, 5753, 2804, 11443, 92048, 91536, 512), // block-lru
            (20000, 6248, 3843, 9909, 92106, 91623, 512),  // iblp
            (20000, 6168, 3197, 10635, 93909, 93431, 512), // adaptive-iblp
            (20000, 6533, 4202, 9265, 88355, 87843, 512),  // gcm
            (20000, 6078, 1922, 12000, 95674, 95162, 512), // loadk:a=1
            (20000, 12873, 7127, 0, 12873, 12361, 512),    // 2q
            (20000, 12248, 7752, 0, 12248, 11736, 512),    // lru-k
            (20000, 12806, 7194, 0, 12806, 12294, 512),    // tinylfu
            (20000, 14371, 5629, 0, 14371, 13859, 512),    // lru-k:k=1
            (20000, 12596, 7404, 0, 12596, 12084, 512),    // lru-k:k=3
            (20000, 14577, 5423, 0, 14577, 14065, 512),    // item-marking
        ],
    );
}

#[test]
fn uniform_trace_is_pinned() {
    check(
        "uniform",
        &uniform_trace(),
        &[
            (20000, 18806, 1194, 0, 18806, 18294, 512),    // item-lru
            (20000, 18804, 1196, 0, 18804, 18292, 512),    // item-lfu
            (20000, 18696, 88, 1216, 299136, 298624, 512), // block-lru
            (20000, 18822, 584, 594, 292840, 292351, 512), // iblp
            (20000, 18832, 424, 744, 295576, 295092, 512), // adaptive-iblp
            (20000, 18751, 672, 577, 282958, 282446, 512), // gcm
            (20000, 18695, 84, 1221, 299066, 298554, 512), // loadk:a=1
            (20000, 18979, 1021, 0, 18979, 18467, 512),    // 2q
            (20000, 18799, 1201, 0, 18799, 18287, 512),    // lru-k
            (20000, 18836, 1164, 0, 18836, 18324, 512),    // tinylfu
            (20000, 18806, 1194, 0, 18806, 18294, 512),    // lru-k:k=1
            (20000, 18801, 1199, 0, 18801, 18289, 512),    // lru-k:k=3
            (20000, 18819, 1181, 0, 18819, 18307, 512),    // item-marking
        ],
    );
}

/// The §5.1 ablations at the balanced split of [`CAPACITY`], in
/// `paper, block_touching, no_promotion` order.
const CONFIGS: [fn() -> IblpConfig; 3] = [
    IblpConfig::paper,
    IblpConfig::block_touching,
    IblpConfig::no_promotion,
];

fn check_configs(name: &str, trace: &Trace, golden: &[Golden; 3]) {
    let map = BlockMap::strided(BLOCK);
    let compiled = CompiledTrace::compile(trace, &map).expect("generated items are in the map");
    let half = CAPACITY / 2;
    for (config, want) in CONFIGS.iter().zip(golden) {
        let config = config();
        let mut sparse = Iblp::with_config(half, half, map.clone(), config);
        let mut dense = Iblp::with_config(half, half, compiled.map().clone(), config);
        let sparse = flatten(&simulate(&mut sparse, trace));
        let dense = flatten(&simulate_compiled(&mut dense, &compiled));
        assert_eq!(sparse, *want, "{config:?} on {name}: simulate moved");
        assert_eq!(
            dense, *want,
            "{config:?} on {name}: simulate_compiled moved"
        );
    }
}

#[test]
fn iblp_ablations_are_pinned() {
    check_configs(
        "runs",
        &runs_trace(),
        &[
            (20000, 6248, 3843, 9909, 92106, 91623, 512), // paper
            (20000, 6200, 3899, 9901, 91966, 91486, 512), // block_touching
            (20000, 6149, 4387, 9464, 90013, 89544, 512), // no_promotion
        ],
    );
    check_configs(
        "uniform",
        &uniform_trace(),
        &[
            (20000, 18822, 584, 594, 292840, 292351, 512), // paper
            (20000, 18822, 584, 594, 292840, 292351, 512), // block_touching
            (20000, 18821, 586, 593, 292738, 292249, 512), // no_promotion
        ],
    );
}

/// A seeded adaptive IBLP on a trace that changes phase: a block-friendly
/// loop over whole blocks, then a sparse loop of one item per block, then
/// the runs trace. Its item-layer size is read every 4 096 accesses.
#[test]
fn adaptive_split_trajectory_is_pinned() {
    let map = BlockMap::strided(BLOCK);
    let mut ids: Vec<u64> = Vec::new();
    for round in 0..1_000u64 {
        let block = round % 48;
        ids.extend((0..BLOCK as u64).map(|off| block * BLOCK as u64 + off));
    }
    ids.extend((0..16_000u64).map(|n| (n % 600) * BLOCK as u64));
    ids.extend(runs_trace().iter().map(|item| item.0));
    let mut policy = AdaptiveIblp::with_split(CAPACITY, 3 * CAPACITY / 4, map);
    let mut splits = Vec::new();
    for (n, &id) in ids.iter().enumerate() {
        policy.access(ItemId(id));
        if (n + 1) % 4096 == 0 {
            splits.push(policy.item_layer_size());
        }
    }
    assert_eq!(
        splits,
        [384, 384, 384, 384, 400, 432, 464, 464, 432, 400, 368, 336]
    );
}
