//! Low-rate SHARDS accuracy at the scale it is meant for, and the MRC
//! bundle's exactness on the same input.
//!
//! The unit tests in `shards.rs` run on traces of a few thousand ids,
//! where a 1 % sample holds a few dozen: they show convergence, not
//! low-rate accuracy. This input is large enough that a 1 % spatial
//! sample still holds about 1.3 K blocks and 15 K items — the support the
//! estimator needs at both granularities. (How fast the sampled pass is
//! belongs to `gcbench`: `sim.mrc_exact_ns_per_access` against
//! `sim.mrc_sampled_ns_per_access`.) About 35 s in a debug build, 7 s in
//! release.

use gc_sim::mrc::{
    block_mrc, item_mrc, mrc_bundle, MissRatioCurve, MrcBundle, MrcMode, MrcRunConfig, SplitCell,
};
use gc_sim::shards::SamplerConfig;
use gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_types::{BlockMap, Trace};

const CAPACITY: usize = 16_384;
const BLOCK_SIZE: usize = 16;
const RATE: f64 = 0.01;

/// Sup-norm distance between two curves over sizes `from..=max`.
fn sup_error(exact: &MissRatioCurve, approx: &MissRatioCurve, from: usize) -> f64 {
    assert_eq!(exact.max_size(), approx.max_size());
    (from..=exact.max_size())
        .map(|k| (exact.miss_ratio(k) - approx.miss_ratio(k)).abs())
        .fold(0.0, f64::max)
}

fn median_of_three(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("errors are not NaN"));
    xs[1]
}

fn bundle(trace: &Trace, map: &BlockMap, mode: &MrcMode, threads: usize) -> MrcBundle {
    let cfg = MrcRunConfig {
        threads,
        ..MrcRunConfig::default()
    };
    mrc_bundle(trace, map, CAPACITY, mode, &cfg).expect("capacity > B")
}

fn assert_same_curves(a: &MrcBundle, b: &MrcBundle, what: &str) {
    assert_eq!(a.item.misses, b.item.misses, "{what}: item curve");
    assert_eq!(a.block.misses, b.block.misses, "{what}: block curve");
}

#[test]
fn one_percent_sample_is_accurate_and_the_bundle_is_exact_at_scale() {
    // θ = 0.6 is the moderate skew of storage traces, where no single id
    // carries percent-level access mass; at θ = 0.9 whether each of the
    // hottest blocks lands in a 1 % sample is a coin flip worth several
    // percent of miss ratio, for any spatially hashed sampler.
    let cfg = BlockRunConfig {
        num_blocks: 131_072,
        block_size: BLOCK_SIZE,
        block_theta: 0.6,
        spatial_locality: 0.6,
        len: 5_000_000,
        seed: 5,
    };
    let trace = block_runs(&cfg);
    let map = block_runs_map(&cfg);

    // (iii) The bundle is an accelerator, not a new estimator: exact mode
    // equals the standalone passes, and the pool does not change it.
    let exact = bundle(&trace, &map, &MrcMode::Exact, 1);
    let pooled = bundle(&trace, &map, &MrcMode::Exact, 0);
    assert_same_curves(&exact, &pooled, "serial vs pool-parallel");
    assert_eq!(exact.item.misses, item_mrc(&trace, CAPACITY).misses);
    assert_eq!(
        exact.block.misses,
        block_mrc(&trace, &map, CAPACITY / BLOCK_SIZE).misses
    );
    // Every split of the budget in steps of B, each estimated from the
    // two curves.
    let grid: Vec<(usize, usize, u64)> = (1..CAPACITY / BLOCK_SIZE)
        .map(|slots| {
            let (i, b) = (CAPACITY - slots * BLOCK_SIZE, slots * BLOCK_SIZE);
            (i, b, exact.item.misses[i].min(exact.block.misses[slots]))
        })
        .collect();
    let cells = |g: &[SplitCell]| -> Vec<(usize, usize, u64)> {
        g.iter()
            .map(|c| (c.item_lines, c.block_lines, c.miss_estimate))
            .collect()
    };
    assert_eq!(cells(&exact.grid), grid);
    assert_eq!(cells(&exact.grid), cells(&pooled.grid));

    // Reuse distances are measured in the sampled id space and rescaled
    // by 1/R, so sizes below ⌈1/R⌉ are structurally unresolvable.
    let floor = (1.0 / RATE).ceil() as usize;
    let mut item_errors = [0.0; 3];
    let mut block_errors = [0.0; 3];
    for (i, seed) in [1u64, 2, 3].into_iter().enumerate() {
        let mode = MrcMode::Sampled(SamplerConfig::fixed(RATE).with_seed(seed));
        let sampled = bundle(&trace, &map, &mode, 0);
        // (ii) Same seed, same curve, bit for bit.
        let again = bundle(&trace, &map, &mode, 0);
        assert_same_curves(&sampled, &again, "same hash seed");
        item_errors[i] = sup_error(&exact.item, &sampled.item, floor);
        block_errors[i] = sup_error(&exact.block, &sampled.block, floor);
    }
    // (i) One spatial sample is one draw of the id population; the median
    // over independent hash seeds is the estimator's accuracy.
    let (item, block) = (median_of_three(item_errors), median_of_three(block_errors));
    assert!(
        item <= 0.02 && block <= 0.02,
        "median sup-error over k >= {floor} at rate {RATE}: item {item:.4} \
         (seeds {item_errors:?}), block {block:.4} (seeds {block_errors:?})"
    );
}
