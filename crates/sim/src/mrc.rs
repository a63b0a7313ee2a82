//! Miss-ratio curves (MRC) via Mattson's stack algorithm.
//!
//! LRU has the *inclusion property*: the content of an LRU cache of size
//! `k` is a prefix of the content of any larger LRU cache. Mattson et al.
//! (1970) exploit this to compute, in a single pass, the LRU miss count for
//! **every** cache size at once: each access's *reuse (stack) distance* is
//! the number of distinct ids touched since its last access; the access
//! hits in exactly the caches of size greater than that distance.
//!
//! This module computes
//!
//! * item-granular MRCs (classic),
//! * block-granular MRCs (the same algorithm over block ids — the behavior
//!   of a Block Cache with `k/B` slots), and
//! * the IBLP *layer grid*: an exhaustive profile of balanced-vs-skewed
//!   splits obtained from the two curves, used by the `mrc` CLI command
//!   and the `mrc_explorer` example to pick layer sizes offline.
//!
//! Stack distances are computed with a Fenwick (binary indexed) tree over
//! access positions — `O(T log T)` total, the standard technique.

use crate::pool;
use crate::shards::{sampled_block_mrc, sampled_item_mrc, SampleStats, SamplerConfig};
use gc_types::{BlockMap, CompiledTrace, FxHashMap, GcError, ItemId, Trace};

/// A miss-ratio curve: `misses[k]` is the number of LRU misses at cache
/// size `k` (index 0 holds the trace length: every access misses in a
/// size-0 cache).
#[derive(Clone, Debug)]
pub struct MissRatioCurve {
    /// Total accesses (denominator of every ratio).
    pub accesses: u64,
    /// `misses[k]` for `k = 0..=max_size`.
    pub misses: Vec<u64>,
}

impl MissRatioCurve {
    /// Miss ratio at size `k` (clamped to the computed range).
    pub fn miss_ratio(&self, k: usize) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let k = k.min(self.misses.len() - 1);
        self.misses[k] as f64 / self.accesses as f64
    }

    /// Largest computed size.
    pub fn max_size(&self) -> usize {
        self.misses.len() - 1
    }

    /// The smallest cache size achieving a miss ratio ≤ `target`, if any.
    ///
    /// Binary search: LRU curves are monotone non-increasing in size (the
    /// inclusion property), so the sizes with ratio above `target` form a
    /// prefix and `partition_point` finds its end in `O(log n)` — the
    /// curves this is called on can span millions of sizes.
    pub fn size_for_ratio(&self, target: f64) -> Option<usize> {
        if target.is_nan() {
            // `partition_point` would see every `ratio > NaN` comparison
            // as false and report size 0; no size meets a NaN target.
            return None;
        }
        debug_assert!(
            self.misses.windows(2).all(|w| w[1] <= w[0]),
            "miss curve must be monotone non-increasing for binary search"
        );
        let idx = self.misses.partition_point(|&m| self.ratio_of(m) > target);
        (idx < self.misses.len()).then_some(idx)
    }

    #[inline]
    fn ratio_of(&self, misses: u64) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            misses as f64 / self.accesses as f64
        }
    }
}

/// Fenwick tree for prefix sums over access positions.
///
/// Counters are `u32` to halve the memory footprint over the obvious
/// `u64` — each internal node counts marked positions in its subrange, so
/// values are bounded by the trace length, which [`Fenwick::new`] caps at
/// `u32::MAX`. Shared with the sampled estimator in
/// [`shards`](crate::shards).
pub(crate) struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over positions `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n ≥ u32::MAX`: node counts are `u32`, so longer traces
    /// would silently wrap. (A 4 Gi-request trace should be windowed or
    /// sampled before it reaches a Mattson pass anyway.)
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            (n as u128) < u32::MAX as u128,
            "trace length {n} exceeds the u32 Fenwick counter range"
        );
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    pub(crate) fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            // Compute in i64 so the intermediate never wraps even if a
            // counter is near u32::MAX; debug builds verify the result
            // round-trips (no underflow below 0, no overflow past u32).
            let updated = self.tree[i] as i64 + delta as i64;
            debug_assert!(
                (0..=u32::MAX as i64).contains(&updated),
                "Fenwick node {i} out of u32 range: {updated}"
            );
            self.tree[i] = updated as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    pub(crate) fn prefix(&self, mut i: usize) -> u32 {
        i += 1;
        let mut total = 0;
        while i > 0 {
            total += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        total
    }
}

fn mrc_over_ids(ids: impl Iterator<Item = u64>, len: usize, max_size: usize) -> MissRatioCurve {
    // distance_histogram[d] = accesses with stack distance exactly d
    // (d = number of distinct ids since last access); cold misses go to
    // the "infinite" bucket.
    let mut hist = vec![0u64; max_size + 1];
    let mut infinite = 0u64;
    let mut fenwick = Fenwick::new(len);
    let mut last_pos: FxHashMap<u64, usize> = FxHashMap::default();

    for (pos, id) in ids.enumerate() {
        match last_pos.insert(id, pos) {
            None => {
                infinite += 1;
            }
            Some(prev) => {
                // Distinct ids touched strictly between prev and pos:
                // marked positions in (prev, pos).
                let between = fenwick.prefix(pos) - fenwick.prefix(prev);
                let distance = between as usize;
                if distance < hist.len() {
                    hist[distance] += 1;
                } else {
                    infinite += 1; // misses at every size we report
                }
                fenwick.add(prev, -1);
            }
        }
        fenwick.add(pos, 1);
    }

    // misses[k] = cold + accesses with stack distance ≥ k.
    // An access with distance d hits iff cache size > d.
    let mut misses = vec![0u64; max_size + 1];
    let mut tail: u64 = infinite;
    for k in (0..=max_size).rev() {
        // distance ≥ k means buckets k..; accumulate from the top.
        tail += hist[k];
        misses[k] = tail;
        // note: misses[k] currently counts distance ≥ k, which is exactly
        // the misses of a size-k cache (hit needs distance ≤ k−1).
    }
    MissRatioCurve {
        accesses: len as u64,
        misses,
    }
}

/// [`mrc_over_ids`] specialized to a dense `0..n_ids` universe: the
/// last-position table becomes a flat `Vec` load instead of a hash probe.
/// The histogram depends only on access *positions*, never on id values or
/// table iteration order, so the curve is bit-identical to the sparse pass
/// over any relabeling of the same trace.
// lint: hot-path
fn mrc_over_dense_ids(
    ids: impl Iterator<Item = u32>,
    len: usize,
    n_ids: usize,
    max_size: usize,
) -> MissRatioCurve {
    const NONE: u32 = u32::MAX;
    let mut hist = vec![0u64; max_size + 1];
    let mut infinite = 0u64;
    let mut fenwick = Fenwick::new(len);
    // `Fenwick::new` guarantees len < u32::MAX, so every position fits
    // below the sentinel.
    let mut last_pos = vec![NONE; n_ids];

    for (pos, id) in ids.enumerate() {
        let slot = &mut last_pos[id as usize];
        let prev = *slot;
        *slot = pos as u32;
        if prev == NONE {
            infinite += 1;
        } else {
            let prev = prev as usize;
            let between = fenwick.prefix(pos) - fenwick.prefix(prev);
            let distance = between as usize;
            if distance < hist.len() {
                hist[distance] += 1;
            } else {
                infinite += 1;
            }
            fenwick.add(prev, -1);
        }
        fenwick.add(pos, 1);
    }

    let mut misses = vec![0u64; max_size + 1];
    let mut tail: u64 = infinite;
    for k in (0..=max_size).rev() {
        tail += hist[k];
        misses[k] = tail;
    }
    MissRatioCurve {
        accesses: len as u64,
        misses,
    }
}

/// Item-granular LRU miss counts for every cache size `0..=max_size`, in
/// one `O(T log T)` pass.
///
/// ```
/// use gc_sim::item_mrc;
/// use gc_types::Trace;
///
/// // A loop over 10 items: any LRU of size ≥ 10 only takes cold misses.
/// let trace = Trace::from_ids((0..1000u64).map(|i| i % 10));
/// let curve = item_mrc(&trace, 16);
/// assert_eq!(curve.misses[10], 10);
/// assert_eq!(curve.misses[9], 1000); // LRU thrashes below the loop size
/// ```
pub fn item_mrc(trace: &Trace, max_size: usize) -> MissRatioCurve {
    mrc_over_ids(trace.iter().map(|i| i.0), trace.len(), max_size)
}

/// [`item_mrc`] over a compiled trace: streams the dense item column and
/// replaces the last-position hash map with a flat `Vec` indexed by dense
/// id. Stack distances are invariant under the (bijective) dense rename,
/// so the curve is bit-identical to [`item_mrc`] on the source trace.
pub fn item_mrc_compiled(compiled: &CompiledTrace, max_size: usize) -> MissRatioCurve {
    mrc_over_dense_ids(
        compiled.accesses().iter().map(|a| a.item),
        compiled.len(),
        compiled.n_items() as usize,
        max_size,
    )
}

/// Block-granular LRU miss counts for every *block-slot* count
/// `0..=max_slots`: the behavior of a [`BlockLru`](gc_policies::BlockLru)
/// with that many whole-block slots (capacity `slots × B`).
///
/// [`BlockLru`](gc_policies::BlockLru): ../gc_policies/struct.BlockLru.html
pub fn block_mrc(trace: &Trace, map: &BlockMap, max_slots: usize) -> MissRatioCurve {
    mrc_over_ids(
        trace.iter().map(|i| map.block_of(i).0),
        trace.len(),
        max_slots,
    )
}

/// [`block_mrc`] over a compiled trace: derives each access's dense block
/// from the dense map (a shift for a strided map, one array load for a
/// CSR map — never a hash probe) and uses the dense `Vec` last-position
/// table. Bit-identical to [`block_mrc`] on the source trace and map.
pub fn block_mrc_compiled(compiled: &CompiledTrace, max_slots: usize) -> MissRatioCurve {
    let map = compiled.map();
    mrc_over_dense_ids(
        compiled
            .accesses()
            .iter()
            .map(|a| map.block_of(ItemId(u64::from(a.item))).0 as u32),
        compiled.len(),
        compiled.n_blocks() as usize,
        max_slots,
    )
}

/// One cell of the IBLP split grid.
#[derive(Clone, Debug)]
pub struct SplitCell {
    /// Item-layer size in lines.
    pub item_lines: usize,
    /// Block-layer size in lines.
    pub block_lines: usize,
    /// Estimated IBLP misses with this split: `min(item_misses(i),
    /// block_misses(b/B))`. An access misses only if both layers miss, so
    /// this is usually an over-estimate — but IBLP's block layer sees only
    /// the item layer's *misses*, and that filtering can reorder the block
    /// LRU relative to the stand-alone curve, so it is an estimate, not a
    /// strict bound (off-by-a-few is possible, in either direction).
    pub miss_estimate: u64,
}

/// Derive the split grid from already-computed curves (exact *or*
/// sampled): every split of `capacity` lines in steps of `b`, a fast
/// offline guide for choosing the partition without simulating each split
/// (the simulator then refines the shortlist). `O(capacity / b)` —
/// negligible next to the curve passes, so [`mrc_bundle`] parallelizes the
/// curves and derives the grid serially.
pub(crate) fn split_grid_from_curves(
    item_curve: &MissRatioCurve,
    block_curve: &MissRatioCurve,
    capacity: usize,
    b: usize,
) -> Vec<SplitCell> {
    let mut grid = Vec::new();
    let mut block_lines = b;
    while block_lines < capacity {
        let item_lines = capacity - block_lines;
        grid.push(SplitCell {
            item_lines,
            block_lines,
            miss_estimate: item_curve.misses[item_lines.min(item_curve.max_size())]
                .min(block_curve.misses[(block_lines / b).min(block_curve.max_size())]),
        });
        block_lines += b;
    }
    grid
}

/// How to compute the curves of an [`MrcBundle`].
#[derive(Clone, Debug, PartialEq)]
pub enum MrcMode {
    /// Full Mattson passes — bit-exact, `O(T log T)`.
    Exact,
    /// SHARDS sampled passes with the given configuration — near-linear,
    /// approximate. See [`shards`](crate::shards).
    Sampled(SamplerConfig),
}

/// The full MRC analysis for one trace at one capacity budget: both
/// granularities plus the derived IBLP split grid.
#[derive(Clone, Debug)]
pub struct MrcBundle {
    /// Item-granular curve over sizes `0..=capacity`.
    pub item: MissRatioCurve,
    /// Block-granular curve over slot counts `0..=capacity / B`.
    pub block: MissRatioCurve,
    /// Split grid derived from the two curves.
    pub grid: Vec<SplitCell>,
    /// What the sampler did for the item curve; `None` when the curve is
    /// exact.
    pub item_stats: Option<SampleStats>,
    /// What the sampler did for the block curve, as for `item_stats`.
    pub block_stats: Option<SampleStats>,
}

impl MrcBundle {
    /// The grid cell with the lowest estimated miss count, if any.
    pub fn best_split(&self) -> Option<&SplitCell> {
        self.grid.iter().min_by_key(|cell| cell.miss_estimate)
    }

    fn assemble(
        (item, item_stats): (MissRatioCurve, Option<SampleStats>),
        (block, block_stats): (MissRatioCurve, Option<SampleStats>),
        capacity: usize,
        b: usize,
    ) -> MrcBundle {
        let grid = split_grid_from_curves(&item, &block, capacity, b);
        MrcBundle {
            item,
            block,
            grid,
            item_stats,
            block_stats,
        }
    }
}

/// The block size `B` of `map`, once `capacity` is known to hold a split:
/// at least one item line next to one whole block.
fn split_block_size(capacity: usize, map: &BlockMap) -> Result<usize, GcError> {
    let b = map.max_block_size();
    if capacity <= b {
        return Err(GcError::CapacityTooSmall {
            capacity,
            required: b + 1,
        });
    }
    Ok(b)
}

/// A curve with the sampler's account of it (`None` when exact).
type Curve = (MissRatioCurve, Option<SampleStats>);

/// Compute item curve, block curve, and IBLP split grid for `capacity`
/// lines, running the two curve passes on up to `threads` workers of the
/// shared [`pool`](crate::pool) (`0` = one per core). In `Exact` mode the
/// curves are bit-identical to [`item_mrc`] / [`block_mrc`].
///
/// # Errors
///
/// [`GcError::CapacityTooSmall`] unless `capacity > B` (a split needs room
/// for both layers).
pub fn mrc_bundle(
    trace: &Trace,
    map: &BlockMap,
    capacity: usize,
    mode: &MrcMode,
    threads: usize,
) -> Result<MrcBundle, GcError> {
    let b = split_block_size(capacity, map)?;
    let sampled = |(curve, stats): (MissRatioCurve, SampleStats)| (curve, Some(stats));
    let curves = pool::run_indexed(2, threads, |i| match (i, mode) {
        (0, MrcMode::Exact) => (item_mrc(trace, capacity), None),
        (_, MrcMode::Exact) => (block_mrc(trace, map, capacity / b), None),
        (0, MrcMode::Sampled(s)) => sampled(sampled_item_mrc(trace, capacity, s)),
        (_, MrcMode::Sampled(s)) => sampled(sampled_block_mrc(trace, map, capacity / b, s)),
    });
    let [item, block]: [Curve; 2] = curves.try_into().expect("two curve jobs");
    Ok(MrcBundle::assemble(item, block, capacity, b))
}

/// The exact [`mrc_bundle`] over a compiled trace: both curve jobs stream
/// the flat access array, and curves and grid are bit-identical to
/// [`mrc_bundle`] on the source trace (exact passes are rename-invariant).
/// There is no sampled twin: under sampling the hash filter dominates and
/// compiling first only adds time and memory.
///
/// # Errors
///
/// [`GcError::CapacityTooSmall`] unless `capacity > B`, as in
/// [`mrc_bundle`].
pub fn mrc_bundle_compiled(
    compiled: &CompiledTrace,
    capacity: usize,
    threads: usize,
) -> Result<MrcBundle, GcError> {
    let b = split_block_size(capacity, compiled.map())?;
    let curves = pool::run_indexed(2, threads, |i| match i {
        0 => (item_mrc_compiled(compiled, capacity), None),
        _ => (block_mrc_compiled(compiled, capacity / b), None),
    });
    let [item, block]: [Curve; 2] = curves.try_into().expect("two curve jobs");
    Ok(MrcBundle::assemble(item, block, capacity, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_policies::{BlockLru, ItemLru};

    fn simulate_lru_misses(trace: &Trace, k: usize) -> u64 {
        let mut lru = ItemLru::new(k);
        crate::engine::simulate(&mut lru, trace).misses
    }

    #[test]
    fn matches_direct_simulation_across_sizes() {
        let mut x = 9u64;
        let ids: Vec<u64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 300
            })
            .collect();
        let trace = Trace::from_ids(ids);
        let curve = item_mrc(&trace, 256);
        for k in [1usize, 2, 7, 32, 100, 256] {
            assert_eq!(
                curve.misses[k],
                simulate_lru_misses(&trace, k),
                "size {k} diverges"
            );
        }
    }

    #[test]
    fn block_curve_matches_block_lru() {
        let mut x = 3u64;
        let ids: Vec<u64> = (0..4000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x % 256
            })
            .collect();
        let trace = Trace::from_ids(ids);
        let map = BlockMap::strided(8);
        let curve = block_mrc(&trace, &map, 16);
        for slots in [1usize, 2, 4, 8, 16] {
            let mut cache = BlockLru::new(slots * 8, map.clone());
            let misses = crate::engine::simulate(&mut cache, &trace).misses;
            assert_eq!(curve.misses[slots], misses, "slots {slots}");
        }
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let trace = Trace::from_ids((0..2000u64).map(|i| i * 7919 % 500));
        let curve = item_mrc(&trace, 400);
        assert!(curve.misses.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn size_zero_misses_everything() {
        let trace = Trace::from_ids([1, 1, 1]);
        let curve = item_mrc(&trace, 4);
        assert_eq!(curve.misses[0], 3);
        assert_eq!(curve.misses[1], 1);
        assert!((curve.miss_ratio(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn size_for_ratio_finds_knee() {
        // Loop over 10 items: size 10 gets ratio → 10/1000, size 9 → 1.
        let trace = Trace::from_ids((0..1000u64).map(|i| i % 10));
        let curve = item_mrc(&trace, 16);
        assert_eq!(curve.size_for_ratio(0.05), Some(10));
        assert_eq!(curve.size_for_ratio(0.0), None);
    }

    #[test]
    fn empty_trace() {
        let curve = item_mrc(&Trace::new(), 8);
        assert_eq!(curve.accesses, 0);
        assert_eq!(curve.miss_ratio(4), 0.0);
    }

    #[test]
    fn split_grid_estimates_track_real_iblp() {
        use gc_policies::Iblp;
        let mut x = 31u64;
        let ids: Vec<u64> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                // Mix: hot sparse items + streams.
                if x % 3 == 0 {
                    (x % 64) * 8
                } else {
                    4096 + x % 2048
                }
            })
            .collect();
        let trace = Trace::from_ids(ids);
        let map = BlockMap::strided(8);
        let capacity = 256;
        let bundle = mrc_bundle(&trace, &map, capacity, &MrcMode::Exact, 1).unwrap();
        for cell in bundle.grid {
            let mut iblp = Iblp::new(cell.item_lines, cell.block_lines, map.clone());
            let actual = crate::engine::simulate(&mut iblp, &trace).misses;
            // The estimate must be close from above: IBLP can only beat a
            // single layer meaningfully, and filtering effects are tiny.
            assert!(
                actual as f64 <= cell.miss_estimate as f64 * 1.05 + 8.0,
                "split ({}, {}): actual {actual} far above estimate {}",
                cell.item_lines,
                cell.block_lines,
                cell.miss_estimate
            );
        }
    }

    #[test]
    fn size_for_ratio_nan_and_degenerate_targets() {
        let trace = Trace::from_ids((0..1000u64).map(|i| i % 10));
        let curve = item_mrc(&trace, 16);
        assert_eq!(curve.size_for_ratio(f64::NAN), None);
        assert_eq!(curve.size_for_ratio(1.0), Some(0));
        assert_eq!(curve.size_for_ratio(-0.5), None);
        // Zero accesses: every size trivially meets any non-negative target.
        let empty = item_mrc(&Trace::new(), 8);
        assert_eq!(empty.size_for_ratio(0.0), Some(0));
    }

    #[test]
    fn size_for_ratio_binary_search_matches_linear_scan() {
        let mut x = 5u64;
        let ids: Vec<u64> = (0..8000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x % 700
            })
            .collect();
        let curve = item_mrc(&Trace::from_ids(ids), 700);
        for target in [0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let linear = (0..curve.misses.len()).find(|&k| curve.miss_ratio(k) <= target);
            assert_eq!(curve.size_for_ratio(target), linear, "target {target}");
        }
    }

    #[test]
    fn exact_bundle_is_bit_identical_to_standalone_passes() {
        let mut x = 11u64;
        let ids: Vec<u64> = (0..30_000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                x % 4096
            })
            .collect();
        let trace = Trace::from_ids(ids);
        let map = BlockMap::strided(16);
        let capacity = 512;

        let bundle = mrc_bundle(&trace, &map, capacity, &MrcMode::Exact, 2).unwrap();
        let item = item_mrc(&trace, capacity);
        let block = block_mrc(&trace, &map, capacity / 16);
        let grid = split_grid_from_curves(&item, &block, capacity, 16);

        assert_eq!(bundle.item.misses, item.misses);
        assert_eq!(bundle.block.misses, block.misses);
        assert_eq!(bundle.grid.len(), grid.len());
        for (a, b) in bundle.grid.iter().zip(&grid) {
            assert_eq!(a.item_lines, b.item_lines);
            assert_eq!(a.block_lines, b.block_lines);
            assert_eq!(a.miss_estimate, b.miss_estimate);
        }
        let best = bundle.best_split().expect("non-empty grid");
        assert_eq!(
            best.miss_estimate,
            grid.iter().map(|c| c.miss_estimate).min().unwrap()
        );
    }

    #[test]
    fn bundle_parallel_matches_serial_in_both_modes() {
        let trace = Trace::from_ids((0..20_000u64).map(|i| (i * 2654435761) % 2000));
        let map = BlockMap::strided(8);
        for mode in [
            MrcMode::Exact,
            MrcMode::Sampled(SamplerConfig::fixed(0.2).with_seed(9)),
        ] {
            let serial = mrc_bundle(&trace, &map, 256, &mode, 1).unwrap();
            let parallel = mrc_bundle(&trace, &map, 256, &mode, 4).unwrap();
            assert_eq!(serial.item.misses, parallel.item.misses, "{mode:?}");
            assert_eq!(serial.block.misses, parallel.block.misses, "{mode:?}");
            let sampled = mode != MrcMode::Exact;
            assert_eq!(parallel.item_stats.is_some(), sampled, "{mode:?}");
            assert_eq!(parallel.block_stats.is_some(), sampled, "{mode:?}");
        }
    }

    #[test]
    fn compiled_curves_are_bit_identical_to_sparse() {
        let mut x = 77u64;
        let ids: Vec<u64> = (0..25_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Sparse, scattered key space so the dense rename actually
                // relabels.
                (x % 3000) * 10_007
            })
            .collect();
        let trace = Trace::from_ids(ids);
        let map = BlockMap::strided(8);
        let compiled = CompiledTrace::compile(&trace, &map).unwrap();

        let item = item_mrc(&trace, 512);
        let item_c = item_mrc_compiled(&compiled, 512);
        assert_eq!(item.accesses, item_c.accesses);
        assert_eq!(item.misses, item_c.misses);

        let block = block_mrc(&trace, &map, 64);
        let block_c = block_mrc_compiled(&compiled, 64);
        assert_eq!(block.misses, block_c.misses);

        let sparse = mrc_bundle(&trace, &map, 256, &MrcMode::Exact, 2).unwrap();
        let dense = mrc_bundle_compiled(&compiled, 256, 2).unwrap();
        assert_eq!(sparse.item.misses, dense.item.misses);
        assert_eq!(sparse.block.misses, dense.block.misses);
        assert_eq!(sparse.grid.len(), dense.grid.len());
        for (a, b) in sparse.grid.iter().zip(&dense.grid) {
            assert_eq!(a.miss_estimate, b.miss_estimate);
        }
    }

    #[test]
    fn sampled_bundle_reports_each_fresh_curves_sampler_stats() {
        let trace = Trace::from_ids((0..20_000u64).map(|i| (i * 2654435761) % 2000));
        let map = BlockMap::strided(8);
        let sampler = SamplerConfig::fixed(0.2).with_seed(3);
        let mode = MrcMode::Sampled(sampler.clone());
        let bundle = mrc_bundle(&trace, &map, 256, &mode, 1).unwrap();
        let (_, item) = sampled_item_mrc(&trace, 256, &sampler);
        let (_, block) = sampled_block_mrc(&trace, &map, 256 / 8, &sampler);
        let got = bundle.item_stats.expect("fresh item curve");
        assert_eq!(got.sampled_accesses, item.sampled_accesses);
        assert_eq!(got.distinct_sampled, item.distinct_sampled);
        let got = bundle.block_stats.expect("fresh block curve");
        assert_eq!(got.sampled_accesses, block.sampled_accesses);
        assert_eq!(got.distinct_sampled, block.distinct_sampled);
    }

    #[test]
    fn undersized_capacity_is_an_error_not_a_panic() {
        let trace = Trace::from_ids((0..100u64).map(|i| i % 40));
        let map = BlockMap::strided(16);
        let compiled = CompiledTrace::compile(&trace, &map).unwrap();
        for capacity in [0, 1, 16] {
            let sparse = mrc_bundle(&trace, &map, capacity, &MrcMode::Exact, 1);
            let dense = mrc_bundle_compiled(&compiled, capacity, 1);
            for err in [sparse.unwrap_err(), dense.unwrap_err()] {
                assert_eq!(
                    err,
                    GcError::CapacityTooSmall {
                        capacity,
                        required: 17
                    }
                );
            }
        }
        assert_eq!(
            mrc_bundle(&trace, &map, 17, &MrcMode::Exact, 1)
                .unwrap()
                .grid
                .len(),
            1
        );
    }

    #[test]
    fn long_distance_beyond_max_counts_as_miss() {
        // Reuse distance 5 with max_size 3: must count as a miss at k ≤ 3.
        let trace = Trace::from_ids([1, 2, 3, 4, 5, 6, 1]);
        let curve = item_mrc(&trace, 3);
        assert_eq!(curve.misses[3], 7, "all cold + the far reuse");
    }
}
