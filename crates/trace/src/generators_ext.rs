//! Additional workload generators: memory-system access patterns that
//! stress specific aspects of granularity-change caching.

use gc_types::rng::StdRng;
use gc_types::{FxHashMap, ItemId, Trace};

/// Strided accesses — the address pattern of a column-major walk over a
/// row-major matrix. With `stride` a multiple of the block size, every
/// access touches a new block (worst-case spatial locality for co-loading
/// caches, despite the perfectly regular pattern).
pub fn strided(num_items: u64, stride: u64, len: usize) -> Trace {
    assert!(num_items > 0 && stride > 0);
    let mut t = Trace::new().named(format!("strided(n={num_items},s={stride})"));
    t.reserve(len);
    let mut pos = 0u64;
    for _ in 0..len {
        t.push(ItemId(pos));
        pos = (pos + stride) % num_items;
    }
    t
}

/// A bounded Gaussian-ish random walk: the next item is the current one
/// plus a small signed step (sum of two dice, centered). Produces smooth
/// spatial drift — high `g(n)`-locality without exact block alignment.
pub fn random_walk(num_items: u64, max_step: u64, len: usize, seed: u64) -> Trace {
    assert!(num_items > 0 && max_step > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Trace::new().named(format!("walk(n={num_items},±{max_step})"));
    t.reserve(len);
    let mut pos = (num_items / 2) as i64;
    let n = num_items as i64;
    for _ in 0..len {
        let step = rng.gen_range(-(max_step as i64)..=max_step as i64)
            + rng.gen_range(-(max_step as i64)..=max_step as i64);
        pos = (pos + step / 2).rem_euclid(n);
        t.push(ItemId(pos as u64));
    }
    t
}

/// Pointer chasing: a fixed random permutation is followed link by link.
/// Zero spatial locality (links land anywhere) and reuse distance equal to
/// the cycle length — the pattern that defeats both prefetchers and
/// co-loading caches.
pub fn pointer_chase(num_items: u64, len: usize, seed: u64) -> Trace {
    assert!(num_items > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Sattolo's algorithm: a uniform single-cycle permutation.
    let mut next: Vec<u64> = (0..num_items).collect();
    for i in (1..num_items as usize).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let mut t = Trace::new().named(format!("chase(n={num_items})"));
    t.reserve(len);
    let mut cur = 0u64;
    for _ in 0..len {
        t.push(ItemId(cur));
        cur = next[cur as usize];
    }
    t
}

/// A key-value store shape: a hot fraction of keys takes most accesses
/// (two-level uniform mixture — a cruder, faster stand-in for Zipf when
/// the exact tail shape doesn't matter).
pub fn hotspot(num_items: u64, hot_fraction: f64, hot_weight: f64, len: usize, seed: u64) -> Trace {
    assert!(num_items > 0);
    assert!((0.0..=1.0).contains(&hot_fraction) && (0.0..=1.0).contains(&hot_weight));
    let hot_items = ((num_items as f64 * hot_fraction) as u64).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Trace::new().named(format!(
        "hotspot(n={num_items},{:.0}%/{:.0}%)",
        hot_fraction * 100.0,
        hot_weight * 100.0
    ));
    t.reserve(len);
    for _ in 0..len {
        let id = if rng.gen_f64() < hot_weight {
            rng.gen_range(0..hot_items)
        } else {
            rng.gen_range(0..num_items)
        };
        t.push(ItemId(id));
    }
    t
}

/// Remap a trace's items so that items frequently accessed *together*
/// share blocks — a greedy chain-packing data-placement pass (the
/// item-to-block allocation literature the paper cites: Calder et al.,
/// Chilimbi et al.).
///
/// Greedy: compute each item's most frequent *successor*; then, seeding
/// from items in descending frequency, fill each block by following
/// successor links until the block is full or the chain reaches a placed
/// item. Returns the remapped trace (dense new ids) — pair it with
/// `BlockMap::strided(block_size)`.
pub fn affinity_remap(trace: &Trace, block_size: usize) -> Trace {
    assert!(block_size > 0);
    // Count frequencies and adjacency.
    let mut freq: FxHashMap<ItemId, u64> = FxHashMap::default();
    let mut adj: FxHashMap<(ItemId, ItemId), u64> = FxHashMap::default();
    let mut prev: Option<ItemId> = None;
    for item in trace.iter() {
        *freq.entry(item).or_insert(0) += 1;
        if let Some(p) = prev {
            if p != item {
                *adj.entry((p, item)).or_insert(0) += 1;
            }
        }
        prev = Some(item);
    }
    // For each item, its strongest successor.
    let mut best_succ: FxHashMap<ItemId, (ItemId, u64)> = FxHashMap::default();
    for (&(p, x), &count) in &adj {
        let entry = best_succ.entry(p).or_insert((x, count));
        // Deterministic tie-break on the smaller id (hash-map iteration
        // order must not leak into the placement).
        if count > entry.1 || (count == entry.1 && x.0 < entry.0 .0) {
            *entry = (x, count);
        }
    }
    // Chain-packing, seeded by descending frequency (ids break ties so the
    // result is deterministic).
    let mut seeds: Vec<ItemId> = freq.keys().copied().collect();
    seeds.sort_by_key(|i| (std::cmp::Reverse(freq[i]), i.0));
    let mut new_id: FxHashMap<ItemId, u64> = FxHashMap::default();
    let mut next = 0u64;
    let b = block_size as u64;
    for seed in seeds {
        if new_id.contains_key(&seed) {
            continue;
        }
        // Start a fresh block for the chain.
        if next % b != 0 {
            next = (next / b + 1) * b;
        }
        let mut cur = seed;
        loop {
            new_id.insert(cur, next);
            next += 1;
            if next % b == 0 {
                break; // block full
            }
            match best_succ.get(&cur) {
                Some(&(succ, _)) if !new_id.contains_key(&succ) => cur = succ,
                _ => break,
            }
        }
    }
    let mut out = Trace::new().named(format!("{}~affinity(B={block_size})", trace.name));
    out.reserve(trace.len());
    for item in trace.iter() {
        out.push(ItemId(new_id[&item]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::BlockMap;

    #[test]
    fn strided_hits_every_block_once_per_lap() {
        let t = strided(64, 8, 8);
        let ids: Vec<u64> = t.iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![0, 8, 16, 24, 32, 40, 48, 56]);
    }

    #[test]
    fn strided_wraps() {
        let t = strided(16, 8, 4);
        let ids: Vec<u64> = t.iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![0, 8, 0, 8]);
    }

    #[test]
    fn walk_stays_in_universe_and_moves_locally() {
        let t = random_walk(1000, 4, 5000, 3);
        assert!(t.iter().all(|i| i.0 < 1000));
        // Consecutive positions are near each other (modulo wraps).
        let close = t
            .requests()
            .windows(2)
            .filter(|w| {
                let d = w[0].0.abs_diff(w[1].0);
                d <= 4 || d >= 996
            })
            .count();
        assert!(close > 4_900, "walk jumped too much: {close}");
    }

    #[test]
    fn pointer_chase_is_a_single_cycle() {
        let t = pointer_chase(32, 64, 9);
        // The first 32 accesses must touch all 32 items exactly once
        // (single cycle), then repeat.
        let first: Vec<u64> = t.iter().take(32).map(|i| i.0).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        let second: Vec<u64> = t.iter().skip(32).take(32).map(|i| i.0).collect();
        assert_eq!(first, second, "cycle must repeat");
    }

    #[test]
    fn pointer_chase_has_no_spatial_locality() {
        let t = pointer_chase(4096, 20_000, 11);
        let map = BlockMap::strided(16);
        let same_block = t
            .requests()
            .windows(2)
            .filter(|w| map.same_block(w[0], w[1]))
            .count();
        // Random links land in the same 16-block ~ 16/4096 of the time.
        assert!(same_block < 400, "{same_block}");
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let t = hotspot(10_000, 0.01, 0.9, 50_000, 7);
        let hot = t.iter().filter(|i| i.0 < 100).count();
        assert!(hot > 40_000, "hot fraction got {hot}");
    }

    #[test]
    fn affinity_remap_improves_spatial_locality() {
        // A workload of fixed pairs accessed back-to-back but mapped to
        // far-apart ids: remapping should co-locate the pairs.
        let mut ids = Vec::new();
        let mut x = 7u64;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pair = x % 50;
            ids.push(pair);
            ids.push(1000 + pair); // always follows its partner
        }
        let t = Trace::from_ids(ids);
        let map = BlockMap::strided(4);
        let before = t
            .requests()
            .windows(2)
            .filter(|w| map.same_block(w[0], w[1]))
            .count();
        let remapped = affinity_remap(&t, 4);
        let after = remapped
            .requests()
            .windows(2)
            .filter(|w| map.same_block(w[0], w[1]))
            .count();
        assert!(after > before * 2, "before {before}, after {after}");
        // Same length, dense ids.
        assert_eq!(remapped.len(), t.len());
        assert_eq!(remapped.distinct_items(), t.distinct_items());
    }

    #[test]
    fn affinity_remap_ids_are_dense() {
        let t = Trace::from_ids([100, 5000, 100, 7, 5000]);
        let remapped = affinity_remap(&t, 2);
        let max = remapped.iter().map(|i| i.0).max().unwrap();
        assert!(max < 3 * 2, "ids must be dense, got max {max}");
    }
}
