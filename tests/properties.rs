//! Property-based tests (`testkit`) over the whole stack: policy
//! invariants, optimality floors, model consistency, and serialization
//! round-trips under randomized traces.

use gc_cache::gc_offline::{belady_misses, gc_belady_heuristic, optimal_gc_cost};
use gc_cache::gc_trace::{io, working_set};
use gc_cache::gc_types::FxHashSet;
use gc_cache::prelude::*;
use testkit::prelude::*;
use testkit::TestCaseError;

/// The pre-optimization engine, retained verbatim as a reference: drives
/// policies through the allocating [`GcPolicy::access`] wrapper and tracks
/// spatial candidates in a plain hash set. The zero-allocation engine
/// (`gc_sim::simulate`: `access_into` + scratch + `SpatialSet` bitmap) must
/// be bit-identical to this on every policy and trace.
fn reference_simulate(policy: &mut dyn GcPolicy, trace: &Trace) -> SimStats {
    let mut stats = SimStats::default();
    let mut spatial_candidates: FxHashSet<ItemId> = FxHashSet::default();
    for item in trace.iter() {
        match policy.access(item) {
            AccessResult::Hit => {
                stats.accesses += 1;
                if spatial_candidates.remove(&item) {
                    stats.spatial_hits += 1;
                } else {
                    stats.temporal_hits += 1;
                }
            }
            AccessResult::Miss { loaded, evicted } => {
                for &z in &loaded {
                    if z != item {
                        spatial_candidates.insert(z);
                    }
                }
                spatial_candidates.remove(&item);
                for &z in &evicted {
                    spatial_candidates.remove(&z);
                }
                stats.accesses += 1;
                stats.misses += 1;
                stats.items_loaded += loaded.len() as u64;
                stats.items_evicted += evicted.len() as u64;
            }
        }
        stats.peak_len = stats.peak_len.max(policy.len());
    }
    stats
}

fn small_trace() -> impl Strategy<Value = Trace> {
    // Small enough for the exact exponential solver to stay fast.
    prop::collection::vec(0u64..14, 1..40).prop_map(Trace::from_ids)
}

fn any_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(0u64..500, 1..400).prop_map(Trace::from_ids)
}

fn policy_kinds() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::ItemLru),
        Just(PolicyKind::ItemFifo),
        Just(PolicyKind::ItemClock),
        Just(PolicyKind::ItemLfu),
        Just(PolicyKind::ItemRandom { seed: 1 }),
        Just(PolicyKind::ItemMarking { seed: 1 }),
        Just(PolicyKind::BlockLru),
        Just(PolicyKind::BlockFifo),
        Just(PolicyKind::IblpBalanced),
        Just(PolicyKind::Gcm { seed: 1 }),
        Just(PolicyKind::ThresholdLoad { a: 1 }),
        Just(PolicyKind::ThresholdLoad { a: 3 }),
        Just(PolicyKind::TwoQ),
        Just(PolicyKind::Slru),
        Just(PolicyKind::LruK { k: 2 }),
        Just(PolicyKind::WTinyLfu),
        Just(PolicyKind::AdaptiveIblp),
        Just(PolicyKind::PartialGcm { seed: 1, coload: 2 }),
    ]
}

/// Every policy, on every trace: access/contains agree, the request is
/// resident afterwards, evictions really leave, and capacity holds.
fn check_policy_invariants(
    trace: &Trace,
    kind: &PolicyKind,
    block_size: usize,
) -> Result<(), TestCaseError> {
    let map = BlockMap::strided(block_size);
    let capacity = 16 * block_size.max(2);
    let mut policy = kind.build(capacity, &map);
    let name = policy.name();
    for item in trace.iter() {
        let pre = policy.contains(item);
        let result = policy.access(item);
        prop_assert_eq!(pre, result.is_hit(), "{name}: contains/access disagree");
        if let AccessResult::Miss { loaded, evicted } = &result {
            prop_assert!(loaded.contains(&item), "{name}: request not loaded");
            // Everything loaded must come from the request's block.
            for z in loaded {
                prop_assert!(map.same_block(*z, item), "{name}: foreign co-load");
            }
            for e in evicted {
                prop_assert!(!policy.contains(*e), "{name}: zombie eviction");
            }
        }
        prop_assert!(policy.contains(item), "{name}: request absent after access");
        prop_assert!(policy.len() <= policy.capacity(), "{name}: over capacity");
    }
    Ok(())
}

/// Differential check for the zero-allocation engine: on every policy
/// kind and random trace, `gc_sim::simulate` (scratch buffers + dense
/// candidate bitmap) reports exactly the statistics of the retained
/// allocating reference engine — misses, attribution, loads, evictions
/// and peak occupancy all bit-identical.
fn check_zero_alloc_engine_matches_reference(
    trace: &Trace,
    kind: &PolicyKind,
    block_size: usize,
) -> Result<(), TestCaseError> {
    let map = BlockMap::strided(block_size);
    let capacity = 16 * block_size.max(2);
    let mut fast = kind.build(capacity, &map);
    let mut slow = kind.build(capacity, &map);
    let s_fast = gc_cache::gc_sim::simulate(&mut fast, trace);
    let s_slow = reference_simulate(slow.as_mut(), trace);
    prop_assert_eq!(s_fast, s_slow, "engines diverge for {}", kind.label());
    Ok(())
}

/// Determinism: the same seeded policy on the same trace produces the same
/// statistics.
fn check_deterministic_replay(trace: &Trace, kind: &PolicyKind) -> Result<(), TestCaseError> {
    let map = BlockMap::strided(4);
    let mut p1 = kind.build(32, &map);
    let mut p2 = kind.build(32, &map);
    let s1 = gc_cache::gc_sim::simulate(&mut p1, trace);
    let s2 = gc_cache::gc_sim::simulate(&mut p2, trace);
    prop_assert_eq!(s1, s2);
    Ok(())
}

/// The three shrunken failures past runs of these properties found, kept
/// as fixed inputs. The first two were recorded against the
/// `(trace, kind, block_size)` properties, the third against
/// `deterministic_replay`.
#[test]
fn past_failures_stay_fixed() {
    let three_arg_cases = [
        (Trace::from_ids([0]), PolicyKind::ThresholdLoad { a: 3 }, 1),
        (
            Trace::from_ids(GCM_REGRESSION.iter().copied()),
            PolicyKind::Gcm { seed: 1 },
            5,
        ),
    ];
    for (trace, kind, block_size) in &three_arg_cases {
        check_policy_invariants(trace, kind, *block_size).unwrap();
        check_zero_alloc_engine_matches_reference(trace, kind, *block_size).unwrap();
    }
    check_deterministic_replay(
        &Trace::from_ids(PARTIAL_GCM_REGRESSION.iter().copied()),
        &PolicyKind::PartialGcm { seed: 1, coload: 2 },
    )
    .unwrap();
}

const GCM_REGRESSION: &[u64] = &[
    389, 462, 35, 45, 398, 77, 321, 111, 337, 457, 333, 95, 109, 467, 11, 488, 38, 454, 320, 464,
    378, 434, 107, 285, 325, 365, 455, 340, 147, 208, 21, 356, 450, 477, 174, 352, 384, 26, 12, 46,
    61, 41, 411, 97, 479, 1, 8, 61, 191, 131, 94, 201, 303, 86, 296, 167, 203, 60, 374, 198, 381,
    444, 298, 49, 357, 159, 458, 222, 149, 378, 354, 413, 497, 108, 423, 41, 218, 347, 209, 460,
    320, 433, 227, 221, 140, 100, 392, 483, 104, 73, 453, 497, 80, 280, 107, 348, 279, 25, 118,
    151, 76, 231, 328, 20, 20, 481, 174, 345, 456, 485, 149, 6, 129, 103, 348, 250, 359, 58, 321,
    316, 377, 416, 256, 302, 461, 101, 76, 95, 119, 27, 161, 350, 84, 260, 115, 348, 117, 35, 129,
    327, 152, 104, 456, 334, 120, 419, 258, 194, 216, 223, 441, 463, 229, 266, 108, 247, 101, 319,
    49, 381, 237, 74, 155, 247, 60, 402, 418, 192, 15, 271, 407, 132, 272, 246, 356, 477, 179, 466,
    299, 413, 419, 62, 249, 58, 448, 391, 428, 24, 354, 18, 323, 402, 449, 335, 95, 479, 135, 395,
    338, 410, 140, 249, 359, 319, 243, 260, 66, 183, 403, 494, 413, 188, 240, 80, 332, 309, 176,
    321, 116, 36, 84, 182, 471, 59, 66, 217, 260, 361, 318, 153, 140, 34, 351, 53, 287, 477, 418,
    15, 50, 74, 99, 372, 459, 337, 232, 422, 51, 223, 127, 484, 9, 300, 393, 261, 1, 61, 85, 153,
    339, 404, 470, 51, 30, 453, 136, 371, 115, 302, 237, 153, 339, 398, 438, 279, 266, 327, 479,
    463, 30, 309, 111, 51, 138, 25, 40, 50, 485, 485, 355, 416, 212, 255, 152, 40, 333, 103, 145,
    135, 6, 494, 380, 184, 458, 243, 424, 59, 336, 135, 437, 451, 25, 492, 193, 141, 119, 83, 54,
    450, 94, 148, 228, 338, 316, 91, 0, 272,
];

const PARTIAL_GCM_REGRESSION: &[u64] = &[
    187, 280, 239, 27, 131, 113, 260, 84, 178, 156, 108, 444, 417, 408, 116, 100, 316, 90, 428, 20,
    203, 324, 207, 80, 478, 273, 471, 195, 229, 140, 87, 225, 387, 368, 350, 72, 487, 445, 140, 54,
    104, 468, 115, 261, 264, 18, 93, 349, 438, 395, 177, 264, 211, 290, 191, 56, 187, 174, 274,
    392, 266, 369, 468, 257, 340, 485, 131, 2, 127, 203, 185, 4, 101, 337, 280, 152, 472, 124, 236,
    216, 491, 415, 258, 419, 317, 438, 250, 263, 404, 246, 92, 356, 382, 380, 188, 134, 188, 92,
    261, 7, 227, 431, 153, 328, 410, 39, 295, 47, 464, 85, 442, 360, 49, 31, 433, 431, 417, 5, 280,
    409, 247, 250, 457, 330, 218, 416, 318, 376, 353, 252, 224, 278, 30, 11, 144, 119, 54, 253,
    338, 499, 65, 276, 308, 117, 310, 327, 63, 365, 297, 467, 145, 463, 457, 169, 154, 27, 186,
    451, 364, 453, 204, 79, 368, 80, 215, 196, 336, 97, 10, 329, 445, 347, 238, 282, 200, 434, 480,
    191, 490, 170, 192, 57, 99, 170, 190, 441, 257, 378, 210, 412, 178, 111, 465, 146, 210, 492,
    134, 108, 111, 6, 359, 440, 156, 362, 430, 428, 223, 303, 149, 448, 159, 338, 124, 7, 478, 345,
    361, 355, 123, 108, 67, 86, 254, 238, 360, 82,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn policy_invariants(trace in any_trace(), kind in policy_kinds(), block_size in 1usize..8) {
        check_policy_invariants(&trace, &kind, block_size)?;
    }

    /// The exact optimum lower-bounds every online policy and the offline
    /// heuristic; the heuristic lower-bounds item-granular Belady.
    #[test]
    fn optimality_sandwich(trace in small_trace(), block_size in 1usize..5) {
        let map = BlockMap::strided(block_size);
        let capacity = 6usize.max(block_size);
        let opt = optimal_gc_cost(&trace, &map, capacity);
        let heur = gc_belady_heuristic(&trace, &map, capacity);
        let item_opt = belady_misses(&trace, capacity);
        prop_assert!(opt <= heur, "opt {opt} > heuristic {heur}");
        prop_assert!(heur <= item_opt, "heuristic {heur} > item Belady {item_opt}");
        for kind in [PolicyKind::ItemLru, PolicyKind::BlockLru, PolicyKind::IblpBalanced] {
            if capacity < 2 * map.max_block_size() && kind == PolicyKind::IblpBalanced {
                continue;
            }
            let mut policy = kind.build(capacity, &map);
            let online = gc_cache::gc_sim::simulate(&mut policy, &trace).misses;
            prop_assert!(online >= opt, "{}: online {online} < opt {opt}", kind.label());
        }
    }

    /// Simulation accounting: hits + misses = accesses; items_loaded ≥
    /// misses; spatial hits are zero for item caches.
    #[test]
    fn stats_accounting(trace in any_trace(), block_size in 1usize..8) {
        let map = BlockMap::strided(block_size);
        let mut iblp = Iblp::balanced(8 * block_size.max(2) * 2, map);
        let stats = gc_cache::gc_sim::simulate(&mut iblp, &trace);
        prop_assert_eq!(stats.hits() + stats.misses, trace.len() as u64);
        prop_assert!(stats.items_loaded >= stats.misses);

        let mut lru = ItemLru::new(16);
        let stats = gc_cache::gc_sim::simulate(&mut lru, &trace);
        prop_assert_eq!(stats.spatial_hits, 0);
    }

    /// LRU stack inclusion: a larger LRU never misses more.
    #[test]
    fn lru_inclusion(trace in any_trace(), small in 2usize..32) {
        let large = small * 2;
        let mut a = ItemLru::new(small);
        let mut b = ItemLru::new(large);
        let ma = gc_cache::gc_sim::simulate(&mut a, &trace).misses;
        let mb = gc_cache::gc_sim::simulate(&mut b, &trace).misses;
        prop_assert!(mb <= ma, "LRU({large}) missed {mb} > LRU({small}) {ma}");
    }

    #[test]
    fn zero_alloc_engine_matches_reference(
        trace in any_trace(),
        kind in policy_kinds(),
        block_size in 1usize..8,
    ) {
        check_zero_alloc_engine_matches_reference(&trace, &kind, block_size)?;
    }

    #[test]
    fn deterministic_replay(trace in any_trace(), kind in policy_kinds()) {
        check_deterministic_replay(&trace, &kind)?;
    }

    /// Trace serialization round-trips exactly (JSON and text).
    #[test]
    fn io_roundtrip(trace in any_trace(), block_size in 1usize..8) {
        let map = BlockMap::strided(block_size);
        let back = io::from_json(&io::to_json(&trace, &map)).unwrap();
        prop_assert_eq!(back.trace.requests(), trace.requests());
        prop_assert_eq!(back.block_map.stride(), Some(block_size as u64));
        let mut buf = Vec::new();
        io::write_text(&trace, &mut buf).unwrap();
        let text_back = io::read_text(buf.as_slice()).unwrap();
        prop_assert_eq!(text_back.requests(), trace.requests());
    }

    /// Working-set functions are monotone in the window and bounded:
    /// g(n) ≤ f(n) ≤ n and f(n) ≤ B·g(n).
    #[test]
    fn working_set_model_axioms(trace in any_trace(), block_size in 1usize..8) {
        let map = BlockMap::strided(block_size);
        let mut prev_f = 0;
        let mut prev_g = 0;
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            if n > trace.len() { break; }
            let f = working_set::max_distinct_items_in_window(&trace, n);
            let g = working_set::max_distinct_blocks_in_window(&trace, &map, n);
            prop_assert!(f >= prev_f && g >= prev_g, "not monotone");
            prop_assert!(g <= f && f <= n);
            prop_assert!(f <= g * block_size);
            prev_f = f;
            prev_g = g;
        }
    }

    /// SHARDS sampling axioms on arbitrary traces: rate 1.0 degenerates to
    /// the exact Mattson curve bit-for-bit (any seed — the filter keeps
    /// everything); any rate is deterministic for a fixed seed; and every
    /// sampled curve is monotone nonincreasing and bounded by the all-miss
    /// line. (Numeric convergence bounds live in `gc_sim::shards` tests,
    /// where the trace is fixed; a random-trace sup-norm bound would be
    /// flaky by construction.)
    #[test]
    fn sampled_mrc_axioms(
        trace in any_trace(),
        rate_pct in 1u64..101,
        seed in 0u64..1_000,
        block_size in 1usize..8,
    ) {
        use gc_cache::gc_sim::{block_mrc, item_mrc, sampled_block_mrc, sampled_item_mrc, SamplerConfig};
        let max_size = 64;
        let map = BlockMap::strided(block_size);

        let full = SamplerConfig::fixed(1.0).with_seed(seed);
        prop_assert_eq!(
            &sampled_item_mrc(&trace, max_size, &full).0.misses,
            &item_mrc(&trace, max_size).misses
        );
        prop_assert_eq!(
            &sampled_block_mrc(&trace, &map, max_size, &full).0.misses,
            &block_mrc(&trace, &map, max_size).misses
        );

        let cfg = SamplerConfig::fixed(rate_pct as f64 / 100.0).with_seed(seed);
        let (a, _) = sampled_item_mrc(&trace, max_size, &cfg);
        let (b, _) = sampled_item_mrc(&trace, max_size, &cfg);
        prop_assert_eq!(&a.misses, &b.misses, "sampling must be deterministic");
        prop_assert!(a.misses.windows(2).all(|w| w[1] <= w[0]), "curve not monotone");
        prop_assert!(a.misses.iter().all(|&m| m <= trace.len() as u64), "misses exceed accesses");
    }

    /// Reset really resets: a reset policy replays identically to a fresh
    /// one.
    #[test]
    fn reset_equals_fresh(trace in any_trace(), kind in policy_kinds()) {
        let map = BlockMap::strided(4);
        let mut warmed = kind.build(32, &map);
        let _ = gc_cache::gc_sim::simulate(&mut warmed, &trace);
        warmed.reset();
        prop_assert_eq!(warmed.len(), 0);
        // Deterministic policies replay identically after reset; the
        // seeded ones have consumed RNG state, so only check emptiness
        // and basic serviceability for them.
        match kind {
            PolicyKind::ItemRandom { .. }
            | PolicyKind::ItemMarking { .. }
            | PolicyKind::Gcm { .. }
            | PolicyKind::PartialGcm { .. } => {
                if let Some(first) = trace.iter().next() {
                    prop_assert!(warmed.access(first).is_miss());
                }
            }
            _ => {
                let mut fresh = kind.build(32, &map);
                let s1 = gc_cache::gc_sim::simulate(&mut warmed, &trace);
                let s2 = gc_cache::gc_sim::simulate(&mut fresh, &trace);
                prop_assert_eq!(s1, s2);
            }
        }
    }
}
