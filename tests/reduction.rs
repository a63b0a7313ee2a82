//! Theorem 1 (NP-completeness reduction) integration tests: the generated
//! GC instance's exact optimum equals the variable-size instance's exact
//! optimum, across randomized batches and hand-picked corner cases.

use gc_cache::gc_offline::{optimal_gc_cost, reduce_varsize_to_gc, VarSizeInstance};

#[test]
fn randomized_equality_batch() {
    // Wider randomized batch than the unit tests: 200 instances of up to
    // 4 items of size ≤ 3, traces of length ≤ 7.
    for seed in 1..=200u64 {
        let num_items = (seed % 3 + 2) as usize; // 2..=4
        let trace_len = (seed % 5 + 3) as usize; // 3..=7
        let inst = VarSizeInstance::random_small(seed, num_items, trace_len, 3);
        let var_opt = inst.optimal_cost();
        let gc = reduce_varsize_to_gc(&inst);
        let gc_opt = optimal_gc_cost(&gc.trace, &gc.map, gc.capacity);
        assert_eq!(gc_opt, var_opt, "seed {seed}: {inst:?}");
    }
}

#[test]
fn scaling_preserves_optimal_cost() {
    // The reduction's first step scales sizes and capacity by a common
    // factor; verify the scaling lemma on the variable-size side.
    for seed in 1..15u64 {
        let inst = VarSizeInstance::random_small(seed, 3, 6, 2);
        let scaled = VarSizeInstance {
            sizes: inst.sizes.iter().map(|s| s * 3).collect(),
            trace: inst.trace.clone(),
            capacity: inst.capacity * 3,
        };
        assert_eq!(inst.optimal_cost(), scaled.optimal_cost(), "seed {seed}");
    }
}

#[test]
fn adversarial_corner_cases() {
    // Capacity exactly equals the largest item: it can never share.
    let tight = VarSizeInstance {
        sizes: vec![3, 1, 1],
        trace: vec![0, 1, 2, 0, 1, 2],
        capacity: 3,
    };
    let gc = reduce_varsize_to_gc(&tight);
    assert_eq!(
        optimal_gc_cost(&gc.trace, &gc.map, gc.capacity),
        tight.optimal_cost()
    );

    // All requests to one big item.
    let solo = VarSizeInstance {
        sizes: vec![3],
        trace: vec![0, 0, 0, 0],
        capacity: 3,
    };
    assert_eq!(solo.optimal_cost(), 1);
    let gc = reduce_varsize_to_gc(&solo);
    assert_eq!(optimal_gc_cost(&gc.trace, &gc.map, gc.capacity), 1);

    // Alternating big/small where keeping the small one is optimal.
    let alt = VarSizeInstance {
        sizes: vec![2, 1],
        trace: vec![0, 1, 0, 1, 0, 1],
        capacity: 2,
    };
    let gc = reduce_varsize_to_gc(&alt);
    assert_eq!(
        optimal_gc_cost(&gc.trace, &gc.map, gc.capacity),
        alt.optimal_cost()
    );
}

#[test]
fn reduced_trace_size_is_sum_of_squares() {
    let inst = VarSizeInstance {
        sizes: vec![2, 3],
        trace: vec![0, 1, 0],
        capacity: 3,
    };
    let gc = reduce_varsize_to_gc(&inst);
    assert_eq!(gc.trace.len(), 4 + 9 + 4);
    // Every block's active set matches its source item's size.
    assert_eq!(gc.map.block_len(gc_cache::prelude::BlockId(0)), 2);
    assert_eq!(gc.map.block_len(gc_cache::prelude::BlockId(1)), 3);
}

#[test]
fn online_policies_on_reduced_instances_stay_above_optimum() {
    // Sanity: the reduced instances are real GC instances — online
    // policies can run on them and can't beat the optimum.
    use gc_cache::prelude::*;
    for seed in 1..10u64 {
        let inst = VarSizeInstance::random_small(seed, 3, 6, 3);
        let gc = reduce_varsize_to_gc(&inst);
        let opt = optimal_gc_cost(&gc.trace, &gc.map, gc.capacity);
        for kind in [
            PolicyKind::ItemLru,
            PolicyKind::BlockLru,
            PolicyKind::Gcm { seed },
        ] {
            // Block caches need capacity ≥ B.
            if gc.capacity < gc.map.max_block_size() && kind == PolicyKind::BlockLru {
                continue;
            }
            let mut policy = kind.build(gc.capacity, &gc.map);
            let online = gc_cache::gc_sim::simulate(&mut policy, &gc.trace).misses;
            assert!(
                online >= opt,
                "seed {seed} {}: {online} < {opt}",
                kind.label()
            );
        }
    }
}
