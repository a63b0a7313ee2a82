//! Property-based tests for the core types.

use gc_types::json::{FromJson, Json, ToJson};
use gc_types::{BlockMap, ItemId, Trace};
use testkit::prelude::*;

proptest! {
    /// Strided maps: block_of and items_of are inverse relations.
    #[test]
    fn strided_block_item_inverse(block_size in 1usize..64, id in 0u64..1_000_000) {
        let map = BlockMap::strided(block_size);
        let item = ItemId(id);
        let block = map.block_of(item);
        let items: Vec<ItemId> = map.items_of(block).collect();
        prop_assert_eq!(items.len(), block_size);
        prop_assert!(items.contains(&item));
        for z in &items {
            prop_assert_eq!(map.block_of(*z), block);
        }
    }

    /// An explicit map built from strided groups behaves identically to
    /// the strided map on its covered universe.
    #[test]
    fn explicit_matches_strided(block_size in 1usize..16, num_blocks in 1usize..16) {
        let strided = BlockMap::strided(block_size);
        let groups: Vec<Vec<ItemId>> = (0..num_blocks)
            .map(|blk| {
                (0..block_size)
                    .map(|off| ItemId((blk * block_size + off) as u64))
                    .collect()
            })
            .collect();
        let explicit = BlockMap::from_groups(groups).unwrap();
        for id in 0..(num_blocks * block_size) as u64 {
            let item = ItemId(id);
            prop_assert_eq!(strided.block_of(item), explicit.block_of(item));
            let a: Vec<ItemId> = strided.items_of(strided.block_of(item)).collect();
            let b: Vec<ItemId> = explicit.items_of(explicit.block_of(item)).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(explicit.max_block_size(), block_size);
    }

    /// same_block is an equivalence relation on covered items.
    #[test]
    fn same_block_equivalence(block_size in 1usize..32, a in 0u64..10_000, b in 0u64..10_000, c in 0u64..10_000) {
        let map = BlockMap::strided(block_size);
        let (a, b, c) = (ItemId(a), ItemId(b), ItemId(c));
        prop_assert!(map.same_block(a, a));
        prop_assert_eq!(map.same_block(a, b), map.same_block(b, a));
        if map.same_block(a, b) && map.same_block(b, c) {
            prop_assert!(map.same_block(a, c));
        }
    }

    /// Trace counters are consistent with each other and the block map.
    #[test]
    fn trace_counters(ids in prop::collection::vec(0u64..500, 0..300), block_size in 1usize..16) {
        let trace = Trace::from_ids(ids.clone());
        let map = BlockMap::strided(block_size);
        prop_assert_eq!(trace.len(), ids.len());
        let items = trace.distinct_items();
        let blocks = trace.distinct_blocks(&map);
        prop_assert!(blocks <= items);
        prop_assert!(items <= blocks * block_size);
        prop_assert!(items <= trace.len());
        // Singleton map: blocks == items.
        prop_assert_eq!(trace.distinct_blocks(&BlockMap::singleton()), items);
    }

    /// FxHasher: hashing is deterministic (collisions are legal for a
    /// non-cryptographic table hash — determinism is the contract).
    #[test]
    fn fx_hash_consistency(id in 0u64..u64::MAX) {
        use std::hash::BuildHasher;
        let bh = gc_types::FxBuildHasher::default();
        prop_assert_eq!(bh.hash_one(id), bh.hash_one(id));
    }

    /// Trace JSON round-trip preserves everything, through both writers.
    #[test]
    fn trace_json_roundtrip(ids in prop::collection::vec(0u64..u64::MAX, 0..200)) {
        let trace = Trace::from_ids(ids).named("prop \"quoted\"\n");
        for json in [trace.to_json().to_string(), trace.to_json().to_string_pretty()] {
            let back = Trace::from_json(&Json::parse(&json).unwrap()).unwrap();
            prop_assert_eq!(&back, &trace);
        }
    }

    /// Dense-ID compilation round-trips over strided maps: decoding the
    /// compiled trace reproduces the original, each access's dense block
    /// decodes to the source block of its request, and the rename is
    /// monotone.
    #[test]
    fn compiled_trace_roundtrip_strided(
        ids in prop::collection::vec(0u64..100_000, 0..400),
        block_size in 1u64..32,
    ) {
        let trace = Trace::from_ids(ids).named("prop");
        let map = BlockMap::strided(block_size as usize);
        let ct = gc_types::CompiledTrace::compile(&trace, &map).unwrap();
        prop_assert_eq!(ct.decode(), trace.clone());
        prop_assert_eq!(ct.len(), trace.len());
        for (a, item) in ct.accesses().iter().zip(trace.iter()) {
            // Each access's dense block is its request's source block...
            let block = ct.map().block_of(ItemId(u64::from(a.item)));
            prop_assert_eq!(ct.decode_block(block), map.block_of(item));
            // ...and dense ids decode back to the original request.
            prop_assert_eq!(ct.decode_item(ItemId(u64::from(a.item))), item);
        }
        // Monotone rename: dense order == sparse order on every pair of
        // consecutive requests.
        let dense: Vec<u32> = ct.accesses().iter().map(|a| a.item).collect();
        let sparse: Vec<u64> = trace.iter().map(|z| z.0).collect();
        for w in 0..dense.len().saturating_sub(1) {
            prop_assert_eq!(dense[w].cmp(&dense[w + 1]), sparse[w].cmp(&sparse[w + 1]));
        }
    }

    /// Dense-ID compilation round-trips over explicit (ragged) maps.
    #[test]
    fn compiled_trace_roundtrip_explicit(
        picks in prop::collection::vec(0u64..1_000_000, 0..300),
    ) {
        // 30 ragged groups (1..=5 items each, non-sorted inside a group).
        let groups: Vec<Vec<ItemId>> = (0..30usize)
            .map(|g| {
                let size = 1 + (g * g) % 5;
                (0..size).rev().map(|j| ItemId((g * 7_919 + j * 17) as u64)).collect()
            })
            .collect();
        let map = BlockMap::from_groups(groups.clone()).unwrap();
        let trace = Trace::from_requests(
            picks
                .iter()
                .map(|&r| {
                    let g = (r % 30) as usize;
                    groups[g][(r / 30) as usize % groups[g].len()]
                })
                .collect(),
        );
        let ct = gc_types::CompiledTrace::compile(&trace, &map).unwrap();
        prop_assert_eq!(ct.decode(), trace.clone());
        for (a, item) in ct.accesses().iter().zip(trace.iter()) {
            let block = ct.map().block_of(ItemId(u64::from(a.item)));
            prop_assert_eq!(ct.decode_block(block), map.block_of(item));
            prop_assert_eq!(ct.decode_item(ItemId(u64::from(a.item))), item);
            // Same co-load set after decoding (group order preserved).
            let dense_items: Vec<ItemId> = ct
                .map()
                .items_of(block)
                .map(|z| ct.decode_item(z))
                .collect();
            let sparse_items: Vec<ItemId> = map.items_of(map.block_of(item)).collect();
            prop_assert_eq!(dense_items, sparse_items);
        }
    }
}
