//! Trace compilation: dense-ID renaming of a trace and its block map.
//!
//! A [`CompiledTrace`] is the hot-loop form of a [`Trace`]: one pre-pass
//! renames the sparse `u64` key space into dense ids `0..n_items` (the
//! *block closure* of the trace — every item of every touched block gets a
//! dense id, so co-loads stay representable), leaving a flat
//! `Vec<CompiledAccess>` of dense item ids that simulators stream over
//! without re-hashing per request. A consumer that needs an access's block
//! asks the dense map ([`BlockMap::block_of`]): a shift or divide for a
//! strided map, one array load for a CSR map.
//!
//! The renaming is **monotone**: sorting the closure's sparse ids and
//! ranking them preserves every `<`/`==` comparison between item ids, so
//! order-sensitive policy internals (LFU tie-breaks, eviction-report
//! sort/dedup) behave bit-identically in dense space. Blocks are likewise
//! renamed by ascending source block id, and each dense block enumerates
//! its items in the source map's group order, so co-load snapshots see the
//! same sequence of (renamed) items.
//!
//! The inverse map is retained: [`CompiledTrace::decode`] reconstructs the
//! original trace, and the dense [`BlockMap`] it carries exposes
//! [`decode_item`](crate::block_map::DenseMap::decode_item) /
//! [`decoder`](crate::block_map::DenseMap::decoder) so reports,
//! frequency sketches, and samplers can keep hashing original keys. A
//! strided map keeps only its block table (8 bytes per block) and decodes
//! items arithmetically; a CSR map also keeps one original id per item.

use crate::{BlockMap, FxHashMap, FxHashSet, GcError, ItemId, Trace};
use std::sync::Arc;

/// One compiled request: the dense item id.
///
/// Four bytes per access — sixteen accesses per cache line. The access's
/// dense block is `map.block_of(item)` on the trace's
/// [`map`](CompiledTrace::map).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledAccess {
    /// Dense item id (`0..n_items`).
    pub item: u32,
}

/// A trace compiled into dense-ID form. See the module docs.
#[derive(Clone, Debug)]
pub struct CompiledTrace {
    name: String,
    accesses: Vec<CompiledAccess>,
    map: BlockMap,
}

impl CompiledTrace {
    /// Compile `trace` against `map`: rename the block closure of the
    /// trace into dense ids.
    ///
    /// Returns an error if the trace requests an item outside an explicit
    /// map, or if the closure exceeds `u32` id space.
    pub fn compile(trace: &Trace, map: &BlockMap) -> Result<CompiledTrace, GcError> {
        // Pass 1: the set of touched source blocks, in ascending order.
        let mut touched: FxHashSet<u64> = FxHashSet::default();
        for item in trace.iter() {
            let block = map.try_block_of(item).ok_or_else(|| {
                GcError::InvalidParameter(format!(
                    "trace item {item} is not in any block of the map"
                ))
            })?;
            touched.insert(block.0);
        }
        let mut blocks: Vec<u64> = touched.into_iter().collect();
        blocks.sort_unstable();

        // The source may itself be dense (re-compilation): compose decode
        // tables so dense ids always map back to the *original* key space.
        let source = map.dense_universe().map(|d| d.decoder());
        let block_decode: Arc<Vec<u64>> = Arc::new(
            blocks
                .iter()
                .map(|&b| match source {
                    Some(decode) => decode.block(crate::BlockId(b)).0,
                    None => b,
                })
                .collect(),
        );

        if let Some(stride) = map.stride() {
            // Strided source: the closure of each touched block is a full
            // `stride`-run, so dense ids stay strided — `block_of` remains
            // a divide (or shift), and items decode through the block
            // table, so the layout costs no per-item memory.
            let n_items = blocks.len() as u64 * stride;
            check_id_space(n_items)?;
            let block_rank: FxHashMap<u64, u32> = blocks
                .iter()
                .enumerate()
                .map(|(rank, &b)| (b, rank as u32))
                .collect();
            let accesses = trace
                .iter()
                .map(|item| CompiledAccess {
                    item: block_rank[&(item.0 / stride)] * stride as u32 + (item.0 % stride) as u32,
                })
                .collect();
            Ok(CompiledTrace {
                name: trace.name.clone(),
                accesses,
                map: BlockMap::dense_strided(stride, block_decode),
            })
        } else {
            // Explicit source: CSR layout preserving each block's group
            // order (co-load enumeration order is part of policy behavior).
            let mut closure: Vec<u64> = Vec::new();
            for &source_block in &blocks {
                closure.extend(map.items_of(crate::BlockId(source_block)).map(|z| z.0));
            }
            check_id_space(closure.len() as u64)?;
            let mut sorted = closure;
            sorted.sort_unstable();
            let rename: FxHashMap<u64, u32> = sorted
                .iter()
                .enumerate()
                .map(|(rank, &id)| (id, rank as u32))
                .collect();
            let decode: Vec<u64> = sorted
                .iter()
                .map(|&id| match source {
                    Some(decode) => decode.item(ItemId(id)).0,
                    None => id,
                })
                .collect();

            let mut item_to_block = vec![0u32; sorted.len()];
            let mut block_starts = Vec::with_capacity(blocks.len() + 1);
            let mut block_items = Vec::with_capacity(sorted.len());
            for (rank, &source_block) in blocks.iter().enumerate() {
                block_starts.push(block_items.len() as u32);
                for z in map.items_of(crate::BlockId(source_block)) {
                    let dense = rename[&z.0];
                    item_to_block[dense as usize] = rank as u32;
                    block_items.push(ItemId(u64::from(dense)));
                }
            }
            block_starts.push(block_items.len() as u32);

            let accesses = trace
                .iter()
                .map(|item| CompiledAccess {
                    item: rename[&item.0],
                })
                .collect();
            Ok(CompiledTrace {
                name: trace.name.clone(),
                accesses,
                map: BlockMap::dense_csr(
                    item_to_block,
                    block_starts,
                    block_items,
                    Arc::new(decode),
                    block_decode,
                ),
            })
        }
    }

    /// The compiled request stream.
    #[inline]
    pub fn accesses(&self) -> &[CompiledAccess] {
        &self.accesses
    }

    /// The dense [`BlockMap`] the trace was renamed into. Build policies
    /// against this map (not the source map) when replaying the compiled
    /// stream.
    #[inline]
    pub fn map(&self) -> &BlockMap {
        &self.map
    }

    /// The trace's label, carried over from the source.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace has no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Number of dense items (the block closure size).
    pub fn n_items(&self) -> u64 {
        self.dense().n_items()
    }

    /// Number of dense blocks (the touched-block count).
    pub fn n_blocks(&self) -> u64 {
        self.dense().n_blocks()
    }

    /// The original sparse id of dense item `item`.
    pub fn decode_item(&self, item: ItemId) -> ItemId {
        self.dense().decode_item(item)
    }

    /// The original sparse id of dense block `block`.
    pub fn decode_block(&self, block: crate::BlockId) -> crate::BlockId {
        self.dense().decode_block(block)
    }

    /// Reconstruct the original trace (inverse of [`compile`]).
    ///
    /// [`compile`]: CompiledTrace::compile
    pub fn decode(&self) -> Trace {
        let dense = self.dense();
        let requests = self
            .accesses
            .iter()
            .map(|a| dense.decode_item(ItemId(u64::from(a.item))))
            .collect();
        let mut trace = Trace::from_requests(requests);
        trace.name = self.name.clone();
        trace
    }

    /// Iterate the dense request sequence as [`ItemId`]s (for consumers
    /// that replay through the uncompiled entry points).
    pub fn iter_items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.accesses.iter().map(|a| ItemId(u64::from(a.item)))
    }

    fn dense(&self) -> &crate::block_map::DenseMap {
        self.map
            .dense_universe()
            .expect("compiled trace always carries a dense map")
    }
}

fn check_id_space(n_items: u64) -> Result<(), GcError> {
    if n_items > u64::from(u32::MAX) {
        return Err(GcError::InvalidParameter(format!(
            "block closure of {n_items} items exceeds dense u32 id space"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_compilation_is_dense_and_monotone() {
        let map = BlockMap::strided(4);
        let trace = Trace::from_ids([100, 7, 101, 4, 100]).named("t");
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        // Touched blocks: 25 (100-103), 1 (4-7). Closure = 8 items.
        assert_eq!(ct.n_items(), 8);
        assert_eq!(ct.n_blocks(), 2);
        assert_eq!(ct.map().stride(), Some(4));
        // Monotone: 4 < 7 < 100 < 101 must hold densely.
        let a = ct.accesses();
        assert!(a[3].item < a[1].item); // 4 < 7
        assert!(a[1].item < a[0].item); // 7 < 100
        assert!(a[0].item < a[2].item); // 100 < 101
        assert_eq!(a[0], a[4]);
    }

    #[test]
    fn round_trip_decodes_to_original() {
        let map = BlockMap::strided(8);
        let trace = Trace::from_ids([3, 900, 17, 3, 901, 64]).named("rt");
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        assert_eq!(ct.decode(), trace);
    }

    #[test]
    fn per_access_blocks_match_the_dense_map() {
        let map = BlockMap::strided(4);
        let trace = Trace::from_ids([0, 5, 9, 1, 400]);
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        // Source blocks 0, 1, 2, 0, 100 rank as 0, 1, 2, 0, 3.
        let blocks: Vec<u64> = ct
            .accesses()
            .iter()
            .map(|a| ct.map().block_of(ItemId(u64::from(a.item))).0)
            .collect();
        assert_eq!(blocks, vec![0, 1, 2, 0, 3]);
    }

    #[test]
    fn explicit_maps_compile_to_csr_preserving_group_order() {
        // Group order is deliberately non-sorted: [30, 10] then [20].
        let map = BlockMap::from_groups(vec![
            vec![ItemId(30), ItemId(10)],
            vec![ItemId(20), ItemId(21), ItemId(22)],
        ])
        .unwrap();
        let trace = Trace::from_ids([10, 20, 30]);
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        assert_eq!(ct.n_items(), 5);
        assert_eq!(ct.n_blocks(), 2);
        assert_eq!(ct.map().stride(), None);
        // Dense rename is monotone over {10,20,21,22,30}: 10→0, 20→1, …, 30→4.
        let block_of_10 = ct.map().block_of(ItemId(0));
        // Block 0's items in group order: 30 then 10 → dense 4 then 0.
        let items: Vec<_> = ct.map().items_of(block_of_10).collect();
        assert_eq!(items, vec![ItemId(4), ItemId(0)]);
        assert_eq!(ct.decode(), Trace::from_ids([10, 20, 30]));
        // decode_item covers co-items never requested.
        assert_eq!(ct.decode_item(ItemId(2)), ItemId(21));
    }

    #[test]
    fn unknown_item_is_an_error() {
        let map = BlockMap::from_groups(vec![vec![ItemId(1)]]).unwrap();
        let trace = Trace::from_ids([1, 2]);
        let err = CompiledTrace::compile(&trace, &map).unwrap_err();
        assert!(matches!(err, GcError::InvalidParameter(_)));
    }

    #[test]
    fn recompiling_composes_decode_tables() {
        let map = BlockMap::strided(4);
        let trace = Trace::from_ids([100, 7, 100, 5]);
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        let dense_trace = Trace::from_requests(ct.iter_items().collect());
        let ct2 = CompiledTrace::compile(&dense_trace, ct.map()).unwrap();
        assert_eq!(ct2.decode(), trace.clone().named(""));
    }

    #[test]
    fn block_decode_recovers_source_block_ids() {
        let map = BlockMap::strided(4);
        let trace = Trace::from_ids([100, 7, 101, 4]);
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        // Every access's dense block decodes to the source map's block of
        // the original item.
        for (a, item) in ct.accesses().iter().zip(trace.iter()) {
            let block = ct.map().block_of(ItemId(u64::from(a.item)));
            assert_eq!(ct.decode_block(block), map.block_of(item));
        }
        // Re-compilation composes block decode tables too.
        let dense_trace = Trace::from_requests(ct.iter_items().collect());
        let ct2 = CompiledTrace::compile(&dense_trace, ct.map()).unwrap();
        for (a, item) in ct2.accesses().iter().zip(trace.iter()) {
            let block = ct2.map().block_of(ItemId(u64::from(a.item)));
            assert_eq!(ct2.decode_block(block), map.block_of(item));
        }
    }

    #[test]
    fn empty_trace_compiles_to_empty() {
        let ct = CompiledTrace::compile(&Trace::new(), &BlockMap::strided(4)).unwrap();
        assert!(ct.is_empty());
        assert_eq!(ct.n_items(), 0);
        assert!(ct.decode().is_empty());
    }

    #[test]
    fn singleton_blocks_compile() {
        let map = BlockMap::singleton();
        let trace = Trace::from_ids([9, 2, 9, 77]);
        let ct = CompiledTrace::compile(&trace, &map).unwrap();
        assert_eq!(ct.n_items(), 3);
        assert_eq!(ct.n_blocks(), 3);
        assert_eq!(ct.decode(), trace);
    }
}
