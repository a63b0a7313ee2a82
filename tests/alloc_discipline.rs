//! Allocation-counting proof of the zero-allocation hot path.
//!
//! A counting [`GlobalAlloc`] wrapper around the system allocator measures
//! heap allocations during a *steady-state* window: the cache is first
//! driven over the whole trace (filling the policy to capacity and growing
//! every buffer — scratch, slab, hash maps, spatial bitmap — to its
//! high-water mark), then the same trace is replayed and the allocation
//! counter must not move. This is the enforceable form of the discipline:
//! policies report misses into a caller-owned [`AccessScratch`] and the
//! engine tracks spatial candidacy in a dense bitmap, so a steady-state
//! access touches no allocator at all.
//!
//! The window check covers the list-backed policies (ItemLru, BlockLru,
//! Iblp and its ablations, AdaptiveIblp, 2Q), the pooled order structures
//! of ItemLfu (frequency buckets) and LruK (history arena and heap), and
//! GCM with and without co-loads. The same window
//! holds the block stores below the runtime to their reuse discipline:
//! `DiskBackend` encodes into its pending group and reads through a stack
//! buffer, and `MemBackend` refills the allocation of the block it
//! displaces. Above them, a `Session` at one shard and at eight takes every
//! request through its one buffered path: on the inline fetch path the
//! shard loads each miss into its own reuse buffer, and on the coalesced
//! one the session loads it into its reuse buffer through the
//! single-flight table, which recycles flights nobody joined, and folds
//! its inline histograms. A compiled explicit map at three shards takes
//! the same path through per-shard CSR universes.
//!
//! The same allocator also counts live heap bytes, which pins what the
//! dense state costs per key: a compiled trace keeps 4 bytes per access
//! and 8 per block (no per-item decode table for a strided map), and an
//! IBLP over a compiled universe 4 bytes per item and per block.

use gc_cache::gc_runtime::{BlockStore, DiskBackend, MemBackend};
use gc_cache::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Per-thread allocation count, so concurrently running tests (each on
    /// its own libtest thread) never count each other's allocations into a
    /// measured window.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Per-thread live heap bytes: allocated minus freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn add_live(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a plain
// thread-local cell with no allocation of its own (`try_with` tolerates
// TLS teardown instead of recursing into the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A miss-heavy trace over `universe` items (xorshift ids), long enough to
/// cycle any tested cache several times over.
fn thrash_trace(len: usize, universe: u64) -> Trace {
    let mut x = 0x243f_6a88_85a3_08d3u64;
    Trace::from_ids((0..len).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % universe
    }))
}

/// Replay `trace` once to reach steady state, then replay it again and
/// assert the measured window performed zero heap allocations. The window
/// mirrors the engine loop: `access_into` plus spatial-candidate updates on
/// a warmed [`SpatialSet`].
fn assert_steady_state_alloc_free(policy: &mut dyn GcPolicy, trace: &Trace) {
    let mut scratch = AccessScratch::new();
    let mut spatial = SpatialSet::new();
    // Warm-up pass: capacity, scratch, maps and bitmap all hit their
    // high-water marks here.
    for item in trace.iter() {
        if policy.access_into(item, &mut scratch).is_miss() {
            spatial.record_miss(item, &scratch);
        } else {
            spatial.remove(item);
        }
    }

    let before = allocations();
    let mut misses = 0u64;
    for item in trace.iter() {
        if policy.access_into(item, &mut scratch).is_miss() {
            misses += 1;
            spatial.record_miss(item, &scratch);
        } else {
            spatial.remove(item);
        }
    }
    let window = allocations() - before;

    assert!(
        misses > 1000,
        "window must be miss-heavy, got {misses} misses"
    );
    assert_eq!(
        window,
        0,
        "{}: {window} heap allocations in a steady-state window of {} requests",
        policy.name(),
        trace.len()
    );
}

#[test]
fn item_lru_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    let mut policy = ItemLru::new(256);
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn block_lru_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    let map = BlockMap::strided(8);
    let mut policy = BlockLru::new(256, map);
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn iblp_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    let map = BlockMap::strided(8);
    let mut policy = Iblp::balanced(256, map);
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn item_lfu_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    let mut policy = ItemLfu::new(256);
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn lru_k_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    for k in [2, 3] {
        let mut policy = LruK::new(256, k);
        assert_steady_state_alloc_free(&mut policy, &trace);
    }
}

#[test]
fn two_q_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    let mut policy = TwoQ::new(256);
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn adaptive_iblp_steady_state_is_alloc_free() {
    let trace = thrash_trace(50_000, 2048);
    let map = BlockMap::strided(8);
    let mut policy = AdaptiveIblp::new(256, map);
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn gcm_steady_state_is_alloc_free() {
    // GCM's co-load snapshot lives in a policy-owned buffer; classic
    // marking (GCM without co-loads) takes no snapshot at all. The §5.1
    // block-touching ablation runs through the same IBLP layer steps.
    let trace = thrash_trace(50_000, 2048);
    let map = BlockMap::strided(8);
    for spec in ["gcm", "item-marking"] {
        let kind = PolicyKind::parse(spec).expect("roster spec parses");
        let mut policy = kind.build(256, &map);
        assert_steady_state_alloc_free(policy.as_mut(), &trace);
    }
    let mut policy = Iblp::with_config(128, 128, map, IblpConfig::block_touching());
    assert_steady_state_alloc_free(&mut policy, &trace);
}

#[test]
fn boxed_dispatch_adds_no_allocations() {
    // The trait-object path the sweep harness uses must be equally clean.
    let trace = thrash_trace(50_000, 2048);
    let map = BlockMap::strided(8);
    let mut policy: Box<dyn GcPolicy> = PolicyKind::IblpBalanced.build(256, &map);
    assert_steady_state_alloc_free(policy.as_mut(), &trace);
}

/// Heap allocations made by the second of two runs of `pass`; the first
/// brings every buffer, index and queue to its high-water mark.
fn steady_state_allocations(mut pass: impl FnMut()) -> u64 {
    pass();
    let before = allocations();
    pass();
    allocations() - before
}

/// Blocks `0..n` of a 16-item strided map, with their contents.
fn strided_blocks(n: u64) -> Vec<(BlockId, Vec<ItemId>)> {
    (0..n)
        .map(|b| (BlockId(b), (b * 16..b * 16 + 16).map(ItemId).collect()))
        .collect()
}

#[test]
fn disk_store_overwrites_and_loads_are_alloc_free() {
    let dir = std::env::temp_dir().join(format!("gc-alloc-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = DiskBackend::open(dir.join("blocks.gcs"), BlockMap::strided(16)).unwrap();
    // 4 096 records of 148 bytes are two group writes per pass; loading
    // block `b` reads the pending group, block `b / 2` mostly the file.
    let blocks = strided_blocks(4096);
    let mut out = Vec::new();
    let window = steady_state_allocations(|| {
        for (block, items) in &blocks {
            store.store_block(*block, items).unwrap();
            assert!(store.try_load_into(*block, &mut out).unwrap());
            assert!(store.try_load_into(BlockId(block.0 / 2), &mut out).unwrap());
        }
    });
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        window, 0,
        "DiskBackend: {window} heap allocations in a steady-state window"
    );
}

#[test]
fn mem_store_staging_past_capacity_is_alloc_free() {
    let store = MemBackend::new(BlockMap::strided(16), 256).unwrap();
    let blocks = strided_blocks(4096);
    let window = steady_state_allocations(|| {
        for (block, items) in &blocks {
            store.store_block(*block, items).unwrap();
        }
    });
    assert_eq!(store.stored_blocks(), 256);
    assert_eq!(
        window, 0,
        "MemBackend: {window} heap allocations in a steady-state window"
    );
}

#[test]
fn session_steady_state_is_alloc_free() {
    // 4 096 blocks of 16 against 1 024 lines: mostly misses, 8 requests
    // per flush, at one shard and at eight, each miss fetched inline or
    // led through the flight table.
    let trace = thrash_trace(50_000, 1 << 16);
    let compiled = CompiledTrace::compile(&trace, &BlockMap::strided(16)).unwrap();
    let map = compiled.map().clone();
    for shards in [1usize, 8] {
        for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
            let backends: [(&str, Arc<dyn BlockBackend>); 2] = [
                (
                    "SyntheticBackend",
                    Arc::new(SyntheticBackend::new(map.clone())),
                ),
                (
                    "MemBackend",
                    Arc::new(MemBackend::new(map.clone(), 256).unwrap()),
                ),
            ];
            for (name, backend) in backends {
                let label = format!("{name}, {shards} shards, {fetch} fetch");
                let rt = GcRuntime::with_config(
                    &PolicyKind::IblpBalanced,
                    1024,
                    map.clone(),
                    RuntimeConfig::new(shards).with_fetch(fetch).with_batch(8),
                    backend,
                )
                .unwrap();
                let mut session = rt.session();
                let window = steady_state_allocations(|| {
                    for a in compiled.accesses() {
                        session.push(ItemId(u64::from(a.item))).unwrap();
                    }
                    session.flush().unwrap();
                });
                drop(session);
                let stats = rt.aggregate_stats();
                assert!(
                    stats.backend_fetches > 2000,
                    "{label}: window must fetch many blocks, got {}",
                    stats.backend_fetches
                );
                assert_eq!(
                    window,
                    0,
                    "{label}: {window} heap allocations in a steady-state window of {} requests",
                    compiled.len()
                );
            }
        }
    }
}

#[test]
fn session_over_explicit_shard_universes_is_alloc_free() {
    // A compiled explicit map gives each of three shards a CSR universe of
    // its own blocks; translating every request into it is a table load,
    // not an allocation.
    let groups: Vec<Vec<ItemId>> = (0..4096u64)
        .map(|b| (0..1 + b % 16).map(|i| ItemId(i * 1_000_003 + b)).collect())
        .collect();
    let flat: Vec<u64> = groups.iter().flatten().map(|z| z.0).collect();
    let map = BlockMap::from_groups(groups).unwrap();
    let trace = Trace::from_ids(
        thrash_trace(50_000, flat.len() as u64)
            .iter()
            .map(|item| flat[item.0 as usize]),
    );
    let compiled = CompiledTrace::compile(&trace, &map).unwrap();
    let map = compiled.map().clone();
    for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
        let backend: Arc<dyn BlockBackend> = Arc::new(SyntheticBackend::new(map.clone()));
        let rt = GcRuntime::with_config(
            &PolicyKind::IblpBalanced,
            1024,
            map.clone(),
            RuntimeConfig::new(3).with_fetch(fetch).with_batch(8),
            backend,
        )
        .unwrap();
        let mut session = rt.session();
        let window = steady_state_allocations(|| {
            for a in compiled.accesses() {
                session.push(ItemId(u64::from(a.item))).unwrap();
            }
            session.flush().unwrap();
        });
        drop(session);
        assert!(rt.aggregate_stats().misses > 2000, "{fetch} fetch");
        assert_eq!(
            window, 0,
            "3 explicit shards, {fetch} fetch: {window} heap allocations in a steady-state window"
        );
    }
}

/// A trace over 65 536 blocks of a 16-item strided map, whose compilation
/// is a 1 048 576-item dense universe: one access per block in ascending
/// order, then `extra` accesses scattered over the blocks.
fn wide_strided_trace(extra: usize) -> Trace {
    let blocks = 65_536u64;
    let scattered = thrash_trace(extra, blocks * 16);
    Trace::from_ids(
        (0..blocks)
            .map(|b| b * 16 + b % 16)
            .chain(scattered.iter().map(|z| z.0)),
    )
}

#[test]
fn a_compiled_access_is_four_bytes() {
    assert_eq!(std::mem::size_of::<gc_cache::gc_types::CompiledAccess>(), 4);
}

#[test]
fn compiling_a_strided_trace_keeps_no_per_item_table() {
    let trace = wide_strided_trace(200_000);
    let before = live_bytes();
    let compiled = CompiledTrace::compile(&trace, &BlockMap::strided(16)).unwrap();
    let retained = live_bytes() - before;
    let (accesses, blocks) = (compiled.len() as i64, compiled.n_blocks() as i64);
    assert_eq!(compiled.n_items(), 1 << 20);
    assert!(
        retained <= 4 * accesses + 8 * blocks + 1024,
        "compiling {accesses} accesses over {blocks} blocks retained {retained} B"
    );
}

#[test]
fn iblp_over_a_wide_universe_costs_four_bytes_per_item_and_block() {
    let compiled = CompiledTrace::compile(&wide_strided_trace(0), &BlockMap::strided(16)).unwrap();
    let (items, blocks) = (compiled.n_items() as i64, compiled.n_blocks() as i64);
    assert!(items >= 1 << 20);
    let capacity = 4096i64;
    let before = live_bytes();
    let policy = Iblp::balanced(capacity as usize, compiled.map().clone());
    let grown = live_bytes() - before;
    // Each layer reserves a 16-byte slab slot per line it can hold; 64 B
    // per line of capacity covers both layers and their fixed parts.
    let per_capacity = 64 * capacity;
    assert!(
        grown <= 4 * items + 4 * blocks + per_capacity,
        "{}: {grown} B for {items} items, {blocks} blocks",
        policy.name()
    );
}
