//! The storage layer behind the cache: block-granular load requests.
//!
//! The GC model's central primitive — *on a miss, any subset of the block
//! is available for one unit of cost* — exists because the level below has
//! already paid to materialize the whole block (a DRAM row activation, a
//! flash page read). [`BlockBackend`] is that level: the runtime asks it
//! for a **whole block** and the policy's subset-selection decides what to
//! admit. [`SyntheticBackend`] stands in for real storage with
//! configurable latency and jitter, so the serving harness can explore
//! latency-bound and lock-bound regimes without real devices.

use crate::sync::atomic::{AtomicU64, Ordering};
use gc_types::{mix64, BlockId, BlockMap, GcError, ItemId, TierStats};
use std::time::Duration;

/// Materialize the canonical contents of `block` from a [`BlockMap`] into
/// `out` (cleared first). Every backend that derives block contents from a
/// map goes through this one function, so the item order — and therefore
/// the policy-visible behaviour — is identical across backends (the
/// differential suite's bit-identity claim rests on this). A block at or
/// past the end of a bounded map (explicit or compiled) is an error; a
/// sparse strided map has every block.
pub(crate) fn materialize_block(
    map: &BlockMap,
    block: BlockId,
    out: &mut Vec<ItemId>,
) -> Result<(), GcError> {
    out.clear();
    if map.num_blocks().is_some_and(|n| block.0 >= n as u64) {
        return Err(GcError::Backend {
            block,
            message: "block not present in backend block map".into(),
        });
    }
    match map.stride() {
        // Strided blocks are a contiguous id range; extending from the
        // range directly (instead of the generic `items_of` iterator)
        // lets the copy vectorize — this path runs once per cache miss.
        Some(stride) => {
            let start = block.0 * stride;
            out.extend((start..start + stride).map(ItemId));
        }
        None => out.extend(map.items_of(block)),
    }
    Ok(())
}

/// A block-granular storage backend.
///
/// Implementations must be callable from many threads at once: the
/// runtime issues one `load_block` per single-flight *leader*, and leaders
/// for different blocks run concurrently. A successful load returns every
/// item of the block (the "rest of the block is free" supply); failures
/// surface as [`GcError::Backend`] and propagate to every miss coalesced
/// onto the fetch.
pub trait BlockBackend: Send + Sync {
    /// Load the full contents of `block`.
    fn load_block(&self, block: BlockId) -> Result<Vec<ItemId>, GcError>;

    /// Load the full contents of `block` into a caller-owned buffer
    /// (cleared first), so hot paths that reuse one buffer per shard pay
    /// no allocation per fetch. The default delegates to
    /// [`load_block`](Self::load_block); backends should override it when
    /// they can materialize items without building a fresh `Vec`.
    fn load_block_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<(), GcError> {
        let items = self.load_block(block)?;
        out.clear();
        out.extend_from_slice(&items);
        Ok(())
    }

    /// Per-tier fetch telemetry, for layered backends. Flat backends (the
    /// default) report no tiers; a [`TieredBackend`](crate::store::
    /// TieredBackend) reports one entry per layer, fastest first. The
    /// runtime attaches this snapshot to aggregate stats.
    fn tier_snapshot(&self) -> Vec<TierStats> {
        Vec::new()
    }
}

/// An in-memory backend that serves blocks straight from a [`BlockMap`],
/// optionally sleeping to emulate device latency.
///
/// Latency is `base + U` where `U` is a deterministic pseudo-random
/// fraction of `jitter` derived by hashing a per-call counter — no RNG
/// state to lock, and repeated runs see the same latency sequence modulo
/// thread interleaving. The counter exists only on the latency path: the
/// zero-latency configuration keeps the load path free of shared writes,
/// which is what the lock-bound serving benchmarks measure. Wrap in a
/// [`CountingBackend`] to observe load counts.
pub struct SyntheticBackend {
    map: BlockMap,
    base: Duration,
    jitter: Duration,
    calls: AtomicU64,
}

impl SyntheticBackend {
    /// A zero-latency backend over `map` (pure function of the block map;
    /// the right choice for differential and stress tests).
    pub fn new(map: BlockMap) -> Self {
        SyntheticBackend {
            map,
            base: Duration::ZERO,
            jitter: Duration::ZERO,
            calls: AtomicU64::new(0),
        }
    }

    /// Set the emulated device latency: every load sleeps `base` plus a
    /// deterministic pseudo-random fraction of `jitter`.
    pub fn with_latency(mut self, base: Duration, jitter: Duration) -> Self {
        self.base = base;
        self.jitter = jitter;
        self
    }
}

impl BlockBackend for SyntheticBackend {
    fn load_block(&self, block: BlockId) -> Result<Vec<ItemId>, GcError> {
        let mut items = Vec::new();
        self.load_block_into(block, &mut items)?;
        Ok(items)
    }

    fn load_block_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<(), GcError> {
        materialize_block(&self.map, block, out)?;
        if !(self.base.is_zero() && self.jitter.is_zero()) {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            let delay = self.base
                + Duration::from_nanos(
                    (self.jitter.as_nanos() as u64).saturating_mul(mix64(call) & 1023) / 1024,
                );
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        Ok(())
    }
}

/// A [`BlockBackend`] decorator that counts successful loads.
///
/// Tests use it to verify single-flight and per-flush deduplication
/// against an independent witness — the count lives here, not in
/// [`SyntheticBackend`], so the zero-latency hot path stays free of
/// shared-cache-line traffic.
pub struct CountingBackend<B> {
    inner: B,
    calls: AtomicU64,
}

impl<B: BlockBackend> CountingBackend<B> {
    /// Wrap `inner`, counting every load served through this handle.
    pub fn new(inner: B) -> Self {
        CountingBackend {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of successful `load_block`/`load_block_into` calls so far.
    pub fn loads(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<B: BlockBackend> BlockBackend for CountingBackend<B> {
    fn load_block(&self, block: BlockId) -> Result<Vec<ItemId>, GcError> {
        let items = self.inner.load_block(block)?;
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(items)
    }

    fn load_block_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<(), GcError> {
        self.inner.load_block_into(block, out)?;
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn tier_snapshot(&self) -> Vec<TierStats> {
        self.inner.tier_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn serves_whole_blocks() {
        let b = CountingBackend::new(SyntheticBackend::new(BlockMap::strided(4)));
        let items = b.load_block(BlockId(2)).unwrap();
        assert_eq!(items, vec![ItemId(8), ItemId(9), ItemId(10), ItemId(11)]);
        assert_eq!(b.loads(), 1);
    }

    #[test]
    fn counting_backend_skips_failed_loads() {
        let map = BlockMap::from_groups(vec![vec![ItemId(1)]]).unwrap();
        let b = CountingBackend::new(SyntheticBackend::new(map));
        assert!(b.load_block(BlockId(9)).is_err());
        assert_eq!(b.loads(), 0);
        b.load_block(BlockId(0)).unwrap();
        assert_eq!(b.loads(), 1);
    }

    #[test]
    fn unknown_block_in_explicit_map_errors() {
        let map = BlockMap::from_groups(vec![vec![ItemId(1), ItemId(2)]]).unwrap();
        let b = SyntheticBackend::new(map);
        let err = b.load_block(BlockId(9)).unwrap_err();
        assert!(matches!(err, GcError::Backend { block, .. } if block == BlockId(9)));
    }

    #[test]
    fn blocks_past_a_bounded_map_are_refused() {
        // 48 blocks of 4 items, compiled from a sparse strided map.
        let trace = gc_types::Trace::from_ids((0..48u64).map(|b| b * 4_000));
        let compiled = gc_types::CompiledTrace::compile(&trace, &BlockMap::strided(4)).unwrap();
        let explicit = BlockMap::from_groups(vec![vec![ItemId(1), ItemId(2)]]).unwrap();
        let bounded = [
            (compiled.map().clone(), BlockId(47)),
            (explicit, BlockId(0)),
        ];
        for (map, last) in bounded {
            let n = map.num_blocks().unwrap() as u64;
            let synthetic = SyntheticBackend::new(map.clone());
            let mem = crate::MemBackend::new(map, 8).unwrap();
            let backends: [&dyn BlockBackend; 2] = [&synthetic, &mem];
            for b in backends {
                assert!(!b.load_block(last).unwrap().is_empty());
                for past in [n, 1_000_000] {
                    let err = b.load_block(BlockId(past)).unwrap_err();
                    assert!(matches!(err, GcError::Backend { block, .. } if block.0 == past));
                }
            }
        }
        // A sparse strided map is unbounded: every block exists.
        let sparse = SyntheticBackend::new(BlockMap::strided(4));
        assert_eq!(sparse.load_block(BlockId(1_000_000)).unwrap().len(), 4);
    }

    #[test]
    fn latency_is_at_least_base_and_bounded_by_jitter() {
        let b = SyntheticBackend::new(BlockMap::strided(2))
            .with_latency(Duration::from_millis(2), Duration::from_millis(1));
        let t0 = Instant::now();
        b.load_block(BlockId(0)).unwrap();
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(2), "{dt:?}");
        // Generous upper bound: sleep overshoot on loaded CI machines.
        assert!(dt < Duration::from_millis(500), "{dt:?}");
    }
}
