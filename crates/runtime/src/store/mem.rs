//! A bounded in-RAM block store — the physical L1 of a tiered hierarchy.
//!
//! Holds up to `capacity` whole blocks; storing past capacity displaces
//! the oldest-stored block (FIFO). Displacement here is a **storage**
//! property — which blocks happen to be staged close by — not a caching
//! policy: item-granular admission and eviction stay with the policy
//! layer, exactly as the paper's model separates "what the cache keeps"
//! from "what the level below has materialized".

use super::BlockStore;
use crate::backend::{materialize_block, BlockBackend};
use crate::sync::Mutex;
use gc_types::{BlockId, BlockMap, FxHashMap, GcError, ItemId};
use std::collections::VecDeque;

struct MemState {
    blocks: FxHashMap<u64, Box<[ItemId]>>,
    /// Store order, oldest at the front; drives FIFO displacement.
    fifo: VecDeque<u64>,
}

/// A bounded in-memory [`BlockStore`] with FIFO displacement.
///
/// As a standalone [`BlockBackend`] it materializes absent blocks from
/// the map (keeping backend bit-identity); as the L1 of a
/// [`TieredBackend`](super::TieredBackend) it is probed via
/// [`try_load_into`](BlockStore::try_load_into) and populated
/// write-through, so it never materializes on that path.
pub struct MemBackend {
    map: BlockMap,
    capacity: usize,
    state: Mutex<MemState>,
}

impl MemBackend {
    /// A store over `map` holding at most `capacity` blocks.
    ///
    /// # Errors
    ///
    /// [`GcError::InvalidParameter`] when `capacity` is zero — a tier that
    /// can hold nothing would silently degrade to a pass-through.
    pub fn new(map: BlockMap, capacity: usize) -> Result<Self, GcError> {
        if capacity == 0 {
            return Err(GcError::InvalidParameter(
                "mem backend capacity must be at least 1 block".into(),
            ));
        }
        Ok(MemBackend {
            map,
            capacity,
            state: Mutex::new(MemState {
                blocks: FxHashMap::default(),
                fifo: VecDeque::new(),
            }),
        })
    }

    /// The configured capacity, in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl BlockBackend for MemBackend {
    fn load_block(&self, block: BlockId) -> Result<Vec<ItemId>, GcError> {
        let mut items = Vec::new();
        self.load_block_into(block, &mut items)?;
        Ok(items)
    }

    fn load_block_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<(), GcError> {
        if self.try_load_into(block, out)? {
            return Ok(());
        }
        materialize_block(&self.map, block, out)?;
        self.store_block(block, out)
    }
}

/// Make `held` a copy of `items`, in place when the lengths match.
fn refill(held: &mut Box<[ItemId]>, items: &[ItemId]) {
    if held.len() == items.len() {
        held.copy_from_slice(items);
    } else {
        *held = items.into();
    }
}

impl BlockStore for MemBackend {
    fn store_block(&self, block: BlockId, items: &[ItemId]) -> Result<(), GcError> {
        let mut state = self.state.lock();
        let state = &mut *state;
        // Overwrites keep their original queue position.
        if let Some(held) = state.blocks.get_mut(&block.0) {
            refill(held, items);
            return Ok(());
        }
        // New resident: displace the oldest if at capacity, reusing its
        // allocation, then enqueue.
        let displaced = if state.fifo.len() >= self.capacity {
            let oldest = state.fifo.pop_front();
            oldest.and_then(|oldest| state.blocks.remove(&oldest))
        } else {
            None
        };
        let held = match displaced {
            Some(mut held) => {
                refill(&mut held, items);
                held
            }
            None => items.into(),
        };
        state.blocks.insert(block.0, held);
        state.fifo.push_back(block.0);
        Ok(())
    }

    fn try_load_into(&self, block: BlockId, out: &mut Vec<ItemId>) -> Result<bool, GcError> {
        let state = self.state.lock();
        match state.blocks.get(&block.0) {
            Some(items) => {
                out.clear();
                out.extend_from_slice(items);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn contains_block(&self, block: BlockId) -> bool {
        self.state.lock().blocks.contains_key(&block.0)
    }

    fn stored_blocks(&self) -> usize {
        self.state.lock().blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_is_rejected() {
        let err = MemBackend::new(BlockMap::strided(4), 0)
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, GcError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn materializes_and_stores_on_miss() {
        let store = MemBackend::new(BlockMap::strided(4), 8).unwrap();
        assert!(!store.contains_block(BlockId(2)));
        let items = store.load_block(BlockId(2)).unwrap();
        assert_eq!(items, vec![ItemId(8), ItemId(9), ItemId(10), ItemId(11)]);
        assert!(store.contains_block(BlockId(2)));
        assert_eq!(store.stored_blocks(), 1);
    }

    #[test]
    fn fifo_displacement_bounds_residency() {
        let store = MemBackend::new(BlockMap::strided(2), 3).unwrap();
        for b in 0..5u64 {
            store.load_block(BlockId(b)).unwrap();
        }
        assert_eq!(store.stored_blocks(), 3, "capacity bound holds");
        // Oldest two displaced, newest three resident.
        assert!(!store.contains_block(BlockId(0)));
        assert!(!store.contains_block(BlockId(1)));
        for b in 2..5u64 {
            assert!(store.contains_block(BlockId(b)), "block {b} resident");
        }
    }

    #[test]
    fn overwrite_does_not_double_count_or_displace() {
        let store = MemBackend::new(BlockMap::strided(2), 2).unwrap();
        store
            .store_block(BlockId(0), &[ItemId(0), ItemId(1)])
            .unwrap();
        store.store_block(BlockId(0), &[ItemId(9)]).unwrap();
        store.store_block(BlockId(1), &[ItemId(2)]).unwrap();
        assert_eq!(store.stored_blocks(), 2);
        let mut out = Vec::new();
        assert!(store.try_load_into(BlockId(0), &mut out).unwrap());
        assert_eq!(out, vec![ItemId(9)], "overwrite replaced contents");
    }

    #[test]
    fn displacement_stages_the_new_contents() {
        let store = MemBackend::new(BlockMap::strided(2), 2).unwrap();
        store
            .store_block(BlockId(0), &[ItemId(0), ItemId(1)])
            .unwrap();
        store.store_block(BlockId(1), &[ItemId(2)]).unwrap();
        // Displaces block 0, whose allocation has the same length.
        store
            .store_block(BlockId(2), &[ItemId(4), ItemId(5)])
            .unwrap();
        // Displaces block 1, whose allocation is shorter.
        store
            .store_block(BlockId(3), &[ItemId(6), ItemId(7)])
            .unwrap();
        assert!(!store.contains_block(BlockId(0)));
        assert!(!store.contains_block(BlockId(1)));
        let mut out = Vec::new();
        assert!(store.try_load_into(BlockId(2), &mut out).unwrap());
        assert_eq!(out, vec![ItemId(4), ItemId(5)]);
        assert!(store.try_load_into(BlockId(3), &mut out).unwrap());
        assert_eq!(out, vec![ItemId(6), ItemId(7)]);
    }

    #[test]
    fn try_load_never_materializes() {
        let store = MemBackend::new(BlockMap::strided(4), 8).unwrap();
        let mut out = vec![ItemId(42)];
        assert!(!store.try_load_into(BlockId(0), &mut out).unwrap());
        assert_eq!(out, vec![ItemId(42)], "absent probe leaves buffer alone");
        assert_eq!(store.stored_blocks(), 0);
    }
}
