//! Two-level cache-hierarchy simulation — the Figure 1 setting, literally.
//!
//! The paper's model isolates one granularity boundary; a real system has
//! the GC cache sitting *behind* a smaller upper-level cache (e.g. an SRAM
//! L1 in front of a DRAM L2). The upper level filters the request stream:
//! only its misses reach the GC cache, which changes the reference pattern
//! the GC cache sees (temporal locality is absorbed above, spatial
//! locality survives). This module simulates that composition and reports
//! per-level statistics, so the crossover between item/block/IBLP policies
//! can be studied under realistic filtering.

use crate::engine::SpatialSet;
use crate::stats::SimStats;
use gc_policies::GcPolicy;
use gc_types::{AccessKind, AccessScratch, Trace};

/// Per-level results of a hierarchy simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Upper-level (L1) statistics over the full request stream.
    pub l1: SimStats,
    /// Lower-level (L2) statistics over the stream of L1 misses.
    pub l2: SimStats,
}

impl HierarchyStats {
    /// Fraction of all requests that had to go past L2 to backing storage.
    pub fn global_fault_rate(&self) -> f64 {
        if self.l1.accesses == 0 {
            0.0
        } else {
            self.l2.misses as f64 / self.l1.accesses as f64
        }
    }

    /// Average memory-access time under unit L1 hit cost, `l2_cost` for an
    /// L2 hit and `mem_cost` for a full miss — the systems figure of merit.
    pub fn amat(&self, l2_cost: f64, mem_cost: f64) -> f64 {
        if self.l1.accesses == 0 {
            return 0.0;
        }
        let total = self.l1.accesses as f64;
        let l1_hits = self.l1.hits() as f64;
        let l2_hits = self.l2.hits() as f64;
        let misses = self.l2.misses as f64;
        (l1_hits + l2_cost * l2_hits + mem_cost * misses) / total
    }
}

/// Simulate `trace` through an L1 policy backed by an L2 policy.
///
/// Semantics:
/// * every request goes to L1; an L1 hit never reaches L2 (the §5.1
///   filtering property, now between *levels*);
/// * an L1 miss is forwarded to L2 (where it may hit or miss), and the
///   requested item is installed in L1 (items L2 co-loads stay in L2 —
///   granularity change happens below L1, as in Figure 1);
/// * spatial/temporal attribution within each level follows the same §2
///   rule the single-level engine uses.
pub fn simulate_hierarchy<L1, L2>(l1: &mut L1, l2: &mut L2, trace: &Trace) -> HierarchyStats
where
    L1: GcPolicy + ?Sized,
    L2: GcPolicy + ?Sized,
{
    let mut stats = HierarchyStats::default();
    let mut scratch = AccessScratch::new();
    let mut l2_spatial = SpatialSet::new();

    for item in trace.iter() {
        stats.l1.accesses += 1;
        match l1.access_into(item, &mut scratch) {
            AccessKind::Hit => {
                stats.l1.temporal_hits += 1;
                continue;
            }
            AccessKind::Miss => {
                stats.l1.misses += 1;
                stats.l1.items_loaded += scratch.loaded.len() as u64;
                stats.l1.items_evicted += scratch.evicted.len() as u64;
            }
        }
        // Forward the miss to L2.
        stats.l2.accesses += 1;
        match l2.access_into(item, &mut scratch) {
            AccessKind::Hit => {
                if l2_spatial.remove(item) {
                    stats.l2.spatial_hits += 1;
                } else {
                    stats.l2.temporal_hits += 1;
                }
            }
            AccessKind::Miss => {
                stats.l2.misses += 1;
                stats.l2.items_loaded += scratch.loaded.len() as u64;
                stats.l2.items_evicted += scratch.evicted.len() as u64;
                l2_spatial.record_miss(item, &scratch);
            }
        }
        stats.l1.peak_len = stats.l1.peak_len.max(l1.len());
        stats.l2.peak_len = stats.l2.peak_len.max(l2.len());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_policies::{BlockLru, Iblp, ItemLru};
    use gc_types::{BlockMap, ItemId};

    #[test]
    fn l1_absorbs_temporal_locality() {
        let map = BlockMap::strided(4);
        let mut l1 = ItemLru::new(4);
        let mut l2 = BlockLru::new(32, map);
        // Hammer one item: only the first access reaches L2.
        let trace = Trace::from_ids(std::iter::repeat(7).take(100));
        let s = simulate_hierarchy(&mut l1, &mut l2, &trace);
        assert_eq!(s.l1.temporal_hits, 99);
        assert_eq!(s.l2.accesses, 1);
        assert_eq!(s.l2.misses, 1);
    }

    #[test]
    fn l2_catches_spatial_locality_l1_cannot() {
        let map = BlockMap::strided(8);
        let mut l1 = ItemLru::new(4);
        let mut l2 = BlockLru::new(64, map);
        // Streaming: everything misses L1, but L2 hits 7 of every 8.
        let trace = Trace::from_ids(0..800u64);
        let s = simulate_hierarchy(&mut l1, &mut l2, &trace);
        assert_eq!(s.l1.misses, 800);
        assert_eq!(s.l2.misses, 100);
        assert_eq!(s.l2.spatial_hits, 700);
        assert!((s.global_fault_rate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn amat_orders_policies_sensibly() {
        let map = BlockMap::strided(8);
        let trace = {
            // Mix: hot sparse items + streams, as in the examples.
            let mut t = Trace::new();
            for round in 0..300u64 {
                for hot in 0..48u64 {
                    t.push(ItemId(hot * 8));
                }
                for off in 0..8u64 {
                    t.push(ItemId((10_000 + round) * 8 + off));
                }
            }
            t
        };
        let run = |l2: &mut dyn GcPolicy| {
            let mut l1 = ItemLru::new(8);
            simulate_hierarchy(&mut l1, l2, &trace).amat(5.0, 100.0)
        };
        let mut iblp = Iblp::balanced(256, map.clone());
        let mut blk = BlockLru::new(256, map);
        let amat_iblp = run(&mut iblp);
        let amat_blk = run(&mut blk);
        assert!(
            amat_iblp < amat_blk,
            "IBLP L2 should win the mixed workload: {amat_iblp} vs {amat_blk}"
        );
    }

    #[test]
    fn accounting_adds_up() {
        let map = BlockMap::strided(4);
        let mut l1 = ItemLru::new(16);
        let mut l2 = Iblp::balanced(64, map);
        let mut x = 13u64;
        let ids: Vec<u64> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x % 300
            })
            .collect();
        let trace = Trace::from_ids(ids);
        let s = simulate_hierarchy(&mut l1, &mut l2, &trace);
        assert_eq!(s.l1.accesses, 5000);
        assert_eq!(s.l1.hits() + s.l1.misses, 5000);
        assert_eq!(s.l2.accesses, s.l1.misses);
        assert_eq!(s.l2.hits() + s.l2.misses, s.l2.accesses);
        assert!(s.global_fault_rate() <= s.l1.fault_rate());
    }

    #[test]
    fn empty_trace_zeroes() {
        let map = BlockMap::strided(4);
        let mut l1 = ItemLru::new(4);
        let mut l2 = BlockLru::new(16, map);
        let s = simulate_hierarchy(&mut l1, &mut l2, &Trace::new());
        assert_eq!(s.global_fault_rate(), 0.0);
        assert_eq!(s.amat(5.0, 100.0), 0.0);
    }
}
