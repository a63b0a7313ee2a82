//! # gc-cache
//!
//! Granularity-Change caching: policies, bounds, and simulation.
//!
//! This is the umbrella crate for a from-scratch Rust reproduction of
//! *"Spatial Locality and Granularity Change in Caching"* (Beckmann,
//! Gibbons, McGuffey — SPAA 2022 brief announcement / arXiv:2205.14543).
//!
//! ## The problem in one paragraph
//!
//! Block granularity grows as you descend the memory hierarchy: 64 B cache
//! lines sit on 2–4 KB DRAM rows, which sit on 4 KB flash pages. When the
//! level below has already fetched a whole block, a cache can take *any
//! subset of that block for the price of one item* — but almost all caches
//! ignore this. The **GC Caching Problem** (Definition 1) formalizes the
//! opportunity: unit-size items partitioned into blocks of at most `B`, a
//! miss may load any subset of the missing item's block for unit cost, and
//! items are cached/evicted individually.
//!
//! ## Quick start
//!
//! ```
//! use gc_cache::prelude::*;
//!
//! // Items grouped into blocks of 8, like cache lines on a DRAM row.
//! let map = BlockMap::strided(8);
//!
//! // The paper's policy: an item-LRU layer in front of a block-LRU layer.
//! let mut cache = Iblp::new(64, 64, map.clone());
//!
//! // A workload with both temporal skew and spatial runs.
//! let trace = gc_trace::synthetic::block_runs(&gc_trace::synthetic::BlockRunConfig {
//!     num_blocks: 256,
//!     block_size: 8,
//!     block_theta: 0.8,
//!     spatial_locality: 0.7,
//!     len: 10_000,
//!     seed: 42,
//! });
//!
//! let stats = gc_sim::simulate(&mut cache, &trace);
//! assert!(stats.hits() > 0);
//! println!(
//!     "fault rate {:.3}, {} spatial hits",
//!     stats.fault_rate(),
//!     stats.spatial_hits
//! );
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`gc_types`] | `ItemId`/`BlockId`, `BlockMap`, `Trace`, access results |
//! | [`gc_trace`] | synthetic workloads, the §4/§7 adversaries, `f`/`g` analysis |
//! | [`gc_policies`] | item caches, block caches, IBLP (§5), GCM (§6), `a`-family |
//! | [`gc_sim`] | simulator with temporal/spatial attribution, parallel sweeps |
//! | [`gc_runtime`] | concurrent sharded serving runtime, single-flight block fetching |
//! | [`gc_offline`] | Belady, block-aware Belady, exact optima, Theorem 1 reduction |
//! | [`gc_bounds`] | Theorems 2–7 closed forms, Figure 3/6 + Table 1 generators |
//! | [`gc_locality`] | the §7 locality model, Theorems 8–11, Table 2 |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use gc_bounds;
pub use gc_locality;
pub use gc_offline;
pub use gc_policies;
pub use gc_runtime;
pub use gc_sim;
pub use gc_trace;
pub use gc_types;

/// The most common imports, for examples and applications.
pub mod prelude {
    pub use gc_policies::{
        AdaptiveIblp, BlockFifo, BlockLru, GcPolicy, Gcm, Iblp, IblpConfig, ItemClock, ItemFifo,
        ItemLfu, ItemLru, ItemRandom, LruK, PolicyKind, Slru, ThresholdLoad, TwoQ, WTinyLfu,
    };
    pub use gc_runtime::{
        serve_trace, serve_trace_compiled, BlockBackend, ExecMode, FetchPath, GcRuntime,
        RuntimeConfig, ServeOutcome, ServeReport, Session, SyntheticBackend,
    };
    pub use gc_sim::{
        simulate, simulate_compiled, simulate_compiled_with_warmup, simulate_with_warmup,
        ProbeAdapter, SimStats, SpatialSet,
    };
    pub use gc_types::{
        AccessKind, AccessResult, AccessScratch, BlockId, BlockMap, CompiledTrace, GcError,
        HitKind, ItemId, LatencyHistogram, RuntimeStats, Trace,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_runs() {
        let map = BlockMap::strided(4);
        let mut cache = Iblp::balanced(32, map);
        let trace = Trace::from_ids([0, 1, 2, 3, 0, 1]);
        let stats = simulate(&mut cache, &trace);
        assert_eq!(stats.accesses, 6);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn prelude_reaches_the_runtime() {
        let map = BlockMap::strided(4);
        let backend = std::sync::Arc::new(SyntheticBackend::new(map.clone()));
        let rt = GcRuntime::new(&PolicyKind::IblpBalanced, 32, map, 2, backend).unwrap();
        let report = serve_trace(&rt, &Trace::from_ids([0, 1, 2, 3, 0, 1]), 2).unwrap();
        assert_eq!(report.stats.accesses, 6);
        assert_eq!(
            report.stats.misses,
            report.stats.backend_fetches + report.stats.coalesced_fetches
        );
    }
}
