//! # gc-types
//!
//! Shared vocabulary for the Granularity-Change (GC) Caching library.
//!
//! This crate defines the core model objects from *"Spatial Locality and
//! Granularity Change in Caching"* (Beckmann, Gibbons, McGuffey; SPAA 2022):
//!
//! * [`ItemId`] / [`BlockId`] — strongly typed identifiers for the two data
//!   granularities,
//! * [`BlockMap`] — the partition of the item universe into blocks of at
//!   most `B` items,
//! * [`Trace`] — a sequence of item requests,
//! * [`CompiledTrace`] / [`CompiledAccess`] — the dense-ID compiled form
//!   of a trace (hot loops stream over precomputed `(item, block)` pairs),
//! * [`AccessResult`] / [`HitKind`] — the per-access outcome vocabulary
//!   shared between policies and the simulator, plus the zero-allocation
//!   [`AccessKind`] / [`AccessScratch`] pair used by the hot path,
//! * [`RuntimeStats`] / [`LatencyHistogram`] — the serving runtime's
//!   stats shape: the simulator counters plus fetch-path telemetry
//!   (single-flight coalescing, admitted-vs-fetched, latency buckets),
//! * [`fxmap`] — a fast, dependency-free hash map for dense integer keys,
//! * [`json`] — the JSON value, reader and writer behind trace files;
//!   [`ItemId`], [`Trace`] and [`BlockMap`] implement its
//!   [`ToJson`](json::ToJson)/[`FromJson`](json::FromJson),
//! * [`rng`] — the seeded splitmix64 generator every trace and randomized
//!   policy draws from.
//!
//! Everything heavier (policies, simulation, bounds) lives in downstream
//! crates; this crate has no dependencies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block_map;
pub mod compiled;
pub mod error;
pub mod fxmap;
pub mod id;
pub mod json;
pub mod outcome;
pub mod rng;
pub mod runtime_stats;
pub mod trace;

pub use block_map::{BlockMap, DenseDecode, DenseMap, DensePartition, LocalIds};
pub use compiled::{CompiledAccess, CompiledTrace};
pub use error::{GcError, ParseReason};
pub use fxmap::{mix64, FxBuildHasher, FxHashMap, FxHashSet};
pub use id::{BlockId, ItemId};
pub use outcome::{AccessKind, AccessResult, AccessScratch, HitKind};
pub use runtime_stats::{LatencyHistogram, RuntimeStats, TierStats};
pub use trace::Trace;
