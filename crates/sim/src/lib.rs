//! # gc-sim
//!
//! The simulation substrate: drives any [`GcPolicy`](gc_policies::GcPolicy)
//! over a [`Trace`](gc_types::Trace) and reports what happened.
//!
//! * [`engine`] — the single-pass simulator, with per-access attribution of
//!   hits to **temporal** vs **spatial** locality exactly as defined in §2
//!   of the paper (the first hit to a co-loaded item is spatial; every
//!   later hit is temporal).
//! * [`stats`] — the [`SimStats`](stats::SimStats) accumulator.
//! * [`probe`] — [`ProbeAdapter`](probe::ProbeAdapter), which lets the
//!   adaptive adversaries of `gc-trace` drive any policy.
//! * [`pool`] — the shared worker pool: std scoped threads with an
//!   atomic work cursor (Rayon-style dynamic work distribution without
//!   the dependency), results in job order.
//! * [`sweep`] — the parallel parameter-sweep harness
//!   ([`run_sweep`](sweep::run_sweep)), built on the pool: it isolates
//!   panicking cells and checkpoints progress.
//! * [`checkpoint`] — JSON checkpoint files for interruptible sweeps and
//!   MRC bundles, plus the stable config fingerprints that guard resume.
//! * [`compare`] — tabulate one capacity's sweep cells side by side.
//! * [`mrc`] — Mattson-stack miss-ratio curves (item- and block-granular)
//!   and the parallel, checkpointable [`mrc_bundle`](mrc::mrc_bundle) with
//!   its IBLP split grid.
//! * [`shards`] — SHARDS-style spatially-hashed reuse-distance sampling:
//!   approximate MRCs in near-linear time at rates down to 0.1 %, with a
//!   fixed-size adaptive mode.
//! * [`hierarchy`] — two-level (L1 → GC L2) composition, the Figure 1
//!   setting with per-level attribution and AMAT.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod compare;
pub mod engine;
pub mod hierarchy;
pub mod mrc;
pub mod pool;
pub mod probe;
pub mod shards;
pub mod stats;
pub mod sweep;

pub use checkpoint::{
    MrcCheckpoint, MrcCurveRecord, StableHasher, SweepCellOutcome, SweepCellRecord, SweepCheckpoint,
};
pub use engine::{
    simulate, simulate_compiled, simulate_compiled_with_warmup, simulate_with_warmup, SpatialSet,
};
pub use hierarchy::{simulate_hierarchy, HierarchyStats};
pub use mrc::{
    block_mrc, block_mrc_compiled, item_mrc, item_mrc_compiled, mrc_bundle, mrc_bundle_compiled,
    MissRatioCurve, MrcBundle, MrcMode, MrcRunConfig, SplitCell,
};
pub use pool::{run_indexed, run_indexed_checked, JobError};
pub use probe::ProbeAdapter;
pub use shards::{
    sampled_block_mrc, sampled_item_mrc, sampled_item_mrc_compiled, SampleStats, SamplerConfig,
};
pub use stats::SimStats;
pub use sweep::{
    run_cell, run_sweep, run_sweep_compiled, OnError, SweepJob, SweepOutcome, SweepResult,
    SweepRunConfig,
};
