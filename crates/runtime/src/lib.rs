//! # gc-runtime — a concurrent, sharded GC-cache serving runtime
//!
//! The offline crates answer *"how good is this policy on this trace?"*
//! one access at a time, single-threaded. This crate answers the serving
//! question: *"what does a GC cache look like as a concurrent front end
//! to block-granular storage?"* It assembles three pieces:
//!
//! - [`GcRuntime`] — keys hash-sharded **by block** to `S` shards, each an
//!   independent policy instance. The per-access critical section is
//!   byte-for-byte the offline engine's loop body, so a 1-shard runtime
//!   driven by 1 thread produces **bit-identical** statistics to
//!   [`gc_sim::simulate`] — in every execution mode and at every batch
//!   size.
//! - [`RuntimeConfig`] — how requests reach the shards: mutex-guarded
//!   shards driven in place by callers ([`ExecMode::Locked`]) or one owner
//!   thread per shard fed by bounded queues ([`ExecMode::Owner`], policy
//!   runs lock-free); the [`FetchPath`] of misses, fetched inside the
//!   critical section or coalesced through the flight table; and the
//!   [`Session`] batch window that amortizes synchronization over many
//!   requests.
//! - [`SingleFlight`] — misses fetch the whole block through a striped
//!   single-flight table: concurrent misses on items of the same block
//!   coalesce into **one** backend load (the paper's unit-cost
//!   granularity-change rule, operationalized), and every coalesced miss
//!   observes the same fetched block.
//! - [`BlockBackend`] — the storage layer that materializes whole blocks;
//!   [`SyntheticBackend`] emulates device latency and jitter so the
//!   closed-loop harness ([`serve_trace`], one worker per disjoint shard
//!   set) can explore lock-bound and latency-bound regimes without real
//!   devices.
//! - [`store`] — physical storage tiers behind the backend trait: a
//!   persistent crash-safe [`DiskBackend`], a bounded in-RAM
//!   [`MemBackend`], the [`TieredBackend`] L1/L2 combinator with per-tier
//!   latency telemetry, and [`BackendSpec`] parsing for
//!   `serve --backend mem|synthetic:…|disk:<path>|tiered:<l1>+<l2>`.
//!
//! The split the model cares about is visible in the counters:
//! [`RuntimeStats`](gc_types::RuntimeStats) distinguishes what the backend
//! *fetched* (whole blocks) from what the policies *admitted* (chosen
//! subsets), and counts coalesced fetches separately from led ones, so
//! `misses == backend_fetches + coalesced_fetches` always holds. Counters
//! are accumulated shard-locally and session-locally — the request hot
//! path shares no atomics — and snapshots are consistent cross-shard cuts.
//!
//! # Concurrency correctness
//!
//! All synchronization goes through the [`sync`] facade module; building
//! with `--features loom` swaps in `gc-modelcheck`'s scheduler-mediated
//! primitives and enables an in-crate suite that exhaustively
//! model-checks the runtime's protocols (`cargo test -p gc-runtime
//! --features loom`). See DESIGN.md's "Concurrency invariants" section for
//! the protocol-by-protocol claims and which check enforces each.

#![warn(missing_docs)]

pub mod backend;
pub mod config;
mod core;
pub mod harness;
mod owner;
pub mod runtime;
pub mod session;
pub mod singleflight;
pub mod store;
pub mod sync;

#[cfg(all(test, feature = "loom"))]
mod loom_tests;

pub use backend::{BlockBackend, CountingBackend, SyntheticBackend};
pub use config::{ExecMode, FetchPath, RuntimeConfig};
pub use harness::{serve_trace, serve_trace_compiled, ServeReport};
pub use runtime::{shard_capacities, GcRuntime, ServeOutcome};
pub use session::Session;
pub use singleflight::{FetchResult, FetchRole, SingleFlight};
pub use store::{BackendSpec, BlockStore, DiskBackend, MemBackend, TieredBackend};
