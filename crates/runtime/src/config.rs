//! Runtime execution configuration: how requests reach the shards.
//!
//! The same [`GcRuntime`](crate::GcRuntime) API runs in two execution
//! modes and two fetch paths, all selected here:
//!
//! - [`ExecMode::Locked`] — each shard is a `Mutex<ShardCore>`; any caller
//!   thread acquires the lock and runs the policy in place. Simple,
//!   work-conserving, and the right default when callers ≈ cores.
//! - [`ExecMode::Owner`] — each shard is owned by one dedicated thread fed
//!   by a bounded MPSC queue; the policy runs lock-free on its owner and
//!   callers exchange batches through per-session reply slots. This removes
//!   the shard mutex entirely (and, architecturally, the `Send` bound on
//!   the policy object: the owner builds its policy on its own thread).
//!
//! - [`FetchPath::Coalesced`] — misses leave the shard and fetch through
//!   the striped single-flight table, so concurrent misses on one block
//!   share a single backend load. A led fetch loads into the session's
//!   reuse buffer and costs one flight-table registration and two
//!   timestamps besides the load; only a fetch another miss registered on
//!   also pays a shared copy and a condvar wake. The right choice for slow
//!   (disk/remote) backends, where the in-flight window is long.
//! - [`FetchPath::Inline`] — the block is materialized inside the shard
//!   critical section (lock holder or owner thread) straight into a
//!   per-shard reuse buffer: no allocation, no flight-table traffic, no
//!   timestamps. The right choice for RAM-fast backends, where a fetch
//!   costs less than even the uncontended flight-table registration.
//!
//! `batch` amortizes per-request synchronization: a
//! [`Session`](crate::Session) groups every `batch` consecutive requests
//! by destination shard and executes each group under one lock acquire
//! (locked) or one queue hand-off (owner). Per-shard request order is
//! always preserved, which is why batching cannot change single-threaded
//! results (see the differential suite).

use gc_types::GcError;
use std::str::FromStr;

/// How shard critical sections are executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Shards behind mutexes; callers run the policy in place.
    #[default]
    Locked,
    /// One owner thread per shard, fed by a bounded MPSC queue.
    Owner,
}

impl FromStr for ExecMode {
    type Err = GcError;
    fn from_str(s: &str) -> Result<Self, GcError> {
        match s {
            "locked" => Ok(ExecMode::Locked),
            "owner" => Ok(ExecMode::Owner),
            other => Err(GcError::InvalidParameter(format!(
                "unknown execution mode {other:?} (expected locked|owner)"
            ))),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecMode::Locked => "locked",
            ExecMode::Owner => "owner",
        })
    }
}

/// How miss-path block fetches are executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FetchPath {
    /// Fetch outside the shard through the single-flight table; concurrent
    /// misses on one block coalesce into one backend load.
    #[default]
    Coalesced,
    /// Fetch inside the shard critical section into a reuse buffer; no
    /// coalescing (fetches complete before the next request is served, so
    /// there is no in-flight window) and no fetch-latency histogram.
    Inline,
}

impl FromStr for FetchPath {
    type Err = GcError;
    fn from_str(s: &str) -> Result<Self, GcError> {
        match s {
            "coalesced" => Ok(FetchPath::Coalesced),
            "inline" => Ok(FetchPath::Inline),
            other => Err(GcError::InvalidParameter(format!(
                "unknown fetch path {other:?} (expected coalesced|inline)"
            ))),
        }
    }
}

impl std::fmt::Display for FetchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FetchPath::Coalesced => "coalesced",
            FetchPath::Inline => "inline",
        })
    }
}

/// Execution knobs for a [`GcRuntime`](crate::GcRuntime).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of block-affine shards.
    pub shards: usize,
    /// How shard critical sections run.
    pub mode: ExecMode,
    /// Session batch window: consecutive requests grouped per shard and
    /// executed under one synchronization event. `1` disables batching.
    pub batch: usize,
    /// Miss-path fetch execution.
    pub fetch: FetchPath,
    /// Owner-mode queue bound, in messages per shard. Producers block when
    /// an owner falls this far behind (backpressure, bounded memory).
    pub queue_depth: usize,
}

impl RuntimeConfig {
    /// Defaults matching the pre-config runtime: locked shards, no
    /// batching, coalesced fetches.
    pub fn new(shards: usize) -> Self {
        RuntimeConfig {
            shards,
            mode: ExecMode::Locked,
            batch: 1,
            fetch: FetchPath::Coalesced,
            queue_depth: 4,
        }
    }

    /// Select the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Select the session batch window (floored at 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Select the miss-path fetch execution.
    pub fn with_fetch(mut self, fetch: FetchPath) -> Self {
        self.fetch = fetch;
        self
    }

    /// Select the owner-mode queue bound (floored at 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Validate the configuration against a capacity.
    pub(crate) fn validate(&self, capacity: usize) -> Result<(), GcError> {
        if self.shards == 0 {
            return Err(GcError::ZeroShards);
        }
        if capacity == 0 {
            return Err(GcError::ZeroCapacity);
        }
        if capacity < self.shards {
            return Err(GcError::CapacityTooSmall {
                capacity,
                required: self.shards,
            });
        }
        if self.batch == 0 {
            return Err(GcError::InvalidParameter("batch must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(GcError::InvalidParameter("queue_depth must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for mode in [ExecMode::Locked, ExecMode::Owner] {
            assert_eq!(mode.to_string().parse::<ExecMode>().unwrap(), mode);
        }
        for fetch in [FetchPath::Coalesced, FetchPath::Inline] {
            assert_eq!(fetch.to_string().parse::<FetchPath>().unwrap(), fetch);
        }
        assert!("bogus".parse::<ExecMode>().is_err());
        assert!("bogus".parse::<FetchPath>().is_err());
    }

    #[test]
    fn builder_floors_and_validates() {
        let cfg = RuntimeConfig::new(4).with_batch(0).with_queue_depth(0);
        assert_eq!(cfg.batch, 1);
        assert_eq!(cfg.queue_depth, 1);
        assert!(cfg.validate(16).is_ok());
        assert!(RuntimeConfig::new(0).validate(16).is_err());
        assert!(RuntimeConfig::new(4).validate(0).is_err());
        assert!(RuntimeConfig::new(8).validate(4).is_err());
    }
}
