//! Owner-thread shard execution: one thread per shard, fed by a bounded
//! MPSC queue, with completions returned through per-session reply slots.
//!
//! In this mode the policy runs **lock-free**: only the owner thread ever
//! touches its [`ShardCore`], so there is no `Mutex<ShardState>` and no
//! cache line ping-pong on the policy's hot structures. The owner builds
//! its policy *on its own thread* (via `PolicyKind::build`), so the
//! architecture needs no `Send` bound on the policy object — the only
//! things that cross threads are plain request/reply buffers.
//!
//! The hand-off protocol is allocation-recycling: a producer sends a
//! [`BatchJob`] (an items vector plus a replies vector), the owner fills
//! the replies in request order — one [`ShardCore::serve`] result per item,
//! inline fetches already done — and sends the *same* job back through the
//! producer's [`ReplySlot`]; steady state moves two `Vec`s back and forth
//! with no allocation. Queues are bounded (`queue_depth` messages), so a
//! fast producer blocks in `send` instead of growing memory — closed-loop
//! backpressure.
//!
//! Shutdown is by channel disconnect: dropping the [`OwnerPool`] drops the
//! senders; each owner drains every message already queued (std MPSC
//! guarantees `recv` only errors once the queue is empty *and* all senders
//! are gone), fills any outstanding reply slots, and exits; the pool's
//! `Drop` then joins every owner. No reply is ever lost and no side can
//! deadlock: owners never block on a slot (filling is non-blocking) and
//! producers never hold anything an owner needs while waiting.

use crate::backend::BlockBackend;
use crate::config::FetchPath;
use crate::core::{Served, ShardCore};
use crate::sync::mpsc::{Receiver, SyncSender};
use crate::sync::thread::JoinHandle;
use crate::sync::{self, Arc, Barrier, Condvar, Mutex};
use gc_policies::PolicyKind;
use gc_types::{BlockMap, GcError, ItemId, LocalIds, RuntimeStats};

/// A recyclable request/reply exchange: producers fill `items`, owners
/// fill `replies` (one [`ShardCore::serve`] result per item, same order)
/// and send the job back.
#[derive(Debug, Default)]
pub(crate) struct BatchJob {
    pub items: Vec<ItemId>,
    pub replies: Vec<Result<Served, GcError>>,
}

/// A single-producer reply slot: the owner deposits the finished job, the
/// producer picks it up. One slot per (session, shard) pair, reused for
/// every exchange, so the rendezvous allocates nothing in steady state.
#[derive(Default)]
pub(crate) struct ReplySlot {
    slot: Mutex<Option<BatchJob>>,
    cv: Condvar,
}

impl ReplySlot {
    pub fn new() -> Arc<Self> {
        Arc::new(ReplySlot::default())
    }

    /// Deposit a finished job (owner side; never blocks).
    pub fn fill(&self, job: BatchJob) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "reply slot reused while occupied");
        *slot = Some(job);
        self.cv.notify_one();
    }

    /// Block until a job is deposited and take it (producer side).
    pub fn wait(&self) -> BatchJob {
        let mut slot = self.slot.lock();
        loop {
            // Take-under-lock: if the slot is filled when the wait
            // returns, the owner's deposit happened before our wakeup.
            if let Some(job) = slot.take() {
                return job;
            }
            slot = self.cv.wait(slot);
        }
    }

    /// Non-blocking probe used by shutdown tests.
    #[cfg(test)]
    pub fn try_take(&self) -> Option<BatchJob> {
        self.slot.lock().take()
    }
}

pub(crate) enum Msg {
    /// Run a batch of accesses and return the job through `slot`.
    Batch { job: BatchJob, slot: Arc<ReplySlot> },
    /// Write this shard's stats into `out[idx]`, then rendezvous on
    /// `barrier` so the coordinator reads one consistent cross-shard cut
    /// (no shard serves new batches while any shard is still writing).
    Snapshot {
        idx: usize,
        out: Arc<Mutex<Vec<Option<RuntimeStats>>>>,
        barrier: Arc<Barrier>,
    },
    /// Reset the shard, then rendezvous on `barrier`.
    Reset { barrier: Arc<Barrier> },
}

/// The owner-mode engine: one bounded sender per shard plus the join
/// handles of the owner threads.
pub(crate) struct OwnerPool {
    txs: Vec<SyncSender<Msg>>,
    joins: Vec<JoinHandle<()>>,
}

impl OwnerPool {
    /// Spawn one owner per `(capacity, policy map)` entry. Each owner
    /// builds its own policy instance on its own thread.
    ///
    /// # Panics
    /// A policy constructor that panics (e.g. IBLP refusing a capacity
    /// too small for one block) panics **on the owner thread**; without
    /// care that panic would be swallowed by the dead thread and every
    /// later `get` would park forever on a reply that never comes. Each
    /// owner therefore sends a readiness ack after its policy is built,
    /// and `new` re-raises a missing ack as the original panic on the
    /// calling thread — the same surface a locked-mode constructor
    /// failure has.
    pub fn new(
        kind: &PolicyKind,
        shards: Vec<(usize, BlockMap)>,
        local: &Option<Arc<LocalIds>>,
        map: &BlockMap,
        backend: &Arc<dyn BlockBackend>,
        fetch: FetchPath,
        queue_depth: usize,
    ) -> Self {
        let mut txs = Vec::with_capacity(shards.len());
        let mut joins: Vec<JoinHandle<()>> = Vec::with_capacity(shards.len());
        for (i, (capacity, policy_map)) in shards.into_iter().enumerate() {
            let (tx, rx) = sync::mpsc::sync_channel(queue_depth);
            let (ready_tx, ready_rx) = sync::mpsc::sync_channel::<()>(1);
            let kind = kind.clone();
            let local = local.clone();
            let map = map.clone();
            let backend = Arc::clone(backend);
            let join = sync::thread::Builder::new()
                .name(format!("gc-shard-{i}"))
                .spawn(move || {
                    // Built here, on the owner thread: the policy never
                    // crosses a thread boundary, so no `Send` bound.
                    let policy = kind.build(capacity, &policy_map);
                    let core = ShardCore::new(policy, local, map, fetch, backend);
                    // Ack construction; if `build` panicked, `ready_tx`
                    // drops un-sent and `new` re-raises on the caller.
                    let _ = ready_tx.send(());
                    owner_loop(rx, core);
                })
                // lint: allow(panic): a failed OS thread spawn leaves the
                // runtime unbuildable; there is no degraded mode to fall
                // back to.
                .expect("spawn shard owner thread");
            if ready_rx.recv().is_err() {
                // The owner died before acking: harvest its panic and
                // re-raise it here so the constructor fails loudly
                // instead of leaving producers to block on dead shards.
                // Drop the queued txs first so already-spawned owners
                // disconnect and exit before we unwind.
                drop(tx);
                txs.clear();
                for join in joins.drain(..) {
                    let _ = join.join();
                }
                match join.join() {
                    Err(payload) => std::panic::resume_unwind(payload),
                    // lint: allow(panic): an owner that exits cleanly
                    // without acking readiness is unreachable — the ack
                    // precedes `owner_loop`, which cannot return while
                    // `tx` is alive above.
                    Ok(()) => unreachable!("owner exited without readiness ack"),
                }
            }
            txs.push(tx);
            joins.push(join);
        }
        OwnerPool { txs, joins }
    }

    /// Send a message to shard `shard`, blocking if its queue is full.
    pub fn send(&self, shard: usize, msg: Msg) {
        self.txs[shard]
            .send(msg)
            // lint: allow(panic): owners exit only on disconnect, and
            // disconnect only happens in `Drop` after `txs` is cleared —
            // a send that finds a dead owner means the owner panicked,
            // which `Drop` surfaces; propagating here is the only honest
            // option.
            .expect("shard owner exited while runtime alive");
    }

    /// Number of owner threads.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// One consistent cross-shard stats cut: every owner pauses at the
    /// same barrier after writing its snapshot, so no shard's counters
    /// move while another's are being read.
    pub fn snapshot_all(&self) -> Vec<RuntimeStats> {
        let n = self.txs.len();
        let out = Arc::new(Mutex::new(vec![None; n]));
        let barrier = Arc::new(Barrier::new(n + 1));
        for (idx, _) in self.txs.iter().enumerate() {
            self.send(
                idx,
                Msg::Snapshot {
                    idx,
                    out: Arc::clone(&out),
                    barrier: Arc::clone(&barrier),
                },
            );
        }
        barrier.wait();
        let mut out = out.lock();
        out.iter_mut()
            // lint: allow(panic): the barrier has `n + 1` parties, so
            // `wait` returning proves all `n` owners passed their write.
            .map(|s| s.take().expect("every owner wrote its snapshot"))
            .collect()
    }

    /// Reset every shard at one barrier-aligned point.
    pub fn reset_all(&self) {
        let barrier = Arc::new(Barrier::new(self.txs.len() + 1));
        for idx in 0..self.txs.len() {
            self.send(
                idx,
                Msg::Reset {
                    barrier: Arc::clone(&barrier),
                },
            );
        }
        barrier.wait();
    }
}

impl Drop for OwnerPool {
    fn drop(&mut self) {
        // Disconnect: owners drain their queues (std MPSC delivers every
        // queued message before reporting disconnect), then exit.
        self.txs.clear();
        for join in self.joins.drain(..) {
            // A panicked owner already poisoned the run via missing
            // replies; surface it here instead of hiding it.
            if let Err(payload) = join.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// The owner thread body: drain messages until disconnect.
fn owner_loop(rx: Receiver<Msg>, mut core: ShardCore<dyn gc_policies::GcPolicy>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch { mut job, slot } => {
                job.replies.clear();
                job.replies
                    .extend(job.items.iter().map(|&item| core.serve(item)));
                slot.fill(job);
            }
            Msg::Snapshot { idx, out, barrier } => {
                out.lock()[idx] = Some(core.stats.clone());
                barrier.wait();
            }
            Msg::Reset { barrier } => {
                core.reset();
                barrier.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SyntheticBackend;

    fn pool(fetch: FetchPath, queue_depth: usize) -> (OwnerPool, BlockMap) {
        let map = BlockMap::strided(4);
        let backend: Arc<dyn BlockBackend> = Arc::new(SyntheticBackend::new(map.clone()));
        let pool = OwnerPool::new(
            &PolicyKind::ItemLru,
            [8, 8].map(|c| (c, map.clone())).to_vec(),
            &None,
            &map,
            &backend,
            fetch,
            queue_depth,
        );
        (pool, map)
    }

    #[test]
    fn batch_roundtrip_fills_replies_in_order() {
        let (pool, _) = pool(FetchPath::Inline, 2);
        let slot = ReplySlot::new();
        let job = BatchJob {
            items: vec![ItemId(0), ItemId(1), ItemId(0)],
            replies: Vec::new(),
        };
        pool.send(
            0,
            Msg::Batch {
                job,
                slot: Arc::clone(&slot),
            },
        );
        let job = slot.wait();
        let fetched = Ok(Served::Fetched {
            admitted: 1,
            fetched: 4,
        });
        assert_eq!(
            job.replies,
            vec![fetched.clone(), fetched, Ok(Served::Hit { spatial: false })]
        );
    }

    #[test]
    fn drop_drains_queued_jobs_and_fills_every_slot() {
        // Queue several jobs without collecting replies, then drop the
        // pool: every queued job must still be executed and every slot
        // filled (no lost replies), and drop must not deadlock.
        let (pool, _) = pool(FetchPath::Inline, 8);
        let slots: Vec<Arc<ReplySlot>> = (0..6).map(|_| ReplySlot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            pool.send(
                i % 2,
                Msg::Batch {
                    job: BatchJob {
                        items: vec![ItemId(i as u64)],
                        replies: Vec::new(),
                    },
                    slot: Arc::clone(slot),
                },
            );
        }
        drop(pool); // joins both owners
        for slot in &slots {
            let job = slot.try_take().expect("reply delivered before join");
            assert_eq!(job.replies.len(), 1);
        }
    }

    /// A policy constructor that panics on the owner thread must re-raise
    /// on the constructing thread (liveness: otherwise every later `get`
    /// parks forever on a shard that no longer exists). IBLP refuses a
    /// block layer smaller than one block, which makes it a natural
    /// panicking constructor here.
    #[test]
    #[should_panic(expected = "cannot hold a block")]
    fn constructor_panic_propagates_to_caller() {
        let map = BlockMap::strided(64);
        let backend: Arc<dyn BlockBackend> = Arc::new(SyntheticBackend::new(map.clone()));
        let _pool = OwnerPool::new(
            &PolicyKind::IblpBalanced,
            [8, 8].map(|c| (c, map.clone())).to_vec(),
            &None,
            &map,
            &backend,
            FetchPath::Inline,
            2,
        );
    }

    #[test]
    fn snapshot_is_a_consistent_cut() {
        let (pool, _) = pool(FetchPath::Inline, 2);
        let slot = ReplySlot::new();
        pool.send(
            0,
            Msg::Batch {
                job: BatchJob {
                    items: vec![ItemId(0), ItemId(4), ItemId(8)],
                    replies: Vec::new(),
                },
                slot: Arc::clone(&slot),
            },
        );
        slot.wait();
        let stats = pool.snapshot_all();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].accesses + stats[1].accesses, 3);
        pool.reset_all();
        let stats = pool.snapshot_all();
        assert_eq!(stats[0].accesses + stats[1].accesses, 0);
    }
}
