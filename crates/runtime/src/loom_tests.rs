//! Model-checked interleaving tests for the runtime's four sync protocols.
//!
//! Compiled only under `--features loom`; run with
//!
//! ```text
//! cargo test -p gc-runtime --features loom loom_tests
//! ```
//!
//! Every test builds its state *inside* the [`gc_modelcheck`] closure and
//! spawns threads through [`crate::sync::thread`], so the checker owns the
//! schedule and explores every interleaving up to the preemption bound.
//! Bounds are explicit per test (not env-dependent): models small enough to
//! exhaust assert `!report.truncated`, so a regression that blows up the
//! schedule space is itself a failure.
//!
//! The protocols under check, and what each test would catch:
//!
//! 1. **Single-flight leader/waiter handshake** (`singleflight_*`): a lost
//!    wakeup between publish and wait, a waiter observing an unpublished
//!    slot, an error not reaching a coalesced waiter, a completed flight
//!    still joinable (retire-before-publish violated), a registered waiter
//!    the leader retires past without publishing (it would park forever),
//!    a late joiner handed a finished payload instead of leading fresh, a
//!    recycled flight carrying state from its last use, or — for the
//!    lock-free retire — a tombstone that gets joined instead of replaced,
//!    or a deadlock against the skipped opportunistic cleanup.
//! 2. **ReplySlot rendezvous** (`reply_slot_*`): a deposit the producer
//!    never observes, or a wakeup consumed without the job being taken.
//! 3. **Owner shutdown-by-disconnect** (`owner_pool_*`): a queued job
//!    dropped on shutdown, a reply slot left unfilled, or a join that
//!    deadlocks against a still-blocked owner.
//! 4. **Consistent-cut stats** (`locked_mode_*`, `owner_mode_*`): a stats
//!    read observing a shard mid-update (conservation laws broken at the
//!    cut).
//!
//! `seeded_notify_before_publish_deadlocks` and
//! `seeded_unshared_retire_strands_registered_waiter` keep the checker
//! honest: each model-checks a deliberately broken copy of the
//! single-flight publish protocol (notify *before* publish; decide "nobody
//! registered" before retiring) and asserts the checker reports the
//! deadlock. The first bug planted in `singleflight.rs` itself is caught
//! by test 1 — see EXPERIMENTS.md.

use crate::backend::{BlockBackend, SyntheticBackend};
use crate::config::{ExecMode, FetchPath, RuntimeConfig};
use crate::owner::{BatchJob, Msg, OwnerPool, ReplySlot};
use crate::runtime::GcRuntime;
use crate::singleflight::{FetchRole, SingleFlight};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use gc_modelcheck::Builder;
use gc_policies::PolicyKind;
use gc_types::{BlockMap, GcError, ItemId};

fn small_model() -> Builder {
    // Two preemptions covers the overwhelming majority of ordering bugs
    // (loom's own default context bound); the ceiling is a regression
    // tripwire, not a working bound — models here explore far fewer.
    Builder::new().preemptions(2).executions(150_000)
}

/// How many executions of a model reached each of its outcomes. A plain
/// std mutex: the tally lives outside the checked schedule and outlasts it.
struct Reached<const N: usize>(std::sync::Mutex<[usize; N]>);

impl<const N: usize> Reached<N> {
    const fn new() -> Self {
        Reached(std::sync::Mutex::new([0; N]))
    }

    fn hit(&self, outcome: usize) {
        self.0.lock().expect("tally lock")[outcome] += 1;
    }

    fn all(&self) -> bool {
        self.0.lock().expect("tally lock").iter().all(|&n| n > 0)
    }
}

/// How many of `calls` coalesced onto another call's load.
fn coalesced(calls: &[FetchRole]) -> usize {
    calls.iter().filter(|r| r.is_coalesced()).count()
}

/// Protocol 1: two concurrent fetches of the same key must agree — exactly
/// one backend load per `Led` role, identical payloads, the flight retired
/// by the time both calls return, and a later fetch leading fresh. The
/// main thread takes the runtime's path, `fetch_into` a reused buffer, so
/// the registration handshake is checked as the runtime drives it: the
/// joiner either registers before the leader's retire and is handed the
/// payload, or arrives after it and leads fresh — both are reached.
#[test]
fn singleflight_concurrent_fetches_coalesce_or_serialize() {
    static REACHED: Reached<2> = Reached::new();
    let report = small_model().check(|| {
        let sf = Arc::new(SingleFlight::new());
        let loads = Arc::new(AtomicUsize::new(0));
        let expect = vec![ItemId(36), ItemId(37)];

        let t = {
            let sf = Arc::clone(&sf);
            let loads = Arc::clone(&loads);
            thread::spawn(move || {
                sf.fetch(9, || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![ItemId(36), ItemId(37)])
                })
            })
        };
        // Junk in the reused buffer must be replaced, whichever role.
        let mut buf = vec![ItemId(99)];
        let (r_main, role_main) = sf.fetch_into(9, &mut buf, |out| {
            loads.fetch_add(1, Ordering::SeqCst);
            out.clear();
            out.extend([ItemId(36), ItemId(37)]);
            Ok(())
        });
        let (r_spawned, role_spawned) = t.join().expect("model thread");

        // One load per leader; a coalesced call rode a leader's load.
        // Every call paid one backend load or coalesced onto one: the
        // runtime's `misses == backend_fetches + coalesced_fetches`.
        let coalesced = coalesced(&[role_main, role_spawned]);
        let loads = loads.load(Ordering::SeqCst);
        assert!(loads >= 1, "someone must lead");
        assert_eq!(loads + coalesced, 2, "loads + coalesced == calls");
        REACHED.hit(coalesced);
        // Both observe the same complete payload, never a torn slot.
        r_main.expect("load never fails");
        assert_eq!(buf, expect);
        assert_eq!(*r_spawned.expect("load never fails"), expect);
        // Retire-before-publish: the table is empty once both returned,
        // and a fresh miss leads its own fetch instead of joining a
        // finished flight.
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.pending_waiters(), 0);
        let (_, role) = sf.fetch(9, || Ok(vec![ItemId(36), ItemId(37)]));
        assert!(!role.is_coalesced(), "finished flights must not be joined");
    });
    assert!(!report.truncated, "model must be exhausted, not truncated");
    assert!(report.executions > 1, "concurrency was actually explored");
    assert!(REACHED.all(), "both the shared and the fresh-lead outcome");
}

/// Protocol 1, several registered waiters: two misses racing one leader.
/// A waiter that registers finds the flight `LIVE` (and marks it
/// `JOINED`) or already `JOINED` by the other; either way the leader's
/// retire sees the mark and must publish and wake *both* — a waiter left
/// parked is a deadlock the checker reports. A miss that arrives after the
/// retire leads fresh. Loads plus coalesced calls always equal calls.
#[test]
fn singleflight_every_registered_waiter_is_woken() {
    static REACHED: Reached<3> = Reached::new();
    let report = small_model().check(|| {
        let sf = Arc::new(SingleFlight::new());
        let loads = Arc::new(AtomicUsize::new(0));
        let call = |sf: &SingleFlight, loads: &AtomicUsize| {
            let mut buf = Vec::new();
            let (r, role) = sf.fetch_into(2, &mut buf, |out| {
                loads.fetch_add(1, Ordering::SeqCst);
                out.clear();
                out.push(ItemId(8));
                Ok(())
            });
            r.expect("load never fails");
            assert_eq!(buf, vec![ItemId(8)], "every call ends with the block");
            role
        };

        let spawned: Vec<_> = (0..2)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let loads = Arc::clone(&loads);
                thread::spawn(move || call(&sf, &loads))
            })
            .collect();
        let mut calls = vec![call(&sf, &loads)];
        for t in spawned {
            calls.push(t.join().expect("model thread"));
        }

        let coalesced = coalesced(&calls);
        assert_eq!(
            loads.load(Ordering::SeqCst) + coalesced,
            3,
            "loads + coalesced == calls"
        );
        REACHED.hit(coalesced);
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.pending_waiters(), 0, "no waiter left parked");
    });
    assert!(!report.truncated, "model must be exhausted, not truncated");
    assert!(
        REACHED.all(),
        "0, 1 and 2 coalesced calls are all reachable"
    );
}

/// Protocol 1, failure path: when the leader's load fails, *every* call on
/// that flight (leader and any coalesced waiter) observes the error, the
/// flight is retired, and the next fetch leads fresh and can succeed.
#[test]
fn singleflight_error_reaches_every_waiter_and_retires() {
    let report = small_model().check(|| {
        let sf = Arc::new(SingleFlight::new());
        let fail = || Err(GcError::InvalidParameter("backend down".into()));

        let t = {
            let sf = Arc::clone(&sf);
            thread::spawn(move || sf.fetch(3, fail))
        };
        let (r_main, _) = sf.fetch(3, fail);
        let (r_spawned, _) = t.join().expect("model thread");

        // Regardless of who led and who coalesced, both see the failure.
        assert!(r_main.is_err(), "leader and waiter alike observe the error");
        assert!(r_spawned.is_err());
        // The failed flight must not wedge the key.
        assert_eq!(sf.in_flight(), 0);
        let (r, role) = sf.fetch(3, || Ok(vec![ItemId(12)]));
        assert!(!role.is_coalesced(), "retry leads a fresh fetch");
        assert_eq!(*r.expect("fresh fetch succeeds"), vec![ItemId(12)]);
    });
    assert!(!report.truncated);
    assert!(report.executions > 1);
}

/// Protocol 1, lock-free retire: the leader retires by flipping the
/// flight's atomic state (no stripe lock), leaving a tombstone whose
/// opportunistic cleanup may be skipped under contention. A miss racing
/// that completion window must either coalesce onto the still-live flight
/// or lead fresh off the tombstone — never join a finished flight, never
/// lose a load in the accounting, and never deadlock against the skipped
/// cleanup. This thread's second fetch usually leads on the flight its
/// first one recycled, so a recycled flight must behave as new. The
/// trailing fetch verifies tombstones are replaced, not joined, in every
/// reachable end state.
#[test]
fn singleflight_lockfree_retire_tombstones_are_never_joined() {
    let report = small_model().check(|| {
        let sf = Arc::new(SingleFlight::new());
        let loads = Arc::new(AtomicUsize::new(0));
        let payload = || vec![ItemId(20), ItemId(21)];

        let t = {
            let sf = Arc::clone(&sf);
            let loads = Arc::clone(&loads);
            thread::spawn(move || {
                sf.fetch(5, || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![ItemId(20), ItemId(21)])
                })
            })
        };
        // Two back-to-back fetches from this thread race the spawned
        // fetch's whole lifecycle — including its retire-to-cleanup window,
        // where the table briefly holds a tombstone.
        let (r1, role1) = sf.fetch(5, || {
            loads.fetch_add(1, Ordering::SeqCst);
            Ok(payload())
        });
        let (r2, role2) = sf.fetch(5, || {
            loads.fetch_add(1, Ordering::SeqCst);
            Ok(payload())
        });
        let (r3, role3) = t.join().expect("model thread");

        let coalesced = coalesced(&[role1, role2, role3]);
        assert!(coalesced < 3, "someone must lead");
        assert_eq!(
            loads.load(Ordering::SeqCst) + coalesced,
            3,
            "loads + coalesced == calls"
        );
        for r in [r1, r2, r3] {
            assert_eq!(*r.expect("load never fails"), payload(), "torn slot");
        }
        assert_eq!(sf.in_flight(), 0, "every flight retired");
        assert_eq!(sf.pending_waiters(), 0);
        // Whatever the table holds now (empty or one tombstone), a new
        // miss must lead its own fetch, never join a finished flight.
        let (_, role) = sf.fetch(5, || {
            loads.fetch_add(1, Ordering::SeqCst);
            Ok(payload())
        });
        assert!(!role.is_coalesced(), "finished flights must not be joined");
    });
    assert!(!report.truncated, "model must be exhausted, not truncated");
    assert!(report.executions > 1, "concurrency was actually explored");
}

/// Protocol 2: the ReplySlot mutex+condvar rendezvous never loses a job —
/// whichever side runs first, `wait` returns exactly the deposited job,
/// and the slot is reusable for the next exchange.
#[test]
fn reply_slot_handshake_never_loses_a_job() {
    let report = small_model().check(|| {
        let slot = ReplySlot::new();
        for round in 0..2u64 {
            let filler = {
                let slot = Arc::clone(&slot);
                thread::spawn(move || {
                    slot.fill(BatchJob {
                        items: vec![ItemId(round)],
                        replies: Vec::new(),
                    });
                })
            };
            let job = slot.wait();
            assert_eq!(job.items, vec![ItemId(round)], "job arrived intact");
            filler.join().expect("model thread");
            assert!(slot.try_take().is_none(), "slot drained after wait");
        }
    });
    assert!(!report.truncated);
    assert!(report.executions > 1);
}

/// Protocol 3: dropping the pool disconnects the channel; the owner must
/// drain every already-queued job (filling its slot) before exiting, and
/// the drop-side join must never deadlock against it.
#[test]
fn owner_pool_shutdown_drains_every_queued_job() {
    let report = small_model().check(|| {
        let map = BlockMap::strided(4);
        let backend: Arc<dyn BlockBackend> = Arc::new(SyntheticBackend::new(map.clone()));
        let pool = OwnerPool::new(
            &PolicyKind::ItemLru,
            [8].map(|c| (c, map.clone())).to_vec(),
            &None,
            &map,
            &backend,
            FetchPath::Inline,
            4,
        );
        let slots: Vec<_> = (0..2).map(|_| ReplySlot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            pool.send(
                0,
                Msg::Batch {
                    job: BatchJob {
                        items: vec![ItemId(i as u64)],
                        replies: Vec::new(),
                    },
                    slot: Arc::clone(slot),
                },
            );
        }
        drop(pool); // disconnect, drain, join
        for slot in &slots {
            let job = slot.try_take().expect("no reply may be lost on shutdown");
            assert_eq!(job.replies.len(), 1, "one reply per queued item");
        }
    });
    assert!(!report.truncated);
    assert!(report.executions > 1);
}

/// Protocol 4, locked engine: a stats read concurrent with a serving
/// thread must observe a consistent cut — conservation laws hold in every
/// snapshot, not just at quiescence. Inline fetches keep all fetch
/// accounting inside the shard critical section, so the invariants are
/// exact at *any* cut.
#[test]
fn locked_mode_stats_are_a_consistent_cut() {
    let report = small_model().check(|| {
        let map = BlockMap::strided(4);
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        let rt = Arc::new(
            GcRuntime::with_config(
                &PolicyKind::ItemLru,
                8,
                map,
                RuntimeConfig::new(1).with_fetch(FetchPath::Inline),
                backend,
            )
            .expect("valid config"),
        );

        let server = {
            let rt = Arc::clone(&rt);
            thread::spawn(move || {
                // Miss (fetch block 0), then temporal hit on the same item
                // (ItemLru admits only the requested item, not co-loaded
                // neighbours).
                rt.get(ItemId(0)).expect("serve");
                rt.get(ItemId(0)).expect("serve");
            })
        };
        // Concurrent cut: taken mid-trace in some schedules.
        for s in rt.per_shard_stats() {
            assert_eq!(
                s.accesses,
                s.temporal_hits + s.spatial_hits + s.misses,
                "every access is classified at every cut"
            );
            assert_eq!(
                s.misses, s.backend_fetches,
                "inline fetches settle inside the access critical section"
            );
        }
        server.join().expect("model thread");
        // Quiescent cut: exact totals.
        let agg = rt.aggregate_stats();
        assert_eq!(agg.accesses, 2);
        assert_eq!(agg.misses, 1);
        assert_eq!(agg.temporal_hits, 1);
        assert_eq!(agg.backend_fetches, 1);
        let sim = rt.drain();
        assert_eq!(sim.accesses, 2, "drain folds the same cut");
    });
    assert!(!report.truncated);
    assert!(report.executions > 1);
}

/// Protocol 4, owner engine: `per_shard_stats` pauses every owner at a
/// barrier; a snapshot racing a single-item `get` must still satisfy the
/// conservation laws, and shutdown after the race must be clean.
#[test]
fn owner_mode_snapshot_is_consistent_under_concurrent_gets() {
    let report = small_model().check(|| {
        let map = BlockMap::strided(4);
        let backend = Arc::new(SyntheticBackend::new(map.clone()));
        let rt = Arc::new(
            GcRuntime::with_config(
                &PolicyKind::ItemLru,
                8,
                map,
                RuntimeConfig::new(1)
                    .with_mode(ExecMode::Owner)
                    .with_fetch(FetchPath::Inline)
                    .with_queue_depth(2),
                backend,
            )
            .expect("valid config"),
        );

        let server = {
            let rt = Arc::clone(&rt);
            thread::spawn(move || {
                rt.get(ItemId(0)).expect("serve");
            })
        };
        for s in rt.per_shard_stats() {
            assert_eq!(
                s.accesses,
                s.temporal_hits + s.spatial_hits + s.misses,
                "barrier snapshot never splits an access"
            );
            assert_eq!(s.misses, s.backend_fetches);
        }
        server.join().expect("model thread");
        let agg = rt.aggregate_stats();
        assert_eq!(agg.accesses, 1);
        assert_eq!(agg.misses, 1);
        // Drop joins the owner; a lost disconnect would deadlock here and
        // be reported by the checker.
    });
    assert!(!report.truncated);
    assert!(report.executions > 1);
}

/// The checker catches the classic bug class these protocols avoid: a
/// leader that notifies *before* publishing. The waiter can wake on the
/// notification, find the slot still empty, and re-wait — after which no
/// further notification ever comes. Stress tests essentially never hit
/// this window; exhaustive interleaving finds it and reports the deadlock.
///
/// This is the permanent, in-tree record of the bug-seeding experiment in
/// EXPERIMENTS.md (same bug, planted in `singleflight.rs` itself).
#[test]
#[should_panic(expected = "deadlock")]
fn seeded_notify_before_publish_deadlocks() {
    struct BuggyFlight {
        slot: Mutex<Option<u64>>,
        cv: Condvar,
    }

    small_model().check(|| {
        let flight = Arc::new(BuggyFlight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });

        let leader = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || {
                // BUG: wake waiters first, publish second. The correct
                // protocol publishes and notifies under one lock section.
                flight.cv.notify_all();
                *flight.slot.lock() = Some(7);
            })
        };
        let value = {
            let mut slot = flight.slot.lock();
            loop {
                if let Some(v) = *slot {
                    break v;
                }
                slot = flight.cv.wait(slot);
            }
        };
        assert_eq!(value, 7);
        leader.join().expect("model thread");
    });
}

/// The checker catches the bug class the registration handshake avoids: a
/// leader that decides "nobody registered" and retires as two separate
/// steps. A waiter can register between the check and the retire; the
/// leader then skips the publish and the registered waiter parks forever.
/// The real leader decides and retires in one swap
/// (`singleflight_every_registered_waiter_is_woken` checks it).
#[test]
#[should_panic(expected = "deadlock")]
fn seeded_unshared_retire_strands_registered_waiter() {
    const LIVE: usize = 0;
    const JOINED: usize = 1;
    const RETIRED: usize = 2;
    struct BuggyFlight {
        state: AtomicUsize,
        slot: Mutex<Option<u64>>,
        cv: Condvar,
    }

    small_model().check(|| {
        let flight = Arc::new(BuggyFlight {
            state: AtomicUsize::new(LIVE),
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });

        let leader = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || {
                // BUG: check, then retire. The correct protocol learns
                // whether anyone registered from the retiring swap itself.
                let shared = flight.state.load(Ordering::SeqCst) == JOINED;
                flight.state.store(RETIRED, Ordering::SeqCst);
                if shared {
                    *flight.slot.lock() = Some(7);
                    flight.cv.notify_all();
                }
            })
        };
        let registered = flight
            .state
            .compare_exchange(LIVE, JOINED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        let value = if registered {
            let mut slot = flight.slot.lock();
            loop {
                if let Some(v) = *slot {
                    break v;
                }
                slot = flight.cv.wait(slot);
            }
        } else {
            7 // retired first: lead a fresh load
        };
        assert_eq!(value, 7);
        leader.join().expect("model thread");
    });
}
