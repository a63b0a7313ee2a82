//! The single-flight block fetch table, striped for the hot path.
//!
//! When several threads miss on items of the same block while a fetch of
//! that block is in flight, exactly one of them (the *leader*) performs
//! the backend load; the rest (*coalesced waiters*) block until the leader
//! publishes the result and then observe the **same fetched block** — one
//! unit of backend cost serves every concurrent miss on the block. This is
//! the paper's granularity-change rule made operational: the backend
//! always returns the whole block, and each waiter's policy independently
//! decides which subset to admit.
//!
//! # Why stripes
//!
//! The table used to be one global `Mutex<HashMap>`: every miss locked it
//! twice on the leader path (insert, then a second global acquire to
//! retire the completed flight) and `len()` locked it too, so under load
//! the *coordination* table became the contended resource it was meant to
//! remove. Flights are now spread over [`STRIPES`] independent
//! mutex-guarded maps keyed by a hash of the block id:
//!
//! - leaders and waiters for different blocks almost never share a lock;
//! - the completed-flight retire is **lock-free**: the leader flips the
//!   flight's atomic state to retired *before* publishing, so the led-fetch
//!   completion path never re-acquires the stripe lock. The map entry
//!   becomes a tombstone that the next same-key miss replaces in place
//!   (while already holding the stripe lock for its own lookup); the
//!   leader additionally removes it opportunistically with a `try_lock`
//!   that is skipped under contention;
//! - [`in_flight`](SingleFlight::in_flight) reads an atomic counter
//!   maintained on lead/retire instead of locking any table.
//!
//! # Sharing only with registered waiters
//!
//! Most led fetches have nobody waiting on them — a one-thread session
//! never coalesces on the table at all — so a leader pays for sharing only
//! when a waiter exists. A miss that finds a live flight *registers* on it
//! before it parks: under the stripe lock it already holds for the lookup,
//! it moves the flight's state from `LIVE` to `JOINED`. The leader's
//! retire is one atomic swap to `RETIRED` that returns the state it
//! replaced:
//!
//! - `JOINED`: the leader copies its block into a shared payload,
//!   publishes it under the flight's slot mutex and wakes every waiter.
//!   Each registered waiter set `JOINED` before the swap, so none can park
//!   unseen;
//! - `LIVE`: nobody can ever wait on this flight — a miss arriving later
//!   finds `RETIRED`, treats the entry as a tombstone and leads fresh — so
//!   the leader touches neither the slot nor the condvar and builds no
//!   payload.
//!
//! A leader that ends up holding the last reference to its flight (always,
//! when nobody joined and its cleanup got the stripe lock) resets it and
//! hands it back to its stripe, whose next leader reuses it instead of
//! allocating.
//!
//! The runtime's leader loads into its session's reuse buffer (`fetch_into`),
//! so an uncontended led fetch costs its backend load, one table
//! registration and its two timestamps: no allocation and no futex wake.
//!
//! Retiring before publishing changes one boundary case: a miss that
//! arrives between retire and publish (or after an unshared retire) leads
//! a fresh fetch instead of joining the finished one. That is strictly
//! more conservative (never serves a stale result, costs at most one extra
//! load, counted as led) and keeps the conservation law
//! `misses == led + coalesced` exact.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Condvar, Mutex};
use gc_types::{mix64, FxHashMap, GcError, ItemId};
use std::collections::hash_map::Entry;
use std::time::{Duration, Instant};

/// Number of independent flight-table stripes (power of two).
pub const STRIPES: usize = 16;

/// The shared fetch result: the whole block's items, or the load failure.
pub type FetchResult = Result<Arc<Vec<ItemId>>, GcError>;

/// Flight state: joinable, no waiter registered yet.
const LIVE: usize = 0;
/// Flight state: joinable, and at least one waiter registered — the
/// leader must publish a shared result and wake it.
const JOINED: usize = 1;
/// Flight state: the leader's load completed; the table entry is a
/// tombstone and same-key misses must lead fresh.
const RETIRED: usize = 2;

/// One in-flight fetch: an atomic lifecycle state, a slot the leader
/// fills when waiters registered, and a condvar they sleep on.
struct Flight {
    /// [`LIVE`], then [`JOINED`] once a waiter registers, then
    /// [`RETIRED`] when the leader's load completes. The retire is the
    /// leader's one swap — it happens before any publish, with no stripe
    /// lock held.
    state: AtomicUsize,
    slot: Mutex<Option<FetchResult>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: AtomicUsize::new(LIVE),
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Register a waiter; false when the flight already retired (a
    /// tombstone). Joiners call this under the stripe lock, so the only
    /// concurrent write it can race is the leader's [`retire`](Self::retire).
    fn join(&self) -> bool {
        match self
            .state
            .compare_exchange(LIVE, JOINED, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => true,
            Err(now) => now == JOINED,
        }
    }

    /// Retire the flight; whether a waiter registered first and must be
    /// served a published result.
    fn retire(&self) -> bool {
        self.state.swap(RETIRED, Ordering::SeqCst) == JOINED
    }

    /// Make a flight nobody else holds as good as new, dropping any shared
    /// result.
    fn reset(&mut self) {
        *self.state.get_mut() = LIVE;
        *self.slot.get_mut() = None;
    }
}

/// One stripe of the table: the flights of its keys, and retired flights
/// nobody holds any more, reset for the stripe's next leaders.
#[derive(Default)]
struct Stripe {
    flights: FxHashMap<u64, Arc<Flight>>,
    spare: Vec<Arc<Flight>>,
}

/// How a [`SingleFlight::fetch`] call was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchRole {
    /// This call performed the backend load; `latency` is how long it took.
    Led {
        /// Wall-clock duration of the backend load.
        latency: Duration,
    },
    /// This call coalesced onto a load already in flight; `wait` is how
    /// long it was parked before the leader published — the *delayed hit*
    /// penalty this miss paid instead of a full backend load.
    Coalesced {
        /// Wall-clock time parked on the in-flight fetch.
        wait: Duration,
    },
}

impl FetchRole {
    /// Whether this call coalesced onto another call's load.
    pub fn is_coalesced(self) -> bool {
        matches!(self, FetchRole::Coalesced { .. })
    }
}

/// A keyed single-flight table: concurrent `fetch(k, …)` calls for the
/// same key while one is in flight share a single execution of the load.
///
/// Keys are generic in principle but the runtime only ever uses block ids;
/// to keep the dependency surface small the table is keyed by `u64` (the
/// raw block id).
pub struct SingleFlight {
    stripes: Vec<Mutex<Stripe>>,
    /// *Live* flights, maintained on lead/retire so
    /// [`in_flight`](Self::in_flight) never takes a lock. Tombstones
    /// awaiting cleanup are not counted.
    in_flight: AtomicUsize,
    /// Calls currently blocked waiting on another call's load — a
    /// diagnostic for deterministic interleaving tests.
    pending_waiters: AtomicUsize,
}

impl Default for SingleFlight {
    fn default() -> Self {
        SingleFlight {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            in_flight: AtomicUsize::new(0),
            pending_waiters: AtomicUsize::new(0),
        }
    }
}

impl SingleFlight {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight::default()
    }

    #[inline]
    fn stripe(&self, key: u64) -> &Mutex<Stripe> {
        &self.stripes[(mix64(key) as usize) & (STRIPES - 1)]
    }

    /// Fetch under `key`: if no load for `key` is in flight, run `load`
    /// as the leader and return its result; otherwise block until the
    /// in-flight leader publishes, and return its result.
    ///
    /// A wrapper over the runtime's buffer-reusing protocol that allocates
    /// the returned block.
    pub fn fetch<F>(&self, key: u64, load: F) -> (FetchResult, FetchRole)
    where
        F: FnOnce() -> Result<Vec<ItemId>, GcError>,
    {
        let mut buf = Vec::new();
        let (result, role) = self.fetch_into(key, &mut buf, |out| load().map(|v| *out = v));
        (result.map(|()| Arc::new(buf)), role)
    }

    /// Fetch under `key` into the caller's buffer. If no load for `key` is
    /// in flight, this call leads: it runs `load(buf)` and shares the
    /// result only if a waiter registered meanwhile. Otherwise it
    /// registers, parks until the leader publishes, and copies the shared
    /// block into `buf`. On success `buf` holds the whole block either way.
    ///
    /// The leader runs `load` with **no** stripe or entry lock held, so
    /// loads for different keys proceed in parallel and waiters for other
    /// keys are unaffected.
    pub(crate) fn fetch_into<F>(
        &self,
        key: u64,
        buf: &mut Vec<ItemId>,
        load: F,
    ) -> (Result<(), GcError>, FetchRole)
    where
        F: FnOnce(&mut Vec<ItemId>) -> Result<(), GcError>,
    {
        let stripe = self.stripe(key);
        let (mut flight, leads) = {
            let mut guard = stripe.lock();
            let Stripe { flights, spare } = &mut *guard;
            let mut fresh = || spare.pop().unwrap_or_else(|| Arc::new(Flight::new()));
            match flights.entry(key) {
                Entry::Occupied(e) if e.get().join() => (Arc::clone(e.get()), false),
                Entry::Occupied(mut e) => {
                    // Tombstone left by a completed leader whose
                    // opportunistic cleanup lost the `try_lock` race:
                    // replace it in place (we already hold the stripe lock
                    // for this lookup — no extra acquire), reusing it when
                    // nobody else holds it any more, and lead fresh.
                    match Arc::get_mut(e.get_mut()) {
                        Some(tombstone) => tombstone.reset(),
                        None => *e.get_mut() = fresh(),
                    }
                    (Arc::clone(e.get()), true)
                }
                Entry::Vacant(v) => (Arc::clone(v.insert(fresh())), true),
            }
        };
        if !leads {
            return self.wait(&flight, buf);
        }
        self.in_flight.fetch_add(1, Ordering::Relaxed);

        let t0 = Instant::now();
        let result = load(buf);
        let latency = t0.elapsed();
        // Retire first, publish second — and retire without touching the
        // stripe lock: the swap makes the flight unjoinable (a same-key
        // miss that finds the entry sees a tombstone and leads fresh), so
        // the led-fetch completion path never blocks on the table. Only
        // waiters that registered before the swap get a shared copy.
        let shared = flight.retire();
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if shared {
            let published = result.clone().map(|()| Arc::new(buf.clone()));
            let mut slot = flight.slot.lock();
            *slot = Some(published);
            flight.cv.notify_all();
        }
        // Opportunistic tombstone removal: only if the stripe lock is free
        // right now — under contention the entry stays behind and the next
        // same-key miss replaces it in place, so completion latency is
        // never held hostage to the table. `ptr_eq` guards against
        // removing a successor flight that already took the slot.
        if let Some(mut guard) = stripe.try_lock() {
            if let Entry::Occupied(e) = guard.flights.entry(key) {
                if Arc::ptr_eq(e.get(), &flight) {
                    e.remove();
                }
            }
            // No table entry, waiter or joiner holds the flight any more
            // (new holders only come through the table, under this lock):
            // reset it, dropping any shared result, for the next leader.
            if let Some(f) = Arc::get_mut(&mut flight) {
                f.reset();
                guard.spare.push(flight);
            }
        }
        (result, FetchRole::Led { latency })
    }

    /// The registered waiter's side: park until the leader publishes, then
    /// copy the shared block into `buf`.
    fn wait(&self, flight: &Flight, buf: &mut Vec<ItemId>) -> (Result<(), GcError>, FetchRole) {
        self.pending_waiters.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        let published = {
            let mut slot = flight.slot.lock();
            loop {
                // Take-by-clone under the lock: when the wait returns with
                // the slot filled, the leader's publish happened before our
                // wakeup, so the value is complete.
                if let Some(published) = slot.as_ref() {
                    break published.clone();
                }
                slot = flight.cv.wait(slot);
            }
        };
        let wait = t0.elapsed();
        self.pending_waiters.fetch_sub(1, Ordering::SeqCst);
        let result = published.map(|items| {
            buf.clear();
            buf.extend_from_slice(&items);
        });
        (result, FetchRole::Coalesced { wait })
    }

    /// Number of calls currently blocked on an in-flight load. Intended
    /// for deterministic interleaving tests and diagnostics; the value is
    /// momentary and racy by nature.
    pub fn pending_waiters(&self) -> usize {
        self.pending_waiters.load(Ordering::SeqCst)
    }

    /// Number of fetches currently in flight (lock-free; momentary).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Total table entries across stripes, live flights and tombstones
    /// alike — a test hook for the cleanup protocol.
    #[cfg(test)]
    pub(crate) fn table_entries(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().flights.len()).sum()
    }

    /// Retired flights held for reuse across stripes — a test hook for
    /// the recycling protocol.
    #[cfg(test)]
    pub(crate) fn spare_flights(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().spare.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::BlockId;

    #[test]
    fn lone_call_leads_and_retires_entry() {
        let sf = SingleFlight::new();
        let (result, role) = sf.fetch(7, || Ok(vec![ItemId(1), ItemId(2)]));
        assert_eq!(*result.unwrap(), vec![ItemId(1), ItemId(2)]);
        assert!(matches!(role, FetchRole::Led { .. }));
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.pending_waiters(), 0);
        // Uncontended cleanup: the opportunistic `try_lock` removal always
        // succeeds with nobody else on the stripe, so no tombstone stays.
        assert_eq!(sf.table_entries(), 0);
    }

    #[test]
    fn retire_completes_while_stripe_lock_is_held_elsewhere() {
        use std::sync::mpsc;

        let sf = Arc::new(SingleFlight::new());
        let (release_tx, release_rx) = mpsc::channel::<()>();

        // Leader parks inside its load (flight already inserted).
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.fetch(11, move || {
                    release_rx.recv().expect("release signal");
                    Ok(vec![ItemId(44)])
                })
            })
        };
        while sf.in_flight() == 0 {
            std::thread::yield_now();
        }

        // Grab the flight's stripe lock *before* releasing the leader. The
        // lock-free retire must let the leader finish anyway — under the
        // old lock-to-retire protocol this join would deadlock — with its
        // opportunistic cleanup skipped, leaving a tombstone behind.
        let guard = sf.stripe(11).lock();
        release_tx.send(()).unwrap();
        let (r, role) = leader.join().unwrap();
        assert!(matches!(role, FetchRole::Led { .. }));
        assert_eq!(*r.unwrap(), vec![ItemId(44)]);
        assert_eq!(sf.in_flight(), 0, "retired while the stripe was held");
        drop(guard);
        assert_eq!(sf.table_entries(), 1, "cleanup skipped under contention");

        // The next same-key miss replaces the tombstone in place and leads
        // fresh; its own uncontended cleanup then empties the table.
        let (r, role) = sf.fetch(11, || Ok(vec![ItemId(45)]));
        assert!(!role.is_coalesced(), "tombstones must not be joined");
        assert_eq!(*r.unwrap(), vec![ItemId(45)]);
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.table_entries(), 0, "tombstone gone after fresh lead");
    }

    #[test]
    fn sequential_fetches_each_lead() {
        let sf = SingleFlight::new();
        for _ in 0..3 {
            let (_, role) = sf.fetch(1, || Ok(vec![ItemId(0)]));
            assert!(!role.is_coalesced());
        }
    }

    #[test]
    fn errors_propagate_and_entry_retires() {
        let sf = SingleFlight::new();
        let (result, _) = sf.fetch(3, || {
            Err(GcError::Backend {
                block: BlockId(3),
                message: "down".into(),
            })
        });
        assert!(result.is_err());
        // The failed entry must not wedge the key: a retry leads again.
        let (result, role) = sf.fetch(3, || Ok(vec![ItemId(12)]));
        assert!(result.is_ok());
        assert!(!role.is_coalesced());
    }

    #[test]
    fn concurrent_same_key_coalesces_to_one_load() {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;

        let sf = Arc::new(SingleFlight::new());
        let loads = Arc::new(AtomicU64::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();

        // Leader: blocks inside the load until released.
        let leader = {
            let sf = Arc::clone(&sf);
            let loads = Arc::clone(&loads);
            std::thread::spawn(move || {
                sf.fetch(9, move || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    release_rx.recv().expect("release signal");
                    Ok(vec![ItemId(36)])
                })
            })
        };
        // Step until the leader is inside the load (entry in flight).
        while sf.in_flight() == 0 {
            std::thread::yield_now();
        }
        // Waiter: must coalesce, not run its own load.
        let waiter = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.fetch(9, || panic!("waiter must never load")))
        };
        while sf.pending_waiters() == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();

        let (lr, lrole) = leader.join().unwrap();
        let (wr, wrole) = waiter.join().unwrap();
        assert!(matches!(lrole, FetchRole::Led { .. }));
        assert!(matches!(wrole, FetchRole::Coalesced { .. }));
        // Both observe the same fetched block.
        assert_eq!(*lr.unwrap(), vec![ItemId(36)]);
        assert_eq!(*wr.unwrap(), vec![ItemId(36)]);
        assert_eq!(loads.load(Ordering::SeqCst), 1, "exactly one backend load");
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn leader_failure_reaches_parked_waiter_and_next_miss_leads_fresh() {
        use std::sync::mpsc;

        let sf = Arc::new(SingleFlight::new());
        let (release_tx, release_rx) = mpsc::channel::<()>();

        // Leader: parks inside the load, then fails.
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.fetch(5, move || {
                    release_rx.recv().expect("release signal");
                    Err(GcError::Backend {
                        block: BlockId(5),
                        message: "device fault".into(),
                    })
                })
            })
        };
        while sf.in_flight() == 0 {
            std::thread::yield_now();
        }
        // Waiter: provably parked on the in-flight fetch before the
        // leader is released, so the error must flow through the
        // publish/wakeup path, not a fast return.
        let waiter = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.fetch(5, || panic!("waiter must never load")))
        };
        while sf.pending_waiters() == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();

        let (lr, lrole) = leader.join().unwrap();
        let (wr, wrole) = waiter.join().unwrap();
        assert!(matches!(lrole, FetchRole::Led { .. }));
        assert!(matches!(wrole, FetchRole::Coalesced { .. }));
        assert!(lr.is_err(), "leader observes its own failure");
        assert!(wr.is_err(), "parked waiter observes the leader's failure");

        // The failed flight is retired: nothing in flight, no waiters,
        // and the next miss leads a fresh fetch that can succeed.
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.pending_waiters(), 0);
        let (r, role) = sf.fetch(5, || Ok(vec![ItemId(20)]));
        assert!(!role.is_coalesced(), "retry leads fresh");
        assert_eq!(*r.unwrap(), vec![ItemId(20)]);
    }

    #[test]
    fn three_parked_waiters_share_one_load() {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;

        let sf = Arc::new(SingleFlight::new());
        let loads = Arc::new(AtomicU64::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let leader = {
            let sf = Arc::clone(&sf);
            let loads = Arc::clone(&loads);
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let (r, role) = sf.fetch_into(13, &mut buf, |out| {
                    loads.fetch_add(1, Ordering::SeqCst);
                    release_rx.recv().expect("release signal");
                    out.clear();
                    out.extend([ItemId(52), ItemId(53)]);
                    Ok(())
                });
                (r.map(|()| buf), role)
            })
        };
        while sf.in_flight() == 0 {
            std::thread::yield_now();
        }
        // Each waiter brings a buffer holding junk: the shared block must
        // replace it, not append to it.
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let sf = Arc::clone(&sf);
                std::thread::spawn(move || {
                    let mut buf = vec![ItemId(999)];
                    let (r, role) =
                        sf.fetch_into(13, &mut buf, |_| panic!("waiter must never load"));
                    (r.map(|()| buf), role)
                })
            })
            .collect();
        // All three are registered and parked before the leader finishes,
        // so the leader must share and wake every one of them.
        while sf.pending_waiters() < 3 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();

        let (lr, lrole) = leader.join().unwrap();
        assert!(matches!(lrole, FetchRole::Led { .. }));
        assert_eq!(lr.unwrap(), vec![ItemId(52), ItemId(53)]);
        for w in waiters {
            let (wr, wrole) = w.join().unwrap();
            assert!(wrole.is_coalesced());
            assert_eq!(wr.unwrap(), vec![ItemId(52), ItemId(53)]);
        }
        assert_eq!(loads.load(Ordering::SeqCst), 1, "one load for four misses");
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.pending_waiters(), 0);
    }

    #[test]
    fn late_joiner_after_unshared_publish_leads_fresh() {
        use std::sync::mpsc;

        let sf = Arc::new(SingleFlight::new());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let mut led = 0;
        let mut coalesced = 0;
        let mut count = |role: FetchRole| {
            if role.is_coalesced() {
                coalesced += 1;
            } else {
                led += 1;
            }
        };

        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.fetch(17, move || {
                    release_rx.recv().expect("release signal");
                    Ok(vec![ItemId(68)])
                })
            })
        };
        while sf.in_flight() == 0 {
            std::thread::yield_now();
        }
        // Hold the stripe so the leader's cleanup is skipped: its flight
        // stays in the table, retired and never shared.
        let guard = sf.stripe(17).lock();
        release_tx.send(()).unwrap();
        let (r, role) = leader.join().unwrap();
        count(role);
        assert_eq!(*r.unwrap(), vec![ItemId(68)]);
        drop(guard);
        assert_eq!(sf.table_entries(), 1, "the unshared flight is a tombstone");
        assert_eq!(sf.spare_flights(), 0, "not recycled without the stripe");

        // The late joiner finds the tombstone and leads its own load; the
        // finished payload is never handed out.
        let (r, role) = sf.fetch(17, || Ok(vec![ItemId(69)]));
        count(role);
        assert_eq!(*r.unwrap(), vec![ItemId(69)], "fresh load, not the old one");
        assert_eq!((led, coalesced), (2, 0), "both calls counted as led");
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.table_entries(), 0);
        assert_eq!(sf.spare_flights(), 1, "its uncontended cleanup recycled");
    }

    #[test]
    fn uncontended_leaders_reuse_one_flight_per_stripe() {
        let sf = SingleFlight::new();
        let mut buf = Vec::new();
        for round in 0..4u64 {
            let (r, role) = sf.fetch_into(21, &mut buf, |out| {
                out.clear();
                out.push(ItemId(round));
                Ok(())
            });
            r.unwrap();
            assert!(!role.is_coalesced());
            assert_eq!(buf, vec![ItemId(round)]);
            assert_eq!(sf.table_entries(), 0);
            assert_eq!(sf.spare_flights(), 1, "round {round}: one flight, reused");
        }
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = SingleFlight::new();
        let (_, a) = sf.fetch(1, || Ok(vec![ItemId(1)]));
        let (_, b) = sf.fetch(2, || Ok(vec![ItemId(2)]));
        assert!(!a.is_coalesced());
        assert!(!b.is_coalesced());
    }

    #[test]
    fn many_keys_spread_over_stripes_without_interference() {
        // Keys far apart must all lead independently and the in-flight
        // gauge must return to zero — exercises every stripe.
        let sf = SingleFlight::new();
        for key in 0..(STRIPES as u64 * 4) {
            let (result, role) = sf.fetch(key, || Ok(vec![ItemId(key)]));
            assert!(!role.is_coalesced());
            assert_eq!(*result.unwrap(), vec![ItemId(key)]);
        }
        assert_eq!(sf.in_flight(), 0);
    }
}
