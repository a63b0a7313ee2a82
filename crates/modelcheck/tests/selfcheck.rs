//! Self-checks for the model checker: known-good protocols must pass under
//! full exploration, and known-bad ones (races, lost wakeups, deadlocks)
//! must be *found* — that is the whole point of the tool.

use gc_modelcheck::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use gc_modelcheck::sync::mpsc::{sync_channel, RecvError, TryRecvError};
use gc_modelcheck::sync::{Arc, Barrier, Condvar, Mutex};
use gc_modelcheck::thread;
use gc_modelcheck::Builder;
use std::collections::HashSet;
use std::sync::Mutex as StdMutex;

/// Two threads doing a non-atomic read-modify-write (separate load and
/// store) on a shared counter: the model must explore both the schedule
/// where the increments serialize (final 2) and the lost-update schedule
/// (final 1). This proves alternative interleavings really run.
#[test]
fn explores_lost_update_interleaving() {
    let observed: &'static StdMutex<HashSet<usize>> =
        Box::leak(Box::new(StdMutex::new(HashSet::new())));
    let report = gc_modelcheck::model(move || {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = counter.load(Ordering::SeqCst);
        counter.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        // Model threads run serialized, so a plain std mutex never blocks.
        observed
            .lock()
            .unwrap()
            .insert(counter.load(Ordering::SeqCst));
    });
    let finals = observed.lock().unwrap();
    assert!(
        finals.contains(&1) && finals.contains(&2),
        "expected both the serialized and lost-update outcomes, got {finals:?} \
         over {} executions",
        report.executions
    );
}

/// The same racy increment, but done *under a mutex*: every explored
/// interleaving must serialize, and an in-critical-section flag must never
/// see two threads inside at once.
#[test]
fn mutex_provides_mutual_exclusion() {
    gc_modelcheck::model(|| {
        let counter = Arc::new(Mutex::new(0usize));
        let in_cs = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let counter = Arc::clone(&counter);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                let mut g = counter.lock();
                assert!(
                    !in_cs.swap(true, Ordering::SeqCst),
                    "two threads inside the critical section"
                );
                let v = *g;
                in_cs.store(false, Ordering::SeqCst);
                *g = v + 1;
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 2);
    });
}

/// Classic condvar handshake: in every interleaving — including the one
/// where the notifier runs before the waiter ever takes the lock — the
/// waiter must observe the published value. Exercises the no-lost-wakeup
/// guarantee.
#[test]
fn condvar_handshake_never_loses_wakeup() {
    struct Slot {
        state: Mutex<(bool, u32)>,
        cv: Condvar,
    }
    gc_modelcheck::model(|| {
        let slot = Arc::new(Slot {
            state: Mutex::new((false, 0)),
            cv: Condvar::new(),
        });
        let s2 = Arc::clone(&slot);
        let producer = thread::spawn(move || {
            let mut st = s2.state.lock();
            *st = (true, 42);
            s2.cv.notify_one();
        });
        {
            let mut st = slot.state.lock();
            while !st.0 {
                st = slot.cv.wait(st);
            }
            assert_eq!(st.1, 42);
        }
        producer.join().unwrap();
    });
}

/// Bounded channel: FIFO order is preserved through blocking sends
/// (capacity 1 forces the sender to park), and dropping the sender
/// disconnects the receiver.
#[test]
fn channel_is_fifo_and_disconnects() {
    gc_modelcheck::model(|| {
        let (tx, rx) = sync_channel::<u32>(1);
        let sender = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..3 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        sender.join().unwrap();
    });
}

/// Barrier rendezvous: both threads pass, exactly one is the leader, and
/// work before the barrier is visible after it in every interleaving.
#[test]
fn barrier_releases_all_with_one_leader() {
    gc_modelcheck::model(|| {
        let barrier = Arc::new(Barrier::new(2));
        let leaders = Arc::new(AtomicUsize::new(0));
        let before = Arc::new(AtomicBool::new(false));
        let b2 = Arc::clone(&barrier);
        let l2 = Arc::clone(&leaders);
        let f2 = Arc::clone(&before);
        let t = thread::spawn(move || {
            f2.store(true, Ordering::SeqCst);
            if b2.wait().is_leader() {
                l2.fetch_add(1, Ordering::SeqCst);
            }
        });
        if barrier.wait().is_leader() {
            leaders.fetch_add(1, Ordering::SeqCst);
        }
        assert!(
            before.load(Ordering::SeqCst),
            "pre-barrier write must be visible after the rendezvous"
        );
        t.join().unwrap();
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    });
}

/// AB-BA lock ordering: some interleaving under a 1-preemption bound
/// deadlocks, and the checker must say so rather than hang.
#[test]
#[should_panic(expected = "deadlock")]
fn detects_abba_deadlock() {
    gc_modelcheck::model(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let _ = t.join();
    });
}

/// An assertion that only fails under a specific interleaving (the lost
/// update) must fail the model run — stress tests would almost never hit
/// this on a quiet machine; exhaustive exploration must.
#[test]
#[should_panic(expected = "increments must serialize")]
fn surfaces_interleaving_dependent_assertion_failures() {
    gc_modelcheck::model(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = counter.load(Ordering::SeqCst);
        counter.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            2,
            "increments must serialize"
        );
    });
}

/// The TOCTOU condvar bug: checking the predicate *before* taking the lock
/// and then waiting unconditionally loses the wakeup when the notifier
/// runs in between. The checker must flag it as a deadlock.
#[test]
#[should_panic(expected = "deadlock")]
fn catches_toctou_condvar_wait() {
    struct Slot {
        state: Mutex<bool>,
        cv: Condvar,
    }
    gc_modelcheck::model(|| {
        let slot = Arc::new(Slot {
            state: Mutex::new(false),
            cv: Condvar::new(),
        });
        let s2 = Arc::clone(&slot);
        let producer = thread::spawn(move || {
            *s2.state.lock() = true;
            s2.cv.notify_one();
        });
        // BUG (deliberate): predicate read outside the lock, then a single
        // unconditional wait — if the producer publishes and notifies
        // between the read and the wait, the wakeup is lost forever.
        let ready = { *slot.state.lock() };
        if !ready {
            let st = slot.state.lock();
            drop(slot.cv.wait(st));
        }
        producer.join().unwrap();
    });
}

/// Tight bounds still terminate and report truncation honestly.
#[test]
fn execution_ceiling_truncates_with_report() {
    let report = Builder::new().preemptions(3).executions(5).check(|| {
        let m = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || *m.lock() += 1));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 3);
    });
    assert!(
        report.truncated,
        "3 threads x several decision points must exceed 5 executions"
    );
    assert_eq!(report.executions, 5);
}

/// A preemption bound of zero explores exactly the one cooperative
/// schedule.
#[test]
fn zero_preemptions_is_single_execution_per_branchless_model() {
    let report = Builder::new().preemptions(0).executions(10_000).check(|| {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || *m2.lock() += 1);
        t.join().unwrap();
        assert_eq!(*m.lock(), 1);
    });
    assert_eq!(
        report.executions, 1,
        "with no preemptions allowed there is exactly one schedule"
    );
}
