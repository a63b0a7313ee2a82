//! Model-aware replacements for the `std::sync` primitives the runtime
//! uses.
//!
//! Inside a [`model`](crate::model) run every acquisition, condvar wait,
//! channel operation, and atomic access is a scheduler decision point, and
//! blocking parks the thread in the scheduler (so deadlocks are detected
//! rather than hung on). Outside a model run — or on a thread that is
//! already unwinding from a model failure — the same types degrade to plain
//! `std::sync`-backed blocking implementations with identical semantics,
//! sharing the same ground-truth state (see the crate docs on fallback
//! mode). `lock()` returns the guard directly (there is no poisoning) and
//! `Condvar::wait(guard)` takes and returns it, the shape `gc-runtime`'s
//! `std`-backed binding of the same facade has.

pub use std::sync::Arc;

use crate::ctx;
use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

fn unpoison<'a, T>(
    r: Result<StdMutexGuard<'a, T>, std::sync::PoisonError<StdMutexGuard<'a, T>>>,
) -> StdMutexGuard<'a, T> {
    // Internal state mutexes are only held for a few straight-line
    // statements, so poisoning can't leave them inconsistent.
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A mutual-exclusion lock (guard returned directly, no poisoning) whose acquisitions are scheduler decision points
/// inside a model run.
pub struct Mutex<T> {
    /// Ground truth for "is the lock held", shared by the model and
    /// fallback paths so mixed use (e.g. a panicking thread degrading to
    /// fallback mid-model) stays coherent.
    flag: StdMutex<bool>,
    flag_cv: StdCondvar,
    data: UnsafeCell<T>,
}

// SAFETY: `data` is only reachable through `MutexGuard`, whose existence
// implies exclusive ownership of the `flag` token, so sending or sharing
// the mutex is as safe as sending the protected value itself — the same
// `T: Send` bound as `std::sync::Mutex`.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: see the `Send` impl; `&Mutex<T>` only hands out references to the
// data under the exclusion token.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// A new unlocked mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            flag: StdMutex::new(false),
            flag_cv: StdCondvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Exclusive access without locking (the `&mut` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    fn key(&self) -> u64 {
        self as *const Self as *const () as u64
    }

    fn flag(&self) -> StdMutexGuard<'_, bool> {
        unpoison(self.flag.lock())
    }

    /// Take the lock token if free. Never blocks; never a decision point.
    fn try_acquire(&self) -> bool {
        let mut f = self.flag();
        if *f {
            false
        } else {
            *f = true;
            true
        }
    }

    /// Blocking acquisition against the shared flag, used outside model
    /// runs and by threads unwinding from a model failure.
    fn raw_acquire_fallback(&self) {
        let mut f = self.flag();
        while *f {
            f = unpoison(self.flag_cv.wait(f));
        }
        *f = true;
    }

    /// Release the lock token and wake waiters on both paths. Never
    /// panics (it runs from guard drops during unwinding).
    fn raw_release(&self) {
        {
            let mut f = self.flag();
            *f = false;
        }
        self.flag_cv.notify_all();
        if let Some(c) = ctx() {
            c.sched.unblock_all(self.key());
        }
    }

    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match ctx() {
            Some(c) if !std::thread::panicking() => {
                c.sched.schedule(c.tid);
                loop {
                    if self.try_acquire() {
                        break;
                    }
                    c.sched.block_on(c.tid, self.key(), "Mutex::lock");
                }
            }
            _ => self.raw_acquire_fallback(),
        }
        MutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    /// Acquire the lock only if it is free right now; never blocks.
    ///
    /// Under a model run the attempt is a scheduling decision point (like
    /// any acquire), so the checker explores both the taken and the
    /// contended outcome across interleavings.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some(c) = ctx() {
            if !std::thread::panicking() {
                c.sched.schedule(c.tid);
            }
        }
        if self.try_acquire() {
            Some(MutexGuard {
                lock: self,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// RAII guard for [`Mutex`]; releases on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    /// Guards must stay on the acquiring thread (`*const` makes this
    /// `!Send`), matching `std`.
    _not_send: PhantomData<*const ()>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard owns the exclusion token until drop, so no
        // other reference to the data exists.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, the token guarantees exclusivity.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw_release();
    }
}

/// A condition variable (`guard = cv.wait(guard)`), scheduler-mediated
/// inside a model run.
///
/// Lost wakeups are impossible in model mode because execution is
/// serialized: no other thread can run between the wait's mutex release and
/// the thread parking in the scheduler. `notify_one` deterministically
/// wakes the lowest-id waiter.
pub struct Condvar {
    /// Fallback-path wakeup generation; bumped on every notify so epoch
    /// waiters can't miss one.
    epoch: StdMutex<u64>,
    epoch_cv: StdCondvar,
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Condvar {
            epoch: StdMutex::new(0),
            epoch_cv: StdCondvar::new(),
        }
    }

    fn key(&self) -> u64 {
        self as *const Self as *const () as u64
    }

    fn epoch(&self) -> StdMutexGuard<'_, u64> {
        unpoison(self.epoch.lock())
    }

    /// Atomically release `guard`'s mutex and wait for a notification,
    /// re-acquiring before returning. Spurious wakeups are possible (as
    /// with any condvar) — callers loop on their predicate.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.lock;
        match ctx() {
            Some(c) if !std::thread::panicking() => {
                // Serialized execution makes release-then-park atomic: no
                // notifier can run in between, so no wakeup is lost.
                mutex.raw_release();
                let parked: Result<(), Box<dyn Any + Send>> = (|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        c.sched.block_on(c.tid, self.key(), "Condvar::wait")
                    }))?;
                    loop {
                        if mutex.try_acquire() {
                            return Ok(());
                        }
                        catch_unwind(AssertUnwindSafe(|| {
                            c.sched.block_on(c.tid, mutex.key(), "Mutex::lock")
                        }))?;
                    }
                })();
                if let Err(payload) = parked {
                    // The model aborted while we were parked. `guard` is
                    // still live and releases as the panic unwinds through
                    // this frame, so the lock must be held again first.
                    mutex.raw_acquire_fallback();
                    resume_unwind(payload);
                }
            }
            _ => {
                // Hold the epoch lock across the mutex release so a notify
                // that lands in between still bumps past `target`.
                let mut e = self.epoch();
                let target = *e;
                mutex.raw_release();
                while *e == target {
                    e = unpoison(self.epoch_cv.wait(e));
                }
                drop(e);
                mutex.raw_acquire_fallback();
            }
        }
        guard
    }

    /// Wake one waiter (the lowest-id one, deterministically, in model
    /// mode; possibly all of them spuriously in fallback mode).
    pub fn notify_one(&self) {
        {
            let mut e = self.epoch();
            *e += 1;
        }
        self.epoch_cv.notify_all();
        if let Some(c) = ctx() {
            c.sched.unblock_one(self.key());
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        {
            let mut e = self.epoch();
            *e += 1;
        }
        self.epoch_cv.notify_all();
        if let Some(c) = ctx() {
            c.sched.unblock_all(self.key());
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// A reusable rendezvous for a fixed number of threads, built on the model
/// [`Mutex`]/[`Condvar`] (so waits are decision points and stuck barriers
/// surface as deadlocks).
pub struct Barrier {
    threshold: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
}

impl Barrier {
    /// A barrier releasing once `n` threads have called
    /// [`wait`](Self::wait) (`n == 0` behaves like `1`, as in `std`).
    pub fn new(n: usize) -> Self {
        Barrier {
            threshold: n.max(1),
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` threads have arrived. Exactly one caller per
    /// generation observes [`BarrierWaitResult::is_leader`].
    pub fn wait(&self) -> BarrierWaitResult {
        let mut st = self.state.lock();
        let generation = st.generation;
        st.count += 1;
        if st.count == self.threshold {
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return BarrierWaitResult { leader: true };
        }
        while st.generation == generation {
            st = self.cv.wait(st);
        }
        BarrierWaitResult { leader: false }
    }
}

/// Result of [`Barrier::wait`].
pub struct BarrierWaitResult {
    leader: bool,
}

impl BarrierWaitResult {
    /// Whether this caller was the one that tripped the barrier.
    pub fn is_leader(&self) -> bool {
        self.leader
    }
}

pub mod mpsc {
    //! Bounded multi-producer single-consumer channels with the
    //! `std::sync::mpsc::sync_channel` API, built on the model
    //! [`Mutex`]/[`Condvar`] so sends/receives are decision points and
    //! blocked channels participate in deadlock detection.
    //!
    //! Rendezvous channels (`bound == 0`) are not supported.

    use super::{Arc, Condvar, Mutex};
    use std::collections::VecDeque;
    use std::fmt;

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        rx_alive: bool,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cap: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Create a bounded channel; sends block when `bound` messages are
    /// queued.
    pub fn sync_channel<T>(bound: usize) -> (SyncSender<T>, Receiver<T>) {
        assert!(
            bound > 0,
            "gc-modelcheck sync_channel does not support rendezvous (bound 0) channels"
        );
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                rx_alive: true,
            }),
            cap: bound,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            SyncSender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// Sending half; cloneable. The channel disconnects when every sender
    /// is dropped.
    pub struct SyncSender<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> SyncSender<T> {
        /// Block until queue space is available, then enqueue `value`.
        /// Fails (returning the value) if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.state.lock();
            loop {
                if !st.rx_alive {
                    return Err(SendError(value));
                }
                if st.queue.len() < self.chan.cap {
                    st.queue.push_back(value);
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                st = self.chan.not_full.wait(st);
            }
        }
    }

    impl<T> Clone for SyncSender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().senders += 1;
            SyncSender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for SyncSender<T> {
        fn drop(&mut self) {
            let last = {
                let mut st = self.chan.state.lock();
                st.senders -= 1;
                st.senders == 0
            };
            if last {
                // Disconnect: wake the receiver so a blocked recv() errors.
                self.chan.not_empty.notify_all();
            }
        }
    }

    /// Receiving half.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives; errors once the queue is empty
        /// and every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.state.lock();
            loop {
                if let Some(value) = st.queue.pop_front() {
                    self.chan.not_full.notify_one();
                    return Ok(value);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.chan.not_empty.wait(st);
            }
        }

        /// Non-blocking variant of [`recv`](Self::recv).
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.state.lock();
            if let Some(value) = st.queue.pop_front() {
                self.chan.not_full.notify_one();
                return Ok(value);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.state.lock().rx_alive = false;
            // Wake blocked senders so they observe the disconnect.
            self.chan.not_full.notify_all();
        }
    }

    /// The receiver was dropped; the unsent value is returned.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a closed channel")
        }
    }

    /// Every sender was dropped and the queue is empty.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on a closed channel")
        }
    }

    /// Why a [`Receiver::try_recv`] returned nothing.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message queued right now.
        Empty,
        /// Every sender was dropped and the queue is empty.
        Disconnected,
    }
}

pub mod atomic {
    //! Atomics whose every access is a scheduler decision point.
    //!
    //! Modeled as sequentially consistent regardless of the `Ordering`
    //! argument (see the crate-level *Limitations*); the argument is kept
    //! for API compatibility.

    pub use std::sync::atomic::Ordering;

    use crate::ctx;
    use std::sync::atomic as std_atomic;

    /// Atomic accesses interleave with other threads, so give the
    /// scheduler a chance to switch before each one.
    fn decision_point() {
        if let Some(c) = ctx() {
            if !std::thread::panicking() {
                c.sched.schedule(c.tid);
            }
        }
    }

    macro_rules! int_atomic {
        ($(#[$meta:meta])* $name:ident, $inner:ident, $ty:ty) => {
            $(#[$meta])*
            #[derive(Debug, Default)]
            pub struct $name(std_atomic::$inner);

            impl $name {
                /// A new atomic holding `value`.
                pub const fn new(value: $ty) -> Self {
                    Self(std_atomic::$inner::new(value))
                }

                /// Load the value (decision point; SeqCst).
                pub fn load(&self, _order: Ordering) -> $ty {
                    decision_point();
                    self.0.load(Ordering::SeqCst)
                }

                /// Store `value` (decision point; SeqCst).
                pub fn store(&self, value: $ty, _order: Ordering) {
                    decision_point();
                    self.0.store(value, Ordering::SeqCst)
                }

                /// Add and return the previous value (decision point; SeqCst).
                pub fn fetch_add(&self, value: $ty, _order: Ordering) -> $ty {
                    decision_point();
                    self.0.fetch_add(value, Ordering::SeqCst)
                }

                /// Subtract and return the previous value (decision point; SeqCst).
                pub fn fetch_sub(&self, value: $ty, _order: Ordering) -> $ty {
                    decision_point();
                    self.0.fetch_sub(value, Ordering::SeqCst)
                }

                /// Swap in `value`, returning the previous one (decision point; SeqCst).
                pub fn swap(&self, value: $ty, _order: Ordering) -> $ty {
                    decision_point();
                    self.0.swap(value, Ordering::SeqCst)
                }

                /// Compare-and-exchange (decision point; SeqCst/SeqCst).
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$ty, $ty> {
                    decision_point();
                    self.0
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                /// Plain read through `&mut` (no concurrency possible).
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.0.get_mut()
                }

                /// Consume the atomic, returning the value.
                pub fn into_inner(self) -> $ty {
                    self.0.into_inner()
                }
            }
        };
    }

    int_atomic!(
        /// `AtomicU64` with model-checked accesses.
        AtomicU64,
        AtomicU64,
        u64
    );
    int_atomic!(
        /// `AtomicUsize` with model-checked accesses.
        AtomicUsize,
        AtomicUsize,
        usize
    );
    int_atomic!(
        /// `AtomicU32` with model-checked accesses.
        AtomicU32,
        AtomicU32,
        u32
    );

    /// `AtomicBool` with model-checked accesses.
    #[derive(Debug, Default)]
    pub struct AtomicBool(std_atomic::AtomicBool);

    impl AtomicBool {
        /// A new atomic holding `value`.
        pub const fn new(value: bool) -> Self {
            Self(std_atomic::AtomicBool::new(value))
        }

        /// Load the value (decision point; SeqCst).
        pub fn load(&self, _order: Ordering) -> bool {
            decision_point();
            self.0.load(Ordering::SeqCst)
        }

        /// Store `value` (decision point; SeqCst).
        pub fn store(&self, value: bool, _order: Ordering) {
            decision_point();
            self.0.store(value, Ordering::SeqCst)
        }

        /// Swap in `value`, returning the previous one (decision point; SeqCst).
        pub fn swap(&self, value: bool, _order: Ordering) -> bool {
            decision_point();
            self.0.swap(value, Ordering::SeqCst)
        }

        /// Compare-and-exchange (decision point; SeqCst/SeqCst).
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<bool, bool> {
            decision_point();
            self.0
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
        }
    }
}
