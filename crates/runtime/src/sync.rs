//! The crate's **only** gateway to synchronization primitives.
//!
//! Every module in `gc-runtime` imports its locks, condvars, channels,
//! barriers, atomics, and thread-spawning through this facade — never from
//! `std::sync` directly (the repository lint, `cargo run -p xtask -- lint`,
//! enforces this). That single import seam is what makes the runtime
//! model-checkable:
//!
//! - **Normally** (no `loom` feature): `std::sync`'s `Mutex`/`Condvar`
//!   behind the two thin wrappers below (the production locks), and its
//!   `Arc`, `Barrier`, `mpsc`, atomics, and `std::thread` spawning as they
//!   are.
//! - **Under `--features loom`**: re-exports `gc-modelcheck`'s
//!   scheduler-mediated equivalents, so the in-crate loom test suite
//!   ([`crate::loom_tests`] on `cfg(all(test, feature = "loom"))`) can
//!   exhaustively explore thread interleavings of the runtime's four core
//!   protocols (single-flight handshake, reply slots, owner shutdown
//!   drain, consistent-cut snapshots). Outside a model run the
//!   model-checked primitives degrade to `std`-backed blocking versions
//!   with identical semantics, so enabling the feature never changes
//!   behavior of ordinary tests.
//!
//! The two bindings expose the same API surface — `lock()` returns the
//! guard itself, `Condvar::wait(guard)` takes and returns it — so no call
//! site changes between configurations. A thread that panics while holding
//! a lock has left the protected state half-updated; the std binding
//! propagates that panic to the next locker instead of handing it the
//! state.

#[cfg(not(feature = "loom"))]
mod imp {
    use std::sync::MutexGuard;
    pub use std::sync::{Arc, Barrier, BarrierWaitResult};

    const POISONED: &str = "another thread panicked while holding this lock";

    /// `std::sync::Mutex` with the guard returned directly.
    #[derive(Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// A new unlocked mutex protecting `value`.
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Block until the lock is held.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            // lint: allow(panic): poison means a peer already panicked
            // mid-update; the state behind the lock cannot be trusted.
            self.0.lock().expect(POISONED)
        }

        /// Take the lock only if it is free right now.
        #[inline]
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            self.0.try_lock().ok()
        }

        /// The protected value through `&mut` — no locking is needed.
        #[inline]
        pub fn get_mut(&mut self) -> &mut T {
            // lint: allow(panic): as in `lock`.
            self.0.get_mut().expect(POISONED)
        }
    }

    /// `std::sync::Condvar` with the guard returned directly.
    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// A new condition variable.
        pub fn new() -> Self {
            Condvar::default()
        }

        /// Release `guard`'s mutex, sleep until notified, re-acquire.
        /// Spurious wakeups are possible — callers loop on their predicate.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            // lint: allow(panic): as in `Mutex::lock`.
            self.0.wait(guard).expect(POISONED)
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Bounded MPSC channels (`std::sync::mpsc`'s `sync_channel` family).
    pub mod mpsc {
        pub use std::sync::mpsc::{
            sync_channel, Receiver, RecvError, SendError, SyncSender, TryRecvError,
        };
    }

    /// Shared atomics.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning and joining.
    pub mod thread {
        pub use std::thread::{spawn, yield_now, Builder, JoinHandle};
    }
}

#[cfg(feature = "loom")]
mod imp {
    pub use gc_modelcheck::sync::{Arc, Barrier, BarrierWaitResult, Condvar, Mutex};

    /// Bounded MPSC channels (model-checked).
    pub mod mpsc {
        pub use gc_modelcheck::sync::mpsc::{
            sync_channel, Receiver, RecvError, SendError, SyncSender, TryRecvError,
        };
    }

    /// Shared atomics (model-checked; SeqCst regardless of ordering).
    pub mod atomic {
        pub use gc_modelcheck::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning and joining (model-checked).
    pub mod thread {
        pub use gc_modelcheck::thread::{spawn, yield_now, Builder, JoinHandle};
    }
}

pub use imp::*;
