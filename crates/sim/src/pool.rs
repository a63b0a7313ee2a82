//! A shared worker pool for embarrassingly-parallel analytics.
//!
//! The parameter [`sweep`](crate::sweep), the [MRC bundle](crate::mrc::mrc_bundle)
//! and the serving replay of `gc_runtime::harness` all fan independent
//! jobs out over threads in the same shape: std scoped threads pulling job
//! *indices* off a shared atomic cursor (Rayon-style dynamic work
//! distribution, without the dependency), with results landing back in
//! input order. This module is that shape, extracted once.
//!
//! Dynamic claiming matters because job costs are wildly uneven (a 1 Ki
//! cache vs a 1 Mi cache in a sweep; an item curve vs a block curve in an
//! MRC bundle): static striping would leave workers idle behind the
//! slowest stripe.
//!
//! A job that panics is a bug, not an outcome: the panic reaches the
//! caller once every worker has stopped. A job that can fail for a
//! reason the caller should see returns a `Result` as its value, as a
//! sweep cell does when its capacity is refused.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a user-facing thread-count request against a job count.
///
/// `0` means "one thread per available core"; any request is clamped to
/// `jobs` (never spawn a worker with nothing to claim) and floored at 1.
fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    threads.clamp(1, jobs.max(1))
}

/// Run `job(0..n)` on up to `threads` workers (`0` = one per core) and
/// return the results in index order.
///
/// Indices are claimed dynamically from a shared atomic cursor, so uneven
/// per-index costs still balance. One worker always runs on the calling
/// thread, so a one-worker run (or a one-job run) spawns no thread at all.
///
/// # Panics
///
/// If any `job` invocation panics, panics with that job's payload after
/// every worker has stopped.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    // Each worker collects (index, result) pairs locally and we scatter
    // into slots afterwards: contention-free during the run, ordered at
    // the end.
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return mine;
            }
            mine.push((index, job(index)));
        }
    };
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..resolve_threads(threads, n))
            .map(|_| scope.spawn(worker))
            .collect();
        let mut collected = vec![worker()];
        collected.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        collected
    });

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (index, result) in collected.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_in_order() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        let pooled = run_indexed(97, 4, |i| (i as u64) * 3 + 1);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn empty_is_empty() {
        let out: Vec<u32> = run_indexed(0, 8, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = run_indexed(3, 64, |i| i * i);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let out = run_indexed(10, 0, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_job_costs_balance() {
        // Index 0 is far more expensive than the rest; results must still
        // come back complete and ordered.
        let out = run_indexed(16, 4, |i| {
            let spins = if i == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn resolve_threads_contract() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(16, 3), 3);
        assert_eq!(resolve_threads(1, 0), 1);
        assert!(resolve_threads(0, usize::MAX) >= 1);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_indexed(3, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    /// A panicking job panics the caller with the job's own payload, on a
    /// spawned worker as on the calling thread.
    #[test]
    fn a_panicking_job_panics_the_caller() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(8, threads, |i| {
                    if i == 5 {
                        panic!("boom in job {i}");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the job's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(message, "boom in job 5", "{threads} threads");
        }
    }
}
