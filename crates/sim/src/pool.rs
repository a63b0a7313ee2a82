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
//! # Fault isolation
//!
//! A 500-cell sweep must not lose 499 results because one cell panicked.
//! [`run_indexed_checked`] wraps every job in
//! [`catch_unwind`](std::panic::catch_unwind) and returns per-job
//! `Result`s: a panicking job becomes a [`JobError`] carrying the job
//! index, the rendered panic payload, and how long the job ran before
//! dying — the other jobs complete normally and their results are
//! **bit-identical** to a fault-free run. Its `on_complete` callback sees
//! each outcome as it lands, which is how sweeps and MRC bundles
//! checkpoint incrementally. [`run_indexed`] is the infallible wrapper
//! that panics with the failing job *index* instead of a bare "worker
//! panicked".

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// A job that panicked. The other jobs of the run are unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// Index of the failing job.
    pub index: usize,
    /// Rendered panic payload (`&str`/`String` payloads verbatim,
    /// otherwise a placeholder).
    pub payload: String,
    /// How long the job ran before panicking.
    pub duration: Duration,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let JobError {
            index,
            payload,
            duration,
        } = self;
        write!(f, "pool job {index} panicked after {duration:?}: {payload}")
    }
}

impl std::error::Error for JobError {}

fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
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
/// If any `job` invocation panics, panics after all workers finish with a
/// message naming the failing job index and its panic payload. Use
/// [`run_indexed_checked`] to keep the surviving results instead.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_checked(n, threads, |_, _| {}, job)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Fault-isolated variant of [`run_indexed`]: every job runs under
/// [`catch_unwind`](std::panic::catch_unwind), and the returned vector has
/// one entry per job — `Ok(result)` or a [`JobError`] carrying the failing
/// index, its panic payload, and its running time. Successful jobs are
/// unaffected by failing ones and their results are bit-identical to a
/// fault-free run.
///
/// `on_complete(index, outcome)` runs on the worker thread right after
/// each job finishes or panics (the checkpoint hook). It is called
/// concurrently from several workers, so it must synchronize internally,
/// and it must not panic.
pub fn run_indexed_checked<T, C, F>(
    n: usize,
    threads: usize,
    on_complete: C,
    job: F,
) -> Vec<Result<T, JobError>>
where
    T: Send,
    C: Fn(usize, &Result<T, JobError>) + Sync,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    // Each worker collects (index, outcome) pairs locally and we scatter
    // into slots afterwards: contention-free during the run, ordered at
    // the end.
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return mine;
            }
            let start = Instant::now();
            let outcome =
                catch_unwind(AssertUnwindSafe(|| job(index))).map_err(|payload| JobError {
                    index,
                    payload: panic_payload_string(payload.as_ref()),
                    duration: start.elapsed(),
                });
            on_complete(index, &outcome);
            mine.push((index, outcome));
        }
    };
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..resolve_threads(threads, n))
            .map(|_| scope.spawn(worker))
            .collect();
        let mut collected = vec![worker()];
        // Job panics are caught inside the worker; a panic escaping here
        // means `on_complete` itself panicked, which its contract forbids.
        collected.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("pool callback panicked")),
        );
        collected
    });

    let mut slots: Vec<Option<Result<T, JobError>>> = (0..n).map(|_| None).collect();
    for (index, outcome) in collected.into_iter().flatten() {
        slots[index] = Some(outcome);
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

    /// The headline isolation guarantee: one panicking job out of 64
    /// leaves the other 63 results bit-identical to a serial, fault-free
    /// run.
    #[test]
    fn one_panic_leaves_63_results_bit_identical() {
        let compute = |i: usize| -> u64 {
            let mut acc = i as u64 + 1;
            for _ in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let clean: Vec<u64> = (0..64).map(compute).collect();
        let checked = run_indexed_checked(
            64,
            4,
            |_, _| {},
            |i| {
                if i == 17 {
                    panic!("injected fault in job {i}");
                }
                compute(i)
            },
        );
        assert_eq!(checked.len(), 64);
        for (i, outcome) in checked.iter().enumerate() {
            if i == 17 {
                match outcome {
                    Err(JobError { index, payload, .. }) => {
                        assert_eq!(*index, 17);
                        assert!(payload.contains("injected fault"), "{payload}");
                    }
                    other => panic!("job 17 should have panicked, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.as_ref().unwrap(), &clean[i], "job {i} diverged");
            }
        }
    }

    #[test]
    fn serial_checked_path_catches_panics_too() {
        let checked = run_indexed_checked(
            4,
            1,
            |_, _| {},
            |i| {
                if i == 2 {
                    panic!("serial fault");
                }
                i * 10
            },
        );
        assert_eq!(checked[0].as_ref().unwrap(), &0);
        assert_eq!(checked[1].as_ref().unwrap(), &10);
        assert!(checked[2].is_err());
        assert_eq!(checked[3].as_ref().unwrap(), &30);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_indexed(3, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn run_indexed_panics_with_job_index() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(8, 2, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("should propagate the panic");
        let message = panic_payload_string(payload.as_ref());
        assert!(message.contains("job 5"), "{message}");
        assert!(message.contains("boom"), "{message}");
    }

    #[test]
    fn on_complete_sees_every_job_once() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let on_complete = |idx: usize, outcome: &Result<u64, JobError>| {
            seen.lock().unwrap().push((idx, outcome.is_ok()));
        };
        let results = run_indexed_checked(32, 4, on_complete, |i| {
            if i == 9 {
                panic!("die");
            }
            i as u64
        });
        assert_eq!(results.len(), 32);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(seen.len(), 32);
        for (pos, (idx, ok)) in seen.iter().enumerate() {
            assert_eq!(pos, *idx);
            assert_eq!(*ok, *idx != 9);
        }
    }

    #[test]
    fn job_error_accessors_and_display() {
        let err = JobError {
            index: 3,
            payload: "kaput".into(),
            duration: Duration::from_millis(7),
        };
        assert!(err.to_string().contains("job 3"));
        assert!(err.to_string().contains("kaput"));
    }
}
