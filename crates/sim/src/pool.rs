//! A shared worker pool for embarrassingly-parallel analytics.
//!
//! Several subsystems fan independent jobs out over threads: the parameter
//! [`sweep`](crate::sweep), the parallel [MRC bundle](crate::mrc::mrc_bundle),
//! and the bench harnesses. They all want the same shape — std scoped
//! threads pulling job *indices* off a shared atomic cursor (Rayon-style
//! dynamic work distribution, without the dependency) with results landing
//! back in input order. This module is that shape, extracted once.
//!
//! Dynamic claiming matters because job costs are wildly uneven (a 1 Ki
//! cache vs a 1 Mi cache in a sweep; an item curve vs a block curve in an
//! MRC bundle): static striping would leave workers idle behind the
//! slowest stripe.
//!
//! # Fault isolation
//!
//! A 500-cell sweep must not lose 499 results because one cell panicked.
//! The checked entry points ([`run_indexed_checked`], [`run_indexed_opts`])
//! wrap every job in [`catch_unwind`](std::panic::catch_unwind) and return
//! per-job `Result`s: a panicking job becomes a [`JobError::Panicked`]
//! carrying the job index, the rendered panic payload, and how long the job
//! ran before dying — the other jobs complete normally and their results
//! are **bit-identical** to a fault-free run. [`run_indexed`] stays the
//! convenient infallible API, now a thin wrapper that panics with the
//! failing job *index* instead of a bare "worker panicked".
//!
//! [`PoolOptions`] adds two cooperative degradation knobs:
//!
//! * a [`CancelToken`], checked between job claims, so a long run can be
//!   abandoned without killing threads mid-job (claimed jobs finish;
//!   unclaimed indices come back as [`JobError::Cancelled`]);
//! * a *soft deadline* per job: jobs that overrun are still allowed to
//!   finish (threads cannot be safely killed) but are reported as
//!   [`Straggler`]s so callers can flag, re-plan, or exclude them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resolve a user-facing thread-count request against a job count.
///
/// `0` means "one thread per available core"; any request is clamped to
/// `jobs` (never spawn a worker with nothing to claim) and floored at 1.
pub fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    threads.clamp(1, jobs.max(1))
}

/// A cooperative cancellation flag shared between a pool run and its
/// controller.
///
/// Workers check the token *between* job claims: cancelling never
/// interrupts a job in flight, it only stops new jobs from starting.
/// Cloning is cheap (an [`Arc`] around an atomic), so the controller can
/// keep one handle while the run borrows another.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a job produced no result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked. The other jobs of the run are unaffected.
    Panicked {
        /// Index of the failing job.
        index: usize,
        /// Rendered panic payload (`&str`/`String` payloads verbatim,
        /// otherwise a placeholder).
        payload: String,
        /// How long the job ran before panicking.
        duration: Duration,
    },
    /// The job was never started: the run's [`CancelToken`] was triggered
    /// before this index was claimed.
    Cancelled {
        /// Index of the cancelled job.
        index: usize,
    },
}

impl JobError {
    /// The index of the job this error belongs to.
    pub fn index(&self) -> usize {
        match self {
            JobError::Panicked { index, .. } | JobError::Cancelled { index } => *index,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked {
                index,
                payload,
                duration,
            } => write!(f, "pool job {index} panicked after {duration:?}: {payload}"),
            JobError::Cancelled { index } => write!(f, "pool job {index} cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// A job that finished but exceeded the run's soft deadline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Straggler {
    /// Index of the slow job.
    pub index: usize,
    /// How long it actually took.
    pub duration: Duration,
}

/// Optional behaviors for a checked pool run. [`Default`] is plain
/// fault-isolated execution: no cancellation, no deadline, no callback.
pub struct PoolOptions<'a, T> {
    /// Checked between job claims; see [`CancelToken`].
    pub cancel: Option<&'a CancelToken>,
    /// Jobs running longer than this are reported as [`Straggler`]s in
    /// [`CheckedRun::stragglers`]. They still run to completion — the
    /// deadline marks, it does not kill.
    pub soft_deadline: Option<Duration>,
    /// Invoked on the worker thread right after each job completes (or
    /// panics), with the job index and its outcome. Used for incremental
    /// checkpointing. Must not panic; called concurrently from multiple
    /// workers, so it must synchronize internally. Not invoked for
    /// cancelled (never-started) jobs.
    #[allow(clippy::type_complexity)]
    pub on_complete: Option<&'a (dyn Fn(usize, &Result<T, JobError>) + Sync)>,
}

impl<T> Default for PoolOptions<'_, T> {
    fn default() -> Self {
        PoolOptions {
            cancel: None,
            soft_deadline: None,
            on_complete: None,
        }
    }
}

/// The outcome of a checked pool run.
#[derive(Debug)]
pub struct CheckedRun<T> {
    /// Per-job outcomes, in job-index order; always `n` entries.
    pub results: Vec<Result<T, JobError>>,
    /// Jobs that exceeded the soft deadline (empty when no deadline was
    /// set), sorted by index.
    pub stragglers: Vec<Straggler>,
}

impl<T> CheckedRun<T> {
    /// The indices and reasons of all failed (panicked/cancelled) jobs.
    pub fn failures(&self) -> impl Iterator<Item = &JobError> + '_ {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }
}

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
/// per-index costs still balance. With one worker (or one job) the pool
/// degenerates to a plain serial loop — no threads are spawned, so results
/// are bit-identical and cheap jobs pay no synchronization tax.
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
    run_indexed_checked(n, threads, job)
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
pub fn run_indexed_checked<T, F>(n: usize, threads: usize, job: F) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_opts(n, threads, &PoolOptions::default(), job).results
}

/// The fully-optioned checked run: [`run_indexed_checked`] plus
/// cancellation, soft deadlines, and a per-completion callback. See
/// [`PoolOptions`].
pub fn run_indexed_opts<T, F>(
    n: usize,
    threads: usize,
    opts: &PoolOptions<'_, T>,
    job: F,
) -> CheckedRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return CheckedRun {
            results: Vec::new(),
            stragglers: Vec::new(),
        };
    }
    let threads = resolve_threads(threads, n);
    let job = &job;

    // One job under catch_unwind, timed.
    let run_one = |idx: usize| -> (Result<T, JobError>, Duration) {
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| job(idx))) {
            Ok(value) => (Ok(value), start.elapsed()),
            Err(payload) => {
                let duration = start.elapsed();
                (
                    Err(JobError::Panicked {
                        index: idx,
                        payload: panic_payload_string(payload.as_ref()),
                        duration,
                    }),
                    duration,
                )
            }
        }
    };
    let over_deadline =
        |duration: Duration| opts.soft_deadline.is_some_and(|limit| duration > limit);
    let cancelled = || opts.cancel.is_some_and(CancelToken::is_cancelled);

    if threads <= 1 {
        let mut results = Vec::with_capacity(n);
        let mut stragglers = Vec::new();
        for idx in 0..n {
            if cancelled() {
                results.push(Err(JobError::Cancelled { index: idx }));
                continue;
            }
            let (outcome, duration) = run_one(idx);
            if over_deadline(duration) {
                stragglers.push(Straggler {
                    index: idx,
                    duration,
                });
            }
            if let Some(callback) = opts.on_complete {
                callback(idx, &outcome);
            }
            results.push(outcome);
        }
        return CheckedRun {
            results,
            stragglers,
        };
    }

    let cursor = AtomicUsize::new(0);
    // Each worker collects (index, outcome) pairs locally and we scatter
    // into slots afterwards: contention-free during the run, ordered at
    // the end.
    type WorkerHaul<T> = (Vec<(usize, Result<T, JobError>)>, Vec<Straggler>);
    let collected: Vec<WorkerHaul<T>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                let mut slow = Vec::new();
                loop {
                    // The cancel check sits between claims: a claimed job
                    // always runs to completion.
                    if cancelled() {
                        break;
                    }
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let (outcome, duration) = run_one(idx);
                    if over_deadline(duration) {
                        slow.push(Straggler {
                            index: idx,
                            duration,
                        });
                    }
                    if let Some(callback) = opts.on_complete {
                        callback(idx, &outcome);
                    }
                    mine.push((idx, outcome));
                }
                (mine, slow)
            }));
        }
        handles
            .into_iter()
            // Job panics are caught inside the worker; a panic escaping
            // here means the on_complete callback itself panicked, which
            // the PoolOptions contract forbids.
            .map(|h| h.join().expect("pool callback panicked"))
            .collect()
    });

    let mut slots: Vec<Option<Result<T, JobError>>> = (0..n).map(|_| None).collect();
    let mut stragglers = Vec::new();
    for (mine, slow) in collected {
        for (idx, outcome) in mine {
            slots[idx] = Some(outcome);
        }
        stragglers.extend(slow);
    }
    stragglers.sort_by_key(|s| s.index);
    let results = slots
        .into_iter()
        .enumerate()
        // A hole means no worker claimed the index before cancellation.
        .map(|(index, slot)| slot.unwrap_or(Err(JobError::Cancelled { index })))
        .collect();
    CheckedRun {
        results,
        stragglers,
    }
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
        let checked = run_indexed_checked(64, 4, |i| {
            if i == 17 {
                panic!("injected fault in job {i}");
            }
            compute(i)
        });
        assert_eq!(checked.len(), 64);
        for (i, outcome) in checked.iter().enumerate() {
            if i == 17 {
                match outcome {
                    Err(JobError::Panicked { index, payload, .. }) => {
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
        let checked = run_indexed_checked(4, 1, |i| {
            if i == 2 {
                panic!("serial fault");
            }
            i * 10
        });
        assert_eq!(checked[0].as_ref().unwrap(), &0);
        assert_eq!(checked[1].as_ref().unwrap(), &10);
        assert!(checked[2].is_err());
        assert_eq!(checked[3].as_ref().unwrap(), &30);
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
    fn cancel_before_start_cancels_everything() {
        let token = CancelToken::new();
        token.cancel();
        let opts = PoolOptions {
            cancel: Some(&token),
            ..PoolOptions::default()
        };
        let run = run_indexed_opts(10, 4, &opts, |i| i);
        assert_eq!(run.results.len(), 10);
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(r, &Err(JobError::Cancelled { index: i }));
        }
    }

    #[test]
    fn cancel_mid_run_preserves_completed_results() {
        let token = CancelToken::new();
        // Serial path: cancel from the completion callback after job 3, so
        // jobs 0..=3 complete and 4..10 come back Cancelled.
        let token_ref = &token;
        let on_complete = move |idx: usize, _outcome: &Result<usize, JobError>| {
            if idx == 3 {
                token_ref.cancel();
            }
        };
        let opts = PoolOptions {
            cancel: Some(&token),
            soft_deadline: None,
            on_complete: Some(&on_complete),
        };
        let run = run_indexed_opts(10, 1, &opts, |i| i * 2);
        for (i, r) in run.results.iter().enumerate() {
            if i <= 3 {
                assert_eq!(r.as_ref().unwrap(), &(i * 2));
            } else {
                assert_eq!(r, &Err(JobError::Cancelled { index: i }));
            }
        }
    }

    #[test]
    fn soft_deadline_marks_stragglers_but_keeps_results() {
        let opts = PoolOptions {
            soft_deadline: Some(Duration::from_millis(5)),
            ..PoolOptions::default()
        };
        let run = run_indexed_opts(8, 2, &opts, |i| {
            if i == 6 {
                std::thread::sleep(Duration::from_millis(40));
            }
            i + 100
        });
        // The straggler's result is intact — the deadline marks, it does
        // not kill.
        assert_eq!(run.results[6].as_ref().unwrap(), &106);
        assert_eq!(run.stragglers.len(), 1);
        assert_eq!(run.stragglers[0].index, 6);
        assert!(run.stragglers[0].duration >= Duration::from_millis(40));
    }

    #[test]
    fn on_complete_sees_every_job_once() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let on_complete = |idx: usize, outcome: &Result<u64, JobError>| {
            seen.lock().unwrap().push((idx, outcome.is_ok()));
        };
        let opts = PoolOptions {
            cancel: None,
            soft_deadline: None,
            on_complete: Some(&on_complete),
        };
        let run = run_indexed_opts(32, 4, &opts, |i| {
            if i == 9 {
                panic!("die");
            }
            i as u64
        });
        assert_eq!(run.results.len(), 32);
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
        let err = JobError::Panicked {
            index: 3,
            payload: "kaput".into(),
            duration: Duration::from_millis(7),
        };
        assert_eq!(err.index(), 3);
        assert!(err.to_string().contains("job 3"));
        assert!(err.to_string().contains("kaput"));
        let cancelled = JobError::Cancelled { index: 8 };
        assert_eq!(cancelled.index(), 8);
        assert!(cancelled.to_string().contains("cancelled"));
    }
}
