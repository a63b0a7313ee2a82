//! Parallel parameter-sweep harness.
//!
//! Benchmarks sweep (policy × capacity) grids over a shared read-only
//! trace. Each job is independent, so [`run_sweep`] fans them out over the
//! shared [`pool`](crate::pool) — std scoped threads pulling job indices
//! off an atomic cursor, results returned in job order — with each cell
//! isolated from the others' panics and, optionally, checkpointed for
//! crash-safe resume.

use crate::checkpoint::{
    self, StableHasher, SweepCellOutcome, SweepCellRecord, SweepCheckpoint, SINK_POISONED,
};
use crate::engine::{simulate_compiled_with_warmup, simulate_with_warmup};
use crate::pool::{self, JobError};
use crate::stats::SimStats;
use gc_policies::PolicyKind;
use gc_types::{BlockMap, CompiledTrace, GcError, Trace};
use std::path::Path;
use std::sync::Mutex;

/// One cell of a sweep grid.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// Policy to instantiate.
    pub kind: PolicyKind,
    /// Cache capacity in items.
    pub capacity: usize,
    /// Requests excluded from statistics at the front of the trace.
    pub warmup: usize,
}

/// The outcome of one sweep cell.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The job that produced this result.
    pub job: SweepJob,
    /// Policy display name (includes parameters).
    pub policy_name: String,
    /// Aggregate statistics.
    pub stats: SimStats,
}

/// Run a single sweep cell — the pure function every execution mode
/// (isolated, resumed, fault-injected) funnels through, which is what makes
/// surviving-cell results bit-identical across modes.
pub fn run_cell(job: &SweepJob, trace: &Trace, map: &BlockMap) -> SweepResult {
    let mut policy = job.kind.build(job.capacity, map);
    // Materialize the display name before the simulation so the one String
    // this job owns is allocated up front, leaving the measured hot loop
    // allocation-free.
    let policy_name = policy.name();
    let stats = simulate_with_warmup(&mut policy, trace, job.warmup);
    SweepResult {
        job: job.clone(),
        policy_name,
        stats,
    }
}

/// [`run_sweep`] over a compiled trace: the one-time compilation pass is
/// amortized across every cell, each of which builds its policy against
/// the dense map and streams the flat access array. Results are
/// bit-identical to [`run_sweep`] on the source trace. Cells fail as under
/// [`run_sweep`] with [`OnError::Fail`]: the run returns
/// [`GcError::CellFailed`] for the first failed cell in job order.
pub fn run_sweep_compiled(
    jobs: &[SweepJob],
    compiled: &CompiledTrace,
    threads: usize,
) -> Result<SweepOutcome, GcError> {
    let block_size = compiled.map().max_block_size();
    let outcomes = pool::run_indexed_checked(
        jobs.len(),
        threads,
        |_, _| {},
        |idx| {
            checked_cell(&jobs[idx], block_size, || {
                run_cell_compiled(&jobs[idx], compiled)
            })
        },
    );
    let results = outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| match cell_reason(outcome) {
            Ok(result) => Ok(Some(result)),
            Err(reason) => Err(GcError::CellFailed { index, reason }),
        })
        .collect::<Result<_, _>>()?;
    Ok(SweepOutcome {
        results,
        failures: Vec::new(),
        resumed_cells: 0,
    })
}

/// Run `cell` unless `job`'s capacity is below the minimum its policy can
/// be built with; such a cell fails with the error `simulate` gives for the
/// same capacity instead of panicking in the policy's constructor.
fn checked_cell(
    job: &SweepJob,
    block_size: usize,
    cell: impl FnOnce() -> SweepResult,
) -> Result<SweepResult, String> {
    let required = job.kind.min_capacity(block_size);
    match job.capacity {
        0 => Err(GcError::ZeroCapacity.to_string()),
        capacity if capacity < required => {
            Err(GcError::CapacityTooSmall { capacity, required }.to_string())
        }
        _ => Ok(cell()),
    }
}

/// A cell's result, or why it failed: its refusal or its panic payload.
fn cell_reason(
    outcome: Result<Result<SweepResult, String>, JobError>,
) -> Result<SweepResult, String> {
    outcome.map_err(|e| e.payload).and_then(|cell| cell)
}

/// Compiled analogue of [`run_cell`].
pub(crate) fn run_cell_compiled(job: &SweepJob, compiled: &CompiledTrace) -> SweepResult {
    let mut policy = job.kind.build(job.capacity, compiled.map());
    let policy_name = policy.name();
    let stats = simulate_compiled_with_warmup(&mut policy, compiled, job.warmup);
    SweepResult {
        job: job.clone(),
        policy_name,
        stats,
    }
}

/// Render a sweep as CSV (`policy,capacity,accesses,misses,...`): one row
/// per completed cell in job order, then one `# cell <i> ... failed:`
/// comment line per failed cell.
pub fn to_csv(outcome: &SweepOutcome, jobs: &[SweepJob]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "policy,capacity,accesses,misses,fault_rate,temporal_hits,spatial_hits,load_width\n",
    );
    // `write!` into the buffer (and `Display` on the kind) keeps each row
    // allocation-free; formatting a String cannot fail.
    for r in outcome.completed() {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{},{},{:.3}",
            r.job.kind,
            r.job.capacity,
            r.stats.accesses,
            r.stats.misses,
            r.stats.fault_rate(),
            r.stats.temporal_hits,
            r.stats.spatial_hits,
            r.stats.load_width(),
        );
    }
    for (index, reason) in &outcome.failures {
        let job = &jobs[*index];
        let _ = writeln!(
            out,
            "# cell {index} ({},{}) failed: {reason}",
            job.kind, job.capacity
        );
    }
    out
}

/// What a sweep does when a cell fails: it panics, or its capacity is
/// below its policy's minimum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnError {
    /// Abort the run with [`GcError::CellFailed`] at the first failed
    /// cell (after flushing the checkpoint, so completed work survives).
    #[default]
    Fail,
    /// Record the failure and keep going; the failed cell is reported
    /// per-index in [`SweepOutcome::failures`].
    Skip,
}

impl std::str::FromStr for OnError {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fail" => Ok(OnError::Fail),
            "skip" => Ok(OnError::Skip),
            other => Err(format!("unknown error policy {other:?} (fail|skip)")),
        }
    }
}

/// How to run a sweep. [`Default`] is one thread per core,
/// [`OnError::Fail`] and no checkpoint.
#[derive(Default)]
pub struct SweepRunConfig<'a> {
    /// Worker threads (`0` = one per core).
    pub threads: usize,
    /// What to do when a cell fails. Default: [`OnError::Fail`].
    pub on_error: OnError,
    /// Where to write periodic JSON checkpoints (atomically). `None`
    /// disables checkpointing.
    pub checkpoint_path: Option<&'a Path>,
    /// Flush the checkpoint after this many newly completed cells
    /// (clamped to ≥ 1). Smaller = less lost work on a kill, more I/O.
    pub checkpoint_every: usize,
    /// A previously written checkpoint to resume from. Completed cells are
    /// served from it verbatim; missing and failed cells are re-run. The
    /// checkpoint is validated against this run's config fingerprint and
    /// the run is refused on mismatch.
    pub resume: Option<SweepCheckpoint>,
}

/// The outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-job results in job order; `None` exactly for failed cells
    /// (only possible under [`OnError::Skip`]).
    pub results: Vec<Option<SweepResult>>,
    /// `(cell index, reason)` for every failed cell: the capacity error or
    /// the rendered panic payload.
    pub failures: Vec<(usize, String)>,
    /// How many cells were served from the resume checkpoint instead of
    /// being re-run.
    pub resumed_cells: usize,
}

impl SweepOutcome {
    /// The completed results, in job order (failed cells skipped).
    pub fn completed(&self) -> impl Iterator<Item = &SweepResult> + '_ {
        self.results.iter().flatten()
    }
}

/// Deterministic fingerprint of everything that affects sweep cell
/// results: the job list, the trace contents, and the block map. Thread
/// count and checkpoint cadence are excluded — they cannot change results.
pub(crate) fn sweep_config_hash(jobs: &[SweepJob], trace: &Trace, map: &BlockMap) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("sweep-v1");
    h.write_usize(jobs.len());
    for job in jobs {
        // Debug keeps seeds and parameters that Display drops.
        h.write_str(&format!("{:?}", job.kind));
        h.write_usize(job.capacity);
        h.write_usize(job.warmup);
    }
    h.write_u64(checkpoint::trace_fingerprint(trace));
    h.write_u64(checkpoint::map_fingerprint(map));
    h.finish()
}

/// Incremental checkpoint sink shared by the pool workers.
struct CheckpointSink<'a> {
    ckpt: SweepCheckpoint,
    path: &'a Path,
    every: usize,
    since_flush: usize,
    write_error: Option<GcError>,
}

impl CheckpointSink<'_> {
    fn record(&mut self, record: SweepCellRecord) {
        self.ckpt.cells.push(record);
        self.since_flush += 1;
        if self.since_flush >= self.every {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.since_flush = 0;
        self.ckpt.cells.sort_by_key(|c| c.index);
        if let Err(e) = checkpoint::save_json(&self.ckpt, self.path) {
            // Keep computing — results are still returned in-memory — but
            // surface the first persistence failure at the end of the run.
            self.write_error.get_or_insert(e);
        }
    }
}

/// Run every job against `trace`/`map` on up to
/// [`threads`](SweepRunConfig::threads) workers.
///
/// Jobs are claimed dynamically, so wildly uneven job costs (a 1 Ki cache
/// vs a 1 Mi cache) still balance. Every cell runs fault-isolated on the
/// checked [`pool`] path, so one panicking cell cannot take down the run,
/// and a cell whose capacity is below its policy's minimum fails with that
/// error instead of panicking. Under [`OnError::Skip`] the remaining cells complete with results
/// **bit-identical** to a fault-free run, and under [`OnError::Fail`] the
/// error names the failing cell index. With a checkpoint path configured,
/// completed cells are flushed to disk every
/// [`checkpoint_every`](SweepRunConfig::checkpoint_every) completions
/// (atomic write), and a later invocation can pass the loaded checkpoint
/// as [`resume`](SweepRunConfig::resume) to re-run only the missing and
/// failed cells. Resume output is bit-identical to an uninterrupted run.
pub fn run_sweep(
    jobs: &[SweepJob],
    trace: &Trace,
    map: &BlockMap,
    cfg: &SweepRunConfig<'_>,
) -> Result<SweepOutcome, GcError> {
    let mut done: Vec<Option<SweepCellOutcome>> = vec![None; jobs.len()];
    // The checkpoint, and the full-trace fingerprint it needs, exist only
    // when one is read or written.
    let mut sink = None;
    if cfg.checkpoint_path.is_some() || cfg.resume.is_some() {
        let config_hash = sweep_config_hash(jobs, trace, map);
        let mut base = match &cfg.resume {
            Some(ckpt) => {
                ckpt.validate(config_hash, jobs.len())?;
                ckpt.clone()
            }
            None => SweepCheckpoint::new(config_hash, jobs.len()),
        };
        // Completed cells come from the checkpoint; failed cells are
        // re-run, so drop their records before this run appends fresh
        // outcomes.
        base.cells
            .retain(|c| matches!(c.outcome, SweepCellOutcome::Done { .. }));
        for cell in &base.cells {
            done[cell.index] = Some(cell.outcome.clone());
        }
        sink = cfg.checkpoint_path.map(|path| {
            Mutex::new(CheckpointSink {
                ckpt: base,
                path,
                every: cfg.checkpoint_every.max(1),
                since_flush: 0,
                write_error: None,
            })
        });
    }
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| done[i].is_none()).collect();
    let resumed_cells = jobs.len() - pending.len();

    let on_complete = |slot: usize, outcome: &Result<Result<SweepResult, String>, JobError>| {
        let Some(sink) = &sink else { return };
        let index = pending[slot];
        let outcome = match outcome {
            Ok(Ok(result)) => SweepCellOutcome::Done {
                policy_name: result.policy_name.clone(),
                stats: result.stats.clone(),
            },
            Ok(Err(reason)) => SweepCellOutcome::Failed {
                reason: reason.clone(),
            },
            Err(e) => SweepCellOutcome::Failed {
                reason: e.to_string(),
            },
        };
        let record = SweepCellRecord { index, outcome };
        sink.lock().expect(SINK_POISONED).record(record);
    };
    let block_size = map.max_block_size();
    let fresh = pool::run_indexed_checked(pending.len(), cfg.threads, on_complete, |slot| {
        let job = &jobs[pending[slot]];
        checked_cell(job, block_size, || run_cell(job, trace, map))
    });

    if let Some(sink) = sink {
        let mut sink = sink.into_inner().expect(SINK_POISONED);
        sink.flush();
        if let Some(e) = sink.write_error {
            return Err(e);
        }
    }

    // Assemble in job order: resumed cells from the checkpoint, fresh
    // cells from this run.
    let mut fresh = fresh.into_iter();
    let mut results: Vec<Option<SweepResult>> = Vec::with_capacity(jobs.len());
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        if let Some(SweepCellOutcome::Done { policy_name, stats }) = done[index].take() {
            results.push(Some(SweepResult {
                job: job.clone(),
                policy_name,
                stats,
            }));
            continue;
        }
        let slot = fresh
            .next()
            .expect("every non-resumed cell has a pool slot");
        match cell_reason(slot) {
            Ok(result) => results.push(Some(result)),
            Err(reason) => {
                if cfg.on_error == OnError::Fail {
                    return Err(GcError::CellFailed { index, reason });
                }
                failures.push((index, reason));
                results.push(None);
            }
        }
    }
    Ok(SweepOutcome {
        results,
        failures,
        resumed_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_trace::synthetic;

    fn grid() -> Vec<SweepJob> {
        let mut jobs = Vec::new();
        for kind in [
            PolicyKind::ItemLru,
            PolicyKind::BlockLru,
            PolicyKind::IblpBalanced,
        ] {
            for capacity in [32usize, 64, 128] {
                jobs.push(SweepJob {
                    kind: kind.clone(),
                    capacity,
                    warmup: 0,
                });
            }
        }
        jobs
    }

    /// A fault-free sweep on `threads` workers, every cell completed.
    fn sweep(jobs: &[SweepJob], trace: &Trace, map: &BlockMap, threads: usize) -> SweepOutcome {
        let cfg = SweepRunConfig {
            threads,
            ..SweepRunConfig::default()
        };
        run_sweep(jobs, trace, map, &cfg).unwrap()
    }

    fn trace_and_map() -> (Trace, BlockMap) {
        let cfg = synthetic::BlockRunConfig {
            num_blocks: 128,
            block_size: 8,
            block_theta: 0.7,
            spatial_locality: 0.6,
            len: 20_000,
            seed: 17,
        };
        (synthetic::block_runs(&cfg), synthetic::block_runs_map(&cfg))
    }

    #[test]
    fn parallel_matches_serial() {
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let serial = sweep(&jobs, &trace, &map, 1);
        let parallel = sweep(&jobs, &trace, &map, 4);
        assert_eq!(serial.results.len(), parallel.results.len());
        for (s, p) in serial.completed().zip(parallel.completed()) {
            assert_eq!(s.stats, p.stats, "job {:?}", s.job);
            assert_eq!(s.policy_name, p.policy_name);
        }
    }

    #[test]
    fn compiled_sweep_matches_sparse_bit_identically() {
        let (trace, map) = trace_and_map();
        let compiled = CompiledTrace::compile(&trace, &map).unwrap();
        let jobs = grid();
        let sparse = sweep(&jobs, &trace, &map, 2);
        let dense = run_sweep_compiled(&jobs, &compiled, 2).unwrap();
        assert_eq!(sparse.results.len(), dense.results.len());
        for (s, d) in sparse.completed().zip(dense.completed()) {
            assert_eq!(s.stats, d.stats, "job {:?}", s.job);
            assert_eq!(s.policy_name, d.policy_name);
        }
    }

    #[test]
    fn results_align_with_jobs() {
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let outcome = sweep(&jobs, &trace, &map, 0);
        assert_eq!(outcome.completed().count(), jobs.len());
        for (job, result) in jobs.iter().zip(outcome.completed()) {
            assert_eq!(job.capacity, result.job.capacity);
            assert_eq!(job.kind, result.job.kind);
            assert_eq!(result.stats.accesses, trace.len() as u64);
        }
    }

    #[test]
    fn bigger_caches_never_do_worse_for_lru() {
        // LRU's inclusion property: fault rate is monotone in capacity.
        let (trace, map) = trace_and_map();
        let jobs: Vec<SweepJob> = [32usize, 64, 128, 256]
            .iter()
            .map(|&capacity| SweepJob {
                kind: PolicyKind::ItemLru,
                capacity,
                warmup: 0,
            })
            .collect();
        let results: Vec<SweepResult> =
            sweep(&jobs, &trace, &map, 2).completed().cloned().collect();
        for pair in results.windows(2) {
            assert!(
                pair[1].stats.misses <= pair[0].stats.misses,
                "LRU not monotone: {:?}",
                pair.iter().map(|r| r.stats.misses).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_jobs_ok() {
        let (trace, map) = trace_and_map();
        assert!(sweep(&[], &trace, &map, 4).results.is_empty());
    }

    #[test]
    fn checked_matches_plain_run_bit_identically() {
        // Running under the checked pool changes nothing: every cell equals
        // a direct serial `run_cell` of the same job.
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let outcome = run_sweep(&jobs, &trace, &map, &SweepRunConfig::default()).unwrap();
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.resumed_cells, 0);
        assert_eq!(outcome.completed().count(), jobs.len());
        for (job, c) in jobs.iter().zip(outcome.completed()) {
            let p = run_cell(job, &trace, &map);
            assert_eq!(p.stats, c.stats);
            assert_eq!(p.policy_name, c.policy_name);
        }
    }

    #[test]
    fn poisoned_cell_under_skip_leaves_survivors_bit_identical() {
        let (trace, map) = trace_and_map();
        let mut jobs = grid();
        // Capacity 0 is below the policy's minimum — a failing cell
        // through the full production path.
        jobs.insert(
            4,
            SweepJob {
                kind: PolicyKind::ItemLru,
                capacity: 0,
                warmup: 0,
            },
        );
        let cfg = SweepRunConfig {
            threads: 4,
            on_error: OnError::Skip,
            ..SweepRunConfig::default()
        };
        let outcome = run_sweep(&jobs, &trace, &map, &cfg).unwrap();
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].0, 4);
        assert!(outcome.failures[0].1.contains("capacity"));
        assert!(outcome.results[4].is_none());
        // Survivors are bit-identical to a clean serial run of the same
        // jobs minus the poisoned cell.
        let mut clean_jobs = jobs.clone();
        clean_jobs.remove(4);
        let clean = sweep(&clean_jobs, &trace, &map, 1);
        let survivors: Vec<&SweepResult> = outcome.completed().collect();
        assert_eq!(survivors.len(), clean.results.len());
        for (s, c) in survivors.iter().zip(clean.completed()) {
            assert_eq!(s.stats, c.stats, "job {:?}", c.job);
            assert_eq!(s.policy_name, c.policy_name);
        }
    }

    #[test]
    fn poisoned_cell_under_fail_names_the_cell() {
        let (trace, map) = trace_and_map();
        let jobs = vec![
            SweepJob {
                kind: PolicyKind::ItemLru,
                capacity: 64,
                warmup: 0,
            },
            SweepJob {
                kind: PolicyKind::ItemLru,
                capacity: 0,
                warmup: 0,
            },
        ];
        let err = run_sweep(&jobs, &trace, &map, &SweepRunConfig::default()).unwrap_err();
        match err {
            gc_types::GcError::CellFailed { index, .. } => assert_eq!(index, 1),
            other => panic!("expected CellFailed, got {other}"),
        }
    }

    #[test]
    fn resume_from_partial_checkpoint_is_bit_identical() {
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let reference = sweep(&jobs, &trace, &map, 1);

        // Simulate an interrupted run: a checkpoint holding only the first
        // four cells (as the incremental sink would have flushed them).
        let hash = sweep_config_hash(&jobs, &trace, &map);
        let mut partial = SweepCheckpoint::new(hash, jobs.len());
        for (index, r) in reference.completed().enumerate().take(4) {
            partial.cells.push(SweepCellRecord {
                index,
                outcome: SweepCellOutcome::Done {
                    policy_name: r.policy_name.clone(),
                    stats: r.stats.clone(),
                },
            });
        }
        let cfg = SweepRunConfig {
            threads: 2,
            resume: Some(partial),
            ..SweepRunConfig::default()
        };
        let outcome = run_sweep(&jobs, &trace, &map, &cfg).unwrap();
        assert_eq!(outcome.resumed_cells, 4);
        assert_eq!(to_csv(&reference, &jobs), to_csv(&outcome, &jobs));
    }

    #[test]
    fn resume_reruns_failed_cells() {
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let hash = sweep_config_hash(&jobs, &trace, &map);
        let mut partial = SweepCheckpoint::new(hash, jobs.len());
        partial.cells.push(SweepCellRecord {
            index: 0,
            outcome: SweepCellOutcome::Failed {
                reason: "transient".into(),
            },
        });
        let cfg = SweepRunConfig {
            resume: Some(partial),
            ..SweepRunConfig::default()
        };
        let outcome = run_sweep(&jobs, &trace, &map, &cfg).unwrap();
        // The failed record was discarded and the cell re-ran cleanly.
        assert_eq!(outcome.resumed_cells, 0);
        assert!(outcome.failures.is_empty());
        assert_eq!(
            to_csv(&sweep(&jobs, &trace, &map, 1), &jobs),
            to_csv(&outcome, &jobs)
        );
    }

    #[test]
    fn resume_refuses_mismatched_config() {
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let wrong = SweepCheckpoint::new(0xdead_beef, jobs.len());
        let cfg = SweepRunConfig {
            resume: Some(wrong),
            ..SweepRunConfig::default()
        };
        let err = run_sweep(&jobs, &trace, &map, &cfg).unwrap_err();
        assert!(
            matches!(err, gc_types::GcError::CheckpointMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn config_hash_tracks_jobs_and_trace() {
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let base = sweep_config_hash(&jobs, &trace, &map);
        assert_eq!(base, sweep_config_hash(&jobs, &trace, &map));
        let mut more_jobs = jobs.clone();
        more_jobs.push(SweepJob {
            kind: PolicyKind::ItemLru,
            capacity: 999,
            warmup: 0,
        });
        assert_ne!(base, sweep_config_hash(&more_jobs, &trace, &map));
        let other_trace = Trace::from_ids([1, 2, 3]);
        assert_ne!(base, sweep_config_hash(&jobs, &other_trace, &map));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (trace, map) = trace_and_map();
        let jobs = vec![SweepJob {
            kind: PolicyKind::ItemLru,
            capacity: 32,
            warmup: 0,
        }];
        let csv = to_csv(&sweep(&jobs, &trace, &map, 1), &jobs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("policy,capacity"));
        assert!(lines[1].starts_with("item-lru,32,"));
    }
}
