//! Parallel parameter-sweep harness.
//!
//! Benchmarks sweep (policy × capacity) grids over a shared read-only
//! trace. Each job is independent, so [`run_sweep`] fans them out over the
//! shared [`pool`](crate::pool) — std scoped threads pulling job indices
//! off an atomic cursor, results returned in job order. A cell whose
//! capacity its policy refuses fails alone, and [`OnError`] decides
//! whether that ends the run.

use crate::engine::{simulate_compiled_with_warmup, simulate_with_warmup};
use crate::pool;
use crate::stats::SimStats;
use gc_policies::PolicyKind;
use gc_types::{BlockMap, CompiledTrace, GcError, Trace};

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

/// Run a single sweep cell — the pure function every sweep funnels
/// through, which is what makes cell results bit-identical whatever the
/// thread count or the other cells.
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
/// the dense map and streams the flat access array. Results, failures
/// included, are bit-identical to [`run_sweep`] on the source trace.
pub fn run_sweep_compiled(
    jobs: &[SweepJob],
    compiled: &CompiledTrace,
    cfg: &SweepRunConfig,
) -> Result<SweepOutcome, GcError> {
    sweep_cells(jobs, compiled.map(), cfg, |job| {
        run_cell_compiled(job, compiled)
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

/// What a sweep does when a cell fails, that is, when its capacity is
/// below its policy's minimum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnError {
    /// Abort the run with [`GcError::CellFailed`] naming the first failed
    /// cell in job order.
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

/// How to run a sweep. [`Default`] is one thread per core and
/// [`OnError::Fail`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepRunConfig {
    /// Worker threads (`0` = one per core).
    pub threads: usize,
    /// What to do when a cell fails. Default: [`OnError::Fail`].
    pub on_error: OnError,
}

/// The outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-job results in job order; `None` exactly for failed cells
    /// (only possible under [`OnError::Skip`]).
    pub results: Vec<Option<SweepResult>>,
    /// `(cell index, reason)` for every failed cell: its capacity error.
    pub failures: Vec<(usize, String)>,
}

impl SweepOutcome {
    /// The completed results, in job order (failed cells skipped).
    pub fn completed(&self) -> impl Iterator<Item = &SweepResult> + '_ {
        self.results.iter().flatten()
    }
}

/// Run every job against `trace`/`map` on up to
/// [`threads`](SweepRunConfig::threads) workers.
///
/// Jobs are claimed dynamically, so wildly uneven job costs (a 1 Ki cache
/// vs a 1 Mi cache) still balance. A cell whose capacity is below its
/// policy's minimum fails with that error instead of panicking. Under
/// [`OnError::Skip`] the remaining cells complete with results
/// **bit-identical** to a run without the failed cells, and under
/// [`OnError::Fail`] the error names the first failed cell index.
pub fn run_sweep(
    jobs: &[SweepJob],
    trace: &Trace,
    map: &BlockMap,
    cfg: &SweepRunConfig,
) -> Result<SweepOutcome, GcError> {
    sweep_cells(jobs, map, cfg, |job| run_cell(job, trace, map))
}

/// The one sweep both engines share: run `cell` for every job on the
/// pool, refusing undersized capacities against `map`, and assemble the
/// outcomes in job order under [`SweepRunConfig::on_error`].
fn sweep_cells(
    jobs: &[SweepJob],
    map: &BlockMap,
    cfg: &SweepRunConfig,
    cell: impl Fn(&SweepJob) -> SweepResult + Sync,
) -> Result<SweepOutcome, GcError> {
    let block_size = map.max_block_size();
    let cells = pool::run_indexed(jobs.len(), cfg.threads, |idx| {
        checked_cell(&jobs[idx], block_size, || cell(&jobs[idx]))
    });
    let mut results = Vec::with_capacity(cells.len());
    let mut failures = Vec::new();
    for (index, cell) in cells.into_iter().enumerate() {
        match cell {
            Ok(result) => results.push(Some(result)),
            Err(reason) if cfg.on_error == OnError::Fail => {
                return Err(GcError::CellFailed { index, reason });
            }
            Err(reason) => {
                failures.push((index, reason));
                results.push(None);
            }
        }
    }
    Ok(SweepOutcome { results, failures })
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
        let cfg = SweepRunConfig {
            threads: 2,
            ..SweepRunConfig::default()
        };
        let dense = run_sweep_compiled(&jobs, &compiled, &cfg).unwrap();
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
        // Running on the pool with capacity checks changes nothing: every
        // cell equals a direct serial `run_cell` of the same job.
        let (trace, map) = trace_and_map();
        let jobs = grid();
        let outcome = run_sweep(&jobs, &trace, &map, &SweepRunConfig::default()).unwrap();
        assert!(outcome.failures.is_empty());
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
        };
        let outcome = run_sweep(&jobs, &trace, &map, &cfg).unwrap();
        // The compiled engine skips the same cell with the same reason.
        let compiled = CompiledTrace::compile(&trace, &map).unwrap();
        let dense = run_sweep_compiled(&jobs, &compiled, &cfg).unwrap();
        assert_eq!(to_csv(&outcome, &jobs), to_csv(&dense, &jobs));
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
