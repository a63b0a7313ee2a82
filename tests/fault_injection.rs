//! Differential fault injection: the fault-isolation machinery keeps its
//! promises under deliberately hostile conditions.
//!
//! Two injection axes, mirroring the failure modes the production paths
//! guard against:
//!
//! * **panicking cells** — sweep jobs that panic mid-flight; the checked
//!   pool must catch each one and every surviving cell must be
//!   bit-identical to a clean serial run ([`differential_sweep`]),
//! * **corrupt trace records** — garbage spliced into a text trace;
//!   quarantine-mode ingest must recover exactly the valid subsequence
//!   ([`differential_ingest`]).

use gc_cache::gc_sim::pool::{self, JobError};
use gc_cache::gc_sim::sweep::{run_cell, SweepJob};
use gc_cache::gc_trace::io::{read_text_with, write_text, IngestOptions, IngestPolicy};
use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::gc_types::rng::StdRng;
use gc_cache::prelude::*;

/// Requests in the scenario suite's workload.
const SCENARIO_LEN: usize = 10_000;
/// Corrupt lines the scenario suite splices into its trace.
const SCENARIO_GARBAGE: usize = 25;

/// A mixed-locality workload: 4096 blocks of 16, Zipf 0.9 over blocks,
/// spatial locality 0.6.
fn standard_workload(len: usize, seed: u64) -> (Trace, BlockMap) {
    let cfg = BlockRunConfig {
        num_blocks: 4096,
        block_size: 16,
        block_theta: 0.9,
        spatial_locality: 0.6,
        len,
        seed,
    };
    (block_runs(&cfg), block_runs_map(&cfg))
}

/// The standard roster at each capacity, capacity-major.
fn grid(capacities: &[usize], seed: u64) -> Vec<SweepJob> {
    let kinds = PolicyKind::standard_roster(seed);
    capacities
        .iter()
        .flat_map(|&capacity| {
            kinds.iter().map(move |kind| SweepJob {
                kind: kind.clone(),
                capacity,
                warmup: 0,
            })
        })
        .collect()
}

/// Which faults to inject into a sweep run.
#[derive(Clone, Debug, Default)]
struct FaultPlan {
    /// Cell indices whose jobs panic instead of simulating.
    panic_cells: Vec<usize>,
    /// Worker threads for the faulted run.
    threads: usize,
}

/// The outcome of one differential sweep experiment.
#[derive(Clone, Debug, Default)]
struct SweepFaultReport {
    /// Panics injected (and expected to be caught).
    injected_panics: usize,
    /// Panics the checked pool actually caught.
    caught_panics: usize,
    /// Surviving cells whose results diverged from the clean serial run.
    mismatched_cells: usize,
}

impl SweepFaultReport {
    /// Whether the fault-isolation contract held.
    fn passed(&self) -> bool {
        self.caught_panics == self.injected_panics && self.mismatched_cells == 0
    }
}

/// Run `jobs` twice — clean and serial via [`run_cell`], then on the
/// checked pool with the `plan`'s faults injected — and compare every
/// surviving cell bit-for-bit.
fn differential_sweep(
    jobs: &[SweepJob],
    trace: &Trace,
    map: &BlockMap,
    plan: &FaultPlan,
) -> SweepFaultReport {
    let clean: Vec<_> = jobs.iter().map(|job| run_cell(job, trace, map)).collect();

    let faulted = pool::run_indexed_checked(
        jobs.len(),
        plan.threads,
        |_, _| {},
        |i| {
            if plan.panic_cells.contains(&i) {
                panic!("injected panic in cell {i}");
            }
            run_cell(&jobs[i], trace, map)
        },
    );

    let mut report = SweepFaultReport {
        injected_panics: plan.panic_cells.len(),
        ..SweepFaultReport::default()
    };
    for (i, result) in faulted.iter().enumerate() {
        match result {
            Ok(r) => {
                if r.stats != clean[i].stats || r.policy_name != clean[i].policy_name {
                    report.mismatched_cells += 1;
                }
            }
            Err(JobError { index, payload, .. }) => {
                if *index == i && payload.contains("injected panic") {
                    report.caught_panics += 1;
                }
            }
        }
    }
    report
}

/// Splice `garbage` corrupt lines into the text rendering of `trace` at
/// deterministic pseudo-random positions.
fn corrupt_trace_text(trace: &Trace, garbage: usize, seed: u64) -> String {
    const JUNK: &[&str] = &[
        "bogus",
        "-17",
        "0x1f",
        "999999999999999999999999999999",
        "id 4",
        "\u{fffd}\u{fffd}",
    ];
    let mut rendered = Vec::new();
    write_text(trace, &mut rendered).expect("in-memory write cannot fail");
    let mut lines: Vec<String> = String::from_utf8(rendered)
        .expect("trace text is utf-8")
        .lines()
        .map(String::from)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for g in 0..garbage {
        let at = rng.gen_range(0..lines.len() + 1);
        lines.insert(at, JUNK[g % JUNK.len()].to_string());
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The outcome of one differential ingest experiment.
#[derive(Clone, Debug, Default)]
struct IngestFaultReport {
    /// Garbage lines injected.
    injected: usize,
    /// Garbage lines the quarantine caught.
    quarantined: usize,
    /// Whether the recovered trace equals the original exactly.
    recovered_exactly: bool,
}

impl IngestFaultReport {
    /// Whether the degraded-mode ingest contract held.
    fn passed(&self) -> bool {
        self.recovered_exactly && self.quarantined == self.injected
    }
}

/// Corrupt the text rendering of `trace` with `garbage` junk lines, ingest
/// it in quarantine mode, and compare the recovered trace with the
/// original.
fn differential_ingest(trace: &Trace, garbage: usize, seed: u64) -> IngestFaultReport {
    let corrupted = corrupt_trace_text(trace, garbage, seed);
    let mut sidecar = Vec::new();
    let mut opts = IngestOptions {
        policy: IngestPolicy::Quarantine,
        quarantine: Some(&mut sidecar),
        ..IngestOptions::default()
    };
    let (recovered, stats) =
        read_text_with(corrupted.as_bytes(), &mut opts).expect("quarantine ingest cannot abort");
    IngestFaultReport {
        injected: garbage,
        quarantined: stats.quarantined,
        recovered_exactly: recovered.requests() == trace.requests(),
    }
}

#[test]
fn one_panicking_job_leaves_the_rest_bit_identical() {
    let (trace, map) = standard_workload(8_000, 5);
    let jobs = grid(&[128], 5);
    let plan = FaultPlan {
        panic_cells: vec![2],
        threads: 4,
    };
    let report = differential_sweep(&jobs, &trace, &map, &plan);
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.caught_panics, 1);
    assert_eq!(report.mismatched_cells, 0);
}

#[test]
fn clean_plan_has_no_faults_to_report() {
    let (trace, map) = standard_workload(8_000, 5);
    let jobs = grid(&[128], 5);
    let report = differential_sweep(&jobs, &trace, &map, &FaultPlan::default());
    assert!(report.passed(), "{report:?}");
    assert_eq!(report.caught_panics, 0);
}

#[test]
fn corrupt_ingest_recovers_exactly() {
    let (trace, _) = standard_workload(5_000, 9);
    let report = differential_ingest(&trace, 40, 17);
    assert!(report.passed(), "{report:?}");
}

/// Both scenarios over one grid: panicking cells scattered across it, and
/// corrupt trace ingest.
#[test]
fn scenario_suite_passes_quick() {
    let (trace, map) = standard_workload(SCENARIO_LEN, 11);
    let jobs = grid(&[64, 256, 1024], 11);

    let plan = FaultPlan {
        panic_cells: vec![0, jobs.len() / 2, jobs.len() - 1],
        threads: 4,
    };
    let report = differential_sweep(&jobs, &trace, &map, &plan);
    assert!(report.passed(), "panic injection: {report:?}");

    let report = differential_ingest(&trace, SCENARIO_GARBAGE, 13);
    assert!(report.passed(), "corrupt ingest: {report:?}");
}
