//! `sweep`: the standard policy roster across capacities.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
use gc_cache::gc_sim::checkpoint::{load_json, SweepCheckpoint};
use gc_cache::gc_sim::compare::render_table;
use gc_cache::gc_sim::sweep::{
    run_sweep, run_sweep_compiled, to_csv, OnError, SweepJob, SweepResult, SweepRunConfig,
};
use gc_cache::prelude::*;
use std::io::Write;

pub const USAGE: &str = "\
compare the standard policy roster across capacities
--capacities a,b,c [workload flags] [--csv]
[--compile] replay through the dense-ID compiled engine
(bit-identical results)
fault isolation: [--checkpoint <path> --checkpoint-every N]
[--resume <path>] [--on-error fail|skip]; any of these
switches to checked CSV output, isolating panicking cells
and persisting progress for crash-safe resume";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let capacities: Vec<usize> = args
        .get_list("capacities")?
        .unwrap_or_else(|| vec![256, 1024, 4096]);
    let warmup: usize = args.get_or("warmup", 0usize)?;
    let kinds = PolicyKind::standard_roster(args.get_or("seed", 42u64)?);
    let threads: usize = args.get_or("threads", 0usize)?;
    let checkpoint_path = args.get_str("checkpoint").map(std::path::PathBuf::from);
    let resume_path = args.get_str("resume").map(std::path::PathBuf::from);
    let on_error = args.get_str("on-error");
    let checkpoint_every: usize = args.get_or("checkpoint-every", 25usize)?;
    let checked = checkpoint_path.is_some() || resume_path.is_some() || on_error.is_some();
    let compile = args.switch("compile");
    let csv = args.switch("csv");
    if compile && checked {
        return Err("--compile does not combine with checkpointed sweeps".into());
    }

    let Workload { trace, map, .. } = workload(args)?;
    let jobs: Vec<SweepJob> = capacities
        .iter()
        .flat_map(|&capacity| {
            kinds.iter().map(move |kind| SweepJob {
                kind: kind.clone(),
                capacity,
                warmup,
            })
        })
        .collect();
    let outcome = if compile {
        let compiled = CompiledTrace::compile(&trace, &map).map_err(|e| e.to_string())?;
        run_sweep_compiled(&jobs, &compiled, threads).map_err(|e| e.to_string())?
    } else {
        let on_error: OnError = match on_error.unwrap_or("fail") {
            // The ingest policy name is accepted here too; cells have no
            // sidecar, so it degrades to skip.
            "quarantine" => OnError::Skip,
            other => other.parse()?,
        };
        let resume: Option<SweepCheckpoint> = resume_path
            .as_deref()
            .map(load_json)
            .transpose()
            .map_err(|e| e.to_string())?;
        if let Some(ckpt) = &resume {
            eprintln!(
                "# resuming: {} of {} cells already recorded",
                ckpt.cells.len(),
                ckpt.total_cells
            );
        }
        // Keep checkpointing to the resume file unless a new sink is given.
        let sink = checkpoint_path.or(resume_path);
        let cfg = SweepRunConfig {
            threads,
            on_error,
            checkpoint_path: sink.as_deref(),
            checkpoint_every,
            resume,
        };
        run_sweep(&jobs, &trace, &map, &cfg).map_err(|e| e.to_string())?
    };
    for (index, reason) in &outcome.failures {
        eprintln!("# cell {index} failed: {reason}");
    }
    if csv || checked {
        write!(out, "{}", to_csv(&outcome, &jobs))?;
        return Ok(());
    }
    // Jobs are capacity-major and no cell failed, so each chunk is one
    // capacity's roster.
    let cells: Vec<&SweepResult> = outcome.completed().collect();
    for cells in cells.chunks(kinds.len()) {
        writeln!(out, "== capacity {} ==", cells[0].job.capacity)?;
        write!(out, "{}", render_table(cells))?;
        writeln!(out)?;
    }
    Ok(())
}
