//! `sweep`: the standard policy roster across capacities.

use super::workload::{workload, Workload};
use super::Failure;
use crate::args::Args;
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
[--on-error fail|skip] what a cell whose capacity its
policy refuses does to the run; switches to CSV output";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let capacities: Vec<usize> = args
        .get_list("capacities")?
        .unwrap_or_else(|| vec![256, 1024, 4096]);
    let warmup: usize = args.get_or("warmup", 0usize)?;
    let kinds = PolicyKind::standard_roster(args.get_or("seed", 42u64)?);
    let threads: usize = args.get_or("threads", 0usize)?;
    let on_error = args.get_str("on-error");
    let compile = args.switch("compile");
    let csv = args.switch("csv") || on_error.is_some();
    let cfg = SweepRunConfig {
        threads,
        on_error: match on_error.unwrap_or("fail") {
            // The ingest policy name is accepted here too; cells have no
            // sidecar, so it degrades to skip.
            "quarantine" => OnError::Skip,
            other => other.parse()?,
        },
    };

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
        run_sweep_compiled(&jobs, &compiled, &cfg)
    } else {
        run_sweep(&jobs, &trace, &map, &cfg)
    }
    .map_err(|e| e.to_string())?;
    for (index, reason) in &outcome.failures {
        eprintln!("# cell {index} failed: {reason}");
    }
    if csv {
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
