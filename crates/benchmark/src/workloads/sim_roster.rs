//! `sim-roster`: the researcher's sweep. One thread runs
//! `simulate_compiled` for ten policies over two traces — `mixed`
//! (temporal skew over blocks plus spatial runs) and `uniform` (no
//! locality, universe 16× the cache) — at capacity 4096. `gc-policies`
//! and `gc-sim` do all the work; runtime and store none.
//!
//! Each `(policy, trace)` cell is timed in every repetition and takes its
//! median over the repetitions. Throughput is total accesses over the sum
//! of the cells, so the slow policies dominate it, as they dominate a real
//! sweep. A *request* here is one cell: `req_p50_us` is the typical cell,
//! `req_p99_us` the tail cell, which sets the makespan of a parallel
//! sweep (with 20 cells per pass the tail is the highest percentile that
//! has ten samples beyond it, not literally the 99th).

use super::{sim_shape, timed_setup, Pass, Traced};
use crate::gen::{generate, MIXED, UNIFORM};
use crate::ledger::{self, roster_kinds};
use crate::names::{ROSTER, ROSTER_TRACES};
use crate::spans;
use crate::stats::{median, summarize, tail, Summary};
use crate::{Outcome, RunConfig};
use gc_cache::prelude::*;
use std::time::Instant;

const CAPACITY: usize = 4096;
const FULL_LEN: usize = 1 << 20;

struct Inputs {
    traces: [Trace; 2],
    compiled: [CompiledTrace; 2],
}

fn setup(cfg: &RunConfig) -> Inputs {
    let len = cfg.len(FULL_LEN, ledger::WINDOW);
    let map = BlockMap::strided(16);
    let traces = [
        generate(MIXED, len, cfg.seed),
        generate(UNIFORM, len, cfg.seed.wrapping_add(1)),
    ];
    let compiled = [0, 1]
        .map(|t| CompiledTrace::compile(&traces[t], &map).expect("generated items are in the map"));
    Inputs { traces, compiled }
}

/// One pass over the whole roster with fresh policies, built outside each
/// cell's timed region: per-cell seconds and stats, in `ROSTER × traces`
/// order. Records a `cell` span per cell on a recording thread.
fn roster_pass(inputs: &Inputs, kinds: &[PolicyKind]) -> Vec<(f64, SimStats)> {
    let mut cells = Vec::with_capacity(kinds.len() * 2);
    for kind in kinds {
        for compiled in &inputs.compiled {
            let mut policy = kind.build(CAPACITY, compiled.map());
            spans::open(spans::CELL, cells.len() as u64);
            let t0 = Instant::now();
            let stats = simulate_compiled(policy.as_mut(), compiled);
            let secs = t0.elapsed().as_secs_f64();
            spans::close();
            cells.push((secs, stats));
        }
    }
    cells
}

pub(super) fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = timed_setup(cfg, || setup(cfg));
    let kinds = roster_kinds();
    let map = BlockMap::strided(16);
    let accesses_per_pass: u64 = 10 * inputs.compiled.iter().map(|c| c.len() as u64).sum::<u64>();

    // Reference and warm-up in one: the stats every timed repetition must
    // reproduce bit for bit, themselves checked against the sparse engine.
    let t0 = Instant::now();
    let reference = roster_pass(&inputs, &kinds);
    let warm_s = t0.elapsed().as_secs_f64();
    for (k, kind) in kinds.iter().enumerate() {
        for (t, trace) in inputs.traces.iter().enumerate() {
            let sparse = simulate(kind.build(CAPACITY, &map).as_mut(), trace);
            let dense = &reference[k * 2 + t].1;
            out.ops.check(sim_shape(&sparse) == sim_shape(dense), || {
                format!(
                    "{} on {}: compiled {dense:?} != sparse {sparse:?}",
                    ROSTER[k].0, ROSTER_TRACES[t]
                )
            });
            out.ops
                .check(dense.hits() + dense.misses == dense.accesses, || {
                    format!(
                        "{} on {}: hits + misses != accesses",
                        ROSTER[k].0, ROSTER_TRACES[t]
                    )
                });
        }
    }

    if cfg.trace {
        traced_run(&mut out, cfg, &inputs, &kinds);
        return out;
    }

    let reps = cfg.reps(5, 0.75, warm_s);
    let (mut rep_rps, mut cell_s) = (Vec::new(), vec![Vec::new(); reference.len()]);
    for _ in 0..reps {
        let cells = roster_pass(&inputs, &kinds);
        for (i, (secs, stats)) in cells.iter().enumerate() {
            out.ops.check(*stats == reference[i].1, || {
                format!("cell {i}: repetition differs from the reference stats")
            });
            cell_s[i].push(*secs);
        }
        rep_rps.push(accesses_per_pass as f64 / cells.iter().map(|(s, _)| s).sum::<f64>());
    }
    out.ops
        .requests(accesses_per_pass * reps as u64, 0, "simulated accesses");

    let typical_us: Vec<f64> = cell_s.iter().map(|s| median(s) * 1e6).collect();
    let (misses, accesses) = reference
        .iter()
        .fold((0, 0), |(m, a), (_, s)| (m + s.misses, a + s.accesses));
    out.push("setup_s", "s", setup_s);
    out.push(
        "throughput_rps",
        "req/s",
        Summary {
            median: accesses_per_pass as f64 / (typical_us.iter().sum::<f64>() / 1e6),
            ..summarize(&rep_rps)
        },
    );
    out.exact("fault_rate", "ratio", misses as f64 / accesses as f64);
    out.push(
        "req_p50_us",
        "us",
        Summary {
            n: typical_us.len(),
            ..Summary::exact(median(&typical_us))
        },
    );
    push_tail(
        &mut out,
        cell_s.iter().flatten().map(|s| (s * 1e9) as u64).collect(),
    );
    out
}

/// `req_p99_us` from pooled cell times.
fn push_tail(out: &mut Outcome, mut cell_ns: Vec<u64>) {
    cell_ns.sort_unstable();
    let (tail_ns, _) = tail(&cell_ns, 0.99);
    out.push(
        "req_p99_us",
        "us",
        Summary {
            n: cell_ns.len(),
            ..Summary::exact(tail_ns as f64 / 1e3)
        },
    );
}

fn traced_run(out: &mut Outcome, cfg: &RunConfig, inputs: &Inputs, kinds: &[PolicyKind]) {
    let mut traced = Traced::alternate(|record| {
        if record {
            spans::start_thread(64);
        }
        let t0 = Instant::now();
        let cells = roster_pass(inputs, kinds);
        Pass {
            secs: t0.elapsed().as_secs_f64(),
            spans: vec![spans::finish_thread()],
            latency_ns: cells.iter().map(|(s, _)| (s * 1e9) as u64).collect(),
        }
    });
    // The bare policy loops record one `window` span per 4096 accesses.
    let pair = [&inputs.compiled[0], &inputs.compiled[1]];
    spans::start_thread(1 << 16);
    let iblp_ns = ledger::policies_layer(out, &pair, CAPACITY);
    traced.file_only.push(spans::finish_thread());
    traced.report(out, cfg, "sim-roster", inputs.compiled[0].len());
    push_tail(out, traced.untraced_latency_ns.concat());

    ledger::trace_layer(out, cfg);
    ledger::compiled_layer(out, &inputs.traces[0], &BlockMap::strided(16));
    ledger::sim_layer(out, &pair, CAPACITY, iblp_ns);

    // The paper's quantities for the paper's policy on the trace that has
    // both kinds of locality. The simulator has no backend; a miss is
    // priced as one whole-block fetch, so the supply is misses × B.
    let iblp = simulate_compiled(
        PolicyKind::IblpBalanced
            .build(CAPACITY, inputs.compiled[0].map())
            .as_mut(),
        &inputs.compiled[0],
    );
    ledger::paper_quantities(
        out,
        iblp.misses,
        iblp.items_loaded,
        iblp.misses * 16,
        iblp.spatial_hits,
    );
}
