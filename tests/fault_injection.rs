//! Differential fault injection: garbage spliced into a text trace at
//! deterministic pseudo-random positions, and a quarantine-mode ingest
//! that must recover exactly the valid subsequence and catch every
//! corrupt line ([`differential_ingest`]).

use gc_cache::gc_trace::io::{read_text_with, write_text, IngestOptions, IngestPolicy};
use gc_cache::gc_trace::synthetic::{block_runs, BlockRunConfig};
use gc_cache::gc_types::rng::StdRng;
use gc_cache::prelude::*;

/// A mixed-locality trace: 4096 blocks of 16, Zipf 0.9 over blocks,
/// spatial locality 0.6.
fn standard_workload(len: usize, seed: u64) -> Trace {
    let cfg = BlockRunConfig {
        num_blocks: 4096,
        block_size: 16,
        block_theta: 0.9,
        spatial_locality: 0.6,
        len,
        seed,
    };
    block_runs(&cfg)
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
fn corrupt_ingest_recovers_exactly() {
    let trace = standard_workload(5_000, 9);
    let report = differential_ingest(&trace, 40, 17);
    assert!(report.passed(), "{report:?}");
}

/// The scenario suite's ingest run: a longer trace with sparser garbage
/// than `corrupt_ingest_recovers_exactly`.
#[test]
fn scenario_suite_passes_quick() {
    let trace = standard_workload(10_000, 11);
    let report = differential_ingest(&trace, 25, 13);
    assert!(report.passed(), "corrupt ingest: {report:?}");
}
