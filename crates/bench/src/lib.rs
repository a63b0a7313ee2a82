//! Shared helpers for the reproduction harness.
//!
//! The binaries in `src/bin/` regenerate each of the paper's evaluation
//! artifacts (Tables 1–2, Figures 3 and 6) plus the empirical validations
//! the brief announcement leaves implicit, and `faultsim` drives the
//! fault-injection scenarios. Speed is measured elsewhere: `gcbench`
//! (`crates/benchmark`) is the repository's one benchmark.

use gc_cache::gc_trace::synthetic::{block_runs, block_runs_map, BlockRunConfig};
use gc_cache::prelude::*;

pub mod faultsim;

/// The paper's illustrative parameters (Figure 3 / Figure 6 captions).
pub const PAPER_K: usize = 1_280_000;
/// The paper's illustrative block size.
pub const PAPER_B: usize = 64;

/// A standard mixed-locality workload used by several benches.
pub fn standard_workload(len: usize, seed: u64) -> (Trace, BlockMap) {
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

/// Render an f64 cell, using `inf`/empty for the degenerate cases.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.3}"),
        Some(_) => "inf".into(),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_both_localities() {
        let (trace, map) = standard_workload(20_000, 1);
        assert_eq!(trace.len(), 20_000);
        let items = trace.distinct_items();
        let blocks = trace.distinct_blocks(&map);
        assert!(items > blocks, "spatial grouping present");
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(Some(1.5)), "1.500");
        assert_eq!(cell(Some(f64::INFINITY)), "inf");
        assert_eq!(cell(None), "-");
    }
}
