//! Side-by-side policy comparison: one capacity's sweep cells as a table.

use crate::sweep::SweepResult;

/// Render sweep cells as an aligned text table, one row per cell, sorted
/// by ascending miss count (ties keep their order).
pub fn render_table(cells: &[&SweepResult]) -> String {
    let mut rows = cells.to_vec();
    rows.sort_by_key(|r| r.stats.misses);
    let mut out = format!(
        "{:<14} {:>10} {:>10} {:>9} {:>10} {:>10} {:>7}\n",
        "policy", "accesses", "misses", "fault", "temporal", "spatial", "width"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>9.4} {:>10} {:>10} {:>7.2}\n",
            r.job.kind.label(),
            r.stats.accesses,
            r.stats.misses,
            r.stats.fault_rate(),
            r.stats.temporal_hits,
            r.stats.spatial_hits,
            r.stats.load_width(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepJob, SweepOutcome, SweepRunConfig};
    use gc_policies::PolicyKind;
    use gc_trace::synthetic;
    use gc_types::{BlockMap, Trace};

    /// Every kind at one capacity, as `gc-cache sweep` runs one column.
    fn column(
        kinds: &[PolicyKind],
        capacity: usize,
        trace: &Trace,
        map: &BlockMap,
        warmup: usize,
    ) -> SweepOutcome {
        let jobs: Vec<SweepJob> = kinds
            .iter()
            .map(|kind| SweepJob {
                kind: kind.clone(),
                capacity,
                warmup,
            })
            .collect();
        run_sweep(&jobs, trace, map, &SweepRunConfig::default()).unwrap()
    }

    #[test]
    fn iblp_wins_on_mixed_locality() {
        // The headline claim of the paper's design sections: on a workload
        // with both temporal reuse (hot sparse items) and spatial streaming
        // (fresh whole blocks), IBLP beats a pure item cache and a pure
        // block cache of the same size. Each round touches 48 hot items
        // (one per block — worst case for block caches) and streams one
        // brand-new block of 16 (worst case for item caches).
        let b = 16u64;
        let mut trace = Trace::new();
        for round in 0..500u64 {
            for hot in 0..48u64 {
                trace.push(gc_types::ItemId(hot * b));
            }
            let fresh = 1_000 + round;
            for off in 0..b {
                trace.push(gc_types::ItemId(fresh * b + off));
            }
        }
        let map = BlockMap::strided(b as usize);
        let outcome = column(
            &[
                PolicyKind::ItemLru,
                PolicyKind::BlockLru,
                PolicyKind::IblpBalanced,
            ],
            256,
            &trace,
            &map,
            128,
        );
        let misses = |kind: PolicyKind| {
            let cell = outcome.completed().find(|r| r.job.kind == kind).unwrap();
            cell.stats.misses
        };
        let iblp = misses(PolicyKind::IblpBalanced);
        let item = misses(PolicyKind::ItemLru);
        let block = misses(PolicyKind::BlockLru);
        assert!(iblp < item, "iblp {iblp} vs item-lru {item}");
        assert!(iblp < block, "iblp {iblp} vs block-lru {block}");
    }

    #[test]
    fn rows_sorted_by_misses() {
        let cfg = synthetic::BlockRunConfig::default();
        let trace = synthetic::block_runs(&cfg);
        let map = synthetic::block_runs_map(&cfg);
        let roster = PolicyKind::standard_roster(1);
        let outcome = column(&roster, 256, &trace, &map, 0);
        let cells: Vec<&SweepResult> = outcome.completed().collect();
        let table = render_table(&cells);
        let misses: Vec<u64> = table
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
            .collect();
        assert_eq!(misses.len(), roster.len());
        assert!(misses.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn table_renders_all_rows() {
        let cfg = synthetic::BlockRunConfig {
            len: 2000,
            ..Default::default()
        };
        let trace = synthetic::block_runs(&cfg);
        let map = synthetic::block_runs_map(&cfg);
        let outcome = column(&[PolicyKind::ItemLru], 64, &trace, &map, 0);
        let cells: Vec<&SweepResult> = outcome.completed().collect();
        let table = render_table(&cells);
        assert_eq!(table.lines().count(), 2);
        assert!(table.contains("item-lru"));
    }
}
