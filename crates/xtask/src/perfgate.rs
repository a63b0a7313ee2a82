//! Perf-regression smoke gate (`cargo run -p xtask -- perf-gate`).
//!
//! Compares a freshly measured `perf_report` run (normally `--quick`, so CI
//! can afford it) against the committed `BENCH_engine.json` baseline and
//! fails if throughput regressed. Matching is by `(trace, policy)` row;
//! every baseline row must exist in the fresh report.
//!
//! ## Gate semantics and tolerance
//!
//! The gate computes the per-row ratio `fresh / baseline` of
//! `requests_per_sec` and fails when the **geometric mean** over all rows
//! drops below `1 - tolerance` (default tolerance: 0.15, i.e. a >15% drop).
//! The geomean — not a per-row check — is the gating statistic on purpose:
//!
//! - Quick mode replays 20 K requests per cell with one timed rep, while
//!   the committed baseline is 200 K × best-of-3, so individual cells
//!   legitimately wobble in either direction.
//! - Shared CI runners add scheduling noise that a single cell cannot
//!   absorb; averaged over the full 39-cell matrix it cancels.
//!
//! A real regression in the compiled data layer (an extra hash on the hot
//! path, a slab turned back into a map) slows *every* cell and moves the
//! geomean immediately. Per-row ratios are still printed so a localized
//! regression is visible in the log even when the gate passes.
//!
//! Reports are read with the workspace's one JSON layer, `gc_types::json`.

use gc_types::json::Json;
use std::collections::BTreeMap;

/// One `(trace, policy)` cell extracted from a `perf_report` JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRow {
    /// Trace name (e.g. `mixed`).
    pub trace: String,
    /// Policy label (e.g. `item-lru`).
    pub policy: String,
    /// Best-of-reps steady-state throughput for the cell.
    pub requests_per_sec: f64,
}

/// Per-row comparison in a [`GateReport`].
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Trace name of the compared cell.
    pub trace: String,
    /// Policy label of the compared cell.
    pub policy: String,
    /// Baseline throughput (committed report).
    pub baseline: f64,
    /// Fresh throughput (this run).
    pub fresh: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
}

/// Outcome of comparing a fresh report against the baseline.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// One entry per baseline row, in baseline order.
    pub rows: Vec<GateRow>,
    /// Geometric mean of all row ratios.
    pub geomean: f64,
    /// Allowed fractional drop before the gate fails.
    pub tolerance: f64,
}

impl GateReport {
    /// Whether the run stays within tolerance.
    pub fn passed(&self) -> bool {
        self.geomean >= 1.0 - self.tolerance
    }
}

/// Parses the `results` rows out of a `perf_report` JSON document.
pub fn parse_rows(json: &str) -> Result<Vec<PerfRow>, String> {
    let value = Json::parse(json).map_err(|e| e.to_string())?;
    let results = value
        .get("results")
        .and_then(Json::as_array)
        .ok_or("report has no `results` array")?;
    let mut rows = Vec::with_capacity(results.len());
    for (i, cell) in results.iter().enumerate() {
        let field = |name: &str| {
            cell.get(name)
                .ok_or_else(|| format!("results[{i}] missing `{name}`"))
        };
        let string = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("results[{i}].{name} is not a string"))
        };
        let rps = field("requests_per_sec")?
            .as_f64()
            .ok_or_else(|| format!("results[{i}].requests_per_sec is not a number"))?;
        rows.push(PerfRow {
            trace: string("trace")?,
            policy: string("policy")?,
            requests_per_sec: rps,
        });
    }
    if rows.is_empty() {
        return Err("report has an empty `results` array".into());
    }
    Ok(rows)
}

/// Compares `fresh` against `baseline` (both `perf_report` JSON documents).
///
/// Errors when a baseline row is missing from the fresh report or a
/// throughput is non-positive — those are measurement bugs, not
/// regressions, and must not pass silently.
pub fn compare(baseline: &str, fresh: &str, tolerance: f64) -> Result<GateReport, String> {
    let base_rows = parse_rows(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh_rows = parse_rows(fresh).map_err(|e| format!("fresh report: {e}"))?;
    let fresh_by_key: BTreeMap<(&str, &str), f64> = fresh_rows
        .iter()
        .map(|r| ((r.trace.as_str(), r.policy.as_str()), r.requests_per_sec))
        .collect();
    let mut rows = Vec::with_capacity(base_rows.len());
    let mut log_sum = 0.0;
    for b in &base_rows {
        let key = (b.trace.as_str(), b.policy.as_str());
        let fresh_rps = *fresh_by_key.get(&key).ok_or_else(|| {
            format!(
                "fresh report is missing baseline cell ({}, {})",
                b.trace, b.policy
            )
        })?;
        // Rejects NaN as well: a NaN throughput fails `x > 0.0`.
        let positive = |x: f64| x > 0.0;
        if !positive(b.requests_per_sec) || !positive(fresh_rps) {
            return Err(format!(
                "non-positive throughput for ({}, {}): baseline {} fresh {}",
                b.trace, b.policy, b.requests_per_sec, fresh_rps
            ));
        }
        let ratio = fresh_rps / b.requests_per_sec;
        log_sum += ratio.ln();
        rows.push(GateRow {
            trace: b.trace.clone(),
            policy: b.policy.clone(),
            baseline: b.requests_per_sec,
            fresh: fresh_rps,
            ratio,
        });
    }
    let geomean = (log_sum / rows.len() as f64).exp();
    Ok(GateReport {
        rows,
        geomean,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cells: &[(&str, &str, f64)]) -> String {
        let rows: Vec<String> = cells
            .iter()
            .map(|(t, p, r)| {
                format!(
                    "{{\"trace\": \"{t}\", \"policy\": \"{p}\", \
                     \"requests_per_sec\": {r}, \"misses\": 10, \
                     \"fault_rate\": 0.5}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"gc-bench/perf_report/v2\", \"quick\": false, \
             \"results\": [{}]}}\n",
            rows.join(", ")
        )
    }

    #[test]
    fn parses_rows_out_of_a_report() {
        let rows = parse_rows(&report(&[
            ("mixed", "item-lru", 1.5e7),
            ("scan", "block-lru", 2e6),
        ]))
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].trace, "mixed");
        assert_eq!(rows[0].policy, "item-lru");
        assert_eq!(rows[0].requests_per_sec, 1.5e7);
        assert_eq!(rows[1].policy, "block-lru");
    }

    #[test]
    fn field_order_inside_a_cell_does_not_matter() {
        let json = "{\"results\": [{\"requests_per_sec\": 5.0, \
                     \"policy\": \"p\", \"trace\": \"t\"}]}";
        let rows = parse_rows(json).unwrap();
        assert_eq!(rows[0].requests_per_sec, 5.0);
    }

    #[test]
    fn missing_results_and_missing_fields_are_errors() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("{\"results\": []}").is_err());
        assert!(parse_rows("{\"results\": [{\"trace\": \"t\"}]}").is_err());
        assert!(parse_rows("not json").is_err());
    }

    #[test]
    fn identical_reports_pass_with_unit_geomean() {
        let r = report(&[("mixed", "item-lru", 1e7), ("scan", "item-lru", 2e7)]);
        let gate = compare(&r, &r, 0.15).unwrap();
        assert!(gate.passed());
        assert!((gate.geomean - 1.0).abs() < 1e-12);
        assert_eq!(gate.rows.len(), 2);
    }

    #[test]
    fn uniform_twenty_percent_drop_fails_at_fifteen_tolerance() {
        let base = report(&[("mixed", "item-lru", 1e7), ("scan", "item-lru", 2e7)]);
        let fresh = report(&[("mixed", "item-lru", 0.8e7), ("scan", "item-lru", 1.6e7)]);
        let gate = compare(&base, &fresh, 0.15).unwrap();
        assert!(!gate.passed());
        assert!((gate.geomean - 0.8).abs() < 1e-9);
    }

    #[test]
    fn one_slow_cell_among_many_fast_ones_still_passes() {
        // A single noisy cell must not flap the gate: 10 cells, one at
        // 0.5×, nine at 1.0× → geomean ≈ 0.933 > 0.85.
        let cells: Vec<(String, f64)> = (0..10).map(|i| (format!("p{i}"), 1e7)).collect();
        let base = report(
            &cells
                .iter()
                .map(|(p, r)| ("mixed", p.as_str(), *r))
                .collect::<Vec<_>>(),
        );
        let fresh = report(
            &cells
                .iter()
                .enumerate()
                .map(|(i, (p, r))| ("mixed", p.as_str(), if i == 0 { r * 0.5 } else { *r }))
                .collect::<Vec<_>>(),
        );
        let gate = compare(&base, &fresh, 0.15).unwrap();
        assert!(gate.passed(), "geomean {} should pass", gate.geomean);
    }

    #[test]
    fn missing_fresh_cell_is_an_error_not_a_pass() {
        let base = report(&[("mixed", "item-lru", 1e7), ("scan", "item-lru", 2e7)]);
        let fresh = report(&[("mixed", "item-lru", 1e7)]);
        assert!(compare(&base, &fresh, 0.15).is_err());
    }
}
