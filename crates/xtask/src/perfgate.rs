//! Perf-regression gate (`cargo run -p xtask -- perf-gate`).
//!
//! Compares a fresh `gcbench --all --out` report against the committed
//! `BENCH_gcbench.json`, metric by metric on every workload. What counts
//! as a regression is defined once, in `BENCHMARK.json`: each end-to-end
//! metric there carries the direction that is `better` and the `bound` by
//! which its median may worsen. The gate adds no statistic of its own.
//!
//! A metric × workload is `ok` when the fresh median is no worse than the
//! baseline's by more than the bound; `unresolved` when it is, but the two
//! `[q1, q3]` ranges overlap — the runs spread too widely to tell, which
//! is reported and does not fail the gate; and `FAIL` when it is and the
//! ranges are disjoint.
//!
//! Two checks are exact. A workload that is not `correct`, or counts a
//! `failed` operation, fails the gate whatever its numbers are. And on
//! the workloads driven by one thread `fault_rate` is a property of the
//! seeded input, so any difference from the baseline fails: either the
//! policy changed behaviour or the generator moved.
//!
//! Reports that cannot be compared are errors, not verdicts: a workload
//! or metric named in `BENCHMARK.json` but absent from a report, and
//! headers that differ in `seed`, `seconds` or `quick`.

use gc_types::json::{Json, Value};
use std::fmt;

/// Workloads whose `fault_rate` repeats exactly for a given seed (one
/// driver thread; see `crates/benchmark/README.md`, "End-to-end metrics").
const EXACT_FAULT_RATE: [&str; 4] = [
    "sim-roster",
    "serve-hot-1t",
    "serve-tiered-read",
    "serve-disk-cold",
];

/// What the gate concluded about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound, quartile ranges overlap.
    Unresolved,
    /// Worse by more than the bound, quartile ranges disjoint.
    Regressed,
    /// `fault_rate` moved on a workload where it is exact.
    Differs,
}

/// One metric × workload comparison.
#[derive(Clone, Debug)]
pub struct Line {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The committed report's median.
    pub baseline: f64,
    /// The fresh report's median.
    pub fresh: f64,
    /// Fraction by which the fresh median is worse (negative: better).
    pub worse_by: f64,
    /// The metric's bound from `BENCHMARK.json`.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.verdict {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "FAIL",
            Verdict::Differs => "FAIL (must be exact)",
        };
        write!(
            f,
            "{:<18} {:<15} {:>14.6} -> {:>14.6}  worse by {:>+7.3} (bound {:.2})  {verdict}",
            self.workload, self.metric, self.baseline, self.fresh, self.worse_by, self.bound
        )
    }
}

/// Outcome of comparing a fresh report against the baseline.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// One entry per workload × end-to-end metric, in `BENCHMARK.json`
    /// order.
    pub lines: Vec<Line>,
    /// Fresh workloads that are not `correct` or count `failed`
    /// operations, with the reason.
    pub incorrect: Vec<String>,
}

impl Gate {
    /// Whether nothing failed (`unresolved` lines do not fail).
    pub fn passed(&self) -> bool {
        self.incorrect.is_empty()
            && self
                .lines
                .iter()
                .all(|l| matches!(l.verdict, Verdict::Ok | Verdict::Unresolved))
    }
}

/// `[value, q1, q3]` of `metric` on `workload` in a `gcbench --all --out`
/// document.
fn sample(report: &Json, workload: &str, metric: &str) -> Result<[f64; 3], String> {
    let m = report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("workload `{workload}` is missing"))?
        .get("metrics")
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("metric `{metric}` is missing on `{workload}`"))?;
    let mut sample = [0.0; 3];
    for (slot, key) in sample.iter_mut().zip(["value", "q1", "q3"]) {
        *slot = m
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{metric}` on `{workload}` has no `{key}`"))?;
    }
    Ok(sample)
}

/// String member `key` of a `BENCHMARK.json` entry.
fn text<'a>(entry: &'a Json, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: an entry has no `{key}`"))
}

/// Compares `fresh` against `baseline` (both `gcbench --all --out`
/// documents) under the names and bounds of `benchmark_json`.
///
/// Errors when the two cannot be compared: unreadable input, a workload
/// or metric missing from either report, a non-positive baseline median,
/// or headers that differ in `seed`, `seconds` or `quick`.
pub fn compare(benchmark_json: &str, baseline: &str, fresh: &str) -> Result<Gate, String> {
    let parse = |what: &str, doc| Json::parse(doc).map_err(|e| format!("{what}: {e}"));
    let names = parse("BENCHMARK.json", benchmark_json)?;
    let base = parse("baseline", baseline)?;
    let new = parse("fresh report", fresh)?;
    for key in ["seed", "seconds", "quick"] {
        let header = |what: &str, report: &Json| {
            report
                .get("env")
                .and_then(|env| env.get(key))
                .map(|v| v.value.clone())
                .ok_or_else(|| format!("{what}: header has no `{key}`"))
        };
        let (b, f) = (header("baseline", &base)?, header("fresh report", &new)?);
        if b != f {
            return Err(format!(
                "headers differ in `{key}` (baseline {b:?}, fresh {f:?}); the reports are not comparable"
            ));
        }
    }

    let list = |key: &str| {
        names
            .get(key)
            .and_then(Json::as_array)
            .filter(|l| !l.is_empty())
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let mut gate = Gate::default();
    for w in list("workloads")? {
        let workload = text(w, "name")?;
        for m in list("end_to_end")? {
            let metric = text(m, "name")?;
            let lower_is_better = match text(m, "better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("BENCHMARK.json: `better` is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: `{metric}` has no `bound`"))?;
            let [b, b_q1, b_q3] =
                sample(&base, workload, metric).map_err(|e| format!("baseline: {e}"))?;
            let [f, f_q1, f_q3] =
                sample(&new, workload, metric).map_err(|e| format!("fresh report: {e}"))?;
            if b.is_nan() || b <= 0.0 {
                return Err(format!(
                    "baseline: `{metric}` on `{workload}` is {b}, not a positive measurement"
                ));
            }
            let worse_by = if lower_is_better {
                f / b - 1.0
            } else {
                1.0 - f / b
            };
            let verdict = if metric == "fault_rate" && EXACT_FAULT_RATE.contains(&workload) {
                if f == b {
                    Verdict::Ok
                } else {
                    Verdict::Differs
                }
            } else if worse_by <= bound {
                Verdict::Ok
            } else if b_q1 <= f_q3 && f_q1 <= b_q3 {
                Verdict::Unresolved
            } else {
                // Also where `worse_by` is NaN: not shown to be within the bound.
                Verdict::Regressed
            };
            gate.lines.push(Line {
                workload: workload.to_string(),
                metric: metric.to_string(),
                baseline: b,
                fresh: f,
                worse_by,
                bound,
                verdict,
            });
        }
        let report = new
            .get("workloads")
            .and_then(|all| all.get(workload))
            .expect("its metrics were just read");
        let correct = report.get("correct").map(|c| &c.value) == Some(&Value::Bool(true));
        let failed = report.get("failed").and_then(Json::as_u64);
        if !correct || failed != Some(0) {
            gate.incorrect
                .push(format!("{workload}: correct={correct} failed={failed:?}"));
        }
    }
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "workloads": [{"name": "sim-roster"}, {"name": "serve-hot-2t"}],
        "end_to_end": [
            {"name": "throughput_rps", "better": "higher", "bound": 0.25},
            {"name": "fault_rate", "better": "lower", "bound": 0.12},
            {"name": "req_p50_us", "better": "lower", "bound": 0.25}
        ]
    }"#;

    /// `(value, q1, q3)` of the three metrics above on one workload.
    type Cells = [(f64, f64, f64); 3];

    const SIM: Cells = [(6.0e6, 5.9e6, 6.1e6), (0.5, 0.5, 0.5), (40.0, 39.0, 41.0)];
    const HOT: Cells = [(7.0e6, 6.8e6, 7.2e6), (0.36, 0.35, 0.37), (9.0, 8.5, 9.5)];

    fn workload(name: &str, correct: bool, failed: u64, cells: &Cells) -> String {
        let metrics: Vec<String> = ["throughput_rps", "fault_rate", "req_p50_us"]
            .iter()
            .zip(cells)
            .map(|(m, (v, q1, q3))| {
                format!("\"{m}\":{{\"value\":{v:?},\"unit\":\"x\",\"q1\":{q1:?},\"q3\":{q3:?},\"n\":9}}")
            })
            .collect();
        format!(
            "\"{name}\":{{\"correct\":{correct},\"attempted\":100,\"failed\":{failed},\
             \"failed_share\":0.0,\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }

    fn report_with(env: &str, workloads: &[String]) -> String {
        format!(
            "{{\"gcbench\":1,\"claim\":null,\"env\":{{{env}}},\"workloads\":{{{}}}}}\n",
            workloads.join(",")
        )
    }

    fn report(sim: &Cells, hot: &Cells) -> String {
        report_with(
            "\"seed\":1,\"seconds\":60,\"quick\":false",
            &[
                workload("sim-roster", true, 0, sim),
                workload("serve-hot-2t", true, 0, hot),
            ],
        )
    }

    fn verdict(gate: &Gate, workload: &str, metric: &str) -> Verdict {
        gate.lines
            .iter()
            .find(|l| l.workload == workload && l.metric == metric)
            .expect("line present")
            .verdict
    }

    #[test]
    fn a_report_passes_against_itself() {
        let r = report(&SIM, &HOT);
        let gate = compare(BENCHMARK, &r, &r).unwrap();
        assert!(gate.passed());
        assert_eq!(gate.lines.len(), 6, "every metric on every workload");
        assert!(gate.lines.iter().all(|l| l.verdict == Verdict::Ok));
        assert!(gate.lines.iter().all(|l| l.worse_by == 0.0));
    }

    #[test]
    fn an_incorrect_workload_fails_whatever_its_numbers() {
        let base = report(&SIM, &HOT);
        for (correct, failed) in [(false, 0), (true, 3), (false, 3)] {
            let fresh = report_with(
                "\"seed\":1,\"seconds\":60,\"quick\":false",
                &[
                    workload("sim-roster", correct, failed, &SIM),
                    workload("serve-hot-2t", true, 0, &HOT),
                ],
            );
            let gate = compare(BENCHMARK, &base, &fresh).unwrap();
            assert!(!gate.passed(), "correct={correct} failed={failed}");
            assert_eq!(gate.incorrect.len(), 1);
            assert!(gate.incorrect[0].starts_with("sim-roster"));
            assert!(gate.lines.iter().all(|l| l.verdict == Verdict::Ok));
        }
    }

    #[test]
    fn fault_rate_must_be_exact_on_one_thread_and_bounded_on_two() {
        let base = report(&SIM, &HOT);
        // 0.2 % better — still a difference where the value is exact.
        let mut sim = SIM;
        sim[1] = (0.499, 0.499, 0.499);
        let gate = compare(BENCHMARK, &base, &report(&sim, &HOT)).unwrap();
        assert_eq!(verdict(&gate, "sim-roster", "fault_rate"), Verdict::Differs);
        assert!(!gate.passed());
        // Two threads interleave: 5 % worse is inside the 12 % bound.
        let mut hot = HOT;
        hot[1] = (0.378, 0.37, 0.385);
        let gate = compare(BENCHMARK, &base, &report(&SIM, &hot)).unwrap();
        assert_eq!(verdict(&gate, "serve-hot-2t", "fault_rate"), Verdict::Ok);
        assert!(gate.passed());
    }

    #[test]
    fn beyond_the_bound_with_disjoint_quartiles_fails() {
        let base = report(&SIM, &HOT);
        let mut sim = SIM;
        sim[0] = (4.0e6, 3.9e6, 4.1e6); // higher is better: 33 % worse
        let gate = compare(BENCHMARK, &base, &report(&sim, &HOT)).unwrap();
        assert_eq!(
            verdict(&gate, "sim-roster", "throughput_rps"),
            Verdict::Regressed
        );
        assert!(!gate.passed());
        let mut hot = HOT;
        hot[2] = (12.0, 11.5, 12.5); // lower is better: 33 % worse
        let gate = compare(BENCHMARK, &base, &report(&SIM, &hot)).unwrap();
        assert_eq!(
            verdict(&gate, "serve-hot-2t", "req_p50_us"),
            Verdict::Regressed
        );
        assert!(!gate.passed());
    }

    #[test]
    fn beyond_the_bound_with_overlapping_quartiles_is_unresolved_and_passes() {
        let base = report(&SIM, &HOT);
        let mut hot = HOT;
        hot[0] = (5.0e6, 4.0e6, 6.9e6); // 29 % worse, q3 reaches the baseline's q1
        let gate = compare(BENCHMARK, &base, &report(&SIM, &hot)).unwrap();
        assert_eq!(
            verdict(&gate, "serve-hot-2t", "throughput_rps"),
            Verdict::Unresolved
        );
        assert!(gate.passed());
        assert!(gate
            .lines
            .iter()
            .any(|l| l.to_string().contains("unresolved")));
    }

    #[test]
    fn within_the_bound_or_better_is_ok() {
        let base = report(&SIM, &HOT);
        let mut sim = SIM;
        sim[0] = (4.6e6, 4.5e6, 4.7e6); // 23 % worse, bound 25 %
        sim[2] = (20.0, 19.0, 21.0); // twice as fast
        let gate = compare(BENCHMARK, &base, &report(&sim, &HOT)).unwrap();
        assert!(gate.passed());
        assert!(gate.lines.iter().all(|l| l.verdict == Verdict::Ok));
    }

    #[test]
    fn missing_fresh_cell_is_an_error_not_a_pass() {
        let full = report(&SIM, &HOT);
        let env = "\"seed\":1,\"seconds\":60,\"quick\":false";
        let one = report_with(env, &[workload("sim-roster", true, 0, &SIM)]);
        let err = compare(BENCHMARK, &full, &one).unwrap_err();
        assert!(
            err.contains("fresh report") && err.contains("serve-hot-2t"),
            "{err}"
        );
        let err = compare(BENCHMARK, &one, &full).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        let renamed = full.replace("req_p50_us", "req_p51_us");
        let err = compare(BENCHMARK, &full, &renamed).unwrap_err();
        assert!(err.contains("req_p50_us"), "{err}");
    }

    #[test]
    fn missing_results_and_missing_fields_are_errors() {
        let full = report(&SIM, &HOT);
        assert!(compare(BENCHMARK, &full, "{}").is_err());
        assert!(compare(BENCHMARK, &full, "not json").is_err());
        let no_workloads = "{\"env\":{\"seed\":1,\"seconds\":60,\"quick\":false}}";
        assert!(compare(BENCHMARK, &full, no_workloads).is_err());
        let no_quartile = full.replacen("\"q1\":", "\"q0\":", 1);
        let err = compare(BENCHMARK, &full, &no_quartile).unwrap_err();
        assert!(err.contains("has no `q1`"), "{err}");
        assert!(compare("{}", &full, &full).is_err());
        let no_bound = BENCHMARK.replacen("\"bound\": 0.25", "\"limit\": 0.25", 1);
        assert!(compare(&no_bound, &full, &full).is_err());
    }

    #[test]
    fn reports_from_different_settings_are_not_comparable() {
        let base = report(&SIM, &HOT);
        for env in [
            "\"seed\":2,\"seconds\":60,\"quick\":false",
            "\"seed\":1,\"seconds\":15,\"quick\":false",
            "\"seed\":1,\"seconds\":60,\"quick\":true",
        ] {
            let fresh = report_with(
                env,
                &[
                    workload("sim-roster", true, 0, &SIM),
                    workload("serve-hot-2t", true, 0, &HOT),
                ],
            );
            let err = compare(BENCHMARK, &base, &fresh).unwrap_err();
            assert!(err.contains("headers differ"), "{env}: {err}");
        }
    }
}
