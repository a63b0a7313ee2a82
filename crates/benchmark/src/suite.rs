//! Running workloads and printing what they measured.
//!
//! One workload runs in this process and prints, one JSON object per
//! line: a header with the environment stamp, every metric with its unit,
//! quartiles and sample count, any failures, and last the result line
//! (`correct`, `attempted`, `failed`, `metrics`). `--all` runs each
//! workload in a fresh child process, so `peak_rss_mb` is per workload,
//! and collects the children's lines.

use crate::json::{self, num, quote, Value};
use crate::names::{self, WORKLOADS};
use crate::{env, workloads, Outcome, RunConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn header_line(workload: &str, cfg: &RunConfig) -> String {
    format!(
        "{{\"gcbench\":1,\"claim\":null,\"workload\":{},\"trace\":{},\"env\":{}}}",
        quote(workload),
        u8::from(cfg.trace),
        env::stamp_json(cfg.seed, cfg.seconds, cfg.quick)
    )
}

/// Run one workload in this process and print its lines to `w`. Returns
/// whether every operation and check passed.
pub fn run_one(workload: &str, cfg: &RunConfig, w: &mut impl Write) -> Result<bool, String> {
    let io = |e: std::io::Error| format!("cannot write report: {e}");
    writeln!(w, "{}", header_line(workload, cfg)).map_err(io)?;
    let out = workloads::run(workload, cfg)?;
    for m in &out.metrics {
        writeln!(
            w,
            "{{\"metric\":{},\"workload\":{},\"value\":{},\"unit\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            quote(&m.name),
            quote(workload),
            num(m.value.median),
            quote(m.unit),
            num(m.value.q1),
            num(m.value.q3),
            m.value.n
        )
        .map_err(io)?;
    }
    for f in &out.ops.failures {
        writeln!(w, "{{\"failure\":{}}}", quote(f)).map_err(io)?;
    }
    writeln!(w, "{}", result_line(&out, cfg.trace)).map_err(io)?;
    Ok(out.ops.failed == 0)
}

/// The last line of a run: exactly the keys `correct`, `attempted`,
/// `failed`, `metrics`, the latter holding exactly the run kind's names.
/// A per-layer metric the workload's layers do not produce reads 0.
fn result_line(out: &Outcome, trace: bool) -> String {
    let defs = if trace {
        names::per_layer()
    } else {
        names::end_to_end()
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&d.name),
                num(out.get(&d.name).unwrap_or(0.0)),
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.ops.failed == 0,
        out.ops.attempted.max(1),
        out.ops.failed,
        metrics.join(",")
    )
}

/// What `--all` learned about one workload from its children's lines.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    /// Metric lines by name (the raw JSON object of each).
    pub metrics: BTreeMap<String, Value>,
    /// Whether every child reported `correct`.
    pub correct: bool,
    /// Operations attempted, summed over the children.
    pub attempted: u64,
    /// Operations failed, summed over the children.
    pub failed: u64,
}

impl WorkloadReport {
    /// The reported value of `metric`.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric)?.get("value")?.as_f64()
    }
}

/// Run `workload` in a child process, echoing its lines to `w` and folding
/// them into `report`.
fn run_child(
    workload: &str,
    cfg: &RunConfig,
    report: &mut WorkloadReport,
    w: &mut impl Write,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&cfg.scratch)
        .stdout(Stdio::piped());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut saw_result = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read child output: {e}"))?;
        writeln!(w, "{line}").map_err(|e| format!("cannot write report: {e}"))?;
        let Ok(v) = json::parse(&line) else { continue };
        if let Some(name) = v.get("metric").and_then(Value::as_str) {
            // The end-to-end child runs first: where both children report
            // a metric (`req_p99_us`), its value is the one kept.
            report
                .metrics
                .entry(name.to_string())
                .or_insert_with(|| v.clone());
        } else if let Some(correct) = v.get("correct").and_then(Value::as_bool) {
            saw_result = true;
            report.correct &= correct;
            report.attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            report.failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for child: {e}"))?;
    if !saw_result {
        report.correct = false;
        return Err(format!("{workload}: child printed no result ({status})"));
    }
    Ok(())
}

/// Run every workload (each in a fresh child; with `cfg.trace` a second,
/// traced child each) and return the reports by workload name.
pub fn run_all(
    cfg: &RunConfig,
    w: &mut impl Write,
) -> Result<BTreeMap<&'static str, WorkloadReport>, String> {
    let mut reports = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        let mut report = WorkloadReport {
            correct: true,
            ..WorkloadReport::default()
        };
        let untraced = RunConfig {
            trace: false,
            ..cfg.clone()
        };
        run_child(workload, &untraced, &mut report, w)?;
        if cfg.trace {
            run_child(workload, cfg, &mut report, w)?;
        }
        reports.insert(workload, report);
    }
    Ok(reports)
}

/// The whole suite as one JSON document (for `--out`).
pub fn document(cfg: &RunConfig, reports: &BTreeMap<&'static str, WorkloadReport>) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|(name, r)| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(m, v)| {
                    let f = |k: &str| num(v.get(k).and_then(Value::as_f64).unwrap_or(0.0));
                    format!(
                        "{}:{{\"value\":{},\"unit\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                        quote(m),
                        f("value"),
                        quote(v.get("unit").and_then(Value::as_str).unwrap_or("")),
                        f("q1"),
                        f("q3"),
                        f("n")
                    )
                })
                .collect();
            format!(
                "{}:{{\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_share\":{},\"metrics\":{{{}}}}}",
                quote(name),
                r.correct,
                r.attempted,
                r.failed,
                num(r.failed as f64 / r.attempted.max(1) as f64),
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"gcbench\":1,\"claim\":null,\"env\":{},\"workloads\":{{{}}}}}\n",
        env::stamp_json(cfg.seed, cfg.seconds, cfg.quick),
        workloads.join(",")
    )
}

/// Print the suite as a table: per workload, each end-to-end metric, then
/// the count of per-layer metrics the traced child reported.
pub fn print_summary(
    reports: &BTreeMap<&'static str, WorkloadReport>,
    w: &mut impl Write,
) -> std::io::Result<()> {
    let mut e2e = names::end_to_end();
    e2e.extend(names::unbounded().into_iter().map(|(_, d)| d));
    for (workload, _) in WORKLOADS {
        let Some(r) = reports.get(workload) else {
            continue;
        };
        writeln!(
            w,
            "# {workload}: ops_attempted={} ops_failed={} failed_share={} correct={}",
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            r.correct
        )?;
        for d in &e2e {
            if let Some(v) = r.metrics.get(&d.name) {
                let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                writeln!(
                    w,
                    "#   {:<16} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {}",
                    d.name,
                    f("value"),
                    d.unit,
                    f("q1"),
                    f("q3"),
                    f("n")
                )?;
            }
        }
        let layer = names::per_layer()
            .iter()
            .filter(|d| r.metrics.contains_key(&d.name))
            .count();
        if layer > 0 {
            writeln!(w, "#   + {layer} per-layer metrics (see the lines above)")?;
        }
    }
    Ok(())
}

/// `BENCHMARK.json`: the path given, else the nearest one at or above the
/// working directory, else the one beside the workspace this was built in.
pub fn find_benchmark_json(given: Option<&Path>) -> Option<PathBuf> {
    if let Some(p) = given {
        return Some(p.to_path_buf());
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            break;
        }
    }
    let built = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    built.is_file().then_some(built)
}

/// The regression bounds of the end-to-end metrics: `(name, better,
/// bound)` from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    doc.get("end_to_end")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .filter(|b| !b.is_empty())
        .ok_or_else(|| format!("{}: no usable end_to_end list", benchmark_json.display()))
}

/// `--check-repeat`: two runs of the suite, and per workload × end-to-end
/// metric both values, their ratio, and whether the second is worse than
/// the first by more than the metric's bound ([`names::unbounded`] metrics
/// are printed without a verdict). Returns whether all agree.
pub fn check_repeat(
    cfg: &RunConfig,
    benchmark_json: &Path,
    w: &mut impl Write,
) -> Result<bool, String> {
    let mut gates: Vec<(Option<&str>, String, String, Option<f64>)> = bounds(benchmark_json)?
        .into_iter()
        .map(|(name, better, bound)| (None, name, better, Some(bound)))
        .collect();
    for (workload, d) in names::unbounded() {
        gates.push((workload, d.name, d.better.to_string(), None));
    }
    let cfg = RunConfig {
        trace: false,
        ..cfg.clone()
    };
    let first = run_all(&cfg, w)?;
    let second = run_all(&cfg, w)?;
    let io = |e: std::io::Error| format!("cannot write report: {e}");
    let mut all_ok = first.values().chain(second.values()).all(|r| r.correct);
    writeln!(
        w,
        "# check-repeat: workload metric first second ratio bound verdict"
    )
    .map_err(io)?;
    for (workload, _) in WORKLOADS {
        for (only, metric, better, bound) in &gates {
            if only.is_some_and(|o| o != workload) {
                continue;
            }
            let (a, b) = (
                first[workload].value(metric).unwrap_or(0.0),
                second[workload].value(metric).unwrap_or(0.0),
            );
            let ratio = if a != 0.0 { b / a } else { 0.0 };
            let worse_by = if better == "lower" {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let (bound, verdict) = match bound {
                None => ("-".to_string(), "unbounded"),
                Some(bound) => {
                    let ok = a > 0.0 && b > 0.0 && worse_by <= *bound;
                    all_ok &= ok;
                    (bound.to_string(), if ok { "pass" } else { "FAIL" })
                }
            };
            writeln!(
                w,
                "# check-repeat: {workload} {metric} {a} {b} {ratio:.4} {bound} {verdict}"
            )
            .map_err(io)?;
        }
    }
    Ok(all_ok)
}
