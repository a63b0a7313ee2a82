//! The benchmark's own coverage under `cargo test`: the command line, and
//! that `gcbench --quick --all --trace 1` emits every workload and metric
//! `BENCHMARK.json` names, under exactly those names and units.

use gc_benchmark::json::{self, Value};
use gc_benchmark::names;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn gcbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcbench"))
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn named(list: &Value) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn unknown_arguments_and_workloads_are_hard_errors() {
    for args in [
        &["--frobnicate"][..],
        &["--workload", "no-such-workload"],
        &["--workload"],
        &["--all", "--workload", "sim-roster"],
        &["--all", "--trace", "2"],
        &["--all", "--seconds", "-1"],
        &["--workload", "sim-roster", "--out", "x.json"],
        &[],
    ] {
        let out = gcbench().args(args).output().expect("gcbench starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: gcbench"),
            "{args:?}"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_names_the_crate_emits() {
    let doc = benchmark_json();
    let listed: Vec<String> = named(doc.get("workloads").expect("workloads"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = names::WORKLOADS
        .iter()
        .map(|(w, _)| w.to_string())
        .collect();
    assert_eq!(listed, ours);
    for (key, defs) in [
        ("end_to_end", names::end_to_end()),
        ("per_layer", names::per_layer()),
    ] {
        let ours: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.clone(), d.unit.to_string()))
            .collect();
        assert_eq!(named(doc.get(key).expect(key)), ours, "{key}");
        for (m, d) in doc.get(key).unwrap().items().iter().zip(&defs) {
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(d.better),
                "{}",
                d.name
            );
        }
    }
    for m in doc.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let paths = doc.get("paths").expect("paths").items();
    assert_eq!(paths, [Value::Str("crates/benchmark".into())]);
}

#[test]
fn quick_all_emits_every_workload_and_metric_named_in_benchmark_json() {
    let dir = scratch("quick-all");
    let out_file = dir.join("suite.json");
    std::fs::create_dir_all(&dir).unwrap();
    let out = gcbench()
        .args([
            "--quick",
            "--all",
            "--trace",
            "1",
            "--seed",
            "5",
            "--scratch",
        ])
        .arg(&dir)
        .arg("--out")
        .arg(&out_file)
        .output()
        .expect("gcbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gcbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Result lines, by (workload, trace), in the order the children ran.
    let doc = benchmark_json();
    let mut current = None;
    let mut results: BTreeMap<(String, bool), Value> = BTreeMap::new();
    let mut metric_lines: BTreeSet<(String, String)> = BTreeSet::new();
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        if v.get("gcbench").is_some() {
            assert_eq!(v.get("claim"), Some(&Value::Null), "no gain is claimed");
            let env = v.get("env").expect("environment stamp");
            assert_eq!(env.get("quick").and_then(Value::as_bool), Some(true));
            assert_eq!(env.get("comparable").and_then(Value::as_bool), Some(false));
            current = Some((
                v.get("workload")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
                v.get("trace").and_then(Value::as_f64) == Some(1.0),
            ));
        } else if let Some(m) = v.get("metric").and_then(Value::as_str) {
            let w = v.get("workload").and_then(Value::as_str).unwrap();
            metric_lines.insert((w.to_string(), m.to_string()));
            assert!(v.get("n").and_then(Value::as_f64).unwrap() >= 1.0, "{line}");
            for key in ["value", "unit", "q1", "q3"] {
                assert!(v.get(key).is_some(), "{line}");
            }
        } else if v.get("correct").is_some() {
            results.insert(current.take().expect("header before result"), v);
        } else {
            panic!("unexpected line {line}");
        }
    }

    let workloads = named(doc.get("workloads").unwrap());
    assert_eq!(results.len(), 2 * workloads.len());
    for (workload, _) in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = &results[&(workload.clone(), trace)];
            assert_eq!(
                result.members().unwrap().keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap().members().unwrap();
            let want = named(doc.get(key).unwrap());
            assert_eq!(metrics.len(), want.len(), "{workload} {key}");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
                assert_eq!(m.members().unwrap().len(), 2, "{name}: value and unit only");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{workload} {name}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
        // The unbounded user-visible metrics are measured on their own
        // workload (or all) and nowhere else.
        for (only, d) in names::unbounded() {
            assert_eq!(
                metric_lines.contains(&(workload.clone(), d.name.clone())),
                only.is_none_or(|w| w == workload),
                "{workload} {}",
                d.name
            );
        }
        assert!(dir.join(format!("spans-{workload}.jsonl")).is_file());
    }

    // Every per-layer metric is really measured by at least one workload.
    for (name, _) in named(doc.get("per_layer").unwrap()) {
        assert!(
            metric_lines.iter().any(|(_, m)| *m == name),
            "{name} is listed but no workload measures it"
        );
    }

    // The --out document parses and covers the same workloads.
    let suite = json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert_eq!(suite.get("claim"), Some(&Value::Null));
    let listed = suite.get("workloads").unwrap().members().unwrap();
    assert_eq!(listed.len(), workloads.len());
    for (workload, _) in &workloads {
        let w = &listed[workload];
        assert_eq!(w.get("failed_share").and_then(Value::as_f64), Some(0.0));
        assert!(w.get("metrics").unwrap().get("throughput_rps").is_some());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
