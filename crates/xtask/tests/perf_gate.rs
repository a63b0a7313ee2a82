//! `xtask perf-gate` through the binary: the committed baseline passes
//! against itself, a doctored copy fails, and what cannot be compared —
//! or a flag that no longer exists — is exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn perf_gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("perf-gate")
        .args(args)
        .output()
        .expect("run xtask")
}

/// Writes `text` where the gate can read it and returns the path.
fn scratch(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("xtask-gate-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write scratch report");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn committed_baseline_passes_against_itself_and_names_every_line() {
    let baseline = repo_root().join("BENCH_gcbench.json");
    let out = perf_gate(&["--fresh", baseline.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    // 6 workloads × 5 end-to-end metrics of BENCHMARK.json, one line each.
    let lines = stdout.lines().filter(|l| l.ends_with("  ok")).count();
    assert_eq!(lines, 30, "{stdout}");
    assert!(stdout.contains("xtask perf-gate: PASS"), "{stdout}");
}

#[test]
fn doctored_reports_fail_or_are_refused() {
    let baseline = std::fs::read_to_string(repo_root().join("BENCH_gcbench.json"))
        .expect("committed baseline");

    let incorrect = scratch(
        "incorrect.json",
        &baseline.replacen("\"correct\":true", "\"correct\":false", 1),
    );
    let out = perf_gate(&["--fresh", &incorrect]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("not correct:"), "{stdout}");

    let other_seed = scratch(
        "seed.json",
        &baseline.replacen("\"seed\":1,", "\"seed\":2,", 1),
    );
    let out = perf_gate(&["--fresh", &other_seed]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("headers differ in `seed`"));

    let renamed = scratch(
        "renamed.json",
        &baseline.replacen("\"serve-disk-cold\"", "\"serve-disk-warm\"", 1),
    );
    let out = perf_gate(&["--fresh", &renamed]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve-disk-cold"));

    // The same files the other way round: --baseline is honoured.
    let out = perf_gate(&["--fresh", &incorrect, "--baseline", &incorrect]);
    assert_eq!(out.status.code(), Some(1));

    for path in [incorrect, other_seed, renamed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn usage_errors_exit_two() {
    let baseline = repo_root().join("BENCH_gcbench.json");
    let baseline = baseline.to_str().unwrap();
    for args in [
        &[][..],
        &["--fresh"],
        &["--fresh", "/nonexistent/report.json"],
        &["--fresh", baseline, "--tolerance", "0.15"],
    ] {
        let out = perf_gate(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
