//! End-to-end fault-isolation tests against the real `gc-cache` binary:
//! a sweep whose capacity-0 cells every policy refuses leaves the surviving
//! cells bit-identical to a clean run under `--on-error skip` and names the
//! failing cell under `--on-error fail`, and a quarantine-mode ingest
//! recovers a corrupt trace and sidecars its bad lines.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gc-cache"))
        .args(args)
        .output()
        .expect("gc-cache binary runs")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "gc-cache failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn poisoned_cell_under_skip_leaves_survivors_bit_identical() {
    // Capacity 0 is below every policy's minimum, so each cell refuses it
    // — a poisoned column through the full production path.
    let reference = stdout_of(&run(&[
        "sweep",
        "--capacities",
        "256",
        "--workload",
        "zipf",
        "--len",
        "20000",
        "--items",
        "1024",
        "--seed",
        "3",
        "--block-size",
        "16",
        "--csv",
    ]));

    let out = run(&[
        "sweep",
        "--capacities",
        "0,256",
        "--workload",
        "zipf",
        "--len",
        "20000",
        "--items",
        "1024",
        "--seed",
        "3",
        "--block-size",
        "16",
        "--on-error",
        "skip",
    ]);
    let checked = stdout_of(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed"),
        "expected per-cell failure reports on stderr, got: {stderr}"
    );

    // Strip the failure-comment trailers; the surviving rows must be
    // byte-identical to the clean run.
    let survivors: String = checked
        .lines()
        .filter(|l| !l.starts_with("# "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        survivors, reference,
        "surviving cells differ from the clean run"
    );
    // Every poisoned cell is reported in the CSV trailer.
    assert!(
        checked.lines().any(|l| l.starts_with("# cell ")),
        "no failure trailer in checked CSV:\n{checked}"
    );
}

#[test]
fn poisoned_cell_under_fail_aborts_with_cell_index() {
    let out = run(&[
        "sweep",
        "--capacities",
        "0",
        "--workload",
        "zipf",
        "--len",
        "5000",
        "--items",
        "512",
        "--seed",
        "3",
        "--block-size",
        "16",
        "--on-error",
        "fail",
    ]);
    assert!(!out.status.success(), "poisoned sweep must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cell 0 failed"),
        "stderr must name the failing cell: {stderr}"
    );
}

#[test]
fn quarantine_ingest_recovers_and_sidecars() {
    let dir = temp_dir("quarantine");
    let trace = dir.join("trace.txt");
    let sidecar = dir.join("bad.txt");
    std::fs::write(&trace, "# demo\n1\nbogus\n2\nwat 3\n3\n").unwrap();

    let out = run(&[
        "stats",
        "--load",
        trace.to_str().unwrap(),
        "--on-error",
        "quarantine",
        "--quarantine",
        sidecar.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "quarantine ingest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 quarantined"),
        "ingest stats must report quarantined lines: {stderr}"
    );
    assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), "bogus\nwat 3\n");

    // Fail policy (the default) aborts on the same file.
    let out = run(&["stats", "--load", trace.to_str().unwrap()]);
    assert!(!out.status.success(), "default ingest must fail fast");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 3"),
        "error must carry the line number: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
