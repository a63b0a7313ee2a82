//! End-to-end fault-isolation tests against the real `gc-cache` binary:
//! a `SIGKILL`-interrupted sweep resumed from its checkpoint must be
//! bit-identical to an uninterrupted run, and a sweep with a deliberately
//! panicking cell under `--on-error skip` must leave the surviving cells
//! bit-identical to a clean run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn gc_cache() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gc-cache"))
}

fn run(args: &[&str]) -> Output {
    gc_cache()
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

/// Small deterministic workload flags shared by every invocation of one
/// scenario, so all runs sweep the exact same cells.
const WORKLOAD: &[&str] = &[
    "--workload",
    "zipf",
    "--len",
    "30000",
    "--items",
    "2048",
    "--seed",
    "7",
    "--block-size",
    "16",
];

fn sweep_args(extra: &[&str]) -> Vec<String> {
    let mut v = vec!["sweep".to_string(), "--capacities".to_string()];
    v.push("64,256,1024".to_string());
    v.extend(WORKLOAD.iter().map(|s| s.to_string()));
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

fn wait_for_checkpoint(path: &Path, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if path.exists() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn sigkill_then_resume_is_bit_identical() {
    let dir = temp_dir("sigkill");
    let ckpt = dir.join("sweep.ckpt.json");

    // Reference: an uninterrupted plain CSV run.
    let reference = stdout_of(&run(&sweep_args(&["--csv"])
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()));

    // Interrupted run: checkpoint after every cell, then SIGKILL as soon
    // as the first checkpoint lands. A single worker thread keeps the run
    // slow enough to usually catch mid-flight; if the child finishes
    // before the kill, the scenario degenerates to resuming a complete
    // checkpoint, which must also be bit-identical.
    let args = sweep_args(&[
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--threads",
        "1",
    ]);
    let mut child = gc_cache()
        .args(args.iter().map(String::as_str))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn interrupted sweep");
    let appeared = wait_for_checkpoint(&ckpt, Duration::from_secs(30));
    child.kill().ok(); // SIGKILL on unix
    child.wait().unwrap();
    assert!(appeared, "no checkpoint was written before the deadline");

    // Resume and compare byte-for-byte.
    let resume_args = sweep_args(&["--resume", ckpt.to_str().unwrap()]);
    let resumed = stdout_of(&run(&resume_args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()));
    assert_eq!(
        resumed, reference,
        "resumed sweep output differs from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
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
fn resume_refuses_mismatched_config() {
    let dir = temp_dir("mismatch");
    let ckpt = dir.join("sweep.ckpt.json");

    // Complete a checkpointed run, then resume under different capacities.
    stdout_of(&run(&sweep_args(&["--checkpoint", ckpt.to_str().unwrap()])
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()));
    let out = run(&[
        "sweep",
        "--capacities",
        "32,64",
        "--workload",
        "zipf",
        "--len",
        "30000",
        "--items",
        "2048",
        "--seed",
        "7",
        "--block-size",
        "16",
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "mismatched resume must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refusing to resume"),
        "expected a checkpoint-mismatch refusal: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two explicit partitions of the same items with the same largest block:
/// everything but the grouping is equal, and a checkpoint taken under one
/// must not seed a resume under the other.
#[test]
fn resume_refuses_a_different_partition() {
    let dir = temp_dir("partition");
    let ckpt = dir.join("sweep.ckpt.json");
    let trace_file = |name: &str, groups: &str| {
        let path = dir.join(name);
        let requests: Vec<String> = (0..400u32).map(|i| (i * 7 % 6).to_string()).collect();
        let doc = format!(
            "{{\"trace\": {{\"name\": \"t\", \"requests\": [{}]}}, \"block_map\": {{\"groups\": {groups}}}}}",
            requests.join(",")
        );
        std::fs::write(&path, doc).unwrap();
        path
    };
    let a = trace_file("a.json", "[[0,1],[2,3],[4,5]]");
    let b = trace_file("b.json", "[[0,2],[1,3],[4,5]]");
    let sweep = |trace: &Path, flag: &str| {
        run(&[
            "sweep",
            "--capacities",
            "4,6",
            "--trace",
            trace.to_str().unwrap(),
            flag,
            ckpt.to_str().unwrap(),
        ])
    };

    stdout_of(&sweep(&a, "--checkpoint"));
    // Same partition: the checkpoint is accepted.
    stdout_of(&sweep(&a, "--resume"));
    let out = sweep(&b, "--resume");
    assert!(
        !out.status.success(),
        "a different partition must be refused"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refusing to resume"),
        "expected a checkpoint-mismatch refusal: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
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
