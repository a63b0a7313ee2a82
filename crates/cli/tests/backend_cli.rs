//! End-to-end tests of the tiered-storage CLI surface: structured
//! `--backend` validation, the `store` subcommand's durability contract
//! (SIGKILL mid-population loses nothing acknowledged), and the tiered
//! telemetry in `serve --json`.

use gc_cache::gc_runtime::{BlockStore, DiskBackend};
use gc_cache::gc_types::json::Json;
use gc_cache::gc_types::{BlockId, BlockMap, ItemId};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn gc_cache() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gc-cache"))
}

fn run(args: &[&str]) -> Output {
    gc_cache()
        .args(args)
        .output()
        .expect("gc-cache binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc-backend-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small deterministic serve invocation; `backend` is appended last.
fn serve_args<'a>(backend: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![
        "serve",
        "--policy",
        "iblp",
        "--capacity",
        "256",
        "--workload",
        "zipf",
        "--items",
        "1024",
        "--len",
        "5000",
        "--seed",
        "7",
        "--block-size",
        "8",
        "--backend",
        backend,
    ];
    v.extend_from_slice(extra);
    v
}

/// Every malformed spec (and spec-adjacent flag misuse) must fail with a
/// structured `invalid parameter` error that names `--backend`.
#[test]
fn malformed_backend_specs_are_structured_errors() {
    let dir = temp_dir("spec-errors");
    let missing = format!("disk:{}/no-such-dir/b.gcs", dir.display());
    let cases: Vec<Vec<&str>> = vec![
        serve_args("floppy", &[]),
        serve_args("mem:0", &[]),
        serve_args("mem:lots", &[]),
        serve_args("disk", &[]),
        serve_args("disk:", &[]),
        serve_args("tiered", &[]),
        serve_args("tiered:mem:64", &[]),
        serve_args("tiered:synthetic+disk:/tmp/x.gcs", &[]),
        // Nonexistent parent directory: an I/O failure, still reported as
        // an invalid --backend parameter.
        serve_args(&missing, &[]),
    ];
    for args in cases {
        let out = run(&args);
        assert!(!out.status.success(), "must fail: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid parameter"),
            "structured error expected for {args:?}: {stderr}"
        );
        assert!(
            stderr.contains("--backend"),
            "error must name the flag for {args:?}: {stderr}"
        );
    }

    // A non-store file under the path is rejected with the same shape.
    let bogus = dir.join("not-a-store.gcs");
    std::fs::write(&bogus, "plain text").unwrap();
    let spec = format!("disk:{}", bogus.display());
    let out = run(&serve_args(&spec, &[]));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid parameter") && stderr.contains("--backend"),
        "{stderr}"
    );
    assert!(stderr.contains("bad magic"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The synthetic backend's latency comes from its spec alone, and
/// `serve --json` reports the spec's value.
#[test]
fn synthetic_latency_is_reported_from_the_spec() {
    let out = run(&serve_args("synthetic:50", &["--json"]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let latency = Json::parse(&stdout)
        .unwrap_or_else(|e| panic!("serve --json must emit valid JSON ({e}): {stdout}"))
        .get("backend_latency_us")
        .and_then(Json::as_u64);
    assert_eq!(latency, Some(50), "{stdout}");
}

#[test]
fn store_cmd_validates_parameters() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["store"], "--path"),
        (
            vec!["store", "--path", "/tmp/x.gcs", "--blocks", "0"],
            "--blocks",
        ),
        (
            vec!["store", "--path", "/tmp/x.gcs", "--sync-every", "0"],
            "--sync-every",
        ),
    ];
    for (args, flag) in cases {
        let out = run(&args);
        assert!(!out.status.success(), "must fail: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid parameter") && stderr.contains(flag),
            "structured error naming {flag} expected for {args:?}: {stderr}"
        );
    }
}

/// `serve --json` surfaces the backend spec, per-tier telemetry, and the
/// delayed-hit counters (hand-rolled JSON, so this works offline too).
#[test]
fn serve_json_reports_tiers_and_delayed_hits() {
    let dir = temp_dir("json");
    let spec = format!("tiered:mem:16+disk:{}/b.gcs", dir.display());
    let out = run(&serve_args(
        &spec,
        &["--threads", "4", "--batch", "8", "--json"],
    ));
    assert!(
        out.status.success(),
        "tiered serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"backend\": \"tiered:mem:16+disk:",
        "\"tiers\": [",
        "\"label\": \"mem\"",
        "\"label\": \"disk\"",
        "\"delayed_hits\":",
        "\"waiter_wait_p99_us\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

const CRASH_BLOCK_SIZE: usize = 512;

/// The canonical contents of strided block `b`.
fn canonical(b: u64) -> Vec<ItemId> {
    let start = b * CRASH_BLOCK_SIZE as u64;
    (start..start + CRASH_BLOCK_SIZE as u64)
        .map(ItemId)
        .collect()
}

/// SIGKILL a `store` run mid-population, then reopen the store and hold
/// it to the durability contract: every block acknowledged before the
/// kill reads back bit-identically, recovery discards any torn tail
/// rather than erroring, and a rerun completes the population.
#[test]
fn sigkill_during_store_population_loses_no_acknowledged_block() {
    let dir = temp_dir("sigkill");
    let path = dir.join("crash.gcs");
    let block_size = CRASH_BLOCK_SIZE.to_string();

    // Large records and a tiny fsync cadence: lots of acks, and a decent
    // chance the kill lands mid-append.
    let mut child = gc_cache()
        .args([
            "store",
            "--path",
            path.to_str().unwrap(),
            "--blocks",
            "200000",
            "--sync-every",
            "8",
            "--block-size",
            &block_size,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn store population");

    // Read acks until a few batches are durable, then SIGKILL while the
    // child is (almost certainly) still appending.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut acked: Option<u64> = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("utf-8 ack line");
        if let Some(n) = line.strip_prefix("acked ") {
            acked = Some(n.parse().expect("ack carries a block id"));
            if acked >= Some(4 * 8) {
                break;
            }
        }
    }
    child.kill().expect("SIGKILL the populator"); // SIGKILL on unix
    child.wait().unwrap();
    let acked = acked.expect("at least one ack before the kill");

    // Reopen: recovery must accept the file (truncating any torn tail)
    // and serve every acknowledged block bit-identically.
    let map = BlockMap::strided(CRASH_BLOCK_SIZE);
    let store = DiskBackend::open(&path, map.clone()).expect("recovery accepts the killed store");
    assert!(
        store.stored_blocks() as u64 > acked,
        "all {} acknowledged blocks survive (found {})",
        acked + 1,
        store.stored_blocks()
    );
    let mut out = Vec::new();
    for b in 0..=acked {
        assert!(
            store.try_load_into(BlockId(b), &mut out).unwrap(),
            "acknowledged block {b} missing after recovery"
        );
        assert_eq!(out, canonical(b), "block {b} not bit-identical");
    }
    drop(store);

    // Rerunning the population over the recovered store completes it:
    // already-durable blocks are skipped, the rest are appended.
    let rerun = run(&[
        "store",
        "--path",
        path.to_str().unwrap(),
        "--blocks",
        "512",
        "--sync-every",
        "128",
        "--block-size",
        &block_size,
    ]);
    assert!(
        rerun.status.success(),
        "rerun over recovered store failed: {}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    let store = DiskBackend::open(&path, map).unwrap();
    assert!(store.stored_blocks() >= 512);
    for b in [0u64, 255, 511] {
        assert!(store.try_load_into(BlockId(b), &mut out).unwrap());
        assert_eq!(out, canonical(b));
    }
    std::fs::remove_dir_all(&dir).ok();
}
