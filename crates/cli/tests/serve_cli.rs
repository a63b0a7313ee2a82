//! End-to-end tests of the `serve` subcommand against the real binary:
//! human output carries the conservation-law counters, `--json` emits
//! JSON that `gc_types::json` parses, and a generated trace file
//! round-trips through `--trace`.

use gc_cache::gc_types::json::Json;
use std::process::{Command, Output};

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

/// The top-level integer member `key` of `serve --json`'s report.
fn json_u64(json: &str, key: &str) -> u64 {
    Json::parse(json)
        .unwrap_or_else(|e| panic!("serve --json must emit valid JSON ({e}): {json}"))
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("integer {key} in {json}"))
}

#[test]
fn serve_reports_conserved_counters() {
    let out = stdout_of(&run(&[
        "serve",
        "--policy",
        "iblp",
        "--capacity",
        "512",
        "--shards",
        "4",
        "--threads",
        "4",
        "--workload",
        "zipf",
        "--items",
        "4096",
        "--len",
        "20000",
    ]));
    assert!(out.contains("served 20000 requests"), "{out}");
    assert!(out.contains("backend fetches"), "{out}");
    assert!(out.contains("shard 3:"), "expected 4 shard rows: {out}");
}

#[test]
fn serve_json_satisfies_conservation_laws() {
    let out = stdout_of(&run(&[
        "serve",
        "--policy",
        "item-lru",
        "--capacity",
        "64",
        "--shards",
        "1",
        "--threads",
        "8",
        "--backend",
        "synthetic:100",
        "--workload",
        "zipf",
        "--items",
        "1024",
        "--len",
        "4000",
        "--block-size",
        "64",
        "--json",
    ]));
    let requests = json_u64(&out, "requests");
    let temporal = json_u64(&out, "temporal_hits");
    let spatial = json_u64(&out, "spatial_hits");
    let misses = json_u64(&out, "misses");
    let led = json_u64(&out, "backend_fetches");
    let coalesced = json_u64(&out, "coalesced_fetches");
    assert_eq!(requests, 4000);
    assert_eq!(temporal + spatial + misses, requests, "{out}");
    assert_eq!(led + coalesced, misses, "every miss pays exactly once");
}

/// Workers are shard-affine, so threads beyond the shard count idle: the
/// report names the workers that actually ran, and the run still conserves.
#[test]
fn serve_reports_one_worker_per_shard_at_most() {
    let args = [
        "serve",
        "--policy",
        "iblp",
        "--capacity",
        "256",
        "--shards",
        "1",
        "--threads",
        "8",
        "--workload",
        "zipf",
        "--items",
        "2048",
        "--len",
        "5000",
    ];
    let json = stdout_of(&run(&[&args[..], &["--json"]].concat()));
    assert_eq!(json_u64(&json, "threads"), 8, "{json}");
    assert_eq!(json_u64(&json, "workers"), 1, "{json}");
    let misses = json_u64(&json, "misses");
    assert_eq!(
        json_u64(&json, "temporal_hits") + json_u64(&json, "spatial_hits") + misses,
        5000,
        "{json}"
    );
    assert_eq!(
        json_u64(&json, "backend_fetches") + json_u64(&json, "coalesced_fetches"),
        misses,
        "{json}"
    );
    let human = stdout_of(&run(&args));
    assert!(human.contains("8 thread(s), 1 worker(s)"), "{human}");
}

#[test]
fn serve_replays_a_generated_trace_file() {
    let dir = std::env::temp_dir().join(format!("gc-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trace_path = dir.join("trace.txt");
    let trace_str = trace_path.to_str().expect("utf-8 path");
    stdout_of(&run(&[
        "generate",
        "--out",
        trace_str,
        "--format",
        "text",
        "--workload",
        "zipf",
        "--items",
        "2048",
        "--len",
        "10000",
    ]));
    let out = stdout_of(&run(&[
        "serve",
        "--policy",
        "block-lru",
        "--capacity",
        "256",
        "--shards",
        "2",
        "--threads",
        "2",
        "--trace",
        trace_str,
        "--json",
    ]));
    assert_eq!(json_u64(&out, "requests"), 10_000);
    let misses = json_u64(&out, "misses");
    assert_eq!(
        json_u64(&out, "backend_fetches") + json_u64(&out, "coalesced_fetches"),
        misses,
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_zero_shards() {
    let out = run(&[
        "serve",
        "--policy",
        "iblp",
        "--capacity",
        "64",
        "--shards",
        "0",
        "--len",
        "100",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shard"), "{err}");
}

/// Knob values the config builders would silently floor to 1 must be
/// refused at the CLI boundary with a structured `invalid parameter`
/// error naming the flag.
#[test]
fn serve_rejects_zero_valued_knobs() {
    for (flag, value) in [("--batch", "0"), ("--threads", "0"), ("--queue-depth", "0")] {
        let out = run(&[
            "serve",
            "--policy",
            "iblp",
            "--capacity",
            "64",
            "--mode",
            "owner",
            flag,
            value,
            "--len",
            "100",
        ]);
        assert!(!out.status.success(), "{flag} 0 must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("invalid parameter") && err.contains(flag),
            "structured error naming {flag}: {err}"
        );
    }
}

/// A zero capacity used to reach the policies' `check_capacity` assert
/// and panic; `simulate` and `serve` now refuse it like any other bad
/// knob. (`sweep --capacities 0,...` stays the documented poisoned cell.)
#[test]
fn zero_capacity_is_a_structured_error_not_a_panic() {
    let reference = run(&["serve", "--capacity", "64", "--batch", "0", "--len", "100"]);
    for command in ["simulate", "serve"] {
        let out = run(&[command, "--capacity", "0", "--len", "100"]);
        assert_eq!(
            out.status.code(),
            reference.status.code(),
            "{command}: same exit code as the other invalid-parameter errors"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("invalid parameter: --capacity") && !err.contains("panicked"),
            "{command}: {err}"
        );
    }
}

/// `--queue-depth` is an owner-mode knob; passing it under the default
/// locked mode would be accepted and then ignored, so it is an error.
#[test]
fn serve_rejects_queue_depth_in_locked_mode() {
    let out = run(&[
        "serve",
        "--policy",
        "iblp",
        "--capacity",
        "64",
        "--mode",
        "locked",
        "--queue-depth",
        "8",
        "--len",
        "100",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("invalid parameter") && err.contains("--queue-depth"),
        "{err}"
    );

    // The same flag under owner mode is accepted. (Capacity must be
    // large enough for IBLP's block layer to hold one default-size
    // block — a too-small capacity is a *policy* panic, covered by
    // `owner::tests::constructor_panic_propagates_to_caller`.)
    let ok = run(&[
        "serve",
        "--policy",
        "iblp",
        "--capacity",
        "512",
        "--mode",
        "owner",
        "--queue-depth",
        "8",
        "--workload",
        "zipf",
        "--items",
        "512",
        "--len",
        "2000",
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}
