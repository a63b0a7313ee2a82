//! Workspace automation entry point.
//!
//! ```sh
//! cargo run -p xtask -- lint [--root <path>]
//! cargo run -p xtask -- perf-gate --fresh <report.json> [--baseline <report.json>]
//! ```
//!
//! `lint` runs the workspace lint pass and prints one
//! `path:line: [rule] message` diagnostic per violation.
//!
//! `perf-gate` compares a fresh `gcbench --all --out` report against the
//! committed `BENCH_gcbench.json`, every end-to-end metric on every
//! workload, under the `better`/`bound` of `BENCHMARK.json` (see
//! `xtask::perfgate`).
//!
//! Exit codes (machine-readable; CI gates on them):
//! - `0` — clean tree / gate passed
//! - `1` — violations found / gate failed (details on stdout)
//! - `2` — usage or I/O error, or reports that cannot be compared (message
//!   on stderr)

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("perf-gate") => perf_gate(&args[1..]),
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--root <path>]\n       \
         cargo run -p xtask -- perf-gate --fresh <report.json> \
         [--baseline <report.json>]"
    );
}

/// Workspace root compiled into the binary: crates/xtask → two levels up,
/// independent of the invocation cwd.
fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn lint(args: &[String]) -> ExitCode {
    let root = match args {
        [] => workspace_root(),
        [flag, path] if flag == "--root" => PathBuf::from(path),
        _ => {
            usage();
            return ExitCode::from(2);
        }
    };
    match xtask::lint_workspace(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("xtask lint: {} violation(s)", diags.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn perf_gate(args: &[String]) -> ExitCode {
    let mut fresh: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("xtask perf-gate: `{flag}` needs a value");
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--fresh" => fresh = Some(PathBuf::from(value)),
            "--baseline" => baseline = Some(PathBuf::from(value)),
            other => {
                eprintln!("xtask perf-gate: unknown flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let Some(fresh) = fresh else {
        eprintln!("xtask perf-gate: --fresh <report.json> is required");
        return ExitCode::from(2);
    };
    let root = workspace_root();
    let baseline = baseline.unwrap_or_else(|| root.join("BENCH_gcbench.json"));
    let read = |path: &PathBuf| {
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
    };
    let gate = (|| {
        xtask::perfgate::compare(
            &read(&root.join("BENCHMARK.json"))?,
            &read(&baseline)?,
            &read(&fresh)?,
        )
    })();
    let gate = match gate {
        Ok(g) => g,
        Err(e) => {
            eprintln!("xtask perf-gate: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &gate.lines {
        println!("{line}");
    }
    for workload in &gate.incorrect {
        println!("not correct: {workload}");
    }
    if gate.passed() {
        println!("xtask perf-gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("xtask perf-gate: FAIL");
        ExitCode::from(1)
    }
}
