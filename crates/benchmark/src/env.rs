//! The environment stamp in every report header, so that two reports can
//! be told apart before their numbers are compared.

use crate::json::quote;
use gc_cache::gc_trace::synthetic;
use std::process::Command;

/// First requests of `gc_trace::synthetic::uniform(1_000_000, _, 42)`
/// under the offline stub `rand` (devtools/offline-stubs). Any other
/// prefix means the registry `rand` is linked. Benchmark inputs do not
/// depend on it (see [`crate::gen`]); the stamp records which `rand`,
/// `parking_lot` and `crossbeam` the measured program was built with.
const STUB_UNIFORM_PREFIX: [u64; 4] = [874_250, 204_626, 814_362, 906_883];

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Whether the workspace's external dependencies are the offline stubs.
fn deps_kind() -> &'static str {
    let t = synthetic::uniform(1_000_000, STUB_UNIFORM_PREFIX.len(), 42);
    if t.iter().map(|i| i.0).eq(STUB_UNIFORM_PREFIX) {
        "offline-stub"
    } else {
        "registry"
    }
}

/// The stamp as a JSON object (hand-formatted).
pub fn stamp_json(seed: u64, seconds: f64, quick: bool) -> String {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_commit\":{},\"deps\":{},\"seed\":{seed},\"seconds\":{seconds},\"quick\":{quick},\"comparable\":{}}}",
        quote(&cpu_model().unwrap_or_else(unknown)),
        quote(&first_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        quote(&first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        quote(deps_kind()),
        !quick,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_one_json_object_with_every_field() {
        let v = crate::json::parse(&stamp_json(7, 10.0, true)).unwrap();
        for key in [
            "nproc",
            "cpu",
            "rustc",
            "git_commit",
            "deps",
            "seed",
            "seconds",
            "quick",
            "comparable",
        ] {
            assert!(v.get(key).is_some(), "{key}");
        }
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("comparable").unwrap().as_bool(), Some(false));
        assert!(matches!(
            v.get("deps").unwrap().as_str(),
            Some("offline-stub" | "registry")
        ));
    }
}
