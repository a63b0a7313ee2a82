//! # gcbench — the repository's one benchmark
//!
//! Six named workloads over the GC-cache stack (trace → `gc-policies` →
//! `gc-sim` → `gc-runtime` → `store`), each reporting the same end-to-end
//! metrics with tracing off, and — in a separate traced run — per-layer
//! metrics measured from outside by timing calls into each layer's public
//! items. See `README.md` beside this crate for the names, what each
//! workload is for, and which end-to-end metric each layer should move.
//!
//! Measurement discipline, all workloads: inputs from [`gen`] (seeded, no
//! `rand`), one untimed warm-up pass, then repetitions with a fresh
//! policy/runtime/store built outside the timed region, reported as
//! median with quartiles and the sample count — never best-of.

#![warn(missing_docs)]

pub mod env;
pub mod gen;
pub mod json;
pub mod ledger;
pub mod names;
pub mod openloop;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

use stats::Summary;
use std::path::PathBuf;

/// `--seconds` at which every workload runs at its stated full size; a
/// smaller value shortens traces and schedules in proportion.
pub const NOMINAL_SECONDS: f64 = 60.0;

/// What one workload run is asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Target length of the timed part, seconds.
    pub seconds: f64,
    /// Tiny sizes and few repetitions: exercises every code path in
    /// seconds; the numbers are not comparable with anything.
    pub quick: bool,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for store files and span files; created on demand.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// A full-size length scaled to this run, rounded up to a multiple of
    /// `quantum` and never below it.
    pub fn len(&self, full: usize, quantum: usize) -> usize {
        let scale = if self.quick {
            1.0 / 64.0
        } else {
            (self.seconds / NOMINAL_SECONDS).min(1.0)
        };
        let scaled = (full as f64 * scale) as usize;
        scaled.div_ceil(quantum).max(1) * quantum
    }

    /// Timed repetitions: `min` (the floor the discipline demands), more
    /// when `share` of the run's seconds fits more passes of `pass_s`
    /// seconds each, at most `8 × min`. Quick runs do 3.
    pub fn reps(&self, min: usize, share: f64, pass_s: f64) -> usize {
        if self.quick {
            return 3;
        }
        let fit = (self.seconds * share / pass_s.max(1e-6)) as usize;
        fit.clamp(min, 8 * min)
    }

    /// Seconds given to an open-loop phase taking `share` of the run.
    pub fn phase_seconds(&self, share: f64) -> f64 {
        share * if self.quick { 0.6 } else { self.seconds }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, from [`names`].
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Median (or exact value), quartiles, sample count.
    pub value: Summary,
}

/// Requests and correctness checks, counted together: a request that
/// returns `Err` or a check that does not hold is a failed operation.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What failed, for the report (first few).
    pub failures: Vec<String>,
}

impl Ops {
    /// Count `attempted` requests of which `failed` failed.
    pub fn requests(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} requests failed: {what}"));
        }
    }

    /// Count one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, what: String) {
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

/// The result of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Requests and checks.
    pub ops: Ops,
}

impl Outcome {
    /// Report a sampled metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: Summary) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Report a counted or once-computed metric.
    pub fn exact(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, Summary::exact(value));
    }

    /// The value reported under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.median)
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, quick: bool) -> RunConfig {
        RunConfig {
            seed: 1,
            seconds,
            quick,
            trace: false,
            scratch: PathBuf::from("unused"),
        }
    }

    #[test]
    fn lengths_scale_with_seconds_and_round_to_the_quantum() {
        assert_eq!(cfg(60.0, false).len(1 << 20, 4096), 1 << 20);
        assert_eq!(cfg(90.0, false).len(1 << 20, 4096), 1 << 20);
        assert_eq!(cfg(15.0, false).len(1 << 20, 4096), 1 << 18);
        assert_eq!(cfg(15.0, true).len(1 << 20, 4096), 1 << 14);
        assert_eq!(cfg(15.0, false).len(6_000, 2), 1_500);
        assert_eq!(cfg(0.001, false).len(1_000, 64), 64);
    }

    #[test]
    fn reps_never_drop_below_the_floor() {
        assert_eq!(cfg(10.0, false).reps(9, 0.8, 2.0), 9);
        assert_eq!(cfg(10.0, false).reps(9, 0.8, 0.5), 16);
        assert_eq!(cfg(10.0, false).reps(9, 0.8, 0.01), 72);
        assert_eq!(cfg(10.0, true).reps(9, 0.8, 0.5), 3);
    }

    #[test]
    fn ops_count_requests_and_checks_together() {
        let mut ops = Ops::default();
        ops.requests(100, 0, "gets");
        ops.check(true, || unreachable!());
        ops.check(false, || "conservation".into());
        assert_eq!((ops.attempted, ops.failed), (102, 1));
        assert_eq!(ops.failures, vec!["conservation".to_string()]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
