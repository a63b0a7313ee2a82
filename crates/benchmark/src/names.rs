//! Every workload, policy label, rate and metric name the benchmark
//! emits, in one place. `BENCHMARK.json` at the repository root lists the
//! same names (a test holds the two together); later issues cite them, so
//! they are frozen.

/// The six workloads: name and why it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim-roster",
        "researcher's sweep: ten policies over two traces through simulate_compiled; gc-policies and gc-sim do all the work, runtime and store none",
    ),
    (
        "serve-hot-1t",
        "serving fast path on one thread: session batching, shard routing and the lock hop over a zero-latency backend; bypass workload for multi-thread changes",
    ),
    (
        "serve-hot-2t",
        "the same runtime driven by two threads (nproc): the only place an execution-model change can show",
    ),
    (
        "serve-slow-open",
        "miss path under waiting: open-loop arrivals on a sleeping backend, where single-flight, parked waiters and latency dominate and policy cost is noise",
    ),
    (
        "serve-tiered-read",
        "store read path: RAM tier of 256 blocks over a prepopulated disk tier of 16384, working set far larger than the RAM tier",
    ),
    (
        "serve-disk-cold",
        "store write and recovery path: first-touch appends to an empty disk store, sync, reopen, read back every acknowledged block",
    ),
];

/// The error for a workload name that is not one of [`WORKLOADS`].
pub fn unknown_workload(name: &str) -> String {
    let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
    format!(
        "unknown workload {name:?} (expected one of {})",
        known.join(", ")
    )
}

/// The policy roster of `sim-roster`: the label used in metric names and
/// the string `PolicyKind::parse` takes.
pub const ROSTER: [(&str, &str); 10] = [
    ("item-lru", "item-lru"),
    ("item-lfu", "item-lfu"),
    ("block-lru", "block-lru"),
    ("iblp", "iblp"),
    ("adaptive-iblp", "adaptive-iblp"),
    ("gcm", "gcm"),
    ("loadk-a1", "loadk:a=1"),
    ("2q", "2q"),
    ("lru-k", "lru-k"),
    ("tinylfu", "tinylfu"),
];

/// The two traces of `sim-roster`.
pub const ROSTER_TRACES: [&str; 2] = ["mixed", "uniform"];

/// The frozen open-loop rate of `serve-slow-open`, requests per second.
pub const OPEN_RATE_RPS: f64 = 6_000.0;

/// The latency limit of `slo_rate_rps`: p99 from due time, microseconds.
pub const SLO_P99_US: f64 = 1_000.0;

/// The frozen ascending rate ladder of `serve-slow-open`: steps of at
/// most 8 %, spanning about 0.3–1.1× the closed-loop capacity measured
/// when the benchmark was defined (≈ 12 000 req/s).
pub const LADDER_RPS: [u32; 19] = [
    3_600, 3_880, 4_180, 4_500, 4_850, 5_230, 5_640, 6_080, 6_550, 7_060, 7_610, 8_200, 8_840,
    9_530, 10_270, 11_070, 11_930, 12_860, 13_200,
];

/// A metric's name, unit and which direction is better.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Def {
    /// Name as emitted.
    pub name: String,
    /// Unit as emitted.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics every workload reports with tracing off, each
/// with a regression bound in `BENCHMARK.json`.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower"),
        def("throughput_rps", "req/s", "higher"),
        def("fault_rate", "ratio", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
        def("req_p50_us", "us", "lower"),
    ]
}

/// User-visible metrics that carry no bound: the workload that measures
/// each (`None` = all) and the metric. They are printed with the
/// end-to-end run and listed per-layer in `BENCHMARK.json`.
///
/// `req_p99_us` is here because it cannot repeat: on the 2-core shared box
/// this was defined on, threads are stalled for 5–10 % of the time in
/// bursts of up to 10–30 ms, so a p99 is a statistic of the box's stalls:
/// its ten-run spread on `serve-slow-open` is 0.5–0.6 even when the box is
/// quiet (see README, "Spread"). The
/// other two exist on one workload only, and `BENCHMARK.json` requires
/// every end-to-end metric on every workload.
pub fn unbounded() -> Vec<(Option<&'static str>, Def)> {
    vec![
        (None, def("req_p99_us", "us", "lower")),
        (
            Some("serve-slow-open"),
            def("slo_rate_rps", "req/s", "higher"),
        ),
        (Some("serve-disk-cold"), def("recovery_s", "s", "lower")),
    ]
}

/// Every per-layer metric of the traced run. A workload that does not
/// exercise a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<Def> {
    let mut d = vec![
        def("trace.generate_ns_per_access", "ns/access", "lower"),
        def("compiled.compile_ns_per_access", "ns/access", "lower"),
        def("compiled.n_items", "count", "lower"),
        def("compiled.n_blocks", "count", "lower"),
    ];
    for (label, _) in ROSTER {
        for trace in ROSTER_TRACES {
            d.push(def(
                format!("policies.{label}.{trace}.ns_per_access"),
                "ns/access",
                "lower",
            ));
            d.push(def(
                format!("policies.{label}.{trace}.fault_rate"),
                "ratio",
                "lower",
            ));
        }
    }
    d.extend([
        def("policies.admitted_per_miss", "items", "higher"),
        def("policies.admit_share", "ratio", "higher"),
        def("policies.coload_utilisation", "ratio", "higher"),
        def("sim.raw_iter_ns", "ns/access", "lower"),
        def("sim.engine_ns.mixed", "ns/access", "lower"),
        def("sim.engine_ns.uniform", "ns/access", "lower"),
        def("sim.engine_self_ns", "ns/access", "lower"),
        def("sim.mrc_exact_ns_per_access", "ns/access", "lower"),
        def("sim.mrc_sampled_ns_per_access", "ns/access", "lower"),
    ]);
    for stage in [
        "session_1shard",
        "session_8shard",
        "session_sparse_8shard",
        "get_8shard",
        "coalesced_8shard",
        "owner_8shard",
        "mem_8shard",
        "disk_8shard",
    ] {
        d.push(def(format!("runtime.{stage}_ns"), "ns/req", "lower"));
    }
    for term in ["session", "routing", "hashing", "lock_hop", "flight"] {
        d.push(def(format!("runtime.self.{term}_ns"), "ns/req", "lower"));
    }
    d.extend([
        def("runtime.self.gap_explained", "ratio", "higher"),
        def("runtime.hit_rate_2t", "ratio", "higher"),
        def("runtime.hit_rate_2t_spread", "ratio", "lower"),
        def("singleflight.fetch_ns", "ns", "lower"),
        def("singleflight.coalescing_rate", "ratio", "higher"),
        def("singleflight.delayed_hits", "count", "lower"),
        def("singleflight.waiter_p50_us", "us", "lower"),
        def("singleflight.waiter_p99_us", "us", "lower"),
        def("singleflight.leaders", "count", "lower"),
        def("backend.loads", "count", "lower"),
        def("backend.busy_s", "s", "lower"),
        def("backend.load_p50_us", "us", "lower"),
        def("backend.load_p99_us", "us", "lower"),
        def("store.mem.fetches", "count", "higher"),
        def("store.mem.stores", "count", "lower"),
        def("store.disk.fetches", "count", "lower"),
        def("store.mem.load_p50_us", "us", "lower"),
        def("store.mem.load_p99_us", "us", "lower"),
        def("store.disk.load_p50_us", "us", "lower"),
        def("store.disk.load_p99_us", "us", "lower"),
        def("store.l1_hit_share", "ratio", "higher"),
        def("store.mem.load_ns", "ns", "lower"),
        def("store.disk.load_ns", "ns", "lower"),
        def("store.disk.store_ns", "ns", "lower"),
        def("store.disk.sync_ms", "ms", "lower"),
        def("store.disk.open_ms", "ms", "lower"),
        def("store.disk.bytes_per_user_byte", "B/B", "lower"),
        def("driver.send_late_p99_us", "us", "lower"),
        def("driver.backlog_max", "count", "lower"),
        def("driver.req_p999_us", "us", "lower"),
        def("driver.req_p999_samples", "count", "higher"),
    ]);
    for rate in LADDER_RPS {
        d.push(def(format!("driver.rate_{rate}.p99_us"), "us", "lower"));
    }
    d.extend([
        def("tracing.overhead_share", "ratio", "lower"),
        def("tracing.runtime_self_ns", "ns/req", "lower"),
        def("tracing.backend_ns", "ns/req", "lower"),
        def("tracing.spans", "count", "higher"),
    ]);
    d.extend(unbounded().into_iter().map(|(_, d)| d));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_caps() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!(e2e.len() <= 16 && layer.len() <= 128, "{}", layer.len());
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        let mut seen = BTreeSet::new();
        for d in e2e.iter().chain(&layer) {
            assert!(well_formed(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "{} listed twice", d.name);
            assert!(d.unit.len() <= 16 && matches!(d.better, "lower" | "higher"));
        }
        for (w, why) in WORKLOADS {
            assert!(well_formed(w) && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn ladder_is_ascending_in_steps_of_at_most_eight_percent() {
        assert!(LADDER_RPS
            .windows(2)
            .all(|w| w[1] > w[0] && f64::from(w[1]) <= f64::from(w[0]) * 1.08));
        assert!(LADDER_RPS.contains(&3_600) && LADDER_RPS.contains(&13_200));
    }

    #[test]
    fn roster_labels_parse_as_policies() {
        for (label, spec) in ROSTER {
            assert!(
                gc_cache::prelude::PolicyKind::parse(spec).is_ok(),
                "{label} -> {spec}"
            );
        }
    }
}
