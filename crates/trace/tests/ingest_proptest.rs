//! Property-based tests for the hardened text ingest: whatever garbage is
//! spliced into a trace file, quarantine-mode ingest recovers exactly the
//! valid subsequence and quarantines exactly the garbage.

use gc_trace::io::{read_text, read_text_with, write_text, IngestOptions, IngestPolicy};
use gc_types::Trace;
use testkit::prelude::*;

/// A palette of lines that can never parse as an item id (non-blank,
/// non-comment, not a valid `u64`).
const GARBAGE: &[&str] = &[
    "bogus",
    "12x34",
    "-5",
    "!!",
    "99999999999999999999999999999999",
    "id=42",
    "4 5",
    "NaN",
];

/// Splice garbage lines (chosen by `sel`, placed by `pos`) into the
/// rendering of `ids`; returns the file lines and the injected count.
fn splice(ids: &[u64], sel: &[usize], pos: &[usize]) -> (Vec<String>, usize) {
    let mut lines: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
    let mut injected = 0;
    for (s, p) in sel.iter().zip(pos) {
        let at = p % (lines.len() + 1);
        lines.insert(at, GARBAGE[s % GARBAGE.len()].to_string());
        injected += 1;
    }
    (lines, injected)
}

proptest! {
    /// Quarantine-mode ingest of a garbage-injected trace yields exactly
    /// the valid id subsequence, and the sidecar holds exactly the
    /// injected garbage lines in file order.
    #[test]
    fn quarantine_recovers_valid_subsequence(
        ids in prop::collection::vec(0u64..10_000, 0..100),
        sel in prop::collection::vec(0usize..1_000, 0..20),
        pos in prop::collection::vec(0usize..1_000, 0..20),
    ) {
        let (lines, injected) = splice(&ids, &sel, &pos);
        let file = lines.join("\n");

        let mut sidecar = Vec::new();
        let mut opts = IngestOptions {
            policy: IngestPolicy::Quarantine,
            quarantine: Some(&mut sidecar),
            ..IngestOptions::default()
        };
        let (trace, stats) = read_text_with(file.as_bytes(), &mut opts).unwrap();

        // Exactly the valid subsequence, in order.
        let got: Vec<u64> = trace.requests().iter().map(|i| i.0).collect();
        prop_assert_eq!(&got, &ids);
        prop_assert_eq!(stats.records, ids.len());
        prop_assert_eq!(stats.skipped, injected);
        prop_assert_eq!(stats.quarantined, injected);

        // The sidecar holds exactly the garbage lines, in file order.
        let quarantined: Vec<&str> = std::str::from_utf8(&sidecar).unwrap().lines().collect();
        let expected: Vec<&str> = lines
            .iter()
            .filter(|l| l.parse::<u64>().is_err())
            .map(|l| l.as_str())
            .collect();
        prop_assert_eq!(quarantined, expected);
    }

    /// Skip-mode ingest agrees with quarantine-mode on the recovered trace
    /// (the sidecar is the only difference).
    #[test]
    fn skip_and_quarantine_agree(
        ids in prop::collection::vec(0u64..10_000, 0..50),
        sel in prop::collection::vec(0usize..1_000, 0..10),
        pos in prop::collection::vec(0usize..1_000, 0..10),
    ) {
        let (lines, _) = splice(&ids, &sel, &pos);
        let file = lines.join("\n");

        let mut skip_opts = IngestOptions {
            policy: IngestPolicy::Skip,
            ..IngestOptions::default()
        };
        let (skip_trace, skip_stats) = read_text_with(file.as_bytes(), &mut skip_opts).unwrap();
        let mut q_opts = IngestOptions {
            policy: IngestPolicy::Quarantine,
            ..IngestOptions::default()
        };
        let (q_trace, q_stats) = read_text_with(file.as_bytes(), &mut q_opts).unwrap();
        prop_assert_eq!(skip_trace.requests(), q_trace.requests());
        prop_assert_eq!(skip_stats.records, q_stats.records);
        prop_assert_eq!(skip_stats.skipped, q_stats.skipped);
        // Without a sidecar writer the lines are still counted as
        // quarantined; they just have nowhere to go.
        prop_assert_eq!(q_stats.quarantined, q_stats.skipped);
    }

    /// A clean round-trip through write_text/read_text is lossless for any
    /// id sequence — and CRLF-converting the file changes nothing.
    #[test]
    fn text_roundtrip_with_and_without_crlf(
        ids in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let trace = Trace::from_ids(ids);
        let mut buf = Vec::new();
        write_text(&trace, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        prop_assert_eq!(back.requests(), trace.requests());

        // Simulate a Windows checkout: LF → CRLF.
        let crlf = String::from_utf8(buf).unwrap().replace('\n', "\r\n");
        let back_crlf = read_text(crlf.as_bytes()).unwrap();
        prop_assert_eq!(back_crlf.requests(), trace.requests());
    }
}

#[test]
fn quarantine_counts_follow_error_budget() {
    let file = "x\n1\ny\n2\nz\n";
    let mut opts = IngestOptions {
        policy: IngestPolicy::Quarantine,
        error_budget: 2,
        ..IngestOptions::default()
    };
    let err = read_text_with(file.as_bytes(), &mut opts).unwrap_err();
    assert!(
        matches!(
            err,
            gc_types::GcError::ErrorBudgetExceeded { budget: 2, .. }
        ),
        "{err}"
    );
}
