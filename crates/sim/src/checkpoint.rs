//! Checkpoint/resume for long-running analytics.
//!
//! A 500-cell sweep over a multi-hour trace should survive a `SIGKILL`, an
//! OOM kill, or a pre-empted spot instance. This module provides the
//! persistence layer: periodic JSON checkpoints of completed cell results,
//! fingerprinted against the exact run configuration so a resume against
//! different parameters is *refused* rather than silently blended.
//!
//! # Format and invariants
//!
//! A checkpoint is a single JSON document (written atomically: temp file +
//! rename, so a kill can never leave a truncated checkpoint behind; the
//! member-by-member layout is in DESIGN.md, "JSON file formats"):
//!
//! * `version` — [`FORMAT_VERSION`]; a file of any other version is
//!   refused when it is loaded, before the rest of it is interpreted.
//! * `config_hash` — a deterministic 64-bit fingerprint ([`StableHasher`])
//!   of everything that affects cell results: the job list, the trace
//!   contents, and the block map. Thread counts and checkpoint cadence are
//!   deliberately *excluded* — they cannot change results.
//! * `total_cells` — the job-list length, double-checking the hash.
//! * completed cells with their full results, and failed cells with their
//!   rendered panic payloads.
//!
//! Resume re-runs exactly the cells that are missing **or failed** in the
//! checkpoint; completed cells are served from the checkpoint verbatim.
//! Because every cell is a pure function of `(job, trace, map)`, a resumed
//! run's output is bit-identical to an uninterrupted one — this is tested
//! end-to-end (including a real `SIGKILL`) in the CLI integration tests.

use crate::stats::SimStats;
use gc_types::json::{FromJson, Json, ToJson};
use gc_types::{BlockId, BlockMap, GcError, Trace};
use std::path::Path;

/// Current checkpoint format version; bumped on incompatible changes.
///
/// Version 2: files are written and read by `gc_types::json`, and
/// `config_hash` fingerprints the block map's structure
/// ([`map_fingerprint`]) — version 1 hashed a rendering of the map that
/// did not tell two explicit partitions apart, so its cells cannot be
/// trusted to belong to the configuration being resumed.
pub const FORMAT_VERSION: u32 = 2;

/// `expect` message for the mutex around a checkpoint sink: the pool
/// forbids `on_complete` callbacks from panicking, and they are the only
/// code that runs under that lock.
pub(crate) const SINK_POISONED: &str =
    "a completion callback panicked while holding the checkpoint sink";

/// A deterministic, platform-independent 64-bit fingerprint builder
/// (FNV-1a over a canonical byte rendering).
///
/// `std::hash` deliberately does not promise stability across runs or
/// platforms, and checkpoint fingerprints must survive both — so this is
/// hand-rolled and frozen.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Absorb a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Absorb a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The fingerprint of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprint a trace: name, length, and every request id.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&trace.name);
    h.write_usize(trace.len());
    for id in trace.iter() {
        h.write_u64(id.0);
    }
    h.finish()
}

/// Fingerprint a block map's structure: a strided map hashes its stride,
/// any other map hashes every block's items in block order — so two
/// partitions fingerprint alike only if they are the same partition.
pub fn map_fingerprint(map: &BlockMap) -> u64 {
    let mut h = StableHasher::new();
    if let Some(stride) = map.stride() {
        h.write_str("strided");
        h.write_u64(stride);
        return h.finish();
    }
    let n_blocks = map.num_blocks().expect("only strided maps are unbounded");
    h.write_str("groups");
    h.write_usize(n_blocks);
    for block in (0..n_blocks as u64).map(BlockId) {
        // Length-prefixed, so moving an item across a block boundary
        // changes the hash.
        h.write_usize(map.block_len(block));
        for item in map.items_of(block) {
            h.write_u64(item.0);
        }
    }
    h.finish()
}

/// The recorded outcome of one sweep cell.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepCellOutcome {
    /// The cell completed; its full result is preserved.
    Done {
        /// Policy display name (as produced by the live run).
        policy_name: String,
        /// The cell's aggregate statistics.
        stats: SimStats,
    },
    /// The cell panicked; resume will re-run it.
    Failed {
        /// Rendered panic payload.
        reason: String,
    },
}

/// One checkpointed sweep cell.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCellRecord {
    /// Index of the cell in the job list.
    pub index: usize,
    /// What happened to it.
    pub outcome: SweepCellOutcome,
}

/// A sweep checkpoint: the persistent state of a (possibly interrupted)
/// [`run_sweep`](crate::sweep::run_sweep) invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// [`FORMAT_VERSION`] at write time.
    pub version: u32,
    /// Fingerprint of (jobs, trace, map); see the module docs.
    pub config_hash: u64,
    /// Length of the job list.
    pub total_cells: usize,
    /// Recorded cells, kept sorted by index on write.
    pub cells: Vec<SweepCellRecord>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a fresh run.
    pub fn new(config_hash: u64, total_cells: usize) -> Self {
        SweepCheckpoint {
            version: FORMAT_VERSION,
            config_hash,
            total_cells,
            cells: Vec::new(),
        }
    }

    /// Validate this checkpoint against the configuration about to run.
    ///
    /// Refuses (with [`GcError::CheckpointMismatch`] or
    /// [`GcError::InvalidParameter`]) when the format version, the config
    /// fingerprint, or the cell count disagree — resuming would silently
    /// blend results from different experiments.
    pub fn validate(&self, config_hash: u64, total_cells: usize) -> Result<(), GcError> {
        if self.version != FORMAT_VERSION {
            return Err(unsupported_version(self.version));
        }
        if self.config_hash != config_hash {
            return Err(GcError::CheckpointMismatch {
                expected: config_hash,
                found: self.config_hash,
            });
        }
        if self.total_cells != total_cells {
            return Err(GcError::InvalidParameter(format!(
                "checkpoint holds {} cells but the configuration defines {total_cells}",
                self.total_cells
            )));
        }
        for cell in &self.cells {
            if cell.index >= total_cells {
                return Err(GcError::InvalidParameter(format!(
                    "checkpoint cell index {} out of range 0..{total_cells}",
                    cell.index
                )));
            }
        }
        Ok(())
    }

    /// Indices recorded as `Done` (the ones resume can skip).
    pub fn done_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells.iter().filter_map(|c| match c.outcome {
            SweepCellOutcome::Done { .. } => Some(c.index),
            SweepCellOutcome::Failed { .. } => None,
        })
    }
}

/// One checkpointed miss-ratio curve of an MRC bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct MrcCurveRecord {
    /// Which curve: `0` = item-granular, `1` = block-granular.
    pub index: usize,
    /// Total accesses (denominator of the curve's ratios).
    pub accesses: u64,
    /// `misses[k]` for `k = 0..=max_size`.
    pub misses: Vec<u64>,
}

/// A checkpoint for [`mrc_bundle`](crate::mrc::mrc_bundle):
/// each completed curve is persisted as soon as its pass finishes, so an
/// interrupted bundle re-runs only the missing curve.
#[derive(Clone, Debug, PartialEq)]
pub struct MrcCheckpoint {
    /// [`FORMAT_VERSION`] at write time.
    pub version: u32,
    /// Fingerprint of (trace, map, capacity, mode).
    pub config_hash: u64,
    /// Completed curves, sorted by index.
    pub curves: Vec<MrcCurveRecord>,
}

impl MrcCheckpoint {
    /// An empty checkpoint for a fresh bundle.
    pub fn new(config_hash: u64) -> Self {
        MrcCheckpoint {
            version: FORMAT_VERSION,
            config_hash,
            curves: Vec::new(),
        }
    }

    /// Validate against the configuration about to run (same contract as
    /// [`SweepCheckpoint::validate`]).
    pub fn validate(&self, config_hash: u64) -> Result<(), GcError> {
        if self.version != FORMAT_VERSION {
            return Err(unsupported_version(self.version));
        }
        if self.config_hash != config_hash {
            return Err(GcError::CheckpointMismatch {
                expected: config_hash,
                found: self.config_hash,
            });
        }
        Ok(())
    }
}

/// `{"Done": {"policy_name", "stats"}}` or `{"Failed": {"reason"}}`.
impl ToJson for SweepCellOutcome {
    fn to_json(&self) -> Json {
        match self {
            SweepCellOutcome::Done { policy_name, stats } => Json::object([(
                "Done",
                Json::object([
                    ("policy_name", policy_name.to_json()),
                    ("stats", stats.to_json()),
                ]),
            )]),
            SweepCellOutcome::Failed { reason } => {
                Json::object([("Failed", Json::object([("reason", reason.to_json())]))])
            }
        }
    }
}

impl FromJson for SweepCellOutcome {
    fn from_json(v: &Json) -> Result<Self, GcError> {
        match v.variant()? {
            ("Done", body) => {
                let [policy_name, stats] = body.fields(["policy_name", "stats"])?;
                Ok(SweepCellOutcome::Done {
                    policy_name: String::from_json(policy_name)?,
                    stats: SimStats::from_json(stats)?,
                })
            }
            ("Failed", body) => {
                let [reason] = body.fields(["reason"])?;
                Ok(SweepCellOutcome::Failed {
                    reason: String::from_json(reason)?,
                })
            }
            (other, body) => Err(body.error(format!(
                "unknown cell outcome `{other}` (expected `Done` or `Failed`)"
            ))),
        }
    }
}

gc_types::json_record!(SweepCellRecord { index, outcome });
gc_types::json_record!(SweepCheckpoint {
    version,
    config_hash,
    total_cells,
    cells,
});
gc_types::json_record!(MrcCurveRecord {
    index,
    accesses,
    misses,
});
gc_types::json_record!(MrcCheckpoint {
    version,
    config_hash,
    curves,
});

fn unsupported_version(found: u32) -> GcError {
    GcError::InvalidParameter(format!(
        "checkpoint format version {found} is not the supported {FORMAT_VERSION}"
    ))
}

/// Write `value` as pretty JSON to `path`, atomically.
///
/// The document is written to a `.tmp` sibling and renamed into place, so
/// a kill mid-write leaves either the previous checkpoint or the new one —
/// never a truncated file.
pub fn save_json<T: ToJson>(value: &T, path: &Path) -> Result<(), GcError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, value.to_json().to_string_pretty())?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load a checkpoint written by [`save_json`].
///
/// The document's `version` is checked before anything else is decoded, so
/// a file of another format version is refused, not misread.
pub fn load_json<T: FromJson>(path: &Path) -> Result<T, GcError> {
    let doc = Json::parse(&std::fs::read_to_string(path)?)?;
    let version = doc
        .get("version")
        .ok_or_else(|| doc.error("missing field `version`"))?;
    match u32::from_json(version)? {
        FORMAT_VERSION => T::from_json(&doc),
        other => Err(unsupported_version(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::ItemId;

    #[test]
    fn stable_hasher_is_deterministic_and_sensitive() {
        let mut a = StableHasher::new();
        a.write_str("hello");
        a.write_u64(42);
        let mut b = StableHasher::new();
        b.write_str("hello");
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_str("hello");
        c.write_u64(43);
        assert_ne!(a.finish(), c.finish());
        // Length prefixing keeps concatenations apart.
        let mut d = StableHasher::new();
        d.write_str("ab");
        d.write_str("c");
        let mut e = StableHasher::new();
        e.write_str("a");
        e.write_str("bc");
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn trace_fingerprint_tracks_content() {
        let a = Trace::from_ids([1, 2, 3]).named("x");
        let b = Trace::from_ids([1, 2, 3]).named("x");
        let c = Trace::from_ids([1, 2, 4]).named("x");
        let d = Trace::from_ids([1, 2, 3]).named("y");
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&c));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&d));
    }

    #[test]
    fn map_fingerprint_tracks_structure() {
        assert_eq!(
            map_fingerprint(&BlockMap::strided(8)),
            map_fingerprint(&BlockMap::strided(8))
        );
        assert_ne!(
            map_fingerprint(&BlockMap::strided(8)),
            map_fingerprint(&BlockMap::strided(16))
        );
        let explicit =
            BlockMap::from_groups(vec![vec![ItemId(0), ItemId(1)], vec![ItemId(2)]]).unwrap();
        assert_ne!(
            map_fingerprint(&explicit),
            map_fingerprint(&BlockMap::strided(2))
        );
        // Same items, same largest block, same block count — different
        // partitions, so cells computed under one must not resume the other.
        let ids = |groups: &[&[u64]]| {
            let groups = groups
                .iter()
                .map(|g| g.iter().copied().map(ItemId).collect())
                .collect();
            map_fingerprint(&BlockMap::from_groups(groups).unwrap())
        };
        assert_eq!(ids(&[&[0, 1], &[2]]), map_fingerprint(&explicit));
        assert_ne!(ids(&[&[0, 1], &[2]]), ids(&[&[0, 2], &[1]]));
        assert_ne!(ids(&[&[0, 1], &[2]]), ids(&[&[0], &[1, 2]]));
        assert_ne!(ids(&[&[0, 1], &[2]]), ids(&[&[1, 0], &[2]]));
    }

    #[test]
    fn validate_rejects_mismatches() {
        let ckpt = SweepCheckpoint::new(0xabc, 10);
        assert!(ckpt.validate(0xabc, 10).is_ok());
        assert!(matches!(
            ckpt.validate(0xdef, 10),
            Err(GcError::CheckpointMismatch { .. })
        ));
        assert!(ckpt.validate(0xabc, 11).is_err());
        let mut wrong_version = ckpt.clone();
        wrong_version.version = FORMAT_VERSION + 1;
        assert!(wrong_version.validate(0xabc, 10).is_err());
        let mut out_of_range = ckpt;
        out_of_range.cells.push(SweepCellRecord {
            index: 10,
            outcome: SweepCellOutcome::Failed { reason: "x".into() },
        });
        assert!(out_of_range.validate(0xabc, 10).is_err());
    }

    #[test]
    fn done_indices_skip_failed_cells() {
        let mut ckpt = SweepCheckpoint::new(1, 4);
        ckpt.cells.push(SweepCellRecord {
            index: 0,
            outcome: SweepCellOutcome::Done {
                policy_name: "p".into(),
                stats: SimStats::default(),
            },
        });
        ckpt.cells.push(SweepCellRecord {
            index: 2,
            outcome: SweepCellOutcome::Failed {
                reason: "boom".into(),
            },
        });
        assert_eq!(ckpt.done_indices().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn save_load_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("gc-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt.json");
        // A hash with the top bit set and low bits an f64 would round away.
        let mut ckpt = SweepCheckpoint::new(0xfedc_ba98_7654_3211, 3);
        ckpt.cells.push(SweepCellRecord {
            index: 1,
            outcome: SweepCellOutcome::Done {
                policy_name: "ItemLRU(k=8)".into(),
                stats: SimStats {
                    accesses: 10,
                    misses: 4,
                    ..SimStats::default()
                },
            },
        });
        ckpt.cells.push(SweepCellRecord {
            index: 2,
            outcome: SweepCellOutcome::Failed {
                reason: "assertion failed: \"capacity\" > 0\n".into(),
            },
        });
        save_json(&ckpt, &path).unwrap();
        // No temp residue after a successful save.
        assert!(!path.with_extension("tmp").exists());
        let back: SweepCheckpoint = load_json(&path).unwrap();
        assert_eq!(back, ckpt);

        let mrc_path = dir.join("mrc.ckpt.json");
        let mut mrc = MrcCheckpoint::new(u64::MAX);
        mrc.curves.push(MrcCurveRecord {
            index: 1,
            accesses: 7,
            misses: vec![7, 5, 3],
        });
        save_json(&mrc, &mrc_path).unwrap();
        assert_eq!(load_json::<MrcCheckpoint>(&mrc_path).unwrap(), mrc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn other_format_versions_are_refused_not_misread() {
        let dir = std::env::temp_dir().join(format!("gc-ckpt-version-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.ckpt.json");
        let mut todays_shape = SweepCheckpoint::new(1, 0);
        todays_shape.version = 1;
        // A version-1 file of exactly today's shape, and two of shapes this
        // reader has never seen: all refused for their version, whichever
        // checkpoint type is asked for, before any other member is read.
        for text in [
            todays_shape.to_json().to_string_pretty(),
            "{\"version\": 1, \"config_hash\": null, \"cells\": {}}".to_string(),
            "{\"version\": 3, \"curves\": \"?\"}".to_string(),
        ] {
            std::fs::write(&path, &text).unwrap();
            for err in [
                load_json::<SweepCheckpoint>(&path).unwrap_err(),
                load_json::<MrcCheckpoint>(&path).map(|_| ()).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, GcError::InvalidParameter(m) if m.contains("format version")),
                    "{text}: {err}"
                );
            }
        }
        std::fs::write(&path, "{\"config_hash\": 7}").unwrap();
        assert!(matches!(
            load_json::<MrcCheckpoint>(&path),
            Err(GcError::Parse { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_missing_file_as_io() {
        let err = load_json::<SweepCheckpoint>(Path::new("/nonexistent/nope.json")).unwrap_err();
        assert!(matches!(err, GcError::Io { .. }), "{err}");
    }
}
