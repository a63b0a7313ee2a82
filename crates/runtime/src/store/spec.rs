//! Parsing and assembly of `--backend` specifications.
//!
//! Grammar (case-sensitive, no whitespace):
//!
//! ```text
//! spec      := "synthetic" [":" lat_us ["," jitter_us]]
//!            | "mem" [":" capacity_blocks]
//!            | "disk" ":" path
//!            | "tiered" ":" store_spec "+" spec
//! store_spec:= "mem" [":" capacity_blocks] | "disk" ":" path
//! ```
//!
//! `tiered:mem:64+disk:/tmp/blocks.gcs` is a 64-block RAM staging tier
//! over a persistent disk store. The L1 of a tiered spec must be
//! store-capable (`mem` or `disk`); nesting `tiered` inside `tiered` is
//! rejected — compose deeper hierarchies programmatically via
//! [`TieredBackend`] if ever needed.

use super::{DiskBackend, MemBackend, TieredBackend};
use crate::backend::{BlockBackend, SyntheticBackend};
use crate::sync::Arc;
use gc_types::{BlockId, BlockMap, GcError};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Default staging capacity when `mem` is given without `:blocks`.
pub const DEFAULT_MEM_BLOCKS: usize = 65_536;

/// A parsed `--backend` specification; [`build`](BackendSpec::build)
/// assembles the concrete backend hierarchy against a block map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// In-memory map-backed backend with emulated device latency.
    Synthetic {
        /// Base latency per block load.
        latency: Duration,
        /// Deterministic pseudo-random latency on top of the base.
        jitter: Duration,
    },
    /// Bounded in-RAM block store (FIFO displacement).
    Mem {
        /// Residency bound, in blocks.
        capacity_blocks: usize,
    },
    /// Persistent single-file disk store.
    Disk {
        /// Path of the segment file (created on first use).
        path: PathBuf,
    },
    /// Two-level hierarchy: `l1` staging store over `l2`.
    Tiered {
        /// The fast, store-capable staging tier (`mem` or `disk`).
        l1: Box<BackendSpec>,
        /// The authoritative level below.
        l2: Box<BackendSpec>,
    },
}

impl BackendSpec {
    /// The default backend: zero-latency synthetic (what `serve` used
    /// before `--backend` existed).
    pub fn synthetic_default() -> BackendSpec {
        BackendSpec::Synthetic {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// Short label for telemetry ("synthetic", "mem", "disk", "tiered").
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Synthetic { .. } => "synthetic",
            BackendSpec::Mem { .. } => "mem",
            BackendSpec::Disk { .. } => "disk",
            BackendSpec::Tiered { .. } => "tiered",
        }
    }

    /// Assemble the backend hierarchy over `map`.
    ///
    /// `prepopulate` lists blocks to persist (and fsync) into a disk
    /// store up front — for `disk` and for the L2 of a `tiered` spec —
    /// so serving measures reads against a durable, recovered-on-open
    /// store rather than first-touch appends. Memory tiers always start
    /// cold (staging residency is part of what a tiered run measures)
    /// and the synthetic backend has nothing to populate.
    pub fn build(
        &self,
        map: &BlockMap,
        prepopulate: &[BlockId],
    ) -> Result<Arc<dyn BlockBackend>, GcError> {
        match self {
            BackendSpec::Synthetic { latency, jitter } => Ok(Arc::new(
                SyntheticBackend::new(map.clone()).with_latency(*latency, *jitter),
            )),
            BackendSpec::Mem { capacity_blocks } => {
                Ok(Arc::new(MemBackend::new(map.clone(), *capacity_blocks)?))
            }
            BackendSpec::Disk { path } => {
                let store = DiskBackend::open(path, map.clone())?;
                if !prepopulate.is_empty() {
                    store.populate(prepopulate.iter().copied())?;
                    store.sync()?;
                }
                Ok(Arc::new(store))
            }
            BackendSpec::Tiered { l1, l2 } => {
                let staging: Arc<dyn super::BlockStore> = match l1.as_ref() {
                    BackendSpec::Mem { capacity_blocks } => {
                        Arc::new(MemBackend::new(map.clone(), *capacity_blocks)?)
                    }
                    BackendSpec::Disk { path } => {
                        // A disk L1 starts from whatever the store already
                        // holds; it is never prepopulated here (that's the
                        // authoritative tier's job).
                        Arc::new(DiskBackend::open(path, map.clone())?)
                    }
                    // Parsing already rejects these; defend anyway for
                    // programmatically-built specs.
                    other => {
                        return Err(GcError::InvalidParameter(format!(
                            "tiered L1 must be a block store (mem|disk), got {:?}",
                            other.label()
                        )))
                    }
                };
                let below = l2.build(map, prepopulate)?;
                Ok(Arc::new(TieredBackend::new(
                    staging,
                    below,
                    [l1.label(), l2.label()],
                )))
            }
        }
    }
}

fn parse_us(field: &str, value: &str) -> Result<Duration, GcError> {
    value
        .parse::<u64>()
        .map(Duration::from_micros)
        .map_err(|_| {
            GcError::InvalidParameter(format!(
                "backend spec {field} {value:?} is not a non-negative integer (microseconds)"
            ))
        })
}

/// Parse one non-tiered spec segment.
fn parse_flat(s: &str) -> Result<BackendSpec, GcError> {
    let (kind, rest) = match s.split_once(':') {
        Some((kind, rest)) => (kind, Some(rest)),
        None => (s, None),
    };
    match kind {
        "synthetic" => {
            let (latency, jitter) = match rest {
                None | Some("") => (Duration::ZERO, Duration::ZERO),
                Some(args) => match args.split_once(',') {
                    Some((lat, jit)) => (parse_us("latency", lat)?, parse_us("jitter", jit)?),
                    None => (parse_us("latency", args)?, Duration::ZERO),
                },
            };
            Ok(BackendSpec::Synthetic { latency, jitter })
        }
        "mem" => {
            let capacity_blocks = match rest {
                None | Some("") => DEFAULT_MEM_BLOCKS,
                Some(cap) => cap.parse::<usize>().map_err(|_| {
                    GcError::InvalidParameter(format!(
                        "backend spec mem capacity {cap:?} is not a positive integer (blocks)"
                    ))
                })?,
            };
            if capacity_blocks == 0 {
                return Err(GcError::InvalidParameter(
                    "backend spec mem capacity must be at least 1 block".into(),
                ));
            }
            Ok(BackendSpec::Mem { capacity_blocks })
        }
        "disk" => match rest {
            Some(path) if !path.is_empty() => Ok(BackendSpec::Disk {
                path: PathBuf::from(path),
            }),
            _ => Err(GcError::InvalidParameter(
                "backend spec disk requires a path: disk:<path>".into(),
            )),
        },
        other => Err(GcError::InvalidParameter(format!(
            "unknown backend kind {other:?} (expected synthetic|mem|disk|tiered)"
        ))),
    }
}

impl FromStr for BackendSpec {
    type Err = GcError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("tiered:") {
            Some(rest) => {
                let (l1, l2) = rest.split_once('+').ok_or_else(|| {
                    GcError::InvalidParameter(
                        "backend spec tiered requires two tiers: tiered:<l1>+<l2>".into(),
                    )
                })?;
                let l1 = parse_flat(l1)?;
                if !matches!(l1, BackendSpec::Mem { .. } | BackendSpec::Disk { .. }) {
                    return Err(GcError::InvalidParameter(format!(
                        "tiered L1 must be a block store (mem|disk), got {:?}",
                        l1.label()
                    )));
                }
                // The level below may be anything flat; nested tiered is
                // rejected by parse_flat's unknown-kind arm ("tiered" with
                // no '+' context is not a flat kind).
                let l2 = parse_flat(l2)?;
                Ok(BackendSpec::Tiered {
                    l1: Box::new(l1),
                    l2: Box::new(l2),
                })
            }
            None if s == "tiered" => Err(GcError::InvalidParameter(
                "backend spec tiered requires two tiers: tiered:<l1>+<l2>".into(),
            )),
            None => parse_flat(s),
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Synthetic { latency, jitter } => {
                if latency.is_zero() && jitter.is_zero() {
                    write!(f, "synthetic")
                } else if jitter.is_zero() {
                    write!(f, "synthetic:{}", latency.as_micros())
                } else {
                    write!(
                        f,
                        "synthetic:{},{}",
                        latency.as_micros(),
                        jitter.as_micros()
                    )
                }
            }
            BackendSpec::Mem { capacity_blocks } => write!(f, "mem:{capacity_blocks}"),
            BackendSpec::Disk { path } => write!(f, "disk:{}", path.display()),
            BackendSpec::Tiered { l1, l2 } => write!(f, "tiered:{l1}+{l2}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> BackendSpec {
        s.parse().unwrap()
    }

    fn parse_err(s: &str) -> String {
        s.parse::<BackendSpec>().unwrap_err().to_string()
    }

    #[test]
    fn parses_every_kind() {
        assert_eq!(parse("synthetic"), BackendSpec::synthetic_default());
        assert_eq!(
            parse("synthetic:200"),
            BackendSpec::Synthetic {
                latency: Duration::from_micros(200),
                jitter: Duration::ZERO,
            }
        );
        assert_eq!(
            parse("synthetic:200,50"),
            BackendSpec::Synthetic {
                latency: Duration::from_micros(200),
                jitter: Duration::from_micros(50),
            }
        );
        assert_eq!(
            parse("mem"),
            BackendSpec::Mem {
                capacity_blocks: DEFAULT_MEM_BLOCKS
            }
        );
        assert_eq!(
            parse("mem:64"),
            BackendSpec::Mem {
                capacity_blocks: 64
            }
        );
        assert_eq!(
            parse("disk:/tmp/blocks.gcs"),
            BackendSpec::Disk {
                path: PathBuf::from("/tmp/blocks.gcs")
            }
        );
        let tiered = parse("tiered:mem:64+disk:/tmp/b.gcs");
        assert_eq!(
            tiered,
            BackendSpec::Tiered {
                l1: Box::new(BackendSpec::Mem {
                    capacity_blocks: 64
                }),
                l2: Box::new(BackendSpec::Disk {
                    path: PathBuf::from("/tmp/b.gcs")
                }),
            }
        );
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "synthetic",
            "synthetic:200",
            "synthetic:200,50",
            "mem:64",
            "disk:/tmp/blocks.gcs",
            "tiered:mem:64+disk:/tmp/b.gcs",
            "tiered:mem:64+synthetic:200",
        ] {
            let spec = parse(s);
            assert_eq!(
                spec.to_string().parse::<BackendSpec>().unwrap(),
                spec,
                "{s}"
            );
        }
    }

    #[test]
    fn structured_errors_name_the_problem() {
        assert!(parse_err("floppy").contains("unknown backend kind"));
        assert!(parse_err("mem:0").contains("at least 1 block"));
        assert!(parse_err("mem:lots").contains("not a positive integer"));
        assert!(parse_err("disk").contains("disk:<path>"));
        assert!(parse_err("disk:").contains("disk:<path>"));
        assert!(parse_err("tiered").contains("tiered:<l1>+<l2>"));
        assert!(parse_err("tiered:mem:64").contains("tiered:<l1>+<l2>"));
        assert!(parse_err("tiered:synthetic+disk:/x").contains("L1 must be a block store"));
        assert!(parse_err("tiered:mem+tiered:mem+mem").contains("unknown backend kind"));
        assert!(parse_err("synthetic:fast").contains("not a non-negative integer"));
        // Every message flows through GcError::InvalidParameter, so the
        // CLI renders the structured "invalid parameter:" prefix.
        assert!(parse_err("floppy").contains("invalid parameter"));
    }

    #[test]
    fn build_assembles_the_hierarchy() {
        let map = BlockMap::strided(4);
        let dir = std::env::temp_dir().join(format!("gc-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.gcs");

        let spec: BackendSpec = format!("tiered:mem:8+disk:{}", path.display())
            .parse()
            .unwrap();
        let blocks: Vec<BlockId> = (0..4).map(BlockId).collect();
        let backend = spec.build(&map, &blocks).unwrap();
        // Prepopulated blocks serve the same canonical contents as the
        // synthetic backend, and the tiered snapshot reports both layers.
        let items = backend.load_block(BlockId(2)).unwrap();
        let expect: Vec<gc_types::ItemId> = (8..12).map(gc_types::ItemId).collect();
        assert_eq!(items, expect);
        let tiers = backend.tier_snapshot();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].label, "mem");
        assert_eq!(tiers[1].label, "disk");
        assert_eq!(tiers[1].fetches, 1, "cold L1 means the disk served it");

        // The disk store was prepopulated durably: reopening it as a flat
        // disk backend sees all four blocks without re-materializing.
        drop(backend);
        let flat: BackendSpec = format!("disk:{}", path.display()).parse().unwrap();
        let backend = flat.build(&map, &[]).unwrap();
        assert_eq!(
            backend.load_block(BlockId(3)).unwrap(),
            (12..16).map(gc_types::ItemId).collect::<Vec<_>>()
        );

        // Zero-capacity tiers are rejected at build time too.
        let bad = BackendSpec::Mem { capacity_blocks: 0 };
        assert!(bad.build(&map, &[]).is_err());
    }
}
