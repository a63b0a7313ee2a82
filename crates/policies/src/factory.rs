//! Policy construction by name — the registry used by the CLI, the sweep
//! harness, and the benchmarks.

use crate::{
    AdaptiveIblp, BlockFifo, BlockLru, GcPolicy, Gcm, Iblp, ItemClock, ItemFifo, ItemLfu, ItemLru,
    ItemRandom, LruK, Slru, ThresholdLoad, TwoQ, Universe, WTinyLfu,
};
use gc_types::{BlockMap, GcError};
use std::fmt;

/// A buildable policy description.
///
/// `PolicyKind` is `Clone + Eq` and cheap, so sweep configurations can
/// carry lists of kinds and instantiate fresh policies per (trace, size)
/// combination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`ItemLru`].
    ItemLru,
    /// [`ItemFifo`].
    ItemFifo,
    /// [`ItemClock`].
    ItemClock,
    /// [`ItemLfu`].
    ItemLfu,
    /// [`ItemRandom`] with an RNG seed.
    ItemRandom {
        /// RNG seed.
        seed: u64,
    },
    /// Classic marking: [`Gcm`] with no co-loads, with an RNG seed.
    ItemMarking {
        /// RNG seed.
        seed: u64,
    },
    /// [`BlockLru`].
    BlockLru,
    /// [`BlockFifo`].
    BlockFifo,
    /// [`Iblp`] with an even item/block split.
    IblpBalanced,
    /// [`Iblp`] with an explicit item-layer size; the block layer gets the
    /// remaining lines.
    Iblp {
        /// Item-layer size `i` in lines.
        item_lines: usize,
    },
    /// [`Gcm`] with an RNG seed.
    Gcm {
        /// RNG seed.
        seed: u64,
    },
    /// [`ThresholdLoad`] with parameter `a`.
    ThresholdLoad {
        /// The `a` parameter of Theorem 4.
        a: usize,
    },
    /// [`TwoQ`].
    TwoQ,
    /// [`Slru`] with the default 80%-protected tuning.
    Slru,
    /// [`LruK`] with history depth `k`.
    LruK {
        /// History depth (2 is the classic setting).
        k: usize,
    },
    /// [`WTinyLfu`].
    WTinyLfu,
    /// [`AdaptiveIblp`].
    AdaptiveIblp,
    /// [`Gcm`] restricted to at most `coload` guests per miss (§6.2's
    /// partial-loading family).
    PartialGcm {
        /// RNG seed.
        seed: u64,
        /// Maximum co-loaded guests per miss.
        coload: usize,
    },
}

impl PolicyKind {
    /// Instantiate the policy with total capacity `capacity` over `map`.
    ///
    /// Equivalent to [`build_send`](Self::build_send) with the `Send`
    /// bound erased; kept for single-threaded callers and trait-object
    /// collections that never cross threads.
    pub fn build(&self, capacity: usize, map: &BlockMap) -> Box<dyn GcPolicy> {
        self.build_send(capacity, map)
    }

    /// Instantiate the policy as a `Send` trait object.
    ///
    /// This is the constructor the concurrent runtime uses to build one
    /// policy **per shard**: every policy owns its full replacement state
    /// (its `BlockMap` is `Arc`-backed and shared structurally, never
    /// cloned deep) and its RNG, so instances can be moved onto worker
    /// threads freely. Nothing here assumes single-threaded construction —
    /// there is no shared scratch; the per-access
    /// [`AccessScratch`](gc_types::AccessScratch) is caller-owned and
    /// lives with whoever drives the policy (one per shard in the
    /// runtime, one per simulation in the engine), so building `S` shards
    /// never clones traces or shares mutable buffers.
    pub fn build_send(&self, capacity: usize, map: &BlockMap) -> Box<dyn GcPolicy + Send> {
        // Computed once per build: dense (slab-backed) when the map carries a
        // compiled universe, sparse (hash-backed) otherwise. The map-taking
        // policies below derive the same universe internally from their map.
        let universe = Universe::of(map);
        match *self {
            PolicyKind::ItemLru => Box::new(ItemLru::with_universe(capacity, &universe)),
            PolicyKind::ItemFifo => Box::new(ItemFifo::with_universe(capacity, &universe)),
            PolicyKind::ItemClock => Box::new(ItemClock::with_universe(capacity, &universe)),
            PolicyKind::ItemLfu => Box::new(ItemLfu::with_universe(capacity, &universe)),
            PolicyKind::ItemRandom { seed } => {
                Box::new(ItemRandom::with_universe(capacity, seed, &universe))
            }
            PolicyKind::ItemMarking { seed } => {
                Box::new(Gcm::with_coload_limit(capacity, map.clone(), seed, 0))
            }
            PolicyKind::BlockLru => Box::new(BlockLru::new(capacity, map.clone())),
            PolicyKind::BlockFifo => Box::new(BlockFifo::new(capacity, map.clone())),
            PolicyKind::IblpBalanced => Box::new(Iblp::balanced(capacity, map.clone())),
            PolicyKind::Iblp { item_lines } => {
                let i = item_lines.min(capacity.saturating_sub(map.max_block_size()));
                Box::new(Iblp::new(i.max(1), capacity - i.max(1), map.clone()))
            }
            PolicyKind::Gcm { seed } => Box::new(Gcm::new(capacity, map.clone(), seed)),
            PolicyKind::ThresholdLoad { a } => {
                // Clamp a into [1, B] so rosters parameterized by a stay
                // buildable across block sizes.
                let a = a.clamp(1, map.max_block_size());
                Box::new(ThresholdLoad::new(capacity, a, map.clone()))
            }
            PolicyKind::TwoQ => Box::new(TwoQ::with_universe(capacity, &universe)),
            PolicyKind::Slru => Box::new(Slru::with_universe(capacity, &universe)),
            PolicyKind::LruK { k } => Box::new(LruK::with_universe(capacity, k.max(1), &universe)),
            PolicyKind::WTinyLfu => Box::new(WTinyLfu::with_universe(capacity, &universe)),
            PolicyKind::AdaptiveIblp => Box::new(AdaptiveIblp::new(capacity, map.clone())),
            PolicyKind::PartialGcm { seed, coload } => {
                Box::new(Gcm::with_coload_limit(capacity, map.clone(), seed, coload))
            }
        }
    }

    /// The smallest total capacity [`build`](Self::build) accepts for this
    /// kind over blocks of at most `block_size` items; one line less makes
    /// the constructor panic. Callers that take a capacity from an operator
    /// check it here and return [`GcError::CapacityTooSmall`] instead.
    pub fn min_capacity(&self, block_size: usize) -> usize {
        match self {
            // A block cache holds at least one whole block.
            PolicyKind::BlockLru | PolicyKind::BlockFifo | PolicyKind::ThresholdLoad { .. } => {
                block_size
            }
            // One item line next to one whole block.
            PolicyKind::Iblp { .. } => block_size + 1,
            // Half the lines must hold a whole block.
            PolicyKind::IblpBalanced | PolicyKind::AdaptiveIblp => 2 * block_size,
            _ => 1,
        }
    }

    /// Short stable label (used in CSV headers and CLI output).
    ///
    /// Prefer the [`Display`](std::fmt::Display) impl when writing into an
    /// existing buffer — it formats the same label without allocating.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parse a label produced by [`label`](Self::label) / `Display` (plus `seed=`
    /// parameters for the randomized policies), e.g. `item-lru`,
    /// `iblp:i=4096`, `loadk:a=2`, `gcm:seed=7`.
    pub fn parse(s: &str) -> Result<Self, GcError> {
        let (name, args) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let parse_u64 = |args: Option<&str>, key: &str, default: u64| -> Result<u64, GcError> {
            match args {
                None => Ok(default),
                Some(a) => match a.split_once('=') {
                    Some((k, v)) if k == key => v
                        .parse()
                        .map_err(|_| GcError::InvalidParameter(format!("bad {key} in {s:?}"))),
                    _ => Err(GcError::InvalidParameter(format!(
                        "expected {key}=<n> in {s:?}"
                    ))),
                },
            }
        };
        match name {
            "item-lru" => Ok(PolicyKind::ItemLru),
            "item-fifo" => Ok(PolicyKind::ItemFifo),
            "item-clock" => Ok(PolicyKind::ItemClock),
            "item-lfu" => Ok(PolicyKind::ItemLfu),
            "item-random" => Ok(PolicyKind::ItemRandom {
                seed: parse_u64(args, "seed", 0)?,
            }),
            "item-marking" => Ok(PolicyKind::ItemMarking {
                seed: parse_u64(args, "seed", 0)?,
            }),
            "block-lru" => Ok(PolicyKind::BlockLru),
            "block-fifo" => Ok(PolicyKind::BlockFifo),
            "iblp" => match args {
                None => Ok(PolicyKind::IblpBalanced),
                Some(_) => Ok(PolicyKind::Iblp {
                    item_lines: parse_u64(args, "i", 0)? as usize,
                }),
            },
            "gcm" => Ok(PolicyKind::Gcm {
                seed: parse_u64(args, "seed", 0)?,
            }),
            "loadk" => Ok(PolicyKind::ThresholdLoad {
                a: parse_u64(args, "a", 1)? as usize,
            }),
            "2q" => Ok(PolicyKind::TwoQ),
            "slru" => Ok(PolicyKind::Slru),
            "lru-k" => Ok(PolicyKind::LruK {
                k: parse_u64(args, "k", 2)? as usize,
            }),
            "tinylfu" => Ok(PolicyKind::WTinyLfu),
            "adaptive-iblp" => Ok(PolicyKind::AdaptiveIblp),
            "gcm-partial" => Ok(PolicyKind::PartialGcm {
                seed: 0,
                coload: parse_u64(args, "j", 1)? as usize,
            }),
            _ => Err(GcError::InvalidParameter(format!("unknown policy {s:?}"))),
        }
    }

    /// The standard comparison roster: the paper's three protagonists plus
    /// the classic baselines.
    pub fn standard_roster(seed: u64) -> Vec<PolicyKind> {
        vec![
            PolicyKind::ItemLru,
            PolicyKind::ItemFifo,
            PolicyKind::ItemClock,
            PolicyKind::ItemLfu,
            PolicyKind::ItemMarking { seed },
            PolicyKind::BlockLru,
            PolicyKind::IblpBalanced,
            PolicyKind::Gcm { seed },
            PolicyKind::ThresholdLoad { a: 1 },
        ]
    }

    /// The extended roster: the standard roster plus the scan-resistant
    /// item caches and the adaptive IBLP extension.
    pub fn extended_roster(seed: u64) -> Vec<PolicyKind> {
        let mut roster = Self::standard_roster(seed);
        roster.extend([
            PolicyKind::TwoQ,
            PolicyKind::Slru,
            PolicyKind::LruK { k: 2 },
            PolicyKind::WTinyLfu,
            PolicyKind::AdaptiveIblp,
        ]);
        roster
    }
}

/// Writes the same short stable label as [`PolicyKind::label`], directly
/// into the formatter — no intermediate `String`, so hot CSV/report writers
/// can emit rows without per-row allocation.
impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::ItemLru => f.write_str("item-lru"),
            PolicyKind::ItemFifo => f.write_str("item-fifo"),
            PolicyKind::ItemClock => f.write_str("item-clock"),
            PolicyKind::ItemLfu => f.write_str("item-lfu"),
            PolicyKind::ItemRandom { .. } => f.write_str("item-random"),
            PolicyKind::ItemMarking { .. } => f.write_str("item-marking"),
            PolicyKind::BlockLru => f.write_str("block-lru"),
            PolicyKind::BlockFifo => f.write_str("block-fifo"),
            PolicyKind::IblpBalanced => f.write_str("iblp"),
            PolicyKind::Iblp { item_lines } => write!(f, "iblp:i={item_lines}"),
            PolicyKind::Gcm { .. } => f.write_str("gcm"),
            PolicyKind::ThresholdLoad { a } => write!(f, "loadk:a={a}"),
            PolicyKind::TwoQ => f.write_str("2q"),
            PolicyKind::Slru => f.write_str("slru"),
            PolicyKind::LruK { k } => write!(f, "lru-k:k={k}"),
            PolicyKind::WTinyLfu => f.write_str("tinylfu"),
            PolicyKind::AdaptiveIblp => f.write_str("adaptive-iblp"),
            PolicyKind::PartialGcm { coload, .. } => write!(f, "gcm-partial:j={coload}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_types::ItemId;

    #[test]
    fn build_all_kinds() {
        let map = BlockMap::strided(4);
        for kind in PolicyKind::standard_roster(1) {
            let mut p = kind.build(16, &map);
            assert!(p.access(ItemId(0)).is_miss(), "{}", p.name());
            assert!(p.access(ItemId(0)).is_hit(), "{}", p.name());
            assert_eq!(p.capacity(), 16);
        }
    }

    #[test]
    fn min_capacity_is_exactly_where_construction_starts_to_succeed() {
        let kinds = [
            PolicyKind::ItemLru,
            PolicyKind::ItemFifo,
            PolicyKind::ItemClock,
            PolicyKind::ItemLfu,
            PolicyKind::ItemRandom { seed: 1 },
            PolicyKind::ItemMarking { seed: 1 },
            PolicyKind::BlockLru,
            PolicyKind::BlockFifo,
            PolicyKind::IblpBalanced,
            PolicyKind::Iblp { item_lines: 1 },
            PolicyKind::Iblp {
                item_lines: 1 << 20,
            },
            PolicyKind::Gcm { seed: 1 },
            PolicyKind::ThresholdLoad { a: 1 },
            PolicyKind::ThresholdLoad { a: 1 << 20 },
            PolicyKind::TwoQ,
            PolicyKind::Slru,
            PolicyKind::LruK { k: 2 },
            PolicyKind::WTinyLfu,
            PolicyKind::AdaptiveIblp,
            PolicyKind::PartialGcm { seed: 1, coload: 3 },
        ];
        for b in [1, 4, 16, 256] {
            let map = BlockMap::strided(b);
            for kind in &kinds {
                let min = kind.min_capacity(b);
                assert_eq!(kind.build(min, &map).capacity(), min, "{kind} B={b}");
                let below = std::panic::catch_unwind(|| kind.build(min - 1, &map));
                assert!(below.is_err(), "{kind} B={b} built at {}", min - 1);
            }
        }
    }

    #[test]
    fn parse_roundtrips_labels() {
        for kind in [
            PolicyKind::ItemLru,
            PolicyKind::ItemFifo,
            PolicyKind::ItemClock,
            PolicyKind::ItemLfu,
            PolicyKind::BlockLru,
            PolicyKind::BlockFifo,
            PolicyKind::IblpBalanced,
            PolicyKind::Iblp { item_lines: 42 },
            PolicyKind::ThresholdLoad { a: 3 },
            PolicyKind::TwoQ,
            PolicyKind::Slru,
            PolicyKind::LruK { k: 2 },
            PolicyKind::WTinyLfu,
            PolicyKind::AdaptiveIblp,
            PolicyKind::PartialGcm { seed: 0, coload: 3 },
        ] {
            assert_eq!(PolicyKind::parse(&kind.label()).unwrap(), kind);
        }
    }

    #[test]
    fn extended_roster_builds_everywhere() {
        let map = BlockMap::strided(8);
        for kind in PolicyKind::extended_roster(3) {
            let mut p = kind.build(64, &map);
            assert!(p.access(ItemId(0)).is_miss(), "{}", p.name());
            assert!(p.access(ItemId(0)).is_hit(), "{}", p.name());
        }
    }

    #[test]
    fn parse_seeded_policies() {
        assert_eq!(
            PolicyKind::parse("gcm:seed=9").unwrap(),
            PolicyKind::Gcm { seed: 9 }
        );
        assert_eq!(
            PolicyKind::parse("item-random").unwrap(),
            PolicyKind::ItemRandom { seed: 0 }
        );
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(PolicyKind::parse("belady").is_err());
        assert!(PolicyKind::parse("loadk:b=1").is_err());
        assert!(PolicyKind::parse("loadk:a=x").is_err());
    }

    #[test]
    fn build_send_policies_cross_threads() {
        // Every kind must construct a Send trait object that can be moved
        // to another thread and driven there — the per-shard construction
        // pattern of the concurrent runtime.
        let map = BlockMap::strided(8);
        let handles: Vec<_> = PolicyKind::extended_roster(5)
            .into_iter()
            .map(|kind| {
                let mut p = kind.build_send(64, &map);
                std::thread::spawn(move || {
                    assert!(p.access(ItemId(0)).is_miss(), "{}", p.name());
                    assert!(p.access(ItemId(0)).is_hit(), "{}", p.name());
                    p.capacity()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 64);
        }
    }

    #[test]
    fn iblp_item_lines_clamped_to_leave_block_room() {
        let map = BlockMap::strided(8);
        // item_lines larger than capacity − B must be clamped, not panic.
        let p = PolicyKind::Iblp { item_lines: 100 }.build(32, &map);
        assert_eq!(p.capacity(), 32);
    }
}
