//! The item→block partition at the heart of the GC Caching model.
//!
//! A [`BlockMap`] records how the item universe is partitioned into disjoint
//! blocks of at most `B` items (Definition 1 in the paper). Two
//! representations are provided:
//!
//! * **Strided** — item `i` belongs to block `i / B`. This is how real
//!   memory systems map lines to pages and costs zero memory; it is the
//!   right choice for synthetic workloads.
//! * **Explicit** — an arbitrary disjoint grouping, needed by the
//!   NP-completeness reduction (Theorem 1) where blocks have heterogeneous
//!   *active set* sizes.
//!
//! A third, derived representation — **Dense** — is produced by trace
//! compilation ([`crate::compiled`]): items are renamed into `0..n_items`
//! and blocks into `0..n_blocks`, so `block_of` is a shift/divide (dense
//! strided) or a single array load (dense CSR) instead of a hash probe,
//! and downstream policy state can use plain `Vec` indexing. A dense map
//! remembers the original ids ([`DenseUniverse::decode_item`]) so reports
//! stay in the caller's key space.

use crate::json::{FromJson, Json, ToJson};
use crate::{BlockId, FxHashMap, GcError, ItemId};
use std::ops::Range;
use std::sync::Arc;

/// Partition of the item universe into blocks of at most `B` items.
///
/// Cloning is cheap: the explicit representation is behind an [`Arc`].
///
/// ```
/// use gc_types::{BlockMap, ItemId, BlockId};
///
/// // Like 64 B lines on a 512 B row: 8 items per block.
/// let map = BlockMap::strided(8);
/// assert_eq!(map.block_of(ItemId(19)), BlockId(2));
/// assert_eq!(map.items_of(BlockId(2)).count(), 8);
/// assert!(map.same_block(ItemId(16), ItemId(23)));
/// ```
#[derive(Clone, Debug)]
pub struct BlockMap {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    /// Item `i` → block `i / block_size`.
    Strided { block_size: u64 },
    /// Arbitrary explicit grouping.
    Explicit(Arc<Explicit>),
    /// Compiled dense universe (items `0..n_items`, blocks `0..n_blocks`).
    Dense(Arc<DenseMap>),
}

#[derive(Clone, Debug)]
struct Explicit {
    item_to_block: FxHashMap<ItemId, BlockId>,
    blocks: Vec<Vec<ItemId>>,
    max_block_size: usize,
}

/// The dense partition produced by trace compilation.
///
/// Items are `0..n_items` and blocks `0..n_blocks`; `decode` maps each
/// dense item and block back to its original sparse id. The item→block
/// relation is either strided (every block is a full, contiguous `B`-run
/// of dense ids — always the case when the source map was strided) or a
/// CSR table for ragged explicit groupings.
#[derive(Clone, Debug)]
pub struct DenseMap {
    layout: DenseLayout,
    n_items: u64,
    n_blocks: u64,
    decode: DenseDecode,
    max_block_size: usize,
}

/// The way from a dense map's ids back to the original keys. Cloning is
/// cheap: every table is shared behind an [`Arc`].
///
/// Blocks decode through a table of original block ids. A strided map
/// keeps no per-item table: its blocks are whole `B`-runs of the original
/// key space, so dense item `i` decodes arithmetically to
/// `blocks[i / B] * B + i % B`. A CSR map keeps one original id per item.
/// A part of a [`DensePartition`] shares its source's tables and keeps
/// only a translation into the source's ids: 4 bytes per block, plus
/// 4 bytes per item for a CSR part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseDecode {
    /// Original block id of every block the tables are indexed by.
    blocks: Arc<Vec<u64>>,
    /// This map's block id → its index into `blocks`; `None` when the
    /// map's own ids index the table (a compiled map, not a part).
    block_source: Option<Arc<Vec<u32>>>,
    items: ItemDecode,
}

/// How [`DenseDecode`] finds an item's original id.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ItemDecode {
    /// Offset `i % B` of the original block of `i / B`: no table.
    Strided { block_size: u64 },
    /// Original item id of every item the table is indexed by, reached
    /// through `item_source` (this map's item → table index) for a part.
    Table {
        items: Arc<Vec<u64>>,
        item_source: Option<Arc<Vec<u32>>>,
    },
}

impl DenseDecode {
    /// The original sparse id of dense item `item`.
    ///
    /// # Panics
    /// Panics if `item` is outside the dense universe.
    #[inline]
    pub fn item(&self, item: ItemId) -> ItemId {
        match &self.items {
            ItemDecode::Strided { block_size } => {
                let block = stride_block(item, *block_size);
                let offset = item.0 - block.0 * block_size;
                ItemId(self.block(block).0 * block_size + offset)
            }
            ItemDecode::Table { items, item_source } => {
                let at = match item_source {
                    Some(source) => u64::from(source[item.0 as usize]),
                    None => item.0,
                };
                ItemId(items[at as usize])
            }
        }
    }

    /// The original sparse id of dense block `block`.
    ///
    /// # Panics
    /// Panics if `block` is outside the dense universe.
    #[inline]
    pub fn block(&self, block: BlockId) -> BlockId {
        BlockId(self.blocks[self.block_at(block.0)])
    }

    /// The index of this map's block `block` into the block table.
    #[inline]
    fn block_at(&self, block: u64) -> usize {
        match &self.block_source {
            Some(source) => source[block as usize] as usize,
            None => block as usize,
        }
    }
}

#[derive(Clone, Debug)]
enum DenseLayout {
    /// Dense item `i` → dense block `i / block_size`.
    Strided { block_size: u64 },
    /// Ragged blocks: `item_to_block` indexed by dense item id;
    /// `block_items[block_starts[b]..block_starts[b + 1]]` lists dense
    /// block `b`'s items in the source map's group order.
    Csr {
        item_to_block: Vec<u32>,
        block_starts: Vec<u32>,
        block_items: Vec<ItemId>,
    },
}

impl DenseMap {
    /// Number of dense items.
    #[inline]
    pub fn n_items(&self) -> u64 {
        self.n_items
    }

    /// Number of dense blocks.
    #[inline]
    pub fn n_blocks(&self) -> u64 {
        self.n_blocks
    }

    /// The original sparse id of dense item `item`.
    ///
    /// # Panics
    /// Panics if `item` is outside the dense universe.
    #[inline]
    pub fn decode_item(&self, item: ItemId) -> ItemId {
        self.decode.item(item)
    }

    /// The original sparse id of dense block `block`.
    ///
    /// # Panics
    /// Panics if `block` is outside the dense universe.
    #[inline]
    pub fn decode_block(&self, block: BlockId) -> BlockId {
        self.decode.block(block)
    }

    /// The dense → original id translation, cheap to clone, so sketches
    /// and samplers can hash original keys without re-owning any table.
    /// Two maps' decoders are equal when they share or equal each other's
    /// tables and translation.
    #[inline]
    pub fn decoder(&self) -> &DenseDecode {
        &self.decode
    }
}

/// A borrowed view of a dense map's universe, handed out by
/// [`BlockMap::dense_universe`] so policies and samplers can size their
/// `Vec`-backed state and decode ids for reporting.
pub type DenseUniverse = DenseMap;

/// A compiled map split block-wise into parts, each a dense map of its
/// own, built by [`BlockMap::partition_dense`].
///
/// Part `p` holds exactly the source blocks assigned to it, renumbered
/// `0..` in ascending source order, and their items renumbered `0..` in
/// ascending source order — both renamings are monotone, so
/// order-sensitive policy state behaves in a part as it does in the
/// source. A part decodes through the source's tables, which it shares,
/// composed with its renaming: it maps straight back to the original keys
/// without copying them (see [`DenseDecode`]), and every part keeps the
/// source's [`max_block_size`](BlockMap::max_block_size).
#[derive(Clone, Debug)]
pub struct DensePartition {
    /// One dense map per part, in part order.
    pub parts: Vec<BlockMap>,
    /// Source dense item id → the id the item has in its own part.
    pub local: LocalIds,
}

/// The source → part translation of a [`DensePartition`]: one table over
/// the source universe, shared by every part (each block, and so each
/// item, lives in exactly one part).
#[derive(Clone, Debug)]
pub struct LocalIds {
    layout: LocalLayout,
}

#[derive(Clone, Debug)]
enum LocalLayout {
    /// Source block → its block id in its part; an item keeps its offset.
    Strided {
        block_size: u64,
        block_local: Vec<u32>,
    },
    /// Source item → its item id in its part.
    Csr { item_local: Vec<u32> },
}

impl LocalIds {
    /// The id source item `item` has in its part.
    ///
    /// # Panics
    /// Panics if `item` is outside the source universe.
    #[inline]
    pub fn item(&self, item: ItemId) -> ItemId {
        match &self.layout {
            LocalLayout::Strided {
                block_size,
                block_local,
            } => {
                let block = stride_block(item, *block_size).0;
                let base = u64::from(block_local[block as usize]) * block_size;
                ItemId(base + (item.0 - block * block_size))
            }
            LocalLayout::Csr { item_local } => ItemId(u64::from(item_local[item.0 as usize])),
        }
    }
}

impl BlockMap {
    /// The strided partition: item `i` belongs to block `i / block_size`,
    /// and every block holds exactly `block_size` consecutive items.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn strided(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        BlockMap {
            repr: Repr::Strided {
                block_size: block_size as u64,
            },
        }
    }

    /// The trivial partition where every item is its own block.
    ///
    /// Under this map the GC Caching Problem is exactly traditional caching.
    pub fn singleton() -> Self {
        Self::strided(1)
    }

    /// Build an explicit partition from disjoint groups of items.
    ///
    /// Block `j` is `groups[j]`. Returns an error if any item appears twice
    /// or any group is empty.
    pub fn from_groups(groups: Vec<Vec<ItemId>>) -> Result<Self, GcError> {
        let mut item_to_block = FxHashMap::default();
        let mut max_block_size = 0usize;
        for (j, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(GcError::EmptyBlock { block: j });
            }
            max_block_size = max_block_size.max(group.len());
            for &item in group {
                if item_to_block.insert(item, BlockId(j as u64)).is_some() {
                    return Err(GcError::DuplicateItem { item });
                }
            }
        }
        Ok(BlockMap {
            repr: Repr::Explicit(Arc::new(Explicit {
                item_to_block,
                blocks: groups,
                max_block_size,
            })),
        })
    }

    /// Build a dense strided map (compilation of a strided source): dense
    /// item `i` belongs to dense block `i / block_size`, and
    /// `block_decode` maps each dense block back to its original sparse
    /// id. Items decode arithmetically through it (see [`DenseDecode`]).
    pub(crate) fn dense_strided(block_size: u64, block_decode: Arc<Vec<u64>>) -> Self {
        debug_assert!(block_size > 0);
        BlockMap {
            repr: Repr::Dense(Arc::new(DenseMap {
                layout: DenseLayout::Strided { block_size },
                n_items: block_decode.len() as u64 * block_size,
                n_blocks: block_decode.len() as u64,
                decode: DenseDecode {
                    blocks: block_decode,
                    block_source: None,
                    items: ItemDecode::Strided { block_size },
                },
                max_block_size: block_size as usize,
            })),
        }
    }

    /// Build a dense CSR map (compilation of an explicit source).
    pub(crate) fn dense_csr(
        item_to_block: Vec<u32>,
        block_starts: Vec<u32>,
        block_items: Vec<ItemId>,
        decode: Arc<Vec<u64>>,
        block_decode: Arc<Vec<u64>>,
    ) -> Self {
        debug_assert_eq!(item_to_block.len(), decode.len());
        debug_assert_eq!(block_items.len(), decode.len());
        debug_assert_eq!(block_decode.len(), block_starts.len() - 1);
        let max_block_size = (0..block_starts.len() - 1)
            .map(|b| (block_starts[b + 1] - block_starts[b]) as usize)
            .max()
            .unwrap_or(0);
        BlockMap {
            repr: Repr::Dense(Arc::new(DenseMap {
                layout: DenseLayout::Csr {
                    item_to_block,
                    block_starts,
                    block_items,
                },
                n_items: decode.len() as u64,
                n_blocks: block_decode.len() as u64,
                decode: DenseDecode {
                    blocks: block_decode,
                    block_source: None,
                    items: ItemDecode::Table {
                        items: decode,
                        item_source: None,
                    },
                },
                max_block_size,
            })),
        }
    }

    /// The dense universe behind a compiled map, or `None` for the sparse
    /// representations. Policies use this to switch their key indices from
    /// hash maps to direct `Vec` indexing.
    #[inline]
    pub fn dense_universe(&self) -> Option<&DenseMap> {
        match &self.repr {
            Repr::Dense(d) => Some(d),
            _ => None,
        }
    }

    /// The block containing `item`, or `None` if the item is unknown to an
    /// explicit map or past the end of a compiled one. Sparse strided maps
    /// know every item.
    ///
    /// This is the one item → block lookup of the workspace, serving hot
    /// paths included: a power-of-two stride is a shift, not a division.
    #[inline]
    pub fn try_block_of(&self, item: ItemId) -> Option<BlockId> {
        match &self.repr {
            Repr::Strided { block_size } => Some(stride_block(item, *block_size)),
            Repr::Explicit(e) => e.item_to_block.get(&item).copied(),
            Repr::Dense(d) => match &d.layout {
                DenseLayout::Strided { block_size } => {
                    (item.0 < d.n_items()).then(|| stride_block(item, *block_size))
                }
                DenseLayout::Csr { item_to_block, .. } => item_to_block
                    .get(item.0 as usize)
                    .map(|&b| BlockId(u64::from(b))),
            },
        }
    }

    /// The block containing `item`.
    ///
    /// # Panics
    /// Panics if `item` is not covered by an explicit map — that means the
    /// trace and the map were built against different universes.
    #[inline]
    pub fn block_of(&self, item: ItemId) -> BlockId {
        self.try_block_of(item)
            .unwrap_or_else(|| panic!("item {item} is not in any block of this BlockMap"))
    }

    /// Iterator over the items of `block` (empty if the block is unknown).
    #[inline]
    pub fn items_of(&self, block: BlockId) -> BlockItems<'_> {
        match &self.repr {
            Repr::Strided { block_size } => {
                let start = block.0 * block_size;
                BlockItems::Strided(start..start + block_size)
            }
            Repr::Explicit(e) => match e.blocks.get(block.as_usize()) {
                Some(items) => BlockItems::Explicit(items.iter()),
                None => BlockItems::Strided(0..0),
            },
            Repr::Dense(d) => match &d.layout {
                DenseLayout::Strided { block_size } => {
                    if block.0 < d.n_blocks() {
                        let start = block.0 * block_size;
                        BlockItems::Strided(start..start + block_size)
                    } else {
                        BlockItems::Strided(0..0)
                    }
                }
                DenseLayout::Csr {
                    block_starts,
                    block_items,
                    ..
                } => {
                    let b = block.as_usize();
                    if b + 1 < block_starts.len() {
                        let range = block_starts[b] as usize..block_starts[b + 1] as usize;
                        BlockItems::Explicit(block_items[range].iter())
                    } else {
                        BlockItems::Strided(0..0)
                    }
                }
            },
        }
    }

    /// Number of items in `block` (0 if unknown).
    #[inline]
    pub fn block_len(&self, block: BlockId) -> usize {
        match &self.repr {
            Repr::Strided { block_size } => *block_size as usize,
            Repr::Explicit(e) => e.blocks.get(block.as_usize()).map_or(0, Vec::len),
            Repr::Dense(_) => self.items_of(block).len(),
        }
    }

    /// The maximum block size `B` of the partition.
    #[inline]
    pub fn max_block_size(&self) -> usize {
        match &self.repr {
            Repr::Strided { block_size } => *block_size as usize,
            Repr::Explicit(e) => e.max_block_size,
            Repr::Dense(d) => d.max_block_size,
        }
    }

    /// Whether two items belong to the same block.
    #[inline]
    pub fn same_block(&self, a: ItemId, b: ItemId) -> bool {
        self.try_block_of(a).is_some() && self.try_block_of(a) == self.try_block_of(b)
    }

    /// Number of blocks in an explicit map; `None` for strided maps (whose
    /// universe is unbounded).
    pub fn num_blocks(&self) -> Option<usize> {
        match &self.repr {
            Repr::Strided { .. } => None,
            Repr::Explicit(e) => Some(e.blocks.len()),
            Repr::Dense(d) => Some(d.n_blocks() as usize),
        }
    }

    /// Whether this is the trivial single-item-per-block partition.
    pub fn is_traditional(&self) -> bool {
        self.max_block_size() == 1
    }

    /// The stride of a strided partition (`None` for explicit maps).
    ///
    /// A compiled strided map is bounded even though it has a stride: look
    /// items up with [`try_block_of`](Self::try_block_of), which checks the
    /// end of the universe and already shifts for power-of-two strides,
    /// rather than dividing by the stride yourself.
    #[inline]
    pub fn stride(&self) -> Option<u64> {
        match &self.repr {
            Repr::Strided { block_size } => Some(*block_size),
            Repr::Explicit(_) => None,
            Repr::Dense(d) => match &d.layout {
                DenseLayout::Strided { block_size } => Some(*block_size),
                DenseLayout::Csr { .. } => None,
            },
        }
    }

    /// Split a compiled map into `parts` dense maps, block `b` going to
    /// part `part_of(b)`, plus the translation of every source item into
    /// its part (see [`DensePartition`]). Each part's state then scales
    /// with its own blocks, not the whole universe. `None` for the sparse
    /// representations, whose hash-backed state already does.
    ///
    /// # Panics
    /// Panics if `part_of` returns a part `>= parts`.
    pub fn partition_dense(
        &self,
        parts: usize,
        part_of: impl Fn(BlockId) -> usize,
    ) -> Option<DensePartition> {
        let d = self.dense_universe()?;
        let n_blocks = d.n_blocks() as usize;
        // Each block's part and its rank there; ascending source order
        // makes the block renaming monotone.
        let mut block_part = Vec::with_capacity(n_blocks);
        let mut block_local = Vec::with_capacity(n_blocks);
        let mut block_source: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for b in 0..n_blocks {
            let p = part_of(BlockId(b as u64));
            assert!(p < parts, "block {b} sent to part {p} of {parts}");
            block_part.push(p);
            block_local.push(block_source[p].len() as u32);
            block_source[p].push(b as u32);
        }
        // A part's ids index the source's decode tables through its
        // translation, so the translation composes with the source's.
        let block_source: Vec<Arc<Vec<u32>>> = block_source
            .into_iter()
            .map(|blocks| {
                let at = |b: u32| d.decode.block_at(u64::from(b)) as u32;
                Arc::new(blocks.into_iter().map(at).collect())
            })
            .collect();
        let (layouts, item_decodes, local): (Vec<_>, Vec<_>, LocalLayout) = match &d.layout {
            DenseLayout::Strided { block_size } => {
                let layouts = (0..parts)
                    .map(|_| DenseLayout::Strided {
                        block_size: *block_size,
                    })
                    .collect();
                let item_decodes = (0..parts)
                    .map(|_| ItemDecode::Strided {
                        block_size: *block_size,
                    })
                    .collect();
                let local = LocalLayout::Strided {
                    block_size: *block_size,
                    block_local,
                };
                (layouts, item_decodes, local)
            }
            DenseLayout::Csr {
                item_to_block,
                block_starts,
                block_items,
            } => {
                let ItemDecode::Table {
                    items: table,
                    item_source: source_items,
                } = &d.decode.items
                else {
                    unreachable!("a CSR map decodes items through a table")
                };
                let item_at = |z: usize| match source_items {
                    Some(source) => source[z],
                    None => z as u32,
                };
                // Items in ascending source order: a monotone renaming.
                let mut item_local = Vec::with_capacity(item_to_block.len());
                let mut item_source: Vec<Vec<u32>> = vec![Vec::new(); parts];
                let mut local_item_to_block: Vec<Vec<u32>> = vec![Vec::new(); parts];
                for (z, &b) in item_to_block.iter().enumerate() {
                    let p = block_part[b as usize];
                    item_local.push(item_source[p].len() as u32);
                    item_source[p].push(item_at(z));
                    local_item_to_block[p].push(block_local[b as usize]);
                }
                // Each part's blocks list their items in the source
                // group order, renamed.
                let mut starts: Vec<Vec<u32>> = vec![Vec::new(); parts];
                let mut items: Vec<Vec<ItemId>> = vec![Vec::new(); parts];
                for (b, &p) in block_part.iter().enumerate() {
                    starts[p].push(items[p].len() as u32);
                    let range = block_starts[b] as usize..block_starts[b + 1] as usize;
                    items[p].extend(
                        block_items[range]
                            .iter()
                            .map(|z| ItemId(u64::from(item_local[z.0 as usize]))),
                    );
                }
                let item_decodes = item_source
                    .into_iter()
                    .map(|item_source| ItemDecode::Table {
                        items: Arc::clone(table),
                        item_source: Some(Arc::new(item_source)),
                    })
                    .collect();
                let layouts = local_item_to_block
                    .into_iter()
                    .zip(starts)
                    .zip(items)
                    .map(|((item_to_block, mut block_starts), block_items)| {
                        block_starts.push(block_items.len() as u32);
                        DenseLayout::Csr {
                            item_to_block,
                            block_starts,
                            block_items,
                        }
                    })
                    .collect();
                (layouts, item_decodes, LocalLayout::Csr { item_local })
            }
        };
        let parts = layouts
            .into_iter()
            .zip(item_decodes)
            .zip(block_source)
            .map(|((layout, items), block_source)| BlockMap {
                repr: Repr::Dense(Arc::new(DenseMap {
                    n_items: match &layout {
                        DenseLayout::Strided { block_size } => {
                            block_source.len() as u64 * block_size
                        }
                        DenseLayout::Csr { item_to_block, .. } => item_to_block.len() as u64,
                    },
                    n_blocks: block_source.len() as u64,
                    layout,
                    decode: DenseDecode {
                        blocks: Arc::clone(&d.decode.blocks),
                        block_source: Some(block_source),
                        items,
                    },
                    max_block_size: d.max_block_size,
                })),
            })
            .collect();
        Some(DensePartition {
            parts,
            local: LocalIds { layout: local },
        })
    }
}

/// `item / stride`, as a shift when the stride is a power of two — on a
/// serving hot path the division is a measurable share of a request.
#[inline]
fn stride_block(item: ItemId, stride: u64) -> BlockId {
    if stride.is_power_of_two() {
        BlockId(item.0 >> stride.trailing_zeros())
    } else {
        BlockId(item.0 / stride)
    }
}

/// `{"strided": <B>}` or `{"groups": [[<item id>, ...], ...]}`. A
/// compiled (dense) map is written as the partition of its dense ids; the
/// decode tables are derived data and are not persisted.
impl ToJson for BlockMap {
    fn to_json(&self) -> Json {
        if let Some(stride) = self.stride() {
            return Json::object([("strided", stride.to_json())]);
        }
        let n_blocks = self.num_blocks().expect("only strided maps are unbounded");
        let groups: Vec<Vec<ItemId>> = (0..n_blocks as u64)
            .map(|b| self.items_of(BlockId(b)).collect())
            .collect();
        Json::object([("groups", groups.to_json())])
    }
}

/// Rebuilds the map through [`BlockMap::strided`] / [`BlockMap::from_groups`],
/// so a file is validated, not trusted: a zero stride, an empty group or an
/// item listed in two blocks is an error.
impl FromJson for BlockMap {
    fn from_json(v: &Json) -> Result<BlockMap, GcError> {
        match v.variant()? {
            ("strided", b) => match usize::from_json(b)? {
                0 => Err(b.error("block size must be positive")),
                block_size => Ok(BlockMap::strided(block_size)),
            },
            ("groups", groups) => BlockMap::from_groups(Vec::from_json(groups)?),
            (other, payload) => Err(payload.error(format!(
                "unknown block map kind `{other}` (expected `strided` or `groups`)"
            ))),
        }
    }
}

/// Iterator over the items of one block. See [`BlockMap::items_of`].
#[derive(Clone, Debug)]
pub enum BlockItems<'a> {
    /// Items of a strided block: a contiguous id range.
    Strided(Range<u64>),
    /// Items of an explicit block.
    Explicit(std::slice::Iter<'a, ItemId>),
}

impl Iterator for BlockItems<'_> {
    type Item = ItemId;

    #[inline]
    fn next(&mut self) -> Option<ItemId> {
        match self {
            BlockItems::Strided(r) => r.next().map(ItemId),
            BlockItems::Explicit(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            BlockItems::Strided(r) => r.size_hint(),
            BlockItems::Explicit(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for BlockItems<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_maps_items_to_blocks() {
        let m = BlockMap::strided(4);
        assert_eq!(m.block_of(ItemId(0)), BlockId(0));
        assert_eq!(m.block_of(ItemId(3)), BlockId(0));
        assert_eq!(m.block_of(ItemId(4)), BlockId(1));
        assert_eq!(m.max_block_size(), 4);
        assert_eq!(m.block_len(BlockId(9)), 4);
        assert!(m.num_blocks().is_none());
    }

    #[test]
    fn strided_lookup_is_item_over_stride_for_any_stride() {
        for stride in [1u64, 4, 6, 8, 64] {
            let m = BlockMap::strided(stride as usize);
            for id in (0..1_000u64).chain([u64::MAX - 1, u64::MAX]) {
                assert_eq!(
                    m.block_of(ItemId(id)),
                    BlockId(id / stride),
                    "stride {stride}"
                );
            }
        }
    }

    #[test]
    fn compiled_strided_lookup_stops_at_the_end_of_the_universe() {
        for stride in [4u64, 6] {
            let m = BlockMap::dense_strided(stride, Arc::new(vec![0, 1, 2]));
            assert_eq!(m.try_block_of(ItemId(3 * stride - 1)), Some(BlockId(2)));
            assert_eq!(m.try_block_of(ItemId(3 * stride)), None);
            assert_eq!(m.try_block_of(ItemId(1_000_000)), None);
        }
    }

    #[test]
    fn strided_block_items_are_contiguous() {
        let m = BlockMap::strided(3);
        let items: Vec<_> = m.items_of(BlockId(2)).collect();
        assert_eq!(items, vec![ItemId(6), ItemId(7), ItemId(8)]);
        assert_eq!(m.items_of(BlockId(2)).len(), 3);
    }

    #[test]
    fn singleton_is_traditional() {
        let m = BlockMap::singleton();
        assert!(m.is_traditional());
        assert_eq!(m.block_of(ItemId(17)), BlockId(17));
        assert_eq!(
            m.items_of(BlockId(17)).collect::<Vec<_>>(),
            vec![ItemId(17)]
        );
    }

    #[test]
    fn explicit_groups() {
        let m = BlockMap::from_groups(vec![
            vec![ItemId(10), ItemId(20)],
            vec![ItemId(30)],
            vec![ItemId(1), ItemId(2), ItemId(3)],
        ])
        .unwrap();
        assert_eq!(m.block_of(ItemId(20)), BlockId(0));
        assert_eq!(m.block_of(ItemId(30)), BlockId(1));
        assert_eq!(m.block_of(ItemId(2)), BlockId(2));
        assert_eq!(m.max_block_size(), 3);
        assert_eq!(m.num_blocks(), Some(3));
        assert_eq!(m.block_len(BlockId(0)), 2);
        assert!(m.same_block(ItemId(10), ItemId(20)));
        assert!(!m.same_block(ItemId(10), ItemId(30)));
        assert_eq!(m.try_block_of(ItemId(999)), None);
    }

    #[test]
    fn explicit_rejects_duplicates() {
        let err = BlockMap::from_groups(vec![vec![ItemId(1)], vec![ItemId(1)]]).unwrap_err();
        assert!(matches!(err, GcError::DuplicateItem { item } if item == ItemId(1)));
    }

    #[test]
    fn explicit_rejects_empty_blocks() {
        let err = BlockMap::from_groups(vec![vec![ItemId(1)], vec![]]).unwrap_err();
        assert!(matches!(err, GcError::EmptyBlock { block: 1 }));
    }

    #[test]
    #[should_panic(expected = "not in any block")]
    fn block_of_panics_on_unknown_item() {
        let m = BlockMap::from_groups(vec![vec![ItemId(1)]]).unwrap();
        let _ = m.block_of(ItemId(2));
    }

    #[test]
    fn unknown_block_is_empty_in_explicit_map() {
        let m = BlockMap::from_groups(vec![vec![ItemId(1)]]).unwrap();
        assert_eq!(m.items_of(BlockId(5)).count(), 0);
        assert_eq!(m.block_len(BlockId(5)), 0);
    }

    #[test]
    fn same_block_is_false_for_unknown_items() {
        let m = BlockMap::from_groups(vec![vec![ItemId(1), ItemId(2)]]).unwrap();
        assert!(!m.same_block(ItemId(99), ItemId(98)));
        assert!(!m.same_block(ItemId(1), ItemId(99)));
    }

    #[test]
    fn clone_is_cheap_and_shares_explicit_repr() {
        let m = BlockMap::from_groups(vec![vec![ItemId(1), ItemId(2)]]).unwrap();
        let m2 = m.clone();
        assert_eq!(m2.block_of(ItemId(2)), BlockId(0));
    }

    /// Check a partition of `source` against its contract: every block and
    /// item lands in exactly one part, the renamings are monotone and
    /// bijective per part, group order survives, and decode tables compose.
    fn check_partition(source: &BlockMap, parts: usize, part_of: impl Fn(BlockId) -> usize) {
        let d = source.dense_universe().unwrap();
        let split = source.partition_dense(parts, &part_of).unwrap();
        assert_eq!(split.parts.len(), parts);
        let (mut items, mut blocks) = (0, 0);
        for part in &split.parts {
            let pd = part.dense_universe().unwrap();
            items += pd.n_items();
            blocks += pd.n_blocks();
            assert_eq!(part.max_block_size(), source.max_block_size());
            assert_eq!(part.stride(), source.stride());
            // A part decodes through its source's tables, never a copy.
            assert!(Arc::ptr_eq(&pd.decode.blocks, &d.decode.blocks));
            match (&pd.decode.items, &d.decode.items) {
                (ItemDecode::Table { items: a, .. }, ItemDecode::Table { items: b, .. }) => {
                    assert!(Arc::ptr_eq(a, b))
                }
                (ItemDecode::Strided { .. }, ItemDecode::Strided { .. }) => {}
                other => panic!("part and source decode items differently: {other:?}"),
            }
        }
        assert_eq!((items, blocks), (d.n_items(), d.n_blocks()));
        let mut seen: Vec<Vec<bool>> = split
            .parts
            .iter()
            .map(|m| vec![false; m.dense_universe().unwrap().n_items() as usize])
            .collect();
        let mut last: Vec<Option<u64>> = vec![None; parts];
        for g in (0..d.n_items()).map(ItemId) {
            let block = source.block_of(g);
            let p = part_of(block);
            let local = split.local.item(g);
            let part = &split.parts[p];
            let pd = part.dense_universe().unwrap();
            assert!(!std::mem::replace(&mut seen[p][local.0 as usize], true));
            assert!(
                last[p].map_or(true, |prev| prev < local.0),
                "monotone items"
            );
            last[p] = Some(local.0);
            assert_eq!(pd.decode_item(local), d.decode_item(g));
            let local_block = part.block_of(local);
            assert_eq!(pd.decode_block(local_block), d.decode_block(block));
            let renamed: Vec<ItemId> = source
                .items_of(block)
                .map(|z| split.local.item(z))
                .collect();
            assert_eq!(part.items_of(local_block).collect::<Vec<_>>(), renamed);
        }
        assert!(seen.iter().flatten().all(|&s| s), "every local id used");
    }

    #[test]
    fn partition_of_a_strided_map_is_a_monotone_split() {
        for stride in [4u64, 6] {
            let trace = crate::Trace::from_ids((0..40u64).map(|b| b * 977 * stride + b % stride));
            let compiled =
                crate::CompiledTrace::compile(&trace, &BlockMap::strided(stride as usize)).unwrap();
            for parts in [1usize, 3, 8] {
                check_partition(compiled.map(), parts, |b| {
                    (crate::mix64(b.0) % parts as u64) as usize
                });
            }
            // A part with no blocks is an empty universe, not an error.
            check_partition(compiled.map(), 2, |_| 1);
            // A part partitions again, decoding through the root tables.
            let part = &compiled
                .map()
                .partition_dense(2, |b| (b.0 % 2) as usize)
                .unwrap()
                .parts[1];
            check_partition(part, 3, |b| (crate::mix64(b.0) % 3) as usize);
        }
    }

    /// The per-item decode table a strided compilation used to keep:
    /// every touched source block's `B`-run, in ascending block order.
    fn reference_item_table(trace: &crate::Trace, stride: u64) -> Vec<u64> {
        let mut blocks: Vec<u64> = trace.iter().map(|z| z.0 / stride).collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
            .iter()
            .flat_map(|&b| b * stride..(b + 1) * stride)
            .collect()
    }

    /// `map`'s item decode agrees with `table` on its whole universe.
    fn assert_decodes_like(map: &BlockMap, table: &[u64]) {
        let d = map.dense_universe().unwrap();
        assert!(matches!(d.decode.items, ItemDecode::Strided { .. }));
        assert_eq!(d.n_items(), table.len() as u64);
        for (i, &want) in table.iter().enumerate() {
            assert_eq!(d.decode_item(ItemId(i as u64)), ItemId(want), "item {i}");
        }
    }

    #[test]
    fn strided_decode_matches_a_per_item_table() {
        for stride in [1u64, 4, 6, 16] {
            let trace = crate::Trace::from_ids(
                (0..60u64).map(|j| (j * 7_919 + j % 3) * stride + j % stride),
            );
            let table = reference_item_table(&trace, stride);
            // A compiled strided map.
            let ct =
                crate::CompiledTrace::compile(&trace, &BlockMap::strided(stride as usize)).unwrap();
            assert_decodes_like(ct.map(), &table);
            // The same map compiled again, through a trace that touches
            // only some of its blocks: the table restricted to them.
            let dense = crate::Trace::from_requests(ct.iter_items().step_by(3).collect());
            let ct2 = crate::CompiledTrace::compile(&dense, ct.map()).unwrap();
            let table2: Vec<u64> = reference_item_table(&dense, stride)
                .iter()
                .map(|&z| table[z as usize])
                .collect();
            assert_decodes_like(ct2.map(), &table2);
            // A partition of a partition: each part's table is the
            // source's, permuted through the local renaming.
            let split = ct.map().partition_dense(2, |b| (b.0 % 2) as usize).unwrap();
            for (p, part) in split.parts.iter().enumerate() {
                let n = part.dense_universe().unwrap().n_items() as usize;
                let mut part_table = vec![u64::MAX; n];
                for g in 0..table.len() as u64 {
                    if (ct.map().block_of(ItemId(g)).0 % 2) as usize == p {
                        part_table[split.local.item(ItemId(g)).0 as usize] = table[g as usize];
                    }
                }
                let inner = part
                    .partition_dense(3, |b| (crate::mix64(b.0) % 3) as usize)
                    .unwrap();
                for (q, inner_part) in inner.parts.iter().enumerate() {
                    let n = inner_part.dense_universe().unwrap().n_items() as usize;
                    let mut inner_table = vec![u64::MAX; n];
                    for g in 0..part_table.len() as u64 {
                        let block = part.block_of(ItemId(g));
                        if (crate::mix64(block.0) % 3) as usize == q {
                            inner_table[inner.local.item(ItemId(g)).0 as usize] =
                                part_table[g as usize];
                        }
                    }
                    assert_decodes_like(inner_part, &inner_table);
                }
            }
        }
    }

    #[test]
    fn partition_of_a_csr_map_keeps_group_order() {
        // Ragged groups listed out of id order, interleaved across blocks.
        let groups: Vec<Vec<ItemId>> = (0..30u64)
            .map(|b| {
                (0..1 + b % 5)
                    .rev()
                    .map(|i| ItemId(i * 1_000 + b))
                    .collect()
            })
            .collect();
        let map = BlockMap::from_groups(groups).unwrap();
        let trace = crate::Trace::from_ids((0..30u64).map(|b| b * 7 % 30));
        let compiled = crate::CompiledTrace::compile(&trace, &map).unwrap();
        assert_eq!(compiled.map().stride(), None);
        for parts in [1usize, 3, 8] {
            check_partition(compiled.map(), parts, |b| {
                (crate::mix64(b.0) % parts as u64) as usize
            });
        }
        let part = &compiled
            .map()
            .partition_dense(2, |b| (b.0 % 2) as usize)
            .unwrap()
            .parts[0];
        check_partition(part, 3, |b| (crate::mix64(b.0) % 3) as usize);
    }

    #[test]
    fn sparse_maps_do_not_partition() {
        assert!(BlockMap::strided(4).partition_dense(2, |_| 0).is_none());
        let m = BlockMap::from_groups(vec![vec![ItemId(1)]]).unwrap();
        assert!(m.partition_dense(2, |_| 0).is_none());
    }

    fn roundtrip(m: &BlockMap) -> (String, BlockMap) {
        let json = m.to_json().to_string();
        let back = BlockMap::from_json(&Json::parse(&json).unwrap()).unwrap();
        (json, back)
    }

    #[test]
    fn json_roundtrip_strided() {
        let (json, back) = roundtrip(&BlockMap::strided(8));
        assert_eq!(json, "{\"strided\":8}");
        assert_eq!(back.block_of(ItemId(9)), BlockId(1));
        assert_eq!(back.max_block_size(), 8);
    }

    #[test]
    fn json_roundtrip_explicit() {
        let m = BlockMap::from_groups(vec![vec![ItemId(5), ItemId(6)], vec![ItemId(7)]]).unwrap();
        let (json, back) = roundtrip(&m);
        assert_eq!(json, "{\"groups\":[[5,6],[7]]}");
        assert_eq!(back.block_of(ItemId(6)), BlockId(0));
        assert_eq!(back.block_of(ItemId(7)), BlockId(1));
        assert_eq!(back.max_block_size(), 2);
    }
}
