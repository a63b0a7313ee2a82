//! Strongly typed identifiers for items and blocks.
//!
//! The GC Caching model has two data granularities: *items* (the cache's own
//! granularity, e.g. a 64 B line) and *blocks* (the granularity of the level
//! below, e.g. a 4 KB page). Mixing the two up is the classic bug in
//! granularity-change code, so both get a newtype.

use crate::json::{FromJson, Json, ToJson};
use crate::GcError;
use std::fmt;

/// Identifier of a single cacheable item (the small granularity).
///
/// Items have unit size and are the unit of caching and eviction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemId(pub u64);

/// Identifier of a block (the large granularity of the level below).
///
/// A block groups up to `B` items; on a miss, any subset of the missing
/// item's block may be loaded for a single unit of cost.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

impl ItemId {
    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the raw index as a `usize` (panics on 32-bit overflow).
    #[inline]
    pub fn as_usize(self) -> usize {
        usize::try_from(self.0).expect("ItemId exceeds usize")
    }
}

impl BlockId {
    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the raw index as a `usize` (panics on 32-bit overflow).
    #[inline]
    pub fn as_usize(self) -> usize {
        usize::try_from(self.0).expect("BlockId exceeds usize")
    }
}

impl From<u64> for ItemId {
    #[inline]
    fn from(v: u64) -> Self {
        ItemId(v)
    }
}

impl From<u64> for BlockId {
    #[inline]
    fn from(v: u64) -> Self {
        BlockId(v)
    }
}

/// Item ids are written as bare integers. (Block ids appear in no file:
/// a block is its position in a `BlockMap`'s group list.)
impl ToJson for ItemId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for ItemId {
    fn from_json(v: &Json) -> Result<ItemId, GcError> {
        u64::from_json(v).map(ItemId)
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_roundtrip() {
        let id = ItemId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.as_usize(), 42);
        assert_eq!(ItemId::from(42u64), id);
    }

    #[test]
    fn block_id_roundtrip() {
        let id = BlockId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_usize(), 7);
        assert_eq!(BlockId::from(7u64), id);
    }

    #[test]
    fn display_forms_are_distinct() {
        assert_eq!(ItemId(3).to_string(), "i3");
        assert_eq!(BlockId(3).to_string(), "b3");
        assert_eq!(format!("{:?}", ItemId(3)), "i3");
        assert_eq!(format!("{:?}", BlockId(3)), "b3");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(ItemId(1) < ItemId(2));
        assert!(BlockId(9) > BlockId(8));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ItemId::default(), ItemId(0));
        assert_eq!(BlockId::default(), BlockId(0));
    }
}
