//! Request traces.
//!
//! A [`Trace`] is a finite sequence of item requests (`σ` in the paper),
//! optionally tagged with a human-readable name. Traces are plain data —
//! generation lives in `gc-trace`, execution in `gc-sim`.

use crate::{BlockMap, FxHashSet, ItemId};

/// A finite sequence of item requests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Optional label, used in reports and file headers.
    pub name: String,
    requests: Vec<ItemId>,
}

impl Trace {
    /// An empty, unnamed trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build a trace from raw requests.
    pub fn from_requests(requests: Vec<ItemId>) -> Self {
        Trace {
            name: String::new(),
            requests,
        }
    }

    /// Build a trace from raw `u64` ids (test/demo convenience).
    pub fn from_ids<I: IntoIterator<Item = u64>>(ids: I) -> Self {
        Trace::from_requests(ids.into_iter().map(ItemId).collect())
    }

    /// Attach a name (builder style).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Append one request.
    #[inline]
    pub fn push(&mut self, item: ItemId) {
        self.requests.push(item);
    }

    /// Append all requests of another trace.
    pub fn extend_from(&mut self, other: &Trace) {
        self.requests.extend_from_slice(&other.requests);
    }

    /// The request sequence.
    #[inline]
    pub fn requests(&self) -> &[ItemId] {
        &self.requests
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace has no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterate over the requests.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.requests.iter().copied()
    }

    /// Number of distinct items in the trace.
    pub fn distinct_items(&self) -> usize {
        let mut seen: FxHashSet<ItemId> = FxHashSet::default();
        seen.extend(self.requests.iter().copied());
        seen.len()
    }

    /// Number of distinct blocks touched under `map`.
    pub fn distinct_blocks(&self, map: &BlockMap) -> usize {
        let mut seen = FxHashSet::default();
        for &item in &self.requests {
            seen.insert(map.block_of(item));
        }
        seen.len()
    }

    /// Reserve capacity for `n` more requests.
    pub fn reserve(&mut self, n: usize) {
        self.requests.reserve(n);
    }

    /// Consume the trace, returning the raw request vector.
    pub fn into_requests(self) -> Vec<ItemId> {
        self.requests
    }
}

// `{"name": <string>, "requests": [<item id>, ...]}`.
crate::json_record!(Trace { name, requests });

impl FromIterator<ItemId> for Trace {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        Trace::from_requests(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = ItemId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ItemId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut t = Trace::new().named("demo");
        assert!(t.is_empty());
        t.push(ItemId(1));
        t.push(ItemId(2));
        t.push(ItemId(1));
        assert_eq!(t.len(), 3);
        assert_eq!(t.name, "demo");
        assert_eq!(t.requests(), &[ItemId(1), ItemId(2), ItemId(1)]);
        assert_eq!(t.distinct_items(), 2);
    }

    #[test]
    fn from_ids_and_iter() {
        let t = Trace::from_ids([3, 1, 4, 1, 5]);
        assert_eq!(t.len(), 5);
        let collected: Vec<_> = t.iter().collect();
        assert_eq!(collected[0], ItemId(3));
        let t2: Trace = t.iter().collect();
        assert_eq!(t2.requests(), t.requests());
    }

    #[test]
    fn distinct_blocks_respects_map() {
        let t = Trace::from_ids([0, 1, 2, 3, 8]);
        let map = BlockMap::strided(4);
        // items 0-3 in block 0, item 8 in block 2.
        assert_eq!(t.distinct_blocks(&map), 2);
        assert_eq!(t.distinct_items(), 5);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Trace::from_ids([1, 2]);
        let b = Trace::from_ids([3]);
        a.extend_from(&b);
        assert_eq!(a.requests(), &[ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn into_requests_roundtrip() {
        let t = Trace::from_ids([9, 8]);
        assert_eq!(t.into_requests(), vec![ItemId(9), ItemId(8)]);
    }

    #[test]
    fn json_roundtrip() {
        use crate::json::{FromJson, Json, ToJson};
        let t = Trace::from_ids([1, 2, u64::MAX]).named("x");
        let json = t.to_json().to_string();
        assert_eq!(
            json,
            "{\"name\":\"x\",\"requests\":[1,2,18446744073709551615]}"
        );
        assert_eq!(Trace::from_json(&Json::parse(&json).unwrap()).unwrap(), t);
    }

    #[test]
    fn ref_into_iterator() {
        let t = Trace::from_ids([1, 2]);
        let mut sum = 0;
        for item in &t {
            sum += item.index();
        }
        assert_eq!(sum, 3);
    }
}
