//! Multi-level segment trie over ranges (the "Segment trie" of the paper's
//! previous-work comparison, Table I Options 1/2).
//!
//! A k-level trie over the 16-bit port space. A range is inserted by
//! canonical decomposition: every maximal trie cell fully covered by the
//! range receives the range's label, so a lookup only walks root→leaf and
//! concatenates the label lists it passes. That is the shared stride trie
//! of `trie.rs` as it stands — the same structure as under
//! [`crate::MultiBitTrie`], which reaches it through a prefix — so all
//! this front end adds is the [`PortRange`] as the key range and the
//! 16-bit geometries of the two Table I options.

use crate::engine::{EngineError, FieldEngine, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::LabelStore;
use crate::trie::{Geometry, StrideTrie};
use spc_types::{DimValue, PortRange};

/// Geometry of a [`SegmentTrie`]: per-level strides over the 16-bit port
/// space and provisioned node capacity per level, with 7-bit label-list
/// pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegTrieConfig(Geometry);

impl SegTrieConfig {
    /// Validated constructor (see [`crate::MbtConfig::new`] for the rules).
    ///
    /// # Panics
    ///
    /// Panics if strides don't sum to 16 or capacities mismatch.
    pub fn new(strides: Vec<u8>, level_nodes: Vec<usize>) -> Self {
        SegTrieConfig(Geometry::new(16, strides, level_nodes, 7))
    }

    /// The 4-level segment trie of Table I Option 1 (4-bit strides).
    pub fn four_level(per_level_nodes: usize) -> Self {
        SegTrieConfig::new(
            vec![4, 4, 4, 4],
            vec![1, 16, per_level_nodes, per_level_nodes],
        )
    }

    /// The 5-level segment trie of Table I Option 2.
    pub fn five_level(per_level_nodes: usize) -> Self {
        SegTrieConfig::new(
            vec![4, 3, 3, 3, 3],
            vec![1, 16, per_level_nodes, per_level_nodes, per_level_nodes],
        )
    }
}

/// The segment-trie engine for port ranges.
///
/// ```
/// use spc_lookup::{SegmentTrie, SegTrieConfig, LabelStore, LabelEntry, LabelList, Label, FieldEngine};
/// use spc_types::{DimValue, PortRange, Priority};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = LabelStore::new("dst_port", 4096, 7);
/// let mut st = SegmentTrie::new(SegTrieConfig::four_level(64));
/// st.insert(
///     &mut store,
///     DimValue::Port(PortRange::new(1024, 2047)?),
///     LabelEntry::by_priority(Label(1), Priority(0)),
/// )?;
/// let mut labels = LabelList::new();
/// st.lookup_into(&store, 1500, &mut labels)?;
/// assert!(labels.contains(Label(1)));
/// st.lookup_into(&store, 2048, &mut labels)?;
/// assert!(labels.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SegmentTrie {
    trie: StrideTrie,
}

fn key_range(range: PortRange) -> (u32, u32) {
    (u32::from(range.lo()), u32::from(range.hi()))
}

impl SegmentTrie {
    /// Creates an empty trie (root pre-allocated).
    pub fn new(config: SegTrieConfig) -> Self {
        SegmentTrie {
            trie: StrideTrie::new("segtrie", config.0),
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.trie.num_levels()
    }

    /// Fixed pipeline latency: node + list read per level.
    pub fn latency_cycles(&self) -> u32 {
        self.trie.latency_cycles()
    }

    /// Inserts a port range with the given label entry.
    ///
    /// # Errors
    ///
    /// [`EngineError::Capacity`] when a level block or the store is full.
    pub fn insert_range(
        &mut self,
        store: &mut LabelStore,
        range: PortRange,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        self.trie.insert(store, key_range(range), entry)
    }

    /// Removes a port range / label binding. Allocates nothing: a range
    /// that was never inserted leaves the trie as it was.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotFound`] when nothing was removed.
    pub fn remove_range(
        &mut self,
        store: &mut LabelStore,
        range: PortRange,
        label: Label,
    ) -> Result<(), EngineError> {
        self.trie.remove(store, key_range(range), label)
    }
}

impl FieldEngine for SegmentTrie {
    fn insert(
        &mut self,
        store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        let DimValue::Port(range) = value else {
            return Err(EngineError::ValueKind { expected: "Port" });
        };
        self.insert_range(store, range, entry)
    }

    fn remove(
        &mut self,
        store: &mut LabelStore,
        value: DimValue,
        label: Label,
    ) -> Result<(), EngineError> {
        let DimValue::Port(range) = value else {
            return Err(EngineError::ValueKind { expected: "Port" });
        };
        self.remove_range(store, range, label)
    }

    fn lookup_into(
        &self,
        store: &LabelStore,
        query: u16,
        out: &mut LabelList,
    ) -> Result<LookupCost, EngineError> {
        Ok(self.trie.lookup(store, u32::from(query), None, out))
    }

    fn provisioned_bits(&self) -> u64 {
        self.trie.provisioned_bits()
    }

    fn used_bits(&self) -> u64 {
        self.trie.used_bits()
    }

    fn writes(&self) -> u64 {
        self.trie.writes()
    }

    fn is_pipelined(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::lookup;
    use spc_types::Priority;

    fn store() -> LabelStore {
        LabelStore::new("ports", 8192, 7)
    }

    fn entry(id: u16, p: u32) -> LabelEntry {
        LabelEntry::by_priority(Label(id), Priority(p))
    }

    #[test]
    fn exact_port() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(64));
        t.insert_range(&mut s, PortRange::exact(80), entry(1, 0))
            .unwrap();
        assert!(lookup(&t, &s, 80).unwrap().0.contains(Label(1)));
        assert!(lookup(&t, &s, 81).unwrap().0.is_empty());
        assert!(lookup(&t, &s, 79).unwrap().0.is_empty());
    }

    #[test]
    fn unaligned_range_boundaries() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(128));
        t.insert_range(&mut s, PortRange::new(100, 9999).unwrap(), entry(2, 0))
            .unwrap();
        for q in [100u16, 101, 5000, 9998, 9999] {
            assert!(lookup(&t, &s, q).unwrap().0.contains(Label(2)), "q={q}");
        }
        for q in [99u16, 10000, 0, 65535] {
            assert!(!lookup(&t, &s, q).unwrap().0.contains(Label(2)), "q={q}");
        }
    }

    #[test]
    fn full_wildcard_is_cheap() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(16));
        let root_only = t.used_bits();
        t.insert_range(&mut s, PortRange::ANY, entry(3, 0)).unwrap();
        // Wildcard fills only the 16 root slots, no children.
        assert_eq!(t.used_bits(), root_only);
        assert!(lookup(&t, &s, 12345).unwrap().0.contains(Label(3)));
    }

    #[test]
    fn overlapping_ranges_both_found() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(128));
        t.insert_range(&mut s, PortRange::new(0, 65535).unwrap(), entry(1, 30))
            .unwrap();
        t.insert_range(&mut s, PortRange::new(7810, 7820).unwrap(), entry(2, 20))
            .unwrap();
        t.insert_range(&mut s, PortRange::exact(7812), entry(3, 10))
            .unwrap();
        let (labels, _) = lookup(&t, &s, 7812).unwrap();
        let ids: Vec<u16> = labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![3, 2, 1]);
        let (labels2, _) = lookup(&t, &s, 7815).unwrap();
        assert_eq!(labels2.len(), 2);
    }

    #[test]
    fn remove_range() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(64));
        let r = PortRange::new(5, 300).unwrap();
        t.insert_range(&mut s, r, entry(1, 0)).unwrap();
        t.remove_range(&mut s, r, Label(1)).unwrap();
        for q in [5u16, 150, 300] {
            assert!(lookup(&t, &s, q).unwrap().0.is_empty());
        }
        assert!(matches!(
            t.remove_range(&mut s, r, Label(1)),
            Err(EngineError::NotFound)
        ));
    }

    #[test]
    fn absent_removes_change_nothing() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(64));
        let probes = [0u16, 999, 1000, 1003, 1004, 1100, 1200, 65535];
        let state = |t: &SegmentTrie, s: &LabelStore| {
            let seen: Vec<_> = probes.iter().map(|&q| lookup(t, s, q).unwrap()).collect();
            (t.used_bits(), t.writes(), s.writes(), seen)
        };
        // Never inserted, empty trie: no node may be allocated on the way
        // down to where the range would live.
        let empty = state(&t, &s);
        assert_eq!((empty.0, empty.1), (208, 16));
        let absent = PortRange::new(1000, 1003).unwrap();
        assert!(matches!(
            t.remove_range(&mut s, absent, Label(1)),
            Err(EngineError::NotFound)
        ));
        assert_eq!(state(&t, &s), empty);
        // Half absent: the stored range's path exists, the rest of the
        // removed range (and a foreign label on the stored one) does not.
        t.insert_range(&mut s, PortRange::new(1000, 1100).unwrap(), entry(1, 0))
            .unwrap();
        let loaded = state(&t, &s);
        for (lo, hi, label) in [(1050, 1200, 2), (1000, 1100, 2), (1101, 40000, 1)] {
            let r = PortRange::new(lo, hi).unwrap();
            assert!(
                matches!(
                    t.remove_range(&mut s, r, Label(label)),
                    Err(EngineError::NotFound)
                ),
                "[{lo}, {hi}] label {label}"
            );
            assert_eq!(state(&t, &s), loaded, "[{lo}, {hi}] label {label}");
        }
        // On a full level the answer is still NotFound, not Capacity.
        let mut full = SegmentTrie::new(SegTrieConfig::new(vec![4, 4, 4, 4], vec![1, 1, 1, 1]));
        full.insert_range(&mut s, PortRange::new(0, 5).unwrap(), entry(3, 0))
            .unwrap();
        assert!(matches!(
            full.remove_range(&mut s, PortRange::new(30000, 30005).unwrap(), Label(3)),
            Err(EngineError::NotFound)
        ));
    }

    #[test]
    fn five_level_config() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::five_level(128));
        assert_eq!(t.num_levels(), 5);
        assert_eq!(t.latency_cycles(), 10);
        t.insert_range(&mut s, PortRange::new(1000, 2000).unwrap(), entry(1, 0))
            .unwrap();
        assert!(lookup(&t, &s, 1500).unwrap().0.contains(Label(1)));
    }

    #[test]
    fn capacity_error() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::new(vec![4, 4, 4, 4], vec![1, 1, 1, 1]));
        // Two ranges needing different level-1 nodes can't fit.
        t.insert_range(&mut s, PortRange::new(0, 5).unwrap(), entry(1, 0))
            .unwrap();
        let e = t.insert_range(&mut s, PortRange::new(30000, 30005).unwrap(), entry(2, 0));
        assert!(matches!(e, Err(EngineError::Capacity { .. })));
    }

    #[test]
    fn trait_value_kind() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(16));
        let e = FieldEngine::insert(
            &mut t,
            &mut s,
            DimValue::Proto(spc_types::ProtoSpec::Any),
            entry(1, 0),
        );
        assert!(matches!(
            e,
            Err(EngineError::ValueKind { expected: "Port" })
        ));
    }
}
