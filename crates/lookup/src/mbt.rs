//! Multi-bit trie (MBT) — the paper's fast IP lookup engine (§IV.B–C).
//!
//! A fixed-stride multi-bit trie with prefix expansion. The prototype
//! configuration for a 16-bit IP segment uses three levels of 5, 5 and 6
//! bits; each level is its own memory block so the three node reads (plus
//! three label-list reads) pipeline into a 6-cycle latency with an
//! initiation interval of one packet per cycle (§V.B).
//!
//! The structure itself — level blocks, node allocation, the root-to-leaf
//! read loop, the accounting — is the shared stride trie of
//! `trie.rs`, the same one under [`crate::SegmentTrie`]. What this front
//! end adds is the prefix: a `(value, len)` becomes the key range it
//! covers, which the shared walk expands at the one level whose
//! cumulative stride reaches `len`, and length 0 goes to a wildcard
//! register read ahead of the walk instead of filling the root. The trie
//! is *width-generic*: the same type implements the 32-bit, 5-level tries
//! evaluated as "Option 1/2" in Table I.

use crate::engine::{EngineError, FieldEngine, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::{LabelStore, ListPtr};
use crate::trie::{Geometry, StrideTrie};
use spc_types::DimValue;

/// Geometry of a [`MultiBitTrie`]: key width, per-level strides and
/// provisioned node capacity per level, with 13-bit label-list pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbtConfig(Geometry);

impl MbtConfig {
    /// Validated constructor: a `key_bits`-wide key (16 for segment
    /// dimensions, 32 for full IP) cut into `strides`, with `level_nodes`
    /// nodes provisioned per level.
    ///
    /// # Panics
    ///
    /// Panics if the strides don't sum to `key_bits` or leave `1..=12`,
    /// lengths mismatch, or level 0 capacity is not exactly 1.
    pub fn new(key_bits: u8, strides: Vec<u8>, level_nodes: Vec<usize>) -> Self {
        MbtConfig(Geometry::new(key_bits, strides, level_nodes, 13))
    }

    /// The paper's 16-bit segment trie: strides 5/5/6 (§IV.C).
    ///
    /// `leaf_nodes` provisions level 2 (the big block); level 1 is fully
    /// provisioned (32 nodes).
    pub fn segment_paper(leaf_nodes: usize) -> Self {
        MbtConfig::new(16, vec![5, 5, 6], vec![1, 32, leaf_nodes])
    }

    /// A 5-level trie over full 32-bit IP fields (Table I "Option 1").
    pub fn ip32_5level(per_level_nodes: usize) -> Self {
        MbtConfig::new(
            32,
            vec![7, 7, 6, 6, 6],
            vec![1, 128, per_level_nodes, per_level_nodes, per_level_nodes],
        )
    }

    /// A 4-level trie over full 32-bit IP fields (Table I "Option 2").
    pub fn ip32_4level(per_level_nodes: usize) -> Self {
        MbtConfig::new(
            32,
            vec![8, 8, 8, 8],
            vec![1, 256, per_level_nodes, per_level_nodes],
        )
    }
}

/// The multi-bit trie engine.
///
/// ```
/// use spc_lookup::{MultiBitTrie, MbtConfig, LabelStore, LabelEntry, LabelList, Label, FieldEngine};
/// use spc_types::{DimValue, SegPrefix, Priority};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = LabelStore::new("sip_hi", 1024, 13);
/// let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(64));
/// mbt.insert(
///     &mut store,
///     DimValue::Seg(SegPrefix::masked(0x0a00, 8)),
///     LabelEntry::by_priority(Label(0), Priority(0)),
/// )?;
/// let mut labels = LabelList::new();
/// mbt.lookup_into(&store, 0x0aff, &mut labels)?;
/// assert_eq!(labels.head().unwrap().label, Label(0));
/// mbt.lookup_into(&store, 0x0bff, &mut labels)?;
/// assert!(labels.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiBitTrie {
    trie: StrideTrie,
    /// The length-0 prefix's list: a register beside the trie, so a
    /// wildcard costs one list instead of a full root of expanded slots.
    wildcard: Option<ListPtr>,
}

impl MultiBitTrie {
    /// Creates an empty trie with the given geometry (root pre-allocated).
    pub fn new(config: MbtConfig) -> Self {
        MultiBitTrie {
            trie: StrideTrie::new("mbt", config.0),
            wildcard: None,
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.trie.num_levels()
    }

    /// Fixed pipeline latency: one node read plus one list read per level.
    pub fn latency_cycles(&self) -> u32 {
        self.trie.latency_cycles()
    }

    /// The inclusive key range a `(value, len)` prefix covers, `len >= 1`
    /// (bits of `value` below the prefix or above the key are ignored).
    fn prefix_range(&self, value: u32, len: u8) -> (u32, u32) {
        let key_bits = self.trie.key_bits();
        assert!(len <= key_bits, "prefix longer than key");
        let free = (1u32 << (key_bits - len)) - 1;
        let lo = value & (u32::MAX >> (32 - key_bits)) & !free;
        (lo, lo | free)
    }

    /// Inserts a `(value, len)` prefix with the given label entry.
    ///
    /// # Errors
    ///
    /// [`EngineError::Capacity`] when a level block or the label store is
    /// full.
    pub fn insert_prefix(
        &mut self,
        store: &mut LabelStore,
        value: u32,
        len: u8,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        if len == 0 {
            let ptr = match self.wildcard {
                Some(p) => p,
                None => *self.wildcard.insert(store.alloc_list()),
            };
            store.insert(ptr, entry)?;
            return Ok(());
        }
        self.trie
            .insert(store, self.prefix_range(value, len), entry)
    }

    /// Removes a `(value, len, label)` binding.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotFound`] when the prefix/label is absent.
    pub fn remove_prefix(
        &mut self,
        store: &mut LabelStore,
        value: u32,
        len: u8,
        label: Label,
    ) -> Result<(), EngineError> {
        if len == 0 {
            let ptr = self.wildcard.ok_or(EngineError::NotFound)?;
            if !store.remove(ptr, label)? {
                return Err(EngineError::NotFound);
            }
            return Ok(());
        }
        self.trie
            .remove(store, self.prefix_range(value, len), label)
    }

    /// Looks up a full-width key (bits above the key width are
    /// ignored), writing the label lists along the path into a
    /// caller-owned list (cleared first).
    pub fn lookup_key_into(&self, store: &LabelStore, key: u32, out: &mut LabelList) -> LookupCost {
        self.trie.lookup(store, key, self.wildcard, out)
    }
}

impl FieldEngine for MultiBitTrie {
    fn insert(
        &mut self,
        store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        let DimValue::Seg(seg) = value else {
            return Err(EngineError::ValueKind { expected: "Seg" });
        };
        debug_assert_eq!(self.trie.key_bits(), 16, "segment engine must be 16-bit");
        self.insert_prefix(store, u32::from(seg.value()), seg.len(), entry)
    }

    fn remove(
        &mut self,
        store: &mut LabelStore,
        value: DimValue,
        label: Label,
    ) -> Result<(), EngineError> {
        let DimValue::Seg(seg) = value else {
            return Err(EngineError::ValueKind { expected: "Seg" });
        };
        self.remove_prefix(store, u32::from(seg.value()), seg.len(), label)
    }

    fn lookup_into(
        &self,
        store: &LabelStore,
        query: u16,
        out: &mut LabelList,
    ) -> Result<LookupCost, EngineError> {
        Ok(self.lookup_key_into(store, u32::from(query), out))
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
    use spc_types::{Priority, SegPrefix};

    /// One full-width lookup into a fresh list.
    fn key(mbt: &MultiBitTrie, s: &LabelStore, key: u32) -> (LabelList, LookupCost) {
        let mut labels = LabelList::new();
        let cost = mbt.lookup_key_into(s, key, &mut labels);
        (labels, cost)
    }

    fn store() -> LabelStore {
        LabelStore::new("test", 4096, 13)
    }

    fn entry(id: u16, p: u32) -> LabelEntry {
        LabelEntry::by_priority(Label(id), Priority(p))
    }

    #[test]
    fn empty_lookup_is_empty() {
        let s = store();
        let mbt = MultiBitTrie::new(MbtConfig::segment_paper(16));
        let (labels, cost) = lookup(&mbt, &s, 0x1234).unwrap();
        assert!(labels.is_empty());
        assert_eq!(cost.cycles, 6); // paper §V.B: 6-cycle MBT latency
        assert!(cost.mem_reads >= 1);
    }

    #[test]
    fn exact_and_nested_prefixes_collect() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(64));
        // /4, /9 and /16 nested prefixes all matching 0xa234.
        mbt.insert_prefix(&mut s, 0xa000, 4, entry(1, 10)).unwrap();
        mbt.insert_prefix(&mut s, 0xa200, 9, entry(2, 5)).unwrap();
        mbt.insert_prefix(&mut s, 0xa234, 16, entry(3, 20)).unwrap();
        let (labels, _) = key(&mbt, &s, 0xa234);
        let ids: Vec<u16> = labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![2, 1, 3]); // sorted by priority 5,10,20
                                        // Non-matching key sees only the /4.
        let (labels2, _) = key(&mbt, &s, 0xa900);
        let ids2: Vec<u16> = labels2.iter().map(|e| e.label.0).collect();
        assert_eq!(ids2, vec![1]);
    }

    #[test]
    fn wildcard_prefix_matches_everything() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(8));
        mbt.insert_prefix(&mut s, 0, 0, entry(9, 1)).unwrap();
        for q in [0u32, 0xffff, 0x8000] {
            let (labels, _) = key(&mbt, &s, q);
            assert!(labels.contains(Label(9)));
        }
    }

    #[test]
    fn expansion_covers_whole_range() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(8));
        // /7 prefix expands into 2^(10-7)=8 level-1 slots... check the
        // boundary values all match and neighbours don't.
        let p = SegPrefix::masked(0x4600, 7);
        mbt.insert_prefix(&mut s, u32::from(p.value()), 7, entry(4, 0))
            .unwrap();
        assert!(key(&mbt, &s, u32::from(p.first())).0.contains(Label(4)));
        assert!(key(&mbt, &s, u32::from(p.last())).0.contains(Label(4)));
        assert!(!key(&mbt, &s, u32::from(p.first().wrapping_sub(1)))
            .0
            .contains(Label(4)));
        assert!(!key(&mbt, &s, u32::from(p.last().wrapping_add(1)))
            .0
            .contains(Label(4)));
    }

    #[test]
    fn remove_prefix_clears_labels() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(8));
        mbt.insert_prefix(&mut s, 0xa000, 4, entry(1, 1)).unwrap();
        mbt.remove_prefix(&mut s, 0xa000, 4, Label(1)).unwrap();
        assert!(key(&mbt, &s, 0xa000).0.is_empty());
        assert!(matches!(
            mbt.remove_prefix(&mut s, 0xa000, 4, Label(1)),
            Err(EngineError::NotFound)
        ));
    }

    #[test]
    fn capacity_error_on_leaf_exhaustion() {
        let mut s = store();
        // Only 1 leaf node: two distinct level-2 paths can't both fit.
        let mut mbt = MultiBitTrie::new(MbtConfig::new(16, vec![5, 5, 6], vec![1, 32, 1]));
        mbt.insert_prefix(&mut s, 0x0000, 16, entry(1, 1)).unwrap();
        let err = mbt.insert_prefix(&mut s, 0xffff, 16, entry(2, 2));
        assert!(matches!(err, Err(EngineError::Capacity { .. })));
    }

    #[test]
    fn upsert_reorders_priority() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(8));
        mbt.insert_prefix(&mut s, 0xa000, 8, entry(1, 50)).unwrap();
        mbt.insert_prefix(&mut s, 0xa000, 4, entry(2, 10)).unwrap();
        assert_eq!(key(&mbt, &s, 0xa0ff).0.head().unwrap().label, Label(2));
        // Label 1's value gains a higher-priority user.
        mbt.insert_prefix(&mut s, 0xa000, 8, entry(1, 1)).unwrap();
        assert_eq!(key(&mbt, &s, 0xa0ff).0.head().unwrap().label, Label(1));
    }

    #[test]
    fn trait_rejects_wrong_value_kind() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(8));
        let err = FieldEngine::insert(
            &mut mbt,
            &mut s,
            DimValue::Port(spc_types::PortRange::ANY),
            entry(1, 1),
        );
        assert!(matches!(
            err,
            Err(EngineError::ValueKind { expected: "Seg" })
        ));
    }

    #[test]
    fn lookup_cost_counts_nodes_and_list_words() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(8));
        mbt.insert_prefix(&mut s, 0xa000, 8, entry(1, 1)).unwrap();
        // Level-0 slot, level-1 slot, its one-label list.
        assert_eq!(key(&mbt, &s, 0xa0ff).1.mem_reads, 3);
        // A second label on the same value is one more list word; the
        // wildcard list adds its own.
        mbt.insert_prefix(&mut s, 0xa000, 8, entry(2, 2)).unwrap();
        assert_eq!(key(&mbt, &s, 0xa0ff).1.mem_reads, 4);
        mbt.insert_prefix(&mut s, 0, 0, entry(3, 3)).unwrap();
        assert_eq!(key(&mbt, &s, 0xa0ff).1.mem_reads, 5);
        // Off the stored path only the root slot (and the wildcard) is read.
        assert_eq!(key(&mbt, &s, 0x1234).1.mem_reads, 2);
    }

    #[test]
    fn ip32_lookup() {
        let mut s = LabelStore::new("ip32", 4096, 13);
        let mut mbt = MultiBitTrie::new(MbtConfig::ip32_5level(256));
        mbt.insert_prefix(&mut s, 0x0a000000, 8, entry(1, 1))
            .unwrap();
        mbt.insert_prefix(&mut s, 0x0a0b0c00, 24, entry(2, 2))
            .unwrap();
        let (labels, cost) = key(&mbt, &s, 0x0a0b0c0d);
        assert_eq!(labels.len(), 2);
        assert_eq!(cost.cycles, 10); // 5 levels * 2
        let (labels2, _) = key(&mbt, &s, 0x0b000000);
        assert!(labels2.is_empty());
    }

    #[test]
    fn memory_accounting_monotone() {
        let mut s = store();
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(64));
        let before = mbt.used_bits();
        mbt.insert_prefix(&mut s, 0x1234, 16, entry(1, 1)).unwrap();
        assert!(mbt.used_bits() > before);
        assert!(mbt.provisioned_bits() >= mbt.used_bits());
    }

    #[test]
    #[should_panic(expected = "strides must sum")]
    fn bad_strides_rejected() {
        let _ = MbtConfig::new(16, vec![5, 5], vec![1, 32]);
    }
}
