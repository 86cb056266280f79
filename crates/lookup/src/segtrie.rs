//! Multi-level segment trie over ranges (the "Segment trie" of the paper's
//! previous-work comparison, Table I Options 1/2).
//!
//! A k-level trie over the 16-bit port space. A range is inserted by
//! canonical decomposition: every maximal trie cell fully covered by the
//! range receives the range's label, so a lookup only walks root→leaf and
//! concatenates the label lists it passes — the same access pattern as the
//! MBT, but for arbitrary ranges instead of prefixes.

use crate::engine::{EngineError, EngineKind, FieldEngine, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::{LabelStore, ListPtr};
use spc_hwsim::MemoryBlock;
use spc_types::{DimValue, PortRange};

/// Geometry of a [`SegmentTrie`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegTrieConfig {
    /// Per-level strides; must sum to 16.
    pub strides: Vec<u8>,
    /// Provisioned node capacity per level (level 0 is the root).
    pub level_nodes: Vec<usize>,
    /// Width charged per slot for the label-list pointer.
    pub list_ptr_bits: u8,
}

impl SegTrieConfig {
    /// Validated constructor (see [`crate::MbtConfig::new`] for the rules).
    ///
    /// # Panics
    ///
    /// Panics if strides don't sum to 16 or capacities mismatch.
    pub fn new(strides: Vec<u8>, level_nodes: Vec<usize>) -> Self {
        assert_eq!(
            strides.iter().map(|s| u32::from(*s)).sum::<u32>(),
            16,
            "strides must sum to 16"
        );
        assert_eq!(strides.len(), level_nodes.len(), "one capacity per level");
        assert_eq!(level_nodes[0], 1, "level 0 is the single root node");
        SegTrieConfig {
            strides,
            level_nodes,
            list_ptr_bits: 7,
        }
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

    fn cum(&self) -> Vec<u8> {
        let mut acc = 0;
        self.strides
            .iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect()
    }

    fn child_ptr_bits(&self, level: usize) -> u32 {
        if level + 1 >= self.level_nodes.len() {
            0
        } else {
            (self.level_nodes[level + 1].max(2) as u64)
                .next_power_of_two()
                .trailing_zeros()
        }
    }

    /// Slot word width at a level.
    pub fn slot_width_bits(&self, level: usize) -> u32 {
        self.child_ptr_bits(level) + 1 + u32::from(self.list_ptr_bits) + 1
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    child: Option<u32>,
    list: Option<ListPtr>,
}

/// The segment-trie engine for port ranges.
///
/// ```
/// use spc_lookup::{SegmentTrie, SegTrieConfig, LabelStore, LabelEntry, Label, FieldEngine};
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
/// assert!(st.lookup(&store, 1500)?.labels.contains(Label(1)));
/// assert!(st.lookup(&store, 2048)?.labels.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SegmentTrie {
    config: SegTrieConfig,
    cum: Vec<u8>,
    levels: Vec<MemoryBlock<Slot>>,
}

/// Per-slot callback used by the canonical-range walk: receives the level
/// memories, the level index and the slot address.
type SlotOp<'a> =
    dyn FnMut(&mut Vec<MemoryBlock<Slot>>, usize, usize) -> Result<(), EngineError> + 'a;

impl SegmentTrie {
    /// Creates an empty trie (root pre-allocated).
    // The level-0 block is sized `level_nodes[0] << strides[0]` words, so
    // allocating the root's `1 << strides[0]` slots cannot overflow.
    #[allow(clippy::expect_used)]
    pub fn new(config: SegTrieConfig) -> Self {
        let cum = config.cum();
        let mut levels: Vec<MemoryBlock<Slot>> = config
            .strides
            .iter()
            .enumerate()
            .map(|(k, s)| {
                MemoryBlock::new(
                    format!("segtrie_l{k}"),
                    config.level_nodes[k] << s,
                    config.slot_width_bits(k),
                )
            })
            .collect();
        for _ in 0..(1usize << config.strides[0]) {
            levels[0]
                .alloc(Slot::default())
                .expect("root fits by construction");
        }
        SegmentTrie {
            config,
            cum,
            levels,
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.config.strides.len()
    }

    /// Fixed pipeline latency: node + list read per level.
    pub fn latency_cycles(&self) -> u32 {
        2 * self.num_levels() as u32
    }

    fn slot_addr(&self, level: usize, node: u32, idx: usize) -> usize {
        ((node as usize) << self.config.strides[level]) + idx
    }

    fn alloc_node(&mut self, level: usize) -> Result<u32, EngineError> {
        let slots = 1usize << self.config.strides[level];
        if self.levels[level].free_words() < slots {
            return Err(EngineError::Capacity {
                what: format!("segtrie_l{level} nodes"),
            });
        }
        let base = self.levels[level].len();
        for _ in 0..slots {
            self.levels[level].alloc(Slot::default())?;
        }
        Ok((base >> self.config.strides[level]) as u32)
    }

    /// Cell width (values per slot) at `level`.
    fn cell(&self, level: usize) -> u32 {
        1u32 << (16 - u32::from(self.cum[level]))
    }

    /// Applies `op` to every canonical slot of `range`; `op` returns
    /// whether to continue. Used for both insert and remove.
    fn for_canonical_slots(
        &mut self,
        level: usize,
        node: u32,
        node_base: u32,
        lo: u32,
        hi: u32,
        op: &mut SlotOp<'_>,
    ) -> Result<(), EngineError> {
        let cell = self.cell(level);
        let nslots = 1usize << self.config.strides[level];
        for i in 0..nslots {
            let s_lo = node_base + i as u32 * cell;
            let s_hi = s_lo + cell - 1;
            if s_hi < lo || s_lo > hi {
                continue;
            }
            let addr = self.slot_addr(level, node, i);
            if lo <= s_lo && s_hi <= hi {
                op(&mut self.levels, level, addr)?;
            } else {
                debug_assert!(
                    level + 1 < self.num_levels(),
                    "unit cells are always covered"
                );
                let mut slot = *self.levels[level].read(addr)?;
                let child = match slot.child {
                    Some(c) => c,
                    None => {
                        let c = self.alloc_node(level + 1)?;
                        slot.child = Some(c);
                        self.levels[level].write(addr, slot)?;
                        c
                    }
                };
                self.for_canonical_slots(level + 1, child, s_lo, lo.max(s_lo), hi.min(s_hi), op)?;
            }
        }
        Ok(())
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
        let mut op = |levels: &mut Vec<MemoryBlock<Slot>>,
                      level: usize,
                      addr: usize|
         -> Result<(), EngineError> {
            let mut slot = *levels[level].read(addr)?;
            let ptr = match slot.list {
                Some(p) => p,
                None => {
                    let p = store.alloc_list()?;
                    slot.list = Some(p);
                    levels[level].write(addr, slot)?;
                    p
                }
            };
            store.insert(ptr, entry)?;
            Ok(())
        };
        self.for_canonical_slots(
            0,
            0,
            0,
            u32::from(range.lo()),
            u32::from(range.hi()),
            &mut op,
        )
    }

    /// Removes a port range / label binding.
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
        let mut removed = false;
        let mut op = |levels: &mut Vec<MemoryBlock<Slot>>,
                      level: usize,
                      addr: usize|
         -> Result<(), EngineError> {
            let slot = *levels[level].read(addr)?;
            if let Some(ptr) = slot.list {
                removed |= store.remove(ptr, label)?;
            }
            Ok(())
        };
        self.for_canonical_slots(
            0,
            0,
            0,
            u32::from(range.lo()),
            u32::from(range.hi()),
            &mut op,
        )?;
        if removed {
            Ok(())
        } else {
            Err(EngineError::NotFound)
        }
    }
}

impl FieldEngine for SegmentTrie {
    fn kind(&self) -> EngineKind {
        EngineKind::SegmentTrie
    }

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
        out.clear();
        let mut reads = 0u32;
        let mut runs = 0u32;
        let mut node = 0u32;
        for level in 0..self.num_levels() {
            let shift = 16 - u32::from(self.cum[level]);
            let idx = (usize::from(query) >> shift) & ((1 << self.config.strides[level]) - 1);
            let addr = self.slot_addr(level, node, idx);
            let slot = *self.levels[level].read(addr)?;
            reads += 1;
            if let Some(ptr) = slot.list {
                reads += store.read_all_into(ptr, out)?;
                runs += 1;
            }
            match slot.child {
                Some(c) => node = c,
                None => break,
            }
        }
        if runs > 1 {
            out.restore_sorted();
        }
        Ok(LookupCost {
            mem_reads: reads,
            cycles: self.latency_cycles(),
        })
    }

    fn provisioned_bits(&self) -> u64 {
        self.levels
            .iter()
            .map(spc_hwsim::MemoryBlock::capacity_bits)
            .sum()
    }

    fn used_bits(&self) -> u64 {
        self.levels
            .iter()
            .map(spc_hwsim::MemoryBlock::used_bits)
            .sum()
    }

    fn writes(&self) -> u64 {
        self.levels.iter().map(MemoryBlock::writes).sum()
    }

    fn is_pipelined(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(t.lookup(&s, 80).unwrap().labels.contains(Label(1)));
        assert!(t.lookup(&s, 81).unwrap().labels.is_empty());
        assert!(t.lookup(&s, 79).unwrap().labels.is_empty());
    }

    #[test]
    fn unaligned_range_boundaries() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(128));
        t.insert_range(&mut s, PortRange::new(100, 9999).unwrap(), entry(2, 0))
            .unwrap();
        for q in [100u16, 101, 5000, 9998, 9999] {
            assert!(t.lookup(&s, q).unwrap().labels.contains(Label(2)), "q={q}");
        }
        for q in [99u16, 10000, 0, 65535] {
            assert!(!t.lookup(&s, q).unwrap().labels.contains(Label(2)), "q={q}");
        }
    }

    #[test]
    fn full_wildcard_is_cheap() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(16));
        t.insert_range(&mut s, PortRange::ANY, entry(3, 0)).unwrap();
        // Wildcard fills only the 16 root slots, no children.
        assert_eq!(t.levels[1].len(), 0);
        assert!(t.lookup(&s, 12345).unwrap().labels.contains(Label(3)));
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
        let r = t.lookup(&s, 7812).unwrap();
        let ids: Vec<u16> = r.labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![3, 2, 1]);
        let r2 = t.lookup(&s, 7815).unwrap();
        assert_eq!(r2.labels.len(), 2);
    }

    #[test]
    fn remove_range() {
        let mut s = store();
        let mut t = SegmentTrie::new(SegTrieConfig::four_level(64));
        let r = PortRange::new(5, 300).unwrap();
        t.insert_range(&mut s, r, entry(1, 0)).unwrap();
        t.remove_range(&mut s, r, Label(1)).unwrap();
        for q in [5u16, 150, 300] {
            assert!(t.lookup(&s, q).unwrap().labels.is_empty());
        }
        assert!(matches!(
            t.remove_range(&mut s, r, Label(1)),
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
        assert!(t.lookup(&s, 1500).unwrap().labels.contains(Label(1)));
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
