//! The fixed-stride trie under [`crate::MultiBitTrie`] and
//! [`crate::SegmentTrie`].
//!
//! One structure, two insert front ends. A k-level trie over a 16- or
//! 32-bit key, one memory block per level, every slot holding a child
//! pointer and a label-list pointer. A value is stored as an inclusive
//! key range `[lo, hi]` by canonical decomposition: every maximal trie
//! cell the range fully covers receives the label, and a partially
//! covered cell is descended into. Prefix expansion is that rule applied
//! to the range a prefix covers (the range sits inside one cell per level
//! until the level whose cumulative stride reaches the prefix length,
//! where it covers whole cells), so the MBT and the segment trie differ
//! only in how a value becomes a range. A lookup walks root to leaf and
//! concatenates the label lists it passes; reads, Kbits and write cycles
//! are counted here and nowhere else.

use crate::engine::{EngineError, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::{LabelStore, ListPtr};
use spc_hwsim::MemoryBlock;

/// Key width, strides and provisioning of a stride trie. Only
/// [`Geometry::new`] builds one, so a trie never sees an unchecked shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Geometry {
    key_bits: u8,
    /// Per-level strides; sum to `key_bits`.
    strides: Vec<u8>,
    /// Provisioned node capacity per level (level 0 is the single root).
    level_nodes: Vec<usize>,
    /// Width charged per slot for the label-list pointer.
    list_ptr_bits: u8,
}

impl Geometry {
    /// # Panics
    ///
    /// Panics if the key is wider than the `u32` it travels in, the
    /// strides don't sum to `key_bits`, a stride is outside `1..=12`,
    /// lengths mismatch, or level 0 capacity is not exactly 1.
    pub(crate) fn new(
        key_bits: u8,
        strides: Vec<u8>,
        level_nodes: Vec<usize>,
        list_ptr_bits: u8,
    ) -> Self {
        assert!(key_bits <= 32, "keys are at most 32 bits");
        assert_eq!(
            strides.iter().map(|s| u32::from(*s)).sum::<u32>(),
            u32::from(key_bits),
            "strides must sum to the {key_bits}-bit key width"
        );
        assert!(
            strides.iter().all(|s| (1..=12).contains(s)),
            "strides must be 1..=12"
        );
        assert_eq!(strides.len(), level_nodes.len(), "one capacity per level");
        assert_eq!(level_nodes[0], 1, "level 0 is the single root node");
        Geometry {
            key_bits,
            strides,
            level_nodes,
            list_ptr_bits,
        }
    }

    /// Running sum of the strides: `cum[k]` key bits are consumed through
    /// level `k`.
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
        match self.level_nodes.get(level + 1) {
            None => 0,
            Some(&nodes) => nodes.max(2).next_power_of_two().trailing_zeros(),
        }
    }

    /// Slot word width at a level: child pointer + valid bit + list pointer
    /// + valid bit.
    fn slot_width_bits(&self, level: usize) -> u32 {
        self.child_ptr_bits(level) + 1 + u32::from(self.list_ptr_bits) + 1
    }
}

/// One trie slot (a word of a level memory block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    child: Option<u32>,
    list: Option<ListPtr>,
}

/// The shared trie: level blocks, node allocation, the lookup walk and
/// the covered-slot walk.
#[derive(Debug)]
pub(crate) struct StrideTrie {
    /// Block-name prefix (`mbt` / `segtrie`).
    name: &'static str,
    key_bits: u8,
    strides: Vec<u8>,
    /// Per level, the key bits below its chunk: a slot there spans
    /// `1 << shifts[level]` keys.
    shifts: Vec<u32>,
    levels: Vec<MemoryBlock<Slot>>,
}

impl StrideTrie {
    /// Creates an empty trie (root pre-allocated) whose level blocks are
    /// named `{name}_l{k}`.
    // The level-0 block is sized `level_nodes[0] << strides[0]` words, so
    // allocating the root's `1 << strides[0]` slots cannot overflow.
    #[allow(clippy::expect_used)]
    pub(crate) fn new(name: &'static str, geometry: Geometry) -> Self {
        let levels = (0..geometry.strides.len())
            .map(|k| {
                MemoryBlock::new(
                    format!("{name}_l{k}"),
                    geometry.level_nodes[k] << geometry.strides[k],
                    geometry.slot_width_bits(k),
                )
            })
            .collect();
        let shifts = geometry
            .cum()
            .iter()
            .map(|c| u32::from(geometry.key_bits - c))
            .collect();
        let mut trie = StrideTrie {
            name,
            key_bits: geometry.key_bits,
            shifts,
            strides: geometry.strides,
            levels,
        };
        trie.alloc_node(0).expect("root fits by construction");
        trie
    }

    pub(crate) fn key_bits(&self) -> u8 {
        self.key_bits
    }

    pub(crate) fn num_levels(&self) -> usize {
        self.strides.len()
    }

    /// Fixed pipeline latency: one node read plus one list read per level.
    pub(crate) fn latency_cycles(&self) -> u32 {
        2 * self.num_levels() as u32
    }

    fn slot_addr(&self, level: usize, node: u32, idx: usize) -> usize {
        ((node as usize) << self.strides[level]) + idx
    }

    fn alloc_node(&mut self, level: usize) -> Result<u32, EngineError> {
        let slots = 1usize << self.strides[level];
        if self.levels[level].free_words() < slots {
            return Err(EngineError::Capacity {
                what: format!("{}_l{level} nodes", self.name),
            });
        }
        let base = self.levels[level].len();
        for _ in 0..slots {
            self.levels[level].alloc(Slot::default())?;
        }
        Ok((base >> self.strides[level]) as u32)
    }

    /// Applies `op(level block, slot address)` to every canonical slot of
    /// `[lo, hi]` under `node` (whose first key is `node_base`), visiting
    /// only the slot indices the range overlaps. A partially covered slot
    /// is descended into; when it has no child yet, `create` allocates one
    /// (insert) — without it nothing is stored below and the slot is
    /// skipped (remove).
    fn for_covered_slots(
        &mut self,
        level: usize,
        node: u32,
        node_base: u32,
        (lo, hi): (u32, u32),
        create: bool,
        op: &mut impl FnMut(&mut MemoryBlock<Slot>, usize) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let shift = self.shifts[level];
        let first = ((lo - node_base) >> shift) as usize;
        let last = ((hi - node_base) >> shift) as usize;
        for i in first..=last {
            let s_lo = node_base + ((i as u32) << shift);
            let s_hi = s_lo | ((1u32 << shift) - 1);
            let addr = self.slot_addr(level, node, i);
            if lo <= s_lo && s_hi <= hi {
                op(&mut self.levels[level], addr)?;
                continue;
            }
            debug_assert!(
                level + 1 < self.num_levels(),
                "unit cells are always covered"
            );
            let mut slot = *self.levels[level].read(addr)?;
            let child = match slot.child {
                Some(c) => c,
                None if create => {
                    let c = self.alloc_node(level + 1)?;
                    slot.child = Some(c);
                    self.levels[level].write(addr, slot)?;
                    c
                }
                None => continue,
            };
            let below = (lo.max(s_lo), hi.min(s_hi));
            self.for_covered_slots(level + 1, child, s_lo, below, create, op)?;
        }
        Ok(())
    }

    /// Adds `entry` to the list of every canonical slot of `range`;
    /// [`EngineError::Capacity`] when a level block or the store is full.
    pub(crate) fn insert(
        &mut self,
        store: &mut LabelStore,
        range: (u32, u32),
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        self.for_covered_slots(0, 0, 0, range, true, &mut |block, addr| {
            let mut slot = *block.read(addr)?;
            let ptr = match slot.list {
                Some(p) => p,
                None => {
                    let p = store.alloc_list();
                    slot.list = Some(p);
                    block.write(addr, slot)?;
                    p
                }
            };
            store.insert(ptr, entry)?;
            Ok(())
        })
    }

    /// Removes `label` from the list of every canonical slot of `range`,
    /// allocating nothing; [`EngineError::NotFound`] when none held it.
    pub(crate) fn remove(
        &mut self,
        store: &mut LabelStore,
        range: (u32, u32),
        label: Label,
    ) -> Result<(), EngineError> {
        let mut removed = false;
        self.for_covered_slots(0, 0, 0, range, false, &mut |block, addr| {
            if let Some(ptr) = block.read(addr)?.list {
                removed |= store.remove(ptr, label)?;
            }
            Ok(())
        })?;
        if removed {
            Ok(())
        } else {
            Err(EngineError::NotFound)
        }
    }

    /// Fills `out` (cleared first) with every label list on the root-to-
    /// leaf path of `key`, in list order, and prices the reads. `register`
    /// is a list beside the trie that matches every key — the MBT's
    /// wildcard — read ahead of the walk when it holds anything. Cannot
    /// fail: an index is a chunk of the key under a node this trie
    /// allocated, every slot of which exists.
    // Inlined into each front end's `lookup_into`, as each had its own
    // copy of this loop: a field lookup is tens of ns and a call shows.
    #[inline]
    pub(crate) fn lookup(
        &self,
        store: &LabelStore,
        key: u32,
        register: Option<ListPtr>,
        out: &mut LabelList,
    ) -> LookupCost {
        out.clear();
        let (mut reads, mut runs) = (0u32, 0u32);
        if let Some(ptr) = register {
            if store.len(ptr) > 0 {
                reads += store.read_all_into(ptr, out);
                runs += 1;
            }
        }
        let mut node = 0u32;
        for level in 0..self.num_levels() {
            let idx = (key >> self.shifts[level]) as usize & ((1 << self.strides[level]) - 1);
            let slot = self.levels[level].as_slice()[self.slot_addr(level, node, idx)];
            reads += 1;
            if let Some(ptr) = slot.list {
                reads += store.read_all_into(ptr, out);
                runs += 1;
            }
            match slot.child {
                Some(c) => node = c,
                None => break,
            }
        }
        if runs > 1 {
            // Each run is sorted; one unstable sort restores the global
            // invariant without allocating.
            out.restore_sorted();
        }
        LookupCost {
            mem_reads: reads,
            cycles: self.latency_cycles(),
        }
    }

    pub(crate) fn provisioned_bits(&self) -> u64 {
        self.levels.iter().map(MemoryBlock::capacity_bits).sum()
    }

    pub(crate) fn used_bits(&self) -> u64 {
        self.levels.iter().map(MemoryBlock::used_bits).sum()
    }

    pub(crate) fn writes(&self) -> u64 {
        self.levels.iter().map(MemoryBlock::writes).sum()
    }
}
