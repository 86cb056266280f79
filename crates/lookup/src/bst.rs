//! Balanced binary search tree (BST) — the paper's memory-lean IP lookup
//! engine (§IV.B–C).
//!
//! The unique segment prefixes of a dimension induce a set of *elementary
//! intervals* over the 16-bit value space; every interval's covering-prefix
//! set is constant, so each interval stores one precomputed,
//! priority-sorted label list. The balanced tree is *implicit*: "a simple
//! memory block is designated for each 16-bit segmented IP field" (§IV.C)
//! — interval start values are kept sorted and binary-searched, so a word
//! is just `{start:16, list_ptr}` with no child pointers. That is what
//! makes the BST far smaller than the MBT (Table VI: 49 Kbits vs 543
//! Kbits) and lets it share the MBT's memory blocks (Fig 5).
//!
//! The tree is balanced **in software** and pushed down on update — the
//! paper is explicit that this rebuild is the BST's limitation (§IV.C).
//! Updates are therefore deferred: [`FieldEngine::insert`]/`remove` mark
//! the engine dirty and [`FieldEngine::flush`] performs the rebuild;
//! lookups on a dirty engine return [`EngineError::Dirty`].

use crate::engine::{EngineError, EngineKind, FieldEngine, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::{LabelStore, ListPtr};
use spc_hwsim::MemoryBlock;
use spc_types::{DimValue, SegPrefix};
use std::collections::BTreeMap;

/// One word of the BST interval memory: the interval's first value and its
/// label-list pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IntervalWord {
    start: u16,
    list: ListPtr,
}

/// The balanced-BST engine over one 16-bit segment dimension.
///
/// ```
/// use spc_lookup::{RangeBst, LabelStore, LabelEntry, Label, FieldEngine};
/// use spc_types::{DimValue, SegPrefix, Priority};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = LabelStore::new("dip_lo", 4096, 13);
/// let mut bst = RangeBst::new(1024);
/// bst.insert(
///     &mut store,
///     DimValue::Seg(SegPrefix::masked(0x8000, 1)),
///     LabelEntry::by_priority(Label(3), Priority(2)),
/// )?;
/// bst.flush(&mut store)?;
/// assert!(bst.lookup(&store, 0x9999)?.labels.contains(Label(3)));
/// assert!(bst.lookup(&store, 0x7fff)?.labels.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RangeBst {
    /// Unique prefixes with their current label entry (software shadow —
    /// the controller's view, not charged to hardware memory).
    values: BTreeMap<(u16, u8), LabelEntry>,
    intervals: MemoryBlock<IntervalWord>,
    dirty: bool,
}

impl RangeBst {
    /// Creates an empty engine provisioned for `max_intervals` elementary
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if `max_intervals` is zero.
    pub fn new(max_intervals: usize) -> Self {
        assert!(max_intervals > 0, "interval capacity must be positive");
        // Word: 16-bit start + 13-bit list pointer.
        let width = 16 + 13;
        RangeBst {
            values: BTreeMap::new(),
            intervals: MemoryBlock::new("bst_intervals", max_intervals, width),
            dirty: false,
        }
    }

    /// Worst-case binary-search reads per lookup (`⌈log2 n⌉ + 1`), 0 when
    /// empty.
    pub fn depth(&self) -> u32 {
        let n = self.intervals.len();
        if n == 0 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()).max(1) + 1
        }
    }

    /// Whether updates are pending a [`FieldEngine::flush`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    fn rebuild(&mut self, store: &mut LabelStore) -> Result<(), EngineError> {
        self.intervals.clear();
        store.clear();
        self.dirty = false;
        if self.values.is_empty() {
            return Ok(());
        }
        // Elementary interval boundaries.
        let mut bounds: Vec<u32> = vec![0];
        for &(value, len) in self.values.keys() {
            let p = SegPrefix::masked(value, len);
            bounds.push(u32::from(p.first()));
            bounds.push(u32::from(p.last()) + 1);
        }
        bounds.retain(|b| *b <= u32::from(u16::MAX));
        bounds.sort_unstable();
        bounds.dedup();
        let starts: Vec<u16> = bounds.iter().map(|b| *b as u16).collect();
        if starts.len() > self.intervals.words() {
            return Err(EngineError::Capacity {
                what: format!(
                    "bst_intervals ({} intervals > {} provisioned)",
                    starts.len(),
                    self.intervals.words()
                ),
            });
        }
        // Sweep with a nesting stack: segment prefixes nest or are disjoint,
        // so the active covering set at any interval is a stack.
        let mut by_start: Vec<(&(u16, u8), &LabelEntry)> = self.values.iter().collect();
        by_start.sort_by_key(|((v, l), _)| (*v, *l)); // outermost first at equal start
        let mut stack: Vec<(u16, LabelEntry)> = Vec::new(); // (interval last, entry)
        let mut next = 0usize;
        for &start in &starts {
            while let Some(&(last, _)) = stack.last() {
                if last < start {
                    stack.pop();
                } else {
                    break;
                }
            }
            while next < by_start.len() {
                let ((value, len), entry) = by_start[next];
                let p = SegPrefix::masked(*value, *len);
                if p.first() == start {
                    stack.push((p.last(), *entry));
                    next += 1;
                } else {
                    break;
                }
            }
            let ptr = store.alloc_list()?;
            for (_, entry) in &stack {
                store.insert(ptr, *entry)?;
            }
            self.intervals.alloc(IntervalWord { start, list: ptr })?;
        }
        Ok(())
    }
}

impl FieldEngine for RangeBst {
    fn kind(&self) -> EngineKind {
        EngineKind::Bst
    }

    fn insert(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        let DimValue::Seg(seg) = value else {
            return Err(EngineError::ValueKind { expected: "Seg" });
        };
        self.values.insert((seg.value(), seg.len()), entry);
        self.dirty = true;
        Ok(())
    }

    fn remove(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        label: Label,
    ) -> Result<(), EngineError> {
        let DimValue::Seg(seg) = value else {
            return Err(EngineError::ValueKind { expected: "Seg" });
        };
        let key = (seg.value(), seg.len());
        match self.values.get(&key) {
            Some(e) if e.label == label => {
                self.values.remove(&key);
                self.dirty = true;
                Ok(())
            }
            _ => Err(EngineError::NotFound),
        }
    }

    fn flush(&mut self, store: &mut LabelStore) -> Result<(), EngineError> {
        if self.dirty {
            self.rebuild(store)?;
        }
        Ok(())
    }

    // Interval 0 starts at port 0, so the binary search always lands on
    // a covering interval for any u16 query.
    #[allow(clippy::expect_used)]
    fn lookup_into(
        &self,
        store: &LabelStore,
        query: u16,
        out: &mut LabelList,
    ) -> Result<LookupCost, EngineError> {
        out.clear();
        if self.dirty {
            return Err(EngineError::Dirty);
        }
        let n = self.intervals.len();
        if n == 0 {
            return Ok(LookupCost {
                mem_reads: 0,
                cycles: 1,
            });
        }
        // Binary search for the rightmost interval start <= query.
        // Interval 0 starts at 0, so the search always lands somewhere.
        let mut reads = 0u32;
        let (mut lo, mut hi) = (0usize, n); // invariant: answer in [lo, hi)
        let mut hit = None;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let w = *self.intervals.read(mid)?;
            reads += 1;
            if w.start <= query {
                hit = Some(w);
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let w = hit.expect("interval 0 starts at 0");
        // One sorted run into an empty list: the invariant holds as-is.
        let list_reads = store.read_all_into(w.list, out)?.max(1);
        Ok(LookupCost {
            mem_reads: reads + list_reads,
            cycles: reads + 1, // search walk + head read
        })
    }

    fn provisioned_bits(&self) -> u64 {
        self.intervals.capacity_bits()
    }

    fn used_bits(&self) -> u64 {
        self.intervals.used_bits()
    }

    fn writes(&self) -> u64 {
        self.intervals.writes()
    }

    fn is_pipelined(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::Priority;

    fn store() -> LabelStore {
        LabelStore::new("test", 8192, 13)
    }

    fn entry(id: u16, p: u32) -> LabelEntry {
        LabelEntry::by_priority(Label(id), Priority(p))
    }

    fn seg(v: u16, l: u8) -> DimValue {
        DimValue::Seg(SegPrefix::masked(v, l))
    }

    #[test]
    fn empty_engine_lookup() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.flush(&mut s).unwrap();
        let r = bst.lookup(&s, 0).unwrap();
        assert!(r.labels.is_empty());
        assert_eq!(r.mem_reads, 0);
    }

    #[test]
    fn dirty_lookup_rejected() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0, 0), entry(1, 1)).unwrap();
        assert!(bst.is_dirty());
        assert!(matches!(bst.lookup(&s, 0), Err(EngineError::Dirty)));
        bst.flush(&mut s).unwrap();
        assert!(bst.lookup(&s, 0).is_ok());
    }

    #[test]
    fn nested_prefixes_collect_in_priority_order() {
        let mut s = store();
        let mut bst = RangeBst::new(64);
        bst.insert(&mut s, seg(0xa000, 4), entry(1, 10)).unwrap();
        bst.insert(&mut s, seg(0xa200, 9), entry(2, 5)).unwrap();
        bst.insert(&mut s, seg(0xa234, 16), entry(3, 20)).unwrap();
        bst.flush(&mut s).unwrap();
        let r = bst.lookup(&s, 0xa234).unwrap();
        let ids: Vec<u16> = r.labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![2, 1, 3]);
        let r2 = bst.lookup(&s, 0xa900).unwrap();
        let ids2: Vec<u16> = r2.labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids2, vec![1]);
        assert!(bst.lookup(&s, 0x0001).unwrap().labels.is_empty());
    }

    #[test]
    fn wildcard_matches_everything() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0, 0), entry(7, 3)).unwrap();
        bst.flush(&mut s).unwrap();
        for q in [0u16, 0x7fff, 0xffff] {
            assert!(bst.lookup(&s, q).unwrap().labels.contains(Label(7)));
        }
    }

    #[test]
    fn boundaries_are_exact() {
        let mut s = store();
        let mut bst = RangeBst::new(64);
        let p = SegPrefix::masked(0x4000, 3); // [0x4000, 0x5fff]
        bst.insert(&mut s, DimValue::Seg(p), entry(4, 0)).unwrap();
        bst.flush(&mut s).unwrap();
        assert!(bst.lookup(&s, 0x4000).unwrap().labels.contains(Label(4)));
        assert!(bst.lookup(&s, 0x5fff).unwrap().labels.contains(Label(4)));
        assert!(!bst.lookup(&s, 0x3fff).unwrap().labels.contains(Label(4)));
        assert!(!bst.lookup(&s, 0x6000).unwrap().labels.contains(Label(4)));
        // An empty interval's list still costs its head read: the search
        // walk plus one, exactly the cycle count.
        let miss = bst.lookup(&s, 0x3fff).unwrap();
        assert!(miss.labels.is_empty());
        assert_eq!(miss.mem_reads, miss.cycles);
    }

    #[test]
    fn remove_then_flush() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0x8000, 1), entry(1, 1)).unwrap();
        bst.flush(&mut s).unwrap();
        bst.remove(&mut s, seg(0x8000, 1), Label(1)).unwrap();
        bst.flush(&mut s).unwrap();
        assert!(bst.lookup(&s, 0xffff).unwrap().labels.is_empty());
        assert!(matches!(
            bst.remove(&mut s, seg(0x8000, 1), Label(1)),
            Err(EngineError::NotFound)
        ));
    }

    #[test]
    fn depth_is_logarithmic() {
        let mut s = LabelStore::new("big", 1 << 16, 13);
        let mut bst = RangeBst::new(4096);
        for i in 0..1000u16 {
            bst.insert(&mut s, seg(i << 6, 10), entry(i, u32::from(i)))
                .unwrap();
        }
        bst.flush(&mut s).unwrap();
        // ~1001 intervals -> ~11 binary search reads.
        assert!(bst.depth() <= 12, "depth {}", bst.depth());
        let r = bst.lookup(&s, 0x1234).unwrap();
        assert!(r.cycles <= bst.depth() + 1);
        assert!(!r.labels.is_empty());
        // Paper Table VI territory: ~16 accesses per packet at scale.
        assert!(r.mem_reads <= 16, "reads {}", r.mem_reads);
    }

    #[test]
    fn capacity_exceeded_reported() {
        let mut s = store();
        let mut bst = RangeBst::new(4);
        for i in 0..8u16 {
            bst.insert(&mut s, seg(i << 13, 3), entry(i, u32::from(i)))
                .unwrap();
        }
        assert!(matches!(
            bst.flush(&mut s),
            Err(EngineError::Capacity { .. })
        ));
    }

    #[test]
    fn flush_idempotent_when_clean() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0, 0), entry(1, 1)).unwrap();
        bst.flush(&mut s).unwrap();
        let used = bst.used_bits();
        bst.flush(&mut s).unwrap(); // no-op
        assert_eq!(bst.used_bits(), used);
    }

    #[test]
    fn memory_footprint_smaller_than_mbt() {
        // The whole point of BST mode: same content, fewer bits (Table VI).
        use crate::mbt::{MbtConfig, MultiBitTrie};
        let mut s1 = store();
        let mut s2 = store();
        let mut bst = RangeBst::new(256);
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(128));
        for i in 0..100u16 {
            let v = seg(i << 8, 8);
            bst.insert(&mut s1, v, entry(i, u32::from(i))).unwrap();
            FieldEngine::insert(&mut mbt, &mut s2, v, entry(i, u32::from(i))).unwrap();
        }
        bst.flush(&mut s1).unwrap();
        assert!(bst.used_bits() < mbt.used_bits());
        assert!(bst.used_bits() < 8_000, "bst used {} bits", bst.used_bits());
    }

    #[test]
    fn adjacent_disjoint_prefixes() {
        let mut s = store();
        let mut bst = RangeBst::new(32);
        bst.insert(&mut s, seg(0x0000, 2), entry(1, 1)).unwrap(); // [0x0000,0x3fff]
        bst.insert(&mut s, seg(0x4000, 2), entry(2, 2)).unwrap(); // [0x4000,0x7fff]
        bst.flush(&mut s).unwrap();
        assert_eq!(
            bst.lookup(&s, 0x3fff).unwrap().labels.head().unwrap().label,
            Label(1)
        );
        assert_eq!(
            bst.lookup(&s, 0x4000).unwrap().labels.head().unwrap().label,
            Label(2)
        );
        assert!(bst.lookup(&s, 0x8000).unwrap().labels.is_empty());
    }
}
