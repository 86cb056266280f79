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
//! The tree is balanced **in software** and pushed down on update (§IV.C),
//! so updates are deferred: [`FieldEngine::insert`]/`remove` change the
//! controller's prefix map and log the change, [`FieldEngine::flush`]
//! pushes it down, and lookups in between return [`EngineError::Dirty`].
//! What is pushed down is the *delta*. A new prefix splits at most two
//! intervals — each split copies the split interval's list and opens a
//! word in the sorted array — and enters the list of every interval it
//! covers; a removed prefix leaves those lists, and each of its two
//! boundaries goes (its word closed up) when the lists either side have
//! become equal; a re-prioritised label is rewritten in the lists it sits
//! in. A boundary exists exactly where some prefix starts or ends, and
//! the label of that prefix is in the list on one side only, so the array
//! kept this way is word for word the one a rebuild from the map gives:
//! same reads, same bits. The rebuild is the bulk path — an empty array,
//! or more logged changes than the array has words to patch — and what a
//! flush falls back to when a patch does not fit.
//!
//! The array *floats* in its block: the rebuild places it mid-block, and
//! the block's base register (the physical address of interval 0, see
//! [`MemoryBlock`]) lets a boundary opened or closed move whichever side
//! of the array is shorter, down or up one word, instead of the whole
//! suffix. The search reads logical addresses, so its reads do not
//! change; in hardware the base is one adder in the address path. It is
//! control state like the interval count the search already needs, not
//! a memory word, so `used_bits` and `provisioned_bits` do not count it.

use crate::engine::{EngineError, FieldEngine, LookupCost};
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
/// use spc_lookup::{RangeBst, LabelStore, LabelEntry, LabelList, Label, FieldEngine};
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
/// let mut labels = LabelList::new();
/// bst.lookup_into(&store, 0x9999, &mut labels)?;
/// assert!(labels.contains(Label(3)));
/// bst.lookup_into(&store, 0x7fff, &mut labels)?;
/// assert!(labels.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RangeBst {
    /// Unique prefixes with their current label entry (software shadow —
    /// the controller's view, not charged to hardware memory). Labels are
    /// unique per prefix (the controller allocates one per field value).
    values: BTreeMap<(u16, u8), LabelEntry>,
    intervals: MemoryBlock<IntervalWord>,
    pending: Pending,
}

/// One logged change to `values`, as a flush replays it.
#[derive(Debug, Clone, Copy)]
enum Delta {
    /// The prefix's entry is new, or has a new priority.
    Put(SegPrefix, LabelEntry),
    /// The prefix left; its label goes from the lists it sat in.
    Drop(SegPrefix, Label),
}

/// What the next flush owes the interval array.
#[derive(Debug)]
enum Pending {
    /// The changes since the array was last current, oldest first (none:
    /// the engine is clean). Never longer than the array.
    Patch(Vec<Delta>),
    /// The array is not a base to patch: rebuild it from `values`.
    Rebuild,
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
            pending: Pending::Patch(Vec::new()),
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

    /// Logs one change to `values`. Once the log would outgrow the array
    /// it patches, the flush is a rebuild and the log is dropped.
    fn log(&mut self, delta: Delta) {
        if let Pending::Patch(log) = &mut self.pending {
            if log.len() < self.intervals.len() {
                log.push(delta);
            } else {
                self.pending = Pending::Rebuild;
            }
        }
    }

    /// The rightmost interval whose start is `<= query` and the words the
    /// binary search read to find it. Interval 0 starts at 0, so on a
    /// non-empty array the search always lands somewhere.
    fn locate(&self, query: u16) -> (usize, u32) {
        let words = self.intervals.as_slice();
        let mut reads = 0u32;
        // Invariant: every start below `lo` is <= query, none from `hi` on.
        let (mut lo, mut hi) = (0usize, words.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            reads += 1;
            if words[mid].start <= query {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo.saturating_sub(1), reads)
    }

    /// Makes `at` an interval start: the interval it falls in is split
    /// there, the new upper half taking a copy of its list.
    fn split(&mut self, store: &mut LabelStore, at: u16) -> Result<(), EngineError> {
        let (i, _) = self.locate(at);
        let below = *self.intervals.read(i)?;
        if below.start != at {
            let list = store.copy_list(below.list)?;
            self.intervals
                .shift_insert(i + 1, IntervalWord { start: at, list })?;
        }
        Ok(())
    }

    /// Drops the boundary at `at` if the lists either side of it have
    /// become equal, freeing the upper one.
    fn merge(&mut self, store: &mut LabelStore, at: u16) -> Result<(), EngineError> {
        let (i, _) = self.locate(at);
        if i == 0 {
            return Ok(());
        }
        let (below, above) = (*self.intervals.read(i - 1)?, *self.intervals.read(i)?);
        if above.start == at && store.lists_equal(below.list, above.list) {
            store.free_list(above.list)?;
            self.intervals.shift_remove(i)?;
        }
        Ok(())
    }

    /// Pushes one logged change down to the interval array and the lists
    /// the prefix covers.
    fn patch(&mut self, store: &mut LabelStore, delta: Delta) -> Result<(), EngineError> {
        let (Delta::Put(prefix, _) | Delta::Drop(prefix, _)) = delta;
        // The boundary above the prefix; none when it runs to the top.
        let above = prefix.last().checked_add(1);
        if let Delta::Put(..) = delta {
            self.split(store, prefix.first())?;
            if let Some(at) = above {
                self.split(store, at)?;
            }
        }
        let (first, _) = self.locate(prefix.first());
        let (last, _) = self.locate(prefix.last());
        for i in first..=last {
            let list = self.intervals.read(i)?.list;
            match delta {
                Delta::Put(_, entry) => store.insert(list, entry)?,
                Delta::Drop(_, label) => {
                    store.remove(list, label)?;
                }
            }
        }
        if let Delta::Drop(..) = delta {
            // Upper boundary first: dropping it moves no word below it.
            if let Some(at) = above {
                self.merge(store, at)?;
            }
            self.merge(store, prefix.first())?;
        }
        Ok(())
    }

    /// Rebuilds the interval array and every list from `values`: the bulk
    /// path, and the reference the patched array is held to.
    fn rebuild(&mut self, store: &mut LabelStore) -> Result<(), EngineError> {
        store.clear();
        // Elementary interval boundaries: none for an empty map, else the
        // first interval starts at 0.
        let mut bounds: Vec<u32> = Vec::new();
        for &(value, len) in self.values.keys() {
            let p = SegPrefix::masked(value, len);
            bounds.push(u32::from(p.first()));
            bounds.push(u32::from(p.last()) + 1);
        }
        if !bounds.is_empty() {
            bounds.push(0);
        }
        bounds.retain(|b| *b <= u32::from(u16::MAX));
        bounds.sort_unstable();
        bounds.dedup();
        let starts: Vec<u16> = bounds.iter().map(|b| *b as u16).collect();
        // Mid-block, with free words on both sides for the patches to
        // shift into.
        self.intervals.clear_centred(starts.len());
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
            let ptr = store.alloc_list();
            for (_, entry) in &stack {
                store.insert(ptr, *entry)?;
            }
            self.intervals.alloc(IntervalWord { start, list: ptr })?;
        }
        Ok(())
    }
}

impl FieldEngine for RangeBst {
    fn insert(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        let DimValue::Seg(seg) = value else {
            return Err(EngineError::ValueKind { expected: "Seg" });
        };
        if let Some(old) = self.values.insert((seg.value(), seg.len()), entry) {
            if old.label != entry.label {
                self.log(Delta::Drop(seg, old.label));
            }
        }
        self.log(Delta::Put(seg, entry));
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
                self.log(Delta::Drop(seg, label));
                Ok(())
            }
            _ => Err(EngineError::NotFound),
        }
    }

    fn flush(&mut self, store: &mut LabelStore) -> Result<(), EngineError> {
        // While the array is being worked on it reads as awaiting a
        // rebuild, so no early return leaves it clean and wrong.
        let log = match std::mem::replace(&mut self.pending, Pending::Rebuild) {
            // An emptied engine is zero intervals, which a rebuild leaves.
            Pending::Patch(log) if !self.values.is_empty() => Some(log),
            _ => None,
        };
        let patched = log
            .as_ref()
            .is_some_and(|log| log.iter().try_for_each(|&d| self.patch(store, d)).is_ok());
        if !patched {
            // `values` is the truth: whether it fits is the rebuild's
            // answer, not that of a patch which ran out of room.
            self.rebuild(store)?;
        }
        let mut log = log.unwrap_or_default();
        log.clear();
        self.pending = Pending::Patch(log);
        Ok(())
    }

    fn lookup_into(
        &self,
        store: &LabelStore,
        query: u16,
        out: &mut LabelList,
    ) -> Result<LookupCost, EngineError> {
        out.clear();
        if !matches!(&self.pending, Pending::Patch(log) if log.is_empty()) {
            return Err(EngineError::Dirty);
        }
        if self.intervals.is_empty() {
            return Ok(LookupCost {
                mem_reads: 0,
                cycles: 1,
            });
        }
        let (i, reads) = self.locate(query);
        // One sorted run into an empty list: the invariant holds as-is.
        let list_reads = store
            .read_all_into(self.intervals.as_slice()[i].list, out)
            .max(1);
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
    use crate::engine::tests::lookup;
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
        let (labels, cost) = lookup(&bst, &s, 0).unwrap();
        assert!(labels.is_empty());
        assert_eq!(cost.mem_reads, 0);
    }

    #[test]
    fn dirty_lookup_rejected() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0, 0), entry(1, 1)).unwrap();
        assert!(matches!(lookup(&bst, &s, 0), Err(EngineError::Dirty)));
        bst.flush(&mut s).unwrap();
        assert!(lookup(&bst, &s, 0).is_ok());
    }

    #[test]
    fn nested_prefixes_collect_in_priority_order() {
        let mut s = store();
        let mut bst = RangeBst::new(64);
        bst.insert(&mut s, seg(0xa000, 4), entry(1, 10)).unwrap();
        bst.insert(&mut s, seg(0xa200, 9), entry(2, 5)).unwrap();
        bst.insert(&mut s, seg(0xa234, 16), entry(3, 20)).unwrap();
        bst.flush(&mut s).unwrap();
        let (labels, _) = lookup(&bst, &s, 0xa234).unwrap();
        let ids: Vec<u16> = labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![2, 1, 3]);
        let (labels2, _) = lookup(&bst, &s, 0xa900).unwrap();
        let ids2: Vec<u16> = labels2.iter().map(|e| e.label.0).collect();
        assert_eq!(ids2, vec![1]);
        assert!(lookup(&bst, &s, 0x0001).unwrap().0.is_empty());
    }

    #[test]
    fn wildcard_matches_everything() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0, 0), entry(7, 3)).unwrap();
        bst.flush(&mut s).unwrap();
        for q in [0u16, 0x7fff, 0xffff] {
            assert!(lookup(&bst, &s, q).unwrap().0.contains(Label(7)));
        }
    }

    #[test]
    fn boundaries_are_exact() {
        let mut s = store();
        let mut bst = RangeBst::new(64);
        let p = SegPrefix::masked(0x4000, 3); // [0x4000, 0x5fff]
        bst.insert(&mut s, DimValue::Seg(p), entry(4, 0)).unwrap();
        bst.flush(&mut s).unwrap();
        assert!(lookup(&bst, &s, 0x4000).unwrap().0.contains(Label(4)));
        assert!(lookup(&bst, &s, 0x5fff).unwrap().0.contains(Label(4)));
        assert!(!lookup(&bst, &s, 0x3fff).unwrap().0.contains(Label(4)));
        assert!(!lookup(&bst, &s, 0x6000).unwrap().0.contains(Label(4)));
        // An empty interval's list still costs its head read: the search
        // walk plus one, exactly the cycle count.
        let (miss, cost) = lookup(&bst, &s, 0x3fff).unwrap();
        assert!(miss.is_empty());
        assert_eq!(cost.mem_reads, cost.cycles);
    }

    #[test]
    fn remove_then_flush() {
        let mut s = store();
        let mut bst = RangeBst::new(16);
        bst.insert(&mut s, seg(0x8000, 1), entry(1, 1)).unwrap();
        bst.flush(&mut s).unwrap();
        bst.remove(&mut s, seg(0x8000, 1), Label(1)).unwrap();
        bst.flush(&mut s).unwrap();
        assert!(lookup(&bst, &s, 0xffff).unwrap().0.is_empty());
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
        let (labels, cost) = lookup(&bst, &s, 0x1234).unwrap();
        assert!(cost.cycles <= bst.depth() + 1);
        assert!(!labels.is_empty());
        // Paper Table VI territory: ~16 accesses per packet at scale.
        assert!(cost.mem_reads <= 16, "reads {}", cost.mem_reads);
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
        // A flush that failed has not made the engine clean: it answers
        // `Dirty`, not an empty list, until a flush of a set that fits.
        assert!(matches!(lookup(&bst, &s, 0), Err(EngineError::Dirty)));
        assert!(bst.flush(&mut s).is_err());
        for i in 3..8u16 {
            bst.remove(&mut s, seg(i << 13, 3), Label(i)).unwrap();
        }
        bst.flush(&mut s).unwrap();
        assert!(lookup(&bst, &s, 2 << 13).unwrap().0.contains(Label(2)));
    }

    /// Everything a lookup can see, at every value a boundary could sit.
    fn observe(bst: &RangeBst, s: &LabelStore) -> impl PartialEq + std::fmt::Debug {
        let answers: Vec<_> = (0..=u16::MAX)
            .step_by(0x0800)
            .flat_map(|q| [q, q.wrapping_sub(1)])
            .map(|q| lookup(bst, s, q).unwrap())
            .collect();
        (answers, bst.used_bits(), s.used_bits(), s.entries_used())
    }

    #[test]
    fn a_patch_charges_the_words_it_moves() {
        let mut s = store();
        let mut bst = RangeBst::new(64);
        // Intervals 0 | 0x4000 | 0x8000 | 0xc000, lists [] [1] [] [2].
        bst.insert(&mut s, seg(0x4000, 2), entry(1, 1)).unwrap();
        bst.insert(&mut s, seg(0xc000, 2), entry(2, 2)).unwrap();
        bst.flush(&mut s).unwrap();
        assert_eq!(bst.used_bits(), 4 * 29);
        let (w_iv, w_ls) = (bst.writes(), s.writes());

        // 0x5000/4 splits [0x4000, 0x7fff] twice. First split: 2 words
        // move, 1 is written, the list [1] is copied (1 word). Second:
        // the same again. Then label 3 enters one list of length 2.
        bst.insert(&mut s, seg(0x5000, 4), entry(3, 0)).unwrap();
        bst.flush(&mut s).unwrap();
        assert_eq!(bst.writes() - w_iv, (2 + 1) + (2 + 1));
        assert_eq!(s.writes() - w_ls, 1 + 1 + 2);
        assert_eq!(bst.used_bits(), 6 * 29);

        // Dropping it: one list rewritten (1 word), then the boundary at
        // 0x6000 goes (2 words move down) and the one at 0x5000 (2 more);
        // the two freed lists cost nothing.
        let (w_iv, w_ls) = (bst.writes(), s.writes());
        bst.remove(&mut s, seg(0x5000, 4), Label(3)).unwrap();
        bst.flush(&mut s).unwrap();
        assert_eq!(bst.writes() - w_iv, 2 + 2);
        assert_eq!(s.writes() - w_ls, 1);
        assert_eq!((bst.used_bits(), s.entries_used()), (4 * 29, 2));

        // A new priority for label 1 is one rewrite of the one list it
        // sits in, and no interval word.
        let (w_iv, w_ls) = (bst.writes(), s.writes());
        bst.insert(&mut s, seg(0x4000, 2), entry(1, 9)).unwrap();
        bst.flush(&mut s).unwrap();
        assert_eq!((bst.writes() - w_iv, s.writes() - w_ls), (0, 1));
    }

    #[test]
    fn a_patch_that_does_not_fit_leaves_a_rebuild_pending() {
        // (interval words, label entries) provisioned, and the prefix
        // whose patch runs out of them: at the first split, at the second,
        // at a list copy, and at the third of four covered lists.
        for (words, entries, offender) in [
            (4, 64, seg(0x1000, 4)),
            (5, 64, seg(0x1000, 4)),
            (64, 4, seg(0x1000, 4)),
            (64, 6, seg(0, 0)),
        ] {
            let what = format!("{words} words, {entries} entries");
            let mut s = LabelStore::new("small", entries, 13);
            let mut bst = RangeBst::new(words);
            // Intervals 0 | 0x4000 | 0x8000 | 0xc000, lists [1] [1,2] [] [3].
            bst.insert(&mut s, seg(0x0000, 1), entry(1, 1)).unwrap();
            bst.insert(&mut s, seg(0x4000, 2), entry(2, 2)).unwrap();
            bst.insert(&mut s, seg(0xc000, 2), entry(3, 3)).unwrap();
            bst.flush(&mut s).unwrap();
            let before = observe(&bst, &s);

            bst.insert(&mut s, offender, entry(9, 0)).unwrap();
            assert!(
                matches!(bst.flush(&mut s), Err(EngineError::Capacity { .. })),
                "{what}"
            );
            assert!(
                matches!(lookup(&bst, &s, 0), Err(EngineError::Dirty)),
                "{what}"
            );
            assert!(bst.flush(&mut s).is_err(), "{what}: still does not fit");
            // The caller takes the change back; the next flush rebuilds
            // to exactly the engine there was.
            bst.remove(&mut s, offender, Label(9)).unwrap();
            bst.flush(&mut s).unwrap();
            assert_eq!(observe(&bst, &s), before, "{what}");
        }
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
            lookup(&bst, &s, 0x3fff).unwrap().0.head().unwrap().label,
            Label(1)
        );
        assert_eq!(
            lookup(&bst, &s, 0x4000).unwrap().0.head().unwrap().label,
            Label(2)
        );
        assert!(lookup(&bst, &s, 0x8000).unwrap().0.is_empty());
    }
}
