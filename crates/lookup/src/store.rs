//! The per-dimension *Labels memory block* (paper §III.D).
//!
//! Every unique rule-field value owns a priority-sorted list of labels...
//! more precisely, every *lookup structure node* points at a list stored in
//! this block. The store is deliberately separate from the lookup engines:
//! §IV.C.2 requires that "the Label memory block for one field can also be
//! stored without any effect on the chosen algorithm combination", which is
//! what lets `IPalg_s` swap MBT for BST without touching label storage.
//!
//! Accounting model: a list of `n` labels occupies `n` words of
//! `label_bits` each (priority is implied by list order in hardware).
//! Reading a whole list costs its length, returned to the caller by value;
//! inserting into / removing from a sorted list rewrites it, which is
//! charged as `new length` writes on [`LabelStore::writes`]. Copying a
//! list ([`LabelStore::copy_list`]) writes the copy, so it costs the
//! list's length; freeing one ([`LabelStore::free_list`]) writes nothing,
//! and the freed pointer is the next one [`LabelStore::alloc_list`] hands
//! out, so the pointer space tracks the lists alive, not the lists ever
//! made.

use crate::label::{Label, LabelEntry, LabelList};
use std::fmt;

/// Pointer to a label list inside a [`LabelStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListPtr(pub u32);

impl fmt::Display for ListPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Error from label-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The store's provisioned entry capacity is exhausted.
    Full {
        /// Store name.
        store: String,
        /// Entry capacity.
        capacity: usize,
    },
    /// A dangling list pointer was dereferenced.
    BadPtr {
        /// Store name.
        store: String,
        /// The pointer.
        ptr: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Full { store, capacity } => {
                write!(f, "label store '{store}' is full ({capacity} entries)")
            }
            StoreError::BadPtr { store, ptr } => {
                write!(f, "dangling list pointer {ptr} in label store '{store}'")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// The Labels memory block of one dimension.
#[derive(Debug)]
pub struct LabelStore {
    name: String,
    label_bits: u8,
    capacity_entries: usize,
    lists: Vec<LabelList>,
    /// Freed list pointers, reused before `lists` grows.
    free: Vec<ListPtr>,
    entries_used: usize,
    writes: u64,
}

impl LabelStore {
    /// Creates a store provisioned for `capacity_entries` label entries of
    /// `label_bits` each.
    ///
    /// # Panics
    ///
    /// Panics if `label_bits` is 0 or `capacity_entries` is 0.
    pub fn new(name: impl Into<String>, capacity_entries: usize, label_bits: u8) -> Self {
        assert!(label_bits > 0, "label width must be positive");
        assert!(capacity_entries > 0, "store capacity must be positive");
        LabelStore {
            name: name.into(),
            label_bits,
            capacity_entries,
            lists: Vec::new(),
            free: Vec::new(),
            entries_used: 0,
            writes: 0,
        }
    }

    /// Store name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Label width in bits.
    pub fn label_bits(&self) -> u8 {
        self.label_bits
    }

    /// Allocates a new, empty list, reusing a freed pointer if there is
    /// one. Cannot fail: entries are the bounded resource, and the lists
    /// alive are bounded by the structure that points at them (one per
    /// trie node or BST interval, each a word of a block with its own
    /// capacity).
    pub fn alloc_list(&mut self) -> ListPtr {
        self.free.pop().unwrap_or_else(|| {
            self.lists.push(LabelList::new());
            ListPtr(self.lists.len() as u32 - 1)
        })
    }

    /// Allocates a list holding a copy of the list at `src`, charging the
    /// words written: its length.
    ///
    /// ```
    /// use spc_lookup::{Label, LabelEntry, LabelStore};
    /// use spc_types::Priority;
    /// let mut s = LabelStore::new("dip_lo", 8, 13);
    /// let a = s.alloc_list();
    /// s.insert(a, LabelEntry::by_priority(Label(1), Priority(1))).unwrap();
    /// s.insert(a, LabelEntry::by_priority(Label(2), Priority(2))).unwrap();
    /// let before = s.writes();
    /// let b = s.copy_list(a).unwrap();
    /// assert!(s.lists_equal(a, b));
    /// assert_eq!((s.writes() - before, s.entries_used()), (2, 4));
    /// s.free_list(b).unwrap();
    /// assert_eq!(s.entries_used(), 2);
    /// assert_eq!(s.alloc_list(), b); // the pointer is recycled
    /// ```
    ///
    /// # Errors
    ///
    /// [`StoreError::Full`] if the copy does not fit the entry capacity
    /// (nothing is allocated or charged); [`StoreError::BadPtr`] on a
    /// dangling pointer.
    pub fn copy_list(&mut self, src: ListPtr) -> Result<ListPtr, StoreError> {
        let copy = self.list(src)?.clone();
        if self.entries_used + copy.len() > self.capacity_entries {
            return Err(self.full());
        }
        self.entries_used += copy.len();
        self.writes += copy.len() as u64;
        let ptr = self.alloc_list();
        self.lists[ptr.0 as usize] = copy;
        Ok(ptr)
    }

    /// Frees the list at `ptr` with whatever it holds: its entries stop
    /// counting, its pointer is recycled, nothing is written.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadPtr`] on a dangling pointer.
    pub fn free_list(&mut self, ptr: ListPtr) -> Result<(), StoreError> {
        debug_assert!(!self.free.contains(&ptr), "double free of list {ptr}");
        let list = self.list_mut(ptr)?;
        let n = list.len();
        list.clear();
        self.entries_used -= n;
        self.free.push(ptr);
        Ok(())
    }

    /// Whether two lists hold the same entries in the same order
    /// (controller-side inspection).
    ///
    /// # Panics
    ///
    /// On a dangling pointer: every pointer an engine holds came from
    /// this store.
    pub fn lists_equal(&self, a: ListPtr, b: ListPtr) -> bool {
        self.lists[a.0 as usize] == self.lists[b.0 as usize]
    }

    fn full(&self) -> StoreError {
        StoreError::Full {
            store: self.name.clone(),
            capacity: self.capacity_entries,
        }
    }

    fn list_mut(&mut self, ptr: ListPtr) -> Result<&mut LabelList, StoreError> {
        // Built lazily: an eager name clone would allocate on every §V.A
        // list edit.
        self.lists
            .get_mut(ptr.0 as usize)
            .ok_or_else(|| StoreError::BadPtr {
                store: self.name.clone(),
                ptr: ptr.0,
            })
    }

    fn list(&self, ptr: ListPtr) -> Result<&LabelList, StoreError> {
        self.lists
            .get(ptr.0 as usize)
            .ok_or_else(|| StoreError::BadPtr {
                store: self.name.clone(),
                ptr: ptr.0,
            })
    }

    /// Inserts (or repositions) an entry in the list at `ptr`, charging a
    /// rewrite of the list.
    ///
    /// # Errors
    ///
    /// [`StoreError::Full`] if the store's entry capacity would be
    /// exceeded; [`StoreError::BadPtr`] on a dangling pointer.
    pub fn insert(&mut self, ptr: ListPtr, entry: LabelEntry) -> Result<(), StoreError> {
        let (cap, used) = (self.capacity_entries, self.entries_used);
        let list = self.list_mut(ptr)?;
        let grows = !list.contains(entry.label);
        if grows && used >= cap {
            return Err(self.full());
        }
        list.insert(entry);
        let n = list.len() as u64;
        if grows {
            self.entries_used += 1;
        }
        self.writes += n;
        Ok(())
    }

    /// Removes a label from the list at `ptr`; charges a rewrite. Returns
    /// whether the label was present.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadPtr`] on a dangling pointer.
    pub fn remove(&mut self, ptr: ListPtr, label: Label) -> Result<bool, StoreError> {
        let list = self.list_mut(ptr)?;
        let removed = list.remove(label);
        let n = list.len() as u64;
        if removed {
            self.entries_used -= 1;
            self.writes += n.max(1);
        }
        Ok(removed)
    }

    /// Reads a whole list by *appending* its entries (already in list
    /// order) to `out`, returning its length: the words the calling
    /// lookup charges (minimum 1 where it dereferences an empty list —
    /// the hardware reads the head to learn that). Allocation-free, behind
    /// `FieldEngine::lookup_into`. Appending to a non-empty `out` breaks
    /// its sort invariant until the caller restores it, which is why
    /// both this method's mutation primitive and the restore are
    /// crate-internal. Panics on a dangling pointer, as
    /// [`LabelStore::lists_equal`].
    pub(crate) fn read_all_into(&self, ptr: ListPtr, out: &mut LabelList) -> u32 {
        let list = &self.lists[ptr.0 as usize];
        out.append_run(list.entries());
        list.len() as u32
    }

    /// Length of a list (controller-side inspection). Panics on a
    /// dangling pointer, as [`LabelStore::lists_equal`].
    pub fn len(&self, ptr: ListPtr) -> usize {
        self.lists[ptr.0 as usize].len()
    }

    /// Clears every list (BST software rebuild). Keeps the write count.
    pub fn clear(&mut self) {
        self.lists.clear();
        self.free.clear();
        self.entries_used = 0;
    }

    /// Total label entries currently stored.
    pub fn entries_used(&self) -> usize {
        self.entries_used
    }

    /// Provisioned capacity in bits.
    pub fn provisioned_bits(&self) -> u64 {
        self.capacity_entries as u64 * u64::from(self.label_bits)
    }

    /// Bits currently occupied.
    pub fn used_bits(&self) -> u64 {
        self.entries_used as u64 * u64::from(self.label_bits)
    }

    /// Label words written since construction. Callers take a
    /// before/after delta around an update.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::Priority;

    fn entry(id: u16, p: u32) -> LabelEntry {
        LabelEntry::by_priority(Label(id), Priority(p))
    }

    #[test]
    fn alloc_insert_read() {
        let mut s = LabelStore::new("sip_hi", 100, 13);
        let p = s.alloc_list();
        s.insert(p, entry(2, 20)).unwrap();
        s.insert(p, entry(1, 10)).unwrap();
        let mut all = LabelList::new();
        assert_eq!(s.read_all_into(p, &mut all), 2);
        assert_eq!(all.head().unwrap().label, Label(1));
        assert_eq!(s.len(p), 2);
        assert_eq!(s.entries_used(), 2);
        assert_eq!(s.used_bits(), 26);
    }

    #[test]
    fn capacity_enforced() {
        let mut s = LabelStore::new("tiny", 1, 7);
        let p = s.alloc_list();
        s.insert(p, entry(1, 1)).unwrap();
        assert!(matches!(
            s.insert(p, entry(2, 2)),
            Err(StoreError::Full { .. })
        ));
        // Re-inserting the same label (priority change) is not growth.
        s.insert(p, entry(1, 0)).unwrap();
    }

    #[test]
    fn remove_frees_entries() {
        let mut s = LabelStore::new("x", 10, 7);
        let p = s.alloc_list();
        s.insert(p, entry(1, 1)).unwrap();
        assert!(s.remove(p, Label(1)).unwrap());
        assert!(!s.remove(p, Label(1)).unwrap());
        assert_eq!(s.entries_used(), 0);
        assert_eq!(s.len(p), 0);
    }

    #[test]
    fn accounting_charges_rewrites() {
        let mut s = LabelStore::new("x", 10, 7);
        let p = s.alloc_list();
        s.insert(p, entry(1, 1)).unwrap(); // 1 write
        s.insert(p, entry(2, 2)).unwrap(); // list len 2 -> 2 writes
        assert_eq!(s.writes(), 3);
        s.remove(p, Label(1)).unwrap(); // list len 1 -> 1 write
        s.remove(p, Label(2)).unwrap(); // emptied: still 1 write
        assert!(!s.remove(p, Label(2)).unwrap()); // absent: no write
        assert_eq!(s.writes(), 5);
    }

    #[test]
    fn list_life_cycle_copies_frees_and_recycles() {
        let mut s = LabelStore::new("x", 5, 7);
        let a = s.alloc_list();
        for (id, p) in [(1, 10), (2, 20)] {
            s.insert(a, entry(id, p)).unwrap();
        }
        let w = s.writes();
        let b = s.copy_list(a).unwrap();
        assert_eq!(s.writes() - w, 2, "a copy writes the list's length");
        assert_eq!(s.entries_used(), 4);
        assert!(s.lists_equal(a, b));
        s.insert(b, entry(3, 5)).unwrap();
        assert!(!s.lists_equal(a, b));
        assert_eq!(s.len(a), 2, "the source is untouched");

        // 5 of 5 entries used: a third copy of `a` does not fit, and
        // leaves nothing behind.
        let w = s.writes();
        assert!(matches!(s.copy_list(a), Err(StoreError::Full { .. })));
        assert_eq!((s.writes(), s.entries_used()), (w, 5));

        s.free_list(b).unwrap();
        assert_eq!((s.writes(), s.entries_used()), (w, 2), "freeing is free");
        assert_eq!(s.alloc_list(), b, "freed pointers are reused");
        assert_eq!(s.len(b), 0, "and come back empty");
        assert_ne!(s.alloc_list(), b);
        assert!(matches!(
            s.free_list(ListPtr(9)),
            Err(StoreError::BadPtr { .. })
        ));
        assert!(matches!(
            s.copy_list(ListPtr(9)),
            Err(StoreError::BadPtr { .. })
        ));
    }

    #[test]
    fn bad_ptr_reported() {
        let mut s = LabelStore::new("x", 10, 7);
        assert!(matches!(
            s.copy_list(ListPtr(3)),
            Err(StoreError::BadPtr { ptr: 3, .. })
        ));
        // The mutable path builds the same error (lazily).
        assert_eq!(
            s.insert(ListPtr(3), entry(1, 1)),
            Err(StoreError::BadPtr {
                store: "x".into(),
                ptr: 3
            })
        );
    }

    #[test]
    fn clear_resets_usage() {
        let mut s = LabelStore::new("x", 10, 7);
        let p = s.alloc_list();
        s.insert(p, entry(1, 1)).unwrap();
        let q = s.alloc_list();
        s.free_list(q).unwrap();
        s.clear();
        assert_eq!(s.entries_used(), 0);
        assert!(s.copy_list(p).is_err(), "no list survives");
        assert_eq!(s.alloc_list(), p, "no freed pointer survives");
    }
}
