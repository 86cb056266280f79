//! The DCFL label method (paper §III.C): labels, label lists and
//! width-checked label allocation.

use spc_types::Priority;
use std::fmt;

/// A label tagging one unique rule-field value within one dimension.
///
/// Labels are plain small integers; their bit width is an architectural
/// parameter ([`LabelWidths`]) that bounds how many unique field values a
/// dimension can hold (13 bits for IP segments, 7 for ports, 2 for protocol
/// in the paper's prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label(pub u16);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A label together with its list-ordering key.
///
/// `priority` is the best (numerically smallest) [`Priority`] among the
/// rules currently using the label — the controller keeps it current so
/// that the first entry of every list is the Highest Priority Matching
/// Label (HPML). `order` is the dimension-specific sort key: rule priority
/// for IP and protocol dimensions; *exact-before-tightest-range* for port
/// dimensions (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelEntry {
    /// The label.
    pub label: Label,
    /// Best rule priority currently using this label.
    pub priority: Priority,
    /// List ordering key (smaller sorts first).
    pub order: u64,
}

impl LabelEntry {
    /// An entry ordered directly by rule priority (IP / protocol lists).
    pub fn by_priority(label: Label, priority: Priority) -> Self {
        LabelEntry {
            label,
            priority,
            order: u64::from(priority.0),
        }
    }

    /// An entry with an explicit order key (port lists).
    pub fn with_order(label: Label, priority: Priority, order: u64) -> Self {
        LabelEntry {
            label,
            priority,
            order,
        }
    }
}

/// A list of labels kept sorted by `order` (then label id for determinism).
///
/// The invariant mirrors the hardware Label memory: the head of the list is
/// the HPML, so the combination phase can consume only the first element
/// (paper §III.B phase 3).
///
/// ```
/// use spc_lookup::{Label, LabelEntry, LabelList};
/// use spc_types::Priority;
/// let mut l = LabelList::new();
/// l.insert(LabelEntry::by_priority(Label(2), Priority(5)));
/// l.insert(LabelEntry::by_priority(Label(1), Priority(0)));
/// assert_eq!(l.head().unwrap().label, Label(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelList {
    entries: Vec<LabelEntry>,
}

impl LabelList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LabelList {
            entries: Vec::new(),
        }
    }

    /// Number of labels in the list.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The highest-priority entry (HPML), if any.
    pub fn head(&self) -> Option<&LabelEntry> {
        self.entries.first()
    }

    /// The entries in order.
    pub fn entries(&self) -> &[LabelEntry] {
        &self.entries
    }

    /// Iterates the entries in order.
    pub fn iter(&self) -> std::slice::Iter<'_, LabelEntry> {
        self.entries.iter()
    }

    /// Removes every entry, keeping the allocation — the scratch-reuse
    /// primitive behind `FieldEngine::lookup_into`.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends already-sorted entries *without* restoring the global sort
    /// invariant. Engine lookups use this to gather per-level runs into a
    /// caller-owned list; they must call [`LabelList::restore_sorted`]
    /// before the list escapes (crate-internal so the invariant cannot
    /// leak).
    pub(crate) fn append_run(&mut self, entries: &[LabelEntry]) {
        self.entries.extend_from_slice(entries);
    }

    /// Re-establishes the `(order, label)` sort invariant after one or
    /// more [`LabelList::append_run`] calls. `sort_unstable` so no
    /// allocation happens on the lookup hot path.
    pub(crate) fn restore_sorted(&mut self) {
        self.entries.sort_unstable_by_key(|e| (e.order, e.label.0));
    }

    /// Inserts an entry, keeping order. If the label is already present its
    /// entry is replaced (upsert), preserving the list invariant.
    pub fn insert(&mut self, e: LabelEntry) {
        self.entries.retain(|x| x.label != e.label);
        let pos = self
            .entries
            .partition_point(|x| (x.order, x.label.0) < (e.order, e.label.0));
        self.entries.insert(pos, e);
    }

    /// Removes a label; returns whether it was present.
    pub fn remove(&mut self, label: Label) -> bool {
        let before = self.entries.len();
        self.entries.retain(|x| x.label != label);
        self.entries.len() != before
    }

    /// Whether the label is present.
    pub fn contains(&self, label: Label) -> bool {
        self.entries.iter().any(|x| x.label == label)
    }
}

impl FromIterator<LabelEntry> for LabelList {
    fn from_iter<T: IntoIterator<Item = LabelEntry>>(iter: T) -> Self {
        let mut l = LabelList::new();
        for e in iter {
            l.insert(e);
        }
        l
    }
}

impl<'a> IntoIterator for &'a LabelList {
    type Item = &'a LabelEntry;
    type IntoIter = std::slice::Iter<'a, LabelEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Per-dimension label bit widths (paper §IV.C.1: 13 / 7 / 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelWidths {
    /// Width of IP-segment labels.
    pub ip: u8,
    /// Width of port labels.
    pub port: u8,
    /// Width of protocol labels.
    pub proto: u8,
}

impl LabelWidths {
    /// The paper's prototype widths: IP 13, port 7, protocol 2 bits.
    pub const PAPER: LabelWidths = LabelWidths {
        ip: 13,
        port: 7,
        proto: 2,
    };

    /// Merged-key width: 4 IP labels + 2 port labels + 1 protocol label
    /// (68 bits for the paper values).
    pub fn key_bits(self) -> u32 {
        4 * u32::from(self.ip) + 2 * u32::from(self.port) + u32::from(self.proto)
    }
}

impl Default for LabelWidths {
    fn default() -> Self {
        LabelWidths::PAPER
    }
}

/// Error from label allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LabelError {
    /// The dimension ran out of label space (`2^width` values).
    Exhausted {
        /// Label width in bits.
        width: u8,
    },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::Exhausted { width } => {
                write!(f, "label space exhausted ({}-bit labels)", width)
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// Allocates labels of a fixed bit width with a free list, so deleted
/// labels are recycled (paper §IV.A: a label is deleted from the hardware
/// only when its counter reaches zero).
#[derive(Debug, Clone)]
pub struct LabelAllocator {
    width: u8,
    /// Labels ever handed out; `2^width` of them at width 16 is one past
    /// `u16::MAX`.
    next: u32,
    free: Vec<Label>,
}

impl LabelAllocator {
    /// Creates an allocator for `width`-bit labels.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 16`.
    pub fn new(width: u8) -> Self {
        assert!(
            (1..=16).contains(&width),
            "label width must be in 1..=16, got {width}"
        );
        LabelAllocator {
            width,
            next: 0,
            free: Vec::new(),
        }
    }

    /// Label capacity (`2^width`).
    pub fn capacity(&self) -> usize {
        1usize << self.width
    }

    /// Labels currently live.
    pub fn live(&self) -> usize {
        self.next as usize - self.free.len()
    }

    /// Allocates a fresh label.
    ///
    /// # Errors
    ///
    /// Returns [`LabelError::Exhausted`] when all `2^width` labels are live.
    pub fn alloc(&mut self) -> Result<Label, LabelError> {
        if let Some(l) = self.free.pop() {
            return Ok(l);
        }
        if self.next as usize >= self.capacity() {
            return Err(LabelError::Exhausted { width: self.width });
        }
        // Below `2^width <= 2^16`, so the label fits.
        let l = Label(self.next as u16);
        self.next += 1;
        Ok(l)
    }

    /// Returns a label to the pool.
    pub fn free(&mut self, label: Label) {
        debug_assert!(!self.free.contains(&label), "double free of {label}");
        self.free.push(label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_keeps_priority_order() {
        let mut l = LabelList::new();
        for (id, p) in [(3u16, 30u32), (1, 10), (2, 20)] {
            l.insert(LabelEntry::by_priority(Label(id), Priority(p)));
        }
        let ids: Vec<u16> = l.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(l.head().unwrap().label, Label(1));
    }

    #[test]
    fn list_upsert_replaces() {
        let mut l = LabelList::new();
        l.insert(LabelEntry::by_priority(Label(1), Priority(10)));
        l.insert(LabelEntry::by_priority(Label(2), Priority(5)));
        // Label 1 improves to priority 1: must move to the head.
        l.insert(LabelEntry::by_priority(Label(1), Priority(1)));
        assert_eq!(l.len(), 2);
        assert_eq!(l.head().unwrap().label, Label(1));
        assert_eq!(l.head().unwrap().priority, Priority(1));
    }

    #[test]
    fn list_remove() {
        let mut l = LabelList::new();
        l.insert(LabelEntry::by_priority(Label(1), Priority(1)));
        assert!(l.remove(Label(1)));
        assert!(!l.remove(Label(1)));
        assert!(l.is_empty());
    }

    #[test]
    fn order_key_overrides_priority_for_ports() {
        // Table IV: exact match (order 0) sorts before a tight range even if
        // the range belongs to a higher-priority rule.
        let mut l = LabelList::new();
        l.insert(LabelEntry::with_order(Label(10), Priority(0), 1 << 20)); // range
        l.insert(LabelEntry::with_order(Label(11), Priority(9), 0)); // exact
        assert_eq!(l.head().unwrap().label, Label(11));
    }

    #[test]
    fn allocator_alloc_free_recycle() {
        let mut a = LabelAllocator::new(2);
        let l0 = a.alloc().unwrap();
        let l1 = a.alloc().unwrap();
        assert_ne!(l0, l1);
        assert_eq!(a.live(), 2);
        a.free(l0);
        assert_eq!(a.live(), 1);
        let l0b = a.alloc().unwrap();
        assert_eq!(l0b, l0);
    }

    #[test]
    fn allocator_exhaustion() {
        let mut a = LabelAllocator::new(1);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert!(matches!(a.alloc(), Err(LabelError::Exhausted { width: 1 })));
    }

    #[test]
    fn allocator_exhausts_all_sixteen_bits_without_wrapping() {
        let mut a = LabelAllocator::new(16);
        for want in 0..=u16::MAX {
            assert_eq!(a.alloc().unwrap(), Label(want));
        }
        assert_eq!(a.live(), 1 << 16);
        assert!(matches!(
            a.alloc(),
            Err(LabelError::Exhausted { width: 16 })
        ));
    }

    #[test]
    fn paper_key_is_68_bits() {
        assert_eq!(LabelWidths::PAPER.key_bits(), 68);
    }

    #[test]
    #[should_panic(expected = "label width")]
    fn allocator_rejects_wide() {
        let _ = LabelAllocator::new(17);
    }
}
