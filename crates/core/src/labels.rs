//! The controller-side label tables (paper §IV.A, Fig 4).
//!
//! For each dimension the software controller keeps a table mapping unique
//! field values to labels, each with a **reference counter** for fast
//! incremental update: inserting a rule whose field value already has a
//! label only bumps the counter; a label leaves the hardware only when its
//! counter returns to zero. The table also tracks the best (lowest) rule
//! priority per label so the hardware lists can be kept HPML-first.

use spc_lookup::{Label, LabelAllocator, LabelError};
use spc_types::{DimValue, Priority};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Controller state for one label.
///
/// The users' priorities are a multiset beside a cached best, so reading
/// the best never walks the multiset. An insert only queues its user's
/// priority in a pending run; a remove settles the state it touches
/// first, turning the run into multiset counts in one sorted pass. So a
/// bulk load ([`Classifier::load`](crate::Classifier::load)) builds no
/// multiset, and the first remove of a label that many rules share
/// after one sorts all their priorities.
#[derive(Debug, Clone)]
pub struct LabelState {
    /// The hardware label.
    pub label: Label,
    /// How many installed rules use this field value.
    pub refcount: usize,
    /// Best (numerically smallest) priority among users.
    best: Priority,
    /// Multiset of user priorities (key = priority value, value = count),
    /// less those still in `pending`.
    priorities: BTreeMap<u32, usize>,
    /// Priorities of users inserted since the last settle, in arrival
    /// order.
    pending: Vec<u32>,
}

impl LabelState {
    /// Best (numerically smallest) priority among users. A live state
    /// always has one: the table removes a state the moment its refcount
    /// reaches zero.
    pub fn best_priority(&self) -> Priority {
        self.best
    }

    /// Folds the pending run into the multiset: sorted, then one count
    /// per distinct priority. The run keeps its buffer for the inserts
    /// after it, so an insert and a remove of one rule allocate nothing
    /// here once a label has seen a user.
    fn settle(&mut self) {
        self.pending.sort_unstable();
        let mut rest = &self.pending[..];
        while let [priority, ..] = *rest {
            let n = rest.partition_point(|&p| p == priority);
            *self.priorities.entry(priority).or_insert(0) += n;
            rest = &rest[n..];
        }
        self.pending.clear();
    }
}

/// Outcome of a label-table insert (drives what the hardware must do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// New label created; the engine must store the value.
    Created {
        /// The fresh label.
        label: Label,
    },
    /// Existing label; only the counter changed.
    Referenced {
        /// The existing label.
        label: Label,
        /// Whether the best priority improved (lists must be reordered).
        priority_improved: bool,
    },
}

impl InsertOutcome {
    /// The label regardless of outcome.
    pub fn label(self) -> Label {
        match self {
            InsertOutcome::Created { label } => label,
            InsertOutcome::Referenced { label, .. } => label,
        }
    }
}

/// Outcome of a label-table remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveOutcome {
    /// Counter hit zero: the engine must delete the value and the label is
    /// freed.
    Freed {
        /// The freed label.
        label: Label,
    },
    /// Still referenced.
    Dereferenced {
        /// The label.
        label: Label,
        /// New best priority if it regressed (lists must be reordered).
        new_best: Option<Priority>,
    },
}

/// One dimension's label table: field value → [`LabelState`], and the
/// allocator its labels come from. An insert queues its priority in the
/// state's pending run; a remove settles that run before it counts.
#[derive(Debug)]
pub struct LabelTable {
    map: HashMap<DimValue, LabelState>,
    alloc: LabelAllocator,
}

impl LabelTable {
    /// Creates a table allocating `width`-bit labels.
    pub fn new(width: u8) -> Self {
        LabelTable {
            map: HashMap::new(),
            alloc: LabelAllocator::new(width),
        }
    }

    /// Number of live labels (unique field values).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no labels are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the state for a value.
    pub fn get(&self, value: &DimValue) -> Option<&LabelState> {
        self.map.get(value)
    }

    /// Iterates `(value, state)` pairs (for engine reloads).
    pub fn iter(&self) -> impl Iterator<Item = (&DimValue, &LabelState)> {
        self.map.iter()
    }

    /// Registers a rule's use of `value` at `priority` (Fig 4). The
    /// priority joins the label's pending run, which the label's next
    /// remove settles.
    ///
    /// # Errors
    ///
    /// Returns [`LabelError::Exhausted`] when the dimension's label space
    /// is full.
    pub fn insert(
        &mut self,
        value: DimValue,
        priority: Priority,
    ) -> Result<InsertOutcome, LabelError> {
        let (state, created) = match self.map.entry(value) {
            Entry::Occupied(e) => (e.into_mut(), false),
            Entry::Vacant(e) => {
                let state = LabelState {
                    label: self.alloc.alloc()?,
                    refcount: 0,
                    best: priority,
                    priorities: BTreeMap::new(),
                    pending: Vec::new(),
                };
                (e.insert(state), true)
            }
        };
        state.refcount += 1;
        state.pending.push(priority.0);
        if created {
            return Ok(InsertOutcome::Created { label: state.label });
        }
        let improved = priority.beats(state.best);
        if improved {
            state.best = priority;
        }
        Ok(InsertOutcome::Referenced {
            label: state.label,
            priority_improved: improved,
        })
    }

    /// Releases one use of `value` at `priority`. Returns `None` when the
    /// value was not registered (controller bug or double delete).
    pub fn remove(&mut self, value: &DimValue, priority: Priority) -> Option<RemoveOutcome> {
        let state = self.map.get_mut(value)?;
        state.settle();
        match state.priorities.get_mut(&priority.0) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    state.priorities.remove(&priority.0);
                }
            }
            _ => return None,
        }
        state.refcount -= 1;
        if state.refcount == 0 {
            let label = state.label;
            self.map.remove(value);
            self.alloc.free(label);
            return Some(RemoveOutcome::Freed { label });
        }
        let old_best = state.best;
        if let Some(&best) = state.priorities.keys().next() {
            state.best = Priority(best);
        }
        Some(RemoveOutcome::Dereferenced {
            label: state.label,
            new_best: (state.best != old_best).then_some(state.best),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_classbench::{FilterKind, RuleSetGenerator};
    use spc_types::{PortRange, Rule, SegPrefix};
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    /// The words a value's `Hash` writes.
    fn hashed_words(value: DimValue) -> Vec<u64> {
        struct Capture(Vec<u64>);
        impl Hasher for Capture {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                panic!("a DimValue writes whole words, not {bytes:?}");
            }
            fn write_u64(&mut self, word: u64) {
                self.0.push(word);
            }
        }
        let mut capture = Capture(Vec::new());
        value.hash(&mut capture);
        capture.0
    }

    #[test]
    fn value_words_are_distinct_over_generated_sets() {
        // The table keys on a value's one hashed word: two values a
        // generated set holds apart must not share it.
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            let rules = RuleSetGenerator::new(kind, 4096).seed(3).generate();
            let values: HashSet<DimValue> =
                rules.rules().iter().flat_map(Rule::dim_values).collect();
            let words: HashSet<u64> = values
                .iter()
                .map(|&v| match hashed_words(v)[..] {
                    [word] => word,
                    ref words => panic!("{v:?} wrote {words:?}"),
                })
                .collect();
            assert_eq!(words.len(), values.len(), "{kind:?}");
        }
    }

    fn seg(v: u16, l: u8) -> DimValue {
        DimValue::Seg(SegPrefix::masked(v, l))
    }

    #[test]
    fn create_then_reference() {
        let mut t = LabelTable::new(7);
        let o1 = t.insert(seg(0x0a00, 8), Priority(5)).unwrap();
        assert!(matches!(o1, InsertOutcome::Created { .. }));
        let o2 = t.insert(seg(0x0a00, 8), Priority(9)).unwrap();
        match o2 {
            InsertOutcome::Referenced {
                label,
                priority_improved,
            } => {
                assert_eq!(label, o1.label());
                assert!(!priority_improved);
            }
            _ => panic!("expected referenced"),
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&seg(0x0a00, 8)).unwrap().refcount, 2);
    }

    #[test]
    fn priority_improvement_detected() {
        let mut t = LabelTable::new(7);
        t.insert(seg(1, 16), Priority(10)).unwrap();
        let o = t.insert(seg(1, 16), Priority(2)).unwrap();
        assert!(matches!(
            o,
            InsertOutcome::Referenced {
                priority_improved: true,
                ..
            }
        ));
        assert_eq!(t.get(&seg(1, 16)).unwrap().best_priority(), Priority(2));
    }

    #[test]
    fn remove_frees_only_at_zero() {
        let mut t = LabelTable::new(7);
        let label = t.insert(seg(1, 16), Priority(1)).unwrap().label();
        t.insert(seg(1, 16), Priority(2)).unwrap();
        let r1 = t.remove(&seg(1, 16), Priority(1)).unwrap();
        match r1 {
            RemoveOutcome::Dereferenced { new_best, .. } => {
                assert_eq!(new_best, Some(Priority(2)));
            }
            _ => panic!("expected dereferenced"),
        }
        let r2 = t.remove(&seg(1, 16), Priority(2)).unwrap();
        assert!(matches!(r2, RemoveOutcome::Freed { label: l } if l == label));
        assert!(t.is_empty());
        // Freed label is recycled.
        assert_eq!(t.insert(seg(2, 16), Priority(0)).unwrap().label(), label);
    }

    #[test]
    fn remove_unknown_returns_none() {
        let mut t = LabelTable::new(7);
        assert!(t.remove(&seg(1, 16), Priority(0)).is_none());
        t.insert(seg(1, 16), Priority(5)).unwrap();
        // Wrong priority multiset entry.
        assert!(t.remove(&seg(1, 16), Priority(6)).is_none());
    }

    #[test]
    fn equal_priorities_dont_report_regression() {
        let mut t = LabelTable::new(7);
        t.insert(seg(1, 16), Priority(3)).unwrap();
        t.insert(seg(1, 16), Priority(3)).unwrap();
        let r = t.remove(&seg(1, 16), Priority(3)).unwrap();
        assert!(matches!(
            r,
            RemoveOutcome::Dereferenced { new_best: None, .. }
        ));
    }

    #[test]
    fn exhaustion_surfaces() {
        let mut t = LabelTable::new(1);
        t.insert(seg(0, 16), Priority(0)).unwrap();
        t.insert(seg(1, 16), Priority(0)).unwrap();
        assert!(t.insert(seg(2, 16), Priority(0)).is_err());
        // But referencing an existing value is fine.
        assert!(t.insert(seg(0, 16), Priority(1)).is_ok());
    }

    #[test]
    fn distinct_value_kinds_coexist() {
        let mut t = LabelTable::new(7);
        t.insert(DimValue::Port(PortRange::exact(80)), Priority(0))
            .unwrap();
        t.insert(DimValue::Port(PortRange::ANY), Priority(1))
            .unwrap();
        assert_eq!(t.len(), 2);
    }
}
