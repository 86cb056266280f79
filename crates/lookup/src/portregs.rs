//! Register-based port lookup (paper §IV.C, Table IV).
//!
//! Each unique port range occupies one hardware register holding the range
//! bounds and its label; all registers compare against the query in
//! parallel, and a priority encoder orders the matching labels **exact
//! match first, then tightest range** — Table IV's example: for destination
//! port 7812 against `[0,65535]→A`, `[7812,7812]→B`, `[7810,7820]→C` the
//! output order is B, C, A. The whole lookup takes two clock cycles
//! (compare + encode, §V.B) and no block-memory accesses.

use crate::engine::{EngineError, FieldEngine, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::LabelStore;
use spc_types::{DimValue, PortRange};

/// One port match register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortRegister {
    range: PortRange,
    entry: LabelEntry,
}

/// The parallel port-register engine.
///
/// ```
/// use spc_lookup::{PortRegisters, LabelStore, LabelEntry, Label, FieldEngine};
/// use spc_types::{DimValue, PortRange, Priority};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = LabelStore::new("unused", 1, 7);
/// let mut regs = PortRegisters::new(128);
/// regs.insert(&mut store, DimValue::Port(PortRange::exact(443)),
///             LabelEntry::by_priority(Label(0), Priority(0)))?;
/// let r = regs.lookup(&store, 443)?;
/// assert_eq!(r.labels.head().unwrap().label, Label(0));
/// assert_eq!(r.cycles, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PortRegisters {
    regs: Vec<PortRegister>,
    capacity: usize,
    label_bits: u8,
}

impl PortRegisters {
    /// Creates a bank of `capacity` registers (the paper's 7-bit port
    /// labels imply 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "register bank must be non-empty");
        PortRegisters {
            regs: Vec::new(),
            capacity,
            label_bits: 7,
        }
    }

    /// Registers in use.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether no registers are used.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The Table IV ordering key: exact matches first (key 0), then ranges
    /// by tightness (width − 1), so wider ranges sort later and the full
    /// wildcard last.
    fn order_key(range: PortRange) -> u64 {
        u64::from(range.width() - 1)
    }
}

impl FieldEngine for PortRegisters {
    fn insert(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        let DimValue::Port(range) = value else {
            return Err(EngineError::ValueKind { expected: "Port" });
        };
        let entry = LabelEntry::with_order(entry.label, entry.priority, Self::order_key(range));
        if let Some(reg) = self.regs.iter_mut().find(|r| r.range == range) {
            reg.entry = entry; // upsert (priority refresh)
            return Ok(());
        }
        if self.regs.len() >= self.capacity {
            return Err(EngineError::Capacity {
                what: "port registers".into(),
            });
        }
        self.regs.push(PortRegister { range, entry });
        Ok(())
    }

    fn remove(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        label: Label,
    ) -> Result<(), EngineError> {
        let DimValue::Port(range) = value else {
            return Err(EngineError::ValueKind { expected: "Port" });
        };
        let before = self.regs.len();
        self.regs
            .retain(|r| !(r.range == range && r.entry.label == label));
        if self.regs.len() == before {
            return Err(EngineError::NotFound);
        }
        Ok(())
    }

    fn lookup_into(
        &self,
        _store: &LabelStore,
        query: u16,
        out: &mut LabelList,
    ) -> Result<LookupCost, EngineError> {
        out.clear();
        for r in self.regs.iter().filter(|r| r.range.contains(query)) {
            out.insert(r.entry);
        }
        Ok(LookupCost {
            mem_reads: 0,
            cycles: 2,
        })
    }

    /// Register bits: two 16-bit bounds plus the label per register.
    fn provisioned_bits(&self) -> u64 {
        self.capacity as u64 * (16 + 16 + u64::from(self.label_bits))
    }

    fn used_bits(&self) -> u64 {
        self.regs.len() as u64 * (16 + 16 + u64::from(self.label_bits))
    }

    fn writes(&self) -> u64 {
        0 // registers, not block memory
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
        LabelStore::new("unused", 1, 7)
    }

    fn ins(regs: &mut PortRegisters, s: &mut LabelStore, lo: u16, hi: u16, id: u16, p: u32) {
        regs.insert(
            s,
            DimValue::Port(PortRange::new(lo, hi).unwrap()),
            LabelEntry::by_priority(Label(id), Priority(p)),
        )
        .unwrap();
    }

    #[test]
    fn table_iv_ordering() {
        // Paper Table IV: A=[0,65535] range, B=[7812,7812] exact,
        // C=[7810,7820] range; query 7812 must yield B, C, A.
        let mut s = store();
        let mut regs = PortRegisters::new(16);
        ins(&mut regs, &mut s, 0, 65535, 0, 0); // A, highest rule priority
        ins(&mut regs, &mut s, 7812, 7812, 1, 1); // B
        ins(&mut regs, &mut s, 7810, 7820, 2, 2); // C
        let r = regs.lookup(&s, 7812).unwrap();
        let ids: Vec<u16> = r.labels.iter().map(|e| e.label.0).collect();
        assert_eq!(ids, vec![1, 2, 0], "expected B, C, A");
        assert_eq!(r.cycles, 2);
        assert_eq!(r.mem_reads, 0);
    }

    #[test]
    fn non_matching_excluded() {
        let mut s = store();
        let mut regs = PortRegisters::new(16);
        ins(&mut regs, &mut s, 10, 20, 1, 0);
        assert!(regs.lookup(&s, 9).unwrap().labels.is_empty());
        assert!(regs.lookup(&s, 21).unwrap().labels.is_empty());
        assert!(!regs.lookup(&s, 10).unwrap().labels.is_empty());
    }

    #[test]
    fn capacity_and_upsert() {
        let mut s = store();
        let mut regs = PortRegisters::new(1);
        ins(&mut regs, &mut s, 1, 1, 1, 5);
        // Same range: upsert, no growth.
        ins(&mut regs, &mut s, 1, 1, 1, 2);
        assert_eq!(regs.len(), 1);
        let e = regs.insert(
            &mut s,
            DimValue::Port(PortRange::exact(2)),
            LabelEntry::by_priority(Label(2), Priority(0)),
        );
        assert!(matches!(e, Err(EngineError::Capacity { .. })));
    }

    #[test]
    fn remove_register() {
        let mut s = store();
        let mut regs = PortRegisters::new(4);
        ins(&mut regs, &mut s, 5, 10, 1, 0);
        regs.remove(
            &mut s,
            DimValue::Port(PortRange::new(5, 10).unwrap()),
            Label(1),
        )
        .unwrap();
        assert!(regs.is_empty());
        assert!(matches!(
            regs.remove(
                &mut s,
                DimValue::Port(PortRange::new(5, 10).unwrap()),
                Label(1)
            ),
            Err(EngineError::NotFound)
        ));
    }

    #[test]
    fn value_kind_checked() {
        let mut s = store();
        let mut regs = PortRegisters::new(4);
        let e = regs.insert(
            &mut s,
            DimValue::Proto(spc_types::ProtoSpec::Any),
            LabelEntry::by_priority(Label(1), Priority(0)),
        );
        assert!(matches!(
            e,
            Err(EngineError::ValueKind { expected: "Port" })
        ));
    }

    #[test]
    fn bits_accounting() {
        let mut s = store();
        let mut regs = PortRegisters::new(128);
        assert_eq!(regs.provisioned_bits(), 128 * 39);
        ins(&mut regs, &mut s, 1, 1, 1, 0);
        assert_eq!(regs.used_bits(), 39);
    }
}
