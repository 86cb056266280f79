//! Direct-indexed protocol lookup table (paper §IV.C).
//!
//! "In the Algorithm memory block, a simple Look-Up Table is utilized for
//! Protocol. The protocol value addresses the table where the label is
//! contained." A wildcard protocol rule lives in a side register; exact
//! labels order before the wildcard (§IV.C.1: "the priority label for
//! Protocol lookup is determined by the exact matching value"). Lookup is
//! a single clock cycle (§V.B).

use crate::engine::{EngineError, FieldEngine, LookupCost};
use crate::label::{Label, LabelEntry, LabelList};
use crate::store::LabelStore;
use spc_hwsim::MemoryBlock;
use spc_types::{DimValue, ProtoSpec};

/// Order key of exact protocol labels (sorts before the wildcard).
const EXACT_ORDER: u64 = 0;
/// Order key of the wildcard protocol label.
const ANY_ORDER: u64 = 1;

/// The 256-entry protocol LUT engine.
///
/// ```
/// use spc_lookup::{ProtocolLut, LabelStore, LabelEntry, Label, FieldEngine};
/// use spc_types::{DimValue, ProtoSpec, Priority};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = LabelStore::new("unused", 1, 2);
/// let mut lut = ProtocolLut::new();
/// lut.insert(&mut store, DimValue::Proto(ProtoSpec::Exact(6)),
///            LabelEntry::by_priority(Label(0), Priority(0)))?;
/// let r = lut.lookup(&store, 6)?;
/// assert_eq!(r.cycles, 1);
/// assert!(r.labels.contains(Label(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProtocolLut {
    table: MemoryBlock<Option<LabelEntry>>,
    any: Option<LabelEntry>,
    label_bits: u8,
}

impl ProtocolLut {
    /// Creates an empty LUT (256 words pre-allocated — it is a direct
    /// table, not an allocated structure).
    #[allow(clippy::expect_used)] // exactly 256 words provisioned above
    pub fn new() -> Self {
        let label_bits = 2u8; // paper width; entry also needs a valid bit
        let mut table = MemoryBlock::new("proto_lut", 256, u32::from(label_bits) + 1);
        for _ in 0..256 {
            table.alloc(None).expect("256 words provisioned");
        }
        ProtocolLut {
            table,
            any: None,
            label_bits,
        }
    }
}

impl Default for ProtocolLut {
    fn default() -> Self {
        ProtocolLut::new()
    }
}

impl FieldEngine for ProtocolLut {
    fn insert(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError> {
        let DimValue::Proto(spec) = value else {
            return Err(EngineError::ValueKind { expected: "Proto" });
        };
        match spec {
            ProtoSpec::Exact(v) => {
                let e = LabelEntry::with_order(entry.label, entry.priority, EXACT_ORDER);
                self.table.write(usize::from(v), Some(e))?;
            }
            ProtoSpec::Any => {
                self.any = Some(LabelEntry::with_order(
                    entry.label,
                    entry.priority,
                    ANY_ORDER,
                ));
            }
        }
        Ok(())
    }

    fn remove(
        &mut self,
        _store: &mut LabelStore,
        value: DimValue,
        label: Label,
    ) -> Result<(), EngineError> {
        let DimValue::Proto(spec) = value else {
            return Err(EngineError::ValueKind { expected: "Proto" });
        };
        match spec {
            ProtoSpec::Exact(v) => {
                let addr = usize::from(v);
                match self.table.read(addr).ok().copied().flatten() {
                    Some(e) if e.label == label => {
                        self.table.write(addr, None)?;
                        Ok(())
                    }
                    _ => Err(EngineError::NotFound),
                }
            }
            ProtoSpec::Any => match self.any {
                Some(e) if e.label == label => {
                    self.any = None;
                    Ok(())
                }
                _ => Err(EngineError::NotFound),
            },
        }
    }

    fn lookup_into(
        &self,
        _store: &LabelStore,
        query: u16,
        out: &mut LabelList,
    ) -> Result<LookupCost, EngineError> {
        out.clear();
        // Words 0..=255 exist from construction: only a query past
        // 0xff misses the table.
        if let Some(&Some(e)) = self.table.as_slice().get(usize::from(query)) {
            out.insert(e);
        }
        if let Some(e) = self.any {
            out.insert(e);
        }
        Ok(LookupCost {
            mem_reads: 1,
            cycles: 1,
        })
    }

    fn provisioned_bits(&self) -> u64 {
        self.table.capacity_bits() + u64::from(self.label_bits) + 1
    }

    fn used_bits(&self) -> u64 {
        // A direct table is fully provisioned; "used" equals provisioned.
        self.provisioned_bits()
    }

    fn writes(&self) -> u64 {
        self.table.writes()
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
        LabelStore::new("unused", 1, 2)
    }

    fn entry(id: u16, p: u32) -> LabelEntry {
        LabelEntry::by_priority(Label(id), Priority(p))
    }

    #[test]
    fn exact_before_wildcard() {
        let mut s = store();
        let mut lut = ProtocolLut::new();
        lut.insert(&mut s, DimValue::Proto(ProtoSpec::Any), entry(0, 0))
            .unwrap();
        lut.insert(&mut s, DimValue::Proto(ProtoSpec::Exact(6)), entry(1, 9))
            .unwrap();
        let r = lut.lookup(&s, 6).unwrap();
        let ids: Vec<u16> = r.labels.iter().map(|e| e.label.0).collect();
        // Exact label first despite worse rule priority (§IV.C.1).
        assert_eq!(ids, vec![1, 0]);
        // Other protocols see only the wildcard.
        let r2 = lut.lookup(&s, 17).unwrap();
        assert_eq!(r2.labels.len(), 1);
        assert_eq!(r2.labels.head().unwrap().label, Label(0));
    }

    #[test]
    fn single_cycle_single_access() {
        let mut s = store();
        let mut lut = ProtocolLut::new();
        lut.insert(&mut s, DimValue::Proto(ProtoSpec::Exact(17)), entry(1, 0))
            .unwrap();
        let r = lut.lookup(&s, 17).unwrap();
        assert_eq!(r.cycles, 1);
        assert_eq!(r.mem_reads, 1);
    }

    #[test]
    fn remove_semantics() {
        let mut s = store();
        let mut lut = ProtocolLut::new();
        lut.insert(&mut s, DimValue::Proto(ProtoSpec::Exact(6)), entry(1, 0))
            .unwrap();
        lut.insert(&mut s, DimValue::Proto(ProtoSpec::Any), entry(2, 0))
            .unwrap();
        lut.remove(&mut s, DimValue::Proto(ProtoSpec::Exact(6)), Label(1))
            .unwrap();
        assert_eq!(lut.lookup(&s, 6).unwrap().labels.len(), 1);
        // Wrong label -> NotFound.
        assert!(matches!(
            lut.remove(&mut s, DimValue::Proto(ProtoSpec::Any), Label(9)),
            Err(EngineError::NotFound)
        ));
        lut.remove(&mut s, DimValue::Proto(ProtoSpec::Any), Label(2))
            .unwrap();
        assert!(lut.lookup(&s, 6).unwrap().labels.is_empty());
    }

    #[test]
    fn out_of_range_query_sees_wildcard_only() {
        let mut s = store();
        let mut lut = ProtocolLut::new();
        lut.insert(&mut s, DimValue::Proto(ProtoSpec::Any), entry(2, 0))
            .unwrap();
        let r = lut.lookup(&s, 0x1ff).unwrap();
        assert_eq!(r.labels.len(), 1);
    }

    #[test]
    fn value_kind_checked() {
        let mut s = store();
        let mut lut = ProtocolLut::new();
        let e = lut.insert(
            &mut s,
            DimValue::Port(spc_types::PortRange::ANY),
            entry(1, 0),
        );
        assert!(matches!(
            e,
            Err(EngineError::ValueKind { expected: "Proto" })
        ));
    }
}
