//! The single-field lookup engine abstraction.
//!
//! Phase 2 of the paper's pipeline runs one engine per dimension in
//! parallel; each produces a pointer to a priority-sorted label list
//! (§III.B). The [`FieldEngine`] trait is the contract those engines
//! implement; the configurable architecture stores them as trait objects so
//! `IPalg_s`-style reconfiguration is a pointer swap.

use crate::label::{Label, LabelEntry, LabelError};
use crate::store::{LabelStore, StoreError};
use spc_hwsim::MemoryError;
use spc_types::DimValue;
use std::fmt;

/// Result of one engine lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// All matching labels, sorted with the HPML first.
    pub labels: crate::label::LabelList,
    /// Memory-word reads performed (structure nodes + label lists).
    pub mem_reads: u32,
    /// Clock cycles of this lookup in the hardware model (fixed pipeline
    /// latency for MBT, data-dependent depth for BST, ...).
    pub cycles: u32,
}

/// Accounting of one engine lookup, separate from the label payload.
///
/// [`FieldEngine::lookup_into`] returns this while writing the labels
/// into a caller-owned [`crate::label::LabelList`], so a batch caller
/// that hands in the same list every packet pays no per-lookup
/// allocation — the deepest layer of the batch-amortisation story
/// (`ClassifyScratch` reuses the list buffers, this reuses what fills
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupCost {
    /// Memory-word reads performed (structure nodes + label lists).
    pub mem_reads: u32,
    /// Clock cycles of this lookup in the hardware model.
    pub cycles: u32,
}

/// Error from engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A structural memory block or the label store ran out of capacity.
    Capacity {
        /// What overflowed (block or store name).
        what: String,
    },
    /// The engine was handed a [`DimValue`] variant it cannot store.
    ValueKind {
        /// Expected variant name.
        expected: &'static str,
    },
    /// The (value, label) pair to remove was not present.
    NotFound,
    /// The engine has deferred updates; call `flush` before lookups.
    Dirty,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Capacity { what } => write!(f, "capacity exhausted in {what}"),
            EngineError::ValueKind { expected } => {
                write!(
                    f,
                    "dimension value kind mismatch, engine expects {expected}"
                )
            }
            EngineError::NotFound => write!(f, "value/label pair not present in engine"),
            EngineError::Dirty => write!(f, "engine has unflushed updates"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<MemoryError> for EngineError {
    fn from(e: MemoryError) -> Self {
        match e {
            MemoryError::Full { block, .. } => EngineError::Capacity { what: block },
            MemoryError::OutOfBounds { block, .. } => EngineError::Capacity {
                what: format!("{block} (out of bounds)"),
            },
            other => EngineError::Capacity {
                what: other.to_string(),
            },
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Full { store, .. } => EngineError::Capacity { what: store },
            StoreError::BadPtr { store, ptr } => EngineError::Capacity {
                what: format!("{store} (dangling ptr {ptr})"),
            },
        }
    }
}

impl From<LabelError> for EngineError {
    fn from(e: LabelError) -> Self {
        match e {
            LabelError::Exhausted { width } => EngineError::Capacity {
                what: format!("{width}-bit label space"),
            },
        }
    }
}

/// A single-field lookup engine over 16-bit queries.
///
/// Engines do not allocate labels — the software controller does (Fig 4) —
/// they only map field values to label lists. The per-dimension
/// [`LabelStore`] is passed in from outside so the same label memory serves
/// whichever engine `IPalg_s` currently selects (§IV.C.2).
///
/// Engines are `Sync` because lookups take `&self` and write nothing —
/// the words a lookup reads come back by value in [`LookupCost`] — so a
/// built engine is immutable data that many threads can query at once
/// (the ingest-pipeline's shared-engine mode relies on this).
///
/// Updates answer with typed errors (a full block, a foreign value, an
/// absent pair). A lookup has one: [`EngineError::Dirty`] from an engine
/// with unflushed updates.
pub trait FieldEngine: fmt::Debug + Send + Sync {
    /// Adds (or re-prioritises) a labelled field value.
    ///
    /// Engines treat this as an upsert: inserting an existing
    /// `(value, label)` with a new priority reorders the affected lists.
    ///
    /// # Errors
    ///
    /// [`EngineError::ValueKind`] for a foreign value variant;
    /// [`EngineError::Capacity`] when a memory block fills up.
    fn insert(
        &mut self,
        store: &mut LabelStore,
        value: DimValue,
        entry: LabelEntry,
    ) -> Result<(), EngineError>;

    /// Removes a labelled field value.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotFound`] if absent, [`EngineError::ValueKind`] for
    /// a foreign value variant.
    fn remove(
        &mut self,
        store: &mut LabelStore,
        value: DimValue,
        label: Label,
    ) -> Result<(), EngineError>;

    /// Pushes deferred updates down to the structure lookups read (the
    /// BST patches its interval array with the logged changes, or
    /// rebuilds it after a bulk load). No-op for engines that update in
    /// place.
    ///
    /// # Errors
    ///
    /// [`EngineError::Capacity`] if the updated structure no longer fits;
    /// the engine then stays dirty ([`EngineError::Dirty`] on lookup)
    /// until a flush of contents that do fit.
    fn flush(&mut self, store: &mut LabelStore) -> Result<(), EngineError> {
        let _ = store;
        Ok(())
    }

    /// Looks up all labels matching `query`, writing them into `out`
    /// (cleared first) and returning only the cost counters.
    ///
    /// This is the allocation-free primitive behind
    /// [`FieldEngine::lookup`]: batch callers hand in the same
    /// [`crate::label::LabelList`] for every packet, so across a batch
    /// the per-dimension label-list allocations collapse to buffer
    /// clears. The filled `out` satisfies the usual list invariant (HPML
    /// first).
    ///
    /// # Errors
    ///
    /// Only [`EngineError::Dirty`], which only [`crate::RangeBst`]
    /// returns, between an update and its [`FieldEngine::flush`]. Every
    /// other read is in range by construction, so a flushed engine's
    /// lookup cannot fail; the `Result` is for that one case.
    fn lookup_into(
        &self,
        store: &LabelStore,
        query: u16,
        out: &mut crate::label::LabelList,
    ) -> Result<LookupCost, EngineError>;

    /// Looks up all labels matching a 16-bit query value, allocating a
    /// fresh list (single-shot convenience over
    /// [`FieldEngine::lookup_into`]).
    ///
    /// # Errors
    ///
    /// As [`FieldEngine::lookup_into`].
    fn lookup(&self, store: &LabelStore, query: u16) -> Result<LookupResult, EngineError> {
        let mut labels = crate::label::LabelList::new();
        let cost = self.lookup_into(store, query, &mut labels)?;
        Ok(LookupResult {
            labels,
            mem_reads: cost.mem_reads,
            cycles: cost.cycles,
        })
    }

    /// Bits of structural memory provisioned (label store excluded).
    fn provisioned_bits(&self) -> u64;

    /// Bits of structural memory occupied.
    fn used_bits(&self) -> u64;

    /// Structural memory words written since construction (label store
    /// excluded). Only ever used as a before/after delta around an update.
    fn writes(&self) -> u64;

    /// Whether lookups are pipelined with initiation interval 1 (the
    /// throughput model then charges 1 cycle/packet instead of the latency).
    fn is_pipelined(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: EngineError = MemoryError::Full {
            block: "l2".into(),
            words: 4,
        }
        .into();
        assert!(matches!(e, EngineError::Capacity { ref what } if what == "l2"));
        let e: EngineError = StoreError::Full {
            store: "s".into(),
            capacity: 1,
        }
        .into();
        assert!(matches!(e, EngineError::Capacity { .. }));
        let e: EngineError = LabelError::Exhausted { width: 7 }.into();
        assert!(matches!(e, EngineError::Capacity { ref what } if what.contains("7-bit")));
    }

    #[test]
    fn display_strings() {
        assert!(EngineError::NotFound.to_string().contains("not present"));
        assert!(EngineError::Dirty.to_string().contains("unflushed"));
        assert!(EngineError::ValueKind { expected: "seg" }
            .to_string()
            .contains("seg"));
    }
}
