//! Single-field lookup engines with the DCFL label method.
//!
//! This crate implements phase 2 of the SOCC 2014 architecture: the
//! per-dimension lookup algorithms that map a 16-bit header segment to a
//! priority-sorted list of labels.
//!
//! * [`MultiBitTrie`] — fixed-stride trie with prefix expansion (5/5/6 for
//!   a segment; also the 32-bit "Option 1/2" tries of Table I): the shared
//!   stride trie plus a prefix front end and a wildcard register;
//! * [`RangeBst`] — balanced BST over elementary intervals, balanced in
//!   software and patched on flush (memory-lean IP algorithm);
//! * [`SegmentTrie`] — multi-level trie with canonical range decomposition
//!   (port engine of the Table I options): the shared stride trie plus a
//!   port-range front end;
//! * [`PortRegisters`] — parallel match registers with Table IV's
//!   exact-then-tightest label ordering;
//! * [`ProtocolLut`] — single-cycle direct table.
//!
//! The two tries are one structure (private module `trie`: geometry,
//! level blocks, node allocation, the covered-slot walk, the root-to-leaf
//! read loop and its accounting) behind two ways of turning a field value
//! into a key range, so their reads, Kbits and write cycles cannot drift
//! apart.
//!
//! Engines share a contract ([`FieldEngine`]) and are deliberately split
//! from the per-dimension label memory ([`LabelStore`]) so the `IPalg_s`
//! select signal can swap algorithms without touching label storage
//! (§IV.C.2), and from label allocation, which belongs to the software
//! controller (Fig 4, implemented in `spc-core`).
//!
//! Only updates can fail for want of room or a wrong value. A lookup
//! reads addresses that exist by construction, so the one error it can
//! return is [`EngineError::Dirty`]: a [`RangeBst`] between an update
//! and its flush.

mod bst;
mod engine;
mod label;
mod mbt;
mod portregs;
mod protolut;
mod segtrie;
mod store;
mod trie;

pub use bst::RangeBst;
pub use engine::{EngineError, FieldEngine, LookupCost};
pub use label::{Label, LabelAllocator, LabelEntry, LabelError, LabelList, LabelWidths};
pub use mbt::{MbtConfig, MultiBitTrie};
pub use portregs::PortRegisters;
pub use protolut::ProtocolLut;
pub use segtrie::{SegTrieConfig, SegmentTrie};
pub use store::{LabelStore, ListPtr, StoreError};
