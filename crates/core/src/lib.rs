//! # spc-core — the configurable SDN packet classification architecture
//!
//! A faithful software model of *"A Configurable Packet Classification
//! Architecture for Software-Defined Networking"* (Guerra Pérez, Yang,
//! Scott-Hayward, Sezer — IEEE SOCC 2014):
//!
//! * seven parallel single-field lookups over 16-bit header segments, with
//!   the DCFL **label method** deduplicating rule fields (§III.C);
//! * a run-time-**configurable IP algorithm** — multi-bit trie for speed or
//!   binary search tree for density — selected by the `IPalg_s` signal and
//!   sharing memory blocks (§IV.C.2, Fig 5);
//! * a 4-phase lookup pipeline ending in a hashed **Rule Filter** access
//!   that returns the Highest Priority Matching Rule (Fig 3);
//! * controller-driven **fast incremental update** with per-label
//!   reference counters (Fig 4, §V.A);
//! * cycle- and bit-accurate accounting against the paper's Stratix V
//!   prototype numbers (Tables V–VII).
//!
//! See the crate-level example on [`Classifier`].

mod classifier;
mod config;
mod error;
mod labels;
mod memory;
mod pipeline;
mod rulefilter;

pub use classifier::{Classification, Classifier, ClassifyScratch, UpdateReport};
pub use config::{ArchConfig, CombineStrategy, IpAlg};
pub use error::ClassifierError;
pub use labels::{InsertOutcome, LabelState, LabelTable, RemoveOutcome};
pub use memory::{BlockUsage, MemoryReport, SharingReport};
pub use pipeline::{LookupTiming, PHASE1_CYCLES, PHASE3_CYCLES, PHASE4_BASE_CYCLES};
pub use rulefilter::{Hit, ProbeResult, RuleFilter};
