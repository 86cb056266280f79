//! Hardware substrate model for the SOCC 2014 classifier reproduction.
//!
//! The paper prototypes its architecture on an Altera Stratix V FPGA and
//! reports memory bits, memory accesses per packet, clock frequency and the
//! resulting line-rate throughput. This crate models exactly those
//! quantities so the rest of the workspace can reproduce Tables V–VII
//! without hardware:
//!
//! * [`MemoryBlock`] — a block RAM with fixed geometry (words × word width)
//!   that stores the actual simulator data and counts every word written
//!   (reads are counted by the lookup that makes them and returned by value);
//!   a sorted array in it floats from a base register, so an insert or a
//!   remove moves the shorter side of the array;
//! * [`ProbeTable`] — a linear-probe hash table in one block, whose
//!   removal shifts the rest of its run back (the Rule Filter's memory and
//!   each tuple-space table);
//! * [`ClockDomain`] — converts cycles/packet into lookups/s and Gbps the
//!   same way the paper does (§V.C);
//! * [`HashUnit`] — the hardware hash that folds the merged 68-bit label key
//!   into a Rule Filter address (§IV.A, §IV.C.1);
//! * [`ResourceReport`] — the Table V synthesis summary.
//!
//! Fig 5's memory sharing (the MBT level-2 block doubling as BST node
//! memory) is arithmetic over whole engines, so it lives with them, in
//! `spc_core::SharingReport`.

mod clock;
mod hash;
mod mem;
mod probe;
mod resources;

pub use clock::{ClockDomain, MIN_PACKET_BYTES, STRATIX_V_FMAX_MHZ};
pub use hash::HashUnit;
pub use mem::{MemoryBlock, MemoryError};
pub use probe::{Probe, ProbeTable};
pub use resources::{
    ResourceReport, STRATIX_V_MEM_BITS, STRATIX_V_TOTAL_ALMS, STRATIX_V_TOTAL_PINS,
};
