//! Baseline packet classifiers with memory-access instrumentation.
//!
//! The paper's Table I compares the most popular multi-field and
//! decomposition algorithms by average lookup memory accesses and memory
//! footprint; Table VII adds hardware comparators. This crate implements
//! the software side of that comparison from scratch:
//!
//! * [`LinearSearch`] — the semantic oracle (priority-ordered scan);
//! * [`HyperCuts`] — multi-dimensional decision-tree cutting \[2\];
//! * [`Rfc`] — Recursive Flow Classification's equivalence-class reduction
//!   tree \[3\];
//! * [`Dcfl`] — Distributed Crossproducting of Field Labels \[5\]: parallel
//!   per-field label lookups joined through an aggregation network;
//! * [`OptionClassifier`] — the trie combinations called "Option 1" and
//!   "Option 2" in Table I (5/4-level multi-bit IP tries + 4/5-level
//!   segment tries for ports + a protocol LUT).
//!
//! [`Dcfl`] and [`OptionClassifier`] share one five-field front end
//! (private module `fields`: the two IP tries, the two port tries, the
//! protocol LUT, their label memories and first-seen label interning);
//! what each adds is what it does with the five label lists.
//!
//! All of them implement [`Baseline`], reporting per-lookup memory
//! accesses and total memory bits so the Table I harness can print the
//! same columns the paper does.

mod dcfl;
mod fields;
mod hypercuts;
mod linear;
mod options;
mod rfc;

use spc_types::{Header, RuleId};

pub use dcfl::Dcfl;
pub use hypercuts::{HyperCuts, HyperCutsConfig};
pub use linear::LinearSearch;
pub use options::{OptionClassifier, OptionKind};
pub use rfc::{Rfc, RfcError};

/// Result of one baseline lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineResult {
    /// The highest-priority matching rule, if any.
    pub rule: Option<RuleId>,
    /// Memory words read to produce it.
    pub accesses: u32,
}

/// A classifier with hardware-model instrumentation.
pub trait Baseline {
    /// Algorithm name as it appears in Table I.
    fn name(&self) -> &'static str;

    /// Classifies one header.
    fn classify(&self, h: &Header) -> BaselineResult;

    /// Total structure memory in bits.
    fn memory_bits(&self) -> u64;

    /// Average accesses over a trace (convenience for the harness).
    fn avg_accesses(&self, trace: &[Header]) -> f64 {
        if trace.is_empty() {
            return 0.0;
        }
        let total: u64 = trace
            .iter()
            .map(|h| u64::from(self.classify(h).accesses))
            .sum();
        total as f64 / trace.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::{Header, RuleSet};

    pub fn small_set() -> RuleSet {
        RuleSetGenerator::new(FilterKind::Acl, 300)
            .seed(21)
            .generate()
    }

    pub fn fw_set() -> RuleSet {
        RuleSetGenerator::new(FilterKind::Fw, 250)
            .seed(22)
            .generate()
    }

    pub fn trace(rules: &RuleSet, n: usize) -> Vec<Header> {
        TraceGenerator::new()
            .seed(5)
            .match_fraction(0.8)
            .generate(rules, n)
    }
}
