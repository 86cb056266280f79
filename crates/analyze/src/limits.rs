//! Capacity limits the analyzer judges a rule set against.

use spc_types::{Dim, ALL_DIMS};

/// Architecture capacities and analysis budgets.
///
/// The analyzer is engine-free, so the hardware envelope it checks against
/// is injected here. [`AnalyzerLimits::default`] mirrors the workspace's
/// `ArchConfig::large` profile (14-bit IP labels, 9-bit port labels, 4-bit
/// protocol labels, 2^15 Rule Filter slots); `spc_engine`'s audit hook
/// substitutes the capacities of whatever configuration it is about to
/// build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerLimits {
    /// Per-dimension label capacity (how many distinct labels the label
    /// table can allocate), in [`ALL_DIMS`] order.
    pub label_capacity: [usize; 7],
    /// Rule Filter hash slots available for distinct 7-label keys.
    pub rule_filter_slots: usize,
    /// Maximum probe-grid cells the reachability sweep may examine; above
    /// this the analyzer degrades to pairwise shadow proofs and marks the
    /// report non-exhaustive.
    pub probe_budget: usize,
    /// Prefix-expansion count at which a port range is flagged
    /// pathological.
    pub port_expansion_warn: u32,
}

impl AnalyzerLimits {
    /// Limits from label-table and Rule Filter capacities: `ip`, `port`
    /// and `proto` label capacities are applied to the four IP-segment
    /// dimensions, the two port dimensions, and the protocol dimension
    /// respectively.
    pub fn from_capacities(ip: usize, port: usize, proto: usize, rule_filter_slots: usize) -> Self {
        AnalyzerLimits {
            label_capacity: ALL_DIMS.map(|d| {
                if d.is_ip_segment() {
                    ip
                } else if d == Dim::Proto {
                    proto
                } else {
                    port
                }
            }),
            rule_filter_slots,
            ..AnalyzerLimits::default()
        }
    }
}

impl Default for AnalyzerLimits {
    fn default() -> Self {
        AnalyzerLimits {
            label_capacity: ALL_DIMS.map(|d| {
                if d.is_ip_segment() {
                    1 << 14
                } else if d == Dim::Proto {
                    1 << 4
                } else {
                    1 << 9
                }
            }),
            rule_filter_slots: 1 << 15,
            probe_budget: 1 << 17,
            port_expansion_warn: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mirrors_large_profile() {
        let l = AnalyzerLimits::default();
        assert_eq!(l.label_capacity[Dim::SipHi.index()], 1 << 14);
        assert_eq!(l.label_capacity[Dim::SrcPort.index()], 1 << 9);
        assert_eq!(l.label_capacity[Dim::Proto.index()], 1 << 4);
        assert_eq!(l.rule_filter_slots, 1 << 15);
    }

    #[test]
    fn from_capacities_places_dims() {
        let l = AnalyzerLimits::from_capacities(100, 20, 4, 64);
        assert_eq!(l.label_capacity[Dim::DipLo.index()], 100);
        assert_eq!(l.label_capacity[Dim::DstPort.index()], 20);
        assert_eq!(l.label_capacity[Dim::Proto.index()], 4);
        assert_eq!(l.rule_filter_slots, 64);
        assert_eq!(l.probe_budget, AnalyzerLimits::default().probe_budget);
    }
}
