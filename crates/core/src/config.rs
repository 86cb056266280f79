//! Architecture configuration (what the SDN controller programs).

use spc_hwsim::ClockDomain;
use spc_lookup::LabelWidths;

/// Which IP lookup algorithm the `IPalg_s` signal selects (§III.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IpAlg {
    /// Multi-bit trie: pipelined, 1 packet/cycle, larger memory.
    #[default]
    Mbt,
    /// Binary search tree: ~16 cycles/packet, small memory, more rules.
    Bst,
}

impl std::fmt::Display for IpAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpAlg::Mbt => f.write_str("MBT"),
            IpAlg::Bst => f.write_str("BST"),
        }
    }
}

/// How phase 3 combines per-dimension label lists into a Rule Filter probe
/// (the HPMR-agreement deviation is quantified in `REPRODUCTION.md`,
/// Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CombineStrategy {
    /// The paper's fast path: hash only the head (HPML) of each list.
    /// Two final cycles, but may miss the true HPMR when the per-dimension
    /// heads belong to different rules.
    FirstLabel,
    /// Probes every label combination whose priority lower bound (the
    /// worst of its seven labels' best priorities) does not exceed the
    /// HPMR's priority — an index box over the priority-ordered lists,
    /// walked with nested loops; guaranteed to return the true HPMR, the
    /// whole lattice on a miss. Extra probes are charged to the cycle
    /// model.
    #[default]
    PriorityProbe,
}

/// Full architecture configuration.
///
/// Defaults are calibrated to the paper's prototype: 13/7/2-bit labels,
/// 5/5/6 MBT strides, 133.51 MHz clock, an 8K-rule Rule Filter.
///
/// ```
/// use spc_core::{ArchConfig, IpAlg};
/// let cfg = ArchConfig::default().with_ip_alg(IpAlg::Bst);
/// assert_eq!(cfg.ip_alg, IpAlg::Bst);
/// assert_eq!(cfg.label_widths.key_bits(), 68);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Active IP algorithm (the `IPalg_s` signal).
    pub ip_alg: IpAlg,
    /// Label bit widths per dimension class.
    pub label_widths: LabelWidths,
    /// Combination strategy for phase 3.
    pub combine: CombineStrategy,
    /// Level-2 (leaf) node capacity of each 16-bit segment MBT.
    pub mbt_leaf_nodes: usize,
    /// Elementary-interval capacity of each segment BST.
    pub bst_max_intervals: usize,
    /// Port match registers per port dimension.
    pub port_registers: usize,
    /// Rule Filter address bits (capacity `2^bits` rules before probing).
    pub rule_filter_addr_bits: u32,
    /// Label store entry capacity per IP segment dimension.
    pub ip_label_entries: usize,
    /// Label store entry capacity per port dimension.
    pub port_label_entries: usize,
    /// The clock domain for throughput conversion.
    pub clock: ClockDomain,
}

impl ArchConfig {
    /// The paper's prototype configuration (Table V/VI calibration):
    /// MBT mode, 8K-rule filter, 13/7/2-bit labels.
    pub fn paper_prototype() -> Self {
        ArchConfig {
            ip_alg: IpAlg::Mbt,
            label_widths: LabelWidths::PAPER,
            combine: CombineStrategy::PriorityProbe,
            // Leaf provisioning sized for ~1K-rule filters (the dst-IP
            // dimension of acl1-1K needs ~300 level-2 nodes).
            mbt_leaf_nodes: 384,
            // Must fit the shared MBT region (Fig 5): 4096 intervals of
            // 29-bit words per dimension stay under the trie's footprint.
            bst_max_intervals: 4096,
            port_registers: 128,
            rule_filter_addr_bits: 13, // 8192 slots ≈ 8K rules
            ip_label_entries: 1 << 13,
            port_label_entries: 1 << 7,
            clock: ClockDomain::stratix_v(),
        }
    }

    /// A generously-provisioned configuration for large synthetic rule
    /// sets (10K+ rules, wide label spaces). Used by tests and baselines
    /// where the paper's exact provisioning is not the point.
    pub fn large() -> Self {
        ArchConfig {
            ip_alg: IpAlg::Mbt,
            label_widths: LabelWidths {
                ip: 14,
                port: 9,
                proto: 4,
            },
            combine: CombineStrategy::PriorityProbe,
            mbt_leaf_nodes: 1024,
            bst_max_intervals: 1 << 15,
            port_registers: 512,
            rule_filter_addr_bits: 15,
            ip_label_entries: 1 << 16,
            port_label_entries: 1 << 12,
            clock: ClockDomain::stratix_v(),
        }
    }

    /// Sets the IP algorithm.
    pub fn with_ip_alg(mut self, alg: IpAlg) -> Self {
        self.ip_alg = alg;
        self
    }

    /// Sets the combination strategy.
    pub fn with_combine(mut self, c: CombineStrategy) -> Self {
        self.combine = c;
        self
    }

    /// Sets the Rule Filter address width.
    pub fn with_rule_filter_bits(mut self, bits: u32) -> Self {
        self.rule_filter_addr_bits = bits;
        self
    }

    /// Rule Filter slot count.
    pub fn rule_slots(&self) -> usize {
        1usize << self.rule_filter_addr_bits
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig::paper_prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_prototype() {
        let c = ArchConfig::default();
        assert_eq!(c.ip_alg, IpAlg::Mbt);
        assert_eq!(c.label_widths, LabelWidths::PAPER);
        assert_eq!(c.rule_slots(), 8192);
        assert!((c.clock.freq_mhz() - 133.51).abs() < 1e-9);
    }

    #[test]
    fn builder_methods() {
        let c = ArchConfig::default()
            .with_ip_alg(IpAlg::Bst)
            .with_combine(CombineStrategy::FirstLabel)
            .with_rule_filter_bits(14);
        assert_eq!(c.ip_alg, IpAlg::Bst);
        assert_eq!(c.combine, CombineStrategy::FirstLabel);
        assert_eq!(c.rule_slots(), 16384);
    }

    #[test]
    fn display_ip_alg() {
        assert_eq!(IpAlg::Mbt.to_string(), "MBT");
        assert_eq!(IpAlg::Bst.to_string(), "BST");
    }
}
