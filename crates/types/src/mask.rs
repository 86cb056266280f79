//! Per-dimension wildcard masks — the tuple-space vocabulary.
//!
//! A [`MaskSummary`] holds seven 16-bit *care masks*, one per lookup
//! dimension: a set bit is a query bit examined, a clear bit is wildcard.
//! [`MaskSummary::hash_signature`] gives a rule the masks under which its
//! match condition is masked equality; rules with one signature share a
//! tuple, whose key for a header is [`MaskSummary::masked_query`] and for
//! a rule [`MaskSummary::masked_rule`].

use crate::{Dim, DimValue, Header, Rule, ALL_DIMS};
use std::fmt;

/// Per-dimension care masks for the seven lookup dimensions, in
/// [`ALL_DIMS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MaskSummary {
    /// One 16-bit care mask per dimension ([`ALL_DIMS`] order); set bits
    /// are examined by the rule, clear bits are wildcard.
    pub masks: [u16; 7],
}

impl MaskSummary {
    /// The header's seven query values ANDed with the care masks — the
    /// key a header probes a tuple with.
    pub fn masked_query(self, h: &Header) -> [u16; 7] {
        let mut q = [0u16; 7];
        for (i, dim) in ALL_DIMS.iter().enumerate() {
            q[i] = dim.query(h) & self.masks[i];
        }
        q
    }

    /// The care mask for one dimension.
    pub fn mask(self, dim: Dim) -> u16 {
        self.masks[dim.index()]
    }

    /// The *hash-mask* signature of a rule: the per-dimension masks under
    /// which the rule's match condition **is** masked equality. IP
    /// segments keep their prefix masks and an exact port or protocol
    /// demands full equality, but a proper port *range* gets mask `0x0000` — an arbitrary `[lo, hi]` has no bitmask, so
    /// the dimension is excluded from the key and must be re-verified
    /// after a key hit. This is the tuple-space grouping signature
    /// (Srinivasan–Suri–Varghese): for every header `h` that matches
    /// `rule`, `sig.masked_query(&h) == sig.masked_rule(&rule)`.
    pub fn hash_signature(rule: &Rule) -> Self {
        let mut masks = [0u16; 7];
        for (i, dim) in ALL_DIMS.iter().enumerate() {
            masks[i] = match rule.dim_value(*dim) {
                DimValue::Seg(s) => prefix_mask16(s.len()),
                DimValue::Port(r) => {
                    if r.is_exact() {
                        0xFFFF
                    } else {
                        0
                    }
                }
                DimValue::Proto(p) => {
                    if p.is_any() {
                        0
                    } else {
                        0x00FF
                    }
                }
            };
        }
        MaskSummary { masks }
    }

    /// The rule's own key under this summary — the masked counterpart of
    /// [`MaskSummary::masked_query`] on the rule side. Each dimension
    /// projects to a canonical 16-bit value (prefix value, range low
    /// bound, protocol number) and is ANDed with the care mask; under
    /// [`MaskSummary::hash_signature`] this equals the masked query of
    /// every header the rule matches.
    pub fn masked_rule(self, rule: &Rule) -> [u16; 7] {
        let mut q = [0u16; 7];
        for (i, dim) in ALL_DIMS.iter().enumerate() {
            let v = match rule.dim_value(*dim) {
                DimValue::Seg(s) => s.value(),
                DimValue::Port(r) => r.lo(),
                DimValue::Proto(p) => match p {
                    crate::ProtoSpec::Any => 0,
                    crate::ProtoSpec::Exact(n) => u16::from(n),
                },
            };
            q[i] = v & self.masks[i];
        }
        q
    }
}

/// `len` leading ones in a 16-bit mask.
fn prefix_mask16(len: u8) -> u16 {
    if len == 0 {
        0
    } else {
        u16::MAX << (16 - u32::from(len.min(16)))
    }
}

impl fmt::Display for MaskSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.masks.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{m:04x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, PortRange, Prefix, Priority, ProtoSpec};

    fn rule() -> Rule {
        Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .dst_ip(Prefix::parse("192.168.1.0/24").unwrap())
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Drop)
            .build()
    }

    #[test]
    fn masked_query_equality_implies_identical_match() {
        // A rule without a proper port range matches headers equal under
        // its signature alike.
        let r = rule();
        let sig = MaskSummary::hash_signature(&r);
        let h1 = Header::new([10, 5, 5, 5].into(), [192, 168, 1, 7].into(), 1000, 80, 6);
        let h2 = Header::new([10, 9, 9, 9].into(), [192, 168, 1, 200].into(), 2000, 80, 6);
        assert_eq!(sig.masked_query(&h1), sig.masked_query(&h2));
        assert_eq!(r.matches(&h1), r.matches(&h2));
        let h3 = Header::new([11, 5, 5, 5].into(), [192, 168, 1, 7].into(), 1000, 80, 6);
        assert_ne!(sig.masked_query(&h1), sig.masked_query(&h3));
    }

    #[test]
    fn hash_signature_excludes_proper_ranges() {
        let ranged = Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .src_port(PortRange::new(1024, 2047).unwrap())
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(17))
            .build();
        let sig = MaskSummary::hash_signature(&ranged);
        assert_eq!(sig.mask(Dim::SipHi), 0xff00);
        assert_eq!(sig.mask(Dim::SrcPort), 0x0000, "a range has no bitmask");
        assert_eq!(sig.mask(Dim::DstPort), 0xffff, "exact port is equality");
        assert_eq!(sig.mask(Dim::Proto), 0x00ff);
    }

    #[test]
    fn masked_rule_equals_masked_query_of_matching_headers() {
        let rules = [
            rule(),
            Rule::any(Priority(1)),
            Rule::builder(Priority(2))
                .src_ip(Prefix::parse("10.1.128.0/20").unwrap())
                .src_port(PortRange::new(1000, 2000).unwrap())
                .proto(ProtoSpec::Exact(6))
                .build(),
        ];
        let headers = [
            Header::new([10, 5, 5, 5].into(), [192, 168, 1, 7].into(), 1000, 80, 6),
            Header::new([10, 1, 128, 9].into(), [1, 2, 3, 4].into(), 1500, 443, 6),
        ];
        for r in &rules {
            let sig = MaskSummary::hash_signature(r);
            for h in &headers {
                if r.matches(h) {
                    assert_eq!(
                        sig.masked_query(h),
                        sig.masked_rule(r),
                        "matching header must hash-key to the rule's slot"
                    );
                }
            }
        }
    }

    #[test]
    fn display_is_seven_slashed_hex_fields() {
        let s = MaskSummary::hash_signature(&rule()).to_string();
        assert_eq!(s.split('/').count(), 7);
        assert!(s.contains("ff00"));
    }
}
