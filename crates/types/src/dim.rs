//! The seven lookup *dimensions* of the segmented label architecture.
//!
//! The paper partitions each 32-bit IP field into two 16-bit segments
//! (§IV.C), so a 5-tuple rule decomposes into seven single-field values that
//! are labelled and searched independently:
//! `SipHi, SipLo, DipHi, DipLo, SrcPort, DstPort, Proto`.

use crate::{Header, PortRange, ProtoSpec, SegPrefix};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One of the seven lookup dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    /// High 16 bits of the source IP.
    SipHi,
    /// Low 16 bits of the source IP.
    SipLo,
    /// High 16 bits of the destination IP.
    DipHi,
    /// Low 16 bits of the destination IP.
    DipLo,
    /// Source transport port.
    SrcPort,
    /// Destination transport port.
    DstPort,
    /// IP protocol.
    Proto,
}

/// All seven dimensions in canonical (key-concatenation) order.
pub const ALL_DIMS: [Dim; 7] = [
    Dim::SipHi,
    Dim::SipLo,
    Dim::DipHi,
    Dim::DipLo,
    Dim::SrcPort,
    Dim::DstPort,
    Dim::Proto,
];

/// The four IP-segment dimensions (the ones whose algorithm `IPalg_s`
/// reconfigures between MBT and BST).
pub const IP_SEG_DIMS: [Dim; 4] = [Dim::SipHi, Dim::SipLo, Dim::DipHi, Dim::DipLo];

impl Dim {
    /// Canonical index in `0..7`, matching [`ALL_DIMS`] order.
    pub fn index(self) -> usize {
        match self {
            Dim::SipHi => 0,
            Dim::SipLo => 1,
            Dim::DipHi => 2,
            Dim::DipLo => 3,
            Dim::SrcPort => 4,
            Dim::DstPort => 5,
            Dim::Proto => 6,
        }
    }

    /// Whether this is one of the four IP-segment dimensions.
    pub fn is_ip_segment(self) -> bool {
        matches!(self, Dim::SipHi | Dim::SipLo | Dim::DipHi | Dim::DipLo)
    }

    /// Extracts this dimension's 16-bit query value from a packet header.
    ///
    /// The protocol byte is zero-extended so that every dimension presents
    /// the same query width to the engines, mirroring the equal-size segment
    /// condition of §III.D.
    pub fn query(self, h: &Header) -> u16 {
        match self {
            Dim::SipHi => h.sip_hi(),
            Dim::SipLo => h.sip_lo(),
            Dim::DipHi => h.dip_hi(),
            Dim::DipLo => h.dip_lo(),
            Dim::SrcPort => h.src_port,
            Dim::DstPort => h.dst_port,
            Dim::Proto => u16::from(h.proto),
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dim::SipHi => "sip_hi",
            Dim::SipLo => "sip_lo",
            Dim::DipHi => "dip_hi",
            Dim::DipLo => "dip_lo",
            Dim::SrcPort => "src_port",
            Dim::DstPort => "dst_port",
            Dim::Proto => "proto",
        };
        f.write_str(s)
    }
}

/// A rule's field value projected onto one dimension.
///
/// This is the unit the label method tags: two rules whose projections onto
/// a dimension are equal share that dimension's label (paper §III.C).
///
/// A value hashes as one packed word (see [`Hash`] below): the label
/// tables probe by it once per rule and dimension, and the derived
/// per-field hash cost several hasher writes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DimValue {
    /// A 16-bit segment prefix (IP dimensions).
    Seg(SegPrefix),
    /// A port range (port dimensions).
    Port(PortRange),
    /// A protocol spec (protocol dimension).
    Proto(ProtoSpec),
}

/// One hasher write per value: `DimValue::packed`, which is injective,
/// so values hash equal exactly when they are equal.
impl Hash for DimValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.packed());
    }
}

impl DimValue {
    /// The value as one word: the variant in bits 62–63, then a segment's
    /// value and length, a range's lo and hi, or a protocol's exact flag
    /// and number — every field at its own bits, so distinct values give
    /// distinct words.
    fn packed(self) -> u64 {
        match self {
            DimValue::Seg(s) => (u64::from(s.value()) << 8) | u64::from(s.len()),
            DimValue::Port(r) => (1 << 62) | (u64::from(r.lo()) << 16) | u64::from(r.hi()),
            DimValue::Proto(ProtoSpec::Any) => 2 << 62,
            DimValue::Proto(ProtoSpec::Exact(p)) => (2 << 62) | (1 << 8) | u64::from(p),
        }
    }

    /// Whether the 16-bit query value matches this field value.
    pub fn matches(self, q: u16) -> bool {
        match self {
            DimValue::Seg(s) => s.matches(q),
            DimValue::Port(r) => r.contains(q),
            DimValue::Proto(p) => q <= 0xff && p.matches(q as u8),
        }
    }

    /// Whether this value is the dimension-wide wildcard.
    pub fn is_any(self) -> bool {
        match self {
            DimValue::Seg(s) => s.is_any(),
            DimValue::Port(r) => r.is_any(),
            DimValue::Proto(p) => p.is_any(),
        }
    }

    /// Whether `self` matches a superset of the values `other` matches.
    pub fn covers(self, other: DimValue) -> bool {
        match (self, other) {
            (DimValue::Seg(a), DimValue::Seg(b)) => a.covers(b),
            (DimValue::Port(a), DimValue::Port(b)) => a.covers(b),
            (DimValue::Proto(a), DimValue::Proto(b)) => a.covers(b),
            _ => false,
        }
    }
}

impl fmt::Display for DimValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimValue::Seg(s) => write!(f, "{s}"),
            DimValue::Port(r) => write!(f, "{r}"),
            DimValue::Proto(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Header;

    #[test]
    fn indices_match_all_dims_order() {
        for (i, d) in ALL_DIMS.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn ip_segment_classification() {
        for d in IP_SEG_DIMS {
            assert!(d.is_ip_segment());
        }
        assert!(!Dim::SrcPort.is_ip_segment());
        assert!(!Dim::Proto.is_ip_segment());
    }

    #[test]
    fn query_extraction() {
        let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 100, 200, 6);
        assert_eq!(Dim::SipHi.query(&h), 0x0102);
        assert_eq!(Dim::SipLo.query(&h), 0x0304);
        assert_eq!(Dim::DipHi.query(&h), 0x0506);
        assert_eq!(Dim::DipLo.query(&h), 0x0708);
        assert_eq!(Dim::SrcPort.query(&h), 100);
        assert_eq!(Dim::DstPort.query(&h), 200);
        assert_eq!(Dim::Proto.query(&h), 6);
    }

    #[test]
    fn dim_value_matches() {
        assert!(DimValue::Seg(SegPrefix::masked(0x0100, 8)).matches(0x01ff));
        assert!(!DimValue::Seg(SegPrefix::masked(0x0100, 8)).matches(0x02ff));
        assert!(DimValue::Port(PortRange::new(10, 20).unwrap()).matches(15));
        assert!(DimValue::Proto(ProtoSpec::Exact(6)).matches(6));
        assert!(!DimValue::Proto(ProtoSpec::Exact(6)).matches(0x0106));
    }

    #[test]
    fn dim_value_covers_cross_kind_is_false() {
        let seg = DimValue::Seg(SegPrefix::ANY);
        let port = DimValue::Port(PortRange::ANY);
        assert!(!seg.covers(port));
        assert!(!port.covers(seg));
    }

    #[test]
    fn wildcards() {
        assert!(DimValue::Seg(SegPrefix::ANY).is_any());
        assert!(DimValue::Port(PortRange::ANY).is_any());
        assert!(DimValue::Proto(ProtoSpec::Any).is_any());
        assert!(!DimValue::Proto(ProtoSpec::Exact(0)).is_any());
    }

    /// A value's hash under a fixed (unkeyed) hasher.
    fn hash_of(v: DimValue) -> u64 {
        use std::hash::BuildHasher;
        std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default()
            .hash_one(v)
    }

    /// The values the packing must keep apart: every segment prefix of
    /// every length, every exact port and the port edges, every protocol.
    fn value_sweep() -> Vec<DimValue> {
        let segs = (0..=16u8).flat_map(|len| {
            (0..1u32 << len).map(move |v| SegPrefix::masked((v << (16 - len)) as u16, len))
        });
        let edges = [
            PortRange::ANY,
            PortRange::new(0, 1).unwrap(),
            PortRange::new(0, 65534).unwrap(),
            PortRange::new(1, 65535).unwrap(),
            PortRange::new(65534, 65535).unwrap(),
            PortRange::new(1024, 65535).unwrap(),
            PortRange::new(0, 1023).unwrap(),
        ];
        let ports = (0..=u16::MAX).map(PortRange::exact).chain(edges);
        let protos = std::iter::once(ProtoSpec::Any).chain((0..=u8::MAX).map(ProtoSpec::Exact));
        segs.map(DimValue::Seg)
            .chain(ports.map(DimValue::Port))
            .chain(protos.map(DimValue::Proto))
            .collect()
    }

    #[test]
    fn equal_values_hash_equal() {
        for v in value_sweep().into_iter().step_by(97) {
            // A copy rebuilt from the value's fields, not the same bits.
            let twin = match v {
                DimValue::Seg(s) => DimValue::Seg(SegPrefix::new(s.value(), s.len()).unwrap()),
                DimValue::Port(r) => DimValue::Port(PortRange::new(r.lo(), r.hi()).unwrap()),
                DimValue::Proto(p) => DimValue::Proto(p),
            };
            assert_eq!(v, twin);
            assert_eq!(hash_of(v), hash_of(twin), "{v:?}");
        }
    }

    #[test]
    fn packed_words_are_distinct_for_distinct_values() {
        let values = value_sweep();
        let edges = [
            DimValue::Seg(SegPrefix::ANY),
            DimValue::Seg(SegPrefix::masked(0xffff, 0)),
            DimValue::Seg(SegPrefix::exact(0)),
            DimValue::Seg(SegPrefix::exact(0xffff)),
            DimValue::Port(PortRange::ANY),
            DimValue::Port(PortRange::exact(0)),
            DimValue::Port(PortRange::exact(65535)),
            DimValue::Proto(ProtoSpec::Any),
            DimValue::Proto(ProtoSpec::Exact(0)),
            DimValue::Proto(ProtoSpec::Exact(255)),
        ];
        assert!(edges.iter().all(|e| values.contains(e)));
        let distinct: std::collections::HashSet<DimValue> = values.iter().copied().collect();
        assert_eq!(distinct.len(), values.len(), "the sweep repeats a value");
        let mut words: Vec<u64> = values.iter().map(|v| v.packed()).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), values.len(), "two values share a word");
    }

    #[test]
    fn display_unique_names() {
        let names: Vec<String> = ALL_DIMS
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
