//! Inclusive port ranges with exact/range match classification.

use crate::TypeError;
use std::fmt;

/// An inclusive range of 16-bit port values `[lo, hi]`.
///
/// Invariant: `lo <= hi` (enforced by [`PortRange::new`]).
///
/// The paper distinguishes **exact matching** (`lo == hi`) from **range
/// matching**; port label priority orders exact matches first, then tighter
/// ranges (Table IV).
///
/// ```
/// use spc_types::PortRange;
/// # fn main() -> Result<(), spc_types::TypeError> {
/// let r = PortRange::new(1024, 2047)?;
/// assert!(r.contains(1500));
/// assert!(!r.is_exact());
/// assert_eq!(PortRange::exact(80).width(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRange {
    lo: u16,
    hi: u16,
}

impl PortRange {
    /// The full range `[0, 65535]` (wildcard).
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };

    /// Creates a range.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::EmptyRange`] when `lo > hi`.
    pub fn new(lo: u16, hi: u16) -> Result<Self, TypeError> {
        if lo > hi {
            return Err(TypeError::EmptyRange { lo, hi });
        }
        Ok(PortRange { lo, hi })
    }

    /// A single-port exact range.
    pub fn exact(port: u16) -> Self {
        PortRange { lo: port, hi: port }
    }

    /// Lower bound (inclusive).
    pub fn lo(self) -> u16 {
        self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(self) -> u16 {
        self.hi
    }

    /// Whether this range matches exactly one port.
    pub fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    /// Whether this is the full wildcard range.
    pub fn is_any(self) -> bool {
        self == PortRange::ANY
    }

    /// Number of ports covered (1 ..= 65536).
    pub fn width(self) -> u32 {
        u32::from(self.hi) - u32::from(self.lo) + 1
    }

    /// Whether `port` falls inside the range.
    pub fn contains(self, port: u16) -> bool {
        self.lo <= port && port <= self.hi
    }

    /// Whether `self` fully covers `other`.
    pub fn covers(self, other: PortRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the two ranges share at least one port.
    pub fn overlaps(self, other: PortRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The minimal greedy sequence of aligned `(value, mask)` prefix
    /// blocks covering the range, in ascending order — the classic
    /// range-to-prefix expansion a prefix-only structure requires (worst
    /// case `2·16 - 2` blocks).
    pub fn prefix_blocks(self) -> impl Iterator<Item = (u16, u16)> {
        let hi = u32::from(self.hi);
        let mut lo = u32::from(self.lo);
        std::iter::from_fn(move || {
            if lo > hi {
                return None;
            }
            // Largest block aligned at `lo` that does not overshoot `hi`.
            let mut size: u32 = if lo == 0 {
                1 << 16
            } else {
                1 << lo.trailing_zeros()
            };
            while lo + size - 1 > hi {
                size >>= 1;
            }
            let block = (lo as u16, !(size - 1) as u16);
            lo += size;
            Some(block)
        })
    }
}

impl Default for PortRange {
    fn default() -> Self {
        PortRange::ANY
    }
}

impl fmt::Display for PortRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : {}", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(PortRange::new(10, 5).is_err());
        assert!(PortRange::new(5, 5).is_ok());
        assert!(PortRange::new(0, 65535).is_ok());
    }

    #[test]
    fn exact_and_width() {
        assert!(PortRange::exact(80).is_exact());
        assert_eq!(PortRange::exact(80).width(), 1);
        assert_eq!(PortRange::ANY.width(), 65536);
        assert!(PortRange::ANY.is_any());
        assert!(!PortRange::exact(0).is_any());
    }

    #[test]
    fn contains_bounds_inclusive() {
        let r = PortRange::new(100, 200).unwrap();
        assert!(r.contains(100));
        assert!(r.contains(200));
        assert!(!r.contains(99));
        assert!(!r.contains(201));
    }

    #[test]
    fn covers_and_overlaps() {
        let a = PortRange::new(0, 1000).unwrap();
        let b = PortRange::new(10, 20).unwrap();
        let c = PortRange::new(999, 2000).unwrap();
        let d = PortRange::new(1001, 1002).unwrap();
        assert!(a.covers(b));
        assert!(!b.covers(a));
        assert!(a.overlaps(c));
        assert!(c.overlaps(a));
        assert!(!a.overlaps(d));
        assert!(a.covers(a));
    }

    #[test]
    fn prefix_blocks_cover_their_range_exactly() {
        let blocks = |lo, hi| -> Vec<(u16, u16)> {
            PortRange::new(lo, hi).unwrap().prefix_blocks().collect()
        };
        assert_eq!(blocks(0, 65535), vec![(0, 0)]);
        assert_eq!(blocks(80, 80), vec![(80, 0xffff)]);
        assert_eq!(blocks(4, 7), vec![(4, 0xfffc)]);
        for (lo, hi) in [
            (0u16, 65535u16),
            (80, 80),
            (1, 10),
            (10, 1000),
            (1000, 40000),
            (1024, 65535),
            (0, 1),
            (65535, 65535),
        ] {
            let blocks = blocks(lo, hi);
            assert!(
                blocks.len() <= 30,
                "[{lo},{hi}] used {} blocks",
                blocks.len()
            );
            for port in 0..=u16::MAX {
                let covered = blocks.iter().any(|&(v, m)| port & m == v);
                assert_eq!(
                    covered,
                    (lo..=hi).contains(&port),
                    "[{lo},{hi}] wrong at port {port}"
                );
            }
        }
    }

    #[test]
    fn display_matches_classbench_style() {
        assert_eq!(PortRange::new(0, 65535).unwrap().to_string(), "0 : 65535");
        assert_eq!(PortRange::exact(7812).to_string(), "7812 : 7812");
    }
}
