//! The hardware hash unit.
//!
//! The architecture merges the highest-priority label of each of the seven
//! dimensions into one 68-bit segment (4 × 13-bit IP-segment labels +
//! 2 × 7-bit port labels + 1 × 2-bit protocol label) and hashes it to obtain
//! the Rule Filter address (§IV.C.1). A rule insert uses the same unit, so
//! update and lookup agree on addresses and the insert costs one extra hash
//! cycle (§V.A).

/// A stateless hash unit folding wide keys to `addr_bits`-bit addresses.
///
/// The implementation is a 64-bit FNV-1a over the key bytes followed by an
/// xor-fold — cheap enough to be combinational in hardware, and completely
/// deterministic so the software controller can precompute the same
/// addresses it programs into the device. [`HashUnit::fold`] is
/// [`HashUnit::SEED`], [`HashUnit::absorb`] and [`HashUnit::finish`]
/// composed; a caller probing many keys that agree on their low bytes
/// composes them itself and hashes those bytes once.
///
/// ```
/// use spc_hwsim::HashUnit;
/// let h = HashUnit::new(13);
/// let a = h.fold(0x1234_5678_9abc_def0_12u128);
/// assert!(a < (1 << 13));
/// assert_eq!(a, h.fold(0x1234_5678_9abc_def0_12u128)); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashUnit {
    addr_bits: u32,
}

impl HashUnit {
    /// Creates a hash unit producing addresses of `addr_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= addr_bits <= 32`.
    pub fn new(addr_bits: u32) -> Self {
        assert!(
            (1..=32).contains(&addr_bits),
            "addr_bits must be in 1..=32, got {addr_bits}"
        );
        HashUnit { addr_bits }
    }

    /// Address width in bits.
    pub fn addr_bits(self) -> u32 {
        self.addr_bits
    }

    /// Number of addressable slots (`2^addr_bits`).
    pub fn slots(self) -> usize {
        1usize << self.addr_bits
    }

    /// The hash state before any key byte (the FNV-1a offset basis).
    pub const SEED: u64 = 0xcbf2_9ce4_8422_2325;

    /// Absorbs bytes `from..to` of `key` (little-endian: byte 0 is the
    /// lowest) into `state`, one FNV-1a round each. Absorbing `0..a` and
    /// then `a..b` is absorbing `0..b`, so keys that agree on their low
    /// bytes can share the state over them.
    ///
    /// # Panics
    ///
    /// Panics unless `from <= to <= 16`.
    #[inline]
    pub fn absorb(state: u64, key: u128, from: usize, to: usize) -> u64 {
        key.to_le_bytes()[from..to]
            .iter()
            .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    /// [`HashUnit::absorb`] of bytes `from..from + N`, with the width a
    /// constant: the `N` rounds unroll into straight-line code, where a
    /// runtime width compiles to a loop. A caller absorbing one width
    /// many times dispatches on it once.
    ///
    /// # Panics
    ///
    /// Panics unless `from + N <= 16`.
    #[inline]
    pub fn absorb_n<const N: usize>(state: u64, key: u128, from: usize) -> u64 {
        let bytes = key.to_le_bytes();
        let mut h = state;
        for i in 0..N {
            h = (h ^ u64::from(bytes[from + i])).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Finishes a key whose low `absorbed` bytes are in `state` and whose
    /// remaining bytes are all zero: a zero byte's round is a bare
    /// multiply, so the tail is one multiply by a power of the prime;
    /// then xor-folds 64 -> `addr_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `absorbed > 16`.
    #[inline]
    pub fn finish(self, state: u64, absorbed: usize) -> usize {
        let h = state.wrapping_mul(PRIME_POWERS[16 - absorbed]);
        let folded = h ^ (h >> 32);
        let folded = folded ^ (folded >> self.addr_bits.min(31));
        (folded as usize) & (self.slots() - 1)
    }

    /// Folds a key (up to 128 bits; the architecture uses 68) to an
    /// address: FNV-1a over its sixteen little-endian bytes.
    pub fn fold(self, key: u128) -> usize {
        let live = 16 - key.leading_zeros() as usize / 8;
        self.finish(Self::absorb(Self::SEED, key, 0, live), live)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POWERS[n]` is `FNV_PRIME^n` (wrapping): what `n` rounds over
/// zero bytes multiply the state by.
const PRIME_POWERS: [u64; 17] = {
    let mut powers = [1u64; 17];
    let mut n = 1;
    while n < powers.len() {
        powers[n] = powers[n - 1].wrapping_mul(FNV_PRIME);
        n += 1;
    }
    powers
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_in_range() {
        let h = HashUnit::new(13);
        for k in 0..1000u128 {
            assert!(h.fold(k * 0x9e37_79b9) < h.slots());
        }
    }

    #[test]
    fn deterministic() {
        let h = HashUnit::new(16);
        assert_eq!(h.fold(42), h.fold(42));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Not a statistical test, just a sanity check that sequential keys
        // don't all collide.
        let h = HashUnit::new(10);
        let mut seen = std::collections::HashSet::new();
        for k in 0..512u128 {
            seen.insert(h.fold(k));
        }
        assert!(seen.len() > 300, "only {} distinct addresses", seen.len());
    }

    /// The definition `fold` must keep: sixteen FNV-1a rounds, one per
    /// little-endian key byte, then the xor-fold.
    fn byte_loop(key: u128, addr_bits: u32) -> usize {
        let mut h = HashUnit::SEED;
        for b in key.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        let folded = h ^ (h >> 32);
        let folded = folded ^ (folded >> addr_bits.min(31));
        (folded as usize) & ((1usize << addr_bits) - 1)
    }

    #[test]
    fn every_split_of_the_absorb_matches_the_byte_loop() {
        // splitmix64, so the keys differ in every byte position.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut keys = vec![0, 1, 1 << 67, 1 << 72, 1 << 127, u128::MAX];
        for width in [8, 64, 68, 72, 73, 78, 100, 128u32] {
            for _ in 0..4 {
                let k = u128::from(next()) << 64 | u128::from(next());
                keys.push(k >> (128 - width));
            }
        }
        // Every fixed width up to the widest a caller dispatches, by width.
        let fixed: [fn(u64, u128, usize) -> u64; 6] = [
            HashUnit::absorb_n::<0>,
            HashUnit::absorb_n::<1>,
            HashUnit::absorb_n::<2>,
            HashUnit::absorb_n::<3>,
            HashUnit::absorb_n::<4>,
            HashUnit::absorb_n::<5>,
        ];
        for addr_bits in [1, 13, 15, 32] {
            let h = HashUnit::new(addr_bits);
            for &k in &keys {
                let want = byte_loop(k, addr_bits);
                assert_eq!(h.fold(k), want, "fold({k:#x}), {addr_bits} bits");
                for (n, absorb_n) in fixed.into_iter().enumerate() {
                    for from in 0..=16 - n {
                        let s = HashUnit::absorb(HashUnit::SEED, k, 0, from);
                        let s = HashUnit::absorb(absorb_n(s, k, from), k, from + n, 16);
                        assert_eq!(h.finish(s, 16), want, "{k:#x} absorb_n::<{n}> at {from}");
                    }
                }
                let live = 16 - k.leading_zeros() as usize / 8;
                for n in live..=16 {
                    for b in 0..=n {
                        for a in 0..=b {
                            let s = HashUnit::absorb(HashUnit::SEED, k, 0, a);
                            let s = HashUnit::absorb(s, k, a, b);
                            let s = HashUnit::absorb(s, k, b, n);
                            assert_eq!(h.finish(s, n), want, "{k:#x} split {a}/{b}/{n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn addresses_are_the_ones_installed_rules_were_placed_at() {
        // Computed with the sixteen-round loop before `fold` was split:
        // an edit that moves an address moves every Rule Filter placement,
        // every probe chain and every modelled read count with it.
        for (key, addr_bits, addr) in [
            (0x0f12_3456_789a_bcde_f012_u128, 13, 998),
            (0x2a5b_0123_4567_89ab_cdef, 15, 12128),
            (u128::MAX - 0x1234_5678, 15, 26507),
        ] {
            assert_eq!(HashUnit::new(addr_bits).fold(key), addr, "{key:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "addr_bits")]
    fn rejects_zero_bits() {
        let _ = HashUnit::new(0);
    }

    #[test]
    fn full_68_bit_keys_differ() {
        let h = HashUnit::new(13);
        // Keys differing only in the top (68th) bit must be distinguishable
        // inputs (they may still collide, but typically won't).
        let a = 0u128;
        let b = 1u128 << 67;
        // Just ensure both are valid and the hash consumes high bits.
        let _ = h.fold(a);
        let _ = h.fold(b);
        assert_ne!(h.fold(0xdead_beef), h.fold(0xdead_beef | (1 << 67)));
    }
}
