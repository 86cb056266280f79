//! The hardware hash unit.
//!
//! The architecture merges the highest-priority label of each of the seven
//! dimensions into one 68-bit segment (4 × 13-bit IP-segment labels +
//! 2 × 7-bit port labels + 1 × 2-bit protocol label) and hashes it to obtain
//! the Rule Filter address (§IV.C.1). A rule insert uses the same unit, so
//! update and lookup agree on addresses and the insert costs one extra hash
//! cycle (§V.A). The paper fixes no hash function; this one is linear, so
//! the hash of a merged key is the XOR of its labels' hashes.

/// A stateless hash unit folding wide keys to `addr_bits`-bit addresses.
///
/// The unit is an H3 hash (Carter & Wegman, JCSS 1979), the XOR tree of
/// hardware hashing: key bit `i` owns a fixed 64-bit column, and a key's
/// hash is the XOR of the columns of its set bits. The hash is therefore
/// linear over GF(2): for keys with no bit in common,
/// `hash(a | b) == hash(a) ^ hash(b)`, so a caller merging a key from
/// disjoint fields hashes each field once and merges hashes with one XOR.
/// Software evaluates the columns one key byte at a time, through a
/// 256-entry table per byte. The address is the hash's low `addr_bits`
/// bits; the columns are fixed, so the software controller computes the
/// same addresses it programs into the device.
///
/// ```
/// use spc_hwsim::HashUnit;
/// let h = HashUnit::new(13);
/// let (a, b) = (0x1234_u128 << 55, 0x56_u128 << 9);
/// assert!(h.fold(a | b) < (1 << 13));
/// assert_eq!(HashUnit::hash(a | b), HashUnit::hash(a) ^ HashUnit::hash(b));
/// assert_eq!(h.fold(a | b), h.address(HashUnit::hash(a | b)));
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

    /// The 64-bit hash of a key of up to 128 bits: the XOR of the columns
    /// of its set bits, one table read per key byte.
    #[inline]
    pub fn hash(key: u128) -> u64 {
        BYTE_TABLES
            .iter()
            .zip(key.to_le_bytes())
            .fold(0, |h, (table, byte)| h ^ table[usize::from(byte)])
    }

    /// The address of a hash: its low `addr_bits` bits.
    #[inline]
    pub fn address(self, hash: u64) -> usize {
        hash as usize & (self.slots() - 1)
    }

    /// Folds a key (up to 128 bits; the architecture uses 68) to an
    /// address.
    pub fn fold(self, key: u128) -> usize {
        self.address(Self::hash(key))
    }
}

/// `COLUMNS[i]` is key bit `i`'s column: a splitmix64 stream from a fixed
/// seed.
const COLUMNS: [u64; 128] = {
    let mut columns = [0u64; 128];
    let mut x = 0x05ca_1ab1_e0dd_ba11_u64;
    let mut i = 0;
    while i < columns.len() {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        columns[i] = z ^ (z >> 31);
        i += 1;
    }
    columns
};

/// `BYTE_TABLES[i][b]` is the hash of byte value `b` at key byte `i`: the
/// XOR of the columns of `b`'s set bits, each entry one column away from
/// the entry without its lowest bit.
static BYTE_TABLES: [[u64; 256]; 16] = {
    let mut tables = [[0u64; 256]; 16];
    let mut i = 0;
    while i < tables.len() {
        let mut b = 1usize;
        while b < 256 {
            let low = b.trailing_zeros() as usize;
            tables[i][b] = tables[i][b & (b - 1)] ^ COLUMNS[8 * i + low];
            b += 1;
        }
        i += 1;
    }
    tables
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

    /// The definition `hash` must keep: the XOR of the columns of the
    /// key's set bits, one bit at a time.
    fn bit_loop(key: u128) -> u64 {
        (0..128)
            .filter(|&i| key >> i & 1 == 1)
            .fold(0, |h, i| h ^ COLUMNS[i])
    }

    #[test]
    fn the_hash_is_linear_and_its_byte_tables_are_its_columns() {
        // splitmix64, so the keys differ in every byte position.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut wide = move || u128::from(next()) << 64 | u128::from(next());
        let mut keys = vec![0, 1, 1 << 67, 1 << 72, 1 << 127, u128::MAX];
        keys.extend((0..128).map(|_| wide()));
        for &k in &keys {
            assert_eq!(HashUnit::hash(k), bit_loop(k), "{k:#x}");
            // Split `k` into two disjoint halves by a random mask.
            let mask = wide();
            let (a, b) = (k & mask, k & !mask);
            assert_eq!(HashUnit::hash(k), HashUnit::hash(a) ^ HashUnit::hash(b));
            for addr_bits in [1, 13, 15, 32] {
                let h = HashUnit::new(addr_bits);
                assert_eq!(h.fold(k), h.fold(a) ^ h.fold(b), "{k:#x}, {addr_bits} bits");
            }
        }
        // Every column is its own one-bit key, and no two are equal.
        let hashes: std::collections::HashSet<u64> =
            (0..128).map(|i| HashUnit::hash(1 << i)).collect();
        assert_eq!(hashes.len(), 128);
        assert!((0..128).all(|i| HashUnit::hash(1 << i) == COLUMNS[i]));
    }

    #[test]
    fn addresses_are_the_ones_installed_rules_were_placed_at() {
        // Computed from the columns' splitmix64 definition outside this
        // crate: an edit that moves an address moves every Rule Filter
        // placement, every probe chain and every modelled read count with
        // it.
        for (key, addr_bits, addr) in [
            (0x0f12_3456_789a_bcde_f012_u128, 13, 6561),
            (0x2a5b_0123_4567_89ab_cdef, 15, 20234),
            (u128::MAX - 0x1234_5678, 15, 11737),
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
