//! Block-RAM model: fixed geometry, real storage, write accounting.

use std::fmt;

/// Error from memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemoryError {
    /// Address beyond the block's word capacity.
    OutOfBounds {
        /// Block name.
        block: String,
        /// Offending address.
        addr: usize,
        /// Word capacity.
        words: usize,
    },
    /// The block is full (allocation-style writes only).
    Full {
        /// Block name.
        block: String,
        /// Word capacity.
        words: usize,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfBounds { block, addr, words } => {
                write!(
                    f,
                    "address {addr} out of bounds for block '{block}' ({words} words)"
                )
            }
            MemoryError::Full { block, words } => {
                write!(f, "memory block '{block}' is full ({words} words)")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// A block RAM of `words` words, each `width_bits` wide, storing values of
/// type `T` (one per word) and counting every word written.
///
/// The element type `T` is the *semantic* content of a word (a trie node, a
/// label list pointer, ...); `width_bits` is what the word costs in hardware
/// and is used for the Table V/VI memory inventories. Keeping the two
/// together means the simulator cannot silently use more state than the
/// hardware it models provisions.
///
/// A read charges nothing here: lookup paths count the words they read and
/// return the total by value (`LookupCost::mem_reads` upward), so `&self`
/// access mutates nothing and a built block is plain shared data. Writes
/// need `&mut self` already and are tallied in [`MemoryBlock::writes`], the
/// raw material of the §V.A update-cost report.
///
/// The live words are one contiguous run of physical words that starts at
/// a private *base register* (the physical address of logical word 0).
/// Every address the API takes or returns is logical, so a reader sees
/// the same `len()` words in the same order wherever the run sits. A
/// block that only [`alloc`](MemoryBlock::alloc)s keeps its base at 0; a
/// sorted array placed mid-block by
/// [`clear_centred`](MemoryBlock::clear_centred) floats, so that
/// [`shift_insert`](MemoryBlock::shift_insert) and
/// [`shift_remove`](MemoryBlock::shift_remove) move whichever side of the
/// split is shorter. The base is control state of the kind of the
/// word-count register a search needs, one adder in the address path
/// and no memory word, so [`MemoryBlock::used_bits`] and
/// [`MemoryBlock::capacity_bits`] do not count it.
///
/// ```
/// use spc_hwsim::MemoryBlock;
/// let mut m: MemoryBlock<u32> = MemoryBlock::new("l1", 32, 24);
/// let addr = m.alloc(7).unwrap();
/// assert_eq!(*m.read(addr).unwrap(), 7);
/// assert_eq!(m.writes(), 1);
/// assert_eq!(m.capacity_bits(), 32 * 24);
/// ```
#[derive(Debug)]
pub struct MemoryBlock<T> {
    name: String,
    words: usize,
    width_bits: u32,
    /// The live words in logical order: logical address `a` is physical
    /// word `base + a`.
    data: Vec<T>,
    /// Physical address of logical word 0.
    base: usize,
    writes: u64,
}

impl<T> MemoryBlock<T> {
    /// Creates an empty block with the given geometry.
    pub fn new(name: impl Into<String>, words: usize, width_bits: u32) -> Self {
        MemoryBlock {
            name: name.into(),
            words,
            width_bits,
            data: Vec::new(),
            base: 0,
            writes: 0,
        }
    }

    /// Block name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Word capacity.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Word width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Provisioned capacity in bits (`words × width`).
    pub fn capacity_bits(&self) -> u64 {
        self.words as u64 * u64::from(self.width_bits)
    }

    /// Bits actually occupied (`used words × width`).
    pub fn used_bits(&self) -> u64 {
        self.data.len() as u64 * u64::from(self.width_bits)
    }

    /// Number of words currently allocated.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no words are allocated.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Remaining free words.
    pub fn free_words(&self) -> usize {
        self.words - self.data.len()
    }

    /// Appends a word, returning its address: a
    /// [`shift_insert`](MemoryBlock::shift_insert) at the end, which
    /// charges the one word written while a free word follows the array
    /// (always, at base 0).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Full`] when the block is at capacity.
    pub fn alloc(&mut self, value: T) -> Result<usize, MemoryError> {
        let addr = self.data.len();
        self.shift_insert(addr, value)?;
        Ok(addr)
    }

    /// Reads the word at `addr` (the caller counts the access).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfBounds`] for unallocated addresses.
    pub fn read(&self, addr: usize) -> Result<&T, MemoryError> {
        self.data.get(addr).ok_or_else(|| self.out_of_bounds(addr))
    }

    /// The allocated words in address order, for a read path whose
    /// addresses are in range by construction (the caller counts the
    /// accesses): indexing the slice is still checked, but a miss is the
    /// caller's broken invariant, not an error value to build.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Overwrites the word at `addr`, charging one write access.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfBounds`] for unallocated addresses.
    pub fn write(&mut self, addr: usize, value: T) -> Result<(), MemoryError> {
        self.writes += 1;
        match self.data.get_mut(addr) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(self.out_of_bounds(addr)),
        }
    }

    /// Takes the word at `addr` out, leaving `T::default()`, for a word on
    /// its way to another address: charges nothing, since the word it
    /// lands in is charged.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfBounds`] for unallocated addresses.
    pub(crate) fn take(&mut self, addr: usize) -> Result<T, MemoryError>
    where
        T: Default,
    {
        match self.data.get_mut(addr) {
            Some(slot) => Ok(std::mem::take(slot)),
            None => Err(self.out_of_bounds(addr)),
        }
    }

    /// Inserts a word at `addr` — how a sorted array takes a new element —
    /// moving one side of the split one word outward: the prefix
    /// `[0, addr)` down into the word below the base, or the suffix
    /// `[addr, len)` up into the word past the end. The shorter side moves
    /// (the suffix on a tie); when the word next to it is the block's
    /// edge, the other side moves instead. Charges one write per word
    /// moved plus one for the new word.
    ///
    /// ```
    /// use spc_hwsim::MemoryBlock;
    /// let mut m: MemoryBlock<u32> = MemoryBlock::new("sorted", 8, 16);
    /// for v in [10, 30, 40] {
    ///     m.alloc(v).unwrap();
    /// }
    /// // The array starts at word 0, so the prefix has no room: 30 and
    /// // 40 move up, and 20 is written.
    /// m.shift_insert(1, 20).unwrap();
    /// assert_eq!(m.writes(), 3 + 3);
    /// assert_eq!(*m.read(1).unwrap(), 20);
    /// assert_eq!(*m.read(3).unwrap(), 40);
    /// ```
    ///
    /// # Errors
    ///
    /// [`MemoryError::Full`] when the block is at capacity (only then: a
    /// block that is not full has a free word on one side),
    /// [`MemoryError::OutOfBounds`] when `addr` is past the first free
    /// word; the block, its base and its write count are untouched either
    /// way.
    pub fn shift_insert(&mut self, addr: usize, value: T) -> Result<(), MemoryError> {
        let len = self.data.len();
        if len >= self.words {
            return Err(self.full());
        }
        if addr > len {
            return Err(self.out_of_bounds(addr));
        }
        let (prefix, suffix) = (addr, len - addr);
        let room_above = self.base + len < self.words;
        // Not full: if the suffix has no room above, the prefix has some
        // below.
        let moved = if self.base > 0 && (prefix < suffix || !room_above) {
            self.base -= 1;
            prefix
        } else {
            suffix
        };
        self.writes += moved as u64 + 1;
        self.data.insert(addr, value);
        Ok(())
    }

    /// Removes the word at `addr` and returns it, closing the gap from
    /// the shorter side: the prefix `[0, addr)` moves up one word (the
    /// base with it) or the suffix `(addr, len)` down one (the suffix on
    /// a tie). Charges one write per word moved.
    ///
    /// ```
    /// use spc_hwsim::MemoryBlock;
    /// let mut m: MemoryBlock<u32> = MemoryBlock::new("sorted", 8, 16);
    /// for v in [10, 20, 30, 40] {
    ///     m.alloc(v).unwrap();
    /// }
    /// assert_eq!(m.shift_remove(1).unwrap(), 20); // 10 moves up, not 30 and 40 down
    /// assert_eq!(m.writes(), 4 + 1);
    /// assert_eq!(m.shift_remove(2).unwrap(), 40); // the last word: nothing moves
    /// assert_eq!(m.writes(), 4 + 1);
    /// assert_eq!(*m.read(0).unwrap(), 10);
    /// assert_eq!(m.len(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] for unallocated addresses; the block,
    /// its base and its write count are untouched.
    pub fn shift_remove(&mut self, addr: usize) -> Result<T, MemoryError> {
        let len = self.data.len();
        if addr >= len {
            return Err(self.out_of_bounds(addr));
        }
        let (prefix, suffix) = (addr, len - addr - 1);
        let moved = if prefix < suffix {
            self.base += 1;
            prefix
        } else {
            suffix
        };
        self.writes += moved as u64;
        Ok(self.data.remove(addr))
    }

    fn full(&self) -> MemoryError {
        MemoryError::Full {
            block: self.name.clone(),
            words: self.words,
        }
    }

    fn out_of_bounds(&self, addr: usize) -> MemoryError {
        MemoryError::OutOfBounds {
            block: self.name.clone(),
            addr,
            words: self.words,
        }
    }

    /// Clears content (e.g. software rebuild), keeping geometry and the
    /// write count, and places the next `len` words allocated mid-block,
    /// from physical word `(words − len) / 2`, so that a sorted array
    /// rebuilt there has free words on both sides to shift into. Charges
    /// nothing: each word is written once wherever it goes.
    pub fn clear_centred(&mut self, len: usize) {
        self.data.clear();
        self.base = self.words.saturating_sub(len) / 2;
    }

    /// Words written since construction (allocations included). Callers
    /// take a before/after delta around an update.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The allocated words in address order, out of a block being
    /// replaced.
    pub(crate) fn into_words(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_capacity() {
        let m: MemoryBlock<u8> = MemoryBlock::new("b", 1024, 36);
        assert_eq!(m.capacity_bits(), 36864);
        assert_eq!(m.words(), 1024);
        assert_eq!(m.width_bits(), 36);
        assert!(m.is_empty());
        assert_eq!(m.free_words(), 1024);
    }

    #[test]
    fn alloc_read_write_count() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("b", 4, 8);
        let a0 = m.alloc(10).unwrap();
        let a1 = m.alloc(11).unwrap();
        assert_eq!((a0, a1), (0, 1));
        assert_eq!(*m.read(a1).unwrap(), 11);
        m.write(a0, 20).unwrap();
        assert_eq!(*m.read(a0).unwrap(), 20);
        assert_eq!(m.writes(), 3); // 2 allocs + 1 write
        assert_eq!(m.used_bits(), 16);
    }

    #[test]
    fn take_charges_nothing() {
        let mut m: MemoryBlock<Option<u32>> = MemoryBlock::new("b", 2, 8);
        m.alloc(Some(7)).unwrap();
        assert_eq!(m.take(0), Ok(Some(7)));
        assert_eq!((m.as_slice(), m.writes()), (&[None][..], 1));
        assert!(matches!(m.take(1), Err(MemoryError::OutOfBounds { .. })));
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn full_and_oob_errors() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("tiny", 1, 8);
        m.alloc(1).unwrap();
        assert!(matches!(m.alloc(2), Err(MemoryError::Full { .. })));
        assert!(matches!(
            m.read(5),
            Err(MemoryError::OutOfBounds { addr: 5, .. })
        ));
        assert!(matches!(
            m.write(5, 0),
            Err(MemoryError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn shifting_writes_charge_words_moved() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("b", 6, 8);
        for v in [0, 10, 20, 30] {
            m.alloc(v).unwrap();
        }
        let w = m.writes();
        // At base 0 the prefix has no free word below it, so the suffix
        // moves even where it is the longer side.
        m.shift_insert(2, 15).unwrap(); // 20 and 30 move up, 15 is written
        assert_eq!(m.writes() - w, 2 + 1);
        m.shift_insert(5, 40).unwrap(); // at the end: nothing moves
        assert_eq!(m.writes() - w, 3 + 1);
        assert_eq!(m.as_slice(), [0, 10, 15, 20, 30, 40]);

        let w = m.writes();
        assert_eq!(m.shift_remove(1).unwrap(), 10); // 0 moves up, not four words down
        assert_eq!(m.writes() - w, 1);
        assert_eq!(m.shift_remove(4).unwrap(), 40); // the last word: none
        assert_eq!(m.writes() - w, 1);
        assert_eq!(m.as_slice(), [0, 15, 20, 30]);

        // At base 1 there is a free word on each side, so the shorter
        // prefix moves down.
        let w = m.writes();
        m.shift_insert(1, 5).unwrap(); // 0 moves down, 5 is written
        assert_eq!(m.writes() - w, 1 + 1);
        assert_eq!(m.as_slice(), [0, 5, 15, 20, 30]);
    }

    #[test]
    fn clear_centred_places_the_array_mid_block() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("b", 9, 8);
        m.clear_centred(4);
        for v in [10, 20, 30, 40] {
            m.alloc(v).unwrap();
        }
        assert_eq!((m.base, m.writes()), (2, 4), "words 2..6, one write each");
        m.shift_insert(1, 15).unwrap(); // 10 moves down, 15 is written
        m.shift_insert(4, 35).unwrap(); // 40 moves up, 35 is written
        assert_eq!(m.writes(), 4 + 2 + 2);
        assert_eq!(m.as_slice(), [10, 15, 20, 30, 35, 40]);
        assert_eq!(m.used_bits(), 6 * 8, "the base register is no memory word");
        m.clear_centred(9);
        assert_eq!((m.base, m.len()), (0, 0));
    }

    /// splitmix64: a seeded stream for the layout property below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// The block's physical words, each shift applied as the word moves
    /// it charges, one slot over into a slot that must be free.
    struct Shadow {
        slots: Vec<Option<u32>>,
        writes: u64,
    }

    impl Shadow {
        fn put(&mut self, at: usize, value: Option<u32>) {
            let slot = self
                .slots
                .get_mut(at)
                .expect("a word moved past the block's edge");
            assert!(slot.is_none(), "a move overwrote the live word at {at}");
            *slot = value;
            self.writes += 1;
        }

        fn mv(&mut self, from: usize, to: usize) {
            let value = self.slots[from].take();
            assert!(value.is_some(), "moved the free word {from}");
            self.put(to, value);
        }

        fn live(&self) -> (usize, Vec<u32>) {
            let first = self.slots.iter().position(Option::is_some);
            let live: Vec<u32> = self.slots.iter().flatten().copied().collect();
            let first = first.unwrap_or(0);
            let run = &self.slots[first..first + live.len()];
            assert!(run.iter().all(Option::is_some), "the live words have a gap");
            (first, live)
        }
    }

    /// Counts of the cases the property must have met to mean anything.
    #[derive(Default)]
    struct Seen {
        prefix_moves: usize,
        forced_suffix: usize,
        forced_prefix: usize,
        full: usize,
    }

    /// A block, its shadow, and the seeded stream that drives both.
    struct Trial {
        m: MemoryBlock<u32>,
        sh: Shadow,
        rng: Rng,
        next: u32,
        seen: Seen,
    }

    impl Trial {
        /// Empties the block, to refill from word 0 (as a block that only
        /// allocates does) or from mid-block (as a rebuild places its
        /// array).
        fn restart(&mut self) {
            let words = self.m.words;
            let len = if self.rng.below(2) == 0 {
                words
            } else {
                self.rng.below(words + 1)
            };
            self.m.clear_centred(len);
            self.sh.slots.fill(None);
        }

        /// One insert or remove on the block and, by the side its base
        /// register says moved, on the shadow; then the block must be
        /// the shadow's live run, charged the words the shadow wrote,
        /// having moved the cheaper side that had room.
        fn step(&mut self) {
            let Trial {
                m, sh, rng, seen, ..
            } = self;
            let (base, len, writes) = (m.base, m.len(), m.writes());
            let before = m.as_slice().to_vec();
            sh.writes = 0;
            let insert = len == 0 || rng.below(2) == 0;
            // One address in eight past the valid range.
            let span = if insert { len + 1 } else { len };
            let addr = if rng.below(8) == 0 {
                span
            } else {
                rng.below(span)
            };
            let ok = if insert {
                self.next += 1;
                let value = self.next;
                match m.shift_insert(addr, value) {
                    Ok(()) => {
                        let (prefix, suffix) = (addr + 1, len - addr + 1);
                        let (below, above) = (base > 0, base + len < m.words);
                        if m.base + 1 == base {
                            seen.prefix_moves += 1;
                            seen.forced_prefix += usize::from(prefix > suffix);
                            assert!(below && (prefix < suffix || !above), "prefix moved");
                            for a in 0..addr {
                                sh.mv(base + a, base + a - 1);
                            }
                            sh.put(base - 1 + addr, Some(value));
                        } else {
                            assert_eq!(m.base, base, "the base moves by at most one");
                            seen.forced_suffix += usize::from(suffix > prefix);
                            assert!(above && (suffix <= prefix || !below), "suffix moved");
                            for a in (addr..len).rev() {
                                sh.mv(base + a, base + a + 1);
                            }
                            sh.put(base + addr, Some(value));
                        }
                        true
                    }
                    Err(MemoryError::Full { .. }) => {
                        assert_eq!(len, m.words, "Full only when every word is live");
                        seen.full += 1;
                        false
                    }
                    Err(MemoryError::OutOfBounds { .. }) => {
                        assert!(len < m.words && addr > len);
                        false
                    }
                }
            } else {
                match m.shift_remove(addr) {
                    Ok(value) => {
                        assert_eq!(value, before[addr]);
                        assert_eq!(sh.slots[base + addr].take(), Some(value));
                        let (prefix, suffix) = (addr, len - addr - 1);
                        if m.base == base + 1 {
                            seen.prefix_moves += 1;
                            assert!(prefix < suffix, "prefix moved");
                            for a in (0..addr).rev() {
                                sh.mv(base + a, base + a + 1);
                            }
                        } else {
                            assert_eq!(m.base, base, "the base moves by at most one");
                            assert!(suffix <= prefix, "suffix moved");
                            for a in addr + 1..len {
                                sh.mv(base + a, base + a - 1);
                            }
                        }
                        true
                    }
                    Err(e) => {
                        assert!(addr >= len, "{e}");
                        false
                    }
                }
            };
            if !ok {
                assert_eq!(
                    (m.base, m.writes()),
                    (base, writes),
                    "a failed shift is untouched"
                );
                assert_eq!(m.as_slice(), before);
            }
            assert_eq!(
                m.writes() - writes,
                sh.writes,
                "charged == words the shadow wrote"
            );
            let (first, live) = sh.live();
            if !live.is_empty() {
                assert_eq!(first, m.base, "the live run starts at the base");
            }
            assert_eq!(live, m.as_slice(), "the live run is the array in order");
        }
    }

    #[test]
    fn every_shift_is_a_realisable_move_of_the_cheaper_side() {
        let mut seen = Seen::default();
        for (seed, words) in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 8), (6, 16), (7, 33)] {
            let mut t = Trial {
                m: MemoryBlock::new("b", words, 8),
                sh: Shadow {
                    slots: vec![None; words],
                    writes: 0,
                },
                rng: Rng(seed),
                next: 0,
                seen,
            };
            for round in 0..400 {
                if round % 50 == 0 {
                    t.restart();
                }
                t.step();
            }
            seen = t.seen;
        }
        assert!(seen.prefix_moves > 0, "the array floated");
        assert!(
            seen.forced_suffix > 0,
            "a shorter prefix at word 0 made the suffix move"
        );
        assert!(
            seen.forced_prefix > 0,
            "a shorter suffix at the top made the prefix move"
        );
        assert!(seen.full > 0, "an insert into a full block was refused");
    }

    #[test]
    fn failed_shifting_writes_leave_the_block_untouched() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("b", 3, 8);
        for v in [1, 2] {
            m.alloc(v).unwrap();
        }
        let w = m.writes();
        assert!(matches!(
            m.shift_insert(3, 9),
            Err(MemoryError::OutOfBounds { addr: 3, .. })
        ));
        assert!(matches!(
            m.shift_remove(2),
            Err(MemoryError::OutOfBounds { addr: 2, .. })
        ));
        m.alloc(3).unwrap();
        assert!(matches!(
            m.shift_insert(0, 9),
            Err(MemoryError::Full { .. })
        ));
        assert_eq!(m.writes() - w, 1, "only the alloc was charged");
        assert_eq!(m.as_slice(), [1, 2, 3]);
    }

    #[test]
    fn clear_keeps_geometry() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("b", 4, 8);
        m.alloc(1).unwrap();
        m.clear_centred(4);
        assert!(m.is_empty());
        assert_eq!(m.words(), 4);
    }

    #[test]
    fn error_display() {
        let e = MemoryError::Full {
            block: "x".into(),
            words: 4,
        };
        assert!(e.to_string().contains("full"));
    }
}
