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
    data: Vec<T>,
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

    /// Appends a word, returning its address.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Full`] when the block is at capacity.
    pub fn alloc(&mut self, value: T) -> Result<usize, MemoryError> {
        if self.data.len() >= self.words {
            return Err(self.full());
        }
        self.writes += 1;
        self.data.push(value);
        Ok(self.data.len() - 1)
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

    /// Inserts a word at `addr`, moving the words from `addr` on one
    /// address up — how a sorted array takes a new element. Charges one
    /// write per word moved plus one for the new word.
    ///
    /// ```
    /// use spc_hwsim::MemoryBlock;
    /// let mut m: MemoryBlock<u32> = MemoryBlock::new("sorted", 8, 16);
    /// for v in [10, 30, 40] {
    ///     m.alloc(v).unwrap();
    /// }
    /// m.shift_insert(1, 20).unwrap(); // moves 30 and 40, writes 20
    /// assert_eq!(m.writes(), 3 + 3);
    /// assert_eq!(*m.read(1).unwrap(), 20);
    /// assert_eq!(*m.read(3).unwrap(), 40);
    /// ```
    ///
    /// # Errors
    ///
    /// [`MemoryError::Full`] when the block is at capacity,
    /// [`MemoryError::OutOfBounds`] when `addr` is past the first free
    /// word; the block and its write count are untouched either way.
    pub fn shift_insert(&mut self, addr: usize, value: T) -> Result<(), MemoryError> {
        if self.data.len() >= self.words {
            return Err(self.full());
        }
        if addr > self.data.len() {
            return Err(self.out_of_bounds(addr));
        }
        self.writes += (self.data.len() - addr) as u64 + 1;
        self.data.insert(addr, value);
        Ok(())
    }

    /// Removes the word at `addr`, moving the words after it one address
    /// down, and returns it. Charges one write per word moved.
    ///
    /// ```
    /// use spc_hwsim::MemoryBlock;
    /// let mut m: MemoryBlock<u32> = MemoryBlock::new("sorted", 8, 16);
    /// for v in [10, 20, 30] {
    ///     m.alloc(v).unwrap();
    /// }
    /// assert_eq!(m.shift_remove(0).unwrap(), 10); // moves 20 and 30
    /// assert_eq!(m.writes(), 3 + 2);
    /// assert_eq!(m.len(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] for unallocated addresses; the block
    /// and its write count are untouched.
    pub fn shift_remove(&mut self, addr: usize) -> Result<T, MemoryError> {
        if addr >= self.data.len() {
            return Err(self.out_of_bounds(addr));
        }
        self.writes += (self.data.len() - addr - 1) as u64;
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
    /// write count.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Words written since construction (allocations included). Callers
    /// take a before/after delta around an update.
    pub fn writes(&self) -> u64 {
        self.writes
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
        m.shift_insert(2, 15).unwrap(); // 20 and 30 move, 15 is written
        assert_eq!(m.writes() - w, 2 + 1);
        m.shift_insert(5, 40).unwrap(); // at the end: nothing moves
        assert_eq!(m.writes() - w, 3 + 1);
        let all: Vec<u32> = (0..m.len()).map(|a| *m.read(a).unwrap()).collect();
        assert_eq!(all, vec![0, 10, 15, 20, 30, 40]);

        let w = m.writes();
        assert_eq!(m.shift_remove(1).unwrap(), 10); // four words move down
        assert_eq!(m.writes() - w, 4);
        assert_eq!(m.shift_remove(4).unwrap(), 40); // the last word: none
        assert_eq!(m.writes() - w, 4);
        let all: Vec<u32> = (0..m.len()).map(|a| *m.read(a).unwrap()).collect();
        assert_eq!(all, vec![0, 15, 20, 30]);
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
        let all: Vec<u32> = (0..m.len()).map(|a| *m.read(a).unwrap()).collect();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn clear_keeps_geometry() {
        let mut m: MemoryBlock<u32> = MemoryBlock::new("b", 4, 8);
        m.alloc(1).unwrap();
        m.clear();
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
