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
            return Err(MemoryError::Full {
                block: self.name.clone(),
                words: self.words,
            });
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
        self.data.get(addr).ok_or_else(|| MemoryError::OutOfBounds {
            block: self.name.clone(),
            addr,
            words: self.words,
        })
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
            None => Err(MemoryError::OutOfBounds {
                block: self.name.clone(),
                addr,
                words: self.words,
            }),
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
