//! A linear-probe hash table in one block RAM, with removal by backward
//! shift (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so no deleted marker
//! ever lengthens a chain.

use crate::MemoryBlock;

/// Where a [`ProbeTable::find`] ended.
#[derive(Debug)]
pub enum Probe<'a, S> {
    /// The entry the key names, and its slot.
    Hit(usize, &'a S),
    /// The free slot that ends the key's chain, where it would go.
    Free(usize),
    /// A whole lap of a full table without the key.
    Lap,
}

/// Entries of type `S` in a power-of-two block of slots, each at its
/// *home* (an address the caller computes) or the first free slot after
/// it. The table never sees a key: a caller passes a home and a test for
/// its entry, and prices the steps a probe took in its own read model.
///
/// A write is one charged word of the block: [`put`](ProbeTable::put) and
/// [`update`](ProbeTable::update) one each, [`erase`](ProbeTable::erase)
/// one per moved entry plus one for the slot it leaves free.
#[derive(Debug)]
pub struct ProbeTable<S> {
    slots: MemoryBlock<Option<S>>,
    /// One flag per slot, set while it holds an entry, so a probe learns
    /// that a slot is free without pulling the slot's own cache line.
    /// Derived data: the model prices `slots` only.
    occupied: Vec<bool>,
    live: usize,
}

// Every slot address is masked down to the block's, and `new` allocates
// all of its words, so `read`/`write`/`take` cannot see an out-of-range
// address.
#[allow(clippy::expect_used)]
impl<S> ProbeTable<S> {
    /// An empty table of `words` slots of `width_bits` each; filling the
    /// block charges one write per slot.
    ///
    /// # Panics
    ///
    /// If `words` is not a power of two.
    pub fn new(name: &str, words: usize, width_bits: u32) -> Self {
        assert!(words.is_power_of_two(), "{name}: {words} slots");
        let mut slots = MemoryBlock::new(name, words, width_bits);
        for _ in 0..words {
            slots.alloc(None).expect("provisioned");
        }
        ProbeTable {
            slots,
            occupied: vec![false; words],
            live: 0,
        }
    }

    /// The block behind the table: its geometry and write count.
    pub fn block(&self) -> &MemoryBlock<Option<S>> {
        &self.slots
    }

    /// Slots in the table.
    pub fn capacity(&self) -> usize {
        self.occupied.len()
    }

    /// Entries in the table.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether slot `addr` is free, from the occupancy flag alone.
    pub fn is_free(&self, addr: usize) -> bool {
        !self.occupied[addr]
    }

    /// The entries, in slot order (no modelled access).
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.slots.as_slice().iter().flatten()
    }

    /// The entries, in slot order, out of a table being replaced.
    pub fn into_entries(self) -> impl Iterator<Item = S> {
        self.slots.into_words().into_iter().flatten()
    }

    /// Walks the chain from `home` (taken modulo the capacity) to the
    /// entry `is_key` accepts, a free slot, or one lap, and returns where
    /// it ended with the slots it stepped on. Charges nothing.
    #[inline]
    pub fn find(&self, home: usize, is_key: impl Fn(&S) -> bool) -> (Probe<'_, S>, usize) {
        let slots = self.slots.as_slice();
        let mask = slots.len() - 1;
        for i in 0..slots.len() {
            let addr = home.wrapping_add(i) & mask;
            if !self.occupied[addr] {
                return (Probe::Free(addr), i + 1);
            }
            if let Some(s) = &slots[addr] {
                if is_key(s) {
                    return (Probe::Hit(addr, s), i + 1);
                }
            }
        }
        (Probe::Lap, slots.len())
    }

    /// Stores `entry` in the free slot `addr` a [`Probe::Free`] named.
    pub fn put(&mut self, addr: usize, entry: S) {
        debug_assert!(!self.occupied[addr], "slot {addr} is taken");
        self.set(addr, Some(entry));
        self.live += 1;
    }

    /// Rewrites the entry in slot `addr` through `f`, one write.
    pub fn update<R>(&mut self, addr: usize, f: impl FnOnce(&mut S) -> R) -> R {
        let mut word = self.slots.take(addr).expect("address in range");
        let r = f(word.as_mut().expect("a live slot"));
        self.set(addr, word);
        r
    }

    /// Removes the entry in slot `hole` and closes the gap: each later
    /// entry of the run whose chain from its home (`home_of`, modulo the
    /// capacity) crosses the hole moves into it, leaving its own slot as
    /// the next hole. Ends at a free slot or after one lap, and returns
    /// the entry with the one slot the removal left free.
    pub fn erase(&mut self, mut hole: usize, home_of: impl Fn(&S) -> usize) -> (S, usize) {
        let mask = self.capacity() - 1;
        let gone = self.slots.take(hole).expect("address in range");
        let mut at = hole;
        for _ in 1..self.capacity() {
            at = (at + 1) & mask;
            let Some(s) = self.slots.as_slice()[at].as_ref() else {
                break;
            };
            // `s` may fill the hole iff the cyclic distance from its home
            // to `at` covers the hole's distance to `at`.
            if at.wrapping_sub(home_of(s)) & mask >= at.wrapping_sub(hole) & mask {
                let moved = self.slots.take(at).expect("address in range");
                self.set(hole, moved);
                hole = at;
            }
        }
        self.set(hole, None);
        self.live -= 1;
        (gone.expect("a live slot"), hole)
    }

    /// Writes one slot and its occupancy flag together, so the mirror
    /// cannot drift.
    fn set(&mut self, addr: usize, word: Option<S>) {
        self.occupied[addr] = word.is_some();
        self.slots.write(addr, word).expect("address in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// splitmix64: a seeded stream for the churn below.
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

    /// `(key, value)` entries; a key's home clusters keys onto a quarter
    /// of the slots, so runs are long and wrap.
    type Entry = (u32, u32);

    fn home(key: u32) -> usize {
        (key.wrapping_mul(0x9e37_79b1) >> 8) as usize & !3
    }

    fn find(t: &ProbeTable<Entry>, key: u32) -> Probe<'_, Entry> {
        t.find(home(key), |e| e.0 == key).0
    }

    /// Writes `op` charges, and the slots whose word it changed: a move
    /// rewrites a slot with another key, and the freed slot turns empty.
    fn charge(t: &mut ProbeTable<Entry>, op: impl FnOnce(&mut ProbeTable<Entry>)) -> (u64, u64) {
        let (before, w) = (t.block().as_slice().to_vec(), t.block().writes());
        op(t);
        let changed = before.iter().zip(t.block().as_slice());
        let changed = changed.filter(|(a, b)| a != b).count() as u64;
        (t.block().writes() - w, changed)
    }

    /// Every live key is a hit and every absent one ends free (or laps a
    /// full table), each entry sits after its home with no free slot in
    /// between, and the mirror is the slot state.
    fn check(t: &ProbeTable<Entry>, model: &HashMap<u32, u32>, universe: u32) {
        let (slots, mask) = (t.block().as_slice(), t.capacity() - 1);
        assert_eq!(t.len(), model.len());
        for key in 0..universe {
            match (find(t, key), model.get(&key)) {
                (Probe::Hit(addr, &e), Some(&v)) => {
                    assert_eq!((slots[addr], e), (Some((key, v)), (key, v)));
                }
                (Probe::Free(addr), None) => assert!(t.is_free(addr)),
                (Probe::Lap, None) => assert_eq!(t.len(), t.capacity()),
                (got, want) => panic!("key {key}: {got:?}, model {want:?}"),
            }
        }
        for (addr, slot) in slots.iter().enumerate() {
            assert_eq!(t.is_free(addr), slot.is_none(), "mirror at {addr}");
            if let Some((key, _)) = slot {
                let h = home(*key);
                let run = 0..addr.wrapping_sub(h) & mask;
                assert!(
                    run.map(|i| (h + i) & mask).all(|a| !t.is_free(a)),
                    "gap before {key}"
                );
            }
        }
    }

    #[test]
    fn churn_holds_the_table_to_a_map() {
        let mut rng = Rng(47);
        let (mut laps, mut moved) = (0, 0);
        for round in 0..60 {
            let words = 1 << rng.below(7);
            let universe = 2 * words as u32 + 3;
            let (mut t, mut model) = (ProbeTable::new("t", words, 8), HashMap::new());
            let mut writes = t.block().writes();
            assert_eq!(writes, words as u64, "the fill writes each slot once");
            // The load climbs towards full, then drains.
            for step in 0..8 * words {
                let key = rng.below(universe as usize) as u32;
                let filling = step < 4 * words;
                let value = step as u32;
                let (charged, changed) = match find(&t, key) {
                    Probe::Free(addr) if filling || rng.below(4) == 0 => {
                        model.insert(key, value);
                        charge(&mut t, |t| t.put(addr, (key, value)))
                    }
                    Probe::Hit(addr, _) if filling && rng.below(4) > 0 => {
                        model.insert(key, value);
                        charge(&mut t, |t| t.update(addr, |e| e.1 = value))
                    }
                    Probe::Hit(addr, &entry) => {
                        let (charged, changed) = charge(&mut t, |t| {
                            let (gone, freed) = t.erase(addr, |e| home(e.0));
                            assert_eq!(gone, entry);
                            assert!(t.is_free(freed));
                        });
                        model.remove(&key);
                        moved += charged - 1;
                        (charged, changed)
                    }
                    Probe::Lap => {
                        laps += 1;
                        (0, 0)
                    }
                    Probe::Free(_) => (0, 0),
                };
                assert_eq!(charged, changed, "round {round}, step {step}");
                writes += charged;
                assert_eq!(t.block().writes(), writes, "find charges nothing");
                check(&t, &model, universe);
            }
        }
        assert!(
            laps > 0 && moved > 0,
            "{laps} laps of a full table, {moved} moves"
        );
    }
}
