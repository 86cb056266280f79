//! The Rule Filter memory block (paper §III.D, §IV.C.1).
//!
//! Rules live in a hash-addressed memory: the seven dimension labels are
//! merged into a 68-bit key, folded by the hardware [`spc_hwsim::HashUnit`]
//! into an address, and collisions are resolved by linear probing with the
//! full key stored alongside the rule for rejection. The same unit serves
//! update (rule insert = 2 data cycles + 1 hash cycle, §V.A) and lookup
//! (phase 4).

use crate::ClassifierError;
use spc_hwsim::{HashUnit, MemoryBlock};
use spc_types::{Rule, RuleId};

/// One Rule Filter slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Empty,
    /// Deleted marker so probe chains stay intact.
    Tombstone,
    Occupied(Stored),
}

impl Slot {
    /// This slot's byte in [`RuleFilter`]'s occupancy mirror.
    fn occupancy(&self) -> u8 {
        match self {
            Slot::Empty => EMPTY,
            Slot::Tombstone => TOMBSTONE,
            Slot::Occupied(_) => OCCUPIED,
        }
    }
}

/// A classification hit: what a Rule Filter probe returns for a stored
/// key, and what the lookup pipeline returns as the HPMR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Id of the matching rule.
    pub rule_id: RuleId,
    /// The rule itself (with priority and action).
    pub rule: Rule,
}

/// An occupied Rule Filter slot: the hit, under the key a probe must
/// present in full to get it back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stored {
    /// Merged label key (up to 128 bits; 68 in the paper configuration).
    pub key: u128,
    /// What a probe for `key` returns.
    pub hit: Hit,
}

/// Result of a Rule Filter probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// The rule stored under the key, if the key was present.
    pub hit: Option<Hit>,
    /// Memory words read while probing.
    pub reads: u32,
}

/// The hash-addressed rule memory.
///
/// Word width model: key bits + rule body. The hardware word stores only
/// what phase 4 needs — the full key for collision rejection, the rule's
/// priority and its action/id (16+16+16 bits) — the 5-tuple itself stays
/// in the software controller (a label-key hit already proves the match).
#[derive(Debug)]
pub struct RuleFilter {
    slots: MemoryBlock<Slot>,
    /// One byte per slot mirroring its `Slot` variant (`EMPTY`,
    /// `TOMBSTONE`, `OCCUPIED`), so a probe learns that a slot is free
    /// without pulling the slot's own cache line. Derived data: the model
    /// prices `slots` only, and every chain step still costs one read.
    occupancy: Vec<u8>,
    hash: HashUnit,
    live: usize,
    /// Longest probe sequence seen on insert (worst-case lookup cost).
    max_probe: u32,
}

const RULE_BODY_BITS: u32 = 48;

const EMPTY: u8 = 0;
const TOMBSTONE: u8 = 1;
const OCCUPIED: u8 = 2;

// Every slot address is a home address plus a step, masked down to the
// block's address width, so `read`/`write` cannot see an out-of-range
// address; `new` pre-allocates exactly `words` slots, so `alloc` cannot
// overflow the provisioned block.
#[allow(clippy::expect_used)]
impl RuleFilter {
    /// Creates a filter with `2^addr_bits` slots and a `key_bits`-wide key
    /// field per word.
    pub fn new(addr_bits: u32, key_bits: u32) -> Self {
        let words = 1usize << addr_bits;
        let mut slots = MemoryBlock::new("rule_filter", words, key_bits + RULE_BODY_BITS);
        for _ in 0..words {
            slots.alloc(Slot::Empty).expect("provisioned");
        }
        // What lets `probe_at` index with `& (words - 1)` and nothing else.
        assert_eq!(slots.len(), words, "one slot per address");
        RuleFilter {
            slots,
            occupancy: vec![EMPTY; words],
            hash: HashUnit::new(addr_bits),
            live: 0,
            max_probe: 0,
        }
    }

    /// Installed rule count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.words()
    }

    /// Longest insert-time probe chain observed.
    pub fn max_probe(&self) -> u32 {
        self.max_probe
    }

    /// Iterates over the installed rules, in slot order.
    ///
    /// This is a *software-controller* view, not a modelled hardware
    /// operation (it returns no cost): it lists the stored slots, keys
    /// included, without re-reading the original rule set.
    pub fn iter(&self) -> impl Iterator<Item = &Stored> {
        (0..self.capacity()).filter_map(move |addr| match self.slots.read(addr) {
            Ok(Slot::Occupied(stored)) => Some(stored),
            _ => None,
        })
    }

    /// Writes one slot and its occupancy byte together — the only place
    /// either changes after construction, so the mirror cannot drift.
    fn set_slot(&mut self, addr: usize, slot: Slot) {
        self.occupancy[addr] = slot.occupancy();
        self.slots.write(addr, slot).expect("address in range");
    }

    /// Inserts a rule under its label key.
    ///
    /// # Errors
    ///
    /// [`ClassifierError::DuplicateKey`] if the key is already installed;
    /// [`ClassifierError::RuleFilterFull`] if no slot is free.
    pub fn insert(&mut self, key: u128, id: RuleId, rule: Rule) -> Result<(), ClassifierError> {
        let home = self.hash.fold(key);
        let mask = self.capacity() - 1;
        let mut first_free: Option<usize> = None;
        // Steps walked: the whole table unless an empty slot ends the chain.
        let mut chain = self.capacity();
        for i in 0..self.capacity() {
            let addr = (home + i) & mask;
            match self.slots.read(addr).expect("address in range") {
                Slot::Empty => {
                    first_free.get_or_insert(addr);
                    chain = i + 1;
                    break;
                }
                Slot::Tombstone => {
                    first_free.get_or_insert(addr);
                }
                Slot::Occupied(s) if s.key == key => {
                    return Err(ClassifierError::DuplicateKey {
                        existing: s.hit.rule_id.0,
                    });
                }
                Slot::Occupied(_) => {}
            }
        }
        let target = first_free.ok_or(ClassifierError::RuleFilterFull)?;
        let hit = Hit { rule_id: id, rule };
        self.set_slot(target, Slot::Occupied(Stored { key, hit }));
        self.live += 1;
        self.max_probe = self.max_probe.max(chain as u32);
        Ok(())
    }

    /// Removes the rule stored under `key`.
    ///
    /// # Errors
    ///
    /// [`ClassifierError::UnknownRule`] when the key is absent.
    pub fn remove(&mut self, key: u128, id: RuleId) -> Result<Rule, ClassifierError> {
        let home = self.hash.fold(key);
        let mask = self.capacity() - 1;
        for i in 0..self.capacity() {
            let addr = (home + i) & mask;
            match self.slots.read(addr).expect("address in range") {
                Slot::Empty => break,
                Slot::Occupied(s) if s.key == key => {
                    let rule = s.hit.rule;
                    self.set_slot(addr, Slot::Tombstone);
                    self.live -= 1;
                    return Ok(rule);
                }
                Slot::Tombstone | Slot::Occupied(_) => {}
            }
        }
        Err(ClassifierError::UnknownRule { id: id.0 })
    }

    /// Probes for a key (phase 4 of the lookup pipeline): the key is
    /// folded once, each chain step costs one modelled read, and only a
    /// step over an occupied slot touches the slot itself.
    pub fn probe(&self, key: u128) -> ProbeResult {
        self.probe_at(self.hash.fold(key), key)
    }

    /// [`RuleFilter::probe`] for a caller that has `key`'s address from
    /// [`RuleFilter::hash_unit`] already — the priority-box walk, which
    /// shares hash state between neighbouring keys.
    pub(crate) fn probe_at(&self, home: usize, key: u128) -> ProbeResult {
        let slots = self.slots.as_slice();
        let mask = slots.len() - 1;
        let mut reads = 0;
        for i in 0..slots.len() {
            let addr = (home + i) & mask;
            reads += 1;
            match self.occupancy[addr] {
                EMPTY => break,
                TOMBSTONE => {}
                _ => {
                    if let Slot::Occupied(s) = &slots[addr] {
                        if s.key == key {
                            return ProbeResult {
                                hit: Some(s.hit),
                                reads,
                            };
                        }
                    }
                }
            }
        }
        ProbeResult { hit: None, reads }
    }

    /// Whether slot `addr` is empty, so that a probe starting there ends
    /// after its one read without finding anything — what most of the
    /// priority-box walk's probes learn, from the occupancy byte alone.
    pub(crate) fn is_free(&self, addr: usize) -> bool {
        self.occupancy[addr] == EMPTY
    }

    /// The unit that turns a key into its home address.
    pub(crate) fn hash_unit(&self) -> HashUnit {
        self.hash
    }

    /// Provisioned bits of the rule memory.
    pub fn provisioned_bits(&self) -> u64 {
        self.slots.capacity_bits()
    }

    /// Bits occupied by live rules.
    pub fn used_bits(&self) -> u64 {
        self.live as u64 * u64::from(self.slots.width_bits())
    }

    /// Rule words written since construction (the pre-allocated empty
    /// slots included); [`crate::Classifier`] takes deltas of it.
    pub(crate) fn writes(&self) -> u64 {
        self.slots.writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spc_types::Priority;

    fn rule(p: u32) -> Rule {
        Rule::any(Priority(p))
    }

    #[test]
    fn insert_probe_remove() {
        let mut f = RuleFilter::new(6, 68);
        f.insert(42, RuleId(0), rule(0)).unwrap();
        let p = f.probe(42);
        assert_eq!(p.hit.unwrap().rule_id, RuleId(0));
        assert!(p.reads >= 1);
        assert!(f.probe(43).hit.is_none());
        let r = f.remove(42, RuleId(0)).unwrap();
        assert_eq!(r.priority, Priority(0));
        assert!(f.is_empty());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut f = RuleFilter::new(6, 68);
        f.insert(7, RuleId(0), rule(0)).unwrap();
        assert!(matches!(
            f.insert(7, RuleId(1), rule(1)),
            Err(ClassifierError::DuplicateKey { existing: 0 })
        ));
    }

    #[test]
    fn collisions_probe_through() {
        let mut f = RuleFilter::new(3, 68); // 8 slots force collisions
        for k in 0..6u128 {
            f.insert(k, RuleId(k as u32), rule(k as u32)).unwrap();
        }
        for k in 0..6u128 {
            assert_eq!(f.probe(k).hit.unwrap().rule_id, RuleId(k as u32), "key {k}");
        }
        assert!(f.max_probe() >= 1);
    }

    #[test]
    fn full_filter_errors() {
        let mut f = RuleFilter::new(2, 68);
        for k in 0..4u128 {
            f.insert(k, RuleId(k as u32), rule(0)).unwrap();
        }
        assert!(matches!(
            f.insert(99, RuleId(9), rule(0)),
            Err(ClassifierError::RuleFilterFull)
        ));
    }

    #[test]
    fn tombstones_keep_chains_intact() {
        let mut f = RuleFilter::new(2, 68); // 4 slots: heavy collisions
        for k in 0..4u128 {
            f.insert(k, RuleId(k as u32), rule(0)).unwrap();
        }
        f.remove(0, RuleId(0)).unwrap();
        // Keys displaced past key 0's slot must still be reachable.
        for k in 1..4u128 {
            assert!(f.probe(k).hit.is_some(), "key {k} lost after tombstoning");
        }
        // Tombstone is reused on insert.
        f.insert(9, RuleId(9), rule(0)).unwrap();
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn occupancy_mirrors_slot_state_under_churn() {
        // 96 keys over 64 slots, in alternating insert-heavy and
        // remove-heavy phases: the filter fills, drains, and reuses
        // tombstones, and failed operations of all three kinds occur.
        let mut f = RuleFilter::new(6, 68);
        let mut rng = StdRng::seed_from_u64(17);
        let mut live: Vec<u128> = Vec::new();
        let (mut duplicate, mut full, mut unknown) = (0, 0, 0);
        for step in 0..2000u32 {
            let key = u128::from(rng.gen_range(0..96u32));
            let installed = live.contains(&key);
            let insert_share = if (step / 250) % 2 == 0 { 0.85 } else { 0.3 };
            if rng.gen_bool(insert_share) {
                match f.insert(key, RuleId(step), rule(0)) {
                    Ok(()) => {
                        assert!(!installed);
                        live.push(key);
                    }
                    Err(ClassifierError::DuplicateKey { .. }) => {
                        assert!(installed);
                        duplicate += 1;
                    }
                    Err(ClassifierError::RuleFilterFull) => {
                        assert_eq!(live.len(), f.capacity());
                        full += 1;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            } else {
                match f.remove(key, RuleId(step)) {
                    Ok(_) => {
                        assert!(installed);
                        live.retain(|k| *k != key);
                    }
                    Err(_) => {
                        assert!(!installed);
                        unknown += 1;
                    }
                }
            }
            assert_eq!(f.len(), live.len());
            for addr in 0..f.capacity() {
                let slot = f.slots.read(addr).unwrap();
                assert_eq!(
                    f.occupancy[addr],
                    slot.occupancy(),
                    "step {step}, slot {addr}"
                );
            }
            assert_eq!(f.probe(key).hit.is_some(), live.contains(&key));
            for k in 0..96u128 {
                assert_eq!(f.probe_at(f.hash.fold(k), k), f.probe(k), "key {k}");
            }
        }
        assert!(duplicate > 0 && full > 0 && unknown > 0);
    }

    #[test]
    fn remove_unknown() {
        let mut f = RuleFilter::new(4, 68);
        assert!(matches!(
            f.remove(5, RuleId(1)),
            Err(ClassifierError::UnknownRule { id: 1 })
        ));
    }

    #[test]
    fn bits_accounting() {
        let f = RuleFilter::new(13, 68);
        assert_eq!(f.capacity(), 8192);
        assert_eq!(f.provisioned_bits(), 8192 * (68 + 48));
        assert_eq!(f.used_bits(), 0);
    }

    #[test]
    fn iter_yields_live_rules_without_charging_accesses() {
        let mut f = RuleFilter::new(4, 68);
        for k in 0..5u128 {
            f.insert(k, RuleId(k as u32), rule(0)).unwrap();
        }
        f.remove(2, RuleId(2)).unwrap();
        let mut ids: Vec<u32> = f.iter().map(|s| s.hit.rule_id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }
}
