//! The Rule Filter memory block (paper §III.D, §IV.C.1).
//!
//! Rules live in a hash-addressed memory: the seven dimension labels are
//! merged into a 68-bit key, folded by the hardware [`spc_hwsim::HashUnit`]
//! into an address, and collisions are resolved by linear probing with the
//! full key stored alongside the rule for rejection. A removal closes its
//! gap by shifting the rest of the run back (Knuth's Algorithm R), so no
//! deleted marker ever lengthens a chain. The same unit serves update
//! (rule insert = 2 data cycles + 1 hash cycle, §V.A) and lookup
//! (phase 4).
//!
//! The memory is read one aligned bucket of `BUCKET` slots per access,
//! a wide word of ganged block RAMs: a probe costs the buckets its chain
//! touches, so a chain that stays inside its home's bucket is one read.
//! Homes, the software layout, the provisioned bits and every write stay
//! per slot.

use crate::ClassifierError;
use spc_hwsim::{HashUnit, MemoryBlock};
use spc_types::{Rule, RuleId};

/// One Rule Filter slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Empty,
    Occupied(Stored),
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
    /// One flag per slot, set while it is `Slot::Occupied`, so a probe
    /// learns that a slot is free without pulling the slot's own cache
    /// line. Derived data: the model prices `slots` only.
    occupied: Vec<bool>,
    hash: HashUnit,
    live: usize,
    /// Longest probe sequence seen on insert, in slots.
    max_probe: u32,
}

const RULE_BODY_BITS: u32 = 48;

/// Slots per modelled read: one aligned bucket of 8 words (8 × 126 =
/// 1 008 bits at `ArchConfig::large()`).
const BUCKET: usize = 8;

/// Reads charged to a probe of `steps` consecutive slots from `home`: the
/// aligned buckets the chain touches, one more each time it enters the
/// next bucket. Every table size is a power of two, so a chain that wraps
/// past the last slot enters bucket 0 exactly where the count expects a
/// new bucket (or, below `BUCKET` slots, stays in the table's only one).
fn bucket_reads(home: usize, steps: usize) -> u32 {
    ((home % BUCKET + steps - 1) / BUCKET + 1) as u32
}

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
            occupied: vec![false; words],
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

    /// Longest insert-time probe chain observed, in slots (a probe is
    /// charged the buckets such a chain touches).
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

    /// Writes one slot and its occupancy flag together — the only place
    /// either changes after construction, so the mirror cannot drift.
    fn set_slot(&mut self, addr: usize, slot: Slot) {
        self.occupied[addr] = matches!(slot, Slot::Occupied(_));
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
        for i in 0..self.capacity() {
            let addr = (home + i) & mask;
            match self.slots.read(addr).expect("address in range") {
                Slot::Empty => {
                    let hit = Hit { rule_id: id, rule };
                    self.set_slot(addr, Slot::Occupied(Stored { key, hit }));
                    self.live += 1;
                    self.max_probe = self.max_probe.max(i as u32 + 1);
                    return Ok(());
                }
                Slot::Occupied(s) if s.key == key => {
                    return Err(ClassifierError::DuplicateKey {
                        existing: s.hit.rule_id.0,
                    });
                }
                Slot::Occupied(_) => {}
            }
        }
        Err(ClassifierError::RuleFilterFull)
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
                    self.erase(addr);
                    self.live -= 1;
                    return Ok(rule);
                }
                Slot::Occupied(_) => {}
            }
        }
        Err(ClassifierError::UnknownRule { id: id.0 })
    }

    /// Empties slot `hole` and closes the gap (Knuth, TAOCP vol. 3,
    /// §6.4, Algorithm R): each later entry of the run whose probe path
    /// crosses the hole moves into it, leaving its own slot as the next
    /// hole. The walk ends at an empty slot, or after one lap of a full
    /// table. Every moved word is one write, and so is the empty slot
    /// left at the end.
    fn erase(&mut self, mut hole: usize) {
        let mask = self.capacity() - 1;
        let mut at = hole;
        for _ in 1..self.capacity() {
            at = (at + 1) & mask;
            let Slot::Occupied(s) = *self.slots.read(at).expect("address in range") else {
                break;
            };
            // `s` may fill the hole iff the cyclic distance from its home
            // to `at` covers the hole's distance to `at`.
            let home = self.hash.fold(s.key);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.set_slot(hole, Slot::Occupied(s));
                hole = at;
            }
        }
        self.set_slot(hole, Slot::Empty);
    }

    /// Probes for a key (phase 4 of the lookup pipeline): the key is
    /// folded once, the probe is charged the aligned buckets its chain
    /// touches, and only a step over an occupied slot touches the slot
    /// itself.
    pub fn probe(&self, key: u128) -> ProbeResult {
        self.probe_at(self.hash.fold(key), key)
    }

    /// [`RuleFilter::probe`] for a caller that has `key`'s address from
    /// [`RuleFilter::hash_unit`] already — the priority-box walk, which
    /// shares hash state between neighbouring keys.
    pub(crate) fn probe_at(&self, home: usize, key: u128) -> ProbeResult {
        let slots = self.slots.as_slice();
        let mask = slots.len() - 1;
        for i in 0..slots.len() {
            let addr = (home + i) & mask;
            if !self.occupied[addr] {
                return ProbeResult {
                    hit: None,
                    reads: bucket_reads(home, i + 1),
                };
            }
            if let Slot::Occupied(s) = &slots[addr] {
                if s.key == key {
                    return ProbeResult {
                        hit: Some(s.hit),
                        reads: bucket_reads(home, i + 1),
                    };
                }
            }
        }
        ProbeResult {
            hit: None,
            reads: bucket_reads(home, slots.len()),
        }
    }

    /// Whether slot `addr` is empty, so that a probe starting there ends
    /// after its one read without finding anything — what most of the
    /// priority-box walk's probes learn, from the occupancy flag alone.
    pub(crate) fn is_free(&self, addr: usize) -> bool {
        !self.occupied[addr]
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
    fn removal_keeps_displaced_keys_reachable() {
        let mut f = RuleFilter::new(2, 68); // 4 slots: heavy collisions
        for k in 0..4u128 {
            f.insert(k, RuleId(k as u32), rule(0)).unwrap();
        }
        f.remove(0, RuleId(0)).unwrap();
        // Keys displaced past key 0's slot must still be reachable.
        for k in 1..4u128 {
            assert!(f.probe(k).hit.is_some(), "key {k} lost after removal");
        }
        // The run shifted back over key 0's slot: the one freed slot reads
        // `Slot::Empty`, and a later insert takes it.
        let slots = f.slots.as_slice();
        let free: Vec<usize> = (0..slots.len())
            .filter(|&a| slots[a] == Slot::Empty)
            .collect();
        assert_eq!(free.len(), 1);
        f.insert(9, RuleId(9), rule(0)).unwrap();
        assert_eq!(f.len(), 4);
        assert!(!f.is_free(free[0]));
        assert!((1..4u128).chain([9]).all(|k| f.probe(k).hit.is_some()));
    }

    #[test]
    fn occupancy_mirrors_slot_state_under_churn() {
        // 96 keys over 64 slots, in alternating insert-heavy and
        // remove-heavy phases: the filter fills, drains, and shifts runs
        // back on every removal, and failed operations of all three
        // kinds occur.
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
                    f.occupied[addr],
                    matches!(slot, Slot::Occupied(_)),
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

    /// The first keys of `0..` whose home is `home`, in order.
    fn keys_homed_at(f: &RuleFilter, home: usize, n: usize) -> Vec<u128> {
        (0u128..)
            .filter(|&k| f.hash.fold(k) == home)
            .take(n)
            .collect()
    }

    /// The reads a probe owes, walked one slot at a time: one for the
    /// home's bucket and one more each time the walk enters another
    /// bucket, until a hit, a free slot or a whole lap of the table.
    fn reference_reads(f: &RuleFilter, key: u128) -> (Option<Hit>, u32) {
        let (home, mask) = (f.hash.fold(key), f.capacity() - 1);
        let mut reads = 0;
        let mut bucket = None;
        for i in 0..f.capacity() {
            let addr = (home + i) & mask;
            if bucket != Some(addr / BUCKET) {
                bucket = Some(addr / BUCKET);
                reads += 1;
            }
            match f.slots.read(addr).unwrap() {
                Slot::Empty => break,
                Slot::Occupied(s) if s.key == key => return (Some(s.hit), reads),
                Slot::Occupied(_) => {}
            }
        }
        (None, reads)
    }

    #[test]
    fn a_probe_costs_the_buckets_its_chain_touches() {
        // 64 slots, 8 buckets. A free home: one read.
        let mut f = RuleFilter::new(6, 68);
        assert_eq!(f.probe(keys_homed_at(&f, 5, 1)[0]).reads, 1);
        // Three keys homed at slot 2 sit in 2, 3 and 4: one bucket.
        for k in keys_homed_at(&f, 2, 3) {
            f.insert(k, RuleId(0), rule(0)).unwrap();
            assert_eq!(f.probe(k).reads, 1, "key {k}");
        }
        // Three keys homed at slot 6 sit in 6, 7 and 8: the third one's
        // chain crosses into the next bucket.
        let edge = keys_homed_at(&f, 6, 4);
        for &k in &edge[..3] {
            f.insert(k, RuleId(1), rule(0)).unwrap();
        }
        let reads: Vec<u32> = edge[..3].iter().map(|&k| f.probe(k).reads).collect();
        assert_eq!(reads, [1, 1, 2]);
        // A miss from slot 6 walks 6..=9 and ends on the free slot 9.
        let miss = f.probe(edge[3]);
        assert_eq!((miss.hit, miss.reads), (None, 2));
        // Three keys homed at the last slot wrap: 63, then 0 and 1 in
        // the first bucket — counted as any other edge.
        let wrap = keys_homed_at(&f, 63, 4);
        for &k in &wrap[..3] {
            f.insert(k, RuleId(2), rule(0)).unwrap();
        }
        let reads: Vec<u32> = wrap.iter().map(|&k| f.probe(k).reads).collect();
        assert_eq!(reads, [1, 2, 2, 2]);
        // Below one bucket the table is a single word: even a full lap
        // of a full 4-slot table is one read.
        let mut tiny = RuleFilter::new(2, 68);
        for k in 0..4u128 {
            tiny.insert(k, RuleId(0), rule(0)).unwrap();
        }
        assert_eq!(tiny.probe(99).reads, 1);
    }

    #[test]
    fn probe_reads_equal_a_slot_by_slot_bucket_walk() {
        // Random fills of 16 to 256 slots, loads up to full, then churn:
        // every present and absent key's charge equals the walk's.
        let mut rng = StdRng::seed_from_u64(46);
        for round in 0..40 {
            let mut f = RuleFilter::new(rng.gen_range(4..=8), 68);
            let universe = 2 * f.capacity() as u64;
            let fill = rng.gen_range(1..=f.capacity());
            let mut live = Vec::new();
            for key in (0..u128::from(universe))
                .filter(|_| rng.gen_bool(0.5))
                .take(fill)
            {
                f.insert(key, RuleId(0), rule(0)).unwrap();
                live.push(key);
            }
            for _ in 0..f.capacity() {
                if !live.is_empty() && rng.gen_bool(0.5) {
                    let key = live.swap_remove(rng.gen_range(0..live.len()));
                    f.remove(key, RuleId(0)).unwrap();
                } else if live.len() < f.capacity() {
                    let key = u128::from(rng.gen_range(0..universe));
                    if f.insert(key, RuleId(0), rule(0)).is_ok() {
                        live.push(key);
                    }
                }
                for key in 0..u128::from(universe) {
                    let probe = f.probe(key);
                    let (hit, reads) = reference_reads(&f, key);
                    assert_eq!(
                        (probe.hit, probe.reads),
                        (hit, reads),
                        "round {round}, key {key}"
                    );
                    assert_eq!(hit.is_some(), live.contains(&key));
                }
            }
        }
    }

    #[test]
    fn churned_filter_misses_cost_what_a_fresh_one_does() {
        // 1 024 live keys over 4 096 slots; each pair removes a random
        // live key and inserts one never seen before.
        let mut f = RuleFilter::new(12, 68);
        let mut rng = StdRng::seed_from_u64(11);
        let mut live: Vec<u128> = (0..1024).collect();
        for &k in &live {
            f.insert(k, RuleId(0), rule(0)).unwrap();
        }
        for fresh in 1024..21_024u128 {
            let gone = live.swap_remove(rng.gen_range(0..live.len()));
            f.remove(gone, RuleId(0)).unwrap();
            f.insert(fresh, RuleId(0), rule(0)).unwrap();
            live.push(fresh);
        }
        let mut rebuilt = RuleFilter::new(12, 68);
        for &k in &live {
            rebuilt.insert(k, RuleId(0), rule(0)).unwrap();
        }
        // Which slots a linear-probe table fills does not depend on the
        // order keys arrived in, and a backward-shift removal leaves the
        // table some arrival order of the live keys would have built. So
        // a miss, which walks to the first free slot, reads exactly what
        // it reads in the rebuilt table (a filter that left tombstones
        // walked ≈ 325 slots per miss here, a fresh one ≈ 1.4).
        let misses = 1u128 << 40..(1u128 << 40) + 4096;
        let reads = |f: &RuleFilter| {
            misses
                .clone()
                .map(|k| u64::from(f.probe(k).reads))
                .sum::<u64>()
        };
        assert_eq!(reads(&f), reads(&rebuilt));
        assert!(reads(&rebuilt) < 2 * 4096, "{} reads", reads(&rebuilt));
        assert!(live.iter().all(|&k| f.probe(k).hit.is_some()));
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
