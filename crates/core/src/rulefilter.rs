//! The Rule Filter memory block (paper §III.D, §IV.C.1).
//!
//! Rules live in a hash-addressed memory: the dimension labels are merged
//! into one key, folded by the hardware [`spc_hwsim::HashUnit`] into an
//! address, and collisions are resolved by linear probing with the full
//! key stored alongside the rule for rejection. The memory is a
//! [`ProbeTable`], so a removal closes its gap by shifting the rest of the
//! run back and no deleted marker ever lengthens a chain. The same unit
//! serves update (rule insert = 2 data cycles + 1 hash cycle, §V.A) and
//! lookup (phase 4).
//!
//! The filter owns the key layout: its caller names each field's label
//! width once, and the filter packs labels into keys ([`RuleFilter::key`]),
//! places a label for a caller that merges keys itself
//! ([`RuleFilter::shift`]), sizes its words and finishes every hash. The
//! paper's instance is seven labels at 13/13/13/13/7/7/2 bits, a 68-bit
//! key; the Table I options use five at 13/13/13/13/4.
//!
//! The memory is read one aligned bucket of `BUCKET` slots per access,
//! a wide word of ganged block RAMs: a probe costs the buckets its chain
//! touches, so a chain that stays inside its home's bucket is one read.
//! Homes, the software layout, the provisioned bits and every write stay
//! per slot.

use crate::ClassifierError;
use spc_hwsim::{HashUnit, Probe, ProbeTable};
use spc_lookup::Label;
use spc_types::{Rule, RuleId};

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
    table: ProbeTable<Stored>,
    hash: HashUnit,
    /// Per field, the bit its label starts at and its width; the last
    /// field sits at bit 0.
    fields: Vec<(u32, u8)>,
    /// Bytes of a key the hash absorbs: every byte a label reaches.
    key_bytes: usize,
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

impl RuleFilter {
    /// Creates a filter with `2^addr_bits` slots whose key merges one
    /// label per entry of `widths`, each that many bits wide, the first
    /// field on top.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= addr_bits <= 32`, or if the widths add up to
    /// more than 128 bits.
    pub fn new(addr_bits: u32, widths: &[u8]) -> Self {
        let hash = HashUnit::new(addr_bits);
        let mut fields = vec![(0, 0); widths.len()];
        let mut key_bits = 0u32;
        for (field, &width) in fields.iter_mut().zip(widths).rev() {
            *field = (key_bits, width);
            key_bits += u32::from(width);
        }
        assert!(key_bits <= 128, "a {key_bits}-bit key does not fit a u128");
        RuleFilter {
            table: ProbeTable::new("rule_filter", hash.slots(), key_bits + RULE_BODY_BITS),
            hash,
            fields,
            key_bytes: key_bits.div_ceil(8) as usize,
        }
    }

    /// Packs one label per field into the merged key (68 bits in the
    /// paper configuration, §IV.C.1).
    pub fn key(&self, labels: &[Label]) -> u128 {
        debug_assert_eq!(labels.len(), self.fields.len(), "one label per field");
        labels
            .iter()
            .zip(&self.fields)
            .fold(0, |key, (label, &(shift, width))| {
                debug_assert!(u32::from(label.0) < (1u32 << width), "label exceeds width");
                key | u128::from(label.0) << shift
            })
    }

    /// The bit `field`'s label starts at in the merged key: a caller
    /// merging keys itself ORs `u128::from(label.0) << shift(field)`.
    pub fn shift(&self, field: usize) -> u32 {
        self.fields[field].0
    }

    /// Bytes of a key the hash absorbs (`key bits / 8`, rounded up).
    pub(crate) fn key_bytes(&self) -> usize {
        self.key_bytes
    }

    /// Bits of one rule word: the key and the rule body.
    pub(crate) fn word_bits(&self) -> u32 {
        self.table.block().width_bits()
    }

    /// Installed rule count.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Iterates over the installed rules, in slot order.
    ///
    /// This is a *software-controller* view, not a modelled hardware
    /// operation (it returns no cost): it lists the stored slots, keys
    /// included, without re-reading the original rule set.
    pub fn iter(&self) -> impl Iterator<Item = &Stored> {
        self.table.iter()
    }

    /// Inserts a rule under its label key.
    ///
    /// # Errors
    ///
    /// [`ClassifierError::DuplicateKey`] if the key is already installed;
    /// [`ClassifierError::RuleFilterFull`] if no slot is free.
    pub fn insert(&mut self, key: u128, id: RuleId, rule: Rule) -> Result<(), ClassifierError> {
        match self.table.find(self.hash.fold(key), |s| s.key == key).0 {
            Probe::Free(addr) => {
                let hit = Hit { rule_id: id, rule };
                self.table.put(addr, Stored { key, hit });
                Ok(())
            }
            Probe::Hit(_, s) => Err(ClassifierError::DuplicateKey {
                existing: s.hit.rule_id.0,
            }),
            Probe::Lap => Err(ClassifierError::RuleFilterFull),
        }
    }

    /// Removes the rule stored under `key`.
    ///
    /// # Errors
    ///
    /// [`ClassifierError::UnknownRule`] when the key is absent.
    pub fn remove(&mut self, key: u128, id: RuleId) -> Result<Rule, ClassifierError> {
        let hash = self.hash;
        match self.table.find(hash.fold(key), |s| s.key == key).0 {
            Probe::Hit(addr, _) => Ok(self.table.erase(addr, |s| hash.fold(s.key)).hit.rule),
            _ => Err(ClassifierError::UnknownRule { id: id.0 }),
        }
    }

    /// Probes for a key (phase 4 of the lookup pipeline): the key is
    /// folded once, the probe is charged the aligned buckets its chain
    /// touches, and only a step over an occupied slot touches the slot
    /// itself.
    pub fn probe(&self, key: u128) -> ProbeResult {
        self.probe_at(self.hash.fold(key), key)
    }

    /// [`RuleFilter::probe`] for a caller that has absorbed `key`'s low
    /// bytes into `state` already (through [`HashUnit::absorb`] from
    /// [`HashUnit::SEED`]) — the priority-box walk, which shares hash
    /// state between neighbouring keys. A free home, what most of the
    /// walk's probes find, costs its one read from the occupancy flag
    /// alone, before any chain walk.
    #[inline]
    pub(crate) fn probe_absorbed(&self, state: u64, key: u128) -> ProbeResult {
        let home = self.hash.finish(state, self.key_bytes);
        if self.table.is_free(home) {
            return ProbeResult {
                hit: None,
                reads: 1,
            };
        }
        self.probe_at(home, key)
    }

    /// A probe from `key`'s home slot.
    fn probe_at(&self, home: usize, key: u128) -> ProbeResult {
        let (probe, steps) = self.table.find(home, |s| s.key == key);
        ProbeResult {
            hit: match probe {
                Probe::Hit(_, s) => Some(s.hit),
                _ => None,
            },
            reads: bucket_reads(home, steps),
        }
    }

    /// Provisioned bits of the rule memory.
    pub fn provisioned_bits(&self) -> u64 {
        self.table.block().capacity_bits()
    }

    /// Bits occupied by live rules.
    pub fn used_bits(&self) -> u64 {
        self.len() as u64 * u64::from(self.word_bits())
    }

    /// Rule words written since construction (the pre-allocated empty
    /// slots included); [`crate::Classifier`] takes deltas of it.
    pub(crate) fn writes(&self) -> u64 {
        self.table.block().writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spc_types::Priority;

    /// The paper's seven label widths: a 68-bit key.
    const PAPER: [u8; 7] = [13, 13, 13, 13, 7, 7, 2];

    fn rule(p: u32) -> Rule {
        Rule::any(Priority(p))
    }

    #[test]
    fn key_packs_the_first_field_on_top() {
        let f = RuleFilter::new(4, &PAPER);
        let shifts: Vec<u32> = (0..PAPER.len()).map(|d| f.shift(d)).collect();
        assert_eq!(shifts, [55, 42, 29, 16, 9, 2, 0]);
        let top = [8191, 0, 0, 0, 0, 0, 0].map(Label);
        assert_eq!(f.key(&top), 8191 << 55);
        let widest = [8191, 8191, 8191, 8191, 127, 127, 3].map(Label);
        assert_eq!(f.key(&widest), (1 << 68) - 1);
        assert_eq!((f.key_bytes(), f.word_bits()), (9, 68 + 48));
        // Table I's options: four 13-bit labels and a 4-bit protocol.
        let options = RuleFilter::new(4, &[13, 13, 13, 13, 4]);
        assert_eq!(options.key(&[1, 0, 0, 0, 2].map(Label)), 1 << 43 | 2);
        assert_eq!((options.key_bytes(), options.word_bits()), (7, 56 + 48));
    }

    #[test]
    fn insert_probe_remove() {
        let mut f = RuleFilter::new(6, &PAPER);
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
        let mut f = RuleFilter::new(6, &PAPER);
        f.insert(7, RuleId(0), rule(0)).unwrap();
        assert!(matches!(
            f.insert(7, RuleId(1), rule(1)),
            Err(ClassifierError::DuplicateKey { existing: 0 })
        ));
    }

    #[test]
    fn collisions_probe_through() {
        let mut f = RuleFilter::new(3, &PAPER); // 8 slots force collisions
        for k in 0..6u128 {
            f.insert(k, RuleId(k as u32), rule(k as u32)).unwrap();
        }
        for k in 0..6u128 {
            assert_eq!(f.probe(k).hit.unwrap().rule_id, RuleId(k as u32), "key {k}");
        }
    }

    #[test]
    fn full_filter_errors() {
        let mut f = RuleFilter::new(2, &PAPER);
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
        let mut f = RuleFilter::new(2, &PAPER); // 4 slots: heavy collisions
        for k in 0..4u128 {
            f.insert(k, RuleId(k as u32), rule(0)).unwrap();
        }
        f.remove(0, RuleId(0)).unwrap();
        // Keys displaced past key 0's slot must still be reachable.
        for k in 1..4u128 {
            assert!(f.probe(k).hit.is_some(), "key {k} lost after removal");
        }
        // The run shifted back over key 0's slot: the one freed slot holds
        // no word, and a later insert takes it.
        let slots = f.table.block().as_slice();
        let free: Vec<usize> = (0..slots.len()).filter(|&a| slots[a].is_none()).collect();
        assert_eq!(free.len(), 1);
        f.insert(9, RuleId(9), rule(0)).unwrap();
        assert_eq!(f.len(), 4);
        assert!(!f.table.is_free(free[0]));
        assert!((1..4u128).chain([9]).all(|k| f.probe(k).hit.is_some()));
    }

    #[test]
    fn occupancy_mirrors_slot_state_under_churn() {
        // 96 keys over 64 slots, in alternating insert-heavy and
        // remove-heavy phases: the filter fills, drains, and shifts runs
        // back on every removal, and failed operations of all three
        // kinds occur.
        let mut f = RuleFilter::new(6, &PAPER);
        let mut rng = StdRng::seed_from_u64(17);
        let mut live: Vec<u128> = Vec::new();
        let (mut duplicate, mut full, mut unknown) = (0, 0, 0);
        // Probes from an absorbed state that found a free home, walked a
        // chain past the last slot, hit, and missed.
        let (mut free_homes, mut wrapped, mut hits, mut misses) = (0, 0, 0, 0);
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
                let slot = f.table.block().read(addr).unwrap();
                assert_eq!(
                    f.table.is_free(addr),
                    slot.is_none(),
                    "step {step}, slot {addr}"
                );
            }
            assert_eq!(f.probe(key).hit.is_some(), live.contains(&key));
            // The walk's probe, handed the state over the key's bytes,
            // answers what a probe that folds the key itself does.
            for k in 0..96u128 {
                let state = HashUnit::absorb(HashUnit::SEED, k, 0, f.key_bytes());
                let probe = f.probe_absorbed(state, k);
                assert_eq!(probe, f.probe(k), "step {step}, key {k}");
                let home = f.hash.fold(k);
                let steps = f.table.find(home, |s| s.key == k).1;
                free_homes += usize::from(f.table.is_free(home));
                wrapped += usize::from(home + steps > f.capacity());
                hits += usize::from(probe.hit.is_some());
                misses += usize::from(probe.hit.is_none());
            }
        }
        assert!(duplicate > 0 && full > 0 && unknown > 0);
        assert!(free_homes > 0 && wrapped > 0 && hits > 0 && misses > 0);
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
            match &f.table.block().as_slice()[addr] {
                None => break,
                Some(s) if s.key == key => return (Some(s.hit), reads),
                Some(_) => {}
            }
        }
        (None, reads)
    }

    #[test]
    fn a_probe_costs_the_buckets_its_chain_touches() {
        // 64 slots, 8 buckets. A free home: one read.
        let mut f = RuleFilter::new(6, &PAPER);
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
        let mut tiny = RuleFilter::new(2, &PAPER);
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
            let mut f = RuleFilter::new(rng.gen_range(4..=8), &PAPER);
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
        let mut f = RuleFilter::new(12, &PAPER);
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
        let mut rebuilt = RuleFilter::new(12, &PAPER);
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
        let mut f = RuleFilter::new(4, &PAPER);
        assert!(matches!(
            f.remove(5, RuleId(1)),
            Err(ClassifierError::UnknownRule { id: 1 })
        ));
    }

    #[test]
    fn bits_accounting() {
        let f = RuleFilter::new(13, &PAPER);
        assert_eq!(f.capacity(), 8192);
        assert_eq!(f.provisioned_bits(), 8192 * (68 + 48));
        assert_eq!(f.used_bits(), 0);
    }

    #[test]
    fn iter_yields_live_rules_without_charging_accesses() {
        let mut f = RuleFilter::new(4, &PAPER);
        for k in 0..5u128 {
            f.insert(k, RuleId(k as u32), rule(0)).unwrap();
        }
        f.remove(2, RuleId(2)).unwrap();
        let mut ids: Vec<u32> = f.iter().map(|s| s.hit.rule_id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }
}
