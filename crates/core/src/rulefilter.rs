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
//! a wide word of ganged block RAMs, and a key's hash picks a bucket: its
//! home is the bucket's first slot, and linear probing and removal run on
//! from there. A probe costs the buckets its chain touches, so a chain
//! that ends inside its home bucket is one read. The software layout, the
//! provisioned bits and every write stay per slot.
//!
//! Beside the memory, each bucket keeps a *summary* word: one tag bit per
//! key homed in it, picked by hash bits the address does not use, and a
//! bit set while none of the bucket's slots is free. A key whose tag bit
//! is clear in a bucket with a free slot is absent, and the walk would
//! have ended inside the bucket, so such a miss is answered from that
//! word at exactly one modelled read. Like the table's occupancy flags,
//! the summary is derived software data the model never prices.

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
    /// Per bucket, the [`tag`] of every key homed in it, and [`FULL`]
    /// while none of its slots is free.
    summary: Vec<u64>,
}

const RULE_BODY_BITS: u32 = 48;

/// Slots per modelled read: one aligned bucket of 8 words (8 × 126 =
/// 1 008 bits at `ArchConfig::large()`).
const BUCKET: usize = 8;

/// The summary bit of a bucket with no free slot: a walk from its first
/// slot may leave it.
const FULL: u64 = 1 << 63;

/// A key's bit in its bucket's summary: one of the 63 below [`FULL`],
/// from the hash's top half, which no address reaches.
#[inline]
fn tag(hash: u64) -> u64 {
    1 << (((hash >> 32) * 63) >> 32)
}

/// Reads charged to a probe of `steps` consecutive slots from a bucket's
/// first slot: one more each time the chain enters the next bucket. Every
/// table size is a power of two, so a chain that wraps past the last slot
/// enters bucket 0 exactly where the count expects a new bucket (or,
/// below `BUCKET` slots, stays in the table's only one).
fn bucket_reads(steps: usize) -> u32 {
    ((steps - 1) / BUCKET + 1) as u32
}

/// The home of a hash: the first slot of the bucket its address lies in.
#[inline]
fn home_of(unit: HashUnit, hash: u64) -> usize {
    unit.address(hash) & !(BUCKET - 1)
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
            summary: vec![0; hash.slots().div_ceil(BUCKET)],
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
        let hash = HashUnit::hash(key);
        let home = home_of(self.hash, hash);
        match self.table.find(home, |s| s.key == key).0 {
            Probe::Free(addr) => {
                let hit = Hit { rule_id: id, rule };
                self.table.put(addr, Stored { key, hit });
                self.summary[home / BUCKET] |= tag(hash);
                let bucket = addr / BUCKET;
                let mut slots = bucket * BUCKET..((bucket + 1) * BUCKET).min(self.capacity());
                if slots.all(|a| !self.table.is_free(a)) {
                    self.summary[bucket] |= FULL;
                }
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
        let home = home_of(self.hash, HashUnit::hash(key));
        let Probe::Hit(addr, _) = self.table.find(home, |s| s.key == key).0 else {
            return Err(ClassifierError::UnknownRule { id: id.0 });
        };
        let unit = self.hash;
        let (gone, freed) = self
            .table
            .erase(addr, |s| home_of(unit, HashUnit::hash(s.key)));
        self.summary[freed / BUCKET] &= !FULL;
        // The keys still homed in the bucket all sit in the run from its
        // first slot: no free slot lies between a key and its home.
        let (mask, mut tags) = (self.capacity() - 1, 0);
        for addr in (home..home + self.capacity()).map(|a| a & mask) {
            let Some(s) = &self.table.block().as_slice()[addr] else {
                break;
            };
            let hash = HashUnit::hash(s.key);
            if home_of(unit, hash) == home {
                tags |= tag(hash);
            }
        }
        self.summary[home / BUCKET] = self.summary[home / BUCKET] & FULL | tags;
        Ok(gone.hit.rule)
    }

    /// Probes for a key (phase 4 of the lookup pipeline): the key is
    /// hashed once, and the probe is charged the buckets its chain
    /// touches.
    pub fn probe(&self, key: u128) -> ProbeResult {
        self.probe_hashed(HashUnit::hash(key), key)
    }

    /// [`RuleFilter::probe`] of a key whose [`HashUnit::hash`] the caller
    /// has: the priority-box walk, which merges hashes as it merges keys.
    /// A key whose tag bit is clear in a bucket that has a free slot,
    /// what most of the walk's probes find, is a miss at one read
    /// answered from the bucket's summary alone, before any chain walk.
    #[inline]
    pub(crate) fn probe_hashed(&self, hash: u64, key: u128) -> ProbeResult {
        let home = home_of(self.hash, hash);
        if self.summary[home / BUCKET] & (tag(hash) | FULL) == 0 {
            return ProbeResult {
                hit: None,
                reads: 1,
            };
        }
        let (probe, steps) = self.table.find(home, |s| s.key == key);
        ProbeResult {
            hit: match probe {
                Probe::Hit(_, s) => Some(s.hit),
                _ => None,
            },
            reads: bucket_reads(steps),
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
        assert_eq!(f.word_bits(), 68 + 48);
        // Table I's options: four 13-bit labels and a 4-bit protocol.
        let options = RuleFilter::new(4, &[13, 13, 13, 13, 4]);
        assert_eq!(options.key(&[1, 0, 0, 0, 2].map(Label)), 1 << 43 | 2);
        assert_eq!(options.word_bits(), 56 + 48);
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

    /// The summary a bucket must hold, rebuilt from the table's slots:
    /// the tag of every stored key homed in it, and `FULL` when none of
    /// its slots is free.
    fn rebuilt_summary(f: &RuleFilter) -> Vec<u64> {
        let mut summary = vec![0; f.summary.len()];
        let slots = f.table.block().as_slice();
        for s in slots.iter().flatten() {
            let hash = HashUnit::hash(s.key);
            summary[home_of(f.hash, hash) / BUCKET] |= tag(hash);
        }
        for (bucket, word) in slots.chunks(BUCKET).zip(&mut summary) {
            if bucket.iter().all(Option::is_some) {
                *word |= FULL;
            }
        }
        summary
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
        // Probes whose chain wrapped past the last slot, that hit, and
        // that missed.
        let (mut wrapped, mut hits, mut misses) = (0, 0, 0);
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
            assert_eq!(f.summary, rebuilt_summary(&f), "step {step}");
            for k in 0..96u128 {
                let probe = f.probe(k);
                assert_eq!(
                    probe.hit.is_some(),
                    live.contains(&k),
                    "step {step}, key {k}"
                );
                let home = home_of(f.hash, HashUnit::hash(k));
                let steps = f.table.find(home, |s| s.key == k).1;
                wrapped += usize::from(home + steps > f.capacity());
                hits += usize::from(probe.hit.is_some());
                misses += usize::from(probe.hit.is_none());
            }
        }
        assert!(duplicate > 0 && full > 0 && unknown > 0);
        assert!(wrapped > 0 && hits > 0 && misses > 0);
    }

    /// The first keys of `0..` whose home is `home`, in order.
    fn keys_homed_at(f: &RuleFilter, home: usize, n: usize) -> Vec<u128> {
        (0u128..)
            .filter(|&k| home_of(f.hash, HashUnit::hash(k)) == home)
            .take(n)
            .collect()
    }

    /// The reads a probe owes, walked one slot at a time: one for the
    /// home's bucket and one more each time the walk enters another
    /// bucket, until a hit, a free slot or a whole lap of the table.
    fn reference_reads(f: &RuleFilter, key: u128) -> (Option<Hit>, u32) {
        let (home, mask) = (home_of(f.hash, HashUnit::hash(key)), f.capacity() - 1);
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
        // 64 slots, 8 buckets; every home is a bucket's first slot. An
        // empty bucket: one read.
        let mut f = RuleFilter::new(6, &PAPER);
        assert_eq!(f.probe(keys_homed_at(&f, 40, 1)[0]).reads, 1);
        // Eight keys homed at slot 16 fill bucket 2: one read each.
        let run = keys_homed_at(&f, 16, 10);
        for &k in &run[..8] {
            f.insert(k, RuleId(0), rule(0)).unwrap();
            assert_eq!(f.probe(k).reads, 1, "key {k}");
        }
        // A ninth spills into slot 24, the next bucket.
        f.insert(run[8], RuleId(1), rule(0)).unwrap();
        let reads: Vec<u32> = run[7..9].iter().map(|&k| f.probe(k).reads).collect();
        assert_eq!(reads, [1, 2]);
        // A miss from a full bucket walks 16..=25 and ends on the free
        // slot 25.
        let miss = f.probe(run[9]);
        assert_eq!((miss.hit, miss.reads), (None, 2));
        // Nine keys homed at the last bucket wrap: 56..=63, then 0 in
        // the first bucket — counted as any other edge.
        let wrap = keys_homed_at(&f, 56, 10);
        for &k in &wrap[..9] {
            f.insert(k, RuleId(2), rule(0)).unwrap();
        }
        let reads: Vec<u32> = wrap[7..].iter().map(|&k| f.probe(k).reads).collect();
        assert_eq!(reads, [1, 2, 2]);
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
        // every present and absent key's charge equals the walk's, both
        // for the misses the summary answers alone and for those it
        // hands to the walk because the home bucket is full.
        let mut rng = StdRng::seed_from_u64(46);
        let (mut one_load, mut full_bucket) = (0, 0);
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
                    let hash = HashUnit::hash(key);
                    let summary = f.summary[home_of(f.hash, hash) / BUCKET];
                    one_load += usize::from(summary & (tag(hash) | FULL) == 0);
                    full_bucket += usize::from(hit.is_none() && summary & FULL != 0);
                }
            }
        }
        assert!(one_load > 0 && full_bucket > 0, "{one_load}, {full_bucket}");
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
