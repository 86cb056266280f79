//! Tuple-space search (Srinivasan, Suri & Varghese, SIGCOMM '99; the
//! software path of Open vSwitch): rules grouped by hash-mask signature,
//! one open-addressed hash table per tuple, probed in best-priority order.

use crate::{verdict, EngineKind, PacketClassifier, UpdateError, UpdateReport, Verdict};
use spc_hwsim::{Probe, ProbeTable};
use spc_types::{
    DimValue, Header, Priority, ProtoSpec, Rule, RuleId, RuleSet, SegPrefix, ALL_DIMS,
};
use std::collections::HashMap;

/// Hash slots a new tuple's table opens with; it doubles as it fills.
const TABLE_SLOTS: usize = 8;

/// Approximate storage of one installed rule (5-tuple + priority +
/// action + id), for the memory model.
const RULE_BITS: u64 = 256;
/// Slot header (occupancy + cached hash) in the memory model.
const SLOT_BITS: u64 = 64;
/// One bucket's key — seven 16-bit masked query values.
const KEY_BITS: u64 = 7 * 16;

/// One installed rule inside a tuple's table.
#[derive(Debug, Clone)]
struct Entry {
    id: RuleId,
    rule: Rule,
}

/// One hash bucket: all rules of the tuple whose masked values collide
/// exactly (they can differ only in range dimensions, which the
/// signature excludes). Entries stay sorted by `(priority, id)`, so the
/// first match in a bucket is the bucket's best match.
#[derive(Debug, Clone)]
struct Bucket {
    key: [u16; 7],
    entries: Vec<Entry>,
}

/// The 16-bit care mask of a segment prefix: its leading `seg.len()`
/// bits set.
pub(crate) fn care_mask(seg: SegPrefix) -> u16 {
    u16::MAX.checked_shl(16 - u32::from(seg.len())).unwrap_or(0)
}

/// A header's seven 16-bit query cells, in [`ALL_DIMS`] order.
pub(crate) fn header_cells(h: &Header) -> [u16; 7] {
    ALL_DIMS.map(|dim| dim.query(h))
}

/// A rule's *hash-mask* signature: one 16-bit care mask per dimension
/// ([`ALL_DIMS`] order), under which the rule's match condition **is**
/// masked equality. IP segments keep their prefix masks and an exact
/// port or protocol demands full equality, but a proper port *range*
/// gets mask `0x0000` — an arbitrary `[lo, hi]` has no bitmask, so the
/// dimension is left out of the key and re-verified after a key hit.
/// For every header `h` that matches `rule`,
/// `sig.masked_query(&header_cells(&h)) == sig.masked_rule(&rule)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Signature([u16; 7]);

impl Signature {
    fn of(rule: &Rule) -> Self {
        Signature(ALL_DIMS.map(|dim| match rule.dim_value(dim) {
            DimValue::Seg(s) => care_mask(s),
            DimValue::Port(r) if r.is_exact() => 0xFFFF,
            DimValue::Proto(ProtoSpec::Exact(_)) => 0x00FF,
            DimValue::Port(_) | DimValue::Proto(ProtoSpec::Any) => 0,
        }))
    }

    /// The rule's key in its tuple: each dimension's canonical value
    /// (prefix value, range low bound, protocol number) under the care
    /// mask.
    fn masked_rule(self, rule: &Rule) -> [u16; 7] {
        self.masked_query(&ALL_DIMS.map(|dim| match rule.dim_value(dim) {
            DimValue::Seg(s) => s.value(),
            DimValue::Port(r) => r.lo(),
            DimValue::Proto(ProtoSpec::Exact(n)) => u16::from(n),
            DimValue::Proto(ProtoSpec::Any) => 0,
        }))
    }

    /// The key a header with query cells `cells` probes the tuple with.
    fn masked_query(self, cells: &[u16; 7]) -> [u16; 7] {
        std::array::from_fn(|i| cells[i] & self.0[i])
    }
}

/// A key's home in its tuple's table: FNV-1a over the seven masked
/// 16-bit query values (the table takes it modulo its size).
fn home(key: &[u16; 7]) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in key {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// A tuple's table of buckets: its load stays under 3/4, so every probe
/// chain ends at a free slot.
fn table(slots: usize) -> ProbeTable<Bucket> {
    ProbeTable::new("tuple", slots, SLOT_BITS as u32)
}

/// Where `key`'s bucket is in `table`, or would go.
fn find<'a>(table: &'a ProbeTable<Bucket>, key: &[u16; 7]) -> (Probe<'a, Bucket>, usize) {
    table.find(home(key), |b| b.key == *key)
}

/// One tuple: every rule whose hash-mask signature equals `sig`, indexed
/// by masked query value, plus the best (minimum) installed priority for
/// probe-order pruning.
#[derive(Debug)]
struct Tuple {
    sig: Signature,
    table: ProbeTable<Bucket>,
    rules: usize,
    best: Priority,
}

impl Tuple {
    /// The best priority of the rules the tuple holds.
    fn installed_best(&self) -> Priority {
        self.table
            .iter()
            .flat_map(|b| &b.entries)
            .map(|e| e.rule.priority)
            .min()
            .unwrap_or(Priority(u32::MAX))
    }
}

/// Tuple-space search over rule mask signatures (`"tss"`).
///
/// Rules with the same hash-mask signature share a *tuple*;
/// inside a tuple, masked equality of the seven query values is a
/// necessary condition for a match (exact for every non-range
/// dimension), so each tuple is one hash-table probe. Tuples are probed
/// in ascending best-priority order and the scan stops as soon as the
/// current winner strictly outranks every remaining tuple.
///
/// An update touches exactly one tuple's table plus the pruning index.
/// Its [`UpdateReport`] counts one label for the rule itself plus one per
/// tuple opened or freed, and a write cycle per hash slot written on top
/// of §V.A's three.
///
/// Ids are monotonic and never reused; the `n` rules of
/// [`TupleSpaceEngine::build`] get ids `0..n` in rule-set order.
///
/// ```
/// use spc_engine::{PacketClassifier, TupleSpaceEngine};
/// use spc_types::{Header, PortRange, Priority, ProtoSpec, Rule, RuleSet};
///
/// let mut ts = TupleSpaceEngine::build(&RuleSet::new()).unwrap();
/// let web = ts
///     .insert(
///         Rule::builder(Priority(0))
///             .dst_port(PortRange::exact(80))
///             .proto(ProtoSpec::Exact(6))
///             .build(),
///     )
///     .unwrap();
/// let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 999, 80, 6);
/// assert_eq!(ts.classify(&h).rule, Some(web));
/// assert_eq!(ts.tuple_count(), 1);
/// ```
#[derive(Debug)]
pub struct TupleSpaceEngine {
    tuples: Vec<Option<Tuple>>,
    free: Vec<usize>,
    by_sig: HashMap<Signature, usize>,
    /// Live tuple indices sorted by `(best priority, index)` — the
    /// pruning index the lookup walks.
    order: Vec<usize>,
    /// Rule id → (tuple index, bucket key).
    locs: HashMap<RuleId, (usize, [u16; 7])>,
    next_id: u32,
    last_report: Option<UpdateReport>,
}

impl TupleSpaceEngine {
    /// Builds from a rule set (rule `i` gets id `i`).
    ///
    /// # Errors
    ///
    /// [`UpdateError::Duplicate`] when two rules share all seven match
    /// dimensions.
    pub fn build(rules: &RuleSet) -> Result<Self, UpdateError> {
        let mut ts = TupleSpaceEngine {
            tuples: Vec::new(),
            free: Vec::new(),
            by_sig: HashMap::new(),
            order: Vec::new(),
            locs: HashMap::new(),
            next_id: 0,
            last_report: None,
        };
        for (_, r) in rules.iter() {
            ts.install(*r)?;
        }
        Ok(ts)
    }

    /// Number of live tuples (distinct hash-mask signatures).
    pub fn tuple_count(&self) -> usize {
        self.by_sig.len()
    }

    /// Every installed `(id, rule)`, in no particular order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.tuples
            .iter()
            .flatten()
            .flat_map(|t| t.table.iter())
            .flat_map(|b| b.entries.iter().map(|e| (e.id, &e.rule)))
    }

    /// Installs one rule and prices it: §V.A's floor (2 data + 1 hash
    /// cycle) plus every hash slot written, one label for the rule and
    /// one for a tuple it opened.
    fn install(&mut self, rule: Rule) -> Result<UpdateReport, UpdateError> {
        let sig = Signature::of(&rule);
        let key = sig.masked_rule(&rule);
        let mut tuple_created = false;

        let ti = match self.by_sig.get(&sig) {
            Some(&ti) => ti,
            None => {
                let t = Tuple {
                    sig,
                    table: table(TABLE_SLOTS),
                    rules: 0,
                    best: rule.priority,
                };
                let ti = match self.free.pop() {
                    Some(i) => {
                        self.tuples[i] = Some(t);
                        i
                    }
                    None => {
                        self.tuples.push(Some(t));
                        self.tuples.len() - 1
                    }
                };
                self.by_sig.insert(sig, ti);
                let (Ok(pos) | Err(pos)) = self.order_pos(rule.priority, ti);
                self.order.insert(pos, ti);
                tuple_created = true;
                ti
            }
        };

        let id = RuleId(self.next_id);
        let Some(t) = self.tuples[ti].as_mut() else {
            unreachable!("by_sig and free agree on live tuples")
        };

        // Identical dim_values always share signature and key, so this
        // bucket-local scan is a complete duplicate check. It runs before
        // the table may grow, so a refused rule leaves the table as it
        // was (and, sharing its signature, never opened the tuple).
        if let Probe::Hit(_, b) = find(&t.table, &key).0 {
            let dims = rule.dim_values();
            if let Some(e) = b.entries.iter().find(|e| e.rule.dim_values() == dims) {
                return Err(UpdateError::Duplicate { existing: e.id });
            }
        }
        // Grow before writing so the chain we write stays valid: each
        // bucket is put into a table of twice the slots, whose empty fill
        // is no update's write.
        let mut written = t.table.block().writes();
        if (t.table.len() + 1) * 4 > t.table.capacity() * 3 {
            let grown = table(t.table.capacity() * 2);
            written = grown.block().writes();
            for b in std::mem::replace(&mut t.table, grown).into_entries() {
                let Probe::Free(slot) = find(&t.table, &b.key).0 else {
                    unreachable!("a grown table has room for every bucket")
                };
                t.table.put(slot, b);
            }
        }
        match find(&t.table, &key).0 {
            Probe::Hit(slot, _) => t.table.update(slot, |b| {
                let pos = b
                    .entries
                    .partition_point(|e| (e.rule.priority, e.id) < (rule.priority, id));
                b.entries.insert(pos, Entry { id, rule });
            }),
            Probe::Free(slot) => t.table.put(
                slot,
                Bucket {
                    key,
                    entries: vec![Entry { id, rule }],
                },
            ),
            Probe::Lap => unreachable!("the load stays under 3/4"),
        }
        let written = t.table.block().writes() - written;

        t.rules += 1;
        let best = t.best.min(rule.priority);
        self.next_id += 1;
        self.locs.insert(id, (ti, key));
        self.reorder(ti, best);
        Ok(UpdateReport {
            rule_id: id,
            created_labels: 1 + u32::from(tuple_created),
            freed_labels: 0,
            hw_write_cycles: 3 + written,
        })
    }

    fn drop_tuple(&mut self, ti: usize, sig: Signature) {
        self.by_sig.remove(&sig);
        self.order.remove(self.order_index(ti));
        self.tuples[ti] = None;
        self.free.push(ti);
    }

    fn tuple(&self, ti: usize) -> &Tuple {
        let Some(t) = self.tuples[ti].as_ref() else {
            unreachable!("order and locs point at live tuples")
        };
        t
    }

    /// Where `(best, ti)` sits in `order` (`Ok`), or would (`Err`).
    fn order_pos(&self, best: Priority, ti: usize) -> Result<usize, usize> {
        self.order
            .binary_search_by_key(&(best, ti), |&i| (self.tuple(i).best, i))
    }

    /// Where live tuple `ti` sits in `order`.
    fn order_index(&self, ti: usize) -> usize {
        let Ok(i) = self.order_pos(self.tuple(ti).best, ti) else {
            unreachable!("every live tuple is in order")
        };
        i
    }

    /// Gives live tuple `ti` the best priority `best` and moves it from
    /// its old place in `order` to its new one, re-sorting nothing else.
    fn reorder(&mut self, ti: usize, best: Priority) {
        if self.tuple(ti).best == best {
            return;
        }
        self.order.remove(self.order_index(ti));
        let Some(t) = self.tuples[ti].as_mut() else {
            unreachable!("order and locs point at live tuples")
        };
        t.best = best;
        let (Ok(to) | Err(to)) = self.order_pos(best, ti);
        self.order.insert(to, ti);
    }
}

impl PacketClassifier for TupleSpaceEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::TupleSpace
    }

    fn rules(&self) -> usize {
        self.locs.len()
    }

    /// The highest-priority matching rule (ties broken by lowest id),
    /// costing one read per tuple descriptor, probe step and bucket entry
    /// examined.
    fn classify(&self, h: &Header) -> Verdict {
        let cells = header_cells(h);
        let mut best: Option<(Priority, RuleId, &Rule)> = None;
        let mut reads = 0u32;
        for &ti in &self.order {
            let Some(t) = self.tuples[ti].as_ref() else {
                continue;
            };
            if let Some((bp, _, _)) = best {
                // `order` ascends by best priority: once the winner
                // strictly outranks this tuple's best, it outranks every
                // remaining tuple. Equal priorities must still be probed
                // (a lower id could win the tie).
                if bp < t.best {
                    break;
                }
            }
            reads = reads.saturating_add(1);
            let (probe, steps) = find(&t.table, &t.sig.masked_query(&cells));
            reads = reads.saturating_add(steps as u32);
            let Probe::Hit(_, bucket) = probe else {
                continue;
            };
            for e in &bucket.entries {
                if let Some((bp, bid, _)) = best {
                    // Entries ascend by (priority, id): stop once the
                    // current winner beats everything left in the bucket.
                    if (bp, bid) < (e.rule.priority, e.id) {
                        break;
                    }
                }
                reads = reads.saturating_add(1);
                if e.rule.matches(h) {
                    best = Some((e.rule.priority, e.id, &e.rule));
                    break;
                }
            }
        }
        verdict(best.map(|(_, id, r)| (id, r)), reads.max(1))
    }

    /// Bits of memory in the hardware model: slot headers, bucket keys
    /// and stored rules.
    fn memory_bits(&self) -> u64 {
        let mut bits = 0u64;
        for t in self.tuples.iter().flatten() {
            bits += t.table.capacity() as u64 * SLOT_BITS;
            for b in t.table.iter() {
                bits += KEY_BITS + b.entries.len() as u64 * RULE_BITS;
            }
        }
        bits
    }

    fn supports_updates(&self) -> bool {
        true
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // A failed update must leave the report untouched.
        let report = self.install(rule)?;
        self.last_report = Some(report);
        Ok(report.rule_id)
    }

    /// Removes one rule, pricing it like an insert: one label for the
    /// rule and one for a tuple it emptied, §V.A's floor plus every slot
    /// the backward shift wrote.
    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        let (ti, key) = self
            .locs
            .remove(&id)
            .ok_or(UpdateError::UnknownRule { id })?;
        let Some(t) = self.tuples[ti].as_mut() else {
            unreachable!("locs points at a live tuple")
        };
        let Probe::Hit(slot, bucket) = find(&t.table, &key).0 else {
            unreachable!("locs points at a live bucket")
        };
        let last = bucket.entries.len() == 1;
        let written = t.table.block().writes();
        let rule = if last {
            t.table.erase(slot, |b| home(&b.key)).0.entries[0].rule
        } else {
            t.table.update(slot, |b| {
                let Some(pos) = b.entries.iter().position(|e| e.id == id) else {
                    unreachable!("locs points at a live entry")
                };
                b.entries.remove(pos).rule
            })
        };
        let written = t.table.block().writes() - written;
        t.rules -= 1;
        let tuple_freed = t.rules == 0;
        if tuple_freed {
            let sig = t.sig;
            self.drop_tuple(ti, sig);
        } else if rule.priority == t.best {
            let best = t.installed_best();
            self.reorder(ti, best);
        }
        self.last_report = Some(UpdateReport {
            rule_id: id,
            created_labels: 0,
            freed_labels: 1 + u32::from(tuple_freed),
            hw_write_cycles: 3 + written,
        });
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.last_report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng as _, SeedableRng};
    use spc_classbench::{sample_matching_header, FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::{Action, Dim, PortRange, Prefix};

    fn empty() -> TupleSpaceEngine {
        TupleSpaceEngine::build(&RuleSet::new()).unwrap()
    }

    fn naive<'a>(rules: impl Iterator<Item = (RuleId, &'a Rule)>, h: &Header) -> Option<RuleId> {
        rules
            .filter(|(_, r)| r.matches(h))
            .min_by_key(|&(id, r)| (r.priority, id))
            .map(|(id, _)| id)
    }

    fn key(sig: Signature, h: &Header) -> [u16; 7] {
        sig.masked_query(&header_cells(h))
    }

    #[test]
    fn masked_query_equality_implies_identical_match() {
        // A rule without a proper port range matches headers equal under
        // its signature alike.
        let r = Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .dst_ip(Prefix::parse("192.168.1.0/24").unwrap())
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Drop)
            .build();
        let sig = Signature::of(&r);
        let h1 = Header::new([10, 5, 5, 5].into(), [192, 168, 1, 7].into(), 1000, 80, 6);
        let h2 = Header::new([10, 9, 9, 9].into(), [192, 168, 1, 200].into(), 2000, 80, 6);
        assert_eq!(key(sig, &h1), key(sig, &h2));
        assert_eq!(r.matches(&h1), r.matches(&h2));
        let h3 = Header::new([11, 5, 5, 5].into(), [192, 168, 1, 7].into(), 1000, 80, 6);
        assert_ne!(key(sig, &h1), key(sig, &h3));
    }

    #[test]
    fn hash_signature_excludes_proper_ranges() {
        let ranged = Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .src_port(PortRange::new(1024, 2047).unwrap())
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(17))
            .build();
        let Signature(masks) = Signature::of(&ranged);
        assert_eq!(masks[Dim::SipHi.index()], 0xff00);
        assert_eq!(
            masks[Dim::SrcPort.index()],
            0x0000,
            "a range has no bitmask"
        );
        assert_eq!(
            masks[Dim::DstPort.index()],
            0xffff,
            "exact port is equality"
        );
        assert_eq!(masks[Dim::Proto.index()], 0x00ff);
    }

    /// `h` with bit `b` of its 104-bit 5-tuple flipped.
    fn flip(h: Header, b: u32) -> Header {
        let mut n = h;
        match b {
            0..=31 => n.src_ip = (h.src_ip.0 ^ (1 << b)).into(),
            32..=63 => n.dst_ip = (h.dst_ip.0 ^ (1 << (b - 32))).into(),
            64..=79 => n.src_port ^= 1 << (b - 64),
            80..=95 => n.dst_port ^= 1 << (b - 80),
            _ => n.proto ^= 1 << (b - 96),
        }
        n
    }

    /// Every rule of generated ACL, FW and IPC sets, against trace
    /// headers that match it: each keys to the rule's slot. The one-bit
    /// neighbours of those headers hold the signature exact as well — a
    /// neighbour keys to the slot exactly when it still matches the rule
    /// with its proper ranges widened to wildcards (the dimensions the
    /// key leaves out), so a care mask a bit short or a bit long fails.
    #[test]
    fn masked_rule_equals_masked_query_of_matching_headers() {
        let mut rng = StdRng::seed_from_u64(0x51a);
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            let rules = RuleSetGenerator::new(kind, 300).seed(0xbead).generate();
            let trace = TraceGenerator::new()
                .seed(0x5eed)
                .match_fraction(1.0)
                .locality(0.0)
                .generate(&rules, 1000);
            for (_, r) in rules.iter() {
                let sig = Signature::of(r);
                let slot = sig.masked_rule(r);
                let mut keyed = *r;
                for port in [&mut keyed.src_port, &mut keyed.dst_port] {
                    if !port.is_exact() {
                        *port = PortRange::ANY;
                    }
                }
                let matching = trace.iter().filter(|h| r.matches(h)).take(8).copied();
                for h in matching.chain([sample_matching_header(r, &mut rng)]) {
                    assert_eq!(key(sig, &h), slot, "{kind:?}: {h} must key to {r}");
                    for n in (0..104).map(|b| flip(h, b)) {
                        assert_eq!(
                            key(sig, &n) == slot,
                            keyed.matches(&n),
                            "{kind:?}: {n}, one bit from {h}, against {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_linear_scan_on_generated_sets() {
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            let rules = RuleSetGenerator::new(kind, 300).seed(0xbead).generate();
            let ts = TupleSpaceEngine::build(&rules).unwrap();
            assert_eq!(ts.rules(), rules.len());
            let trace = TraceGenerator::new()
                .seed(0x5eed)
                .match_fraction(0.7)
                .generate(&rules, 400);
            for h in &trace {
                let v = ts.classify(h);
                assert!(v.mem_reads >= 1);
                assert_eq!(v.rule, naive(ts.iter(), h), "{kind:?} disagreed at {h}");
            }
        }
    }

    #[test]
    fn duplicate_is_detected_and_leaves_no_ghost_tuple() {
        let mut ts = empty();
        let r = Rule::builder(Priority(0))
            .dst_port(PortRange::exact(80))
            .build();
        let id = ts.insert(r).unwrap();
        assert_eq!(ts.tuple_count(), 1);
        let mut dup = r;
        dup.priority = Priority(9); // priority is not part of the filter
        dup.action = Action::Forward(3);
        assert_eq!(ts.insert(dup), Err(UpdateError::Duplicate { existing: id }));
        assert_eq!(ts.rules(), 1);
        assert_eq!(ts.tuple_count(), 1);
        // A failed insert with a *fresh* signature must not leak a tuple.
        let mut other = Rule::builder(Priority(1))
            .proto(ProtoSpec::Exact(6))
            .build();
        let oid = ts.insert(other).unwrap();
        other.priority = Priority(2);
        assert_eq!(
            ts.insert(other),
            Err(UpdateError::Duplicate { existing: oid })
        );
        assert_eq!(ts.tuple_count(), 2);
    }

    #[test]
    fn a_refused_duplicate_leaves_a_full_table_as_it_was() {
        // Six one-port rules fill one tuple's 8 slots to the 3/4 load
        // threshold: a seventh bucket would double the table first.
        let mut ts = empty();
        let rules: Vec<Rule> = (0..6u16)
            .map(|p| {
                Rule::builder(Priority(u32::from(p)))
                    .dst_port(PortRange::exact(p))
                    .build()
            })
            .collect();
        for &r in &rules {
            ts.insert(r).unwrap();
        }
        let report = ts.last_update_report();
        // 8 slot headers and 6 one-rule buckets.
        let bits = 8 * SLOT_BITS + 6 * (KEY_BITS + RULE_BITS);
        assert_eq!(ts.memory_bits(), bits);
        assert_eq!(
            ts.insert(rules[3]),
            Err(UpdateError::Duplicate {
                existing: RuleId(3)
            })
        );
        assert_eq!(ts.memory_bits(), bits, "the table did not grow");
        assert_eq!((ts.rules(), ts.last_update_report()), (6, report));
        // A rule that does join still grows it.
        let r = Rule::builder(Priority(9))
            .dst_port(PortRange::exact(9))
            .build();
        ts.insert(r).unwrap();
        assert_eq!(
            ts.memory_bits(),
            16 * SLOT_BITS + 7 * (KEY_BITS + RULE_BITS)
        );
    }

    /// `order` is what a full sort of the live tuples by `(best, index)`
    /// gives, and each tuple's `best` is that of the rules it holds.
    fn assert_order_is_a_full_sort(ts: &TupleSpaceEngine, what: &str) {
        let mut want: Vec<usize> = ts.by_sig.values().copied().collect();
        want.sort_by_key(|&i| (ts.tuple(i).best, i));
        assert_eq!(ts.order, want, "{what}");
        for &i in &ts.order {
            let t = ts.tuple(i);
            assert_eq!(t.best, t.installed_best(), "{what}: tuple {i}");
        }
    }

    #[test]
    fn order_is_a_full_sort_after_every_update() {
        let mut rng = StdRng::seed_from_u64(0x02de);
        for kind in [FilterKind::Acl, FilterKind::Fw] {
            let rules = RuleSetGenerator::new(kind, 400).seed(0x5047).generate();
            let pool: Vec<Rule> = rules.iter().map(|(_, r)| *r).collect();
            let mut ts = empty();
            // (id, pool index) of the live rules; pool indices not live.
            let mut live: Vec<(RuleId, usize)> = Vec::new();
            let mut idle: Vec<usize> = (0..pool.len()).collect();
            for step in 0..2000 {
                if !idle.is_empty() && (live.is_empty() || rng.gen_bool(0.55)) {
                    let k = idle.swap_remove(rng.gen_range(0..idle.len()));
                    live.push((ts.insert(pool[k]).unwrap(), k));
                } else {
                    let (id, k) = live.swap_remove(rng.gen_range(0..live.len()));
                    ts.remove(id).unwrap();
                    idle.push(k);
                }
                assert_order_is_a_full_sort(&ts, &format!("{kind} step {step}"));
            }
        }
    }

    #[test]
    fn churn_keeps_probe_chains_intact() {
        // Insert many rules into one tuple (same signature: exact dst
        // port), then remove half in an order that exercises the
        // backward-shift deletion, and verify every survivor still
        // resolves.
        let mut ts = empty();
        let mut ids = Vec::new();
        for p in 0..200u16 {
            let r = Rule::builder(Priority(u32::from(p)))
                .dst_port(PortRange::exact(p))
                .build();
            ids.push(ts.insert(r).unwrap());
        }
        assert_eq!(ts.tuple_count(), 1, "one signature, one tuple");
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                ts.remove(id).unwrap();
            }
        }
        assert_eq!(ts.rules(), 100);
        for p in 0..200u16 {
            let h = Header::new([0; 4].into(), [0; 4].into(), 1, p, 6);
            assert_eq!(ts.classify(&h).is_hit(), p % 2 == 1, "port {p}");
        }
        assert!(matches!(
            ts.remove(ids[0]),
            Err(UpdateError::UnknownRule { .. })
        ));
    }

    #[test]
    fn one_distinct_mask_per_rule_degenerates_to_tuple_per_rule() {
        // 17 distinct source prefix lengths → 17 signatures → 17 tuples.
        let mut ts = empty();
        for len in 0..=16u8 {
            let r = Rule::builder(Priority(u32::from(len)))
                .src_ip(Prefix::masked(0x0a00_0000, len))
                .build();
            ts.insert(r).unwrap();
        }
        assert_eq!(ts.tuple_count(), ts.rules());
        // Pruning still terminates correctly: the /16 rule has the worst
        // priority, the /0 the best (priority 0 wins everywhere).
        let h = Header::new([10, 0, 0, 1].into(), [1, 1, 1, 1].into(), 1, 1, 6);
        assert_eq!(ts.classify(&h).priority, Some(Priority(0)));
    }

    #[test]
    fn pruning_respects_priority_ties_across_tuples() {
        // Two tuples with equal best priority: the lower id must win,
        // whichever tuple the probe order visits first.
        let mut ts = empty();
        let a = ts.insert(Rule::any(Priority(5))).unwrap();
        ts.insert(
            Rule::builder(Priority(5))
                .proto(ProtoSpec::Exact(6))
                .build(),
        )
        .unwrap();
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 1, 1, 6);
        assert_eq!(ts.classify(&h).rule, Some(a));
    }

    #[test]
    fn update_costs_are_reported() {
        let mut ts = empty();
        let id = ts.insert(Rule::any(Priority(0))).unwrap();
        // The rule and the tuple it opened; §V.A's floor and one slot.
        let up = ts.last_update_report().unwrap();
        assert_eq!((up.created_labels, up.hw_write_cycles), (2, 4));
        ts.remove(id).unwrap();
        let down = ts.last_update_report().unwrap();
        assert_eq!((down.freed_labels, down.hw_write_cycles), (2, 4));
        assert_eq!(ts.rules(), 0);
        assert_eq!(ts.memory_bits(), 0);
        // Ids are never reused.
        let id2 = ts.insert(Rule::any(Priority(0))).unwrap();
        assert!(id2 > id);
    }

    /// Churns a `kind` set of 1 024 rules with remove / insert pairs, the
    /// inserts drawn from `pairs` rules of a second generator seed (a
    /// rule that repeats a live one is refused and skipped). Returns the
    /// engine, the live `(id, rule)`s and the summed write cycles of the
    /// successful updates.
    fn churned(kind: FilterKind, pairs: usize) -> (TupleSpaceEngine, Vec<(RuleId, Rule)>, u64) {
        let base = RuleSetGenerator::new(kind, 1024).seed(0x0c4e).generate();
        let pool = RuleSetGenerator::new(kind, pairs).seed(0x0c4f).generate();
        let mut ts = TupleSpaceEngine::build(&base).unwrap();
        let mut live: Vec<(RuleId, Rule)> = base.iter().map(|(id, r)| (id, *r)).collect();
        let mut rng = StdRng::seed_from_u64(0x50a4);
        let mut cycles = 0u64;
        let mut charge = |ts: &TupleSpaceEngine| {
            cycles += ts.last_update_report().unwrap().hw_write_cycles;
        };
        for &rule in pool.rules() {
            let (gone, _) = live.swap_remove(rng.gen_range(0..live.len()));
            ts.remove(gone).unwrap();
            charge(&ts);
            match ts.insert(rule) {
                Ok(id) => {
                    charge(&ts);
                    live.push((id, rule));
                }
                Err(UpdateError::Duplicate { .. }) => {}
                Err(e) => panic!("{kind}: insert: {e}"),
            }
        }
        (ts, live, cycles)
    }

    /// Σ modelled reads of `ts` over a fixed trace of `rules`.
    fn trace_reads(ts: &TupleSpaceEngine, rules: &RuleSet) -> (Vec<Option<RuleId>>, u64) {
        let trace = TraceGenerator::new()
            .seed(0x7ace)
            .match_fraction(0.85)
            .generate(rules, 1000);
        let verdicts: Vec<Verdict> = trace.iter().map(|h| ts.classify(h)).collect();
        (
            verdicts.iter().map(|v| v.rule).collect(),
            verdicts.iter().map(|v| u64::from(v.mem_reads)).sum(),
        )
    }

    #[test]
    fn churn_costs_are_pinned() {
        // Golden `(Σ write cycles, memory bits, Σ trace reads)`: every
        // slot a put, an update, an erase's backward shift or a table's
        // growth writes, every table size, and every probe chain.
        for (kind, want) in [
            (FilterKind::Acl, (8_800, 613_728, 535_186)),
            (FilterKind::Fw, (8_363, 720_896, 861_361)),
            (FilterKind::Ipc, (8_668, 683_152, 382_783)),
        ] {
            let (ts, live, cycles) = churned(kind, 1024);
            let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
            let (_, reads) = trace_reads(&ts, &rules);
            assert_eq!((cycles, ts.memory_bits(), reads), want, "{kind}");
        }
    }

    #[test]
    fn churned_tables_cost_what_a_fresh_build_does() {
        // 30 000 pairs leave each tuple's table at the size its largest
        // population grew it to; reads and bits stay within 5/4 of a
        // fresh build of the live set.
        for kind in [FilterKind::Acl, FilterKind::Fw] {
            let (ts, live, _) = churned(kind, 30_000);
            let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
            let fresh = TupleSpaceEngine::build(&rules).unwrap();
            let (got, churned_reads) = trace_reads(&ts, &rules);
            let (want, fresh_reads) = trace_reads(&fresh, &rules);
            // The fresh build numbers the live rules by position.
            let want: Vec<_> = want
                .iter()
                .map(|w| w.map(|pos| live[pos.0 as usize].0))
                .collect();
            assert_eq!(got, want, "{kind}: verdicts");
            let (bits, fresh_bits) = (ts.memory_bits(), fresh.memory_bits());
            assert!(
                churned_reads * 4 <= fresh_reads * 5,
                "{kind}: reads {churned_reads} vs {fresh_reads}"
            );
            assert!(
                bits * 4 <= fresh_bits * 5,
                "{kind}: bits {bits} vs {fresh_bits}"
            );
        }
    }
}
