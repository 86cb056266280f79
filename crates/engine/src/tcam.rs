//! A software model of a priority-ordered TCAM: mask/value entries
//! scanned first-match, with a partitioned free-slot allocator whose
//! shift-on-insert cost is priced per update.

use crate::tss::{care_mask, header_cells};
use crate::{verdict, EngineKind, PacketClassifier, UpdateError, UpdateReport, Verdict};
use spc_types::{DimValue, Header, Priority, ProtoSpec, Rule, RuleId, RuleSet};
use std::collections::HashMap;

/// Default provisioned TCAM slots (`tcam:capacity=`). ClassBench-style
/// wide port ranges expand to up to ~900 entries per rule, so the
/// default leaves headroom for ~1k worst-case or ~100k typical rules.
pub const DEFAULT_TCAM_CAPACITY: usize = 1 << 20;
/// Allocator partitions, at most one per slot.
const PARTITIONS: usize = 8;

/// Bits one provisioned TCAM slot occupies: seven 16-bit value cells
/// plus seven 16-bit mask cells.
const SLOT_BITS: u64 = 2 * 7 * 16;
/// Bits per rule in the action/priority side table.
const SIDE_BITS: u64 = 64;

/// Largest `capacity=` accepted. Slots are not allocated until filled,
/// but [`SoftTcamEngine::memory_bits`] charges every provisioned one and
/// every rule's side-table entry; a rule fills at least one slot, so at
/// this bound that sum still fits a `u64`.
pub(crate) const MAX_CAPACITY: u64 = u64::MAX / (SLOT_BITS + SIDE_BITS);

/// One TCAM slot: a ternary match (`value`/`mask` per 16-bit dimension
/// cell) plus the identity of the rule it expands; the rule's action
/// lives in the side table.
///
/// Slots are kept sorted by `(priority, id, seq)`, so the first matching
/// slot in a scan is the highest-priority matching rule with ties broken
/// by lowest id — the registry-wide tie-break.
#[derive(Debug, Clone)]
struct TcamEntry {
    /// Priority of the expanded rule.
    priority: Priority,
    /// Id of the expanded rule.
    id: RuleId,
    /// Index of this entry within the rule's expansion (cross product of
    /// the two port-range prefix decompositions).
    seq: u16,
    /// Match value per dimension cell, in canonical dimension order.
    value: [u16; 7],
    /// Care-bit mask per dimension cell (`query & mask == value` hits).
    mask: [u16; 7],
}

impl TcamEntry {
    fn key(&self) -> (Priority, RuleId, u16) {
        (self.priority, self.id, self.seq)
    }

    fn hits(&self, q: &[u16; 7]) -> bool {
        (0..7).all(|i| q[i] & self.mask[i] == self.value[i])
    }
}

/// Expands one rule into its TCAM entries: segment prefixes verbatim,
/// port ranges through [`spc_types::PortRange::prefix_blocks`] (the
/// classic range-to-prefix expansion, at most `2·16 - 2` blocks per
/// range), protocol as an 8-bit exact cell or wildcard.
fn expand(id: RuleId, rule: &Rule) -> Vec<TcamEntry> {
    let sp: Vec<(u16, u16)> = rule.src_port.prefix_blocks().collect();
    let dp: Vec<(u16, u16)> = rule.dst_port.prefix_blocks().collect();
    let (sh, sl) = rule.src_ip.segments();
    let (dh, dl) = rule.dst_ip.segments();
    let (pv, pm) = match rule.proto {
        ProtoSpec::Any => (0, 0),
        ProtoSpec::Exact(p) => (u16::from(p), 0x00ff),
    };
    let mut out = Vec::with_capacity(sp.len() * dp.len());
    let mut seq = 0u16;
    for &(sv, sm) in &sp {
        for &(dv, dm) in &dp {
            out.push(TcamEntry {
                priority: rule.priority,
                id,
                seq,
                value: [sh.value(), sl.value(), dh.value(), dl.value(), sv, dv, pv],
                mask: [
                    care_mask(sh),
                    care_mask(sl),
                    care_mask(dh),
                    care_mask(dl),
                    sm,
                    dm,
                    pm,
                ],
            });
            seq += 1;
        }
    }
    out
}

/// A priority-ordered software TCAM with a partitioned slot allocator
/// (`"tcam:capacity=1048576"`).
///
/// The array of `capacity` slots is split into eight equal chunks (one
/// per slot below eight slots). Entries stay globally sorted by
/// `(priority, id, seq)`; an insert that lands in a full partition
/// ripples entries toward the nearest partition with a free slot.
/// Partitioning bounds that worst case to roughly `capacity / 8` per hop
/// instead of the whole array.
///
/// Removes invalidate slots in place (one write per expanded entry, no
/// compaction shift), modelling a TCAM's valid-bit clear.
///
/// An update's [`UpdateReport`] counts one label per entry written or
/// cleared, and one write cycle per slot written on top of §V.A's three:
/// the rule's own entries, the entries shifted to make room (the
/// shift-on-insert cost a real TCAM pays), and the valid-bit clears of a
/// remove.
///
/// Ids are monotonic and never reused; the `n` rules of
/// [`SoftTcamEngine::build`] get ids `0..n` in rule-set order.
///
/// ```
/// use spc_engine::{PacketClassifier, SoftTcamEngine};
/// use spc_types::{Header, PortRange, Priority, Rule, RuleSet};
///
/// let mut tcam = SoftTcamEngine::build(&RuleSet::new(), 64).unwrap();
/// // [4, 11] is two prefix blocks: 4/14 and 8/13.
/// let id = tcam
///     .insert(Rule::builder(Priority(1)).src_port(PortRange::new(4, 11).unwrap()).build())
///     .unwrap();
/// assert_eq!(tcam.last_update_report().unwrap().created_labels, 2);
/// let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 9, 80, 6);
/// assert_eq!(tcam.classify(&h).rule, Some(id));
/// ```
#[derive(Debug)]
pub struct SoftTcamEngine {
    parts: Vec<Vec<TcamEntry>>,
    part_cap: usize,
    capacity: usize,
    entries: usize,
    rules: HashMap<RuleId, Rule>,
    dupes: HashMap<[DimValue; 7], RuleId>,
    next_id: u32,
    last_report: Option<UpdateReport>,
}

impl SoftTcamEngine {
    /// Builds from a rule set (rule `i` gets id `i`) into `capacity`
    /// slots (at least 1) split into eight partitions (at most one per
    /// slot), distributing the expanded entries evenly across partitions
    /// so each keeps free headroom for later inserts.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Rejected`] when the expansion exceeds `capacity`,
    /// [`UpdateError::Duplicate`] when two rules share all seven match
    /// dimensions.
    pub fn build(rules: &RuleSet, capacity: usize) -> Result<Self, UpdateError> {
        let capacity = capacity.max(1);
        let partitions = PARTITIONS.min(capacity);
        let mut tcam = SoftTcamEngine {
            parts: vec![Vec::new(); partitions],
            part_cap: capacity.div_ceil(partitions),
            capacity,
            entries: 0,
            rules: HashMap::new(),
            dupes: HashMap::new(),
            next_id: 0,
            last_report: None,
        };
        let mut all = Vec::new();
        for (id, r) in rules.iter() {
            if let Some(&existing) = tcam.dupes.get(&r.dim_values()) {
                return Err(UpdateError::Duplicate { existing });
            }
            tcam.dupes.insert(r.dim_values(), id);
            tcam.rules.insert(id, *r);
            all.extend(expand(id, r));
            tcam.next_id = tcam.next_id.max(id.0 + 1);
        }
        if all.len() > tcam.capacity {
            return Err(tcam.exhausted(all.len()));
        }
        all.sort_by_key(TcamEntry::key);
        tcam.entries = all.len();
        // Even distribution: `partitions` chunks differing by at most one
        // entry, so free slots spread across the whole array.
        let k = tcam.parts.len();
        let base = all.len() / k;
        let extra = all.len() % k;
        let mut it = all.into_iter();
        for (p, part) in tcam.parts.iter_mut().enumerate() {
            let take = base + usize::from(p < extra);
            part.extend(it.by_ref().take(take));
        }
        Ok(tcam)
    }

    /// Capacity exhaustion is an environment limit, not a protocol
    /// error: a rejection, distinguishable from a duplicate so churn
    /// loops can surface it.
    fn exhausted(&self, needed: usize) -> UpdateError {
        UpdateError::Rejected {
            reason: format!(
                "tcam capacity exhausted: need {needed} of {} slots",
                self.capacity
            ),
        }
    }

    /// Every installed `(id, rule)`, in no particular order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules.iter().map(|(&id, r)| (id, r))
    }

    /// Owner partition and in-partition position for `e`: the first
    /// partition whose last entry sorts at or after `e` (empty
    /// partitions are holes, not owners), falling back to the end of the
    /// last occupied partition.
    fn locate(&self, e: &TcamEntry) -> (usize, usize) {
        let key = e.key();
        for (p, part) in self.parts.iter().enumerate() {
            if let Some(last) = part.last() {
                if last.key() >= key {
                    return (p, part.partition_point(|x| x.key() < key));
                }
            }
        }
        match self.parts.iter().rposition(|p| !p.is_empty()) {
            Some(p) => (p, self.parts[p].len()),
            None => (0, 0),
        }
    }

    /// Places one entry, rippling toward the nearest free slot when the
    /// owner partition is full. Returns pre-existing entries rewritten.
    fn place(&mut self, e: TcamEntry) -> u32 {
        let (p, pos) = self.locate(&e);
        if self.parts[p].len() < self.part_cap {
            let moved = (self.parts[p].len() - pos) as u32;
            self.parts[p].insert(pos, e);
            return moved;
        }
        let right = (p + 1..self.parts.len()).find(|&q| self.parts[q].len() < self.part_cap);
        let left = (0..p).rev().find(|&q| self.parts[q].len() < self.part_cap);
        match (left, right) {
            (None, None) => unreachable!("capacity pre-check guarantees a free slot"),
            (Some(l), r) if r.is_none() || p - l <= r.unwrap_or(usize::MAX) - p => {
                self.ripple_left(p, pos, e, l)
            }
            _ => self.ripple_right(p, pos, e),
        }
    }

    /// Shifts entries toward the free slot in partition `l < p`: the
    /// front entry of each full partition drops to the end of the one
    /// before it.
    fn ripple_left(&mut self, p: usize, pos: usize, e: TcamEntry, l: usize) -> u32 {
        let mut moved = 0u32;
        // When `e` precedes the whole partition it rides down itself and
        // the owner is untouched; otherwise the owner's front entry
        // drops out and everything before `pos` slides left by one.
        let mut carry = if pos == 0 {
            e
        } else {
            let front = self.parts[p].remove(0);
            self.parts[p].insert(pos - 1, e);
            moved += (pos - 1) as u32;
            front
        };
        let mut fresh = pos == 0; // `carry` is the new entry, not a move
        let mut q = p;
        loop {
            q -= 1;
            if self.parts[q].len() < self.part_cap {
                self.parts[q].push(carry);
                moved += u32::from(!fresh);
                break;
            }
            let front = self.parts[q].remove(0);
            moved += self.parts[q].len() as u32;
            self.parts[q].push(carry);
            moved += u32::from(!fresh);
            carry = front;
            fresh = false;
            debug_assert!(q > l, "a free slot exists at or before partition l");
        }
        moved
    }

    /// Shifts entries toward the first free slot right of `p`: the back
    /// entry of each full partition pops up to the front of the next.
    fn ripple_right(&mut self, p: usize, pos: usize, e: TcamEntry) -> u32 {
        let mut moved = 0u32;
        let mut carry = e;
        let mut fresh = true;
        let mut at = pos;
        let mut q = p;
        loop {
            if self.parts[q].len() < self.part_cap {
                moved += (self.parts[q].len() - at) as u32;
                self.parts[q].insert(at, carry);
                moved += u32::from(!fresh);
                break;
            }
            self.parts[q].insert(at, carry);
            moved += (self.parts[q].len() - 1 - at) as u32;
            moved += u32::from(!fresh);
            let Some(back) = self.parts[q].pop() else {
                unreachable!("partition was full before the insert")
            };
            carry = back;
            fresh = false;
            at = 0;
            q += 1;
            debug_assert!(q < self.parts.len(), "a free slot exists to the right");
        }
        moved
    }
}

impl PacketClassifier for SoftTcamEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::SoftTcam
    }

    fn rules(&self) -> usize {
        self.rules.len()
    }

    /// First-match scan: the highest-priority matching rule (ties broken
    /// by lowest id), costing one read per slot examined.
    fn classify(&self, h: &Header) -> Verdict {
        let q = header_cells(h);
        let mut reads = 0u32;
        for part in &self.parts {
            for e in part {
                reads = reads.saturating_add(1);
                if e.hits(&q) {
                    let Some(rule) = self.rules.get(&e.id) else {
                        unreachable!("every slot belongs to an installed rule")
                    };
                    return verdict(Some((e.id, rule)), reads.max(1));
                }
            }
        }
        verdict(None, reads.max(1))
    }

    /// Bits the TCAM occupies: the full provisioned ternary array (a
    /// hardware TCAM burns power and area on empty slots too) plus the
    /// per-rule action side table.
    fn memory_bits(&self) -> u64 {
        self.capacity as u64 * SLOT_BITS + self.rules.len() as u64 * SIDE_BITS
    }

    fn supports_updates(&self) -> bool {
        true
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // Same contract as every updating backend: a failed update
        // leaves the report untouched.
        if let Some(&existing) = self.dupes.get(&rule.dim_values()) {
            return Err(UpdateError::Duplicate { existing });
        }
        let id = RuleId(self.next_id);
        let new = expand(id, &rule);
        let needed = self.entries + new.len();
        if needed > self.capacity {
            return Err(self.exhausted(needed));
        }
        let added = new.len() as u32;
        let mut moved = 0u32;
        for e in new {
            moved = moved.saturating_add(self.place(e));
        }
        self.entries = needed;
        self.dupes.insert(rule.dim_values(), id);
        self.rules.insert(id, rule);
        self.next_id += 1;
        self.last_report = Some(UpdateReport {
            rule_id: id,
            created_labels: added,
            freed_labels: 0,
            hw_write_cycles: 3 + u64::from(added) + u64::from(moved),
        });
        Ok(id)
    }

    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        let rule = self
            .rules
            .remove(&id)
            .ok_or(UpdateError::UnknownRule { id })?;
        self.dupes.remove(&rule.dim_values());
        let mut removed = 0u32;
        for part in &mut self.parts {
            let before = part.len();
            part.retain(|e| e.id != id);
            removed += (before - part.len()) as u32;
        }
        self.entries -= removed as usize;
        self.last_report = Some(UpdateReport {
            rule_id: id,
            created_labels: 0,
            freed_labels: removed,
            hw_write_cycles: 3 + u64::from(removed),
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
    use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::{Action, PortRange};

    fn empty(capacity: usize) -> SoftTcamEngine {
        SoftTcamEngine::build(&RuleSet::new(), capacity).unwrap()
    }

    fn naive<'a>(rules: impl Iterator<Item = (RuleId, &'a Rule)>, h: &Header) -> Option<RuleId> {
        rules
            .filter(|(_, r)| r.matches(h))
            .min_by_key(|&(id, r)| (r.priority, id))
            .map(|(id, _)| id)
    }

    #[test]
    fn agrees_with_linear_scan_on_generated_sets() {
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            let rules = RuleSetGenerator::new(kind, 300).seed(0xbead).generate();
            let tcam = SoftTcamEngine::build(&rules, 1 << 20).unwrap();
            assert_eq!(tcam.rules(), rules.len());
            let trace = TraceGenerator::new()
                .seed(0x5eed)
                .match_fraction(0.7)
                .generate(&rules, 400);
            for h in &trace {
                let v = tcam.classify(h);
                assert!(v.mem_reads >= 1);
                assert_eq!(v.rule, naive(tcam.iter(), h), "{kind:?} disagreed at {h}");
            }
        }
    }

    #[test]
    fn churn_preserves_first_match_order() {
        let rules = RuleSetGenerator::new(FilterKind::Fw, 120)
            .seed(7)
            .generate();
        let mut tcam = SoftTcamEngine::build(&rules, 1 << 18).unwrap();
        // Remove every third rule, insert replacements, re-check.
        let ids: Vec<RuleId> = tcam.iter().map(|(id, _)| id).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                tcam.remove(*id).unwrap();
            }
        }
        let extra = RuleSetGenerator::new(FilterKind::Acl, 40)
            .seed(9)
            .generate();
        for (_, r) in extra.iter() {
            // Skip rules that duplicate a survivor's filter.
            let _ = tcam.insert(*r);
        }
        let trace = TraceGenerator::new().seed(11).generate(&rules, 300);
        for h in &trace {
            assert_eq!(tcam.classify(h).rule, naive(tcam.iter(), h), "at {h}");
        }
    }

    #[test]
    fn capacity_exhaustion_is_typed() {
        // A wide source-port range expands to many entries; 4 slots
        // cannot hold it.
        let r = Rule::builder(Priority(0))
            .src_port(PortRange::new(1000, 40000).unwrap())
            .build();
        let mut tiny = empty(4);
        match tiny.insert(r) {
            Err(UpdateError::Rejected { reason }) => {
                assert!(reason.contains("of 4 slots"), "{reason}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // The failed insert must leave the TCAM unchanged.
        assert_eq!((tiny.rules(), tiny.entries), (0, 0));
        let mut rules = RuleSet::new();
        rules.push(r);
        assert!(matches!(
            SoftTcamEngine::build(&rules, 4),
            Err(UpdateError::Rejected { .. })
        ));
    }

    #[test]
    fn full_partition_insert_ripples_and_reports_moves() {
        // Capacity 32 in 8 partitions of 4. Fill the first partition's
        // priority region, then insert a rule that must land in front.
        let mut tcam = empty(32);
        for p in 10..16u32 {
            let r = Rule::builder(Priority(p))
                .dst_port(PortRange::exact(p as u16))
                .build();
            tcam.insert(r).unwrap();
        }
        // Priority 0 sorts before everything: partition 0 is full (4
        // entries), so the insert must shift entries across partitions.
        tcam.insert(
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(99))
                .build(),
        )
        .unwrap();
        // §V.A's floor, the new entry, the four entries of partition 0
        // shifted, its last carried into partition 1, and the two there
        // shifted.
        let up = tcam.last_update_report().unwrap();
        assert_eq!(up.created_labels, 1);
        assert_eq!(up.hw_write_cycles, 3 + 1 + 4 + 1 + 2);
        // Order is intact: the new top-priority rule wins its header.
        let h = Header::new([0; 4].into(), [0; 4].into(), 0, 99, 0);
        assert_eq!(tcam.classify(&h).priority, Some(Priority(0)));
    }

    #[test]
    fn tcam_report_prices_the_shift() {
        // 32 slots in 8 partitions; fill partition 0, then force a
        // front insert and check the report's cycles include the moves.
        let web_rule = |p: u32, port: u16| {
            Rule::builder(Priority(p))
                .dst_port(PortRange::exact(port))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Forward(1))
                .build()
        };
        let mut e = empty(32);
        for p in 10..16u32 {
            e.insert(web_rule(p, p as u16)).unwrap();
        }
        e.insert(web_rule(0, 9999)).unwrap();
        let rep = e.last_update_report().expect("insert must report");
        assert!(
            rep.hw_write_cycles > 3 + 1,
            "shift cost must surface: {rep:?}"
        );
    }

    #[test]
    fn remove_invalidates_in_place() {
        let mut tcam = empty(64);
        let wide = Rule::builder(Priority(1))
            .src_port(PortRange::new(4, 11).unwrap())
            .build();
        let id = tcam.insert(wide).unwrap();
        let up = tcam.last_update_report().unwrap();
        assert!(up.created_labels >= 2, "range [4,11] needs several blocks");
        tcam.remove(id).unwrap();
        let down = tcam.last_update_report().unwrap();
        assert_eq!(down.freed_labels, up.created_labels);
        // Removes clear valid bits, no shift.
        assert_eq!(down.hw_write_cycles, 3 + u64::from(down.freed_labels));
        assert_eq!(tcam.rules(), 0);
        assert!(matches!(
            tcam.remove(id),
            Err(UpdateError::UnknownRule { .. })
        ));
        // Ids are never reused.
        let id2 = tcam.insert(Rule::any(Priority(0))).unwrap();
        assert!(id2 > id);
    }

    #[test]
    fn duplicate_filter_is_rejected() {
        let mut tcam = empty(64);
        let r = Rule::builder(Priority(3))
            .dst_port(PortRange::exact(443))
            .build();
        let id = tcam.insert(r).unwrap();
        let mut dup = r;
        dup.priority = Priority(9);
        assert_eq!(
            tcam.insert(dup),
            Err(UpdateError::Duplicate { existing: id })
        );
        assert_eq!(tcam.rules(), 1);
    }

    #[test]
    fn memory_model_charges_provisioned_slots() {
        let tcam = empty(1024);
        assert_eq!(tcam.memory_bits(), 1024 * SLOT_BITS);
        assert_eq!((tcam.capacity, tcam.parts.len()), (1024, 8));
    }

    #[test]
    fn memory_bits_cannot_overflow_at_the_capacity_bound() {
        // Nothing is allocated per slot, so the bound itself builds; its
        // model, every rule's side-table entry included, is exact.
        let capacity = usize::try_from(MAX_CAPACITY).unwrap();
        let rules: RuleSet = (0..3u16)
            .map(|p| {
                Rule::builder(Priority(u32::from(p)))
                    .dst_port(PortRange::exact(p))
                    .build()
            })
            .collect();
        let tcam = SoftTcamEngine::build(&rules, capacity).unwrap();
        assert_eq!(tcam.memory_bits(), MAX_CAPACITY * SLOT_BITS + 3 * SIDE_BITS);
        assert!(MAX_CAPACITY.checked_mul(SLOT_BITS + SIDE_BITS).is_some());
    }
}
