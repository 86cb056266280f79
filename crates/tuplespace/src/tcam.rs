//! A software model of a priority-ordered TCAM: mask/value entries
//! scanned first-match, with a partitioned free-slot allocator whose
//! shift-on-insert cost is surfaced per update.

use crate::TupleError;
use spc_types::{Action, DimValue, Header, PortRange, Priority, ProtoSpec, Rule, RuleSet};
use std::collections::HashMap;

/// Bits one provisioned TCAM slot occupies: seven 16-bit value cells
/// plus seven 16-bit mask cells.
const SLOT_BITS: u64 = 2 * 7 * 16;
/// Bits per rule in the action/priority side table.
const SIDE_BITS: u64 = 64;

/// Cost accounting for one [`SoftTcam`] update, mapped by the engine
/// layer onto a §V.A-style `UpdateReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcamUpdate {
    /// TCAM slots newly written with the rule's prefix expansion.
    pub entries_added: u32,
    /// Slots invalidated by a remove.
    pub entries_removed: u32,
    /// Pre-existing entries rewritten to open a slot at the insertion
    /// point (the shift-on-insert cost a real TCAM pays).
    pub entries_moved: u32,
}

/// One TCAM slot: a ternary match (`value`/`mask` per 16-bit dimension
/// cell) plus the identity of the rule it expands.
///
/// Slots are kept sorted by `(priority, id, seq)`, so the first matching
/// slot in a scan is the highest-priority matching rule with ties broken
/// by lowest id — the registry-wide tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamEntry {
    /// Priority of the expanded rule.
    pub priority: Priority,
    /// Id of the expanded rule.
    pub id: u32,
    /// Index of this entry within the rule's expansion (cross product of
    /// the two port-range prefix decompositions).
    pub seq: u16,
    /// Match value per dimension cell, in canonical dimension order.
    pub value: [u16; 7],
    /// Care-bit mask per dimension cell (`query & mask == value` hits).
    pub mask: [u16; 7],
    /// Action of the expanded rule.
    pub action: Action,
}

impl TcamEntry {
    fn key(&self) -> (Priority, u32, u16) {
        (self.priority, self.id, self.seq)
    }

    fn hits(&self, q: &[u16; 7]) -> bool {
        (0..7).all(|i| q[i] & self.mask[i] == self.value[i])
    }
}

/// Decomposes the inclusive port range `[lo, hi]` into the minimal
/// greedy sequence of aligned `(value, mask)` prefix blocks — the
/// classic range-to-prefix expansion a real TCAM requires (worst case
/// `2·16 - 2` blocks per range).
///
/// ```
/// use spc_tuplespace::port_prefixes;
/// assert_eq!(port_prefixes(0, 65535), vec![(0, 0)]);
/// assert_eq!(port_prefixes(80, 80), vec![(80, 0xffff)]);
/// assert_eq!(port_prefixes(4, 7), vec![(4, 0xfffc)]);
/// ```
pub fn port_prefixes(lo: u16, hi: u16) -> Vec<(u16, u16)> {
    debug_assert!(lo <= hi);
    PortRange::new(lo, hi).map_or_else(|_| Vec::new(), |r| r.prefix_blocks().collect())
}

/// 16-bit care mask for a segment prefix length.
fn seg_mask(len: u8) -> u16 {
    if len == 0 {
        0
    } else {
        u16::MAX << (16 - len)
    }
}

/// The seven 16-bit query cells of a header, in canonical dimension
/// order.
fn query_cells(h: &Header) -> [u16; 7] {
    [
        h.sip_hi(),
        h.sip_lo(),
        h.dip_hi(),
        h.dip_lo(),
        h.src_port,
        h.dst_port,
        u16::from(h.proto),
    ]
}

/// Expands one rule into its TCAM entries: segment prefixes verbatim,
/// port ranges through [`PortRange::prefix_blocks`], protocol as an 8-bit exact
/// cell or wildcard.
fn expand(id: u32, rule: &Rule) -> Vec<TcamEntry> {
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
                    seg_mask(sh.len()),
                    seg_mask(sl.len()),
                    seg_mask(dh.len()),
                    seg_mask(dl.len()),
                    sm,
                    dm,
                    pm,
                ],
                action: rule.action,
            });
            seq += 1;
        }
    }
    out
}

/// A priority-ordered software TCAM with a partitioned slot allocator.
///
/// The array of `capacity` slots is split into `partitions` equal
/// chunks. Entries stay globally sorted by `(priority, id, seq)`; an
/// insert that lands in a full partition ripples entries toward the
/// nearest partition with a free slot, and the number of pre-existing
/// entries rewritten is reported in [`TcamUpdate::entries_moved`] —
/// partitioning bounds that worst case to roughly `capacity /
/// partitions` per hop instead of the whole array.
///
/// Removes invalidate slots in place (one write per expanded entry, no
/// compaction shift), modelling a TCAM's valid-bit clear.
///
/// Ids are monotonic and never reused; the `n` rules of
/// [`SoftTcam::build`] get ids `0..n` in rule-set order.
#[derive(Debug, Clone)]
pub struct SoftTcam {
    parts: Vec<Vec<TcamEntry>>,
    part_cap: usize,
    capacity: usize,
    entries: usize,
    rules: HashMap<u32, Rule>,
    dupes: HashMap<[DimValue; 7], u32>,
    next_id: u32,
}

impl SoftTcam {
    /// An empty TCAM with `capacity` slots in `partitions` chunks
    /// (minimums 1 slot, 1 partition; at most one partition per slot).
    pub fn new(capacity: usize, partitions: usize) -> Self {
        let capacity = capacity.max(1);
        let partitions = partitions.clamp(1, capacity);
        SoftTcam {
            parts: vec![Vec::new(); partitions],
            part_cap: capacity.div_ceil(partitions),
            capacity,
            entries: 0,
            rules: HashMap::new(),
            dupes: HashMap::new(),
            next_id: 0,
        }
    }

    /// Builds from a rule set (rule `i` gets id `i`), distributing the
    /// expanded entries evenly across partitions so each keeps free
    /// headroom for later inserts.
    ///
    /// # Errors
    ///
    /// [`TupleError::CapacityExhausted`] when the expansion exceeds
    /// `capacity`, [`TupleError::Duplicate`] when two rules share all
    /// seven match dimensions.
    pub fn build(rules: &RuleSet, capacity: usize, partitions: usize) -> Result<Self, TupleError> {
        let mut tcam = SoftTcam::new(capacity, partitions);
        let mut all = Vec::new();
        for (rid, r) in rules.iter() {
            let id = rid.0;
            if let Some(&existing) = tcam.dupes.get(&r.dim_values()) {
                return Err(TupleError::Duplicate { existing });
            }
            tcam.dupes.insert(r.dim_values(), id);
            tcam.rules.insert(id, *r);
            all.extend(expand(id, r));
            tcam.next_id = tcam.next_id.max(id + 1);
        }
        if all.len() > tcam.capacity {
            return Err(TupleError::CapacityExhausted {
                capacity: tcam.capacity,
                needed: all.len(),
            });
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

    /// Installed rule count.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Provisioned slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of allocator partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Bits the TCAM occupies: the full provisioned ternary array (a
    /// hardware TCAM burns power and area on empty slots too) plus the
    /// per-rule action side table.
    pub fn memory_bits(&self) -> u64 {
        self.capacity as u64 * SLOT_BITS + self.rules.len() as u64 * SIDE_BITS
    }

    /// Iterates `(id, rule)` over every installed rule, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Rule)> {
        self.rules.iter().map(|(&id, r)| (id, r))
    }

    /// First-match scan: the highest-priority matching rule (ties broken
    /// by lowest id) and the slots examined as the read cost.
    pub fn lookup(&self, h: &Header) -> (Option<(u32, &Rule)>, u32) {
        let q = query_cells(h);
        let mut reads = 0u32;
        for part in &self.parts {
            for e in part {
                reads = reads.saturating_add(1);
                if e.hits(&q) {
                    let Some(rule) = self.rules.get(&e.id) else {
                        unreachable!("every slot belongs to an installed rule")
                    };
                    return (Some((e.id, rule)), reads.max(1));
                }
            }
        }
        (None, reads.max(1))
    }

    /// Installs one rule; returns its id and the update cost.
    ///
    /// # Errors
    ///
    /// [`TupleError::Duplicate`] when an identical 5-tuple is installed,
    /// [`TupleError::CapacityExhausted`] when the expansion does not fit.
    pub fn insert(&mut self, rule: Rule) -> Result<(u32, TcamUpdate), TupleError> {
        if let Some(&existing) = self.dupes.get(&rule.dim_values()) {
            return Err(TupleError::Duplicate { existing });
        }
        let id = self.next_id;
        let new = expand(id, &rule);
        let needed = self.entries + new.len();
        if needed > self.capacity {
            return Err(TupleError::CapacityExhausted {
                capacity: self.capacity,
                needed,
            });
        }
        let mut up = TcamUpdate {
            entries_added: new.len() as u32,
            ..TcamUpdate::default()
        };
        for e in new {
            up.entries_moved = up.entries_moved.saturating_add(self.place(e));
        }
        self.entries = needed;
        self.dupes.insert(rule.dim_values(), id);
        self.rules.insert(id, rule);
        self.next_id += 1;
        Ok((id, up))
    }

    /// Removes one rule by id, invalidating its slots in place; returns
    /// the rule and the update cost.
    ///
    /// # Errors
    ///
    /// [`TupleError::UnknownRule`] when no rule has this id.
    pub fn remove(&mut self, id: u32) -> Result<(Rule, TcamUpdate), TupleError> {
        let rule = self
            .rules
            .remove(&id)
            .ok_or(TupleError::UnknownRule { id })?;
        self.dupes.remove(&rule.dim_values());
        let mut removed = 0u32;
        for part in &mut self.parts {
            let before = part.len();
            part.retain(|e| e.id != id);
            removed += (before - part.len()) as u32;
        }
        self.entries -= removed as usize;
        Ok((
            rule,
            TcamUpdate {
                entries_removed: removed,
                ..TcamUpdate::default()
            },
        ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::PortRange;

    fn naive<'a>(rules: impl Iterator<Item = (u32, &'a Rule)>, h: &Header) -> Option<u32> {
        rules
            .filter(|(_, r)| r.matches(h))
            .min_by_key(|&(id, r)| (r.priority, id))
            .map(|(id, _)| id)
    }

    #[test]
    fn port_prefixes_cover_their_range_exactly() {
        for (lo, hi) in [
            (0u16, 65535u16),
            (80, 80),
            (1, 10),
            (10, 1000),
            (1000, 40000),
            (1024, 65535),
            (0, 1),
            (65535, 65535),
        ] {
            let blocks = port_prefixes(lo, hi);
            assert!(
                blocks.len() <= 30,
                "[{lo},{hi}] used {} blocks",
                blocks.len()
            );
            for port in 0..=u16::MAX {
                let covered = blocks.iter().any(|&(v, m)| port & m == v);
                assert_eq!(
                    covered,
                    (lo..=hi).contains(&port),
                    "[{lo},{hi}] wrong at port {port}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_linear_scan_on_generated_sets() {
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            let rules = RuleSetGenerator::new(kind, 300).seed(0xbead).generate();
            let tcam = SoftTcam::build(&rules, 1 << 20, 8).unwrap();
            assert_eq!(tcam.len(), rules.len());
            let trace = TraceGenerator::new()
                .seed(0x5eed)
                .match_fraction(0.7)
                .generate(&rules, 400);
            for h in &trace {
                let (hit, reads) = tcam.lookup(h);
                assert!(reads >= 1);
                assert_eq!(
                    hit.map(|(id, _)| id),
                    naive(tcam.iter(), h),
                    "{kind:?} disagreed at {h}"
                );
            }
        }
    }

    #[test]
    fn churn_preserves_first_match_order() {
        let rules = RuleSetGenerator::new(FilterKind::Fw, 120)
            .seed(7)
            .generate();
        let mut tcam = SoftTcam::build(&rules, 1 << 18, 4).unwrap();
        // Remove every third rule, insert replacements, re-check.
        let ids: Vec<u32> = tcam.iter().map(|(id, _)| id).collect();
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
            let (hit, _) = tcam.lookup(h);
            assert_eq!(hit.map(|(id, _)| id), naive(tcam.iter(), h), "at {h}");
        }
    }

    #[test]
    fn capacity_exhaustion_is_typed() {
        // A wide source-port range expands to many entries; 4 slots
        // cannot hold it.
        let r = Rule::builder(Priority(0))
            .src_port(PortRange::new(1000, 40000).unwrap())
            .build();
        let mut tiny = SoftTcam::new(4, 2);
        match tiny.insert(r) {
            Err(TupleError::CapacityExhausted {
                capacity: 4,
                needed,
            }) => {
                assert!(needed > 4);
            }
            other => panic!("expected CapacityExhausted, got {other:?}"),
        }
        // The failed insert must leave the TCAM unchanged.
        assert!(tiny.is_empty());
        let mut rules = RuleSet::new();
        rules.push(r);
        assert!(matches!(
            SoftTcam::build(&rules, 4, 2),
            Err(TupleError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn full_partition_insert_ripples_and_reports_moves() {
        // Capacity 8 in 2 partitions of 4. Fill the first partition's
        // priority region, then insert a rule that must land in front.
        let mut tcam = SoftTcam::new(8, 2);
        for p in 10..16u32 {
            let r = Rule::builder(Priority(p))
                .dst_port(PortRange::exact(p as u16))
                .build();
            tcam.insert(r).unwrap();
        }
        // Priority 0 sorts before everything: partition 0 is full (4
        // entries), so the insert must shift entries across partitions.
        let (_, up) = tcam
            .insert(
                Rule::builder(Priority(0))
                    .dst_port(PortRange::exact(99))
                    .build(),
            )
            .unwrap();
        assert_eq!(up.entries_added, 1);
        assert!(up.entries_moved > 0, "full owner partition must shift");
        // Order is intact: the new top-priority rule wins its header.
        let h = Header::new([0; 4].into(), [0; 4].into(), 0, 99, 0);
        let (hit, _) = tcam.lookup(&h);
        assert_eq!(hit.map(|(_, r)| r.priority), Some(Priority(0)));
    }

    #[test]
    fn remove_invalidates_in_place() {
        let mut tcam = SoftTcam::new(64, 4);
        let wide = Rule::builder(Priority(1))
            .src_port(PortRange::new(4, 11).unwrap())
            .build();
        let (id, up) = tcam.insert(wide).unwrap();
        assert!(up.entries_added >= 2, "range [4,11] needs several blocks");
        let (_, down) = tcam.remove(id).unwrap();
        assert_eq!(down.entries_removed, up.entries_added);
        assert_eq!(down.entries_moved, 0, "removes clear valid bits, no shift");
        assert!(tcam.is_empty());
        assert!(matches!(
            tcam.remove(id),
            Err(TupleError::UnknownRule { .. })
        ));
        // Ids are never reused.
        let (id2, _) = tcam.insert(Rule::any(Priority(0))).unwrap();
        assert!(id2 > id);
    }

    #[test]
    fn duplicate_filter_is_rejected() {
        let mut tcam = SoftTcam::new(64, 4);
        let r = Rule::builder(Priority(3))
            .dst_port(PortRange::exact(443))
            .build();
        let (id, _) = tcam.insert(r).unwrap();
        let mut dup = r;
        dup.priority = Priority(9);
        assert_eq!(
            tcam.insert(dup),
            Err(TupleError::Duplicate { existing: id })
        );
        assert_eq!(tcam.len(), 1);
    }

    #[test]
    fn memory_model_charges_provisioned_slots() {
        let tcam = SoftTcam::new(1024, 8);
        assert_eq!(tcam.memory_bits(), 1024 * SLOT_BITS);
        assert_eq!(tcam.capacity(), 1024);
        assert_eq!(tcam.partitions(), 8);
    }
}
