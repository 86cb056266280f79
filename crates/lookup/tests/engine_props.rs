//! Property tests: every single-field engine must agree with a naive
//! reference on randomized workloads — the matching-label set of a query
//! is exactly the set of inserted values containing it.
//!
//! The generators are seeded (`StdRng::seed_from_u64`) so every run
//! exercises the same cases; failures print the case number and query.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use spc_classbench::{FilterKind, RuleSetGenerator};
use spc_lookup::{
    EngineError, FieldEngine, Label, LabelEntry, LabelList, LabelStore, LookupCost, MbtConfig,
    MultiBitTrie, PortRegisters, ProtocolLut, RangeBst, SegTrieConfig, SegmentTrie,
};
use spc_types::{Dim, DimValue, PortRange, Priority, ProtoSpec, RuleSet, SegPrefix};
use std::collections::BTreeSet;

const CASES: u64 = 64;

fn rand_seg(rng: &mut StdRng) -> SegPrefix {
    SegPrefix::masked(rng.gen(), rng.gen_range(0u8..=16))
}

fn rand_segs(rng: &mut StdRng, max: usize) -> Vec<SegPrefix> {
    let n = rng.gen_range(1..max);
    let mut dedup: Vec<SegPrefix> = Vec::new();
    for _ in 0..n {
        let s = rand_seg(rng);
        if !dedup.contains(&s) {
            dedup.push(s);
        }
    }
    dedup
}

fn rand_ranges(rng: &mut StdRng, max: usize) -> Vec<PortRange> {
    let n = rng.gen_range(1..max);
    let mut dedup: Vec<PortRange> = Vec::new();
    for _ in 0..n {
        let (a, b) = (rng.gen::<u16>(), rng.gen::<u16>());
        let r = PortRange::new(a.min(b), a.max(b)).unwrap();
        if !dedup.contains(&r) {
            dedup.push(r);
        }
    }
    dedup
}

/// Reference: which of the (deduplicated) values match the query.
fn expected_labels<T: Copy>(
    values: &[T],
    q: u16,
    matches: impl Fn(T, u16) -> bool,
) -> BTreeSet<u16> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| matches(**v, q))
        .map(|(i, _)| i as u16)
        .collect()
}

fn got_labels(list: &LabelList) -> BTreeSet<u16> {
    list.iter().map(|e| e.label.0).collect()
}

/// One lookup into a fresh list: the labels in order and the cost.
fn lookup(
    engine: &dyn FieldEngine,
    store: &LabelStore,
    q: u16,
) -> Result<(LabelList, LookupCost), EngineError> {
    let mut labels = LabelList::new();
    let cost = engine.lookup_into(store, q, &mut labels)?;
    Ok((labels, cost))
}

/// One full-width MBT lookup into a fresh list.
fn key_labels(mbt: &MultiBitTrie, store: &LabelStore, key: u32) -> LabelList {
    let mut labels = LabelList::new();
    mbt.lookup_key_into(store, key, &mut labels);
    labels
}

#[test]
fn mbt_matches_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let dedup = rand_segs(&mut rng, 12);
        let mut store = LabelStore::new("t", 1 << 14, 13);
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(2048));
        for (i, s) in dedup.iter().enumerate() {
            mbt.insert(
                &mut store,
                DimValue::Seg(*s),
                LabelEntry::by_priority(Label(i as u16), Priority(i as u32)),
            )
            .unwrap();
        }
        let mut queries: Vec<u16> = (0..8).map(|_| rng.gen()).collect();
        queries.extend(dedup.iter().map(|s| s.first()));
        for q in queries {
            let (labels, cost) = lookup(&mbt, &store, q).unwrap();
            assert_eq!(
                got_labels(&labels),
                expected_labels(&dedup, q, |s: SegPrefix, q| s.matches(q)),
                "case {case} q={q:#x}"
            );
            assert_eq!(cost.cycles, 6, "case {case}");
        }
    }
}

#[test]
fn bst_matches_mbt() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let dedup = rand_segs(&mut rng, 12);
        let mut s1 = LabelStore::new("a", 1 << 14, 13);
        let mut s2 = LabelStore::new("b", 1 << 14, 13);
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(2048));
        let mut bst = RangeBst::new(4096);
        for (i, s) in dedup.iter().enumerate() {
            let e = LabelEntry::by_priority(Label(i as u16), Priority(i as u32));
            mbt.insert(&mut s1, DimValue::Seg(*s), e).unwrap();
            bst.insert(&mut s2, DimValue::Seg(*s), e).unwrap();
        }
        bst.flush(&mut s2).unwrap();
        for _ in 0..8 {
            let q: u16 = rng.gen();
            let (a, _) = lookup(&mbt, &s1, q).unwrap();
            let (b, _) = lookup(&bst, &s2, q).unwrap();
            // Same label sets AND same head (both priority-ordered).
            assert_eq!(got_labels(&a), got_labels(&b), "case {case} q={q:#x}");
            assert_eq!(
                a.head().map(|e| e.label),
                b.head().map(|e| e.label),
                "case {case} q={q:#x}"
            );
        }
    }
}

#[test]
fn segment_trie_matches_registers() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let dedup = rand_ranges(&mut rng, 12);
        let mut s1 = LabelStore::new("a", 1 << 14, 13);
        let mut s2 = LabelStore::new("b", 16, 7);
        let mut st = SegmentTrie::new(SegTrieConfig::four_level(4096));
        let mut regs = PortRegisters::new(64);
        for (i, r) in dedup.iter().enumerate() {
            let e = LabelEntry::by_priority(Label(i as u16), Priority(i as u32));
            st.insert(&mut s1, DimValue::Port(*r), e).unwrap();
            regs.insert(&mut s2, DimValue::Port(*r), e).unwrap();
        }
        let mut queries: Vec<u16> = (0..8).map(|_| rng.gen()).collect();
        queries.extend(dedup.iter().flat_map(|r| [r.lo(), r.hi()]));
        for q in queries {
            let (a, _) = lookup(&st, &s1, q).unwrap();
            let (b, _) = lookup(&regs, &s2, q).unwrap();
            assert_eq!(got_labels(&a), got_labels(&b), "case {case} q={q}");
            assert_eq!(
                got_labels(&a),
                expected_labels(&dedup, q, |r: PortRange, q| r.contains(q)),
                "case {case} q={q}"
            );
        }
    }
}

#[test]
fn protocol_lut_matches_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let n = rng.gen_range(1..6);
        let mut dedup: Vec<Option<u8>> = Vec::new();
        for _ in 0..n {
            let p = if rng.gen_bool(0.25) {
                None
            } else {
                Some(rng.gen_range(0u8..=40))
            };
            if !dedup.contains(&p) {
                dedup.push(p);
            }
        }
        let q: u8 = rng.gen_range(0..=45);
        let mut store = LabelStore::new("p", 8, 2);
        let mut lut = ProtocolLut::new();
        for (i, p) in dedup.iter().enumerate() {
            let spec = match p {
                Some(v) => ProtoSpec::Exact(*v),
                None => ProtoSpec::Any,
            };
            lut.insert(
                &mut store,
                DimValue::Proto(spec),
                LabelEntry::by_priority(Label(i as u16), Priority(i as u32)),
            )
            .unwrap();
        }
        let (labels, _) = lookup(&lut, &store, u16::from(q)).unwrap();
        let want = expected_labels(&dedup, u16::from(q), |p: Option<u8>, q| match p {
            Some(v) => u16::from(v) == q,
            None => true,
        });
        assert_eq!(got_labels(&labels), want, "case {case} q={q}");
    }
}

#[test]
fn mbt_remove_is_inverse_of_insert() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000 + case);
        let dedup = rand_segs(&mut rng, 10);
        let q: u16 = rng.gen();
        let mut store = LabelStore::new("t", 1 << 14, 13);
        let mut mbt = MultiBitTrie::new(MbtConfig::segment_paper(2048));
        for (i, s) in dedup.iter().enumerate() {
            mbt.insert(
                &mut store,
                DimValue::Seg(*s),
                LabelEntry::by_priority(Label(i as u16), Priority(i as u32)),
            )
            .unwrap();
        }
        // Remove all but the first value; only its label may remain.
        for (i, s) in dedup.iter().enumerate().skip(1) {
            mbt.remove(&mut store, DimValue::Seg(*s), Label(i as u16))
                .unwrap();
        }
        let (labels, _) = lookup(&mbt, &store, q).unwrap();
        let want = expected_labels(&dedup[..1], q, |s: SegPrefix, q| s.matches(q));
        assert_eq!(got_labels(&labels), want, "case {case} q={q:#x}");
    }
}

/// The MBT and the segment trie are one trie behind two insert front
/// ends, held here from outside: the same prefixes (length >= 1), loaded
/// as prefixes into one and as the key ranges they cover into the other,
/// give the same labels, `mem_reads`, structural writes and label-store
/// writes — through the inserts and a removal of every other prefix. An
/// edit that forks the walk again fails here.
#[test]
fn mbt_and_segment_trie_are_one_structure() {
    for strides in [vec![5u8, 5, 6], vec![4, 4, 4, 4], vec![4, 3, 3, 3, 3]] {
        let mut rng = StdRng::seed_from_u64(0x6000 + strides.len() as u64);
        let mut nodes = vec![512usize; strides.len()];
        nodes[0] = 1;
        let mut mbt = MultiBitTrie::new(MbtConfig::new(16, strides.clone(), nodes.clone()));
        let mut seg = SegmentTrie::new(SegTrieConfig::new(strides.clone(), nodes));
        let mut s_mbt = LabelStore::new("mbt", 1 << 16, 13);
        let mut s_seg = LabelStore::new("seg", 1 << 16, 13);
        let prefixes: Vec<SegPrefix> = (0..200)
            .map(|_| SegPrefix::masked(rng.gen(), rng.gen_range(1u8..=16)))
            .collect();
        let as_range = |p: &SegPrefix| DimValue::Port(PortRange::new(p.first(), p.last()).unwrap());
        let agree =
            |mbt: &MultiBitTrie, seg: &SegmentTrie, s_mbt: &LabelStore, s_seg: &LabelStore| {
                assert_eq!(mbt.writes(), seg.writes(), "{strides:?} structural writes");
                assert_eq!(s_mbt.writes(), s_seg.writes(), "{strides:?} store writes");
                let edges = prefixes.iter().flat_map(|p| {
                    let (lo, hi) = (p.first(), p.last());
                    [lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]
                });
                for q in edges.chain((0..=u16::MAX).step_by(97)) {
                    // Labels in order, reads, cycles.
                    assert_eq!(
                        lookup(mbt, s_mbt, q).unwrap(),
                        lookup(seg, s_seg, q).unwrap(),
                        "{strides:?} q={q:#x}"
                    );
                }
            };
        for (i, p) in prefixes.iter().enumerate() {
            let e = LabelEntry::by_priority(Label(i as u16), Priority(rng.gen_range(0..64)));
            mbt.insert(&mut s_mbt, DimValue::Seg(*p), e).unwrap();
            seg.insert(&mut s_seg, as_range(p), e).unwrap();
        }
        agree(&mbt, &seg, &s_mbt, &s_seg);
        for (i, p) in prefixes.iter().enumerate().step_by(2) {
            mbt.remove(&mut s_mbt, DimValue::Seg(*p), Label(i as u16))
                .unwrap();
            seg.remove(&mut s_seg, as_range(p), Label(i as u16))
                .unwrap();
        }
        agree(&mbt, &seg, &s_mbt, &s_seg);
    }
}

/// The prefix-to-range arithmetic at the top of a 32-bit key space:
/// prefixes touching `0.0.0.0/1` and `255.255.255.255/32` match exactly
/// the keys they contain, before and after removing half of them.
#[test]
fn mbt_ip32_matches_reference_at_the_key_space_edges() {
    let mut rng = StdRng::seed_from_u64(0x7000);
    let mut prefixes: Vec<(u32, u8)> = vec![
        (0, 1),
        (0x8000_0000, 1),
        (u32::MAX, 32),
        (u32::MAX - 1, 31),
        (0xffff_0000, 16),
        (0, 32),
        (0, 7),
        (0xfe00_0000, 7),
    ];
    for _ in 0..64 {
        let len = rng.gen_range(1u8..=32);
        let value = rng.gen::<u32>() & (u32::MAX << (32 - len));
        if !prefixes.contains(&(value, len)) {
            prefixes.push((value, len));
        }
    }
    let mut store = LabelStore::new("ip32", 1 << 16, 13);
    let mut mbt = MultiBitTrie::new(MbtConfig::ip32_5level(512));
    for (i, &(value, len)) in prefixes.iter().enumerate() {
        let e = LabelEntry::by_priority(Label(i as u16), Priority(i as u32));
        mbt.insert_prefix(&mut store, value, len, e).unwrap();
    }
    let mut keys: Vec<u32> = (0..64).map(|_| rng.gen()).collect();
    for &(value, len) in &prefixes {
        let last = value | (u32::MAX.checked_shr(u32::from(len)).unwrap_or(0));
        keys.extend([value, last, value.wrapping_sub(1), last.wrapping_add(1)]);
    }
    let check = |mbt: &MultiBitTrie, store: &LabelStore, live: &dyn Fn(usize) -> bool| {
        for &key in &keys {
            let want: BTreeSet<u16> = prefixes
                .iter()
                .enumerate()
                .filter(|&(i, &(value, len))| live(i) && (key ^ value) >> (32 - len) == 0)
                .map(|(i, _)| i as u16)
                .collect();
            let got = key_labels(mbt, store, key);
            assert_eq!(got_labels(&got), want, "key={key:#x}");
        }
    };
    check(&mbt, &store, &|_| true);
    for (i, &(value, len)) in prefixes.iter().enumerate().step_by(2) {
        mbt.remove_prefix(&mut store, value, len, Label(i as u16))
            .unwrap();
    }
    check(&mbt, &store, &|i| i % 2 == 1);
}

/// A `RangeBst` under churn beside the list of prefixes that are live in
/// it, for [`bst_delta_matches_rebuild`].
struct PatchedBst {
    bst: RangeBst,
    store: LabelStore,
    live: Vec<(SegPrefix, LabelEntry)>,
    next_label: u16,
}

impl PatchedBst {
    fn over(live: &[(SegPrefix, LabelEntry)]) -> Self {
        let mut new = PatchedBst {
            bst: RangeBst::new(4096),
            store: LabelStore::new("bst", 1 << 14, 13),
            live: Vec::new(),
            next_label: 0,
        };
        for &(p, e) in live {
            new.put(p, e);
        }
        new
    }

    fn put(&mut self, p: SegPrefix, e: LabelEntry) {
        self.bst
            .insert(&mut self.store, DimValue::Seg(p), e)
            .unwrap();
        self.live.retain(|&(q, _)| q != p);
        self.live.push((p, e));
    }

    /// One random change: a new prefix under a fresh label, a live one
    /// dropped, or a live one given a new priority.
    fn churn(&mut self, rng: &mut StdRng) {
        let pick = rng.gen_range(0..self.live.len().max(1));
        match rng.gen_range(0..3) {
            1 if !self.live.is_empty() => {
                let (p, e) = self.live.swap_remove(pick);
                self.bst
                    .remove(&mut self.store, DimValue::Seg(p), e.label)
                    .unwrap();
            }
            2 if !self.live.is_empty() => {
                let (p, e) = self.live[pick];
                self.put(
                    p,
                    LabelEntry::by_priority(e.label, Priority(rng.gen_range(0..64))),
                );
            }
            _ => {
                let p = loop {
                    let p = rand_seg(rng);
                    if self.live.iter().all(|&(q, _)| q != p) {
                        break p;
                    }
                };
                let label = Label(self.next_label);
                self.next_label += 1;
                self.put(
                    p,
                    LabelEntry::by_priority(label, Priority(rng.gen_range(0..64))),
                );
            }
        }
    }

    /// Flushes, then holds the result to an engine rebuilt from scratch
    /// over the live prefixes.
    fn flush_and_check(&mut self, rng: &mut StdRng, what: &str) {
        assert!(
            lookup(&self.bst, &self.store, 0).is_err(),
            "{what}: not dirty"
        );
        self.bst.flush(&mut self.store).unwrap();
        let mut want = PatchedBst::over(&self.live);
        want.bst.flush(&mut want.store).unwrap();
        assert_eq!(self.bst.used_bits(), want.bst.used_bits(), "{what}");
        assert_eq!(
            (self.store.used_bits(), self.store.entries_used()),
            (want.store.used_bits(), want.store.entries_used()),
            "{what}"
        );
        let edges = self.live.iter().flat_map(|(p, _)| {
            let (lo, hi) = (p.first(), p.last());
            [lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]
        });
        let random: Vec<u16> = (0..32).map(|_| rng.gen()).collect();
        for q in [0, u16::MAX].into_iter().chain(edges).chain(random) {
            // Labels in order, reads, cycles.
            assert_eq!(
                lookup(&self.bst, &self.store, q).unwrap(),
                lookup(&want.bst, &want.store, q).unwrap(),
                "{what} q={q:#x}"
            );
        }
    }
}

/// A flushed `RangeBst` is indistinguishable from one rebuilt from
/// scratch over the same live prefixes, whatever sequence of adds, drops
/// and re-prioritisations it was patched through: the same labels and
/// cost at every interval edge and the same bits in the
/// interval array and the label store — so a boundary left behind, or a
/// list not copied on a split, shows here even where no label is wrong.
#[test]
fn bst_delta_matches_rebuild() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x8000 + case);
        let mut t = PatchedBst::over(&[]);
        // Bulk load: prefix lengths 0..=16, so wildcards and /16s are in.
        while t.live.len() < 1 + (case as usize % 40) {
            t.churn(&mut rng);
        }
        t.flush_and_check(&mut rng, &format!("case {case} bulk load"));
        for step in 0..60 {
            // Mostly one change per flush, as the classifier issues them;
            // one step in four batches two or three.
            let batch = [1, 1, 1, rng.gen_range(2..=3)][step % 4];
            for _ in 0..batch {
                t.churn(&mut rng);
            }
            t.flush_and_check(&mut rng, &format!("case {case} step {step}"));
        }
        while let Some(&(p, e)) = t.live.last() {
            t.live.pop();
            t.bst
                .remove(&mut t.store, DimValue::Seg(p), e.label)
                .unwrap();
            t.flush_and_check(&mut rng, &format!("case {case} draining"));
        }
        assert_eq!((t.bst.used_bits(), t.store.entries_used()), (0, 0));
    }
}

/// `dim`'s distinct values in `rules`, each labelled in first-seen order
/// at the priority of its first rule.
fn distinct_entries(rules: &RuleSet, dim: Dim) -> Vec<(DimValue, LabelEntry)> {
    let mut seen: Vec<DimValue> = Vec::new();
    let mut out = Vec::new();
    for rule in rules.rules() {
        let value = rule.dim_value(dim);
        if !seen.contains(&value) {
            let label = Label(seen.len() as u16);
            out.push((value, LabelEntry::by_priority(label, rule.priority)));
            seen.push(value);
        }
    }
    out
}

/// A field lookup's only error is `Dirty`: each of the five engines,
/// loaded with a generated ACL and FW set's distinct values and flushed,
/// answers `Ok` on all 65 536 queries of its domain, and a BST with one
/// unflushed insert answers exactly `Err(Dirty)` on all of them.
#[test]
fn flushed_engines_answer_every_query() {
    type Make = fn() -> (Box<dyn FieldEngine>, LabelStore);
    fn ip_store() -> LabelStore {
        LabelStore::new("ip", 1 << 20, 13)
    }
    fn port_store() -> LabelStore {
        LabelStore::new("port", 1 << 18, 13)
    }
    let engines: [(&str, &[Dim], Make); 5] = [
        (
            "mbt",
            &[Dim::SipHi, Dim::SipLo, Dim::DipHi, Dim::DipLo],
            || {
                let mbt = MultiBitTrie::new(MbtConfig::segment_paper(4096));
                (Box::new(mbt), ip_store())
            },
        ),
        (
            "bst",
            &[Dim::SipHi, Dim::SipLo, Dim::DipHi, Dim::DipLo],
            || (Box::new(RangeBst::new(8192)), ip_store()),
        ),
        ("segtrie", &[Dim::SrcPort, Dim::DstPort], || {
            let trie = SegmentTrie::new(SegTrieConfig::four_level(1 << 12));
            (Box::new(trie), port_store())
        }),
        ("portregs", &[Dim::SrcPort, Dim::DstPort], || {
            (Box::new(PortRegisters::new(4096)), port_store())
        }),
        ("protolut", &[Dim::Proto], || {
            (
                Box::new(ProtocolLut::new()),
                LabelStore::new("proto", 16, 4),
            )
        }),
    ];
    let mut list = LabelList::new();
    for kind in [FilterKind::Acl, FilterKind::Fw] {
        let rules = RuleSetGenerator::new(kind, 1024).seed(39).generate();
        for (name, dims, make) in engines {
            for &dim in dims {
                let at = format!("{kind:?} {name} {dim:?}");
                let (mut engine, mut store) = make();
                for (value, entry) in distinct_entries(&rules, dim) {
                    engine.insert(&mut store, value, entry).unwrap();
                }
                engine.flush(&mut store).unwrap();
                let mut matched = 0u32;
                for q in 0..=u16::MAX {
                    let cost = engine.lookup_into(&store, q, &mut list);
                    assert!(cost.is_ok(), "{at} q={q:#x}: {cost:?}");
                    matched += u32::from(!list.is_empty());
                }
                assert!(matched > 0, "{at}: no query matched anything");
            }
        }
        // One insert behind its flush: every query is refused as dirty.
        let (mut bst, mut store) = (RangeBst::new(8192), ip_store());
        for (value, entry) in distinct_entries(&rules, Dim::DipLo) {
            bst.insert(&mut store, value, entry).unwrap();
        }
        bst.flush(&mut store).unwrap();
        let extra = LabelEntry::by_priority(Label(8000), Priority(0));
        let value = DimValue::Seg(SegPrefix::masked(0x1234, 16));
        bst.insert(&mut store, value, extra).unwrap();
        for q in 0..=u16::MAX {
            let got = bst.lookup_into(&store, q, &mut list);
            assert_eq!(got, Err(EngineError::Dirty), "{kind:?} q={q:#x}");
        }
    }
}
