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
use spc_lookup::{
    FieldEngine, Label, LabelEntry, LabelStore, MbtConfig, MultiBitTrie, PortRegisters,
    ProtocolLut, RangeBst, SegTrieConfig, SegmentTrie,
};
use spc_types::{DimValue, PortRange, Priority, ProtoSpec, SegPrefix};
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

fn got_labels(list: &spc_lookup::LabelList) -> BTreeSet<u16> {
    list.iter().map(|e| e.label.0).collect()
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
            let r = mbt.lookup(&store, q).unwrap();
            assert_eq!(
                got_labels(&r.labels),
                expected_labels(&dedup, q, |s: SegPrefix, q| s.matches(q)),
                "case {case} q={q:#x}"
            );
            assert_eq!(r.cycles, 6, "case {case}");
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
            let a = mbt.lookup(&s1, q).unwrap();
            let b = bst.lookup(&s2, q).unwrap();
            // Same label sets AND same head (both priority-ordered).
            assert_eq!(
                got_labels(&a.labels),
                got_labels(&b.labels),
                "case {case} q={q:#x}"
            );
            assert_eq!(
                a.labels.head().map(|e| e.label),
                b.labels.head().map(|e| e.label),
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
            let a = st.lookup(&s1, q).unwrap();
            let b = regs.lookup(&s2, q).unwrap();
            assert_eq!(
                got_labels(&a.labels),
                got_labels(&b.labels),
                "case {case} q={q}"
            );
            assert_eq!(
                got_labels(&a.labels),
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
        let r = lut.lookup(&store, u16::from(q)).unwrap();
        let want = expected_labels(&dedup, u16::from(q), |p: Option<u8>, q| match p {
            Some(v) => u16::from(v) == q,
            None => true,
        });
        assert_eq!(got_labels(&r.labels), want, "case {case} q={q}");
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
        let r = mbt.lookup(&store, q).unwrap();
        let want = expected_labels(&dedup[..1], q, |s: SegPrefix, q| s.matches(q));
        assert_eq!(got_labels(&r.labels), want, "case {case} q={q:#x}");
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
                    // `LookupResult` equality: labels in order, reads, cycles.
                    assert_eq!(
                        mbt.lookup(s_mbt, q).unwrap(),
                        seg.lookup(s_seg, q).unwrap(),
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
            let got = mbt.lookup_key(store, key).unwrap();
            assert_eq!(got_labels(&got.labels), want, "key={key:#x}");
        }
    };
    check(&mbt, &store, &|_| true);
    for (i, &(value, len)) in prefixes.iter().enumerate().step_by(2) {
        mbt.remove_prefix(&mut store, value, len, Label(i as u16))
            .unwrap();
    }
    check(&mbt, &store, &|i| i % 2 == 1);
}
