//! Property-style tests (seeded random cases): the architecture against
//! the semantic oracle on arbitrary rule sets and headers, plus structural
//! type invariants. Classifier-facing properties go through the unified
//! `spc::engine::PacketClassifier` API.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use spc::engine::{EngineBuilder, EngineKind, PacketClassifier, UpdateError, Verdict};
use spc::types::{
    Action, Header, PortRange, Prefix, Priority, ProtoSpec, Rule, RuleSet, SegPrefix,
};

fn rand_prefix(rng: &mut StdRng) -> Prefix {
    Prefix::masked(rng.gen(), rng.gen_range(0u8..=32))
}

fn rand_range(rng: &mut StdRng) -> PortRange {
    let (a, b) = (rng.gen::<u16>(), rng.gen::<u16>());
    PortRange::new(a.min(b), a.max(b)).expect("ordered")
}

fn rand_proto(rng: &mut StdRng) -> ProtoSpec {
    if rng.gen_bool(0.75) {
        ProtoSpec::Exact(rng.gen_range(0u8..=30))
    } else {
        ProtoSpec::Any
    }
}

fn rand_rule(rng: &mut StdRng, priority: u32) -> Rule {
    Rule::builder(Priority(priority))
        .src_ip(rand_prefix(rng))
        .dst_ip(rand_prefix(rng))
        .src_port(rand_range(rng))
        .dst_port(rand_range(rng))
        .proto(rand_proto(rng))
        .action(Action::Forward(priority as u16))
        .build()
}

fn rand_ruleset(rng: &mut StdRng, max: usize) -> RuleSet {
    let n = rng.gen_range(1..max);
    (0..n).map(|i| rand_rule(rng, i as u32)).collect()
}

fn rand_header(rng: &mut StdRng) -> Header {
    Header::new(
        rng.gen::<u32>().into(),
        rng.gen::<u32>().into(),
        rng.gen(),
        rng.gen(),
        rng.gen_range(0u8..=35),
    )
}

/// Headers biased to actually hit rules: derived from a rule's region.
fn biased_header(rules: &RuleSet, rng: &mut StdRng) -> Header {
    let r = &rules.rules()[rng.gen_range(0..rules.len())];
    let jitter: u32 = rng.gen();
    Header::new(
        (r.src_ip.value() | (jitter & !u32_mask(r.src_ip.len()))).into(),
        (r.dst_ip.value() | (jitter.rotate_left(7) & !u32_mask(r.dst_ip.len()))).into(),
        r.src_port.lo(),
        r.dst_port.hi(),
        match r.proto {
            ProtoSpec::Exact(v) => v,
            ProtoSpec::Any => (jitter % 40) as u8,
        },
    )
}

fn u32_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// Installs via the unified update path, skipping rejected duplicates,
/// and returns the effectively-installed oracle set.
fn install(engine: &mut dyn PacketClassifier, rules: &RuleSet) -> RuleSet {
    let mut installed = RuleSet::new();
    for r in rules.rules() {
        match engine.insert(*r) {
            Ok(_) => {
                installed.push(*r);
            }
            Err(UpdateError::Duplicate { .. }) => {} // duplicate 5-tuple
            Err(e) => panic!("unexpected update error: {e}"),
        }
    }
    installed
}

fn priority_of(v: &Verdict) -> Option<Priority> {
    v.priority
}

#[test]
fn classifier_equals_oracle_mbt() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xa000 + case);
        let rules = rand_ruleset(&mut rng, 24);
        let mut engine = EngineBuilder::new(EngineKind::ConfigurableMbt)
            .build(&RuleSet::new())
            .expect("empty build");
        let installed = install(engine.as_mut(), &rules);
        let mut headers: Vec<Header> = (0..12).map(|_| rand_header(&mut rng)).collect();
        headers.push(biased_header(&rules, &mut rng));
        for h in &headers {
            let want = installed.classify(h).map(|(_, r)| r.priority);
            let got = priority_of(&engine.classify(h));
            assert_eq!(got, want, "case {case} header {h}");
        }
    }
}

#[test]
fn classifier_equals_oracle_bst() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xb000 + case);
        let rules = rand_ruleset(&mut rng, 16);
        let mut engine = EngineBuilder::new(EngineKind::ConfigurableBst)
            .build(&RuleSet::new())
            .expect("empty build");
        let installed = install(engine.as_mut(), &rules);
        let h = biased_header(&rules, &mut rng);
        let want = installed.classify(&h).map(|(_, r)| r.priority);
        assert_eq!(
            priority_of(&engine.classify(&h)),
            want,
            "case {case} header {h}"
        );
    }
}

#[test]
fn batch_path_equals_single_path() {
    // The amortised batch path must be observationally identical to the
    // single-shot path on every leaf backend, hits and misses alike — and
    // the batch's modelled cost is exactly the sum of the verdicts' (the
    // by-value channel is the only one there is). Wrappers are left out:
    // a flow cache answers the second pass from the first.
    let leaves = EngineKind::ALL.into_iter().filter(|k| {
        !matches!(
            k,
            EngineKind::Sharded | EngineKind::Cached | EngineKind::Snapshot
        )
    });
    for kind in leaves {
        for case in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(0xc000 + case);
            let rules = rand_ruleset(&mut rng, 20);
            let mut engine = EngineBuilder::new(kind).build(&RuleSet::new()).unwrap();
            if engine.supports_updates() {
                install(engine.as_mut(), &rules);
            } else {
                engine = EngineBuilder::new(kind).build(&rules).unwrap();
            }
            let mut headers: Vec<Header> = (0..24).map(|_| rand_header(&mut rng)).collect();
            headers.extend((0..8).map(|_| biased_header(&rules, &mut rng)));
            let singles: Vec<Verdict> = headers.iter().map(|h| engine.classify(h)).collect();
            let mut batched = Vec::new();
            let stats = engine.classify_batch(&headers, &mut batched);
            assert_eq!(singles, batched, "kind {kind} case {case}");
            assert_eq!(stats.packets, headers.len() as u64);
            assert_eq!(
                stats.hits,
                singles.iter().filter(|v| v.is_hit()).count() as u64
            );
            assert_eq!(
                stats.mem_reads,
                singles.iter().map(|v| u64::from(v.mem_reads)).sum::<u64>(),
                "kind {kind} case {case}"
            );
        }
    }
}

#[test]
fn insert_remove_roundtrip_restores_behaviour() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xd000 + case);
        let rules = rand_ruleset(&mut rng, 12);
        let h = rand_header(&mut rng);
        let mut engine = EngineBuilder::new(EngineKind::ConfigurableMbt)
            .build(&RuleSet::new())
            .unwrap();
        let mut ids = Vec::new();
        for r in rules.rules() {
            if let Ok(id) = engine.insert(*r) {
                ids.push(id);
            }
        }
        let before = priority_of(&engine.classify(&h));
        // Remove everything, confirm empty semantics, reinstall.
        for id in &ids {
            engine.remove(*id).unwrap();
        }
        assert!(!engine.classify(&h).is_hit(), "case {case}");
        assert_eq!(engine.rules(), 0, "case {case}");
        for r in rules.rules() {
            let _ = engine.insert(*r);
        }
        assert_eq!(priority_of(&engine.classify(&h)), before, "case {case}");
    }
}

#[test]
fn prefix_segments_partition_matches() {
    // A 32-bit prefix match decomposes exactly into its two 16-bit
    // segment matches — the foundation of the architecture.
    let mut rng = StdRng::seed_from_u64(0xe000);
    for _ in 0..2000 {
        let p = Prefix::masked(rng.gen(), rng.gen_range(0u8..=32));
        let q: u32 = rng.gen();
        let (hi, lo) = p.segments();
        let header_matches = p.contains(q.into());
        let seg_matches = hi.matches((q >> 16) as u16) && lo.matches((q & 0xffff) as u16);
        assert_eq!(header_matches, seg_matches, "prefix {p:?} q {q:#x}");
    }
}

#[test]
fn segprefix_bounds_consistent() {
    let mut rng = StdRng::seed_from_u64(0xe001);
    for _ in 0..2000 {
        let s = SegPrefix::masked(rng.gen(), rng.gen_range(0u8..=16));
        assert!(s.matches(s.first()));
        assert!(s.matches(s.last()));
        if s.first() > 0 {
            assert!(!s.matches(s.first() - 1));
        }
        if s.last() < u16::MAX {
            assert!(!s.matches(s.last() + 1));
        }
    }
}

#[test]
fn portrange_covers_iff_both_bounds() {
    let mut rng = StdRng::seed_from_u64(0xe002);
    for _ in 0..2000 {
        let a = rand_range(&mut rng);
        let b = rand_range(&mut rng);
        assert_eq!(a.covers(b), a.lo() <= b.lo() && b.hi() <= a.hi());
        if a.overlaps(b) {
            let lo = a.lo().max(b.lo());
            assert!(a.contains(lo) && b.contains(lo));
        }
    }
}
