//! Cross-crate integration tests, routed through the unified
//! `spc::engine::PacketClassifier` API wherever the scenario is
//! backend-agnostic; architecture-specific behaviours (`IPalg_s`
//! switching, label refcounts, §V.A update accounting) still poke
//! `spc::core::Classifier` directly through the engine's accessor.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc::core::{ArchConfig, Classifier, CombineStrategy, IpAlg};
use spc::engine::UpdateError;
use spc::engine::{build_engine, ConfigurableEngine, EngineKind, PacketClassifier};
use spc::types::{Action, Header, Prefix, Priority, ProtoSpec, Rule, RuleId, RuleSet};

fn gen(kind: FilterKind, n: usize, seed: u64) -> RuleSet {
    RuleSetGenerator::new(kind, n).seed(seed).generate()
}

fn trace(rules: &RuleSet, n: usize) -> Vec<Header> {
    TraceGenerator::new()
        .seed(17)
        .match_fraction(0.85)
        .generate(rules, n)
}

#[test]
fn configurable_matches_oracle_all_kinds_both_algs() {
    for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
        let rules = gen(kind, 700, 5);
        for engine_kind in [EngineKind::ConfigurableMbt, EngineKind::ConfigurableBst] {
            let engine = build_engine(&format!("{engine_kind}:rf_bits=14"), &rules).unwrap();
            for h in trace(&rules, 400) {
                assert_eq!(
                    engine.classify(&h).rule,
                    rules.classify(&h).map(|(id, _)| id),
                    "kind {kind} engine {engine_kind} header {h}"
                );
            }
        }
    }
}

#[test]
fn incremental_removal_tracks_oracle() {
    let rules = gen(FilterKind::Acl, 400, 3);
    let mut engine = build_engine("configurable-mbt:rf_bits=14", &RuleSet::new()).unwrap();
    assert!(engine.supports_updates());
    let ids: Vec<RuleId> = rules
        .rules()
        .iter()
        .map(|r| engine.insert(*r).unwrap())
        .collect();
    // Remove every third rule; the oracle is the filtered rule set.
    let mut kept: Vec<(RuleId, spc::types::Rule)> = Vec::new();
    for (i, (id, r)) in ids.iter().zip(rules.rules()).enumerate() {
        if i % 3 == 0 {
            engine.remove(*id).unwrap();
        } else {
            kept.push((*id, *r));
        }
    }
    let t = trace(&rules, 300);
    for h in &t {
        let want = kept
            .iter()
            .filter(|(_, r)| r.matches(h))
            .min_by_key(|(id, r)| (r.priority, id.0))
            .map(|(id, _)| *id);
        assert_eq!(engine.classify(h).rule, want, "header {h}");
    }
    // Reinsert the removed rules; behaviour must return to the full set.
    for (i, r) in rules.rules().iter().enumerate() {
        if i % 3 == 0 {
            engine.insert(*r).unwrap();
        }
    }
    for h in &t {
        assert_eq!(
            engine.classify(h).priority,
            rules.classify(h).map(|(_, r)| r.priority),
            "after reinsertion, header {h}"
        );
    }
}

#[test]
fn runtime_reconfiguration_is_transparent() {
    let rules = gen(FilterKind::Ipc, 500, 13);
    let mut cfg = ArchConfig::large().with_ip_alg(IpAlg::Mbt);
    cfg.rule_filter_addr_bits = 14;
    let mut cls = Classifier::new(cfg);
    cls.load(&rules).unwrap();
    let mut engine = ConfigurableEngine::new(cls);
    let t = trace(&rules, 200);
    let mut before = Vec::new();
    engine.classify_batch(&t, &mut before);
    // The `IPalg_s` switch is architecture-specific: reach through the
    // accessor, then verify through the unified API again.
    engine.classifier_mut().set_ip_alg(IpAlg::Bst).unwrap();
    assert_eq!(engine.kind(), EngineKind::ConfigurableBst);
    let mut mid = Vec::new();
    engine.classify_batch(&t, &mut mid);
    engine.classifier_mut().set_ip_alg(IpAlg::Mbt).unwrap();
    assert_eq!(engine.kind(), EngineKind::ConfigurableMbt);
    let mut after = Vec::new();
    engine.classify_batch(&t, &mut after);
    let rule_ids = |vs: &[spc::engine::Verdict]| -> Vec<Option<RuleId>> {
        vs.iter().map(|v| v.rule).collect()
    };
    assert_eq!(rule_ids(&before), rule_ids(&mid));
    assert_eq!(rule_ids(&before), rule_ids(&after));
}

#[test]
fn fast_path_hits_are_always_valid_matches() {
    // FirstLabel may return a sub-optimal rule but never an invalid one.
    // No spec selects it: it is not exact, so it is built from its config.
    let rules = gen(FilterKind::Acl, 600, 21);
    let mut cls = Classifier::new(
        ArchConfig::large()
            .with_combine(CombineStrategy::FirstLabel)
            .with_rule_filter_bits(14),
    );
    cls.load(&rules).unwrap();
    let engine = ConfigurableEngine::new(cls);
    for h in trace(&rules, 500) {
        if let Some(id) = engine.classify(&h).rule {
            let rule = rules.get(id).expect("verdict ids come from the build set");
            assert!(rule.matches(&h), "fast-path hit must match: {h}");
        }
    }
}

#[test]
fn label_counts_return_to_zero_after_full_teardown() {
    let rules = gen(FilterKind::Fw, 300, 2);
    let mut cfg = ArchConfig::large();
    cfg.rule_filter_addr_bits = 14;
    let mut engine = ConfigurableEngine::new(Classifier::new(cfg));
    let ids: Vec<RuleId> = rules
        .rules()
        .iter()
        .map(|r| engine.insert(*r).unwrap())
        .collect();
    for id in ids {
        engine.remove(id).unwrap();
    }
    assert_eq!(engine.rules(), 0);
    for h in trace(&rules, 50) {
        assert!(!engine.classify(&h).is_hit(), "empty engine must miss: {h}");
    }
    // The refcount drain is a label-table invariant: check it at the core
    // layer through the accessor.
    assert_eq!(
        engine.classifier().live_labels(),
        [0; 7],
        "refcounts must drain completely"
    );
    // The engine remains usable.
    for r in rules.rules() {
        engine.insert(*r).unwrap();
    }
    assert_eq!(engine.rules(), rules.len());
}

#[test]
fn update_costs_are_small_and_reported() {
    let rules = gen(FilterKind::Acl, 200, 4);
    let mut cfg = ArchConfig::large();
    cfg.rule_filter_addr_bits = 14;
    let mut cls = Classifier::new(cfg);
    let mut max_cycles = 0u64;
    for r in rules.rules() {
        let rep = cls.insert(*r).unwrap();
        assert!(
            rep.hw_write_cycles >= 3,
            "at least 2 data + 1 hash cycle (§V.A)"
        );
        max_cycles = max_cycles.max(rep.hw_write_cycles);
    }
    // Label sharing keeps the worst insert far below a structure rebuild.
    assert!(max_cycles < 2_000, "worst insert cost {max_cycles} cycles");
}

/// Builds `leaf` over `rules` bare and under every serving wrapper
/// (`sharded:` with `shards` shards), inserts `fits`, and checks that
/// inserting `too_many` then fails as `Rejected` and leaves verdicts on
/// `probes`, report and rule list exactly as they were. The engine
/// goes on working: once `fits` is removed, `too_many` goes in and
/// answers `probes[hit]`.
fn assert_failed_insert_is_atomic(
    leaf: &str,
    shards: usize,
    rules: &RuleSet,
    (fits, too_many): (Rule, Rule),
    probes: &[Header],
    hit: usize,
) {
    let observe = |e: &dyn PacketClassifier| {
        let verdicts: Vec<_> = probes.iter().map(|h| e.classify(h).matched()).collect();
        (verdicts, e.last_update_report(), e.rules())
    };
    for spec in [
        leaf.to_string(),
        format!("snapshot:inner=({leaf})"),
        format!("cached:inner=({leaf}),flows=64"),
        format!("sharded:inner=({leaf}),shards={shards},strategy=hash"),
    ] {
        let mut engine = build_engine(&spec, rules).unwrap();
        let last = engine.insert(fits).unwrap();
        let before = observe(engine.as_ref());
        assert!(
            before.0.iter().any(Option::is_some),
            "{spec}: probes all miss"
        );
        let e = engine.insert(too_many).unwrap_err();
        assert!(matches!(e, UpdateError::Rejected { .. }), "{spec}: {e}");
        assert_eq!(observe(engine.as_ref()), before, "{spec}");
        engine.remove(last).unwrap();
        let id = engine.insert(too_many).unwrap();
        let matched = engine.classify(&probes[hit]).matched();
        assert_eq!(matched.map(|m| m.id), Some(id), "{spec}");
    }
}

/// The BST interval array running full in the middle of a patch, under
/// every serving wrapper: the failed insert leaves verdicts, report and
/// rule count as they were, and the engine goes on working.
#[test]
fn bst_interval_overflow_mid_patch_is_atomic_under_every_wrapper() {
    // Host routes on every other value of the source's high segment: two
    // boundaries each and none shared. The 14-bit labels hold 16 384 of
    // them; the 32 768-word interval array holds 16 383 (32 767 words) and
    // runs out at the second split of one more.
    let host = |i: u32| {
        Rule::builder(Priority(i))
            .src_ip(Prefix::masked((2 * i + 2) << 16, 16))
            .action(Action::Forward(i as u16))
            .build()
    };
    let rules: RuleSet = (0..16_382).map(host).collect();
    let probes: Vec<Header> = [0, 1, 2, 3, 32_766, 32_767, 32_768, 32_769]
        .into_iter()
        .map(|hi: u16| {
            Header::new(
                [(hi >> 8) as u8, hi as u8, 9, 9].into(),
                [1; 4].into(),
                5,
                6,
                17,
            )
        })
        .collect();
    let pair = (host(16_382), host(16_383));
    assert_failed_insert_is_atomic("configurable-bst", 4, &rules, pair, &probes, 6);
}

/// The protocol label space running out: `ArchConfig::large()` gives the
/// protocol dimension 4-bit labels, so a 17th distinct exact protocol has
/// no label, bare and under every wrapper. One shard, because each shard
/// has a label space of its own.
#[test]
fn protocol_label_exhaustion_is_atomic_under_every_wrapper() {
    assert_eq!(ArchConfig::large().label_widths.proto, 4);
    let proto = |p: u8| {
        Rule::builder(Priority(u32::from(p)))
            .proto(ProtoSpec::Exact(p))
            .action(Action::Forward(u16::from(p)))
            .build()
    };
    let rules: RuleSet = (0..15).map(proto).collect();
    let probes: Vec<Header> = (0..=17)
        .map(|p| Header::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 5, 6, p))
        .collect();
    let pair = (proto(15), proto(16));
    assert_failed_insert_is_atomic("configurable-bst", 1, &rules, pair, &probes, 16);
}

/// A full software TCAM: `capacity=N` holds N single-entry rules and
/// refuses one more, bare and under every wrapper. One shard, because
/// each shard provisions a capacity of its own.
#[test]
fn tcam_capacity_exhaustion_is_atomic_under_every_wrapper() {
    let host = |i: u8| {
        Rule::builder(Priority(u32::from(i)))
            .dst_ip(Prefix::masked(0x0a00_0000 | u32::from(i), 32))
            .action(Action::Forward(u16::from(i)))
            .build()
    };
    let rules: RuleSet = (0..7).map(host).collect();
    let probes: Vec<Header> = (0..=9)
        .map(|i| Header::new([1; 4].into(), [10, 0, 0, i].into(), 5, 6, 17))
        .collect();
    let pair = (host(7), host(8));
    assert_failed_insert_is_atomic("tcam:capacity=8", 1, &rules, pair, &probes, 8);
}

/// The by-value cost channel against constants captured at the commit
/// before the cumulative access counters were retired (ACL), and at the
/// commit before the priority-box walk went struct-of-arrays (FW, whose
/// wildcard-heavy lists make a lookup walk many boxes): every line that
/// counts a modelled read or write was edited, none may count differently.
///
/// The four-shard rows were captured before the build's placement moved
/// into the shard router. Every shard is a configurable engine provisioned
/// for its own rules, so a rule that changes shards moves its reads, its
/// bits and the cycles of the churn that lands beside it.
///
/// The update-first rows were captured before tuple-space search and the
/// software TCAM became their own engines: every lookup, slot placement
/// and shift count moved, and none may count differently.
///
/// The Table I comparator rows were captured before the comparators
/// stopped answering through an adapter and became engines themselves.
///
/// The configurable rows were re-recorded when the combine began walking
/// shape-valid address pairs and each IP segment's `/0` moved into a
/// wildcard register: every reads and cycles value fell, and so did
/// every BST bits value.
///
/// The `configurable-bst` cycles were re-recorded when the interval array
/// began to float in its block: a new or dropped boundary moves the
/// shorter side of the array, not its whole suffix. No reads or bits
/// value moved.
///
/// The configurable, `option1` and `option2` reads were re-recorded when a
/// Rule Filter read became one aligned bucket of eight slots instead of
/// one slot per chain step, and a removal began shifting the rest of its
/// run back instead of leaving a deleted marker: every one of them fell.
/// No bits or cycles value moved.
///
/// The configurable reads were re-recorded when the combine began to
/// return on the first hit that meets its shell's bound while no two live
/// rules share a priority, probing each shell newest first: fewer probes
/// under the same model. No bits or cycles value moved.
#[test]
fn modelled_costs_match_golden_constants() {
    // (family, leaf, then for the leaf, `shards=4,strategy=prio` and
    // `shards=4,strategy=hash` over it: Σ mem_reads, memory_bits,
    // Σ hw_write_cycles over the churn)
    // ACL's BST cycles are those of the delta flush: 9 802 interval words
    // written by the boundary shifts (4 911 inserting, the new words
    // included, and 4 891 removing; 9 090 and 9 248 while every shift
    // moved the whole suffix),
    // 1 618 label-list words (848 + 770: copies on a split and
    // covered-list rewrites; a `/0` is in no list but in the wildcard
    // register, which this churn never writes), 2 port/protocol words,
    // 32 Rule Filter words, and §V.A's 3 per update.
    //
    // Reads are those of the shape-paired priority box. In MBT mode the
    // wildcard register's 16-bit priority and the full-`/16` flag on
    // every `sip_hi`/`dip_hi` list word are a net cost in bits: an MBT
    // keeps a `/0` in one list word beside its trie, so moving it into
    // the register frees no interval-list words to pay for them.
    for (kind, leaf, costs, prio4, hash4) in [
        (
            FilterKind::Acl,
            "configurable-bst",
            (16_774, 73_611, 11_550),
            (26_748, 94_293, 5_114),
            (32_855, 84_012, 4_594),
        ),
        (
            FilterKind::Acl,
            "configurable-mbt",
            (11_719, 437_638, 3_954),
            (14_228, 837_967, 4_329),
            (14_929, 743_799, 4_685),
        ),
        (
            FilterKind::Fw,
            "configurable-bst",
            (57_739, 61_632, 4_718),
            (51_432, 90_243, 2_687),
            (46_436, 75_899, 2_318),
        ),
        (
            FilterKind::Fw,
            "configurable-mbt",
            (53_313, 274_097, 2_932),
            (40_768, 603_298, 3_156),
            (30_969, 446_058, 3_352),
        ),
    ] {
        let rules = gen(kind, 256, 21);
        let headers = trace(&rules, 256);
        let costs_of = |spec: &str| {
            let [reads, bits, cycles, ..] = modelled_costs(kind, spec);
            (reads, bits, cycles)
        };
        assert_eq!(costs_of(leaf), costs, "{kind} {leaf}");
        // Pass-through wrappers add nothing to the model.
        for spec in [
            format!("sharded:inner={leaf},shards=1"),
            format!("snapshot:inner=({leaf})"),
        ] {
            let wrapped = build_engine(&spec, &rules).unwrap();
            assert_eq!(
                reads_of(wrapped.as_ref(), &headers),
                costs.0,
                "{kind} {spec} reads"
            );
            assert_eq!(wrapped.memory_bits(), costs.1, "{kind} {spec} bits");
        }
        for (strategy, want) in [("prio", prio4), ("hash", hash4)] {
            let spec = format!("sharded:inner={leaf},shards=4,strategy={strategy}");
            assert_eq!(costs_of(&spec), want, "{kind} {spec}");
        }
    }
    // (family, backend: Σ mem_reads, memory_bits, then over the churn
    // Σ hw_write_cycles, Σ created_labels, Σ freed_labels)
    for (kind, spec, want) in [
        (FilterKind::Acl, "tss", [55_415, 171_152, 128, 28, 28]),
        (FilterKind::Acl, "tcam", [63_565, 234_897_344, 567, 16, 16]),
        (FilterKind::Fw, "tss", [64_674, 193_536, 128, 30, 30]),
        (
            FilterKind::Fw,
            "tcam",
            [263_669, 234_897_408, 5_952, 55, 55],
        ),
    ] {
        assert_eq!(modelled_costs(kind, spec), want, "{kind} {spec}");
    }
    // The build-once comparators have no churn: (family, backend,
    // Σ mem_reads, memory_bits)
    for (kind, spec, want) in [
        (FilterKind::Acl, "linear", (116_010, 38_760)),
        (FilterKind::Acl, "hypercuts", (4_554, 57_916)),
        (FilterKind::Acl, "rfc", (3_328, 2_944_042)),
        (FilterKind::Acl, "dcfl", (6_831, 1_256_389)),
        (FilterKind::Acl, "option1", (7_442, 1_216_453)),
        (FilterKind::Acl, "option2", (7_248, 2_881_424)),
        (FilterKind::Fw, "linear", (110_760, 38_912)),
        (FilterKind::Fw, "hypercuts", (4_410, 94_464)),
        (FilterKind::Fw, "rfc", (3_328, 7_255_041)),
        (FilterKind::Fw, "dcfl", (12_894, 787_482)),
        (FilterKind::Fw, "option1", (58_291, 747_546)),
        (FilterKind::Fw, "option2", (58_397, 1_511_214)),
    ] {
        let rules = gen(kind, 256, 21);
        let engine = build_engine(spec, &rules).unwrap();
        let reads = reads_of(engine.as_ref(), &trace(&rules, 256));
        assert_eq!((reads, engine.memory_bits()), want, "{kind} {spec}");
    }
}

/// Σ mem_reads over the trace of `kind`'s 256-rule set, `spec`'s
/// memory_bits over that set, then over §V.A's churn — insert 16 fresh
/// rules, remove them again — Σ hw_write_cycles, Σ created_labels and
/// Σ freed_labels.
fn modelled_costs(kind: FilterKind, spec: &str) -> [u64; 5] {
    let rules = gen(kind, 256, 21);
    let mut engine = build_engine(spec, &rules).unwrap();
    let reads = reads_of(engine.as_ref(), &trace(&rules, 256));
    let mut costs = [reads, engine.memory_bits(), 0, 0, 0];
    let mut tally = |engine: &dyn PacketClassifier| {
        let report = engine.last_update_report().unwrap();
        costs[2] += report.hw_write_cycles;
        costs[3] += u64::from(report.created_labels);
        costs[4] += u64::from(report.freed_labels);
    };
    let mut ids = Vec::new();
    for r in gen(kind, 16, 22).rules() {
        ids.push(engine.insert(*r).unwrap());
        tally(engine.as_ref());
    }
    for id in ids {
        engine.remove(id).unwrap();
        tally(engine.as_ref());
    }
    costs
}

fn reads_of(e: &dyn PacketClassifier, headers: &[Header]) -> u64 {
    headers
        .iter()
        .map(|h| u64::from(e.classify(h).mem_reads))
        .sum()
}
