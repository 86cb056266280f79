//! Differential oracle and seeded property tests for the sharded
//! backend: `sharded:inner=<kind>,shards=N` must return exactly the
//! verdicts of the unsharded inner engine — same rule id, priority and
//! action — for every shard count, both partitioning strategies, and
//! every ClassBench family, on the single-shot and batch paths alike.
//! (`tests/compositions.rs` holds every sharded tree, over every inner,
//! at its default and one alternate point; this suite sweeps its knobs.)

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{churn_against_rebuild, diff_against_rebuild, Churn};
use rand::prelude::*;
use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc::engine::{build_engine, UpdateError};
use spc::types::{Header, Priority, ProtoSpec, Rule, RuleSet};

const RULES: usize = 240;
const TRACE: usize = 200;
const SEED: u64 = 20_14;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const STRATEGIES: [&str; 2] = ["prio", "hash"];

fn workload(kind: FilterKind) -> (RuleSet, Vec<Header>) {
    let rules = RuleSetGenerator::new(kind, RULES).seed(SEED).generate();
    let trace = TraceGenerator::new()
        .seed(SEED ^ 0xabc)
        .match_fraction(0.85)
        .generate(&rules, TRACE);
    (rules, trace)
}

/// Sharded engine vs its own unsharded inner engine, all knob settings.
fn check_family(family: FilterKind, inner: &str) {
    let (rules, trace) = workload(family);
    let mut reference = build_engine(inner, &rules).unwrap();
    let mut want = Vec::new();
    reference.classify_batch(&trace, &mut want);
    for shards in SHARD_COUNTS {
        for strategy in STRATEGIES {
            let spec = format!("sharded:inner={inner},shards={shards},strategy={strategy}");
            let mut engine = build_engine(&spec, &rules)
                .unwrap_or_else(|e| panic!("{spec} must build on {family:?}: {e}"));
            assert_eq!(engine.rules(), rules.len(), "{spec}");
            let mut got = Vec::new();
            let stats = engine.classify_batch(&trace, &mut got);
            assert_eq!(stats.packets, trace.len() as u64, "{spec}");
            let mut hits = 0u64;
            for ((h, want), got) in trace.iter().zip(&want).zip(&got) {
                assert_eq!(
                    got.rule, want.rule,
                    "{spec} disagrees with {inner} on {family:?} header {h}"
                );
                assert_eq!(got.priority, want.priority, "{spec} priority at {h}");
                assert_eq!(got.action, want.action, "{spec} action at {h}");
                let single = engine.classify(h);
                assert_eq!(single.rule, got.rule, "{spec} single-vs-batch at {h}");
                assert_eq!(single.mem_reads, got.mem_reads, "{spec} batch reads at {h}");
                hits += u64::from(got.is_hit());
            }
            assert_eq!(stats.hits, hits, "{spec} stats fold to merged hits");
        }
    }
}

#[test]
fn sharded_matches_inner_acl() {
    check_family(FilterKind::Acl, "configurable-bst");
}

#[test]
fn sharded_matches_inner_fw() {
    check_family(FilterKind::Fw, "configurable-bst");
}

#[test]
fn sharded_matches_inner_ipc() {
    check_family(FilterKind::Ipc, "configurable-bst");
}

/// Seeded property test: arbitrary rule sets (including equal priorities
/// and heavy wildcards, which stress the global-id tie-break across
/// shard boundaries) and arbitrary headers, against the semantic oracle
/// `RuleSet::classify`.
#[test]
fn sharded_property_arbitrary_rules_match_semantic_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5A4D);
    for case in 0..12 {
        let n = rng.gen_range(1..60);
        // Coarse values with repeats: collisions across shards. Byte-equal
        // filters are dropped (every backend rejects duplicate 5-tuples),
        // which keeps equal priorities and shared field values in play.
        let mut seen = std::collections::HashSet::new();
        let rules: RuleSet = (0..n)
            .map(|i| {
                let mut r = Rule::builder(Priority(rng.gen_range(0..8)))
                    .proto(if rng.gen_bool(0.5) {
                        ProtoSpec::Exact(rng.gen_range(0u8..3) * 11 + 6)
                    } else {
                        ProtoSpec::Any
                    })
                    .build();
                if rng.gen_bool(0.7) {
                    r.dst_port = spc::types::PortRange::exact(rng.gen_range(0u16..20));
                }
                let _ = i;
                r
            })
            .filter(|r| seen.insert(r.dim_values()))
            .collect();
        for shards in SHARD_COUNTS {
            for strategy in STRATEGIES {
                let spec = format!("sharded:inner=linear,shards={shards},strategy={strategy}");
                let engine = build_engine(&spec, &rules).unwrap();
                for _ in 0..40 {
                    let h = Header::new(
                        rng.gen::<u32>().into(),
                        rng.gen::<u32>().into(),
                        rng.gen(),
                        rng.gen_range(0u16..25),
                        rng.gen_range(0u8..40),
                    );
                    let want = rules.classify(&h).map(|(id, r)| (id, r.priority, r.action));
                    let got = engine.classify(&h);
                    assert_eq!(
                        got.rule
                            .map(|id| (id, got.priority.unwrap(), got.action.unwrap())),
                        want,
                        "case {case} {spec} header {h}"
                    );
                }
            }
        }
    }
}

/// The shard plan is seeded-deterministic end to end: two engines built
/// from the same spec over the same rules agree shard by shard.
#[test]
fn sharded_build_is_deterministic() {
    let (rules, trace) = workload(FilterKind::Acl);
    for strategy in STRATEGIES {
        let spec = format!("sharded:inner=linear,shards=8,strategy={strategy}");
        let mut a = build_engine(&spec, &rules).unwrap();
        let mut b = build_engine(&spec, &rules).unwrap();
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        a.classify_batch(&trace, &mut va);
        b.classify_batch(&trace, &mut vb);
        assert_eq!(va, vb, "{spec}");
    }
}

// ---------------------------------------------------------------------
// Churn differential oracle: interleaved insert/remove/classify on the
// sharded engine vs an unsharded inner engine rebuilt from scratch over
// the current live rule set. The rebuild is the strongest possible
// reference — it has never seen the churn history, so any state the
// sharded update path corrupts (stale id maps, broken band ordering,
// leaked hash slots) shows up as a verdict disagreement.
// ---------------------------------------------------------------------

/// Interleaved churn against the sharded `inner`, checked against
/// rebuilds of the unsharded `inner` every 25 operations and once more
/// at the end (`common::churn_against_rebuild` is the driver).
fn churn_check(inner: &str, strategy: &str, shards: usize, skewed: bool) {
    const OPS: usize = 100;
    let (base, _) = workload(FilterKind::Acl);
    let pool = RuleSetGenerator::new(FilterKind::Fw, 160)
        .seed(SEED ^ 0x77)
        .generate();
    let spec = format!("sharded:inner={inner},shards={shards},strategy={strategy}");
    let churn = Churn {
        spec: &spec,
        reference: inner,
        ops: OPS,
        check_every: 25,
        seed: SEED ^ shards as u64 ^ u64::from(skewed),
        probe: None,
    };
    // Skewed: everything beats the base rules, so every insert lands in
    // the top priority band.
    let top = if skewed { 4 } else { 50_000 };
    let (mut engine, live) = churn_against_rebuild(
        &churn,
        &base,
        &pool,
        |rng| Priority(rng.gen_range(0..top)),
        |_| {},
    );
    diff_against_rebuild(&churn, engine.as_mut(), &live, OPS as u64);
    // Error semantics after heavy churn: unknown ids and duplicates.
    let dead = spc::types::RuleId(u32::MAX - 1);
    assert!(matches!(
        engine.remove(dead),
        Err(UpdateError::UnknownRule { .. })
    ));
    if let Some(&(id, rule)) = live.first() {
        assert_eq!(
            engine.insert(rule),
            Err(UpdateError::Duplicate { existing: id }),
            "{spec}: re-inserting a live rule must collide"
        );
    }
}

#[test]
fn churn_oracle_prio_bands() {
    for shards in SHARD_COUNTS {
        churn_check("configurable-bst", "prio", shards, false);
    }
}

#[test]
fn churn_oracle_field_hash() {
    for shards in SHARD_COUNTS {
        churn_check("configurable-bst", "hash", shards, false);
    }
}

/// Skewed-priority workload: every insert beats the whole base set, so
/// one band absorbs all churn — it grows lopsided, never wrong.
#[test]
fn churn_oracle_skewed_priorities_fill_one_band() {
    churn_check("configurable-bst", "prio", 4, true);
}

/// The MBT-mode inner takes the same churn path.
#[test]
fn churn_oracle_mbt_inner() {
    churn_check("configurable-mbt", "prio", 2, false);
}

/// The update-first inners take the same churn path: tuple-space search
/// under priority bands, the software TCAM under field hashing.
#[test]
fn churn_oracle_tuplespace_inner() {
    churn_check("tss", "prio", 2, false);
}

#[test]
fn churn_oracle_soft_tcam_inner() {
    churn_check("tcam", "hash", 2, false);
}

/// More shards than rules and empty rule sets both behave.
#[test]
fn sharded_degenerate_shapes() {
    let tiny: RuleSet = (0..3u16)
        .map(|i| {
            Rule::builder(Priority(u32::from(i)))
                .dst_port(spc::types::PortRange::exact(i))
                .build()
        })
        .collect();
    let e = build_engine("sharded:inner=linear,shards=64", &tiny).unwrap();
    assert_eq!(e.rules(), 3);
    let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 9, 2, 6);
    assert_eq!(e.classify(&h).priority, Some(Priority(2)));

    let empty = build_engine("sharded:inner=linear", &RuleSet::new()).unwrap();
    assert_eq!(empty.rules(), 0);
    assert!(!empty.classify(&h).is_hit());
}
