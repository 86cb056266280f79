//! Differential oracles for the flow verdict cache
//! (`spc::engine::CachedEngine`, spec `cached:inner=<spec>,...`). Every
//! cached tree's static agreement with `linear` — every inner, every
//! ClassBench family, cold and warm — is `tests/compositions.rs`'s;
//! this suite holds what is the cache's own:
//!
//! * under churn — `ScenarioScript` insert/remove interleaved with
//!   classification, and a hand-rolled insert/remove loop with
//!   checkpoints — the cache must stay coherent with an oracle *rebuilt
//!   from scratch* over the live rule set, the strongest possible
//!   reference (any stale cached verdict shows up as a disagreement);
//! * hit rate must grow with flow locality, and eviction pressure from
//!   an undersized table must cost performance only, never correctness.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{churn_against_rebuild, Churn};
use rand::prelude::*;
use spc::classbench::{FilterKind, RuleSetGenerator, ScenarioScript, TraceGenerator};
use spc::engine::{build_engine, run_scenario, PacketClassifier, Verdict};
use spc::types::{Header, Priority, Rule, RuleId, RuleSet};
use spc::CachedEngine;

const RULES: usize = 260;
const TRACE: usize = 400;
const SEED: u64 = 20_14;

fn workload(kind: FilterKind) -> (RuleSet, Vec<Header>) {
    let rules = RuleSetGenerator::new(kind, RULES).seed(SEED).generate();
    let trace = TraceGenerator::new()
        .seed(SEED ^ 0xcafe)
        .match_fraction(0.85)
        .locality(0.5)
        .generate(&rules, TRACE);
    (rules, trace)
}

/// Outcome equality: matched rule, priority, action. The cache
/// legitimately rewrites `mem_reads` (a hit is one wide read), so cost
/// annotations are excluded by design.
fn assert_same_outcome(got: &Verdict, want: &Verdict, ctx: &dyn std::fmt::Display) {
    assert_eq!(got.matched(), want.matched(), "{ctx}");
    assert_eq!(got.rule, want.rule, "{ctx}");
    assert_eq!(got.priority, want.priority, "{ctx}");
    assert_eq!(got.action, want.action, "{ctx}");
}

/// Scenario churn through the wrapper, checked against an oracle rebuilt
/// from scratch over the live rule set — with a roomy cache, with an
/// undersized cache (eviction pressure *during* churn), and with a
/// sharded inner behind the cache.
#[test]
fn scenario_churn_matches_rebuilt_oracle() {
    let (base, probe) = workload(FilterKind::Acl);
    let traffic = TraceGenerator::new()
        .seed(SEED ^ 0xcafe)
        .match_fraction(0.85)
        .locality(0.5);
    let pool: Vec<Rule> = RuleSetGenerator::new(FilterKind::Fw, 96)
        .seed(SEED ^ 0x77)
        .generate()
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            r.priority = Priority(500 + 250 * (i as u32 % 4));
            r
        })
        .collect();
    let script = ScenarioScript::parse("repeat 6 { insert 12; classify 50; remove 6 }").unwrap();
    for spec in [
        "cached:inner=configurable-bst,flows=512",
        "cached:inner=configurable-bst,flows=16",
        "cached:inner=(sharded:inner=configurable-bst,shards=2),flows=128",
    ] {
        let mut engine = build_engine(spec, &base).unwrap();
        assert!(engine.supports_updates(), "{spec} must probe updatable");
        let mut source = script
            .source(&traffic, &base, &pool)
            .unwrap()
            .with_chunk(32);
        let mut verdicts = Vec::new();
        let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts)
            .unwrap_or_else(|e| panic!("{spec}: scenario failed: {e}"));
        assert_eq!(report.lookup.packets, 300, "{spec}");
        assert_eq!(report.inserts + report.duplicates, 72, "{spec}");

        // Rebuild the reference over base + surviving inserts; both sides
        // allocate ids in insertion order, so positional ids map back
        // through `live`.
        let mut live: Vec<(RuleId, Rule)> = base.iter().map(|(id, r)| (id, *r)).collect();
        live.extend(report.live_inserts.iter().copied());
        assert_eq!(engine.rules(), live.len(), "{spec}");
        let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
        let mut reference = build_engine("linear", &rules).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        engine.classify_batch(&probe, &mut got);
        reference.classify_batch(&probe, &mut want);
        for ((h, w), g) in probe.iter().zip(&want).zip(&got) {
            let want_global = w.rule.map(|pos| live[pos.0 as usize].0);
            assert_eq!(g.rule, want_global, "{spec} vs rebuilt linear at {h}");
            assert_eq!(g.priority, w.priority, "{spec} priority at {h}");
            assert_eq!(g.action, w.action, "{spec} action at {h}");
        }
    }
}

/// Hand-rolled churn with frequent checkpoints: every insert/remove goes
/// through the wrapper's targeted invalidation while the *same* probe
/// trace is re-classified over and over — the cache is maximally warm
/// with exactly the entries churn must invalidate. Any missed
/// invalidation serves a stale verdict and diverges from the rebuilt
/// reference.
#[test]
fn interleaved_churn_never_serves_stale_verdicts() {
    let (base, probe) = workload(FilterKind::Acl);
    let pool = RuleSetGenerator::new(FilterKind::Fw, 120)
        .seed(SEED ^ 0x99)
        .generate();
    let churn = Churn {
        spec: "cached:inner=configurable-bst,flows=1024",
        reference: "linear",
        ops: 60,
        check_every: 5,
        seed: SEED ^ 0x5ca1e,
        probe: Some(&probe),
    };
    let mut scratch = Vec::new();
    churn_against_rebuild(
        &churn,
        &base,
        &pool,
        |rng| Priority(rng.gen_range(0..50_000)),
        // Keep the cache hot on the probe trace between updates.
        |engine| {
            engine.classify_batch(&probe, &mut scratch);
        },
    );
}

/// More locality, more cache hits: the hit rate over a locality sweep
/// must be (weakly) monotone, and high locality must put it far above
/// the low end.
#[test]
fn hit_rate_grows_with_locality() {
    let rules = RuleSetGenerator::new(FilterKind::Acl, RULES)
        .seed(SEED)
        .generate();
    let mut rates = Vec::new();
    for locality in [0.0, 0.5, 0.9, 0.99] {
        let trace = TraceGenerator::new()
            .seed(SEED ^ 0xbeef)
            .match_fraction(0.9)
            .locality(locality)
            .generate(&rules, 4096);
        let inner = build_engine("configurable-bst", &rules).unwrap();
        let mut engine = CachedEngine::new(inner, 4096, false, rules.rules());
        engine.classify_batch(&trace, &mut Vec::new());
        rates.push((locality, engine.cache_stats().hit_rate()));
    }
    for pair in rates.windows(2) {
        assert!(
            // In-batch dedup gives even a zero-locality trace some hits;
            // a hair of slack absorbs that noise floor.
            pair[1].1 >= pair[0].1 - 0.02,
            "hit rate fell across the locality sweep: {rates:?}"
        );
    }
    let (lo, hi) = (rates.first().unwrap().1, rates.last().unwrap().1);
    assert!(
        hi > lo + 0.3 && hi > 0.8,
        "locality 0.99 must lift the hit rate decisively: {rates:?}"
    );
}

/// An undersized table thrashes — evictions fire — but every verdict
/// stays correct, and the counters stay coherent.
#[test]
fn eviction_under_capacity_is_a_performance_problem_only() {
    let (rules, trace) = workload(FilterKind::Acl);
    let reference = build_engine("linear", &rules).unwrap();
    let inner = build_engine("configurable-bst", &rules).unwrap();
    // 8 flow-table slots against hundreds of live flows: constant churn.
    let engine = CachedEngine::new(inner, 8, false, rules.rules());
    for round in 0..3 {
        for h in &trace {
            let got = engine.classify(h);
            let want = reference.classify(h);
            assert_same_outcome(&got, &want, &format!("round {round} at {h}"));
        }
    }
    let stats = engine.cache_stats();
    assert!(stats.evictions > 0, "8 slots must thrash: {stats:?}");
    assert_eq!(
        stats.hits + stats.misses,
        3 * trace.len() as u64,
        "every lookup is a hit or a miss: {stats:?}"
    );
}

/// The `&self` concurrent classify path: multiple threads probing and
/// installing into one shared flow table at once — with a table small
/// enough that threads constantly race installs against evictions —
/// must agree with the uncached reference packet-for-packet, and the
/// shared counters must still account for every lookup exactly once.
/// (`tests/snapshot_consistency.rs` covers readers racing a *writer*;
/// this test is readers racing each other on the cache's interior
/// mutability.)
#[test]
fn concurrent_classify_agrees_with_uncached_reference() {
    const THREADS: usize = 4;
    const LOOKUPS: usize = 1500;
    let (rules, trace) = workload(FilterKind::Acl);
    let reference = build_engine("configurable-bst", &rules).unwrap();
    let want: Vec<Verdict> = trace.iter().map(|h| reference.classify(h)).collect();

    let inner = build_engine("configurable-bst", &rules).unwrap();
    // 64 slots against hundreds of flows: installs and evictions race.
    let engine = CachedEngine::new(inner, 64, true, rules.rules());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let trace = &trace;
            let want = &want;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ 0xc0c0 ^ t as u64);
                for n in 0..LOOKUPS {
                    // Mostly-local probe pattern: plenty of repeats (so
                    // threads hit each other's installs) plus enough
                    // spread to keep the 64-slot table evicting.
                    let i = if rng.gen_bool(0.7) {
                        rng.gen_range(0..32)
                    } else {
                        rng.gen_range(0..trace.len())
                    };
                    let got = engine.classify(&trace[i]);
                    assert_same_outcome(
                        &got,
                        &want[i],
                        &format!("thread {t} lookup {n} packet {i}"),
                    );
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * LOOKUPS) as u64,
        "every concurrent lookup accounted exactly once: {stats:?}"
    );
    assert!(stats.hits > 0, "repeats must hit: {stats:?}");
    assert!(stats.evictions > 0, "64 slots must evict: {stats:?}");
}
