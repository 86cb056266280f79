//! Criterion bench: incremental update churn through the unified engine
//! API — a [`ScenarioScript`] of interleaved insert/classify/remove
//! bursts on the sharded backend at {1, 2, 8} shards (both strategies)
//! vs the unsharded configurable inner. This measures the cost of
//! keeping the paper's §V.A fast update path alive under sharding: hash
//! routing re-folds one dimension per insert, priority bands search the
//! band key sets, and both pay the global↔local id bookkeeping on top
//! of exactly one inner update — a few microseconds in either IP mode
//! since the BST flushes a delta, so that bookkeeping is now a visible
//! share of the update, not noise under a 350 µs rebuild.
//!
//! The sweep axis the `spc_benchmark` ledger lacks: sharded churn at
//! 1 / 2 / 8 shards (it has `core.insert_us` / `core.remove_us` and one
//! sharded point, `sharded.update_us`).
//!
//! Each iteration replays the same scenario — insert the whole churn
//! pool in bursts, classify between bursts, then remove everything it
//! inserted — so the engine returns to its base state and iterations
//! are independent.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spc_bench::{ruleset, traffic};
use spc_classbench::{FilterKind, RuleSetGenerator, ScenarioScript};
use spc_engine::{build_engine, run_scenario};
use spc_types::{Priority, Rule};

const BASE_RULES: usize = 2048;
const POOL: usize = 64;

/// Four bursts of 16 inserts, each followed by a classify window, then
/// everything removed again — net zero, like the old hand-rolled loop.
const SCRIPT: &str = "repeat 4 { insert 16; classify 8 }; remove 64";

fn bench_update_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_churn");
    group.sample_size(10);
    let base = ruleset(FilterKind::Acl, BASE_RULES);
    // A separate family keeps dimension collisions with the base set
    // rare; the ones that remain surface as Duplicate and are skipped,
    // identically for every spec.
    let pool: Vec<Rule> = RuleSetGenerator::new(FilterKind::Fw, POOL)
        .seed(2014 ^ 0x77)
        .generate()
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            r.priority = Priority(60_000 + i as u32);
            r
        })
        .collect();
    let script = ScenarioScript::parse(SCRIPT).expect("valid script");
    let specs = [
        "configurable-bst".to_string(),
        "sharded:inner=configurable-bst,shards=1,strategy=prio".to_string(),
        "sharded:inner=configurable-bst,shards=2,strategy=prio".to_string(),
        "sharded:inner=configurable-bst,shards=8,strategy=prio".to_string(),
        "sharded:inner=configurable-bst,shards=2,strategy=hash".to_string(),
        "sharded:inner=configurable-bst,shards=8,strategy=hash".to_string(),
    ];
    for spec in &specs {
        let mut engine =
            build_engine(spec, &base).unwrap_or_else(|e| panic!("{spec} must build: {e}"));
        assert!(engine.supports_updates(), "{spec} must be updatable");
        let mut verdicts = Vec::new();
        group.bench_function(BenchmarkId::new("scenario", spec), |b| {
            b.iter(|| {
                verdicts.clear();
                let mut source = script
                    .source(&traffic(), &base, &pool)
                    .expect("scenario binds");
                let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts)
                    .unwrap_or_else(|e| panic!("{spec}: churn scenario failed: {e}"));
                assert_eq!(
                    report.live_inserts.len(),
                    0,
                    "{spec}: the scenario is net zero"
                );
                report.update_ops()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_update_churn);
criterion_main!(benches);
