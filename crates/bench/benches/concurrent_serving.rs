//! Criterion bench: classify throughput *during* sustained churn — the
//! question `snapshot:` exists to answer (see `docs/concurrency.md`).
//!
//! Two arms per inner spec, same probe trace, same scripted churn
//! replayed in a background thread until the measurement stops:
//!
//! * **snapshot** — a `SnapshotReader` classifies lock-free against the
//!   current published version while the `SnapshotEngine` writer
//!   applies each scripted update to a retired copy the reader has let
//!   go of (building one only when none is free) and publishes it.
//! * **mutex** — the same inner engine behind a `Mutex`, the
//!   conventional stop-the-world arrangement: the reader takes the lock
//!   per classify and blocks whenever the writer is mid-update.
//!
//! The **mutex** arm is what the `spc_benchmark` ledger lacks: its
//! `snapshot_churn` workload and `snapshot.*` rows time the snapshot path alone.
//!
//! The churn is a net-zero [`ScenarioScript`] (`insert 8; remove 8`
//! bursts from a high-priority foreign pool), driven event by event so
//! both arms apply the identical update sequence — the snapshot writer
//! directly, the mutex writer one lock acquisition per update.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use spc_bench::{ruleset, trace, traffic};
use spc_classbench::{FilterKind, RuleSetGenerator, ScenarioScript, TraceEvent, TraceSource};
use spc_engine::{build_engine, EngineBuilder, PacketClassifier};
use spc_types::{Priority, Rule, RuleId, RuleSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

const BASE_RULES: usize = 1024;
const PROBES: usize = 1024;
const SCRIPT: &str = "repeat 4 { insert 8; remove 8 }";

/// One update drawn from the scripted churn, ready to apply.
enum Op {
    Insert(Rule),
    Remove(RuleId),
}

/// A foreign (FW-family) pool with priorities past the base set, so the
/// scripted inserts are fresh rules for every arm; residual 5-tuple
/// collisions with the base surface as `Duplicate` and are skipped
/// identically everywhere.
fn churn_pool() -> Vec<Rule> {
    RuleSetGenerator::new(FilterKind::Fw, 32)
        .seed(spc_bench::SEED_RULES ^ 0x77)
        .generate()
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            r.priority = Priority(1_000_000 + i as u32);
            r
        })
        .collect()
}

/// Replays the scenario's update events in a loop until `stop`,
/// applying each through `apply` (which returns the engine-assigned id
/// for inserts, `None` for a skipped duplicate).
fn churn(
    script: &ScenarioScript,
    base: &RuleSet,
    pool: &[Rule],
    stop: &AtomicBool,
    mut apply: impl FnMut(Op) -> Option<RuleId>,
) {
    while !stop.load(Ordering::Acquire) {
        let mut ids: Vec<Option<RuleId>> = Vec::new();
        let mut source = script
            .source(&traffic(), base, pool)
            .expect("scenario binds");
        while let Some(event) = source.next_event().expect("synthetic scenario cannot fail") {
            match event {
                TraceEvent::Insert(rule) => ids.push(apply(Op::Insert(rule))),
                TraceEvent::Remove { insert } => {
                    if let Some(id) = ids.get(insert).copied().flatten() {
                        apply(Op::Remove(id));
                    }
                }
                TraceEvent::Headers(_) => {} // the churn script never classifies
            }
        }
        thread::yield_now();
    }
}

/// Benches both arms for one inner spec.
fn run_pair(
    group: &mut BenchmarkGroup<'_>,
    inner: &str,
    base: &RuleSet,
    probes: &[spc_types::Header],
    pool: &[Rule],
    script: &ScenarioScript,
) {
    // Arm 1: snapshot readers never block during churn.
    {
        let spec = format!("snapshot:inner=({inner})");
        let mut engine = EngineBuilder::from_spec(&spec)
            .expect("valid snapshot spec")
            .build_snapshot(base)
            .expect("base set builds");
        let mut reader = engine.reader();
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                churn(script, base, pool, &stop, |op| match op {
                    Op::Insert(r) => engine.insert(r).ok(),
                    Op::Remove(id) => {
                        engine.remove(id).expect("tracked rule removes");
                        None
                    }
                });
            });
            group.bench_function(BenchmarkId::new("during_churn", &spec), |b| {
                b.iter(|| {
                    let mut last = None;
                    for h in probes {
                        last = reader.classify(h).rule;
                    }
                    last
                });
            });
            stop.store(true, Ordering::Release);
        });
    }

    // Arm 2: the same inner behind a mutex — readers stop for the world.
    {
        let locked: Mutex<Box<dyn PacketClassifier>> =
            Mutex::new(build_engine(inner, base).unwrap_or_else(|e| panic!("{inner}: {e}")));
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                churn(script, base, pool, &stop, |op| match op {
                    Op::Insert(r) => locked.lock().unwrap().insert(r).ok(),
                    Op::Remove(id) => {
                        locked
                            .lock()
                            .unwrap()
                            .remove(id)
                            .expect("tracked rule removes");
                        None
                    }
                });
            });
            group.bench_function(
                BenchmarkId::new("during_churn", format!("mutex:{inner}")),
                |b| {
                    b.iter(|| {
                        let mut last = None;
                        for h in probes {
                            last = locked.lock().unwrap().classify(h).rule;
                        }
                        last
                    });
                },
            );
            stop.store(true, Ordering::Release);
        });
    }
}

fn bench_concurrent_serving(c: &mut Criterion) {
    let base = ruleset(FilterKind::Acl, BASE_RULES);
    let probes = trace(&base, PROBES);
    let pool = churn_pool();
    let script = ScenarioScript::parse(SCRIPT).expect("valid churn script");

    let mut group = c.benchmark_group("concurrent_serving");
    group.throughput(Throughput::Elements(PROBES as u64));
    group.sample_size(10);
    // A sharded inner is recycled and replayed like any other: each
    // replayed op is one routed update in the owning shard.
    for inner in [
        "configurable-bst",
        "sharded:inner=configurable-bst,shards=4,strategy=prio",
    ] {
        run_pair(&mut group, inner, &base, &probes, &pool, &script);
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent_serving);
criterion_main!(benches);
