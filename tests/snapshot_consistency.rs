//! The concurrency oracle for snapshot-swap serving (`snapshot:` specs).
//!
//! Protocol (per inner spec): N reader threads classify a fixed probe
//! set in a loop while the writer replays a churn sequence against the
//! same `SnapshotEngine`. The writer keeps a *version log*: after every
//! successful update it recomputes, from a shadow rule list, the oracle
//! verdict of every probe and appends that vector — so entry `e` of the
//! log is the ground truth for the rule-set version with
//! `SnapshotReader::update_epoch() == e`. Readers record, for every
//! classify, the `(probe, epoch, verdict)` triple the snapshot reader
//! reported.
//!
//! "Consistent" then means exactly (see `docs/concurrency.md`):
//!
//! 1. **version-vector check** — every recorded verdict equals the
//!    logged oracle verdict *of the epoch the reader says it used*,
//!    which is necessarily a version published during the reader's
//!    lifetime. A verdict mixing two versions (torn read) cannot pass,
//!    because it would match neither log entry.
//! 2. **monotonic epochs** — each reader's observed `update_epoch()`
//!    never decreases, and reaches the writer's final epoch after the
//!    churn ends (readers do a final pass after the writer stops).
//!
//! Verdicts compare as (rule id, priority, action): `mem_reads` is
//! version-dependent bookkeeping the flow cache legitimately rewrites.
//!
//! CI runs this file in release mode with `RUST_TEST_THREADS=1`; each
//! test manages its own reader threads.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::engine::{EngineBuilder, PacketClassifier, SnapshotEngine, Verdict};
use spc::types::{Action, Header, PortRange, Priority, ProtoSpec, Rule, RuleId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const READERS: usize = 4;
const BASE_RULES: u32 = 48;
const CHURN_OPS: usize = 60;
const PROBE_PORTS: std::ops::Range<u16> = 990..1070;

/// The comparable slice of a verdict: what must agree with the oracle.
type Trimmed = (Option<RuleId>, Option<Priority>, Option<Action>);

fn trim(v: &Verdict) -> Trimmed {
    (v.rule, v.priority, v.action)
}

/// Deterministic rule `p`: unique priority and a unique exact dst-port,
/// so every live rule set has a unique winner per probe and no two
/// rules ever collide as duplicate 5-tuples.
fn rule(p: u32) -> Rule {
    Rule::builder(Priority(p))
        .dst_port(PortRange::exact(1000 + p as u16))
        .proto(ProtoSpec::Exact(6))
        .action(Action::Forward(p as u16))
        .build()
}

fn probe(port: u16) -> Header {
    Header::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 40_000, port, 6)
}

fn probes() -> Vec<Header> {
    PROBE_PORTS.map(probe).collect()
}

/// Oracle verdict of one probe against a shadow rule list carrying the
/// engine's global ids: same HPMR discipline as `RuleSet::classify`,
/// restated over `(priority, global id)`.
fn oracle(live: &[(RuleId, Rule)], h: &Header) -> Trimmed {
    live.iter()
        .filter(|(_, r)| r.matches(h))
        .min_by_key(|&&(id, r)| (r.priority, id.0))
        .map_or((None, None, None), |&(id, r)| {
            (Some(id), Some(r.priority), Some(r.action))
        })
}

fn build(spec: &str) -> (SnapshotEngine, Vec<(RuleId, Rule)>) {
    let rules: spc::types::RuleSet = (0..BASE_RULES).map(rule).collect();
    let engine = EngineBuilder::from_spec(spec)
        .expect("spec parses")
        .build_snapshot(&rules)
        .expect("base set builds");
    // Base rules keep their RuleSet ids as global ids (both writer
    // modes); the consistency check below would catch any drift.
    let live: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
    (engine, live)
}

/// Runs the full oracle protocol for one spec.
fn check_spec(spec: &str) {
    let (mut engine, mut live) = build(spec);
    let probes = probes();

    // log[e] = oracle verdicts for the version with update_epoch() == e.
    let log: Arc<Mutex<Vec<Vec<Trimmed>>>> = Arc::new(Mutex::new(vec![probes
        .iter()
        .map(|h| oracle(&live, h))
        .collect()]));
    let stop = Arc::new(AtomicBool::new(false));

    let mut records: Vec<Vec<(usize, u64, Trimmed)>> = Vec::new();
    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..READERS {
            let mut reader = engine.reader();
            let probes = &probes;
            let stop = Arc::clone(&stop);
            handles.push(s.spawn(move || {
                let mut seen: Vec<(usize, u64, Trimmed)> = Vec::new();
                let mut last_epoch = 0u64;
                loop {
                    let finishing = stop.load(Ordering::Acquire);
                    for (i, h) in probes.iter().enumerate() {
                        let v = reader.classify(h);
                        let e = reader.update_epoch();
                        assert!(
                            e >= last_epoch,
                            "reader epoch went backwards: {e} < {last_epoch}"
                        );
                        last_epoch = e;
                        seen.push((i, e, trim(&v)));
                    }
                    if finishing {
                        // One full pass after the writer stopped: the
                        // final refresh lands on the final version.
                        return seen;
                    }
                    thread::yield_now();
                }
            }));
        }

        // The writer: grow-then-shrink churn over a disjoint rule pool,
        // logging the oracle of every published version.
        let mut churned: Vec<RuleId> = Vec::new();
        for op in 0..CHURN_OPS {
            if op % 3 < 2 {
                let p = 100 + op as u32;
                let id = engine.insert(rule(p)).expect("fresh rule inserts");
                live.push((id, rule(p)));
                churned.push(id);
            } else {
                let id = churned.remove(op % churned.len());
                engine.remove(id).expect("tracked rule removes");
                live.retain(|&(g, _)| g != id);
            }
            let verdicts: Vec<Trimmed> = probes.iter().map(|h| oracle(&live, h)).collect();
            let mut log = log.lock().unwrap();
            log.push(verdicts);
            let published = engine.reader().update_epoch();
            assert_eq!(log.len() as u64 - 1, published, "{spec}");
            drop(log);
            thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        records = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });

    // Validation: every observation matches the oracle of its epoch.
    let log = log.lock().unwrap();
    let final_epoch = log.len() as u64 - 1;
    assert_eq!(final_epoch, CHURN_OPS as u64, "{spec}: every op published");
    for (reader, seen) in records.iter().enumerate() {
        assert!(!seen.is_empty());
        for &(i, e, got) in seen {
            let want = log[e as usize][i];
            assert_eq!(
                got, want,
                "{spec}: reader {reader} probe {i} disagrees with the \
                 oracle of epoch {e} — torn or stale-inconsistent read"
            );
        }
        let last = seen.last().unwrap().1;
        assert_eq!(
            last, final_epoch,
            "{spec}: reader {reader} never reached the final version"
        );
    }
}

#[test]
fn consistency_single_configurable_inner() {
    check_spec("snapshot:inner=configurable-bst");
}

#[test]
fn consistency_sharded_priority_inner() {
    check_spec("snapshot:inner=(sharded:inner=configurable-bst,shards=4,strategy=prio)");
}

#[test]
fn consistency_sharded_hash_inner() {
    check_spec(
        "snapshot:inner=(sharded:inner=configurable-bst,shards=4,strategy=hash,hash_dim=dst_port)",
    );
}

#[test]
fn consistency_cached_inner() {
    check_spec("snapshot:inner=(cached:inner=configurable-bst,flows=256)");
}

#[test]
fn consistency_build_once_inner() {
    // Build-once inners are rebuilt wholesale per op; the published
    // versions must obey the exact same consistency contract.
    check_spec("snapshot:inner=linear");
}

/// The pipeline integration: a pool of `SnapshotReader` workers keeps
/// serving batches while the writer churns, and every batch processed
/// after the churn settles reflects the final version exactly.
#[test]
fn pipeline_workers_reresolve_snapshots_per_batch() {
    use spc::engine::{IngestConfig, IngestPipeline};

    let (mut engine, mut live) = build("snapshot:inner=configurable-bst");
    let probes = probes();
    let config = IngestConfig {
        workers: 2,
        ..IngestConfig::default()
    };
    let mut pipe =
        IngestPipeline::from_workers(engine.workers(config.workers), config).expect("pool spawns");

    let mut verdicts = Vec::new();
    for op in 0..24usize {
        // Feed a batch between updates: the pool must never error and
        // every verdict must match *some* published version — each
        // worker chunk resolves one snapshot, and this batch fits one
        // chunk, so it is answered by exactly one version.
        let stats = pipe.run_batch(&probes, &mut verdicts);
        assert_eq!(stats.packets, probes.len() as u64);

        let p = 500 + op as u32;
        let id = engine.insert(rule(p)).expect("fresh rule inserts");
        live.push((id, rule(p)));
    }

    // After churn settles the pool must serve the final version.
    let _ = pipe.run_batch(&probes, &mut verdicts);
    for (h, v) in probes.iter().zip(&verdicts) {
        assert_eq!(trim(v), oracle(&live, h), "final version after churn");
    }
    pipe.shutdown();
}
