//! Edge-case and differential coverage for the generalised ingest
//! pipeline (`spc::engine::pipeline`): every registry backend driven
//! through `IngestPipeline` must produce exactly the verdicts of its own
//! sequential `classify`, in stream order, in both engine-source modes;
//! the bounded queue must block the feeder (backpressure), never drop;
//! and the degenerate shapes (zero-length batch, more workers than
//! packets) must hold.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc::engine::pipeline::BatchWorker;
use spc::engine::{
    EngineBuilder, EngineKind, EngineSource, IngestConfig, IngestPipeline, LookupStats,
    PacketClassifier, Verdict,
};
use spc::types::{Header, RuleSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const RULES: usize = 300;
const TRACE: usize = 700;
const SEED: u64 = 20_14;

fn workload() -> (RuleSet, Vec<Header>) {
    let rules = RuleSetGenerator::new(FilterKind::Acl, RULES)
        .seed(SEED)
        .generate();
    let trace = TraceGenerator::new()
        .seed(SEED ^ 0xab)
        .match_fraction(0.85)
        .generate(&rules, TRACE);
    (rules, trace)
}

/// Compares pipeline verdicts against a sequential baseline. The cached
/// backend is stateful: a repeat of a flow is served from the cache at
/// `mem_reads = 1`, so the *cost* annotation legitimately depends on
/// classification order, while the classification outcome (matched rule,
/// priority, action) must still be identical packet-for-packet. Every
/// stateless backend keeps the full bit-for-bit contract.
fn assert_verdicts_match(kind: EngineKind, got: &[Verdict], want: &[Verdict], ctx: &str) {
    if kind == EngineKind::Cached {
        assert_eq!(got.len(), want.len(), "{kind}: {ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.matched(), w.matched(), "{kind}: {ctx}: packet {i}");
            assert_eq!(g.action, w.action, "{kind}: {ctx}: packet {i}");
        }
    } else {
        assert_eq!(got, want, "{kind}: {ctx}");
    }
}

/// Every registry backend, cloned-replica mode: pipeline verdicts equal
/// the backend's own sequential `classify`, in order.
#[test]
fn pipeline_matches_sequential_for_every_backend_cloned() {
    let (rules, trace) = workload();
    for kind in EngineKind::ALL {
        let builder = EngineBuilder::new(kind);
        let reference = builder.build(&rules).unwrap();
        let want: Vec<Verdict> = trace.iter().map(|h| reference.classify(h)).collect();
        let source = EngineSource::replicated(&builder, &rules, 3).unwrap();
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: 3,
                queue_chunks: 2,
                chunk: 97, // deliberately not a divisor of the trace length
            },
        )
        .unwrap();
        let mut out = Vec::new();
        let stats = pipe.run_batch(&trace, &mut out);
        assert_verdicts_match(kind, &out, &want, "pipeline vs sequential");
        assert_eq!(stats.packets, trace.len() as u64, "{kind}");
        assert_eq!(
            stats.hits,
            want.iter().filter(|v| v.is_hit()).count() as u64,
            "{kind}"
        );
        assert_eq!(
            stats.mem_reads,
            out.iter().map(|v| u64::from(v.mem_reads)).sum::<u64>(),
            "{kind}: folded reads equal per-verdict sums"
        );
    }
}

/// Every registry backend, shared-`Arc` mode: same contract through the
/// read-only `&self` path.
#[test]
fn pipeline_matches_sequential_for_every_backend_shared() {
    let (rules, trace) = workload();
    for kind in EngineKind::ALL {
        let engine: Arc<dyn PacketClassifier> =
            Arc::from(EngineBuilder::new(kind).build(&rules).unwrap());
        let want: Vec<Verdict> = trace.iter().map(|h| engine.classify(h)).collect();
        let mut pipe = IngestPipeline::spawn(
            EngineSource::Shared(engine),
            IngestConfig {
                workers: 4,
                queue_chunks: 3,
                chunk: 128,
            },
        )
        .unwrap();
        let mut out = Vec::new();
        let stats = pipe.run_batch(&trace, &mut out);
        assert_verdicts_match(kind, &out, &want, "shared pipeline vs sequential");
        assert_eq!(stats.packets, trace.len() as u64, "{kind}");
    }
}

#[test]
fn zero_length_batch_is_empty_and_reusable() {
    let (rules, trace) = workload();
    let source =
        EngineSource::replicated(&EngineBuilder::new(EngineKind::Linear), &rules, 2).unwrap();
    let mut pipe = IngestPipeline::spawn(
        source,
        IngestConfig {
            workers: 2,
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let mut out = vec![Verdict::miss(9)];
    let stats = pipe.run_batch(&[], &mut out);
    assert!(out.is_empty(), "stale verdicts must be cleared");
    assert_eq!(stats, LookupStats::default());
    // An empty batch must not wedge the pool for later real work.
    let stats = pipe.run_batch(&trace[..50], &mut out);
    assert_eq!(out.len(), 50);
    assert_eq!(stats.packets, 50);
}

#[test]
fn more_workers_than_packets() {
    let (rules, trace) = workload();
    let builder = EngineBuilder::new(EngineKind::ConfigurableBst);
    let reference = builder.build(&rules).unwrap();
    let source = EngineSource::replicated(&builder, &rules, 8).unwrap();
    let mut pipe = IngestPipeline::spawn(
        source,
        IngestConfig {
            workers: 8,
            queue_chunks: 2,
            chunk: 1, // every header its own chunk: 3 chunks, 8 workers
        },
    )
    .unwrap();
    assert_eq!(pipe.worker_count(), 8);
    let tiny = &trace[..3];
    let mut out = Vec::new();
    let stats = pipe.run_batch(tiny, &mut out);
    assert_eq!(out.len(), 3);
    assert_eq!(stats.packets, 3);
    for (h, v) in tiny.iter().zip(&out) {
        assert_eq!(*v, reference.classify(h), "idle workers must not corrupt");
    }
}

/// A worker that holds every chunk until the test opens its gate, and
/// counts chunks it has accepted — the instrument for observing that a
/// full bounded queue *blocks* the feeder instead of dropping headers.
#[derive(Debug)]
struct GatedWorker {
    gate: mpsc::Receiver<()>,
    processed: Arc<AtomicUsize>,
}

impl BatchWorker for GatedWorker {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        self.gate.recv().expect("test holds the gate sender");
        self.processed.fetch_add(1, Ordering::SeqCst);
        out.clear();
        let mut stats = LookupStats::default();
        for _ in headers {
            let v = Verdict::miss(1);
            stats.absorb(&v);
            out.push(v);
        }
        stats
    }
}

#[test]
fn bounded_queue_blocks_feeder_and_drops_nothing() {
    const QUEUE: usize = 2;
    const WORKERS: usize = 2;
    const CHUNKS: usize = 12;
    let processed = Arc::new(AtomicUsize::new(0));
    let mut gates = Vec::new();
    let workers: Vec<Box<dyn BatchWorker>> = (0..WORKERS)
        .map(|_| {
            let (gate_tx, gate_rx) = mpsc::channel();
            gates.push(gate_tx);
            Box::new(GatedWorker {
                gate: gate_rx,
                processed: Arc::clone(&processed),
            }) as Box<dyn BatchWorker>
        })
        .collect();
    let mut pipe = IngestPipeline::from_workers(
        workers,
        IngestConfig {
            workers: WORKERS,
            queue_chunks: QUEUE,
            chunk: 4,
        },
    )
    .unwrap();

    // Feed CHUNKS chunks from a helper thread while every worker is
    // gated shut. The queue holds QUEUE chunks and each worker can pull
    // one more before blocking inside its gate, so the feeder must stall
    // with at most QUEUE + WORKERS + 1 chunks accepted (the +1 is the
    // chunk sitting in the blocked `send`).
    let headers = vec![Header::new([0, 0, 0, 1].into(), [0, 0, 0, 2].into(), 1, 2, 6); CHUNKS * 4];
    let fed = Arc::new(AtomicUsize::new(0));
    let feeder = {
        let fed = Arc::clone(&fed);
        std::thread::spawn(move || {
            for chunk in headers.chunks(4) {
                pipe.feed(chunk);
                fed.fetch_add(1, Ordering::SeqCst);
            }
            pipe // hand the pipeline back for draining
        })
    };

    // Give the feeder ample time to race ahead if backpressure were
    // broken; the bound below is hard, not a timing guess.
    std::thread::sleep(Duration::from_millis(150));
    let stalled_at = fed.load(Ordering::SeqCst);
    assert!(
        stalled_at <= QUEUE + WORKERS + 1,
        "feeder accepted {stalled_at} chunks past a {QUEUE}-deep queue: backpressure is broken"
    );
    assert!(stalled_at < CHUNKS, "feeder must actually be blocked");

    // Open the gates: every worker may now process every chunk.
    for gate in &gates {
        for _ in 0..CHUNKS {
            let _ = gate.send(());
        }
    }
    let mut pipe = feeder.join().expect("feeder thread");
    assert_eq!(fed.load(Ordering::SeqCst), CHUNKS, "all chunks were fed");
    let mut out = Vec::new();
    let stats = pipe.drain(&mut out);
    // Nothing was dropped: one verdict per header, all chunks processed.
    assert_eq!(out.len(), CHUNKS * 4);
    assert_eq!(stats.packets, (CHUNKS * 4) as u64);
    assert_eq!(processed.load(Ordering::SeqCst), CHUNKS);
}

/// Streaming lifecycle: interleaved feed/drain rounds equal one big
/// sequential pass, and the pool's threads persist across rounds.
#[test]
fn streaming_rounds_equal_one_shot() {
    let (rules, trace) = workload();
    let builder = EngineBuilder::from_spec("configurable-bst").unwrap();
    let reference = builder.build(&rules).unwrap();
    let want: Vec<Verdict> = trace.iter().map(|h| reference.classify(h)).collect();
    let source = EngineSource::replicated(&builder, &rules, 2).unwrap();
    let mut pipe = IngestPipeline::spawn(
        source,
        IngestConfig {
            workers: 2,
            queue_chunks: 2,
            chunk: 64,
        },
    )
    .unwrap();
    let mut out = Vec::new();
    let mut folded = LookupStats::default();
    for round in trace.chunks(250) {
        pipe.feed(round);
        folded = folded + pipe.drain(&mut out);
    }
    assert_eq!(out, want);
    assert_eq!(folded.packets, trace.len() as u64);
}

/// Drain-on-error reuse, per backend: a `WorkloadError` mid-stream (an
/// update event in a classify-only stream) must leave the pool idle
/// with every already-fed chunk drained — and the same pool must then
/// accept a fresh `run_source` and process it exactly like the
/// backend's own sequential classify.
#[test]
fn pool_is_reusable_after_workload_error_for_every_backend() {
    use spc::classbench::{ScenarioScript, TraceError, TraceEvent, TraceSource};
    use spc::engine::WorkloadError;

    let (rules, _) = workload();
    let pool_rules = RuleSetGenerator::new(FilterKind::Fw, 20)
        .seed(SEED ^ 7)
        .generate();
    let traffic = TraceGenerator::new().seed(SEED ^ 0x11).match_fraction(0.85);

    // The reference stream: same generator seed as the retry below, so
    // the recovered pool's verdicts can be checked header-for-header.
    let mut headers: Vec<Header> = Vec::new();
    let mut probe = traffic.stream(&rules, 150);
    while let Some(event) = probe.next_event().unwrap() {
        match event {
            TraceEvent::Headers(h) => headers.extend(h),
            other => panic!("classify-only stream produced {other:?}"),
        }
    }

    for kind in EngineKind::ALL {
        let builder = EngineBuilder::new(kind);
        let reference = builder.build(&rules).unwrap();
        let want: Vec<Verdict> = headers.iter().map(|h| reference.classify(h)).collect();
        let source = EngineSource::replicated(&builder, &rules, 2).unwrap();
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: 2,
                queue_chunks: 2,
                chunk: 48,
            },
        )
        .unwrap();

        // A classify-only pool fed a scenario with an update event:
        // typed error, pre-error chunks drained, nothing in flight.
        let script = ScenarioScript::parse("classify 120; insert 1; classify 50").unwrap();
        let mut bad = script.source(&traffic, &rules, pool_rules.rules()).unwrap();
        let mut out = Vec::new();
        let err = pipe.run_source(&mut bad, &mut out).unwrap_err();
        assert!(
            matches!(err, WorkloadError::Source(TraceError::UnexpectedUpdate)),
            "{kind}: {err}"
        );
        assert_eq!(out.len(), 120, "{kind}: pre-error headers drained");
        assert_eq!(pipe.in_flight(), 0, "{kind}: pool left idle");

        // The same pool, fresh stream: correct verdicts, in order.
        let mut fresh = traffic.stream(&rules, 150);
        let stats = pipe
            .run_source(&mut fresh, &mut out)
            .unwrap_or_else(|e| panic!("{kind}: recovered pool must serve: {e}"));
        assert_eq!(stats.packets, headers.len() as u64, "{kind}");
        assert_verdicts_match(kind, &out, &want, "recovered pool vs sequential");
        pipe.shutdown();
    }
}
