//! Driving a single (non-sharded) engine from a header stream with the
//! generalised ingest pipeline: a bounded-queue, backpressure-aware
//! worker pool that is spawned once and fed for its whole life — no
//! per-batch thread spawn.
//!
//! The example builds an 8k-rule ACL policy, then compares three ways of
//! classifying the same traffic:
//!
//! 1. sequential `classify_batch` on one engine (the baseline);
//! 2. `IngestPipeline` over per-worker engine replicas (each worker runs
//!    its own replica's batch path);
//! 3. `IngestPipeline` over one shared read-only engine behind `Arc`
//!    (lowest memory; workers use the single-shot lookup path);
//!
//! and finishes with two streaming lifecycles: the explicit
//! `feed`/`drain` loop an SDN ingest path would use, and `run_source`,
//! which drives the pool straight from a lazy `TraceSource` — headers
//! are generated chunk by chunk under the bounded queue's backpressure,
//! never materialised. Verdicts are cross-checked between all paths.
//!
//! Run with `cargo run --release --example ingest_pipeline`.

use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator, TraceSource};
use spc::engine::{
    EngineBuilder, EngineSource, IngestConfig, IngestPipeline, PacketClassifier, Verdict,
};
use std::sync::Arc;
use std::time::Instant;

const SPEC: &str = "configurable-bst";
const WORKERS: usize = 4;
const BATCH: usize = 16 * 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rules = RuleSetGenerator::new(FilterKind::Acl, 8192)
        .seed(7)
        .generate();
    let workload = TraceGenerator::new().seed(8).match_fraction(0.9);
    // The materialised view of the workload, for the sequential baseline
    // and the oracle vector; every pipeline pass below streams instead.
    let traffic = workload.stream(&rules, BATCH).collect_headers()?;
    let builder = EngineBuilder::from_spec(SPEC)?;
    println!("{} rules ({SPEC}), {} headers", rules.len(), traffic.len());

    // 1. Baseline: one engine, sequential batch path.
    let mut sequential = builder.build(&rules)?;
    let mut want: Vec<Verdict> = Vec::new();
    let t0 = Instant::now();
    let stats = sequential.classify_batch(&traffic, &mut want);
    let seq_s = t0.elapsed().as_secs_f64();
    println!(
        "sequential           {:>7.2} Melem/s  ({:.1}% hit)",
        traffic.len() as f64 / seq_s / 1e6,
        100.0 * stats.hit_rate()
    );

    // 2. Replicated: each worker owns a clone of the engine.
    let source = EngineSource::replicated(&builder, &rules, WORKERS)?;
    let mut pipe = IngestPipeline::spawn(
        source,
        IngestConfig {
            workers: WORKERS,
            queue_chunks: 2 * WORKERS,
            chunk: 1024,
        },
    )?;
    let mut out = Vec::new();
    pipe.run_batch(&traffic, &mut out); // warm-up + correctness pass
    assert_eq!(out, want, "pipeline must match the sequential verdicts");
    let t1 = Instant::now();
    pipe.run_batch(&traffic, &mut out);
    let cloned_s = t1.elapsed().as_secs_f64();
    println!(
        "cloned x{WORKERS}            {:>7.2} Melem/s  ({:.2}x)",
        traffic.len() as f64 / cloned_s / 1e6,
        seq_s / cloned_s
    );

    // 3. Shared: one read-only engine behind `Arc`, no replicas.
    let shared: Arc<dyn PacketClassifier> = Arc::from(builder.build(&rules)?);
    let mut shared_pipe = IngestPipeline::spawn(
        EngineSource::Shared(shared),
        IngestConfig {
            workers: WORKERS,
            queue_chunks: 2 * WORKERS,
            chunk: 1024,
        },
    )?;
    shared_pipe.run_batch(&traffic, &mut out);
    assert_eq!(out, want, "shared-engine verdicts must agree too");
    let t2 = Instant::now();
    shared_pipe.run_batch(&traffic, &mut out);
    let shared_s = t2.elapsed().as_secs_f64();
    println!(
        "shared x{WORKERS}            {:>7.2} Melem/s  ({:.2}x, 1x memory)",
        traffic.len() as f64 / shared_s / 1e6,
        seq_s / shared_s
    );

    // 4. Streaming lifecycle: feed bursts as they "arrive", drain when a
    // result window closes. The pool threads persist across rounds and a
    // full queue blocks `feed` (backpressure) instead of dropping.
    out.clear();
    let mut streamed = 0u64;
    for burst in traffic.chunks(3000) {
        pipe.feed(burst);
        streamed += pipe.drain(&mut out).packets;
    }
    assert_eq!(out, want, "streamed verdicts arrive in feed order");
    println!("streamed {streamed} headers in bursts through the same pool");

    // 5. TraceSource end to end: the pool pulls from a lazy synthetic
    // source — the same shape as replaying a pcap capture — so headers
    // are generated in chunks as queue slots free up, and the whole
    // trace never exists in memory at once.
    let mut source = workload.stream(&rules, BATCH).with_chunk(1024);
    let stats = pipe.run_source(&mut source, &mut out)?;
    assert_eq!(out, want, "sourced verdicts agree too");
    println!(
        "run_source classified {} headers straight from the generator",
        stats.packets
    );
    Ok(())
}
