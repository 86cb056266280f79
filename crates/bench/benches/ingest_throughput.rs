//! Criterion bench: `IngestPipeline` batch throughput on a *non-sharded*
//! backend as a function of worker count, on an 8k-rule ACL set — the
//! measurement behind the "any engine can be driven from a header
//! stream" claim. The sequential `classify_batch` of a single engine is
//! the baseline in every group, so the scaling factor is read straight
//! off the report; replicated (per-worker clone) and shared (`Arc`)
//! sources are benchmarked side by side since they are the pipeline's
//! central trade-off.
//!
//! The sweep axis the `spc_benchmark` ledger lacks: worker count × source
//! mode (it has one configuration: `pipeline.run_source_lps`, `hop_us`).
//! `--test` (as in CI) runs every body once.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spc_bench::{ruleset, trace, trace_source};
use spc_classbench::FilterKind;
use spc_engine::{
    EngineBuilder, EngineSource, IngestConfig, IngestPipeline, PacketClassifier, Verdict,
};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH: usize = 8192;
const SPEC: &str = "configurable-bst";

fn bench_ingest_throughput(c: &mut Criterion) {
    let rules = ruleset(FilterKind::Acl, 8192);
    let t = trace(&rules, BATCH);
    let builder = EngineBuilder::from_spec(SPEC).expect("valid spec");

    let mut group = c.benchmark_group("ingest_throughput");
    group.throughput(Throughput::Elements(t.len() as u64));

    // Baseline: one engine, sequential amortised batch path.
    let mut sequential = builder.build(&rules).expect("8k-rule ACL fits");
    let mut out: Vec<Verdict> = Vec::new();
    group.bench_with_input(BenchmarkId::new("sequential", SPEC), &t, |b, t| {
        b.iter(|| sequential.classify_batch(t, &mut out).hits);
    });

    // Replicated engines: each worker owns a clone and runs the
    // amortised batch path with private scratch.
    for workers in WORKER_COUNTS {
        let source = EngineSource::replicated(&builder, &rules, workers).expect("replicas build");
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers,
                queue_chunks: 2 * workers,
                chunk: 1024,
            },
        )
        .expect("valid pipeline config");
        group.bench_with_input(
            BenchmarkId::new("cloned", format!("workers{workers}")),
            &t,
            |b, t| b.iter(|| pipe.run_batch(t, &mut out).hits),
        );
    }

    // Streaming from a lazy TraceSource (headers generated on the fly,
    // chunk by chunk, under the queue's backpressure) instead of a
    // pre-materialised batch — the generation cost is part of the
    // measurement, which is exactly the replay-a-capture shape.
    for workers in WORKER_COUNTS {
        let source = EngineSource::replicated(&builder, &rules, workers).expect("replicas build");
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers,
                queue_chunks: 2 * workers,
                chunk: 1024,
            },
        )
        .expect("valid pipeline config");
        group.bench_function(
            BenchmarkId::new("streamed", format!("workers{workers}")),
            |b| {
                b.iter(|| {
                    let mut src = trace_source(&rules, BATCH);
                    pipe.run_source(&mut src, &mut out)
                        .expect("classify-only source")
                        .hits
                });
            },
        );
    }

    // Shared engine behind `Arc`: lowest memory, single-shot lookups.
    for workers in WORKER_COUNTS {
        let engine: Arc<dyn PacketClassifier> =
            Arc::from(builder.build(&rules).expect("8k-rule ACL fits"));
        let mut pipe = IngestPipeline::spawn(
            EngineSource::Shared(engine),
            IngestConfig {
                workers,
                queue_chunks: 2 * workers,
                chunk: 1024,
            },
        )
        .expect("valid pipeline config");
        group.bench_with_input(
            BenchmarkId::new("shared", format!("workers{workers}")),
            &t,
            |b, t| b.iter(|| pipe.run_batch(t, &mut out).hits),
        );
    }

    group.finish();
}

criterion_group!(benches, bench_ingest_throughput);
criterion_main!(benches);
