//! Criterion bench: sharded batch throughput as a function of shard
//! count × batch size, on an 8k-rule ACL set. The unsharded inner engine
//! (shards=1) is the baseline in every group, so the scaling factor is
//! read straight off the report. Only the `hash` groups run threads
//! (`pipeline::broadcast_batch`, one scoped worker per shard); the
//! `prio` groups probe bands in order on the calling thread, so for
//! them the sweep reads the cost of the partition, not a topology.
//!
//! The sweep axis the `spc_benchmark` ledger lacks: shard count × batch
//! size (it has the 4-shard points only: `sharded.hash4_ns`, `prio4_ns`).
//! `--test` (as in CI) runs every body once.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spc_bench::{ruleset, trace};
use spc_classbench::FilterKind;
use spc_engine::{EngineBuilder, PacketClassifier, Verdict};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH_SIZES: [usize; 2] = [512, 4096];

fn build_sharded(
    rules: &spc_types::RuleSet,
    shards: usize,
    strategy: &str,
) -> Box<dyn PacketClassifier> {
    EngineBuilder::from_spec(&format!(
        "sharded:inner=configurable-bst,shards={shards},strategy={strategy}"
    ))
    .expect("valid spec")
    .build(rules)
    .expect("8k-rule ACL fits the sharded configurable backend")
}

fn bench_sharded_scaling(c: &mut Criterion) {
    let rules = ruleset(FilterKind::Acl, 8192);
    let full = trace(&rules, *BATCH_SIZES.iter().max().unwrap());
    for strategy in ["prio", "hash"] {
        let mut group = c.benchmark_group(format!("sharded_scaling/{strategy}"));
        for shards in SHARD_COUNTS {
            let mut engine = build_sharded(&rules, shards, strategy);
            let mut out: Vec<Verdict> = Vec::new();
            for batch in BATCH_SIZES {
                let t = &full[..batch];
                group.throughput(Throughput::Elements(batch as u64));
                group.bench_with_input(
                    BenchmarkId::new(format!("shards{shards}"), batch),
                    &t,
                    |b, t| b.iter(|| engine.classify_batch(t, &mut out).hits),
                );
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_sharded_scaling);
criterion_main!(benches);
