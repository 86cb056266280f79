//! Criterion ablation: classify time against MBT leaf provisioning
//! (`mbt_leaf_nodes` 384 / 512 / 1024, `CombineStrategy::FirstLabel`,
//! ACL 1000).
//!
//! The sweep axis the `spc_benchmark` ledger lacks is the provisioning
//! knob: the ledger times one auto-sized configuration per workload
//! (and has the first-versus-probe combine comparison as
//! `core.classify_first_ns` / `core.classify_probe_ns`).

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spc_bench::{ruleset, trace};
use spc_classbench::FilterKind;
use spc_core::{ArchConfig, Classifier, CombineStrategy};

fn bench_mbt_leaf_nodes(c: &mut Criterion) {
    let rules = ruleset(FilterKind::Acl, 1000);
    let t = trace(&rules, 512);
    let mut group = c.benchmark_group("mbt_leaf_nodes");
    group.throughput(Throughput::Elements(t.len() as u64));
    for leaf in [384usize, 512, 1024] {
        let mut cfg = ArchConfig::large().with_combine(CombineStrategy::FirstLabel);
        cfg.mbt_leaf_nodes = leaf;
        cfg.rule_filter_addr_bits = 14;
        let mut cls = Classifier::new(cfg);
        cls.load(&rules).expect("fits");
        group.bench_with_input(BenchmarkId::from_parameter(leaf), &t, |b, t| {
            b.iter(|| {
                let mut hits = 0usize;
                for h in t {
                    hits += usize::from(cls.classify(h).hit.is_some());
                }
                hits
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mbt_leaf_nodes);
criterion_main!(benches);
