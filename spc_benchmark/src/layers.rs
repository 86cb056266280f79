//! The traced run: spans around the workload's own cycles, then one
//! probe per layer, each timing a public call of that layer from
//! outside on the invoked workload's rule set and the first
//! `Shape::probe` headers of its cycle.
//!
//! Layer probes use the same floor as the end-to-end slots (fastest of
//! the passes that fit the probe's slice of the run), except the rows
//! that run threads — `sharded.*`, `pipeline.*` — which this 2-core
//! shared host cannot steady: they report the median of their passes and
//! a `*_spread` row beside it, and nothing gates them.

use crate::drive::{self, Tally};
use crate::estimator::{median, spread, Floors};
use crate::host;
use crate::inputs::{self, Inputs, LookupSlot, Res, Shape, Workload};
use crate::metrics::{Values, BACKENDS, UPDATABLE_BACKENDS};
use crate::spans::Tracer;
use rand::prelude::*;
use spc_classbench::{PcapReader, TraceSource};
use spc_core::{ArchConfig, Classifier, ClassifyScratch, CombineStrategy, IpAlg};
use spc_engine::pipeline::{EngineSource, IngestConfig};
use spc_engine::{
    build_engine, BatchWorker, CachedEngine, EngineBuilder, IngestPipeline, LookupStats,
    PacketClassifier, Verdict,
};
use spc_hwsim::MemoryBlock;
use spc_lookup::{
    FieldEngine, Label, LabelEntry, LabelList, LabelStore, MbtConfig, MultiBitTrie, PortRegisters,
    ProtocolLut, RangeBst, SegTrieConfig, SegmentTrie,
};
use spc_types::{Dim, DimValue, Header, Priority, Rule, RuleId, RuleSet, ALL_DIMS};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of the run spent replaying the workload's own cycles with
/// spans; the probes share the rest.
const FRONT_SHARE: f64 = 0.35;
/// Timed probe groups a traced run makes; each gets an equal slice.
const PROBE_SLICES: u32 = 48;
/// Pool rules the wrapper and backend update probes churn.
const CHURN_RULES: usize = 8;

/// What the traced run hands back.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric.
    pub values: Values,
    /// Operations attempted / failed (workload cycles and probes).
    pub tally: Tally,
    /// The spans of the workload's traced cycles.
    pub tracer: Tracer,
}

/// Runs `pass` until `budget` is spent, at least `min` times; each pass
/// returns the nanoseconds of its own timed region, so its set-up stays
/// untimed.
fn passes(budget: Duration, min: usize, mut pass: impl FnMut() -> Res<u64>) -> Res<Vec<u64>> {
    let clock = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || clock.elapsed() < budget {
        times.push(pass()?);
    }
    Ok(times)
}

fn floor(times: &[u64]) -> f64 {
    times.iter().copied().min().unwrap_or(0) as f64
}

fn as_f64(times: &[u64]) -> Vec<f64> {
    times.iter().map(|&t| t as f64).collect()
}

fn timed<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = work();
    (start.elapsed().as_nanos() as u64, out)
}

/// One scripted update of a churn probe.
enum Op {
    Insert(Rule),
    Remove(RuleId),
}

/// The `ArchConfig` `EngineBuilder` provisions for `configurable-bst`
/// over `rules` (large defaults, Rule Filter auto-sized to 4× the rule
/// count) — mirrored here because the builder keeps it private; the core
/// probe checks its verdicts and the registry engine's reads agree.
fn mirrored_arch(rules: &RuleSet) -> ArchConfig {
    let mut cfg = ArchConfig::large().with_ip_alg(IpAlg::Bst);
    while (1usize << cfg.rule_filter_addr_bits) < rules.len().saturating_mul(4)
        && cfg.rule_filter_addr_bits < 22
    {
        cfg.rule_filter_addr_bits += 1;
    }
    cfg
}

/// A worker that classifies nothing: what is left of a `run_batch` is
/// the pipeline's own queue hop.
struct NoOp;
impl BatchWorker for NoOp {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        out.clear();
        out.resize(headers.len(), Verdict::miss(0));
        LookupStats::default()
    }
}

struct Probes<'a> {
    w: &'a Workload,
    shape: &'a Shape,
    inputs: &'a Inputs,
    probe: LookupSlot,
    slice: Duration,
    values: Values,
    tally: Tally,
}

impl<'a> Probes<'a> {
    /// The pool rules the update probes churn.
    fn churn_pool(&self) -> &'a [crate::inputs::UpdateSlot] {
        let pool = &self.inputs.updates;
        &pool[..pool.len().min(CHURN_RULES)]
    }

    fn put(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn per_header(&self, ns: f64) -> f64 {
        ns / self.probe.headers.len() as f64
    }

    /// Floor ns/header of `worker` on the probe trace, verdicts checked.
    fn lookup_passes(&mut self, worker: &mut dyn BatchWorker) -> Res<Vec<u64>> {
        let mut out = Vec::new();
        let times = passes(self.slice, 2, || {
            Ok(timed(|| worker.process(&self.probe.headers, &mut out)).0)
        })?;
        self.tally.check_burst(&self.probe, &out, None);
        Ok(times)
    }

    /// Insert/remove floors of the first [`CHURN_RULES`] pool rules
    /// through `apply`: medians of the insert and of the remove floors,
    /// in µs.
    fn churn(&mut self, apply: &mut dyn FnMut(Op) -> Option<RuleId>) -> Res<(f64, f64)> {
        let pool = self.churn_pool();
        let mut floors = Floors::new(2 * pool.len());
        let tally = &mut self.tally;
        passes(self.slice, 2, || {
            for (i, u) in pool.iter().enumerate() {
                let (ns, id) = timed(|| apply(Op::Insert(u.rule)));
                floors.record(2 * i, ns);
                tally.attempted += 1;
                let Some(id) = id else {
                    tally.failed += 1;
                    continue;
                };
                let (ns, ok) = timed(|| apply(Op::Remove(id)).is_some());
                floors.record(2 * i + 1, ns);
                tally.attempted += 1;
                tally.failed += u64::from(!ok);
            }
            Ok(0)
        })?;
        let side = |parity: usize| {
            let v: Vec<f64> = (0..floors.slots())
                .filter(|s| s % 2 == parity)
                .filter_map(|s| floors.get(s))
                .map(|ns| ns as f64 / 1e3)
                .collect();
            median(&v)
        };
        Ok((side(0), side(1)))
    }

    fn churn_engine(&mut self, engine: &mut dyn PacketClassifier) -> Res<f64> {
        let (ins, rem) = self.churn(&mut |op| match op {
            Op::Insert(rule) => engine.insert(rule).ok(),
            Op::Remove(id) => engine.remove(id).ok().map(|()| id),
        })?;
        Ok((ins + rem) / 2.0)
    }

    fn classbench(&mut self) -> Res<()> {
        let (w, rules, len) = (self.w, &self.inputs.rules, self.shape.trace_len);
        let gen = passes(self.slice, 2, || {
            let (ns, trace) = timed(|| {
                inputs::trace_generator(w)
                    .stream(rules, len)
                    .collect_headers()
            });
            black_box(trace?);
            Ok(ns)
        })?;
        self.put("classbench.tracegen_ns", floor(&gen) / len as f64);

        let headers = self.inputs.headers_per_cycle();
        let capture = inputs::pcap_bytes(self.inputs.lookups.iter().flat_map(|s| &s.headers))?;
        let parse = passes(self.slice, 2, || {
            let mut reader = PcapReader::from_bytes(capture.clone())?.with_chunk(256);
            let (ns, parsed) = timed(|| -> Res<usize> {
                let mut n = 0;
                while let Some(event) = reader.next_event()? {
                    if let spc_classbench::TraceEvent::Headers(h) = black_box(event) {
                        n += h.len();
                    }
                }
                Ok(n)
            });
            if parsed? != headers {
                return Err("the capture did not parse back to its headers".into());
            }
            Ok(ns)
        })?;
        self.put("classbench.pcap_parse_ns", floor(&parse) / headers as f64);
        Ok(())
    }

    /// Loads a standalone field engine with `dim`'s distinct values
    /// (labels in first-seen order, each at its best priority) and
    /// returns the floor ns per `lookup_into` and the labels per query.
    fn field_engine(
        &mut self,
        dim: Dim,
        mut engine: Box<dyn FieldEngine>,
        mut store: LabelStore,
    ) -> Res<(f64, f64)> {
        let mut labels: Vec<(DimValue, Priority)> = Vec::new();
        let mut index: HashMap<DimValue, usize> = HashMap::new();
        for rule in self.inputs.rules.rules() {
            let value = rule.dim_value(dim);
            let at = *index.entry(value).or_insert_with(|| {
                labels.push((value, rule.priority));
                labels.len() - 1
            });
            labels[at].1 = labels[at].1.min(rule.priority);
        }
        for (i, &(value, priority)) in labels.iter().enumerate() {
            let entry = LabelEntry::by_priority(Label(u16::try_from(i)?), priority);
            engine.insert(&mut store, value, entry)?;
        }
        engine.flush(&mut store)?;
        let queries: Vec<u16> = self.probe.headers.iter().map(|h| dim.query(h)).collect();
        // A field lookup takes tens of ns: repeat the probe trace so a
        // pass is long against the clock's resolution.
        let repeat = (4096 / queries.len()).max(1);
        let mut list = LabelList::new();
        let mut matched = 0usize;
        let times = passes(self.slice / 8, 3, || {
            let (ns, n) = timed(|| -> Res<usize> {
                let mut n = 0;
                for _ in 0..repeat {
                    for &q in &queries {
                        black_box(engine.lookup_into(&store, q, &mut list)?);
                        n += list.len();
                    }
                }
                Ok(n)
            });
            matched = n?;
            Ok(ns)
        })?;
        let lookups = (repeat * queries.len()) as f64;
        Ok((floor(&times) / lookups, matched as f64 / lookups))
    }

    fn lookup(&mut self) -> Res<()> {
        let arch = mirrored_arch(&self.inputs.rules);
        let ip_store = |d: Dim| {
            LabelStore::new(
                format!("{d}/labels"),
                arch.ip_label_entries,
                arch.label_widths.ip,
            )
        };
        let port_store =
            |d: Dim| LabelStore::new(format!("{d}/labels"), 1 << 16, arch.label_widths.port);
        let (ip_dims, port_dims) = (&ALL_DIMS[..4], &ALL_DIMS[4..6]);
        let mean = |this: &mut Self,
                    dims: &[Dim],
                    make: &dyn Fn(Dim) -> (Box<dyn FieldEngine>, LabelStore)|
         -> Res<(f64, f64)> {
            let (mut ns, mut labels) = (0.0, 0.0);
            for &dim in dims {
                let (engine, store) = make(dim);
                let (n, l) = this.field_engine(dim, engine, store)?;
                ns += n;
                labels += l;
            }
            Ok((ns / dims.len() as f64, labels))
        };
        let (bst, ip_labels) = mean(self, ip_dims, &|d| {
            (Box::new(RangeBst::new(arch.bst_max_intervals)), ip_store(d))
        })?;
        let (mbt, _) = mean(self, ip_dims, &|d| {
            let cfg = MbtConfig::segment_paper(arch.mbt_leaf_nodes);
            (Box::new(MultiBitTrie::new(cfg)), ip_store(d))
        })?;
        let (segtrie, _) = mean(self, port_dims, &|d| {
            let cfg = SegTrieConfig::four_level(1 << 12);
            (Box::new(SegmentTrie::new(cfg)), port_store(d))
        })?;
        let (portregs, port_labels) = mean(self, port_dims, &|d| {
            (
                Box::new(PortRegisters::new(arch.port_registers)),
                port_store(d),
            )
        })?;
        let (protolut, proto_labels) = mean(self, &ALL_DIMS[6..], &|d| {
            let store = LabelStore::new(
                format!("{d}/labels"),
                1 << arch.label_widths.proto,
                arch.label_widths.proto,
            );
            (Box::new(ProtocolLut::new()), store)
        })?;
        self.put("lookup.bst_ns", bst);
        self.put("lookup.mbt_ns", mbt);
        self.put("lookup.segtrie_ns", segtrie);
        self.put("lookup.portregs_ns", portregs);
        self.put("lookup.protolut_ns", protolut);
        // Mean over the seven engines `configurable-bst` runs per header.
        self.put(
            "lookup.labels_per_query",
            (ip_labels + port_labels + proto_labels) / 7.0,
        );
        Ok(())
    }

    fn hwsim(&mut self) -> Res<()> {
        const WORDS: usize = 1 << 16;
        let mut block: MemoryBlock<u64> = MemoryBlock::new("probe", WORDS, 64);
        let mut order = StdRng::seed_from_u64(inputs::PROFILE_SEED);
        for _ in 0..WORDS {
            block.alloc(order.gen())?;
        }
        let addrs: Vec<usize> = (0..WORDS).map(|_| order.gen_range(0..WORDS)).collect();
        let times = passes(self.slice / 8, 3, || {
            let (ns, sum) = timed(|| -> Res<u64> {
                let mut sum = 0u64;
                for &a in &addrs {
                    sum = sum.wrapping_add(*block.read(a)?);
                }
                Ok(sum)
            });
            black_box(sum?);
            Ok(ns)
        })?;
        self.put("hwsim.memread_ns", floor(&times) / WORDS as f64);
        Ok(())
    }

    fn core(&mut self) -> Res<()> {
        let arch = mirrored_arch(&self.inputs.rules);
        let load = |combine| -> Res<Classifier> {
            let mut cls = Classifier::new(arch.clone().with_combine(combine));
            cls.load(&self.inputs.rules)?;
            Ok(cls)
        };
        let first = load(CombineStrategy::FirstLabel)?;
        let mut probing = load(CombineStrategy::PriorityProbe)?;
        let headers = &self.probe.headers;
        let n = headers.len() as f64;
        let mut scratch = ClassifyScratch::new();

        let mut classify = |cls: &Classifier, slice| {
            passes(slice, 2, || {
                Ok(timed(|| {
                    for h in headers {
                        black_box(cls.classify_with(h, &mut scratch));
                    }
                })
                .0)
            })
        };
        let first_ns = floor(&classify(&first, self.slice)?) / n;
        let probe_ns = floor(&classify(&probing, self.slice)?) / n;

        // One counted pass: reads and combinations per lookup, and the
        // mirrored provisioning held to the oracle.
        let (mut engine_reads, mut rf_reads, mut combos) = (0u64, 0u64, 0u64);
        for (h, want) in headers.iter().zip(&self.probe.expect) {
            let c = probing.classify_with(h, &mut scratch);
            engine_reads += u64::from(c.engine_reads);
            rf_reads += u64::from(c.rule_filter_reads);
            combos += u64::from(c.combos_probed);
            let got = match &c.hit {
                Some(hit) => Verdict {
                    rule: Some(hit.rule_id),
                    priority: Some(hit.rule.priority),
                    action: Some(hit.rule.action),
                    ..Verdict::default()
                },
                None => Verdict::default(),
            };
            self.tally.attempted += 1;
            self.tally.failed += u64::from(!want.agrees(&got, None));
        }
        let combos_probed = combos as f64 / n;

        let keys: Vec<u128> = probing.rule_filter().iter().map(|s| s.key).collect();
        let rf = passes(self.slice / 8, 3, || {
            Ok(timed(|| {
                for &k in &keys {
                    black_box(probing.rule_filter().probe(k));
                }
            })
            .0)
        })?;
        let rf_ns = floor(&rf) / keys.len() as f64;

        let (insert_us, remove_us) = self.churn(&mut |op| match op {
            Op::Insert(rule) => probing.insert(rule).ok().map(|r| r.rule_id),
            Op::Remove(id) => probing.remove(id).ok().map(|_| id),
        })?;

        self.put("core.classify_first_ns", first_ns);
        self.put("core.classify_probe_ns", probe_ns);
        self.put("core.combine_ns", probe_ns - first_ns);
        self.put("core.rulefilter_probe_ns", rf_ns);
        self.put("core.engine_reads", engine_reads as f64 / n);
        self.put("core.rulefilter_reads", rf_reads as f64 / n);
        self.put("core.combos_probed", combos_probed);
        // What the seven field lookups and the Rule Filter probes, each
        // timed alone, do not explain of a probe-mode classify: sorting,
        // the best-first frontier, key packing, and cache effects of
        // running the pieces together.
        let fields = 4.0 * self.values["lookup.bst_ns"]
            + 2.0 * self.values["lookup.portregs_ns"]
            + self.values["lookup.protolut_ns"];
        self.put(
            "core.unattributed_ns",
            probe_ns - fields - combos_probed * rf_ns,
        );
        self.put("core.insert_us", insert_us);
        self.put("core.remove_us", remove_us);
        Ok(())
    }

    /// The registry's `configurable-bst` behind the trait, and the cache
    /// and snapshot wrappers around it: their overhead rows are
    /// differences to the bare engine measured here, on the same rules
    /// and headers.
    fn engines(&mut self) -> Res<()> {
        let rules = &self.inputs.rules;
        let mut bare = build_engine("configurable-bst", rules)?;
        let batch = self.lookup_passes(&mut bare)?;
        let batch_ns = self.per_header(floor(&batch));
        self.put(
            "engine.adapter_ns",
            batch_ns - self.values["core.classify_probe_ns"],
        );
        // The `&self` single-shot path: what a snapshot reader runs.
        let headers = self.probe.headers.clone();
        let single = passes(self.slice, 2, || {
            Ok(timed(|| {
                for h in &headers {
                    black_box(bare.classify(h));
                }
            })
            .0)
        })?;
        let single_ns = self.per_header(floor(&single));
        let bare_update_us = self.churn_engine(bare.as_mut())?;

        // engine::cache
        let new_cache = || -> Res<CachedEngine> {
            let inner = build_engine("configurable-bst", rules)?;
            Ok(CachedEngine::new(inner, 8192, true, rules.rules()))
        };
        let mut out = Vec::new();
        let cold = passes(self.slice, 2, || {
            let mut cache = new_cache()?;
            Ok(timed(|| cache.classify_batch(&headers, &mut out)).0)
        })?;
        self.put("cache.cold_miss_ns", self.per_header(floor(&cold)));
        let mut cache: Box<dyn PacketClassifier> = Box::new(new_cache()?);
        cache.classify_batch(&headers, &mut out);
        let hit = self.lookup_passes(&mut cache)?;
        self.put("cache.hit_ns", self.per_header(floor(&hit)));
        // Counters of a scripted life: one cold pass, three warm ones,
        // then net-zero churn with a burst while each rule is live.
        let mut cache = new_cache()?;
        for _ in 0..4 {
            cache.classify_batch(&headers, &mut out);
        }
        let filled = cache.cache_stats();
        self.put("cache.hit_rate", filled.hit_rate());
        self.put("cache.evictions", filled.evictions as f64);
        let pool = self.churn_pool();
        for u in pool {
            let id = cache.insert(u.rule);
            cache.classify_batch(&u.burst.headers, &mut out);
            self.tally.attempted += 2;
            match id {
                Ok(id) => {
                    self.tally.check_burst(&u.burst, &out, Some(id));
                    self.tally.failed += u64::from(cache.remove(id).is_err());
                }
                Err(_) => self.tally.failed += 2,
            }
        }
        let churned = cache.cache_stats();
        let ops = (2 * pool.len()) as f64;
        self.put(
            "cache.invalidations_per_update",
            (churned.invalidations - filled.invalidations) as f64 / ops,
        );
        self.put(
            "cache.flushes_per_update",
            (churned.flushes - filled.flushes) as f64 / ops,
        );
        let cached_update_us = self.churn_engine(&mut cache)?;
        self.put(
            "cache.update_overhead_us",
            cached_update_us - bare_update_us,
        );

        // engine::snapshot
        let mut writer =
            EngineBuilder::from_spec("snapshot:inner=(configurable-bst)")?.build_snapshot(rules)?;
        let mut reader = writer.reader();
        let read = self.lookup_passes(&mut reader)?;
        self.put(
            "snapshot.reader_overhead_ns",
            self.per_header(floor(&read)) - single_ns,
        );
        let publish_us = self.churn_engine(&mut writer)?;
        self.put("snapshot.publish_us", publish_us);
        self.put("snapshot.publish_vs_bare", publish_us / bare_update_us);
        // The burst right after a publish pays the refresh; the same
        // burst again does not.
        let burst = &headers[..headers.len().min(self.shape.burst)];
        let (mut after, mut steady) = (u64::MAX, u64::MAX);
        for u in pool {
            let id = writer.insert(u.rule)?;
            after = after.min(timed(|| reader.process(burst, &mut out)).0);
            steady = steady.min(timed(|| reader.process(burst, &mut out)).0);
            writer.remove(id)?;
        }
        self.put(
            "snapshot.refresh_burst_us",
            (after as f64 - steady as f64) / 1e3,
        );
        Ok(())
    }

    /// Rows that run threads: median and spread, ungated.
    fn threaded(&mut self) -> Res<()> {
        let rules = &self.inputs.rules;
        for (name, strategy) in [("hash4", "hash"), ("prio4", "prio")] {
            let spec = format!("sharded:inner=configurable-bst,shards=4,strategy={strategy}");
            let mut engine = build_engine(&spec, rules)?;
            let times = as_f64(&self.lookup_passes(&mut engine)?);
            self.put(
                &format!("sharded.{name}_ns"),
                self.per_header(median(&times)),
            );
            self.put(&format!("sharded.{name}_spread"), spread(&times));
            if name == "hash4" {
                let us = self.churn_engine(engine.as_mut())?;
                self.put("sharded.update_us", us);
            }
        }

        let config = IngestConfig {
            workers: 1,
            queue_chunks: 8,
            chunk: 256,
        };
        let headers = self.probe.headers.clone();
        let chunk = &headers[..headers.len().min(config.chunk)];
        let mut out = Vec::new();
        let mut pipe = IngestPipeline::from_workers(vec![Box::new(NoOp)], config)?;
        const HOPS: u32 = 64;
        let hops = passes(self.slice / 2, 3, || {
            Ok(timed(|| {
                for _ in 0..HOPS {
                    pipe.run_batch(chunk, &mut out);
                }
            })
            .0)
        })?;
        pipe.shutdown();
        let hops = as_f64(&hops);
        self.put("pipeline.hop_us", median(&hops) / f64::from(HOPS) / 1e3);
        self.put("pipeline.hop_spread", spread(&hops));

        // The workload's own engine behind a one-worker pool, fed the
        // probe trace as pcap bytes: parse, queue hop and lookup
        // overlapping on two threads.
        let builder = EngineBuilder::from_spec(self.w.spec)?;
        let mut pipe =
            IngestPipeline::spawn(EngineSource::replicated(&builder, rules, 1)?, config)?;
        let capture = inputs::pcap_bytes(&headers)?;
        let runs = passes(self.slice, 3, || {
            let mut reader = PcapReader::from_bytes(capture.clone())?.with_chunk(config.chunk);
            let (ns, stats) = timed(|| pipe.run_source(&mut reader, &mut out));
            stats?;
            Ok(ns)
        })?;
        pipe.shutdown();
        self.tally.check_burst(&self.probe, &out, None);
        let lps: Vec<f64> = runs
            .iter()
            .map(|&ns| headers.len() as f64 * 1e9 / ns as f64)
            .collect();
        self.put("pipeline.run_source_lps", median(&lps));
        self.put("pipeline.run_source_spread", spread(&lps));
        Ok(())
    }

    fn backends(&mut self) -> Res<()> {
        let rules = &self.inputs.rules;
        for kind in BACKENDS {
            let builder = EngineBuilder::from_spec(kind)?;
            let mut engine = None;
            let builds = passes(self.slice / 2, 1, || {
                let (ns, built) = timed(|| builder.build(rules));
                engine = Some(built?);
                Ok(ns)
            })?;
            self.put(&format!("backend.{kind}.build_ms"), floor(&builds) / 1e6);
            let mut engine = engine.ok_or("no build pass ran")?;
            let times = self.lookup_passes(&mut engine)?;
            self.put(
                &format!("backend.{kind}.lookup_ns"),
                self.per_header(floor(&times)),
            );
            if UPDATABLE_BACKENDS.contains(&kind) {
                let us = self.churn_engine(engine.as_mut())?;
                self.put(&format!("backend.{kind}.update_us"), us);
            }
        }
        Ok(())
    }
}

/// The traced run of `w`: about `seconds` long, returning every
/// per-layer metric.
///
/// # Errors
///
/// When an engine or probe structure cannot be built over the
/// workload's rules — a defect of the benchmark's provisioning, reported
/// rather than skipped so the ledger never silently loses a row.
pub fn run(w: &Workload, quick: bool, seed: u64, seconds: f64) -> Res<Traced> {
    let wait_before = host::sched_wait_ns();
    let shape = w.shape(quick);
    let inputs = &Inputs::generate(w, quick, seed)?;
    let clock = Instant::now();
    let h = drive::run_traced(w, inputs, seconds * FRONT_SHARE, quick)?;
    let left = Duration::from_secs_f64(seconds).saturating_sub(clock.elapsed());
    let mut p = Probes {
        w,
        shape,
        inputs,
        probe: inputs.probe_trace(shape.probe),
        slice: left / PROBE_SLICES,
        values: Values::new(),
        tally: h.rec.tally,
    };

    let totals = h.rec.tracer.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let headers = (of("burst").count as usize * shape.burst).max(1) as f64;
    let mean = |total_ns: u64, count: u64| total_ns as f64 / count.max(1) as f64;
    p.put("span.count", h.rec.tracer.len() as f64);
    p.put(
        "span.build_ms",
        mean(of("build").total_ns, of("build").count) / 1e6,
    );
    p.put(
        "span.burst_self_ns",
        mean(of("burst").self_ns, of("burst").count),
    );
    p.put(
        "span.next_event_ns",
        of("pcap.next_event").total_ns as f64 / headers,
    );
    p.put("span.process_ns", of("process").total_ns as f64 / headers);
    p.put(
        "span.insert_us",
        mean(of("insert").total_ns, of("insert").count) / 1e3,
    );
    p.put(
        "span.remove_us",
        mean(of("remove").total_ns, of("remove").count) / 1e3,
    );
    // 1 − traced ÷ untraced floor throughput of the same run.
    p.put(
        "trace.overhead_share",
        1.0 - h.lookup.total_ns() as f64 / h.traced_lookup.total_ns() as f64,
    );
    p.put("noise.wall_ratio", h.wall_ratio());

    p.classbench()?;
    p.lookup()?;
    p.hwsim()?;
    p.core()?;
    p.engines()?;
    p.threaded()?;
    p.backends()?;

    p.put(
        "noise.sched_wait_ms",
        host::sched_wait_ns().saturating_sub(wait_before) as f64 / 1e6,
    );
    p.put("host.rss_mb", host::peak_rss_mb());
    Ok(Traced {
        values: p.values,
        tally: p.tally,
        tracer: h.rec.tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use crate::metrics::{per_layer, result_line};

    #[test]
    fn the_traced_run_reports_every_per_layer_metric() {
        let registry = per_layer();
        for w in &WORKLOADS {
            let traced = run(w, true, 3, 0.0).unwrap();
            assert_eq!(traced.tally.failed, 0, "{}", w.name);
            let line = result_line(&registry, &traced.values, traced.tally.attempted, 0);
            assert!(line.is_ok(), "{}: {line:?}", w.name);
            assert_eq!(traced.values.len(), registry.len(), "{}", w.name);
            // The attribution adds up by construction: what the field
            // lookups and Rule Filter probes do not explain has a row.
            let v = &traced.values;
            let explained = 4.0 * v["lookup.bst_ns"]
                + 2.0 * v["lookup.portregs_ns"]
                + v["lookup.protolut_ns"]
                + v["core.combos_probed"] * v["core.rulefilter_probe_ns"];
            let sum = explained + v["core.unattributed_ns"];
            assert!((sum - v["core.classify_probe_ns"]).abs() < 1e-6 * sum.abs().max(1.0));
            assert!(v["lookup.labels_per_query"] >= 1.0, "{}", w.name);
        }
    }

    #[test]
    fn the_mirrored_arch_reads_what_the_registry_engine_reads() {
        let w = &WORKLOADS[0];
        let inputs = Inputs::generate(w, true, 3).unwrap();
        let probe = inputs.probe_trace(w.quick.probe);
        let mut cls = Classifier::new(mirrored_arch(&inputs.rules));
        cls.load(&inputs.rules).unwrap();
        let mut engine = build_engine("configurable-bst", &inputs.rules).unwrap();
        let mut out = Vec::new();
        engine.classify_batch(&probe.headers, &mut out);
        for (h, v) in probe.headers.iter().zip(&out) {
            assert_eq!(cls.classify(h).total_reads(), v.mem_reads);
        }
    }
}
