//! Differential oracles for the streaming workload layer
//! (`spc::classbench`'s `TraceSource` family):
//!
//! * pcap replay — a synthetic trace written through `PcapWriter` and
//!   read back through `PcapReader` must classify *identically* to the
//!   original trace, for every registry backend, on the sequential and
//!   the `IngestPipeline::run_source` paths alike;
//! * malformed captures — bad magic, truncated record header, truncated
//!   packet body — must each surface as their own typed `PcapError`;
//! * scenario churn — a `ScenarioScript` driven through `run_scenario`
//!   must leave the engine verdict-equivalent to an oracle *rebuilt
//!   from scratch* over the live rule set (the same strongest-possible
//!   reference `tests/sharded_oracle.rs` uses).

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::{
    write_pcap, FilterKind, PcapError, PcapReader, RuleSetGenerator, ScenarioScript, TraceError,
    TraceGenerator, TraceSource,
};
use spc::engine::{
    build_engine, run_scenario, EngineBuilder, EngineKind, EngineSource, IngestConfig,
    IngestPipeline, Verdict, WorkloadError,
};
use spc::types::{Header, Priority, Rule, RuleId, RuleSet};

const RULES: usize = 240;
const TRACE: usize = 400;
const SEED: u64 = 20_14;

fn workload() -> (RuleSet, Vec<Header>, TraceGenerator) {
    let rules = RuleSetGenerator::new(FilterKind::Acl, RULES)
        .seed(SEED)
        .generate();
    // Locality and background traffic (odd protocols, arbitrary ports)
    // make the capture representative of the messy parts of real taps.
    let traffic = TraceGenerator::new()
        .seed(SEED ^ 0xf00d)
        .match_fraction(0.8)
        .locality(0.25);
    let trace = traffic.generate(&rules, TRACE);
    (rules, trace, traffic)
}

/// Compares replayed verdicts against the original pass. The cached
/// backend is stateful — a repeat of a flow is served from the cache at
/// `mem_reads = 1`, so cost annotations depend on classification order —
/// but the classification outcome (matched rule, priority, action) must
/// be identical packet-for-packet. Stateless backends keep the full
/// bit-for-bit contract.
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

/// Writes `trace` to an in-memory capture.
fn capture(trace: &[Header]) -> Vec<u8> {
    let mut w = spc::classbench::PcapWriter::new(Vec::new()).unwrap();
    for h in trace {
        w.write_header(h).unwrap();
    }
    w.finish().unwrap()
}

/// The writer→reader round trip is the identity on headers.
#[test]
fn pcap_roundtrip_reproduces_the_trace() {
    let (_, trace, _) = workload();
    let replayed = PcapReader::from_bytes(capture(&trace))
        .unwrap()
        .collect_headers()
        .unwrap();
    assert_eq!(replayed, trace);

    // Through a real file too.
    let path = std::env::temp_dir().join(format!("spc_trace_replay_{}.pcap", std::process::id()));
    write_pcap(&path, trace.iter().copied()).unwrap();
    let replayed = PcapReader::open(&path).unwrap().collect_headers().unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(replayed, trace);
}

/// Every registry backend classifies the pcap-replayed trace exactly as
/// it classifies the original synthetic trace — sequentially and when
/// the capture is streamed through the ingest pipeline.
#[test]
fn replayed_trace_classifies_identically_for_every_backend() {
    let (rules, trace, _) = workload();
    let bytes = capture(&trace);
    for kind in EngineKind::ALL {
        let builder = EngineBuilder::new(kind);
        let mut engine = builder.build(&rules).unwrap();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        engine.classify_batch(&trace, &mut want);

        let replayed = PcapReader::from_bytes(bytes.clone())
            .unwrap()
            .collect_headers()
            .unwrap();
        engine.classify_batch(&replayed, &mut got);
        assert_verdicts_match(kind, &got, &want, "replay vs original, sequential");

        // Streamed: the capture drives the worker pool directly.
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
        let mut reader = PcapReader::from_bytes(bytes.clone())
            .unwrap()
            .with_chunk(53);
        let stats = pipe.run_source(&mut reader, &mut got).unwrap();
        assert_verdicts_match(kind, &got, &want, "replay vs original, run_source");
        assert_eq!(stats.packets, trace.len() as u64, "{kind}");
    }
}

/// Each class of capture damage yields its own typed error — through
/// the `TraceSource` surface, as a consumer would see it.
#[test]
fn malformed_captures_yield_distinct_typed_errors() {
    let (_, trace, _) = workload();
    let good = capture(&trace);

    let mut bad_magic = good.clone();
    bad_magic[0..4].copy_from_slice(&0x0bad_f00du32.to_le_bytes());
    assert!(matches!(
        PcapReader::from_bytes(bad_magic).unwrap_err(),
        PcapError::BadMagic { magic: 0x0bad_f00d }
    ));

    // Cut mid-way through a record header (16 bytes after the 24-byte
    // file header + one full 40-byte record).
    let cut_header = good[..24 + 40 + 9].to_vec();
    let e = PcapReader::from_bytes(cut_header)
        .unwrap()
        .collect_headers()
        .unwrap_err();
    assert!(
        matches!(
            e,
            TraceError::Pcap(PcapError::TruncatedRecordHeader {
                offset: 64,
                have: 9
            })
        ),
        "{e}"
    );

    // Cut mid-way through a packet body.
    let cut_body = good[..24 + 40 + 16 + 3].to_vec();
    let e = PcapReader::from_bytes(cut_body)
        .unwrap()
        .collect_headers()
        .unwrap_err();
    assert!(
        matches!(
            e,
            TraceError::Pcap(PcapError::TruncatedPacketBody {
                need: 24,
                have: 3,
                ..
            })
        ),
        "{e}"
    );
}

/// Scenario churn against every updatable registry configuration,
/// checked against an oracle rebuilt from scratch over the live rules:
/// any state the update path corrupts shows up as a verdict
/// disagreement.
#[test]
fn scenario_churn_matches_rebuilt_oracle() {
    let (base, probe, traffic) = workload();
    // Foreign-family pool with fresh priorities: rare duplicates, and
    // inserts land across the whole priority order.
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
        "configurable-bst",
        "configurable-mbt",
        "sharded:inner=configurable-bst,shards=2,strategy=prio",
        "sharded:inner=configurable-bst,shards=8,strategy=hash",
    ] {
        let mut engine = build_engine(spec, &base).unwrap();
        let mut source = script
            .source(&traffic, &base, &pool)
            .unwrap()
            .with_chunk(32);
        let mut verdicts = Vec::new();
        let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts)
            .unwrap_or_else(|e| panic!("{spec}: scenario failed: {e}"));
        assert_eq!(report.lookup.packets, 300, "{spec}");
        assert_eq!(verdicts.len(), 300, "{spec}");
        assert_eq!(report.inserts + report.duplicates, 72, "{spec}");
        assert_eq!(report.removes + report.skipped_removes, 36, "{spec}");

        // Rebuild the reference over base + surviving inserts; its
        // positional ids map back through `live` (both sides allocate
        // ids in insertion order, so priority ties break identically).
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

/// The same scenario source replayed twice produces the same events —
/// so scenario measurements are reproducible run to run.
#[test]
fn scenario_runs_are_deterministic() {
    let (base, _, traffic) = workload();
    let pool = RuleSetGenerator::new(FilterKind::Ipc, 30)
        .seed(SEED ^ 0x3)
        .generate();
    let script = ScenarioScript::parse("repeat 3 { insert 5; classify 40; remove 5 }").unwrap();
    let run = || {
        let mut engine = build_engine("configurable-bst", &base).unwrap();
        let mut source = script.source(&traffic, &base, pool.rules()).unwrap();
        let mut verdicts = Vec::new();
        let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts).unwrap();
        (verdicts, report.inserts, report.update_cycles())
    };
    assert_eq!(run(), run());
}

/// A classify-only consumer refuses a churn scenario loudly.
#[test]
fn pipeline_rejects_churn_scenarios() {
    let (base, _, traffic) = workload();
    let pool = RuleSetGenerator::new(FilterKind::Fw, 8)
        .seed(SEED)
        .generate();
    let script = ScenarioScript::parse("insert 1; classify 10; remove 1").unwrap();
    let mut source = script.source(&traffic, &base, pool.rules()).unwrap();
    let source_builder = EngineBuilder::new(EngineKind::Linear);
    let mut pipe = IngestPipeline::spawn(
        EngineSource::replicated(&source_builder, &base, 2).unwrap(),
        IngestConfig {
            workers: 2,
            queue_chunks: 2,
            chunk: 16,
        },
    )
    .unwrap();
    let mut out: Vec<Verdict> = Vec::new();
    let e = pipe.run_source(&mut source, &mut out).unwrap_err();
    assert!(
        matches!(e, WorkloadError::Source(TraceError::UnexpectedUpdate)),
        "{e}"
    );
}
