//! Firewall workload: replay a captured traffic trace against a
//! FW-style rule set through the unified engine API and account
//! actions + lookup cost.
//!
//! The traffic takes the captured-traffic path end to end: a synthetic
//! trace is exported to a classic pcap file (as if tcpdump had been
//! running at the tap), then the capture is replayed through
//! `PcapReader` — the `TraceSource` every engine harness consumes — and
//! the verdicts are checked to be identical to classifying the
//! original trace.
//!
//! Run with `cargo run --release --example firewall`.

use spc::classbench::TraceSource;
use spc::classbench::{write_pcap, FilterKind, PcapReader, RuleSetGenerator, TraceGenerator};
use spc::engine::build_engine;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An enterprise-scale firewall policy. A security middlebox needs the
    // exact HPMR, which is what every configurable spec builds: every
    // label combination that could hold a rule at least as good as the
    // HPMR is hashed into the Rule Filter. On wildcard-heavy FW rules
    // that box is large, and its cost is reported honestly below.
    let rules = RuleSetGenerator::new(FilterKind::Fw, 500)
        .seed(7)
        .generate();
    let mut engine = build_engine("configurable-mbt:rf_bits=14", &rules)?;
    println!(
        "firewall with {} rules loaded on {}",
        engine.rules(),
        engine.kind().title()
    );

    // "Capture" the traffic at the tap: stream 5 000 synthetic headers
    // (with flow locality) straight into a pcap file...
    let workload = TraceGenerator::new()
        .seed(42)
        .match_fraction(0.85)
        .locality(0.3);
    let capture = std::env::temp_dir().join(format!("spc_firewall_{}.pcap", std::process::id()));
    let captured = write_pcap(&capture, workload.stream(&rules, 5_000))?;
    println!("captured {captured} packets to {}", capture.display());

    // ...and replay the capture into the classifier.
    let mut reader = PcapReader::open(&capture)?;
    let trace = (&mut reader).collect_headers()?;
    println!(
        "replayed {} packets ({} non-IPv4 skipped)",
        reader.packets(),
        reader.skipped()
    );
    std::fs::remove_file(&capture)?;

    // One batch call: verdicts for the action breakdown, stats for cost.
    let mut verdicts = Vec::new();
    let stats = engine.classify_batch(&trace, &mut verdicts);

    let mut actions: BTreeMap<String, usize> = BTreeMap::new();
    let mut misses = 0usize;
    for v in &verdicts {
        match v.action {
            Some(a) => *actions.entry(a.to_string()).or_insert(0) += 1,
            None => misses += 1,
        }
    }
    println!("\naction breakdown over {} packets:", stats.packets);
    for (a, n) in &actions {
        println!("  {a:<16} {n}");
    }
    println!("  {:<16} {misses} (default-drop)", "miss");

    println!("\navg {:.1} memory reads/packet", stats.avg_mem_reads());

    // The capture round-trips: replayed traffic is the original trace.
    let original = workload.generate(&rules, 5_000);
    assert_eq!(trace, original, "pcap replay must reproduce the capture");

    // PriorityProbe is exact by construction: verify against the oracle
    // backend through the same API.
    let oracle = build_engine("linear", &rules)?;
    let exact = trace
        .iter()
        .zip(&verdicts)
        .filter(|(h, v)| oracle.classify(h).rule == v.rule)
        .count();
    println!(
        "exact-HPMR rate vs oracle: {:.1}% (PriorityProbe is exact by construction)",
        100.0 * exact as f64 / trace.len() as f64
    );
    assert_eq!(exact, trace.len());
    // Sanity: a default-drop firewall must never forward unmatched traffic.
    assert!(misses + actions.values().sum::<usize>() == trace.len());
    Ok(())
}
