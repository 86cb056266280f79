//! Adversarial fuzz tier: structure-aware, seeded rule-set mutators
//! cross-checked against the semantic oracle.
//!
//! Three layers, all driven by the vendored SplitMix64 generator so every
//! failure reproduces from its seed:
//!
//! 1. **Parser robustness** — mutated ClassBench rule text, scenario
//!    scripts, engine spec strings and pcap captures (bit flips,
//!    truncation, token garbage, deep nesting) must never panic the
//!    parsers; they may only return errors.
//! 2. **Differential backends** — every adversarial rule set builds on
//!    every registry backend (`EngineKind::ALL`), and each backend
//!    returns LinearSearch's verdict on every probe header.
//! 3. **Analyzer cross-check** — `spc_analyze` predictions are compared
//!    against observed behaviour: flagged-shadowed rules are never the
//!    highest-priority match, exhaustive reports miss no dead rule, and
//!    the label-cardinality / distinct-key estimates equal the label and
//!    Rule Filter occupancy of a really-built `spc_core::Classifier`.
//!
//! The mutators draw field values from small pools on purpose: tiny
//! per-dimension alphabets keep the elementary-interval probe grid within
//! the analyzer's budget (so reports are `exhaustive` and the
//! completeness check has teeth) while still generating wildcard-heavy,
//! shadow-chained, duplicate-ridden and degenerate-range sets that the
//! ClassBench generators never emit.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use spc::analyze::{analyze, candidate_values, grid_size, Reachability};
use spc::classbench::{PcapReader, PcapWriter, ScenarioScript, TraceEvent, TraceSource};
use spc::core::{ArchConfig, Classifier};
use spc::engine::{BuildError, EngineBuilder, EngineKind};
use spc::types::{
    parse_ruleset, write_ruleset, Header, PortRange, Prefix, Priority, ProtoSpec, Rule, RuleId,
    RuleSet,
};

/// Adversarial sets per differential/cross-check run (the acceptance bar
/// is 50; a few extra guard against future pool tweaks).
const SETS: usize = 60;
const _: () = assert!(SETS >= 50, "corpus below the 50-set acceptance bar");
/// Base seed for the whole tier (change = a new corpus, on purpose).
const FUZZ_SEED: u64 = 0x5bc_2014;

/// IP prefix alphabet: wildcard, a short prefix, a /16 and a host — the
/// minimum that exercises any/partial/exact segment labels in both the
/// upper and lower 16-bit halves.
fn prefix_pool() -> Vec<Prefix> {
    ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.3/32"]
        .iter()
        .map(|s| Prefix::parse(s).unwrap())
        .collect()
}

/// Port alphabet: wildcard, exact, the two classic halves, a short odd
/// range and the maximally pathological almost-full range (30 prefixes).
fn port_pool() -> Vec<PortRange> {
    vec![
        PortRange::ANY,
        PortRange::exact(80),
        PortRange::new(0, 1023).unwrap(),
        PortRange::new(1024, 65535).unwrap(),
        PortRange::new(1000, 1016).unwrap(),
        PortRange::new(1, 65534).unwrap(),
    ]
}

fn proto_pool() -> Vec<ProtoSpec> {
    vec![ProtoSpec::Any, ProtoSpec::Exact(6), ProtoSpec::Exact(17)]
}

fn random_rule(rng: &mut StdRng, priority: u32) -> Rule {
    let prefixes = prefix_pool();
    let ports = port_pool();
    let protos = proto_pool();
    Rule::builder(Priority(priority))
        .src_ip(*prefixes.choose(rng).unwrap())
        .dst_ip(*prefixes.choose(rng).unwrap())
        .src_port(*ports.choose(rng).unwrap())
        .dst_port(*ports.choose(rng).unwrap())
        .proto(*protos.choose(rng).unwrap())
        .build()
}

/// One adversarial rule set: random draws from the pools, plus seeded
/// structural attacks — shadow chains (a later rule covered dim-by-dim
/// by an earlier one) and occasional all-wildcard rules at random
/// positions. Priorities follow insertion order, with occasional ties so
/// the id tie-break is exercised. Duplicate 5-tuples are filtered out
/// here; `duplicate_injection` adds them back deliberately.
fn adversarial_set(seed: u64) -> RuleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..=10);
    let mut rules: Vec<Rule> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut priority = 0u32;
    while rules.len() < n {
        // Ties in ~1/4 of steps: the previous priority repeats.
        if !rules.is_empty() && rng.gen_bool(0.25) {
            priority = priority.saturating_sub(1);
        }
        let rule = if rng.gen_bool(0.15) {
            // All-wildcard catch-all, anywhere in the order.
            Rule::any(Priority(priority))
        } else if !rules.is_empty() && rng.gen_bool(0.3) {
            // Shadow-chain attack: specialise an existing rule by
            // narrowing one field, leaving the rest identical — covered
            // dim-by-dim when placed later at lower priority.
            let base = *rules.as_slice().choose(&mut rng).unwrap();
            let mut r = base;
            r.priority = Priority(priority);
            match rng.gen_range(0u8..3) {
                0 => r.src_ip = Prefix::parse("10.1.2.3/32").unwrap(),
                1 => r.dst_port = PortRange::exact(80),
                _ => r.proto = ProtoSpec::Exact(6),
            }
            r
        } else {
            random_rule(&mut rng, priority)
        };
        priority += 1;
        if seen.insert(rule.dim_values()) {
            rules.push(rule);
        }
    }
    RuleSet::from_rules(rules)
}

/// All probe headers of the elementary-interval grid (panics if the grid
/// overflows — the pools are sized so it never does here).
fn grid_headers(rules: &RuleSet) -> Vec<Header> {
    let cands = candidate_values(rules);
    let size = grid_size(&cands).expect("pool alphabets keep the grid tiny");
    let mut out = Vec::with_capacity(size);
    let mut idx = [0usize; 7];
    loop {
        let vals = [
            cands[0][idx[0]],
            cands[1][idx[1]],
            cands[2][idx[2]],
            cands[3][idx[3]],
            cands[4][idx[4]],
            cands[5][idx[5]],
            cands[6][idx[6]],
        ];
        out.push(spc::analyze::header_from_dims(vals));
        let mut d = 6;
        loop {
            idx[d] += 1;
            if idx[d] < cands[d].len() {
                break;
            }
            idx[d] = 0;
            if d == 0 {
                return out;
            }
            d -= 1;
        }
    }
}

/// The HPM winners actually observed over the full probe grid, per the
/// semantic oracle (`RuleSet::classify`). Because the analyzer's verdict
/// is piecewise-constant over exactly this grid, "observed here" is
/// ground truth for reachability.
fn observed_winners(rules: &RuleSet, grid: &[Header]) -> std::collections::HashSet<RuleId> {
    grid.iter()
        .filter_map(|h| rules.classify(h).map(|(id, _)| id))
        .collect()
}

#[test]
fn adversarial_sets_cross_check_analyzer_oracle_and_backends() {
    let mut exhaustive_sets = 0usize;
    for i in 0..SETS {
        let seed = FUZZ_SEED + i as u64;
        let rules = adversarial_set(seed);
        let report = analyze(&rules);
        assert_eq!(report.rules, rules.len(), "seed {seed}");

        let grid = grid_headers(&rules);
        let winners = observed_winners(&rules, &grid);

        // Witnesses really witness: classifying a Reachable witness
        // returns exactly the rule it was produced for.
        for (id, r) in report.reachability.iter().enumerate() {
            let id = RuleId(id as u32);
            match r {
                Reachability::Reachable { witness } => {
                    let (got, _) = rules
                        .classify(witness)
                        .unwrap_or_else(|| panic!("seed {seed}: witness for {id} matches nothing"));
                    assert_eq!(got, id, "seed {seed}: witness names the wrong winner");
                }
                Reachability::Shadowed | Reachability::Unknown => {}
            }
        }

        // Soundness: a rule the analyzer calls shadowed is never the
        // highest-priority match anywhere on the grid.
        let flagged: std::collections::HashSet<RuleId> =
            report.shadowed_rules().into_iter().collect();
        for id in &flagged {
            assert!(
                !winners.contains(id),
                "seed {seed}: analyzer flagged {id} shadowed but the oracle observed it winning"
            );
        }
        // Completeness (zero false negatives): under an exhaustive
        // sweep, every rule that never wins on the grid is flagged.
        if report.exhaustive {
            exhaustive_sets += 1;
            for (id, _) in rules.iter() {
                if !winners.contains(&id) {
                    assert!(
                        flagged.contains(&id),
                        "seed {seed}: {id} never wins on the grid but was not flagged shadowed"
                    );
                }
            }
        }

        // Label-cardinality and key-count predictions equal the label
        // and Rule Filter occupancy of a really-built classifier.
        let mut cls = Classifier::new(ArchConfig::large());
        for (_, rule) in rules.iter() {
            cls.insert(*rule)
                .unwrap_or_else(|e| panic!("seed {seed}: large() config must hold the set: {e}"));
        }
        assert_eq!(
            cls.live_labels(),
            report.dim_cardinality,
            "seed {seed}: predicted per-dimension labels vs live label tables"
        );
        assert_eq!(
            cls.rule_filter().len(),
            report.distinct_keys,
            "seed {seed}: predicted distinct keys vs Rule Filter occupancy"
        );

        // Differential: every registry backend (`EngineKind::ALL`) agrees
        // with LinearSearch on every probe header of the grid.
        let oracle = EngineBuilder::new(EngineKind::Linear)
            .build(&rules)
            .unwrap();
        let want: Vec<_> = grid.iter().map(|h| oracle.classify(h)).collect();
        for kind in EngineKind::ALL {
            let engine = EngineBuilder::new(kind)
                .build(&rules)
                .unwrap_or_else(|e| panic!("seed {seed}: {kind} rejected the set: {e}"));
            for (h, want) in grid.iter().zip(&want) {
                let got = engine.classify(h);
                assert_eq!(
                    got.rule, want.rule,
                    "seed {seed}: {kind} disagrees with LinearSearch at {h}"
                );
                assert_eq!(got.action, want.action, "seed {seed}: {kind} action at {h}");
            }
        }
    }
    // The acceptance bar: the overwhelming majority of sets swept
    // under an exhaustive (exact) analysis.
    assert!(
        exhaustive_sets >= SETS - 5,
        "only {exhaustive_sets}/{SETS} sets swept exhaustively; shrink the pools"
    );
}

#[test]
fn duplicate_injection_is_flagged_and_rejected_everywhere() {
    for i in 0..20 {
        let seed = FUZZ_SEED ^ 0xd0b0 ^ (i as u64) << 8;
        let mut rng = StdRng::seed_from_u64(seed);
        let base = adversarial_set(seed);
        // Re-insert a copy of an existing rule at a random position
        // (fresh priority, identical 5-tuple).
        let mut rules: Vec<Rule> = base.rules().to_vec();
        let dup = *rules.as_slice().choose(&mut rng).unwrap();
        let at = rng.gen_range(0..=rules.len());
        rules.insert(at, dup);
        let rules = RuleSet::from_rules(rules);

        let report = analyze(&rules);
        assert!(
            report.has_errors(),
            "seed {seed}: duplicate 5-tuple must be an error finding"
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind.code() == "duplicate-rule"),
            "seed {seed}: missing duplicate-rule finding"
        );
        for kind in EngineKind::ALL {
            match EngineBuilder::new(kind).build(&rules) {
                Err(BuildError::DuplicateRules { first, dup }) => {
                    assert_eq!(
                        rules.get(first).unwrap().dim_values(),
                        rules.get(dup).unwrap().dim_values(),
                        "seed {seed}: {kind} blamed non-identical rules"
                    );
                }
                other => panic!(
                    "seed {seed}: {kind} must reject duplicate sets with \
                     DuplicateRules, got {other:?}"
                ),
            }
        }
    }
}

#[test]
fn seeded_reports_are_byte_identical() {
    for seed in [FUZZ_SEED, FUZZ_SEED + 7, FUZZ_SEED + 31] {
        let a = analyze(&adversarial_set(seed));
        let b = analyze(&adversarial_set(seed));
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "seed {seed}: same seed must reproduce the identical report"
        );
    }
    let a = analyze(&adversarial_set(FUZZ_SEED));
    let b = analyze(&adversarial_set(FUZZ_SEED + 1));
    assert_ne!(
        format!("{a:?}"),
        format!("{b:?}"),
        "different seeds should produce different corpora"
    );
}

/// Applies `n` random byte-level mutations: flips, deletions and
/// truncations, plus occasional garbage splices.
fn mutate_bytes(rng: &mut StdRng, data: &mut Vec<u8>, n: usize) {
    for _ in 0..n {
        if data.is_empty() {
            data.push(rng.gen());
            continue;
        }
        match rng.gen_range(0u8..4) {
            0 => {
                let at = rng.gen_range(0..data.len());
                data[at] ^= 1 << rng.gen_range(0u8..8);
            }
            1 => {
                let at = rng.gen_range(0..data.len());
                data.remove(at);
            }
            2 => {
                let keep = rng.gen_range(0..=data.len());
                data.truncate(keep);
            }
            _ => {
                let at = rng.gen_range(0..=data.len());
                let garbage: u8 = rng.gen();
                data.insert(at, garbage);
            }
        }
    }
}

#[test]
fn mutated_rule_text_never_panics_the_parser() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 0x7e47);
    for i in 0..100 {
        let base = write_ruleset(&adversarial_set(FUZZ_SEED + i));
        let mut data = base.into_bytes();
        mutate_bytes(&mut rng, &mut data, 1 + (i as usize % 8));
        // Errors are fine (and expected); only a panic fails the test.
        let _ = parse_ruleset(&String::from_utf8_lossy(&data));
    }
    // Unmutated text still round-trips, so the corpus above is "near
    // valid" rather than trivially rejected at byte 0.
    let rs = adversarial_set(FUZZ_SEED);
    let reparsed = parse_ruleset(&write_ruleset(&rs)).expect("round-trip");
    assert_eq!(reparsed.len(), rs.len());
}

#[test]
fn mutated_scenario_scripts_never_panic_the_parser() {
    let corpus = [
        "insert 10; classify 100; remove 10",
        "repeat 5 { insert 2; classify 8; remove 2 }",
        "classify 1\nrepeat 3 { repeat 2 { insert 1 } remove 6 }",
        "# comment only\n",
        "insert 18446744073709551615; repeat 4294967295 { classify 1 }",
    ];
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 0x5ce7);
    for i in 0..100u64 {
        let base = corpus[(i as usize) % corpus.len()];
        let mut data = base.as_bytes().to_vec();
        mutate_bytes(&mut rng, &mut data, 1 + (i as usize % 6));
        let _ = ScenarioScript::parse(&String::from_utf8_lossy(&data));
    }
    assert!(ScenarioScript::parse(corpus[0]).is_ok());
}

#[test]
fn mutated_spec_strings_never_panic_the_parser() {
    // The repo's own spec strings, deepest nesting included, as the
    // mutation substrate.
    let corpus = [
        "configurable-bst:rf_bits=14,combine=first",
        "sharded:inner=(configurable-mbt:rf_bits=13),shards=2",
        "sharded:inner=(tcam:capacity=64),shards=8,strategy=hash,hash_dim=dst_port",
        "cached:inner=(sharded:inner=configurable-bst,shards=4),flows=8192",
        "snapshot:inner=(sharded:inner=configurable-bst,shards=4,strategy=hash,hash_dim=dst_port)",
        "snapshot:inner=(cached:inner=(sharded:inner=(tcam:capacity=4096),shards=4),flows=64)",
        "tcam:capacity=1024",
    ];
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 0x5bec);
    for i in 0..400u64 {
        let base = corpus[(i as usize) % corpus.len()];
        assert!(EngineBuilder::from_spec(base).is_ok(), "{base}");
        let mut data = base.as_bytes().to_vec();
        // Structure-aware first — the grammar's own punctuation spliced
        // in at random — then the byte-level flips and truncations.
        for _ in 0..(i % 4) {
            let at = rng.gen_range(0..=data.len());
            data.insert(at, b"(),:="[rng.gen_range(0..5usize)]);
        }
        mutate_bytes(&mut rng, &mut data, (i as usize) % 5);
        // Ok or a typed BuildError are both fine; only a panic (or a
        // stack overflow, which aborts the whole test binary) fails.
        if let Ok(b) = EngineBuilder::from_spec(&String::from_utf8_lossy(&data)) {
            assert_eq!(EngineBuilder::from_spec(&b.to_string()), Ok(b));
        }
    }
    // Nesting deeper than any stack: every legal and illegal wrapper
    // alternation, 20 000 levels, balanced and not.
    for pair in [
        "cached:inner=(snapshot:inner=(",
        "snapshot:inner=(sharded:inner=(",
    ] {
        let open = pair.repeat(10_000);
        for close in [0, 20_000] {
            let spec = format!("{open}linear{}", ")".repeat(close));
            assert!(EngineBuilder::from_spec(&spec).is_err(), "{pair} x{close}");
        }
    }
}

#[test]
fn mutated_pcap_captures_never_panic_the_reader() {
    // A small valid capture as the mutation substrate.
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for p in 0..16u16 {
        let h = Header::new(
            [10, 1, (p % 4) as u8, 1].into(),
            [192, 168, 0, (p % 8) as u8].into(),
            1000 + p,
            80,
            if p % 2 == 0 { 6 } else { 17 },
        );
        w.write_header(&h).unwrap();
    }
    let base = w.finish().unwrap();

    /// A stream that trickles in seven bytes per `read`: records
    /// straddle every refill of the reader's window.
    struct Trickle(std::io::Cursor<Vec<u8>>);
    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7);
            self.0.read(&mut buf[..n])
        }
    }
    // Both construction and the streaming drain may error; neither may
    // panic or loop forever.
    let drain = |reader: Result<PcapReader, _>| {
        let mut reader = reader.ok()?;
        let mut got = Vec::new();
        while let Ok(Some(TraceEvent::Headers(chunk))) = reader.next_event() {
            got.extend(chunk);
        }
        Some((got, reader.packets(), reader.skipped()))
    };

    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 0xbcab);
    for i in 0..100usize {
        let mut data = base.clone();
        mutate_bytes(&mut rng, &mut data, 1 + i % 12);
        // However the bytes arrive, the reader sees the same capture.
        let streamed = PcapReader::new(Box::new(Trickle(std::io::Cursor::new(data.clone()))));
        assert_eq!(
            drain(PcapReader::from_bytes(data)),
            drain(streamed),
            "mutant {i}"
        );
    }
    // And the unmutated capture parses completely.
    let mut reader = PcapReader::from_bytes(base).unwrap();
    let mut packets = 0;
    while let Ok(Some(_)) = reader.next_event() {
        packets += 1;
    }
    assert!(packets >= 1 && reader.packets() == 16);
}
