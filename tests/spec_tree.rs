//! The spec tree's nesting table, exercised by construction rather than
//! by a hand-kept list: every ordered pair of `EngineKind::ALL`, and
//! every ordering of the three wrappers, is either legal by
//! `legal_nesting` — then it must parse, build, agree with `linear`,
//! keep the update-report contract and, under `snapshot`, serve a
//! reader through churn — or illegal — then the spec parser, the only
//! way to describe a tree, must answer with a `ConfigError`. A backend
//! or wrapper added to the registry is covered the moment it registers.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc::engine::{
    legal_nesting, BuildError, EngineBuilder, EngineKind, PacketClassifier, UpdateError,
};
use spc::types::{Action, Header, PortRange, Priority, ProtoSpec, Rule, RuleId, RuleSet};

/// Whether every ancestor/descendant pair on `path` is legal.
fn legal(path: &[EngineKind]) -> bool {
    (0..path.len()).all(|i| {
        path[i + 1..]
            .iter()
            .all(|&d| legal_nesting(path[i], d).is_ok())
    })
}

/// `a:inner=(b:inner=(c))` for the path `[a, b, c]`.
fn spec_of(path: &[EngineKind]) -> String {
    match path {
        [] => String::new(),
        [leaf] => leaf.to_string(),
        [outer, rest @ ..] => format!("{outer}:inner=({})", spec_of(rest)),
    }
}

/// Every path the matrix covers: all ordered pairs, plus every ordering
/// of the kinds that can wrap anything at all (over the default leaf).
fn paths() -> Vec<Vec<EngineKind>> {
    let mut paths = Vec::new();
    for outer in EngineKind::ALL {
        for inner in EngineKind::ALL {
            paths.push(vec![outer, inner]);
        }
    }
    let wrappers: Vec<EngineKind> = EngineKind::ALL
        .into_iter()
        .filter(|&k| legal_nesting(k, EngineKind::Linear).is_ok())
        .collect();
    for &a in &wrappers {
        for &b in &wrappers {
            for &c in &wrappers {
                paths.push(vec![a, b, c]);
                paths.push(vec![a, b, c, EngineKind::Linear]);
            }
        }
    }
    paths
}

fn probe_rule() -> Rule {
    Rule::builder(Priority(0))
        .dst_port(PortRange::exact(61_234))
        .proto(ProtoSpec::Exact(132))
        .action(Action::Forward(7))
        .build()
}

/// The update-report contract in brief (`tests/properties.rs` holds
/// the long form): a successful update replaces the report with one
/// naming its rule, a failed one leaves it.
fn report_smoke(spec: &str, e: &mut dyn PacketClassifier) {
    assert_eq!(e.last_update_report(), None, "{spec}");
    if !e.supports_updates() {
        assert!(
            matches!(e.insert(probe_rule()), Err(UpdateError::Unsupported { .. })),
            "{spec}"
        );
        assert_eq!(e.last_update_report(), None, "{spec}");
        return;
    }
    let id = e.insert(probe_rule()).unwrap();
    let report = e.last_update_report().expect(spec);
    assert_eq!(report.rule_id, id, "{spec}");
    assert!(e.insert(probe_rule()).is_err(), "{spec}: duplicate");
    assert!(e.remove(RuleId(9_999_999)).is_err(), "{spec}: unknown id");
    assert_eq!(e.last_update_report(), Some(report), "{spec}");
    e.remove(id).unwrap();
    assert_eq!(e.last_update_report().expect(spec).rule_id, id, "{spec}");
}

/// The snapshot writer under a refreshing reader: eight alternating
/// insert / remove steps, each rule shadowing a traced flow, every
/// verdict the reader gives held to `linear` over the live set. Inners
/// that update in place put the writer's recycle path under every such
/// kind; build-once inners keep its rebuild path honest.
fn snapshot_churn_smoke(spec: &str, builder: &EngineBuilder, rules: &RuleSet, trace: &[Header]) {
    let mut writer = builder.build_snapshot(rules).expect(spec);
    let mut reader = writer.reader();
    let mut live: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
    let mut flows: Vec<(u16, u8)> = trace.iter().map(|h| (h.dst_port, h.proto)).collect();
    flows.sort_unstable();
    flows.dedup();
    let mut churned = Vec::new();
    for step in 0..8 {
        let id = if step % 2 == 0 {
            let (port, proto) = flows[step * flows.len() / 8];
            let rule = Rule::builder(Priority(0))
                .dst_port(PortRange::exact(port))
                .proto(ProtoSpec::Exact(proto))
                .action(Action::Forward(step as u16))
                .build();
            let id = writer
                .insert(rule)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            live.push((id, rule));
            churned.push(id);
            id
        } else {
            // Oldest first, so a rule outlives the insert after it.
            let id = churned.remove(0);
            writer.remove(id).unwrap_or_else(|e| panic!("{spec}: {e}"));
            live.retain(|&(g, _)| g != id);
            id
        };
        let report = writer.last_update_report().expect(spec);
        assert_eq!(report.rule_id, id, "{spec} step {step}");
        let set: RuleSet = live.iter().map(|&(_, r)| r).collect();
        let oracle = EngineBuilder::new(EngineKind::Linear).build(&set).unwrap();
        for h in trace {
            let (got, want) = (reader.classify(h), oracle.classify(h));
            let want_id = want.rule.map(|local| live[local.0 as usize].0);
            assert_eq!(got.rule, want_id, "{spec} step {step} at {h}");
            assert_eq!(got.action, want.action, "{spec} step {step} at {h}");
        }
        assert_eq!(reader.update_epoch(), step as u64 + 1, "{spec}");
        assert_eq!(reader.last_update_report(), Some(report), "{spec}");
    }
}

#[test]
fn nesting_matrix_follows_the_table() {
    let rules = RuleSetGenerator::new(FilterKind::Acl, 60)
        .seed(13)
        .generate();
    let trace: Vec<Header> = TraceGenerator::new()
        .seed(14)
        .match_fraction(0.85)
        .generate(&rules, 256);
    let oracle = EngineBuilder::new(EngineKind::Linear)
        .build(&rules)
        .unwrap();
    let (mut built, mut refused) = (0, 0);
    for path in paths() {
        let spec = spec_of(&path);
        if legal(&path) {
            let parsed = EngineBuilder::from_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let mut engine = parsed
                .build(&rules)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(engine.kind(), path[0], "{spec}");
            for h in &trace {
                assert_eq!(engine.classify(h).rule, oracle.classify(h).rule, "{spec}");
            }
            report_smoke(&spec, engine.as_mut());
            if path[0] == EngineKind::Snapshot {
                snapshot_churn_smoke(&spec, &parsed, &rules, &trace);
            }
            built += 1;
        } else {
            let result = EngineBuilder::from_spec(&spec);
            assert!(
                matches!(result, Err(BuildError::ConfigError { .. })),
                "{spec}: expected a ConfigError, got {result:?}"
            );
            refused += 1;
        }
    }
    // Three wrappers over any other kind, minus snapshot-under-sharded;
    // three legal orderings of all three wrappers, bare and over a leaf.
    assert_eq!(built, 3 * 12 - 1 + 2 * 3, "legal paths built");
    assert!(refused > built, "most of the matrix is illegal nesting");
}

/// Every spec string the README and `docs/*.md` show — a backticked
/// token that starts with a registered kind — parses, and its canonical
/// `Display` round-trips to an equal tree, so a deleted key that a doc
/// still shows fails here. The nestings a doc shows *as rejected* must
/// fail instead.
#[test]
fn readme_specs_parse_and_round_trip() {
    const MUST_FAIL: [&str; 2] = ["snapshot:inner=snapshot", "sharded:inner=snapshot"];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    files.extend(
        std::fs::read_dir(root.join("docs"))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "md")),
    );
    let (mut seen, mut refused) = (0, 0);
    for file in &files {
        let at = file.display();
        let text = std::fs::read_to_string(file).unwrap();
        for token in text.split('`').skip(1).step_by(2) {
            let kind = token.split(':').next().unwrap_or("");
            let placeholder = token.contains(['<', '|', ' ', '*', '…']) || token.contains("...");
            if placeholder || kind.parse::<EngineKind>().is_err() {
                continue;
            }
            let parsed = EngineBuilder::from_spec(token);
            if MUST_FAIL.contains(&token) {
                assert!(parsed.is_err(), "{at} `{token}` is documented as rejected");
                refused += 1;
                continue;
            }
            let b = parsed.unwrap_or_else(|e| panic!("{at} `{token}`: {e}"));
            assert_eq!(EngineBuilder::from_spec(&b.to_string()), Ok(b), "{token}");
            seen += 1;
        }
    }
    assert!(
        seen >= 50,
        "the README cheatsheet and the docs list specs ({seen} found)"
    );
    assert_eq!(refused, MUST_FAIL.len(), "docs/concurrency.md shows both");
}

/// A sharded node's inner is a full spec like any other wrapper's:
/// tss/tcam shards are tunable, and the options reach the engines.
#[test]
fn sharded_inner_takes_a_full_spec() {
    let rules: RuleSet = (0..40u16)
        .map(|i| {
            Rule::builder(Priority(u32::from(i)))
                .dst_port(PortRange::exact(i))
                .build()
        })
        .collect();
    let roomy =
        spc::engine::build_engine("sharded:inner=(tss:tables=64),shards=2", &rules).unwrap();
    let tight = spc::engine::build_engine("sharded:inner=(tss:tables=4),shards=2", &rules).unwrap();
    assert!(roomy.supports_updates());
    assert!(
        roomy.memory_bits() > tight.memory_bits(),
        "tables= must reach the shard engines"
    );
    // A 2-slot TCAM per shard cannot hold 20 rules: the capacity arrived.
    let e = spc::engine::build_engine(
        "sharded:inner=(tcam:capacity=2,partitions=1),shards=2",
        &rules,
    );
    assert!(matches!(e, Err(BuildError::Rejected { .. })), "{e:?}");
}
