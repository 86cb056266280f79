//! Spec strings the docs show and options that reach nested engines.
//! The legal/illegal nesting matrix is generated from `legal_nesting`
//! and held to its oracle in `tests/compositions.rs`.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::engine::{BuildError, EngineBuilder, EngineKind};
use spc::types::{PortRange, Priority, Rule, RuleSet};

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
/// tcam shards are tunable, and the options reach the engines.
#[test]
fn sharded_inner_takes_a_full_spec() {
    let rules: RuleSet = (0..40u16)
        .map(|i| {
            Rule::builder(Priority(u32::from(i)))
                .dst_port(PortRange::exact(i))
                .build()
        })
        .collect();
    // A TCAM prices every provisioned slot, so each shard's capacity
    // shows in the bits.
    let roomy =
        spc::engine::build_engine("sharded:inner=(tcam:capacity=4096),shards=2", &rules).unwrap();
    let tight =
        spc::engine::build_engine("sharded:inner=(tcam:capacity=64),shards=2", &rules).unwrap();
    assert!(roomy.supports_updates());
    assert!(
        roomy.memory_bits() > tight.memory_bits(),
        "capacity= must reach the shard engines"
    );
    // A 2-slot TCAM per shard cannot hold 20 rules: the capacity arrived.
    let e = spc::engine::build_engine("sharded:inner=(tcam:capacity=2),shards=2", &rules);
    assert!(matches!(e, Err(BuildError::Rejected { .. })), "{e:?}");
}
