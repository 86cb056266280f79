//! Integration oracles for the update-first backends: tuple-space
//! search (`tss:`) and the software TCAM (`tcam:`) — pathological
//! shapes and typed capacity errors. Churn against a linear-search
//! rebuild, bare and under every wrapper, is `tests/compositions.rs`'s.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::TraceGenerator;
use spc::engine::{
    build_engine, BuildError, EngineBuilder, PacketClassifier, SoftTcamEngine, TupleSpaceEngine,
    UpdateError,
};
use spc::types::{PortRange, Prefix, Priority, ProtoSpec, Rule, RuleSet};

const SEED: u64 = 0x7557;

/// Every rule gets its own mask signature (a distinct src-prefix length
/// per rule, half of them with an exact dst-port, half ranged), so the
/// tuple space degenerates to one tuple per rule — the structure's
/// worst case must stay oracle-correct, not just its happy path.
#[test]
fn tss_one_tuple_per_rule_worst_case_stays_correct() {
    let rules: RuleSet = (0..33u32)
        .map(|len| {
            let mut b = Rule::builder(Priority(len))
                .src_ip(Prefix::masked(0x0a00_0000, len as u8))
                .proto(ProtoSpec::Exact(6));
            if len % 2 == 0 {
                b = b.dst_port(PortRange::exact(80));
            }
            b.build()
        })
        .collect();

    let engine = TupleSpaceEngine::build(&rules).unwrap();
    assert_eq!(
        engine.tuple_count(),
        rules.len(),
        "every distinct mask signature must open its own tuple"
    );

    // Degenerate or not, it still agrees with the oracle.
    let trace = TraceGenerator::new()
        .seed(SEED)
        .match_fraction(0.8)
        .generate(&rules, 200);
    let oracle = build_engine("linear", &rules).unwrap();
    for h in &trace {
        let (want, got) = (oracle.classify(h), engine.classify(h));
        assert_eq!(got.rule, want.rule, "tss worst case at {h}");
        assert_eq!(got.priority, want.priority, "tss worst case at {h}");
    }
}

/// Capacity exhaustion is a *typed* error on both paths: `Rejected` at
/// build time through the spec pipeline, `Rejected` again on a live
/// insert — never a panic, never a silent truncation.
#[test]
fn tcam_capacity_exhaustion_is_typed_on_both_paths() {
    // One wide port range expands to far more than 4 prefix entries.
    let wide: RuleSet = std::iter::once(
        Rule::builder(Priority(0))
            .src_port(PortRange::new(1000, 40_000).unwrap())
            .build(),
    )
    .collect();
    match EngineBuilder::from_spec("tcam:capacity=4")
        .unwrap()
        .build(&wide)
    {
        Err(BuildError::Rejected { kind, reason }) => {
            assert_eq!(kind.as_str(), "tcam");
            assert!(reason.contains("capacity"), "{reason}");
        }
        other => panic!("expected typed Rejected, got {other:?}"),
    }

    // Same rule against a live engine that is already near-full.
    let mut engine = SoftTcamEngine::build(&RuleSet::new(), 4).unwrap();
    let before = engine.last_update_report();
    match engine.insert(wide.rules()[0]) {
        Err(UpdateError::Rejected { reason }) => assert!(reason.contains("capacity"), "{reason}"),
        other => panic!("expected typed Rejected, got {other:?}"),
    }
    assert_eq!(
        engine.last_update_report(),
        before,
        "failed insert must not report"
    );
}
