//! Differential oracle: every backend in the `EngineKind` registry,
//! built from one seeded ClassBench set per filter family, must return
//! the same highest-priority match as `LinearSearch` over a generated
//! trace — through the unified `PacketClassifier` API, single-shot and
//! batch alike.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc::engine::{EngineBuilder, EngineKind, Verdict};
use spc::types::{Header, RuleSet};

const RULES: usize = 400;
const TRACE: usize = 300;
const SEED: u64 = 20_14;

fn workload(kind: FilterKind) -> (RuleSet, Vec<Header>) {
    let rules = RuleSetGenerator::new(kind, RULES).seed(SEED).generate();
    let trace = TraceGenerator::new()
        .seed(SEED ^ 0xff)
        .match_fraction(0.85)
        .generate(&rules, TRACE);
    (rules, trace)
}

fn check_family(kind: FilterKind) {
    let (rules, trace) = workload(kind);
    let oracle = EngineBuilder::new(EngineKind::Linear)
        .build(&rules)
        .unwrap();
    let want: Vec<Verdict> = trace.iter().map(|h| oracle.classify(h)).collect();
    assert!(
        want.iter().filter(|v| v.is_hit()).count() > TRACE / 2,
        "workload sanity: the trace must actually exercise the rules"
    );
    for engine_kind in EngineKind::ALL {
        let mut engine = EngineBuilder::new(engine_kind)
            .build(&rules)
            .unwrap_or_else(|e| panic!("{engine_kind} must hold {kind} x{RULES}: {e}"));
        assert_eq!(engine.rules(), rules.len(), "{engine_kind}");
        let mut batched = Vec::new();
        let stats = engine.classify_batch(&trace, &mut batched);
        assert_eq!(stats.packets, trace.len() as u64, "{engine_kind}");
        for ((h, want), got) in trace.iter().zip(&want).zip(&batched) {
            // All engines resolve the identical HPMR (same rule id —
            // LinearSearch is exact, so everyone must equal it).
            assert_eq!(
                got.rule, want.rule,
                "{engine_kind} disagrees with LinearSearch on {kind:?} header {h}"
            );
            assert_eq!(got.priority, want.priority, "{engine_kind} priority at {h}");
            assert_eq!(got.action, want.action, "{engine_kind} action at {h}");
            assert_eq!(got.matched(), want.matched(), "{engine_kind} handle at {h}");
            // And the single-shot path agrees with the batch path.
            let single = engine.classify(h);
            assert_eq!(
                single.rule, got.rule,
                "{engine_kind} single-vs-batch at {h}"
            );
        }
    }
}

#[test]
fn all_engines_match_oracle_acl() {
    check_family(FilterKind::Acl);
}

#[test]
fn all_engines_match_oracle_fw() {
    check_family(FilterKind::Fw);
}

#[test]
fn all_engines_match_oracle_ipc() {
    check_family(FilterKind::Ipc);
}
