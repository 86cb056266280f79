//! End-to-end oracle for the optimizer layer's decision procedure
//! (`spc::analyze`'s `equivalence` module): when the equivalence checker
//! says two sets `Differs`, replaying the witness header through
//! `LinearSearch` engines built from each set must reproduce the
//! checker's verdicts exactly (the checker is a decision procedure, not
//! a heuristic). The optimizer's engine coverage — every backend built
//! from an id-preserving optimized set, hits mapped back through the
//! provenance map — is tier 4 of `tests/analyze_fuzz.rs`.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::analyze::{check, AnalyzerLimits, Equivalence};
use spc::engine::build_engine;
use spc::types::{Action, PortRange, Priority, ProtoSpec, Rule, RuleSet};

/// A checker `Differs` verdict is ground truth: the witness header,
/// replayed through `LinearSearch` over each set, reproduces the
/// checker's per-set outcomes bit for bit.
#[test]
fn differs_witness_replays_through_linear_search() {
    // Same shape, one action flipped on the narrower rule: the sets
    // agree except where the port-80 rule wins.
    let narrow = |action| {
        Rule::builder(Priority(0))
            .dst_port(PortRange::new(80, 80).unwrap())
            .proto(ProtoSpec::Exact(6))
            .action(action)
            .build()
    };
    let wide = Rule::builder(Priority(1))
        .action(Action::Forward(1))
        .build();
    let a = RuleSet::from_rules(vec![narrow(Action::Drop), wide]);
    let b = RuleSet::from_rules(vec![narrow(Action::Forward(9)), wide]);

    let limits = AnalyzerLimits::default();
    match check(&a, &b, &limits) {
        Equivalence::Differs {
            witness,
            verdict_a,
            verdict_b,
        } => {
            let ea = build_engine("linear", &a).unwrap();
            let eb = build_engine("linear", &b).unwrap();
            let va = ea.classify(&witness);
            let vb = eb.classify(&witness);
            assert_eq!(
                va.rule.zip(va.action),
                verdict_a,
                "checker verdict_a must replay at {witness}"
            );
            assert_eq!(
                vb.rule.zip(vb.action),
                verdict_b,
                "checker verdict_b must replay at {witness}"
            );
            // And the witness genuinely separates the sets.
            assert_ne!(va.action, vb.action, "witness separates the sets");
        }
        other => panic!("sets differ at dst_port 80/proto 6, got {other}"),
    }

    // Sanity: a set always equals itself, exactly.
    assert!(check(&a, &a, &limits).is_equivalent());
}
