//! Stateful model test of the update path: a [`Classifier`] driven
//! through a seeded interleaving of inserts, removes, duplicate inserts
//! and batch loads (which must fail and change nothing) and `IPalg_s`
//! switches is held, after every step, to a classifier loaded from
//! scratch with the rules that are live — verdicts on a probe trace, the
//! combinations each probed, the bit counts behind them and the count of
//! priorities live rules share. The incrementally kept state
//! (reference-counted labels, the BST's patched interval arrays and
//! copied lists, Rule Filter slots, rules per priority) cannot leak
//! quietly: a list or an interval left behind is bit drift in
//! `memory_report()` even where every verdict is still right, and a tie
//! count left behind changes how far the combine walks.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc_core::{ArchConfig, BlockUsage, Classifier, ClassifierError, IpAlg};
use spc_types::{Header, Priority, Rule, RuleId, RuleSet};

/// Holds `churned` to a classifier loaded from scratch with `live` (kept
/// in arrival order, so equal-priority ties break the same way in both).
fn assert_matches_fresh_load(
    churned: &Classifier,
    live: &[(RuleId, Rule)],
    trace: &[Header],
    what: &str,
) {
    let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
    let mut fresh = Classifier::new(churned.config().clone());
    fresh.load(&rules).unwrap();
    let bst = churned.config().ip_alg == IpAlg::Bst;
    for h in trace {
        let (got, want) = (churned.classify(h), fresh.classify(h));
        let rule = |c: &spc_core::Classification| c.hit.map(|hit| hit.rule);
        assert_eq!(rule(&got), rule(&want), "{what}: {h}");
        assert_eq!(
            rule(&got),
            rules.classify(h).map(|(_, r)| *r),
            "{what}: {h}"
        );
        assert_eq!(got.combos_probed, want.combos_probed, "{what}: {h}");
        if bst {
            assert_eq!(got.engine_reads, want.engine_reads, "{what}: {h}");
        }
    }
    assert_eq!(churned.len(), live.len(), "{what}");
    let mut per_priority = std::collections::HashMap::new();
    for (_, rule) in live {
        *per_priority.entry(rule.priority).or_insert(0) += 1;
    }
    let shared = per_priority.values().filter(|&&n| n > 1).count();
    assert_eq!(churned.shared_priorities(), shared, "{what}");
    assert_eq!(fresh.shared_priorities(), shared, "{what}");
    assert_eq!(churned.live_labels(), fresh.live_labels(), "{what}");
    assert_eq!(
        churned.rule_filter().len(),
        fresh.rule_filter().len(),
        "{what}"
    );
    assert_eq!(blocks(churned), blocks(&fresh), "{what}");
}

/// The memory blocks an update must leave as a fresh load has them. The
/// trie never hands a node back, so a churned MBT legitimately holds more
/// words than a fresh one; every other block — label memories in either
/// mode, the BST's arrays, ports, protocol, Rule Filter — is bit for bit
/// what a fresh load gives.
fn blocks(c: &Classifier) -> Vec<BlockUsage> {
    let bst = c.config().ip_alg == IpAlg::Bst;
    let mut blocks = c.memory_report().blocks;
    blocks
        .retain(|b| bst || !(b.name.ends_with("ip_hi/engine") || b.name.ends_with("ip_lo/engine")));
    blocks
}

#[test]
fn churned_classifier_matches_one_loaded_from_scratch() {
    for (kind, seed) in [(FilterKind::Acl, 1), (FilterKind::Fw, 2)] {
        let pool = RuleSetGenerator::new(kind, 200).seed(seed).generate();
        // A few rules take the priority of the rule before them, so the
        // live set moves between distinct and shared priorities.
        let pool: RuleSet = pool
            .rules()
            .iter()
            .map(|r| match r.priority.0 {
                p @ (30 | 60 | 110 | 150) => Rule {
                    priority: Priority(p - 1),
                    ..*r
                },
                _ => *r,
            })
            .collect();
        let trace = TraceGenerator::new()
            .seed(seed)
            .match_fraction(0.9)
            .generate(&pool, 96);
        let config = ArchConfig::large()
            .with_ip_alg(IpAlg::Bst)
            .with_rule_filter_bits(10);
        let mut rng = StdRng::seed_from_u64(0xc0de + seed);
        let mut cls = Classifier::new(config);
        let (start, spare) = pool.rules().split_at(80);
        let mut spare = spare.to_vec();
        let ids = cls.load(&start.iter().copied().collect()).unwrap();
        let mut live: Vec<(RuleId, Rule)> = ids.into_iter().zip(start.iter().copied()).collect();
        assert_matches_fresh_load(&cls, &live, &trace, &format!("{kind:?} loaded"));

        let mut tied_steps = [0; 2];
        for step in 0..160 {
            let what = format!("{kind:?} step {step}");
            match rng.gen_range(0..17) {
                0 => {
                    let other = match cls.config().ip_alg {
                        IpAlg::Bst => IpAlg::Mbt,
                        IpAlg::Mbt => IpAlg::Bst,
                    };
                    cls.set_ip_alg(other).unwrap();
                }
                1..=2 if !live.is_empty() => {
                    // A live rule's 5-tuple again, under another priority.
                    let (existing, rule) = live[rng.gen_range(0..live.len())];
                    let twin = Rule {
                        priority: Priority(rule.priority.0 + 1),
                        ..rule
                    };
                    let report = cls.memory_report();
                    assert_eq!(
                        cls.insert(twin).unwrap_err(),
                        ClassifierError::DuplicateKey {
                            existing: existing.0
                        },
                        "{what}"
                    );
                    assert_eq!(cls.memory_report(), report, "{what}");
                }
                16 if !live.is_empty() && !spare.is_empty() => {
                    // A batch that goes in up to a live rule's 5-tuple, a
                    // spare rule at a live rule's priority among it, and
                    // is taken out again.
                    let tie = Rule {
                        priority: live[rng.gen_range(0..live.len())].1.priority,
                        ..spare[rng.gen_range(0..spare.len())]
                    };
                    let batch: RuleSet = [tie, live[rng.gen_range(0..live.len())].1]
                        .into_iter()
                        .collect();
                    let before = blocks(&cls);
                    let refused = cls.load(&batch).unwrap_err();
                    assert!(
                        matches!(refused, ClassifierError::DuplicateKey { .. }),
                        "{what}: {refused}"
                    );
                    assert_eq!(blocks(&cls), before, "{what}");
                }
                3..=8 if !live.is_empty() => {
                    let (id, rule) = live.remove(rng.gen_range(0..live.len()));
                    assert_eq!(cls.remove(id).unwrap().0, rule, "{what}");
                    spare.push(rule);
                }
                _ if !spare.is_empty() => {
                    let rule = spare.swap_remove(rng.gen_range(0..spare.len()));
                    match cls.insert(rule) {
                        Ok(report) => live.push((report.rule_id, rule)),
                        // The generator may repeat a 5-tuple.
                        Err(ClassifierError::DuplicateKey { .. }) => {}
                        Err(e) => panic!("{what}: {e}"),
                    }
                }
                _ => {}
            }
            assert_matches_fresh_load(&cls, &live, &trace, &what);
            tied_steps[usize::from(cls.shared_priorities() > 0)] += 1;
        }
        assert!(
            tied_steps.iter().all(|&n| n > 0),
            "{kind:?}: {tied_steps:?}"
        );
    }
}
