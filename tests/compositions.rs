//! The composition oracle: every spec tree `legal_nesting` admits,
//! generated from `EngineKind::ALL` at default options and again at each
//! kind's alternate point (`common::trees`), held to five checks:
//!
//! 1. static agreement with `linear` on ACL, FW and IPC sets, cold and
//!    warm, batch and single-shot;
//! 2. the update-report contract, or `Unsupported` for a build-once tree;
//! 3. seeded churn against a `linear` rebuild, and a snapshot reader
//!    following the writer on every snapshot-rooted tree;
//! 4. a `ConfigError` for every path the table refuses;
//! 5. on every configurable tree, long distinct-key churn against the
//!    same spec built fresh: equal verdicts, reads within a stated bound.
//!
//! A backend or wrapper is covered the moment it registers.

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{
    assert_update_cost, churn_against_rebuild, illegal_paths, legal_paths, path_of, spec_of, trees,
    updates_in_place, Churn, Tree,
};
use rand::prelude::*;
use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc::engine::{
    build_engine, BuildError, EngineBuilder, EngineKind, PacketClassifier, UpdateError, Verdict,
};
use spc::types::{Action, Header, PortRange, Priority, ProtoSpec, Rule, RuleId, RuleSet};

const SEED: u64 = 20_14;

/// The generator's reach, pinned. A leaf is one of the 10 kinds that
/// take no inner engine; the 3 wrappers stack 0–3 deep over it, each at
/// most once on a path, with `snapshot` never below `sharded`: 1 empty
/// stack + 3 single + (3·2 − 1) pairs + 3!/2 orderings of all three =
/// 12 stacks, × 10 leaves = 120 paths (10 + 30 + 50 + 30 at 1–4
/// nodes). Updatable: the 4 leaves that update in place under any of
/// the 12 stacks (48), and the 6 build-once leaves under the 7 stacks
/// that hold `snapshot` (42) — 90. The alternate profile moves every
/// tree that holds `sharded`, `cached` or `tcam`: all but the 9 other
/// leaves bare or under `snapshot` alone (18), so 120 + 102 = 222
/// trees; 12 of the 18 are updatable (the 2 configurable leaves and
/// `tss` either way, the 6 build-once ones under `snapshot`), so
/// 90 + 78 = 168. Every spec parses, its `Display` round-trips to an
/// equal tree, and no two trees are the same.
#[test]
fn the_generator_covers_the_nesting_table() {
    let paths = legal_paths();
    let by_nodes: Vec<usize> = (1..=4)
        .map(|n| paths.iter().filter(|p| p.len() == n).count())
        .collect();
    assert_eq!(by_nodes, [10, 30, 50, 30], "legal paths by node count");
    let trees = trees();
    assert_eq!(trees.len(), 222);
    let updatable = |trees: &[Tree]| trees.iter().filter(|t| t.updatable()).count();
    assert_eq!(updatable(&trees[..paths.len()]), 90, "at defaults");
    assert_eq!(updatable(&trees), 168, "with the alternate profile");
    let mut canonical = std::collections::HashSet::new();
    for tree in &trees {
        let spec = &tree.spec;
        let parsed = EngineBuilder::from_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(parsed.kind(), tree.path[0], "{spec}");
        let text = parsed.to_string();
        assert_eq!(EngineBuilder::from_spec(&text), Ok(parsed), "{spec}");
        assert_eq!(path_of(spec), tree.path, "{spec}");
        assert!(canonical.insert(text), "{spec} generated twice");
    }
}

/// One family's seeded set, a trace over it with flow locality (so the
/// warm pass of a cached tree serves hits), and `linear`'s verdicts.
struct Workload {
    rules: RuleSet,
    trace: Vec<Header>,
    want: Vec<Verdict>,
}

fn workload(family: FilterKind, rules: usize, headers: usize) -> Workload {
    let rules = RuleSetGenerator::new(family, rules).seed(SEED).generate();
    let trace = TraceGenerator::new()
        .seed(SEED ^ 0xff)
        .match_fraction(0.85)
        .locality(0.5)
        .generate(&rules, headers);
    let oracle = build_engine("linear", &rules).unwrap();
    let want: Vec<Verdict> = trace.iter().map(|h| oracle.classify(h)).collect();
    assert!(
        want.iter().filter(|v| v.is_hit()).count() > headers / 2,
        "workload sanity: the trace must actually exercise the rules"
    );
    Workload { rules, trace, want }
}

/// What a verdict decides: matched rule, priority, action and handle.
/// A flow cache rewrites `mem_reads` (a hit is one wide read), so cost
/// is not compared across engines.
fn outcome(v: &Verdict) -> impl PartialEq + std::fmt::Debug {
    (v.rule, v.priority, v.action, v.matched())
}

/// Check 1: every tree built over `family`'s set answers as `linear`
/// does, on a cold and a warm batch pass and single-shot after each
/// header, and its batch stats fold its verdicts exactly. Single kinds
/// run at 400 rules and 300 headers, compositions at 120 and 200.
fn agrees_with_linear(family: FilterKind) {
    let bare = workload(family, 400, 300);
    let nested = workload(family, 120, 200);
    for tree in trees() {
        let w = if tree.path.len() == 1 { &bare } else { &nested };
        let spec = &tree.spec;
        let mut engine = build_engine(spec, &w.rules)
            .unwrap_or_else(|e| panic!("{spec} must hold {family:?}: {e}"));
        assert_eq!(engine.kind(), tree.path[0], "{spec}");
        assert_eq!(engine.rules(), w.rules.len(), "{spec}");
        for pass in ["cold", "warm"] {
            let mut got = Vec::new();
            let stats = engine.classify_batch(&w.trace, &mut got);
            assert_eq!(stats.packets, w.trace.len() as u64, "{spec} {pass}");
            assert_eq!(
                stats.hits,
                got.iter().filter(|v| v.is_hit()).count() as u64,
                "{spec} {pass}: stats fold the hits"
            );
            assert_eq!(
                stats.mem_reads,
                got.iter().map(|v| u64::from(v.mem_reads)).sum::<u64>(),
                "{spec} {pass}: stats fold the reads"
            );
            assert!(stats.mem_reads > 0, "{spec} {pass} must account its reads");
            for ((h, want), got) in w.trace.iter().zip(&w.want).zip(&got) {
                let want = outcome(want);
                assert_eq!(outcome(got), want, "{spec} on {family:?} {pass} at {h}");
                let single = outcome(&engine.classify(h));
                assert_eq!(single, want, "{spec} on {family:?} {pass} at {h}, single");
            }
        }
    }
}

#[test]
fn every_legal_tree_agrees_with_linear_acl() {
    agrees_with_linear(FilterKind::Acl);
}

#[test]
fn every_legal_tree_agrees_with_linear_fw() {
    agrees_with_linear(FilterKind::Fw);
}

#[test]
fn every_legal_tree_agrees_with_linear_ipc() {
    agrees_with_linear(FilterKind::Ipc);
}

/// A rule with a unique priority and dst-port, so inserts of distinct
/// `p` never collide as duplicate 5-tuples.
fn update_rule(p: u32) -> Rule {
    Rule::builder(Priority(p))
        .dst_port(PortRange::exact(2000 + (p % 30000) as u16))
        .proto(ProtoSpec::Exact(6))
        .action(Action::Forward(p as u16))
        .build()
}

/// A header only `update_rule(p)` matches among rules of that shape.
fn update_header(p: u32) -> Header {
    Header::new(
        [1, 2, 3, 4].into(),
        [5, 6, 7, 8].into(),
        999,
        2000 + p as u16,
        6,
    )
}

/// Check 2: on an updatable tree a successful insert or remove replaces
/// `last_update_report()` with a report naming the op's rule at the
/// cost the tree owes (an insert in place writes a label, a remove
/// frees one); a duplicate is refused naming the rule it repeats, and
/// every rejected update leaves the report, the modelled bits and the
/// rule count as they were. The rule serves its header while it is
/// live. A build-once tree answers every update `Unsupported` and never
/// reports.
#[test]
fn every_legal_tree_keeps_the_update_report_contract() {
    let base: RuleSet = (0..20).map(update_rule).collect();
    for tree in trees() {
        let spec = &tree.spec;
        let mut e = build_engine(spec, &base).unwrap_or_else(|err| panic!("{spec}: {err}"));
        assert_eq!(e.supports_updates(), tree.updatable(), "{spec}");
        assert!(e.last_update_report().is_none(), "{spec}");
        if tree.updatable() {
            report_contract(spec, e.as_mut(), updates_in_place(tree.leaf()), base.len());
        } else {
            for _ in 0..3 {
                assert!(
                    matches!(
                        e.insert(update_rule(700)),
                        Err(UpdateError::Unsupported { .. })
                    ),
                    "{spec}"
                );
                assert!(
                    matches!(e.remove(RuleId(0)), Err(UpdateError::Unsupported { .. })),
                    "{spec}"
                );
                assert!(e.last_update_report().is_none(), "{spec}");
            }
        }
    }
}

/// What a rejected update must leave as it was.
fn kept(e: &dyn PacketClassifier) -> impl PartialEq + std::fmt::Debug {
    (e.last_update_report(), e.memory_bits(), e.rules())
}

fn report_contract(spec: &str, e: &mut dyn PacketClassifier, in_place: bool, base: usize) {
    // Successful insert: report replaced and keyed to the id.
    let id = e.insert(update_rule(500)).unwrap();
    let r1 = e.last_update_report().expect(spec);
    assert_eq!(r1.rule_id, id, "{spec}");
    assert_update_cost(spec, &r1, in_place);
    assert!(!in_place || r1.created_labels >= 1, "{spec}: {r1:?}");
    assert_eq!(e.rules(), base + 1, "{spec}");
    let hit = e.classify(&update_header(500));
    assert_eq!(
        (hit.rule, hit.action),
        (Some(id), Some(Action::Forward(500))),
        "{spec}"
    );

    // Failed insert (duplicate 5-tuple): refused naming the rule it
    // repeats, and nothing moves.
    let before = kept(e);
    assert_eq!(
        e.insert(update_rule(500)),
        Err(UpdateError::Duplicate { existing: id }),
        "{spec}"
    );
    assert_eq!(kept(e), before, "{spec}: failed insert");
    assert_eq!(e.last_update_report(), Some(r1), "{spec}: failed insert");

    // Failed remove (unknown id): same.
    assert!(
        matches!(
            e.remove(RuleId(9_999)),
            Err(UpdateError::UnknownRule { .. })
        ),
        "{spec}"
    );
    assert_eq!(kept(e), before, "{spec}: failed remove");

    // Successful remove: report replaced, the rule gone.
    e.remove(id).unwrap_or_else(|err| panic!("{spec}: {err}"));
    let r2 = e.last_update_report().expect(spec);
    assert_eq!(r2.rule_id, id, "{spec}");
    assert_update_cost(spec, &r2, in_place);
    assert!(!in_place || r2.freed_labels >= 1, "{spec}: {r2:?}");
    assert_eq!(e.rules(), base, "{spec}");
    assert!(!e.classify(&update_header(500)).is_hit(), "{spec}");

    // Double remove: rejected, untouched.
    let before = kept(e);
    assert!(
        matches!(e.remove(id), Err(UpdateError::UnknownRule { .. })),
        "{spec}"
    );
    assert_eq!(kept(e), before, "{spec}: double remove");
    assert_eq!(e.last_update_report(), Some(r2), "{spec}: double remove");

    // Every success of a burst replaces the report with its own; the
    // duplicate after each names it and leaves everything in place. The
    // burst runs tables past their growth thresholds, so a duplicate
    // meets a full one.
    for p in 600..616 {
        let id = e.insert(update_rule(p)).unwrap();
        let report = e.last_update_report().expect(spec);
        assert_eq!(report.rule_id, id, "{spec}: one report per op");
        let before = kept(e);
        assert_eq!(
            e.insert(update_rule(p)),
            Err(UpdateError::Duplicate { existing: id }),
            "{spec}: burst {p}"
        );
        assert_eq!(kept(e), before, "{spec}: burst {p}");
    }
}

/// Check 3: every updatable tree at its defaults under seeded churn,
/// held to `linear` rebuilt over the live rules (`common`'s driver):
/// the trees whose leaf updates in place, or those whose every update
/// is a snapshot writer's rebuild of a build-once leaf, which run a
/// fifth of the ops since each is a build.
fn churn_against_a_rebuild(in_place: bool) {
    let base = RuleSetGenerator::new(FilterKind::Acl, 150)
        .seed(SEED)
        .generate();
    let pool = RuleSetGenerator::new(FilterKind::Fw, 120)
        .seed(SEED ^ 0x77)
        .generate();
    // One trace over base and pool rules alike, classified at every
    // checkpoint: a flow cache keeps its verdicts across the updates in
    // between, so one an update should have invalidated shows.
    let both: RuleSet = base.rules().iter().chain(pool.rules()).copied().collect();
    let probe = TraceGenerator::new()
        .seed(SEED ^ 0xc4)
        .match_fraction(0.85)
        .generate(&both, 200);
    for path in legal_paths() {
        let tree = Tree::new(&path, false);
        if !tree.updatable() || updates_in_place(tree.leaf()) != in_place {
            continue;
        }
        let ops = if in_place { 120 } else { 24 };
        let churn = Churn {
            spec: &tree.spec,
            reference: "linear",
            ops,
            check_every: ops / 4,
            seed: SEED ^ 0xc4,
            probe: Some(&probe),
        };
        churn_against_rebuild(
            &churn,
            &base,
            &pool,
            |rng| Priority(rng.gen_range(0..50_000)),
            |_| {},
        );
    }
}

#[test]
fn churn_in_place_trees_against_a_rebuild() {
    churn_against_a_rebuild(true);
}

#[test]
fn churn_rebuilt_trees_against_a_rebuild() {
    churn_against_a_rebuild(false);
}

/// Check 3, concurrently served: on every snapshot-rooted tree at its
/// defaults, a refreshing reader follows eight alternating insert /
/// remove steps, each rule shadowing a traced flow, and every verdict it
/// gives is held to `linear` over the live set. Each inserted rule is
/// then inserted again: the writer refuses it naming the live rule and
/// publishes nothing. Inners that update in place put the writer's
/// recycle path under every such kind (the caught-up copy's own insert
/// refuses the duplicate); build-once inners keep its rebuild path
/// honest.
#[test]
fn snapshot_readers_follow_the_writer_on_every_rooted_tree() {
    let rules = RuleSetGenerator::new(FilterKind::Acl, 60)
        .seed(13)
        .generate();
    let trace: Vec<Header> = TraceGenerator::new()
        .seed(14)
        .match_fraction(0.85)
        .generate(&rules, 256);
    let mut flows: Vec<(u16, u8)> = trace.iter().map(|h| (h.dst_port, h.proto)).collect();
    flows.sort_unstable();
    flows.dedup();
    let rooted = legal_paths()
        .into_iter()
        .filter(|path| path[0] == EngineKind::Snapshot);
    for path in rooted {
        let spec = spec_of(&path, false);
        let mut writer = EngineBuilder::from_spec(&spec)
            .unwrap()
            .build_snapshot(&rules)
            .expect(&spec);
        let mut reader = writer.reader();
        let mut live: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
        let mut churned = Vec::new();
        for step in 0..8 {
            let (id, inserted) = if step % 2 == 0 {
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
                (id, Some(rule))
            } else {
                // Oldest first, so a rule outlives the insert after it.
                let id = churned.remove(0);
                writer.remove(id).unwrap_or_else(|e| panic!("{spec}: {e}"));
                live.retain(|&(g, _)| g != id);
                (id, None)
            };
            let report = writer.last_update_report().expect(&spec);
            assert_eq!(report.rule_id, id, "{spec} step {step}");
            let set: RuleSet = live.iter().map(|&(_, r)| r).collect();
            let oracle = build_engine("linear", &set).unwrap();
            for h in &trace {
                let (got, want) = (reader.classify(h), oracle.classify(h));
                let want_id = want.rule.map(|local| live[local.0 as usize].0);
                assert_eq!(got.rule, want_id, "{spec} step {step} at {h}");
                assert_eq!(got.action, want.action, "{spec} step {step} at {h}");
            }
            assert_eq!(reader.update_epoch(), step as u64 + 1, "{spec}");
            assert_eq!(reader.last_update_report(), Some(report), "{spec}");
            if let Some(rule) = inserted {
                assert_eq!(
                    writer.insert(rule),
                    Err(UpdateError::Duplicate { existing: id }),
                    "{spec} step {step}"
                );
                assert!(!reader.refresh(), "{spec} step {step}: nothing published");
                assert_eq!(reader.update_epoch(), step as u64 + 1, "{spec}");
                assert_eq!(reader.last_update_report(), Some(report), "{spec}");
                assert_eq!(writer.last_update_report(), Some(report), "{spec}");
            }
        }
    }
}

/// Check 4: the spec parser, the only way to describe a tree, refuses
/// every path one node past the legal set with a `ConfigError`.
#[test]
fn every_illegal_path_is_a_config_error() {
    for path in illegal_paths() {
        let spec = spec_of(&path, false);
        let result = EngineBuilder::from_spec(&spec);
        assert!(
            matches!(result, Err(BuildError::ConfigError { .. })),
            "{spec}: expected a ConfigError, got {result:?}"
        );
    }
}

/// Check 5: every generated updatable tree whose leaf is a configurable
/// engine, that leaf's Rule Filter pinned to `2^RF_BITS` slots, after
/// `PAIRS` pairs of distinct-key churn (remove a random live rule, insert
/// a rule from a second generator seed), held to the same spec built
/// fresh over the live set: equal verdicts on a fixed trace, and modelled
/// reads on it at most 1.25x the fresh build's. Under a `sharded:` node
/// that places by priority band the bound is 2x: bands are never
/// rebalanced, so the churned shards hold other rules than the fresh
/// build's (1.5x here on `configurable-mbt`). A Rule Filter that leaves a
/// deleted marker in every freed slot reads 2.8-76x the fresh build on
/// every tree without a `snapshot:` node.
#[test]
fn churned_configurable_trees_cost_what_a_fresh_build_does() {
    const RF_BITS: u32 = 8;
    const PAIRS: usize = 1_500;
    let base = RuleSetGenerator::new(FilterKind::Acl, 64)
        .seed(SEED)
        .generate();
    let pool = RuleSetGenerator::new(FilterKind::Acl, PAIRS)
        .seed(SEED ^ 0x5a)
        .generate();
    let configurable = trees().into_iter().filter(|t| {
        matches!(
            t.leaf(),
            EngineKind::ConfigurableMbt | EngineKind::ConfigurableBst
        )
    });
    for tree in configurable {
        let leaf = tree.leaf().to_string();
        let spec = tree
            .spec
            .replacen(&leaf, &format!("{leaf}:rf_bits={RF_BITS}"), 1);
        let mut engine = build_engine(&spec, &base).unwrap_or_else(|e| panic!("{spec}: {e}"));
        // `(global id, rule)` in insertion order, as `churn_against_rebuild` keeps it.
        let mut live: Vec<(RuleId, Rule)> = base.iter().map(|(id, r)| (id, *r)).collect();
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x50a4);
        for &rule in pool.rules() {
            let (gone, _) = live.remove(rng.gen_range(0..live.len()));
            engine
                .remove(gone)
                .unwrap_or_else(|e| panic!("{spec}: remove {gone}: {e}"));
            match engine.insert(rule) {
                Ok(id) => live.push((id, rule)),
                // The pool repeats a live rule's match fields.
                Err(UpdateError::Duplicate { .. }) => {}
                Err(e) => panic!("{spec}: insert: {e}"),
            }
        }
        let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
        let trace = TraceGenerator::new()
            .seed(SEED ^ 0x7ace)
            .match_fraction(0.85)
            .generate(&rules, 200);
        let mut fresh = build_engine(&spec, &rules).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        engine.classify_batch(&trace, &mut got);
        fresh.classify_batch(&trace, &mut want);
        for ((h, g), w) in trace.iter().zip(&got).zip(&want) {
            let w = Verdict {
                rule: w.rule.map(|pos| live[pos.0 as usize].0),
                ..*w
            };
            assert_eq!(outcome(g), outcome(&w), "{spec}: churned vs fresh at {h}");
        }
        let reads = |vs: &[Verdict]| vs.iter().map(|v| u64::from(v.mem_reads)).sum::<u64>();
        let (churned, rebuilt) = (reads(&got), reads(&want));
        let banded = tree.path.contains(&EngineKind::Sharded) && !spec.contains("strategy=hash");
        let (num, den) = if banded { (2, 1) } else { (5, 4) };
        assert!(
            churned * den <= rebuilt * num,
            "{spec}: churned reads {churned} vs fresh {rebuilt}, bound {num}/{den}"
        );
    }
}
