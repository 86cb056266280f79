//! Support shared by the integration suites (`mod common;`): every spec
//! tree `legal_nesting` admits, generated from the registry, and the
//! seeded random-churn driver with its rebuilt-from-scratch checkpoint.

// Each suite uses its own part of this module.
#![allow(dead_code)]

use rand::prelude::*;
use spc::classbench::TraceGenerator;
use spc::engine::{
    build_engine, legal_nesting, EngineBuilder, EngineKind, PacketClassifier, UpdateError,
    UpdateReport,
};
use spc::types::{Header, Priority, Rule, RuleId, RuleSet};

/// The alternate profile: for each kind with spec keys, the one point
/// off its defaults that a tree is also built at, naming every key the
/// kind owns. The only composition literal the generator holds; every
/// tree and path comes from `EngineKind::ALL` and `legal_nesting`.
/// `rf_bits=10` is far below the auto-size (2^15 slots or more) and still
/// holds the oracle's 400-rule sets.
pub fn alternate_opts(kind: EngineKind) -> Option<&'static str> {
    match kind {
        EngineKind::ConfigurableMbt | EngineKind::ConfigurableBst => Some("rf_bits=10"),
        EngineKind::Sharded => Some("shards=2,strategy=hash,hash_dim=dst_port"),
        EngineKind::Cached => Some("flows=16"),
        EngineKind::SoftTcam => Some("capacity=65536"),
        _ => None,
    }
}

/// Whether every ancestor/descendant pair on `path` is legal.
fn legal(path: &[EngineKind]) -> bool {
    (0..path.len()).all(|i| {
        path[i + 1..]
            .iter()
            .all(|&d| legal_nesting(path[i], d).is_ok())
    })
}

/// Every root-to-leaf path the table admits, shortest first: each kind
/// that takes no inner engine, bare, then every kind stacked on a
/// shorter path wherever the table allows it. A wrapper appears at most
/// once on a legal path, so the stacking ends.
pub fn legal_paths() -> Vec<Vec<EngineKind>> {
    let takes_inner = |k: EngineKind| EngineKind::ALL.iter().any(|&d| legal_nesting(k, d).is_ok());
    let mut paths: Vec<Vec<EngineKind>> = EngineKind::ALL
        .into_iter()
        .filter(|&k| !takes_inner(k))
        .map(|k| vec![k])
        .collect();
    let mut next = 0;
    while next < paths.len() {
        for outer in EngineKind::ALL {
            let path = [&[outer][..], &paths[next]].concat();
            if legal(&path) {
                paths.push(path);
            }
        }
        next += 1;
    }
    paths
}

/// Every path one node past the legal set: a kind stacked on a legal
/// path where the table refuses it. Any illegal path ends in one of
/// these, and the parser refuses a node as soon as it reads its kind.
pub fn illegal_paths() -> Vec<Vec<EngineKind>> {
    let mut paths = Vec::new();
    for path in &legal_paths() {
        for outer in EngineKind::ALL {
            let path = [&[outer][..], path].concat();
            if !legal(&path) {
                paths.push(path);
            }
        }
    }
    paths
}

/// `a:inner=(b:inner=(c))` for the path `[a, b, c]`, every node at its
/// defaults, or at its alternate point where `alternate` is set and its
/// kind has one.
pub fn spec_of(path: &[EngineKind], alternate: bool) -> String {
    let Some((kind, inner)) = path.split_first() else {
        return String::new();
    };
    let mut opts = Vec::new();
    if !inner.is_empty() {
        opts.push(format!("inner=({})", spec_of(inner, alternate)));
    }
    opts.extend(
        alternate
            .then(|| alternate_opts(*kind))
            .flatten()
            .map(String::from),
    );
    if opts.is_empty() {
        kind.to_string()
    } else {
        format!("{kind}:{}", opts.join(","))
    }
}

/// The root-to-leaf path of the tree `spec` describes, read off its
/// canonical form, which writes every inner as `inner=(...)`.
pub fn path_of(spec: &str) -> Vec<EngineKind> {
    let canonical = EngineBuilder::from_spec(spec)
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
        .to_string();
    canonical
        .split("inner=(")
        .map(|node| node.split([':', ',', ')']).next().unwrap().parse().unwrap())
        .collect()
}

/// Whether `leaf`, built bare, updates in place.
pub fn updates_in_place(leaf: EngineKind) -> bool {
    build_engine(leaf.as_str(), &RuleSet::new())
        .unwrap()
        .supports_updates()
}

/// One generated composition.
pub struct Tree {
    /// Root to leaf.
    pub path: Vec<EngineKind>,
    /// The spec that describes it.
    pub spec: String,
}

impl Tree {
    /// The tree along `path`, every node at its defaults or, where
    /// `alternate` is set, at its kind's alternate point.
    pub fn new(path: &[EngineKind], alternate: bool) -> Self {
        Tree {
            path: path.to_vec(),
            spec: spec_of(path, alternate),
        }
    }

    /// The kind at the bottom of the tree.
    pub fn leaf(&self) -> EngineKind {
        self.path[self.path.len() - 1]
    }

    /// Whether the tree takes updates: its leaf updates in place (every
    /// wrapper passes an update down), or a snapshot writer on the path
    /// rebuilds a build-once leaf for each one.
    pub fn updatable(&self) -> bool {
        updates_in_place(self.leaf()) || self.path.contains(&EngineKind::Snapshot)
    }
}

/// Every tree under test: each legal path at its defaults, then each
/// again at the alternate profile wherever that moves a node.
pub fn trees() -> Vec<Tree> {
    let paths = legal_paths();
    let alternates = paths
        .iter()
        .filter(|path| path.iter().any(|&k| alternate_opts(k).is_some()));
    paths
        .iter()
        .map(|path| Tree::new(path, false))
        .chain(alternates.map(|path| Tree::new(path, true)))
        .collect()
}

/// The §V.A cost an update of `spec` must report: an update in place
/// pays at least the floor of 2 rule-data cycles and 1 hash cycle; an
/// update that rebuilds a build-once leaf under a snapshot writer
/// writes no label and reports no cycle.
pub fn assert_update_cost(spec: &str, report: &UpdateReport, in_place: bool) {
    if in_place {
        assert!(
            report.hw_write_cycles >= 3,
            "{spec}: §V.A floor, {report:?}"
        );
    } else {
        assert_eq!(
            (
                report.created_labels,
                report.freed_labels,
                report.hw_write_cycles
            ),
            (0, 0, 0),
            "{spec}: a rebuild reports no cost"
        );
    }
}

/// One churn run: which engine, against which reference, for how long.
pub struct Churn<'a> {
    /// The engine under test, built over the base set.
    pub spec: &'a str,
    /// The backend rebuilt from scratch over the live rules at every
    /// checkpoint — it has never seen the churn history, so any state
    /// the update path corrupts shows up as a verdict disagreement.
    pub reference: &'a str,
    /// Update operations to drive.
    pub ops: usize,
    /// A checkpoint runs after every `check_every`-th operation.
    pub check_every: usize,
    /// Seeds the operation stream and the generated checkpoint traces.
    pub seed: u64,
    /// The trace every checkpoint classifies; `None` generates a fresh
    /// one from the live rules each time.
    pub probe: Option<&'a [Header]>,
}

/// Drives `churn.ops` seeded operations — 60 % inserts, taken in order
/// from `pool` with a priority from `priority`, the rest removals of a
/// random live rule — calling `before_op` ahead of each, holds every
/// update's report to [`assert_update_cost`] for the tree `churn.spec`
/// describes, and holds the engine to [`diff_against_rebuild`] at every
/// checkpoint. Returns the engine and its live rules for the caller's
/// own closing checks.
///
/// `live` tracks the expected rule set as `(global id, rule)` in
/// insertion order; engines allocate ids monotonically and never reuse
/// them, so the rebuilt reference's positional ids map back through
/// `live[pos].0` and priority ties break identically on both sides.
pub fn churn_against_rebuild(
    churn: &Churn<'_>,
    base: &RuleSet,
    pool: &RuleSet,
    mut priority: impl FnMut(&mut StdRng) -> Priority,
    mut before_op: impl FnMut(&mut dyn PacketClassifier),
) -> (Box<dyn PacketClassifier>, Vec<(RuleId, Rule)>) {
    let spec = churn.spec;
    let in_place = path_of(spec).last().copied().is_some_and(updates_in_place);
    let mut engine = build_engine(spec, base).unwrap();
    assert!(engine.supports_updates(), "{spec} must be updatable");
    let mut live: Vec<(RuleId, Rule)> = base.iter().map(|(id, r)| (id, *r)).collect();
    let mut rng = StdRng::seed_from_u64(churn.seed);
    let mut pool_next = 0usize;
    for step in 0..churn.ops {
        before_op(engine.as_mut());
        if rng.gen_bool(0.6) || live.is_empty() {
            let mut rule = pool.rules()[pool_next % pool.len()];
            pool_next += 1;
            rule.priority = priority(&mut rng);
            match engine.insert(rule) {
                Ok(id) => {
                    assert!(
                        live.iter().all(|&(g, _)| g != id),
                        "{spec}: global id {id} reused"
                    );
                    let report = engine
                        .last_update_report()
                        .unwrap_or_else(|| panic!("{spec}: insert must report §V.A costs"));
                    assert_eq!(report.rule_id, id, "{spec}");
                    assert_update_cost(spec, &report, in_place);
                    live.push((id, rule));
                }
                Err(UpdateError::Duplicate { existing }) => {
                    // Dimension collision with a live rule; the engine
                    // must name it and install nothing.
                    assert!(
                        live.iter().any(|&(g, _)| g == existing),
                        "{spec}: duplicate names a dead rule {existing}"
                    );
                }
                Err(e) => panic!("{spec}: insert failed at step {step}: {e}"),
            }
        } else {
            let (id, _) = live.remove(rng.gen_range(0..live.len()));
            engine
                .remove(id)
                .unwrap_or_else(|e| panic!("{spec}: remove {id} at step {step}: {e}"));
            let report = engine
                .last_update_report()
                .unwrap_or_else(|| panic!("{spec}: remove must report §V.A costs"));
            assert_eq!(report.rule_id, id, "{spec}");
            assert_update_cost(spec, &report, in_place);
        }
        assert_eq!(engine.rules(), live.len(), "{spec} rule count at {step}");
        if step % churn.check_every == churn.check_every - 1 {
            diff_against_rebuild(churn, engine.as_mut(), &live, step as u64);
        }
    }
    (engine, live)
}

/// One checkpoint: rebuild `churn.reference` from the live rules and
/// require verdict-for-verdict agreement (ids mapped through `live`) on
/// the batch and single-shot paths alike. `salt` varies the generated
/// trace from checkpoint to checkpoint.
pub fn diff_against_rebuild(
    churn: &Churn<'_>,
    engine: &mut dyn PacketClassifier,
    live: &[(RuleId, Rule)],
    salt: u64,
) {
    if live.is_empty() {
        return;
    }
    let (spec, reference) = (churn.spec, churn.reference);
    let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
    let mut rebuilt = build_engine(reference, &rules)
        .unwrap_or_else(|e| panic!("{spec}: rebuilt {reference} must hold live rules: {e}"));
    let generated;
    let trace = match churn.probe {
        Some(probe) => probe,
        None => {
            generated = TraceGenerator::new()
                .seed(churn.seed ^ 0xdead ^ salt)
                .match_fraction(0.8)
                .generate(&rules, 80);
            &generated
        }
    };
    let (mut got, mut want) = (Vec::new(), Vec::new());
    engine.classify_batch(trace, &mut got);
    rebuilt.classify_batch(trace, &mut want);
    for ((h, w), g) in trace.iter().zip(&want).zip(&got) {
        let want_global = w.rule.map(|pos| live[pos.0 as usize].0);
        for (path, v) in [("batch", *g), ("single", engine.classify(h))] {
            assert_eq!(
                v.rule, want_global,
                "{spec} vs rebuilt {reference}: {path} rule at {h} (salt {salt})"
            );
            assert_eq!(v.priority, w.priority, "{spec} {path} priority at {h}");
            assert_eq!(v.action, w.action, "{spec} {path} action at {h}");
        }
    }
}
