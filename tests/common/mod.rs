//! Support shared by the integration suites (`mod common;`): the seeded
//! random-churn driver and its rebuilt-from-scratch checkpoint.

use rand::prelude::*;
use spc::classbench::TraceGenerator;
use spc::engine::{build_engine, PacketClassifier, UpdateError};
use spc::types::{Header, Priority, Rule, RuleId, RuleSet};

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
/// random live rule — calling `before_op` ahead of each, and holds the
/// engine to [`diff_against_rebuild`] at every checkpoint. Returns the
/// engine and its live rules for the caller's own closing checks.
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
                    assert!(report.hw_write_cycles >= 3, "{spec}: §V.A floor");
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
            assert!(
                engine.last_update_report().is_some(),
                "{spec}: remove must report §V.A costs"
            );
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
