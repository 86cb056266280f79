//! The optimizer shim: any backend built from an optimized rule set,
//! speaking the *original* set's id space.
//!
//! [`OptimizedEngine`] wraps an inner engine that was built from
//! `spc_analyze::optimize`'s output and translates every boundary
//! crossing through the [`ProvenanceMap`]:
//!
//! * **Verdicts out** — a hit's [`MatchHandle`] is rebuilt from the
//!   *original* rule (original id, original priority, original mask
//!   summary), so callers, flow caches and differential oracles see
//!   exactly what an unoptimized build would report.
//! * **Updates in** — `remove(original_id)` routes to the inner id;
//!   removing a rule the optimizer elided succeeds *synthetically* (the
//!   rule was provably dead, so un-installing it is a semantic no-op
//!   that still replaces the update report and bumps the epoch, as the
//!   [`PacketClassifier::update_epoch`] contract requires). Inserting a
//!   5-tuple that duplicates an elided rule reports
//!   [`UpdateError::Duplicate`] against the elided original id — from
//!   the caller's view that rule is still installed.
//! * **Reports out** — `last_update_report` carries original-space rule
//!   ids; `rules()` counts elided rules as installed.
//!
//! The wrapper is only constructed with id-preserving optimizer output
//! (`OptimizeConfig::id_preserving`, validated by `check_mapped`), so
//! winner identity modulo provenance is a proven property, not a hope.

use crate::{
    EngineKind, LookupStats, MatchHandle, PacketClassifier, UpdateError, UpdateReport, Verdict,
};
use spc_analyze::OptimizedRuleSet;
use spc_types::{Header, MaskSummary, Rule, RuleId, RuleSet};
use std::collections::HashMap;

/// A backend built from an optimized rule set, remapped to answer in the
/// original set's id space. Built by
/// `EngineBuilder::with_optimize(OptimizePolicy::Validated)`.
#[derive(Debug)]
pub struct OptimizedEngine {
    inner: Box<dyn PacketClassifier>,
    /// Inner-engine id → the handle to report: the *original* rule's id,
    /// priority and mask summary. `None` for removed inner slots.
    remap: Vec<Option<MatchHandle>>,
    /// Original-space id → inner-engine id, for routing removals.
    reverse: HashMap<RuleId, RuleId>,
    /// Optimizer-elided rules, still installed from the caller's view,
    /// in original-id order (kept sorted for deterministic behaviour).
    elided: Vec<(RuleId, Rule)>,
    /// Next fresh original-space id handed to an insert.
    next_id: u32,
    /// Epoch bumps from synthetic (elided-rule) removals.
    synthetic_epochs: u64,
    /// The report of the most recent successful update, already in
    /// original id space (synthetic or remapped from the inner engine).
    last_report: Option<UpdateReport>,
}

impl OptimizedEngine {
    /// Wraps `inner` — an engine built from `opt.rules`, whose ids are
    /// therefore positional in the optimized set — and `original`, the
    /// set the caller handed to the builder.
    pub(crate) fn new(
        inner: Box<dyn PacketClassifier>,
        opt: &OptimizedRuleSet,
        original: &RuleSet,
    ) -> Self {
        let mut remap = Vec::with_capacity(opt.rules.len());
        let mut reverse = HashMap::with_capacity(opt.rules.len());
        for (inner_id, orig_id) in opt.provenance.iter() {
            let handle = original.get(orig_id).map(|rule| MatchHandle {
                id: orig_id,
                priority: rule.priority,
                mask_summary: MaskSummary::of_rule(rule),
            });
            debug_assert!(handle.is_some(), "provenance must point into the original");
            remap.push(handle);
            reverse.insert(orig_id, inner_id);
        }
        let mut elided: Vec<(RuleId, Rule)> = opt
            .removed_ids()
            .into_iter()
            .filter_map(|id| original.get(id).map(|r| (id, *r)))
            .collect();
        elided.sort_by_key(|&(id, _)| id);
        OptimizedEngine {
            inner,
            remap,
            reverse,
            elided,
            next_id: original.len() as u32,
            synthetic_epochs: 0,
            last_report: None,
        }
    }

    /// Translates one inner verdict into the original id space.
    fn remap_verdict(&self, v: Verdict) -> Verdict {
        match v.matched {
            Some(inner_handle) => {
                let handle = self
                    .remap
                    .get(inner_handle.id.0 as usize)
                    .copied()
                    .flatten()
                    .unwrap_or(inner_handle);
                let action = v.action.unwrap_or_default();
                Verdict::hit(handle, action, v.mem_reads)
            }
            None => v,
        }
    }

    /// The original-space id behind an inner id, when it is tracked.
    fn original_of(&self, inner_id: RuleId) -> Option<RuleId> {
        self.remap
            .get(inner_id.0 as usize)
            .copied()
            .flatten()
            .map(|h| h.id)
    }

    /// Translates inner-engine update errors into the original id space.
    fn remap_error(&self, e: UpdateError) -> UpdateError {
        match e {
            UpdateError::Duplicate { existing } => UpdateError::Duplicate {
                existing: self.original_of(existing).unwrap_or(existing),
            },
            other => other,
        }
    }
}

impl PacketClassifier for OptimizedEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rules(&self) -> usize {
        self.inner.rules() + self.elided.len()
    }

    fn classify(&self, header: &Header) -> Verdict {
        self.remap_verdict(self.inner.classify(header))
    }

    fn classify_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        let stats = self.inner.classify_batch(headers, out);
        for v in out.iter_mut() {
            *v = self.remap_verdict(*v);
        }
        stats
    }

    fn memory_bits(&self) -> u64 {
        self.inner.memory_bits()
    }

    fn supports_updates(&self) -> bool {
        self.inner.supports_updates()
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        if !self.inner.supports_updates() {
            // Let the inner engine phrase its own Unsupported error.
            return self.inner.insert(rule).map_err(|e| self.remap_error(e));
        }
        // An elided rule is installed from the caller's view: a 5-tuple
        // duplicate of one reports Duplicate against the elided id, just
        // as the unoptimized engine would against the live rule.
        if let Some(&(existing, _)) = self
            .elided
            .iter()
            .find(|(_, r)| r.dim_values() == rule.dim_values())
        {
            return Err(UpdateError::Duplicate { existing });
        }
        let inner_id = self.inner.insert(rule).map_err(|e| self.remap_error(e))?;
        let orig_id = RuleId(self.next_id);
        self.next_id += 1;
        let handle = MatchHandle {
            id: orig_id,
            priority: rule.priority,
            mask_summary: MaskSummary::of_rule(&rule),
        };
        let slot = inner_id.0 as usize;
        if slot >= self.remap.len() {
            self.remap.resize(slot + 1, None);
        }
        self.remap[slot] = Some(handle);
        self.reverse.insert(orig_id, inner_id);
        self.last_report = self.inner.last_update_report().map(|r| UpdateReport {
            rule_id: orig_id,
            ..r
        });
        Ok(orig_id)
    }

    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        if !self.inner.supports_updates() {
            return self.inner.remove(id).map_err(|e| self.remap_error(e));
        }
        if let Some(pos) = self.elided.iter().position(|&(eid, _)| eid == id) {
            // The rule was provably dead: un-installing it changes no
            // verdict, but it is still a successful update — replace the
            // report and bump the epoch so cache layers stay in step.
            self.elided.remove(pos);
            self.last_report = Some(UpdateReport {
                rule_id: id,
                created_labels: 0,
                freed_labels: 0,
                hw_write_cycles: 0,
            });
            self.synthetic_epochs += 1;
            return Ok(());
        }
        let inner_id = *self
            .reverse
            .get(&id)
            .ok_or(UpdateError::UnknownRule { id })?;
        self.inner.remove(inner_id).map_err(|e| match e {
            UpdateError::UnknownRule { .. } => UpdateError::UnknownRule { id },
            other => self.remap_error(other),
        })?;
        self.reverse.remove(&id);
        if let Some(slot) = self.remap.get_mut(inner_id.0 as usize) {
            *slot = None;
        }
        self.last_report = self
            .inner
            .last_update_report()
            .map(|r| UpdateReport { rule_id: id, ..r });
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.last_report
    }

    fn update_epoch(&self) -> u64 {
        self.inner.update_epoch() + self.synthetic_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, OptimizePolicy};
    use spc_types::{Action, PortRange, Priority, ProtoSpec};

    /// Original set: rule 1 is dead (shadowed by the catch-all 0), rules
    /// 0 and 2 are live.
    fn rules() -> RuleSet {
        RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(0, 1000).unwrap())
                .action(Action::Forward(1))
                .build(),
            Rule::builder(Priority(5))
                .dst_port(PortRange::exact(80))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Drop)
                .build(),
            Rule::builder(Priority(7))
                .dst_port(PortRange::new(2000, 3000).unwrap())
                .action(Action::Forward(2))
                .build(),
        ])
    }

    fn optimized(kind: EngineKind) -> Box<dyn PacketClassifier> {
        EngineBuilder::new(kind)
            .with_optimize(OptimizePolicy::Validated)
            .build(&rules())
            .unwrap()
    }

    #[test]
    fn verdicts_come_back_in_original_id_space() {
        let rules = rules();
        for kind in EngineKind::ALL {
            let engine = optimized(kind);
            // The wrapper hides the shrink: callers still see 3 rules.
            assert_eq!(engine.rules(), 3, "{kind}");
            for (h, want) in [
                (
                    Header::new([1; 4].into(), [2; 4].into(), 9, 80, 6),
                    Some(RuleId(0)),
                ),
                (
                    Header::new([1; 4].into(), [2; 4].into(), 9, 2500, 17),
                    Some(RuleId(2)),
                ),
                (Header::new([1; 4].into(), [2; 4].into(), 9, 5000, 17), None),
            ] {
                let v = engine.classify(&h);
                assert_eq!(v.rule, want, "{kind}");
                let oracle = rules.classify(&h);
                assert_eq!(v.rule, oracle.map(|(id, _)| id), "{kind}");
                if let Some((id, rule)) = oracle {
                    let m = v.matched().unwrap();
                    // Original priority and mask, not the renumbered ones.
                    assert_eq!(m.priority, rule.priority, "{kind}");
                    assert_eq!(m.mask_summary, MaskSummary::of_rule(rule), "{kind}");
                    assert_eq!(m.id, id, "{kind}");
                    assert_eq!(v.action, Some(rule.action), "{kind}");
                }
            }
        }
    }

    #[test]
    fn elided_rules_behave_as_installed() {
        let mut engine = optimized(EngineKind::ConfigurableBst);
        let epoch0 = engine.update_epoch();
        // Inserting the dead rule's exact 5-tuple is a duplicate of the
        // (elided) rule 1.
        let again = Rule::builder(Priority(9))
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(6))
            .build();
        assert!(matches!(
            engine.insert(again),
            Err(UpdateError::Duplicate {
                existing: RuleId(1)
            })
        ));
        assert_eq!(engine.update_epoch(), epoch0, "failed insert: no bump");
        // Removing it succeeds synthetically: epoch bumps, report moves.
        engine.remove(RuleId(1)).unwrap();
        assert_eq!(engine.update_epoch(), epoch0 + 1);
        let report = engine.last_update_report().unwrap();
        assert_eq!(report.rule_id, RuleId(1));
        assert_eq!(report.hw_write_cycles, 0);
        assert_eq!(engine.rules(), 2);
        // A second removal is UnknownRule, like any double-remove.
        assert!(matches!(
            engine.remove(RuleId(1)),
            Err(UpdateError::UnknownRule { id: RuleId(1) })
        ));
        // And the 5-tuple is insertable again now.
        let id = engine.insert(again).unwrap();
        assert_eq!(id, RuleId(3), "fresh original-space id");
    }

    #[test]
    fn live_removes_and_inserts_round_trip() {
        let mut engine = optimized(EngineKind::ConfigurableBst);
        let h = Header::new([1; 4].into(), [2; 4].into(), 9, 2500, 17);
        assert_eq!(engine.classify(&h).rule, Some(RuleId(2)));
        engine.remove(RuleId(2)).unwrap();
        assert_eq!(engine.last_update_report().unwrap().rule_id, RuleId(2));
        assert!(!engine.classify(&h).is_hit());
        assert_eq!(engine.rules(), 2);
        // New inserts win with their fresh original-space id.
        let id = engine
            .insert(
                Rule::builder(Priority(1))
                    .dst_port(PortRange::exact(2500))
                    .action(Action::ToController)
                    .build(),
            )
            .unwrap();
        assert_eq!(id, RuleId(3));
        let v = engine.classify(&h);
        assert_eq!(v.rule, Some(RuleId(3)));
        assert_eq!(v.action, Some(Action::ToController));
        assert_eq!(engine.last_update_report().unwrap().rule_id, RuleId(3));
        // Unknown ids stay unknown in the original space.
        assert!(matches!(
            engine.remove(RuleId(42)),
            Err(UpdateError::UnknownRule { id: RuleId(42) })
        ));
    }

    #[test]
    fn batch_path_remaps_every_verdict() {
        let rules = rules();
        let mut engine = optimized(EngineKind::Sharded);
        let headers: Vec<Header> = (0..40u16)
            .map(|i| Header::new([1; 4].into(), [2; 4].into(), i, i * 100, 6))
            .collect();
        let mut out = Vec::new();
        engine.classify_batch(&headers, &mut out);
        for (h, v) in headers.iter().zip(&out) {
            assert_eq!(v.rule, rules.classify(h).map(|(id, _)| id));
        }
    }

    #[test]
    fn build_once_backends_stay_unsupported() {
        let mut engine = optimized(EngineKind::Linear);
        assert!(!engine.supports_updates());
        assert!(matches!(
            engine.insert(Rule::any(Priority(9))),
            Err(UpdateError::Unsupported { .. })
        ));
        assert!(matches!(
            engine.remove(RuleId(1)),
            Err(UpdateError::Unsupported { .. })
        ));
    }
}
