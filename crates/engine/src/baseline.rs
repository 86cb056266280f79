//! [`PacketClassifier`] for the Table I comparison algorithms.

use crate::{EngineKind, MatchHandle, PacketClassifier, Verdict};
use spc_baselines::Baseline;
use spc_types::{Action, Header, MaskSummary, Priority, RuleSet};
use std::fmt;

/// Adapts any [`Baseline`] to the unified API.
///
/// Baselines report only the matched [`spc_types::RuleId`] and the access
/// count; the adapter keeps a priority/action/mask side table (indexed by
/// rule id, which every baseline takes from the build-time [`RuleSet`])
/// so a [`Verdict`] is as informative as the configurable architecture's
/// — including the [`MatchHandle`] a flow cache keys on.
pub struct BaselineEngine<B> {
    kind: EngineKind,
    inner: B,
    meta: Vec<(Priority, Action, MaskSummary)>,
}

impl<B: Baseline> BaselineEngine<B> {
    /// Wraps a built baseline together with the rule set it was built
    /// from (for verdict enrichment).
    pub fn new(kind: EngineKind, inner: B, rules: &RuleSet) -> Self {
        let meta = rules
            .rules()
            .iter()
            .map(|r| (r.priority, r.action, MaskSummary::of_rule(r)))
            .collect();
        BaselineEngine { kind, inner, meta }
    }
}

impl<B: fmt::Debug> fmt::Debug for BaselineEngine<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaselineEngine")
            .field("kind", &self.kind)
            .field("rules", &self.meta.len())
            .field("inner", &self.inner)
            .finish()
    }
}

impl<B: Baseline + fmt::Debug + Send + Sync> PacketClassifier for BaselineEngine<B> {
    fn kind(&self) -> EngineKind {
        self.kind
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rules(&self) -> usize {
        self.meta.len()
    }

    fn classify(&self, header: &Header) -> Verdict {
        let r = self.inner.classify(header);
        match r.rule {
            Some(id) => {
                let (priority, action, mask_summary) = self.meta[id.0 as usize];
                Verdict::hit(
                    MatchHandle {
                        id,
                        priority,
                        mask_summary,
                    },
                    action,
                    r.accesses,
                )
            }
            None => Verdict::miss(r.accesses),
        }
    }

    fn memory_bits(&self) -> u64 {
        self.inner.memory_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdateError;
    use spc_baselines::LinearSearch;
    use spc_types::{PortRange, Priority, ProtoSpec, Rule, RuleId};

    fn tiny_set() -> RuleSet {
        RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Forward(9))
                .build(),
            Rule::builder(Priority(1)).action(Action::Drop).build(),
        ])
    }

    #[test]
    fn verdicts_are_enriched() {
        let rules = tiny_set();
        let e = BaselineEngine::new(EngineKind::Linear, LinearSearch::build(&rules), &rules);
        assert_eq!(e.name(), "LinearSearch");
        assert_eq!(e.rules(), 2);
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 5, 80, 6);
        let v = e.classify(&h);
        assert_eq!(v.rule, Some(RuleId(0)));
        assert_eq!(v.priority, Some(Priority(0)));
        assert_eq!(v.action, Some(Action::Forward(9)));
        assert!(v.mem_reads > 0);
        let other = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 5, 81, 17);
        assert_eq!(e.classify(&other).action, Some(Action::Drop));
    }

    #[test]
    fn updates_are_probed_unsupported() {
        let rules = tiny_set();
        let mut e = BaselineEngine::new(EngineKind::Linear, LinearSearch::build(&rules), &rules);
        assert!(!e.supports_updates());
        assert!(matches!(
            e.insert(Rule::builder(Priority(5)).build()),
            Err(UpdateError::Unsupported {
                engine: "LinearSearch"
            })
        ));
        assert!(matches!(
            e.remove(RuleId(0)),
            Err(UpdateError::Unsupported { .. })
        ));
    }
}
