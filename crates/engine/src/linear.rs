//! Priority-ordered linear search — the semantic oracle.

use crate::{verdict, EngineKind, PacketClassifier, Verdict};
use spc_types::{Header, Rule, RuleId, RuleSet};

/// Linear scan in priority order; first match is the HPMR by construction.
///
/// Used as the ground truth for every other classifier in the workspace,
/// and as the degenerate baseline in benchmark comparisons.
#[derive(Debug, Clone)]
pub(crate) struct LinearSearch {
    /// (original id, rule), sorted by (priority, id).
    rules: Vec<(RuleId, Rule)>,
}

/// Bits to store one rule in a flat table (5-tuple + lengths + priority +
/// action; see `spc_core`'s Rule Filter word model).
const RULE_BITS: u64 = 152;

/// Memory words read to compare one rule (152 bits / 64-bit words).
pub(crate) const RULE_WORDS: u32 = 3;

impl LinearSearch {
    /// Builds the oracle from a rule set.
    pub(crate) fn build(rules: &RuleSet) -> Self {
        let mut v: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
        v.sort_by_key(|(id, r)| (r.priority, id.0));
        LinearSearch { rules: v }
    }
}

impl PacketClassifier for LinearSearch {
    fn kind(&self) -> EngineKind {
        EngineKind::Linear
    }

    fn rules(&self) -> usize {
        self.rules.len()
    }

    fn classify(&self, h: &Header) -> Verdict {
        let mut accesses = 0;
        for (id, rule) in &self.rules {
            accesses += RULE_WORDS;
            if rule.matches(h) {
                return verdict(Some((*id, rule)), accesses);
            }
        }
        verdict(None, accesses)
    }

    fn memory_bits(&self) -> u64 {
        self.rules.len() as u64 * RULE_BITS
    }
}

/// Rule sets, traces and the oracle check the Table I comparators'
/// tests share.
#[cfg(test)]
pub(crate) mod testutil {
    use super::LinearSearch;
    use crate::PacketClassifier;
    use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::{Header, RuleSet};

    pub(crate) fn small_set() -> RuleSet {
        RuleSetGenerator::new(FilterKind::Acl, 300)
            .seed(21)
            .generate()
    }

    pub(crate) fn fw_set() -> RuleSet {
        RuleSetGenerator::new(FilterKind::Fw, 250)
            .seed(22)
            .generate()
    }

    pub(crate) fn trace(rules: &RuleSet, n: usize) -> Vec<Header> {
        TraceGenerator::new()
            .seed(5)
            .match_fraction(0.8)
            .generate(rules, n)
    }

    /// Asserts that `engine`, built over `rules`, answers each of `n`
    /// trace headers with the oracle's rule.
    pub(crate) fn agrees_with_linear(engine: &dyn PacketClassifier, rules: &RuleSet, n: usize) {
        let ls = LinearSearch::build(rules);
        for h in trace(rules, n) {
            let (got, want) = (engine.classify(&h), ls.classify(&h));
            assert_eq!(got.matched(), want.matched(), "{} at {h}", engine.kind());
            assert_eq!(got.action, want.action, "{} at {h}", engine.kind());
        }
    }

    /// Mean memory reads per lookup over `n` trace headers.
    pub(crate) fn avg_reads(engine: &mut dyn PacketClassifier, rules: &RuleSet, n: usize) -> f64 {
        engine
            .classify_batch(&trace(rules, n), &mut Vec::new())
            .avg_mem_reads()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{small_set, trace};
    use super::*;
    use crate::UpdateError;
    use spc_types::{Action, PortRange, Priority, ProtoSpec};

    #[test]
    fn agrees_with_ruleset_classify() {
        let rs = small_set();
        let ls = LinearSearch::build(&rs);
        for h in trace(&rs, 200) {
            assert_eq!(ls.classify(&h).rule, rs.classify(&h).map(|(id, _)| id));
        }
    }

    #[test]
    fn accesses_bounded_by_len() {
        let rs = small_set();
        let ls = LinearSearch::build(&rs);
        for h in trace(&rs, 50) {
            let r = ls.classify(&h);
            assert!(r.mem_reads as usize <= 3 * ls.rules());
            assert!(r.mem_reads > 0);
        }
    }

    #[test]
    fn memory_is_linear() {
        let rs = small_set();
        let ls = LinearSearch::build(&rs);
        assert_eq!(ls.memory_bits(), rs.len() as u64 * 152);
    }

    #[test]
    fn one_wildcard_rule_costs_one_compare() {
        let ls = LinearSearch::build(&RuleSet::from_rules(vec![Rule::any(Priority(0))]));
        let v = ls.classify(&Header::default());
        assert!(v.is_hit());
        assert_eq!(v.mem_reads, 3);
    }

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
        let e = LinearSearch::build(&tiny_set());
        assert_eq!(e.kind().title(), "LinearSearch");
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
        let mut e = LinearSearch::build(&tiny_set());
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
