//! The trie-combination classifiers called **Option 1** and **Option 2**
//! in the paper's Table I (from the authors' ICC'14 study \[17\]).
//!
//! * Option 1 — 5-level multi-bit trie for the 32-bit IP fields, 4-level
//!   segment trie for the port fields, register LUT for protocol.
//! * Option 2 — 4-level multi-bit trie, 5-level segment trie, LUT.
//!
//! Both use the label method and resolve the HPMR by probing the label
//! cross-product against a hashed rule memory — the approach this paper
//! then hardens into the configurable segment architecture.

use crate::fields::FieldFrontEnd;
use crate::{Baseline, BaselineResult};
use spc_core::RuleFilter;
use spc_lookup::{Label, MbtConfig, SegTrieConfig};
use spc_types::{Header, Priority, RuleId, RuleSet};

/// Which Table I option to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionKind {
    /// 5-level MBT + 4-level segment trie + LUT.
    One,
    /// 4-level MBT + 5-level segment trie + LUT.
    Two,
}

impl std::fmt::Display for OptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptionKind::One => f.write_str("Option 1"),
            OptionKind::Two => f.write_str("Option 2"),
        }
    }
}

/// A Table I option classifier (static build).
///
/// ```
/// use spc_baselines::{OptionClassifier, OptionKind, Baseline};
/// use spc_types::{Rule, RuleSet, Priority, Header, PortRange};
/// let rs = RuleSet::from_rules(vec![
///     Rule::builder(Priority(0)).dst_port(PortRange::exact(80)).build(),
/// ]);
/// let opt = OptionClassifier::build(&rs, OptionKind::One);
/// let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 7, 80, 6);
/// assert_eq!(opt.classify(&h).rule.unwrap().0, 0);
/// ```
#[derive(Debug)]
pub struct OptionClassifier {
    kind: OptionKind,
    fields: FieldFrontEnd,
    filter: RuleFilter,
}

/// Key layout: 13+13+13+13+4 = 56 bits, in the front end's field order.
fn make_key([sip, dip, sp, dp, pr]: [Label; 5]) -> u128 {
    let mut k = 0u128;
    for (l, w) in [(sip, 13u32), (dip, 13), (sp, 13), (dp, 13), (pr, 4)] {
        k = (k << w) | u128::from(l.0);
    }
    k
}

impl OptionClassifier {
    /// Builds the option classifier over a rule set.
    ///
    /// # Panics
    ///
    /// Panics if a field structure overflows its fixed provisioning
    /// (tries and Rule Filter sized at ≥2× the rule count) or the set
    /// contains duplicate 5-tuples. The Table I comparators are
    /// deliberately build-once research artifacts; capacity overflow is
    /// a misconfiguration, not a runtime condition to recover from.
    #[allow(clippy::expect_used)] // capacity invariants documented above
    pub fn build(rules: &RuleSet, kind: OptionKind) -> Self {
        let cap = (rules.len() + 64).next_power_of_two();
        let (mbt_cfg, seg_cfg) = match kind {
            OptionKind::One => (
                MbtConfig::ip32_5level(cap),
                SegTrieConfig::four_level(cap.min(4096)),
            ),
            OptionKind::Two => (
                MbtConfig::ip32_4level(cap),
                SegTrieConfig::five_level(cap.min(4096)),
            ),
        };
        let mut me = OptionClassifier {
            kind,
            fields: FieldFrontEnd::new("opt", mbt_cfg, seg_cfg),
            filter: RuleFilter::new(
                ((rules.len().max(64) * 2)
                    .next_power_of_two()
                    .trailing_zeros())
                .max(6),
                56,
            ),
        };
        for (id, r) in rules.iter() {
            // A label is as good as the first rule that brought its value.
            let labels = me.fields.intern(r, r.priority);
            me.filter
                .insert(make_key(labels), id, *r)
                .expect("filter sized at 2x rules; generator deduplicates 5-tuples");
        }
        me
    }

    /// Which option this is.
    pub fn kind(&self) -> OptionKind {
        self.kind
    }
}

impl Baseline for OptionClassifier {
    fn name(&self) -> &'static str {
        match self.kind {
            OptionKind::One => "Option 1",
            OptionKind::Two => "Option 2",
        }
    }

    fn classify(&self, h: &Header) -> BaselineResult {
        let ([rs, rd, rsp, rdp, rpr], mut accesses) = self.fields.lookup(h);
        let mut best: Option<(Priority, RuleId)> = None;
        for a in &rs {
            for b in &rd {
                for c in &rsp {
                    for d in &rdp {
                        for e in &rpr {
                            let key = make_key([a, b, c, d, e].map(|x| x.label));
                            let probe = self.filter.probe(key);
                            accesses += probe.reads;
                            if let Some(s) = probe.hit {
                                let cand = (s.rule.priority, s.id);
                                if best.map_or(true, |x| cand < x) {
                                    best = Some(cand);
                                }
                            }
                        }
                    }
                }
            }
        }
        BaselineResult {
            rule: best.map(|(_, id)| id),
            accesses,
        }
    }

    fn memory_bits(&self) -> u64 {
        self.fields.used_bits() + self.filter.provisioned_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fw_set, small_set, trace};
    use crate::LinearSearch;

    #[test]
    fn option1_agrees_with_oracle() {
        let rs = small_set();
        let o = OptionClassifier::build(&rs, OptionKind::One);
        let ls = LinearSearch::build(&rs);
        for h in trace(&rs, 300) {
            assert_eq!(o.classify(&h).rule, ls.classify(&h).rule, "header {h}");
        }
    }

    #[test]
    fn option2_agrees_with_oracle() {
        let rs = fw_set();
        let o = OptionClassifier::build(&rs, OptionKind::Two);
        let ls = LinearSearch::build(&rs);
        for h in trace(&rs, 300) {
            assert_eq!(o.classify(&h).rule, ls.classify(&h).rule, "header {h}");
        }
    }

    #[test]
    fn option_kinds_report_names() {
        let rs = small_set();
        let o1 = OptionClassifier::build(&rs, OptionKind::One);
        let o2 = OptionClassifier::build(&rs, OptionKind::Two);
        assert_eq!(o1.name(), "Option 1");
        assert_eq!(o2.name(), "Option 2");
        assert_eq!(o1.kind(), OptionKind::One);
        assert!(o1.memory_bits() > 0 && o2.memory_bits() > 0);
    }

    #[test]
    fn option2_shallower_ip_trie() {
        // 4 levels vs 5: option 2's IP lookups read fewer trie nodes.
        let rs = small_set();
        let o1 = OptionClassifier::build(&rs, OptionKind::One);
        let o2 = OptionClassifier::build(&rs, OptionKind::Two);
        assert_eq!(o1.fields.sip.engine.num_levels(), 5);
        assert_eq!(o2.fields.sip.engine.num_levels(), 4);
    }
}
