//! The trie-combination classifiers called **Option 1** and **Option 2**
//! in the paper's Table I (from the authors' ICC'14 study \[17\]).
//!
//! * Option 1 — 5-level multi-bit trie for the 32-bit IP fields, 4-level
//!   segment trie for the port fields, register LUT for protocol.
//! * Option 2 — 4-level multi-bit trie, 5-level segment trie, LUT.
//!
//! Both use the label method and resolve the HPMR by probing the label
//! cross-product against a hashed rule memory — the approach this paper
//! then hardens into the configurable segment architecture. The memory
//! is the paper's [`RuleFilter`] over the front end's five label widths
//! (a 56-bit key): the filter packs, hashes and prices the key, as it
//! does the configurable classifier's.

use crate::fields::{FieldFrontEnd, LABEL_WIDTHS};
use crate::{verdict, EngineKind, PacketClassifier, Verdict};
use spc_core::{Hit, RuleFilter};
use spc_lookup::{LabelList, MbtConfig, SegTrieConfig};
use spc_types::{Header, RuleSet};

/// A Table I option classifier (static build).
#[derive(Debug)]
pub(crate) struct OptionClassifier {
    /// [`EngineKind::Option1`] or [`EngineKind::Option2`].
    kind: EngineKind,
    fields: FieldFrontEnd,
    filter: RuleFilter,
}

impl OptionClassifier {
    /// Builds `kind` — [`EngineKind::Option1`] or [`EngineKind::Option2`]
    /// — over a rule set.
    ///
    /// # Errors
    ///
    /// The reason, when a field has more distinct values than its labels
    /// can name, or a field structure or the Rule Filter (sized at ≥2×
    /// the rule count) overflows its provisioning.
    pub(crate) fn build(rules: &RuleSet, kind: EngineKind) -> Result<Self, String> {
        let cap = (rules.len() + 64).next_power_of_two();
        let (mbt_cfg, seg_cfg) = if kind == EngineKind::Option1 {
            (
                MbtConfig::ip32_5level(cap),
                SegTrieConfig::four_level(cap.min(4096)),
            )
        } else {
            (
                MbtConfig::ip32_4level(cap),
                SegTrieConfig::five_level(cap.min(4096)),
            )
        };
        let mut me = OptionClassifier {
            kind,
            fields: FieldFrontEnd::new("opt", mbt_cfg, seg_cfg),
            filter: RuleFilter::new(
                ((rules.len().max(64) * 2)
                    .next_power_of_two()
                    .trailing_zeros())
                .max(6),
                &LABEL_WIDTHS,
            ),
        };
        for (id, r) in rules.iter() {
            // A label is as good as the first rule that brought its value.
            let labels = me.fields.intern(r, r.priority)?;
            me.filter
                .insert(me.filter.key(&labels), id, *r)
                .map_err(|e| format!("rule filter: {e}"))?;
        }
        Ok(me)
    }
}

impl PacketClassifier for OptionClassifier {
    fn kind(&self) -> EngineKind {
        self.kind
    }

    fn rules(&self) -> usize {
        self.filter.len()
    }

    fn classify(&self, h: &Header) -> Verdict {
        let mut lists: [LabelList; 5] = Default::default();
        let mut accesses = self.fields.lookup(h, &mut lists);
        let [rs, rd, rsp, rdp, rpr] = lists;
        let rank = |h: &Hit| (h.rule.priority, h.rule_id);
        let mut best: Option<Hit> = None;
        for a in &rs {
            for b in &rd {
                for c in &rsp {
                    for d in &rdp {
                        for e in &rpr {
                            let key = self.filter.key(&[a, b, c, d, e].map(|x| x.label));
                            let probe = self.filter.probe(key);
                            accesses += probe.reads;
                            if let Some(hit) = probe.hit {
                                if best.map_or(true, |x| rank(&hit) < rank(&x)) {
                                    best = Some(hit);
                                }
                            }
                        }
                    }
                }
            }
        }
        verdict(best.as_ref().map(|h| (h.rule_id, &h.rule)), accesses)
    }

    fn memory_bits(&self) -> u64 {
        self.fields.used_bits() + self.filter.provisioned_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::testutil::{agrees_with_linear, fw_set, small_set};
    use spc_types::{PortRange, Priority, Rule, RuleId};

    #[test]
    fn option1_agrees_with_oracle() {
        let rs = small_set();
        let o = OptionClassifier::build(&rs, EngineKind::Option1).unwrap();
        agrees_with_linear(&o, &rs, 300);
    }

    #[test]
    fn option2_agrees_with_oracle() {
        let rs = fw_set();
        let o = OptionClassifier::build(&rs, EngineKind::Option2).unwrap();
        agrees_with_linear(&o, &rs, 300);
    }

    #[test]
    fn option_kinds_report_names() {
        let rs = small_set();
        let o1 = OptionClassifier::build(&rs, EngineKind::Option1).unwrap();
        let o2 = OptionClassifier::build(&rs, EngineKind::Option2).unwrap();
        assert_eq!(o1.kind().title(), "Option 1");
        assert_eq!(o2.kind().title(), "Option 2");
        assert_eq!(o1.kind(), EngineKind::Option1);
        assert_eq!(o2.kind(), EngineKind::Option2);
        assert!(o1.memory_bits() > 0 && o2.memory_bits() > 0);
    }

    #[test]
    fn option2_shallower_ip_trie() {
        // 4 levels vs 5: option 2's IP lookups read fewer trie nodes.
        let rs = small_set();
        let o1 = OptionClassifier::build(&rs, EngineKind::Option1).unwrap();
        let o2 = OptionClassifier::build(&rs, EngineKind::Option2).unwrap();
        assert_eq!(o1.fields.sip.engine.num_levels(), 5);
        assert_eq!(o2.fields.sip.engine.num_levels(), 4);
    }

    #[test]
    fn one_rule_hits_through_the_rule_filter() {
        let rs = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .dst_port(PortRange::exact(80))
            .build()]);
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 7, 80, 6);
        let o = OptionClassifier::build(&rs, EngineKind::Option1).unwrap();
        assert_eq!(o.classify(&h).rule, Some(RuleId(0)));
    }
}
