//! Distributed Crossproducting of Field Labels (Taylor & Turner, INFOCOM
//! 2005; paper reference \[5\]).
//!
//! DCFL performs the five field lookups **in parallel**, each returning the
//! label set of matching unique field values, then joins the sets through
//! an *aggregation network* of hash tables holding the label combinations
//! that actually occur in the rule set. The paper credits DCFL with the
//! best lookup performance of the compared algorithms (Table I: 23.1
//! average accesses) while noting its memory utilisation is inefficient —
//! the aggregation tables are provisioned for combination worst cases,
//! which this implementation models with power-of-two overprovisioning.

use crate::fields::FieldFrontEnd;
use crate::{verdict, EngineKind, PacketClassifier, Verdict};
use spc_lookup::{LabelList, MbtConfig, SegTrieConfig};
use spc_types::{Header, Priority, Rule, RuleId, RuleSet};
use std::collections::HashMap;

/// An aggregation-network hash table: (left label, right label) → meta
/// label, provisioned at 2× entries rounded up to a power of two.
#[derive(Debug, Default)]
struct AggTable {
    map: HashMap<(u32, u32), u32>,
}

impl AggTable {
    fn intern(&mut self, key: (u32, u32)) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(key).or_insert(next)
    }

    fn get(&self, key: (u32, u32)) -> Option<u32> {
        self.map.get(&key).copied()
    }

    fn memory_bits(&self) -> u64 {
        let slots = (self.map.len().max(1) * 2).next_power_of_two() as u64;
        // key (13 + 13) + meta label (16) + valid bit.
        slots * (13 + 13 + 16 + 1)
    }
}

/// The DCFL classifier (static build over a rule set).
#[derive(Debug)]
pub(crate) struct Dcfl {
    fields: FieldFrontEnd,
    ag1: AggTable, // (sip, dip)
    ag2: AggTable, // (ag1, sport)
    ag3: AggTable, // (ag2, dport)
    /// (ag3 meta, proto label) → HPMR for that full combination.
    final_map: HashMap<(u32, u32), (Priority, RuleId)>,
    /// The rules by id, for a hit's verdict.
    rules: Vec<Rule>,
}

impl Dcfl {
    /// Preprocesses a rule set into field structures + aggregation network.
    ///
    /// # Errors
    ///
    /// The reason, when a field has more distinct values than its labels
    /// can name or overflows its structure's provisioning.
    pub(crate) fn build(rules: &RuleSet) -> Result<Self, String> {
        let cap = (rules.len() + 64).next_power_of_two();
        let mut me = Dcfl {
            fields: FieldFrontEnd::new(
                "dcfl",
                MbtConfig::ip32_5level(cap),
                SegTrieConfig::four_level(cap.min(4096)),
            ),
            ag1: AggTable::default(),
            ag2: AggTable::default(),
            ag3: AggTable::default(),
            final_map: HashMap::new(),
            rules: rules.rules().to_vec(),
        };
        for (id, r) in rules.iter() {
            // DCFL labels carry no priority: the final table holds it.
            let labels = me.fields.intern(r, Priority(0))?;
            let [ls, ld, lsp, ldp, lpr] = labels.map(|l| u32::from(l.0));
            let m1 = me.ag1.intern((ls, ld));
            let m2 = me.ag2.intern((m1, lsp));
            let m3 = me.ag3.intern((m2, ldp));
            let slot = me.final_map.entry((m3, lpr)).or_insert((r.priority, id));
            if (r.priority, id) < *slot {
                *slot = (r.priority, id);
            }
        }
        Ok(me)
    }

    fn final_memory_bits(&self) -> u64 {
        let slots = (self.final_map.len().max(1) * 2).next_power_of_two() as u64;
        // key (16 + 4) + priority (16) + rule id (16) + valid.
        slots * (16 + 4 + 16 + 16 + 1)
    }
}

impl PacketClassifier for Dcfl {
    fn kind(&self) -> EngineKind {
        EngineKind::Dcfl
    }

    fn rules(&self) -> usize {
        self.rules.len()
    }

    fn classify(&self, h: &Header) -> Verdict {
        // Parallel field searches returning full label sets.
        let mut lists: [LabelList; 5] = Default::default();
        let mut accesses = self.fields.lookup(h, &mut lists);
        let [rs, rd, rsp, rdp, rpr] = lists;
        // Aggregation network: each candidate pair costs one probe.
        let mut m1 = Vec::new();
        for a in &rs {
            for b in &rd {
                accesses += 1;
                if let Some(m) = self.ag1.get((u32::from(a.label.0), u32::from(b.label.0))) {
                    m1.push(m);
                }
            }
        }
        let mut m2 = Vec::new();
        for &m in &m1 {
            for p in &rsp {
                accesses += 1;
                if let Some(x) = self.ag2.get((m, u32::from(p.label.0))) {
                    m2.push(x);
                }
            }
        }
        let mut m3 = Vec::new();
        for &m in &m2 {
            for p in &rdp {
                accesses += 1;
                if let Some(x) = self.ag3.get((m, u32::from(p.label.0))) {
                    m3.push(x);
                }
            }
        }
        let mut best: Option<(Priority, RuleId)> = None;
        for &m in &m3 {
            for p in &rpr {
                accesses += 1;
                if let Some(&cand) = self.final_map.get(&(m, u32::from(p.label.0))) {
                    if best.map_or(true, |b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
        }
        let hit = best.map(|(_, id)| (id, &self.rules[id.0 as usize]));
        verdict(hit, accesses)
    }

    fn memory_bits(&self) -> u64 {
        self.fields.used_bits()
            + self.ag1.memory_bits()
            + self.ag2.memory_bits()
            + self.ag3.memory_bits()
            + self.final_memory_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::testutil::{agrees_with_linear, avg_reads, fw_set, small_set};
    use crate::linear::LinearSearch;
    use spc_types::{PortRange, ProtoSpec};

    #[test]
    fn agrees_with_oracle_acl() {
        let rs = small_set();
        agrees_with_linear(&Dcfl::build(&rs).unwrap(), &rs, 300);
    }

    #[test]
    fn agrees_with_oracle_fw() {
        let rs = fw_set();
        agrees_with_linear(&Dcfl::build(&rs).unwrap(), &rs, 300);
    }

    #[test]
    fn accesses_far_below_linear() {
        let rs = small_set();
        let linear = avg_reads(&mut LinearSearch::build(&rs), &rs, 100);
        assert!(avg_reads(&mut Dcfl::build(&rs).unwrap(), &rs, 100) < linear / 2.0);
    }

    #[test]
    fn memory_accounts_aggregation() {
        let rs = small_set();
        let d = Dcfl::build(&rs).unwrap();
        assert!(d.memory_bits() > 0);
        assert!(d.ag1.memory_bits() > 0);
    }

    #[test]
    fn miss_on_unmatched_header() {
        let rs = small_set();
        let d = Dcfl::build(&rs).unwrap();
        // src port 1..: ACL rules have wildcard sport, so pick a header
        // whose proto dimension can't match: protocol 200 is not in pools.
        let h = Header::new([9, 9, 9, 9].into(), [8, 8, 8, 8].into(), 1, 1, 200);
        assert_eq!(d.classify(&h).rule, rs.classify(&h).map(|(i, _)| i));
    }

    #[test]
    fn one_rule_joins_through_the_network() {
        let rs = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(6))
            .build()]);
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 7, 80, 6);
        let v = Dcfl::build(&rs).unwrap().classify(&h);
        assert_eq!(v.rule, Some(RuleId(0)));
    }
}
