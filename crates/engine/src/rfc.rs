//! Recursive Flow Classification (Gupta & McKeown, SIGCOMM 1999; paper
//! reference \[3\]).
//!
//! RFC precomputes, for every 16-bit header chunk, a table mapping chunk
//! values to *equivalence class* ids, then crossproducts the ids through a
//! reduction tree until a single id indexes the final action. Lookups are
//! a fixed, small number of table reads — the fastest software scheme the
//! paper compares — but the crossproduct tables explode in memory
//! (Table I: 31.48 Mb versus HyperCuts' 5.96 Mb), which is exactly the
//! behaviour this implementation reproduces and measures.

use crate::{verdict, EngineKind, PacketClassifier, Verdict};
use spc_types::{Header, Priority, ProtoSpec, Rule, RuleId, RuleSet};
use std::collections::HashMap;

/// Rule membership bitset.
type BitSet = Vec<u64>;

fn bitset_and(a: &BitSet, b: &BitSet) -> BitSet {
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

/// One chunk/phase table: value (or id pair) → class id, plus the class
/// bitsets feeding the next phase.
#[derive(Debug)]
struct EqTable {
    entries: Vec<u32>,
    classes: Vec<BitSet>,
}

impl EqTable {
    fn id_bits(&self) -> u64 {
        u64::from(
            (self.classes.len().max(2) as u64)
                .next_power_of_two()
                .trailing_zeros(),
        )
    }

    fn memory_bits(&self) -> u64 {
        self.entries.len() as u64 * self.id_bits()
    }
}

/// The seven 16-bit chunks (protocol padded to 8 bits of index space).
const CHUNK_SPACE: [usize; 7] = [1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 8];

/// The RFC classifier.
#[derive(Debug)]
pub(crate) struct Rfc {
    phase0: Vec<EqTable>, // 7 chunk tables
    table_a: EqTable,     // (sip_hi, sip_lo)
    table_b: EqTable,     // (dip_hi, dip_lo)
    table_c: EqTable,     // (sport, dport)
    table_d: EqTable,     // (A, B)
    table_e: EqTable,     // (C, proto)
    table_f: EqTable,     // (D, E) final
    final_rules: Vec<Option<RuleId>>,
    /// The rules by id, for a hit's verdict.
    rules: Vec<Rule>,
}

impl Rfc {
    /// Preprocesses a rule set. `entry_cap` bounds any single phase table.
    ///
    /// # Errors
    ///
    /// The reason, when a crossproduct would exceed the cap — RFC's
    /// memory explosion, surfaced instead of thrashing.
    pub(crate) fn build(rules: &RuleSet, entry_cap: u64) -> Result<Self, String> {
        let words = rules.len().div_ceil(64).max(1);
        // Phase 0: per-chunk elementary-interval sweep.
        let mut phase0 = Vec::with_capacity(7);
        for chunk in 0..7 {
            phase0.push(Self::build_chunk(rules, chunk, words));
        }
        let combine = |x: &EqTable, y: &EqTable, name: &str| -> Result<EqTable, String> {
            let entries = x.classes.len() as u64 * y.classes.len() as u64;
            if entries > entry_cap {
                return Err(format!(
                    "rfc phase table {name} needs {entries} entries, exceeding the {entry_cap} cap"
                ));
            }
            let mut table = Vec::with_capacity(entries as usize);
            let mut ids: HashMap<BitSet, u32> = HashMap::new();
            let mut classes: Vec<BitSet> = Vec::new();
            for cx in &x.classes {
                for cy in &y.classes {
                    let inter = bitset_and(cx, cy);
                    let id = *ids.entry(inter.clone()).or_insert_with(|| {
                        classes.push(inter);
                        classes.len() as u32 - 1
                    });
                    table.push(id);
                }
            }
            Ok(EqTable {
                entries: table,
                classes,
            })
        };
        let table_a = combine(&phase0[0], &phase0[1], "A(sip)")?;
        let table_b = combine(&phase0[2], &phase0[3], "B(dip)")?;
        let table_c = combine(&phase0[4], &phase0[5], "C(ports)")?;
        let table_d = combine(&table_a, &table_b, "D(sip,dip)")?;
        let table_e = combine(&table_c, &phase0[6], "E(ports,proto)")?;
        let table_f = combine(&table_d, &table_e, "F(final)")?;
        // Final classes -> HPMR.
        let by_priority: Vec<(RuleId, Priority)> =
            rules.iter().map(|(id, r)| (id, r.priority)).collect();
        let final_rules = table_f
            .classes
            .iter()
            .map(|set| {
                let mut best: Option<(Priority, RuleId)> = None;
                for (i, (id, p)) in by_priority.iter().enumerate() {
                    if set[i / 64] >> (i % 64) & 1 == 1 {
                        let cand = (*p, *id);
                        if best.map_or(true, |b| cand < b) {
                            best = Some(cand);
                        }
                    }
                }
                best.map(|(_, id)| id)
            })
            .collect();
        Ok(Rfc {
            phase0,
            table_a,
            table_b,
            table_c,
            table_d,
            table_e,
            table_f,
            final_rules,
            rules: rules.rules().to_vec(),
        })
    }

    fn build_chunk(rules: &RuleSet, chunk: usize, words: usize) -> EqTable {
        let space = CHUNK_SPACE[chunk];
        // Projected inclusive ranges per rule.
        let ranges: Vec<(usize, usize)> = rules
            .iter()
            .map(|(_, r)| match chunk {
                0 => {
                    let s = r.src_ip.segments().0;
                    (usize::from(s.first()), usize::from(s.last()))
                }
                1 => {
                    let s = r.src_ip.segments().1;
                    (usize::from(s.first()), usize::from(s.last()))
                }
                2 => {
                    let s = r.dst_ip.segments().0;
                    (usize::from(s.first()), usize::from(s.last()))
                }
                3 => {
                    let s = r.dst_ip.segments().1;
                    (usize::from(s.first()), usize::from(s.last()))
                }
                4 => (usize::from(r.src_port.lo()), usize::from(r.src_port.hi())),
                5 => (usize::from(r.dst_port.lo()), usize::from(r.dst_port.hi())),
                _ => match r.proto {
                    ProtoSpec::Any => (0, 255),
                    ProtoSpec::Exact(v) => (usize::from(v), usize::from(v)),
                },
            })
            .collect();
        // Elementary boundaries.
        let mut bounds: Vec<usize> = vec![0];
        for &(lo, hi) in &ranges {
            bounds.push(lo);
            bounds.push(hi + 1);
        }
        bounds.retain(|b| *b < space);
        bounds.sort_unstable();
        bounds.dedup();
        let mut entries = vec![0u32; space];
        let mut ids: HashMap<BitSet, u32> = HashMap::new();
        let mut classes: Vec<BitSet> = Vec::new();
        for (bi, &start) in bounds.iter().enumerate() {
            let end = bounds.get(bi + 1).copied().unwrap_or(space) - 1;
            let mut set = vec![0u64; words];
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                if lo <= start && end <= hi {
                    set[i / 64] |= 1 << (i % 64);
                }
            }
            let id = *ids.entry(set.clone()).or_insert_with(|| {
                classes.push(set);
                classes.len() as u32 - 1
            });
            for e in entries.iter_mut().take(end + 1).skip(start) {
                *e = id;
            }
        }
        if classes.is_empty() {
            classes.push(vec![0u64; words]);
        }
        EqTable { entries, classes }
    }
}

impl PacketClassifier for Rfc {
    fn kind(&self) -> EngineKind {
        EngineKind::Rfc
    }

    fn rules(&self) -> usize {
        self.rules.len()
    }

    fn classify(&self, h: &Header) -> Verdict {
        let v = [
            usize::from(h.sip_hi()),
            usize::from(h.sip_lo()),
            usize::from(h.dip_hi()),
            usize::from(h.dip_lo()),
            usize::from(h.src_port),
            usize::from(h.dst_port),
            usize::from(h.proto),
        ];
        let c: Vec<usize> = (0..7)
            .map(|i| self.phase0[i].entries[v[i]] as usize)
            .collect();
        let a = self.table_a.entries[c[0] * self.phase0[1].classes.len() + c[1]] as usize;
        let b = self.table_b.entries[c[2] * self.phase0[3].classes.len() + c[3]] as usize;
        let cc = self.table_c.entries[c[4] * self.phase0[5].classes.len() + c[5]] as usize;
        let d = self.table_d.entries[a * self.table_b.classes.len() + b] as usize;
        let e = self.table_e.entries[cc * self.phase0[6].classes.len() + c[6]] as usize;
        let f = self.table_f.entries[d * self.table_e.classes.len() + e] as usize;
        // 7 phase-0 reads + 3 phase-1 + 2 phase-2 + 1 phase-3.
        let hit = self.final_rules[f].map(|id| (id, &self.rules[id.0 as usize]));
        verdict(hit, 13)
    }

    fn memory_bits(&self) -> u64 {
        self.phase0.iter().map(EqTable::memory_bits).sum::<u64>()
            + self.table_a.memory_bits()
            + self.table_b.memory_bits()
            + self.table_c.memory_bits()
            + self.table_d.memory_bits()
            + self.table_e.memory_bits()
            + self.table_f.memory_bits()
            + self.final_rules.len() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::testutil::{agrees_with_linear, fw_set, small_set, trace};
    use crate::linear::LinearSearch;
    use spc_types::PortRange;

    #[test]
    fn agrees_with_oracle_acl() {
        let rs = small_set();
        agrees_with_linear(&Rfc::build(&rs, 1 << 26).unwrap(), &rs, 300);
    }

    #[test]
    fn agrees_with_oracle_fw() {
        let rs = fw_set();
        agrees_with_linear(&Rfc::build(&rs, 1 << 26).unwrap(), &rs, 300);
    }

    #[test]
    fn fixed_access_count() {
        let rs = small_set();
        let rfc = Rfc::build(&rs, 1 << 26).unwrap();
        for h in trace(&rs, 20) {
            assert_eq!(rfc.classify(&h).mem_reads, 13);
        }
    }

    #[test]
    fn memory_larger_than_linear() {
        // RFC's signature: memory explodes relative to the rule list.
        let rs = small_set();
        let rfc = Rfc::build(&rs, 1 << 26).unwrap();
        let ls = LinearSearch::build(&rs);
        assert!(rfc.memory_bits() > 10 * ls.memory_bits());
    }

    #[test]
    fn cap_enforced() {
        let rs = small_set();
        match Rfc::build(&rs, 64) {
            Err(reason) => assert!(reason.contains("exceeding the 64 cap"), "{reason}"),
            Ok(_) => panic!("expected table overflow"),
        }
    }

    #[test]
    fn empty_ruleset() {
        let rs = RuleSet::new();
        let rfc = Rfc::build(&rs, 1 << 20).unwrap();
        assert!(rfc.classify(&Header::default()).rule.is_none());
    }

    #[test]
    fn one_rule_hits_in_thirteen_reads() {
        let rs = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .dst_port(PortRange::exact(80))
            .build()]);
        let rfc = Rfc::build(&rs, 1 << 24).unwrap();
        let hit = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 1, 80, 6);
        let v = rfc.classify(&hit);
        assert_eq!(v.rule, Some(RuleId(0)));
        assert_eq!(v.mem_reads, 13);
    }
}
