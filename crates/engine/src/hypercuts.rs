//! HyperCuts — multidimensional decision-tree cutting (Singh et al.,
//! SIGCOMM 2003; paper reference \[2\]).
//!
//! Each internal node cuts its hyper-region into equal cells along one or
//! two chosen dimensions; rules replicate into every overlapping child,
//! which is HyperCuts' characteristic memory/time trade-off (Table I: high
//! lookup access count, moderate memory; the paper's §II also cites the
//! replication problem EffiCuts later attacks).

use crate::linear::RULE_WORDS;
use crate::{verdict, EngineKind, PacketClassifier, Verdict};
use spc_types::{Header, ProtoSpec, Rule, RuleId, RuleSet};

/// Leaf bucket size (the original paper's `binth`): nodes with at most
/// this many rules stop cutting.
const BINTH: usize = 16;
/// Space factor (`spfac`): a node may create up to `SPFAC × √n` children.
const SPFAC: f64 = 4.0;
/// Hard recursion cap.
const MAX_DEPTH: u32 = 32;

/// The five classification dimensions as closed integer ranges.
const DIMS: usize = 5;

fn rule_range(r: &Rule, d: usize) -> (u64, u64) {
    match d {
        0 => (u64::from(r.src_ip.first().0), u64::from(r.src_ip.last().0)),
        1 => (u64::from(r.dst_ip.first().0), u64::from(r.dst_ip.last().0)),
        2 => (u64::from(r.src_port.lo()), u64::from(r.src_port.hi())),
        3 => (u64::from(r.dst_port.lo()), u64::from(r.dst_port.hi())),
        _ => match r.proto {
            ProtoSpec::Any => (0, 255),
            ProtoSpec::Exact(v) => (u64::from(v), u64::from(v)),
        },
    }
}

fn header_value(h: &Header, d: usize) -> u64 {
    match d {
        0 => u64::from(h.src_ip.0),
        1 => u64::from(h.dst_ip.0),
        2 => u64::from(h.src_port),
        3 => u64::from(h.dst_port),
        _ => u64::from(h.proto),
    }
}

/// One cut dimension of an inner node.
#[derive(Debug, Clone, Copy)]
struct Cut {
    dim: usize,
    lo: u64,
    cell: u64,
    cuts: u32,
}

#[derive(Debug)]
enum Node {
    Inner { cuts: Vec<Cut>, children: Vec<u32> },
    Leaf { rules: Vec<(RuleId, Rule)> },
}

/// The HyperCuts classifier.
#[derive(Debug)]
pub(crate) struct HyperCuts {
    nodes: Vec<Node>,
    root: u32,
    rule_count: usize,
}

impl HyperCuts {
    /// Builds the decision tree over a rule set.
    pub(crate) fn build(rules: &RuleSet) -> Self {
        let all: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
        let mut hc = HyperCuts {
            nodes: Vec::new(),
            root: 0,
            rule_count: all.len(),
        };
        let region: [(u64, u64); DIMS] = [
            (0, u64::from(u32::MAX)),
            (0, u64::from(u32::MAX)),
            (0, 65535),
            (0, 65535),
            (0, 255),
        ];
        hc.root = hc.build_node(all, region, 0);
        hc
    }

    fn build_node(
        &mut self,
        rules: Vec<(RuleId, Rule)>,
        region: [(u64, u64); DIMS],
        depth: u32,
    ) -> u32 {
        if rules.len() <= BINTH || depth >= MAX_DEPTH {
            return self.push_leaf(rules);
        }
        // Heuristic: count distinct projected ranges per dimension, choose
        // dimensions with above-average distinct counts (at most 2).
        let mut uniq = [0usize; DIMS];
        for (d, u) in uniq.iter_mut().enumerate() {
            let mut vs: Vec<(u64, u64)> = rules
                .iter()
                .map(|(_, r)| rule_range(r, d))
                .map(|(lo, hi)| (lo.max(region[d].0), hi.min(region[d].1)))
                .collect();
            vs.sort_unstable();
            vs.dedup();
            *u = vs.len();
        }
        let mean = uniq.iter().sum::<usize>() as f64 / DIMS as f64;
        let mut chosen: Vec<usize> = (0..DIMS)
            .filter(|&d| uniq[d] as f64 >= mean && uniq[d] > 1 && region[d].0 < region[d].1)
            .collect();
        chosen.sort_by_key(|&d| std::cmp::Reverse(uniq[d]));
        chosen.truncate(2);
        if chosen.is_empty() {
            return self.push_leaf(rules);
        }
        // Budget children by spfac * sqrt(n); double cuts round-robin.
        let budget = (SPFAC * (rules.len() as f64).sqrt()).max(2.0) as u64;
        let mut cut_bits: Vec<u32> = vec![0; chosen.len()];
        loop {
            let mut advanced = false;
            for (i, &d) in chosen.iter().enumerate() {
                let total: u64 = cut_bits.iter().map(|b| 1u64 << b).product();
                let span = region[d].1 - region[d].0 + 1;
                if total * 2 <= budget && (1u64 << (cut_bits[i] + 1)) <= span {
                    cut_bits[i] += 1;
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
        if cut_bits.iter().all(|b| *b == 0) {
            return self.push_leaf(rules);
        }
        let cuts: Vec<Cut> = chosen
            .iter()
            .zip(&cut_bits)
            .map(|(&d, &b)| {
                let n = 1u64 << b;
                let span = region[d].1 - region[d].0 + 1;
                Cut {
                    dim: d,
                    lo: region[d].0,
                    cell: (span / n).max(1),
                    cuts: n as u32,
                }
            })
            .collect();
        let total_children: usize = cuts.iter().map(|c| c.cuts as usize).product();
        // Distribute rules into children (with replication).
        let mut buckets: Vec<Vec<(RuleId, Rule)>> = vec![Vec::new(); total_children];
        for (id, rule) in &rules {
            // Index ranges per cut dimension.
            let spans: Vec<(u64, u64)> = cuts
                .iter()
                .map(|c| {
                    let (rlo, rhi) = rule_range(rule, c.dim);
                    let rlo = rlo.max(region[c.dim].0);
                    let rhi = rhi.min(region[c.dim].1);
                    let i0 = ((rlo - c.lo) / c.cell).min(u64::from(c.cuts) - 1);
                    let i1 = ((rhi - c.lo) / c.cell).min(u64::from(c.cuts) - 1);
                    (i0, i1)
                })
                .collect();
            // Cartesian product of index ranges.
            let mut idx: Vec<u64> = spans.iter().map(|s| s.0).collect();
            loop {
                let mut flat = 0u64;
                for (i, c) in cuts.iter().enumerate() {
                    flat = flat * u64::from(c.cuts) + idx[i];
                }
                buckets[flat as usize].push((*id, *rule));
                // Advance odometer.
                let mut d = spans.len();
                loop {
                    if d == 0 {
                        idx.clear();
                        break;
                    }
                    d -= 1;
                    if idx[d] < spans[d].1 {
                        idx[d] += 1;
                        for s in d + 1..spans.len() {
                            idx[s] = spans[s].0;
                        }
                        break;
                    }
                }
                if idx.is_empty() {
                    break;
                }
            }
        }
        // No progress (every child holds everything) -> stop.
        if buckets.iter().all(|b| b.len() == rules.len()) {
            return self.push_leaf(rules);
        }
        let node_idx = self.nodes.len() as u32;
        self.nodes.push(Node::Inner {
            cuts: cuts.clone(),
            children: Vec::new(),
        });
        let mut children = Vec::with_capacity(total_children);
        for (flat, bucket) in buckets.into_iter().enumerate() {
            // Child region.
            let mut child_region = region;
            let mut rem = flat as u64;
            for c in cuts.iter().rev() {
                let i = rem % u64::from(c.cuts);
                rem /= u64::from(c.cuts);
                let lo = c.lo + i * c.cell;
                let hi = if i == u64::from(c.cuts) - 1 {
                    region[c.dim].1
                } else {
                    lo + c.cell - 1
                };
                child_region[c.dim] = (lo, hi);
            }
            children.push(self.build_node(bucket, child_region, depth + 1));
        }
        match &mut self.nodes[node_idx as usize] {
            Node::Inner { children: slot, .. } => *slot = children,
            Node::Leaf { .. } => unreachable!("just pushed an inner node"),
        }
        node_idx
    }

    fn push_leaf(&mut self, mut rules: Vec<(RuleId, Rule)>) -> u32 {
        rules.sort_by_key(|(id, r)| (r.priority, id.0));
        self.nodes.push(Node::Leaf { rules });
        self.nodes.len() as u32 - 1
    }
}

impl PacketClassifier for HyperCuts {
    fn kind(&self) -> EngineKind {
        EngineKind::HyperCuts
    }

    fn rules(&self) -> usize {
        self.rule_count
    }

    fn classify(&self, h: &Header) -> Verdict {
        let mut accesses = 0u32;
        let mut node = self.root;
        loop {
            accesses += 1;
            match &self.nodes[node as usize] {
                Node::Inner { cuts, children } => {
                    let mut flat = 0u64;
                    for c in cuts {
                        let v = header_value(h, c.dim).max(c.lo);
                        let i = ((v - c.lo) / c.cell).min(u64::from(c.cuts) - 1);
                        flat = flat * u64::from(c.cuts) + i;
                    }
                    node = children[flat as usize];
                }
                Node::Leaf { rules } => {
                    for (id, rule) in rules {
                        accesses += RULE_WORDS;
                        if rule.matches(h) {
                            return verdict(Some((*id, rule)), accesses);
                        }
                    }
                    return verdict(None, accesses);
                }
            }
        }
    }

    fn memory_bits(&self) -> u64 {
        // Inner node: per-cut descriptor (dim 3 + lo 32 + cell 32 + cuts 6)
        // + child pointers (20 bits); leaf: header + 16-bit rule pointers.
        let mut bits = 0u64;
        for n in &self.nodes {
            bits += match n {
                Node::Inner { cuts, children } => {
                    32 + cuts.len() as u64 * 73 + children.len() as u64 * 20
                }
                Node::Leaf { rules } => 32 + rules.len() as u64 * 16,
            };
        }
        // Plus the backing rule table (one copy of each rule).
        bits + self.rule_count as u64 * 152
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::testutil::{agrees_with_linear, avg_reads, fw_set, small_set};
    use crate::linear::LinearSearch;
    use spc_types::{PortRange, Priority};

    #[test]
    fn agrees_with_oracle_acl() {
        let rs = small_set();
        agrees_with_linear(&HyperCuts::build(&rs), &rs, 300);
    }

    #[test]
    fn agrees_with_oracle_fw() {
        let rs = fw_set();
        agrees_with_linear(&HyperCuts::build(&rs), &rs, 300);
    }

    #[test]
    fn tree_actually_cuts() {
        let rs = small_set();
        let mut hc = HyperCuts::build(&rs);
        assert!(matches!(hc.nodes[hc.root as usize], Node::Inner { .. }));
        assert!(hc.nodes.len() > 1);
        // Far fewer accesses than linear scan on average.
        let linear = avg_reads(&mut LinearSearch::build(&rs), &rs, 100);
        assert!(avg_reads(&mut hc, &rs, 100) < linear / 2.0);
    }

    #[test]
    fn replication_counted() {
        let rs = small_set();
        let hc = HyperCuts::build(&rs);
        let leaf_entries: usize = hc
            .nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { rules } => rules.len(),
                Node::Inner { .. } => 0,
            })
            .sum();
        assert!(leaf_entries >= rs.len());
        assert!(hc.memory_bits() > 0);
    }

    #[test]
    fn empty_ruleset() {
        let hc = HyperCuts::build(&RuleSet::new());
        let r = hc.classify(&Header::default());
        assert!(r.rule.is_none());
        assert_eq!(r.mem_reads, 1); // one (empty) leaf node read
    }

    #[test]
    fn port_rule_beats_the_wildcard_below_it() {
        let rs = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .build(),
            Rule::builder(Priority(1)).build(),
        ]);
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 1, 80, 6);
        assert_eq!(HyperCuts::build(&rs).classify(&h).rule, Some(RuleId(0)));
    }
}
