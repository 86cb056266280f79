//! Boundary-value probe grids and the exact reachability sweep.
//!
//! The oracle HPM verdict is piecewise-constant over the product cells of
//! per-dimension *elementary intervals*: cut each 16-bit dimension at every
//! rule bound and the verdict cannot change inside a cell, because no rule's
//! membership changes inside one. Probing one representative per cell —
//! the interval's left endpoint — therefore observes **every** verdict the
//! rule set can produce. A rule that never wins any cell is exactly
//! unreachable; one that wins some cell is reachable with that cell's
//! representative header as witness.

use crate::report::Reachability;
use spc_types::{DimValue, Header, Ipv4, Priority, ProtoSpec, Rule, RuleSet, ALL_DIMS};
use std::ops::ControlFlow;

/// Inclusive query-value bounds of a rule's projection on one dimension.
pub(crate) fn bounds(v: DimValue) -> (u16, u16) {
    match v {
        DimValue::Seg(s) => (s.first(), s.last()),
        DimValue::Port(r) => (r.lo(), r.hi()),
        DimValue::Proto(ProtoSpec::Any) => (0, 0xff),
        DimValue::Proto(ProtoSpec::Exact(p)) => (u16::from(p), u16::from(p)),
    }
}

/// The left endpoints of every elementary interval a rule set induces,
/// per dimension in [`ALL_DIMS`] order: `{0} ∪ {lo} ∪ {hi + 1}` over all
/// rules, clipped to the dimension's domain (protocol values stop at 255
/// — a header cannot carry more). Each list is sorted and deduplicated,
/// so the product of the list lengths is the exact number of cells the
/// verdict function can distinguish.
pub fn candidate_values(rules: &RuleSet) -> [Vec<u16>; 7] {
    ALL_DIMS.map(|dim| {
        let domain_max: u16 = if dim == spc_types::Dim::Proto {
            0xff
        } else {
            0xffff
        };
        let mut vals = vec![0u16];
        for rule in rules {
            let (lo, hi) = bounds(rule.dim_value(dim));
            vals.push(lo);
            if hi < domain_max {
                vals.push(hi + 1);
            }
        }
        vals.sort_unstable();
        vals.dedup();
        vals
    })
}

/// Builds the header whose seven dimension queries are exactly `vals`
/// (in [`ALL_DIMS`] order). Protocol values must fit a byte.
pub fn header_from_dims(vals: [u16; 7]) -> Header {
    debug_assert!(vals[6] <= 0xff, "protocol dimension is 8-bit");
    let sip = (u32::from(vals[0]) << 16) | u32::from(vals[1]);
    let dip = (u32::from(vals[2]) << 16) | u32::from(vals[3]);
    Header::new(Ipv4(sip), Ipv4(dip), vals[4], vals[5], vals[6] as u8)
}

/// Number of probe cells, or `None` on overflow (certainly over budget).
pub fn grid_size(cands: &[Vec<u16>; 7]) -> Option<usize> {
    cands
        .iter()
        .try_fold(1usize, |acc, c| acc.checked_mul(c.len()))
}

/// Outcome of the reachability pass.
pub(crate) struct Sweep {
    /// Per-rule verdicts, indexed by rule id.
    pub reachability: Vec<Reachability>,
    /// Whether the full grid fit the budget (no `Unknown` verdicts).
    pub exhaustive: bool,
    /// Cells the sweep visited, or corner probes the fallback made.
    pub probes: usize,
    /// Exact elementary-interval grid size, or `None` on overflow.
    pub grid: Option<usize>,
}

/// Whether rule `a` (id `ai`) outranks rule `b` (id `bi`) in HPM
/// resolution: strictly smaller `(priority, id)`.
fn outranks(a: &Rule, ai: u32, b: &Rule, bi: u32) -> bool {
    (a.priority, ai) < (b.priority, bi)
}

/// Whether `a`'s match region contains `b`'s on every dimension.
pub(crate) fn covers_all_dims(a: &Rule, b: &Rule) -> bool {
    ALL_DIMS
        .iter()
        .all(|&d| a.dim_value(d).covers(b.dim_value(d)))
}

/// Computes per-rule reachability. Runs the exact sweep when the grid
/// fits `budget` cells; otherwise degrades to pairwise cover proofs plus
/// corner-witness probes and reports `exhaustive = false`.
pub(crate) fn reachability(rules: &RuleSet, budget: usize) -> Sweep {
    let cands = candidate_values(rules);
    let grid = grid_size(&cands);
    match grid {
        Some(cells) if cells <= budget => exact_sweep(rules, &cands, cells),
        _ => pairwise_fallback(rules, grid),
    }
}

/// The rule-bit universe a grid walk runs over: one bit per rule of the
/// set, rule `id` at bit `id`.
pub(crate) struct Universe {
    /// `(priority, id)` per bit — the HPM rank.
    rank: Vec<(Priority, u32)>,
    /// `u64` words per mask (at least one).
    words: usize,
    /// Per dimension, per candidate value: the bits of the rules matching it.
    masks: [Vec<Vec<u64>>; 7],
}

impl Universe {
    pub(crate) fn new(cands: &[Vec<u16>; 7], rules: &RuleSet) -> Self {
        let words = rules.len().div_ceil(64).max(1);
        let masks = ALL_DIMS.map(|dim| {
            cands[dim.index()]
                .iter()
                .map(|&q| {
                    let mut mask = vec![0u64; words];
                    for (bit, (_, rule)) in rules.iter().enumerate() {
                        if rule.dim_value(dim).matches(q) {
                            mask[bit / 64] |= 1 << (bit % 64);
                        }
                    }
                    mask
                })
                .collect()
        });
        let rank = rules.iter().map(|(id, r)| (r.priority, id.0)).collect();
        Universe { rank, words, masks }
    }

    /// The best-ranked rule among the bits of `mask`, as its rule id.
    pub(crate) fn winner(&self, mask: &[u64]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (w, &word) in mask.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if best.map_or(true, |b| self.rank[i] < self.rank[b]) {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// The one grid walk: depth-first over the product of `cands`, keeping per
/// depth the running AND of the chosen values' rule masks, so the mask at
/// a leaf is exactly the set of rules matching the cell. A prefix no rule
/// survives is not descended — every cell below it misses. `leaf` receives
/// each surviving cell's representative values and mask, and stops the
/// walk by breaking.
pub(crate) fn walk_grid<B>(
    cands: &[Vec<u16>; 7],
    universe: &Universe,
    mut leaf: impl FnMut([u16; 7], &[u64]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    // `partial[d]` is the AND over the values chosen for dimensions `< d`.
    let mut partial: Vec<Vec<u64>> = vec![vec![!0u64; universe.words]; 8];
    let mut vals = [0u16; 7];
    let mut idx = [0usize; 7];
    let mut d = 0usize;
    loop {
        if idx[d] == cands[d].len() {
            // This dimension is exhausted: backtrack.
            if d == 0 {
                return ControlFlow::Continue(());
            }
            idx[d] = 0;
            d -= 1;
            idx[d] += 1;
            continue;
        }
        vals[d] = cands[d][idx[d]];
        let (parent, rest) = partial.split_at_mut(d + 1);
        let mut any = 0u64;
        for ((dst, src), dim) in rest[0]
            .iter_mut()
            .zip(&parent[d])
            .zip(&universe.masks[d][idx[d]])
        {
            *dst = src & dim;
            any |= *dst;
        }
        if any == 0 && !universe.rank.is_empty() {
            // No rule survives this prefix (an empty universe has nothing
            // to prune by: its one cell is visited).
            idx[d] += 1;
        } else if d == 6 {
            leaf(vals, &partial[7])?;
            idx[d] += 1;
        } else {
            d += 1;
        }
    }
}

/// Reachability as a leaf of [`walk_grid`]: each cell's winner takes the
/// cell's representative as its witness; the walk stops once every rule
/// has one.
fn exact_sweep(rules: &RuleSet, cands: &[Vec<u16>; 7], cells: usize) -> Sweep {
    let n = rules.len();
    let universe = Universe::new(cands, rules);
    let mut reach: Vec<Option<Header>> = vec![None; n];
    let mut found = 0usize;
    let mut visited = 0usize;
    let _ = walk_grid(cands, &universe, |vals, mask| {
        visited += 1;
        if let Some(i) = universe.winner(mask) {
            if reach[i].is_none() {
                reach[i] = Some(header_from_dims(vals));
                found += 1;
            }
        }
        if found == n {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });

    let reachability = reach
        .into_iter()
        .map(|w| match w {
            Some(witness) => Reachability::Reachable { witness },
            None => Reachability::Shadowed,
        })
        .collect();
    Sweep {
        reachability,
        exhaustive: true,
        probes: visited,
        grid: Some(cells),
    }
}

fn pairwise_fallback(rules: &RuleSet, grid: Option<usize>) -> Sweep {
    let mut probes = 0usize;
    let reachability = rules
        .iter()
        .map(|(id, rule)| {
            let shadowed = rules.iter().any(|(oid, other)| {
                oid != id && outranks(other, oid.0, rule, id.0) && covers_all_dims(other, rule)
            });
            if shadowed {
                return Reachability::Shadowed;
            }
            // Corner probe: the rule's own lower-left cell.
            let corner = header_from_dims(ALL_DIMS.map(|d| bounds(rule.dim_value(d)).0));
            probes += 1;
            match rules.classify(&corner) {
                Some((wid, _)) if wid == id => Reachability::Reachable { witness: corner },
                _ => Reachability::Unknown,
            }
        })
        .collect();
    Sweep {
        reachability,
        exhaustive: false,
        probes,
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{PortRange, Prefix, RuleId};

    /// One rule: source 10.0.0.0/8, destination ports 100–200.
    fn prefix_and_range() -> RuleSet {
        RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .dst_port(PortRange::new(100, 200).unwrap())
            .build()])
    }

    /// Rule 0 (priority 0) covers everything; rule 1 is fully inside it.
    fn covered_pair() -> RuleSet {
        RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ])
    }

    /// Two overlapping destination-port ranges.
    fn overlapping_ports() -> RuleSet {
        RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(0, 100).unwrap())
                .build(),
            Rule::builder(Priority(1))
                .dst_port(PortRange::new(50, 200).unwrap())
                .build(),
        ])
    }

    /// Every dimension constrained by some rule: nested and overlapping
    /// prefixes on both addresses, overlapping port ranges, two protocols.
    fn seven_dims() -> RuleSet {
        spc_types::parse_ruleset(
            "@10.1.0.0/16 192.168.1.0/24 1000 : 2000 80 : 80 0x06/0xFF\n\
             @10.0.0.0/8 192.168.0.0/16 0 : 1500 0 : 1023 0x06/0xFF\n\
             @10.1.2.0/24 192.168.1.128/25 1500 : 65535 53 : 53 0x11/0xFF\n\
             @0.0.0.0/0 192.0.0.0/8 0 : 65535 50 : 60 0x00/0x00\n",
        )
        .unwrap()
    }

    #[test]
    fn candidates_cover_rule_bounds() {
        let c = candidate_values(&prefix_and_range());
        // sip_hi: 0, 0x0a00 (prefix first), 0x0b00 (last + 1).
        assert_eq!(c[0], vec![0, 0x0a00, 0x0b00]);
        // dst_port: 0, 100, 201.
        assert_eq!(c[5], vec![0, 100, 201]);
        // proto wildcard adds nothing beyond {0}.
        assert_eq!(c[6], vec![0]);
    }

    #[test]
    fn header_round_trips_dims() {
        let vals = [0x0a00, 0x0001, 0xffff, 0, 80, 443, 6];
        let h = header_from_dims(vals);
        for d in ALL_DIMS {
            assert_eq!(d.query(&h), vals[d.index()]);
        }
    }

    #[test]
    fn sweep_finds_witness_and_shadow() {
        let s = reachability(&covered_pair(), 1 << 17);
        assert!(s.exhaustive);
        assert!(matches!(s.reachability[0], Reachability::Reachable { .. }));
        assert!(matches!(s.reachability[1], Reachability::Shadowed));
    }

    #[test]
    fn sweep_witnesses_satisfy_oracle() {
        let rs = overlapping_ports();
        let s = reachability(&rs, 1 << 17);
        assert!(s.exhaustive);
        for (i, r) in s.reachability.iter().enumerate() {
            match r {
                Reachability::Reachable { witness } => {
                    assert_eq!(rs.classify(witness).unwrap().0, RuleId(i as u32));
                }
                other => panic!("rule {i} should be reachable, got {other:?}"),
            }
        }
    }

    #[test]
    fn fallback_is_sound() {
        let s = reachability(&covered_pair(), 0); // force the pairwise path
        assert!(!s.exhaustive);
        assert!(matches!(s.reachability[0], Reachability::Reachable { .. }));
        assert!(matches!(s.reachability[1], Reachability::Shadowed));
    }

    #[test]
    fn exact_sweep_counts_the_cells_it_visits() {
        // Grid: dst_port ∈ {0, 80, 81}. Cell 0 finds r1, cell 80 finds r0,
        // and with every rule witnessed the walk stops before cell 81.
        let rs = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .build(),
            Rule::any(Priority(1)),
        ]);
        assert_eq!(grid_size(&candidate_values(&rs)), Some(3));
        let report = crate::analyze(&rs);
        assert!(report.exhaustive);
        assert_eq!(report.probes, 2);
    }

    #[test]
    fn walk_grid_visits_exactly_the_matched_cells() {
        let sets = [
            prefix_and_range(),
            covered_pair(),
            overlapping_ports(),
            seven_dims(),
            RuleSet::new(),
        ];
        for rules in &sets {
            let cands = candidate_values(rules);
            let universe = Universe::new(&cands, rules);
            let mut visited = Vec::new();
            let _ = walk_grid(&cands, &universe, |vals, mask| {
                visited.push((vals, universe.winner(mask)));
                ControlFlow::<()>::Continue(())
            });

            // Brute force: every cell of the candidate product, in the
            // walk's order (last dimension fastest), through the oracle.
            let mut want = Vec::new();
            let mut idx = [0usize; 7];
            'cells: loop {
                let vals = ALL_DIMS.map(|d| cands[d.index()][idx[d.index()]]);
                if let Some((id, _)) = rules.classify(&header_from_dims(vals)) {
                    want.push((vals, Some(id.0 as usize)));
                }
                let mut d = 7;
                loop {
                    if d == 0 {
                        break 'cells;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < cands[d].len() {
                        break;
                    }
                    idx[d] = 0;
                }
            }
            if rules.is_empty() {
                // Nothing to prune by: the one cell is visited, matching nothing.
                assert_eq!(visited, vec![([0u16; 7], None)]);
            } else {
                assert_eq!(visited, want, "{} rules", rules.len());
            }
        }
    }
}
