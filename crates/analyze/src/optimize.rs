//! The semantics-preserving rule-set optimizer: an ordered pass pipeline
//! with a machine-checked proof obligation.
//!
//! [`optimize`] rewrites a rule set into a smaller one that classifies
//! every header the same way, in compiler style: each pass is a local
//! transform with its own soundness argument, and the *pipeline output*
//! is then re-validated from scratch by the independent equivalence
//! checker ([`crate::equivalence::check`]) — translation validation, not
//! trusted passes. A bug in any pass surfaces as
//! [`OptimizeError::ValidationFailed`] with a concrete witness header;
//! it can never silently change semantics.
//!
//! Passes, in order:
//!
//! 1. **Duplicate coalescing** — rules with identical match conditions
//!    collapse to the best-ranked one. The losers never win a header
//!    (identical region, worse `(priority, id)` rank), so winners are
//!    untouched.
//! 2. **Dead-rule elimination** — drops every rule the exact
//!    reachability sweep proves `Shadowed`. Both the exhaustive sweep
//!    and the pairwise fallback only report `Shadowed` with a proof, so
//!    this pass is sound even over budget ([`Reachability::Unknown`]
//!    rules are kept).
//! 3. **Range merging** (optional) — fuses same-priority same-action
//!    neighbours that differ only in one port dimension with
//!    overlapping/adjacent ranges. This preserves the *action* every
//!    header receives but may change which rule id reports it, so it is
//!    off in [`OptimizeConfig::id_preserving`] — the config engines use.
//! 4. **Priority renumbering** — compacts surviving priorities to a
//!    dense `0..k`. The map is strictly monotone (equal stays equal), so
//!    `(priority, id)` comparisons — and therefore every winner — are
//!    unchanged.
//!
//! The result carries a [`ProvenanceMap`] (optimized id → original id)
//! so downstream consumers can translate verdicts back into the caller's
//! id space.

use crate::equivalence::{self, Equivalence, MatchOutcome};
use crate::limits::AnalyzerLimits;
use crate::probe;
use crate::report::Reachability;
use spc_types::{Dim, DimValue, Header, PortRange, Priority, ProvenanceMap, Rule, RuleId, RuleSet};
use std::collections::HashMap;
use std::fmt;

/// Which passes [`optimize`] runs, and with what probe budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeConfig {
    /// Collapse rules with identical match conditions to the best-ranked
    /// occurrence.
    pub coalesce_duplicates: bool,
    /// Drop rules the reachability sweep proves can never win.
    pub eliminate_dead: bool,
    /// Fuse same-priority same-action port-range neighbours. Preserves
    /// actions, not winner ids — engines that must report original rule
    /// ids need this off (see [`OptimizeConfig::id_preserving`]).
    pub merge_ranges: bool,
    /// Compact surviving priorities to dense `0..k`.
    pub renumber_priorities: bool,
    /// Probe-grid budget for the reachability sweep and the final
    /// equivalence validation.
    pub probe_budget: usize,
}

impl Default for OptimizeConfig {
    /// The full pipeline: every pass on, default probe budget.
    fn default() -> Self {
        OptimizeConfig {
            coalesce_duplicates: true,
            eliminate_dead: true,
            merge_ranges: true,
            renumber_priorities: true,
            probe_budget: AnalyzerLimits::default().probe_budget,
        }
    }
}

impl OptimizeConfig {
    /// The strongest pipeline that still preserves winner *identity*
    /// modulo provenance: range merging off, everything else on. An
    /// engine built from this output can map every hit back, through
    /// [`OptimizedRuleSet::provenance`], to the exact rule id the
    /// original set would have reported. Such an engine serves only this
    /// set: renumbered priorities misorder later inserts, and elided
    /// rules cannot come back when what shadowed them is removed — to
    /// update, build from the original set.
    pub fn id_preserving() -> Self {
        OptimizeConfig {
            merge_ranges: false,
            ..OptimizeConfig::default()
        }
    }

    /// Returns `self` with a different probe budget.
    pub fn with_probe_budget(mut self, cells: usize) -> Self {
        self.probe_budget = cells;
        self
    }
}

/// Which pass a [`PassReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PassKind {
    /// Duplicate coalescing.
    DuplicateCoalescing,
    /// Dead-rule elimination.
    DeadRuleElimination,
    /// Port-range merging.
    RangeMerging,
    /// Priority renumbering.
    PriorityRenumbering,
}

impl PassKind {
    /// Stable machine-readable name for JSON output.
    pub fn code(self) -> &'static str {
        match self {
            PassKind::DuplicateCoalescing => "duplicate-coalescing",
            PassKind::DeadRuleElimination => "dead-rule-elimination",
            PassKind::RangeMerging => "range-merging",
            PassKind::PriorityRenumbering => "priority-renumbering",
        }
    }
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// What one pass did: the provenance of every removal, plus pass-specific
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    /// Which pass ran.
    pub pass: PassKind,
    /// Original-set ids this pass eliminated (empty for renumbering).
    pub removed: Vec<RuleId>,
    /// Range pairs fused ([`PassKind::RangeMerging`] only).
    pub merges: usize,
    /// Rules whose priority value changed
    /// ([`PassKind::PriorityRenumbering`] only).
    pub renumbered: usize,
}

/// The optimizer's output: the rewritten set, the id translation back to
/// the original, per-pass provenance, and the validation verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedRuleSet {
    /// The optimized rules, re-indexed `0..len` in original-id order.
    pub rules: RuleSet,
    /// Optimized id → original id.
    pub provenance: ProvenanceMap,
    /// One report per pass that ran, in pipeline order.
    pub passes: Vec<PassReport>,
    /// The equivalence checker's verdict on (original, optimized). Never
    /// [`Equivalence::Differs`] — that is returned as
    /// [`OptimizeError::ValidationFailed`] instead. May be
    /// [`Equivalence::Unknown`] when the union grid exceeds the budget;
    /// the per-pass proofs still hold (each removal was individually
    /// proven), the global re-check just could not finish.
    pub validation: Equivalence,
    /// Whether winner identity modulo provenance is guaranteed (no range
    /// merge fired): on every header, the optimized winner's provenance
    /// is exactly the original set's winner.
    pub id_preserving: bool,
    /// Rule count before optimization.
    pub original_rules: usize,
}

impl OptimizedRuleSet {
    /// Rules eliminated across all passes.
    pub fn removed_rules(&self) -> usize {
        self.original_rules - self.rules.len()
    }

    /// Every original id eliminated, in pass order.
    pub fn removed_ids(&self) -> Vec<RuleId> {
        self.passes
            .iter()
            .flat_map(|p| p.removed.iter().copied())
            .collect()
    }
}

/// Error from [`optimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OptimizeError {
    /// The pipeline output failed re-validation against the original set
    /// — an optimizer bug, caught before it could ship. The witness is a
    /// concrete header the two sets disagree on.
    ValidationFailed {
        /// Header on which the sets disagree.
        witness: Header,
        /// The original set's outcome on the witness.
        original: MatchOutcome,
        /// The optimized set's outcome on the witness (its own id space).
        optimized: MatchOutcome,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::ValidationFailed {
                witness,
                original,
                optimized,
            } => {
                let show = |v: &MatchOutcome| match v {
                    Some((id, action)) => format!("{id}->{action}"),
                    None => "miss".to_string(),
                };
                write!(
                    f,
                    "optimizer output failed equivalence validation on {witness}: \
                     original={} optimized={}",
                    show(original),
                    show(optimized)
                )
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Runs the pass pipeline over `rules` and validates the output with the
/// equivalence checker before returning it.
///
/// ```
/// use spc_analyze::optimize::{optimize, OptimizeConfig};
/// use spc_types::{PortRange, Priority, Rule, RuleId, RuleSet};
///
/// let rules = RuleSet::from_rules(vec![
///     Rule::any(Priority(0)),
///     // Shadowed by the catch-all: provably dead.
///     Rule::builder(Priority(1)).dst_port(PortRange::exact(80)).build(),
/// ]);
/// let opt = optimize(&rules, &OptimizeConfig::default()).unwrap();
/// assert_eq!(opt.rules.len(), 1);
/// assert_eq!(opt.removed_ids(), vec![RuleId(1)]);
/// assert!(opt.validation.is_equivalent());
/// ```
///
/// # Errors
///
/// [`OptimizeError::ValidationFailed`] when the rewritten set is not
/// equivalent to the input — which indicates a bug in a pass, not in the
/// input.
pub fn optimize(
    rules: &RuleSet,
    config: &OptimizeConfig,
) -> Result<OptimizedRuleSet, OptimizeError> {
    // The working set: (original id, possibly-rewritten rule), kept in
    // original-id order throughout so the final re-indexing is stable.
    let mut live: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
    let mut passes = Vec::new();
    let mut merged_any = false;

    if config.coalesce_duplicates {
        passes.push(coalesce_duplicates(&mut live));
    }
    if config.eliminate_dead {
        passes.push(eliminate_dead(&mut live, config.probe_budget));
    }
    if config.merge_ranges {
        let report = merge_ranges(&mut live);
        merged_any = report.merges > 0;
        passes.push(report);
    }
    if config.renumber_priorities {
        passes.push(renumber_priorities(&mut live));
    }

    let optimized: RuleSet = live.iter().map(|&(_, r)| r).collect();
    let provenance = ProvenanceMap::from_vec(live.iter().map(|&(id, _)| id).collect());
    let id_preserving = !merged_any;

    // Translation validation: re-check the whole pipeline's output
    // against the input with the independent decision procedure, at the
    // strongest level the pipeline claims to uphold.
    let limits = AnalyzerLimits::default().with_probe_budget(config.probe_budget);
    let validation = if id_preserving {
        equivalence::check_mapped(rules, &optimized, &provenance, &limits)
    } else {
        equivalence::check(rules, &optimized, &limits)
    };
    if let Equivalence::Differs {
        witness,
        verdict_a,
        verdict_b,
    } = validation
    {
        return Err(OptimizeError::ValidationFailed {
            witness,
            original: verdict_a,
            optimized: verdict_b,
        });
    }

    Ok(OptimizedRuleSet {
        rules: optimized,
        provenance,
        passes,
        validation,
        id_preserving,
        original_rules: rules.len(),
    })
}

/// Pass 1: collapse identical match conditions to the best-ranked rule.
fn coalesce_duplicates(live: &mut Vec<(RuleId, Rule)>) -> PassReport {
    // Best (priority, id) rank per distinct 7-dim key.
    let mut best: HashMap<[DimValue; 7], (Priority, RuleId)> = HashMap::new();
    for &(id, ref rule) in live.iter() {
        let rank = (rule.priority, id);
        best.entry(rule.dim_values())
            .and_modify(|b| {
                if rank < *b {
                    *b = rank;
                }
            })
            .or_insert(rank);
    }
    let mut removed = Vec::new();
    live.retain(|&(id, ref rule)| {
        let keep = best[&rule.dim_values()] == (rule.priority, id);
        if !keep {
            removed.push(id);
        }
        keep
    });
    PassReport {
        pass: PassKind::DuplicateCoalescing,
        removed,
        merges: 0,
        renumbered: 0,
    }
}

/// Pass 2: drop rules the reachability sweep proves `Shadowed`.
///
/// Removing never-winning rules changes no header's winner, and because
/// earlier passes only removed never-winning rules too, `Shadowed` on
/// the current working set implies shadowed in the original set.
fn eliminate_dead(live: &mut Vec<(RuleId, Rule)>, budget: usize) -> PassReport {
    let working: RuleSet = live.iter().map(|&(_, r)| r).collect();
    let sweep = probe::reachability(&working, budget);
    let mut removed = Vec::new();
    let mut pos = 0usize;
    live.retain(|&(id, _)| {
        let dead = matches!(sweep.reachability[pos], Reachability::Shadowed);
        pos += 1;
        if dead {
            removed.push(id);
        }
        !dead
    });
    PassReport {
        pass: PassKind::DeadRuleElimination,
        removed,
        merges: 0,
        renumbered: 0,
    }
}

/// Inclusive per-dimension bounds of a rule's match region.
fn region(rule: &Rule) -> [(u16, u16); 7] {
    spc_types::ALL_DIMS.map(|d| probe::bounds(rule.dim_value(d)))
}

/// Whether two rules' match regions intersect (a non-empty header set
/// matches both).
fn regions_intersect(a: &[(u16, u16); 7], b: &[(u16, u16); 7]) -> bool {
    a.iter()
        .zip(b)
        .all(|(&(alo, ahi), &(blo, bhi))| alo <= bhi && blo <= ahi)
}

/// Whether `a` and `b` differ in exactly one *port* dimension whose
/// ranges are overlapping or adjacent (union contiguous), and are
/// identical everywhere else. Returns that dimension.
fn mergeable_dim(a: &Rule, b: &Rule) -> Option<Dim> {
    if a.priority != b.priority || a.action != b.action {
        return None;
    }
    let mut diff: Option<Dim> = None;
    for dim in spc_types::ALL_DIMS {
        if a.dim_value(dim) == b.dim_value(dim) {
            continue;
        }
        if diff.is_some() || (dim != Dim::SrcPort && dim != Dim::DstPort) {
            return None;
        }
        diff = Some(dim);
    }
    let dim = diff?;
    let (ra, rb) = match dim {
        Dim::SrcPort => (a.src_port, b.src_port),
        _ => (a.dst_port, b.dst_port),
    };
    let contiguous = ra.overlaps(rb)
        || (ra.hi() < u16::MAX && ra.hi() + 1 == rb.lo())
        || (rb.hi() < u16::MAX && rb.hi() + 1 == ra.lo());
    contiguous.then_some(dim)
}

/// Pass 3: fuse same-priority same-action port-range neighbours, to a
/// fixpoint.
///
/// The fused rule's region is exactly the union of its parents' (six
/// dimensions identical, one contiguous range union), and strictly
/// higher- or lower-priority rules see that union the same way before
/// and after. The one hazard is an id tie-break *within* the same
/// priority: a third equal-priority rule overlapping the absorbed region
/// could have out-ranked the absorbed rule but not the survivor. The
/// pass refuses any merge where another equal-priority rule's region
/// intersects the union, so that interleaving cannot arise — and the
/// pipeline-level validation would catch it even if this guard were
/// wrong.
fn merge_ranges(live: &mut Vec<(RuleId, Rule)>) -> PassReport {
    let mut removed = Vec::new();
    let mut merges = 0usize;
    loop {
        let mut fused = false;
        'scan: for i in 0..live.len() {
            for j in (i + 1)..live.len() {
                let (a, b) = (live[i].1, live[j].1);
                let Some(dim) = mergeable_dim(&a, &b) else {
                    continue;
                };
                let mut union = a;
                let (ra, rb) = match dim {
                    Dim::SrcPort => (a.src_port, b.src_port),
                    _ => (a.dst_port, b.dst_port),
                };
                let merged_range = PortRange::new(ra.lo().min(rb.lo()), ra.hi().max(rb.hi()))
                    .unwrap_or(PortRange::ANY);
                match dim {
                    Dim::SrcPort => union.src_port = merged_range,
                    _ => union.dst_port = merged_range,
                }
                let union_region = region(&union);
                let clash = live.iter().enumerate().any(|(k, (_, c))| {
                    k != i
                        && k != j
                        && c.priority == a.priority
                        && regions_intersect(&region(c), &union_region)
                });
                if clash {
                    continue;
                }
                // Keep the better-ranked identity (equal priorities, so
                // the smaller original id — position i).
                live[i].1 = union;
                removed.push(live[j].0);
                live.remove(j);
                merges += 1;
                fused = true;
                break 'scan;
            }
        }
        if !fused {
            break;
        }
    }
    PassReport {
        pass: PassKind::RangeMerging,
        removed,
        merges,
        renumbered: 0,
    }
}

/// Pass 4: compact priorities to dense ranks. Strictly monotone, so
/// every `(priority, id)` comparison — and every winner — is preserved.
fn renumber_priorities(live: &mut [(RuleId, Rule)]) -> PassReport {
    let mut prios: Vec<Priority> = live.iter().map(|&(_, r)| r.priority).collect();
    prios.sort_unstable();
    prios.dedup();
    let rank: HashMap<Priority, u32> = prios
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();
    let mut renumbered = 0usize;
    for (_, rule) in live.iter_mut() {
        let dense = Priority(rank[&rule.priority]);
        if rule.priority != dense {
            rule.priority = dense;
            renumbered += 1;
        }
    }
    PassReport {
        pass: PassKind::PriorityRenumbering,
        removed: Vec::new(),
        merges: 0,
        renumbered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{Action, Prefix, ProtoSpec};

    fn cfg() -> OptimizeConfig {
        OptimizeConfig::default()
    }

    #[test]
    fn empty_set_optimizes_to_empty() {
        let opt = optimize(&RuleSet::new(), &cfg()).unwrap();
        assert_eq!(opt.rules.len(), 0);
        assert!(opt.provenance.is_empty());
        assert!(opt.id_preserving);
        assert!(opt.validation.is_equivalent());
    }

    #[test]
    fn clean_set_is_untouched() {
        let rules = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Forward(1))
                .build(),
            Rule::any(Priority(1)),
        ]);
        let opt = optimize(&rules, &cfg()).unwrap();
        assert_eq!(opt.removed_rules(), 0);
        assert!(opt.provenance.is_identity());
        // Priorities were already dense; nothing renumbered.
        assert!(opt.passes.iter().all(|p| p.renumbered == 0));
    }

    #[test]
    fn duplicates_keep_the_best_rank() {
        // The *second* occurrence has the better priority: it must be
        // the survivor, not the first-by-id.
        let mut first = Rule::builder(Priority(5))
            .dst_port(PortRange::exact(80))
            .build();
        first.action = Action::Drop;
        let mut better = first;
        better.priority = Priority(1);
        let rules = RuleSet::from_rules(vec![first, better, Rule::any(Priority(9))]);
        let opt = optimize(&rules, &cfg()).unwrap();
        assert_eq!(opt.removed_ids(), vec![RuleId(0)]);
        assert_eq!(opt.provenance.original(RuleId(0)), Some(RuleId(1)));
        assert!(opt.validation.is_equivalent());
    }

    #[test]
    fn dead_rules_are_eliminated_with_provenance() {
        let rules = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
            Rule::builder(Priority(2))
                .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
                .build(),
        ]);
        let opt = optimize(&rules, &cfg()).unwrap();
        assert_eq!(opt.rules.len(), 1);
        assert_eq!(opt.removed_ids(), vec![RuleId(1), RuleId(2)]);
        let dead = opt
            .passes
            .iter()
            .find(|p| p.pass == PassKind::DeadRuleElimination)
            .unwrap();
        assert_eq!(dead.removed, vec![RuleId(1), RuleId(2)]);
        assert!(opt.id_preserving);
    }

    #[test]
    fn adjacent_ranges_merge_when_safe() {
        let rules = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(0, 99).unwrap())
                .proto(ProtoSpec::Exact(6))
                .build(),
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(100, 200).unwrap())
                .proto(ProtoSpec::Exact(6))
                .build(),
        ]);
        let opt = optimize(&rules, &cfg()).unwrap();
        assert_eq!(opt.rules.len(), 1);
        assert!(!opt.id_preserving);
        let merged = opt.rules.get(RuleId(0)).unwrap();
        assert_eq!(merged.dst_port, PortRange::new(0, 200).unwrap());
        assert_eq!(opt.provenance.original(RuleId(0)), Some(RuleId(0)));
        let merge = opt
            .passes
            .iter()
            .find(|p| p.pass == PassKind::RangeMerging)
            .unwrap();
        assert_eq!(merge.merges, 1);
        assert_eq!(merge.removed, vec![RuleId(1)]);
        assert!(opt.validation.is_equivalent());
    }

    #[test]
    fn merge_refused_when_a_tie_break_could_flip() {
        // Rule 1 (same priority, different action) overlaps the union of
        // rules 0 and 2: merging 0+2 would move part of the region from
        // "loses the id tie-break to rule 1" to "wins it".
        let rules = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(0, 99).unwrap())
                .action(Action::Forward(1))
                .build(),
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(150, 160).unwrap())
                .action(Action::Drop)
                .build(),
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(100, 200).unwrap())
                .action(Action::Forward(1))
                .build(),
        ]);
        let opt = optimize(&rules, &cfg()).unwrap();
        // No merge fired; semantics were at stake.
        assert_eq!(opt.rules.len(), 3);
        assert!(opt.id_preserving);
        assert!(opt.validation.is_equivalent());
    }

    #[test]
    fn priorities_renumber_densely() {
        let rules = RuleSet::from_rules(vec![
            Rule::builder(Priority(700))
                .dst_port(PortRange::exact(443))
                .build(),
            Rule::builder(Priority(700))
                .dst_port(PortRange::exact(80))
                .build(),
            Rule::any(Priority(9000)),
        ]);
        let opt = optimize(&rules, &cfg()).unwrap();
        let prios: Vec<u32> = opt.rules.iter().map(|(_, r)| r.priority.0).collect();
        assert_eq!(prios, vec![0, 0, 1]);
        let pass = opt
            .passes
            .iter()
            .find(|p| p.pass == PassKind::PriorityRenumbering)
            .unwrap();
        assert_eq!(pass.renumbered, 3);
        assert!(opt.validation.is_equivalent());
    }

    #[test]
    fn id_preserving_config_never_merges() {
        let rules = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(0, 99).unwrap())
                .build(),
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(100, 200).unwrap())
                .build(),
        ]);
        let opt = optimize(&rules, &OptimizeConfig::id_preserving()).unwrap();
        assert_eq!(opt.rules.len(), 2);
        assert!(opt.id_preserving);
        assert!(opt.validation.is_equivalent());
    }

    #[test]
    fn over_budget_validation_is_unknown_but_removals_stay_proven() {
        // A grid too big for a 1-cell budget: dead elimination falls
        // back to pairwise proofs and validation reports Unknown.
        let rules = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ]);
        let opt = optimize(&rules, &cfg().with_probe_budget(1)).unwrap();
        // The pairwise cover proof still eliminates the dead rule.
        assert_eq!(opt.removed_ids(), vec![RuleId(1)]);
        assert!(matches!(opt.validation, Equivalence::Unknown { .. }));
        assert!(!opt.validation.is_equivalent());
    }

    #[test]
    fn optimized_set_agrees_with_original_everywhere() {
        // End-to-end: probe the union grid of (original, optimized) by
        // hand and compare oracle outcomes through the provenance map.
        let rules = RuleSet::from_rules(vec![
            Rule::builder(Priority(3))
                .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
                .action(Action::Forward(1))
                .build(),
            Rule::builder(Priority(3))
                .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
                .action(Action::Forward(2))
                .build(), // duplicate conditions, worse rank: dead
            Rule::any(Priority(7)),
            Rule::any(Priority(8)), // shadowed catch-all
        ]);
        let opt = optimize(&rules, &OptimizeConfig::id_preserving()).unwrap();
        assert_eq!(opt.rules.len(), 2);
        let cands = crate::candidate_values(&rules);
        for &s in &cands[0] {
            for &p in &cands[5] {
                let h = crate::header_from_dims([s, 0, 0, 0, 0, p, 0]);
                let want = rules.classify(&h).map(|(id, r)| (id, r.action));
                let got = opt
                    .rules
                    .classify(&h)
                    .and_then(|(id, r)| opt.provenance.original(id).map(|orig| (orig, r.action)));
                assert_eq!(want, got, "header {h}");
            }
        }
    }

    #[test]
    fn error_display_carries_the_witness() {
        let e = OptimizeError::ValidationFailed {
            witness: Header::default(),
            original: Some((RuleId(0), Action::Drop)),
            optimized: None,
        };
        let text = e.to_string();
        assert!(text.contains("miss"), "{text}");
        assert!(text.contains("drop"), "{text}");
    }
}
