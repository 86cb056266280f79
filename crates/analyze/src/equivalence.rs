//! Exact rule-set equivalence over the union elementary-interval grid.
//!
//! Two rule sets are *match-equivalent* when every header receives the
//! same outcome from both: either both miss, or both hit rules with the
//! same action. The HPM verdict of each set is piecewise-constant over
//! the product of its per-dimension elementary intervals, so the verdict
//! *pair* is piecewise-constant over the **union** grid — cut every
//! dimension at every bound of *either* set ([`crate::candidate_values`]
//! merged per dimension) and one representative probe per cell decides
//! the whole cell. Sweeping every union cell is therefore a decision
//! procedure, not a heuristic.
//!
//! The sweep is budgeted: when the walk would visit more cells than the
//! caller's probe budget it stops and reports [`Equivalence::Unknown`]
//! with how far it got — it never guesses. A difference found *before*
//! the budget runs out is still a proof ([`Equivalence::Differs`]
//! carries the witness header), so over-budget checks degrade soundly in
//! one direction only: `Equivalent` is always exact, never assumed.

use crate::limits::AnalyzerLimits;
use crate::probe::{candidate_values, header_from_dims, walk_grid, Universe};
use spc_types::{Action, Header, ProvenanceMap, RuleId, RuleSet};
use std::cell::Cell;
use std::ops::ControlFlow;

/// One set's outcome for a header: the winning rule and its action, or
/// `None` on a miss. Ids are in the owning set's own id space.
pub type MatchOutcome = Option<(RuleId, Action)>;

/// The verdict of [`check`]: a proof of equivalence, a counterexample,
/// or a sound admission that the budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// Every header produces the same outcome from both sets. Exact: the
    /// full union grid was accounted for.
    Equivalent {
        /// Union-grid cells accounted for (saturating; equals the union
        /// grid size when it fits `usize`).
        cells_swept: usize,
    },
    /// A concrete header on which the two sets disagree.
    Differs {
        /// The counterexample: classify it through both sets to see the
        /// disagreement.
        witness: Header,
        /// Set `a`'s outcome on the witness.
        verdict_a: MatchOutcome,
        /// Set `b`'s outcome on the witness.
        verdict_b: MatchOutcome,
    },
    /// The union grid exceeded the probe budget before a difference was
    /// found. The sets may or may not be equivalent — never treat this
    /// as `Equivalent`.
    Unknown {
        /// Cells accounted for before giving up.
        cells_swept: usize,
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl Equivalence {
    /// Whether equivalence was *proven* (an `Unknown` is not a proof).
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }

    /// Whether a concrete counterexample was found.
    pub fn differs(&self) -> bool {
        matches!(self, Equivalence::Differs { .. })
    }
}

impl std::fmt::Display for Equivalence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Equivalence::Equivalent { cells_swept } => {
                write!(f, "equivalent ({cells_swept} cells swept)")
            }
            Equivalence::Differs {
                witness,
                verdict_a,
                verdict_b,
            } => {
                let show = |v: &MatchOutcome| match v {
                    Some((id, action)) => format!("{id}->{action}"),
                    None => "miss".to_string(),
                };
                write!(
                    f,
                    "differs on {witness}: a={} b={}",
                    show(verdict_a),
                    show(verdict_b)
                )
            }
            Equivalence::Unknown {
                cells_swept,
                budget,
            } => write!(
                f,
                "unknown (probe budget {budget} exhausted; {cells_swept} grid cells accounted, \
                 pruned subtrees included)"
            ),
        }
    }
}

/// Decides whether `a` and `b` produce the same match outcome — same
/// action on a hit, or both miss — on **every** header, within
/// `limits.probe_budget` union-grid cells of work.
///
/// ```
/// use spc_analyze::{equivalence, AnalyzerLimits};
/// use spc_types::{Action, PortRange, Priority, Rule, RuleSet};
///
/// let a = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
/// let b = RuleSet::from_rules(vec![
///     Rule::any(Priority(0)),
///     // Dead weight: shadowed by the catch-all, same action anyway.
///     Rule::builder(Priority(1)).dst_port(PortRange::exact(80)).build(),
/// ]);
/// assert!(equivalence::check(&a, &b, &AnalyzerLimits::default()).is_equivalent());
///
/// let c = RuleSet::from_rules(vec![Rule::builder(Priority(0))
///     .dst_port(PortRange::exact(80))
///     .action(Action::Forward(1))
///     .build()]);
/// assert!(equivalence::check(&a, &c, &AnalyzerLimits::default()).differs());
/// ```
pub fn check(a: &RuleSet, b: &RuleSet, limits: &AnalyzerLimits) -> Equivalence {
    sweep(a, b, limits.probe_budget, |oa, ob| {
        outcome_action(oa) == outcome_action(ob)
    })
}

/// Decides the *stronger* property an id-preserving optimizer must
/// uphold: on every header, `original`'s winner is exactly the
/// provenance-translated winner of `optimized` (and the actions agree),
/// or both sets miss. This is what lets an engine built from the
/// optimized set remap verdicts back to original ids with no observable
/// difference.
pub fn check_mapped(
    original: &RuleSet,
    optimized: &RuleSet,
    provenance: &ProvenanceMap,
    limits: &AnalyzerLimits,
) -> Equivalence {
    sweep(original, optimized, limits.probe_budget, |oa, ob| {
        let mapped_b = ob.and_then(|(id, action)| provenance.original(id).map(|o| (o, action)));
        oa == mapped_b
    })
}

fn outcome_action(o: MatchOutcome) -> Option<Action> {
    o.map(|(_, action)| action)
}

/// Per-dimension union of the two sets' elementary-interval left
/// endpoints: the coarsest grid on which *both* verdict functions are
/// simultaneously piecewise-constant.
fn union_candidates(a: &RuleSet, b: &RuleSet) -> [Vec<u16>; 7] {
    let ca = candidate_values(a);
    let cb = candidate_values(b);
    let mut out = ca;
    for (u, extra) in out.iter_mut().zip(cb) {
        u.extend(extra);
        u.sort_unstable();
        u.dedup();
    }
    out
}

/// The budgeted union-grid sweep behind [`check`] / [`check_mapped`], a
/// leaf of [`walk_grid`] over one bit universe covering both sets (set `a`
/// in bits `0..n_a`, set `b` in bits `n_a..n_a+n_b`): subtrees where
/// *neither* set has a live rule are pruned (both miss everywhere inside —
/// equal by construction) and only counted, and `same` is called on each
/// surviving cell's winner pair.
fn sweep(
    a: &RuleSet,
    b: &RuleSet,
    budget: usize,
    same: impl Fn(MatchOutcome, MatchOutcome) -> bool,
) -> Equivalence {
    let cands = union_candidates(a, b);
    let universe = Universe::new(&cands, &[a, b]);
    let (na, n) = (a.len(), a.len() + b.len());
    let outcome_of = |set: &RuleSet, local: Option<usize>| -> MatchOutcome {
        local.map(|i| {
            let id = RuleId(i as u32);
            (id, set.get(id).map(|r| r.action).unwrap_or_default())
        })
    };

    let cells_swept = Cell::new(0usize);
    let mut visited = 0usize; // leaves actually probed (the work bound)
    let stopped = walk_grid(
        &cands,
        &universe,
        |vals, mask| {
            if visited >= budget {
                return ControlFlow::Break(Equivalence::Unknown {
                    cells_swept: cells_swept.get(),
                    budget,
                });
            }
            visited += 1;
            cells_swept.set(cells_swept.get().saturating_add(1));
            // Winner of each set inside this cell, by (priority, id) rank.
            let oa = outcome_of(a, universe.winner(mask, 0..na));
            let ob = outcome_of(b, universe.winner(mask, na..n).map(|i| i - na));
            if same(oa, ob) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(Equivalence::Differs {
                    witness: header_from_dims(vals),
                    verdict_a: oa,
                    verdict_b: ob,
                })
            }
        },
        |cells| cells_swept.set(cells_swept.get().saturating_add(cells)),
    );
    match stopped {
        ControlFlow::Break(verdict) => verdict,
        ControlFlow::Continue(()) => Equivalence::Equivalent {
            cells_swept: cells_swept.get(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{PortRange, Prefix, Priority, Rule};

    fn limits() -> AnalyzerLimits {
        AnalyzerLimits::default()
    }

    #[test]
    fn identical_sets_are_equivalent() {
        let rs = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
                .action(Action::Forward(1))
                .build(),
            Rule::any(Priority(1)),
        ]);
        let v = check(&rs, &rs, &limits());
        assert!(v.is_equivalent(), "{v}");
    }

    #[test]
    fn empty_sets_are_equivalent() {
        let v = check(&RuleSet::new(), &RuleSet::new(), &limits());
        assert_eq!(v, Equivalence::Equivalent { cells_swept: 1 });
    }

    #[test]
    fn empty_vs_matching_differs() {
        let b = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
        match check(&RuleSet::new(), &b, &limits()) {
            Equivalence::Differs {
                witness,
                verdict_a,
                verdict_b,
            } => {
                assert_eq!(verdict_a, None);
                assert!(verdict_b.is_some());
                assert!(b.classify(&witness).is_some());
            }
            other => panic!("expected Differs, got {other:?}"),
        }
    }

    #[test]
    fn dropping_a_dead_rule_preserves_equivalence() {
        let a = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ]);
        let b = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
        assert!(check(&a, &b, &limits()).is_equivalent());
        // The mapped check agrees: rule 1 never wins, so the winner map
        // is always 0 -> 0.
        let prov = ProvenanceMap::from_vec(vec![RuleId(0)]);
        assert!(check_mapped(&a, &b, &prov, &limits()).is_equivalent());
    }

    #[test]
    fn dropping_a_live_rule_yields_a_witness() {
        let a = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .action(Action::Forward(7))
                .build(),
            Rule::any(Priority(1)),
        ]);
        let b = RuleSet::from_rules(vec![Rule::any(Priority(1))]);
        match check(&a, &b, &limits()) {
            Equivalence::Differs {
                witness,
                verdict_a,
                verdict_b,
            } => {
                // Replay the witness through both oracles: the reported
                // verdicts must be real.
                let oa = a.classify(&witness).map(|(id, r)| (id, r.action));
                let ob = b.classify(&witness).map(|(id, r)| (id, r.action));
                assert_eq!(oa, verdict_a);
                assert_eq!(ob, verdict_b);
                assert_eq!(verdict_a, Some((RuleId(0), Action::Forward(7))));
            }
            other => panic!("expected Differs, got {other:?}"),
        }
    }

    #[test]
    fn same_action_different_rule_is_action_equivalent_but_not_mapped() {
        // b replaces the port-80 rule with a differently-shaped rule of
        // the same action covering the same headers differently: action
        // outcomes agree everywhere, but winner identity does not.
        let a = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(0, 99).unwrap())
                .build(),
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(100, 200).unwrap())
                .build(),
        ]);
        let b = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .dst_port(PortRange::new(0, 200).unwrap())
            .build()]);
        assert!(check(&a, &b, &limits()).is_equivalent());
        // Identity-level: headers in 100..=200 map b's winner to rule 0,
        // but a's winner is rule 1.
        let prov = ProvenanceMap::from_vec(vec![RuleId(0)]);
        assert!(check_mapped(&a, &b, &prov, &limits()).differs());
    }

    #[test]
    fn priority_renumbering_passes_the_mapped_check() {
        let a = RuleSet::from_rules(vec![
            Rule::builder(Priority(100))
                .dst_port(PortRange::exact(443))
                .action(Action::Forward(2))
                .build(),
            Rule::builder(Priority(700)).action(Action::Drop).build(),
        ]);
        let mut renumbered: Vec<Rule> = a.rules().to_vec();
        renumbered[0].priority = Priority(0);
        renumbered[1].priority = Priority(1);
        let b = RuleSet::from_rules(renumbered);
        let prov = ProvenanceMap::identity(2);
        assert!(check_mapped(&a, &b, &prov, &limits()).is_equivalent());
    }

    #[test]
    fn budget_exhaustion_is_unknown_not_equivalent() {
        let a = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::new(10, 20).unwrap())
                .build(),
            Rule::any(Priority(1)),
        ]);
        let v = sweep(&a, &a, 2, |x, y| x == y);
        match v {
            Equivalence::Unknown {
                cells_swept,
                budget,
            } => {
                assert_eq!(budget, 2);
                assert!(cells_swept >= 2);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn difference_found_within_budget_is_still_a_proof() {
        // Even a budget of 1 can prove a difference when the first cell
        // already disagrees: the all-zero corner.
        let a = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
        let b = RuleSet::new();
        let tight = AnalyzerLimits::default().with_probe_budget(1);
        assert!(check(&a, &b, &tight).differs());
    }

    #[test]
    fn display_is_readable() {
        assert!(Equivalence::Equivalent { cells_swept: 9 }
            .to_string()
            .contains("9 cells"));
        assert!(Equivalence::Unknown {
            cells_swept: 5,
            budget: 4
        }
        .to_string()
        .contains("budget"));
    }
}
