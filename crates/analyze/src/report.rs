//! Typed analysis findings and the [`RuleSetReport`] that collects them.

use spc_types::{Dim, Header, RuleId, ALL_DIMS};
use std::fmt;

/// How serious a finding is.
///
/// The ordering is semantic: `Info < Warning < Error`, so
/// [`RuleSetReport::max_severity`] can be compared directly against a
/// rejection threshold (see `spc_engine`'s audit policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, harmless to every backend.
    Info,
    /// Suspicious: the set builds everywhere but something is wasteful or
    /// almost certainly unintended (dead rules, hash pressure).
    Warning,
    /// The set cannot be represented faithfully: at least one backend is
    /// guaranteed to reject it (duplicate filters, label overflow).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// What a [`Finding`] is about, with the structured evidence for it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FindingKind {
    /// Two rules have byte-identical match conditions (all five fields);
    /// the later one can differ only in priority/action. The configurable
    /// architecture stores rules under their 7-label key, so the duplicate
    /// is unrepresentable and every `EngineBuilder` build rejects the set.
    DuplicateRule {
        /// The id that owns the filter (first occurrence).
        first: RuleId,
        /// The id that repeats it.
        dup: RuleId,
    },
    /// A rule that can never be the highest-priority match: every header
    /// it matches is claimed by strictly better rules.
    ShadowedRule {
        /// The unreachable rule.
        rule: RuleId,
        /// A single better rule that covers it field-by-field, when one
        /// exists; `None` means the shadow is a union of several rules
        /// (proven by exhaustive region probing).
        by: Option<RuleId>,
    },
    /// A dimension's unique-value count against its label capacity.
    /// `Error` when it exceeds capacity (the label allocator will
    /// exhaust), `Warning` when it crowds it.
    LabelPressure {
        /// The dimension.
        dim: Dim,
        /// Predicted label-table size (unique projected values).
        labels: usize,
        /// Label-space capacity (`2^width`).
        capacity: usize,
    },
    /// Predicted Rule Filter occupancy against its slot count. `Error`
    /// when the distinct label combinations outnumber the slots.
    RuleFilterPressure {
        /// Distinct 7-label keys the set will install.
        keys: usize,
        /// Hash slots available.
        slots: usize,
    },
    /// A port range that explodes under prefix expansion — many 16-bit
    /// segments for decomposition backends that store ranges as prefixes.
    PathologicalPortRange {
        /// The offending rule.
        rule: RuleId,
        /// Which port dimension.
        dim: Dim,
        /// Number of maximal prefix blocks covering the range.
        prefixes: u32,
    },
    /// A spec-level lint: the rule parses and builds but is written in a
    /// way that usually signals a mistake.
    SpecLint {
        /// The rule the lint is about.
        rule: RuleId,
        /// Which lint fired.
        lint: SpecLint,
    },
    /// The elementary-interval grid outgrew the probe budget, so
    /// reachability degraded from the exact sweep to pairwise proofs and
    /// corner probes. Every `Shadowed` verdict is still a proof; the
    /// `unknown` rules simply could not be decided either way.
    ProbeBudgetExceeded {
        /// Exact grid size, or `None` when even counting it overflowed.
        grid: Option<usize>,
        /// The budget the grid exceeded.
        budget: usize,
        /// Rules left [`Reachability::Unknown`].
        unknown: usize,
    },
}

impl FindingKind {
    /// Stable machine-readable code for grouping and JSON output.
    pub fn code(&self) -> &'static str {
        match self {
            FindingKind::DuplicateRule { .. } => "duplicate-rule",
            FindingKind::ShadowedRule { .. } => "shadowed-rule",
            FindingKind::LabelPressure { .. } => "label-pressure",
            FindingKind::RuleFilterPressure { .. } => "rule-filter-pressure",
            FindingKind::PathologicalPortRange { .. } => "pathological-port-range",
            FindingKind::SpecLint { .. } => "spec-lint",
            FindingKind::ProbeBudgetExceeded { .. } => "probe-budget-exceeded",
        }
    }
}

/// Rule-spec style lints (see [`FindingKind::SpecLint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecLint {
    /// The rule constrains a transport port but leaves the protocol a
    /// wildcard: the constraint silently applies to protocols that have
    /// no ports at all (ICMP headers read 0 in the port fields here).
    PortConstraintOnWildcardProto,
    /// A match-everything rule that is not the worst-priority rule of the
    /// set: everything ranked below it is dead.
    CatchAllAboveOtherRules,
}

impl fmt::Display for SpecLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecLint::PortConstraintOnWildcardProto => {
                f.write_str("port constraint with wildcard protocol")
            }
            SpecLint::CatchAllAboveOtherRules => {
                f.write_str("catch-all rule ranked above other rules")
            }
        }
    }
}

/// One analysis finding: a typed fact about the rule set with a severity
/// and a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How serious it is.
    pub severity: Severity,
    /// What it is, with evidence.
    pub kind: FindingKind,
    /// Every rule involved, most significant first.
    pub rules: Vec<RuleId>,
    /// The explanation a human reads.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity,
            self.kind.code(),
            self.message
        )
    }
}

/// Whether a rule can ever be the highest-priority match (HPM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reachability {
    /// The analyzer found a header for which the rule is the oracle HPM.
    Reachable {
        /// The proving header: `RuleSet::classify(&witness)` returns this
        /// rule.
        witness: Header,
    },
    /// Proven unreachable (pairwise cover, exact duplicate, or exhaustive
    /// region probing with no winning cell).
    Shadowed,
    /// The probe grid exceeded the budget and no pairwise proof exists;
    /// the rule may or may not be reachable.
    Unknown,
}

/// The full output of [`crate::analyze`]: findings plus the quantitative
/// predictions the fuzz tier cross-checks against live engines.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSetReport {
    /// Rules analysed.
    pub rules: usize,
    /// All findings, ordered by severity (most severe first), then code,
    /// then rule ids — the order is deterministic and byte-stable.
    pub findings: Vec<Finding>,
    /// Predicted per-dimension label-table sizes (unique projected field
    /// values), in [`ALL_DIMS`] order. For the configurable architecture
    /// this must equal `Classifier::live_labels()` after a full load.
    pub dim_cardinality: [usize; 7],
    /// Maximum number of labels any single query value can match per
    /// dimension, in [`ALL_DIMS`] order — the worst-case phase-2 label
    /// list length, and the factor base of DCFL-style intersection cost.
    pub max_match_depth: [usize; 7],
    /// Distinct 7-label combinations the set installs (its Rule Filter
    /// occupancy): the rule count minus exact duplicates.
    pub distinct_keys: usize,
    /// Upper bound on the label-combination cross-product (product of
    /// [`RuleSetReport::dim_cardinality`], saturating) — DCFL phase-space
    /// size if every combination were materialised.
    pub combo_upper_bound: u128,
    /// Product of [`RuleSetReport::max_match_depth`] (saturating): the
    /// worst-case number of label combinations a single lookup can be
    /// forced to consider.
    pub intersection_bound: u128,
    /// Per-rule reachability verdicts, indexed by rule id.
    pub reachability: Vec<Reachability>,
    /// Whether the probe grid fit the budget, making the reachability
    /// verdicts exact (no [`Reachability::Unknown`] entries).
    pub exhaustive: bool,
    /// Probe-grid cells the reachability sweep visited (it skips cells no
    /// rule matches and stops once every rule has a witness), or corner
    /// probes made by the pairwise fallback.
    pub probes: usize,
    /// The probe budget the analysis ran under.
    pub probe_budget: usize,
}

impl RuleSetReport {
    /// The most severe finding level, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Whether any finding is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Findings of exactly the given severity.
    pub fn at_severity(&self, s: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == s)
    }

    /// The ids of every rule proven unreachable.
    pub fn shadowed_rules(&self) -> Vec<RuleId> {
        self.reachability
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Reachability::Shadowed))
            .map(|(i, _)| RuleId(i as u32))
            .collect()
    }
}

impl fmt::Display for RuleSetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rule-set report: {} rules, {} findings{}",
            self.rules,
            self.findings.len(),
            match self.max_severity() {
                None => String::new(),
                Some(s) => format!(" (max severity: {s})"),
            }
        )?;
        write!(f, "  labels/dim:")?;
        for (dim, n) in ALL_DIMS.iter().zip(self.dim_cardinality) {
            write!(f, " {dim}={n}")?;
        }
        writeln!(f)?;
        write!(f, "  max-depth/dim:")?;
        for (dim, n) in ALL_DIMS.iter().zip(self.max_match_depth) {
            write!(f, " {dim}={n}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  keys={} combo-bound={} intersection-bound={}",
            self.distinct_keys, self.combo_upper_bound, self.intersection_bound
        )?;
        let shadowed = self.shadowed_rules().len();
        writeln!(
            f,
            "  reachability: {} shadowed, exhaustive={} ({} probes, budget {})",
            shadowed, self.exhaustive, self.probes, self.probe_budget
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_semantically() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn codes_are_distinct() {
        let kinds = [
            FindingKind::DuplicateRule {
                first: RuleId(0),
                dup: RuleId(1),
            },
            FindingKind::ShadowedRule {
                rule: RuleId(1),
                by: None,
            },
            FindingKind::LabelPressure {
                dim: Dim::SipHi,
                labels: 1,
                capacity: 2,
            },
            FindingKind::RuleFilterPressure { keys: 1, slots: 2 },
            FindingKind::PathologicalPortRange {
                rule: RuleId(0),
                dim: Dim::SrcPort,
                prefixes: 30,
            },
            FindingKind::SpecLint {
                rule: RuleId(0),
                lint: SpecLint::CatchAllAboveOtherRules,
            },
            FindingKind::ProbeBudgetExceeded {
                grid: Some(1 << 20),
                budget: 1 << 17,
                unknown: 3,
            },
        ];
        let mut codes: Vec<&str> = kinds.iter().map(FindingKind::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
    }
}
