//! Static rule-set analysis for the segmented packet classifier.
//!
//! This crate predicts classifier behaviour from the rule set alone — no
//! engine is constructed. [`analyze`] produces a [`RuleSetReport`] of typed
//! [`Finding`]s:
//!
//! * **duplicate rules** ([`FindingKind::DuplicateRule`], error): identical
//!   match conditions collide on the 7-label key and make the set
//!   unbuildable on the configurable architecture;
//! * **shadowed rules** ([`FindingKind::ShadowedRule`], warning): rules that
//!   can never be the highest-priority match, proven either by a single
//!   covering rule or by an exhaustive boundary-value sweep;
//! * **label pressure** ([`FindingKind::LabelPressure`]) and **Rule Filter
//!   pressure** ([`FindingKind::RuleFilterPressure`]): per-dimension label
//!   cardinality and distinct label-combination counts against the
//!   architecture capacities in [`AnalyzerLimits`];
//! * **pathological port ranges** ([`FindingKind::PathologicalPortRange`]):
//!   ranges whose prefix expansion is large ([`port_prefix_count`]);
//! * **spec lints** ([`FindingKind::SpecLint`]): stylistic hazards such as
//!   port constraints on wildcard protocols.
//!
//! The quantitative fields of the report are *predictions* about a live
//! engine: `dim_cardinality` must equal the configurable classifier's label
//! counts after a full load, and `distinct_keys` its Rule Filter occupancy.
//! The workspace's `analyze_fuzz` test tier cross-checks exactly that on
//! seeded adversarial rule sets.
//!
//! # Exactness
//!
//! Reachability uses the fact that the oracle verdict is piecewise-constant
//! over the product of per-dimension elementary intervals (cut each
//! dimension at every rule bound). When that grid fits the probe budget,
//! the sweep is **exact**: every `Shadowed` verdict is a proof, and every
//! `Reachable` verdict carries a concrete witness header. Over budget, the
//! analyzer degrades to sound pairwise proofs and says so via
//! [`RuleSetReport::exhaustive`]` == false`.

mod analyze;
mod limits;
mod probe;
mod report;

pub use analyze::{analyze, analyze_with, port_prefix_count};
pub use limits::AnalyzerLimits;
pub use probe::{candidate_values, grid_size, header_from_dims};
pub use report::{Finding, FindingKind, Reachability, RuleSetReport, Severity, SpecLint};
