//! The analysis passes and their orchestration.

use crate::limits::AnalyzerLimits;
use crate::probe;
use crate::report::{Finding, FindingKind, Reachability, RuleSetReport, Severity, SpecLint};
use spc_types::{DimValue, PortRange, RuleId, RuleSet, ALL_DIMS};
use std::collections::HashMap;

/// Analyses a rule set against the default (large-profile) limits.
///
/// ```
/// use spc_types::{Priority, Rule, RuleSet};
/// let rs = RuleSet::from_rules(vec![Rule::any(Priority(0)), Rule::any(Priority(1))]);
/// let report = spc_analyze::analyze(&rs);
/// assert!(!report.shadowed_rules().is_empty()); // rule 1 is dead
/// ```
pub fn analyze(rules: &RuleSet) -> RuleSetReport {
    analyze_with(rules, &AnalyzerLimits::default())
}

/// Analyses a rule set against explicit architecture limits.
///
/// The report is deterministic: the same rules and limits produce a
/// byte-identical report (all passes iterate in rule-id and dimension
/// order; hashing is used only for lookups, never for iteration order).
pub fn analyze_with(rules: &RuleSet, limits: &AnalyzerLimits) -> RuleSetReport {
    let mut findings = Vec::new();

    // Pass 1: exact duplicates — identical match conditions on all five
    // fields (= all seven projected dimension values).
    let mut first_seen: HashMap<[DimValue; 7], RuleId> = HashMap::new();
    for (id, rule) in rules.iter() {
        match first_seen.get(&rule.dim_values()) {
            Some(&first) => findings.push(Finding {
                severity: Severity::Error,
                kind: FindingKind::DuplicateRule { first, dup: id },
                rules: vec![first, id],
                message: format!(
                    "rule {} repeats the exact match conditions of rule {}; \
                     their 7-label keys collide, so configurable builds reject the set",
                    id.0, first.0
                ),
            }),
            None => {
                first_seen.insert(rule.dim_values(), id);
            }
        }
    }
    let distinct_keys = first_seen.len();

    // Pass 2: label cardinality, match depth, and the blowup bounds.
    let dim_cardinality = rules.unique_counts();
    let cands = probe::candidate_values(rules);
    let max_match_depth = ALL_DIMS.map(|dim| {
        let uniques: Vec<DimValue> = {
            let mut v: Vec<DimValue> = rules.iter().map(|(_, r)| r.dim_value(dim)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        cands[dim.index()]
            .iter()
            .map(|&q| uniques.iter().filter(|v| v.matches(q)).count())
            .max()
            .unwrap_or(0)
    });
    let combo_upper_bound = dim_cardinality
        .iter()
        .fold(1u128, |acc, &n| acc.saturating_mul(n as u128));
    let intersection_bound = max_match_depth
        .iter()
        .fold(1u128, |acc, &n| acc.saturating_mul(n as u128));

    // Pass 3: capacity pressure against the architecture limits.
    for dim in ALL_DIMS {
        let labels = dim_cardinality[dim.index()];
        let capacity = limits.label_capacity[dim.index()];
        let severity = if labels > capacity {
            Severity::Error
        } else if labels * 4 > capacity * 3 {
            Severity::Warning
        } else {
            continue;
        };
        findings.push(Finding {
            severity,
            kind: FindingKind::LabelPressure {
                dim,
                labels,
                capacity,
            },
            rules: Vec::new(),
            message: format!(
                "{dim}: {labels} distinct field values against a label capacity of {capacity}{}",
                if severity == Severity::Error {
                    " — the label allocator will exhaust"
                } else {
                    ""
                }
            ),
        });
    }
    {
        let slots = limits.rule_filter_slots;
        let severity = if distinct_keys > slots {
            Some(Severity::Error)
        } else if distinct_keys * 4 > slots * 3 {
            Some(Severity::Warning)
        } else {
            None
        };
        if let Some(severity) = severity {
            findings.push(Finding {
                severity,
                kind: FindingKind::RuleFilterPressure {
                    keys: distinct_keys,
                    slots,
                },
                rules: Vec::new(),
                message: format!(
                    "{distinct_keys} distinct label combinations against {slots} Rule Filter slots"
                ),
            });
        }
    }

    // Pass 4: pathological port ranges.
    for (id, rule) in rules.iter() {
        for (dim, range) in [
            (spc_types::Dim::SrcPort, rule.src_port),
            (spc_types::Dim::DstPort, rule.dst_port),
        ] {
            let prefixes = port_prefix_count(range);
            if prefixes >= limits.port_expansion_warn {
                findings.push(Finding {
                    severity: Severity::Warning,
                    kind: FindingKind::PathologicalPortRange {
                        rule: id,
                        dim,
                        prefixes,
                    },
                    rules: vec![id],
                    message: format!(
                        "rule {} {dim} range {range} expands into {prefixes} prefixes \
                         (decomposition backends pay per prefix)",
                        id.0
                    ),
                });
            }
        }
    }

    // Pass 5: spec lints.
    for (id, rule) in rules.iter() {
        let has_port_constraint = !rule.src_port.is_any() || !rule.dst_port.is_any();
        if has_port_constraint && rule.proto.is_any() {
            findings.push(Finding {
                severity: Severity::Info,
                kind: FindingKind::SpecLint {
                    rule: id,
                    lint: SpecLint::PortConstraintOnWildcardProto,
                },
                rules: vec![id],
                message: format!(
                    "rule {} constrains a port but leaves the protocol a wildcard; \
                     the constraint also applies to port-less protocols",
                    id.0
                ),
            });
        }
        let is_catch_all = ALL_DIMS.iter().all(|&d| rule.dim_value(d).is_any());
        if is_catch_all
            && rules
                .iter()
                .any(|(oid, o)| (rule.priority, id.0) < (o.priority, oid.0))
        {
            findings.push(Finding {
                severity: Severity::Warning,
                kind: FindingKind::SpecLint {
                    rule: id,
                    lint: SpecLint::CatchAllAboveOtherRules,
                },
                rules: vec![id],
                message: format!(
                    "rule {} matches everything but is not the lowest-priority rule; \
                     every rule ranked below it is dead",
                    id.0
                ),
            });
        }
    }

    // Pass 6: reachability (exact sweep within budget, else pairwise).
    let sweep = probe::reachability(rules, limits.probe_budget);
    for (id, rule) in rules.iter() {
        if !matches!(sweep.reachability[id.0 as usize], Reachability::Shadowed) {
            continue;
        }
        let by = rules
            .iter()
            .find(|(oid, other)| {
                *oid != id
                    && (other.priority, oid.0) < (rule.priority, id.0)
                    && probe::covers_all_dims(other, rule)
            })
            .map(|(oid, _)| oid);
        let message = match by {
            Some(b) => format!(
                "rule {} is fully covered by higher-priority rule {} and can never \
                 be the highest-priority match",
                id.0, b.0
            ),
            None => format!(
                "rule {} is unreachable: every header it matches is won by some \
                 higher-priority rule (union shadow)",
                id.0
            ),
        };
        findings.push(Finding {
            severity: Severity::Warning,
            kind: FindingKind::ShadowedRule { rule: id, by },
            rules: vec![id],
            message,
        });
    }
    if !sweep.exhaustive {
        let unknown_rules: Vec<RuleId> = sweep
            .reachability
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Reachability::Unknown))
            .map(|(i, _)| RuleId(i as u32))
            .collect();
        let grid_text = match sweep.grid {
            Some(cells) => cells.to_string(),
            None => "more than usize::MAX".to_string(),
        };
        findings.push(Finding {
            severity: Severity::Info,
            kind: FindingKind::ProbeBudgetExceeded {
                grid: sweep.grid,
                budget: limits.probe_budget,
                unknown: unknown_rules.len(),
            },
            message: format!(
                "probe grid of {grid_text} cells exceeds the budget of {} — \
                 reachability degraded to pairwise proofs and {} corner probes; \
                 {} rule(s) undecided",
                limits.probe_budget,
                sweep.probes,
                unknown_rules.len()
            ),
            rules: unknown_rules,
        });
    }

    // Deterministic order: most severe first, then finding code, then ids.
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.kind.code().cmp(b.kind.code()))
            .then_with(|| a.rules.cmp(&b.rules))
    });

    RuleSetReport {
        rules: rules.len(),
        findings,
        dim_cardinality,
        max_match_depth,
        distinct_keys,
        combo_upper_bound,
        intersection_bound,
        reachability: sweep.reachability,
        exhaustive: sweep.exhaustive,
        probes: sweep.probes,
        probe_budget: limits.probe_budget,
    }
}

/// Number of maximal prefix blocks covering a port range — the cost of
/// expanding it for prefix-only backends. A 16-bit range needs at most 30.
pub fn port_prefix_count(range: PortRange) -> u32 {
    range.prefix_blocks().count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{Dim, Header, Prefix, Priority, ProtoSpec, Rule};

    #[test]
    fn empty_set_is_clean() {
        let report = analyze(&RuleSet::new());
        assert!(report.findings.is_empty());
        assert_eq!(report.rules, 0);
        assert_eq!(report.dim_cardinality, [0; 7]);
        assert_eq!(report.max_match_depth, [0; 7]);
        assert_eq!(report.distinct_keys, 0);
        assert_eq!(report.combo_upper_bound, 0);
        assert!(report.exhaustive);
        assert!(report.shadowed_rules().is_empty());
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn single_rule_is_reachable_and_clean() {
        let rs = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
        let report = analyze(&rs);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(matches!(
            report.reachability[0],
            Reachability::Reachable { .. }
        ));
        assert_eq!(report.dim_cardinality, [1; 7]);
        assert_eq!(report.distinct_keys, 1);
    }

    #[test]
    fn wildcard_shadows_everything_below() {
        let mut rules = vec![Rule::any(Priority(0))];
        for p in 1..5u32 {
            rules.push(
                Rule::builder(Priority(p))
                    .dst_port(spc_types::PortRange::exact(p as u16))
                    .build(),
            );
        }
        let rs = RuleSet::from_rules(rules);
        let report = analyze(&rs);
        assert!(report.exhaustive);
        let shadowed = report.shadowed_rules();
        assert_eq!(shadowed, (1..5).map(RuleId).collect::<Vec<_>>());
        // All four shadow findings name the wildcard as the single coverer.
        for f in report.findings.iter() {
            if let FindingKind::ShadowedRule { by, .. } = f.kind {
                assert_eq!(by, Some(RuleId(0)));
            }
        }
        // And the catch-all lint fires for rule 0.
        assert!(report.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::SpecLint {
                rule: RuleId(0),
                lint: SpecLint::CatchAllAboveOtherRules,
            }
        )));
    }

    #[test]
    fn duplicates_are_errors_and_reduce_keys() {
        let r = Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .build();
        let mut dup = r;
        dup.priority = Priority(1);
        let rs = RuleSet::from_rules(vec![r, dup]);
        let report = analyze(&rs);
        assert!(report.has_errors());
        assert_eq!(report.distinct_keys, 1);
        assert!(report.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::DuplicateRule {
                first: RuleId(0),
                dup: RuleId(1),
            }
        )));
        // The duplicate also loses every cell, so it is shadowed too.
        assert_eq!(report.shadowed_rules(), vec![RuleId(1)]);
    }

    #[test]
    fn label_pressure_error_when_over_capacity() {
        let rules: Vec<Rule> = (0..8u16)
            .map(|i| {
                Rule::builder(Priority(u32::from(i)))
                    .dst_port(spc_types::PortRange::exact(i))
                    .build()
            })
            .collect();
        let rs = RuleSet::from_rules(rules);
        let mut limits = AnalyzerLimits::default();
        limits.label_capacity[Dim::DstPort.index()] = 4;
        let report = analyze_with(&rs, &limits);
        assert!(report.findings.iter().any(|f| f.severity == Severity::Error
            && matches!(
                f.kind,
                FindingKind::LabelPressure {
                    dim: Dim::DstPort,
                    labels: 8,
                    capacity: 4,
                }
            )));
    }

    #[test]
    fn rule_filter_pressure_fires() {
        let rules: Vec<Rule> = (0..9u16)
            .map(|i| {
                Rule::builder(Priority(u32::from(i)))
                    .src_port(spc_types::PortRange::exact(i))
                    .build()
            })
            .collect();
        let rs = RuleSet::from_rules(rules);
        let limits = AnalyzerLimits {
            rule_filter_slots: 8,
            ..AnalyzerLimits::default()
        };
        let report = analyze_with(&rs, &limits);
        assert!(report.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::RuleFilterPressure { keys: 9, slots: 8 }
        )));
    }

    #[test]
    fn pathological_port_range_flagged() {
        // 1..=0xfffe is the worst case: 30 prefixes.
        let rs = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .dst_port(spc_types::PortRange::new(1, 0xfffe).unwrap())
            .proto(ProtoSpec::Exact(6))
            .build()]);
        let report = analyze(&rs);
        assert!(report.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::PathologicalPortRange {
                rule: RuleId(0),
                dim: Dim::DstPort,
                prefixes: 30,
            }
        )));
    }

    #[test]
    fn port_lint_on_wildcard_proto() {
        let rs = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .dst_port(spc_types::PortRange::exact(80))
            .build()]);
        let report = analyze(&rs);
        assert!(report.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::SpecLint {
                lint: SpecLint::PortConstraintOnWildcardProto,
                ..
            }
        )));
        assert_eq!(report.max_severity(), Some(Severity::Info));
    }

    #[test]
    fn prefix_counts() {
        assert_eq!(port_prefix_count(PortRange::ANY), 1);
        assert_eq!(port_prefix_count(PortRange::exact(80)), 1);
        assert_eq!(port_prefix_count(PortRange::new(0, 1023).unwrap()), 1);
        assert_eq!(port_prefix_count(PortRange::new(1024, 0xffff).unwrap()), 6);
        assert_eq!(port_prefix_count(PortRange::new(1, 0xfffe).unwrap()), 30);
    }

    #[test]
    fn max_match_depth_counts_nested_values() {
        // Three nested source prefixes: a /0 (any), /8, /16 — a query
        // inside the /16 matches all three hi-segment values.
        let rules = vec![
            Rule::builder(Priority(0)).build(),
            Rule::builder(Priority(1))
                .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
                .build(),
            Rule::builder(Priority(2))
                .src_ip(Prefix::parse("10.1.0.0/16").unwrap())
                .build(),
        ];
        let report = analyze(&RuleSet::from_rules(rules));
        assert_eq!(report.max_match_depth[Dim::SipHi.index()], 3);
    }

    #[test]
    fn witnesses_satisfy_oracle() {
        let rs = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
                .build(),
            Rule::builder(Priority(1)).build(),
        ]);
        let report = analyze(&rs);
        for (i, r) in report.reachability.iter().enumerate() {
            if let Reachability::Reachable { witness } = r {
                let (winner, _) = rs.classify(witness).expect("witness must match");
                assert_eq!(winner, RuleId(i as u32));
            }
        }
    }

    #[test]
    fn over_budget_reports_coverage_context() {
        // Grid is 3 cells (dst_port cuts {0, 51, 101}); a 1-cell budget
        // forces the pairwise fallback. Rule 2 is shadowed only by the
        // *union* of rules 0 and 1 — no single cover proof — and its
        // corner probe loses to rule 0, so it stays Unknown.
        let rs = RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(spc_types::PortRange::new(0, 50).unwrap())
                .build(),
            Rule::builder(Priority(0))
                .dst_port(spc_types::PortRange::new(51, 100).unwrap())
                .build(),
            Rule::builder(Priority(1))
                .dst_port(spc_types::PortRange::new(0, 100).unwrap())
                .build(),
        ]);
        let limits = AnalyzerLimits {
            probe_budget: 1,
            ..AnalyzerLimits::default()
        };
        let report = analyze_with(&rs, &limits);
        assert!(!report.exhaustive);
        assert_eq!(report.probe_budget, 1);
        let finding = report
            .findings
            .iter()
            .find(|f| matches!(f.kind, FindingKind::ProbeBudgetExceeded { .. }))
            .expect("budget finding must fire");
        assert_eq!(finding.severity, Severity::Info);
        let FindingKind::ProbeBudgetExceeded {
            grid,
            budget,
            unknown,
        } = finding.kind
        else {
            unreachable!();
        };
        assert_eq!(grid, Some(3));
        assert_eq!(budget, 1);
        assert_eq!(unknown, 1);
        assert_eq!(finding.rules, vec![RuleId(2)]);
        assert!(finding.message.contains("3 cells"), "{}", finding.message);
        assert!(
            finding.message.contains("budget of 1"),
            "{}",
            finding.message
        );
        // The fallback probed all three rules' corners.
        assert_eq!(report.probes, 3);
    }

    #[test]
    fn deterministic_for_same_input() {
        let rs = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::any(Priority(1)),
            Rule::builder(Priority(2))
                .dst_port(spc_types::PortRange::exact(80))
                .build(),
        ]);
        let a = analyze(&rs);
        let b = analyze(&rs);
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn display_mentions_findings() {
        let rs = RuleSet::from_rules(vec![Rule::any(Priority(0)), Rule::any(Priority(1))]);
        let text = analyze(&rs).to_string();
        assert!(text.contains("shadowed-rule"), "{text}");
        assert!(text.contains("rule-set report"), "{text}");
    }

    #[test]
    fn default_header_probe_matches_witness_semantics() {
        // Sanity: Header::default() is the all-zero corner, which the probe
        // grid always contains.
        let rs = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
        let report = analyze(&rs);
        if let Reachability::Reachable { witness } = report.reachability[0] {
            assert_eq!(witness, Header::default());
        } else {
            panic!("wildcard must be reachable");
        }
    }
}
