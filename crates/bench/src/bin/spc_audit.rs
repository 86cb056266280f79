//! `spc_audit` — static rule-set audits for the ClassBench families and
//! arbitrary rule files.
//!
//! With no arguments, audits the three canonical ClassBench families
//! (ACL / FW / IPC) at 512 rules, seeded as everywhere else in
//! `spc-bench`. Any argument is instead treated as a path to a
//! ClassBench-format rule file to audit (`gen_filters` writes one at any
//! size).
//!
//! The audit runs through [`EngineBuilder::audit`], so the analyzer
//! limits (label-store capacities, Rule Filter slots) are derived from
//! the same auto-provisioned [`spc_core::ArchConfig`] the engine itself
//! would build with. Override the engine spec with `SPC_AUDIT_SPEC`
//! (default `configurable-bst`; see `EngineBuilder::from_spec`).
//!
//! Set `SPC_AUDIT_OPTIMIZE=1` to also run the semantics-preserving
//! optimizer (full pass pipeline, `spc_analyze::optimize`) over every
//! audited set: a per-set summary — rules before/after, what each pass
//! removed or merged, and the equivalence checker's validation verdict —
//! is printed and lands in the JSON artifact.
//!
//! Output:
//! - a per-set summary table plus every finding on stdout;
//! - a JSON findings artifact written to `SPC_AUDIT_OUT` when that env
//!   var is set;
//! - exit status 2 if any audited set has `Severity::Error` findings,
//!   so CI can gate on clean families;
//! - exit status 3 if `SPC_AUDIT_OPTIMIZE` validation ever reports
//!   `Differs` — the optimizer broke semantics, the strongest possible
//!   red flag.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use spc_analyze::{optimize, OptimizeConfig, RuleSetReport, Severity};
use spc_bench::{markdown_table, ruleset, ToJson};
use spc_classbench::FilterKind;
use spc_engine::EngineBuilder;
use spc_types::{parse_ruleset, RuleSet};

use spc_bench::json_object;

/// One audited rule set, as emitted in the JSON artifact.
struct AuditRecord {
    /// Rule-set name (family + scale, or file path).
    name: String,
    /// Engine spec whose provisioning the limits were derived from.
    engine_spec: String,
    /// The full analyzer report.
    report: RuleSetReport,
    /// Optimizer summary, present under `SPC_AUDIT_OPTIMIZE=1`.
    optimization: Option<OptimizeSummary>,
}

json_object!(AuditRecord {
    name,
    engine_spec,
    report,
    optimization
});

/// Per-set optimizer summary (`SPC_AUDIT_OPTIMIZE=1`).
struct OptimizeSummary {
    /// Rules in the set as audited.
    rules_before: usize,
    /// Rules surviving the full pass pipeline.
    rules_after: usize,
    /// What each executed pass did, in pipeline order.
    passes: Vec<PassSummary>,
    /// The equivalence checker's verdict on original vs optimized.
    validation: String,
    /// Whether validation proved the sets differ — must never happen.
    differs: bool,
}

json_object!(OptimizeSummary {
    rules_before,
    rules_after,
    passes,
    validation,
    differs
});

/// One optimizer pass in the summary.
struct PassSummary {
    /// Stable pass code (`duplicate-coalescing`, ...).
    pass: String,
    /// Rules the pass removed.
    removed: usize,
    /// Range pairs the pass fused.
    merges: usize,
    /// Priorities the pass rewrote.
    renumbered: usize,
}

json_object!(PassSummary {
    pass,
    removed,
    merges,
    renumbered
});

/// Top-level JSON artifact.
struct AuditArtifact {
    /// Spec used for every audit in this run.
    engine_spec: String,
    /// Rules requested per generated family.
    scale: usize,
    /// One record per audited set.
    audits: Vec<AuditRecord>,
}

json_object!(AuditArtifact {
    engine_spec,
    scale,
    audits
});

fn severity_count(report: &RuleSetReport, s: Severity) -> usize {
    report.at_severity(s).count()
}

/// Runs the full optimizer pipeline over one set and folds the result
/// into the artifact's summary shape. A `ValidationFailed` error — the
/// checker proved the optimizer changed semantics — becomes a summary
/// with `differs: true` rather than a panic, so every set still gets
/// audited and the process exits 3 at the end.
fn optimize_summary(rules: &RuleSet) -> OptimizeSummary {
    match optimize(rules, &OptimizeConfig::default()) {
        Ok(opt) => OptimizeSummary {
            rules_before: opt.original_rules,
            rules_after: opt.rules.len(),
            passes: opt
                .passes
                .iter()
                .map(|p| PassSummary {
                    pass: p.pass.code().to_string(),
                    removed: p.removed.len(),
                    merges: p.merges,
                    renumbered: p.renumbered,
                })
                .collect(),
            validation: opt.validation.to_string(),
            differs: false,
        },
        Err(e) => OptimizeSummary {
            rules_before: rules.len(),
            rules_after: rules.len(),
            passes: Vec::new(),
            validation: e.to_string(),
            differs: true,
        },
    }
}

fn load_sets(args: &[String], scale: usize) -> Vec<(String, RuleSet)> {
    if args.is_empty() {
        let families = [
            ("acl", FilterKind::Acl),
            ("fw", FilterKind::Fw),
            ("ipc", FilterKind::Ipc),
        ];
        return families
            .into_iter()
            .map(|(name, kind)| (format!("{name}{scale}"), ruleset(kind, scale)))
            .collect();
    }
    args.iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("spc_audit: cannot read {path}: {e}"));
            let rules = parse_ruleset(&text)
                .unwrap_or_else(|e| panic!("spc_audit: cannot parse {path}: {e}"));
            (path.clone(), rules)
        })
        .collect()
}

fn main() -> ExitCode {
    let spec = std::env::var("SPC_AUDIT_SPEC").unwrap_or_else(|_| "configurable-bst".to_string());
    let builder = EngineBuilder::from_spec(&spec)
        .unwrap_or_else(|e| panic!("spc_audit: bad SPC_AUDIT_SPEC {spec:?}: {e}"));
    let scale = 512;
    let args: Vec<String> = std::env::args().skip(1).collect();

    let run_optimizer = std::env::var("SPC_AUDIT_OPTIMIZE").is_ok_and(|v| v == "1");

    let sets = load_sets(&args, scale);
    let mut rows = Vec::new();
    let mut opt_rows = Vec::new();
    let mut audits = Vec::new();
    for (name, rules) in &sets {
        eprintln!("auditing {name} ({} rules)...", rules.len());
        let report = builder.audit(rules);
        rows.push(vec![
            name.clone(),
            rules.len().to_string(),
            severity_count(&report, Severity::Error).to_string(),
            severity_count(&report, Severity::Warning).to_string(),
            severity_count(&report, Severity::Info).to_string(),
            report.shadowed_rules().len().to_string(),
            report.distinct_keys.to_string(),
            report.exhaustive.to_string(),
            report.probes.to_string(),
        ]);
        let optimization = run_optimizer.then(|| {
            let summary = optimize_summary(rules);
            opt_rows.push(vec![
                name.clone(),
                summary.rules_before.to_string(),
                summary.rules_after.to_string(),
                summary
                    .passes
                    .iter()
                    .map(|p| format!("{}:{}", p.pass, p.removed + p.merges + p.renumbered))
                    .collect::<Vec<_>>()
                    .join(" "),
                summary.validation.clone(),
            ]);
            summary
        });
        audits.push(AuditRecord {
            name: name.clone(),
            engine_spec: spec.clone(),
            report,
            optimization,
        });
    }

    let header = |columns: &str| -> Vec<String> { columns.split(' ').map(String::from).collect() };
    println!("\nrule-set audit\n");
    let columns = "set rules errors warnings infos shadowed keys exhaustive probes";
    print!("{}", markdown_table(&header(columns), &rows));
    if run_optimizer {
        println!("\noptimizer (full pipeline, validated)\n");
        let columns = "set before after passes validation";
        print!("{}", markdown_table(&header(columns), &opt_rows));
    }

    for rec in &audits {
        println!("\n--- {} ---", rec.name);
        println!("{}", rec.report);
    }

    let has_errors = audits.iter().any(|r| r.report.has_errors());
    let has_differs = audits
        .iter()
        .any(|r| r.optimization.as_ref().is_some_and(|o| o.differs));
    let artifact = AuditArtifact {
        engine_spec: spec,
        scale,
        audits,
    };
    if let Ok(path) = std::env::var("SPC_AUDIT_OUT") {
        std::fs::write(&path, artifact.to_json().pretty() + "\n")
            .unwrap_or_else(|e| panic!("spc_audit: cannot write {path}: {e}"));
        eprintln!("wrote findings to {path}");
    }

    if has_differs {
        eprintln!("spc_audit: the optimizer FAILED validation on at least one set");
        return ExitCode::from(3);
    }
    if has_errors {
        eprintln!("spc_audit: error-level findings present");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
