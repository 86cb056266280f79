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
//! Output:
//! - a per-set summary table plus every finding on stdout;
//! - a JSON findings artifact written to `SPC_AUDIT_OUT` when that env
//!   var is set;
//! - exit status 2 if any audited set has `Severity::Error` findings,
//!   so CI can gate on clean families.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use spc_analyze::{RuleSetReport, Severity};
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
}

json_object!(AuditRecord {
    name,
    engine_spec,
    report
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

    let sets = load_sets(&args, scale);
    let mut rows = Vec::new();
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
        audits.push(AuditRecord {
            name: name.clone(),
            engine_spec: spec.clone(),
            report,
        });
    }

    println!("\nrule-set audit\n");
    let columns: Vec<String> = "set rules errors warnings infos shadowed keys exhaustive probes"
        .split(' ')
        .map(String::from)
        .collect();
    print!("{}", markdown_table(&columns, &rows));

    for rec in &audits {
        println!("\n--- {} ---", rec.name);
        println!("{}", rec.report);
    }

    let has_errors = audits.iter().any(|r| r.report.has_errors());
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

    if has_errors {
        eprintln!("spc_audit: error-level findings present");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
