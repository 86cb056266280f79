//! Shared harness for the reproduction report ([`reproduction`], printed
//! by the `reproduce` bin as `REPRODUCTION.md`), the `spc_audit` bin and
//! the criterion benches: the canonical seeded rule sets and traffic, unit
//! conversions, one Markdown table renderer, `spc_audit`'s JSON emitter.
//! Wall-clock performance is `spc_benchmark`'s job (`BENCHMARK.json`).

pub mod json;
pub mod reproduction;

pub use json::{ToJson, Value as JsonValue};
use spc_classbench::{FilterKind, RuleSetGenerator, SyntheticTrace, TraceGenerator, TraceSource};
use spc_types::{Header, RuleSet};

/// The canonical seeds used by every experiment, so all tables are
/// regenerated from identical inputs.
pub const SEED_RULES: u64 = 2014;
/// Trace generation seed.
pub const SEED_TRACE: u64 = 353; // first page of the paper

/// Standard rule set used throughout the evaluation.
pub fn ruleset(kind: FilterKind, size: usize) -> RuleSet {
    RuleSetGenerator::new(kind, size)
        .seed(SEED_RULES)
        .generate()
}

/// The canonical evaluation traffic profile: 90 % matching traffic,
/// seeded with [`SEED_TRACE`].
pub fn traffic() -> TraceGenerator {
    TraceGenerator::new().seed(SEED_TRACE).match_fraction(0.9)
}

/// Standard evaluation workload as a streaming [`TraceSource`].
pub fn trace_source(rules: &RuleSet, len: usize) -> SyntheticTrace<'_> {
    traffic().stream(rules, len)
}

/// Standard evaluation trace, materialised — for harnesses (criterion
/// timing loops, oracle vectors) that need the whole workload at once.
/// Everything else should stream from [`trace_source`].
#[allow(clippy::expect_used)] // synthetic sources are infallible
pub fn trace(rules: &RuleSet, len: usize) -> Vec<Header> {
    trace_source(rules, len)
        .collect_headers()
        .expect("synthetic sources cannot fail")
}

/// Converts bits to the paper's "Mb" (megabits).
pub fn mbits(bits: u64) -> f64 {
    bits as f64 / 1.0e6
}

/// Converts bits to Kbits.
pub fn kbits(bits: u64) -> f64 {
    bits as f64 / 1.0e3
}

/// Renders a Markdown table with cells padded to the column width, so
/// the source reads as a table too: first column left-aligned, the rest
/// right-aligned. Every row has one cell per header column.
pub fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let width = |s: &String| s.chars().count();
    // Four dashes: the alignment row's `---:` must fit.
    let widths: Vec<usize> = (0..header.len())
        .map(|i| {
            rows.iter()
                .map(|r| width(&r[i]))
                .fold(width(&header[i]).max(4), usize::max)
        })
        .collect();
    let line = |cells: &[String]| {
        let mut out = String::from("|");
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            let pad = " ".repeat(w - width(cell));
            out += &if i == 0 {
                format!(" {cell}{pad} |")
            } else {
                format!(" {pad}{cell} |")
            };
        }
        out + "\n"
    };
    let dashes = |(i, w): (usize, &usize)| {
        if i == 0 {
            "-".repeat(*w)
        } else {
            "-".repeat(w - 1) + ":"
        }
    };
    let rule: Vec<String> = widths.iter().enumerate().map(dashes).collect();
    let mut out = line(header) + &line(&rule);
    for r in rows {
        out += &line(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ruleset_deterministic() {
        assert_eq!(ruleset(FilterKind::Acl, 200), ruleset(FilterKind::Acl, 200));
    }

    #[test]
    fn unit_conversions() {
        assert!((mbits(5_960_000) - 5.96).abs() < 1e-9);
        assert!((kbits(543_000) - 543.0).abs() < 1e-9);
    }

    #[test]
    fn markdown_table_pads_to_the_widest_cell() {
        let cell = |s: &str| s.to_string();
        let t = markdown_table(
            &[cell(""), cell("Gbps")],
            &[
                vec![cell("§V.A — MBT"), cell("42.73")],
                vec![cell("BST"), cell("2.7")],
            ],
        );
        let want = "\
|            |  Gbps |
| ---------- | ----: |
| §V.A — MBT | 42.73 |
| BST        |   2.7 |
";
        assert_eq!(t, want);
    }
}
