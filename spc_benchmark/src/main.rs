//! `spc_benchmark` — the repository's benchmark.
//!
//! One run drives one workload from one thread through the public engine
//! APIs, checks every verdict against the `linear` oracle and prints
//! every metric by name with its unit; the last line of standard output
//! is the result object `/BENCHMARK.json` describes. See `README.md`
//! beside this package for the metric definitions and the estimator.
//!
//! ```text
//! spc_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! spc_benchmark --selfcheck [--seed N] [--seconds S]
//! spc_benchmark --list | --benchmark-json
//! ```

mod drive;
mod estimator;
mod host;
mod inputs;
mod layers;
mod metrics;
mod spans;

use inputs::{Res, Workload, WORKLOADS};
use metrics::{Metric, Values};

const USAGE: &str = "usage: spc_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans FILE] [--quick]\n       spc_benchmark --selfcheck [--seed N] [--seconds S]\n       \
                     spc_benchmark --list | --benchmark-json";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    quick: bool,
}

#[derive(Debug, PartialEq)]
enum Mode {
    Run(&'static Workload),
    SelfCheck,
    List,
    BenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::List,
        seed: inputs::PROFILE_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        spans: None,
        quick: false,
    };
    let mut mode = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = inputs::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                mode = Some(Mode::Run(w));
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number from 0 to 3600")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--spans" => args.spans = Some(value()?.clone()),
            "--quick" => args.quick = true,
            "--selfcheck" => mode = Some(Mode::SelfCheck),
            "--list" => mode = Some(Mode::List),
            "--benchmark-json" => mode = Some(Mode::BenchmarkJson),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    args.mode = mode.ok_or(USAGE)?;
    if args.spans.is_some() && !args.trace {
        return Err("--spans needs --trace 1".to_string());
    }
    Ok(args)
}

fn print_table(title: &str, registry: &[Metric], values: &Values) {
    println!("== {title}");
    for m in registry {
        if let Some(v) = values.get(&m.name) {
            println!("{:<36} {:>18.6} {}", m.name, v, m.unit);
        }
    }
}

/// The harness rows every run shows, so an interfered run can be told
/// from its own output even when the result object omits them.
fn gauges() -> Vec<Metric> {
    metrics::per_layer()
        .into_iter()
        .filter(|m| m.name.starts_with("noise.") || m.name == "host.rss_mb")
        .collect()
}

fn run_workload(w: &'static Workload, args: &Args) -> Res<()> {
    if args.quick {
        eprintln!("--quick is the test scale: these numbers are not for reporting");
    }
    let (registry, values, tally) = if args.trace {
        let traced = layers::run(w, args.quick, args.seed, args.seconds)?;
        if let Some(path) = &args.spans {
            traced
                .tracer
                .write_tsv(w.name, std::fs::File::create(path)?)?;
        }
        let registry = metrics::per_layer();
        print_table(&format!("{} per-layer", w.name), &registry, &traced.values);
        (registry, traced.values, traced.tally)
    } else {
        let out = drive::run(w, args.quick, args.seed, args.seconds)?;
        let registry = metrics::end_to_end();
        print_table(&format!("{} end-to-end", w.name), &registry, &out.values);
        print_table("harness", &gauges(), &out.values);
        println!(
            "{} lookup slots replayed >= {} times, {} update slots replayed >= {} times; \
             percentiles are across slot floors",
            out.slots.0, out.replays.0, out.slots.1, out.replays.1
        );
        (registry, out.values, out.tally)
    };
    println!(
        "operations attempted {} failed {} (checked against `linear`)",
        tally.attempted, tally.failed
    );
    println!(
        "{}",
        metrics::result_line(&registry, &values, tally.attempted, tally.failed)?
    );
    Ok(())
}

/// Runs all four workloads twice back to back and holds each pair of
/// end-to-end values to the metric's bound. Returns whether all agree.
fn selfcheck(args: &Args) -> Res<bool> {
    let registry = metrics::end_to_end();
    let mut ok = true;
    for w in &WORKLOADS {
        let a = drive::run(w, args.quick, args.seed, args.seconds)?;
        let b = drive::run(w, args.quick, args.seed, args.seconds)?;
        println!(
            "== {} selfcheck: first, second, relative spread, bound",
            w.name
        );
        for m in &registry {
            let (x, y) = (a.values[&m.name], b.values[&m.name]);
            let spread = (x - y).abs() / x.min(y);
            let bound = m.bound.unwrap_or(0.0);
            // Modelled metrics are counts: any difference is a defect.
            let agree = if m.name.starts_with("model_") {
                x.to_bits() == y.to_bits()
            } else {
                spread <= bound
            };
            println!(
                "{:<24} {:>16.6} {:>16.6} {:>8.4} {:>6} {}",
                m.name,
                x,
                y,
                spread,
                bound,
                if agree { "ok" } else { "DIFFERS" }
            );
            ok &= agree;
        }
        for (name, o) in [("first", &a), ("second", &b)] {
            println!(
                "{name}: attempted {} failed {} wall_ratio {:.3} sched_wait_ms {:.1}",
                o.tally.attempted,
                o.tally.failed,
                o.values["noise.wall_ratio"],
                o.values["noise.sched_wait_ms"]
            );
            ok &= o.tally.failed == 0;
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> std::process::ExitCode {
    use std::process::ExitCode;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let done = match &args.mode {
        Mode::List => {
            print!("{}", metrics::list());
            Ok(true)
        }
        Mode::BenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Mode::SelfCheck => selfcheck(&args),
        Mode::Run(w) => run_workload(w, &args).map(|()| true),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spc_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload fw_lookup --seed 9 --seconds 24 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Run(inputs::workload("fw_lookup").unwrap()));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 24.0, true));
        let d = parse_args(&argv("--workload acl_lookup")).unwrap();
        assert_eq!((d.seed, d.trace), (2014, false));
        assert_eq!(d.seconds, metrics::RUN_SECONDS as f64);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload acl_lookup --trace 2",
            "--workload acl_lookup --seed x",
            "--workload acl_lookup --seconds -1",
            "--workload acl_lookup --spans f",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
