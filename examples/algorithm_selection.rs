//! Algorithm selection by application class (paper §III.A): the SDN
//! controller picks the backend per the application's critical parameter
//! — lookup speed for a multi-end videoconference, rule density for an
//! IoT policy, exactness for an audit tap — and the unified engine API
//! makes the sweep a loop over config strings. Every choice is exact:
//! each engine's verdicts are held to `linear`'s.
//!
//! Run with `cargo run --release --example algorithm_selection`.

use spc::classbench::{FilterKind, RuleSetGenerator, TraceGenerator, TraceSource};
use spc::engine::build_engine;

struct AppProfile {
    name: &'static str,
    spec: &'static str,
    rules: usize,
    why: &'static str,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let apps = [
        AppProfile {
            name: "multi-end videoconferencing",
            spec: "configurable-mbt:rf_bits=14",
            rules: 1500,
            why: "real-time: lookup speed is the critical parameter [11]",
        },
        AppProfile {
            name: "IoT micro-segmentation",
            spec: "configurable-bst:rf_bits=14",
            rules: 6000,
            why: "large granular rule filter: density matters, latency doesn't",
        },
        AppProfile {
            name: "compliance audit tap",
            spec: "rfc",
            rules: 1500,
            why: "offline exactness at any memory cost",
        },
        AppProfile {
            name: "metro-core aggregation",
            spec: "sharded:inner=configurable-bst,shards=8,strategy=hash",
            rules: 8000,
            why: "rule count beyond one engine: shard by field hash, merge by priority",
        },
    ];
    for app in apps {
        let rules = RuleSetGenerator::new(FilterKind::Acl, app.rules)
            .seed(31)
            .generate();
        let mut engine = build_engine(app.spec, &rules)?;
        let trace = TraceGenerator::new()
            .seed(8)
            .stream(&rules, 5_000)
            .collect_headers()?;
        let mut verdicts = Vec::new();
        let stats = engine.classify_batch(&trace, &mut verdicts);
        let oracle = build_engine("linear", &rules)?;
        if let Some(h) = trace
            .iter()
            .zip(&verdicts)
            .find_map(|(h, v)| (v.rule != oracle.classify(h).rule).then_some(h))
        {
            return Err(format!("{} disagrees with linear at {h}", app.spec).into());
        }
        println!("== {} ==", app.name);
        println!(
            "   controller choice: {}  ({})",
            engine.kind().title(),
            app.why
        );
        println!("   spec string:       {}", app.spec);
        println!("   rules installed:   {}", engine.rules());
        println!(
            "   lookup cost:       {:.2} memory reads/packet over {} packets",
            stats.avg_mem_reads(),
            stats.packets
        );
        println!(
            "   structure memory:  {:.0} Kbits ({})\n",
            engine.memory_bits() as f64 / 1000.0,
            if engine.supports_updates() {
                "updatable in place"
            } else {
                "rebuild to change"
            },
        );
    }
    println!("Same API, one spec string per application — the paper's configurability claim.");
    Ok(())
}
