//! Quickstart: build an engine from the registry, install rules through
//! the unified `PacketClassifier` API, classify packets one at a time and
//! as a batch.
//!
//! Run with `cargo run --release --example quickstart`.

use spc::engine::{EngineBuilder, EngineKind, PacketClassifier, Verdict};
use spc::types::{Action, Header, PortRange, Prefix, Priority, ProtoSpec, Rule, RuleSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's configurable architecture in MBT (speed) mode. Any
    // other registry backend would serve the same calls.
    let mut engine: Box<dyn PacketClassifier> =
        EngineBuilder::new(EngineKind::ConfigurableMbt).build(&RuleSet::new())?;

    // A tiny ACL: drop telnet, steer web traffic, default-drop 10/8 —
    // installed through the trait's incremental-update path.
    assert!(
        engine.supports_updates(),
        "the configurable architecture updates in place"
    );
    let rules = [
        Rule::builder(Priority(0))
            .dst_port(PortRange::exact(23))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Drop)
            .build(),
        Rule::builder(Priority(1))
            .src_ip(Prefix::parse("10.0.0.0/8")?)
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Forward(1))
            .build(),
        Rule::builder(Priority(2))
            .src_ip(Prefix::parse("10.0.0.0/8")?)
            .action(Action::ToController)
            .build(),
    ];
    for r in rules {
        let id = engine.insert(r)?;
        println!("installed {id} on {}", engine.kind().title());
    }

    let packets = [
        Header::new([10, 1, 2, 3].into(), [192, 168, 0, 1].into(), 5555, 23, 6),
        Header::new([10, 1, 2, 3].into(), [192, 168, 0, 1].into(), 5555, 80, 6),
        Header::new([10, 9, 9, 9].into(), [192, 168, 0, 1].into(), 5555, 443, 6),
        Header::new([11, 1, 1, 1].into(), [192, 168, 0, 1].into(), 5555, 80, 6),
    ];
    for h in &packets {
        match engine.classify(h) {
            Verdict {
                action: Some(action),
                rule: Some(id),
                mem_reads,
                ..
            } => {
                println!("{h}  ->  {action} via {id} ({mem_reads} memory reads)");
            }
            v => println!("{h}  ->  table miss ({} memory reads)", v.mem_reads),
        }
    }

    // The batch path aggregates accounting.
    let batch: Vec<Header> = packets.iter().cycle().take(4096).copied().collect();
    let mut verdicts = Vec::new();
    let stats = engine.classify_batch(&batch, &mut verdicts);
    println!(
        "\nbatch of {}: {:.1}% hits, {:.2} memory reads/packet",
        stats.packets,
        100.0 * stats.hit_rate(),
        stats.avg_mem_reads(),
    );
    println!(
        "engine memory: {} bits for {} rules",
        engine.memory_bits(),
        engine.rules()
    );
    Ok(())
}
