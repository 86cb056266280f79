//! SDN controller simulation: flow churn with fast incremental update and
//! a run-time `IPalg_s` reconfiguration (paper §IV.A, Fig 4), driven
//! through the unified engine API.
//!
//! The controller installs an initial service-chaining policy, then
//! runs a scripted churn scenario — bursts of flow installs, classify
//! windows, and tear-downs of expired flows — expressed as a
//! `ScenarioScript` and executed by the generic scenario runner; when
//! the application profile changes it flips the IP algorithm from MBT
//! (speed) to BST (density) — an architecture-specific control reached
//! through the configurable engine's accessor, with the data path
//! verified through the same unified API before and after.
//!
//! Run with `cargo run --release --example sdn_controller`.

use spc::classbench::{FilterKind, RuleSetGenerator, ScenarioScript, TraceGenerator, TraceSource};
use spc::core::{ArchConfig, Classifier, IpAlg};
use spc::engine::{run_scenario, ConfigurableEngine, PacketClassifier};
use spc::types::RuleId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = ArchConfig::large();
    cfg.rule_filter_addr_bits = 14;
    let mut engine = ConfigurableEngine::new(Classifier::new(cfg));
    assert!(
        engine.supports_updates(),
        "rule churn needs the incremental path"
    );

    // Initial policy: 2K ACL-style flow rules pushed by the controller.
    let base = RuleSetGenerator::new(FilterKind::Acl, 2000)
        .seed(99)
        .generate();
    let ids: Vec<RuleId> = base
        .rules()
        .iter()
        .map(|r| engine.insert(*r))
        .collect::<Result<_, _>>()?;
    println!("installed {} rules on {}", ids.len(), engine.kind().title());

    // Flow churn as a declarative scenario: five bursts of 60 flow
    // installs, each followed by a 400-packet classify window and the
    // expiry of the 30 oldest churned flows. The runner owns the
    // insert-index -> RuleId bookkeeping the hand-rolled loop used to.
    let churn_pool: Vec<_> = RuleSetGenerator::new(FilterKind::Acl, 600)
        .seed(123)
        .generate()
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            // Re-prioritise churned flows behind the base policy.
            let mut r = *r;
            r.priority = spc::types::Priority(10_000 + i as u32);
            r
        })
        .collect();
    let script = ScenarioScript::parse("repeat 5 { insert 60; classify 400; remove 30 }")?;
    let mut source = script.source(&TraceGenerator::new().seed(4), &base, &churn_pool)?;
    let mut verdicts = Vec::new();
    let report = run_scenario(&mut engine, &mut source, &mut verdicts)?;
    println!(
        "churn scenario: +{} flows (-{} expired, {} duplicates skipped), \
         {} packets classified between bursts; {} rules live",
        report.inserts,
        report.removes,
        report.duplicates,
        report.lookup.packets,
        engine.rules()
    );
    println!(
        "update cost: {:.1} hw write cycles/op over {} ops (§V.A floor is 3)",
        report.update_cycles() as f64 / report.update_ops().max(1) as f64,
        report.update_ops()
    );

    // Application change: the controller now favours rule density. The
    // `IPalg_s` switch is the one architecture-specific control; the data
    // path stays behind the unified API.
    let trace = TraceGenerator::new()
        .seed(5)
        .stream(&base, 2_000)
        .collect_headers()?;
    let mut before = Vec::new();
    let stats_mbt = engine.classify_batch(&trace, &mut before);
    println!("\ncontroller: switching IPalg_s MBT -> BST (labels stay in place)...");
    engine.classifier_mut().set_ip_alg(IpAlg::Bst)?;
    let mut after = Vec::new();
    let stats_bst = engine.classify_batch(&trace, &mut after);
    assert!(
        before.iter().zip(&after).all(|(a, b)| a.rule == b.rule),
        "reconfiguration must be transparent to the data path"
    );
    println!(
        "verdicts identical across the switch; cost {:.1} -> {:.1} memory reads/packet ({})",
        stats_mbt.avg_mem_reads(),
        stats_bst.avg_mem_reads(),
        engine.kind().title(),
    );
    engine.classifier_mut().set_ip_alg(IpAlg::Mbt)?;
    println!(
        "switched back to {} for line-rate lookups",
        engine.kind().title()
    );
    Ok(())
}
