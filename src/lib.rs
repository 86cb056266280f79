//! Umbrella crate for the SOCC 2014 configurable packet classification
//! architecture reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and downstream
//! users can depend on a single crate:
//!
//! * [`types`] — rules, headers, prefixes, ranges ([`spc_types`])
//! * [`classbench`] — seeded ACL/FW/IPC rule-set and trace generators
//! * [`hwsim`] — memory-block / cycle / throughput hardware model
//! * [`lookup`] — single-field lookup engines with the DCFL label method
//! * [`core`] — the configurable classifier architecture itself
//! * [`engine`] — the unified [`engine::PacketClassifier`] API over all of
//!   the above: one trait, batch lookups, a backend registry with the
//!   Table I comparators (linear search, HyperCuts, RFC, DCFL, Option 1/2)
//!   and the update-first backends (tuple-space search, the software TCAM)
//!   of its own, and the [`engine::CachedEngine`] flow verdict cache
//!   (an exact-match flow table) that can wrap any backend
//! * [`analyze`] — static rule-set analysis: shadowing, duplicates,
//!   label-pressure and port-expansion findings ([`spc_analyze`])
//!
//! # Quickstart
//!
//! Build any backend from the [`engine::EngineKind`] registry, install
//! rules, and classify single headers or whole batches through one API:
//!
//! ```
//! use spc::engine::{EngineBuilder, EngineKind, PacketClassifier};
//! use spc::types::{Action, Header, PortRange, Prefix, Priority, ProtoSpec, Rule, RuleSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rules = RuleSet::from_rules(vec![Rule::builder(Priority(0))
//!     .src_ip(Prefix::parse("10.0.0.0/8")?)
//!     .dst_port(PortRange::exact(80))
//!     .proto(ProtoSpec::Exact(6))
//!     .action(Action::Forward(1))
//!     .build()]);
//!
//! // The paper's configurable architecture, MBT (speed) mode...
//! let mut engine = EngineBuilder::new(EngineKind::ConfigurableMbt).build(&rules)?;
//! let hdr = Header::new([10, 1, 2, 3].into(), [1, 2, 3, 4].into(), 999, 80, 6);
//! assert_eq!(engine.classify(&hdr).action, Some(Action::Forward(1)));
//!
//! // ...incremental updates through the same trait (capability-probed)...
//! assert!(engine.supports_updates());
//! let id = engine.insert(Rule::builder(Priority(1)).action(Action::Drop).build())?;
//! engine.remove(id)?;
//!
//! // ...and amortised batch lookups with aggregate accounting.
//! let batch = vec![hdr; 64];
//! let mut verdicts = Vec::new();
//! let stats = engine.classify_batch(&batch, &mut verdicts);
//! assert_eq!(stats.hits, 64);
//!
//! // Every other backend (linear, HyperCuts, RFC, DCFL, Option 1/2,
//! // configurable-BST) builds from the same registry, e.g. by spec string:
//! let oracle = spc::engine::build_engine("linear", &rules)?;
//! assert_eq!(oracle.classify(&hdr).rule, verdicts[0].rule);
//! # Ok(())
//! # }
//! ```

pub use spc_analyze as analyze;
pub use spc_classbench as classbench;
pub use spc_core as core;
pub use spc_engine as engine;
pub use spc_hwsim as hwsim;
pub use spc_lookup as lookup;
pub use spc_types as types;

// The flow-cache vocabulary, re-exported at the root: what a verdict
// matched ([`MatchHandle`]) is API surface for any downstream cache or
// invalidation logic, not an engine-internal detail.
pub use spc_engine::{CacheStats, CachedEngine, MatchHandle, SnapshotEngine, SnapshotReader};
