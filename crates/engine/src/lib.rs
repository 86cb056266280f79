//! # spc-engine — one API for every packet classifier in the workspace
//!
//! Every classifier the workspace measures — the paper's configurable
//! architecture (`spc_core::Classifier`), the Table I comparators and the
//! update-first backends — answers through one trait, so harnesses, tests
//! and examples never need to know which algorithm they drive:
//!
//! * [`PacketClassifier`] — the unified trait: build-agnostic lookups
//!   ([`PacketClassifier::classify`]), a batch path
//!   ([`PacketClassifier::classify_batch`]), memory/access
//!   instrumentation, and an incremental-update capability probe
//!   ([`PacketClassifier::supports_updates`] with
//!   [`PacketClassifier::insert`] / [`PacketClassifier::remove`]);
//! * [`Verdict`] / [`LookupStats`] — one result vocabulary for every
//!   backend;
//! * [`EngineKind`] — the registry of all backends (the paper's
//!   configurable architecture in both `IPalg_s` settings, the six
//!   build-once Table I comparators — linear search, HyperCuts, RFC,
//!   DCFL, Option 1/2, each a private engine of this crate — the two
//!   update-first backends, and the three wrappers);
//! * [`EngineBuilder`] — constructs any backend as
//!   `Box<dyn PacketClassifier>` from an [`EngineKind`] or a config
//!   string such as `"configurable-bst:rf_bits=14"`, enabling scenario
//!   sweeps from CLIs and benches;
//! * [`pipeline`] — the generalised ingest worker pool
//!   ([`IngestPipeline`]): any backend driven from a header stream
//!   through a bounded, backpressure-aware queue, over per-worker
//!   engine replicas or one shared `Arc` engine. The sharded backend's
//!   hash-strategy batch path runs on the same machinery
//!   ([`pipeline::broadcast_batch`]);
//! * [`cache`] — the flow verdict cache: [`CachedEngine`] wraps any
//!   backend with an exact-match flow table, kept coherent with
//!   incremental updates by owning them: its `insert` / `remove`
//!   invalidate its own entries;
//! * [`snapshot`] — snapshot-swap concurrent serving: [`SnapshotEngine`]
//!   publishes immutable rule-set snapshots that [`SnapshotReader`]s on
//!   other threads classify against lock-free while `insert`/`remove`
//!   atomically publish the next version, recycling the copies readers
//!   have let go of;
//! * [`TupleSpaceEngine`] / [`SoftTcamEngine`] — the update-first
//!   backends, each its own engine: tuple-space search
//!   (`"tss"`) and a partitioned software TCAM
//!   (`"tcam:capacity=1048576"`), both with live
//!   incremental updates priced in §V.A write cycles;
//! * [`workload`] — engines driven from streaming
//!   [`spc_classbench::TraceSource`] workloads: classify-only streams
//!   (synthetic or pcap replay) through
//!   [`IngestPipeline::run_source`], mixed classify/update scenarios
//!   through [`run_scenario`].
//!
//! # Example
//!
//! ```
//! use spc_engine::{EngineBuilder, EngineKind};
//! use spc_types::{Action, Header, PortRange, Priority, ProtoSpec, Rule, RuleSet};
//!
//! let rules = RuleSet::from_rules(vec![Rule::builder(Priority(0))
//!     .dst_port(PortRange::exact(80))
//!     .proto(ProtoSpec::Exact(6))
//!     .action(Action::Forward(1))
//!     .build()]);
//! let mut engine = EngineBuilder::new(EngineKind::ConfigurableMbt)
//!     .build(&rules)
//!     .expect("rules fit the default provisioning");
//! let web = Header::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 999, 80, 6);
//! assert_eq!(engine.classify(&web).action, Some(Action::Forward(1)));
//!
//! // The same call works for every backend in the registry.
//! for kind in EngineKind::ALL {
//!     let e = EngineBuilder::new(kind).build(&rules).unwrap();
//!     assert!(e.classify(&web).is_hit(), "{kind}");
//! }
//! ```

mod builder;
pub mod cache;
mod configurable;
mod dcfl;
mod fields;
mod hypercuts;
mod kind;
mod linear;
mod options;
pub mod pipeline;
mod rfc;
mod shard;
mod sharded;
pub mod snapshot;
mod tcam;
mod tss;
pub mod workload;

pub use builder::{build_engine, legal_nesting, BuildError, EngineBuilder};
pub use cache::{CacheStats, CachedEngine};
pub use configurable::ConfigurableEngine;
pub use kind::EngineKind;
pub use pipeline::{BatchWorker, EngineSource, IngestConfig, IngestPipeline, PipelineError};
pub use sharded::ShardedEngine;
pub use snapshot::{SnapshotEngine, SnapshotReader};
pub use tcam::{SoftTcamEngine, DEFAULT_TCAM_CAPACITY};
pub use tss::TupleSpaceEngine;
pub use workload::{run_scenario, ScenarioReport, WorkloadError};
// Re-exported so callers can read update-cost accounting
// ([`PacketClassifier::last_update_report`]) without a spc-core dep.
pub use spc_core::UpdateReport;

use spc_types::{Action, Header, Priority, Rule, RuleId};
use std::fmt;

/// What a hit matched: the rule's identity and priority.
///
/// Produced by every backend on a hit ([`Verdict::matched`]). A flow
/// cache invalidates by `id`; it does not key on the matched rule's
/// masks (that would be unsound, see `docs/flow_cache.md`), so the
/// handle carries none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchHandle {
    /// The matched rule's id.
    pub id: RuleId,
    /// The matched rule's priority.
    pub priority: Priority,
}

/// The outcome of classifying one header, common to every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// The Highest Priority Matching Rule, or `None` on a miss.
    pub rule: Option<RuleId>,
    /// Priority of the matched rule.
    pub priority: Option<Priority>,
    /// Action of the matched rule.
    pub action: Option<Action>,
    /// Memory words this lookup read in the backend's hardware model.
    pub mem_reads: u32,
}

impl Verdict {
    /// A miss that still cost `mem_reads` accesses.
    pub fn miss(mem_reads: u32) -> Self {
        Verdict {
            mem_reads,
            ..Verdict::default()
        }
    }

    /// A hit on `handle`'s rule.
    pub fn hit(handle: MatchHandle, action: Action, mem_reads: u32) -> Self {
        Verdict {
            rule: Some(handle.id),
            priority: Some(handle.priority),
            action: Some(action),
            mem_reads,
        }
    }

    /// Whether a rule matched.
    pub fn is_hit(&self) -> bool {
        self.rule.is_some()
    }

    /// The match handle of a hit — rule id and priority ([`None`] on a
    /// miss).
    pub fn matched(&self) -> Option<MatchHandle> {
        self.rule
            .zip(self.priority)
            .map(|(id, priority)| MatchHandle { id, priority })
    }

    /// Folds `reads` more memory reads into this verdict, saturating.
    ///
    /// Every merge/cascade path accumulates reads through this one
    /// helper so overflow behaviour is uniform with [`LookupStats`]:
    /// counters peg at the maximum instead of aborting a run (debug
    /// builds panic on bare `+` overflow).
    pub fn add_reads(&mut self, reads: u32) {
        self.mem_reads = self.mem_reads.saturating_add(reads);
    }
}

/// Aggregate accounting over a batch of lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupStats {
    /// Headers classified.
    pub packets: u64,
    /// Headers that matched a rule.
    pub hits: u64,
    /// Total memory words read.
    pub mem_reads: u64,
}

impl LookupStats {
    /// Folds one verdict into the totals.
    ///
    /// Saturating, like every stats fold in this crate: a pegged
    /// counter is a measurement artefact, an aborted run is lost work.
    pub fn absorb(&mut self, v: &Verdict) {
        self.packets = self.packets.saturating_add(1);
        self.hits = self.hits.saturating_add(u64::from(v.is_hit()));
        self.mem_reads = self.mem_reads.saturating_add(u64::from(v.mem_reads));
    }

    /// Mean memory reads per packet.
    pub fn avg_mem_reads(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.mem_reads as f64 / self.packets as f64
        }
    }

    /// Fraction of packets that hit a rule.
    pub fn hit_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hits as f64 / self.packets as f64
        }
    }
}

impl std::ops::Add for LookupStats {
    type Output = LookupStats;
    /// Saturating per field, matching [`LookupStats::absorb`] — the two
    /// fold paths (per-verdict and per-chunk) must agree on overflow.
    fn add(self, rhs: LookupStats) -> LookupStats {
        LookupStats {
            packets: self.packets.saturating_add(rhs.packets),
            hits: self.hits.saturating_add(rhs.hits),
            mem_reads: self.mem_reads.saturating_add(rhs.mem_reads),
        }
    }
}

/// Error from the incremental-update path.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UpdateError {
    /// The backend is build-once: it must be reconstructed via
    /// [`EngineBuilder`] to change its rule set.
    Unsupported {
        /// The engine's display name.
        engine: &'static str,
    },
    /// A rule identical in every dimension is already installed —
    /// harmless to skip during bulk churn, unlike [`UpdateError::Rejected`].
    Duplicate {
        /// The already-installed rule.
        existing: RuleId,
    },
    /// The backend rejected the update (capacity, rule filter full, ...).
    Rejected {
        /// Backend-specific reason.
        reason: String,
    },
    /// No rule with this id is installed.
    UnknownRule {
        /// The offending id.
        id: RuleId,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Unsupported { engine } => {
                write!(
                    f,
                    "{engine} does not support incremental updates; rebuild it"
                )
            }
            UpdateError::Duplicate { existing } => {
                write!(f, "identical rule already installed as {existing}")
            }
            UpdateError::Rejected { reason } => write!(f, "update rejected: {reason}"),
            UpdateError::UnknownRule { id } => write!(f, "unknown rule {id}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// One packet-classification engine, whatever its algorithm.
///
/// Backends are constructed by [`EngineBuilder`] and consumed as
/// `Box<dyn PacketClassifier>`; harnesses, tests and examples never need
/// to know which algorithm is behind the box. See the crate docs for the
/// design rationale and `docs/engine_design.md` for how to add a backend.
///
/// Engines are `Send + Sync`: lookups take `&self` and write nothing
/// shared — modelled cost comes back by value in [`Verdict::mem_reads`]
/// — so a built engine can serve concurrent readers;
/// `Arc<dyn PacketClassifier>` behind [`pipeline::IngestPipeline`]'s
/// shared mode relies on exactly this.
/// Only the `&mut self` paths (a wrapper's batch buffers, incremental updates)
/// need exclusive access.
///
/// # Example
///
/// ```
/// use spc_engine::{build_engine, PacketClassifier};
/// use spc_types::{Header, Priority, Rule, RuleSet};
///
/// let rules = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
/// let mut engine = build_engine("configurable-mbt", &rules).unwrap();
/// let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 9, 80, 6);
/// // Single-shot lookups share `&self`; the batch path folds accounting.
/// assert!(engine.classify(&h).is_hit());
/// let mut verdicts = Vec::new();
/// let stats = engine.classify_batch(&[h; 10], &mut verdicts);
/// assert_eq!(stats.hits, 10);
/// ```
pub trait PacketClassifier: fmt::Debug + Send + Sync {
    /// Which registry entry this engine is; its display title is
    /// [`EngineKind::title`].
    fn kind(&self) -> EngineKind;

    /// Installed rule count.
    fn rules(&self) -> usize;

    /// Classifies one header.
    fn classify(&self, header: &Header) -> Verdict;

    /// Classifies a batch, appending one [`Verdict`] per header to `out`
    /// (which is cleared first) and returning aggregate accounting.
    ///
    /// The default implementation loops over [`PacketClassifier::classify`];
    /// wrappers override it where a batch changes the work: the flow
    /// cache hands only its misses to the inner engine ([`CachedEngine`]),
    /// and hash shards fan the batch out over one thread per shard.
    fn classify_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        classify_each(headers, out, |h| self.classify(h))
    }

    /// Bits of memory the structure occupies in the hardware model.
    fn memory_bits(&self) -> u64;

    /// Whether [`PacketClassifier::insert`] / [`PacketClassifier::remove`]
    /// are live paths (the paper's §V.A fast incremental update) rather
    /// than [`UpdateError::Unsupported`].
    fn supports_updates(&self) -> bool {
        false
    }

    /// Installs one rule incrementally.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Unsupported`] for build-once backends;
    /// [`UpdateError::Duplicate`] for an already-installed 5-tuple;
    /// [`UpdateError::Rejected`] on capacity.
    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        let _ = rule;
        Err(UpdateError::Unsupported {
            engine: self.kind().title(),
        })
    }

    /// Removes one rule incrementally.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Unsupported`] for build-once backends;
    /// [`UpdateError::UnknownRule`] for an id that is not installed.
    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        let _ = id;
        Err(UpdateError::Unsupported {
            engine: self.kind().title(),
        })
    }

    /// The §V.A cost accounting of the most recent *successful*
    /// [`PacketClassifier::insert`] / [`PacketClassifier::remove`]:
    /// hardware write cycles (the paper's 2 data cycles + 1 hash cycle
    /// floor plus structural writes) and labels created/freed.
    ///
    /// `None` before the first successful update and on build-once
    /// backends. A *failed* insert/remove leaves the previous report in
    /// place; a successful one replaces it with a report naming the
    /// op's rule id.
    fn last_update_report(&self) -> Option<UpdateReport> {
        None
    }
}

/// The verdict of a lookup that found `hit` (or nothing) for `reads`
/// memory reads — the one place a leaf backend turns its matched rule
/// into a [`MatchHandle`].
#[inline]
pub(crate) fn verdict(hit: Option<(RuleId, &Rule)>, reads: u32) -> Verdict {
    match hit {
        Some((id, rule)) => Verdict::hit(
            MatchHandle {
                id,
                priority: rule.priority,
            },
            rule.action,
            reads,
        ),
        None => Verdict::miss(reads),
    }
}

/// The one classify loop behind every batch path: clears `out`, pushes
/// `classify(h)` for each header in order and folds the verdicts into
/// the returned stats. Generic over the closure so each caller's lookup
/// is monomorphised into its own loop.
pub(crate) fn classify_each(
    headers: &[Header],
    out: &mut Vec<Verdict>,
    mut classify: impl FnMut(&Header) -> Verdict,
) -> LookupStats {
    out.clear();
    out.reserve(headers.len());
    let mut stats = LookupStats::default();
    for h in headers {
        let v = classify(h);
        stats.absorb(&v);
        out.push(v);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_handle_is_id_and_priority() {
        // Every hit builds one and every flow-cache slot stores one, and
        // the cache's modelled bits are `size_of` its slots.
        assert_eq!(std::mem::size_of::<MatchHandle>(), 8);
    }

    #[test]
    fn verdict_is_twenty_eight_bytes() {
        // Every batch output vector and pipeline chunk holds these; the
        // match is stored once, as `rule` / `priority`.
        assert_eq!(std::mem::size_of::<Verdict>(), 28);
    }

    #[test]
    fn verdict_constructors() {
        let m = Verdict::miss(7);
        assert!(!m.is_hit());
        assert_eq!(m.mem_reads, 7);
        assert_eq!(m.matched(), None);

        let handle = MatchHandle {
            id: RuleId(4),
            priority: Priority(2),
        };
        let h = Verdict::hit(handle, Action::Drop, 3);
        assert!(h.is_hit());
        assert_eq!(h.rule, Some(RuleId(4)));
        assert_eq!(h.priority, Some(Priority(2)));
        assert_eq!(h.matched(), Some(handle));
    }

    #[test]
    fn stats_absorb_and_add() {
        let mut s = LookupStats::default();
        s.absorb(&Verdict::miss(10));
        s.absorb(&Verdict::hit(
            MatchHandle {
                id: RuleId(0),
                priority: Priority(1),
            },
            Action::Drop,
            6,
        ));
        assert_eq!(s.packets, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.mem_reads, 16);
        assert!((s.avg_mem_reads() - 8.0).abs() < 1e-12);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let t = s + s;
        assert_eq!(t.packets, 4);
        assert_eq!(t.mem_reads, 32);
        // A pegged counter saturates in every fold.
        let pegged = LookupStats {
            mem_reads: u64::MAX,
            ..Default::default()
        };
        assert_eq!((pegged + pegged).mem_reads, u64::MAX);
    }

    #[test]
    fn empty_stats_safe() {
        let s = LookupStats::default();
        assert_eq!(s.avg_mem_reads(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn update_error_display() {
        assert!(UpdateError::Unsupported { engine: "RFC" }
            .to_string()
            .contains("RFC"));
        assert!(UpdateError::UnknownRule { id: RuleId(3) }
            .to_string()
            .contains('3'));
        assert!(UpdateError::Rejected {
            reason: "full".into()
        }
        .to_string()
        .contains("full"));
        assert!(UpdateError::Duplicate {
            existing: RuleId(7)
        }
        .to_string()
        .contains("r7"));
    }
}
