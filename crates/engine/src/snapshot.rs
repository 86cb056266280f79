//! Snapshot-swap concurrent serving: readers classify against an
//! immutable published snapshot while the writer rebuilds and
//! atomically publishes the next one.
//!
//! Every other backend in the registry serialises classification and
//! updates on one engine value (`&mut self` for updates, `&self` for
//! lookups, one owner). A production data plane cannot: packets must
//! keep classifying at line rate *while* the controller churns rules.
//! [`SnapshotEngine`] is the RCU-style answer, built entirely on
//! `std::sync` (the workspace forbids `unsafe`, so the "atomic pointer"
//! is a [`Mutex`]`<Arc<Snapshot>>` paired with an [`AtomicU64`]
//! version counter — see below):
//!
//! * **Readers** ([`SnapshotReader`]) hold a cached `Arc` to the
//!   current snapshot. On the steady-state path a classify is one
//!   relaxed-free atomic version load plus a lookup in an immutable
//!   structure — no lock is taken and the writer cannot block it. Only
//!   when the version counter has moved does the reader briefly take
//!   the publication lock to clone the new `Arc`.
//! * **The writer** (`insert`/`remove` through [`PacketClassifier`])
//!   never mutates a published snapshot. It rebuilds the next engine
//!   off to the side, then publishes it with a single pointer swap
//!   under the publication lock. Readers still classifying against the
//!   old snapshot keep their `Arc`; the old snapshot is retired
//!   (dropped) when the last reader releases it.
//! * **Sharded inners** (`snapshot:inner=(sharded:...)`) keep the
//!   plan's partitioning on the writer side: an update rebuilds *only
//!   the touched shard's* inner engine and the next snapshot reuses
//!   every untouched shard's `Arc` — publication cost scales with the
//!   shard, not the rule set.
//!
//! Consistency contract (what `tests/snapshot_consistency.rs`
//! verifies): every verdict a reader observes equals the oracle verdict
//! of *some* snapshot published between that reader's start and end —
//! never a torn mix of two versions — and the epoch a reader reports
//! ([`SnapshotReader::update_epoch`]) is exactly the version its last
//! verdict came from, non-decreasing over the reader's lifetime.
//! `docs/concurrency.md` walks through the publish/retire protocol and
//! the trade-offs against the shared-`Mutex` stop-the-world model.
//!
//! Update reports keep the paper's §V.A semantics where the inner
//! engine supports incremental updates: the writer rebuilds the
//! pre-update engine and replays the op through the inner's own
//! `insert`/`remove`, so `last_update_report()` carries the inner's
//! real label/hw-cycle accounting. Build-once inners (e.g. `linear`,
//! `rfc`) are rebuilt wholesale and report zero hardware write cycles —
//! the rebuild happens in software, off the fast path. Either way the
//! snapshot wrapper itself is *always* updatable: that is the point of
//! paying for rebuilds.

use crate::pipeline::BatchWorker;
use crate::sharded::{classify_shards, report_for, Shard};
use crate::{
    classify_each, BuildError, EngineBuilder, EngineKind, LookupStats, PacketClassifier,
    UpdateError, UpdateReport, Verdict,
};
use spc_core::shard::{RouteTarget, ShardPlan, ShardRouter, ShardStrategy};
use spc_types::{Header, Rule, RuleId, RuleSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published, immutable rule-set version.
#[derive(Debug)]
struct Snapshot {
    /// The shard engines, frozen (a single-inner snapshot is one shard).
    shards: Vec<Arc<Shard>>,
    /// `None` for a single inner; the merge discipline otherwise.
    strategy: Option<ShardStrategy>,
    /// The writer epoch this snapshot was published at (0 = initial).
    epoch: u64,
    /// The report of the update that produced this snapshot.
    report: Option<UpdateReport>,
    /// Live rule count at publication.
    rules: usize,
}

impl Snapshot {
    /// Classifies against this version. Immutable and lock-free: safe
    /// from any number of threads concurrently.
    fn classify(&self, header: &Header) -> Verdict {
        match self.strategy {
            None => match self.shards.first() {
                Some(s) => s.remap(s.engine.classify(header)),
                None => Verdict::miss(0),
            },
            // The priority-band cascade stays valid because the snapshot
            // writer never splits bands, so band order is preserved.
            Some(strategy) => classify_shards(strategy, &self.shards, header),
        }
    }
}

/// The publication point: the current snapshot plus a version counter.
///
/// `unsafe` is forbidden workspace-wide, so instead of an `AtomicPtr`
/// swap this pairs a [`Mutex`]-guarded `Arc` with an [`AtomicU64`]
/// version. Readers poll the version with one `Acquire` load and only
/// touch the lock when it moved, so the steady state (no churn since
/// the reader's last refresh) takes no lock at all; the lock is held
/// only for an `Arc` clone or swap — never for classification or a
/// rebuild — so even a refresh cannot block behind real work.
#[derive(Debug)]
struct SnapshotHandle {
    current: Mutex<Arc<Snapshot>>,
    version: AtomicU64,
}

impl SnapshotHandle {
    fn new(initial: Arc<Snapshot>) -> Self {
        SnapshotHandle {
            current: Mutex::new(initial),
            version: AtomicU64::new(0),
        }
    }

    /// Clones the current snapshot `Arc` (brief lock).
    fn load(&self) -> Arc<Snapshot> {
        Arc::clone(
            &self
                .current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Publishes the next snapshot: swap the pointer, then bump the
    /// version while still holding the lock, so a reader that sees the
    /// new version is guaranteed to load a snapshot at least that new.
    fn publish(&self, next: Arc<Snapshot>) {
        // The guarded value is a plain `Arc` pointer, never left half-updated,
        // so a poisoned lock is safe to recover.
        let mut cur = self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *cur = next;
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// Writer-side state: the mutable mirror the next snapshot is rebuilt
/// from. Readers never see any of this.
#[derive(Debug)]
enum WriterMode {
    /// One inner engine rebuilt wholesale per update.
    Single {
        /// Live rules in inner-engine load order, with their global ids.
        live: Vec<(RuleId, Rule)>,
        /// Next global id to allocate (monotonic, never reused).
        next_global: u32,
    },
    /// Per-shard rebuild: only the touched shard's engine is replaced.
    Sharded {
        /// Routes updates to their owning shard and allocates global ids.
        router: ShardRouter,
        /// Per-shard live rules in inner-engine load order.
        shards: Vec<Vec<(RuleId, Rule)>>,
        /// The merge discipline, fixed at build time.
        strategy: ShardStrategy,
    },
}

/// Maps a rebuild failure into an update error.
fn rejected(e: &BuildError) -> UpdateError {
    UpdateError::Rejected {
        reason: format!("snapshot rebuild failed: {e}"),
    }
}

/// Builds one shard (or the single inner) over `live`, in load order:
/// local id = position, mapped back to the global id beside it.
fn build_shard(builder: &EngineBuilder, live: &[(RuleId, Rule)]) -> Result<Shard, UpdateError> {
    let rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
    Ok(Shard {
        engine: builder.build(&rules).map_err(|e| rejected(&e))?,
        global_ids: live.iter().map(|&(g, _)| g).collect(),
    })
}

/// Builds the next shard (or the single inner) with `rule` appended
/// after `live`; the caller appends the global id it allocates for it.
/// When the inner supports the paper's §V.A incremental update, the
/// pre-update engine is rebuilt and the insert replayed through it so
/// the returned report carries the inner's real accounting; otherwise
/// the post-update set is built wholesale and the caller synthesizes a
/// zero-cost report.
fn next_with_insert(
    builder: &EngineBuilder,
    live: &[(RuleId, Rule)],
    rule: Rule,
) -> Result<(Shard, Option<UpdateReport>), UpdateError> {
    let mut shard = build_shard(builder, live)?;
    let raw = if shard.engine.supports_updates() {
        match shard.engine.insert(rule) {
            Ok(local) => debug_assert_eq!(local, RuleId(live.len() as u32)),
            Err(e) => return Err(shard.remap_error(e)),
        }
        shard.engine.last_update_report()
    } else {
        let full: RuleSet = live.iter().map(|&(_, r)| r).chain([rule]).collect();
        shard.engine = builder.build(&full).map_err(|e| rejected(&e))?;
        None
    };
    Ok((shard, raw))
}

/// Builds the next shard (or the single inner) with the rule at `idx`
/// removed from `live`, plus the inner's real report when available
/// (same replay recipe as [`next_with_insert`]).
fn next_with_remove(
    builder: &EngineBuilder,
    live: &[(RuleId, Rule)],
    idx: usize,
) -> Result<(Shard, Option<UpdateReport>), UpdateError> {
    let mut shard = build_shard(builder, live)?;
    if shard.engine.supports_updates() {
        // Survivors keep their local ids; the removed slot goes stale
        // harmlessly (the inner never re-allocates it).
        if let Err(e) = shard.engine.remove(RuleId(idx as u32)) {
            return Err(shard.remap_error(e));
        }
        let raw = shard.engine.last_update_report();
        Ok((shard, raw))
    } else {
        let mut remaining = live.to_vec();
        remaining.remove(idx);
        Ok((build_shard(builder, &remaining)?, None))
    }
}

/// Snapshot-swap concurrent-serving wrapper ([`EngineKind::Snapshot`],
/// spec `snapshot:inner=<spec>`).
///
/// The engine value itself is the *writer*: `insert`/`remove` rebuild
/// the next snapshot and publish it atomically. Classification through
/// [`PacketClassifier::classify`] works (it reads the current
/// snapshot), but the concurrent-serving payoff comes from handing
/// [`SnapshotReader`]s (see [`SnapshotEngine::reader`]) to other
/// threads: readers classify against immutable snapshots and are never
/// blocked by churn. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct SnapshotEngine {
    handle: Arc<SnapshotHandle>,
    /// Builder for the single inner, or for each shard's inner.
    inner_builder: EngineBuilder,
    mode: WriterMode,
    /// Writer's working copy of the shard snaps; published snapshots
    /// share these `Arc`s, so an update allocates only the shard it
    /// touched.
    snaps: Vec<Arc<Shard>>,
    rules: usize,
    epoch: u64,
    report: Option<UpdateReport>,
}

impl SnapshotEngine {
    /// Wraps a single inner engine (any non-sharded backend).
    pub(crate) fn from_single(rules: &RuleSet, inner: EngineBuilder) -> Result<Self, BuildError> {
        let engine = inner.build(rules)?;
        let global_ids: Vec<RuleId> = rules.iter().map(|(id, _)| id).collect();
        let live: Vec<(RuleId, Rule)> = rules.iter().map(|(id, r)| (id, *r)).collect();
        let next_global = live.iter().map(|&(id, _)| id.0 + 1).max().unwrap_or(0);
        let snaps = vec![Arc::new(Shard { engine, global_ids })];
        Ok(Self::assemble(
            inner,
            WriterMode::Single { live, next_global },
            snaps,
            rules.len(),
        ))
    }

    /// Wraps a sharded inner: one engine per plan slice, rebuilt
    /// per-shard on update. `per` is the builder for each shard's inner
    /// engine (the sharded node's own inner node).
    pub(crate) fn from_sharded(
        plan: ShardPlan,
        router: ShardRouter,
        per: EngineBuilder,
    ) -> Result<Self, BuildError> {
        let strategy = plan.strategy;
        let mut snaps = Vec::with_capacity(plan.shards.len());
        let mut shards = Vec::with_capacity(plan.shards.len());
        let total = plan.total_rules();
        for slice in plan.shards {
            let engine = per.build(&slice.rules)?;
            let live: Vec<(RuleId, Rule)> = slice
                .rules
                .iter()
                .map(|(local, rule)| (slice.global_id(local), *rule))
                .collect();
            snaps.push(Arc::new(Shard {
                engine,
                global_ids: slice.global_ids,
            }));
            shards.push(live);
        }
        Ok(Self::assemble(
            per,
            WriterMode::Sharded {
                router,
                shards,
                strategy,
            },
            snaps,
            total,
        ))
    }

    fn assemble(
        inner_builder: EngineBuilder,
        mode: WriterMode,
        snaps: Vec<Arc<Shard>>,
        rules: usize,
    ) -> Self {
        let strategy = match &mode {
            WriterMode::Single { .. } => None,
            WriterMode::Sharded { strategy, .. } => Some(*strategy),
        };
        let initial = Arc::new(Snapshot {
            shards: snaps.clone(),
            strategy,
            epoch: 0,
            report: None,
            rules,
        });
        SnapshotEngine {
            handle: Arc::new(SnapshotHandle::new(initial)),
            inner_builder,
            mode,
            snaps,
            rules,
            epoch: 0,
            report: None,
        }
    }

    /// Publishes the writer's current shard snaps as the next snapshot.
    fn publish(&mut self, report: UpdateReport) {
        self.epoch += 1;
        self.report = Some(report);
        let strategy = match &self.mode {
            WriterMode::Single { .. } => None,
            WriterMode::Sharded { strategy, .. } => Some(*strategy),
        };
        self.handle.publish(Arc::new(Snapshot {
            shards: self.snaps.clone(),
            strategy,
            epoch: self.epoch,
            report: self.report,
            rules: self.rules,
        }));
    }

    /// A new concurrent reader over this engine's published snapshots.
    ///
    /// Readers are cheap (two `Arc` clones) and independent: hand one
    /// to each thread. Each reader observes publications in order and
    /// its [`SnapshotReader::update_epoch`] is monotonic.
    pub fn reader(&self) -> SnapshotReader {
        let cached = self.handle.load();
        let seen = self.handle.version();
        SnapshotReader {
            handle: Arc::clone(&self.handle),
            cached,
            seen,
        }
    }

    /// `n` boxed [`BatchWorker`]s for [`crate::IngestPipeline::from_workers`]:
    /// each worker is an independent [`SnapshotReader`] that re-resolves
    /// the published snapshot once per batch chunk.
    pub fn workers(&self, n: usize) -> Vec<Box<dyn BatchWorker>> {
        (0..n)
            .map(|_| Box::new(self.reader()) as Box<dyn BatchWorker>)
            .collect()
    }

    /// How many shard engines the current snapshot holds (1 for a
    /// single inner).
    pub fn shard_count(&self) -> usize {
        self.snaps.len()
    }
}

impl PacketClassifier for SnapshotEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Snapshot
    }

    fn name(&self) -> &'static str {
        "Snapshot"
    }

    fn rules(&self) -> usize {
        self.rules
    }

    fn classify(&self, header: &Header) -> Verdict {
        self.handle.load().classify(header)
    }

    fn classify_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        // Resolve the snapshot once: the whole batch is classified
        // against one consistent rule-set version.
        let snap = self.handle.load();
        classify_each(headers, out, |h| snap.classify(h))
    }

    fn memory_bits(&self) -> u64 {
        self.snaps.iter().map(|s| s.engine.memory_bits()).sum()
    }

    fn supports_updates(&self) -> bool {
        // Always: build-once inners are rebuilt wholesale (see the
        // module docs) — paying for rebuilds off the fast path is the
        // point of the wrapper.
        true
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        let (global, raw) = match &mut self.mode {
            WriterMode::Single { live, next_global } => {
                if let Some(&(existing, _)) = live
                    .iter()
                    .find(|(_, r)| r.dim_values() == rule.dim_values())
                {
                    return Err(UpdateError::Duplicate { existing });
                }
                let (mut shard, raw) = next_with_insert(&self.inner_builder, live, rule)?;
                let global = RuleId(*next_global);
                *next_global += 1;
                shard.global_ids.push(global);
                live.push((global, rule));
                self.snaps[0] = Arc::new(shard);
                (global, raw)
            }
            WriterMode::Sharded { router, shards, .. } => {
                if let Some(existing) = router.duplicate_of(&rule) {
                    return Err(UpdateError::Duplicate { existing });
                }
                let k = match router.route(&rule) {
                    RouteTarget::Existing(k) => k,
                    RouteTarget::NewShard { slot } => {
                        // Open the empty shard first so `shards` and
                        // `snaps` stay parallel even if the rebuild
                        // below fails (an empty shard is harmless).
                        let empty = build_shard(&self.inner_builder, &[])?;
                        shards.push(Vec::new());
                        self.snaps.push(Arc::new(empty));
                        router.register_shard(slot)
                    }
                };
                let (mut shard, raw) = next_with_insert(&self.inner_builder, &shards[k], rule)?;
                let local = RuleId(shards[k].len() as u32);
                let global = router.record_insert(rule, k, local);
                shard.global_ids.push(global);
                shards[k].push((global, rule));
                // The untouched shards' `Arc`s carry over unchanged —
                // this swap is the only allocation the update publishes.
                self.snaps[k] = Arc::new(shard);
                (global, raw)
            }
        };
        self.rules += 1;
        self.publish(report_for(raw, global));
        Ok(global)
    }

    // The writer's shard mirrors and the router are updated in lock-step
    // by every update path, so a rule the router locates is always
    // present in the mirrored shard.
    #[allow(clippy::expect_used)]
    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        let report = match &mut self.mode {
            WriterMode::Single { live, .. } => {
                let idx = live
                    .iter()
                    .position(|&(g, _)| g == id)
                    .ok_or(UpdateError::UnknownRule { id })?;
                let (shard, raw) = next_with_remove(&self.inner_builder, live, idx)?;
                live.remove(idx);
                self.snaps[0] = Arc::new(shard);
                report_for(raw, id)
            }
            WriterMode::Sharded { router, shards, .. } => {
                let k = router
                    .location(id)
                    .ok_or(UpdateError::UnknownRule { id })?
                    .shard;
                let idx = shards[k]
                    .iter()
                    .position(|&(g, _)| g == id)
                    .expect("router and writer shard mirrors agree");
                let (shard, raw) = next_with_remove(&self.inner_builder, &shards[k], idx)?;
                router.record_remove(id);
                shards[k].remove(idx);
                self.snaps[k] = Arc::new(shard);
                report_for(raw, id)
            }
        };
        self.rules -= 1;
        self.publish(report);
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.report
    }

    fn update_epoch(&self) -> u64 {
        self.epoch
    }
}

/// A concurrent reader over a [`SnapshotEngine`]'s published snapshots.
///
/// Clone-cheap and independent: each thread gets its own reader. The
/// reader caches an `Arc` to the snapshot it last refreshed to;
/// [`classify`](Self::classify) polls the version counter (one atomic
/// load) and re-clones the `Arc` only when the writer has published —
/// the steady state under no churn takes no lock at all.
///
/// A refresh may land on a snapshot *newer* than the version counter
/// value it observed (the writer can publish between the counter load
/// and the `Arc` clone); publications are totally ordered under the
/// writer lock, so the cached snapshot — and therefore
/// [`update_epoch`](Self::update_epoch) — still only ever moves
/// forward.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    handle: Arc<SnapshotHandle>,
    cached: Arc<Snapshot>,
    seen: u64,
}

impl SnapshotReader {
    /// Re-resolves the published snapshot if the writer has published
    /// since the last refresh. Returns whether the cached snapshot
    /// changed.
    pub fn refresh(&mut self) -> bool {
        let v = self.handle.version();
        if v == self.seen {
            return false;
        }
        let next = self.handle.load();
        self.seen = v;
        if Arc::ptr_eq(&next, &self.cached) {
            return false;
        }
        self.cached = next;
        true
    }

    /// Refreshes, then classifies against the (now-)current snapshot.
    pub fn classify(&mut self, header: &Header) -> Verdict {
        self.refresh();
        self.cached.classify(header)
    }

    /// Classifies against the cached snapshot *without* refreshing —
    /// the batch path: refresh once per chunk, then classify the whole
    /// chunk against one consistent version.
    pub fn classify_current(&self, header: &Header) -> Verdict {
        self.cached.classify(header)
    }

    /// The epoch of the snapshot the last classify used (0 until the
    /// first publication reaches this reader). Non-decreasing.
    pub fn update_epoch(&self) -> u64 {
        self.cached.epoch
    }

    /// The report of the update that produced the cached snapshot.
    pub fn last_update_report(&self) -> Option<UpdateReport> {
        self.cached.report
    }

    /// Live rule count in the cached snapshot.
    pub fn rules(&self) -> usize {
        self.cached.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;
    use spc_types::{Action, PortRange, Priority, ProtoSpec, Rule};

    fn rule(priority: u32, port: u16) -> Rule {
        Rule::builder(Priority(priority))
            .dst_port(PortRange::exact(port))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Forward(port))
            .build()
    }

    fn probe(port: u16) -> Header {
        Header::new([10, 0, 0, 1].into(), [192, 168, 0, 1].into(), 1234, port, 6)
    }

    fn base_rules(n: u16) -> RuleSet {
        (0..n).map(|i| rule(u32::from(i), 1000 + i)).collect()
    }

    fn snap(spec: &str, rules: &RuleSet) -> SnapshotEngine {
        EngineBuilder::from_spec(spec)
            .unwrap()
            .build_snapshot(rules)
            .unwrap()
    }

    #[test]
    fn single_mode_updates_publish_to_readers() {
        let rules = base_rules(8);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let mut reader = eng.reader();
        assert_eq!(reader.update_epoch(), 0);
        assert!(!reader.classify(&probe(4000)).is_hit());

        let id = eng.insert(rule(100, 4000)).unwrap();
        assert_eq!(eng.update_epoch(), 1);
        assert_eq!(eng.last_update_report().unwrap().rule_id, id);
        let v = reader.classify(&probe(4000));
        assert_eq!(v.rule, Some(id));
        assert_eq!(reader.update_epoch(), 1);

        eng.remove(id).unwrap();
        assert_eq!(eng.update_epoch(), 2);
        assert!(!reader.classify(&probe(4000)).is_hit());
        assert_eq!(reader.update_epoch(), 2);
    }

    #[test]
    fn stale_readers_keep_their_snapshot_until_refresh() {
        let rules = base_rules(4);
        let mut eng = snap("snapshot:inner=linear", &rules);
        let stale = eng.reader();
        let id = eng.insert(rule(50, 4000)).unwrap();
        // No refresh: the old snapshot still answers, consistently.
        assert!(!stale.classify_current(&probe(4000)).is_hit());
        assert_eq!(stale.update_epoch(), 0);
        let mut fresh = stale.clone();
        assert_eq!(fresh.classify(&probe(4000)).rule, Some(id));
        assert_eq!(fresh.update_epoch(), 1);
    }

    #[test]
    fn failed_updates_do_not_publish() {
        let rules = base_rules(6);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let before_epoch = eng.update_epoch();
        let before = eng.last_update_report();

        let dup = eng.insert(rule(999, 1002)).unwrap_err();
        assert!(matches!(dup, UpdateError::Duplicate { existing } if existing == RuleId(2)));
        let unknown = eng.remove(RuleId(404)).unwrap_err();
        assert!(matches!(unknown, UpdateError::UnknownRule { id } if id == RuleId(404)));

        assert_eq!(eng.update_epoch(), before_epoch);
        assert_eq!(eng.last_update_report(), before);
        let reader = eng.reader();
        assert_eq!(reader.update_epoch(), 0);
    }

    #[test]
    fn sharded_inner_reuses_untouched_shard_arcs() {
        let rules = base_rules(32);
        let mut eng = snap(
            "snapshot:inner=(sharded:inner=configurable-bst,shards=4)",
            &rules,
        );
        assert_eq!(eng.shard_count(), 4);
        let before: Vec<Arc<Shard>> = eng.snaps.clone();

        let id = eng.insert(rule(1_000_000, 4000)).unwrap();
        let changed: Vec<usize> = (0..4)
            .filter(|&i| !Arc::ptr_eq(&before[i], &eng.snaps[i]))
            .collect();
        assert_eq!(changed.len(), 1, "exactly one shard rebuilt: {changed:?}");

        let v = eng.classify(&probe(4000));
        assert_eq!(v.rule, Some(id));

        let before: Vec<Arc<Shard>> = eng.snaps.clone();
        eng.remove(id).unwrap();
        let changed: Vec<usize> = (0..4)
            .filter(|&i| !Arc::ptr_eq(&before[i], &eng.snaps[i]))
            .collect();
        assert_eq!(changed.len(), 1, "exactly one shard rebuilt: {changed:?}");
        assert!(!eng.classify(&probe(4000)).is_hit());
    }

    #[test]
    fn hash_sharded_and_cached_inners_agree_with_linear() {
        let rules = base_rules(24);
        let oracle = EngineBuilder::new(EngineKind::Linear)
            .build(&rules)
            .unwrap();
        for spec in [
            "snapshot:inner=(sharded:inner=configurable-bst,shards=3,strategy=hash)",
            "snapshot:inner=(cached:inner=configurable-bst,flows=64)",
            "snapshot:inner=linear",
        ] {
            let mut eng = snap(spec, &rules);
            let extra = eng.insert(rule(500, 4000)).unwrap();
            for port in (995..1030).chain([4000]) {
                let h = probe(port);
                let got = eng.classify(&h);
                let want = if port == 4000 {
                    // The oracle never saw the churned rule.
                    (Some(extra), Some(Action::Forward(4000)))
                } else {
                    let w = oracle.classify(&h);
                    (w.rule, w.action)
                };
                let got_pair = (got.rule, got.action);
                assert_eq!(got_pair, want, "{spec} port {port}");
            }
        }
    }

    #[test]
    fn build_once_inner_synthesizes_zero_cost_reports() {
        let rules = base_rules(4);
        let mut eng = snap("snapshot:inner=linear", &rules);
        assert!(eng.supports_updates());
        let id = eng.insert(rule(9, 4000)).unwrap();
        let report = eng.last_update_report().unwrap();
        assert_eq!(report.rule_id, id);
        assert_eq!(report.hw_write_cycles, 0);
    }

    #[test]
    fn updatable_inner_reports_real_hw_cycles() {
        let rules = base_rules(8);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let id = eng.insert(rule(77, 4000)).unwrap();
        let report = eng.last_update_report().unwrap();
        assert_eq!(report.rule_id, id);
        // The §V.A floor the configurable engines assert themselves.
        assert!(report.hw_write_cycles >= 3, "{report:?}");
    }
}
