//! Snapshot-swap concurrent serving: readers classify against an
//! immutable published snapshot while the writer brings a copy no
//! reader can see to the next version and atomically publishes it.
//!
//! Every other backend in the registry serialises classification and
//! updates on one engine value (`&mut self` for updates, `&self` for
//! lookups, one owner). A production data plane cannot: packets must
//! keep classifying at line rate *while* the controller churns rules.
//! [`SnapshotEngine`] is the RCU-style answer, built entirely on
//! `std::sync` (the workspace lint denies `unsafe`, so the "atomic
//! pointer" is a [`Mutex`]`<Arc<Snapshot>>` paired with an
//! [`AtomicU64`] version counter — see below):
//!
//! * **Readers** ([`SnapshotReader`]) pin a snapshot only while they
//!   classify: one `classify`, or one `process` chunk. Between calls a
//!   reader keeps a `Weak` to the version it last used. On the
//!   steady-state path a classify is one `Acquire` version load, one
//!   `Weak` upgrade and a lookup in an immutable structure — no lock is
//!   taken and the writer cannot block it. Only when the version
//!   counter has moved does the reader briefly take the publication
//!   lock to clone the new `Arc`.
//! * **The writer** (`insert`/`remove` through [`PacketClassifier`])
//!   never mutates a published snapshot. The copy a publish replaces is
//!   *retired* into a small pool together with the number of updates it
//!   reflects; the next update *recycles* the freshest pooled copy that
//!   nothing else holds — `Arc` uniqueness is safe Rust's own proof
//!   that no reader and no published snapshot can still see it —
//!   replays the few ops it missed from a short log, applies the new
//!   op and publishes the result with a single pointer swap under the
//!   publication lock. An update costs two of the inner's own §V.A
//!   updates at steady state (see below), not a build. Only when nothing in the pool is free
//!   does the writer build a fresh copy, which is the same code path: a
//!   fresh build is a copy that has missed nothing. The writer never
//!   waits for a reader: a classify still in flight on an old snapshot
//!   keeps that copy out of the pool's reach until it returns, and an
//!   idle reader holds nothing. So at steady state the copy a publish
//!   retired is free by the next update, which replays the one op it
//!   missed.
//!
//! The wrapper holds its inner as one engine, whatever it is: a
//! `sharded:` inner is recycled and replayed like any other, its
//! updates going through the sharded engine's own routed
//! `insert`/`remove`.
//!
//! Consistency contract (what `tests/snapshot_consistency.rs`
//! verifies): every verdict a reader observes equals the oracle verdict
//! of *some* snapshot published between that reader's start and end —
//! never a torn mix of two versions — and the epoch a reader reports
//! ([`SnapshotReader::update_epoch`]) is exactly the version its last
//! verdict came from, non-decreasing over the reader's lifetime.
//! `docs/concurrency.md` walks through the publish/retire/recycle
//! protocol and the trade-offs against the shared-`Mutex`
//! stop-the-world model.
//!
//! Update reports keep the paper's §V.A semantics where the inner
//! engine supports incremental updates: the new op goes through the
//! inner's own `insert`/`remove` on the copy about to be published, so
//! `last_update_report()` carries the inner's real label/hw-cycle
//! accounting. Build-once inners (e.g. `linear`, `rfc`) have nothing to
//! replay through: every version is built wholesale and reports zero
//! hardware write cycles — the build happens in software, off the fast
//! path. Either way the snapshot wrapper itself is *always* updatable.

use crate::pipeline::BatchWorker;
use crate::sharded::{report_for, Shard};
use crate::{EngineBuilder, EngineKind, PacketClassifier, UpdateError, UpdateReport, Verdict};
use spc_types::{Header, Rule, RuleId, RuleSet};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// One published, immutable rule-set version.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// The inner engine, frozen.
    inner: Arc<Shard>,
    /// The writer's `Line::seq` when this snapshot was published (0 =
    /// initial).
    epoch: u64,
    /// The report of the update that produced this snapshot.
    report: Option<UpdateReport>,
    /// Live rule count at publication.
    rules: usize,
}

impl Snapshot {
    /// Classifies against this version. Immutable and lock-free: safe
    /// from any number of threads concurrently.
    pub(crate) fn classify(&self, header: &Header) -> Verdict {
        self.inner.remap(self.inner.engine.classify(header))
    }
}

/// The publication point: the current snapshot plus a version counter.
///
/// `unsafe` is denied workspace-wide, so instead of an `AtomicPtr`
/// swap this pairs a [`Mutex`]-guarded `Arc` with an [`AtomicU64`]
/// version. Readers poll the version with one `Acquire` load and only
/// touch the lock when it moved, so the steady state (no churn since
/// the reader's last refresh) takes no lock at all; the lock is held
/// only for an `Arc` clone or swap — never for classification or an
/// update — so even a refresh cannot block behind real work.
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

/// A pooled copy that has missed more ops than this is forgotten, and
/// the log of ops to replay is never longer. What the bound protects is
/// the writer's memory, not its time: a replayed op is one inner update
/// (microseconds, against milliseconds for a build, so replaying is the
/// cheaper way to the next version at any lag a small log can hold), but
/// every pooled copy is a whole engine kept alive and every logged op a
/// rule kept beside it. A copy this far behind is pinned by a classify
/// that has outlasted that many publishes; letting it go costs one build
/// if that classify ever returns it.
const MAX_LAG: usize = 16;

/// Retired copies kept. Readers pin a snapshot only while they
/// classify, so at steady state the copy a publish retired is free by
/// the next update and one retired copy circulates beside the published
/// one (`steady_state_publishes_never_rebuild` holds that). The other
/// two slots let classifies still in flight on other threads pin a copy
/// or two without pushing the working copy out. The copy this saves over
/// readers that pinned between calls (three circulated) barely shows in
/// `snapshot_churn`'s `host.rss_mb`: medians of three traced runs on a
/// 2-core container 53.4 → 50.8 MB, inside a spread of ±5 MB.
const POOL_MAX: usize = 3;

/// One successful update, as a copy that missed it replays it.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The rule and the global id it was given.
    Insert(Rule, RuleId),
    /// The global id that left.
    Remove(RuleId),
}

impl Op {
    /// Applies the op to a live-rule mirror.
    fn apply_to(self, live: &mut BTreeMap<RuleId, Rule>) {
        match self {
            Op::Insert(rule, global) => {
                live.insert(global, rule);
            }
            Op::Remove(global) => {
                live.remove(&global);
            }
        }
    }

    /// Applies the op to `copy` through the inner's own §V.A update,
    /// keeping the copy's local→global map: the one place an update
    /// reaches an engine, whether the copy is catching up or taking the
    /// op for the first time.
    fn replay(self, copy: &mut Shard) -> Result<(), UpdateError> {
        match self {
            Op::Insert(rule, global) => match copy.engine.insert(rule) {
                Ok(local) => {
                    copy.set_global(local, global);
                    Ok(())
                }
                Err(e) => Err(copy.remap_error(e)),
            },
            Op::Remove(global) => {
                // Local ids differ from copy to copy (a fresh build
                // numbers by load order, a recycled copy by arrival), so
                // each copy answers from its own map. Survivors keep
                // their local ids; the removed slot goes stale harmlessly
                // (the inner never re-allocates it, and global ids are
                // never reused).
                let local = copy
                    .global_ids
                    .iter()
                    .rposition(|&g| g == global)
                    .ok_or(UpdateError::UnknownRule { id: global })?;
                copy.engine
                    .remove(RuleId(local as u32))
                    .map_err(|e| copy.remap_error(e))
            }
        }
    }
}

/// Builds a copy of the inner over `live`, in ascending global id: the
/// load order, so ids number and priority ties break as in the first
/// build.
fn build_copy(
    builder: &EngineBuilder,
    live: &BTreeMap<RuleId, Rule>,
) -> Result<Shard, UpdateError> {
    let rules: Vec<(RuleId, Rule)> = live.iter().map(|(&g, &r)| (g, r)).collect();
    Shard::build(builder, &rules).map_err(|e| UpdateError::Rejected {
        reason: format!("snapshot rebuild failed: {e}"),
    })
}

/// Writer-side history of the published copy: the live rules it
/// serves, and the retired copies the next update may recycle. Readers
/// never see any of this.
#[derive(Debug, Default)]
struct Line {
    /// Live rules by global id; ascending id is the load order of a
    /// fresh build.
    live: BTreeMap<RuleId, Rule>,
    /// Successful updates so far: the version of the published copy,
    /// and the epoch its snapshot is stamped with.
    seq: usize,
    /// Retired copies, each with the `seq` it reflects, stalest first.
    /// At most [`POOL_MAX`], none more than [`MAX_LAG`] behind.
    pool: Vec<(usize, Arc<Shard>)>,
    /// The last ops, newest last, back to the stalest pooled copy.
    log: Vec<Op>,
}

impl Line {
    fn new(live: BTreeMap<RuleId, Rule>) -> Self {
        Line {
            live,
            ..Line::default()
        }
    }

    /// Takes the freshest pooled copy nothing else can see — the fewest
    /// ops to replay. `Arc::get_mut` answers only when this pool holds
    /// the sole reference: no published `Snapshot`, hence no reader,
    /// still has the copy, and only the writer could hand out another.
    fn take_free(&mut self) -> Option<(usize, Shard)> {
        let i = self
            .pool
            .iter_mut()
            .rposition(|(_, copy)| Arc::get_mut(copy).is_some())?;
        let (at, copy) = self.pool.remove(i);
        Arc::into_inner(copy).map(|copy| (at, copy))
    }

    /// Pools a copy that reflects the first `at` ops, then trims the
    /// pool and the log to their bounds.
    fn retire(&mut self, at: usize, copy: Arc<Shard>) {
        // A copy updated in place only ever grows its id map. Once the
        // stale slots outnumber the live rules (or `MAX_LAG`: a rebuild
        // is not worth fewer slots than the ops it costs) it is let go
        // instead, so the rebuild that follows compacts the map.
        if copy.global_ids.len() <= 2 * self.live.len().max(MAX_LAG) {
            self.pool.push((at, copy));
        }
        let seq = self.seq;
        self.pool.retain(|&(at, _)| seq - at <= MAX_LAG);
        if self.pool.len() > POOL_MAX {
            self.pool.remove(0);
        }
        let missed = self.pool.first().map_or(0, |&(at, _)| seq - at);
        self.log.drain(..self.log.len() - missed);
    }

    /// Brings a copy to the version after `op` and swaps it into `slot`
    /// (the writer's published copy), retiring the copy it replaces.
    /// Returns the inner's report of `op`, if it made one.
    ///
    /// An updatable inner takes the freshest free pooled copy, or — a
    /// copy that has missed nothing — a fresh build over the live
    /// rules, replays what the copy missed and then `op` itself; the
    /// copy's own update refuses a duplicate, as it refuses a rule that
    /// does not fit. A build-once inner has no update to replay through:
    /// the next version is built wholesale, once no live rule has the
    /// inserted rule's match conditions. On `Err` nothing was published
    /// and the line reads as before.
    fn advance(
        &mut self,
        builder: &EngineBuilder,
        slot: &mut Arc<Shard>,
        op: Op,
    ) -> Result<Option<UpdateReport>, UpdateError> {
        if !slot.engine.supports_updates() {
            if let Op::Insert(rule, _) = op {
                let dims = rule.dim_values();
                let twin = self.live.iter().find(|(_, r)| r.dim_values() == dims);
                if let Some((&existing, _)) = twin {
                    return Err(UpdateError::Duplicate { existing });
                }
            }
            let mut next = self.live.clone();
            op.apply_to(&mut next);
            *slot = Arc::new(build_copy(builder, &next)?);
            self.live = next;
            self.seq += 1;
            return Ok(None);
        }
        let copy = loop {
            let (at, mut copy) = match self.take_free() {
                Some(free) => free,
                None => (self.seq, build_copy(builder, &self.live)?),
            };
            let missed = &self.log[self.log.len() - (self.seq - at)..];
            let caught_up = missed.iter().try_for_each(|op| op.replay(&mut copy));
            if caught_up.is_err() {
                // An op the writer took failed on this copy (capacity
                // depends on a copy's own history): drop it and let a
                // staler copy, or the build, answer.
                continue;
            }
            if let Err(e) = op.replay(&mut copy) {
                // Inner updates are atomic, so the copy still is the
                // published version: keep it for the next update.
                self.retire(self.seq, Arc::new(copy));
                return Err(e);
            }
            break copy;
        };
        let raw = copy.engine.last_update_report();
        let retired = std::mem::replace(slot, Arc::new(copy));
        op.apply_to(&mut self.live);
        self.log.push(op);
        self.seq += 1;
        self.retire(self.seq - 1, retired);
        Ok(raw)
    }
}

/// Snapshot-swap concurrent-serving wrapper ([`EngineKind::Snapshot`],
/// spec `snapshot:inner=<spec>`).
///
/// The engine value itself is the *writer*: `insert`/`remove` bring a
/// copy no reader can see to the next version and publish it
/// atomically. Classification through [`PacketClassifier::classify`]
/// works (it reads the writer's own copy, which is the published one,
/// without the publication lock), but the concurrent-serving
/// payoff comes from handing [`SnapshotReader`]s (see
/// [`SnapshotEngine::reader`]) to other threads: readers classify
/// against immutable snapshots and are never blocked by churn. See the
/// [module docs](self) for the protocol.
#[derive(Debug)]
pub struct SnapshotEngine {
    handle: Arc<SnapshotHandle>,
    /// Builder for the inner engine.
    inner_builder: EngineBuilder,
    /// Writer's working copy of the published inner; the published
    /// snapshot shares this `Arc`.
    snap: Arc<Shard>,
    /// The history behind `snap`.
    line: Line,
    /// Next global id to allocate (monotonic, never reused).
    next_global: u32,
    report: Option<UpdateReport>,
}

impl SnapshotEngine {
    /// Wraps `engine`, which is `inner` built over `rules`.
    pub(crate) fn new(
        rules: &RuleSet,
        engine: Box<dyn PacketClassifier>,
        inner: EngineBuilder,
    ) -> Self {
        let live: BTreeMap<RuleId, Rule> = rules.iter().map(|(id, r)| (id, *r)).collect();
        let snap = Arc::new(Shard {
            engine,
            global_ids: live.keys().copied().collect(),
        });
        let initial = Arc::new(Snapshot {
            inner: Arc::clone(&snap),
            epoch: 0,
            report: None,
            rules: live.len(),
        });
        SnapshotEngine {
            handle: Arc::new(SnapshotHandle::new(initial)),
            inner_builder: inner,
            snap,
            next_global: live.len() as u32,
            line: Line::new(live),
            report: None,
        }
    }

    /// Publishes the writer's current copy as the next snapshot.
    fn publish(&mut self, report: UpdateReport) {
        self.report = Some(report);
        self.handle.publish(Arc::new(Snapshot {
            inner: Arc::clone(&self.snap),
            epoch: self.line.seq as u64,
            report: self.report,
            rules: self.line.live.len(),
        }));
    }

    /// A new concurrent reader over this engine's published snapshots.
    ///
    /// Readers are cheap (an `Arc` clone and a `Weak`) and independent:
    /// hand one to each thread. Each reader observes publications in
    /// order and its [`SnapshotReader::update_epoch`] is monotonic.
    pub fn reader(&self) -> SnapshotReader {
        let seen = self.handle.version();
        let snap = self.handle.load();
        SnapshotReader {
            handle: Arc::clone(&self.handle),
            last: Arc::downgrade(&snap),
            seen,
            epoch: snap.epoch,
            report: snap.report,
            rules: snap.rules,
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
}

impl PacketClassifier for SnapshotEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Snapshot
    }

    fn rules(&self) -> usize {
        self.line.live.len()
    }

    fn classify(&self, header: &Header) -> Verdict {
        // `snap` is the published copy: no lock to reach it.
        self.snap.remap(self.snap.engine.classify(header))
    }

    fn memory_bits(&self) -> u64 {
        // The published copy only: the model prices one device, and
        // the pooled copies are the controller's working memory.
        self.snap.engine.memory_bits()
    }

    fn supports_updates(&self) -> bool {
        // Always: build-once inners are rebuilt wholesale (see the
        // module docs) — paying for the next version off the fast path
        // is the point of the wrapper.
        true
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        let global = RuleId(self.next_global);
        let op = Op::Insert(rule, global);
        let raw = self.line.advance(&self.inner_builder, &mut self.snap, op)?;
        self.next_global += 1;
        self.publish(report_for(raw, global));
        Ok(global)
    }

    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        if !self.line.live.contains_key(&id) {
            return Err(UpdateError::UnknownRule { id });
        }
        let raw = self
            .line
            .advance(&self.inner_builder, &mut self.snap, Op::Remove(id))?;
        self.publish(report_for(raw, id));
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.report
    }
}

/// A concurrent reader over a [`SnapshotEngine`]'s published snapshots.
///
/// Clone-cheap and independent: each thread gets its own reader. A
/// reader pins a snapshot only for the length of one
/// [`classify`](Self::classify) or one [`BatchWorker::process`] chunk;
/// between calls it keeps a `Weak` to the version it last used, plus
/// that version's epoch, report and rule count by value. So an idle
/// reader holds no copy the writer could recycle. Resolving the version
/// is one atomic load of the version counter and one `Weak` upgrade
/// while the writer has not published; only when it has does the reader
/// take the publication lock to clone the new `Arc`.
///
/// A resolve may land on a snapshot *newer* than the version counter
/// value it observed (the writer can publish between the counter load
/// and the `Arc` clone); publications are totally ordered under the
/// writer lock, so the version a reader resolves — and therefore
/// [`update_epoch`](Self::update_epoch) — only ever moves forward.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    handle: Arc<SnapshotHandle>,
    /// The version last resolved. Not an `Arc`: an idle reader must not
    /// keep its copy from the writer's pool.
    last: Weak<Snapshot>,
    /// The version counter `last` was loaded at.
    seen: u64,
    epoch: u64,
    report: Option<UpdateReport>,
    rules: usize,
}

impl SnapshotReader {
    /// The snapshot to answer the next call from: the last one, if the
    /// writer has not published since and it is still alive (no lock),
    /// else the current one (brief lock).
    pub(crate) fn resolve(&mut self) -> Arc<Snapshot> {
        let v = self.handle.version();
        if v == self.seen {
            if let Some(snap) = self.last.upgrade() {
                return snap;
            }
        }
        let snap = self.handle.load();
        self.seen = v;
        self.last = Arc::downgrade(&snap);
        self.epoch = snap.epoch;
        self.report = snap.report;
        self.rules = snap.rules;
        snap
    }

    /// Re-resolves the published snapshot. Returns whether the writer
    /// published a version this reader had not used yet.
    pub fn refresh(&mut self) -> bool {
        let before = self.epoch;
        self.resolve();
        self.epoch != before
    }

    /// Classifies against the current snapshot.
    pub fn classify(&mut self, header: &Header) -> Verdict {
        self.resolve().classify(header)
    }

    /// The epoch of the snapshot the last classify used (0 until the
    /// first publication reaches this reader). Non-decreasing.
    pub fn update_epoch(&self) -> u64 {
        self.epoch
    }

    /// The report of the update that produced the last snapshot used.
    pub fn last_update_report(&self) -> Option<UpdateReport> {
        self.report
    }

    /// Live rule count in the last snapshot used.
    pub fn rules(&self) -> usize {
        self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;
    use spc_types::{Action, PortRange, Priority, ProtoSpec, Rule};
    use std::collections::VecDeque;
    use std::fmt::Debug;

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
        assert_eq!(eng.line.seq, 1);
        assert_eq!(eng.last_update_report().unwrap().rule_id, id);
        let v = reader.classify(&probe(4000));
        assert_eq!(v.rule, Some(id));
        assert_eq!(reader.update_epoch(), 1);

        eng.remove(id).unwrap();
        assert_eq!(eng.line.seq, 2);
        assert!(!reader.classify(&probe(4000)).is_hit());
        assert_eq!(reader.update_epoch(), 2);
    }

    /// Where a copy's engine lives: moving a `Shard` in or out of an
    /// `Arc` leaves its boxed engine in place.
    fn engine_addr(copy: &Shard) -> *const () {
        std::ptr::from_ref(&*copy.engine).cast()
    }

    #[test]
    fn idle_readers_pin_nothing() {
        let rules = base_rules(4);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let mut reader = eng.reader();
        assert!(!reader.classify(&probe(4000)).is_hit());
        assert_eq!(reader.update_epoch(), 0);
        let id = eng.insert(rule(50, 4000)).unwrap();
        // The reader used epoch 0 but holds no `Arc` to it: the copy the
        // publish retired is the pool's alone.
        let (_, retired) = eng.line.pool.last().unwrap();
        assert_eq!(Arc::strong_count(retired), 1);
        let retired = engine_addr(retired);
        // Until its next call the reader reports the version it used.
        assert_eq!(reader.update_epoch(), 0);
        let mut clone = reader.clone();
        for r in [&mut reader, &mut clone] {
            assert_eq!(r.classify(&probe(4000)).rule, Some(id));
            assert_eq!(r.update_epoch(), 1);
            assert_eq!(r.rules(), 5);
            assert_eq!(r.last_update_report().unwrap().rule_id, id);
        }
        // The next update recycles the retired copy instead of building.
        eng.insert(rule(51, 4001)).unwrap();
        assert_eq!(engine_addr(&eng.snap), retired);
    }

    #[test]
    fn a_poisoned_publication_lock_still_serves_and_publishes() {
        let rules = base_rules(8);
        let mut live = shadow_of(&rules);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let mut reader = eng.reader();
        let r = shadow(1010);
        live.insert(eng.insert(r).unwrap(), r);
        let handle = Arc::clone(&eng.handle);
        let poisoner = std::thread::spawn(move || {
            let _held = handle.current.lock().unwrap();
            panic!("poisons the publication lock");
        });
        assert!(poisoner.join().is_err());
        assert!(eng.handle.current.is_poisoned());
        // The reader's version moved, so it resolves through the lock.
        assert_eq!(answers(|h| reader.classify(h)), oracle(&live));
        assert_eq!(reader.update_epoch(), 1);
        let r = shadow(1020);
        live.insert(eng.insert(r).unwrap(), r);
        assert_eq!(eng.line.seq, 2);
        assert_eq!(answers(|h| reader.classify(h)), oracle(&live));
        assert_eq!(reader.update_epoch(), 2);
    }

    #[test]
    fn failed_updates_do_not_publish() {
        let rules = base_rules(6);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let before_seq = eng.line.seq;
        let before = eng.last_update_report();

        let dup = eng.insert(rule(999, 1002)).unwrap_err();
        assert!(matches!(dup, UpdateError::Duplicate { existing } if existing == RuleId(2)));
        let unknown = eng.remove(RuleId(404)).unwrap_err();
        assert!(matches!(unknown, UpdateError::UnknownRule { id } if id == RuleId(404)));

        assert_eq!(eng.line.seq, before_seq);
        assert_eq!(eng.last_update_report(), before);
        let reader = eng.reader();
        assert_eq!(reader.update_epoch(), 0);
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
        // A wholesale build is a version like a replayed one.
        eng.remove(id).unwrap();
        assert_eq!(eng.line.seq, 2);
        assert_eq!(eng.reader().update_epoch(), 2);
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

    /// Ports every grid below probes: the base rules' and a margin.
    const GRID: std::ops::Range<u16> = 995..1070;

    /// A rule that beats every base rule on dst ports `1000..=hi`.
    fn shadow(hi: u16) -> Rule {
        Rule::builder(Priority(0))
            .dst_port(PortRange::new(1000, hi).unwrap())
            .proto(ProtoSpec::Exact(6))
            .action(Action::Forward(hi))
            .build()
    }

    /// What a grid answered, in global-id space.
    type Answers = Vec<(Option<RuleId>, Option<Action>)>;

    fn answers(mut classify: impl FnMut(&Header) -> Verdict) -> Answers {
        GRID.map(|port| {
            let v = classify(&probe(port));
            (v.rule, v.action)
        })
        .collect()
    }

    /// The test's own shadow of the installed rules, by the global ids
    /// the engine handed out.
    type Live = BTreeMap<RuleId, Rule>;

    /// `linear` over `live`, loaded in ascending global id.
    fn oracle(live: &Live) -> Answers {
        let ids: Vec<RuleId> = live.keys().copied().collect();
        let set: RuleSet = live.values().copied().collect();
        let linear = EngineBuilder::new(EngineKind::Linear).build(&set).unwrap();
        answers(|h| {
            let mut v = linear.classify(h);
            v.rule = v.rule.map(|local| ids[local.0 as usize]);
            v
        })
    }

    fn shadow_of(rules: &RuleSet) -> Live {
        rules.iter().map(|(id, r)| (id, *r)).collect()
    }

    #[test]
    fn pinned_reader_keeps_its_version_while_copies_recycle() {
        let rules = base_rules(24);
        let mut live = shadow_of(&rules);
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        // A batch still in flight on epoch 0.
        let pinned = eng.handle.load();
        let mut fresh = eng.reader();
        let at_zero = oracle(&live);
        let mut churned = VecDeque::new();
        for op in 0..3 * MAX_LAG as u16 {
            // Two inserts to every remove: the set drifts from epoch 0.
            if op % 3 < 2 {
                let r = shadow(1001 + op);
                let id = eng.insert(r).unwrap();
                live.insert(id, r);
                churned.push_back(id);
            } else {
                let id = churned.pop_front().unwrap();
                eng.remove(id).unwrap();
                live.remove(&id);
            }
            assert_eq!(answers(|h| fresh.classify(h)), oracle(&live), "op {op}");
            assert_eq!(fresh.update_epoch(), u64::from(op) + 1);
            assert_eq!(answers(|h| pinned.classify(h)), at_zero, "op {op}");
            assert_eq!(pinned.epoch, 0);
            let line = &eng.line;
            assert!(line.pool.len() <= POOL_MAX, "op {op}: {}", line.pool.len());
            assert!(line.log.len() <= MAX_LAG, "op {op}");
            assert!(line.pool.iter().all(|&(at, _)| line.seq - at <= MAX_LAG));
        }
    }

    /// A copy built for the op that published it maps exactly the rules
    /// it was loaded with plus that op's; a copy updated in place has
    /// kept the slot of every insert it ever took. So in insert/remove
    /// cycles over `n` base rules, `n + 1` slots means "built just now".
    fn built_for_this_op(eng: &SnapshotEngine, n: usize) -> bool {
        eng.snap.global_ids.len() == n + 1
    }

    #[test]
    fn steady_state_publishes_never_rebuild() {
        let rules = base_rules(16);
        // The benchmark's sequencing (the reader refreshes between an
        // insert and its remove) and the ledger's (it never does), over
        // the benchmark's inner and the compositions no workload runs:
        // a sharded inner replays through the sharded engine's own
        // routed updates. Neither reader pins a copy between calls, so
        // every steady-state update replays the one op its copy missed.
        let specs = [
            "snapshot:inner=configurable-bst",
            "snapshot:inner=(sharded:inner=configurable-bst,shards=4,strategy=hash)",
            "snapshot:inner=(sharded:inner=configurable-bst,shards=4,strategy=prio)",
        ];
        for (spec, refreshing) in specs.into_iter().flat_map(|s| [(s, true), (s, false)]) {
            let mut eng = snap(spec, &rules);
            let mut reader = eng.reader();
            for cycle in 0..12u16 {
                let at = format!("{spec} refreshing={refreshing} cycle {cycle}");
                let id = eng.insert(shadow(1001 + cycle)).unwrap();
                let insert_built = built_for_this_op(&eng, rules.len());
                let after_insert = (eng.line.log.len(), eng.line.pool.len());
                if refreshing {
                    assert!(reader.refresh());
                }
                eng.remove(id).unwrap();
                let remove_built = built_for_this_op(&eng, rules.len());
                let after_remove = (eng.line.log.len(), eng.line.pool.len());
                match cycle {
                    // Nothing is pooled before the first publish.
                    0 => assert!(insert_built, "{at}"),
                    1 => {}
                    _ => {
                        assert!(!insert_built && !remove_built, "{at}: steady state rebuilt");
                        // One op to replay, one retired copy: what
                        // `POOL_MAX` was sized on.
                        for (log, pool) in [after_insert, after_remove] {
                            assert!(log <= 1 && pool <= 1, "{at}: log {log}, pool {pool}");
                        }
                    }
                }
            }
            let want = oracle(&shadow_of(&rules));
            assert_eq!(answers(|h| eng.classify(h)), want, "{spec}");
        }
    }

    #[test]
    fn grown_id_maps_are_compacted_by_a_rebuild() {
        let rules = base_rules(24);
        let n = rules.len();
        let mut eng = snap("snapshot:inner=configurable-bst", &rules);
        let bound = 2 * (n + 1) + MAX_LAG + 1;
        for cycle in 0..10 * n as u16 {
            let id = eng.insert(shadow(1001 + cycle)).unwrap();
            eng.remove(id).unwrap();
            let pooled = eng.line.pool.iter().map(|(_, copy)| copy);
            for copy in pooled.chain([&eng.snap]) {
                let slots = copy.global_ids.len();
                assert!(slots <= bound, "cycle {cycle}: {slots} slots");
            }
        }
        assert_eq!(answers(|h| eng.classify(h)), oracle(&shadow_of(&rules)));
    }

    /// Everything a failed update must leave alone: the writer, what a
    /// reader has seen and what it would see next, and every pinned
    /// version.
    fn observe(
        eng: &SnapshotEngine,
        reader: &SnapshotReader,
        pins: &[Arc<Snapshot>],
    ) -> impl PartialEq + Debug {
        let pins: Vec<_> = pins
            .iter()
            .map(|p| (p.epoch, answers(|h| p.classify(h))))
            .collect();
        let mut next = reader.clone();
        (
            answers(|h| eng.classify(h)),
            eng.line.seq,
            eng.last_update_report(),
            eng.rules(),
            reader.update_epoch(),
            answers(|h| next.classify(h)),
            next.update_epoch(),
            pins,
        )
    }

    #[test]
    fn failed_updates_are_atomic_with_and_without_a_free_copy() {
        // A 32-slot Rule Filter: the base set fits, the churn below
        // runs it full.
        let rules = base_rules(20);
        for pin_everything in [false, true] {
            let mut eng = snap("snapshot:inner=(configurable-bst:rf_bits=5)", &rules);
            let mut live = shadow_of(&rules);
            // `reader` follows the writer. The pins, one per version,
            // stand for batches still in flight: they keep every retired
            // copy out of the pool's reach, so each update builds afresh.
            let mut reader = eng.reader();
            let mut pins = Vec::new();
            let mut full = None;
            for i in 0..40u16 {
                if pin_everything {
                    pins.push(eng.handle.load());
                }
                let before = observe(&eng, &reader, &pins);
                let r = shadow(1001 + i);
                match eng.insert(r) {
                    Ok(id) => {
                        live.insert(id, r);
                    }
                    Err(e) => {
                        assert!(matches!(e, UpdateError::Rejected { .. }), "{e:?}");
                        let after = observe(&eng, &reader, &pins);
                        assert_eq!(after, before, "capacity, insert {i}");
                        full = Some(r);
                        break;
                    }
                }
                assert!(reader.refresh());
                assert_eq!(answers(|h| eng.classify(h)), oracle(&live));
                let free = eng
                    .line
                    .pool
                    .iter_mut()
                    .any(|(_, copy)| Arc::get_mut(copy).is_some());
                assert_eq!(free, !pin_everything, "insert {i}");
            }
            let full = full.expect("32 slots cannot hold 60 rules");

            let before = observe(&eng, &reader, &pins);
            let (&dup_of, &dup) = live.iter().nth(3).unwrap();
            assert_eq!(
                eng.insert(dup),
                Err(UpdateError::Duplicate { existing: dup_of })
            );
            assert_eq!(
                eng.remove(RuleId(404)),
                Err(UpdateError::UnknownRule { id: RuleId(404) })
            );
            assert!(eng.insert(full).is_err(), "still full");
            assert_eq!(observe(&eng, &reader, &pins), before);
            assert!(!reader.refresh(), "nothing was published");

            // The next successful ops publish versions equal to linear.
            let gone = *live.keys().nth(21).unwrap();
            live.remove(&gone);
            eng.remove(gone).unwrap();
            assert_eq!(answers(|h| reader.classify(h)), oracle(&live));
            let id = eng.insert(full).unwrap();
            live.insert(id, full);
            assert_eq!(answers(|h| reader.classify(h)), oracle(&live));
            assert_eq!(eng.rules(), live.len());

            // The duplicate check follows the live set through both.
            eng.remove(id).unwrap();
            let again = eng.insert(full).unwrap();
            assert_eq!(
                eng.insert(full),
                Err(UpdateError::Duplicate { existing: again })
            );
        }
    }

    #[test]
    fn recycled_cached_copies_never_serve_stale_verdicts() {
        // A recycled copy keeps the flow cache it filled versions ago;
        // only `CachedEngine`'s own invalidation, run by the replay,
        // keeps it coherent. Every rule below shadows headers the
        // reader has already classified on every copy in rotation.
        let rules = base_rules(32);
        let mut live = shadow_of(&rules);
        let spec = "snapshot:inner=(cached:inner=configurable-bst,flows=64)";
        let mut eng = snap(spec, &rules);
        let mut reader = eng.reader();
        let mut warm_hits = 0;
        for cycle in 0..32u16 {
            assert_eq!(answers(|h| reader.classify(h)), oracle(&live));
            let r = shadow(1001 + cycle);
            let id = eng.insert(r).unwrap();
            live.insert(id, r);
            // A cache hit is one wide read: count the verdicts the new
            // version answers from a cache it did not start cold with.
            let first_pass = GRID.map(|port| reader.classify(&probe(port)));
            warm_hits += first_pass.filter(|v| v.mem_reads == 1).count();
            assert_eq!(answers(|h| reader.classify(h)), oracle(&live), "{cycle}");
            eng.remove(id).unwrap();
            live.remove(&id);
            assert_eq!(answers(|h| reader.classify(h)), oracle(&live), "{cycle}");
        }
        assert!(warm_hits > 0, "no recycled copy ever served from its cache");
    }
}
