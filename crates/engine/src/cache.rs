//! The flow verdict cache: a microflow/megaflow layer in front of any
//! inner [`PacketClassifier`].
//!
//! Real SDN traffic has heavy flow locality, yet the paper's architecture
//! pays the full two-phase lookup (seven segment engines + Rule Filter
//! hash) for every packet. [`CachedEngine`] is the OVS-style answer: an
//! exact-match 5-tuple **microflow** table answers repeats of a header in
//! one probe, and an optional **megaflow** layer answers whole *masked
//! flow classes* — headers that no installed rule can tell apart.
//!
//! # The two layers
//!
//! * **Microflow** — keyed by the full [`Header`]. Open-addressed,
//!   power-of-two slots, bounded linear probe window, clock
//!   (second-chance) eviction. A hit returns the cached verdict with
//!   `mem_reads = 1` (one wide cache-line read in the hardware model).
//! * **Megaflow** — keyed by the header's seven query values masked by
//!   the *fold mask*: the OR of every installed rule's
//!   [`MaskSummary`]. Because the fold covers each rule's own summary,
//!   two headers with equal masked queries match exactly the same rules
//!   — so one entry serves every header in the class, including misses.
//!   (Keying by only the *matched* rule's mask would be unsound: a
//!   lower-priority rule narrower than the match could distinguish two
//!   headers the matched rule cannot. See `docs/flow_cache.md`.)
//!
//! # Coherence under churn
//!
//! The wrapper owns the inner engine, so every update passes through it,
//! and none of them walks a table — an update costs what it touches:
//!
//! * `remove(id)` — every slot holding a hit is on a doubly-linked
//!   *chain* of its matched rule (links are slot indices stored in the
//!   slot, heads live in a controller-side map), so the entries to drop
//!   are one chain per layer. Misses stay valid: removing a rule can
//!   never turn a miss into a hit.
//! * `insert(rule)` — appends the rule to a short *log* of the live
//!   rules inserted through the wrapper and returns. Every slot carries
//!   the log position it was filled at (its *stamp*); a later hit on a
//!   slot older than the newest logged rule is held to the rules logged
//!   since its stamp — dropped if one of them matches its key, restamped
//!   otherwise. `remove` also deletes its rule from the log, so a
//!   short-lived rule costs the entries nobody looked up nothing. The
//!   log is bounded: when it is full, the same validation runs over
//!   every slot once and the log restarts empty.
//! * If the new rule tightens the fold mask, every megaflow key is
//!   stale: the megaflow layer is flushed (the fold only ever grows, so
//!   this happens a bounded number of times).
//!
//! A verdict cached at stamp *s* is current iff its rule is still live
//! (else the chain dropped it) and no live rule logged at or after *s*
//! matches its key; `docs/flow_cache.md` has the argument.
//!
//! # Concurrency of the `&self` classify path
//!
//! [`PacketClassifier::classify`] takes `&self`, so one `CachedEngine`
//! can be shared behind an `Arc` across reader threads. The flow table
//! lives behind one [`Mutex`]: a lookup takes the lock to probe, and on
//! a miss *releases it* before the inner-engine classify, re-locking
//! only to install the result — the expensive work never runs under the
//! lock, and concurrent installs of the same flow are benign
//! last-writer-wins races (both writers hold equal verdicts for the
//! same rule-set version, because updates require `&mut self` and so
//! cannot overlap any `&self` lookup). The concurrency-oracle tier
//! (`tests/flow_cache.rs` concurrent stress, `tests/snapshot_consistency.rs`)
//! exercises exactly these interleavings. For serving that stays
//! lock-free *during* churn, wrap the engine in
//! [`crate::SnapshotEngine`] (`snapshot:inner=cached:...` — each
//! published version carries a cold cache; `cached:inner=(snapshot:...)`
//! keeps one warm cache in front of the swap instead; see
//! `docs/concurrency.md` for the trade-off).

use crate::{
    EngineKind, LookupStats, MatchHandle, PacketClassifier, UpdateError, UpdateReport, Verdict,
};
use spc_types::{Action, Header, MaskSummary, Rule, RuleId, ALL_DIMS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounded linear-probe window: a key lives within this many slots of
/// its home position or not at all.
const PROBE_WINDOW: usize = 8;

/// Live rules the insert log holds before a sweep validates every slot
/// against them and empties it. A hit on a long-untouched slot tests at
/// most this many rules.
const LOG_BOUND: usize = 64;

/// The "no slot" chain link.
const NIL: u32 = u32::MAX;

/// Largest `flows=` accepted. Both layers are allocated up front, 44
/// bytes a slot, so at the bound the cache holds 88 MiB (44 MiB with
/// `megaflow=off`); every slot stays addressable by the 32-bit links.
pub(crate) const MAX_FLOWS: usize = 1 << 20;

/// A position in the insert log. Narrow on purpose — it is stored in
/// every slot; running out of positions forces the same sweep a full
/// log does.
type Stamp = u16;

/// A flow-table key: something [`FlowTable::home`] can place and the
/// insert log can hold a rule against.
trait FlowKey: Eq + Copy {
    /// The key's bits in one word whose *top* bits say where the key
    /// lives. It only places a key — a hit compares the whole key and
    /// validates its stamp — so any deterministic function is correct;
    /// what a poor one costs is evictions.
    fn fold(&self) -> u64;

    /// Whether `rule` matches the header(s) this key stands for.
    fn matched_by(&self, rule: &Rule) -> bool;
}

/// [`FlowKey::fold`] of a key packed into two words, addresses in `a`
/// (a header's source below its destination, a masked query's the other
/// way round), ports and protocol in `b` (16-bit lanes, source port
/// lowest): `a * FOLD_A + b * FOLD_B`. The sum is linear, so
/// a run of consecutive values of one field — or of one field at a
/// byte-aligned stride, a /24 per flow — is an arithmetic progression of
/// folds, stepping by that multiplier shifted to the field's position.
/// The two constants were searched for so that each of those steps, as
/// a fraction of 2^64, is far from every small rational: such a
/// progression strides evenly over a table of any size (Fibonacci
/// hashing, for every field at once) where a random placement at half
/// load overflows dozens of probe windows. Keys with no such structure
/// land as a random placement would put them. `placement_quality` holds
/// both.
fn fold_words(a: u64, b: u64) -> u64 {
    const FOLD_A: u64 = 0x9ecf_7584_4215_e6e1;
    const FOLD_B: u64 = 0x82e5_acbb_6b67_ddb9;
    a.wrapping_mul(FOLD_A).wrapping_add(b.wrapping_mul(FOLD_B))
}

impl FlowKey for Header {
    fn fold(&self) -> u64 {
        fold_words(
            u64::from(self.src_ip.0) | u64::from(self.dst_ip.0) << 32,
            u64::from(self.src_port) | u64::from(self.dst_port) << 16 | u64::from(self.proto) << 32,
        )
    }

    fn matched_by(&self, rule: &Rule) -> bool {
        rule.matches(self)
    }
}

/// A fold-masked query. The per-dimension test is exact because the
/// rule's own mask is covered by the fold the key was masked with (a
/// rule that tightens the fold flushes the layer instead).
impl FlowKey for [u16; 7] {
    /// Packed as a header with the two addresses swapped, so the layers
    /// place a flow and its class independently. Each layer loses a few
    /// keys of a population to full windows; a flow that lost its
    /// microflow slot is served by its class, so only one lost from
    /// *both* reaches the inner engine once the cache is warm. Which
    /// flows those are is chance under any placement (and which of them
    /// goes depends on the order they arrive in);
    /// `placement_quality_across_arrival_orders` holds the `flows_hot`
    /// population to none, as SipHash happened to. Packed exactly as the
    /// header, four of its flows were exposed in both layers and one
    /// arrival order in four replayed one of them against the engine.
    fn fold(&self) -> u64 {
        let [sip_hi, sip_lo, dip_hi, dip_lo, sport, dport, proto] = self.map(u64::from);
        fold_words(
            dip_lo | dip_hi << 16 | sip_lo << 32 | sip_hi << 48,
            sport | dport << 16 | proto << 32,
        )
    }

    fn matched_by(&self, rule: &Rule) -> bool {
        ALL_DIMS
            .iter()
            .zip(self)
            .all(|(d, q)| rule.dim_value(*d).matches(*q))
    }
}

/// The rules inserted through the wrapper that are still live and that
/// some slot may not have been validated against yet.
#[derive(Debug, Default)]
struct InsertLog {
    /// `(position, id, rule)`, oldest first; positions rise along it.
    live: Vec<(Stamp, RuleId, Rule)>,
    /// The position the next insert takes — and the stamp of a slot
    /// filled or validated now, which has seen every rule logged so far.
    next: Stamp,
}

impl InsertLog {
    /// Whether a live rule logged at or after `stamp` matches `key`: a
    /// verdict cached at `stamp` may no longer be the HPMR.
    fn outdates<K: FlowKey>(&self, key: &K, stamp: Stamp) -> bool {
        self.live
            .iter()
            .rev()
            .take_while(|(at, ..)| *at >= stamp)
            .any(|(.., rule)| key.matched_by(rule))
    }

    fn is_full(&self) -> bool {
        self.live.len() == LOG_BOUND || self.next == Stamp::MAX
    }

    fn push(&mut self, id: RuleId, rule: Rule) {
        self.live.push((self.next, id, rule));
        self.next += 1;
    }

    fn forget(&mut self, id: RuleId) {
        self.live.retain(|(_, logged, _)| *logged != id);
    }
}

/// One cached flow. The verdict is stored once — the matched rule's
/// handle and action, `None` for a cached miss — and rebuilt on the way
/// out; `prev`/`next` chain the slots holding a hit on the same rule.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    hit: Option<(MatchHandle, Action)>,
    stamp: Stamp,
    prev: u32,
    next: u32,
    /// The clock reference bit.
    referenced: bool,
}

impl<K> Slot<K> {
    /// The cached verdict as a cache hit: whatever the inner lookup cost
    /// when the slot was filled, serving it again is one wide memory
    /// read in the hardware model.
    fn verdict(&self) -> Verdict {
        match self.hit {
            Some((handle, action)) => Verdict::hit(handle, action, 1),
            None => Verdict::miss(1),
        }
    }

    fn rule(&self) -> Option<RuleId> {
        self.hit.map(|(handle, _)| handle.id)
    }
}

/// An open-addressed, power-of-two flow table with clock eviction.
///
/// Generic over the key so the microflow layer ([`Header`] keys) and the
/// megaflow layer (masked-query `[u16; 7]` keys) share one
/// implementation.
#[derive(Debug)]
struct FlowTable<K> {
    slots: Vec<Option<Slot<K>>>,
    /// `slots.len() - 1`; capacity is a power of two.
    mask: usize,
    /// `64 - log2(slots.len())`: what leaves the top bits of a fold as
    /// a slot index.
    shift: u32,
    len: usize,
    /// First slot of each rule's chain ([`NIL`] once it emptied). A key
    /// goes when its rule is removed, so the map never outgrows the live
    /// rules; it is controller-side state, not modelled table memory.
    heads: HashMap<RuleId, u32>,
    /// Entries dropped as invalid: chains of removed rules, and slots
    /// found outdated by the insert log.
    invalidated: u64,
    /// Slots the update paths looked at (chain walks, sweeps, clears).
    #[cfg(test)]
    visited: u64,
    /// Lookups of a key ([`FlowTable::get`] calls).
    #[cfg(test)]
    probed: u64,
}

impl<K: FlowKey> FlowTable<K> {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(PROBE_WINDOW);
        assert!(capacity < NIL as usize, "chain links are 32-bit");
        FlowTable {
            slots: vec![None; capacity],
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
            heads: HashMap::new(),
            invalidated: 0,
            #[cfg(test)]
            visited: 0,
            #[cfg(test)]
            probed: 0,
        }
    }

    fn home(&self, key: &K) -> usize {
        (key.fold() >> self.shift) as usize
    }

    /// The occupied slot a chain link, a head or a probe just named.
    #[allow(clippy::expect_used)] // chain invariant: links and heads name occupied slots
    fn slot(&mut self, idx: usize) -> &mut Slot<K> {
        self.slots[idx]
            .as_mut()
            .expect("chain links and heads name occupied slots")
    }

    /// Puts the hit in `idx` at the head of its rule's chain (a cached
    /// miss is on none).
    fn link(&mut self, idx: usize) {
        let Some(rule) = self.slot(idx).rule() else {
            return;
        };
        let head = self.heads.insert(rule, idx as u32).unwrap_or(NIL);
        self.slot(idx).next = head;
        if head != NIL {
            self.slot(head as usize).prev = idx as u32;
        }
    }

    /// Takes `idx` off its rule's chain.
    fn unlink(&mut self, idx: usize) {
        let slot = self.slot(idx);
        let Some(rule) = slot.rule() else {
            return;
        };
        let (prev, next) = (slot.prev, slot.next);
        if next != NIL {
            self.slot(next as usize).prev = prev;
        }
        if prev != NIL {
            self.slot(prev as usize).next = next;
        } else {
            self.heads.insert(rule, next);
        }
    }

    /// Overwrites `idx` (free, or already unlinked) with a fresh entry.
    fn fill(&mut self, idx: usize, key: K, hit: Option<(MatchHandle, Action)>, stamp: Stamp) {
        self.slots[idx] = Some(Slot {
            key,
            hit,
            stamp,
            prev: NIL,
            next: NIL,
            referenced: true,
        });
        self.link(idx);
    }

    fn free(&mut self, idx: usize) {
        self.unlink(idx);
        self.slots[idx] = None;
        self.len -= 1;
    }

    /// Holds the entry in `idx` to the rules logged since its stamp:
    /// drops it if one of them matches its key — the new rule may
    /// outrank the cached one — and stamps it `restamp` otherwise.
    /// Returns the entry if it survived.
    fn validate(&mut self, idx: usize, log: &InsertLog, restamp: Stamp) -> Option<&mut Slot<K>> {
        let slot = self.slots[idx].as_ref()?;
        if slot.stamp != log.next && log.outdates(&slot.key, slot.stamp) {
            self.free(idx);
            self.invalidated += 1;
            return None;
        }
        let slot = self.slots[idx].as_mut()?;
        slot.stamp = restamp;
        Some(slot)
    }

    /// Probes for `key`; a hit that is still current sets the reference
    /// bit and returns the cached verdict.
    fn get(&mut self, key: &K, log: &InsertLog) -> Option<Verdict> {
        #[cfg(test)]
        {
            self.probed += 1;
        }
        let home = self.home(key);
        for i in 0..PROBE_WINDOW {
            let idx = (home + i) & self.mask;
            if self.slots[idx].as_ref().is_some_and(|s| s.key == *key) {
                let slot = self.validate(idx, log, log.next)?;
                slot.referenced = true;
                return Some(slot.verdict());
            }
        }
        None
    }

    /// Installs (or refreshes) `key -> verdict`, current as of `stamp`.
    /// Returns `true` when an unrelated entry was evicted to make room.
    fn insert(&mut self, key: K, verdict: &Verdict, stamp: Stamp) -> bool {
        let hit = verdict.matched().zip(verdict.action);
        let home = self.home(&key);
        // First pass: refresh an existing entry or take a free slot.
        for i in 0..PROBE_WINDOW {
            let idx = (home + i) & self.mask;
            match &self.slots[idx] {
                Some(s) if s.key == key => {
                    self.unlink(idx);
                    self.fill(idx, key, hit, stamp);
                    return false;
                }
                None => {
                    self.fill(idx, key, hit, stamp);
                    self.len += 1;
                    return false;
                }
                Some(_) => {}
            }
        }
        // Window full: clock eviction — clear reference bits while
        // scanning, evict the first unreferenced entry (second chance),
        // falling back to the home slot if every entry was hot.
        let mut victim = home;
        for i in 0..PROBE_WINDOW {
            let idx = (home + i) & self.mask;
            let slot = self.slot(idx);
            if !slot.referenced {
                victim = idx;
                break;
            }
            slot.referenced = false;
        }
        self.unlink(victim);
        self.fill(victim, key, hit, stamp);
        true
    }

    /// Drops every entry holding a hit on `id`: one walk of its chain.
    fn drop_chain(&mut self, id: RuleId) {
        let mut at = self.heads.remove(&id).unwrap_or(NIL);
        while at != NIL {
            let idx = at as usize;
            debug_assert_eq!(self.slot(idx).rule(), Some(id), "a foreign slot on a chain");
            at = self.slot(idx).next;
            self.slots[idx] = None;
            self.len -= 1;
            self.invalidated += 1;
            #[cfg(test)]
            {
                self.visited += 1;
            }
        }
    }

    /// The bounded-log sweep: validates every entry against the whole
    /// log, leaving the survivors stamped for the empty log that follows.
    fn sweep(&mut self, log: &InsertLog) {
        for idx in 0..self.slots.len() {
            self.validate(idx, log, 0);
        }
        #[cfg(test)]
        {
            self.visited += self.slots.len() as u64;
        }
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.len = 0;
            #[cfg(test)]
            {
                self.visited += self.slots.len() as u64;
            }
        }
        self.heads.clear();
    }

    /// Modelled table memory: every byte a slot stores, links and stamp
    /// included.
    fn memory_bits(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Option<Slot<K>>>()) as u64 * 8
    }
}

/// The mutable cache state behind the wrapper's lock: both layers, the
/// fold mask the megaflow keys were computed under, and the insert log
/// the slots' stamps refer to.
#[derive(Debug)]
struct CacheState {
    micro: FlowTable<Header>,
    mega: Option<FlowTable<[u16; 7]>>,
    /// OR of every installed rule's [`MaskSummary`] — the megaflow key
    /// mask. Kept *covering* (never shrunk on remove): a too-wide fold
    /// only splits classes finer, which stays sound.
    fold: MaskSummary,
    log: InsertLog,
}

impl CacheState {
    /// Probes both layers; `None` means fall through to the inner
    /// engine.
    fn probe(&mut self, header: &Header) -> Option<Verdict> {
        if let Some(v) = self.micro.get(header, &self.log) {
            return Some(v);
        }
        let key = self.fold.masked_query(header);
        self.mega.as_mut()?.get(&key, &self.log)
    }

    /// Installs an inner verdict into both layers; returns how many
    /// entries that evicted.
    fn install(&mut self, header: &Header, verdict: &Verdict) -> u64 {
        let now = self.log.next;
        let mut evicted = u64::from(self.micro.insert(*header, verdict, now));
        if let Some(mega) = &mut self.mega {
            let key = self.fold.masked_query(header);
            evicted += u64::from(mega.insert(key, verdict, now));
        }
        evicted
    }

    /// Records a successful `insert` through the wrapper: the rule goes
    /// on the log for later hits to be held to, and nothing is walked —
    /// unless the log is full (one sweep, then it restarts empty) or the
    /// rule tightens the fold (every megaflow key was computed under a
    /// narrower mask: all stale). Returns whether the megaflow layer was
    /// flushed.
    fn note_insert(&mut self, id: RuleId, rule: &Rule) -> bool {
        if self.log.is_full() {
            self.micro.sweep(&self.log);
            if let Some(mega) = &mut self.mega {
                mega.sweep(&self.log);
            }
            self.log.live.clear();
            self.log.next = 0;
        }
        self.log.push(id, *rule);
        let new_fold = self.fold.or(MaskSummary::of_rule(rule));
        let tightened = new_fold != self.fold;
        self.fold = new_fold;
        match &mut self.mega {
            Some(mega) if tightened => {
                mega.clear();
                true
            }
            _ => false,
        }
    }

    /// Records a successful `remove` through the wrapper: the entries
    /// whose matched rule is gone are its chains, and the log stops
    /// holding hits to it. Misses stay valid (removing a rule can never
    /// turn a miss into a hit), and the fold is deliberately left wide
    /// (see [`CacheState::fold`]).
    fn note_remove(&mut self, id: RuleId) {
        self.log.forget(id);
        self.micro.drop_chain(id);
        if let Some(mega) = &mut self.mega {
            mega.drop_chain(id);
        }
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served by either cache layer.
    pub hits: u64,
    /// Lookups that fell through to the inner engine.
    pub misses: u64,
    /// Entries evicted to make room (either layer).
    pub evictions: u64,
    /// Entries dropped as invalid after an update: the removed rule's
    /// own entries, and entries a later lookup found outdated by an
    /// inserted rule (an outdated entry nobody looks up is never
    /// counted — it is evicted, or swept, or valid again once the rule
    /// is removed).
    pub invalidations: u64,
    /// Whole-layer megaflow flushes (an insert tightened the fold).
    pub flushes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A flow verdict cache wrapped around any inner backend
/// ([`EngineKind::Cached`], spec
/// `cached:inner=<spec>,flows=N[,megaflow=on|off]`).
///
/// Lookups probe the microflow table, then the megaflow layer, then the
/// inner engine (populating both layers on the way back). Cache hits
/// cost `mem_reads = 1`. Updates route through the wrapper to the inner
/// engine and invalidate affected entries (see the module docs for the
/// protocol); the wrapper delegates report accounting to the inner
/// engine, so a failed update leaves the inner's report in place through
/// the cache too.
#[derive(Debug)]
pub struct CachedEngine {
    inner: Box<dyn PacketClassifier>,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    flushes: AtomicU64,
    /// Scratch for the batch path, cleared and reused: the headers that
    /// missed (their indices, themselves, their inner verdicts), where
    /// each queued header sits in `miss_headers`, and `(out slot, miss
    /// position)` of the repeats deduplicated against it.
    miss_idx: Vec<usize>,
    miss_headers: Vec<Header>,
    miss_verdicts: Vec<Verdict>,
    pending: HashMap<Header, usize>,
    dups: Vec<(usize, usize)>,
}

impl CachedEngine {
    /// Wraps `inner` with a cache of `flows` microflow slots (rounded up
    /// to a power of two) and, when `megaflow` is set, a same-sized
    /// megaflow layer. `rules` are the rules `inner` was built from —
    /// they seed the fold mask the megaflow layer keys on.
    pub fn new<'a>(
        inner: Box<dyn PacketClassifier>,
        flows: usize,
        megaflow: bool,
        rules: impl IntoIterator<Item = &'a Rule>,
    ) -> Self {
        CachedEngine {
            inner,
            state: Mutex::new(CacheState {
                micro: FlowTable::new(flows),
                mega: megaflow.then(|| FlowTable::new(flows)),
                fold: MaskSummary::fold(rules),
                log: InsertLog::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            miss_idx: Vec::new(),
            miss_headers: Vec::new(),
            miss_verdicts: Vec::new(),
            pending: HashMap::new(),
            dups: Vec::new(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &dyn PacketClassifier {
        &*self.inner
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let invalidations = {
            let state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.micro.invalidated + state.mega.as_ref().map_or(0, |m| m.invalidated)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations,
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

impl PacketClassifier for CachedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Cached
    }

    fn rules(&self) -> usize {
        self.inner.rules()
    }

    fn classify(&self, header: &Header) -> Verdict {
        {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(v) = state.probe(header) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return v;
            }
        }
        // Classify outside the lock: concurrent readers miss into the
        // inner engine in parallel. A racing double-install of the same
        // flow is benign (same verdict — updates take `&mut self`, so
        // they cannot interleave with `&self` lookups).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = self.inner.classify(header);
        let evicted = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .install(header, &verdict);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        verdict
    }

    /// Two-pass batch: probe the headers, batch only the misses into
    /// the inner engine's batch path, then merge and populate. A
    /// repeat of a flow that is *already pending* in the miss list is
    /// deduplicated — it never reaches the inner engine and is served as
    /// a cache hit once the first occurrence's verdict lands, so a cold
    /// cache still amortises a high-locality batch. With flow locality
    /// most headers never reach the inner engine — this is where the
    /// cache's throughput win comes from.
    ///
    /// A run of equal headers (a packet train) costs one probe: the
    /// headers after the first take its answer — a copy of its hit, or
    /// its place in the miss list. That is exact, because nothing a batch
    /// does between two probes changes what a probe finds: updates take
    /// `&mut self`, installs wait for the second pass, and the first
    /// probe of the run already restamped, marked or freed the slots it
    /// found. Verdicts, stats and the slots left behind are those of
    /// probing every header.
    fn classify_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        out.clear();
        out.reserve(headers.len());
        let state = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.miss_idx.clear();
        self.miss_headers.clear();
        self.pending.clear();
        self.dups.clear();
        // The hits this pass serves. Every header it serves is one read,
        // so they and the headers left over for the inner engine are all
        // its stats.
        let mut hits = 0u64;
        let mut i = 0;
        while let Some(h) = headers.get(i) {
            let first = i;
            i += 1;
            if let Some(v) = state.probe(h) {
                debug_assert_eq!(v.mem_reads, 1, "a cache hit is one read");
                let hit = u64::from(v.is_hit());
                out.push(v);
                hits += hit;
                while headers.get(i) == Some(h) {
                    out.push(v);
                    hits += hit;
                    i += 1;
                }
            } else {
                // A placeholder the second pass overwrites.
                out.push(Verdict::miss(0));
                let m = if let Some(&m) = self.pending.get(h) {
                    // Already queued for the inner engine this batch: the
                    // repeat resolves here instead of costing a second
                    // inner lookup.
                    self.dups.push((first, m));
                    m
                } else {
                    let m = self.miss_headers.len();
                    self.pending.insert(*h, m);
                    self.miss_idx.push(first);
                    self.miss_headers.push(*h);
                    m
                };
                while headers.get(i) == Some(h) {
                    out.push(Verdict::miss(0));
                    self.dups.push((i, m));
                    i += 1;
                }
            }
        }
        let served = (headers.len() - self.miss_headers.len() - self.dups.len()) as u64;
        let mut stats = LookupStats {
            packets: served,
            hits,
            mem_reads: served,
        };

        if !self.miss_headers.is_empty() {
            let inner_stats = self
                .inner
                .classify_batch(&self.miss_headers, &mut self.miss_verdicts);
            stats = stats + inner_stats;
            let mut evicted = 0u64;
            for (slot, (h, v)) in self
                .miss_idx
                .iter()
                .zip(self.miss_headers.iter().zip(&self.miss_verdicts))
            {
                out[*slot] = *v;
                evicted += state.install(h, v);
            }
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        for &(slot, m) in &self.dups {
            let v = Verdict {
                mem_reads: 1,
                ..self.miss_verdicts[m]
            };
            out[slot] = v;
            stats.absorb(&v);
        }

        // Every header is a probe hit, a repeat or a miss.
        let misses = self.miss_headers.len() as u64;
        self.hits
            .fetch_add(headers.len() as u64 - misses, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        stats
    }

    fn memory_bits(&self) -> u64 {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.inner.memory_bits()
            + state.micro.memory_bits()
            + state.mega.as_ref().map_or(0, FlowTable::memory_bits)
    }

    fn supports_updates(&self) -> bool {
        self.inner.supports_updates()
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // A failed inner insert changes nothing (no report replacement
        // — the inner backend guarantees it), so the cache stays valid
        // untouched.
        let id = self.inner.insert(rule)?;
        let flushed = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .note_insert(id, &rule);
        self.flushes
            .fetch_add(u64::from(flushed), Ordering::Relaxed);
        Ok(id)
    }

    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        self.inner.remove(id)?;
        self.state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .note_remove(id);
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.inner.last_update_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_engine, EngineBuilder};
    use rand::prelude::*;
    use spc_types::{Action, PortRange, Prefix, Priority, ProtoSpec, RuleSet};

    impl<K: FlowKey> FlowTable<K> {
        /// Each hit slot is on exactly its rule's chain, chains hold no
        /// free or foreign slot and belong to live rules, `len` counts
        /// the occupied slots, no stamp is ahead of the log.
        fn check(&self, log: &InsertLog, live: &[RuleId]) {
            let occupied = self.slots.iter().flatten().count();
            assert_eq!(self.len, occupied, "len");
            let mut chained = 0;
            for (&rule, &head) in &self.heads {
                assert!(live.contains(&rule), "chain of dead rule {rule}");
                let (mut prev, mut at) = (NIL, head);
                while at != NIL {
                    let slot = self.slots[at as usize]
                        .as_ref()
                        .unwrap_or_else(|| panic!("free slot {at} on the chain of {rule}"));
                    assert_eq!(slot.rule(), Some(rule), "foreign slot {at} on a chain");
                    assert_eq!(slot.prev, prev, "back link of slot {at}");
                    chained += 1;
                    assert!(chained <= occupied, "the chain of {rule} cycles");
                    (prev, at) = (at, slot.next);
                }
            }
            let hits = self.slots.iter().flatten().filter(|s| s.hit.is_some());
            assert_eq!(chained, hits.count(), "hit slots on no chain");
            assert!(self.slots.iter().flatten().all(|s| s.stamp <= log.next));
        }
    }

    impl CachedEngine {
        /// Holds both tables and the log to their invariants; `live` are
        /// the ids of the installed rules.
        fn check_invariants(&self, live: &[RuleId]) {
            let state = self.state.lock().unwrap();
            state.micro.check(&state.log, live);
            if let Some(mega) = &state.mega {
                mega.check(&state.log, live);
            }
            let log = &state.log;
            assert!(log.live.len() <= LOG_BOUND);
            assert!(log.live.windows(2).all(|w| w[0].0 < w[1].0), "log order");
            assert!(log.live.iter().all(|(at, ..)| *at < log.next));
            assert!(
                log.live.iter().all(|(_, id, _)| live.contains(id)),
                "the log names a dead rule"
            );
        }

        /// Slots the update paths have looked at so far, both layers.
        fn visited(&self) -> u64 {
            let state = self.state.lock().unwrap();
            state.micro.visited + state.mega.as_ref().map_or(0, |m| m.visited)
        }

        /// Headers looked up in the cache so far: every probe starts in
        /// the microflow layer.
        fn probed(&self) -> u64 {
            self.state.lock().unwrap().micro.probed
        }

        /// Every slot of both layers and the log, printed: two engines
        /// that print the same serve the next batch the same.
        fn slot_state(&self) -> String {
            let state = self.state.lock().unwrap();
            let mega = state.mega.as_ref().map(|m| &m.slots);
            format!("{:?} {mega:?} {:?}", state.micro.slots, state.log)
        }
    }

    fn rules(n: u32) -> RuleSet {
        (0..n)
            .map(|i| {
                Rule::builder(Priority(i))
                    .dst_port(PortRange::exact(i as u16))
                    .proto(ProtoSpec::Exact(6))
                    .action(Action::Forward(i as u16))
                    .build()
            })
            .collect()
    }

    fn hdr(port: u16) -> Header {
        Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 7, port, 6)
    }

    fn cached(n_rules: u32, flows: usize, megaflow: bool) -> CachedEngine {
        let rs = rules(n_rules);
        let inner = build_engine("linear", &rs).unwrap();
        CachedEngine::new(inner, flows, megaflow, rs.rules())
    }

    #[test]
    fn repeat_lookups_hit_the_cache() {
        let e = cached(16, 64, true);
        let first = e.classify(&hdr(3));
        assert_eq!(first.action, Some(Action::Forward(3)));
        let again = e.classify(&hdr(3));
        assert_eq!(again.rule, first.rule);
        assert_eq!(again.mem_reads, 1, "cache hit is one wide read");
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Pegged counters saturate, like every stats fold in the crate.
        let pegged = CacheStats {
            hits: u64::MAX,
            misses: 1,
            ..stats
        };
        assert!((pegged.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn megaflow_serves_whole_masked_classes() {
        // Rules ignore source IP entirely, so two headers differing only
        // there are one megaflow class: the second is a hit even though
        // its exact 5-tuple was never seen.
        let e = cached(8, 64, true);
        let a = Header::new([9, 9, 9, 9].into(), [5, 6, 7, 8].into(), 7, 2, 6);
        let b = Header::new([200, 1, 2, 3].into(), [5, 6, 7, 8].into(), 7, 2, 6);
        let va = e.classify(&a);
        let vb = e.classify(&b);
        assert_eq!(va.rule, vb.rule);
        assert_eq!(e.cache_stats().hits, 1, "megaflow absorbed the twin");

        // Without megaflow the twin misses.
        let e2 = cached(8, 64, false);
        e2.classify(&a);
        e2.classify(&b);
        assert_eq!(e2.cache_stats().hits, 0);
    }

    #[test]
    fn cached_misses_are_cached_too() {
        let e = cached(4, 64, true);
        assert!(!e.classify(&hdr(999)).is_hit());
        assert!(!e.classify(&hdr(999)).is_hit());
        assert_eq!(e.cache_stats().hits, 1, "a cached miss is still a hit");
    }

    #[test]
    fn insert_through_wrapper_invalidates_targeted() {
        let rs = rules(4);
        let inner = build_engine("configurable-bst", &rs).unwrap();
        let mut e = CachedEngine::new(inner, 64, true, rs.rules());
        assert!(!e.classify(&hdr(700)).is_hit());
        // New rule covers port 700; the cached miss must die.
        let r = Rule::builder(Priority(0))
            .dst_port(PortRange::exact(700))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Drop)
            .build();
        let id = e.insert(r).unwrap();
        let v = e.classify(&hdr(700));
        assert_eq!(v.rule, Some(id), "stale miss was invalidated");
        assert_eq!(v.action, Some(Action::Drop));
    }

    #[test]
    fn remove_through_wrapper_drops_its_entries() {
        let rs = rules(4);
        let inner = build_engine("configurable-bst", &rs).unwrap();
        let mut e = CachedEngine::new(inner, 64, true, rs.rules());
        let v = e.classify(&hdr(2));
        let id = v.rule.unwrap();
        e.remove(id).unwrap();
        assert!(!e.classify(&hdr(2)).is_hit(), "cached hit was invalidated");
        assert!(e.cache_stats().invalidations > 0);
        // Unrelated cached flows survive the targeted invalidation.
        e.classify(&hdr(1));
        let before = e.cache_stats().hits;
        e.classify(&hdr(1));
        assert_eq!(e.cache_stats().hits, before + 1);
    }

    #[test]
    fn eviction_under_tiny_capacity_stays_correct() {
        let e = cached(64, PROBE_WINDOW, false);
        for round in 0..3 {
            for port in 0..64u16 {
                let v = e.classify(&hdr(port));
                assert_eq!(
                    v.action,
                    Some(Action::Forward(port)),
                    "round {round} port {port}"
                );
            }
        }
        assert!(e.cache_stats().evictions > 0, "capacity forces evictions");
    }

    #[test]
    fn batch_matches_single_and_reports_cache_stats() {
        let rs = rules(32);
        let inner = build_engine("linear", &rs).unwrap();
        let mut e = CachedEngine::new(inner, 256, true, rs.rules());
        let trace: Vec<Header> = (0..200).map(|i| hdr(i % 8)).collect();
        let mut out = Vec::new();
        let stats = e.classify_batch(&trace, &mut out);
        assert_eq!(stats.packets, 200);
        let counts = e.cache_stats();
        assert_eq!(counts.hits + counts.misses, 200);
        assert!(counts.hits >= 192, "8 distinct flows, 200 packets");
        for (h, v) in trace.iter().zip(&out) {
            let s = e.classify(h);
            assert_eq!(v.rule, s.rule, "batch equals single at {h}");
            assert_eq!(v.action, s.action);
        }
    }

    #[test]
    fn spec_built_cached_engine_roundtrips() {
        let e = EngineBuilder::from_spec("cached:inner=linear,flows=128")
            .unwrap()
            .build(&rules(8))
            .unwrap();
        assert_eq!(e.kind(), EngineKind::Cached);
        assert!(e.classify(&hdr(5)).is_hit());
    }

    /// A rule over one destination port, outranking every base rule.
    fn port_rule(port: u16) -> Rule {
        Rule::builder(Priority(0))
            .dst_port(PortRange::exact(port))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Drop)
            .build()
    }

    /// Serves `batch` on `train` and the batch with each run collapsed
    /// to its first header on `collapsed`, and holds `train` to the
    /// collapsed batch with every repeat given its run's verdict at one
    /// read — verdicts, stats and the slots left behind — to one probe
    /// per run, and to the uncached inner engine. Returns the repeats.
    fn serve_train(
        train: &mut CachedEngine,
        collapsed: &mut CachedEngine,
        batch: &[Header],
    ) -> u64 {
        let mut firsts = batch.to_vec();
        firsts.dedup();
        let probed = train.probed();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let got_stats = train.classify_batch(batch, &mut got);
        let mut want_stats = collapsed.classify_batch(&firsts, &mut want);
        let mut expanded: Vec<Verdict> = Vec::new();
        let mut first = want.iter();
        for (i, h) in batch.iter().enumerate() {
            if i > 0 && batch[i - 1] == *h {
                let v = Verdict {
                    mem_reads: 1,
                    ..expanded[i - 1]
                };
                want_stats.absorb(&v);
                expanded.push(v);
            } else {
                expanded.extend(first.next());
            }
        }
        assert_eq!(got, expanded, "verdicts");
        assert_eq!(got_stats, want_stats, "lookup stats");
        let folded = got.iter().fold(LookupStats::default(), |mut s, v| {
            s.absorb(v);
            s
        });
        assert_eq!(got_stats, folded, "stats of the verdicts returned");
        assert_eq!(
            train.probed() - probed,
            firsts.len() as u64,
            "one probe per run"
        );
        assert_eq!(
            train.slot_state(),
            collapsed.slot_state(),
            "slots left behind"
        );
        for (h, v) in batch.iter().zip(&got) {
            let truth = train.inner().classify(h);
            assert_eq!(
                (v.matched(), v.action),
                (truth.matched(), truth.action),
                "{h}"
            );
        }
        (batch.len() - firsts.len()) as u64
    }

    /// `h` with one of its five fields changed.
    fn nudge(h: Header, field: usize) -> Header {
        match field {
            0 => Header {
                src_ip: (h.src_ip.0 ^ 1).into(),
                ..h
            },
            1 => Header {
                dst_ip: (h.dst_ip.0 ^ 1).into(),
                ..h
            },
            2 => Header {
                src_port: h.src_port ^ 1,
                ..h
            },
            3 => Header {
                dst_port: h.dst_port ^ 1,
                ..h
            },
            _ => Header {
                proto: h.proto ^ 1,
                ..h
            },
        }
    }

    /// A rule over one destination port and `hdr`'s source /16,
    /// outranking every base rule of that port.
    fn shadow_rule(port: u16) -> Rule {
        Rule {
            src_ip: Prefix::parse("1.2.0.0/16").unwrap(),
            ..port_rule(port)
        }
    }

    #[test]
    fn batch_serves_a_packet_train_with_one_probe() {
        for megaflow in [true, false] {
            let rs = rules(16);
            let build = || {
                let inner = build_engine("configurable-bst", &rs).unwrap();
                CachedEngine::new(inner, 64, megaflow, rs.rules())
            };
            let (mut train, mut collapsed) = (build(), build());
            let mut repeats = 0;
            let mut serve =
                |train: &mut CachedEngine, collapsed: &mut CachedEngine, batch: &[Header]| {
                    repeats += serve_train(train, collapsed, batch);
                    let (got, want) = (train.cache_stats(), collapsed.cache_stats());
                    assert_eq!(
                        got,
                        CacheStats {
                            hits: want.hits + repeats,
                            ..want
                        }
                    );
                };
            let run = |port: u16, len: usize| std::iter::repeat(hdr(port)).take(len);

            // Runs on a cold cache: eight rule hits and a miss (700),
            // each run's first header missing.
            let cold: Vec<Header> = [0, 1, 2, 3, 4, 5, 6, 7, 700]
                .into_iter()
                .zip(1..)
                .flat_map(|(port, len)| run(port, len % 3 + 1))
                .collect();
            serve(&mut train, &mut collapsed, &cold);
            // Port 3's slots are outdated by a rule nobody looked up yet.
            for e in [&mut train, &mut collapsed] {
                e.insert(shadow_rule(3)).unwrap();
            }

            let mut batch: Vec<Header> = Vec::new();
            // Warm hits (700 a cached miss) in runs of every length from
            // 1 to 20.
            let warm = [0, 1, 2, 4, 5, 6, 7, 700];
            for len in 1..=20 {
                batch.extend(run(warm[len % 8], len));
            }
            // The outdated slot: the run's first header drops it and
            // misses. Then cold runs, a hit and a miss, each seen again
            // apart from its first run (through the pending list).
            for (port, len) in [(3, 5), (11, 3), (900, 7), (11, 2), (3, 2)] {
                batch.extend(run(port, len));
            }
            // Near-duplicates, each one field away from the header before
            // it: after a warm hit, then after a pending miss.
            for start in [hdr(1), hdr(13)] {
                let mut h = start;
                for field in 0..5 {
                    batch.extend(std::iter::repeat(h).take(1 + field % 2));
                    h = nudge(h, field);
                }
                batch.push(h);
            }
            batch.extend(run(5, 4));
            serve(&mut train, &mut collapsed, &batch);
            assert!(
                train.cache_stats().invalidations > 0,
                "the outdated slot was found"
            );

            // A follow-up batch opens with the header that closed the last
            // one, after an insert that changes its verdict: nothing of
            // the previous batch's run may answer for it.
            for e in [&mut train, &mut collapsed] {
                e.insert(shadow_rule(5)).unwrap();
            }
            let follow: Vec<Header> = [(5, 4), (3, 2), (0, 1), (900, 3), (5, 1)]
                .into_iter()
                .flat_map(|(port, len)| run(port, len))
                .collect();
            serve(&mut train, &mut collapsed, &follow);
            assert!(repeats > 200, "{repeats}");
            train.check_invariants(&(0..18).map(RuleId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn slots_pay_for_their_links() {
        // `memory_bits` is `size_of`-based: the verdict stored once buys
        // the stamp and the two links with room to spare (76 + 72 bytes
        // when a slot held a whole `Verdict`).
        assert_eq!(std::mem::size_of::<Option<Slot<Header>>>(), 44);
        assert_eq!(std::mem::size_of::<Option<Slot<[u16; 7]>>>(), 44);
    }

    /// Fills an 8 192-slot table with `keys` (distinct) and returns how
    /// many of them it evicted; every other one is found again.
    fn evictions<K: FlowKey>(keys: &[K]) -> usize {
        let mut table = FlowTable::new(8192);
        let (log, verdict) = (InsertLog::default(), Verdict::miss(1));
        let evicted = keys
            .iter()
            .filter(|key| table.insert(**key, &verdict, log.next))
            .count();
        let found = keys
            .iter()
            .filter(|key| table.get(key, &log).is_some())
            .count();
        assert_eq!(found, keys.len() - evicted);
        assert_eq!(table.len, found);
        evicted
    }

    #[test]
    fn placement_quality() {
        use std::collections::HashSet;

        // Flows that differ in one field, by one: what a multiplicative
        // fold with the wrong constant piles onto a few slots, and what
        // a random placement — 4 096 keys in 8 192 slots, windows of 8 —
        // pays 13 to 35 evictions for. Each lands without one, under
        // either key type.
        let base = hdr(443);
        let run = |flow: &dyn Fn(u32) -> Header| (0..4096).map(flow).collect::<Vec<_>>();
        for (what, flows) in [
            (
                "consecutive source addresses",
                run(&|i| Header {
                    src_ip: (0x0a01_0200 + i).into(),
                    ..base
                }),
            ),
            (
                "consecutive destination addresses",
                run(&|i| Header {
                    dst_ip: (0xc0a8_0700 + i).into(),
                    ..base
                }),
            ),
            (
                "a /24 per flow",
                run(&|i| Header {
                    src_ip: (0x0a00_0001 + (i << 8)).into(),
                    ..base
                }),
            ),
            (
                "consecutive source ports",
                run(&|i| Header {
                    src_port: 32_768 + i as u16,
                    ..base
                }),
            ),
            (
                "consecutive destination ports",
                run(&|i| Header {
                    dst_port: 1024 + i as u16,
                    ..base
                }),
            ),
            (
                "every protocol",
                (0..=255).map(|proto| Header { proto, ..base }).collect(),
            ),
        ] {
            assert_eq!(evictions(&flows), 0, "{what}");
            let queries: Vec<[u16; 7]> =
                flows.iter().map(|h| ALL_DIMS.map(|d| d.query(h))).collect();
            assert_eq!(evictions(&queries), 0, "{what}, as queries");
        }

        // The `flows_hot` population itself: 3 263 flows in 65 536
        // headers, and their 3 175 fold-masked classes. Nothing to
        // stride over here, so the yardstick is a random placement,
        // which loses 2 to 8 of either (SipHash-1-3: 3 + 4).
        let (trace, fold) = flows_hot_population();
        let (mut flows, mut classes) = (Vec::new(), Vec::new());
        let (mut seen_flows, mut seen_classes) = (HashSet::new(), HashSet::new());
        for h in trace {
            if seen_flows.insert(h) {
                flows.push(h);
            }
            let class = fold.masked_query(&h);
            if seen_classes.insert(class) {
                classes.push(class);
            }
        }
        let (lost_flows, lost_classes) = (evictions(&flows), evictions(&classes));
        println!(
            "{} flows, {lost_flows} evicted; {} classes, {lost_classes} evicted",
            flows.len(),
            classes.len()
        );
        assert!(lost_flows <= 8 && lost_classes <= 8);
    }

    /// What `spc_benchmark`'s `flows_hot` replays: an ACL-4096 trace at
    /// locality 0.95 (65 536 headers) and the rule set's fold mask.
    fn flows_hot_population() -> (Vec<Header>, MaskSummary) {
        use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
        let rules = RuleSetGenerator::new(FilterKind::Acl, 4096)
            .seed(2014)
            .generate();
        let trace = TraceGenerator::new()
            .seed(2014 ^ 0x0074_7261_6365)
            .match_fraction(0.9)
            .locality(0.95)
            .generate(&rules, 65_536);
        (trace, MaskSummary::fold(rules.rules()))
    }

    /// `flows_hot` reports the reads of its *second* cycle as
    /// `model_reads_per_lookup`, and a seed is an arrival order of the
    /// trace's 256-header bursts: 1.0 on every seed means no order may
    /// leave a flow out of both layers after the first cycle.
    #[test]
    fn placement_quality_across_arrival_orders() {
        use rand::prelude::*;
        use std::collections::HashSet;

        fn holds<K: FlowKey>(table: &FlowTable<K>, key: &K) -> bool {
            let home = table.home(key);
            (0..PROBE_WINDOW).any(|i| {
                table.slots[(home + i) & table.mask]
                    .as_ref()
                    .is_some_and(|s| s.key == *key)
            })
        }

        let (trace, fold) = flows_hot_population();
        let flows: HashSet<Header> = trace.iter().copied().collect();
        let verdict = Verdict::miss(1);
        // Flows seen out of the microflow table, classes seen out of the
        // megaflow table, after either cycle of any order.
        let (mut exposed_flows, mut exposed_classes) = (HashSet::new(), HashSet::new());
        for seed in 1..=48 {
            let mut bursts: Vec<&[Header]> = trace.chunks(256).collect();
            bursts.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut state = CacheState {
                micro: FlowTable::new(8192),
                mega: Some(FlowTable::new(8192)),
                fold,
                log: InsertLog::default(),
            };
            for cycle in 0..2 {
                for h in bursts.iter().copied().flatten() {
                    if state.probe(h).is_none() {
                        assert_eq!(cycle, 0, "order {seed}: {h:?} is in neither layer");
                        state.install(h, &verdict);
                    }
                }
                let mega = state.mega.as_ref().unwrap();
                exposed_flows.extend(flows.iter().filter(|f| !holds(&state.micro, f)));
                exposed_classes.extend(
                    flows
                        .iter()
                        .map(|f| fold.masked_query(f))
                        .filter(|class| !holds(mega, class)),
                );
            }
        }
        // Stronger than the orders tried: no flow that some order evicts
        // has a class that some order evicts.
        let both = exposed_flows
            .iter()
            .filter(|f| exposed_classes.contains(&fold.masked_query(f)))
            .count();
        println!(
            "{} flows and {} classes exposed, {both} in both",
            exposed_flows.len(),
            exposed_classes.len()
        );
        assert_eq!(both, 0);
    }

    #[test]
    fn updates_visit_only_the_slots_they_drop() {
        let rs = rules(4);
        let inner = build_engine("configurable-bst", &rs).unwrap();
        let mut e = CachedEngine::new(inner, 65536, true, rs.rules());
        // Three cached flows: two hits and a miss.
        assert!(e.classify(&hdr(1)).is_hit());
        assert!(e.classify(&hdr(2)).is_hit());
        assert!(!e.classify(&hdr(700)).is_hit());
        let start = e.visited();

        // A short-lived rule nobody looks up while it is live: neither
        // update walks anything, and the miss it shadowed is a cache hit
        // again afterwards.
        let id = e.insert(port_rule(700)).unwrap();
        assert_eq!(e.visited(), start, "insert walks no slot");
        e.remove(id).unwrap();
        assert_eq!(e.visited(), start, "its chains were empty");
        let before = e.cache_stats();
        assert!(!e.classify(&hdr(700)).is_hit());
        let after = e.cache_stats();
        assert_eq!(after.hits, before.hits + 1, "the untouched entry survived");
        assert_eq!(after.invalidations, 0);

        // The same rule, looked up while live: the outdated miss is
        // dropped on that hit and refilled on the rule's chains (one
        // slot per layer), which is all its `remove` walks.
        let id = e.insert(port_rule(700)).unwrap();
        assert_eq!(e.classify(&hdr(700)).rule, Some(id));
        assert_eq!(e.cache_stats().invalidations, 2, "dropped when found stale");
        e.remove(id).unwrap();
        assert_eq!(e.visited(), start + 2, "remove walks the slots it drops");
        assert_eq!(e.cache_stats().invalidations, 4);
        assert!(!e.classify(&hdr(700)).is_hit());

        // Other rules' flows were never touched.
        let before = e.cache_stats().hits;
        e.classify(&hdr(1));
        e.classify(&hdr(2));
        assert_eq!(e.cache_stats().hits, before + 2);
        assert_eq!(e.visited(), start + 2);
        e.check_invariants(&[RuleId(0), RuleId(1), RuleId(2), RuleId(3)]);
    }

    #[test]
    fn a_full_log_sweeps_once_and_restarts() {
        for wrapped in [false, true] {
            let rs = rules(4);
            let inner = build_engine("configurable-bst", &rs).unwrap();
            let mut e = CachedEngine::new(inner, 64, true, rs.rules());
            let mut live: Vec<RuleId> = (0..4).map(RuleId).collect();
            if wrapped {
                // Out of positions long before the log is out of room.
                e.state.get_mut().unwrap().log.next = Stamp::MAX - 3;
            }
            for port in [1, 2, 500, 601] {
                e.classify(&hdr(port));
            }
            // More live inserts than the log holds; 500 is shadowed by
            // the first of them and never looked up before the sweep.
            for i in 0..=LOG_BOUND as u16 {
                live.push(e.insert(port_rule(500 + 2 * i)).unwrap());
                e.check_invariants(&live);
            }
            let state = e.state.get_mut().unwrap();
            assert!(
                state.log.live.len() < LOG_BOUND,
                "the sweep emptied the log"
            );
            assert!(
                state.micro.invalidated >= 1,
                "the sweep dropped the shadowed miss"
            );
            assert_eq!(e.classify(&hdr(500)).rule, Some(live[4]));
            assert!(!e.classify(&hdr(501)).is_hit());
            let hits = e.cache_stats().hits;
            assert!(!e.classify(&hdr(601)).is_hit());
            assert_eq!(
                e.cache_stats().hits,
                hits + 1,
                "an unshadowed miss survives"
            );
            e.check_invariants(&live);
        }
    }

    #[test]
    fn chains_and_log_stay_consistent_under_seeded_churn() {
        // The cache against its own inner engine — the uncached truth —
        // with the structural invariants checked after every step.
        // `crates/engine/tests/cache_model.rs` holds the same kind of
        // interleaving to a reference rebuilt from the live rules.
        for (flows, megaflow, seed) in [(8, true, 1), (64, false, 2), (1024, true, 3)] {
            let rs = rules(16);
            let inner = build_engine("configurable-bst", &rs).unwrap();
            let mut e = CachedEngine::new(inner, flows, megaflow, rs.rules());
            let mut live: Vec<RuleId> = (0..16).map(RuleId).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            for step in 0..800 {
                match rng.gen_range(0..10) {
                    0..=2 => {
                        let batch: Vec<Header> =
                            (0..12).map(|_| hdr(rng.gen_range(0..40))).collect();
                        e.classify_batch(&batch, &mut out);
                    }
                    3..=6 => {
                        let lo: u16 = rng.gen_range(0..40);
                        let rule = Rule::builder(Priority(rng.gen_range(0..32)))
                            .src_ip(if rng.gen_bool(0.1) {
                                Prefix::parse("1.2.0.0/16").unwrap()
                            } else {
                                Prefix::ANY
                            })
                            .dst_port(PortRange::new(lo, lo + rng.gen_range(0..6u16)).unwrap())
                            .proto(ProtoSpec::Exact(6))
                            .action(Action::Forward(1000 + step))
                            .build();
                        if let Ok(id) = e.insert(rule) {
                            live.push(id);
                        }
                    }
                    _ if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        e.remove(id).unwrap();
                    }
                    _ => {}
                }
                e.check_invariants(&live);
                for port in 0..40 {
                    let (got, want) = (e.classify(&hdr(port)), e.inner().classify(&hdr(port)));
                    assert_eq!(
                        (got.matched(), got.action),
                        (want.matched(), want.action),
                        "flows={flows} step {step} port {port}"
                    );
                }
            }
            let stats = e.cache_stats();
            assert!(stats.invalidations > 0 && stats.hits > 0, "{stats:?}");
        }
    }
}
