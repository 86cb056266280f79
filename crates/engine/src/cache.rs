//! The flow verdict cache: an exact-match flow table in front of any
//! inner [`PacketClassifier`].
//!
//! Real SDN traffic has heavy flow locality, yet the paper's architecture
//! pays the full two-phase lookup (seven segment engines + Rule Filter
//! hash) for every packet. [`CachedEngine`] is the OVS-style answer: an
//! exact-match 5-tuple flow table answers repeats of a header in one
//! probe.
//!
//! # The table
//!
//! Keyed by the full [`Header`]. Open-addressed, power-of-two slots, a
//! key within a bounded probe window of its home slot or nowhere. A new
//! key is placed Robin Hood style — it takes the first window slot whose
//! occupant lies nearer its own home, and the run behind moves up one —
//! and clock (second-chance) eviction makes room only where the window
//! cannot. A hit returns the cached verdict with `mem_reads = 1` (one
//! wide cache-line read in the hardware model).
//!
//! # Coherence under churn
//!
//! The wrapper owns the inner engine, so every update passes through it,
//! and none of them walks the table — an update costs what it touches:
//!
//! * `remove(id)` — every slot holding a hit is on a doubly-linked
//!   *chain* of its matched rule (links are slot indices stored in the
//!   slot, heads live in a controller-side map), so the entries to drop
//!   are one chain. Misses stay valid: removing a rule can never turn a
//!   miss into a hit.
//! * `insert(rule)` — appends the rule to a short *log* of the live
//!   rules inserted through the wrapper and returns. Every slot carries
//!   the log position it was filled at (its *stamp*); a later hit on a
//!   slot older than the newest logged rule is held to the rules logged
//!   since its stamp — dropped if one of them matches its key, restamped
//!   otherwise. `remove` also deletes its rule from the log, so a
//!   short-lived rule costs the entries nobody looked up nothing. The
//!   log is bounded: when it is full, the same validation runs over
//!   every slot once and the log restarts empty.
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
use spc_types::{Action, Header, Rule, RuleId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounded probe window: a key lives within this many slots of its home
/// position or not at all.
const PROBE_WINDOW: usize = 8;

/// Live rules the insert log holds before a sweep validates every slot
/// against them and empties it. A hit on a long-untouched slot tests at
/// most this many rules.
const LOG_BOUND: usize = 64;

/// The "no slot" chain link.
const NIL: u32 = u32::MAX;

/// Largest `flows=` accepted. The table is allocated up front, 44 bytes
/// a slot, so at the bound the cache holds 44 MiB; every slot stays
/// addressable by the 32-bit links.
pub(crate) const MAX_FLOWS: usize = 1 << 20;

/// A position in the insert log. Narrow on purpose — it is stored in
/// every slot; running out of positions forces the same sweep a full
/// log does.
type Stamp = u16;

/// Where a header lives: its bits in one word whose *top* bits name the
/// home slot. The header is packed into two words, addresses in `a`
/// (source below destination), ports and protocol in `b` (16-bit lanes,
/// source port lowest), and folded as `a * FOLD_A + b * FOLD_B`. It only
/// places a key — a hit compares the whole key and validates its stamp —
/// so any deterministic function is correct; what a poor one costs is
/// evictions.
///
/// The sum is linear, so a run of consecutive values of one field — or
/// of one field at a byte-aligned stride, a /24 per flow — is an
/// arithmetic progression of folds, stepping by that multiplier shifted
/// to the field's position. The two constants were searched for so that
/// each of those steps, as a fraction of 2^64, is far from every small
/// rational: such a progression strides evenly over a table of any size
/// (Fibonacci hashing, for every field at once) where a random placement
/// at half load overflows dozens of probe windows. Keys with no such
/// structure land as a random placement would put them.
/// `placement_quality` holds both.
fn fold(h: &Header) -> u64 {
    const FOLD_A: u64 = 0x9ecf_7584_4215_e6e1;
    const FOLD_B: u64 = 0x82e5_acbb_6b67_ddb9;
    let a = u64::from(h.src_ip.0) | u64::from(h.dst_ip.0) << 32;
    let b = u64::from(h.src_port) | u64::from(h.dst_port) << 16 | u64::from(h.proto) << 32;
    a.wrapping_mul(FOLD_A).wrapping_add(b.wrapping_mul(FOLD_B))
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
    fn outdates(&self, key: &Header, stamp: Stamp) -> bool {
        self.live
            .iter()
            .rev()
            .take_while(|(at, ..)| *at >= stamp)
            .any(|(.., rule)| rule.matches(key))
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
struct Slot {
    key: Header,
    hit: Option<(MatchHandle, Action)>,
    stamp: Stamp,
    prev: u32,
    next: u32,
    /// The clock reference bit.
    referenced: bool,
}

impl Slot {
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

/// An open-addressed, power-of-two flow table with Robin Hood placement
/// and clock eviction.
#[derive(Debug)]
struct FlowTable {
    slots: Vec<Option<Slot>>,
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
    /// Slots the update paths looked at (chain walks, sweeps).
    #[cfg(test)]
    visited: u64,
    /// Lookups of a key ([`FlowTable::get`] calls).
    #[cfg(test)]
    probed: u64,
    /// Entries moved up a slot to make room ([`FlowTable::relocate`]
    /// calls).
    #[cfg(test)]
    shifted: u64,
}

impl FlowTable {
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
            #[cfg(test)]
            shifted: 0,
        }
    }

    fn home(&self, key: &Header) -> usize {
        (fold(key) >> self.shift) as usize
    }

    /// How far `idx` lies past the home of `key`, the key stored there.
    fn displacement(&self, idx: usize, key: &Header) -> usize {
        idx.wrapping_sub(self.home(key)) & self.mask
    }

    /// The occupied slot a chain link, a head or a probe just named.
    #[allow(clippy::expect_used)] // chain invariant: links and heads name occupied slots
    fn slot(&mut self, idx: usize) -> &mut Slot {
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

    /// Moves the entry in `from` to the free slot `to`, re-pointing its
    /// chain neighbours — or its rule's head — at the new place.
    fn relocate(&mut self, from: usize, to: usize) {
        let slot = *self.slot(from);
        self.slots[from] = None;
        if let Some(rule) = slot.rule() {
            if slot.prev == NIL {
                self.heads.insert(rule, to as u32);
            } else {
                self.slot(slot.prev as usize).next = to as u32;
            }
            if slot.next != NIL {
                self.slot(slot.next as usize).prev = to as u32;
            }
        }
        self.slots[to] = Some(slot);
        #[cfg(test)]
        {
            self.shifted += 1;
        }
    }

    /// Frees the occupied slot `idx` by moving the run from it to the
    /// next free slot up one — if every entry of the run stays within
    /// [`PROBE_WINDOW`] of its home. Returns whether it did.
    fn shift_up(&mut self, idx: usize) -> bool {
        if self.len == self.slots.len() {
            return false;
        }
        // Some slot is free, so the run ends.
        let mut end = idx;
        while let Some(slot) = &self.slots[end] {
            if self.displacement(end, &slot.key) + 1 == PROBE_WINDOW {
                return false;
            }
            end = (end + 1) & self.mask;
        }
        while end != idx {
            let from = end.wrapping_sub(1) & self.mask;
            self.relocate(from, end);
            end = from;
        }
        true
    }

    /// Overwrites `idx` (free, or already unlinked) with a fresh entry.
    fn fill(&mut self, idx: usize, key: Header, hit: Option<(MatchHandle, Action)>, stamp: Stamp) {
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
    fn validate(&mut self, idx: usize, log: &InsertLog, restamp: Stamp) -> Option<&mut Slot> {
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
    /// bit and returns the cached verdict. The whole window is scanned,
    /// so a slot freed inside a run needs no repair.
    fn get(&mut self, key: &Header, log: &InsertLog) -> Option<Verdict> {
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
    /// A new key takes the first window slot that is free, or whose
    /// occupant lies nearer its own home than the key would and can move
    /// up with its run ([`FlowTable::shift_up`]). Returns `true` when
    /// the window had no such slot and an unrelated entry was evicted.
    fn insert(&mut self, key: Header, verdict: &Verdict, stamp: Stamp) -> bool {
        let hit = verdict.matched().zip(verdict.action);
        let home = self.home(&key);
        let mask = self.mask;
        let window = (0..PROBE_WINDOW).map(move |i| (home + i) & mask);
        let same = |idx: &usize| self.slots[*idx].as_ref().is_some_and(|s| s.key == key);
        if let Some(idx) = window.clone().find(same) {
            self.unlink(idx);
            self.fill(idx, key, hit, stamp);
            return false;
        }
        for (i, idx) in window.clone().enumerate() {
            let room = match &self.slots[idx] {
                None => true,
                Some(slot) => self.displacement(idx, &slot.key) < i && self.shift_up(idx),
            };
            if room {
                self.fill(idx, key, hit, stamp);
                self.len += 1;
                return false;
            }
        }
        // No room: clock eviction — clear reference bits while scanning,
        // evict the first unreferenced entry (second chance), falling
        // back to the home slot if every entry was hot.
        let mut victim = home;
        for idx in window {
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

    /// Modelled table memory: every byte a slot stores, links and stamp
    /// included.
    fn memory_bits(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Option<Slot>>()) as u64 * 8
    }
}

/// The mutable cache state behind the wrapper's lock: the flow table and
/// the insert log its slots' stamps refer to.
#[derive(Debug)]
struct CacheState {
    table: FlowTable,
    log: InsertLog,
}

impl CacheState {
    /// Probes the table; `None` means fall through to the inner engine.
    fn probe(&mut self, header: &Header) -> Option<Verdict> {
        self.table.get(header, &self.log)
    }

    /// Installs an inner verdict; returns whether that evicted an entry.
    fn install(&mut self, header: &Header, verdict: &Verdict) -> bool {
        self.table.insert(*header, verdict, self.log.next)
    }

    /// Records a successful `insert` through the wrapper: the rule goes
    /// on the log for later hits to be held to, and nothing is walked —
    /// unless the log is full (one sweep, then it restarts empty).
    fn note_insert(&mut self, id: RuleId, rule: &Rule) {
        if self.log.is_full() {
            self.table.sweep(&self.log);
            self.log.live.clear();
            self.log.next = 0;
        }
        self.log.push(id, *rule);
    }

    /// Records a successful `remove` through the wrapper: the entries
    /// whose matched rule is gone are its chain, and the log stops
    /// holding hits to it. Misses stay valid (removing a rule can never
    /// turn a miss into a hit).
    fn note_remove(&mut self, id: RuleId) {
        self.log.forget(id);
        self.table.drop_chain(id);
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served by the cache.
    pub hits: u64,
    /// Lookups that fell through to the inner engine.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped as invalid after an update: the removed rule's
    /// own entries, and entries a later lookup found outdated by an
    /// inserted rule (an outdated entry nobody looks up is never
    /// counted — it is evicted, or swept, or valid again once the rule
    /// is removed).
    pub invalidations: u64,
    /// Whole-table flushes: always 0, no update flushes the table. The
    /// field stays for the callers that read it.
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
/// ([`EngineKind::Cached`], spec `cached:inner=<spec>,flows=N`).
///
/// Lookups probe the flow table, then the inner engine (installing its
/// verdict on the way back). Cache hits cost `mem_reads = 1`. Updates
/// route through the wrapper to the inner engine and invalidate affected
/// entries (see the module docs for the protocol); the wrapper delegates
/// report accounting to the inner engine, so a failed update leaves the
/// inner's report in place through the cache too.
#[derive(Debug)]
pub struct CachedEngine {
    inner: Box<dyn PacketClassifier>,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
    /// Wraps `inner` with a flow table of `flows` slots (rounded up to a
    /// power of two). `megaflow` and `rules` are ignored; the signature
    /// keeps them for existing callers.
    pub fn new<'a>(
        inner: Box<dyn PacketClassifier>,
        flows: usize,
        megaflow: bool,
        rules: impl IntoIterator<Item = &'a Rule>,
    ) -> Self {
        let _ = (megaflow, rules);
        CachedEngine {
            inner,
            state: Mutex::new(CacheState {
                table: FlowTable::new(flows),
                log: InsertLog::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            miss_idx: Vec::new(),
            miss_headers: Vec::new(),
            miss_verdicts: Vec::new(),
            pending: HashMap::new(),
            dups: Vec::new(),
        }
    }

    /// The wrapped engine; tests hold a cache to it.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &dyn PacketClassifier {
        &*self.inner
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let invalidations = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .table
            .invalidated;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations,
            flushes: 0,
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
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
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
                evicted += u64::from(state.install(h, v));
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
        self.inner.memory_bits() + state.table.memory_bits()
    }

    fn supports_updates(&self) -> bool {
        self.inner.supports_updates()
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // A failed inner insert changes nothing (no report replacement
        // — the inner backend guarantees it), so the cache stays valid
        // untouched.
        let id = self.inner.insert(rule)?;
        self.state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .note_insert(id, &rule);
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
    use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::{Action, PortRange, Prefix, Priority, ProtoSpec, RuleSet};

    impl FlowTable {
        /// Each entry lies within the probe window of its home, each hit
        /// slot is on exactly its rule's chain, chains hold no free or
        /// foreign slot and belong to live rules, `len` counts the
        /// occupied slots, no stamp is ahead of the log.
        fn check(&self, log: &InsertLog, live: &[RuleId]) {
            let occupied = self.slots.iter().flatten().count();
            assert_eq!(self.len, occupied, "len");
            for (idx, slot) in self.slots.iter().enumerate() {
                if let Some(slot) = slot {
                    let displaced = self.displacement(idx, &slot.key);
                    assert!(
                        displaced < PROBE_WINDOW,
                        "slot {idx} is {displaced} from home"
                    );
                }
            }
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
        /// Holds the table and the log to their invariants; `live` are
        /// the ids of the installed rules.
        fn check_invariants(&self, live: &[RuleId]) {
            let state = self.state.lock().unwrap();
            state.table.check(&state.log, live);
            let log = &state.log;
            assert!(log.live.len() <= LOG_BOUND);
            assert!(log.live.windows(2).all(|w| w[0].0 < w[1].0), "log order");
            assert!(log.live.iter().all(|(at, ..)| *at < log.next));
            assert!(
                log.live.iter().all(|(_, id, _)| live.contains(id)),
                "the log names a dead rule"
            );
        }

        /// Slots the update paths have looked at so far.
        fn visited(&self) -> u64 {
            self.state.lock().unwrap().table.visited
        }

        /// Headers looked up in the cache so far.
        fn probed(&self) -> u64 {
            self.state.lock().unwrap().table.probed
        }

        /// Entries moved up a slot to make room so far.
        fn shifted(&self) -> u64 {
            self.state.lock().unwrap().table.shifted
        }

        /// Every slot and the log, printed: two engines that print the
        /// same serve the next batch the same.
        fn slot_state(&self) -> String {
            let state = self.state.lock().unwrap();
            format!("{:?} {:?}", state.table.slots, state.log)
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

    /// `inner` behind a cache of `flows` slots.
    fn wrap(inner: Box<dyn PacketClassifier>, flows: usize) -> CachedEngine {
        CachedEngine::new(inner, flows, false, [])
    }

    fn cached(n_rules: u32, flows: usize) -> CachedEngine {
        wrap(build_engine("linear", &rules(n_rules)).unwrap(), flows)
    }

    #[test]
    fn repeat_lookups_hit_the_cache() {
        let e = cached(16, 64);
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
    fn cached_misses_are_cached_too() {
        let e = cached(4, 64);
        assert!(!e.classify(&hdr(999)).is_hit());
        assert!(!e.classify(&hdr(999)).is_hit());
        assert_eq!(e.cache_stats().hits, 1, "a cached miss is still a hit");
    }

    #[test]
    fn insert_through_wrapper_invalidates_targeted() {
        let rs = rules(4);
        let mut e = wrap(build_engine("configurable-bst", &rs).unwrap(), 64);
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
        let mut e = wrap(build_engine("configurable-bst", &rs).unwrap(), 64);
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
        let e = cached(64, PROBE_WINDOW);
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
        let mut e = wrap(build_engine("linear", &rs).unwrap(), 256);
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
        let rs = rules(16);
        let build = || wrap(build_engine("configurable-bst", &rs).unwrap(), 64);
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

    #[test]
    fn slots_pay_for_their_links() {
        // `memory_bits` is `size_of`-based: the verdict stored once buys
        // the stamp and the two links with room to spare (76 bytes when a
        // slot held a whole `Verdict`).
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 44);
    }

    /// Fills an 8 192-slot table with `flows` (distinct) in order and
    /// returns how many of them it evicted and the largest displacement
    /// left behind; every other flow is found again.
    fn place(flows: &[Header]) -> (usize, usize) {
        let mut table = FlowTable::new(8192);
        let (log, verdict) = (InsertLog::default(), Verdict::miss(1));
        let evicted = flows
            .iter()
            .filter(|h| table.insert(**h, &verdict, log.next))
            .count();
        table.check(&log, &[]);
        let displaced = (0..table.slots.len())
            .filter_map(|idx| Some(table.displacement(idx, &table.slots[idx]?.key)))
            .max()
            .unwrap_or(0);
        let found = flows
            .iter()
            .filter(|h| table.get(h, &log).is_some())
            .count();
        assert_eq!(found, flows.len() - evicted);
        assert_eq!(table.len, found);
        (evicted, displaced)
    }

    #[test]
    fn a_run_moves_up_only_if_it_stays_in_its_windows() {
        // In a 64-slot table: a flow at home `h - 1`, eight at home `h`
        // filling `h ..= h + 7`, then a second flow at home `h - 1`. It
        // outranks every one of the eight, but moving them up would take
        // the last out of its window, and the window has no free slot:
        // it evicts instead.
        let mut table = FlowTable::new(64);
        let mut by_home: HashMap<usize, Vec<Header>> = HashMap::new();
        for port in 0..=u16::MAX {
            by_home
                .entry(table.home(&hdr(port)))
                .or_default()
                .push(hdr(port));
        }
        let (h, crowd) = by_home
            .iter()
            .find(|(h, crowd)| crowd.len() >= 8 && by_home[&((*h + 63) % 64)].len() >= 2)
            .unwrap();
        let below = &by_home[&((h + 63) % 64)];
        let (log, verdict) = (InsertLog::default(), Verdict::miss(1));
        for flow in std::iter::once(&below[0]).chain(&crowd[..8]) {
            assert!(!table.insert(*flow, &verdict, log.next));
        }
        assert_eq!(table.displacement((h + 7) % 64, &crowd[7]), 7);
        assert!(table.insert(below[1], &verdict, log.next), "evicts");
        assert_eq!(table.shifted, 0);
        table.check(&log, &[]);
        assert!(crowd[..8].iter().all(|f| table.get(f, &log).is_some()));
    }

    #[test]
    fn placement_quality() {
        use std::collections::HashSet;

        // Flows that differ in one field, by one: what a multiplicative
        // fold with the wrong constant piles onto a few slots, and what
        // a random placement — 4 096 keys in 8 192 slots, windows of 8 —
        // pays 13 to 35 evictions for. Each lands without one.
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
            assert_eq!(place(&flows).0, 0, "{what}");
        }

        // The locality-0.95 populations of every family at 4 096 rules,
        // `flows_hot`'s (ACL, seed 2014) first: some 3 000 flows each in
        // 8 192 slots, nothing to stride over. Robin Hood placement keeps
        // every one in its window, where first-come probing pushed a few
        // of `flows_hot`'s out.
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            for seed in [2014, 1, 2, 3] {
                let mut seen = HashSet::new();
                let flows: Vec<Header> = locality_trace(kind, seed)
                    .into_iter()
                    .filter(|h| seen.insert(*h))
                    .collect();
                let (evicted, displaced) = place(&flows);
                println!(
                    "{kind:?} seed {seed}: {} flows, {evicted} evicted, largest displacement {displaced}",
                    flows.len()
                );
                assert_eq!(evicted, 0, "{kind:?} seed {seed}");
            }
        }
    }

    /// A 65 536-header trace at locality 0.95 over `kind`'s 4 096-rule
    /// set drawn with `seed`, generated as `spc_benchmark` generates
    /// `flows_hot`'s (ACL, seed 2014).
    fn locality_trace(kind: FilterKind, seed: u64) -> Vec<Header> {
        let rules = RuleSetGenerator::new(kind, 4096).seed(seed).generate();
        TraceGenerator::new()
            .seed(seed ^ 0x0074_7261_6365)
            .match_fraction(0.9)
            .locality(0.95)
            .generate(&rules, 65_536)
    }

    /// `flows_hot` reports the reads of its *second* cycle as
    /// `model_reads_per_lookup`, and a seed is an arrival order of the
    /// trace's 256-header bursts: 1.0 on every seed means no order may
    /// leave a flow out of the table after the first cycle. Nothing is
    /// freed, so the flows fill the same slots in any order, and Robin
    /// Hood placement sorts each run of them by home: no order may push
    /// one out of its window either.
    #[test]
    fn placement_quality_across_arrival_orders() {
        let trace = locality_trace(FilterKind::Acl, 2014);
        let verdict = Verdict::miss(1);
        for seed in 1..=48 {
            let mut bursts: Vec<&[Header]> = trace.chunks(256).collect();
            bursts.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut state = CacheState {
                table: FlowTable::new(8192),
                log: InsertLog::default(),
            };
            for cycle in 0..2 {
                for h in bursts.iter().copied().flatten() {
                    if state.probe(h).is_none() {
                        assert_eq!(cycle, 0, "order {seed}: {h:?} reached the engine twice");
                        assert!(
                            !state.install(h, &verdict),
                            "order {seed}: {h:?} evicted a flow"
                        );
                    }
                }
            }
            state.table.check(&state.log, &[]);
        }
    }

    #[test]
    fn updates_visit_only_the_slots_they_drop() {
        let rs = rules(4);
        let mut e = wrap(build_engine("configurable-bst", &rs).unwrap(), 65536);
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
        // dropped on that hit and refilled on the rule's chain, which is
        // all its `remove` walks.
        let id = e.insert(port_rule(700)).unwrap();
        assert_eq!(e.classify(&hdr(700)).rule, Some(id));
        assert_eq!(e.cache_stats().invalidations, 1, "dropped when found stale");
        e.remove(id).unwrap();
        assert_eq!(e.visited(), start + 1, "remove walks the slots it drops");
        assert_eq!(e.cache_stats().invalidations, 2);
        assert!(!e.classify(&hdr(700)).is_hit());

        // Other rules' flows were never touched.
        let before = e.cache_stats().hits;
        e.classify(&hdr(1));
        e.classify(&hdr(2));
        assert_eq!(e.cache_stats().hits, before + 2);
        assert_eq!(e.visited(), start + 1);
        e.check_invariants(&[RuleId(0), RuleId(1), RuleId(2), RuleId(3)]);
    }

    #[test]
    fn a_full_log_sweeps_once_and_restarts() {
        for wrapped in [false, true] {
            let rs = rules(4);
            let mut e = wrap(build_engine("configurable-bst", &rs).unwrap(), 64);
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
                state.table.invalidated >= 1,
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
        // interleaving to a reference rebuilt from the live rules. At
        // `flows=8` forty flows contend for one window: entries move up
        // and are evicted beside the chain churn.
        for (flows, seed) in [(8, 1), (64, 2), (1024, 3)] {
            let mut e = wrap(build_engine("configurable-bst", &rules(16)).unwrap(), flows);
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
            if flows == 8 {
                assert!(stats.evictions > 0 && e.shifted() > 0, "{stats:?}");
            }
        }
    }
}
