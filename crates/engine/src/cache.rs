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
//! All updates flow *through* the wrapper (it owns the inner engine), so
//! invalidation is wrapper-mediated and targeted:
//!
//! * `remove(id)` — drop cached entries whose matched rule is `id`.
//!   Misses stay valid: removing a rule can never turn a miss into a hit.
//! * `insert(rule)` — drop microflow entries the new rule matches. If
//!   the fold mask tightened, every megaflow key is stale: full megaflow
//!   flush; otherwise drop only megaflow classes the new rule can match.
//!
//! As a defensive fallback the wrapper also snapshots the inner engine's
//! [`PacketClassifier::update_epoch`] after each synchronisation; if a
//! lookup ever observes a different epoch (an out-of-band update through
//! [`CachedEngine::inner_mut`]), the whole cache is flushed before
//! serving — stale verdicts are never returned.
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

use crate::{EngineKind, LookupStats, PacketClassifier, UpdateError, UpdateReport, Verdict};
use spc_types::{Header, MaskSummary, Rule, RuleId, ALL_DIMS};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounded linear-probe window: a key lives within this many slots of
/// its home position or not at all.
const PROBE_WINDOW: usize = 8;

/// One cached flow: key, verdict, and the matched rule (if any) for
/// targeted invalidation, plus the clock reference bit.
#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    key: K,
    verdict: Verdict,
    referenced: bool,
}

/// An open-addressed, power-of-two flow table with clock eviction.
///
/// Generic over the key so the microflow layer ([`Header`] keys) and the
/// megaflow layer (masked-query `[u16; 7]` keys) share one
/// implementation.
#[derive(Debug)]
struct FlowTable<K> {
    slots: Vec<Option<Entry<K>>>,
    /// `slots.len() - 1`; capacity is a power of two.
    mask: usize,
    len: usize,
}

impl<K: Hash + Eq + Copy> FlowTable<K> {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(PROBE_WINDOW);
        FlowTable {
            slots: vec![None; capacity],
            mask: capacity - 1,
            len: 0,
        }
    }

    fn home(&self, key: &K) -> usize {
        // DefaultHasher is deterministic for a fixed key within one
        // process — exactly what a lookup table needs; no DoS surface
        // since keys come from the local workload, not an adversary.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & self.mask
    }

    /// Probes for `key`; on a hit sets the reference bit and returns the
    /// cached verdict.
    fn get(&mut self, key: &K) -> Option<Verdict> {
        let home = self.home(key);
        for i in 0..PROBE_WINDOW {
            let slot = (home + i) & self.mask;
            if let Some(e) = &mut self.slots[slot] {
                if e.key == *key {
                    e.referenced = true;
                    return Some(e.verdict);
                }
            }
        }
        None
    }

    /// Installs (or refreshes) `key -> verdict`. Returns `true` when an
    /// unrelated entry was evicted to make room.
    fn insert(&mut self, key: K, verdict: Verdict) -> bool {
        let home = self.home(&key);
        // First pass: refresh an existing entry or take a free slot.
        for i in 0..PROBE_WINDOW {
            let slot = (home + i) & self.mask;
            match &mut self.slots[slot] {
                Some(e) if e.key == key => {
                    e.verdict = verdict;
                    e.referenced = true;
                    return false;
                }
                None => {
                    self.slots[slot] = Some(Entry {
                        key,
                        verdict,
                        referenced: true,
                    });
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
            let slot = (home + i) & self.mask;
            match &mut self.slots[slot] {
                // Unreachable (the first pass would have taken a free
                // slot), but a free slot is also the perfect victim.
                None => {
                    victim = slot;
                    break;
                }
                Some(e) if e.referenced => e.referenced = false,
                Some(_) => {
                    victim = slot;
                    break;
                }
            }
        }
        self.slots[victim] = Some(Entry {
            key,
            verdict,
            referenced: true,
        });
        true
    }

    /// Drops every entry `pred` selects; returns how many were dropped.
    fn retain_not(&mut self, mut pred: impl FnMut(&K, &Verdict) -> bool) -> u64 {
        let mut dropped = 0;
        for slot in &mut self.slots {
            if let Some(e) = slot {
                if pred(&e.key, &e.verdict) {
                    *slot = None;
                    self.len -= 1;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.len = 0;
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The mutable cache state behind the wrapper's lock: both layers plus
/// the fold mask the megaflow keys were computed under.
#[derive(Debug)]
struct CacheState {
    micro: FlowTable<Header>,
    mega: Option<FlowTable<[u16; 7]>>,
    /// OR of every installed rule's [`MaskSummary`] — the megaflow key
    /// mask. Kept *covering* (never shrunk on remove): a too-wide fold
    /// only splits classes finer, which stays sound.
    fold: MaskSummary,
}

impl CacheState {
    /// Drops both layers and widens the fold to all-care (without the
    /// rule list the fold cannot be recomputed; all-care classes are
    /// finer, which stays sound).
    fn flush(&mut self) {
        self.micro.clear();
        if let Some(mega) = &mut self.mega {
            mega.clear();
        }
        self.fold = MaskSummary {
            masks: [u16::MAX; 7],
        };
    }

    /// Targeted invalidation after a successful `insert` through the
    /// wrapper. Returns `(entries dropped, megaflow flushed)`.
    fn invalidate_for_insert(&mut self, rule: &Rule) -> (u64, bool) {
        // Microflow: the new rule can only change verdicts of headers
        // it matches.
        let mut dropped = self.micro.retain_not(|h, _| rule.matches(h));
        let mut flushed = false;
        let new_fold = self.fold.or(MaskSummary::of_rule(rule));
        if let Some(mega) = &mut self.mega {
            if new_fold == self.fold {
                // Fold unchanged: keys stay valid; drop only the masked
                // classes the new rule can match. Exact because the
                // rule's own mask is covered by the fold.
                dropped += mega.retain_not(|key, _| {
                    ALL_DIMS
                        .iter()
                        .enumerate()
                        .all(|(i, d)| rule.dim_value(*d).matches(key[i]))
                });
            } else {
                // Fold tightened: every megaflow key was computed under
                // a narrower mask — all stale.
                mega.clear();
                flushed = true;
            }
        }
        self.fold = new_fold;
        (dropped, flushed)
    }

    /// Targeted invalidation after a successful `remove` through the
    /// wrapper: drop entries whose matched rule is gone. Misses stay
    /// valid (removing a rule can never turn a miss into a hit), and
    /// the fold is deliberately left wide (see [`CacheState::fold`]).
    /// Returns the number of entries dropped.
    fn invalidate_for_remove(&mut self, id: RuleId) -> u64 {
        let hit_on = |v: &Verdict| v.matched.is_some_and(|m| m.id == id);
        let mut dropped = self.micro.retain_not(|_, v| hit_on(v));
        if let Some(mega) = &mut self.mega {
            dropped += mega.retain_not(|_, v| hit_on(v));
        }
        dropped
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
    /// Entries dropped by targeted invalidation after an update.
    pub invalidations: u64,
    /// Whole-layer flushes (fold tightened, or epoch fallback).
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
/// protocol); the wrapper delegates epoch/report accounting to the
/// inner engine so the [`PacketClassifier::update_epoch`] contract holds
/// through the cache.
#[derive(Debug)]
pub struct CachedEngine {
    inner: Box<dyn PacketClassifier>,
    state: Mutex<CacheState>,
    /// The inner epoch the cache last synchronised with; a mismatch at
    /// lookup time (out-of-band update) triggers the full-flush
    /// fallback.
    seen_epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    flushes: AtomicU64,
    /// Scratch for the batch path: indices of headers that missed.
    miss_idx: Vec<usize>,
    miss_headers: Vec<Header>,
    miss_verdicts: Vec<Verdict>,
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
        let fold = MaskSummary::fold(rules);
        let seen = inner.update_epoch();
        CachedEngine {
            inner,
            state: Mutex::new(CacheState {
                micro: FlowTable::new(flows),
                mega: megaflow.then(|| FlowTable::new(flows)),
                fold,
            }),
            seen_epoch: AtomicU64::new(seen),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            miss_idx: Vec::new(),
            miss_headers: Vec::new(),
            miss_verdicts: Vec::new(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &dyn PacketClassifier {
        &*self.inner
    }

    /// Mutable access to the wrapped engine — an *out-of-band* channel:
    /// updates applied here bypass the wrapper's targeted invalidation.
    /// The epoch fallback catches them (next lookup flushes everything),
    /// which is exactly what this accessor exists to let tests prove.
    pub fn inner_mut(&mut self) -> &mut dyn PacketClassifier {
        &mut *self.inner
    }

    /// Whether the megaflow layer is enabled.
    pub fn has_megaflow(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .mega
            .is_some()
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// A cache hit re-reported as one wide memory read: whatever the
    /// inner lookup cost when the entry was populated, serving it again
    /// costs a single cache-line access in the hardware model.
    fn as_cache_hit(v: Verdict) -> Verdict {
        Verdict { mem_reads: 1, ..v }
    }

    /// Flushes both layers if the inner epoch moved without the wrapper
    /// seeing the update (out-of-band churn through
    /// [`CachedEngine::inner_mut`]).
    fn flush_if_stale(&self, state: &mut CacheState) {
        let epoch = self.inner.update_epoch();
        if self.seen_epoch.swap(epoch, Ordering::Relaxed) != epoch {
            state.flush();
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Probes both layers; `None` means fall through to the inner
    /// engine.
    fn probe(&self, state: &mut CacheState, header: &Header) -> Option<Verdict> {
        if let Some(v) = state.micro.get(header) {
            return Some(Self::as_cache_hit(v));
        }
        let fold = state.fold;
        if let Some(mega) = &mut state.mega {
            if let Some(v) = mega.get(&fold.masked_query(header)) {
                return Some(Self::as_cache_hit(v));
            }
        }
        None
    }

    /// Installs an inner verdict into both layers.
    fn install(&self, state: &mut CacheState, header: &Header, verdict: Verdict) {
        let mut evicted = u64::from(state.micro.insert(*header, verdict));
        let fold = state.fold;
        if let Some(mega) = &mut state.mega {
            evicted += u64::from(mega.insert(fold.masked_query(header), verdict));
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

impl PacketClassifier for CachedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Cached
    }

    fn name(&self) -> &'static str {
        "Cached"
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
            self.flush_if_stale(&mut state);
            if let Some(v) = self.probe(&mut state, header) {
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
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.install(&mut state, header, verdict);
        verdict
    }

    /// Two-pass batch: probe every header, batch only the misses into
    /// the inner engine's amortised path, then merge and populate. A
    /// repeat of a flow that is *already pending* in the miss list is
    /// deduplicated — it never reaches the inner engine and is served as
    /// a cache hit once the first occurrence's verdict lands, so a cold
    /// cache still amortises a high-locality batch. With flow locality
    /// most headers never reach the inner engine — this is where the
    /// cache's throughput win comes from.
    fn classify_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        out.clear();
        let epoch = self.inner.update_epoch();
        let state = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.seen_epoch.swap(epoch, Ordering::Relaxed) != epoch {
            state.flush();
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        out.resize(headers.len(), Verdict::miss(0));
        self.miss_idx.clear();
        self.miss_headers.clear();
        let mut stats = LookupStats::default();
        // Headers queued for the inner engine this batch, mapped to their
        // position in `miss_headers`; repeats resolve here instead of
        // costing a second inner lookup.
        let mut pending: HashMap<Header, usize> = HashMap::new();
        // (out slot, miss position) for deduplicated repeats.
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (i, h) in headers.iter().enumerate() {
            if let Some(v) = {
                if let Some(v) = state.micro.get(h) {
                    Some(Self::as_cache_hit(v))
                } else {
                    let fold = state.fold;
                    state
                        .mega
                        .as_mut()
                        .and_then(|mega| mega.get(&fold.masked_query(h)))
                        .map(Self::as_cache_hit)
                }
            } {
                out[i] = v;
                stats.absorb(&v);
            } else if let Some(&m) = pending.get(h) {
                dups.push((i, m));
            } else {
                pending.insert(*h, self.miss_headers.len());
                self.miss_idx.push(i);
                self.miss_headers.push(*h);
            }
        }
        let probe_hits = stats.packets;

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
                evicted += u64::from(state.micro.insert(*h, *v));
                let fold = state.fold;
                if let Some(mega) = &mut state.mega {
                    evicted += u64::from(mega.insert(fold.masked_query(h), *v));
                }
            }
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        for &(slot, m) in &dups {
            let v = Self::as_cache_hit(self.miss_verdicts[m]);
            out[slot] = v;
            stats.absorb(&v);
        }

        // Nested caches (e.g. sharded-of-cached) already folded their own
        // cache counters in via `inner_stats` — add, never overwrite.
        let batch_hits = probe_hits + dups.len() as u64;
        stats.cache_hits = stats.cache_hits.saturating_add(batch_hits);
        stats.cache_misses = stats
            .cache_misses
            .saturating_add(self.miss_headers.len() as u64);
        self.hits.fetch_add(batch_hits, Ordering::Relaxed);
        self.misses
            .fetch_add(self.miss_headers.len() as u64, Ordering::Relaxed);
        stats
    }

    fn memory_bits(&self) -> u64 {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let micro_bits =
            (state.micro.capacity() * std::mem::size_of::<Option<Entry<Header>>>()) as u64 * 8;
        let mega_bits = state.mega.as_ref().map_or(0, |m| {
            (m.capacity() * std::mem::size_of::<Option<Entry<[u16; 7]>>>()) as u64 * 8
        });
        self.inner.memory_bits() + micro_bits + mega_bits
    }

    fn supports_updates(&self) -> bool {
        self.inner.supports_updates()
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // A failed inner insert changes nothing (no epoch bump, no
        // report replacement — the inner backend guarantees it), so the
        // cache stays valid untouched.
        let id = self.inner.insert(rule)?;
        let (dropped, flushed) = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .invalidate_for_insert(&rule);
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        self.flushes
            .fetch_add(u64::from(flushed), Ordering::Relaxed);
        self.seen_epoch
            .store(self.inner.update_epoch(), Ordering::Relaxed);
        Ok(id)
    }

    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        self.inner.remove(id)?;
        let dropped = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .invalidate_for_remove(id);
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        self.seen_epoch
            .store(self.inner.update_epoch(), Ordering::Relaxed);
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.inner.last_update_report()
    }

    fn update_epoch(&self) -> u64 {
        self.inner.update_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_engine, EngineBuilder};
    use spc_types::{Action, PortRange, Priority, ProtoSpec, RuleSet};

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
    fn out_of_band_update_triggers_epoch_flush() {
        let rs = rules(4);
        let inner = build_engine("configurable-bst", &rs).unwrap();
        let mut e = CachedEngine::new(inner, 64, true, rs.rules());
        assert!(!e.classify(&hdr(800)).is_hit());
        // Bypass the wrapper: the cache cannot see this insert.
        let r = Rule::builder(Priority(0))
            .dst_port(PortRange::exact(800))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Drop)
            .build();
        e.inner_mut().insert(r).unwrap();
        // The epoch fallback must flush before serving the stale miss.
        let v = e.classify(&hdr(800));
        assert_eq!(v.action, Some(Action::Drop));
        assert!(e.cache_stats().flushes > 0, "epoch mismatch flushed");
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
        assert_eq!(stats.cache_hits + stats.cache_misses, 200);
        assert!(stats.cache_hits >= 192, "8 distinct flows, 200 packets");
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
}
