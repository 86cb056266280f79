//! [`PacketClassifier`] that partitions the rule set across N inner
//! engines and merges their verdicts by priority.
//!
//! The paper scales by replicating single-field engines in parallel
//! hardware; [`ShardedEngine`] is the software analogue one level up:
//! the [`ShardRouter`] places every rule (by priority band or field
//! hash), one inner [`PacketClassifier`] is built per shard, and every
//! lookup queries all shards, keeping the hit with the best
//! `(priority, global rule id)`. Because each shard sees every header,
//! correctness is independent of the partitioning strategy — the
//! differential oracle enforces exactly that.
//!
//! The strategy decides how a lookup walks the shards, single-shot and
//! batch alike:
//!
//! * [`ShardStrategy::FieldHash`] — every shard is queried and the best
//!   hit kept. The batch path is [`pipeline::broadcast_batch`], the one
//!   scoped topology of the shared [`crate::pipeline`] machinery: each
//!   shard is one [`pipeline::BatchWorker`] (its inner engine's own
//!   `classify_batch` plus the local→global rule-id remap), every
//!   worker sees every chunk, and remapped verdicts stream back to one
//!   merge loop. Shard structures are smaller and (given cores) run
//!   concurrently.
//! * [`ShardStrategy::PriorityBands`] — a partition, not a machine:
//!   bands are totally ordered by `(priority, global id)`, so a hit in
//!   band `k` cannot be beaten by any later band and the lookup stops at
//!   the first band that hits. The batch path is that same early-exit
//!   loop run per header on the calling thread; no speedup is claimed.
//!
//! When every inner engine supports the paper's §V.A fast incremental
//! update (`sharded:inner=configurable-*`), so does the sharded engine:
//! `insert`/`remove` go to the shard the same router names — the hash
//! strategy re-folds the rule's `hash_dim` projection through the hwsim
//! `HashUnit` (opening a fresh shard when a slot gains its first rule),
//! and the priority band strategy places the rule in the band covering
//! its `(priority, global id)` key. Every update is exactly one inner
//! update: bands are never rebalanced, so a band that skewed churn
//! outgrows is a load-balance wart, not a correctness problem.
//! Global ids are allocated monotonically and never reused, so verdict
//! merging and tie-breaks are unaffected by churn.

use crate::pipeline::{self, BatchWorker};
use crate::shard::{RouteTarget, RuleLocation, ShardRouter, ShardStrategy};
use crate::{
    classify_each, BuildError, EngineBuilder, EngineKind, LookupStats, PacketClassifier,
    UpdateError, UpdateReport, Verdict,
};
use spc_types::{Header, Rule, RuleId, RuleSet};

/// One shard: an inner engine plus the local→global rule-id map. Shared
/// with the snapshot wrapper, whose published versions hold its whole
/// inner engine as one of these, frozen behind an `Arc`.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) engine: Box<dyn PacketClassifier>,
    pub(crate) global_ids: Vec<RuleId>,
}

impl Shard {
    /// Builds `inner` over `rules` in their order: local id = position,
    /// mapped back to the global id beside it. `rules` is a slice of a
    /// set the build already checked, or a snapshot writer's live rules,
    /// so it holds no duplicates and is not checked again.
    pub(crate) fn build(
        inner: &EngineBuilder,
        rules: &[(RuleId, Rule)],
    ) -> Result<Self, BuildError> {
        let set: RuleSet = rules.iter().map(|&(_, r)| r).collect();
        Ok(Shard {
            engine: inner.build_unchecked(&set)?,
            global_ids: rules.iter().map(|&(g, _)| g).collect(),
        })
    }

    /// Rewrites a shard-local verdict into global rule-id space.
    pub(crate) fn remap(&self, v: Verdict) -> Verdict {
        Verdict {
            rule: v.rule.map(|id| self.global_ids[id.0 as usize]),
            ..v
        }
    }

    /// Records the global id behind a shard-local id. Inner classifiers
    /// allocate local ids monotonically and never reuse them, so the map
    /// stays a dense vector; slots of removed rules go stale harmlessly
    /// (the inner engine can never hit them again).
    pub(crate) fn set_global(&mut self, local: RuleId, global: RuleId) {
        let idx = local.0 as usize;
        if self.global_ids.len() <= idx {
            self.global_ids.resize(idx + 1, RuleId(u32::MAX));
        }
        self.global_ids[idx] = global;
    }

    /// Rewrites the rule ids an inner engine's [`UpdateError`] carries
    /// into global id space — a shard-local id must never leak through
    /// the sharded engine's API, where it would name an unrelated rule.
    pub(crate) fn remap_error(&self, e: UpdateError) -> UpdateError {
        let global = |local: RuleId| {
            self.global_ids
                .get(local.0 as usize)
                .copied()
                .unwrap_or(local)
        };
        match e {
            UpdateError::Duplicate { existing } => UpdateError::Duplicate {
                existing: global(existing),
            },
            UpdateError::UnknownRule { id } => UpdateError::UnknownRule { id: global(id) },
            other => other,
        }
    }
}

/// Restates an inner engine's update report under the global rule id —
/// or, for an inner that reported nothing, synthesizes a zero-cost one,
/// so a successful update always replaces the report.
pub(crate) fn report_for(raw: Option<UpdateReport>, rule_id: RuleId) -> UpdateReport {
    UpdateReport {
        rule_id,
        ..raw.unwrap_or(UpdateReport {
            rule_id,
            created_labels: 0,
            freed_labels: 0,
            hw_write_cycles: 0,
        })
    }
}

/// A shard is one pool worker: the inner engine's batch path,
/// with every verdict remapped into global rule-id space on the way out.
impl BatchWorker for Shard {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        let stats = self.engine.classify_batch(headers, out);
        for v in out.iter_mut() {
            *v = self.remap(*v);
        }
        stats
    }
}

/// A partitioned multi-classifier backend: N inner engines, one merged
/// verdict. Built by [`crate::EngineBuilder`] from specs like
/// `sharded:inner=configurable-bst,shards=8,strategy=prio`.
///
/// Capability follows the engines actually built, not their registry
/// kind: when every shard supports updates the incremental-update path
/// (the paper's §V.A fast update, routed to the owning shard) is live,
/// and shards churn creates later are built from the same inner builder.
#[derive(Debug)]
pub struct ShardedEngine {
    pub(crate) shards: Vec<Shard>,
    /// The spec-tree node every shard's engine is built from.
    inner: EngineBuilder,
    /// Where every live rule is, and where the next one goes.
    pub(crate) router: ShardRouter,
    last_report: Option<UpdateReport>,
}

impl ShardedEngine {
    /// Places `rules` on at most `shards` shards under `strategy` and
    /// builds one `inner` engine per shard — each provisioned for its
    /// own rules, so Rule Filter autosizing sees the shard's rule count,
    /// not the global one.
    pub(crate) fn new(
        rules: &RuleSet,
        shards: usize,
        strategy: ShardStrategy,
        inner: EngineBuilder,
    ) -> Result<Self, BuildError> {
        let (router, placed) = ShardRouter::place(rules, shards, strategy);
        let shards = placed
            .iter()
            .map(|rules| Shard::build(&inner, rules))
            .collect::<Result<_, _>>()?;
        Ok(ShardedEngine {
            shards,
            inner,
            router,
            last_report: None,
        })
    }

    /// Folds `from` into `into`: the hit with the better
    /// `(priority, global rule id)` wins, memory reads accumulate (all
    /// shards are queried, so every shard's reads are real work). The
    /// merge is commutative and associative, which is what lets the
    /// batch path fold chunks in arrival order.
    fn merge(into: &mut Verdict, from: &Verdict) {
        into.add_reads(from.mem_reads);
        let wins = match (from.rule, into.rule) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(f), Some(i)) => (from.priority, f) < (into.priority, i),
        };
        if wins {
            into.rule = from.rule;
            into.priority = from.priority;
            into.action = from.action;
        }
    }
}

impl PacketClassifier for ShardedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sharded
    }

    fn rules(&self) -> usize {
        self.router.len()
    }

    fn classify(&self, header: &Header) -> Verdict {
        let classify = |shard: &Shard| shard.remap(shard.engine.classify(header));
        match self.router.strategy() {
            // Bands are (priority, id)-ordered: the first band that hits
            // holds the global HPMR, and later bands are never read.
            ShardStrategy::PriorityBands => {
                let mut reads = 0u32;
                for shard in &self.shards {
                    let mut v = classify(shard);
                    v.add_reads(reads);
                    if v.is_hit() {
                        return v;
                    }
                    reads = v.mem_reads;
                }
                Verdict::miss(reads)
            }
            // Hash shards are unordered: query all, keep the best.
            ShardStrategy::FieldHash(_) => {
                let mut merged = Verdict::miss(0);
                for shard in &self.shards {
                    Self::merge(&mut merged, &classify(shard));
                }
                merged
            }
        }
    }

    /// Hash shards fan the batch out over one scoped pool worker per
    /// shard ([`pipeline::broadcast_batch`]) and merge verdict chunks as
    /// they stream back; priority bands run [`Self::classify`]'s
    /// early-exit loop per header, so batch verdicts and `mem_reads` are
    /// the single-shot path's by construction.
    ///
    /// `packets` is the batch length (not shards × batch), `hits` counts
    /// merged hits and `mem_reads` always equals the sum of the emitted
    /// verdicts' reads — for hash shards that is every shard's reads for
    /// every header (N parallel hardware engines all do the work); for
    /// priority bands only the bands a header actually visited.
    fn classify_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        out.clear();
        if headers.is_empty() {
            return LookupStats::default();
        }
        if self.shards.len() == 1 {
            // No fan-out to pay for: one worker, processed inline.
            let mut stats = self.shards[0].process(headers, out);
            stats.hits = out.iter().filter(|v| v.is_hit()).count() as u64;
            return stats;
        }
        if self.router.strategy() == ShardStrategy::PriorityBands {
            return classify_each(headers, out, |h| self.classify(h));
        }

        out.resize(headers.len(), Verdict::miss(0));
        pipeline::broadcast_batch(
            &mut self.shards,
            headers,
            out,
            Self::merge,
            pipeline::DEFAULT_CHUNK,
        );
        LookupStats {
            packets: headers.len() as u64,
            hits: out.iter().filter(|v| v.is_hit()).count() as u64,
            mem_reads: out.iter().map(|v| u64::from(v.mem_reads)).sum(),
        }
    }

    fn memory_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.memory_bits()).sum()
    }

    /// `true` when every inner engine supports updates.
    fn supports_updates(&self) -> bool {
        self.shards.iter().all(|s| s.engine.supports_updates())
    }

    /// Routes the rule to its owning shard — the hash of its
    /// `hash_dim` projection, or the priority band covering its
    /// `(priority, global id)` key — and installs it there. A rule whose
    /// hash slot no shard owns yet goes into a fresh shard, which joins
    /// the engine only once the insert has succeeded.
    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // A failed insert (unsupported, duplicate, inner rejection) must
        // leave the previous report untouched.
        if !self.supports_updates() {
            return Err(UpdateError::Unsupported {
                engine: self.kind().title(),
            });
        }
        // The cross-shard mirror of the Rule Filter's duplicate-key
        // check: under priority bands the collision can live in a
        // different band, where no inner engine would see it.
        if let Some(existing) = self.router.duplicate_of(&rule) {
            return Err(UpdateError::Duplicate { existing });
        }
        // Inner errors carry shard-local ids; translate before they
        // escape into the global-id API.
        let (shard, local) = match self.router.route(&rule) {
            RouteTarget::Existing(shard) => {
                let owner = &mut self.shards[shard];
                let local = owner
                    .engine
                    .insert(rule)
                    .map_err(|e| owner.remap_error(e))?;
                (shard, local)
            }
            RouteTarget::NewShard { slot } => {
                let mut fresh =
                    Shard::build(&self.inner, &[]).map_err(|e| UpdateError::Rejected {
                        reason: e.to_string(),
                    })?;
                let local = fresh
                    .engine
                    .insert(rule)
                    .map_err(|e| fresh.remap_error(e))?;
                let shard = self.shards.len();
                self.router.open_shard(slot, shard);
                self.shards.push(fresh);
                (shard, local)
            }
        };
        let global = self.router.record_insert(rule, shard, local);
        self.shards[shard].set_global(local, global);
        self.last_report = Some(report_for(
            self.shards[shard].engine.last_update_report(),
            global,
        ));
        Ok(global)
    }

    /// Removes a rule from the shard that owns its global id.
    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        if !self.supports_updates() {
            return Err(UpdateError::Unsupported {
                engine: self.kind().title(),
            });
        }
        let Some(&RuleLocation { shard, local, .. }) = self.router.location(id) else {
            return Err(UpdateError::UnknownRule { id });
        };
        let owner = &mut self.shards[shard];
        owner
            .engine
            .remove(local)
            .map_err(|e| owner.remap_error(e))?;
        self.router.record_remove(id);
        // Always replace the report on success, even if the inner
        // backend reported nothing.
        self.last_report = Some(report_for(
            self.shards[shard].engine.last_update_report(),
            id,
        ));
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.last_report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, MatchHandle};
    use spc_types::{Action, PortRange, Priority, ProtoSpec, Rule, RuleSet};

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

    fn sharded(n_rules: u32, shards: usize) -> Box<dyn PacketClassifier> {
        EngineBuilder::from_spec(&format!("sharded:inner=linear,shards={shards}"))
            .unwrap()
            .build(&rules(n_rules))
            .unwrap()
    }

    #[test]
    fn merged_verdicts_carry_global_ids() {
        let mut e = sharded(20, 4);
        assert_eq!(e.rules(), 20);
        assert_eq!(e.kind(), EngineKind::Sharded);
        for port in 0..20u16 {
            let v = e.classify(&hdr(port));
            assert_eq!(v.rule, Some(RuleId(u32::from(port))), "global id restored");
            assert_eq!(v.action, Some(Action::Forward(port)));
        }
        assert!(!e.classify(&hdr(999)).is_hit());
        let trace: Vec<Header> = (0..64).map(|i| hdr(i % 25)).collect();
        let mut out = Vec::new();
        let stats = e.classify_batch(&trace, &mut out);
        assert_eq!(stats.packets, 64);
        assert_eq!(out.len(), 64);
        for (h, v) in trace.iter().zip(&out) {
            assert_eq!(*v, e.classify(h), "batch equals single at {h}");
        }
        assert_eq!(stats.hits, out.iter().filter(|v| v.is_hit()).count() as u64);
        assert_eq!(
            stats.mem_reads,
            out.iter().map(|v| u64::from(v.mem_reads)).sum::<u64>(),
            "folded reads equal the per-verdict sums"
        );
    }

    #[test]
    fn merge_prefers_priority_then_global_id() {
        let hit = |rule: u32, prio: u32, reads: u32| {
            Verdict::hit(
                MatchHandle {
                    id: RuleId(rule),
                    priority: Priority(prio),
                },
                Action::Forward(rule as u16),
                reads,
            )
        };
        let mut m = Verdict::miss(2);
        ShardedEngine::merge(&mut m, &hit(9, 5, 3));
        assert_eq!(m.rule, Some(RuleId(9)));
        assert_eq!(m.mem_reads, 5);
        // Lower priority value wins...
        ShardedEngine::merge(&mut m, &hit(30, 1, 1));
        assert_eq!(m.rule, Some(RuleId(30)));
        // ...equal priority falls back to the lower global id...
        ShardedEngine::merge(&mut m, &hit(12, 1, 1));
        assert_eq!(m.rule, Some(RuleId(12)));
        // ...and a worse hit or miss changes nothing but the reads.
        ShardedEngine::merge(&mut m, &hit(50, 8, 1));
        ShardedEngine::merge(&mut m, &Verdict::miss(4));
        assert_eq!(m.rule, Some(RuleId(12)));
        assert_eq!(m.priority, Some(Priority(1)));
        assert_eq!(m.mem_reads, 12);
    }

    #[test]
    fn single_shard_skips_fanout_but_matches_semantics() {
        let mut one = sharded(12, 1);
        let mut four = sharded(12, 4);
        let trace: Vec<Header> = (0..40).map(|i| hdr(i % 14)).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let sa = one.classify_batch(&trace, &mut a);
        let sb = four.classify_batch(&trace, &mut b);
        // Matches agree; mem_reads legitimately differ (every shard
        // scans its slice, so totals depend on the partition).
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rule, y.rule);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.action, y.action);
        }
        assert_eq!(sa.packets, sb.packets);
        assert_eq!(sa.hits, sb.hits);
    }

    #[test]
    fn batch_on_empty_input_is_empty() {
        let mut e = sharded(8, 2);
        let mut out = vec![Verdict::miss(1)];
        let stats = e.classify_batch(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, LookupStats::default());
    }

    #[test]
    fn memory_and_rules_aggregate() {
        let one = sharded(16, 1);
        let four = sharded(16, 4);
        assert_eq!(one.rules(), four.rules());
        // Four linear shards hold the same rules overall; per-shard
        // structures can only add overhead.
        assert!(four.memory_bits() >= one.memory_bits() / 2);
    }

    #[test]
    fn non_updatable_inner_keeps_updates_unsupported() {
        let mut e = sharded(8, 2); // inner=linear
        assert!(!e.supports_updates());
        assert!(matches!(
            e.insert(Rule::builder(Priority(0)).build()),
            Err(UpdateError::Unsupported { .. })
        ));
        assert!(matches!(
            e.remove(RuleId(0)),
            Err(UpdateError::Unsupported { .. })
        ));
        assert!(e.last_update_report().is_none());
    }

    fn updatable(spec: &str, n_rules: u32) -> ShardedEngine {
        let builder = EngineBuilder::from_spec(spec).unwrap();
        let engine = builder.build_sharded(&rules(n_rules)).unwrap();
        assert!(engine.supports_updates(), "{spec}");
        engine
    }

    #[test]
    fn insert_and_remove_route_to_owning_shard() {
        for strategy in ["prio", "hash"] {
            let spec = format!("sharded:inner=configurable-bst,shards=4,strategy={strategy}");
            let mut e = updatable(&spec, 20);
            let before = e.rules();
            let r = Rule::builder(Priority(3))
                .dst_port(PortRange::exact(500))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Forward(77))
                .build();
            let id = e.insert(r).unwrap();
            assert_eq!(e.rules(), before + 1);
            assert!(id.0 >= 20, "churn ids continue after the planned ones");
            let rep = e.last_update_report().expect("insert must report");
            assert_eq!(rep.rule_id, id);
            assert!(rep.hw_write_cycles >= 3, "§V.A floor");
            let v = e.classify(&hdr(500));
            assert_eq!(v.rule, Some(id), "{spec}");
            assert_eq!(v.action, Some(Action::Forward(77)));
            // Duplicate dims are rejected across shard boundaries, even
            // with a different priority (label keys ignore priority).
            let mut dup = r;
            dup.priority = Priority(9999);
            assert_eq!(
                e.insert(dup),
                Err(UpdateError::Duplicate { existing: id }),
                "{spec}"
            );
            e.remove(id).unwrap();
            let rep = e.last_update_report().expect("remove must report");
            assert_eq!(rep.rule_id, id);
            assert!(!e.classify(&hdr(500)).is_hit());
            assert_eq!(e.rules(), before);
            assert_eq!(e.remove(id), Err(UpdateError::UnknownRule { id }), "{spec}");
            // Batch and single paths agree after churn.
            let trace: Vec<Header> = (0..30).map(|i| hdr(i % 22)).collect();
            let mut out = Vec::new();
            e.classify_batch(&trace, &mut out);
            for (h, v) in trace.iter().zip(&out) {
                assert_eq!(*v, e.classify(h), "{spec} batch-vs-single at {h}");
            }
        }
    }

    #[test]
    fn hash_insert_opens_empty_slot_as_new_shard() {
        // All 12 planned rules share proto 6; hashing on proto fills one
        // slot, so a fresh protocol value must open a new shard.
        let mut e = updatable(
            "sharded:inner=configurable-bst,shards=8,strategy=hash,hash_dim=proto",
            12,
        );
        let shards_before = e.shards.len();
        let mut opened = false;
        for proto in 0u8..30 {
            let r = Rule::builder(Priority(100 + u32::from(proto)))
                .proto(ProtoSpec::Exact(proto))
                .action(Action::Forward(u16::from(proto)))
                .build();
            let id = e.insert(r).unwrap();
            let h = Header::new([9, 9, 9, 9].into(), [8, 8, 8, 8].into(), 1, 999, proto);
            let v = e.classify(&h);
            // Planned rules only match dst_port < 12 headers; port 999
            // headers resolve to the freshly inserted per-proto rule.
            assert_eq!(v.rule, Some(id), "proto {proto}");
            opened |= e.shards.len() > shards_before;
        }
        assert!(opened, "some protocol value must land in an empty slot");
    }

    #[test]
    fn skewed_inserts_keep_band_order() {
        let mut e = updatable("sharded:inner=configurable-bst,shards=2,strategy=prio", 24);
        let bands_before = e.shards.len();
        // Everything lands in the top band: priorities 0..24 already
        // exist, and these all beat them.
        let mut ids = Vec::new();
        let mut cycles = Vec::new();
        for i in 0..80u16 {
            let r = Rule::builder(Priority(0))
                .dst_port(PortRange::exact(1000 + i))
                .proto(ProtoSpec::Exact(17))
                .action(Action::Forward(i))
                .build();
            ids.push(e.insert(r).unwrap());
            cycles.push(e.last_update_report().unwrap().hw_write_cycles);
        }
        assert_eq!(e.shards.len(), bands_before, "bands are never rebalanced");
        assert!(e.router.bands_ordered());
        // Every sharded insert is one inner update (§V.A): in modelled
        // cycles, none of the burst stands out from its median.
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        let (median, max) = (sorted[sorted.len() / 2], sorted[sorted.len() - 1]);
        assert!(
            max <= 10 * median,
            "an insert cost {max} cycles against a median of {median}"
        );
        // Every rule is still reachable under its own id, and the
        // early exit still resolves the right priorities.
        for (i, &id) in ids.iter().enumerate() {
            let port = 1000 + i as u16;
            let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 5, port, 17);
            let v = e.classify(&h);
            assert_eq!(v.rule, Some(id), "port {port}");
            assert_eq!(v.action, Some(Action::Forward(i as u16)), "port {port}");
            assert_eq!(v.priority, Some(Priority(0)));
        }
        for port in 0..24u16 {
            assert!(
                e.classify(&hdr(port)).is_hit(),
                "planned rule {port} survives"
            );
        }
        let trace: Vec<Header> = (0..60)
            .map(|i| Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 5, 990 + i, 17))
            .collect();
        let mut out = Vec::new();
        e.classify_batch(&trace, &mut out);
        for (h, v) in trace.iter().zip(&out) {
            assert_eq!(*v, e.classify(h), "batch-vs-single (reads included) at {h}");
        }
    }

    #[test]
    fn huge_shard_counts_build_only_filled_shards() {
        let rs = rules(6);
        let check = |e: &mut dyn PacketClassifier, what: &str| {
            assert_eq!(e.rules(), 6, "{what}");
            for port in 0..6u16 {
                assert_eq!(
                    e.classify(&hdr(port)).rule,
                    Some(RuleId(port.into())),
                    "{what}"
                );
            }
            let r = Rule::builder(Priority(0))
                .dst_port(PortRange::exact(700))
                .proto(ProtoSpec::Exact(17))
                .build();
            let id = e.insert(r).unwrap();
            let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 7, 700, 17);
            assert_eq!(e.classify(&h).rule, Some(id), "{what}");
        };
        for n in [usize::MAX, 1 << 40] {
            for strategy in ["prio", "hash"] {
                let spec = format!("sharded:shards={n},strategy={strategy}");
                let mut e = crate::build_engine(&spec, &rs).unwrap();
                check(e.as_mut(), &spec);
            }
        }
    }

    #[test]
    fn failed_insert_into_a_fresh_hash_slot_leaves_nothing_behind() {
        // Eight proto-6 rules fill one slot; a port range that expands to
        // 30 TCAM entries fits no 16-entry shard, old or new.
        let mut e = crate::build_engine(
            "sharded:inner=(tcam:capacity=16),shards=8,strategy=hash,hash_dim=proto",
            &rules(8),
        )
        .unwrap();
        let fits = Rule::builder(Priority(50))
            .dst_port(PortRange::exact(100))
            .proto(ProtoSpec::Exact(6))
            .build();
        e.insert(fits).unwrap();
        let probes: Vec<Header> = [hdr(3), hdr(100)]
            .into_iter()
            .chain((0u8..40).map(|p| Header::new([1; 4].into(), [2; 4].into(), 9, 3, p)))
            .collect();
        let observe = |e: &dyn PacketClassifier| {
            let verdicts: Vec<Verdict> = probes.iter().map(|h| e.classify(h)).collect();
            (verdicts, e.memory_bits(), e.rules(), e.last_update_report())
        };
        let before = observe(e.as_ref());
        for proto in 0u8..40 {
            let wide = Rule::builder(Priority(60))
                .src_port(PortRange::new(1, 65_534).unwrap())
                .proto(ProtoSpec::Exact(proto))
                .build();
            let err = e.insert(wide).unwrap_err();
            assert!(
                matches!(err, UpdateError::Rejected { .. }),
                "{proto}: {err}"
            );
            assert_eq!(observe(e.as_ref()), before, "after proto {proto}");
        }
        // The slots stayed free: a rule that fits still opens them.
        for proto in 0u8..40 {
            let r = Rule::builder(Priority(70))
                .dst_port(PortRange::exact(9))
                .proto(ProtoSpec::Exact(proto))
                .build();
            let id = e.insert(r).unwrap();
            let h = Header::new([1; 4].into(), [2; 4].into(), 9, 9, proto);
            assert_eq!(e.classify(&h).rule, Some(id), "proto {proto}");
        }
    }

    #[test]
    fn churn_on_initially_empty_engine() {
        for strategy in ["prio", "hash"] {
            let spec = format!("sharded:inner=configurable-bst,shards=4,strategy={strategy}");
            let builder = EngineBuilder::from_spec(&spec).unwrap();
            let mut e = builder.build_sharded(&RuleSet::new()).unwrap();
            assert!(e.supports_updates(), "{spec}");
            assert_eq!(e.rules(), 0);
            let mut ids = Vec::new();
            for i in 0..20u16 {
                let r = Rule::builder(Priority(u32::from(i)))
                    .dst_port(PortRange::exact(i))
                    .proto(ProtoSpec::Exact(6))
                    .action(Action::Forward(i))
                    .build();
                ids.push(e.insert(r).unwrap());
            }
            for (i, &id) in ids.iter().enumerate() {
                let v = e.classify(&hdr(i as u16));
                assert_eq!(v.rule, Some(id), "{spec}");
            }
            for &id in &ids {
                e.remove(id).unwrap();
            }
            assert_eq!(e.rules(), 0);
            assert!(!e.classify(&hdr(3)).is_hit(), "{spec}");
        }
    }
}
