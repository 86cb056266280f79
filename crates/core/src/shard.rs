//! Shard-aware rule-set splitting.
//!
//! The paper scales its hardware by replicating single-field engines in
//! parallel; the software analogue is to partition one [`RuleSet`] across
//! N independent classifiers and merge their verdicts by priority. This
//! module owns the *partitioning* half of that story: a pluggable
//! [`ShardStrategy`] and a [`plan`] function that splits a rule set into
//! per-shard [`ShardSlice`]s while remembering, for every shard-local
//! rule id, which global rule it came from.
//!
//! Correctness does not depend on the strategy: a sharded classifier
//! queries *every* shard and keeps the highest-priority hit, so any
//! assignment of rules to shards yields the same merged verdict (under
//! priority bands, which are ordered, it may stop at the first band
//! that hits). The strategy only shapes load balance and per-shard
//! structure size; nothing here moves a rule between shards after it
//! is placed.

use spc_hwsim::HashUnit;
use spc_types::{Dim, DimValue, Priority, Rule, RuleId, RuleSet};
use std::collections::{BTreeSet, HashMap};

/// How rules are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous priority bands: rules are sorted by `(priority, id)` and
    /// cut into equal-sized runs, so shard 0 holds the highest-priority
    /// band. High-priority traffic then resolves entirely inside one
    /// small structure, and band boundaries make shard contents easy to
    /// reason about.
    PriorityBands,
    /// Deterministic hash of the rule's projection onto one 16-bit lookup
    /// dimension, folded through the same [`HashUnit`] the Rule Filter
    /// uses — the software mirror of the paper's per-field engines.
    /// Rules sharing a field value (and hence a label) land in the same
    /// shard, which keeps per-shard label tables dense.
    FieldHash(Dim),
}

/// One shard's slice of the original rule set.
///
/// `rules` re-indexes the shard's rules from zero (every inner classifier
/// sees a dense, self-contained [`RuleSet`]); `global_ids[local]` recovers
/// the id the rule had in the original set. Priorities are preserved
/// verbatim, and rules are pushed in ascending global-id order, so a
/// priority tie inside a shard resolves to the lowest *global* id — the
/// same tie-break [`RuleSet::classify`] uses.
#[derive(Debug, Clone, Default)]
pub struct ShardSlice {
    /// The shard's rules, re-indexed from zero.
    pub rules: RuleSet,
    /// Maps shard-local [`RuleId`] index to the global [`RuleId`].
    pub global_ids: Vec<RuleId>,
}

impl ShardSlice {
    /// Translates a shard-local rule id back to the global id.
    pub fn global_id(&self, local: RuleId) -> RuleId {
        self.global_ids[local.0 as usize]
    }
}

/// The outcome of splitting a rule set: one [`ShardSlice`] per shard.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The strategy that produced this plan.
    pub strategy: ShardStrategy,
    /// Per-shard slices. Never empty; slices with zero rules are dropped,
    /// so `shards.len()` can be smaller than the requested count (an
    /// empty input yields one empty slice).
    pub shards: Vec<ShardSlice>,
}

/// Encodes a rule's field projection as a stable hash key.
///
/// The encoding is injective per [`DimValue`] variant (discriminant byte
/// plus the value's canonical fields), so equal projections — which the
/// label method would give one label — always hash to the same shard.
fn dim_key(v: DimValue) -> u128 {
    match v {
        DimValue::Seg(s) => (1u128 << 64) | (u128::from(s.value()) << 8) | u128::from(s.len()),
        DimValue::Port(r) => (2u128 << 64) | (u128::from(r.lo()) << 16) | u128::from(r.hi()),
        DimValue::Proto(p) => match p {
            spc_types::ProtoSpec::Any => 3u128 << 64,
            spc_types::ProtoSpec::Exact(x) => (4u128 << 64) | u128::from(x),
        },
    }
}

/// The hash slot (in `0..n`, `n` = *requested* shard count) that owns
/// `rule` under [`ShardStrategy::FieldHash`] on `dim`.
///
/// Folds through the hardware [`HashUnit`] at the smallest width that
/// addresses every shard, then reduces modulo the count. Shared by
/// [`plan`] (build-time placement) and [`ShardRouter`] (churn-time
/// routing) so the two always agree on ownership.
pub fn hash_slot(dim: Dim, n: usize, rule: &Rule) -> usize {
    let n = n.max(1);
    let bits = (usize::BITS - (n - 1).max(1).leading_zeros()).clamp(1, 32);
    HashUnit::new(bits).fold(dim_key(rule.dim_value(dim))) % n
}

/// Splits `rules` into at most `shards` slices under `strategy`.
///
/// A requested count of 0 is treated as 1. Empty slices are dropped (a
/// hash strategy over few distinct field values may fill fewer shards
/// than requested); an empty input produces a single empty slice so
/// callers always have at least one shard to build.
pub fn plan(rules: &RuleSet, shards: usize, strategy: ShardStrategy) -> ShardPlan {
    let n = shards.max(1);
    let mut slices: Vec<ShardSlice> = (0..n).map(|_| ShardSlice::default()).collect();
    match strategy {
        ShardStrategy::PriorityBands => {
            // Sort global ids by (priority, id), then cut contiguous bands.
            let mut order: Vec<(Priority, RuleId, &Rule)> =
                rules.iter().map(|(id, r)| (r.priority, id, r)).collect();
            order.sort_unstable_by_key(|&(p, id, _)| (p, id));
            let band = order.len().div_ceil(n).max(1);
            for (pos, (_, id, rule)) in order.into_iter().enumerate() {
                let slice = &mut slices[(pos / band).min(n - 1)];
                slice.rules.push(*rule);
                slice.global_ids.push(id);
            }
            // Bands are built in sorted order, which can interleave the
            // global-id order inside a band; restore ascending global id
            // so local tie-breaks equal global tie-breaks.
            for slice in &mut slices {
                let mut pairs: Vec<(RuleId, Rule)> = slice
                    .global_ids
                    .iter()
                    .copied()
                    .zip(slice.rules.rules().iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|&(id, _)| id);
                slice.global_ids = pairs.iter().map(|&(id, _)| id).collect();
                slice.rules = pairs.into_iter().map(|(_, r)| r).collect();
            }
        }
        ShardStrategy::FieldHash(dim) => {
            for (id, rule) in rules.iter() {
                let shard = hash_slot(dim, n, rule);
                slices[shard].rules.push(*rule);
                slices[shard].global_ids.push(id);
            }
        }
    }
    slices.retain(|s| !s.rules.is_empty());
    if slices.is_empty() {
        slices.push(ShardSlice::default());
    }
    ShardPlan {
        strategy,
        shards: slices,
    }
}

/// Where [`ShardRouter::route`] says an insert should land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTarget {
    /// An existing live shard owns the rule.
    Existing(usize),
    /// No live shard owns the rule yet: its hash slot is empty. The
    /// caller must build a fresh inner classifier, append it as the
    /// next shard, and claim the slot via [`ShardRouter::register_shard`].
    NewShard {
        /// The empty hash slot the rule folds to.
        slot: usize,
    },
}

/// A live rule's location: which shard holds it, under which
/// shard-local id, and the rule itself (needed to key the duplicate
/// index and the band key set on removal).
#[derive(Debug, Clone, Copy)]
pub struct RuleLocation {
    /// Index of the owning shard.
    pub shard: usize,
    /// The rule's id inside that shard's classifier.
    pub local: RuleId,
    /// The installed rule.
    pub rule: Rule,
}

/// Live routing state for an updatable sharded classifier — the
/// build-once [`ShardPlan`] turned into a bidirectional map that
/// survives churn.
///
/// [`plan`] assigns rules to shards exactly once; incremental updates
/// need the same decisions answerable forever after: which shard owns a
/// new rule (`route`), which shard holds an installed global id
/// (`location`), and what the shard-local id maps back to (the engine
/// layer keeps the local→global direction next to each inner engine,
/// this router keeps global→local). It also owns the two pieces of
/// bookkeeping the strategies need under churn: the hash-slot→shard
/// table (slots can gain their first rule after build) and the per-band
/// ordered key sets that route an insert to its band and keep the
/// `(priority, global id)` cascade invariant checkable.
///
/// The router records decisions; it never touches classifiers. The
/// engine layer performs the actual insert/remove and reports the
/// resulting shard-local ids back via [`ShardRouter::record_insert`] /
/// [`ShardRouter::record_remove`].
#[derive(Debug, Clone)]
pub struct ShardRouter {
    strategy: ShardStrategy,
    /// Hash strategy: requested-slot → live-shard table (`None` = the
    /// slot has never held a rule; the plan drops empty slices).
    slots: Vec<Option<usize>>,
    /// Priority-band strategy: each band's live `(priority, id)` keys,
    /// ordered — band `k`'s greatest key is below band `k+1`'s smallest.
    bands: Vec<BTreeSet<(Priority, RuleId)>>,
    /// Live rule count per shard (both strategies).
    lens: Vec<usize>,
    /// Global id → live location.
    entries: HashMap<u32, RuleLocation>,
    /// Dimension-projection → live global ids, the sharded mirror of the
    /// Rule Filter's duplicate-key check: under priority bands two rules
    /// with identical projections can land in *different* shards, where
    /// no inner classifier would spot the collision. A multi-map rather
    /// than a map because a *planned* set may legally carry projection
    /// twins split across bands (each inner built fine); removing one
    /// twin must not make the survivors invisible to the check.
    dups: HashMap<[DimValue; 7], Vec<RuleId>>,
    /// Next global id to hand out (never reused, so ids stay monotonic
    /// and the lowest-id tie-break matches insertion order).
    next_global: u32,
}

impl ShardRouter {
    /// Builds the live router describing exactly the rules of `plan`.
    ///
    /// `requested` is the shard count the plan was asked for (before
    /// empty slices were dropped); the hash strategy needs it to keep
    /// folding rules onto the same slots.
    pub fn from_plan(plan: &ShardPlan, requested: usize) -> Self {
        let n = requested.max(1);
        let mut router = ShardRouter {
            strategy: plan.strategy,
            slots: match plan.strategy {
                ShardStrategy::FieldHash(_) => vec![None; n],
                ShardStrategy::PriorityBands => Vec::new(),
            },
            bands: match plan.strategy {
                ShardStrategy::PriorityBands => vec![BTreeSet::new(); plan.shards.len()],
                ShardStrategy::FieldHash(_) => Vec::new(),
            },
            lens: vec![0; plan.shards.len()],
            entries: HashMap::new(),
            dups: HashMap::new(),
            next_global: 0,
        };
        for (shard, slice) in plan.shards.iter().enumerate() {
            if let ShardStrategy::FieldHash(dim) = plan.strategy {
                // Every rule of a slice folds to the same slot; recover
                // it from the first one.
                if let Some((_, first)) = slice.rules.iter().next() {
                    router.slots[hash_slot(dim, n, first)] = Some(shard);
                }
            }
            for (local, rule) in slice.rules.iter() {
                let global = slice.global_id(local);
                router.install(global, *rule, shard, local);
                router.next_global = router.next_global.max(global.0 + 1);
            }
        }
        router
    }

    fn install(&mut self, global: RuleId, rule: Rule, shard: usize, local: RuleId) {
        if self.strategy == ShardStrategy::PriorityBands {
            self.bands[shard].insert((rule.priority, global));
        }
        self.lens[shard] += 1;
        self.dups.entry(rule.dim_values()).or_default().push(global);
        self.entries
            .insert(global.0, RuleLocation { shard, local, rule });
    }

    /// Live rule count across all shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no rules are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of live shards (grows when churn creates one).
    pub fn shard_count(&self) -> usize {
        self.lens.len()
    }

    /// Live rule count of one shard.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.lens[shard]
    }

    /// The earliest-installed live rule with a dimension projection
    /// identical to `rule`'s, if any — the same collision the Rule
    /// Filter's duplicate-key check rejects, detected across shard
    /// boundaries.
    pub fn duplicate_of(&self, rule: &Rule) -> Option<RuleId> {
        self.dups
            .get(&rule.dim_values())
            .and_then(|ids| ids.first())
            .copied()
    }

    /// Which shard an insert of `rule` must target.
    ///
    /// Hash strategy: the rule's slot, or [`RouteTarget::NewShard`] when
    /// that slot has no live shard yet. Priority bands: the first band
    /// whose greatest `(priority, id)` key exceeds the rule's prospective
    /// key — every earlier band's keys are provably smaller, so placing
    /// the rule there preserves the cascade invariant; a rule beyond
    /// every band's range joins the last band.
    pub fn route(&self, rule: &Rule) -> RouteTarget {
        match self.strategy {
            ShardStrategy::FieldHash(dim) => {
                let slot = hash_slot(dim, self.slots.len(), rule);
                match self.slots[slot] {
                    Some(shard) => RouteTarget::Existing(shard),
                    None => RouteTarget::NewShard { slot },
                }
            }
            ShardStrategy::PriorityBands => {
                let key = (rule.priority, RuleId(self.next_global));
                let band = self
                    .bands
                    .iter()
                    .position(|b| b.last().is_some_and(|&hi| hi > key))
                    .unwrap_or(self.bands.len() - 1);
                RouteTarget::Existing(band)
            }
        }
    }

    /// Claims an empty hash `slot` for a freshly created shard, which
    /// the caller must have appended after the existing ones; returns
    /// the new shard's index.
    ///
    /// # Panics
    ///
    /// Panics if the strategy is not [`ShardStrategy::FieldHash`] or the
    /// slot is already claimed.
    pub fn register_shard(&mut self, slot: usize) -> usize {
        assert!(
            matches!(self.strategy, ShardStrategy::FieldHash(_)),
            "only hash slots create shards on demand"
        );
        assert!(self.slots[slot].is_none(), "slot {slot} already claimed");
        let shard = self.lens.len();
        self.lens.push(0);
        self.slots[slot] = Some(shard);
        shard
    }

    /// Records a successful insert into `shard` under shard-local id
    /// `local`, allocating and returning the rule's global id.
    pub fn record_insert(&mut self, rule: Rule, shard: usize, local: RuleId) -> RuleId {
        let global = RuleId(self.next_global);
        self.next_global += 1;
        self.install(global, rule, shard, local);
        global
    }

    /// The live location of a global id.
    pub fn location(&self, id: RuleId) -> Option<&RuleLocation> {
        self.entries.get(&id.0)
    }

    /// Records a successful removal, returning where the rule lived
    /// (`None` if the id was never installed or already removed).
    pub fn record_remove(&mut self, id: RuleId) -> Option<RuleLocation> {
        let loc = self.entries.remove(&id.0)?;
        self.lens[loc.shard] -= 1;
        // Drop only this id from the projection's twin list; a planned
        // set can hold several live rules with one projection.
        if let Some(ids) = self.dups.get_mut(&loc.rule.dim_values()) {
            ids.retain(|&g| g != id);
            if ids.is_empty() {
                self.dups.remove(&loc.rule.dim_values());
            }
        }
        if self.strategy == ShardStrategy::PriorityBands {
            self.bands[loc.shard].remove(&(loc.rule.priority, id));
        }
        Some(loc)
    }

    /// Checks the cascade invariant: every band's keys lie strictly
    /// below the next non-empty band's. Test/debug aid.
    pub fn bands_ordered(&self) -> bool {
        let mut prev: Option<(Priority, RuleId)> = None;
        for band in &self.bands {
            if let (Some(p), Some(&lo)) = (prev, band.first()) {
                if lo <= p {
                    return false;
                }
            }
            prev = band.last().copied().or(prev);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{PortRange, Priority, ProtoSpec, Rule};

    fn set(n: u32) -> RuleSet {
        (0..n)
            .map(|i| {
                Rule::builder(Priority(n - 1 - i)) // descending priority values
                    .dst_port(PortRange::exact(i as u16))
                    .proto(ProtoSpec::Exact((i % 2) as u8 * 11 + 6))
                    .build()
            })
            .collect()
    }

    fn assert_partition(rules: &RuleSet, p: &ShardPlan) {
        let total: usize = p.shards.iter().map(|s| s.rules.len()).sum();
        assert_eq!(total, rules.len());
        let mut seen: Vec<RuleId> = p
            .shards
            .iter()
            .flat_map(|s| s.global_ids.iter().copied())
            .collect();
        seen.sort_unstable();
        let want: Vec<RuleId> = rules.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, want, "every rule lands in exactly one shard");
        for s in &p.shards {
            assert_eq!(s.rules.len(), s.global_ids.len());
            for (local, rule) in s.rules.iter() {
                assert_eq!(rules.get(s.global_id(local)), Some(rule), "rules intact");
            }
            // Local order must be ascending global id so the lowest-id
            // tie-break survives re-indexing.
            assert!(s.global_ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn priority_bands_partition_and_order() {
        let rules = set(10);
        let p = plan(&rules, 3, ShardStrategy::PriorityBands);
        assert_partition(&rules, &p);
        assert!(p.shards.len() <= 3);
        // Band 0 holds the highest-priority (smallest Priority) rules.
        let band0_max = p.shards[0]
            .rules
            .rules()
            .iter()
            .map(|r| r.priority)
            .max()
            .unwrap();
        let band_last_min = p
            .shards
            .last()
            .unwrap()
            .rules
            .rules()
            .iter()
            .map(|r| r.priority)
            .min()
            .unwrap();
        assert!(
            !band_last_min.beats(band0_max),
            "bands are ordered by priority"
        );
    }

    #[test]
    fn field_hash_partitions_and_groups_equal_values() {
        let rules = set(64);
        for dim in [Dim::DstPort, Dim::Proto, Dim::SipHi] {
            let p = plan(&rules, 4, ShardStrategy::FieldHash(dim));
            assert_partition(&rules, &p);
        }
        // Only two distinct protocol values exist, so hashing on Proto
        // fills at most two shards — and both rules of a value co-locate.
        let p = plan(&rules, 8, ShardStrategy::FieldHash(Dim::Proto));
        assert!(p.shards.len() <= 2, "{} shards", p.shards.len());
    }

    #[test]
    fn degenerate_counts() {
        let rules = set(5);
        for strategy in [
            ShardStrategy::PriorityBands,
            ShardStrategy::FieldHash(Dim::DstPort),
        ] {
            let one = plan(&rules, 1, strategy);
            assert_eq!(one.shards.len(), 1);
            assert_eq!(one.shards[0].rules.len(), 5);
            let zero = plan(&rules, 0, strategy);
            let total: usize = zero.shards.iter().map(|s| s.rules.len()).sum();
            assert_eq!(total, 5, "0 is clamped to 1");
            let many = plan(&rules, 64, strategy);
            assert_partition(&rules, &many);
            assert!(many.shards.len() <= 5, "no empty shards survive");
        }
        let empty = plan(&RuleSet::new(), 4, ShardStrategy::PriorityBands);
        assert_eq!(empty.shards.len(), 1);
        assert!(empty.shards[0].rules.is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let rules = set(40);
        for strategy in [
            ShardStrategy::PriorityBands,
            ShardStrategy::FieldHash(Dim::SipLo),
        ] {
            let a = plan(&rules, 8, strategy);
            let b = plan(&rules, 8, strategy);
            assert_eq!(a.shards.len(), b.shards.len());
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(x.global_ids, y.global_ids);
            }
        }
    }

    fn rule(prio: u32, port: u16) -> Rule {
        Rule::builder(Priority(prio))
            .dst_port(PortRange::exact(port))
            .build()
    }

    #[test]
    fn router_mirrors_the_plan() {
        let rules = set(20);
        for strategy in [
            ShardStrategy::PriorityBands,
            ShardStrategy::FieldHash(Dim::DstPort),
        ] {
            let p = plan(&rules, 4, strategy);
            let router = ShardRouter::from_plan(&p, 4);
            assert_eq!(router.len(), 20);
            assert_eq!(router.shard_count(), p.shards.len());
            for (shard, slice) in p.shards.iter().enumerate() {
                assert_eq!(router.shard_len(shard), slice.rules.len());
                for (local, r) in slice.rules.iter() {
                    let loc = router.location(slice.global_id(local)).unwrap();
                    assert_eq!((loc.shard, loc.local), (shard, local));
                    assert_eq!(loc.rule, *r);
                    assert_eq!(router.duplicate_of(r), Some(slice.global_id(local)));
                }
            }
            assert!(router.bands_ordered());
        }
    }

    #[test]
    fn router_hash_routing_matches_plan_placement() {
        let rules = set(32);
        let p = plan(&rules, 4, ShardStrategy::FieldHash(Dim::DstPort));
        let router = ShardRouter::from_plan(&p, 4);
        // A rule that was planned into shard s must route back to s.
        for (shard, slice) in p.shards.iter().enumerate() {
            for (_, r) in slice.rules.iter() {
                let mut probe = *r;
                probe.priority = Priority(9999); // priority is irrelevant to hashing
                assert_eq!(router.route(&probe), RouteTarget::Existing(shard));
            }
        }
    }

    #[test]
    fn router_hash_empty_slot_demands_new_shard() {
        // Hashing on Proto with only one distinct value leaves slots
        // empty; a rule with a fresh value may route to one of them.
        let rules: RuleSet = (0..8)
            .map(|i| {
                Rule::builder(Priority(i))
                    .dst_port(PortRange::exact(i as u16))
                    .proto(ProtoSpec::Exact(6))
                    .build()
            })
            .collect();
        let p = plan(&rules, 8, ShardStrategy::FieldHash(Dim::Proto));
        assert_eq!(p.shards.len(), 1);
        let mut router = ShardRouter::from_plan(&p, 8);
        let newcomers = (0u8..40).map(|x| {
            Rule::builder(Priority(100 + u32::from(x)))
                .proto(ProtoSpec::Exact(x))
                .build()
        });
        let mut created = 0;
        for (i, r) in newcomers.enumerate() {
            match router.route(&r) {
                RouteTarget::Existing(shard) => {
                    let local = RuleId(router.shard_len(shard) as u32);
                    router.record_insert(r, shard, local);
                }
                RouteTarget::NewShard { slot } => {
                    let shard = router.register_shard(slot);
                    assert_eq!(shard, router.shard_count() - 1);
                    router.record_insert(r, shard, RuleId(0));
                    created += 1;
                }
            }
            assert_eq!(router.len(), 8 + i + 1);
        }
        assert!(created > 0, "some protocol value must hit an empty slot");
        // Once claimed, the slot routes Existing.
        let again = Rule::builder(Priority(999))
            .src_port(PortRange::exact(7))
            .proto(ProtoSpec::Exact(0))
            .build();
        assert!(matches!(router.route(&again), RouteTarget::Existing(_)));
    }

    #[test]
    fn router_band_insert_preserves_cascade_order() {
        let rules = set(12);
        let p = plan(&rules, 3, ShardStrategy::PriorityBands);
        let mut router = ShardRouter::from_plan(&p, 3);
        let mut local_next = vec![0u32; router.shard_count()];
        for (i, s) in p.shards.iter().enumerate() {
            local_next[i] = s.rules.len() as u32;
        }
        // Priorities across the whole spectrum, including ties with
        // existing rules: every insert must keep bands ordered.
        for prio in [0u32, 5, 11, 3, 3, 20, 0] {
            let r = rule(prio, 40_000 + prio as u16);
            let RouteTarget::Existing(band) = router.route(&r) else {
                panic!("priority bands never demand new shards on insert");
            };
            let local = RuleId(local_next[band]);
            local_next[band] += 1;
            router.record_insert(r, band, local);
            assert!(
                router.bands_ordered(),
                "insert of p{prio} broke the cascade"
            );
        }
    }

    #[test]
    fn router_duplicate_and_remove_roundtrip() {
        let rules = set(6);
        let p = plan(&rules, 2, ShardStrategy::PriorityBands);
        let mut router = ShardRouter::from_plan(&p, 2);
        let existing = rules.rules()[2];
        // Identical dims with a different priority is still a duplicate
        // (the Rule Filter keys on labels, not priority).
        let mut dup = existing;
        dup.priority = Priority(999);
        assert!(router.duplicate_of(&dup).is_some());
        let id = router.duplicate_of(&existing).unwrap();
        let loc = router.record_remove(id).unwrap();
        assert_eq!(loc.rule, existing);
        assert!(router.duplicate_of(&existing).is_none());
        assert!(
            router.record_remove(id).is_none(),
            "second remove is a no-op"
        );
        assert_eq!(router.len(), 5);
        // Re-inserting hands out a fresh id.
        let RouteTarget::Existing(band) = router.route(&existing) else {
            unreachable!()
        };
        let fresh = router.record_insert(existing, band, RuleId(77));
        assert!(fresh > id, "global ids are never reused");
        assert_eq!(router.location(fresh).unwrap().local, RuleId(77));
    }

    #[test]
    fn router_duplicate_index_survives_twin_removal() {
        // A planned set may legally carry projection twins split across
        // bands (priorities at the extremes); removing one twin must not
        // blind the duplicate check to the survivor.
        let twin = |p: u32| {
            Rule::builder(Priority(p))
                .dst_port(PortRange::exact(7))
                .build()
        };
        let mut rules = RuleSet::new();
        let first = rules.push(twin(0));
        for i in 0..8u16 {
            rules.push(rule(10 + u32::from(i), 100 + i));
        }
        let second = rules.push(twin(1000));
        let p = plan(&rules, 2, ShardStrategy::PriorityBands);
        let mut router = ShardRouter::from_plan(&p, 2);
        assert_ne!(
            router.location(first).unwrap().shard,
            router.location(second).unwrap().shard,
            "twins must land in different bands for this test to bite"
        );
        router.record_remove(second).unwrap();
        assert_eq!(
            router.duplicate_of(&twin(5)),
            Some(first),
            "the surviving twin stays visible to the duplicate check"
        );
        router.record_remove(first).unwrap();
        assert!(router.duplicate_of(&twin(5)).is_none());
    }
}
