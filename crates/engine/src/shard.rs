//! Where a sharded engine's rules live.
//!
//! The paper scales its hardware by replicating single-field engines in
//! parallel; [`crate::ShardedEngine`] is the software analogue one level
//! up, and [`ShardRouter`] is its one placement. [`ShardRouter::place`]
//! routes every rule of the build set in one pass and hands back each
//! shard's rules beside a router that knows where each one went; the
//! same router then says where every later insert goes
//! ([`ShardRouter::route`]) and where every installed rule lives.
//!
//! Correctness does not depend on the strategy: a sharded classifier
//! queries *every* shard and keeps the highest-priority hit, so any
//! assignment of rules to shards yields the same merged verdict (under
//! priority bands, which are ordered, it may stop at the first band
//! that hits). The strategy only shapes load balance and per-shard
//! structure size; nothing here moves a rule between shards after it
//! is placed.

use crate::builder::KeyIndex;
use spc_hwsim::HashUnit;
use spc_types::{Dim, DimValue, Priority, Rule, RuleId, RuleSet};
use std::collections::{BTreeSet, HashMap};

/// How rules are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardStrategy {
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
/// addresses every shard (at most 32 bits), then reduces modulo the
/// count.
fn hash_slot(dim: Dim, n: usize, rule: &Rule) -> usize {
    let n = n.max(1);
    let bits = (usize::BITS - (n - 1).max(1).leading_zeros()).clamp(1, 32);
    HashUnit::new(bits).fold(dim_key(rule.dim_value(dim))) % n
}

/// Where [`ShardRouter::route`] says an insert should land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RouteTarget {
    /// An existing shard owns the rule.
    Existing(usize),
    /// The rule folds to a hash slot no shard owns yet. The caller
    /// builds a fresh inner engine and inserts into it; only if that
    /// succeeds does it append the shard and claim the slot
    /// ([`ShardRouter::open_shard`]).
    NewShard {
        /// The empty hash slot the rule folds to.
        slot: usize,
    },
}

/// A live rule's location: which shard holds it, under which
/// shard-local id, and the rule itself (needed to key the duplicate
/// index and the band key set on removal).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RuleLocation {
    /// Index of the owning shard.
    pub(crate) shard: usize,
    /// The rule's id inside that shard's classifier.
    pub(crate) local: RuleId,
    /// The installed rule.
    pub(crate) rule: Rule,
}

/// One shard's rules: `(global id, rule)` in ascending global id, so
/// local id = position.
pub(crate) type Placed = Vec<(RuleId, Rule)>;

/// Where every rule of a sharded engine lives, and where the next one
/// goes.
///
/// The router keeps global → local (the engine keeps local → global
/// next to each inner engine). It also owns what the strategies need
/// under churn: the filled hash slots (a slot can gain its first rule
/// after build) and the per-band ordered key sets that route an insert
/// to its band and keep the `(priority, global id)` cascade invariant.
///
/// The router records decisions; it never touches classifiers. The
/// engine performs the actual insert/remove and reports the resulting
/// shard-local ids back via [`ShardRouter::record_insert`] /
/// [`ShardRouter::record_remove`].
#[derive(Debug, Clone)]
pub(crate) struct ShardRouter {
    strategy: ShardStrategy,
    /// The requested shard count, the hash strategy's modulus.
    requested: usize,
    /// Hash strategy: filled slot → shard. Only slots a rule has folded
    /// to have an entry, so a requested count allocates nothing.
    slots: HashMap<usize, usize>,
    /// Priority-band strategy: each band's live `(priority, id)` keys,
    /// ordered — band `k`'s greatest key is below band `k+1`'s smallest.
    bands: Vec<BTreeSet<(Priority, RuleId)>>,
    /// Global id → live location.
    entries: HashMap<u32, RuleLocation>,
    /// Dimension projection → live global id, the sharded mirror of the
    /// Rule Filter's duplicate-key check: under priority bands two rules
    /// with identical projections could land in *different* shards,
    /// where no inner classifier would spot the collision. A build set
    /// with such twins is rejected before it is placed.
    keys: KeyIndex,
    /// Next global id to hand out (never reused, so ids stay monotonic
    /// and the lowest-id tie-break matches insertion order).
    next_global: u32,
}

impl ShardRouter {
    /// Places `rules` on at most `shards` shards (0 counts as 1) in one
    /// pass, returning the router and each shard's rules. A priority tie
    /// inside a shard resolves to the lowest global id, as
    /// [`RuleSet::classify`] does.
    ///
    /// Hash: a rule goes to its slot, and shards follow slot order.
    /// Bands: the rules sorted by `(priority, id)` are cut into runs of
    /// `⌈len / shards⌉`, highest priority first. Only filled shards are
    /// made; an empty set gets one empty shard, so there is always one
    /// to build.
    pub(crate) fn place(
        rules: &RuleSet,
        shards: usize,
        strategy: ShardStrategy,
    ) -> (Self, Vec<Placed>) {
        let n = shards.max(1);
        // (owner, global id, rule): the owner is a hash slot or a band,
        // and shards follow their owners in ascending order.
        let mut owned: Vec<(usize, RuleId, Rule)> = match strategy {
            ShardStrategy::FieldHash(dim) => rules
                .iter()
                .map(|(id, r)| (hash_slot(dim, n, r), id, *r))
                .collect(),
            ShardStrategy::PriorityBands => {
                let mut order: Vec<(RuleId, &Rule)> = rules.iter().collect();
                order.sort_unstable_by_key(|&(id, r)| (r.priority, id));
                let band = order.len().div_ceil(n).max(1);
                order
                    .into_iter()
                    .enumerate()
                    .map(|(pos, (id, r))| ((pos / band).min(n - 1), id, *r))
                    .collect()
            }
        };
        owned.sort_unstable_by_key(|&(owner, id, _)| (owner, id));
        let mut router = ShardRouter {
            strategy,
            requested: n,
            slots: HashMap::new(),
            bands: Vec::new(),
            entries: HashMap::with_capacity(owned.len()),
            keys: KeyIndex::with_capacity(owned.len()),
            next_global: rules.len() as u32,
        };
        let mut placed: Vec<Placed> = Vec::new();
        let mut last_owner = None;
        for (owner, global, rule) in owned {
            if last_owner != Some(owner) {
                last_owner = Some(owner);
                router.open_shard(owner, placed.len());
                placed.push(Vec::new());
            }
            let shard = placed.len() - 1;
            router.install(global, rule, shard, RuleId(placed[shard].len() as u32));
            placed[shard].push((global, rule));
        }
        if placed.is_empty() {
            // The one shard of an empty set owns no hash slot; under
            // bands it is the band every insert joins.
            if strategy == ShardStrategy::PriorityBands {
                router.open_shard(0, 0);
            }
            placed.push(Vec::new());
        }
        (router, placed)
    }

    /// Records that `shard`, the next after the existing ones, is open:
    /// owned by hash slot `owner`, or the next band.
    pub(crate) fn open_shard(&mut self, owner: usize, shard: usize) {
        match self.strategy {
            ShardStrategy::FieldHash(_) => {
                let claimed = self.slots.insert(owner, shard);
                debug_assert!(claimed.is_none(), "slot {owner} already claimed");
            }
            ShardStrategy::PriorityBands => self.bands.push(BTreeSet::new()),
        }
    }

    fn install(&mut self, global: RuleId, rule: Rule, shard: usize, local: RuleId) {
        if self.strategy == ShardStrategy::PriorityBands {
            self.bands[shard].insert((rule.priority, global));
        }
        self.keys.insert(rule.dim_values(), global);
        self.entries
            .insert(global.0, RuleLocation { shard, local, rule });
    }

    /// The placement strategy.
    pub(crate) fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Live rule count across all shards.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The live rule with a dimension projection identical to `rule`'s,
    /// if any — the same collision the Rule Filter's duplicate-key check
    /// rejects, detected across shard boundaries.
    pub(crate) fn duplicate_of(&self, rule: &Rule) -> Option<RuleId> {
        self.keys.get(&rule.dim_values()).copied()
    }

    /// Which shard an insert of `rule` must target.
    ///
    /// Hash strategy: the rule's slot, or [`RouteTarget::NewShard`] when
    /// no shard owns that slot yet. Priority bands: the first band
    /// whose greatest `(priority, id)` key exceeds the rule's prospective
    /// key — every earlier band's keys are provably smaller, so placing
    /// the rule there preserves the cascade invariant; a rule beyond
    /// every band's range joins the last band.
    pub(crate) fn route(&self, rule: &Rule) -> RouteTarget {
        match self.strategy {
            ShardStrategy::FieldHash(dim) => {
                let slot = hash_slot(dim, self.requested, rule);
                match self.slots.get(&slot) {
                    Some(&shard) => RouteTarget::Existing(shard),
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

    /// Records a successful insert into `shard` under shard-local id
    /// `local`, allocating and returning the rule's global id.
    pub(crate) fn record_insert(&mut self, rule: Rule, shard: usize, local: RuleId) -> RuleId {
        let global = RuleId(self.next_global);
        self.next_global += 1;
        self.install(global, rule, shard, local);
        global
    }

    /// The live location of a global id.
    pub(crate) fn location(&self, id: RuleId) -> Option<&RuleLocation> {
        self.entries.get(&id.0)
    }

    /// Records a successful removal, returning where the rule lived
    /// (`None` if the id was never installed or already removed).
    pub(crate) fn record_remove(&mut self, id: RuleId) -> Option<RuleLocation> {
        let loc = self.entries.remove(&id.0)?;
        self.keys.remove(&loc.rule.dim_values());
        if self.strategy == ShardStrategy::PriorityBands {
            self.bands[loc.shard].remove(&(loc.rule.priority, id));
        }
        Some(loc)
    }

    /// Checks the cascade invariant: every band's keys lie strictly
    /// below the next non-empty band's.
    #[cfg(test)]
    pub(crate) fn bands_ordered(&self) -> bool {
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
    use spc_types::{PortRange, ProtoSpec};

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

    fn assert_partition(rules: &RuleSet, placed: &[Placed]) {
        let mut seen: Vec<RuleId> = placed.iter().flatten().map(|&(id, _)| id).collect();
        seen.sort_unstable();
        let want: Vec<RuleId> = rules.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, want, "every rule lands in exactly one shard");
        for shard in placed {
            assert!(!shard.is_empty(), "no empty shards survive");
            for &(global, rule) in shard {
                assert_eq!(rules.get(global), Some(&rule), "rules intact");
            }
            // Local order must be ascending global id so the lowest-id
            // tie-break survives re-indexing.
            assert!(shard.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn priority_bands_partition_and_order() {
        let rules = set(10);
        let (router, placed) = ShardRouter::place(&rules, 3, ShardStrategy::PriorityBands);
        assert_partition(&rules, &placed);
        assert!(placed.len() <= 3);
        assert!(router.bands_ordered());
        // Band 0 holds the highest-priority (smallest Priority) rules.
        let priorities = |shard: &Placed| shard.iter().map(|(_, r)| r.priority).collect::<Vec<_>>();
        let band0_max = priorities(&placed[0]).into_iter().max().unwrap();
        let band_last_min = priorities(&placed[placed.len() - 1])
            .into_iter()
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
            let (_, placed) = ShardRouter::place(&rules, 4, ShardStrategy::FieldHash(dim));
            assert_partition(&rules, &placed);
        }
        // Only two distinct protocol values exist, so hashing on Proto
        // fills at most two shards — and both rules of a value co-locate.
        let (_, placed) = ShardRouter::place(&rules, 8, ShardStrategy::FieldHash(Dim::Proto));
        assert!(placed.len() <= 2, "{} shards", placed.len());
    }

    #[test]
    fn degenerate_counts() {
        let rules = set(5);
        for strategy in [
            ShardStrategy::PriorityBands,
            ShardStrategy::FieldHash(Dim::DstPort),
        ] {
            let (_, one) = ShardRouter::place(&rules, 1, strategy);
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].len(), 5);
            let (_, zero) = ShardRouter::place(&rules, 0, strategy);
            assert_eq!(zero.len(), 1, "0 is clamped to 1");
            // Only filled shards are made, however many are asked for.
            for n in [64, 1 << 40, usize::MAX] {
                let (router, many) = ShardRouter::place(&rules, n, strategy);
                assert_partition(&rules, &many);
                assert!(many.len() <= 5);
                assert_eq!(router.len(), 5);
            }
            let (router, empty) = ShardRouter::place(&RuleSet::new(), 4, strategy);
            assert_eq!(empty.len(), 1);
            assert!(empty[0].is_empty());
            assert_eq!(router.len(), 0);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let rules = set(40);
        for strategy in [
            ShardStrategy::PriorityBands,
            ShardStrategy::FieldHash(Dim::SipLo),
        ] {
            let (_, a) = ShardRouter::place(&rules, 8, strategy);
            let (_, b) = ShardRouter::place(&rules, 8, strategy);
            assert_eq!(a, b);
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
            let (router, placed) = ShardRouter::place(&rules, 4, strategy);
            assert_eq!(router.len(), 20);
            for (shard, rules) in placed.iter().enumerate() {
                for (local, &(global, r)) in rules.iter().enumerate() {
                    let loc = router.location(global).unwrap();
                    assert_eq!((loc.shard, loc.local), (shard, RuleId(local as u32)));
                    assert_eq!(loc.rule, r);
                    assert_eq!(router.duplicate_of(&r), Some(global));
                }
            }
            assert!(router.bands_ordered());
        }
    }

    #[test]
    fn router_hash_routing_matches_plan_placement() {
        let rules = set(32);
        let (router, placed) =
            ShardRouter::place(&rules, 4, ShardStrategy::FieldHash(Dim::DstPort));
        // A rule placed into shard s must route back to s.
        for (shard, rules) in placed.iter().enumerate() {
            for &(_, r) in rules {
                let mut probe = r;
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
        let (mut router, placed) =
            ShardRouter::place(&rules, 8, ShardStrategy::FieldHash(Dim::Proto));
        assert_eq!(placed.len(), 1);
        let mut lens: Vec<u32> = placed.iter().map(|s| s.len() as u32).collect();
        let newcomers = (0u8..40).map(|x| {
            Rule::builder(Priority(100 + u32::from(x)))
                .proto(ProtoSpec::Exact(x))
                .build()
        });
        let mut created = 0;
        for (i, r) in newcomers.enumerate() {
            let shard = match router.route(&r) {
                RouteTarget::Existing(shard) => shard,
                RouteTarget::NewShard { slot } => {
                    router.open_shard(slot, lens.len());
                    lens.push(0);
                    created += 1;
                    lens.len() - 1
                }
            };
            router.record_insert(r, shard, RuleId(lens[shard]));
            lens[shard] += 1;
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
        let (mut router, placed) = ShardRouter::place(&rules, 3, ShardStrategy::PriorityBands);
        let mut local_next: Vec<u32> = placed.iter().map(|s| s.len() as u32).collect();
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
        let (mut router, _) = ShardRouter::place(&rules, 2, ShardStrategy::PriorityBands);
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
}
