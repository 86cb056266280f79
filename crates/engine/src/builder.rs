//! Constructing any backend from an [`EngineKind`] or a config string.

use crate::cache::MAX_FLOWS;
use crate::dcfl::Dcfl;
use crate::hypercuts::HyperCuts;
use crate::kind::ParseEngineKindError;
use crate::linear::LinearSearch;
use crate::options::OptionClassifier;
use crate::rfc::Rfc;
use crate::shard::ShardStrategy;
use crate::tcam::MAX_CAPACITY;
use crate::{CachedEngine, ConfigurableEngine, EngineKind, PacketClassifier};
use crate::{ShardedEngine, SnapshotEngine, SoftTcamEngine, TupleSpaceEngine};
use spc_analyze::{AnalyzerLimits, RuleSetReport};
use spc_core::{ArchConfig, Classifier, IpAlg};
use spc_types::{Dim, DimValue, RuleId, RuleSet, ALL_DIMS};
use std::collections::HashMap;
use std::fmt;

/// RFC phase-table entry cap (the Table I harness value).
const RFC_ENTRY_CAP: u64 = 1 << 27;

/// The widest Rule Filter address, `rf_bits=` or auto-sized: the filter
/// allocates its 2^bits slots up front.
const MAX_RF_BITS: u32 = 22;

/// The single source of truth for engine-spec keys: the
/// [`EngineBuilder::from_spec`] parser admits a key only if it is listed
/// here and [`BuildError::BadOption`]'s `Display` derives its key list
/// from it, so the error message cannot rot behind the grammar. Which
/// backend a key belongs to is decided by the [`KindOpts`] variant that
/// stores it (`inner` lives on the [`EngineBuilder`] node).
const SPEC_KEYS: &[&str] = &[
    "rf_bits", "inner", "shards", "strategy", "hash_dim", "flows", "capacity",
];

/// Error from [`EngineBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The spec string did not name a registered backend.
    UnknownKind {
        /// The parse failure.
        source: ParseEngineKindError,
    },
    /// A spec option was malformed: not `key=value`, or the value did
    /// not parse for its key.
    BadOption {
        /// The offending option text.
        option: String,
    },
    /// A well-formed `key=value` pair the spec cannot accept: an unknown
    /// key, a key belonging to a different backend, a duplicated key, or
    /// an inconsistent combination. Unknown keys are a hard error on
    /// every path — a sweep must never silently measure a configuration
    /// it didn't ask for.
    ConfigError {
        /// The offending option text.
        option: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The backend could not hold the rule set (capacity, RFC table
    /// blow-up, ...).
    Rejected {
        /// Which backend rejected it.
        kind: EngineKind,
        /// Backend-specific reason.
        reason: String,
    },
    /// Two rules in the set have identical match conditions. Duplicate
    /// 5-tuples are rejected up front on **every** backend — the
    /// configurable architecture cannot represent them (their 7-label
    /// keys collide), and letting decomposition backends silently accept
    /// what label backends reject would make the registry diverge.
    DuplicateRules {
        /// The rule that owns the filter (first occurrence).
        first: RuleId,
        /// The rule that repeats it.
        dup: RuleId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownKind { source } => source.fmt(f),
            BuildError::BadOption { option } => {
                write!(
                    f,
                    "bad engine option {option:?}; expected key=value (keys: {})",
                    SPEC_KEYS.join(", ")
                )
            }
            BuildError::ConfigError { option, reason } => {
                write!(f, "bad engine config {option:?}: {reason}")
            }
            BuildError::Rejected { kind, reason } => {
                write!(f, "{kind} cannot hold this rule set: {reason}")
            }
            BuildError::DuplicateRules { first, dup } => {
                write!(
                    f,
                    "rule {} duplicates the match conditions of rule {}; \
                     duplicate 5-tuples are rejected on every backend",
                    dup.0, first.0
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Whether `descendant` may appear anywhere below `ancestor` on a
/// root-to-leaf path of a spec tree — the one table that decides wrapper
/// nesting. It is applied to every ancestor/descendant pair, not just
/// parent/child: only the three wrappers take an inner engine, a wrapper
/// kind appears at most once on a path, and `snapshot` never sits below
/// `sharded`.
///
/// # Errors
///
/// The reason the pair is illegal.
pub fn legal_nesting(ancestor: EngineKind, descendant: EngineKind) -> Result<(), &'static str> {
    use EngineKind::{Cached, Sharded, Snapshot};
    match (ancestor, descendant) {
        (Sharded, Snapshot) => Err(
            "the snapshot wrapper serves concurrent readers; nest it outside, not inside, \
             a sharded engine",
        ),
        (Sharded | Cached | Snapshot, d) if d == ancestor => Err(
            "a wrapper kind may appear only once on a path; it cannot wrap itself, \
             directly or through other wrappers",
        ),
        (Sharded | Cached | Snapshot, _) => Ok(()),
        _ => Err("only the sharded, cached and snapshot wrappers take an inner engine"),
    }
}

/// [`legal_nesting`] of `kind` under every kind already on the path.
fn nest_under(ancestors: &[EngineKind], kind: EngineKind) -> Result<(), BuildError> {
    ancestors.iter().try_for_each(|&ancestor| {
        legal_nesting(ancestor, kind).map_err(|reason| BuildError::ConfigError {
            option: format!("inner={kind}"),
            reason: format!("{kind} cannot nest under {ancestor}: {reason}"),
        })
    })
}

/// Default dimension for `strategy=hash` when `hash_dim` is absent: the
/// low destination-IP segment, typically the most value-diverse field in
/// ClassBench-style sets.
const DEFAULT_HASH_DIM: Dim = Dim::DipLo;

/// The options of one spec-tree node: one variant per option-bearing
/// backend family, holding exactly the spec keys that family owns.
/// Registering a key means adding a field here, its arms in
/// [`KindOpts::set`] / [`KindOpts::write_spec`] (and [`KindOpts::check`]
/// if it has a range), its [`SPEC_KEYS`] row, and an alternate point in
/// the composition oracle's profile (`tests/common`), which fails on a
/// key of the table that no tree is built with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KindOpts {
    /// Backends without options of their own.
    None,
    /// `configurable-mbt` / `configurable-bst`: the Rule Filter address
    /// width (`None`: auto-sized, see `arch_for`).
    Configurable { rf_bits: Option<u32> },
    /// `sharded`.
    Sharded {
        shards: usize,
        /// As written: `strategy=hash` alone carries [`DEFAULT_HASH_DIM`].
        strategy: ShardStrategy,
        /// Refines `strategy=hash`.
        hash_dim: Option<Dim>,
    },
    /// `cached`.
    Cached { flows: usize },
    /// `tcam`.
    Tcam { capacity: usize },
}

impl KindOpts {
    /// The default provisioning of `kind`.
    fn defaults(kind: EngineKind) -> Self {
        match kind {
            EngineKind::ConfigurableMbt | EngineKind::ConfigurableBst => {
                KindOpts::Configurable { rf_bits: None }
            }
            EngineKind::Sharded => KindOpts::Sharded {
                shards: 4,
                strategy: ShardStrategy::PriorityBands,
                hash_dim: None,
            },
            EngineKind::Cached => KindOpts::Cached { flows: 4096 },
            EngineKind::SoftTcam => KindOpts::Tcam {
                capacity: crate::DEFAULT_TCAM_CAPACITY,
            },
            _ => KindOpts::None,
        }
    }

    /// Stores one `key=value` if `key` is one of this variant's:
    /// `Ok(false)` when it is not, `Err(())` when the value does not
    /// parse. Range and cross-key rules are [`KindOpts::check`]'s.
    fn set(&mut self, key: &str, value: &str) -> Result<bool, ()> {
        fn num<T: std::str::FromStr>(value: &str) -> Result<T, ()> {
            value.parse().map_err(|_| ())
        }
        match (self, key) {
            (KindOpts::Configurable { rf_bits }, "rf_bits") => *rf_bits = Some(num(value)?),
            (KindOpts::Sharded { shards, .. }, "shards") => *shards = num(value)?,
            (KindOpts::Sharded { strategy, .. }, "strategy") => {
                *strategy = match value {
                    "prio" | "priority" | "bands" => ShardStrategy::PriorityBands,
                    "hash" | "field-hash" => ShardStrategy::FieldHash(DEFAULT_HASH_DIM),
                    _ => return Err(()),
                };
            }
            (KindOpts::Sharded { hash_dim, .. }, "hash_dim") => {
                let dim = ALL_DIMS.into_iter().find(|d| d.to_string() == value);
                *hash_dim = Some(dim.ok_or(())?);
            }
            (KindOpts::Cached { flows }, "flows") => *flows = num(value)?,
            (KindOpts::Tcam { capacity }, "capacity") => *capacity = num(value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// This node's range and cross-key rules: counts of at least one,
    /// the bounds on what is allocated up front, and the keys that only
    /// make sense together. Run once per node, as [`EngineBuilder::parse`]
    /// finishes it.
    fn check(&self) -> Result<(), BuildError> {
        let config = |option: String, reason: &str| {
            Err(BuildError::ConfigError {
                option,
                reason: reason.to_string(),
            })
        };
        let at_least_one = |key: &str, n: usize, why: &str| match n {
            0 => config(format!("{key}=0"), &format!("{key} must be >= 1{why}")),
            _ => Ok(()),
        };
        let at_most = |key: &str, n: usize, max: u64, why: &str| match n as u64 {
            n if n > max => config(
                format!("{key}={n}"),
                &format!("{key} must be at most {max}{why}"),
            ),
            _ => Ok(()),
        };
        match *self {
            KindOpts::None | KindOpts::Configurable { rf_bits: None } => Ok(()),
            KindOpts::Configurable {
                rf_bits: Some(bits),
            } => {
                let bits = bits as usize;
                at_least_one("rf_bits", bits, " (the hash unit needs an address bit)")?;
                let why = " (the table is allocated up front)";
                at_most("rf_bits", bits, MAX_RF_BITS.into(), why)
            }
            KindOpts::Sharded {
                shards,
                strategy,
                hash_dim,
            } => {
                at_least_one("shards", shards, "")?;
                match (strategy, hash_dim) {
                    (ShardStrategy::PriorityBands, Some(dim)) => {
                        config(format!("hash_dim={dim}"), "hash_dim requires strategy=hash")
                    }
                    _ => Ok(()),
                }
            }
            KindOpts::Cached { flows } => {
                at_least_one("flows", flows, " (the cache needs at least one slot)")?;
                let why = " (the table is allocated up front)";
                at_most("flows", flows, MAX_FLOWS as u64, why)
            }
            KindOpts::Tcam { capacity } => {
                at_least_one("capacity", capacity, " (the TCAM needs at least one slot)")?;
                let why = " (its modelled bits must fit a u64)";
                at_most("capacity", capacity, MAX_CAPACITY, why)
            }
        }
    }

    /// Appends this variant's `key=value` pairs in the spelling
    /// [`KindOpts::set`] reads back.
    fn write_spec(&self, out: &mut Vec<String>) {
        match *self {
            KindOpts::None => {}
            KindOpts::Configurable { rf_bits } => {
                out.extend(rf_bits.map(|bits| format!("rf_bits={bits}")));
            }
            KindOpts::Sharded {
                shards,
                strategy,
                hash_dim,
            } => {
                out.push(format!("shards={shards}"));
                if matches!(strategy, ShardStrategy::FieldHash(_)) {
                    out.push("strategy=hash".to_string());
                }
                out.extend(hash_dim.map(|dim| format!("hash_dim={dim}")));
            }
            KindOpts::Cached { flows } => out.push(format!("flows={flows}")),
            KindOpts::Tcam { capacity } => out.push(format!("capacity={capacity}")),
        }
    }
}

/// Builds any registered backend as a `Box<dyn PacketClassifier>`.
///
/// A builder is one node of a spec tree: a backend kind, that kind's
/// options, and — for the `sharded`, `cached` and `snapshot` wrappers —
/// the builder of the engine they wrap. [`fmt::Display`] prints the
/// canonical spec string, which [`EngineBuilder::from_spec`] parses back
/// to an equal tree.
///
/// ```
/// use spc_engine::EngineBuilder;
/// use spc_types::{Priority, Rule, RuleSet};
///
/// let rules = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
/// // Sweep backends from config strings — the CLI/bench entry point.
/// for spec in ["linear", "hypercuts", "configurable-bst:rf_bits=14"] {
///     let engine = EngineBuilder::from_spec(spec).unwrap().build(&rules).unwrap();
///     assert!(engine.rules() == 1, "{spec}");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBuilder {
    kind: EngineKind,
    opts: KindOpts,
    /// The wrapped engine's builder: `Some` exactly on wrapper nodes.
    inner: Option<Box<EngineBuilder>>,
}

impl fmt::Display for EngineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut opts = Vec::new();
        opts.extend(self.inner.as_ref().map(|inner| format!("inner=({inner})")));
        self.opts.write_spec(&mut opts);
        write!(f, "{}", self.kind)?;
        if !opts.is_empty() {
            write!(f, ":{}", opts.join(","))?;
        }
        Ok(())
    }
}

/// Splits a spec's option list on commas at parenthesis depth 0, so a
/// nested inner spec — `cached:inner=(sharded:inner=linear,shards=2)` —
/// keeps its own commas.
fn split_opts(opts: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in opts.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&opts[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&opts[start..]);
    parts
}

/// Strips one balanced outer parenthesis pair, if present: the optional
/// grouping syntax for nested inner specs.
fn strip_parens(s: &str) -> &str {
    match s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(inner) => inner,
        None => s,
    }
}

impl EngineBuilder {
    /// A builder for the given backend with default provisioning: the
    /// tree [`EngineBuilder::from_spec`] parses from the bare kind name.
    ///
    /// Every wrapper wraps `configurable-bst`; [`EngineKind::Sharded`]
    /// defaults to 4 shards split by priority bands. Any other
    /// provisioning is a spec string.
    pub fn new(kind: EngineKind) -> Self {
        let wraps = legal_nesting(kind, EngineKind::ConfigurableBst).is_ok();
        EngineBuilder {
            kind,
            opts: KindOpts::defaults(kind),
            inner: wraps.then(|| Box::new(Self::new(EngineKind::ConfigurableBst))),
        }
    }

    /// Parses a config string: a backend name, optionally followed by
    /// `:key=value[,key=value...]` options.
    ///
    /// Configurable backends take `rf_bits=N` (Rule Filter address
    /// width, 1 to 22: the table is allocated up front) and always
    /// combine with the exact priority box: the paper's one-probe head
    /// combination can miss the HPMR, so only
    /// [`ArchConfig::with_combine`] selects it. The three
    /// wrappers — `sharded`, `cached`, `snapshot` — take `inner=<spec>`,
    /// a *full* nested spec (default `configurable-bst`); parenthesise
    /// it when it contains commas, e.g.
    /// `cached:inner=(sharded:inner=(tcam:capacity=4096),shards=4),flows=8192`.
    /// Nesting is decided by [`legal_nesting`] for every pair on a path.
    /// The sharded backend also takes `shards=N`, `strategy=prio|hash`
    /// and `hash_dim=<dimension>` (e.g. `dst_port`; refines
    /// `strategy=hash`).
    /// The cached backend takes `flows=N` (flow-table slots, rounded up
    /// to a power of two at build time, at most 2²⁰: the table is
    /// allocated up front). The software TCAM takes `capacity=N`
    /// (provisioned slots, small enough for its modelled bits to fit a
    /// `u64`).
    ///
    /// Every key is checked against the kind it is for: unknown keys,
    /// keys for another backend, and duplicated keys are hard
    /// [`BuildError::ConfigError`]s, never silently ignored. A wrapper
    /// does not pass keys through to its inner engine: the inner
    /// engine's keys go in its own spec,
    /// `sharded:inner=(configurable-mbt:rf_bits=13)`.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownKind`] for an unregistered backend name,
    /// [`BuildError::BadOption`] for malformed `key=value` text, and
    /// [`BuildError::ConfigError`] for unknown/duplicate/inconsistent
    /// keys, out-of-range counts and illegal nesting. A malformed option
    /// anywhere in the string is reported before a range rule.
    pub fn from_spec(spec: &str) -> Result<Self, BuildError> {
        let mut broken = None;
        let builder = Self::parse(spec, &[], &mut broken)?;
        broken.map_or(Ok(builder), Err)
    }

    /// Parses one node whose ancestors on the path are `ancestors`.
    /// Nesting legality is settled as soon as the node's kind is known,
    /// before any of its options (and so its own `inner=`) are read:
    /// the table, not a depth constant, bounds the recursion at three
    /// wrappers and a leaf whatever the input. Once the node's list is
    /// read, a break of its range rules ([`KindOpts::check`]) lands in
    /// `broken`, replacing any from below, so the outermost broken node
    /// is the one named.
    fn parse(
        spec: &str,
        ancestors: &[EngineKind],
        broken: &mut Option<BuildError>,
    ) -> Result<Self, BuildError> {
        let (kind_str, opts) = spec.split_once(':').unwrap_or((spec, ""));
        let kind: EngineKind = kind_str
            .trim()
            .parse()
            .map_err(|source| BuildError::UnknownKind { source })?;
        nest_under(ancestors, kind)?;
        let path = [ancestors, &[kind]].concat();
        let mut b = EngineBuilder::new(kind);
        let mut seen: Vec<&str> = Vec::new();
        // The first key no part of this node stores: reported once the
        // whole list is read, so a wrapper's error can show the key on
        // its inner engine wherever `inner=` stands.
        let mut stray = None;
        for opt in split_opts(opts) {
            let opt = opt.trim();
            if opt.is_empty() {
                continue;
            }
            let bad = || BuildError::BadOption {
                option: opt.to_string(),
            };
            let config_err = |reason: String| BuildError::ConfigError {
                option: opt.to_string(),
                reason,
            };
            let (key, value) = opt.split_once('=').ok_or_else(bad)?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(config_err(format!(
                    "duplicate key {key:?}; each key may appear once"
                )));
            }
            seen.push(key);
            // Admission runs through the shared SPEC_KEYS table: an
            // unregistered key — or, below, one no part of this node
            // stores — is a hard error, never silently ignored.
            if !SPEC_KEYS.contains(&key) {
                return Err(config_err(format!(
                    "unknown key {key:?}; known keys: {}",
                    SPEC_KEYS.join(", ")
                )));
            }
            let stored = match key {
                "inner" if b.inner.is_some() => {
                    b.inner = Some(Box::new(Self::parse(strip_parens(value), &path, broken)?));
                    true
                }
                _ => b.opts.set(key, value).map_err(|()| bad())?,
            };
            if !stored {
                stray = stray.or(Some((opt, key, value)));
            }
        }
        if let Some((opt, key, value)) = stray {
            let mut reason = format!("unknown key {key:?} for backend {kind}");
            // A key the wrapped engine owns is written on it.
            if let Some(mut inner) = b.inner.map(|inner| *inner) {
                if inner.opts.set(key, value) == Ok(true) {
                    reason += &format!("; write it on the inner engine: inner=({inner})");
                }
            }
            return Err(BuildError::ConfigError {
                option: opt.to_string(),
                reason,
            });
        }
        if let Err(e) = b.opts.check() {
            *broken = Some(e);
        }
        Ok(b)
    }

    /// The backend this builder constructs.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The analyzer limits matching what this builder would actually
    /// provision for `rules`: label and Rule Filter capacities are taken
    /// from the same [`ArchConfig`] that [`EngineBuilder::build`] uses
    /// (including Rule Filter auto-sizing), so audit predictions line up
    /// with the built engine. Under wrappers the node judged is the leaf
    /// of the `inner` chain — the engine that holds the labels and the
    /// Rule Filter — not the wrapper asked.
    pub fn audit_limits(&self, rules: &RuleSet) -> AnalyzerLimits {
        let mut leaf = self;
        while let Some(inner) = &leaf.inner {
            leaf = inner;
        }
        let cfg = leaf.arch_for(rules);
        let w = cfg.label_widths;
        AnalyzerLimits::from_capacities(
            (1usize << w.ip).min(cfg.ip_label_entries),
            (1usize << w.port).min(cfg.port_label_entries),
            1usize << w.proto,
            cfg.rule_slots(),
        )
    }

    /// Runs the static pre-build audit over a rule set, judged against
    /// this builder's provisioning (see [`EngineBuilder::audit_limits`]).
    ///
    /// This never constructs an engine; it is cheap enough to run before
    /// every build of an untrusted set. A caller that wants a gate
    /// refuses to build when the report
    /// [`has_errors`](RuleSetReport::has_errors).
    pub fn audit(&self, rules: &RuleSet) -> RuleSetReport {
        spc_analyze::analyze_with(rules, &self.audit_limits(rules))
    }

    /// The architecture this node provisions for `rules` (`IPalg_s`
    /// follows the kind; non-configurable kinds are judged as BST).
    fn arch_for(&self, rules: &RuleSet) -> ArchConfig {
        let mut cfg = ArchConfig::large();
        cfg.ip_alg = match self.kind {
            EngineKind::ConfigurableMbt => IpAlg::Mbt,
            _ => IpAlg::Bst,
        };
        let rf_bits = match self.opts {
            KindOpts::Configurable { rf_bits } => rf_bits,
            _ => None,
        };
        if let Some(bits) = rf_bits {
            cfg.rule_filter_addr_bits = bits;
        } else {
            // Auto-size the Rule Filter to keep hash-probe chains short:
            // at least 4x the rule count, within the large() default.
            let mut bits = cfg.rule_filter_addr_bits;
            while (1usize << bits) < rules.len().saturating_mul(4) && bits < MAX_RF_BITS {
                bits += 1;
            }
            cfg.rule_filter_addr_bits = bits;
        }
        cfg
    }

    /// The backend refused the rule set.
    fn rejected(&self, reason: impl fmt::Display) -> BuildError {
        BuildError::Rejected {
            kind: self.kind,
            reason: reason.to_string(),
        }
    }

    /// A typed build method was called on a node of another kind.
    fn not_a(&self, wanted: EngineKind) -> BuildError {
        BuildError::ConfigError {
            option: self.to_string(),
            reason: format!("not a {wanted} spec"),
        }
    }

    fn build_configurable(&self, rules: &RuleSet) -> Result<ConfigurableEngine, BuildError> {
        let mut cls = Classifier::new(self.arch_for(rules));
        cls.load(rules).map_err(|e| self.rejected(e))?;
        Ok(ConfigurableEngine::new(cls))
    }

    pub(crate) fn build_sharded(&self, rules: &RuleSet) -> Result<ShardedEngine, BuildError> {
        let (
            KindOpts::Sharded {
                shards,
                strategy,
                hash_dim,
            },
            Some(inner),
        ) = (self.opts, &self.inner)
        else {
            return Err(self.not_a(EngineKind::Sharded));
        };
        let strategy = match (strategy, hash_dim) {
            (ShardStrategy::FieldHash(_), Some(dim)) => ShardStrategy::FieldHash(dim),
            _ => strategy,
        };
        ShardedEngine::new(rules, shards, strategy, (**inner).clone())
    }

    /// The flow cache over its inner built from `rules`.
    pub(crate) fn build_cached(&self, rules: &RuleSet) -> Result<CachedEngine, BuildError> {
        let (KindOpts::Cached { flows }, Some(inner)) = (self.opts, &self.inner) else {
            return Err(self.not_a(EngineKind::Cached));
        };
        Ok(CachedEngine::new(
            inner.build_unchecked(rules)?,
            flows.next_power_of_two(),
            false,
            [],
        ))
    }

    /// Builds the snapshot-swap wrapper as its concrete type, so callers
    /// can take [`crate::SnapshotReader`]s ([`crate::SnapshotEngine::reader`])
    /// — the trait object returned by [`EngineBuilder::build`] cannot
    /// hand those out.
    ///
    /// # Errors
    ///
    /// As [`EngineBuilder::build`], plus [`BuildError::ConfigError`]
    /// when this is not a `snapshot` node.
    pub fn build_snapshot(&self, rules: &RuleSet) -> Result<SnapshotEngine, BuildError> {
        if self.kind != EngineKind::Snapshot {
            return Err(self.not_a(EngineKind::Snapshot));
        }
        key_index(rules)?;
        self.snapshot_over(rules)
    }

    /// The snapshot writer over `rules`, a set known to be
    /// duplicate-free.
    fn snapshot_over(&self, rules: &RuleSet) -> Result<SnapshotEngine, BuildError> {
        let (EngineKind::Snapshot, Some(inner)) = (self.kind, &self.inner) else {
            return Err(self.not_a(EngineKind::Snapshot));
        };
        let engine = inner.build_unchecked(rules)?;
        Ok(SnapshotEngine::new(rules, engine, (**inner).clone()))
    }

    /// Builds the backend over a rule set.
    ///
    /// # Errors
    ///
    /// [`BuildError::DuplicateRules`] when two rules have identical match
    /// conditions — checked up front, once per build, on every backend —
    /// and [`BuildError::Rejected`] when the backend cannot hold the set
    /// (provisioning limits, RFC entry cap, a field with more distinct
    /// values than DCFL's or Option 1/2's labels can name). The tree
    /// itself was checked when it was parsed.
    pub fn build(&self, rules: &RuleSet) -> Result<Box<dyn PacketClassifier>, BuildError> {
        key_index(rules)?;
        self.build_unchecked(rules)
    }

    /// [`EngineBuilder::build`] without the duplicate check, over a set
    /// known to be duplicate-free: the root's checked set, a shard's
    /// slice of one, or the live rules of a snapshot writer.
    pub(crate) fn build_unchecked(
        &self,
        rules: &RuleSet,
    ) -> Result<Box<dyn PacketClassifier>, BuildError> {
        let kind = self.kind;
        let engine: Box<dyn PacketClassifier> = match (kind, self.opts) {
            (EngineKind::ConfigurableMbt | EngineKind::ConfigurableBst, _) => {
                Box::new(self.build_configurable(rules)?)
            }
            (EngineKind::Linear, _) => Box::new(LinearSearch::build(rules)),
            (EngineKind::HyperCuts, _) => Box::new(HyperCuts::build(rules)),
            (EngineKind::Rfc, _) => {
                Box::new(Rfc::build(rules, RFC_ENTRY_CAP).map_err(|e| self.rejected(e))?)
            }
            (EngineKind::Dcfl, _) => Box::new(Dcfl::build(rules).map_err(|e| self.rejected(e))?),
            (EngineKind::Option1 | EngineKind::Option2, _) => {
                Box::new(OptionClassifier::build(rules, kind).map_err(|e| self.rejected(e))?)
            }
            (EngineKind::Sharded, _) => Box::new(self.build_sharded(rules)?),
            (EngineKind::Cached, _) => Box::new(self.build_cached(rules)?),
            (EngineKind::Snapshot, _) => Box::new(self.snapshot_over(rules)?),
            (EngineKind::TupleSpace, _) => {
                Box::new(TupleSpaceEngine::build(rules).map_err(|e| self.rejected(e))?)
            }
            (EngineKind::SoftTcam, KindOpts::Tcam { capacity }) => {
                Box::new(SoftTcamEngine::build(rules, capacity).map_err(|e| self.rejected(e))?)
            }
            // `new` pairs every kind with its own options variant.
            (EngineKind::SoftTcam, _) => return Err(self.not_a(kind)),
        };
        Ok(engine)
    }
}

/// Dimension projection → id of the rule that has it.
pub(crate) type KeyIndex = HashMap<[DimValue; 7], RuleId>;

/// Duplicate 5-tuples are unrepresentable on the configurable
/// architecture; reject them uniformly so a set either builds on every
/// backend or on none, by indexing the set's projections once.
fn key_index(rules: &RuleSet) -> Result<(), BuildError> {
    #[cfg(test)]
    tests::KEY_INDEXES.with(|n| n.set(n.get() + 1));
    let mut first_seen = KeyIndex::with_capacity(rules.len());
    for (id, rule) in rules.iter() {
        if let Some(first) = first_seen.insert(rule.dim_values(), id) {
            return Err(BuildError::DuplicateRules { first, dup: id });
        }
    }
    Ok(())
}

/// One-shot convenience: parse a spec and build over a rule set.
///
/// # Errors
///
/// As [`EngineBuilder::from_spec`] and [`EngineBuilder::build`].
pub fn build_engine(spec: &str, rules: &RuleSet) -> Result<Box<dyn PacketClassifier>, BuildError> {
    EngineBuilder::from_spec(spec)?.build(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{Action, Header, PortRange, Priority, ProtoSpec, Rule};

    thread_local! {
        /// `key_index` calls on this thread: a build runs on its caller's.
        pub(super) static KEY_INDEXES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// `key_index` calls while `f` runs.
    fn key_indexes<T>(f: impl FnOnce() -> T) -> usize {
        KEY_INDEXES.set(0);
        f();
        KEY_INDEXES.get()
    }

    /// A `configurable-bst` leaf, each wrapper over it, and every legal
    /// depth-2 nesting of two wrappers over it.
    fn wrapped_specs() -> Vec<String> {
        let wrap = |kind: EngineKind, inner: &str| match kind {
            EngineKind::Sharded => format!("sharded:inner=({inner}),shards=2,strategy=prio"),
            _ => format!("{kind}:inner=({inner})"),
        };
        let leaf = "configurable-bst";
        let wrappers = [
            EngineKind::Sharded,
            EngineKind::Cached,
            EngineKind::Snapshot,
        ];
        let mut specs = vec![leaf.to_string()];
        specs.extend(wrappers.map(|w| wrap(w, leaf)));
        for outer in wrappers {
            for inner in wrappers {
                if legal_nesting(outer, inner).is_ok() {
                    specs.push(wrap(outer, &wrap(inner, leaf)));
                }
            }
        }
        specs
    }

    fn rules() -> RuleSet {
        RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Forward(1))
                .build(),
            Rule::builder(Priority(1)).action(Action::Drop).build(),
        ])
    }

    #[test]
    fn every_registry_kind_builds_and_classifies() {
        let rules = rules();
        let h = Header::new([9, 9, 9, 9].into(), [8, 8, 8, 8].into(), 1, 80, 6);
        for kind in EngineKind::ALL {
            // The defaults are the tree the bare kind name parses to.
            let b = EngineBuilder::new(kind);
            assert_eq!(EngineBuilder::from_spec(&kind.to_string()), Ok(b.clone()));
            let e = b.build(&rules).unwrap();
            assert_eq!(e.kind(), kind);
            assert_eq!(e.rules(), 2, "{kind}");
            assert_eq!(e.classify(&h).priority, Some(Priority(0)), "{kind}");
            assert!(e.memory_bits() > 0, "{kind}");
            // Update capability delegates to the built engine, not the
            // registry kind: the default sharded and cached configs wrap
            // configurable-bst inners, so they are updatable too. The
            // snapshot wrapper is updatable regardless of its inner —
            // build-once inners are rebuilt wholesale per update. The
            // tuple-space and software-TCAM backends are update-first by
            // design.
            let expected = matches!(
                kind,
                EngineKind::ConfigurableMbt
                    | EngineKind::ConfigurableBst
                    | EngineKind::Sharded
                    | EngineKind::Cached
                    | EngineKind::Snapshot
                    | EngineKind::TupleSpace
                    | EngineKind::SoftTcam
            );
            assert_eq!(e.supports_updates(), expected, "{kind}");
        }
    }

    #[test]
    fn sharded_capability_follows_the_inner_engines() {
        let rules = rules();
        // Configurable inners keep the §V.A update path alive...
        for spec in [
            "sharded:inner=configurable-bst,shards=2,strategy=prio",
            "sharded:inner=configurable-mbt,shards=2,strategy=hash",
        ] {
            let e = build_engine(spec, &rules).unwrap();
            assert!(e.supports_updates(), "{spec}");
        }
        // ...build-once inners do not.
        for spec in ["sharded:inner=linear,shards=2", "sharded:inner=hypercuts"] {
            let mut e = build_engine(spec, &rules).unwrap();
            assert!(!e.supports_updates(), "{spec}");
            assert!(matches!(
                e.insert(Rule::any(Priority(9))),
                Err(crate::UpdateError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn bad_option_key_list_tracks_the_parser_table() {
        let msg = BuildError::BadOption {
            option: "x".to_string(),
        }
        .to_string();
        for &key in SPEC_KEYS {
            assert!(msg.contains(key), "BadOption must list {key:?}: {msg}");
            // Every table entry is live grammar: with a garbage value the
            // backend that owns the key must fail on the *value*, never
            // with an unknown-key rejection.
            let owned = EngineKind::ALL.into_iter().any(|kind| {
                let e = EngineBuilder::from_spec(&format!("{kind}:{key}=\u{2301}")).unwrap_err();
                !matches!(
                    &e,
                    BuildError::ConfigError { reason, .. } if reason.contains("unknown key")
                )
            });
            assert!(owned, "{key:?} fell out of the parser");
        }
    }

    #[test]
    fn spec_options_reach_the_classifier() {
        let rules = rules();
        let b = EngineBuilder::from_spec("configurable-mbt:rf_bits=14").unwrap();
        assert_eq!(b.kind(), EngineKind::ConfigurableMbt);
        // Inspect the *built* engine's live config through the adapter
        // accessor, so dropping the parsed options in build() would fail
        // here.
        let engine = b.build_configurable(&rules).unwrap();
        let cfg = engine.classifier().config();
        assert_eq!(cfg.rule_filter_addr_bits, 14);
        assert_eq!(cfg.ip_alg, IpAlg::Mbt);
    }

    #[test]
    fn bad_specs_fail_loudly() {
        assert!(matches!(
            EngineBuilder::from_spec("warp-drive"),
            Err(BuildError::UnknownKind { .. })
        ));
        // Unknown keys are a hard ConfigError on every kind.
        assert!(matches!(
            EngineBuilder::from_spec("linear:frobnicate=1"),
            Err(BuildError::ConfigError { .. })
        ));
        for spec in [
            "sharded:frobnicate=1",
            // Keys that went with the code they tuned.
            "sharded:skew=2",
            "sharded:strategy=prio,skew=1.5",
            "configurable-bst:optimize=validated",
            "configurable-bst:combine=first",
            "configurable-bst:combine=probe",
            "linear:optimize=off",
            "cached:inner=linear,optimize=validated",
            "tss:tables=8",
            "tcam:partitions=8",
        ] {
            let e = EngineBuilder::from_spec(spec);
            let unknown = matches!(
                &e,
                Err(BuildError::ConfigError { reason, .. }) if reason.contains("unknown key")
            );
            assert!(unknown, "{spec}: {e:?}");
        }
        // Malformed values stay BadOption.
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:rf_bits=banana"),
            Err(BuildError::BadOption { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:rf_bits"),
            Err(BuildError::BadOption { .. })
        ));
        // Keys for another backend must fail loudly, not be silently
        // discarded.
        assert!(matches!(
            EngineBuilder::from_spec("rfc:capacity=64"),
            Err(BuildError::ConfigError { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("dcfl:rf_bits=20"),
            Err(BuildError::ConfigError { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("linear:shards=4"),
            Err(BuildError::ConfigError { .. })
        ));
        // Duplicated keys are ambiguous, not last-wins.
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:rf_bits=14,rf_bits=12"),
            Err(BuildError::ConfigError { .. })
        ));
    }

    #[test]
    fn sharded_spec_options_reach_the_engine() {
        let rules = rules();
        let b = EngineBuilder::from_spec(
            "sharded:inner=linear,shards=2,strategy=hash,hash_dim=dst_port",
        )
        .unwrap();
        assert_eq!(b.kind(), EngineKind::Sharded);
        let engine = b.build_sharded(&rules).unwrap();
        assert_eq!(engine.shards[0].engine.kind(), EngineKind::Linear);
        assert_eq!(
            engine.router.strategy(),
            ShardStrategy::FieldHash(Dim::DstPort)
        );
        assert!(engine.shards.len() <= 2);
        assert_eq!(engine.rules(), 2);

        // strategy=hash alone picks the default dimension.
        let b = EngineBuilder::from_spec("sharded:strategy=hash").unwrap();
        let engine = b.build_sharded(&rules).unwrap();
        assert!(matches!(
            engine.router.strategy(),
            ShardStrategy::FieldHash(_)
        ));

        // rf_bits reaches configurable inner shards through the inner spec.
        let b = EngineBuilder::from_spec("sharded:inner=(configurable-mbt:rf_bits=13),shards=2")
            .unwrap();
        assert!(b.build_sharded(&rules).is_ok());
    }

    #[test]
    fn wrappers_do_not_forward_inner_keys() {
        // The key is the inner engine's; the error shows where it goes,
        // wherever `inner=` stands in the list.
        for spec in [
            "sharded:inner=configurable-mbt,shards=2,rf_bits=13",
            "sharded:rf_bits=13,inner=configurable-mbt,shards=2",
        ] {
            let e = EngineBuilder::from_spec(spec);
            assert!(
                matches!(&e, Err(BuildError::ConfigError { option, reason })
                    if option == "rf_bits=13"
                        && reason.contains("inner=(configurable-mbt:rf_bits=13)")),
                "{spec}: {e:?}"
            );
        }
        // A key no part of the tree owns gets no such hint.
        let e = EngineBuilder::from_spec("sharded:inner=linear,rf_bits=13");
        assert!(
            matches!(&e, Err(BuildError::ConfigError { reason, .. })
                if reason.contains("unknown key") && !reason.contains("inner=(")),
            "{e:?}"
        );
    }

    #[test]
    fn slot_counts_past_the_link_bound_are_errors() {
        // Counts past what 32-bit slot links (or the allocator) can
        // address (2^64 - 1, 2^63), counts that fit the links but not
        // memory (2^30), and capacities whose modelled bits overflow a
        // u64 (2^60), and Rule Filter widths of no address bit, of 2^23
        // slots and past the word (the first and the last panic in the
        // filter's constructor): each is a ConfigError at parse, before
        // any count is rounded up or anything is allocated.
        for spec in [
            "cached:flows=18446744073709551615",
            "cached:flows=9223372036854775808",
            "tcam:capacity=1152921504606846976",
            "cached:flows=1073741824",
            "configurable-bst:rf_bits=0",
            "configurable-mbt:rf_bits=23",
            "configurable-mbt:rf_bits=64",
        ] {
            let e = EngineBuilder::from_spec(spec);
            assert!(
                matches!(e, Err(BuildError::ConfigError { .. })),
                "{spec}: {e:?}"
            );
        }
        // The bounds themselves still parse.
        for spec in [
            format!("cached:flows={MAX_FLOWS}"),
            format!("tcam:capacity={MAX_CAPACITY}"),
            "configurable-bst:rf_bits=1".to_string(),
            format!("configurable-mbt:rf_bits={MAX_RF_BITS}"),
        ] {
            assert!(EngineBuilder::from_spec(&spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn sharded_spec_inconsistencies_are_config_errors() {
        for spec in [
            "sharded:shards=0",                     // no shards
            "sharded:hash_dim=dst_port",            // hash_dim without strategy=hash
            "sharded:strategy=prio,hash_dim=proto", // same, explicit prio
            "sharded:inner=(linear:rf_bits=14)",    // rf_bits needs configurable inner
        ] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::ConfigError { .. })
                ),
                "{spec} must be a ConfigError"
            );
        }
        assert!(matches!(
            EngineBuilder::from_spec("sharded:inner=quantum"),
            Err(BuildError::UnknownKind { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("sharded:shards=many"),
            Err(BuildError::BadOption { .. })
        ));
        // An unknown dimension name is an unparseable value: BadOption,
        // like shards=many.
        assert!(matches!(
            EngineBuilder::from_spec("sharded:strategy=hash,hash_dim=warp"),
            Err(BuildError::BadOption { .. })
        ));
    }

    #[test]
    fn spec_key_order_does_not_matter() {
        let rules = rules();
        for spec in [
            "sharded:strategy=hash,hash_dim=proto,inner=linear",
            "sharded:hash_dim=proto,strategy=hash,inner=linear",
            "sharded:inner=linear,hash_dim=proto,strategy=hash",
        ] {
            let e = EngineBuilder::from_spec(spec)
                .unwrap()
                .build_sharded(&rules);
            assert_eq!(
                e.unwrap().router.strategy(),
                ShardStrategy::FieldHash(Dim::Proto),
                "{spec}"
            );
        }
    }

    #[test]
    fn duplicate_rules_reject_on_every_backend() {
        // Identical match conditions (priorities differ — they are not
        // part of the filter) are a uniform hard error: no backend may
        // accept a set another backend must reject.
        let dup = RuleSet::from_rules(vec![Rule::any(Priority(0)), Rule::any(Priority(1))]);
        for kind in EngineKind::ALL {
            let e = EngineBuilder::new(kind).build(&dup);
            assert!(
                matches!(
                    e,
                    Err(BuildError::DuplicateRules {
                        first: spc_types::RuleId(0),
                        dup: spc_types::RuleId(1),
                    })
                ),
                "{kind} must reject duplicate 5-tuples"
            );
        }
        // Same conditions *and* different fields: fine everywhere.
        let ok = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ]);
        for kind in EngineKind::ALL {
            assert!(EngineBuilder::new(kind).build(&ok).is_ok(), "{kind}");
        }
        // Twins at priority extremes land in different bands, where no
        // per-slice build sees both — both entry points must still
        // refuse them, under a sharded inner and a single one.
        let mut split: RuleSet = (0..10u16)
            .map(|i| {
                Rule::builder(Priority(10 + u32::from(i)))
                    .dst_port(PortRange::exact(i))
                    .build()
            })
            .collect();
        for priority in [2, 5000] {
            split.push(
                Rule::builder(Priority(priority))
                    .dst_port(PortRange::exact(900))
                    .build(),
            );
        }
        let twins = Err(BuildError::DuplicateRules {
            first: RuleId(10),
            dup: RuleId(11),
        });
        for spec in wrapped_specs() {
            let b = EngineBuilder::from_spec(&spec).unwrap();
            assert_eq!(b.build(&split).map(|_| ()), twins, "{spec}");
            if b.kind() == EngineKind::Snapshot {
                assert_eq!(b.build_snapshot(&split).map(|_| ()), twins, "{spec}");
            }
        }
    }

    #[test]
    fn every_build_indexes_its_set_once() {
        // Only the root checks for duplicates; a `cached:` inner, each
        // shard and a snapshot copy build over a set known to be clean.
        let rules: RuleSet = (0..8u16)
            .map(|i| {
                Rule::builder(Priority(u32::from(i)))
                    .dst_port(PortRange::exact(i))
                    .build()
            })
            .collect();
        let specs = wrapped_specs();
        assert_eq!(specs.len(), 9, "{specs:?}");
        for spec in &specs {
            let b = EngineBuilder::from_spec(spec).unwrap();
            assert_eq!(key_indexes(|| b.build(&rules).unwrap()), 1, "{spec}");
            if b.kind() == EngineKind::Snapshot {
                let n = key_indexes(|| b.build_snapshot(&rules).unwrap());
                assert_eq!(n, 1, "{spec}");
            }
        }
        // A snapshot writer over a build-once inner rebuilds its copy on
        // every update, and checks the update against its live rules.
        let mut writer = EngineBuilder::from_spec("snapshot:inner=linear")
            .unwrap()
            .build_snapshot(&rules)
            .unwrap();
        let extra = Rule::builder(Priority(99))
            .dst_port(PortRange::exact(99))
            .build();
        let n = key_indexes(|| {
            let id = writer.insert(extra).unwrap();
            writer.remove(id).unwrap();
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn audit_surfaces_findings_and_matches_provisioning() {
        let rules = rules();
        let b = EngineBuilder::new(EngineKind::ConfigurableBst);
        let report = b.audit(&rules);
        // Rule 1 is a catch-all below a specific rule: clean, no shadows.
        assert!(report.shadowed_rules().is_empty());
        assert!(!report.has_errors());
        // Limits mirror the exact config build() would use, including
        // Rule Filter auto-sizing.
        let limits = b.audit_limits(&rules);
        let cfg = b.arch_for(&rules);
        assert_eq!(limits.rule_filter_slots, cfg.rule_slots());
    }

    #[test]
    fn audit_gate_rejects_error_sets() {
        // 9 distinct filters against a 4-slot Rule Filter: the audit
        // predicts overflow as an error before any engine is built.
        let rules: RuleSet = (0..9u16)
            .map(|i| {
                Rule::builder(Priority(u32::from(i)))
                    .dst_port(PortRange::exact(i))
                    .proto(ProtoSpec::Exact(6))
                    .build()
            })
            .collect();
        let b = EngineBuilder::from_spec("configurable-bst:rf_bits=2").unwrap();
        assert!(
            b.audit(&rules).has_errors(),
            "audit must flag the overflowing set"
        );
        // Built anyway, the set fails later, inside the engine, with a
        // less specific capacity error.
        assert!(matches!(b.build(&rules), Err(BuildError::Rejected { .. })));
        // Warning-level findings (a shadowed rule) are not errors.
        let shadowing = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ]);
        let b = EngineBuilder::new(EngineKind::ConfigurableBst);
        let report = b.audit(&shadowing);
        assert_eq!(report.max_severity(), Some(spc_analyze::Severity::Warning));
        assert!(!report.has_errors());
        assert!(b.build(&shadowing).is_ok());
    }

    #[test]
    fn cached_spec_options_reach_the_engine() {
        let rules = rules();
        let b = EngineBuilder::from_spec("cached:inner=linear,flows=128").unwrap();
        assert_eq!(b.kind(), EngineKind::Cached);
        let engine = b.build_cached(&rules).unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::Linear);
        // The cache's bits are its table's 44-byte slots.
        let slot_bits = 44 * 8;
        let cache_bits = |e: &CachedEngine| e.memory_bits() - e.inner().memory_bits();
        assert_eq!(cache_bits(&engine), 128 * slot_bits);

        // Defaults: configurable-bst inner, 4 096 slots.
        let engine = EngineBuilder::from_spec("cached")
            .unwrap()
            .build_cached(&rules)
            .unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::ConfigurableBst);
        assert_eq!(cache_bits(&engine), 4096 * slot_bits);
        assert!(engine.supports_updates());

        // A nested inner spec tunes the inner engine in place; parens
        // protect its commas from the outer split.
        let engine =
            EngineBuilder::from_spec("cached:inner=(sharded:inner=linear,shards=2),flows=64")
                .unwrap()
                .build_cached(&rules)
                .unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::Sharded);
        // Colon-style nested options work without parens when comma-free.
        let engine = EngineBuilder::from_spec("cached:inner=configurable-mbt:rf_bits=14")
            .unwrap()
            .build_cached(&rules)
            .unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::ConfigurableMbt);
    }

    #[test]
    fn cached_spec_inconsistencies_are_config_errors() {
        // flows=0 is a typed ConfigError.
        let e = EngineBuilder::from_spec("cached:flows=0").unwrap_err();
        assert!(
            matches!(&e, BuildError::ConfigError { reason, .. } if reason.contains("flows")),
            "{e}"
        );
        // A broken nested spec carries the inner parser's message.
        let e = EngineBuilder::from_spec("cached:inner=(linear:frobnicate=1)").unwrap_err();
        match &e {
            BuildError::ConfigError { reason, .. } => {
                assert!(
                    reason.contains("frobnicate"),
                    "inner message kept: {reason}"
                );
            }
            other => panic!("expected ConfigError, got {other}"),
        }
        // A malformed option anywhere outranks a range rule below it, and
        // of two broken nodes the outer one is named.
        assert!(matches!(
            EngineBuilder::from_spec("cached:inner=(tcam:capacity=0),flows=banana"),
            Err(BuildError::BadOption { .. })
        ));
        let e = EngineBuilder::from_spec("cached:inner=(tcam:capacity=0),flows=0");
        assert!(
            matches!(&e, Err(BuildError::ConfigError { option, .. }) if option == "flows=0"),
            "{e:?}"
        );
        // Cache keys belong to the cached backend only; rf_bits does not
        // forward through the wrapper (tune the nested inner spec), and
        // `megaflow` is no key at all.
        for spec in [
            "linear:flows=64",
            "sharded:megaflow=on",
            "cached:rf_bits=14",
            "cached:megaflow=sideways",
            "cached:megaflow=on",
            "cached:megaflow=off",
        ] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::ConfigError { .. })
                ),
                "{spec} must be rejected"
            );
        }
    }

    #[test]
    fn tuplespace_and_tcam_spec_options_reach_the_engine() {
        let rules = rules();
        let e = build_engine("tss", &rules).unwrap();
        assert_eq!(e.kind(), EngineKind::TupleSpace);
        assert!(e.supports_updates());
        let e = build_engine("tcam:capacity=1024", &rules).unwrap();
        assert_eq!(e.kind(), EngineKind::SoftTcam);
        assert!(e.supports_updates());
        // The TCAM's bits price every provisioned slot: the capacity
        // arrived.
        let small = build_engine("tcam:capacity=512", &rules).unwrap();
        assert!(e.memory_bits() > small.memory_bits());
        // Both compose as wrapper inners and under sharding.
        for spec in [
            "cached:inner=tss,flows=64",
            "snapshot:inner=(tcam:capacity=4096)",
            "sharded:inner=tss,shards=2",
            "sharded:inner=tcam,shards=2",
        ] {
            let e = build_engine(spec, &rules).unwrap();
            assert_eq!(e.rules(), 2, "{spec}");
            assert!(e.supports_updates(), "{spec}");
        }
    }

    #[test]
    fn tuplespace_and_tcam_spec_errors_are_typed() {
        // A malformed value is BadOption, an out-of-range one ConfigError.
        assert!(matches!(
            EngineBuilder::from_spec("tcam:capacity=big"),
            Err(BuildError::BadOption { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("tcam:capacity=0"),
            Err(BuildError::ConfigError { .. })
        ));
        // Each backend's keys belong to it alone.
        for spec in [
            "tcam:flows=8",
            "tss:capacity=64",
            "linear:capacity=2",
            "sharded:inner=tcam,capacity=8",
        ] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::ConfigError { .. })
                ),
                "{spec} must be ConfigError"
            );
        }
        // A rule set whose expansion overflows the TCAM is a typed
        // build rejection, not a panic.
        let wide = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .src_port(PortRange::new(1000, 40000).unwrap())
            .build()]);
        let e = EngineBuilder::from_spec("tcam:capacity=4")
            .unwrap()
            .build(&wide);
        assert!(
            matches!(&e, Err(BuildError::Rejected { kind, reason })
                if *kind == EngineKind::SoftTcam && reason.contains("capacity")),
            "expected a capacity rejection, got {e:?}"
        );
    }

    #[test]
    fn rule_filter_autosizing_scales() {
        let b = EngineBuilder::new(EngineKind::ConfigurableMbt);
        let small = b.arch_for(&rules());
        assert_eq!(
            small.rule_filter_addr_bits,
            ArchConfig::large().rule_filter_addr_bits
        );
        let many: RuleSet = (0..40_000u32)
            .map(|i| {
                Rule::builder(Priority(i))
                    .dst_port(PortRange::exact(i as u16))
                    .build()
            })
            .collect();
        let big = b.arch_for(&many);
        assert!(big.rule_filter_addr_bits > ArchConfig::large().rule_filter_addr_bits);
    }

    #[test]
    fn nesting_is_bounded_by_the_table_not_the_input() {
        // Untrusted input: 100 000 alternating wrappers would need one
        // parser frame each; the table refuses the third level.
        let deep =
            "cached:inner=(snapshot:inner=(".repeat(50_000) + "linear" + &")".repeat(100_000);
        assert!(matches!(
            EngineBuilder::from_spec(&deep),
            Err(BuildError::ConfigError { .. })
        ));
        // A wrapper may not reach itself through another wrapper either,
        // nor a snapshot hide below a sharded engine's cache.
        for spec in [
            "cached:inner=(sharded:inner=cached)",
            "cached:inner=(snapshot:inner=(cached:inner=(snapshot:inner=linear)))",
            "sharded:inner=(cached:inner=snapshot)",
        ] {
            let e = EngineBuilder::from_spec(spec);
            assert!(matches!(e, Err(BuildError::ConfigError { .. })), "{spec}");
        }
        let ok = "cached:inner=(snapshot:inner=(sharded:inner=(tcam:capacity=4096),shards=2))";
        assert_eq!(build_engine(ok, &rules()).unwrap().rules(), 2);
    }

    #[test]
    fn audit_judges_the_configurable_leaf_under_wrappers() {
        // The 9-rule set of `audit_gate_rejects_error_sets`: it cannot
        // fit a 4-slot Rule Filter, wrapped or not.
        let rules: RuleSet = (0..9u16)
            .map(|i| {
                Rule::builder(Priority(u32::from(i)))
                    .dst_port(PortRange::exact(i))
                    .proto(ProtoSpec::Exact(6))
                    .build()
            })
            .collect();
        for spec in [
            "configurable-bst:rf_bits=2",
            "cached:inner=(configurable-bst:rf_bits=2)",
            "snapshot:inner=(configurable-mbt:rf_bits=2)",
        ] {
            let b = EngineBuilder::from_spec(spec).unwrap();
            assert_eq!(b.audit_limits(&rules).rule_filter_slots, 4, "{spec}");
            assert!(b.audit(&rules).has_errors(), "{spec}");
        }
        // The leaf is judged as what it is: an MBT inner gets the limits
        // a bare MBT engine gets.
        let bare = EngineBuilder::from_spec("configurable-mbt:rf_bits=2").unwrap();
        let wrapped = EngineBuilder::from_spec("snapshot:inner=(configurable-mbt:rf_bits=2)");
        assert_eq!(
            wrapped.unwrap().audit_limits(&rules),
            bare.audit_limits(&rules)
        );
        assert_eq!(bare.arch_for(&rules).ip_alg, IpAlg::Mbt);
    }

    /// SplitMix64, so the property below is seeded and dependency-free.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random legal tree with every option drawn, defaults included.
    fn random_tree(rng: &mut u64, ancestors: &[EngineKind]) -> EngineBuilder {
        let mut pick = |n: u64| next(rng) % n;
        let kind = loop {
            let kind = EngineKind::ALL[pick(13) as usize];
            if nest_under(ancestors, kind).is_ok() {
                break kind;
            }
        };
        let opts = match KindOpts::defaults(kind) {
            KindOpts::None => KindOpts::None,
            KindOpts::Configurable { .. } => KindOpts::Configurable {
                rf_bits: [None, Some(10 + pick(8) as u32)][pick(2) as usize],
            },
            KindOpts::Sharded { .. } => {
                let hash = pick(2) == 0;
                KindOpts::Sharded {
                    shards: 1 + pick(9) as usize,
                    strategy: if hash {
                        ShardStrategy::FieldHash(DEFAULT_HASH_DIM)
                    } else {
                        ShardStrategy::PriorityBands
                    },
                    hash_dim: [None, Some(ALL_DIMS[pick(7) as usize])]
                        [usize::from(hash) * pick(2) as usize],
                }
            }
            KindOpts::Cached { .. } => KindOpts::Cached {
                flows: 1 << pick(14),
            },
            KindOpts::Tcam { .. } => KindOpts::Tcam {
                capacity: 1 + pick(5000) as usize,
            },
        };
        let mut node = EngineBuilder::new(kind);
        node.opts = opts;
        if node.inner.is_some() {
            node.inner = Some(Box::new(random_tree(rng, &[ancestors, &[kind]].concat())));
        }
        node
    }

    #[test]
    fn display_round_trips_random_legal_trees() {
        // No key can be printed and not read back, or parsed and then
        // dropped from the tree: `from_spec` inverts `Display` exactly.
        let mut rng = 2014;
        let mut wrapped = 0;
        for _ in 0..2000 {
            let tree = random_tree(&mut rng, &[]);
            wrapped += usize::from(tree.inner.is_some());
            assert_eq!(EngineBuilder::from_spec(&tree.to_string()), Ok(tree));
        }
        assert!(wrapped > 200, "the generator reaches wrapper nodes");
        // The canonical form keeps the key on the node that owns it.
        let b = EngineBuilder::from_spec("sharded:inner=configurable-mbt:rf_bits=13,shards=2");
        assert_eq!(
            b.unwrap().to_string(),
            "sharded:inner=(configurable-mbt:rf_bits=13),shards=2"
        );
    }
}
