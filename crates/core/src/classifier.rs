//! The configurable packet classifier (paper §III, Fig 2).
//!
//! [`Classifier`] bundles the software controller (label tables with
//! reference counters, Fig 4) and the hardware data plane (seven parallel
//! field engines, per-dimension label memories, the hash unit and the Rule
//! Filter). The `IPalg_s` signal is [`Classifier::set_ip_alg`]; rule
//! install/remove follow the paper's incremental-update protocol; and
//! every classify returns full cycle/memory-access accounting so the
//! evaluation harness can regenerate Tables V–VII.

use crate::config::{ArchConfig, CombineStrategy, IpAlg};
use crate::error::ClassifierError;
use crate::labels::{InsertOutcome, LabelTable, RemoveOutcome};
use crate::memory::{BlockUsage, MemoryReport, SharingReport};
use crate::pipeline::LookupTiming;
use crate::rulefilter::{Hit, RuleFilter};
use spc_hwsim::HashUnit;
use spc_lookup::{
    EngineError, FieldEngine, Label, LabelEntry, LabelList, LabelStore, MbtConfig, MultiBitTrie,
    PortRegisters, ProtocolLut, RangeBst,
};
use spc_types::{Dim, DimValue, Header, Priority, Rule, RuleId, ALL_DIMS, IP_SEG_DIMS};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

/// One dimension's hardware unit: the active engine, its label memory and
/// the controller-side label table.
#[derive(Debug)]
struct DimUnit {
    dim: Dim,
    engine: Box<dyn FieldEngine>,
    store: LabelStore,
    table: LabelTable,
    /// IP segments: the wildcard register, the `/0` value's label at its
    /// best priority while any rule uses it. A `/0` matches every query,
    /// so it is held here instead of in every interval or root list of
    /// the engine. Phase 2's list for the dimension is the engine's list
    /// with this entry merged in at its priority; the combine reads the
    /// two side by side instead of copying the entry into the list.
    /// Like the port registers, it is read at no memory access.
    wildcard: Option<LabelEntry>,
    /// Write cycles the register has cost: one per change.
    wildcard_writes: u64,
    /// `sip_hi` / `dip_hi`: per label, whether its value is a full `/16`
    /// — the flag bit every word of these label memories carries (empty
    /// in the other dimensions).
    full: Vec<bool>,
}

/// Whether `value` is a `/0` segment, which lives in its dimension's
/// wildcard register and never in the engine.
fn in_register(value: DimValue) -> bool {
    matches!(value, DimValue::Seg(seg) if seg.is_any())
}

impl DimUnit {
    /// Stores `value` under `entry`, new or re-prioritised: a `/0`
    /// segment in the wildcard register, anything else in the engine.
    fn put(&mut self, value: DimValue, entry: LabelEntry) -> Result<(), EngineError> {
        let full = self.full.get_mut(usize::from(entry.label.0));
        if let (DimValue::Seg(seg), Some(full)) = (value, full) {
            *full = seg.len() == 16;
        }
        if in_register(value) {
            self.wildcard = Some(entry);
            self.wildcard_writes += 1;
            return Ok(());
        }
        self.engine.insert(&mut self.store, value, entry)
    }

    /// Takes `value`, whose last user left, out of the register or the
    /// engine.
    fn drop_value(&mut self, value: DimValue, label: Label) {
        if in_register(value) {
            self.wildcard = None;
            self.wildcard_writes += 1;
        } else {
            let _ = self.engine.remove(&mut self.store, value, label);
        }
    }
}

/// Full result of one classify, with hardware-model accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The HPMR, or `None` on a miss.
    pub hit: Option<Hit>,
    /// Pipeline timing of this lookup.
    pub timing: LookupTiming,
    /// Memory words read by the field engines + label memories (phase 2).
    pub engine_reads: u32,
    /// Memory words read in the Rule Filter (phase 4).
    pub rule_filter_reads: u32,
    /// Label combinations probed (1 = the paper's fast path sufficed).
    pub combos_probed: u32,
}

impl Classification {
    /// Total memory reads across all phases.
    pub fn total_reads(&self) -> u32 {
        self.engine_reads + self.rule_filter_reads
    }
}

/// Report of one rule install/remove (paper §V.A accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// The affected rule.
    pub rule_id: RuleId,
    /// Labels newly created (engines had to store a value).
    pub created_labels: u32,
    /// Labels freed (engines had to delete a value).
    pub freed_labels: u32,
    /// Hardware memory write cycles: 2 rule-data cycles + 1 hash cycle
    /// (§V.A) plus every structural/label-memory word written.
    pub hw_write_cycles: u64,
}

/// An installed rule (controller bookkeeping).
#[derive(Debug, Clone, Copy)]
struct Installed {
    rule: Rule,
    key: u128,
}

/// Live rules per priority value: controller state beside the installed
/// rules. The datapath sees one signal of it, like `IPalg_s`: whether no
/// two live rules share a priority (`shared == 0`), which lets the box
/// walk return on the first hit that meets its shell's bound.
#[derive(Debug, Default)]
struct PriorityCounts {
    counts: HashMap<Priority, u32>,
    /// Priority values more than one live rule holds.
    shared: usize,
}

impl PriorityCounts {
    fn add(&mut self, priority: Priority) {
        let count = self.counts.entry(priority).or_insert(0);
        *count += 1;
        if *count == 2 {
            self.shared += 1;
        }
    }

    fn remove(&mut self, priority: Priority) {
        if let Entry::Occupied(mut count) = self.counts.entry(priority) {
            *count.get_mut() -= 1;
            match *count.get() {
                0 => {
                    count.remove();
                }
                1 => self.shared -= 1,
                _ => {}
            }
        }
    }
}

/// Reusable working memory for [`Classifier::classify_with`].
///
/// One lookup needs the seven phase-2 label lists plus (in
/// [`CombineStrategy::PriorityProbe`] mode) the five priority-ordered
/// lists the box walk runs over and its level products: the partial
/// keys of levels `l..` inside the priority box, 24 bytes each. A level
/// holds `∏_{j≥l} hi_j` of them, no more than the box's combinations,
/// so a caller that keeps one of these allocates nothing
/// per lookup once every buffer has grown to the largest box seen — and
/// keeps that much: a 300 × 300-combination box leaves about 4 MB here.
/// [`Classifier::classify`] keeps one per thread.
#[derive(Debug, Default)]
pub struct ClassifyScratch {
    /// Phase-2 output: one label list per dimension, refilled in place
    /// by `FieldEngine::lookup_into` (an IP segment's wildcard register
    /// beside it).
    lists: [LabelList; 7],
    /// The lists the priority box walks, one per [`LEVELS`] entry: each
    /// address's shape-valid hi/lo pairs, then the two ports and the
    /// protocol, in `(priority, min, key bits)` order — the port and
    /// protocol engines emit the paper's Table IV hardware order instead —
    /// with every label shifted to its place in the merged key.
    placed: [Vec<Placed>; LEVELS.len()],
    /// Per level `l`, the partial keys level `l`'s labels extend: those
    /// of levels `l + 1..` inside the box walked so far (the last level
    /// holds only the empty key).
    below: [Partials; LEVELS.len()],
    /// Partial keys the last box walk hashed.
    hashed: usize,
}

/// Partial merged keys and, at the same index, the hash state over the
/// key bytes each one completes.
#[derive(Debug, Default)]
struct Partials {
    keys: Vec<u128>,
    states: Vec<u64>,
}

impl Partials {
    /// Appends every key of `keys` ORed with every label, label-major,
    /// its state advanced over the bytes the label completes.
    fn extend(
        &mut self,
        labels: &[Placed],
        keys: &[u128],
        states: &[u64],
        absorb: impl Fn(u64, u128) -> u64,
    ) {
        let Partials {
            keys: out,
            states: out_states,
        } = self;
        out.reserve(labels.len() * keys.len());
        out_states.reserve(labels.len() * keys.len());
        for label in labels {
            for (&key, &state) in keys.iter().zip(states) {
                let key = key | label.bits;
                out.push(key);
                out_states.push(absorb(state, key));
            }
        }
    }
}

/// One label (or hi/lo pair of labels) of a priority-ordered list, at its
/// dimensions' bit offsets in the merged key: combining labels is an OR.
#[derive(Debug, Clone, Copy)]
struct Placed {
    /// The worse of the label priorities: no rule stored under this
    /// entry beats it.
    priority: Priority,
    /// The better of the label priorities (`priority` for one label).
    /// It orders the pairs one `priority` holds without label ids.
    min: Priority,
    bits: u128,
}

impl Placed {
    /// The pair of a hi label and a lo label: a rule stored under both
    /// has a priority no better than either's.
    fn pair(self, lo: Placed) -> Placed {
        Placed {
            priority: self.priority.max(lo.priority),
            min: self.min.min(lo.min),
            bits: self.bits | lo.bits,
        }
    }
}

/// The dimensions each level of the priority box walk covers, top of the
/// merged key first. `Prefix::segments` gives every address one of two
/// shapes — a short hi with the `/0` lo, or a full `/16` hi with any lo —
/// so an address's hi and lo labels are walked as one list of the pairs a
/// rule can occupy.
const LEVELS: [Range<usize>; 5] = [0..2, 2..4, 4..5, 5..6, 6..7];

impl ClassifyScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        ClassifyScratch::default()
    }
}

thread_local! {
    /// The scratch behind the single-shot [`Classifier::classify`].
    static SCRATCH: RefCell<ClassifyScratch> = RefCell::new(ClassifyScratch::new());
}

/// Evaluates `$body` with `$absorb` bound to a `(state, key) -> state`
/// closure absorbing the byte range `$bytes` of `key`. The key layouts
/// absorb 0, 1, 3, 4 or 5 bytes per level; each of those widths gets its
/// own copy of `$body` with the rounds unrolled, any other the
/// runtime-width loop.
macro_rules! with_absorb {
    ($bytes:expr, |$absorb:ident| $body:expr) => {{
        let Range {
            start: from,
            end: to,
        } = $bytes;
        match to - from {
            0 => {
                let $absorb = |state: u64, _: u128| state;
                $body
            }
            1 => {
                let $absorb = |state, key| HashUnit::absorb_n::<1>(state, key, from);
                $body
            }
            3 => {
                let $absorb = |state, key| HashUnit::absorb_n::<3>(state, key, from);
                $body
            }
            4 => {
                let $absorb = |state, key| HashUnit::absorb_n::<4>(state, key, from);
                $body
            }
            5 => {
                let $absorb = |state, key| HashUnit::absorb_n::<5>(state, key, from);
                $body
            }
            _ => {
                let $absorb = |state, key| HashUnit::absorb(state, key, from, to);
                $body
            }
        }
    }};
}

/// The configurable label-based packet classifier.
///
/// ```
/// use spc_core::{Classifier, ArchConfig};
/// use spc_types::{Rule, Priority, PortRange, ProtoSpec, Action, Header};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cls = Classifier::new(ArchConfig::default());
/// let web = Rule::builder(Priority(0))
///     .dst_port(PortRange::exact(80))
///     .proto(ProtoSpec::Exact(6))
///     .action(Action::Forward(1))
///     .build();
/// let id = cls.insert(web)?.rule_id;
/// let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 999, 80, 6);
/// let c = cls.classify(&h);
/// assert_eq!(c.hit.unwrap().rule_id, id);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Classifier {
    config: ArchConfig,
    dims: Vec<DimUnit>,
    rule_filter: RuleFilter,
    /// Per [`LEVELS`] entry, the key bytes the hash absorbs when that
    /// level's labels join a partial key of the levels below it: the
    /// bytes under the next level up's first byte, and for level 0 the
    /// rest of the key.
    absorbs: [Range<usize>; LEVELS.len()],
    rules: HashMap<u32, Installed>,
    priorities: PriorityCounts,
    next_id: u32,
}

impl Classifier {
    /// Builds an empty classifier for the given configuration.
    pub fn new(config: ArchConfig) -> Self {
        let dims = ALL_DIMS
            .iter()
            .map(|&dim| DimUnit {
                dim,
                engine: Self::make_engine(&config, dim),
                store: Self::make_store(&config, dim),
                table: LabelTable::new(Self::label_width(&config, dim)),
                wildcard: None,
                wildcard_writes: 0,
                full: match dim {
                    Dim::SipHi | Dim::DipHi => vec![false; 1 << config.label_widths.ip],
                    _ => Vec::new(),
                },
            })
            .collect();
        let widths = ALL_DIMS.map(|dim| Self::label_width(&config, dim));
        let rule_filter = RuleFilter::new(config.rule_filter_addr_bits, &widths);
        let first_byte = |l: usize| (rule_filter.shift(LEVELS[l].end - 1) / 8) as usize;
        let absorbs = std::array::from_fn(|l| match l {
            0 => first_byte(0)..rule_filter.key_bytes(),
            _ => first_byte(l)..first_byte(l - 1),
        });
        Classifier {
            config,
            dims,
            rule_filter,
            absorbs,
            rules: HashMap::new(),
            priorities: PriorityCounts::default(),
            next_id: 0,
        }
    }

    fn label_width(config: &ArchConfig, dim: Dim) -> u8 {
        match dim {
            d if d.is_ip_segment() => config.label_widths.ip,
            Dim::Proto => config.label_widths.proto,
            _ => config.label_widths.port,
        }
    }

    fn make_engine(config: &ArchConfig, dim: Dim) -> Box<dyn FieldEngine> {
        match dim {
            d if d.is_ip_segment() => match config.ip_alg {
                IpAlg::Mbt => Box::new(MultiBitTrie::new(MbtConfig::segment_paper(
                    config.mbt_leaf_nodes,
                ))),
                IpAlg::Bst => Box::new(RangeBst::new(config.bst_max_intervals)),
            },
            Dim::Proto => Box::new(ProtocolLut::new()),
            _ => Box::new(PortRegisters::new(config.port_registers)),
        }
    }

    /// A dimension's label memory. A `sip_hi` / `dip_hi` word carries one
    /// bit beside the label: whether its value is a full `/16`.
    fn make_store(config: &ArchConfig, dim: Dim) -> LabelStore {
        let (cap, width) = match dim {
            Dim::SipHi | Dim::DipHi => (config.ip_label_entries, config.label_widths.ip + 1),
            d if d.is_ip_segment() => (config.ip_label_entries, config.label_widths.ip),
            Dim::Proto => (
                1usize << config.label_widths.proto,
                config.label_widths.proto,
            ),
            _ => (config.port_label_entries, config.label_widths.port),
        };
        LabelStore::new(format!("{dim}/labels"), cap, width)
    }

    /// The active configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Installed rule count.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Priority values more than one live rule holds. While it is 0 the
    /// exact combine returns on the first hit that meets its shell's
    /// bound; otherwise it probes each shell whole to break the ties.
    pub fn shared_priorities(&self) -> usize {
        self.priorities.shared
    }

    /// Live label count per dimension, in [`ALL_DIMS`] order (Table II's
    /// unique-field counts as seen by the hardware).
    pub fn live_labels(&self) -> [usize; 7] {
        let mut out = [0; 7];
        for (i, d) in self.dims.iter().enumerate() {
            out[i] = d.table.len();
        }
        out
    }

    /// The Rule Filter hash store (read-only). Exposed so external
    /// analyses can compare predicted label-combination counts against
    /// the actual occupancy and probe-chain statistics.
    pub fn rule_filter(&self) -> &RuleFilter {
        &self.rule_filter
    }

    /// Installs a rule (Fig 4's incremental update).
    ///
    /// # Errors
    ///
    /// * [`ClassifierError::Capacity`] — an engine block, label space or
    ///   label memory is full (the architecture's provisioning limit);
    /// * [`ClassifierError::DuplicateKey`] — an identical 5-tuple is
    ///   already installed;
    /// * [`ClassifierError::RuleFilterFull`] — no rule slot left.
    ///
    /// On error the classifier state is rolled back.
    pub fn insert(&mut self, rule: Rule) -> Result<UpdateReport, ClassifierError> {
        self.insert_inner(rule, false)
    }

    /// Bulk-loads a rule set — the software controller's batch
    /// programming path. The BST push-down is done once for the batch
    /// (one final flush) instead of once per rule. What the hardware is
    /// written, and in which order labels are allocated, is what one
    /// [`Classifier::insert`] per rule would do. Each label's priority
    /// multiset is settled on the label's next remove, as after any
    /// insert (see [`LabelTable::insert`]), so the first remove of a
    /// widely shared label after a load sorts the priorities the load
    /// queued for it.
    ///
    /// # Errors
    ///
    /// As [`Classifier::insert`], from the first rule that does not go in
    /// or from the final flush. The batch is all or nothing: on error
    /// every rule of it that was installed is taken out again, so the
    /// classifier holds, and answers with, exactly what it did before the
    /// call.
    pub fn load(&mut self, rules: &spc_types::RuleSet) -> Result<Vec<RuleId>, ClassifierError> {
        let first_id = self.next_id;
        let mut ids = Vec::with_capacity(rules.len());
        self.rules.reserve(rules.len());
        self.priorities.counts.reserve(rules.len());
        let inserted = rules.rules().iter().try_for_each(|rule| {
            ids.push(self.insert_inner(*rule, true)?.rule_id);
            Ok(())
        });
        if let Err(e) = inserted.and_then(|()| self.flush_engines()) {
            for id in ids {
                let _ = self.uninstall(id);
            }
            self.next_id = first_id;
            // What is left fitted before the call, so this flush succeeds.
            let _ = self.flush_engines();
            return Err(e);
        }
        Ok(ids)
    }

    /// Installs one rule; with `defer` (a [`Classifier::load`]) the
    /// engines are not flushed, which is left to the caller.
    fn insert_inner(&mut self, rule: Rule, defer: bool) -> Result<UpdateReport, ClassifierError> {
        let id = RuleId(self.next_id);
        let writes_before = self.write_cycles();
        let dim_values = rule.dim_values();
        let mut labels = [Label(0); 7];
        let mut created = 0u32;
        let mut completed = 0usize;
        let mut result: Result<(), ClassifierError> = Ok(());
        for (i, unit) in self.dims.iter_mut().enumerate() {
            let value = dim_values[i];
            // A new label, or one whose best priority this rule now is,
            // is (re)stored at the rule's priority. Priority order for
            // every dimension: the port and protocol engines recompute
            // their own list order internally (§IV.C.1).
            let (label, store) = match unit.table.insert(value, rule.priority) {
                Ok(InsertOutcome::Created { label }) => {
                    created += 1;
                    (label, true)
                }
                Ok(InsertOutcome::Referenced {
                    label,
                    priority_improved,
                }) => (label, priority_improved),
                Err(e) => {
                    result = Err(spc_lookup::EngineError::from(e).into());
                    break;
                }
            };
            if store {
                if let Err(e) = unit.put(value, LabelEntry::by_priority(label, rule.priority)) {
                    // Undo this dimension's table entry.
                    unit.table.remove(&value, rule.priority);
                    result = Err(e.into());
                    break;
                }
            }
            labels[i] = label;
            completed = i + 1;
        }
        if let Err(e) = result {
            self.release_labels(&dim_values, rule.priority, completed);
            let _ = self.flush_engines();
            return Err(e);
        }
        let key = self.rule_filter.key(&labels);
        if let Err(e) = self.rule_filter.insert(key, id, rule) {
            self.release_labels(&dim_values, rule.priority, 7);
            let _ = self.flush_engines();
            return Err(e);
        }
        if !defer {
            if let Err(e) = self.flush_engines() {
                let _ = self.rule_filter.remove(key, id);
                self.release_labels(&dim_values, rule.priority, 7);
                let _ = self.flush_engines();
                return Err(e);
            }
        }
        self.rules.insert(id.0, Installed { rule, key });
        self.priorities.add(rule.priority);
        self.next_id += 1;
        Ok(UpdateReport {
            rule_id: id,
            created_labels: created,
            freed_labels: 0,
            // 2 cycles rule data + 1 cycle hash (§V.A) + structural writes.
            hw_write_cycles: 3 + (self.write_cycles() - writes_before),
        })
    }

    /// Drops one rule's reference on the label of each of the first
    /// `upto` dimension values, taking a label nobody else uses out of
    /// its engine and re-prioritising one whose best user left. Returns
    /// the labels freed; the caller flushes.
    fn release_labels(
        &mut self,
        dim_values: &[spc_types::DimValue; 7],
        priority: Priority,
        upto: usize,
    ) -> u32 {
        let mut freed = 0;
        for (unit, &value) in self.dims.iter_mut().zip(dim_values).take(upto) {
            match unit.table.remove(&value, priority) {
                Some(RemoveOutcome::Freed { label }) => {
                    unit.drop_value(value, label);
                    freed += 1;
                }
                Some(RemoveOutcome::Dereferenced {
                    label,
                    new_best: Some(best),
                }) => {
                    let _ = unit.put(value, LabelEntry::by_priority(label, best));
                }
                _ => {}
            }
        }
        freed
    }

    /// Removes an installed rule (Fig 4's deletion path: counters
    /// decrement; a label leaves the hardware only at zero).
    ///
    /// # Errors
    ///
    /// [`ClassifierError::UnknownRule`] for an unknown id.
    pub fn remove(&mut self, id: RuleId) -> Result<(Rule, UpdateReport), ClassifierError> {
        let writes_before = self.write_cycles();
        let (rule, freed) = self.uninstall(id)?;
        self.flush_engines()?;
        Ok((
            rule,
            UpdateReport {
                rule_id: id,
                created_labels: 0,
                freed_labels: freed,
                hw_write_cycles: 3 + (self.write_cycles() - writes_before),
            },
        ))
    }

    /// Takes a rule out of the Rule Filter, the label tables and the
    /// engines, returning it and the labels it freed; the caller flushes.
    fn uninstall(&mut self, id: RuleId) -> Result<(Rule, u32), ClassifierError> {
        let installed = *self
            .rules
            .get(&id.0)
            .ok_or(ClassifierError::UnknownRule { id: id.0 })?;
        self.rule_filter.remove(installed.key, id)?;
        let rule = installed.rule;
        let freed = self.release_labels(&rule.dim_values(), rule.priority, 7);
        self.rules.remove(&id.0);
        self.priorities.remove(rule.priority);
        Ok((rule, freed))
    }

    /// Flushes every dimension — one that fails must not keep the ones
    /// after it dirty — and reports the first error.
    fn flush_engines(&mut self) -> Result<(), ClassifierError> {
        let mut first = Ok(());
        for unit in &mut self.dims {
            if let Err(e) = unit.engine.flush(&mut unit.store) {
                first = first.and(Err(e.into()));
            }
        }
        first
    }

    fn write_cycles(&self) -> u64 {
        self.dims
            .iter()
            .map(|u| u.engine.writes() + u.store.writes() + u.wildcard_writes)
            .sum::<u64>()
            + self.rule_filter.writes()
    }

    /// Classifies a header through the 4-phase pipeline, returning the
    /// HPMR (per the configured [`CombineStrategy`]) plus full accounting.
    ///
    /// Works in a per-thread [`ClassifyScratch`], so the steady state
    /// allocates nothing — this is the path shared readers (`&self`
    /// through an `Arc`) take. A caller that owns its scratch uses
    /// [`Classifier::classify_with`] and skips the thread-local access.
    ///
    /// # Panics
    ///
    /// Panics if an engine reports pending updates, in every build — the
    /// public update paths always flush, so this indicates internal misuse.
    pub fn classify(&self, header: &Header) -> Classification {
        SCRATCH.with_borrow_mut(|scratch| self.classify_with(header, scratch))
    }

    /// Classifies a header, reusing `scratch` for every intermediate
    /// buffer (the label lists and the lists the box walk runs over), so
    /// per-lookup allocations collapse to buffer clears.
    ///
    /// # Panics
    ///
    /// As [`Classifier::classify`].
    // `lookup_into`'s only error is `Dirty`, a BST's between an update and
    // its flush, and every update path flushes before it returns; the head is taken after the `any_empty` early
    // return proved every list or its wildcard register non-empty.
    #[allow(clippy::expect_used)]
    pub fn classify_with(&self, header: &Header, scratch: &mut ClassifyScratch) -> Classification {
        // Phase 2: parallel single-field lookups, each writing into the
        // scratch's per-dimension list so nothing allocates after warm-up;
        // an IP segment's wildcard register is read beside its list.
        let mut engine_latency = 0u32;
        let mut engine_ii = 1u32;
        let mut engine_reads = 0u32;
        let mut any_empty = false;
        for (unit, list) in self.dims.iter().zip(&mut scratch.lists) {
            let cost = unit
                .engine
                .lookup_into(&unit.store, unit.dim.query(header), list)
                .expect("engines are flushed on every update path");
            engine_latency = engine_latency.max(cost.cycles);
            if !unit.engine.is_pipelined() {
                engine_ii = engine_ii.max(cost.cycles);
            }
            engine_reads += cost.mem_reads;
            any_empty |= list.is_empty() && unit.wildcard.is_none();
        }
        if any_empty {
            // Some dimension matched nothing: no rule can match.
            return Classification {
                hit: None,
                timing: LookupTiming::new(engine_latency, engine_ii, 0),
                engine_reads,
                rule_filter_reads: 0,
                combos_probed: 0,
            };
        }
        let (hit, rf_reads, combos) = match self.config.combine {
            CombineStrategy::FirstLabel => {
                // A list's head, or its register's entry where that
                // sorts first.
                let labels: [Label; 7] = std::array::from_fn(|i| {
                    let head = scratch.lists[i].head().into_iter();
                    let head = head.chain(&self.dims[i].wildcard);
                    head.min_by_key(|e| (e.order, e.label))
                        .expect("checked non-empty")
                        .label
                });
                let probe = self.rule_filter.probe(self.rule_filter.key(&labels));
                (probe.hit, probe.reads, 1)
            }
            CombineStrategy::PriorityProbe => self.priority_probe(scratch),
        };
        debug_assert!(
            hit.map_or(true, |h| h.rule.matches(header)),
            "label-key hit must match the header"
        );
        Classification {
            hit,
            timing: LookupTiming::new(engine_latency, engine_ii, rf_reads),
            engine_reads,
            rule_filter_reads: rf_reads,
            combos_probed: combos,
        }
    }

    /// The exact combine: probes the *priority box* of the label lists
    /// and returns its `(priority, id)`-best hit, the Rule Filter reads
    /// it cost and the number of combinations probed. This is what
    /// hashing only the per-dimension heads approximates — the heads can
    /// belong to different rules while the HPMR sits deeper.
    ///
    /// Only shape-valid combinations are candidates: `Prefix::segments`
    /// stores an address either as a short hi with the `/0` lo or as a
    /// full `/16` hi with any lo, so of an address's hi list `H` and lo
    /// list `L` a rule can occupy only `{(F, x) : x ∈ L}`, with `F` the
    /// one `/16` of `H` (the flag bit of its list word), and
    /// `{(s, W) : s ∈ H short}`, with `W` the wildcard register's lo `/0`.
    /// Each address is walked as that one list of pairs, a pair at the
    /// worse of its two priorities.
    ///
    /// A label's `priority` is the best priority among the rules using
    /// it, so `bound(c) = max_d priority(c_d)` over the seven labels
    /// lower-bounds the priority of any rule stored under combination
    /// `c`. With `p*` the HPMR's priority, every hit that could win lies
    /// in the box `E = {c : bound(c) <= p*}` (every combination on a
    /// miss), and nothing outside `E` need be probed. With the five lists
    /// in priority order `{c : bound(c) <= t}` is an index box `[0, hi_l)`
    /// per list, so `E` is walked one shell `box(hi) \ box(lo)` per
    /// distinct bound `t` in ascending order, stopping at the first `t`
    /// that a hit already found beats. A rule's priority is never better
    /// than its combination's bound, so a hit at exactly `t` is the HPMR
    /// unless another live rule shares `t`: while no two live rules share
    /// a priority (the controller's one "priorities distinct" signal) the
    /// walk returns on that hit, and each shell is probed newest first so
    /// that it comes early. The result depends on `E` alone; the reads
    /// and the count depend on the visit order too, which is a function
    /// of the label priorities (ties broken by `Placed::min`, then by the
    /// key bits, which only a shell probed whole ever meets), so a churned
    /// classifier probes what a fresh load of its rules does.
    ///
    /// The hash absorbs a key from its low byte up and level 0 sits in
    /// the top bits, so the walk keeps, per level `l >= 1`, the *level
    /// product* `P_l`: every partial key of levels `l..` inside the box
    /// with its hash state, append-only within a lookup. A shell grows
    /// the levels from the last up to level 1: level `k`'s new labels
    /// `N_k` extend all of `P_{k+1}` into `P_k`, and the new partial keys
    /// extend through the old ranges `[0, lo_l)` of the levels above it.
    /// Those pieces tile the shell's part of `P_1`, so every partial key
    /// is hashed once. Level 0 then closes the shell from its last label
    /// to its first: a new one (`[lo_0, hi_0)`) is probed against all of
    /// `P_1`, an old one against the partial keys this shell appended,
    /// each run of keys last to first — every combination of the shell
    /// once. Every loop runs over labels outside and partial keys inside,
    /// with the absorb's width fixed per level (`with_absorb!`).
    fn priority_probe(&self, scratch: &mut ClassifyScratch) -> (Option<Hit>, u32, u32) {
        let ClassifyScratch {
            lists,
            placed,
            below,
            hashed,
        } = scratch;
        let (filter, absorbs) = (&self.rule_filter, &self.absorbs);
        let shifts: [u32; 7] = std::array::from_fn(|d| filter.shift(d));
        let place = |d: usize, e: &LabelEntry| Placed {
            priority: e.priority,
            min: e.priority,
            bits: u128::from(e.label.0) << shifts[d],
        };
        for (level, dims) in placed.iter_mut().zip(LEVELS) {
            level.clear();
            if dims.len() == 1 {
                let d = dims.start;
                level.extend(lists[d].iter().map(|e| place(d, e)));
            } else {
                let (hi, lo) = (dims.start, dims.start + 1);
                let full = &self.dims[hi].full;
                let is_full = |e: &&LabelEntry| full[usize::from(e.label.0)];
                let (hi_wild, lo_wild) = (&self.dims[hi].wildcard, &self.dims[lo].wildcard);
                if let Some(f) = lists[hi].iter().find(is_full) {
                    let f = place(hi, f);
                    let los = lists[lo].iter().chain(lo_wild);
                    level.extend(los.map(|x| f.pair(place(lo, x))));
                }
                if let Some(w) = lo_wild {
                    let w = place(lo, w);
                    let short = lists[hi].iter().filter(|e| !is_full(e)).chain(hi_wild);
                    level.extend(short.map(|s| place(hi, s).pair(w)));
                }
            }
            level.sort_unstable_by_key(|l| (l.priority, l.min, l.bits));
        }
        let levels: &[Vec<Placed>; LEVELS.len()] = placed;
        *hashed = 0;
        if levels.iter().any(Vec::is_empty) {
            // No rule can match, as with an empty dimension.
            return (None, 0, 0);
        }
        for partials in below.iter_mut() {
            partials.keys.clear();
            partials.states.clear();
        }
        let last = &mut below[LEVELS.len() - 1];
        last.keys.push(0);
        last.states.push(HashUnit::SEED);
        let (mut best, mut reads, mut combos): (Option<Hit>, _, _) = (None, 0, 0);
        let rank = |h: &Hit| (h.rule.priority, h.rule_id.0);
        // A hit at the shell's bound is the HPMR only if no rule ties it.
        let distinct = self.priorities.shared == 0;
        // `box(lo)` is probed; each round grows it to `box(hi)`, the
        // combinations of bound <= `t`. The first `t` is the all-heads
        // combination's bound.
        let mut lo = [0usize; LEVELS.len()];
        let mut threshold = levels
            .iter()
            .filter_map(|l| l.first())
            .map(|e| e.priority)
            .max();
        while let Some(t) = threshold {
            if best.is_some_and(|s| s.rule.priority < t) {
                break; // every combination left is provably worse
            }
            let mut hi = lo;
            for (h, list) in hi.iter_mut().zip(levels) {
                *h += list[*h..].partition_point(|e| e.priority <= t);
            }
            // The shell's piece led by level `k >= 1`: its new labels,
            // the levels after it whole, the levels before it down to 1
            // at `lo`.
            let appended = below[0].keys.len();
            for k in (1..LEVELS.len()).rev() {
                let (mut labels, mut from) = (lo[k]..hi[k], 0..below[k].keys.len());
                for l in (1..=k).rev() {
                    if labels.is_empty() || from.is_empty() {
                        break;
                    }
                    let (into, src) = below.split_at_mut(l);
                    let (into, src) = (&mut into[l - 1], &src[0]);
                    let (labels_l, start) = (&levels[l][labels], into.keys.len());
                    with_absorb!(absorbs[l].clone(), |absorb| {
                        into.extend(labels_l, &src.keys[from.clone()], &src.states[from], absorb);
                    });
                    *hashed += into.keys.len() - start;
                    (labels, from) = (0..lo[l - 1], start..into.keys.len());
                }
            }
            // Level 0 closes the shell, newest first: a new label meets
            // all of `P_1`, an old one only the keys this shell appended.
            let Partials { keys, states } = &below[0];
            let stop = distinct.then_some(t);
            with_absorb!(absorbs[0].clone(), |absorb| {
                for (i, label) in levels[0][..hi[0]].iter().enumerate().rev() {
                    let from = if i < lo[0] { appended } else { 0 };
                    for (&key, &state) in keys[from..].iter().zip(&states[from..]).rev() {
                        let key = key | label.bits;
                        let probe = filter.probe_absorbed(absorb(state, key), key);
                        reads += probe.reads;
                        combos += 1;
                        let Some(hit) = probe.hit else { continue };
                        if Some(hit.rule.priority) == stop {
                            return (Some(hit), reads, combos);
                        }
                        if best.map_or(true, |held| rank(&hit) < rank(&held)) {
                            best = Some(hit);
                        }
                    }
                }
            });
            lo = hi;
            // The next bound up: the best priority just outside the box.
            threshold = levels
                .iter()
                .zip(lo)
                .filter_map(|(list, i)| list.get(i))
                .map(|e| e.priority)
                .min();
        }
        (best, reads, combos)
    }

    /// Switches the IP lookup algorithm at run time (the `IPalg_s`
    /// signal): fresh engines are built for the four IP dimensions and
    /// reloaded from the controller's label tables — label ids, the label
    /// method and the Rule Filter are untouched (§IV.C.2).
    ///
    /// # Errors
    ///
    /// [`ClassifierError::Capacity`] if the new structures don't fit; the
    /// previous engines are restored in that case.
    ///
    /// # Panics
    ///
    /// Panics if restoring the previous engines fails — they held this
    /// exact rule set a moment ago, so a rollback failure means the
    /// classifier state is corrupt and continuing would misclassify.
    #[allow(clippy::expect_used)] // rollback invariant documented above
    pub fn set_ip_alg(&mut self, alg: IpAlg) -> Result<(), ClassifierError> {
        if alg == self.config.ip_alg {
            return Ok(());
        }
        let old_alg = self.config.ip_alg;
        self.config.ip_alg = alg;
        match self.reload_ip_engines() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.config.ip_alg = old_alg;
                self.reload_ip_engines()
                    .expect("previous configuration fitted before");
                Err(e)
            }
        }
    }

    fn reload_ip_engines(&mut self) -> Result<(), ClassifierError> {
        for &dim in &IP_SEG_DIMS {
            let i = dim.index();
            let mut engine = Self::make_engine(&self.config, dim);
            let mut store = Self::make_store(&self.config, dim);
            let unit = &mut self.dims[i];
            let stored = unit.table.iter().filter(|(value, _)| !in_register(**value));
            for (value, state) in stored {
                let entry = LabelEntry::by_priority(state.label, state.best_priority());
                engine.insert(&mut store, *value, entry)?;
            }
            engine.flush(&mut store)?;
            unit.engine = engine;
            unit.store = store;
        }
        Ok(())
    }

    /// Memory inventory across every block of the architecture.
    pub fn memory_report(&self) -> MemoryReport {
        let mut blocks = Vec::new();
        for unit in &self.dims {
            blocks.push(BlockUsage {
                name: format!("{}/engine", unit.dim),
                provisioned_bits: unit.engine.provisioned_bits(),
                used_bits: unit.engine.used_bits(),
            });
            blocks.push(BlockUsage {
                name: unit.store.name().to_string(),
                provisioned_bits: unit.store.provisioned_bits(),
                used_bits: unit.store.used_bits(),
            });
            if unit.dim.is_ip_segment() {
                // The wildcard register: a label and a 16-bit priority.
                let bits = u64::from(self.config.label_widths.ip) + 16;
                blocks.push(BlockUsage {
                    name: format!("{}/wildcard", unit.dim),
                    provisioned_bits: bits,
                    used_bits: if unit.wildcard.is_some() { bits } else { 0 },
                });
            }
        }
        blocks.push(BlockUsage {
            name: "rule_filter".to_string(),
            provisioned_bits: self.rule_filter.provisioned_bits(),
            used_bits: self.rule_filter.used_bits(),
        });
        MemoryReport { blocks }
    }

    /// The Fig 5 sharing report for this configuration.
    pub fn sharing_report(&self) -> SharingReport {
        let mbt: Box<dyn FieldEngine> = Box::new(MultiBitTrie::new(MbtConfig::segment_paper(
            self.config.mbt_leaf_nodes,
        )));
        let bst: Box<dyn FieldEngine> = Box::new(RangeBst::new(self.config.bst_max_intervals));
        SharingReport::new(
            4 * mbt.provisioned_bits(),
            4 * bst.provisioned_bits(),
            u64::from(self.rule_filter.word_bits()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rulefilter::ProbeResult;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
    use spc_types::{Action, PortRange, Prefix, ProtoSpec, RuleSet};

    /// The seven phase-2 label lists of `h`, as the engines and the
    /// wildcard registers return them.
    fn label_lists(cls: &Classifier, h: &Header) -> Vec<LabelList> {
        cls.dims
            .iter()
            .map(|u| {
                let mut list = LabelList::new();
                u.engine
                    .lookup_into(&u.store, u.dim.query(h), &mut list)
                    .unwrap();
                if let Some(entry) = u.wildcard {
                    list.insert(entry);
                }
                list
            })
            .collect()
    }

    /// The segment prefix length of each live label of an IP dimension,
    /// from the controller's label table.
    fn seg_lens(cls: &Classifier, d: usize) -> HashMap<Label, u8> {
        let lens = cls.dims[d].table.iter().map(|(value, state)| match value {
            DimValue::Seg(seg) => (state.label, seg.len()),
            other => panic!("{other:?} in an IP dimension"),
        });
        lens.collect()
    }

    /// What `priority_probe` owes a header, from its specification alone.
    #[derive(Debug)]
    struct BoxTruth {
        /// The `(priority, id)`-minimal hit.
        best: Option<(Priority, RuleId)>,
        /// The reads and the size of `E = {c : bound(c) <= p*}`
        /// (everything on a miss).
        reads: u32,
        combos: u32,
        /// The combinations of `E` at its greatest bound: the last shell.
        last_shell: u32,
        /// Whether the walk may return inside the last shell: the HPMR's
        /// combination is bounded by its own priority and no two live
        /// rules share a priority.
        may_stop: bool,
    }

    /// Probes the *whole* lattice of `h`'s seven lists less the
    /// combinations `Prefix::segments` never produces (an address whose
    /// lo label is not `/0` while its hi is not a full `/16`), takes `p*`
    /// from the best hit and measures `E` against it.
    fn box_oracle(cls: &Classifier, h: &Header) -> BoxTruth {
        let lists = label_lists(cls, h);
        let mut truth = BoxTruth {
            best: None,
            reads: 0,
            combos: 0,
            last_shell: 0,
            may_stop: false,
        };
        if lists.iter().any(LabelList::is_empty) {
            return truth;
        }
        let lens: Vec<_> = (0..4).map(|d| seg_lens(cls, d)).collect();
        let shape_valid = |combo: &[LabelEntry; 7]| {
            [0, 2].iter().all(|&hi| {
                lens[hi + 1][&combo[hi + 1].label] == 0 || lens[hi][&combo[hi].label] == 16
            })
        };
        let mut lattice = Vec::new(); // (bound, probe) per combination
        let mut idx = [0usize; 7];
        'lattice: loop {
            let combo: [LabelEntry; 7] = std::array::from_fn(|d| lists[d].entries()[idx[d]]);
            let bound = combo.iter().map(|e| e.priority).max().unwrap();
            let key = cls.rule_filter.key(&combo.map(|e| e.label));
            if shape_valid(&combo) {
                lattice.push((bound, cls.rule_filter.probe(key)));
            }
            for d in 0..7 {
                idx[d] += 1;
                if idx[d] < lists[d].len() {
                    continue 'lattice;
                }
                idx[d] = 0;
            }
            break;
        }
        let hit_of = |p: &ProbeResult| p.hit.map(|h| (h.rule.priority, h.rule_id));
        truth.best = lattice.iter().filter_map(|(_, p)| hit_of(p)).min();
        let in_box = |bound: Priority| truth.best.map_or(true, |(p_star, _)| bound <= p_star);
        let probed: Vec<_> = lattice.iter().filter(|(bound, _)| in_box(*bound)).collect();
        truth.reads = probed.iter().map(|(_, p)| p.reads).sum();
        truth.combos = probed.len() as u32;
        let top = probed.iter().map(|(bound, _)| *bound).max();
        truth.last_shell = probed.iter().filter(|(b, _)| Some(*b) == top).count() as u32;
        let mut priorities = std::collections::HashSet::new();
        let distinct = cls
            .rules
            .values()
            .all(|i| priorities.insert(i.rule.priority));
        if let Some((p_star, _)) = truth.best {
            let hpmr = probed.iter().find(|(_, p)| hit_of(p) == truth.best);
            truth.may_stop = distinct && hpmr.is_some_and(|(bound, _)| *bound == p_star);
        }
        truth
    }

    /// Holds the walk to the oracle: the verdict always; `E` exactly
    /// where the walk cannot stop early (a miss, a tie anywhere, or an
    /// HPMR bounded below its priority); otherwise every shell before
    /// the last probed whole, part of the last, and no read outside `E`.
    /// Returns how many headers stopped early.
    fn assert_matches_box_oracle(cls: &Classifier, trace: &[Header], what: &str) -> usize {
        let mut scratch = ClassifyScratch::new();
        let (mut hits, mut full_lattice_misses, mut early) = (0, 0, 0);
        for h in trace {
            let c = cls.classify_with(h, &mut scratch);
            let truth = box_oracle(cls, h);
            let what = format!("{what}, header {h}: {truth:?}");
            assert_eq!(
                c.hit.map(|x| (x.rule.priority, x.rule_id)),
                truth.best,
                "{what}"
            );
            let (reads, combos) = (c.rule_filter_reads, c.combos_probed);
            if truth.may_stop {
                assert!(truth.combos - truth.last_shell < combos, "{what}: {combos}");
                assert!(
                    combos <= truth.combos && reads <= truth.reads,
                    "{what}: {c:?}"
                );
                early += usize::from(combos < truth.combos);
            } else {
                assert_eq!((reads, combos), (truth.reads, truth.combos), "{what}");
            }
            hits += usize::from(c.hit.is_some());
            full_lattice_misses += usize::from(c.hit.is_none() && c.combos_probed > 0);
        }
        assert!(hits > 0, "{what}: trace never hits");
        assert!(
            full_lattice_misses > 0,
            "{what}: trace never misses past phase 2"
        );
        early
    }

    /// Headers of `rules`' own trace plus ones that get through phase 2
    /// and then miss: a matching header with its protocol flipped between
    /// TCP and UDP still finds labels in every dimension.
    fn probe_trace(rules: &RuleSet, seed: u64) -> Vec<Header> {
        let mut trace = TraceGenerator::new()
            .seed(seed)
            .match_fraction(0.8)
            .generate(rules, 48);
        let flipped: Vec<Header> = trace
            .iter()
            .take(16)
            .map(|h| Header {
                proto: if h.proto == 6 { 17 } else { 6 },
                ..*h
            })
            .collect();
        trace.extend(flipped);
        trace
    }

    /// The key layouts the priority-box oracle runs on. Where dimension 0
    /// starts decides which bytes the walk's last step absorbs: mid-byte
    /// at bit 55 of 68, byte-aligned at bit 64 of 78, and at bit 66 of 81
    /// with dimension 1 across bit 64.
    fn box_layouts() -> [(&'static str, ArchConfig); 3] {
        let straddling = ArchConfig {
            label_widths: spc_lookup::LabelWidths {
                ip: 15,
                port: 9,
                proto: 3,
            },
            ..ArchConfig::large()
        };
        [
            ("paper", ArchConfig::paper_prototype()),
            ("large", ArchConfig::large()),
            ("straddling", straddling),
        ]
    }

    #[test]
    fn box_layouts_reach_every_fixed_absorb_width() {
        // `with_absorb!` unrolls 0, 1, 3, 4 and 5 bytes separately: an
        // arm no layout of the oracle below reaches is an arm nothing
        // checks. The address pairs absorb 3–5 bytes, the ports 1 and
        // the protocol 0.
        let mut widths = std::collections::BTreeSet::new();
        for (layout, config) in box_layouts() {
            let absorbs = Classifier::new(config).absorbs;
            assert!(
                absorbs.windows(2).all(|w| w[1].end == w[0].start),
                "{layout}: {absorbs:?} must tile the key from byte 0 up"
            );
            assert_eq!(absorbs[LEVELS.len() - 1].start, 0, "{layout}");
            widths.extend(absorbs.iter().map(ExactSizeIterator::len));
        }
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), [0, 1, 3, 4, 5]);
    }

    /// A check of the walk over one classifier and its trace, returning
    /// how many of its headers the walk answered before the end of `E`.
    type BoxCheck = fn(&Classifier, &[Header], &str) -> usize;

    /// Runs `check` over the box oracle's matrix: every key layout,
    /// family and `IpAlg`, with distinct and shared priorities, each
    /// before and after churn and with a `/0` rule in and out. Each cell
    /// with distinct priorities must see the walk stop early.
    fn for_box_matrix(check: BoxCheck) {
        for (layout, config) in box_layouts() {
            for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
                for alg in [IpAlg::Bst, IpAlg::Mbt] {
                    for shared_priorities in [false, true] {
                        let what = format!(
                            "{layout}/{kind:?}/{alg:?}/shared_priorities={shared_priorities}"
                        );
                        let early = check_before_and_after_churn(
                            config.clone().with_ip_alg(alg),
                            kind,
                            shared_priorities,
                            &what,
                            check,
                        );
                        assert!(shared_priorities || early > 0, "{what}: no early stop");
                    }
                }
            }
        }
    }

    #[test]
    fn priority_probe_walks_exactly_the_priority_box() {
        for_box_matrix(assert_matches_box_oracle);
    }

    #[test]
    fn priority_probe_hashes_each_partial_key_once() {
        for_box_matrix(assert_hashes_each_partial_key_once);
    }

    /// With `hi_j` the entries of placed level `j` at or better than the
    /// HPMR's priority (the whole list on a miss), the walk ends in the
    /// box `∏_j [0, hi_j)`: it must have probed no more than its
    /// combinations and hashed each partial key of each level product
    /// `P_l` (`l >= 1`) once — `Σ_l ∏_{j≥l} hi_j` in all, however many
    /// shells the box grew in and wherever the last one stopped.
    fn assert_hashes_each_partial_key_once(
        cls: &Classifier,
        trace: &[Header],
        what: &str,
    ) -> usize {
        let mut scratch = ClassifyScratch::new();
        let (mut multi_shell, mut early) = (0, 0);
        for h in trace {
            let c = cls.classify_with(h, &mut scratch);
            if c.combos_probed == 0 {
                continue;
            }
            let p_star = c.hit.map(|x| x.rule.priority);
            let in_box = |e: &&Placed| p_star.map_or(true, |p| e.priority <= p);
            let hi: Vec<usize> = scratch
                .placed
                .iter()
                .map(|level| level.iter().filter(in_box).count())
                .collect();
            let products = (1..LEVELS.len()).map(|l| hi[l..].iter().product::<usize>());
            assert_eq!(
                scratch.hashed,
                products.sum::<usize>(),
                "{what}, header {h}"
            );
            let combos = hi.iter().product::<usize>();
            assert!(c.combos_probed as usize <= combos, "{what}, header {h}");
            early += usize::from((c.combos_probed as usize) < combos);
            // Shells: the distinct bounds from the all-heads one up.
            let first = scratch.placed.iter().map(|level| level[0].priority).max();
            let bounds: std::collections::BTreeSet<_> = scratch
                .placed
                .iter()
                .flat_map(|level| level.iter().filter(in_box))
                .map(|e| e.priority)
                .filter(|&p| Some(p) >= first)
                .collect();
            multi_shell += usize::from(bounds.len() > 1);
        }
        assert!(
            multi_shell > 0,
            "{what}: no box grows in more than one shell"
        );
        early
    }

    fn check_before_and_after_churn(
        config: ArchConfig,
        kind: FilterKind,
        shared_priorities: bool,
        what: &str,
        check: BoxCheck,
    ) -> usize {
        let rules = RuleSetGenerator::new(kind, 400).seed(11).generate();
        let pool = RuleSetGenerator::new(kind, 64).seed(12).generate();
        // Priority 0 is left free for the wildcard rule below; with
        // `shared_priorities`, eight rules per priority value: ties
        // everywhere.
        let shift = |r: &Rule| Rule {
            priority: Priority(1 + r.priority.0 / if shared_priorities { 8 } else { 1 }),
            ..*r
        };
        let rules: RuleSet = rules.rules().iter().map(shift).collect();
        let pool: RuleSet = pool.rules().iter().map(shift).collect();
        // The paper's 2-bit protocol and 7-bit port label spaces hold
        // fewer values than a 400-rule set has: keep the rules that fit.
        let mut trial = Classifier::new(config.clone());
        let rules: RuleSet = rules
            .rules()
            .iter()
            .copied()
            .filter(|r| trial.insert(*r).is_ok())
            .collect();
        assert!(rules.len() >= 100, "{what}: {} rules fit", rules.len());
        let mut cls = Classifier::new(config);
        let mut live = cls.load(&rules).unwrap();
        let trace = probe_trace(&rules, 5);
        let mut early = check(&cls, &trace, what);

        // 32-rule churn: 16 out, 16 (non-duplicate) in.
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..16 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            cls.remove(id).unwrap();
        }
        let mut inserted = 0;
        for rule in pool.rules() {
            match cls.insert(*rule) {
                Ok(_) => inserted += 1,
                Err(ClassifierError::DuplicateKey { .. } | ClassifierError::Capacity { .. }) => {}
                Err(e) => panic!("{what}: {e}"),
            }
            if inserted == 16 {
                break;
            }
        }
        assert_eq!(inserted, 16, "{what}: pool too small");
        early += check(&cls, &trace, &format!("{what} after churn"));

        // A rule with `/0` addresses that beats every other moves each
        // wildcard register's priority up, and its removal moves it back.
        let wild = rules
            .rules()
            .iter()
            .map(|r| Rule {
                priority: Priority(0),
                src_ip: Prefix::ANY,
                dst_ip: Prefix::ANY,
                ..*r
            })
            .find_map(|r| cls.insert(r).ok())
            .expect("a wildcard rule goes in");
        for d in 0..4 {
            let register = cls.dims[d].wildcard.expect("every /0 is live");
            assert_eq!(register.priority, Priority(0), "{what}: dimension {d}");
        }
        early += check(&cls, &trace, &format!("{what} with a /0 rule"));
        cls.remove(wild.rule_id).unwrap();
        assert!(cls.dims[..4]
            .iter()
            .all(|u| u.wildcard.map_or(true, |e| e.priority > Priority(0))));
        early + check(&cls, &trace, &format!("{what} without it"))
    }

    #[test]
    fn first_label_heads_include_the_wildcard_register() {
        // `FirstLabel` hashes the head of each phase-2 list, the
        // wildcard register's entry merged in at its priority.
        for kind in [FilterKind::Acl, FilterKind::Fw] {
            for alg in [IpAlg::Bst, IpAlg::Mbt] {
                let config = ArchConfig::large()
                    .with_ip_alg(alg)
                    .with_combine(CombineStrategy::FirstLabel);
                let rules = RuleSetGenerator::new(kind, 200).seed(3).generate();
                let mut cls = Classifier::new(config);
                cls.load(&rules).unwrap();
                for h in probe_trace(&rules, 4) {
                    let lists = label_lists(&cls, &h);
                    let want = lists.iter().all(|l| !l.is_empty()).then(|| {
                        let heads: [Label; 7] =
                            std::array::from_fn(|d| lists[d].head().unwrap().label);
                        let probe = cls.rule_filter.probe(cls.rule_filter.key(&heads));
                        (probe.hit.map(|h| h.rule_id), probe.reads)
                    });
                    let c = cls.classify(&h);
                    let got = (c.hit.map(|x| x.rule_id), c.rule_filter_reads);
                    assert_eq!(got, want.unwrap_or((None, 0)), "{kind:?}/{alg:?}, {h}");
                }
            }
        }
    }

    fn cfg() -> ArchConfig {
        ArchConfig::default()
    }

    fn web_rule(p: u32) -> Rule {
        Rule::builder(Priority(p))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .dst_port(PortRange::exact(80))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Forward(1))
            .build()
    }

    fn hdr(src: [u8; 4], dport: u16, proto: u8) -> Header {
        Header::new(src.into(), [99, 99, 99, 99].into(), 5000, dport, proto)
    }

    /// A classifier whose two port dimensions each return 300 labels for
    /// its header, rule `i` at priority `i` holding label `i` of both.
    /// Only rule 299, the worst, matches; rule 0 shares the header's
    /// protocol but not its source, which puts the protocol label at
    /// priority 0, so the box grows one shell per priority: 299 × 299
    /// combinations hold no hit before the last shell opens.
    fn wide_lists() -> (Classifier, Header) {
        let mut cls = Classifier::new(ArchConfig::large());
        let n: u16 = 300;
        for i in 0..n {
            let proto = if i == 0 || i == n - 1 { 6 } else { 17 };
            let src = if i == 0 {
                Prefix::masked(0x0909_0909, 32)
            } else {
                Prefix::ANY
            };
            let r = Rule::builder(Priority(u32::from(i)))
                .src_ip(src)
                .src_port(PortRange::new(1000 - i, 1000 + i).unwrap())
                .dst_port(PortRange::new(2000 - i, 2000 + i).unwrap())
                .proto(ProtoSpec::Exact(proto))
                .action(Action::Forward(i))
                .build();
            cls.insert(r).unwrap();
        }
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 1000, 2000, 6);
        (cls, h)
    }

    #[test]
    fn priority_probe_survives_wide_label_lists() {
        // More than 256 labels in one dimension: combination indices must
        // not be limited to u8. The HPMR's combination is the newest of
        // the last shell, so it is the first one that shell probes.
        let (cls, h) = wide_lists();
        let c = cls.classify(&h);
        assert_eq!(c.hit.unwrap().rule.priority, Priority(299));
        let lattice: usize = label_lists(&cls, &h).iter().map(LabelList::len).product();
        assert_eq!(lattice, 300 * 300);
        assert_eq!(c.combos_probed, 299 * 299 + 1);
        let truth = box_oracle(&cls, &h);
        assert!(truth.may_stop, "{truth:?}");
        assert_eq!((truth.combos, truth.last_shell), (300 * 300, 2 * 300 - 1));
    }

    #[test]
    fn priority_probe_falls_back_on_tied_priorities() {
        // Two rules at priority 2 match the header: `tied` (id 0) on the
        // ports' oldest labels, `newest` (id 2) on their newest, which
        // the shell probes first. `other` (id 1, protocol 17) holds those
        // oldest labels at priority 1 without matching.
        let rule = |p: u32, port: PortRange, proto: u8| {
            Rule::builder(Priority(p))
                .src_port(port)
                .dst_port(port)
                .proto(ProtoSpec::Exact(proto))
                .build()
        };
        let (exact, range) = (PortRange::exact(1000), PortRange::new(999, 1001).unwrap());
        let mut cls = Classifier::new(cfg());
        let tied = cls.insert(rule(2, exact, 6)).unwrap().rule_id;
        cls.insert(rule(1, exact, 17)).unwrap();
        let newest = cls.insert(rule(2, range, 6)).unwrap().rule_id;
        let h = Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 1000, 1000, 6);
        assert_eq!(cls.shared_priorities(), 1);
        let (c, truth) = (cls.classify(&h), box_oracle(&cls, &h));
        assert_eq!(c.hit.unwrap().rule_id, tied, "the lower id wins the tie");
        assert!(!truth.may_stop);
        assert_eq!((c.combos_probed, truth.combos), (4, 4), "all of E");
        assert_eq!(c.rule_filter_reads, truth.reads);
        // With the tie gone the same header stops at its first probe.
        cls.remove(tied).unwrap();
        assert_eq!(cls.shared_priorities(), 0);
        let (c, truth) = (cls.classify(&h), box_oracle(&cls, &h));
        assert_eq!(c.hit.unwrap().rule_id, newest);
        assert!(truth.may_stop);
        assert_eq!((c.combos_probed, truth.combos), (1, 4));
    }

    #[test]
    fn priority_probe_scratch_carries_nothing_between_lookups() {
        // The level products a lookup leaves in its scratch — 300 × 300
        // partial keys after the wide box — must never reach the next
        // lookup, whichever of a wide and an ordinary box comes first.
        let (wide, wide_h) = wide_lists();
        let rules = RuleSetGenerator::new(FilterKind::Acl, 400)
            .seed(21)
            .generate();
        let mut acl = Classifier::new(ArchConfig::large());
        acl.load(&rules).unwrap();
        let trace = probe_trace(&rules, 22);
        let fresh =
            |cls: &Classifier, h: &Header| cls.classify_with(h, &mut ClassifyScratch::new());
        let want_wide = fresh(&wide, &wide_h);
        let want: Vec<_> = trace.iter().map(|h| fresh(&acl, h)).collect();
        let mut scratch = ClassifyScratch::new();
        for round in 0..2 {
            assert_eq!(
                wide.classify_with(&wide_h, &mut scratch),
                want_wide,
                "round {round}"
            );
            for (h, want) in trace.iter().zip(&want) {
                assert_eq!(
                    &acl.classify_with(h, &mut scratch),
                    want,
                    "round {round}, {h}"
                );
            }
        }
    }

    #[test]
    fn insert_classify_remove_roundtrip() {
        let mut cls = Classifier::new(cfg());
        let rep = cls.insert(web_rule(0)).unwrap();
        assert_eq!(rep.created_labels, 7);
        assert!(rep.hw_write_cycles >= 3);
        let c = cls.classify(&hdr([10, 1, 1, 1], 80, 6));
        assert_eq!(c.hit.unwrap().rule_id, rep.rule_id);
        assert!(cls.classify(&hdr([11, 1, 1, 1], 80, 6)).hit.is_none());
        assert!(cls.classify(&hdr([10, 1, 1, 1], 81, 6)).hit.is_none());
        let (rule, drep) = cls.remove(rep.rule_id).unwrap();
        assert_eq!(rule.action, Action::Forward(1));
        assert_eq!(drep.freed_labels, 7);
        assert!(cls.is_empty());
        assert!(cls.classify(&hdr([10, 1, 1, 1], 80, 6)).hit.is_none());
    }

    #[test]
    fn hpmr_priority_resolution() {
        let mut cls = Classifier::new(cfg());
        let broad = Rule::builder(Priority(5)).action(Action::Drop).build();
        let narrow = web_rule(1);
        let broad_id = cls.insert(broad).unwrap().rule_id;
        let narrow_id = cls.insert(narrow).unwrap().rule_id;
        // Narrow (priority 1) wins where both match.
        let c = cls.classify(&hdr([10, 1, 1, 1], 80, 6));
        assert_eq!(c.hit.unwrap().rule_id, narrow_id);
        // Broad still catches the rest.
        let c2 = cls.classify(&hdr([11, 1, 1, 1], 80, 6));
        assert_eq!(c2.hit.unwrap().rule_id, broad_id);
    }

    #[test]
    fn shared_labels_refcount() {
        let mut cls = Classifier::new(cfg());
        // Two rules differing only in dst_port share 6 of 7 labels.
        let a = cls.insert(web_rule(0)).unwrap();
        let mut r2 = web_rule(1);
        r2.dst_port = PortRange::exact(443);
        let b = cls.insert(r2).unwrap();
        assert_eq!(a.created_labels, 7);
        assert_eq!(b.created_labels, 1);
        // Removing one keeps the shared labels alive.
        let (_, rep) = cls.remove(a.rule_id).unwrap();
        assert_eq!(rep.freed_labels, 1);
        let c = cls.classify(&hdr([10, 2, 2, 2], 443, 6));
        assert_eq!(c.hit.unwrap().rule_id, b.rule_id);
    }

    #[test]
    fn duplicate_rule_rejected_and_rolled_back() {
        let mut cls = Classifier::new(cfg());
        cls.insert(web_rule(0)).unwrap();
        let labels_before = cls.live_labels();
        let e = cls.insert(web_rule(1));
        assert!(matches!(e, Err(ClassifierError::DuplicateKey { .. })));
        assert_eq!(
            cls.live_labels(),
            labels_before,
            "rollback must restore refcounts"
        );
        assert_eq!(cls.len(), 1);
    }

    #[test]
    fn unknown_rule_remove() {
        let mut cls = Classifier::new(cfg());
        assert!(matches!(
            cls.remove(RuleId(9)),
            Err(ClassifierError::UnknownRule { id: 9 })
        ));
    }

    #[test]
    fn mbt_mode_timing_matches_paper() {
        let mut cls = Classifier::new(cfg());
        cls.insert(web_rule(0)).unwrap();
        let c = cls.classify(&hdr([10, 1, 1, 1], 80, 6));
        // Engine phase = 6 cycles (MBT), II = 1 on a clean single probe.
        assert_eq!(c.timing.phase_cycles[1], 6);
        assert_eq!(c.timing.initiation_interval, 1);
        let gbps = c.timing.throughput_gbps(cls.config().clock, 40);
        assert!((gbps - 42.73).abs() < 0.02, "got {gbps}");
    }

    #[test]
    fn bst_mode_agrees_with_mbt() {
        let mut mbt = Classifier::new(cfg());
        let mut bst = Classifier::new(cfg().with_ip_alg(IpAlg::Bst));
        for p in 0..20u32 {
            let mut r = web_rule(p);
            r.src_ip = Prefix::masked(0x0a00_0000 | (p << 8), 24);
            mbt.insert(r).unwrap();
            bst.insert(r).unwrap();
        }
        for i in 0..20u8 {
            let h = hdr([10, 0, i, 1], 80, 6);
            assert_eq!(
                mbt.classify(&h).hit.map(|x| x.rule_id),
                bst.classify(&h).hit.map(|x| x.rule_id),
                "disagreement at {h}"
            );
        }
    }

    #[test]
    fn runtime_ip_alg_switch_preserves_semantics() {
        let mut cls = Classifier::new(cfg());
        for p in 0..10u32 {
            let mut r = web_rule(p);
            r.src_ip = Prefix::masked(0x0a00_0000 | (p << 16), 16);
            cls.insert(r).unwrap();
        }
        let h = hdr([10, 3, 0, 1], 80, 6);
        let before = cls.classify(&h).hit.map(|x| x.rule_id);
        cls.set_ip_alg(IpAlg::Bst).unwrap();
        assert_eq!(cls.classify(&h).hit.map(|x| x.rule_id), before);
        // BST mode is not pipelined: II grows.
        assert!(cls.classify(&h).timing.initiation_interval > 1);
        cls.set_ip_alg(IpAlg::Mbt).unwrap();
        assert_eq!(cls.classify(&h).hit.map(|x| x.rule_id), before);
        assert_eq!(cls.classify(&h).timing.initiation_interval, 1);
    }

    #[test]
    fn miss_when_dimension_list_empty() {
        let mut cls = Classifier::new(cfg());
        cls.insert(web_rule(0)).unwrap();
        let c = cls.classify(&hdr([10, 1, 1, 1], 80, 17)); // UDP: proto list empty
        assert!(c.hit.is_none());
        assert_eq!(
            c.rule_filter_reads, 0,
            "no probe needed on an empty dimension"
        );
    }

    #[test]
    fn first_label_vs_priority_probe() {
        // Construct the fast path's blind spot: per-dimension heads that
        // belong to different rules while a real match exists deeper.
        let mut fast = Classifier::new(cfg().with_combine(CombineStrategy::FirstLabel));
        let mut exact = Classifier::new(cfg().with_combine(CombineStrategy::PriorityProbe));
        // r0: sip 10/8 (priority 0), dport ANY.
        let r0 = Rule::builder(Priority(0))
            .src_ip(Prefix::parse("10.0.0.0/8").unwrap())
            .build();
        // r1: sip ANY, dport exact 80 (priority 1).
        let r1 = Rule::builder(Priority(1))
            .dst_port(PortRange::exact(80))
            .build();
        for c in [&mut fast, &mut exact] {
            c.insert(r0).unwrap();
            c.insert(r1).unwrap();
        }
        // Header in 10/8 with dport 80: sip head -> r0's label; dport head ->
        // exact-match label (r1's; Table IV ordering). Combined key names a
        // rule that doesn't exist -> fast path misses, probe finds r0.
        let h = hdr([10, 1, 1, 1], 80, 6);
        let f = fast.classify(&h);
        let e = exact.classify(&h);
        assert_eq!(e.hit.unwrap().rule_id, RuleId(0));
        assert!(e.combos_probed >= 1);
        // The fast path either misses or finds something; it must never
        // out-perform the oracle-correct strategy.
        if let Some(hit) = f.hit {
            assert!(hit.rule.matches(&h));
        }
        assert_eq!(f.combos_probed, 1);
    }

    #[test]
    fn memory_report_structure() {
        let mut cls = Classifier::new(cfg());
        cls.insert(web_rule(0)).unwrap();
        let rep = cls.memory_report();
        // Engine and label memory per dimension, a wildcard register per
        // IP segment, the Rule Filter.
        assert_eq!(rep.blocks.len(), 7 * 2 + 4 + 1);
        assert!(rep.total_used() > 0);
        assert!(rep.total_provisioned() > rep.total_used());
        assert!(rep.blocks.iter().any(|b| b.name == "rule_filter"));
    }

    #[test]
    fn sharing_report_sane() {
        let cls = Classifier::new(cfg());
        let s = cls.sharing_report();
        assert!(s.bst_bits <= s.physical_bits);
        assert!(s.extra_rule_capacity > 0);
    }

    /// A rule over one `/8` source and one `/8` destination.
    fn slash8_rule(i: u32) -> Rule {
        Rule::builder(Priority(i))
            .src_ip(Prefix::masked((10 + i) << 24, 8))
            .dst_ip(Prefix::masked((100 + i) << 24, 8))
            .action(Action::Forward(i as u16))
            .build()
    }

    /// Everything a failed update must leave as it was.
    fn observe(cls: &Classifier) -> impl PartialEq + std::fmt::Debug {
        let verdicts: Vec<_> = (0..24u8)
            .map(|i| Header::new([8 + i, 0, 0, 1].into(), [98 + i, 0, 0, 1].into(), 1, 2, 6))
            .map(|h| cls.classify(&h))
            .collect();
        let memory: Vec<_> = cls.memory_report().blocks;
        let ties = cls.shared_priorities();
        (verdicts, memory, cls.live_labels(), cls.len(), ties)
    }

    #[test]
    fn failed_load_rolls_the_batch_back() {
        // Four intervals per dimension: two /8s fit (0 | a | a+1 | b..),
        // eight do not, and it is the final flush that finds out.
        let tight = ArchConfig {
            bst_max_intervals: 4,
            ..cfg().with_ip_alg(IpAlg::Bst)
        };
        let mut cls = Classifier::new(tight);
        let kept = cls.insert(slash8_rule(0)).unwrap().rule_id;
        let before = observe(&cls);
        let batch: RuleSet = (1..9).map(slash8_rule).collect();
        assert!(matches!(
            cls.load(&batch),
            Err(ClassifierError::Capacity { .. })
        ));
        // No dimension is left dirty (this classify panicked), and the
        // answers, the memory and the labels are those before the call.
        assert_eq!(observe(&cls), before);
        let h = Header::new([10, 0, 0, 1].into(), [100, 0, 0, 1].into(), 1, 2, 6);
        assert_eq!(cls.classify(&h).hit.unwrap().rule_id, kept);
        // The ids of the batch were never handed out.
        assert_eq!(cls.insert(slash8_rule(1)).unwrap().rule_id, RuleId(1));
        // A duplicate in the middle of a batch takes the batch with it.
        let before = observe(&cls);
        let dup: RuleSet = [slash8_rule(2), slash8_rule(1)].into_iter().collect();
        assert!(matches!(
            cls.load(&dup),
            Err(ClassifierError::DuplicateKey { .. })
        ));
        assert_eq!(observe(&cls), before);
    }

    #[test]
    fn updates_that_do_not_fit_mid_patch_are_atomic() {
        // `10/8` splits the source dimension's `8/5` interval twice,
        // copying its one-label list each time, then enters one list.
        let wide = Rule::builder(Priority(7))
            .src_ip(Prefix::masked(8 << 24, 5))
            .dst_ip(Prefix::masked(100 << 24, 8))
            .build();
        // Interval array full at the first and at the second split (of
        // five, `8/5` holding three); label memory full at the first list
        // copy and at the covered list (of four entries, `8/5` holding one).
        for (intervals, label_entries) in [(3, 64), (4, 64), (64, 1), (64, 3)] {
            let what = format!("{intervals} intervals, {label_entries} label entries");
            let tight = ArchConfig {
                bst_max_intervals: intervals,
                ip_label_entries: label_entries,
                ..cfg().with_ip_alg(IpAlg::Bst)
            };
            let mut cls = Classifier::new(tight);
            let id = cls.insert(wide).unwrap().rule_id;
            let before = observe(&cls);
            let e = cls.insert(slash8_rule(0)).unwrap_err();
            assert!(matches!(e, ClassifierError::Capacity { .. }), "{what}: {e}");
            assert_eq!(observe(&cls), before, "{what}");
            // And it is still a working classifier.
            cls.remove(id).unwrap();
            cls.insert(slash8_rule(0)).unwrap();
        }
    }

    /// The controller's bookkeeping and the hardware it programmed: each
    /// table's value → (label, refcount, best priority), the live rules
    /// per priority, the memory report and the Rule Filter's slots.
    fn controller_state(cls: &Classifier) -> impl PartialEq + std::fmt::Debug {
        let tables: Vec<std::collections::BTreeMap<_, _>> = cls
            .dims
            .iter()
            .map(|u| {
                let entries = u.table.iter();
                let entries = entries.map(|(v, s)| (*v, (s.label, s.refcount, s.best_priority())));
                entries.collect()
            })
            .collect();
        let filter: Vec<_> = cls.rule_filter().iter().copied().collect();
        let priorities: std::collections::BTreeMap<_, _> =
            cls.priorities.counts.clone().into_iter().collect();
        let ties = (priorities, cls.shared_priorities());
        (tables, ties, cls.memory_report(), filter)
    }

    /// Loads `batches` one after another into one classifier, inserts
    /// their rules one by one into another, and holds the two equal:
    /// the bookkeeping, the lookups, then every removal.
    fn assert_load_equals_inserts(config: &ArchConfig, batches: &[RuleSet], what: &str) {
        let mut loaded = Classifier::new(config.clone());
        let mut ids = Vec::new();
        for batch in batches {
            ids.extend(loaded.load(batch).unwrap());
        }
        let mut inserted = Classifier::new(config.clone());
        let rules: Vec<Rule> = batches.iter().flat_map(|b| b.rules().to_vec()).collect();
        for (rule, &id) in rules.iter().zip(&ids) {
            assert_eq!(inserted.insert(*rule).unwrap().rule_id, id, "{what}");
        }
        assert_eq!(
            controller_state(&loaded),
            controller_state(&inserted),
            "{what}"
        );
        let trace = probe_trace(&rules.iter().copied().collect(), 5);
        for h in &trace {
            assert_eq!(
                loaded.classify(h),
                inserted.classify(h),
                "{what}, header {h}"
            );
        }
        let mut rng = StdRng::seed_from_u64(17);
        while !ids.is_empty() {
            let id = ids.swap_remove(rng.gen_range(0..ids.len()));
            let step = format!("{what}, removing {id:?}");
            assert_eq!(loaded.remove(id), inserted.remove(id), "{step}");
            for h in trace.iter().take(8) {
                assert_eq!(
                    loaded.classify(h),
                    inserted.classify(h),
                    "{step}, header {h}"
                );
            }
        }
        assert_eq!(
            controller_state(&loaded),
            controller_state(&inserted),
            "{what}"
        );
        assert_eq!(loaded.live_labels(), [0; 7], "{what}");
    }

    #[test]
    fn load_matches_one_insert_per_rule() {
        for kind in [FilterKind::Acl, FilterKind::Fw, FilterKind::Ipc] {
            let generated = RuleSetGenerator::new(kind, 200).seed(21).generate();
            for alg in [IpAlg::Bst, IpAlg::Mbt] {
                let config = ArchConfig::large().with_ip_alg(alg);
                // Shared priorities put up to eight users on one priority
                // of a label: multiset counts above one.
                for shared_priorities in [false, true] {
                    let shift = |r: &Rule| Rule {
                        priority: Priority(r.priority.0 / if shared_priorities { 8 } else { 1 }),
                        ..*r
                    };
                    let rules: Vec<Rule> = generated.rules().iter().map(shift).collect();
                    let what = format!("{kind:?}/{alg:?}/shared_priorities={shared_priorities}");
                    let set: RuleSet = rules.iter().copied().collect();
                    assert_load_equals_inserts(&config, &[set], &what);
                    // Worst priority first: every run arrives unsorted.
                    let reversed: RuleSet = rules.iter().rev().copied().collect();
                    assert_load_equals_inserts(&config, &[reversed], &format!("{what}, reversed"));
                    // A second load merges into the first one's multisets.
                    let (a, b) = rules.split_at(rules.len() / 2);
                    let halves = [a, b].map(|h| h.iter().copied().collect::<RuleSet>());
                    assert_load_equals_inserts(&config, &halves, &format!("{what}, two loads"));
                }
            }
        }
    }

    #[test]
    fn load_failing_mid_rule_on_a_label_put_rolls_back() {
        // Four port registers: the batch's third rule brings a fifth
        // destination port, whose `put` fails after the rule's first five
        // dimensions took their labels — some fresh, some shared with
        // rules installed before the load or earlier in it.
        let tight = ArchConfig {
            port_registers: 4,
            ..ArchConfig::large()
        };
        let rule = |p: u32, src: u32, port: u16| {
            Rule::builder(Priority(p))
                .src_ip(Prefix::masked(src << 24, 8))
                .dst_port(PortRange::exact(port))
                .build()
        };
        let mut cls = Classifier::new(tight);
        let kept = [rule(5, 10, 80), rule(9, 11, 443)].map(|r| cls.insert(r).unwrap().rule_id);
        let before = (observe(&cls), controller_state(&cls));
        let batch: RuleSet = [rule(3, 10, 22), rule(7, 12, 25), rule(1, 10, 8080)]
            .into_iter()
            .collect();
        let e = cls.load(&batch).unwrap_err();
        assert!(matches!(e, ClassifierError::Capacity { .. }), "{e}");
        assert_eq!((observe(&cls), controller_state(&cls)), before);
        // Nothing of the batch lingers in a multiset: the kept rules
        // leave every label free.
        for id in kept {
            cls.remove(id).unwrap();
        }
        assert_eq!(cls.live_labels(), [0; 7]);
    }

    #[test]
    fn load_bulk() {
        let mut cls = Classifier::new(ArchConfig::large());
        let rs: spc_types::RuleSet = (0..50u32)
            .map(|p| {
                Rule::builder(Priority(p))
                    .src_ip(Prefix::masked(p << 20, 12))
                    .dst_port(PortRange::exact(p as u16))
                    .build()
            })
            .collect();
        let ids = cls.load(&rs).unwrap();
        assert_eq!(ids.len(), 50);
        assert_eq!(cls.len(), 50);
    }

    /// Each IP segment's wildcard register, `(label, priority)` while live.
    fn registers(cls: &Classifier) -> Vec<Option<(Label, Priority)>> {
        let live = |u: &DimUnit| u.wildcard.map(|e| (e.label, e.priority));
        cls.dims[..4].iter().map(live).collect()
    }

    /// A rule over `/0` source addresses and the `/8` destination `100/8`
    /// (so a `/0` destination lo too), any ports, protocol `proto`.
    fn wild_rule(p: u32, proto: u8) -> Rule {
        Rule::builder(Priority(p))
            .dst_ip(Prefix::masked(100 << 24, 8))
            .proto(ProtoSpec::Exact(proto))
            .action(Action::Forward(proto.into()))
            .build()
    }

    #[test]
    fn wildcard_register_failed_improvement_is_atomic() {
        // Priority 1 improves the /0 in three registers before the Rule
        // Filter finds the 5-tuple taken.
        let mut cls = Classifier::new(cfg());
        cls.insert(wild_rule(5, 6)).unwrap();
        let before = (observe(&cls), registers(&cls));
        assert_eq!(registers(&cls).iter().flatten().count(), 3);
        let e = cls.insert(wild_rule(1, 6)).unwrap_err();
        assert!(matches!(e, ClassifierError::DuplicateKey { .. }), "{e}");
        assert_eq!((observe(&cls), registers(&cls)), before);

        // The paper's 2-bit protocol labels hold four values: a fifth
        // fails in the last dimension, after the same three improvements.
        for proto in [17, 1, 2] {
            cls.insert(wild_rule(5, proto)).unwrap();
        }
        let before = (observe(&cls), registers(&cls));
        let e = cls.insert(wild_rule(1, 47)).unwrap_err();
        assert!(matches!(e, ClassifierError::Capacity { .. }), "{e}");
        assert_eq!((observe(&cls), registers(&cls)), before);
        // The improvement itself goes in once it fits.
        let fits = Rule {
            src_port: PortRange::exact(9),
            ..wild_rule(1, 1)
        };
        cls.insert(fits).unwrap();
        assert!(registers(&cls)
            .iter()
            .flatten()
            .all(|&(_, p)| p == Priority(1)));
    }

    #[test]
    fn wildcard_register_survives_ip_alg_switches() {
        // /0 source addresses (both segments), /8 and /16 destinations
        // (a /0 lo), /24 destinations (a full /16 hi).
        let rules: RuleSet = (0..24u32)
            .map(|i| {
                let dst = match i % 3 {
                    0 => Prefix::masked((100 + i) << 24, 8),
                    1 => Prefix::masked((100 << 24) | (i << 16), 16),
                    _ => Prefix::masked((100 << 24) | (i << 8), 24),
                };
                Rule::builder(Priority(i))
                    .dst_ip(dst)
                    .dst_port(PortRange::exact(i as u16))
                    .build()
            })
            .collect();
        let mut cls = Classifier::new(cfg());
        cls.load(&rules).unwrap();
        let headers: Vec<Header> = (0..24u32)
            .flat_map(|i| {
                [
                    (100 + i) << 24,
                    (100 << 24) | (i << 16) | 7,
                    (100 << 24) | (i << 8),
                ]
                .map(|dst| Header::new([1, 2, 3, 4].into(), dst.into(), 5, i as u16, 6))
            })
            .collect();
        let state = |cls: &Classifier| {
            let verdicts: Vec<_> = headers.iter().map(|h| cls.classify(h)).collect();
            (verdicts, cls.memory_report(), registers(cls))
        };
        let hits = |cls: &Classifier| -> Vec<_> {
            headers
                .iter()
                .map(|h| cls.classify(h).hit.map(|x| x.rule_id))
                .collect()
        };
        let mbt = state(&cls);
        assert!(hits(&cls).iter().flatten().count() >= 24);
        cls.set_ip_alg(IpAlg::Bst).unwrap();
        let mut fresh = Classifier::new(cfg().with_ip_alg(IpAlg::Bst));
        fresh.load(&rules).unwrap();
        assert_eq!(hits(&cls), hits(&fresh));
        assert_eq!(state(&cls), state(&fresh), "a reload is a fresh load");
        cls.set_ip_alg(IpAlg::Mbt).unwrap();
        assert_eq!(state(&cls), mbt);
    }

    #[test]
    fn wildcard_register_holds_an_all_wildcard_set() {
        let rules: RuleSet = (0..8u16)
            .map(|i| {
                Rule::builder(Priority(i.into()))
                    .dst_port(PortRange::exact(i))
                    .build()
            })
            .collect();
        for alg in [IpAlg::Mbt, IpAlg::Bst] {
            let mut cls = Classifier::new(cfg().with_ip_alg(alg));
            cls.load(&rules).unwrap();
            let report = cls.memory_report();
            let used = |name: &str| {
                report
                    .blocks
                    .iter()
                    .find(|b| b.name == name)
                    .unwrap()
                    .used_bits
            };
            for dim in IP_SEG_DIMS {
                assert_eq!(used(&format!("{dim}/labels")), 0, "{alg:?} {dim}");
                assert_eq!(used(&format!("{dim}/wildcard")), 13 + 16, "{alg:?} {dim}");
            }
            let h = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 9, 3, 6);
            let c = cls.classify(&h);
            assert_eq!(c.hit.unwrap().rule.priority, Priority(3), "{alg:?}");
            assert_eq!(c.combos_probed, 1, "{alg:?}");
        }
    }

    #[test]
    fn full_flag_follows_a_recycled_label() {
        // The `dip_hi` label of `100.1/16` is freed and handed to `/0`,
        // which must not pass for a full `/16`: at the head of the hi
        // list it would hide the `100.1` of the rule that matches.
        let mut cls = Classifier::new(cfg());
        let dst = |prefix: &str| Rule::builder(Priority(0)).dst_ip(Prefix::parse(prefix).unwrap());
        let slash16 = cls.insert(dst("100.1.0.0/16").build()).unwrap().rule_id;
        cls.remove(slash16).unwrap();
        let web = dst("0.0.0.0/0").dst_port(PortRange::exact(80)).build();
        cls.insert(web).unwrap();
        let host = Rule {
            priority: Priority(1),
            ..dst("100.1.2.0/24").build()
        };
        let host = cls.insert(host).unwrap().rule_id;
        let h = Header::new([1, 1, 1, 1].into(), [100, 1, 2, 3].into(), 5, 81, 6);
        assert_eq!(cls.classify(&h).hit.map(|x| x.rule_id), Some(host));
        assert_eq!(
            box_oracle(&cls, &h).best,
            Some((Priority(1), host)),
            "the oracle agrees"
        );
    }
}
