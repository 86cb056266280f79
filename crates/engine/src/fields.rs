//! The five-field label front end under the Table I comparators DCFL
//! ([`crate::dcfl::Dcfl`]) and Option 1/2
//! ([`crate::options::OptionClassifier`]).
//!
//! Both classifiers run the same phase: a 32-bit multi-bit trie per IP
//! field, a segment trie per port field and a LUT for the protocol, each
//! over its own label memory, with labels handed out per field in
//! first-seen order. They differ in what they do with the five label
//! lists a header produces — an aggregation network, a cross-product
//! probe of a hashed rule memory — and in the label priority they store.
//!
//! A label is as wide as its field's label memory: 13 bits for the
//! addresses and ports, 4 for the protocol. Both memory models price
//! labels at those widths and Option 1/2 pack them into a key of those
//! widths, so a set with more distinct values in a field than its labels
//! can name is refused at build rather than built with labels that spill
//! into their neighbours.

use spc_lookup::{
    EngineError, FieldEngine, Label, LabelAllocator, LabelEntry, LabelList, LabelStore, MbtConfig,
    MultiBitTrie, ProtocolLut, SegTrieConfig, SegmentTrie,
};
use spc_types::{DimValue, Header, PortRange, Prefix, Priority, ProtoSpec, Rule};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// Label bits per field, in [`FieldFrontEnd::intern`]'s order: what each
/// label memory stores and what Option 1/2's key packs.
pub(crate) const LABEL_WIDTHS: [u8; 5] = [13, 13, 13, 13, 4];

/// One field: its engine, its label memory, the value → label map and
/// the allocator of the memory's label width.
#[derive(Debug)]
pub(crate) struct Field<E, V> {
    pub(crate) engine: E,
    store: LabelStore,
    labels: HashMap<V, Label>,
    alloc: LabelAllocator,
}

impl<E: FieldEngine, V: Copy + Eq + Hash> Field<E, V> {
    fn new(engine: E, store: LabelStore) -> Self {
        Field {
            engine,
            alloc: LabelAllocator::new(store.label_bits()),
            store,
            labels: HashMap::new(),
        }
    }

    /// The label of `value`; a value not seen before takes the next label
    /// and is stored through `insert` at `priority`.
    ///
    /// # Errors
    ///
    /// The reason, when the next label does not fit the label memory's
    /// width or the engine cannot store the value.
    fn intern(
        &mut self,
        value: V,
        priority: Priority,
        insert: impl FnOnce(&mut E, &mut LabelStore, V, LabelEntry) -> Result<(), EngineError>,
    ) -> Result<Label, String> {
        let slot = match self.labels.entry(value) {
            Entry::Occupied(seen) => return Ok(*seen.get()),
            Entry::Vacant(slot) => slot,
        };
        let label = self.alloc.alloc().map_err(|_| {
            format!(
                "{}: more than {} distinct values overflow its {}-bit labels",
                self.store.name(),
                self.alloc.capacity(),
                self.store.label_bits()
            )
        })?;
        let entry = LabelEntry::by_priority(label, priority);
        insert(&mut self.engine, &mut self.store, value, entry)
            .map_err(|e| format!("{} not sized for the rule set: {e}", self.store.name()))?;
        slot.insert(label);
        Ok(label)
    }

    /// The labels of `query` into `out`; the memory words read.
    // A field lookup's only error is a dirty BST's, and no field here is
    // a BST.
    #[allow(clippy::expect_used)]
    fn lookup(&self, query: u16, out: &mut LabelList) -> u32 {
        let cost = self.engine.lookup_into(&self.store, query, out);
        cost.expect("in range").mem_reads
    }

    fn used_bits(&self) -> u64 {
        self.engine.used_bits() + self.store.used_bits()
    }
}

impl Field<MultiBitTrie, Prefix> {
    /// [`Field::lookup`] of a full 32-bit address.
    fn lookup_key(&self, key: u32, out: &mut LabelList) -> u32 {
        self.engine.lookup_key_into(&self.store, key, out).mem_reads
    }
}

/// The five field engines with their label memories.
#[derive(Debug)]
pub(crate) struct FieldFrontEnd {
    pub(crate) sip: Field<MultiBitTrie, Prefix>,
    dip: Field<MultiBitTrie, Prefix>,
    sport: Field<SegmentTrie, PortRange>,
    dport: Field<SegmentTrie, PortRange>,
    proto: Field<ProtocolLut, ProtoSpec>,
}

impl FieldFrontEnd {
    /// Empty engines of the given geometries; label stores are named
    /// `{name}/sip` … `{name}/proto`.
    pub(crate) fn new(name: &str, mbt_cfg: MbtConfig, seg_cfg: SegTrieConfig) -> Self {
        let [sip, dip, sport, dport, proto] = LABEL_WIDTHS;
        let store =
            |field, entries, bits| LabelStore::new(format!("{name}/{field}"), entries, bits);
        FieldFrontEnd {
            sip: Field::new(
                MultiBitTrie::new(mbt_cfg.clone()),
                store("sip", 1 << 20, sip),
            ),
            dip: Field::new(MultiBitTrie::new(mbt_cfg), store("dip", 1 << 20, dip)),
            sport: Field::new(
                SegmentTrie::new(seg_cfg.clone()),
                store("sport", 1 << 18, sport),
            ),
            dport: Field::new(SegmentTrie::new(seg_cfg), store("dport", 1 << 18, dport)),
            proto: Field::new(ProtocolLut::new(), store("proto", 16, proto)),
        }
    }

    /// The rule's five labels (source IP, destination IP, source port,
    /// destination port, protocol); a field value seen for the first time
    /// is stored with `label_priority`.
    ///
    /// # Errors
    ///
    /// The reason, when a field has more distinct values than its labels
    /// can name or a field structure overflows its provisioning.
    pub(crate) fn intern(
        &mut self,
        r: &Rule,
        label_priority: Priority,
    ) -> Result<[Label; 5], String> {
        let p = label_priority;
        let ip = |e: &mut MultiBitTrie, s: &mut LabelStore, v: Prefix, entry| {
            e.insert_prefix(s, v.value(), v.len(), entry)
        };
        let port = |e: &mut SegmentTrie, s: &mut LabelStore, v, entry| e.insert_range(s, v, entry);
        let proto = |e: &mut ProtocolLut, s: &mut LabelStore, v, entry| {
            e.insert(s, DimValue::Proto(v), entry)
        };
        Ok([
            self.sip.intern(r.src_ip, p, ip)?,
            self.dip.intern(r.dst_ip, p, ip)?,
            self.sport.intern(r.src_port, p, port)?,
            self.dport.intern(r.dst_port, p, port)?,
            self.proto.intern(r.proto, p, proto)?,
        ])
    }

    /// The header's five label lists into `lists`, in
    /// [`FieldFrontEnd::intern`]'s order; the memory words the five
    /// lookups read together.
    // Inlined: each classifier had these five lookups in its `classify`.
    #[inline]
    pub(crate) fn lookup(&self, h: &Header, lists: &mut [LabelList; 5]) -> u32 {
        let [sip, dip, sport, dport, proto] = lists;
        self.sip.lookup_key(h.src_ip.0, sip)
            + self.dip.lookup_key(h.dst_ip.0, dip)
            + self.sport.lookup(h.src_port, sport)
            + self.dport.lookup(h.dst_port, dport)
            + self.proto.lookup(u16::from(h.proto), proto)
    }

    /// Bits occupied by the five engines and their label memories.
    pub(crate) fn used_bits(&self) -> u64 {
        self.sip.used_bits()
            + self.dip.used_bits()
            + self.sport.used_bits()
            + self.dport.used_bits()
            + self.proto.used_bits()
    }
}

#[cfg(test)]
mod tests {
    use crate::{build_engine, BuildError};
    use spc_types::{Header, PortRange, Prefix, Priority, ProtoSpec, Rule, RuleId, RuleSet};

    /// Builds `spec` over `rules` and expects a typed rejection whose
    /// reason names the field and its label width.
    fn rejected(spec: &str, rules: &RuleSet, field: &str, width: &str) {
        match build_engine(spec, rules) {
            Err(BuildError::Rejected { reason, .. }) => {
                assert!(reason.contains(field) && reason.contains(width), "{reason}");
            }
            other => panic!(
                "{spec}: expected Rejected, got {:?}",
                other.map(|e| e.kind())
            ),
        }
    }

    /// `n` rules, each a distinct /32 destination.
    fn destinations(n: u32, priority: impl Fn(u32) -> u32) -> Vec<Rule> {
        (0..n)
            .map(|i| {
                Rule::builder(Priority(priority(i)))
                    .dst_ip(Prefix::masked(0x0a00_0000 + i, 32))
                    .build()
            })
            .collect()
    }

    #[test]
    fn seventeen_protocols_overflow_four_bit_labels() {
        // Label 16 would spill into the destination-port field of the
        // Option key and collide with a rule stored there.
        let rules = RuleSet::from_rules(
            (0..60u8)
                .map(|i| {
                    Rule::builder(Priority(u32::from(i)))
                        .dst_port(PortRange::exact(u16::from(i % 3)))
                        .proto(ProtoSpec::Exact(i))
                        .build()
                })
                .collect(),
        );
        for spec in ["option1", "option2", "dcfl"] {
            rejected(spec, &rules, "/proto", "4-bit");
        }
    }

    #[test]
    fn destination_label_8192_cannot_spill_into_the_source_field() {
        // Built, rule 8192's key (source label 0, destination label
        // 8192) reads as (source label 1, destination label 0): the
        // /32-source rule's source label and the first destination's, so
        // a probe for that source and destination 10.0.0.0 returns rule
        // 8192, which it does not match, ahead of rule 0.
        let n = 9_000;
        let mut rules = destinations(n, |i| n - i);
        rules.push(
            Rule::builder(Priority(n + 1))
                .src_ip(Prefix::masked(0xc0a8_0001, 32))
                .build(),
        );
        let rules = RuleSet::from_rules(rules);
        let h = Header::new([192, 168, 0, 1].into(), [10, 0, 0, 0].into(), 1, 1, 6);
        let oracle = build_engine("linear", &rules).unwrap();
        assert_eq!(oracle.classify(&h).rule, Some(RuleId(0)));
        for spec in ["option1", "option2"] {
            rejected(spec, &rules, "opt/dip", "13-bit");
        }
    }

    #[test]
    fn dcfl_names_8192_destinations_and_no_more() {
        let rules = |n| RuleSet::from_rules(destinations(n, |i| i));
        assert!(build_engine("dcfl", &rules(8_192)).is_ok());
        rejected("dcfl", &rules(8_193), "dcfl/dip", "13-bit");
    }
}
