//! The five-field label front end under [`crate::Dcfl`] and
//! [`crate::OptionClassifier`].
//!
//! Both classifiers run the same phase: a 32-bit multi-bit trie per IP
//! field, a segment trie per port field and a LUT for the protocol, each
//! over its own label memory, with labels handed out per field in
//! first-seen order. They differ in what they do with the five label
//! lists a header produces — an aggregation network, a cross-product
//! probe of a hashed rule memory — and in the label priority they store.

use spc_lookup::{
    EngineError, FieldEngine, Label, LabelEntry, LabelList, LabelStore, LookupResult, MbtConfig,
    MultiBitTrie, ProtocolLut, SegTrieConfig, SegmentTrie,
};
use spc_types::{DimValue, Header, PortRange, Prefix, Priority, ProtoSpec, Rule};
use std::collections::HashMap;
use std::hash::Hash;

/// One field: its engine, its label memory and the value → label map.
#[derive(Debug)]
pub(crate) struct Field<E, V> {
    pub(crate) engine: E,
    store: LabelStore,
    labels: HashMap<V, Label>,
}

impl<E: FieldEngine, V: Copy + Eq + Hash> Field<E, V> {
    fn new(engine: E, store: LabelStore) -> Self {
        Field {
            engine,
            store,
            labels: HashMap::new(),
        }
    }

    /// The label of `value`; a value not seen before takes the next label
    /// and is stored through `insert` at `priority`.
    fn intern(
        &mut self,
        value: V,
        priority: Priority,
        insert: impl FnOnce(&mut E, &mut LabelStore, V, LabelEntry) -> Result<(), EngineError>,
    ) -> Label {
        let next = Label(self.labels.len() as u16);
        let (engine, store) = (&mut self.engine, &mut self.store);
        *self.labels.entry(value).or_insert_with(|| {
            let entry = LabelEntry::by_priority(next, priority);
            if let Err(e) = insert(engine, store, value, entry) {
                panic!("{} not sized for the rule set: {e}", store.name());
            }
            next
        })
    }

    // Field lookups are total over their domains (u32 keys, u16 ports,
    // u8 protocols), so the `Err` arms are unreachable by construction.
    #[allow(clippy::expect_used)]
    fn lookup(&self, query: u16) -> LookupResult {
        self.engine.lookup(&self.store, query).expect("in range")
    }

    fn used_bits(&self) -> u64 {
        self.engine.used_bits() + self.store.used_bits()
    }
}

impl Field<MultiBitTrie, Prefix> {
    #[allow(clippy::expect_used)] // as `Field::lookup`
    fn lookup_key(&self, key: u32) -> LookupResult {
        self.engine.lookup_key(&self.store, key).expect("in range")
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
        let store =
            |field, entries, bits| LabelStore::new(format!("{name}/{field}"), entries, bits);
        FieldFrontEnd {
            sip: Field::new(
                MultiBitTrie::new(mbt_cfg.clone()),
                store("sip", 1 << 20, 13),
            ),
            dip: Field::new(MultiBitTrie::new(mbt_cfg), store("dip", 1 << 20, 13)),
            sport: Field::new(
                SegmentTrie::new(seg_cfg.clone()),
                store("sport", 1 << 18, 13),
            ),
            dport: Field::new(SegmentTrie::new(seg_cfg), store("dport", 1 << 18, 13)),
            proto: Field::new(ProtocolLut::new(), store("proto", 16, 4)),
        }
    }

    /// The rule's five labels (source IP, destination IP, source port,
    /// destination port, protocol); a field value seen for the first time
    /// is stored with `label_priority`.
    ///
    /// # Panics
    ///
    /// Panics if a field structure overflows its provisioning: the
    /// Table I comparators are build-once research artifacts, sized
    /// above any ClassBench-scale set, and an overflow is a
    /// misconfiguration, not a runtime condition to recover from.
    pub(crate) fn intern(&mut self, r: &Rule, label_priority: Priority) -> [Label; 5] {
        let p = label_priority;
        let ip = |e: &mut MultiBitTrie, s: &mut LabelStore, v: Prefix, entry| {
            e.insert_prefix(s, v.value(), v.len(), entry)
        };
        let port = |e: &mut SegmentTrie, s: &mut LabelStore, v, entry| e.insert_range(s, v, entry);
        let proto = |e: &mut ProtocolLut, s: &mut LabelStore, v, entry| {
            e.insert(s, DimValue::Proto(v), entry)
        };
        [
            self.sip.intern(r.src_ip, p, ip),
            self.dip.intern(r.dst_ip, p, ip),
            self.sport.intern(r.src_port, p, port),
            self.dport.intern(r.dst_port, p, port),
            self.proto.intern(r.proto, p, proto),
        ]
    }

    /// The header's five label lists, in [`FieldFrontEnd::intern`]'s
    /// order, and the memory words the five lookups read together.
    // Inlined: each classifier had these five lookups in its `classify`.
    #[inline]
    pub(crate) fn lookup(&self, h: &Header) -> ([LabelList; 5], u32) {
        let sip = self.sip.lookup_key(h.src_ip.0);
        let dip = self.dip.lookup_key(h.dst_ip.0);
        let sport = self.sport.lookup(h.src_port);
        let dport = self.dport.lookup(h.dst_port);
        let proto = self.proto.lookup(u16::from(h.proto));
        let reads =
            sip.mem_reads + dip.mem_reads + sport.mem_reads + dport.mem_reads + proto.mem_reads;
        let lists = [sip, dip, sport, dport, proto].map(|r| r.labels);
        (lists, reads)
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
