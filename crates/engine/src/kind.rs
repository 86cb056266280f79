//! The backend registry.

use std::fmt;
use std::str::FromStr;

/// Every classifier backend the workspace can construct.
///
/// The two `Configurable*` entries are the paper's architecture under each
/// `IPalg_s` setting. Six build-once comparison algorithms (Table I and
/// linear search) follow, then the three wrappers, each holding an inner
/// engine, and the two update-first designs the paper's §V.A update
/// claim is measured against, each its own engine. Parse one from a string (`"hypercuts"`, `"configurable-bst"`, ...) or
/// iterate [`EngineKind::ALL`] for a full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The configurable architecture, multi-bit-trie IP mode (speed).
    ConfigurableMbt,
    /// The configurable architecture, BST IP mode (density).
    ConfigurableBst,
    /// Priority-ordered linear search — the semantic oracle.
    Linear,
    /// HyperCuts decision-tree cutting.
    HyperCuts,
    /// Recursive Flow Classification.
    Rfc,
    /// Distributed Crossproducting of Field Labels.
    Dcfl,
    /// Table I "Option 1": 5-level IP tries + 4-level port tries.
    Option1,
    /// Table I "Option 2": 4-level IP tries + 5-level port tries.
    Option2,
    /// Partitioned multi-classifier: N inner engines over rule-set
    /// shards, verdicts merged by priority (see `ShardedEngine`).
    Sharded,
    /// Flow verdict cache in front of any inner backend: one
    /// exact-match flow table (see `CachedEngine`).
    Cached,
    /// Snapshot-swap concurrent-serving wrapper: readers classify
    /// against an immutable published snapshot while an update is
    /// replayed onto a recycled copy that is then atomically published;
    /// only a build-once inner is rebuilt (see `SnapshotEngine`).
    Snapshot,
    /// Tuple-space search: rules grouped by mask signature into one
    /// hash table per tuple, probed in best-priority order; an update
    /// touches exactly one tuple (see `TupleSpaceEngine`).
    TupleSpace,
    /// Software TCAM: priority-ordered mask/value entries scanned
    /// first-match, with a partitioned allocator whose shift-on-insert
    /// cost is surfaced per update (see `SoftTcamEngine`).
    SoftTcam,
}

impl EngineKind {
    /// Every backend, in the order the paper's tables list them
    /// (workspace-grown backends follow the paper's rows).
    pub const ALL: [EngineKind; 13] = [
        EngineKind::ConfigurableMbt,
        EngineKind::ConfigurableBst,
        EngineKind::Linear,
        EngineKind::HyperCuts,
        EngineKind::Rfc,
        EngineKind::Dcfl,
        EngineKind::Option1,
        EngineKind::Option2,
        EngineKind::Sharded,
        EngineKind::Cached,
        EngineKind::Snapshot,
        EngineKind::TupleSpace,
        EngineKind::SoftTcam,
    ];

    /// The canonical config-string spelling ([`FromStr`] inverse).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::ConfigurableMbt => "configurable-mbt",
            EngineKind::ConfigurableBst => "configurable-bst",
            EngineKind::Linear => "linear",
            EngineKind::HyperCuts => "hypercuts",
            EngineKind::Rfc => "rfc",
            EngineKind::Dcfl => "dcfl",
            EngineKind::Option1 => "option1",
            EngineKind::Option2 => "option2",
            EngineKind::Sharded => "sharded",
            EngineKind::Cached => "cached",
            EngineKind::Snapshot => "snapshot",
            EngineKind::TupleSpace => "tss",
            EngineKind::SoftTcam => "tcam",
        }
    }

    /// Display title: the paper's table row where there is one
    /// (`"Configurable (MBT)"`, `"HyperCuts"`, ...).
    pub fn title(self) -> &'static str {
        match self {
            EngineKind::ConfigurableMbt => "Configurable (MBT)",
            EngineKind::ConfigurableBst => "Configurable (BST)",
            EngineKind::Linear => "LinearSearch",
            EngineKind::HyperCuts => "HyperCuts",
            EngineKind::Rfc => "RFC",
            EngineKind::Dcfl => "DCFL",
            EngineKind::Option1 => "Option 1",
            EngineKind::Option2 => "Option 2",
            EngineKind::Sharded => "Sharded",
            EngineKind::Cached => "Cached",
            EngineKind::Snapshot => "Snapshot",
            EngineKind::TupleSpace => "Tuple-space search",
            EngineKind::SoftTcam => "Software TCAM",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing an [`EngineKind`] or an engine spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineKindError {
    /// The unrecognised input.
    pub input: String,
}

impl fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown engine kind {:?}; expected one of: {}",
            self.input,
            EngineKind::ALL.map(EngineKind::as_str).join(", ")
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl FromStr for EngineKind {
    type Err = ParseEngineKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| ParseEngineKindError {
                input: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.as_str().parse::<EngineKind>().unwrap(), kind);
        }
    }

    #[test]
    fn unknown_kind_lists_options() {
        let e = "quantum".parse::<EngineKind>().unwrap_err();
        assert!(e.to_string().contains("configurable-mbt"), "{e}");
    }

    #[test]
    fn registry_is_exhaustive_and_distinct() {
        let mut names: Vec<&str> = EngineKind::ALL.map(EngineKind::as_str).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EngineKind::ALL.len());
    }

    #[test]
    fn all_lists_every_variant_exactly_once() {
        // The exhaustive match makes the compiler flag any variant a
        // future edit adds; the `seen` check flags one missing from (or
        // duplicated in) `ALL`. Together they keep `ALL` in lock-step
        // with the enum.
        fn ordinal(k: EngineKind) -> usize {
            match k {
                EngineKind::ConfigurableMbt => 0,
                EngineKind::ConfigurableBst => 1,
                EngineKind::Linear => 2,
                EngineKind::HyperCuts => 3,
                EngineKind::Rfc => 4,
                EngineKind::Dcfl => 5,
                EngineKind::Option1 => 6,
                EngineKind::Option2 => 7,
                EngineKind::Sharded => 8,
                EngineKind::Cached => 9,
                EngineKind::Snapshot => 10,
                EngineKind::TupleSpace => 11,
                EngineKind::SoftTcam => 12,
            }
        }
        let mut seen = [false; EngineKind::ALL.len()];
        for k in EngineKind::ALL {
            assert!(!seen[ordinal(k)], "{k} listed twice in ALL");
            seen[ordinal(k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "a variant is missing from ALL");
    }

    #[test]
    fn new_backends_parse() {
        for (s, k) in [
            ("tss", EngineKind::TupleSpace),
            ("tcam", EngineKind::SoftTcam),
        ] {
            assert_eq!(s.parse::<EngineKind>().unwrap(), k);
        }
    }
}
