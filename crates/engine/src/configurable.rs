//! [`PacketClassifier`] for the paper's configurable architecture.

use crate::{verdict, EngineKind, PacketClassifier, UpdateError, UpdateReport, Verdict};
use spc_core::{Classifier, ClassifierError, IpAlg};
use spc_types::{Header, Rule, RuleId};

/// The configurable label-based classifier behind the unified API.
///
/// Wraps [`spc_core::Classifier`] in whichever `IPalg_s` mode the
/// [`crate::EngineBuilder`] selected, with the paper's §V.A incremental
/// update live ([`PacketClassifier::supports_updates`] is `true`).
/// Every lookup, single-shot or batch, works in `spc-core`'s per-thread
/// scratch, so none allocates once warm.
#[derive(Debug)]
pub struct ConfigurableEngine {
    cls: Classifier,
    last_report: Option<UpdateReport>,
}

impl ConfigurableEngine {
    /// Wraps an already-configured classifier.
    pub fn new(cls: Classifier) -> Self {
        ConfigurableEngine {
            cls,
            last_report: None,
        }
    }

    /// The wrapped classifier, for architecture-specific instrumentation
    /// (pipeline timing, memory reports, `IPalg_s` switching) that the
    /// backend-agnostic trait deliberately does not expose.
    pub fn classifier(&self) -> &Classifier {
        &self.cls
    }

    /// Mutable access to the wrapped classifier.
    pub fn classifier_mut(&mut self) -> &mut Classifier {
        &mut self.cls
    }
}

impl From<ClassifierError> for UpdateError {
    fn from(e: ClassifierError) -> Self {
        match e {
            ClassifierError::UnknownRule { id } => UpdateError::UnknownRule { id: RuleId(id) },
            // Keep duplicates distinguishable from capacity failures:
            // churn loops skip the former but must surface the latter.
            ClassifierError::DuplicateKey { existing } => UpdateError::Duplicate {
                existing: RuleId(existing),
            },
            other => UpdateError::Rejected {
                reason: other.to_string(),
            },
        }
    }
}

impl PacketClassifier for ConfigurableEngine {
    fn kind(&self) -> EngineKind {
        match self.cls.config().ip_alg {
            IpAlg::Mbt => EngineKind::ConfigurableMbt,
            IpAlg::Bst => EngineKind::ConfigurableBst,
        }
    }

    fn rules(&self) -> usize {
        self.cls.len()
    }

    fn classify(&self, header: &Header) -> Verdict {
        let c = self.cls.classify(header);
        let hit = c.hit.as_ref().map(|h| (h.rule_id, &h.rule));
        verdict(hit, c.total_reads())
    }

    fn memory_bits(&self) -> u64 {
        self.cls.memory_report().total_used()
    }

    fn supports_updates(&self) -> bool {
        true
    }

    fn insert(&mut self, rule: Rule) -> Result<RuleId, UpdateError> {
        // A failed update must leave the report untouched.
        let report = self.cls.insert(rule)?;
        self.last_report = Some(report);
        Ok(report.rule_id)
    }

    fn remove(&mut self, id: RuleId) -> Result<(), UpdateError> {
        let (_, report) = self.cls.remove(id)?;
        self.last_report = Some(report);
        Ok(())
    }

    fn last_update_report(&self) -> Option<UpdateReport> {
        self.last_report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_core::ArchConfig;
    use spc_types::{Action, PortRange, Priority, ProtoSpec};

    fn web_rule(p: u32, port: u16) -> Rule {
        Rule::builder(Priority(p))
            .dst_port(PortRange::exact(port))
            .proto(ProtoSpec::Exact(6))
            .action(Action::Forward(1))
            .build()
    }

    fn hdr(port: u16) -> Header {
        Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 999, port, 6)
    }

    #[test]
    fn update_roundtrip_through_trait() {
        let mut e = ConfigurableEngine::new(Classifier::new(ArchConfig::default()));
        assert!(e.supports_updates());
        let id = e.insert(web_rule(0, 80)).unwrap();
        assert_eq!(e.rules(), 1);
        let v = e.classify(&hdr(80));
        assert_eq!(v.rule, Some(id));
        assert_eq!(v.action, Some(Action::Forward(1)));
        assert!(v.mem_reads > 0);
        e.remove(id).unwrap();
        assert!(!e.classify(&hdr(80)).is_hit());
        assert!(matches!(e.remove(id), Err(UpdateError::UnknownRule { .. })));
    }

    #[test]
    fn update_reports_surface_cycle_costs() {
        let mut e = ConfigurableEngine::new(Classifier::new(ArchConfig::default()));
        assert!(e.last_update_report().is_none(), "no update yet");
        let id = e.insert(web_rule(0, 80)).unwrap();
        let ins = e.last_update_report().expect("insert must report");
        assert_eq!(ins.rule_id, id);
        assert_eq!(ins.created_labels, 7);
        assert!(ins.hw_write_cycles >= 3, "§V.A floor: 2 data + 1 hash");
        // A failed update leaves the previous report intact.
        assert!(e.insert(web_rule(1, 80)).is_err());
        assert_eq!(e.last_update_report(), Some(ins));
        e.remove(id).unwrap();
        let del = e.last_update_report().expect("remove must report");
        assert_eq!(del.rule_id, id);
        assert_eq!(del.freed_labels, 7);
        assert!(del.hw_write_cycles >= 3);
    }

    #[test]
    fn duplicate_insert_maps_to_duplicate() {
        let mut e = ConfigurableEngine::new(Classifier::new(ArchConfig::default()));
        let first = e.insert(web_rule(0, 80)).unwrap();
        assert_eq!(
            e.insert(web_rule(1, 80)),
            Err(UpdateError::Duplicate { existing: first }),
            "duplicates must stay distinguishable from capacity rejections"
        );
    }

    #[test]
    fn batch_agrees_with_single_and_accounts() {
        let mut e = ConfigurableEngine::new(Classifier::new(ArchConfig::default()));
        for (p, port) in [(0u32, 80u16), (1, 443), (2, 22)] {
            e.insert(web_rule(p, port)).unwrap();
        }
        let batch: Vec<Header> = [80u16, 443, 22, 8080, 80].iter().map(|&p| hdr(p)).collect();
        let mut out = Vec::new();
        let stats = e.classify_batch(&batch, &mut out);
        assert_eq!(out.len(), batch.len());
        assert_eq!(stats.packets, 5);
        assert_eq!(stats.hits, 4);
        for (h, v) in batch.iter().zip(&out) {
            assert_eq!(
                *v,
                e.classify(h),
                "batch and single verdicts must agree at {h}"
            );
        }
        assert_eq!(
            stats.mem_reads,
            out.iter().map(|v| u64::from(v.mem_reads)).sum::<u64>()
        );
    }
}
