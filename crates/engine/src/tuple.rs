//! The tests that hold both update-first backends — tuple-space search
//! ([`crate::TupleSpaceEngine`]) and the software TCAM
//! ([`crate::SoftTcamEngine`]) — to the trait's update contract.

#[cfg(test)]
mod tests {
    use crate::{
        PacketClassifier, SoftTcamEngine, TupleSpaceEngine, UpdateError, DEFAULT_TCAM_CAPACITY,
        DEFAULT_TCAM_PARTITIONS, DEFAULT_TSS_TABLES,
    };
    use spc_types::{Action, Header, PortRange, Priority, ProtoSpec, Rule, RuleId, RuleSet};

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

    fn tcam(capacity: usize, partitions: usize) -> SoftTcamEngine {
        SoftTcamEngine::build(&RuleSet::new(), capacity, partitions).unwrap()
    }

    fn engines() -> Vec<Box<dyn PacketClassifier>> {
        vec![
            Box::new(TupleSpaceEngine::build(&RuleSet::new(), DEFAULT_TSS_TABLES).unwrap()),
            Box::new(tcam(DEFAULT_TCAM_CAPACITY, DEFAULT_TCAM_PARTITIONS)),
        ]
    }

    #[test]
    fn update_roundtrip_through_trait() {
        for mut e in engines() {
            assert!(e.supports_updates(), "{}", e.kind());
            let id = e.insert(web_rule(0, 80)).unwrap();
            assert_eq!(e.rules(), 1);
            let v = e.classify(&hdr(80));
            assert_eq!(v.rule, Some(id), "{}", e.kind());
            assert_eq!(v.action, Some(Action::Forward(1)));
            assert!(v.mem_reads > 0);
            e.remove(id).unwrap();
            assert!(!e.classify(&hdr(80)).is_hit());
            assert!(matches!(e.remove(id), Err(UpdateError::UnknownRule { .. })));
        }
    }

    #[test]
    fn failed_updates_leave_the_report() {
        for mut e in engines() {
            assert!(e.last_update_report().is_none());
            let id = e.insert(web_rule(0, 80)).unwrap();
            let ins = e.last_update_report().expect("insert must report");
            assert_eq!(ins.rule_id, id);
            assert!(ins.created_labels >= 1, "{}", e.kind());
            assert!(ins.hw_write_cycles >= 3, "§V.A floor: 2 data + 1 hash");
            // A duplicate or an unknown id is rejected and leaves the
            // report untouched.
            assert!(matches!(
                e.insert(web_rule(5, 80)),
                Err(UpdateError::Duplicate { .. })
            ));
            assert_eq!(e.last_update_report(), Some(ins));
            assert!(e.remove(RuleId(404)).is_err());
            assert_eq!(e.last_update_report(), Some(ins));
            e.remove(id).unwrap();
            let del = e.last_update_report().expect("remove must report");
            assert_eq!(del.rule_id, id);
            assert!(del.freed_labels >= 1);
            assert!(del.hw_write_cycles >= 3);
        }
    }

    #[test]
    fn batch_agrees_with_single_and_accounts() {
        for mut e in engines() {
            for (p, port) in [(0u32, 80u16), (1, 443), (2, 22)] {
                e.insert(web_rule(p, port)).unwrap();
            }
            let batch: Vec<Header> = [80u16, 443, 22, 8080, 80].iter().map(|&p| hdr(p)).collect();
            let mut out = Vec::new();
            let stats = e.classify_batch(&batch, &mut out);
            assert_eq!(out.len(), batch.len());
            assert_eq!(stats.packets, 5);
            assert_eq!(stats.hits, 4, "{}", e.kind());
            for (h, v) in batch.iter().zip(&out) {
                assert_eq!(*v, e.classify(h), "{}: batch != single at {h}", e.kind());
            }
        }
    }

    #[test]
    fn tcam_capacity_exhaustion_is_a_rejection() {
        let mut e = tcam(4, 2);
        let wide = Rule::builder(Priority(0))
            .src_port(PortRange::new(1000, 40000).unwrap())
            .build();
        match e.insert(wide) {
            Err(UpdateError::Rejected { reason }) => {
                assert!(reason.contains("capacity"), "{reason}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert!(
            e.last_update_report().is_none(),
            "failed insert must not report"
        );
    }

    #[test]
    fn tcam_report_prices_the_shift() {
        // 8 slots in 2 partitions; fill partition 0, then force a
        // front insert and check the report's cycles include the moves.
        let mut e = tcam(8, 2);
        for p in 10..16u32 {
            e.insert(web_rule(p, p as u16)).unwrap();
        }
        e.insert(web_rule(0, 9999)).unwrap();
        let rep = e.last_update_report().expect("insert must report");
        assert!(
            rep.hw_write_cycles > 3 + 1,
            "shift cost must surface: {rep:?}"
        );
    }
}
