//! Stateful model test of the flow cache: a [`CachedEngine`] driven
//! through a seeded interleaving of single-shot and batch lookups (with
//! in-batch repeats: packet trains and one-field near-duplicates),
//! inserts, removes, duplicate inserts and removes of unknown ids
//! (which must fail and change nothing), the first rule to look at a
//! source port, more live inserts than the insert log holds, and — at the
//! small table sizes — constant eviction, is held after every step to an
//! uncached `linear` engine built from scratch over the rules that are
//! live. Whatever the update path leaves behind — an entry its removed
//! rule's chain missed, a slot the log never held to an inserted rule —
//! is a verdict disagreement here. (The chains and the log themselves
//! are private; their structural invariants are checked after every step
//! of the same kind of churn by
//! `chains_and_log_stay_consistent_under_seeded_churn` in `src/cache.rs`.)

// Integration-test support code (helpers outside #[test] fns are not
// covered by clippy.toml's allow-unwrap-in-tests): a failed unwrap here
// IS the test failure, so panicking with the site's message is exactly
// the behaviour we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use spc_classbench::{FilterKind, RuleSetGenerator, TraceGenerator};
use spc_engine::{build_engine, CachedEngine, PacketClassifier, UpdateError};
use spc_types::{Header, PortRange, Priority, Rule, RuleId, RuleSet};
use std::collections::HashSet;

/// The engine under test, the rules it should hold (in arrival order,
/// with the ids it gave them) and the lookups it has been asked.
struct Model {
    cached: CachedEngine,
    live: Vec<(RuleId, Rule)>,
    lookups: u64,
}

impl Model {
    /// Classifies `headers` on the batch and the single-shot path and
    /// holds both to an uncached engine built from the live rules.
    fn assert_matches_uncached(&mut self, headers: &[Header], what: &str) {
        let rules: RuleSet = self.live.iter().map(|&(_, r)| r).collect();
        let uncached = build_engine("linear", &rules).unwrap();
        let mut got = Vec::new();
        let probes = |c: &CachedEngine| c.cache_stats().hits + c.cache_stats().misses;
        let before = probes(&self.cached);
        let stats = self.cached.classify_batch(headers, &mut got);
        assert_eq!(stats.packets, headers.len() as u64, "{what}");
        assert_eq!(probes(&self.cached) - before, stats.packets, "{what}");
        for (h, batch) in headers.iter().zip(got) {
            let want = uncached.classify(h);
            // The reference numbers its rules by position in `live`.
            let want_id = want.rule.map(|pos| self.live[pos.0 as usize].0);
            for (path, v) in [("batch", batch), ("single", self.cached.classify(h))] {
                assert_eq!(v.rule, want_id, "{what}: {path} rule at {h}");
                assert_eq!(v.priority, want.priority, "{what}: {path} at {h}");
                assert_eq!(v.action, want.action, "{what}: {path} at {h}");
                assert_eq!(v.matched().map(|m| m.id), want_id, "{what}: {path} at {h}");
            }
        }
        self.lookups += 2 * headers.len() as u64;
    }
}

/// ACL rules with distinct 5-tuples, none of which looks at the source
/// port — so the one rule the test inserts that does splits flows every
/// other rule treats alike.
fn pool(seed: u64) -> Vec<Rule> {
    let mut seen = HashSet::new();
    RuleSetGenerator::new(FilterKind::Acl, 400)
        .seed(seed)
        .generate()
        .rules()
        .iter()
        .map(|r| Rule {
            src_port: PortRange::ANY,
            ..*r
        })
        .filter(|r| seen.insert(r.dim_values()))
        .collect()
}

/// `h` one bit away in one of its five fields.
fn nudge(h: Header, field: usize) -> Header {
    match field {
        0 => Header {
            src_ip: (h.src_ip.0 ^ 1).into(),
            ..h
        },
        1 => Header {
            dst_ip: (h.dst_ip.0 ^ 1).into(),
            ..h
        },
        2 => Header {
            src_port: h.src_port ^ 1,
            ..h
        },
        3 => Header {
            dst_port: h.dst_port ^ 1,
            ..h
        },
        _ => Header {
            proto: h.proto ^ 1,
            ..h
        },
    }
}

#[test]
fn churned_cache_matches_an_uncached_engine_over_the_live_rules() {
    const BASE: usize = 40;
    const STEPS: u32 = 320;
    let mut seed = 0;
    for inner in ["configurable-bst", "sharded:inner=(tss),shards=2"] {
        for flows in [8, 64, 8192] {
            seed += 1;
            let config = format!("{inner} flows={flows}");
            let pool = pool(seed);
            let trace = TraceGenerator::new()
                .seed(seed)
                .match_fraction(0.9)
                .generate(&pool.iter().copied().collect(), 96);
            // Priorities are kept distinct (base rules on multiples
            // of 1024, every insert off them by its own step), so no
            // verdict hangs on how a backend breaks a tie.
            let base: RuleSet = (0..)
                .zip(&pool[..BASE])
                .map(|(i, r)| Rule {
                    priority: Priority(i * 1024),
                    ..*r
                })
                .collect();
            let mut spare = pool[BASE..].to_vec();
            let mut m = Model {
                cached: CachedEngine::new(build_engine(inner, &base).unwrap(), flows, false, []),
                live: base.iter().map(|(id, r)| (id, *r)).collect(),
                lookups: 0,
            };
            let mut rng = StdRng::seed_from_u64(0xcac4e + seed);
            let mut peak_inserted = 0;
            m.assert_matches_uncached(&trace, &format!("{config} loaded"));

            for step in 0..STEPS {
                let what = format!("{config} step {step}");
                let priority = Priority(rng.gen_range(0..BASE as u32) * 1024 + 1 + step);
                match rng.gen_range(0..16) {
                    // The first rule to look at a source port, onto
                    // a warm cache.
                    _ if step == STEPS / 4 => {
                        let rule = Rule {
                            priority,
                            src_port: PortRange::exact(trace[0].src_port),
                            ..spare.pop().unwrap()
                        };
                        m.live.push((m.cached.insert(rule).unwrap(), rule));
                    }
                    0..=1 => {
                        // Random picks in trains of one to eight, some
                        // followed by a train of a near-duplicate.
                        let mut picks = Vec::new();
                        for _ in 0..12 {
                            let h = trace[rng.gen_range(0..trace.len())];
                            picks.extend(std::iter::repeat(h).take(rng.gen_range(1..=8)));
                            if rng.gen_bool(0.5) {
                                let twin = nudge(h, rng.gen_range(0..5));
                                picks.extend(std::iter::repeat(twin).take(rng.gen_range(1..=8)));
                            }
                        }
                        m.assert_matches_uncached(&picks, &what);
                    }
                    2 if !m.live.is_empty() => {
                        // A live rule's 5-tuple under another priority.
                        let (existing, rule) = m.live[rng.gen_range(0..m.live.len())];
                        let twin = Rule { priority, ..rule };
                        assert_eq!(
                            m.cached.insert(twin),
                            Err(UpdateError::Duplicate { existing }),
                            "{what}"
                        );
                    }
                    3 => {
                        let id = RuleId(u32::MAX - step);
                        assert_eq!(
                            m.cached.remove(id),
                            Err(UpdateError::UnknownRule { id }),
                            "{what}"
                        );
                    }
                    4..=6 if !m.live.is_empty() => {
                        let (id, rule) = m.live.remove(rng.gen_range(0..m.live.len()));
                        m.cached.remove(id).unwrap();
                        spare.push(rule);
                    }
                    _ if !spare.is_empty() => {
                        let at = rng.gen_range(0..spare.len());
                        let rule = Rule {
                            priority,
                            ..spare.swap_remove(at)
                        };
                        m.live.push((m.cached.insert(rule).unwrap(), rule));
                    }
                    _ => {}
                }
                assert_eq!(m.cached.rules(), m.live.len(), "{what}");
                // Ids are handed out in order and never reused, so the
                // base set holds the first `BASE` of them.
                let inserted = m.live.iter().filter(|(id, _)| id.0 >= BASE as u32);
                peak_inserted = peak_inserted.max(inserted.count());
                m.assert_matches_uncached(&trace, &what);
            }

            let stats = m.cached.cache_stats();
            println!("{config}: {stats:?}, {peak_inserted} inserted rules live at the peak");
            assert_eq!(stats.hits + stats.misses, m.lookups, "{config}");
            assert!(stats.invalidations > 0, "{config}: {stats:?}");
            assert_eq!(stats.evictions > 0, flows < trace.len(), "{config}");
            // `LOG_BOUND` in `src/cache.rs`: the log overflowed and
            // the cache lived through its sweep.
            assert!(peak_inserted > 64, "{config}: {peak_inserted}");
        }
    }
}
