//! The four workloads and the inputs a seed makes for them.
//!
//! A workload is a **fixed population** — a rule set, a header trace cut
//! into bursts, a pool of foreign rules — drawn once from
//! [`PROFILE_SEED`], plus a **seeded arrival order**: `--seed` permutes
//! the order in which the bursts arrive and the order in which the pool
//! is applied. What is measured is therefore the same multiset of
//! operations under every seed, so the modelled metrics repeat
//! bit-for-bit across seeds and a difference between two runs is noise
//! or a code change, never a luckier rule set. (Drawing the populations
//! themselves from `--seed` moved `acl` reads/lookup by 15 % and `fw`
//! reads/lookup by 60 % between seeds — far more than any bound — so a
//! regression gate on those numbers would have gated the seed.)
//!
//! Every expected verdict comes from the `linear` registry backend over
//! the rule set that is live at that point of the cycle.

use rand::prelude::*;
use spc_classbench::{FilterKind, PcapWriter, RuleSetGenerator, TraceGenerator};
use spc_engine::{build_engine, Verdict};
use spc_types::{Action, DimValue, Header, Priority, Rule, RuleId, RuleSet};
use std::collections::HashSet;

/// Result type of the benchmark's fallible steps.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Seed of every fixed population (the repository's evaluation seed).
pub const PROFILE_SEED: u64 = 2014;
const TRACE_SALT: u64 = 0x0074_7261_6365;
const POOL_SALT: u64 = 0x706f_6f6c;
const BURST_SALT: u64 = 0x0062_7572_7374;

/// How lookup slots reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Bursts are handed over as header slices.
    Headers,
    /// Bursts arrive as pcap bytes: each slot parses its chunk with
    /// `PcapReader::next_event` before classifying it.
    Pcap,
}

/// The sizes of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Candidate rules drawn (duplicates are dropped, so the set is a
    /// little smaller).
    pub rules: usize,
    /// Headers in the trace population.
    pub trace_len: usize,
    /// Headers per lookup slot.
    pub burst: usize,
    /// Foreign rules in the update pool (two update slots each).
    pub pool: usize,
    /// Headers of the trace the layer probes replay.
    pub probe: usize,
}

/// One workload: an engine spec and the population it is driven with.
#[derive(Debug, PartialEq)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Engine spec under test.
    pub spec: &'static str,
    /// Rule-set family.
    pub family: FilterKind,
    /// Probability that a header repeats the previous flow.
    pub locality: f64,
    /// How bursts reach the engine.
    pub feed: Feed,
    /// Reported scale.
    pub full: Shape,
    /// Test-only scale (`--quick`): never used for reported numbers.
    pub quick: Shape,
}

impl Workload {
    /// The shape at the chosen scale.
    pub fn shape(&self, quick: bool) -> &Shape {
        if quick {
            &self.quick
        } else {
            &self.full
        }
    }
}

const QUICK: Shape = Shape {
    rules: 256,
    trace_len: 256,
    burst: 16,
    pool: 8,
    probe: 64,
};

/// The benchmark's workloads.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "acl_lookup",
        why: "the paper's engine on its home family: field-engine lookups and the bare update path do \
              nearly all the work, wrappers none",
        spec: "configurable-bst",
        family: FilterKind::Acl,
        locality: 0.0,
        feed: Feed::Headers,
        full: Shape {
            rules: 4096,
            trace_len: 4096,
            burst: 32,
            pool: 64,
            probe: 512,
        },
        quick: QUICK,
    },
    Workload {
        name: "fw_lookup",
        why: "same layers used differently: wildcard-heavy labels make the priority-probe combine \
              dominate field lookups, so a combine fix shows here first",
        spec: "configurable-bst",
        family: FilterKind::Fw,
        locality: 0.0,
        feed: Feed::Headers,
        full: Shape {
            rules: 1024,
            trace_len: 512,
            burst: 4,
            pool: 64,
            probe: 48,
        },
        quick: Shape { burst: 4, ..QUICK },
    },
    Workload {
        name: "flows_hot",
        why: "steady-state all-hit flow cache fed as pcap bytes: the backend does almost nothing, so \
              per-packet overhead in Verdict, the trait, the cache or the parser shows at tens of ns",
        spec: "cached:inner=(configurable-bst),flows=8192",
        family: FilterKind::Acl,
        locality: 0.95,
        feed: Feed::Pcap,
        full: Shape {
            rules: 4096,
            trace_len: 65536,
            burst: 256,
            pool: 64,
            probe: 512,
        },
        quick: Shape {
            trace_len: 1024,
            burst: 64,
            ..QUICK
        },
    },
    Workload {
        name: "snapshot_churn",
        why: "writes beside reads on one backend: publish is a rebuild today, readers pay the version \
              probe, and the burst after a publish pays the refresh",
        spec: "snapshot:inner=(configurable-bst)",
        family: FilterKind::Acl,
        locality: 0.0,
        feed: Feed::Headers,
        full: Shape {
            rules: 4096,
            trace_len: 4096,
            burst: 32,
            pool: 64,
            probe: 512,
        },
        quick: QUICK,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Stand-in id of "the rule this update slot inserted": the engine under
/// test assigns the real id when the rule goes in.
const INSERTED: RuleId = RuleId(u32::MAX);

/// What `linear` says a header's verdict is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    rule: Option<RuleId>,
    priority: Option<Priority>,
    action: Option<Action>,
}

impl Expect {
    /// Whether `got` names the same rule id, priority and action;
    /// `inserted` is the id the engine under test gave the slot's rule.
    pub fn agrees(&self, got: &Verdict, inserted: Option<RuleId>) -> bool {
        let rule = if self.rule == Some(INSERTED) {
            inserted
        } else {
            self.rule
        };
        got.rule == rule && got.priority == self.priority && got.action == self.action
    }
}

/// One lookup slot: a burst and its expected verdicts on the base set.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupSlot {
    /// The burst.
    pub headers: Vec<Header>,
    /// One expectation per header.
    pub expect: Vec<Expect>,
}

/// One pool rule: it fills two update slots (insert, remove) with a
/// verified burst in between.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSlot {
    /// The foreign rule.
    pub rule: Rule,
    /// The burst classified while the rule is live: half sampled to
    /// match the rule, half ordinary traffic.
    pub burst: LookupSlot,
}

/// Everything one run feeds the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The base rule set.
    pub rules: RuleSet,
    /// Lookup slots in arrival order.
    pub lookups: Vec<LookupSlot>,
    /// The same bursts as one pcap capture, for [`Feed::Pcap`].
    pub pcap: Vec<u8>,
    /// Pool rules in application order.
    pub updates: Vec<UpdateSlot>,
}

fn oracle(rules: &RuleSet, headers: &[Header], foreign: Option<RuleId>) -> Res<Vec<Expect>> {
    let mut linear = build_engine("linear", rules)?;
    let mut verdicts = Vec::new();
    linear.classify_batch(headers, &mut verdicts);
    Ok(verdicts
        .iter()
        .map(|v| Expect {
            rule: if v.rule.is_some() && v.rule == foreign {
                Some(INSERTED)
            } else {
                v.rule
            },
            priority: v.priority,
            action: v.action,
        })
        .collect())
}

fn pool(w: &Workload, shape: &Shape, rules: &RuleSet) -> Res<Vec<Rule>> {
    let mut seen: HashSet<[DimValue; 7]> = rules.rules().iter().map(Rule::dim_values).collect();
    let candidates = RuleSetGenerator::new(w.family, (shape.pool * 8).max(256))
        .seed(PROFILE_SEED ^ POOL_SALT)
        .generate();
    let pool: Vec<Rule> = candidates
        .rules()
        .iter()
        .filter(|r| seen.insert(r.dim_values()))
        .take(shape.pool)
        .copied()
        .collect();
    if pool.len() < shape.pool {
        return Err(format!(
            "{}: only {} of {} foreign rules could be drawn",
            w.name,
            pool.len(),
            shape.pool
        )
        .into());
    }
    Ok(pool)
}

/// The header trace a workload's population is cut from.
pub fn trace_generator(w: &Workload) -> TraceGenerator {
    TraceGenerator::new()
        .seed(PROFILE_SEED ^ TRACE_SALT)
        .match_fraction(0.9)
        .locality(w.locality)
}

/// The base rule set of a workload.
pub fn rule_set(w: &Workload, shape: &Shape) -> RuleSet {
    RuleSetGenerator::new(w.family, shape.rules)
        .seed(PROFILE_SEED)
        .generate()
}

/// Encodes headers as one classic pcap capture.
pub fn pcap_bytes<'a>(headers: impl IntoIterator<Item = &'a Header>) -> Res<Vec<u8>> {
    let mut w = PcapWriter::new(Vec::new())?;
    for h in headers {
        w.write_header(h)?;
    }
    Ok(w.finish()?)
}

impl Inputs {
    /// Makes the inputs of `w` for `seed`: the fixed populations in the
    /// seed's arrival order, each with its `linear` verdicts.
    ///
    /// # Errors
    ///
    /// When the oracle cannot be built or the pool cannot be filled —
    /// both would be defects of the benchmark, not of the program.
    pub fn generate(w: &Workload, quick: bool, seed: u64) -> Res<Inputs> {
        let shape = w.shape(quick);
        let rules = rule_set(w, shape);
        let trace = trace_generator(w).generate(&rules, shape.trace_len);
        let expect = oracle(&rules, &trace, None)?;
        let mut lookups: Vec<LookupSlot> = trace
            .chunks(shape.burst)
            .zip(expect.chunks(shape.burst))
            .map(|(h, e)| LookupSlot {
                headers: h.to_vec(),
                expect: e.to_vec(),
            })
            .collect();

        let mut updates = Vec::with_capacity(shape.pool);
        for (i, rule) in pool(w, shape, &rules)?.into_iter().enumerate() {
            let matching = (shape.burst / 2).max(1);
            let mut headers = TraceGenerator::new()
                .seed(PROFILE_SEED ^ BURST_SALT ^ i as u64)
                .match_fraction(1.0)
                .generate(&RuleSet::from_rules(vec![rule]), matching);
            headers.extend(
                trace
                    .iter()
                    .cycle()
                    .skip(i * shape.burst)
                    .take(shape.burst - matching.min(shape.burst)),
            );
            let mut live = rules.clone();
            let foreign = live.push(rule);
            let expect = oracle(&live, &headers, Some(foreign))?;
            updates.push(UpdateSlot {
                rule,
                burst: LookupSlot { headers, expect },
            });
        }

        let mut order = StdRng::seed_from_u64(seed);
        lookups.shuffle(&mut order);
        updates.shuffle(&mut order);
        let pcap = match w.feed {
            Feed::Pcap => pcap_bytes(lookups.iter().flat_map(|s| &s.headers))?,
            Feed::Headers => Vec::new(),
        };
        Ok(Inputs {
            rules,
            lookups,
            pcap,
            updates,
        })
    }

    /// Headers in one lookup cycle.
    pub fn headers_per_cycle(&self) -> usize {
        self.lookups.iter().map(|s| s.headers.len()).sum()
    }

    /// The first `n` headers of the cycle with their expectations — what
    /// the layer probes replay.
    pub fn probe_trace(&self, n: usize) -> LookupSlot {
        let mut probe = LookupSlot {
            headers: Vec::with_capacity(n),
            expect: Vec::with_capacity(n),
        };
        for slot in &self.lookups {
            let take = (n - probe.headers.len()).min(slot.headers.len());
            probe.headers.extend_from_slice(&slot.headers[..take]);
            probe.expect.extend_from_slice(&slot.expect[..take]);
        }
        probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{percentile_index, samples_beyond};

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        for w in &WORKLOADS {
            let a = Inputs::generate(w, true, 7).unwrap();
            let b = Inputs::generate(w, true, 7).unwrap();
            let c = Inputs::generate(w, true, 8).unwrap();
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a.lookups, c.lookups, "{}", w.name);
            assert_ne!(a.updates, c.updates, "{}", w.name);
            assert_eq!(a.pcap == c.pcap, w.feed == Feed::Headers, "{}", w.name);
            // Another seed is another order of the same population.
            assert_eq!(a.rules, c.rules);
            let key = |s: &LookupSlot| format!("{:?}", s.headers);
            let (mut x, mut y): (Vec<_>, Vec<_>) = (
                a.lookups.iter().map(key).collect(),
                c.lookups.iter().map(key).collect(),
            );
            x.sort();
            y.sort();
            assert_eq!(x, y, "{}", w.name);
        }
    }

    #[test]
    fn full_shapes_leave_ten_samples_beyond_p90() {
        for w in &WORKLOADS {
            let s = &w.full;
            assert_eq!(s.trace_len % s.burst, 0, "{}", w.name);
            for slots in [s.trace_len / s.burst, 2 * s.pool] {
                assert!(slots >= 128, "{}: {slots} slots", w.name);
                let idx = percentile_index(slots, 90);
                assert!(samples_beyond(slots, idx) >= 10, "{}", w.name);
            }
        }
    }

    #[test]
    fn update_bursts_see_the_inserted_rule() {
        let w = workload("acl_lookup").unwrap();
        let inputs = Inputs::generate(w, true, 1).unwrap();
        assert_eq!(inputs.updates.len(), w.quick.pool);
        let wins = inputs
            .updates
            .iter()
            .flat_map(|u| &u.burst.expect)
            .filter(|e| e.rule == Some(INSERTED))
            .count();
        assert!(wins > 0, "no burst header is won by its inserted rule");
        for u in &inputs.updates {
            assert_eq!(u.burst.headers.len(), w.quick.burst);
            assert_eq!(u.burst.expect.len(), w.quick.burst);
        }
    }
}
