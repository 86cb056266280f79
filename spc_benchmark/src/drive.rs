//! Driving a workload: one thread, closed loop (one client; the next
//! burst is issued when the previous one returns), public APIs only.
//!
//! A run is: build, a cold cycle, a warm cycle (the *counted* one, which
//! supplies the modelled metrics), then [`ROUNDS`] rounds spread over
//! the measuring time — each round times a fresh build that replaces
//! the engine under test, replays the lookup cycle, times a second
//! build, replays the update cycle and times a third, so the 19 builds
//! of a run sit at 19 different moments of it — and a closing lookup
//! cycle that holds the engine to its
//! base-set verdicts after all the net-zero churn. Every replay is timed and every verdict of every
//! replay is checked against `linear`.

use crate::estimator::Floors;
use crate::host;
use crate::inputs::{Feed, Inputs, LookupSlot, Res, Workload};
use crate::metrics::Values;
use crate::spans::Tracer;
use spc_classbench::{PcapReader, TraceEvent, TraceSource};
use spc_engine::{
    BatchWorker, EngineBuilder, EngineKind, LookupStats, PacketClassifier, SnapshotEngine,
    SnapshotReader, Verdict,
};
use spc_types::{RuleId, RuleSet};
use std::time::{Duration, Instant};

/// Rounds the measuring time is cut into; every slot is replayed at
/// least once in each.
pub const ROUNDS: u32 = 6;
/// Share of a round spent replaying lookup cycles (the rest replays
/// update cycles, after the builds).
const LOOKUP_SHARE: f64 = 0.65;

/// The engine under test, as the workload serves it.
// One value is alive at a time, so the size gap between the variants
// costs nothing worth a second allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Served {
    /// Lookups and updates go to the same boxed engine.
    Bare(Box<dyn PacketClassifier>),
    /// Updates go to the snapshot writer, lookups through a reader.
    Snapshot {
        /// The writer: `insert`/`remove` publish the next snapshot.
        writer: SnapshotEngine,
        /// The reader bursts are classified through.
        reader: SnapshotReader,
    },
}

impl Served {
    /// Builds `builder`'s engine over `rules` — the call `setup_s` times.
    ///
    /// # Errors
    ///
    /// As `EngineBuilder::build` / `build_snapshot`.
    pub fn build(builder: &EngineBuilder, rules: &RuleSet) -> Res<Served> {
        Ok(if builder.kind() == EngineKind::Snapshot {
            let writer = builder.build_snapshot(rules)?;
            let reader = writer.reader();
            Served::Snapshot { writer, reader }
        } else {
            Served::Bare(builder.build(rules)?)
        })
    }

    /// The lookup side.
    pub fn worker(&mut self) -> &mut dyn BatchWorker {
        match self {
            Served::Bare(engine) => engine,
            Served::Snapshot { reader, .. } => reader,
        }
    }

    /// The update side.
    pub fn engine(&mut self) -> &mut dyn PacketClassifier {
        match self {
            Served::Bare(engine) => engine.as_mut(),
            Served::Snapshot { writer, .. } => writer,
        }
    }
}

/// Operations attempted and failed. A lookup whose rule id, priority or
/// action differs from `linear` over the live rule set is a failed
/// operation, and so is a scripted insert or remove that returns `Err`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    /// Holds one burst's verdicts to the oracle. A burst that came back
    /// with the wrong number of verdicts fails whole.
    pub fn check_burst(&mut self, slot: &LookupSlot, got: &[Verdict], inserted: Option<RuleId>) {
        let n = slot.headers.len() as u64;
        self.attempted += n;
        self.failed += if got.len() == slot.headers.len() {
            slot.expect
                .iter()
                .zip(got)
                .filter(|(want, got)| !want.agrees(got, inserted))
                .count() as u64
        } else {
            n
        };
    }
}

/// What every replay writes to besides its floors: the tally, the spans
/// and the verdict buffer bursts are classified into.
#[derive(Debug)]
pub struct Recorder {
    /// Operations attempted / failed.
    pub tally: Tally,
    /// Span recorder (off outside traced cycles).
    pub tracer: Tracer,
    verdicts: Vec<Verdict>,
}

impl Recorder {
    /// A recorder with room for `span_capacity` spans.
    pub fn new(span_capacity: usize) -> Self {
        Recorder {
            tally: Tally::default(),
            tracer: Tracer::new(span_capacity),
            verdicts: Vec::new(),
        }
    }
}

/// Wall-clock totals of the lookup phases, for `noise.wall_ratio`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wall {
    ns: u64,
    headers: u64,
}

/// Replays the lookup cycle once through `worker`, recording each
/// slot's time in `floors` and each verdict's agreement in `tally`.
pub fn lookup_cycle(
    worker: &mut dyn BatchWorker,
    feed: Feed,
    inputs: &Inputs,
    floors: &mut Floors,
    rec: &mut Recorder,
) -> LookupStats {
    let Recorder {
        tally,
        tracer,
        verdicts,
    } = rec;
    let chunk = inputs.lookups.first().map_or(1, |s| s.headers.len());
    // The capture is copied outside any timed slot: the reader owns its
    // bytes, and a cycle starts from a fresh reader.
    let mut reader = match feed {
        Feed::Pcap => PcapReader::from_bytes(inputs.pcap.clone())
            .ok()
            .map(|r| r.with_chunk(chunk)),
        Feed::Headers => None,
    };
    let cycle = tracer.open("lookup_cycle", None);
    let mut total = LookupStats::default();
    for (i, slot) in inputs.lookups.iter().enumerate() {
        let burst = tracer.open("burst", cycle);
        let start = Instant::now();
        let parsed = match feed {
            Feed::Headers => None,
            Feed::Pcap => {
                let span = tracer.open("pcap.next_event", burst);
                let event = reader.as_mut().map(TraceSource::next_event);
                tracer.close(span);
                match event {
                    Some(Ok(Some(TraceEvent::Headers(h)))) => Some(h),
                    // A reader that fails or runs dry hands over
                    // nothing, and the burst fails whole below.
                    _ => Some(Vec::new()),
                }
            }
        };
        let headers = parsed.as_deref().unwrap_or(&slot.headers);
        let span = tracer.open("process", burst);
        let stats = worker.process(headers, verdicts);
        tracer.close(span);
        let ns = start.elapsed().as_nanos() as u64;
        tracer.close(burst);
        floors.record(i, ns);
        // A capture that parsed to other headers than were written
        // fails the burst whatever the verdicts say.
        if parsed.is_some_and(|p| p != slot.headers) {
            verdicts.clear();
        }
        tally.check_burst(slot, verdicts, None);
        total = total + stats;
    }
    tracer.close(cycle);
    total
}

/// Replays the update cycle once: per pool rule a timed `insert`, a
/// separately timed and verified burst while the rule is live, and a
/// timed `remove`, so the churn is net-zero. Returns the summed
/// `UpdateReport::hw_write_cycles`.
pub fn update_cycle(
    served: &mut Served,
    inputs: &Inputs,
    floors: &mut Floors,
    live_bursts: &mut Floors,
    rec: &mut Recorder,
) -> u64 {
    let cycle = rec.tracer.open("update_cycle", None);
    let mut timed = |rec: &mut Recorder, name, slot, op: &mut dyn FnMut() -> bool| {
        let span = rec.tracer.open(name, cycle);
        let start = Instant::now();
        let ok = op();
        floors.record(slot, start.elapsed().as_nanos() as u64);
        rec.tracer.close(span);
        rec.tally.attempted += 1;
        rec.tally.failed += u64::from(!ok);
        ok
    };
    let hw_cycles = |served: &mut Served| {
        served
            .engine()
            .last_update_report()
            .map_or(0, |r| r.hw_write_cycles)
    };
    let mut total = 0u64;
    for (i, update) in inputs.updates.iter().enumerate() {
        let mut id = None;
        let inserted = timed(rec, "insert", 2 * i, &mut || {
            id = served.engine().insert(update.rule).ok();
            id.is_some()
        });
        let Some(id) = id.filter(|_| inserted) else {
            continue;
        };
        total += hw_cycles(served);

        let span = rec.tracer.open("live_burst", cycle);
        let start = Instant::now();
        served
            .worker()
            .process(&update.burst.headers, &mut rec.verdicts);
        live_bursts.record(i, start.elapsed().as_nanos() as u64);
        rec.tracer.close(span);
        rec.tally
            .check_burst(&update.burst, &rec.verdicts, Some(id));

        if timed(rec, "remove", 2 * i + 1, &mut || {
            served.engine().remove(id).is_ok()
        }) {
            total += hw_cycles(served);
        }
    }
    rec.tracer.close(cycle);
    total
}

/// One workload being driven: the floors, tallies and spans of a run.
#[derive(Debug)]
pub struct Harness<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Its inputs for this run's seed.
    pub inputs: &'a Inputs,
    builder: EngineBuilder,
    /// Lookup-slot floors of the untraced cycles.
    pub lookup: Floors,
    /// Lookup-slot floors of the traced cycles.
    pub traced_lookup: Floors,
    /// Update-slot floors (insert at `2i`, remove at `2i + 1`).
    pub update: Floors,
    /// Floors of the bursts classified while a pool rule is live.
    pub live_bursts: Floors,
    /// Every build's time.
    pub builds_ns: Vec<u64>,
    /// Tally, spans and verdict buffer.
    pub rec: Recorder,
    wall: Wall,
}

impl<'a> Harness<'a> {
    /// A harness for `w` over `inputs`.
    ///
    /// # Errors
    ///
    /// When the workload's spec does not parse.
    pub fn new(w: &'a Workload, inputs: &'a Inputs, span_capacity: usize) -> Res<Self> {
        Ok(Harness {
            w,
            inputs,
            builder: EngineBuilder::from_spec(w.spec)?,
            lookup: Floors::new(inputs.lookups.len()),
            traced_lookup: Floors::new(inputs.lookups.len()),
            update: Floors::new(2 * inputs.updates.len()),
            live_bursts: Floors::new(inputs.updates.len()),
            builds_ns: Vec::new(),
            rec: Recorder::new(span_capacity),
            wall: Wall::default(),
        })
    }

    /// One timed build of the engine under test (with a `build` span
    /// when `traced`).
    ///
    /// # Errors
    ///
    /// When the engine cannot be built over the base rule set.
    pub fn build(&mut self, traced: bool) -> Res<Served> {
        self.rec.tracer.set_on(traced);
        let span = self.rec.tracer.open("build", None);
        let start = Instant::now();
        let served = Served::build(&self.builder, &self.inputs.rules)?;
        self.builds_ns.push(start.elapsed().as_nanos() as u64);
        self.rec.tracer.close(span);
        self.rec.tracer.set_on(false);
        Ok(served)
    }

    /// One replay of the lookup cycle; `traced` selects the floors it
    /// lands in and whether spans are recorded.
    pub fn lookups(&mut self, served: &mut Served, traced: bool) -> LookupStats {
        self.rec.tracer.set_on(traced);
        let start = Instant::now();
        let floors = if traced {
            &mut self.traced_lookup
        } else {
            &mut self.lookup
        };
        let stats = lookup_cycle(
            served.worker(),
            self.w.feed,
            self.inputs,
            floors,
            &mut self.rec,
        );
        self.rec.tracer.set_on(false);
        if !traced {
            self.wall.ns += start.elapsed().as_nanos() as u64;
            self.wall.headers += self.inputs.headers_per_cycle() as u64;
        }
        stats
    }

    /// One replay of the update cycle; returns its summed hardware
    /// write cycles.
    pub fn updates(&mut self, served: &mut Served, traced: bool) -> u64 {
        self.rec.tracer.set_on(traced);
        let cycles = update_cycle(
            served,
            self.inputs,
            &mut self.update,
            &mut self.live_bursts,
            &mut self.rec,
        );
        self.rec.tracer.set_on(false);
        cycles
    }

    /// Headers per second with every slot of `floors` at its floor.
    pub fn floor_lookups_per_s(&self, floors: &Floors) -> f64 {
        self.inputs.headers_per_cycle() as f64 * 1e9 / floors.total_ns() as f64
    }

    /// Wall-clock ÷ floor lookup throughput of the untraced cycles: 1
    /// on a perfectly quiet host, lower the more the run was disturbed.
    pub fn wall_ratio(&self) -> f64 {
        let wall = self.wall.headers as f64 * 1e9 / self.wall.ns as f64;
        wall / self.floor_lookups_per_s(&self.lookup)
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics the run reports.
    pub values: Values,
    /// Operations attempted / failed.
    pub tally: Tally,
    /// Fewest replays of any lookup slot and of any update slot.
    pub replays: (u32, u32),
    /// Lookup and update slot counts.
    pub slots: (usize, usize),
}

/// The modelled metrics of the counted cycle.
struct Counted {
    kbits: f64,
    reads_per_lookup: f64,
    cycles_per_update: f64,
}

/// Cold cycle, then the counted warm cycle. Both lookup cycles run
/// before the first update cycle, so the counted lookups see the state a
/// steady stream leaves behind (for `flows_hot`: a filled cache), not
/// the invalidations of the cold churn.
fn warm_up(h: &mut Harness, served: &mut Served) -> Counted {
    let kbits = served.engine().memory_bits() as f64 / 1000.0;
    h.lookups(served, false);
    let stats = h.lookups(served, false);
    h.updates(served, false);
    let cycles = h.updates(served, false);
    Counted {
        kbits,
        reads_per_lookup: stats.avg_mem_reads(),
        cycles_per_update: cycles as f64 / h.update.slots() as f64,
    }
}

/// The untraced run: measures for about `seconds` in [`ROUNDS`] rounds
/// (one at the `quick` test scale) and returns the ten end-to-end
/// metrics (plus the noise gauges, which only the table shows).
///
/// # Errors
///
/// When the inputs cannot be made or the engine cannot be built.
pub fn run(w: &Workload, quick: bool, seed: u64, seconds: f64) -> Res<Outcome> {
    let wait_before = host::sched_wait_ns();
    let inputs = Inputs::generate(w, quick, seed)?;
    let rounds = if quick { 1 } else { ROUNDS };
    let clock = Instant::now();
    let mut h = Harness::new(w, &inputs, 0)?;
    let mut served = h.build(false)?;
    let counted = warm_up(&mut h, &mut served);

    // Whatever the warm-up left of the measuring time is cut into
    // rounds, less one lookup cycle for the closing check.
    let closing = Duration::from_nanos(h.lookup.total_ns());
    let left = Duration::from_secs_f64(seconds).saturating_sub(clock.elapsed() + closing);
    let round_time = left / rounds;
    for _ in 0..rounds {
        let round = Instant::now();
        served = h.build(false)?;
        loop {
            h.lookups(&mut served, false);
            if round.elapsed() >= round_time.mul_f64(LOOKUP_SHARE) {
                break;
            }
        }
        h.build(false)?;
        loop {
            h.updates(&mut served, false);
            if round.elapsed() >= round_time {
                break;
            }
        }
        h.build(false)?;
    }
    h.lookups(&mut served, false);

    let us = |ns: u64| ns as f64 / 1e3;
    let fastest_build = h.builds_ns.iter().copied().min().unwrap_or(0);
    let mut values = Values::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    put("setup_s", fastest_build as f64 / 1e9);
    put("lookups_per_s", h.floor_lookups_per_s(&h.lookup));
    put("burst_p50_us", us(h.lookup.percentile_ns(50)));
    put("burst_p90_us", us(h.lookup.percentile_ns(90)));
    put(
        "updates_per_s",
        h.update.slots() as f64 * 1e9 / h.update.total_ns() as f64,
    );
    put("update_p50_us", us(h.update.percentile_ns(50)));
    put("update_p90_us", us(h.update.percentile_ns(90)));
    put("model_reads_per_lookup", counted.reads_per_lookup);
    put("model_kbits", counted.kbits);
    put("model_cycles_per_update", counted.cycles_per_update);
    put("noise.wall_ratio", h.wall_ratio());
    put(
        "noise.sched_wait_ms",
        host::sched_wait_ns().saturating_sub(wait_before) as f64 / 1e6,
    );
    put("host.rss_mb", host::peak_rss_mb());
    Ok(Outcome {
        values,
        tally: h.rec.tally,
        replays: (h.lookup.min_replays(), h.update.min_replays()),
        slots: (h.lookup.slots(), h.update.slots()),
    })
}

/// The front half of the traced run: warm-up, one traced build, then
/// rounds of an untraced and a traced lookup cycle (their floors give
/// `trace.overhead_share`; which of the two goes first alternates, so
/// neither always inherits the cache the churn left behind) and a traced
/// update cycle, until `seconds` are used and at least two rounds (one
/// at the `quick` test scale) are done. The harness comes back holding
/// its spans.
///
/// # Errors
///
/// When the engine cannot be built.
pub fn run_traced<'a>(
    w: &'a Workload,
    inputs: &'a Inputs,
    seconds: f64,
    quick: bool,
) -> Res<Harness<'a>> {
    let clock = Instant::now();
    let min_rounds = if quick { 1 } else { 2 };
    // Spans per round: both cycle roots, a burst with two children per
    // lookup slot, three spans per pool rule.
    let per_round = 2 + 3 * inputs.lookups.len() + 3 * inputs.updates.len();
    let mut h = Harness::new(w, inputs, per_round * 64)?;
    let mut served = h.build(false)?;
    warm_up(&mut h, &mut served);
    served = h.build(true)?;
    h.lookups(&mut served, false);
    let mut rounds = 0;
    while rounds < min_rounds || clock.elapsed().as_secs_f64() < seconds {
        let traced_first = rounds % 2 == 1;
        h.lookups(&mut served, traced_first);
        h.lookups(&mut served, !traced_first);
        h.updates(&mut served, true);
        rounds += 1;
    }
    h.lookups(&mut served, false);
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{workload, WORKLOADS};
    use crate::metrics::end_to_end;
    use spc_types::Header;

    /// A worker that answers every header with a miss.
    struct AlwaysMiss;
    impl BatchWorker for AlwaysMiss {
        fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
            out.clear();
            out.extend(headers.iter().map(|_| Verdict::miss(0)));
            LookupStats::default()
        }
    }

    /// A worker that returns one verdict too few.
    struct DropsOne;
    impl BatchWorker for DropsOne {
        fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
            out.clear();
            out.extend(headers.iter().skip(1).map(|_| Verdict::miss(0)));
            LookupStats::default()
        }
    }

    #[test]
    fn a_wrong_worker_is_failed_operations_not_a_panic() {
        let w = workload("acl_lookup").unwrap();
        let inputs = Inputs::generate(w, true, 1).unwrap();
        let headers = inputs.headers_per_cycle() as u64;
        let run = |worker: &mut dyn BatchWorker| {
            let mut rec = Recorder::new(0);
            let mut floors = Floors::new(inputs.lookups.len());
            lookup_cycle(worker, w.feed, &inputs, &mut floors, &mut rec);
            rec.tally
        };
        // 90 % of the trace matches a rule, so a worker that never
        // matches is wrong on most headers (and right on the misses).
        let missed = run(&mut AlwaysMiss);
        assert_eq!(missed.attempted, headers);
        assert!(missed.failed > headers / 2 && missed.failed < headers);
        // A short burst fails whole.
        let short = run(&mut DropsOne);
        assert_eq!((short.attempted, short.failed), (headers, headers));
    }

    #[test]
    fn quick_runs_are_correct_and_modelled_metrics_repeat() {
        for w in &WORKLOADS {
            let a = run(w, true, 5, 0.0).unwrap();
            let b = run(w, true, 5, 0.0).unwrap();
            let c = run(w, true, 6, 0.0).unwrap();
            for o in [&a, &b, &c] {
                assert!(o.tally.attempted > 0, "{}", w.name);
                assert_eq!(o.tally.failed, 0, "{}", w.name);
                assert!(
                    o.replays.0 >= 4 && o.replays.1 >= 3,
                    "{}: {:?}",
                    w.name,
                    o.replays
                );
                for m in end_to_end() {
                    let v = o.values[&m.name];
                    assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
                }
            }
            // Bit-for-bit: same seed, and — because a seed only orders a
            // fixed population — every other seed too.
            for name in [
                "model_reads_per_lookup",
                "model_kbits",
                "model_cycles_per_update",
            ] {
                let bits = |o: &Outcome| o.values[name].to_bits();
                assert_eq!(bits(&a), bits(&b), "{} {name}", w.name);
                assert_eq!(bits(&a), bits(&c), "{} {name}", w.name);
            }
        }
    }

    #[test]
    fn traced_cycles_leave_nested_spans() {
        let w = workload("flows_hot").unwrap();
        let inputs = Inputs::generate(w, true, 2).unwrap();
        let h = run_traced(w, &inputs, 0.0, true).unwrap();
        assert_eq!(h.rec.tally.failed, 0);
        let totals = h.rec.tracer.totals();
        let slots = inputs.lookups.len() as u64;
        assert_eq!(totals["burst"].count, slots);
        assert_eq!(totals["pcap.next_event"].count, slots);
        assert_eq!(totals["process"].count, slots);
        assert_eq!(totals["insert"].count, inputs.updates.len() as u64);
        assert_eq!(totals["build"].count, 1);
        // A burst's self time is what its two children do not cover.
        let burst = totals["burst"];
        assert_eq!(
            burst.self_ns,
            burst.total_ns - totals["pcap.next_event"].total_ns - totals["process"].total_ns
        );
        assert_eq!(h.traced_lookup.min_replays(), 1);
    }
}
