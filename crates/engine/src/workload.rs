//! Driving engines from streaming workloads ([`TraceSource`]).
//!
//! `spc-classbench` defines *what* a workload is — a stream of header
//! chunks, optionally interleaved with rule insert/remove events. This
//! module defines how engines consume one:
//!
//! * [`IngestPipeline::feed_from`] / [`IngestPipeline::run_source`] —
//!   classify-only streams (synthetic, pcap replay) through the
//!   bounded-queue worker pool, chunk by chunk, so a lazy or
//!   file-backed source never has to materialise and the pool's
//!   backpressure reaches all the way back to the source;
//! * [`run_scenario`] — mixed classify/update scenarios (e.g. a
//!   [`spc_classbench::ScenarioScript`]) against a single engine,
//!   owning the insert-index → [`RuleId`] mapping and folding the §V.A
//!   update cost accounting into a [`ScenarioReport`].
//!
//! # Example
//!
//! ```
//! use spc_classbench::{FilterKind, RuleSetGenerator, ScenarioScript, TraceGenerator};
//! use spc_engine::{build_engine, run_scenario};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = RuleSetGenerator::new(FilterKind::Acl, 200).seed(1).generate();
//! let pool = RuleSetGenerator::new(FilterKind::Fw, 32).seed(2).generate();
//! let mut engine = build_engine("configurable-bst", &base)?;
//!
//! let script = ScenarioScript::parse("repeat 3 { insert 8; classify 200; remove 4 }")?;
//! let mut source = script.source(&TraceGenerator::new().seed(7), &base, pool.rules())?;
//! let mut verdicts = Vec::new();
//! let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts)?;
//! assert_eq!(report.lookup.packets, 600);
//! assert_eq!(report.inserts + report.duplicates, 24);
//! assert_eq!(report.live_inserts.len() as u64, report.inserts - report.removes);
//! # Ok(())
//! # }
//! ```

use crate::pipeline::IngestPipeline;
use crate::{LookupStats, PacketClassifier, UpdateError, Verdict};
use spc_classbench::{TraceError, TraceEvent, TraceSource};
use spc_types::{Rule, RuleId};
use std::fmt;

/// Error from driving an engine with a [`TraceSource`].
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The source itself failed (malformed pcap, update event on a
    /// classify-only path).
    Source(TraceError),
    /// The engine rejected an update event (capacity, unsupported
    /// backend, unknown rule). Duplicates are *not* errors — the runner
    /// records and skips them.
    Update(UpdateError),
    /// The source emitted a [`TraceEvent::Remove`] whose insert index it
    /// never emitted — a broken source, not a broken engine.
    BadRemove {
        /// The offending insert index.
        insert: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Source(e) => write!(f, "workload source failed: {e}"),
            WorkloadError::Update(e) => write!(f, "workload update rejected: {e}"),
            WorkloadError::BadRemove { insert } => write!(
                f,
                "workload source removed insert #{insert}, which it never emitted"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Source(e) => Some(e),
            WorkloadError::Update(e) => Some(e),
            WorkloadError::BadRemove { .. } => None,
        }
    }
}

impl From<TraceError> for WorkloadError {
    fn from(e: TraceError) -> Self {
        WorkloadError::Source(e)
    }
}

/// What a [`run_scenario`] pass did, with the paper's §V.A update cost
/// accounting folded in.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Aggregate lookup accounting over every classify chunk.
    pub lookup: LookupStats,
    /// Rules successfully installed.
    pub inserts: u64,
    /// Insert events skipped because the engine reported the rule as an
    /// exact duplicate of a live one.
    pub duplicates: u64,
    /// Rules successfully removed again.
    pub removes: u64,
    /// Remove events skipped because their insert was itself skipped as
    /// a duplicate (or already removed).
    pub skipped_removes: u64,
    /// Hardware write cycles across all successful inserts (§V.A).
    pub insert_cycles: u64,
    /// Hardware write cycles across all successful removes (§V.A).
    pub remove_cycles: u64,
    /// Labels newly created by inserts (zero on engines that do not
    /// report updates).
    pub created_labels: u64,
    /// Labels freed by removes.
    pub freed_labels: u64,
    /// The surviving installs in insertion order: the engine-assigned id
    /// and the rule — exactly what a differential oracle needs to
    /// rebuild the post-churn rule set.
    pub live_inserts: Vec<(RuleId, Rule)>,
}

impl ScenarioReport {
    /// Successful update operations (inserts + removes).
    pub fn update_ops(&self) -> u64 {
        self.inserts + self.removes
    }

    /// Hardware write cycles across all successful updates.
    pub fn update_cycles(&self) -> u64 {
        self.insert_cycles + self.remove_cycles
    }
}

/// Drives one engine through a mixed classify/update workload,
/// sequentially and in stream order: header chunks go through
/// [`PacketClassifier::classify_batch`] (verdicts appended to
/// `verdicts`), insert events through [`PacketClassifier::insert`] with
/// the engine-assigned [`RuleId`]s recorded, and remove events resolve
/// the source's insert index through that record. Duplicate inserts —
/// and removes of inserts that were skipped as duplicates — are counted
/// and skipped, so churn pools may overlap the installed rules.
///
/// # Errors
///
/// [`WorkloadError::Source`] when the source fails,
/// [`WorkloadError::Update`] when the engine rejects an update for any
/// reason but duplication (including [`UpdateError::Unsupported`] from a
/// build-once backend), and [`WorkloadError::BadRemove`] for a remove of
/// an insert the source never emitted.
pub fn run_scenario(
    engine: &mut dyn PacketClassifier,
    source: &mut dyn TraceSource,
    verdicts: &mut Vec<Verdict>,
) -> Result<ScenarioReport, WorkloadError> {
    let mut report = ScenarioReport::default();
    // Engine-assigned ids by the source's insert-event index; `None`
    // marks duplicates and already-removed entries.
    let mut installed: Vec<Option<(RuleId, Rule)>> = Vec::new();
    let mut chunk_verdicts = Vec::new();
    while let Some(event) = source.next_event()? {
        match event {
            TraceEvent::Headers(headers) => {
                let stats = engine.classify_batch(&headers, &mut chunk_verdicts);
                report.lookup = report.lookup + stats;
                verdicts.extend_from_slice(&chunk_verdicts);
            }
            TraceEvent::Insert(rule) => match engine.insert(rule) {
                Ok(id) => {
                    report.inserts += 1;
                    if let Some(update) = engine.last_update_report() {
                        report.insert_cycles += update.hw_write_cycles;
                        report.created_labels += u64::from(update.created_labels);
                    }
                    installed.push(Some((id, rule)));
                }
                Err(UpdateError::Duplicate { .. }) => {
                    report.duplicates += 1;
                    installed.push(None);
                }
                Err(e) => return Err(WorkloadError::Update(e)),
            },
            TraceEvent::Remove { insert } => {
                let slot = installed
                    .get_mut(insert)
                    .ok_or(WorkloadError::BadRemove { insert })?;
                match slot.take() {
                    Some((id, _)) => {
                        engine.remove(id).map_err(WorkloadError::Update)?;
                        report.removes += 1;
                        if let Some(update) = engine.last_update_report() {
                            report.remove_cycles += update.hw_write_cycles;
                            report.freed_labels += u64::from(update.freed_labels);
                        }
                    }
                    None => report.skipped_removes += 1,
                }
            }
        }
    }
    report.live_inserts = installed.into_iter().flatten().collect();
    Ok(report)
}

impl IngestPipeline {
    /// Feeds every header chunk of a classify-only source into the
    /// pool's bounded queue, returning how many headers were fed. Chunks
    /// are re-cut to the pipeline's configured chunk size, and each
    /// source chunk is enqueued before the next one is pulled — so the
    /// queue's backpressure propagates to the source and a lazy or
    /// file-backed source streams without materialising.
    ///
    /// Call [`IngestPipeline::drain`] to collect the verdicts, or use
    /// [`IngestPipeline::run_source`] for the one-shot pairing.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Source`] when the source fails mid-stream, or —
    /// wrapping [`TraceError::UnexpectedUpdate`] — when it emits an
    /// update event: the pool's workers hold replicas or a shared
    /// read-only engine, so there is no single engine an update could
    /// consistently apply to (drive mixed scenarios through
    /// [`run_scenario`] instead). Chunks fed before the error stay in
    /// flight; drain them before reusing the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if every worker died (as [`IngestPipeline::feed`]).
    pub fn feed_from(&mut self, source: &mut dyn TraceSource) -> Result<u64, WorkloadError> {
        let mut fed = 0u64;
        while let Some(event) = source.next_event()? {
            match event {
                TraceEvent::Headers(headers) => {
                    self.feed(&headers);
                    fed += headers.len() as u64;
                }
                TraceEvent::Insert(_) | TraceEvent::Remove { .. } => {
                    return Err(WorkloadError::Source(TraceError::UnexpectedUpdate))
                }
            }
        }
        Ok(fed)
    }

    /// One-shot: streams a classify-only source through the pool and
    /// drains every verdict into `out` (cleared first) in stream order —
    /// the [`TraceSource`] analogue of [`IngestPipeline::run_batch`].
    ///
    /// # Errors
    ///
    /// As [`IngestPipeline::feed_from`]. On error the already-fed chunks
    /// are drained into `out` first, so the pipeline is left idle and
    /// reusable.
    ///
    /// # Panics
    ///
    /// Panics if chunks from an earlier [`IngestPipeline::feed`] are
    /// still in flight, or if a worker died.
    pub fn run_source(
        &mut self,
        source: &mut dyn TraceSource,
        out: &mut Vec<Verdict>,
    ) -> Result<LookupStats, WorkloadError> {
        assert_eq!(
            self.in_flight(),
            0,
            "drain() the fed stream before run_source()"
        );
        out.clear();
        match self.feed_from(source) {
            Ok(_) => Ok(self.drain(out)),
            Err(e) => {
                self.drain(out);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{EngineSource, IngestConfig};
    use crate::{build_engine, EngineBuilder};
    use spc_classbench::{FilterKind, RuleSetGenerator, ScenarioScript, TraceGenerator};
    use spc_types::RuleSet;

    fn workload() -> (RuleSet, RuleSet, TraceGenerator) {
        (
            RuleSetGenerator::new(FilterKind::Acl, 150)
                .seed(3)
                .generate(),
            RuleSetGenerator::new(FilterKind::Fw, 40).seed(4).generate(),
            TraceGenerator::new().seed(9).match_fraction(0.8),
        )
    }

    fn pipe(rules: &RuleSet, workers: usize) -> IngestPipeline {
        let source =
            EngineSource::replicated(&EngineBuilder::from_spec("linear").unwrap(), rules, workers)
                .unwrap();
        IngestPipeline::spawn(
            source,
            IngestConfig {
                workers,
                queue_chunks: 2,
                chunk: 37,
            },
        )
        .unwrap()
    }

    #[test]
    fn run_source_equals_run_batch() {
        let (rules, _, traffic) = workload();
        let trace = traffic.generate(&rules, 400);
        let mut pipe = pipe(&rules, 3);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let batch_stats = pipe.run_batch(&trace, &mut want);
        let mut source = traffic.stream(&rules, 400).with_chunk(55);
        let stream_stats = pipe.run_source(&mut source, &mut got).unwrap();
        assert_eq!(got, want);
        assert_eq!(stream_stats, batch_stats);
    }

    #[test]
    fn feed_from_rejects_update_events_and_stays_usable() {
        let (rules, pool, traffic) = workload();
        let script = ScenarioScript::parse("classify 100; insert 1").unwrap();
        let mut source = script.source(&traffic, &rules, pool.rules()).unwrap();
        let mut pipe = pipe(&rules, 2);
        let mut out = Vec::new();
        let err = pipe.run_source(&mut source, &mut out).unwrap_err();
        assert!(
            matches!(err, WorkloadError::Source(TraceError::UnexpectedUpdate)),
            "{err}"
        );
        // The headers fed before the update event were drained...
        assert_eq!(out.len(), 100);
        assert_eq!(pipe.in_flight(), 0);
        // ...and the pool still serves classify-only streams.
        let mut source = traffic.stream(&rules, 64);
        let stats = pipe.run_source(&mut source, &mut out).unwrap();
        assert_eq!(stats.packets, 64);
    }

    #[test]
    fn a_damaged_capture_is_classified_up_to_the_damage() {
        use spc_classbench::{PcapError, PcapReader, PcapWriter};
        let (rules, _, traffic) = workload();
        let trace = traffic.generate(&rules, 301);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for h in &trace {
            w.write_header(h).unwrap();
        }
        // 300 whole records; the 301st loses the end of its body.
        let mut capture = w.finish().unwrap();
        capture.truncate(capture.len() - 5);
        let mut pipe = pipe(&rules, 2);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        pipe.run_batch(&trace[..300], &mut want);
        // One event holds 1 024 headers: the damage sits inside the first.
        let mut reader = PcapReader::from_bytes(capture).unwrap();
        let err = pipe.run_source(&mut reader, &mut got).unwrap_err();
        assert!(
            matches!(
                err,
                WorkloadError::Source(TraceError::Pcap(PcapError::TruncatedPacketBody {
                    need: 24,
                    have: 19,
                    ..
                }))
            ),
            "{err}"
        );
        assert_eq!(got, want, "every packet before the damage was classified");
        assert_eq!(pipe.in_flight(), 0);
    }

    #[test]
    fn scenario_on_a_build_once_backend_is_an_update_error() {
        let (rules, pool, traffic) = workload();
        let mut engine = build_engine("linear", &rules).unwrap();
        let script = ScenarioScript::parse("insert 1").unwrap();
        let mut source = script.source(&traffic, &rules, pool.rules()).unwrap();
        let err = run_scenario(engine.as_mut(), &mut source, &mut Vec::new()).unwrap_err();
        assert!(
            matches!(err, WorkloadError::Update(UpdateError::Unsupported { .. })),
            "{err}"
        );
    }

    #[test]
    fn scenario_classify_only_equals_classify_batch() {
        let (rules, _, traffic) = workload();
        let mut engine = build_engine("configurable-bst", &rules).unwrap();
        let trace = traffic.generate(&rules, 300);
        let mut want = Vec::new();
        let want_stats = engine.classify_batch(&trace, &mut want);

        let script = ScenarioScript::parse("classify 300").unwrap();
        let mut source = script.source(&traffic, &rules, &[]).unwrap().with_chunk(77);
        let mut engine = build_engine("configurable-bst", &rules).unwrap();
        let mut got = Vec::new();
        let report = run_scenario(engine.as_mut(), &mut source, &mut got).unwrap();
        assert_eq!(got, want);
        assert_eq!(report.lookup, want_stats);
        assert_eq!(report.update_ops(), 0);
        assert!(report.live_inserts.is_empty());
    }

    #[test]
    fn scenario_churn_accounting_adds_up() {
        let (rules, pool, traffic) = workload();
        let mut engine = build_engine("configurable-bst", &rules).unwrap();
        let before = engine.rules();
        let script = ScenarioScript::parse("repeat 4 { insert 6; classify 50; remove 3 }").unwrap();
        let mut source = script.source(&traffic, &rules, pool.rules()).unwrap();
        let mut verdicts = Vec::new();
        let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts).unwrap();
        assert_eq!(verdicts.len(), 200);
        assert_eq!(report.lookup.packets, 200);
        assert_eq!(report.inserts + report.duplicates, 24);
        assert_eq!(report.removes + report.skipped_removes, 12);
        assert_eq!(
            report.live_inserts.len() as u64,
            report.inserts - report.removes
        );
        assert_eq!(
            engine.rules() as u64,
            before as u64 + report.inserts - report.removes
        );
        // The §V.A floor: 3 write cycles per successful update.
        assert!(report.insert_cycles >= 3 * report.inserts);
        assert!(report.update_cycles() >= 3 * report.update_ops());
        // Surviving ids really are live: removing one works.
        if let Some(&(id, _)) = report.live_inserts.first() {
            engine.remove(id).unwrap();
        }
    }

    #[test]
    fn bad_remove_is_typed() {
        /// A source that removes an insert it never emitted.
        struct Broken(bool);
        impl TraceSource for Broken {
            fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
                if self.0 {
                    return Ok(None);
                }
                self.0 = true;
                Ok(Some(TraceEvent::Remove { insert: 7 }))
            }
        }
        let (rules, ..) = workload();
        let mut engine = build_engine("configurable-bst", &rules).unwrap();
        let err = run_scenario(engine.as_mut(), &mut Broken(false), &mut Vec::new()).unwrap_err();
        assert!(
            matches!(err, WorkloadError::BadRemove { insert: 7 }),
            "{err}"
        );
    }

    #[test]
    fn workload_error_display_and_source() {
        use std::error::Error;
        let e = WorkloadError::from(TraceError::UnexpectedUpdate);
        assert!(e.to_string().contains("source"));
        assert!(e.source().is_some());
        let e = WorkloadError::Update(UpdateError::UnknownRule {
            id: spc_types::RuleId(3),
        });
        assert!(e.to_string().contains("update"));
        assert!(e.source().is_some());
        let e = WorkloadError::BadRemove { insert: 2 };
        assert!(e.to_string().contains("#2"));
        assert!(e.source().is_none());
    }
}
