//! The streaming workload abstraction: [`TraceSource`].
//!
//! The paper evaluates its configurable architecture under *workloads* —
//! synthetic ClassBench-style traces (Tables VI/VII) and
//! controller-driven update bursts (§V.A). A workload here is a stream
//! of events pulled in bounded chunks, not a materialised `Vec<Header>`,
//! so the same consumers (the `spc-engine` ingest pipeline, the bench
//! binaries, the differential-oracle tests) can be driven by
//!
//! * synthetic traces, generated lazily ([`SyntheticTrace`], from
//!   [`crate::TraceGenerator::stream`]);
//! * captured traffic replayed from pcap files ([`crate::PcapReader`]);
//! * scripted mixes of classify batches and insert/remove bursts
//!   ([`crate::ScenarioScript`]).
//!
//! # The contract
//!
//! A source yields [`TraceEvent`]s in workload order until it returns
//! `Ok(None)`, after which it is exhausted and stays exhausted (fused).
//! Header chunks are bounded ([`DEFAULT_CHUNK`] unless reconfigured) so a
//! consumer with a bounded queue keeps its backpressure: pulling the next
//! event only after the previous chunk was enqueued bounds the number of
//! headers in flight. [`TraceEvent::Remove`] refers to the source's own
//! earlier [`TraceEvent::Insert`] events by emission index — a source
//! never emits a remove for an insert it has not yet emitted.

use crate::pcap::PcapError;
use crate::trace::Sampler;
use spc_types::{Header, Rule, RuleSet};
use std::fmt;

/// Headers per chunk a well-behaved source emits unless told otherwise —
/// the same granularity as the engine pipeline's bounded queue.
pub const DEFAULT_CHUNK: usize = 1024;

/// One workload event pulled from a [`TraceSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A non-empty chunk of headers to classify, in arrival order.
    Headers(Vec<Header>),
    /// Install this rule (churn scenarios).
    Insert(Rule),
    /// Remove the rule created by this source's `insert`-th
    /// [`TraceEvent::Insert`] event (0-based, in emission order). The
    /// consumer owns the mapping from insert index to whatever id its
    /// engine assigned — or to "that insert was skipped as a duplicate".
    Remove {
        /// Emission index of the insert event being undone.
        insert: usize,
    },
}

/// Error from pulling on a [`TraceSource`].
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The underlying pcap stream was malformed or unreadable.
    Pcap(PcapError),
    /// A classify-only consumer (e.g. a header collector or the engine
    /// ingest pipeline) was handed a source that emits update events.
    UnexpectedUpdate,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Pcap(e) => write!(f, "pcap trace source failed: {e}"),
            TraceError::UnexpectedUpdate => write!(
                f,
                "the trace source emitted an update event, but this consumer \
                 only classifies headers (drive it with a scenario runner instead)"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Pcap(e) => Some(e),
            TraceError::UnexpectedUpdate => None,
        }
    }
}

impl From<PcapError> for TraceError {
    fn from(e: PcapError) -> Self {
        TraceError::Pcap(e)
    }
}

/// A streaming workload: header chunks, optionally interleaved with
/// insert/remove events for churn scenarios.
///
/// The event contract (ordering, bounded chunks, remove-by-insert-index,
/// fused exhaustion) is documented in `docs/workloads.md`.
/// Implementations in this crate: [`SyntheticTrace`],
/// [`crate::PcapReader`], [`crate::ScenarioSource`].
pub trait TraceSource {
    /// Pulls the next workload event, or `Ok(None)` once exhausted.
    ///
    /// # Errors
    ///
    /// [`TraceError`] when the underlying stream is malformed (only
    /// fallible sources — pcap replay — ever return one).
    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError>;

    /// How many headers this source will still emit, when known — a
    /// pre-allocation hint, not a promise.
    fn headers_hint(&self) -> Option<usize> {
        None
    }

    /// Drains the source into one materialised header vector — the
    /// adapter between streaming sources and consumers that genuinely
    /// need the whole trace at once (criterion timing loops, oracle
    /// vectors).
    ///
    /// # Errors
    ///
    /// Propagates stream errors, and [`TraceError::UnexpectedUpdate`] if
    /// the source emits update events (collect a scenario's headers by
    /// *running* the scenario, not by flattening it).
    fn collect_headers(mut self) -> Result<Vec<Header>, TraceError>
    where
        Self: Sized,
    {
        let mut out = Vec::with_capacity(self.headers_hint().unwrap_or(0));
        while let Some(event) = self.next_event()? {
            match event {
                TraceEvent::Headers(chunk) => out.extend(chunk),
                TraceEvent::Insert(_) | TraceEvent::Remove { .. } => {
                    return Err(TraceError::UnexpectedUpdate)
                }
            }
        }
        Ok(out)
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        (**self).next_event()
    }

    fn headers_hint(&self) -> Option<usize> {
        (**self).headers_hint()
    }
}

/// The synthetic [`TraceSource`]: [`crate::TraceGenerator`]'s sampling
/// loop made lazy. Obtained from [`crate::TraceGenerator::stream`];
/// identical seeds produce identical headers whether streamed chunk by
/// chunk, iterated one by one, or materialised via
/// [`crate::TraceGenerator::generate`].
#[derive(Debug, Clone)]
pub struct SyntheticTrace<'a> {
    sampler: Sampler,
    rules: &'a RuleSet,
    remaining: usize,
    chunk: usize,
}

impl<'a> SyntheticTrace<'a> {
    pub(crate) fn new(sampler: Sampler, rules: &'a RuleSet, len: usize) -> Self {
        SyntheticTrace {
            sampler,
            rules,
            remaining: len,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Sets the headers-per-event chunk size (clamped to at least 1).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Headers this source will still emit.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl TraceSource for SyntheticTrace<'_> {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = self.remaining.min(self.chunk);
        let mut chunk = Vec::with_capacity(n);
        for _ in 0..n {
            chunk.push(self.sampler.next_header(self.rules));
        }
        self.remaining -= n;
        Ok(Some(TraceEvent::Headers(chunk)))
    }

    fn headers_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Synthetic traces are pure header streams, so they are also plain
/// iterators — handy for feeding consumers that take `IntoIterator`,
/// like [`crate::write_pcap`].
impl Iterator for SyntheticTrace<'_> {
    type Item = Header;

    fn next(&mut self) -> Option<Header> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.sampler.next_header(self.rules))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SyntheticTrace<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FilterKind, RuleSetGenerator, TraceGenerator};

    #[test]
    fn iterator_and_source_views_agree() {
        let rules = RuleSetGenerator::new(FilterKind::Ipc, 120)
            .seed(5)
            .generate();
        let gen = TraceGenerator::new().seed(17).locality(0.2);
        let via_iter: Vec<Header> = gen.stream(&rules, 257).collect();
        let via_source = gen.stream(&rules, 257).collect_headers().unwrap();
        assert_eq!(via_iter, via_source);
        assert_eq!(via_iter.len(), 257);
        let mut s = gen.stream(&rules, 10);
        assert_eq!(s.len(), 10);
        s.next();
        assert_eq!(s.remaining(), 9);
        assert_eq!(s.headers_hint(), Some(9));
    }

    #[test]
    fn trace_error_display_and_source() {
        use std::error::Error;
        let e = TraceError::UnexpectedUpdate;
        assert!(e.to_string().contains("update event"));
        assert!(e.source().is_none());
        let e = TraceError::from(PcapError::BadMagic { magic: 0xdead });
        assert!(e.to_string().contains("pcap"));
        assert!(e.source().is_some());
    }

    #[test]
    fn mut_ref_is_a_source_too() {
        let rules = RuleSetGenerator::new(FilterKind::Acl, 50)
            .seed(5)
            .generate();
        let mut s = TraceGenerator::new().seed(1).stream(&rules, 5);
        let r = &mut s;
        assert_eq!(r.headers_hint(), Some(5));
        assert!(matches!(
            r.next_event().unwrap(),
            Some(TraceEvent::Headers(_))
        ));
    }
}
