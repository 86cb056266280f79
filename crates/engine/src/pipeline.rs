//! The generalised batch-ingest worker pool.
//!
//! The paper motivates a *configurable* classifier because SDN workloads
//! stress different parameters — lookup speed, rule capacity, update
//! rate. The workspace's only high-throughput driver used to be the
//! worker pool buried inside `ShardedEngine::classify_batch`; this
//! module lifts that machinery out so **any** [`PacketClassifier`] can
//! be fed from a header stream:
//!
//! * [`BatchWorker`] — the unit of parallel work: something that turns a
//!   header chunk into verdicts plus [`LookupStats`]. Every boxed engine
//!   is one; `ShardedEngine`'s shards are too.
//! * [`IngestPipeline`] — a long-running pool: N worker threads pull
//!   header chunks from one **bounded** queue (a full queue blocks the
//!   feeder — backpressure, never drops), classify them, and stream
//!   verdicts back. Spawned once, fed many times: no per-batch thread
//!   spawn. Use [`IngestPipeline::run_batch`] for one-shot batches or
//!   the [`IngestPipeline::feed`] / [`IngestPipeline::drain`] pair for
//!   streaming.
//! * [`EngineSource`] — how workers get an engine: one read-only engine
//!   shared behind `Arc` (cheap in memory, but workers go through the
//!   single-shot `classify` path), or one replica per worker (N× the
//!   memory, but each worker runs its replica's own `classify_batch`,
//!   with full batch accounting). See `docs/ingest_pipeline.md` for the
//!   trade-off in numbers. A third shape rides on [`IngestPipeline::from_workers`]:
//!   [`crate::SnapshotReader`] workers over a live
//!   [`crate::SnapshotEngine`], which re-resolve the published rule-set
//!   snapshot once per chunk so the pool keeps serving lock-free while a
//!   writer churns rules (see `docs/concurrency.md`).
//! * [`broadcast_batch`] — the one-shot scoped topology `ShardedEngine`'s
//!   hash strategy is built on: every chunk goes to every worker and the
//!   verdicts merge. It lives here so the sharded backend shares the
//!   pool machinery instead of duplicating it.
//!
//! Per-worker [`LookupStats`] always fold with the `Copy + Add` impl;
//! that contract is what lets every topology report one aggregate.
//!
//! # Example
//!
//! ```
//! use spc_engine::pipeline::{EngineSource, IngestConfig, IngestPipeline};
//! use spc_engine::EngineBuilder;
//! use spc_types::{Header, Priority, Rule, RuleSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rules = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
//! // One replica of the backend per worker thread.
//! let workers = IngestConfig::default().workers;
//! let source = EngineSource::replicated(&EngineBuilder::from_spec("linear")?, &rules, workers)?;
//! let mut pipe = IngestPipeline::spawn(source, IngestConfig::default())?;
//! let batch = vec![Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 9, 80, 6); 100];
//! let mut verdicts = Vec::new();
//! let stats = pipe.run_batch(&batch, &mut verdicts);
//! assert_eq!(stats.packets, 100);
//! assert!(verdicts.iter().all(|v| v.is_hit()));
//! # Ok(())
//! # }
//! ```

use crate::{classify_each, BuildError, EngineBuilder, LookupStats, PacketClassifier, Verdict};
use spc_types::{Header, RuleSet};
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Headers per work unit wherever the pool machinery chunks a batch.
/// Small enough that merging overlaps worker progress, large enough that
/// channel traffic is noise.
pub const DEFAULT_CHUNK: usize = 1024;

/// One parallel worker of the pool: turns a header chunk into verdicts.
///
/// `out` is cleared first and receives exactly one [`Verdict`] per
/// header; the returned [`LookupStats`] must account for exactly this
/// chunk, so that per-worker stats fold correctly with `+`.
///
/// Every `Box<dyn PacketClassifier>` is a `BatchWorker` (via its
/// amortised `classify_batch`); so is each worker of an
/// [`EngineSource::Shared`] pool over its `Arc`'d engine, and so are
/// `ShardedEngine`'s shards (which remap verdicts to global rule-id space
/// on the way out).
pub trait BatchWorker: Send {
    /// Classifies `headers` into `out` (cleared first).
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats;
}

impl BatchWorker for Box<dyn PacketClassifier> {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        self.classify_batch(headers, out)
    }
}

/// A worker that classifies through a shared read-only engine.
///
/// The engine is behind `Arc`, so lookups go through the `&self`
/// single-shot [`PacketClassifier::classify`] path — no
/// `combos_probed` accounting, in exchange for not replicating the
/// structure per worker. (A configurable engine's single-shot lookup
/// works in a per-thread scratch, so each worker thread still reuses
/// its buffers.)
struct SharedWorker(Arc<dyn PacketClassifier>);

impl BatchWorker for SharedWorker {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        classify_each(headers, out, |h| self.0.classify(h))
    }
}

/// A [`crate::SnapshotReader`] is a pool worker: it re-resolves the
/// published snapshot **once per chunk**, then classifies the whole
/// chunk against that one immutable version and lets go of it — so a
/// chunk is never a torn mix of two rule-set versions, writer churn
/// becomes visible to the pool at chunk boundaries, and an idle worker
/// keeps no copy from the writer. Build a pool over readers with
/// [`crate::SnapshotEngine::workers`] and
/// [`IngestPipeline::from_workers`].
impl BatchWorker for crate::SnapshotReader {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        let snap = self.resolve();
        classify_each(headers, out, |h| snap.classify(h))
    }
}

/// Where an [`IngestPipeline`]'s workers get their engine.
#[derive(Debug)]
pub enum EngineSource {
    /// One read-only engine shared by every worker ([`IngestConfig::workers`]
    /// of them). Lowest memory; workers use the single-shot lookup path.
    Shared(Arc<dyn PacketClassifier>),
    /// One engine replica per worker (the vector length must equal
    /// [`IngestConfig::workers`]). N× the structure memory; each worker
    /// runs its replica's own batch path.
    Cloned(Vec<Box<dyn PacketClassifier>>),
}

impl EngineSource {
    /// Builds `workers` independent replicas of a backend — the
    /// [`EngineSource::Cloned`] convenience constructor.
    ///
    /// # Errors
    ///
    /// Propagates the first [`BuildError`] from the builder.
    pub fn replicated(
        builder: &EngineBuilder,
        rules: &RuleSet,
        workers: usize,
    ) -> Result<Self, BuildError> {
        (0..workers)
            .map(|_| builder.build(rules))
            .collect::<Result<Vec<_>, _>>()
            .map(EngineSource::Cloned)
    }

    /// Type-erases the source into one boxed worker per thread.
    fn into_workers(self, shared_workers: usize) -> Vec<Box<dyn BatchWorker>> {
        match self {
            EngineSource::Shared(engine) => (0..shared_workers)
                .map(|_| Box::new(SharedWorker(Arc::clone(&engine))) as Box<dyn BatchWorker>)
                .collect(),
            EngineSource::Cloned(engines) => engines
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn BatchWorker>)
                .collect(),
        }
    }
}

/// Sizing knobs of an [`IngestPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Worker threads. For an [`EngineSource::Cloned`] source this must
    /// equal the replica count — [`IngestPipeline::spawn`] rejects a
    /// mismatch rather than silently running a different parallelism
    /// than the sweep labelled.
    pub workers: usize,
    /// Bounded ingest-queue depth, in chunks. When the queue is full,
    /// [`IngestPipeline::feed`] blocks — backpressure, never drops.
    pub queue_chunks: usize,
    /// Headers per queued chunk.
    pub chunk: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            workers: 4,
            queue_chunks: 8,
            chunk: DEFAULT_CHUNK,
        }
    }
}

/// Error from [`IngestPipeline::spawn`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The configuration cannot produce a working pool (zero workers,
    /// zero queue depth, zero chunk size, an empty replica vector).
    Config {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Config { reason } => write!(f, "bad ingest configuration: {reason}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A queued work unit: the chunk's stream sequence number + its headers.
type Job = (u64, Vec<Header>);
/// A finished work unit: sequence number, then verdicts + chunk stats —
/// or `None` when the worker panicked on that chunk, so the drain side
/// can fail loudly instead of waiting forever for a dead sequence
/// number.
type JobResult = (u64, Option<(Vec<Verdict>, LookupStats)>);

/// A long-running, backpressure-aware ingest pool over N workers.
///
/// Spawned once ([`IngestPipeline::spawn`]), then driven for its whole
/// life — worker threads are *not* respawned per batch. Headers enter
/// through a bounded queue ([`IngestPipeline::feed`] blocks when it is
/// full), workers race to pull chunks, and [`IngestPipeline::drain`]
/// reassembles verdicts in stream order, folding the per-worker
/// [`LookupStats`] with `+`.
///
/// Dropping the pipeline (or calling [`IngestPipeline::shutdown`])
/// closes the queue and joins the workers; verdicts of fed-but-undrained
/// chunks are discarded at that point.
///
/// # Examples
///
/// The streaming lifecycle — feed bursts as they arrive, drain at
/// result-window boundaries, reuse the same pool threads throughout:
///
/// ```
/// use spc_engine::{EngineBuilder, EngineSource, IngestConfig, IngestPipeline};
/// use spc_types::{Header, Priority, Rule, RuleSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rules = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
/// let source = EngineSource::replicated(&EngineBuilder::from_spec("linear")?, &rules, 2)?;
/// let mut pipe = IngestPipeline::spawn(
///     source,
///     IngestConfig { workers: 2, queue_chunks: 4, chunk: 16 },
/// )?;
/// let burst = vec![Header::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into(), 1, 2, 6); 50];
/// let mut verdicts = Vec::new();
/// for _window in 0..3 {
///     pipe.feed(&burst); // blocks only if the bounded queue is full
///     let stats = pipe.drain(&mut verdicts); // verdicts appended in feed order
///     assert_eq!(stats.packets, 50);
/// }
/// assert_eq!(verdicts.len(), 150);
/// # Ok(())
/// # }
/// ```
pub struct IngestPipeline {
    feed_tx: Option<SyncSender<Job>>,
    res_rx: Receiver<JobResult>,
    handles: Vec<JoinHandle<()>>,
    chunk: usize,
    /// Sequence number the next fed chunk gets.
    next_seq: u64,
    /// Sequence number the next drained chunk must have.
    drained_seq: u64,
    /// Results that arrived ahead of stream order.
    pending: HashMap<u64, (Vec<Verdict>, LookupStats)>,
}

impl fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("workers", &self.handles.len())
            .field("chunk", &self.chunk)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl IngestPipeline {
    /// Spawns the pool over an [`EngineSource`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for a zero worker count, an empty
    /// replica vector, zero queue/chunk sizes, or a
    /// [`EngineSource::Cloned`] replica count that disagrees with
    /// [`IngestConfig::workers`] — a sweep must never silently run a
    /// worker count it didn't ask for.
    pub fn spawn(source: EngineSource, config: IngestConfig) -> Result<Self, PipelineError> {
        match &source {
            EngineSource::Shared(_) if config.workers == 0 => {
                return Err(PipelineError::Config {
                    reason: "a shared-engine pool needs workers >= 1".to_string(),
                });
            }
            EngineSource::Cloned(replicas) if replicas.len() != config.workers => {
                return Err(PipelineError::Config {
                    reason: format!(
                        "{} engine replicas but workers={} — a pool must run \
                         exactly the worker count it was configured for",
                        replicas.len(),
                        config.workers
                    ),
                });
            }
            _ => {}
        }
        Self::from_workers(source.into_workers(config.workers), config)
    }

    /// Spawns the pool over explicit [`BatchWorker`]s — the escape hatch
    /// for heterogeneous or instrumented workers (tests use it to gate
    /// worker progress and observe backpressure). The worker count is
    /// the vector's length; [`IngestConfig::workers`] is not consulted
    /// on this path.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for an empty worker vector or zero
    /// queue/chunk sizes.
    pub fn from_workers(
        workers: Vec<Box<dyn BatchWorker>>,
        config: IngestConfig,
    ) -> Result<Self, PipelineError> {
        if workers.is_empty() {
            return Err(PipelineError::Config {
                reason: "the pool needs >= 1 worker".to_string(),
            });
        }
        if config.queue_chunks == 0 || config.chunk == 0 {
            return Err(PipelineError::Config {
                reason: "queue_chunks and chunk must be >= 1".to_string(),
            });
        }
        let (feed_tx, feed_rx) = mpsc::sync_channel::<Job>(config.queue_chunks);
        let feed_rx = Arc::new(Mutex::new(feed_rx));
        let (res_tx, res_rx) = mpsc::channel::<JobResult>();
        let handles = workers
            .into_iter()
            .map(|mut worker| {
                let rx = Arc::clone(&feed_rx);
                let tx = res_tx.clone();
                std::thread::spawn(move || {
                    let mut buf: Vec<Verdict> = Vec::new();
                    loop {
                        // Hold the lock only to pull one job; a closed
                        // queue (or a poisoned lock from a worker panic)
                        // ends the thread.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        let Ok((seq, headers)) = job else { return };
                        // A panicking worker must not strand its sequence
                        // number — drain() would wait forever for it while
                        // the surviving workers keep the result channel
                        // open. Catch the panic, deliver a death marker
                        // for this chunk, and let the thread die.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                worker.process(&headers, &mut buf)
                            }));
                        let Ok(stats) = outcome else {
                            let _ = tx.send((seq, None));
                            return;
                        };
                        debug_assert_eq!(buf.len(), headers.len(), "one verdict per header");
                        if tx
                            .send((seq, Some((std::mem::take(&mut buf), stats))))
                            .is_err()
                        {
                            return; // pipeline dropped mid-flight
                        }
                    }
                })
            })
            .collect();
        Ok(IngestPipeline {
            feed_tx: Some(feed_tx),
            res_rx,
            handles,
            chunk: config.chunk,
            next_seq: 0,
            drained_seq: 0,
            pending: HashMap::new(),
        })
    }

    /// Live worker threads.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Chunks fed but not yet drained.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.drained_seq
    }

    /// Queues `headers` for classification, blocking while the bounded
    /// queue is full (backpressure: a slow pool slows the feeder down,
    /// it never drops headers). Returns the number of chunks queued.
    ///
    /// # Panics
    ///
    /// Panics if every worker died (a worker panic poisons the pool).
    #[allow(clippy::expect_used)] // panic contract documented above
    pub fn feed(&mut self, headers: &[Header]) -> usize {
        let tx = self.feed_tx.as_ref().expect("pipeline is not shut down");
        let mut queued = 0;
        for chunk in headers.chunks(self.chunk) {
            tx.send((self.next_seq, chunk.to_vec()))
                .expect("ingest workers are alive");
            self.next_seq += 1;
            queued += 1;
        }
        queued
    }

    /// Blocks until every fed chunk has been classified, appending the
    /// verdicts to `out` in stream (feed) order and returning the folded
    /// stats of the drained span. After a drain the pipeline is idle and
    /// can be fed again — feed/drain cycles are the streaming lifecycle.
    ///
    /// # Panics
    ///
    /// Panics if a worker died (panicked) before completing the stream —
    /// a dead worker delivers a death marker for the chunk it was
    /// holding, so this fails loudly instead of waiting forever.
    #[allow(clippy::expect_used)] // panic contract documented above
    pub fn drain(&mut self, out: &mut Vec<Verdict>) -> LookupStats {
        let mut folded = LookupStats::default();
        while self.drained_seq < self.next_seq {
            if let Some((verdicts, stats)) = self.pending.remove(&self.drained_seq) {
                folded = folded + stats;
                out.extend_from_slice(&verdicts);
                self.drained_seq += 1;
                continue;
            }
            let (seq, result) = self
                .res_rx
                .recv()
                .expect("every ingest worker died before completing the stream");
            let Some(chunk) = result else {
                panic!("an ingest worker panicked while classifying chunk {seq}");
            };
            self.pending.insert(seq, chunk);
        }
        folded
    }

    /// One-shot convenience: feeds the whole batch and drains it, with
    /// `out` cleared first — a drop-in parallel analogue of
    /// [`PacketClassifier::classify_batch`]. The bounded queue never
    /// deadlocks here: workers drain it concurrently into the unbounded
    /// result channel while this thread is still feeding.
    ///
    /// # Panics
    ///
    /// Panics if chunks from an earlier [`IngestPipeline::feed`] are
    /// still in flight (drain the stream first), or if a worker died.
    pub fn run_batch(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        assert_eq!(
            self.in_flight(),
            0,
            "drain() the fed stream before run_batch()"
        );
        out.clear();
        if headers.is_empty() {
            return LookupStats::default();
        }
        self.feed(headers);
        self.drain(out)
    }

    /// Closes the queue and joins every worker. Equivalent to dropping
    /// the pipeline, but explicit at call sites that care.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.feed_tx.take(); // closing the queue ends the worker loops
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// One-shot *broadcast* fan-out over borrowed workers: every worker
/// classifies every chunk of `headers`, and verdict chunks are folded
/// into `out` through `merge` in arrival order (so `merge` must be
/// commutative and associative — e.g. a best-`(priority, id)` fold).
/// Returns the per-worker stats folded with `+`.
///
/// This is `ShardedEngine`'s hash-strategy batch path, exposed so any
/// set of heterogeneous engines can be queried-and-merged in parallel.
/// `out` must hold one pre-initialised merge seed per header (typically
/// `Verdict::miss(0)`).
///
/// # Panics
///
/// Panics if `workers` is empty (the merge seeds in `out` would pass
/// through untouched, silently classifying every header as a miss) or
/// if `out` is shorter than `headers`.
pub fn broadcast_batch<W, M>(
    workers: &mut [W],
    headers: &[Header],
    out: &mut [Verdict],
    merge: M,
    chunk: usize,
) -> LookupStats
where
    W: BatchWorker,
    M: Fn(&mut Verdict, &Verdict),
{
    assert!(!workers.is_empty(), "a broadcast needs >= 1 worker");
    assert!(out.len() >= headers.len(), "one merge slot per header");
    let chunk = chunk.max(1);
    let (tx, rx) = mpsc::channel::<(usize, Vec<Verdict>, LookupStats)>();
    let mut folded = LookupStats::default();
    std::thread::scope(|scope| {
        for worker in workers.iter_mut() {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut buf = Vec::new();
                for (ci, hunk) in headers.chunks(chunk).enumerate() {
                    let stats = worker.process(hunk, &mut buf);
                    // A send only fails if the receiver is gone, and the
                    // merge loop below outlives every worker.
                    let _ = tx.send((ci * chunk, std::mem::take(&mut buf), stats));
                }
            });
        }
        drop(tx);
        while let Ok((offset, verdicts, stats)) = rx.recv() {
            folded = folded + stats;
            for (slot, v) in out[offset..].iter_mut().zip(&verdicts) {
                merge(slot, v);
            }
        }
    });
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use spc_types::{Action, PortRange, Priority, ProtoSpec, Rule, RuleId, RuleSet};

    fn rules(n: u32) -> RuleSet {
        (0..n)
            .map(|i| {
                Rule::builder(Priority(i))
                    .dst_port(PortRange::exact(i as u16))
                    .proto(ProtoSpec::Exact(6))
                    .action(Action::Forward(i as u16))
                    .build()
            })
            .collect()
    }

    fn hdr(port: u16) -> Header {
        Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 7, port, 6)
    }

    fn trace(n: usize, rules: u16) -> Vec<Header> {
        (0..n)
            .map(|i| hdr((i % usize::from(rules)) as u16))
            .collect()
    }

    #[test]
    fn cloned_pool_matches_sequential() {
        let rules = rules(32);
        let t = trace(500, 40);
        let seq = EngineBuilder::new(EngineKind::Linear)
            .build(&rules)
            .unwrap();
        let want: Vec<Verdict> = t.iter().map(|h| seq.classify(h)).collect();
        let source =
            EngineSource::replicated(&EngineBuilder::new(EngineKind::Linear), &rules, 3).unwrap();
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: 3,
                queue_chunks: 2,
                chunk: 64,
            },
        )
        .unwrap();
        assert_eq!(pipe.worker_count(), 3);
        let mut out = Vec::new();
        let stats = pipe.run_batch(&t, &mut out);
        assert_eq!(out, want, "pool verdicts must equal sequential, in order");
        assert_eq!(stats.packets, t.len() as u64);
        assert_eq!(
            stats.hits,
            want.iter().filter(|v| v.is_hit()).count() as u64
        );
        // The pool is reusable: a second batch through the same threads.
        let stats2 = pipe.run_batch(&t, &mut out);
        assert_eq!(stats2.packets, stats.packets);
        pipe.shutdown();
    }

    #[test]
    fn shared_pool_matches_sequential() {
        let rules = rules(16);
        let t = trace(300, 20);
        let engine: Arc<dyn PacketClassifier> = Arc::from(
            EngineBuilder::new(EngineKind::ConfigurableMbt)
                .build(&rules)
                .unwrap(),
        );
        let want: Vec<Verdict> = t.iter().map(|h| engine.classify(h)).collect();
        let mut pipe = IngestPipeline::spawn(
            EngineSource::Shared(engine),
            IngestConfig {
                workers: 4,
                queue_chunks: 4,
                chunk: 32,
            },
        )
        .unwrap();
        let mut out = Vec::new();
        pipe.run_batch(&t, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn feed_drain_streams_in_order() {
        let rules = rules(8);
        let source =
            EngineSource::replicated(&EngineBuilder::new(EngineKind::Linear), &rules, 2).unwrap();
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: 2,
                queue_chunks: 2,
                chunk: 16,
            },
        )
        .unwrap();
        let mut out = Vec::new();
        let mut folded = LookupStats::default();
        // Three feed rounds, one drain: verdicts arrive in feed order.
        for round in 0..3u16 {
            let t: Vec<Header> = (0..40).map(|i| hdr((round * 40 + i) % 10)).collect();
            pipe.feed(&t);
        }
        assert_eq!(pipe.in_flight(), 9, "3 rounds x ceil(40/16) chunks");
        folded = folded + pipe.drain(&mut out);
        assert_eq!(pipe.in_flight(), 0);
        assert_eq!(out.len(), 120);
        assert_eq!(folded.packets, 120);
        for (i, v) in out.iter().enumerate() {
            let port = i % 10; // header i carried port (i % 10)
            let want = (port < 8).then_some(RuleId(port as u32)); // rules cover 0..8
            assert_eq!(v.rule, want, "stream order at {i}");
        }
    }

    #[test]
    fn zero_length_batch() {
        let rules = rules(4);
        let source =
            EngineSource::replicated(&EngineBuilder::new(EngineKind::Linear), &rules, 2).unwrap();
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: 2,
                ..IngestConfig::default()
            },
        )
        .unwrap();
        let mut out = vec![Verdict::miss(3)];
        let stats = pipe.run_batch(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, LookupStats::default());
    }

    /// A worker that panics on its first chunk, announcing it first.
    #[derive(Debug)]
    struct PanickingWorker(mpsc::Sender<()>);

    impl BatchWorker for PanickingWorker {
        fn process(&mut self, _headers: &[Header], _out: &mut Vec<Verdict>) -> LookupStats {
            let _ = self.0.send(());
            panic!("worker exploded");
        }
    }

    /// A healthy worker that holds its first chunk until the
    /// [`PanickingWorker`] has taken one — otherwise it can win every
    /// pull from the shared queue and the batch completes with nobody
    /// dead.
    struct AfterExplosion {
        exploded: Option<mpsc::Receiver<()>>,
        inner: Box<dyn PacketClassifier>,
    }

    impl BatchWorker for AfterExplosion {
        fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
            if let Some(exploded) = self.exploded.take() {
                let _ = exploded.recv();
            }
            self.inner.process(headers, out)
        }
    }

    #[test]
    fn dead_worker_fails_drain_loudly_instead_of_hanging() {
        // One healthy worker keeps the result channel open, so only the
        // death marker can unblock drain() — the regression this guards
        // against is drain() waiting forever on the dead worker's seq.
        let rules = rules(4);
        let healthy = EngineBuilder::new(EngineKind::Linear)
            .build(&rules)
            .unwrap();
        let (announce, exploded) = mpsc::channel();
        let workers: Vec<Box<dyn BatchWorker>> = vec![
            Box::new(PanickingWorker(announce)),
            Box::new(AfterExplosion {
                exploded: Some(exploded),
                inner: healthy,
            }),
        ];
        let mut pipe = IngestPipeline::from_workers(
            workers,
            IngestConfig {
                workers: 2,
                queue_chunks: 4,
                chunk: 4,
            },
        )
        .unwrap();
        let t = trace(32, 4);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Vec::new();
            pipe.run_batch(&t, &mut out)
        }));
        let err = got.expect_err("drain must panic, not hang");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("worker panicked while classifying"),
            "unexpected panic payload: {msg}"
        );
    }

    #[test]
    fn cloned_worker_count_mismatch_is_an_error() {
        let rules = rules(4);
        let source =
            EngineSource::replicated(&EngineBuilder::new(EngineKind::Linear), &rules, 2).unwrap();
        let e = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: 8, // disagrees with the 2 replicas
                ..IngestConfig::default()
            },
        );
        assert!(matches!(e, Err(PipelineError::Config { .. })));
    }

    #[test]
    fn bad_configs_are_errors() {
        let rules = rules(4);
        let mk = || EngineSource::replicated(&EngineBuilder::new(EngineKind::Linear), &rules, 1);
        for config in [
            IngestConfig {
                workers: 1,
                queue_chunks: 0,
                ..IngestConfig::default()
            },
            IngestConfig {
                workers: 1,
                chunk: 0,
                ..IngestConfig::default()
            },
        ] {
            assert!(matches!(
                IngestPipeline::spawn(mk().unwrap(), config),
                Err(PipelineError::Config { .. })
            ));
        }
        assert!(matches!(
            IngestPipeline::spawn(EngineSource::Cloned(Vec::new()), IngestConfig::default()),
            Err(PipelineError::Config { .. })
        ));
        let engine: Arc<dyn PacketClassifier> = Arc::from(
            EngineBuilder::new(EngineKind::Linear)
                .build(&rules)
                .unwrap(),
        );
        let e = IngestPipeline::spawn(
            EngineSource::Shared(engine),
            IngestConfig {
                workers: 0,
                ..IngestConfig::default()
            },
        );
        assert!(matches!(e, Err(PipelineError::Config { .. })));
        assert!(PipelineError::Config { reason: "x".into() }
            .to_string()
            .contains('x'));
    }
}
