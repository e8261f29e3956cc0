//! The staged engine: one chunked worker-pool executor that every
//! `Pipeline::run_*` entry point is a configuration of.
//!
//! Workers pull chunk indices from the shared, model-checked
//! [`crate::workqueue`] (static splits strand workers behind uneven
//! chunks) and send each chunk's outcome over a channel to the calling
//! thread. That thread runs the reduce *while* the workers run: it keeps
//! a reorder buffer keyed by chunk and folds chunk `next` as soon as it
//! has landed, so partials are folded in chunk order whatever order they
//! complete in, and scheduling cannot affect the result. A partial is
//! resident only while an earlier chunk is still in flight, not for the
//! whole run.
//!
//! [`Engine::run_from`] is the checkpoint seam: it starts the plan at an
//! arbitrary chunk (everything before it is assumed already folded into
//! the reduce state by a snapshot restore) and surfaces an in-order
//! per-chunk observer callback — the epoch boundary — right after each
//! partial folds, while later chunks are still being processed. A cold
//! run is `run_from(.., 0, no-op)`.
//!
//! Failure order matches a sequential run: the lowest-index chunk's error
//! wins even when a higher chunk fails first, every epoch before the
//! failing chunk is still observed, and the first fatal chunk error
//! aborts the queue. A worker panic that escapes its chunk's isolation
//! boundary is reported after the pool joins.

use std::collections::BTreeMap;
use std::sync::mpsc;

use ssfa_logs::Strictness;

use crate::chunk::{process_chunk, ChunkOutcome};
use crate::classify::Classify;
use crate::error::{panic_message, PipelineError};
use crate::health::{RunHealth, StreamStats};
use crate::plan::ChunkPolicy;
use crate::reduce::Reduce;
use crate::source::Source;
use crate::transport::Transport;
use crate::workqueue::{worker_loop, ChunkStatus, StdChunkQueue};

/// One engine run's configuration: everything that is not a stage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Engine {
    pub(crate) threads: usize,
    pub(crate) strictness: Strictness,
    pub(crate) policy: ChunkPolicy,
}

impl Engine {
    /// Drives `source` through `transport` and `classify`, folds the
    /// per-chunk partials — in chunk order — through `reduce`, and
    /// returns the fold's output with the run's stream statistics and
    /// health audit.
    pub(crate) fn run<R: Reduce>(
        &self,
        source: &dyn Source,
        transport: &dyn Transport,
        classify: &dyn Classify,
        reduce: R,
    ) -> Result<(R::Output, StreamStats, RunHealth), PipelineError> {
        self.run_from(source, transport, classify, reduce, 0, |_, _: &R| Ok(()))
    }

    /// Like [`Engine::run`], but starts at `first_chunk` of the source's
    /// chunk plan — chunks before it are assumed already folded into
    /// `reduce` (a checkpoint restore) and are neither loaded nor
    /// counted. After each chunk's outcome is absorbed, in chunk order,
    /// `observer(chunk, &reduce)` runs on the calling thread (the
    /// reassembly thread) while later chunks are still in flight; an
    /// observer error aborts the run.
    ///
    /// Stats and health cover only the chunks this call processed (the
    /// increment), so a fully-caught-up resume reports an empty, clean
    /// run.
    pub(crate) fn run_from<R: Reduce>(
        &self,
        source: &dyn Source,
        transport: &dyn Transport,
        classify: &dyn Classify,
        mut reduce: R,
        first_chunk: usize,
        mut observer: impl FnMut(usize, &R) -> Result<(), PipelineError>,
    ) -> Result<(R::Output, StreamStats, RunHealth), PipelineError> {
        if source.shard_count() == 0 {
            return Ok((
                reduce.finish(),
                StreamStats::empty(),
                RunHealth {
                    strictness: self.strictness,
                    ..RunHealth::default()
                },
            ));
        }
        let chunks = source.plan_chunks(self.policy);
        let n_chunks = chunks.chunk_count();
        let first_chunk = first_chunk.min(n_chunks);
        let new_chunks = n_chunks - first_chunk;
        let new_shards: usize = (first_chunk..n_chunks)
            .map(|chunk| chunks.shard_range(chunk).len())
            .sum();

        let mut stats = StreamStats {
            shards: new_shards,
            chunks: new_chunks,
            max_shard_bytes: 0,
            total_bytes: 0,
        };
        let mut health = RunHealth {
            strictness: self.strictness,
            shards_total: new_shards,
            chunks_total: new_chunks,
            ..RunHealth::default()
        };
        let mut absorb = |chunk: usize, result: ChunkResult| -> Result<(), PipelineError> {
            let outcome = result?;
            stats.max_shard_bytes = stats.max_shard_bytes.max(outcome.max_shard_bytes);
            stats.total_bytes += outcome.total_bytes;
            health.shards_processed += outcome.systems_processed;
            health.shards_dropped += outcome.systems_dropped;
            health.shards_retried += outcome.systems_retried;
            if outcome.quarantine.is_none() {
                health.chunks_processed += 1;
            }
            health.quarantined.extend(outcome.quarantine);
            health.lines_seen += outcome.health.lines_seen;
            health.lines_skipped_malformed += outcome.health.malformed_skipped;
            health.lines_skipped_missing_topology += outcome.health.missing_topology_skipped;
            health.ledger.merge(&outcome.ledger);
            if let Some(partial) = outcome.partial {
                reduce.fold(*partial);
            }
            observer(chunk, &reduce)
        };

        let queue = StdChunkQueue::new(new_chunks);
        let workers = self.threads.min(new_chunks);
        let (tx, rx) = mpsc::channel::<(usize, ChunkResult)>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let chunks = &chunks;
                    let queue = &queue;
                    let tx = tx.clone();
                    scope.spawn(move || {
                        worker_loop(queue, |slot| {
                            let chunk = slot + first_chunk;
                            let result = process_chunk(
                                source,
                                transport,
                                classify,
                                self.strictness,
                                chunk,
                                chunks.shard_range(chunk),
                            );
                            let failed = result.is_err();
                            // A closed channel means the reassembly loop
                            // has already failed: stop claiming work.
                            if tx.send((chunk, result)).is_err() || failed {
                                ChunkStatus::Fatal
                            } else {
                                ChunkStatus::Done
                            }
                        });
                    })
                })
                .collect();
            drop(tx);
            let mut absorbed = reassemble(rx, first_chunk, &queue, &mut absorb);
            for handle in handles {
                if let Err(payload) = handle.join() {
                    // A panic that escaped the per-chunk isolation
                    // boundary — pool-level, not data-level, so any
                    // chunk error outranks it.
                    if absorbed.is_ok() {
                        absorbed = Err(PipelineError::Worker {
                            what: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
            absorbed
        })?;
        Ok((reduce.finish(), stats, health))
    }
}

/// One chunk's isolated processing result, as a worker sends it.
type ChunkResult = Result<ChunkOutcome, PipelineError>;

/// The streaming in-order reduce, run on the calling thread while the
/// workers run: receives chunk results as they land, parks any that
/// arrive ahead of their turn in a reorder buffer keyed by chunk, and
/// hands chunk `next` to `absorb` the moment it is present. Folding is
/// therefore in chunk order whatever the completion order, and a partial
/// stays resident only while an earlier chunk is still in flight.
///
/// The first `absorb` error — in chunk order, so the lowest-index chunk's
/// error, or an observer failure — aborts the queue and is returned;
/// dropping the receiver makes any worker still sending stop too.
fn reassemble(
    rx: mpsc::Receiver<(usize, ChunkResult)>,
    first_chunk: usize,
    queue: &StdChunkQueue,
    absorb: &mut impl FnMut(usize, ChunkResult) -> Result<(), PipelineError>,
) -> Result<(), PipelineError> {
    let mut pending = BTreeMap::new();
    let mut next = first_chunk;
    for (chunk, result) in rx {
        pending.insert(chunk, result);
        while let Some(result) = pending.remove(&next) {
            if let Err(err) = absorb(next, result) {
                queue.abort();
                return Err(err);
            }
            next += 1;
        }
    }
    // The channel closed with chunks still parked: a worker died outside
    // its chunk's isolation boundary and stranded the chunk it held (the
    // caller reports that panic). Nothing past the gap is folded, but a
    // chunk error parked there still outranks the pool-level panic.
    pending
        .into_values()
        .find_map(Result::err)
        .map_or(Ok(()), Err)
}
