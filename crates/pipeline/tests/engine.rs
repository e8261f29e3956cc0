//! Engine seam tests driven through custom [`Source`] implementations and
//! the [`Sink`] stage — the extension points the trait seams exist for —
//! including sources that force chunks to complete out of order, so the
//! in-order reduce, epoch, and error-precedence contracts are exercised
//! deterministically.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use ssfa_core::Study;
use ssfa_logs::checkpoint::{CheckpointReader, CheckpointWriter};
use ssfa_logs::store::{CorpusReader, CorpusWriter, Manifest};
use ssfa_logs::{CascadeStyle, ChunkPlan, Strictness, HEADER_LEN};
use ssfa_model::{FleetConfig, SystemClass, SystemId};
use ssfa_pipeline::{
    ChunkPolicy, FileSource, JsonSummarySink, ManifestSource, Pipeline, PipelineError, RunHealth,
    ShardData, Sink, Source, TextReportSink,
};

/// A source with nothing to yield: the engine must short-circuit without
/// planning chunks, spawning workers, or touching `load`.
struct EmptySource;

impl Source for EmptySource {
    fn shard_count(&self) -> usize {
        0
    }

    fn plan_chunks(&self, _policy: ChunkPolicy) -> ChunkPlan {
        ChunkPlan::whole(0)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        unreachable!("empty source asked to load shard {shard}")
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        unreachable!("empty source asked for systems of shard {shard}")
    }
}

/// The smallest legal pipeline: one class floored to one system.
fn tiny_pipeline() -> Pipeline {
    Pipeline::new()
        .seed(3)
        .config(
            FleetConfig::paper()
                .only_classes(&[SystemClass::LowEnd])
                .scaled(1e-9),
        )
        .threads(2)
}

#[test]
fn empty_source_yields_a_vacuously_complete_run() {
    for pipeline in [Pipeline::new(), Pipeline::new().lenient().text_transport()] {
        let (study, stats, health) = pipeline.run_source(&EmptySource).unwrap();
        assert!(study.input().failures.is_empty());
        assert!(study.input().topology.systems.is_empty());
        assert_eq!(stats.shards, 0);
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.total_bytes, 0);
        assert_eq!(health.shards_total, 0);
        assert_eq!(health.coverage(), 1.0, "empty run is vacuously complete");
        assert!(health.is_clean());
    }
}

#[test]
fn empty_source_reports_the_configured_strictness() {
    let (_, _, strict) = Pipeline::new().run_source(&EmptySource).unwrap();
    assert_eq!(strict.strictness, Strictness::Strict);
    let (_, _, lenient) = Pipeline::new().lenient().run_source(&EmptySource).unwrap();
    assert_eq!(lenient.strictness, Strictness::Lenient);
}

#[test]
fn sinks_receive_the_same_run_the_caller_gets_back() {
    let pipeline = tiny_pipeline();
    let (study, health) = pipeline.run_with_health().unwrap();
    let mut sink = TextReportSink::new(Vec::new());
    sink.consume(&study, &health).unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert!(
        text.contains(&format!("{health}").lines().next().unwrap().to_owned()),
        "sink text must carry the health audit:\n{text}"
    );
    assert_eq!(
        text.lines().count(),
        study.table1().len() + format!("{health}").lines().count(),
        "one line per Table 1 row plus the audit"
    );

    let mut json = JsonSummarySink::new(Vec::new());
    json.consume(&study, &health).unwrap();
    let text = String::from_utf8(json.into_inner()).unwrap();
    assert!(text.contains("\"schema\": \"ssfa-run-summary/v1\""));
    assert!(text.contains("\"shards_total\": 1"));
    assert!(text.contains("\"coverage\": 1.000000"));
}

#[test]
fn failing_sink_surfaces_as_a_sink_error() {
    /// A writer that always refuses.
    struct Refuse;
    impl std::io::Write for Refuse {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let (study, health) = tiny_pipeline().run_with_health().unwrap();
    let err = TextReportSink::new(Refuse)
        .consume(&study, &health)
        .map_err(PipelineError::Sink)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("sink") && msg.contains("disk full"),
        "unexpected error rendering: {msg}"
    );
}

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ssfa-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A one-shard-per-chunk, one-chunk-per-epoch pipeline over a small
/// corpus, so chunk, shard, and epoch indices coincide.
fn corpus_pipeline() -> Pipeline {
    Pipeline::new()
        .scale(0.001)
        .seed(11)
        .chunk_systems(1)
        .epoch_chunks(1)
}

/// Builds `corpus_pipeline`'s fleet into a corpus at `dir` and returns
/// its shard count (every shard lands in segment 0).
fn build_corpus(dir: &Path) -> usize {
    let pipeline = corpus_pipeline();
    let fleet = pipeline.build_fleet();
    let output = pipeline.simulate(&fleet);
    CorpusWriter::new(dir)
        .write(&fleet, &output, CascadeStyle::RaidOnly, 11)
        .expect("corpus builds");
    let shards = CorpusReader::open(dir).unwrap().shard_count();
    assert!(shards >= 8, "corpus too small to reorder: {shards} shards");
    shards
}

/// Flips the first payload byte of `shard`'s frame, so loading it fails
/// the frame checksum.
fn corrupt_shard(dir: &Path, shard: usize) {
    let entry = CorpusReader::open(dir).unwrap().manifest().shards[shard];
    let path = dir.join("segment-00000.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[entry.offset as usize + HEADER_LEN] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
}

/// The whole run as a consumer sees it: the text report and the JSON
/// summary, byte for byte.
fn report(study: &Study, health: &RunHealth) -> String {
    let mut text = TextReportSink::new(Vec::new());
    text.consume(study, health).unwrap();
    let mut json = JsonSummarySink::new(Vec::new());
    json.consume(study, health).unwrap();
    String::from_utf8(text.into_inner()).unwrap() + &String::from_utf8(json.into_inner()).unwrap()
}

fn table1(study: &Study) -> String {
    study
        .table1()
        .iter()
        .map(|row| format!("{row:?}\n"))
        .collect()
}

/// A one-way gate: waiters block until it is opened.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// Opens its gate when dropped. Parked in a thread-local, it opens the
/// gate when that thread exits.
struct OpenOnExit(Arc<Gate>);

impl Drop for OpenOnExit {
    fn drop(&mut self) {
        self.0.open();
    }
}

thread_local! {
    static OPEN_ON_EXIT: RefCell<Option<OpenOnExit>> = const { RefCell::new(None) };
}

/// A [`ManifestSource`] over a [`FileSource`] that forces out-of-order
/// completion: every load of shard `held` waits until the worker thread
/// that loaded shard `trigger` has exited, that is, until it has sent
/// every chunk it processed and left the pool. With two workers, the
/// other worker therefore finishes every chunk from `held + 1` through
/// `trigger` before `held`'s chunk can complete. No sleeps: the order is
/// forced, not likely.
struct HeldSource {
    inner: FileSource,
    held: usize,
    trigger: usize,
    gate: Arc<Gate>,
}

impl HeldSource {
    fn open(dir: &Path, held: usize, trigger: usize) -> HeldSource {
        HeldSource {
            inner: FileSource::open(dir).unwrap(),
            held,
            trigger,
            gate: Arc::default(),
        }
    }
}

impl Source for HeldSource {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        self.inner.plan_chunks(policy)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        if shard == self.trigger {
            let guard = OpenOnExit(Arc::clone(&self.gate));
            OPEN_ON_EXIT.with(|slot| *slot.borrow_mut() = Some(guard));
        }
        if shard == self.held {
            self.gate.wait();
        }
        self.inner.load(shard)
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        self.inner.system_ids(shard)
    }

    fn count_lines(&self, shard: usize) -> u64 {
        self.inner.count_lines(shard)
    }
}

impl ManifestSource for HeldSource {
    fn manifest(&self) -> &Manifest {
        self.inner.manifest()
    }
}

/// Chunk 0 completes last, after every other chunk has been sent: the
/// report is still byte-identical to a 1-worker run, a checkpointed run
/// writes its epochs in ascending order, and resuming from that store
/// equals a cold run.
#[test]
fn out_of_order_completion_folds_and_checkpoints_in_chunk_order() {
    let corpus = TempDir::new("reorder-corpus");
    let store = TempDir::new("reorder-store");
    let shards = build_corpus(&corpus.0);
    let last = shards - 1;

    let serial = corpus_pipeline().threads(1);
    let (study, _, health) = serial
        .run_source(&FileSource::open(&corpus.0).unwrap())
        .unwrap();
    let expected = report(&study, &health);

    let parallel = corpus_pipeline().threads(2);
    let (study, _, health) = parallel
        .run_source(&HeldSource::open(&corpus.0, 0, last))
        .unwrap();
    assert_eq!(report(&study, &health), expected, "run_source diverged");

    let (study, _, health) = parallel
        .run_source_checkpointed(&HeldSource::open(&corpus.0, 0, last), &store.0)
        .unwrap();
    assert_eq!(
        report(&study, &health),
        expected,
        "checkpointed run diverged"
    );
    let epochs = CheckpointReader::open(&store.0)
        .unwrap()
        .manifest()
        .epochs
        .clone();
    assert_eq!(epochs.len(), shards, "one epoch per chunk");
    for (index, epoch) in epochs.iter().enumerate() {
        assert_eq!(
            (epoch.shard_start, epoch.shard_end),
            (index, index + 1),
            "epoch {index} out of order"
        );
    }

    let cold = table1(&study);
    let source = FileSource::open(&corpus.0).unwrap();
    let (resumed, _, _) = parallel.resume_from(&source, &store.0).unwrap();
    assert_eq!(source.shard_reads(), 0, "a caught-up store reads nothing");
    assert_eq!(
        table1(&resumed),
        cold,
        "resume from the last epoch diverged"
    );

    let keep = shards / 2;
    CheckpointWriter::append_to(&store.0)
        .unwrap()
        .truncate_to(keep)
        .unwrap();
    let source = FileSource::open(&corpus.0).unwrap();
    let (resumed, _, _) = parallel.resume_from(&source, &store.0).unwrap();
    assert_eq!(source.shard_reads(), (shards - keep) as u64);
    assert_eq!(
        table1(&resumed),
        cold,
        "resume from a middle epoch diverged"
    );
}

/// Corrupt shards in chunks 2 and 5 of a strict run, with chunk 2 held
/// until chunk 5's worker has failed and left the pool: the error that
/// arrives second, chunk 2's, is the one returned, and the store holds
/// exactly the epochs before chunk 2.
#[test]
fn lowest_chunk_error_wins_when_a_higher_chunk_fails_first() {
    let corpus = TempDir::new("errors-corpus");
    let store = TempDir::new("errors-store");
    build_corpus(&corpus.0);
    let (low, high) = (2, 5);
    corrupt_shard(&corpus.0, low);
    corrupt_shard(&corpus.0, high);

    let err = corpus_pipeline()
        .threads(2)
        .run_source_checkpointed(&HeldSource::open(&corpus.0, low, high), &store.0)
        .unwrap_err();
    match &err {
        PipelineError::Worker { what } => assert!(
            what.starts_with(&format!("chunk {low} (shards {low}..{}, ", low + 1))
                && what.contains("frame checksum mismatch"),
            "the lower chunk's error must win: {what}"
        ),
        other => panic!("expected a worker abort, got {other:?}"),
    }

    let epochs = CheckpointReader::open(&store.0)
        .unwrap()
        .manifest()
        .epochs
        .clone();
    assert_eq!(epochs.len(), low, "exactly the epochs before chunk {low}");
    assert_eq!(epochs.last().map(|e| e.shard_end), Some(low));
}

/// A [`FileSource`] whose shard `bad` fails every load and whose
/// `system_ids` panics too, so the quarantine path itself panics, outside
/// the chunk's isolation boundary.
struct EscapingSource {
    inner: FileSource,
    bad: usize,
}

impl Source for EscapingSource {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        self.inner.plan_chunks(policy)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        assert_ne!(shard, self.bad, "shard {shard} is unreadable");
        self.inner.load(shard)
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        assert_ne!(shard, self.bad, "shard {shard} has no system ids");
        self.inner.system_ids(shard)
    }

    fn count_lines(&self, shard: usize) -> u64 {
        self.inner.count_lines(shard)
    }
}

/// A panic that escapes chunk isolation kills its worker before the chunk
/// is sent. The run neither hangs nor folds past the missing chunk: the
/// panic is reported once the pool has joined.
#[test]
fn panic_escaping_chunk_isolation_is_reported_after_join() {
    let corpus = TempDir::new("escape-corpus");
    build_corpus(&corpus.0);
    let source = EscapingSource {
        inner: FileSource::open(&corpus.0).unwrap(),
        bad: 3,
    };
    match corpus_pipeline().threads(2).lenient().run_source(&source) {
        Err(PipelineError::Worker { what }) => assert!(
            what.contains("shard 3 has no system ids"),
            "the escaped panic is reported: {what}"
        ),
        other => panic!("expected a worker error, got {other:?}"),
    }
}
