//! Per-layer probes for traced runs. Each probe times calls into one
//! layer's public functions from outside, recording a span around every
//! call; the metrics are sums, rates and percentiles over those spans.
//! Every traced run reports the same metric set, measured over that
//! workload's corpus (the daemon probes use at most [`BUS_FRAMES`] of
//! its frames; the checkpoint probes use fixed scales, see
//! [`CKPT_SCALES`]).

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ssfa::core::{StudyFold, SNAPSHOT_VERSION};
use ssfa::daemon::DEFAULT_SEGMENT_BYTES;
use ssfa::daemon::{Admission, BusConfig, IngestBus, Message, MessageKind, WriteAheadLog};
use ssfa::logs::checkpoint::{corpus_epoch_digest, CheckpointReader, CheckpointWriter};
use ssfa::logs::{
    checksum64, decode_frame, CascadeStyle, ChunkPlan, Classifier, CorpusReader, LogLineRef,
    Manifest, Strictness,
};
use ssfa::model::SystemId;
use ssfa::pipeline::{
    ChunkPolicy, JsonSummarySink, ManifestSource, RunHealth, ShardData, Sink, Source,
};
use ssfa::{FileSource, Pipeline};

use crate::child::{self, Request};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{self_time_ns, total_ns, Span, Tracer};
use crate::{corpus, ingest, note, sys, Ctx};

/// Frames the in-process bus probes use, at most.
const BUS_FRAMES: usize = 4096;
/// Scales of the checkpoint write-amplification probe. Linear growth of
/// the store would make the second's bytes twice the first's.
const CKPT_SCALES: [f64; 2] = [0.05, 0.1];
/// Epoch frames the direct `write_epoch` probe writes.
const CKPT_WRITE_EPOCHS: usize = 4;
/// Share of epochs the resume probe keeps, as if the last 5 % of the
/// corpus had just arrived.
const KEPT_SHARE: f64 = 0.95;

/// A [`Source`] that records a span around every shard load, as a child
/// of the span set with [`Traced::under`].
pub struct Traced<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    parent: AtomicU64,
}

impl<'t, S> Traced<'t, S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        Traced {
            inner,
            tracer,
            parent: AtomicU64::new(0),
        }
    }

    /// Makes later loads children of span `id`.
    pub fn under(&self, id: u64) {
        self.parent.store(id, Ordering::Relaxed);
    }
}

impl<S: Source> Source for Traced<'_, S> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        self.inner.plan_chunks(policy)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer
            .span("pipeline.source_load", parent, |_| self.inner.load(shard))
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        self.inner.system_ids(shard)
    }

    fn count_lines(&self, shard: usize) -> u64 {
        self.inner.count_lines(shard)
    }
}

impl<S: ManifestSource> ManifestSource for Traced<'_, S> {
    fn manifest(&self) -> &Manifest {
        self.inner.manifest()
    }
}

/// Reports the tracing overhead — median traced over median untraced
/// wall of the workload's operation — and the self time of the last
/// traced operation span (`op`): its duration minus what its children
/// cover.
pub fn overhead(ctx: &Ctx, plain: &[f64], spanned: &[f64], op: u64, out: &mut Outcome) {
    out.put(
        "trace.overhead_ratio",
        median(spanned) / median(plain),
        "ratio",
    );
    let spans = ctx.tracer.spans();
    let own = self_time_ns(&spans, op).expect("operation span recorded");
    out.put("trace.op_self_ms", own as f64 / 1e6, "ms");
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs every layer probe over the corpus at `dir`.
pub fn probe(ctx: &Ctx, dir: &Path, out: &mut Outcome) {
    let stages = ctx
        .tracer
        .span("probe.stages", 0, |id| stage_pass(ctx, id, dir, out));
    ctx.tracer
        .span("probe.engine", 0, |_| engine_runs(dir, stages, out));
    ctx.tracer
        .span("probe.checkpoint", 0, |id| checkpoint(ctx, id, out));
    ctx.tracer.span("probe.bus", 0, |id| bus(ctx, id, dir, out));
}

/// Stage times from the streaming pass, for the engine-overhead figure.
#[derive(Debug, Clone, Copy)]
struct Stages {
    lines: u64,
    read_text_ns: u64,
    classify_ns: u64,
    fold_ns: u64,
}

/// One pass over every shard, timing each layer's call on it in turn:
/// frame read+verify, checksum, text read, parse, classify, fold.
fn stage_pass(ctx: &Ctx, pass: u64, dir: &Path, out: &mut Outcome) -> Stages {
    let t = &ctx.tracer;
    let reader = CorpusReader::open(dir).expect("corpus opens");
    let mut fold = StudyFold::new();
    let (mut lines, mut payload_bytes) = (0u64, 0u64);
    for shard in 0..reader.shard_count() {
        let frame = t
            .span("logs.read_shard_frame", pass, |_| {
                reader.read_shard_frame(shard)
            })
            .expect("frame reads");
        let (_, payload) = decode_frame(&frame).expect("frame decodes");
        payload_bytes += payload.len() as u64;
        t.span("logs.checksum64", pass, |_| {
            black_box(checksum64(black_box(payload)))
        });
        let text = t
            .span("logs.read_shard_text", pass, |_| {
                reader.read_shard_text(shard)
            })
            .expect("text reads");
        lines += t.span("logs.parse", pass, |_| {
            let mut parsed = 0u64;
            for line in text.lines().filter_map(LogLineRef::parse) {
                black_box(line);
                parsed += 1;
            }
            parsed
        });
        let input = t.span("logs.classify", pass, |_| {
            let mut classifier = Classifier::new();
            classifier
                .feed_bytes(text.as_bytes())
                .expect("shard classifies");
            classifier.finish().expect("shard classifies")
        });
        t.span("core.fold_push", pass, |_| fold.push(input));
    }
    let study = t.span("core.finish", pass, |_| fold.clone().finish());
    t.span("core.table1", pass, |_| black_box(study.table1()));
    let snapshot = t.span("core.to_snapshot", pass, |_| fold.to_snapshot());
    let decoded = t.span("core.from_snapshot", pass, |_| {
        StudyFold::from_snapshot(&snapshot)
    });
    out.attempted += 1;
    if decoded.map(|f| f.finish().table1()) != Ok(study.table1()) {
        out.failed += 1;
        eprintln!("snapshot round trip changed Table 1");
    }
    t.span("pipeline.json_sink", pass, |_| {
        let mut sink = JsonSummarySink::new(Vec::new());
        sink.consume(&study, &RunHealth::default())
            .expect("Vec writes");
        black_box(sink.into_inner())
    });

    let spans = t.spans();
    let total = |name: &str| total_ns(&spans, name);
    let parse = total("logs.parse");
    let classify = total("logs.classify");
    out.put(
        "logs.read_frame_ms",
        ms(total("logs.read_shard_frame")),
        "ms",
    );
    out.put("logs.read_text_ms", ms(total("logs.read_shard_text")), "ms");
    out.put(
        "logs.checksum_mb_s",
        payload_bytes as f64 / 1e6 / (total("logs.checksum64") as f64 / 1e9),
        "MB/s",
    );
    out.put(
        "logs.parse_ns_per_line",
        parse as f64 / lines as f64,
        "ns/line",
    );
    out.put(
        "logs.classify_ns_per_line",
        classify.saturating_sub(parse) as f64 / lines as f64,
        "ns/line",
    );
    note(
        "logs.lines",
        lines as f64,
        "count",
        "base of the per-line figures",
    );
    note(
        "logs.payload_bytes",
        payload_bytes as f64,
        "bytes",
        "base of the MB/s figures",
    );
    out.put("core.fold_push_ms", ms(total("core.fold_push")), "ms");
    out.put("core.table1_ms", ms(total("core.table1")), "ms");
    out.put("core.finish_ms", ms(total("core.finish")), "ms");
    out.put(
        "core.snapshot_encode_ms",
        ms(total("core.to_snapshot")),
        "ms",
    );
    out.put(
        "core.snapshot_decode_ms",
        ms(total("core.from_snapshot")),
        "ms",
    );
    out.put("core.snapshot_bytes", snapshot.len() as f64, "bytes");
    out.put(
        "pipeline.json_sink_ms",
        ms(total("pipeline.json_sink")),
        "ms",
    );
    Stages {
        lines,
        read_text_ns: total("logs.read_shard_text"),
        classify_ns: classify,
        fold_ns: total("core.fold_push"),
    }
}

/// The engine at one and two workers and over the mmap source, each in a
/// child process; the three summaries must agree.
fn engine_runs(dir: &Path, stages: Stages, out: &mut Outcome) {
    let run = |threads, mmap| {
        child::run(Request {
            corpus: dir,
            threads,
            mmap,
            resume: None,
        })
        .expect("analysis runs")
    };
    let one = run(1, false);
    let two = run(2, false);
    let mapped = run(2, true);
    for other in [&two, &mapped] {
        out.attempted += 1;
        if other.summary != one.summary {
            out.failed += 1;
            eprintln!("engine summaries differ across workers or sources");
        }
    }
    let stage_s = (stages.read_text_ns + stages.classify_ns + stages.fold_ns) as f64 / 1e9;
    out.put("pipeline.run_1t_s", one.wall_s, "s");
    out.put("pipeline.speedup_2t", one.wall_s / two.wall_s, "ratio");
    out.put("pipeline.run_mmap_s", mapped.wall_s, "s");
    out.put("pipeline.mmap_rss_mb", mapped.peak_rss_mib, "MiB");
    out.put(
        "pipeline.engine_overhead_ms",
        (one.wall_s - stage_s) * 1e3,
        "ms",
    );
    out.put(
        "pipeline.max_shard_bytes",
        one.max_shard_bytes as f64,
        "bytes",
    );
    out.put("pipeline.chunks", one.chunks as f64, "count");
    out.put(
        "pipeline.allocs_per_line",
        one.allocs as f64 / stages.lines.max(1) as f64,
        "allocs/line",
    );
}

/// Checkpoint write amplification, restore, direct epoch writes, and
/// the shards a resume re-reads.
fn checkpoint(ctx: &Ctx, parent: u64, out: &mut Outcome) {
    let t = &ctx.tracer;
    let pipeline = Pipeline::new().threads(1);
    let mut bytes = Vec::new();
    for (i, &scale) in CKPT_SCALES.iter().enumerate() {
        let name = format!("ckpt-corpus-{i}");
        let store = format!("ckpt-store-{i}");
        ctx.work.clear(&name);
        ctx.work.clear(&store);
        corpus::build(&ctx.work.path(&name), scale, ctx.seed);
        let source = FileSource::open(ctx.work.path(&name)).expect("corpus opens");
        t.span("pipeline.run_source_checkpointed", parent, |_| {
            pipeline
                .run_source_checkpointed(&source, &ctx.work.path(&store))
                .expect("checkpointed run")
        });
        bytes.push(sys::dir_bytes(&ctx.work.path(&store)));
    }
    let last = CKPT_SCALES.len() - 1;
    let corpus_dir = ctx.work.path(&format!("ckpt-corpus-{last}"));
    let store = ctx.work.path(&format!("ckpt-store-{last}"));
    let corpus_manifest = corpus::manifest(&corpus_dir);
    let epochs = CheckpointReader::open(&store)
        .expect("store opens")
        .epoch_count();
    out.put(
        "logs.ckpt_growth_x",
        bytes[last] as f64 / bytes[0] as f64,
        "ratio",
    );
    out.put("logs.ckpt_bytes_written", bytes[last] as f64, "bytes");
    out.put("logs.ckpt_epochs_written", epochs as f64, "count");

    let payload = t.span("logs.ckpt_restore", parent, |_| {
        let reader = CheckpointReader::open(&store).expect("store opens");
        reader
            .manifest()
            .validate_against(&corpus_manifest)
            .expect("store matches corpus");
        reader.read_epoch(epochs - 1).expect("epoch reads")
    });
    let spans = t.spans();
    out.put(
        "logs.ckpt_restore_ms",
        ms(total_ns(&spans, "logs.ckpt_restore")),
        "ms",
    );

    // Direct epoch writes of the newest snapshot into a fresh store.
    ctx.work.clear("ckpt-direct");
    let mut writer = CheckpointWriter::create(
        &ctx.work.path("ckpt-direct"),
        SNAPSHOT_VERSION,
        ctx.seed,
        CascadeStyle::RaidOnly,
    )
    .expect("store creates");
    let per = corpus_manifest.shards.len() / CKPT_WRITE_EPOCHS;
    let mut write_ms = Vec::new();
    for e in 0..CKPT_WRITE_EPOCHS {
        let shards = e * per..(e + 1) * per;
        let digest = corpus_epoch_digest(&corpus_manifest, shards.clone());
        let start = t.now_ns();
        writer
            .write_epoch(shards, 1, digest, &payload)
            .expect("epoch writes");
        let end = t.now_ns();
        t.record(t.reserve(), parent, "logs.write_epoch", start, end);
        write_ms.push(ms(end - start));
    }
    out.put("logs.ckpt_write_ms", median(&write_ms), "ms");
    ctx.work.clear("ckpt-direct");

    // Keep the first 95 % of epochs, then resume over the whole corpus.
    let keep = ((epochs as f64 * KEPT_SHARE) as usize).max(1);
    CheckpointWriter::append_to(&store)
        .and_then(|mut w| w.truncate_to(keep))
        .expect("store truncates");
    let source = FileSource::open(&corpus_dir).expect("corpus opens");
    let (study, _, _) = t.span("pipeline.resume_from", parent, |_| {
        pipeline.resume_from(&source, &store).expect("resume runs")
    });
    out.put(
        "pipeline.suffix_shard_reads",
        source.shard_reads() as f64,
        "count",
    );
    let cold = FileSource::open(&corpus_dir).expect("corpus opens");
    let (cold, _, _) = pipeline.run_source(&cold).expect("cold run");
    out.attempted += 1;
    if corpus::table1_text(&study) != corpus::table1_text(&cold) {
        out.failed += 1;
        eprintln!("resumed Table 1 differs from the cold run");
    }
    for i in 0..CKPT_SCALES.len() {
        ctx.work.clear(&format!("ckpt-corpus-{i}"));
        ctx.work.clear(&format!("ckpt-store-{i}"));
    }
}

/// Microseconds of each span called `name`.
fn span_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// The in-process ingest bus: envelope encoding, direct WAL appends,
/// open-loop admission under STATUS polling, absorption, WAL replay.
fn bus(ctx: &Ctx, parent: u64, dir: &Path, out: &mut Outcome) {
    let t = &ctx.tracer;
    let reader = CorpusReader::open(dir).expect("corpus opens");
    let n = reader.shard_count().min(BUS_FRAMES);
    let frames: Vec<Vec<u8>> = (0..n)
        .map(|i| reader.read_shard_frame(i).expect("frame reads"))
        .collect();
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();

    for (seq, frame) in frames.iter().enumerate() {
        let msg = Message {
            kind: MessageKind::Data,
            seq: seq as u64,
            body: frame.clone(),
        };
        t.span("daemon.to_frame", parent, |_| black_box(msg.to_frame()));
    }

    ctx.work.clear("wal-direct");
    let (wal, _) =
        WriteAheadLog::open(ctx.work.path("wal-direct"), DEFAULT_SEGMENT_BYTES).expect("WAL opens");
    for (seq, frame) in frames.iter().enumerate() {
        t.span("daemon.wal_append", parent, |_| {
            wal.append("probe", Strictness::Strict, "s", seq as u64, frame)
                .expect("WAL appends")
        });
    }
    drop(wal);
    let wal_bytes = sys::dir_bytes(&ctx.work.path("wal-direct"));
    t.span("daemon.wal_replay", parent, |_| {
        let (wal, records) =
            WriteAheadLog::open(ctx.work.path("wal-direct"), DEFAULT_SEGMENT_BYTES)
                .expect("WAL reopens");
        let bus = Arc::new(IngestBus::with_wal(BusConfig::default(), Arc::new(wal)));
        bus.replay_wal(records);
        bus
    })
    .drain();
    ctx.work.clear("wal-direct");

    let (admitted, shed) = open_loop_admission(ctx, parent, &frames, out);

    // Absorption: fill a bus that can queue everything, then drain it.
    let full = Arc::new(IngestBus::new(BusConfig {
        queue_capacity: n + 1,
        ..BusConfig::default()
    }));
    full.hello("probe", "s", Strictness::Strict).expect("hello");
    let start = sys::now();
    for (seq, frame) in frames.iter().enumerate() {
        full.admit("probe", "s", seq as u64, frame.clone());
    }
    let report = full.drain();
    let absorb_s = sys::secs(start.elapsed());
    out.attempted += 1;
    if report.len() != 1
        || report[0].health.shards_processed != n
        || report[0].quarantined.is_some()
    {
        out.failed += 1;
        eprintln!("in-process bus did not absorb every frame");
    }

    let spans = t.spans();
    let to_frame = span_us(&spans, "daemon.to_frame");
    let appends = span_us(&spans, "daemon.wal_append");
    let admits = span_us(&spans, "daemon.admit");
    let status = span_us(&spans, "daemon.status");
    let late = span_us(&spans, "probe.generator_late");
    out.put("daemon.to_frame_us", median(&to_frame), "us");
    out.put("daemon.admit_us_p50", median(&admits), "us");
    out.put("daemon.admit_us_p99", percentile(&admits, 99.0), "us");
    out.put("daemon.wal_append_us_p50", median(&appends), "us");
    out.put("daemon.wal_append_us_p99", percentile(&appends, 99.0), "us");
    out.put(
        "daemon.wal_bytes_per_frame_byte",
        wal_bytes as f64 / frame_bytes as f64,
        "ratio",
    );
    out.put("daemon.status_ms", median(&status) / 1e3, "ms");
    out.put("daemon.absorb_fps", n as f64 / absorb_s, "1/s");
    out.put(
        "daemon.admit_ratio",
        admitted as f64 / (admitted + shed) as f64,
        "ratio",
    );
    out.put(
        "daemon.wal_replay_ms",
        ms(total_ns(&spans, "daemon.wal_replay")),
        "ms",
    );
    out.put(
        "daemon.generator_late_ms",
        percentile(&late, 99.0) / 1e3,
        "ms",
    );
}

/// Admits `frames` into a WAL-backed bus on the daemon workload's open
/// loop schedule while a second thread polls `IngestBus::status` at its
/// STATUS rate. Returns `(frames admitted, frames shed)`.
fn open_loop_admission(
    ctx: &Ctx,
    parent: u64,
    frames: &[Vec<u8>],
    out: &mut Outcome,
) -> (u64, u64) {
    let t = &ctx.tracer;
    ctx.work.clear("wal-bus");
    let (wal, _) =
        WriteAheadLog::open(ctx.work.path("wal-bus"), DEFAULT_SEGMENT_BYTES).expect("WAL opens");
    let bus = Arc::new(IngestBus::with_wal(BusConfig::default(), Arc::new(wal)));
    bus.hello("probe", "s", Strictness::Strict).expect("hello");
    let stop = AtomicBool::new(false);
    let start = sys::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / ingest::RATE_FPS);
    let (mut admitted, mut shed) = (0u64, 0u64);
    // lint: allow(no-raw-spawn) the STATUS poller, joined by the scope
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut polls = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let next = start + Duration::from_secs_f64(polls as f64 / ingest::STATUS_HZ);
                if let Some(wait) = next.checked_duration_since(sys::now()) {
                    std::thread::sleep(wait);
                }
                t.span("daemon.status", parent, |_| {
                    bus.status("probe").expect("tenant known")
                });
                polls += 1;
            }
        });
        for (seq, frame) in frames.iter().enumerate() {
            if let Some(wait) = due(seq).checked_duration_since(sys::now()) {
                std::thread::sleep(wait);
            }
            let woke = t.now_ns();
            let late = sys::now().saturating_duration_since(due(seq));
            t.record(
                t.reserve(),
                parent,
                "probe.generator_late",
                woke,
                woke + late.as_nanos() as u64,
            );
            match t.span("daemon.admit", parent, |_| {
                bus.admit("probe", "s", seq as u64, frame.clone())
            }) {
                Admission::Admitted => admitted += 1,
                _ => shed += 1,
            }
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("status poller");
    });
    let report = bus.drain();
    out.attempted += frames.len() as u64;
    out.failed += shed;
    if report.iter().any(|r| r.quarantined.is_some()) {
        out.failed += 1;
        eprintln!("in-process bus quarantined the probe tenant");
    }
    ctx.work.clear("wal-bus");
    (admitted, shed)
}
