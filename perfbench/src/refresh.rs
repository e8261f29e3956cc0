//! `refresh_append`: the monthly "new logs arrived" operation —
//! `resume_from` with one worker and the default epoch size over a
//! corpus whose checkpoint store was staged on its first 95 % of shards.
//!
//! Checkpoint restore, snapshot encoding, FNV checksums and `sync_all`
//! epoch writes do most of the work; parse and classify touch only the
//! new 5 % of lines. The run is at scale 0.1 because at scale 1.0 the
//! default epoch size rewrites a fold snapshot of up to 64 MB per epoch
//! and fills the disk (see `NOTES.md`); the per-layer
//! `logs.ckpt_growth_x` keeps that growth visible.
//!
//! The check: every refresh's Table 1 and study summary must equal a
//! cold `run_source` over the whole corpus, and its run-health counters
//! must account for exactly the shards and lines past the restored
//! epoch.

use std::path::Path;

use ssfa::logs::checkpoint::{CheckpointReader, CheckpointWriter};
use ssfa::{FileSource, Pipeline};

use crate::child::{self, Analysis, Request};
use crate::report::Outcome;
use crate::stats::median;
use crate::{corpus, layers, note, sys, Ctx};

/// A tenth of the paper's fleet: 3,911 systems.
const SCALE: f64 = 0.1;
/// One engine worker, as an incremental job would run.
const THREADS: usize = 1;
/// Share of shards the checkpoint was staged on.
const STAGED_SHARE: f64 = 0.95;
/// Measured refreshes after each set-up, at least.
const MIN_REPS: usize = 2;

/// Builds the corpus and stages the checkpoint store on its prefix.
fn set_up(ctx: &Ctx) -> u64 {
    for name in ["corpus", "prefix", "store"] {
        ctx.work.clear(name);
    }
    let full = ctx.work.path("corpus");
    let built = corpus::build(&full, SCALE, ctx.seed);
    let keep = (built.shards as f64 * STAGED_SHARE) as usize;
    corpus::prefix(&full, &ctx.work.path("prefix"), keep);
    let source = FileSource::open(ctx.work.path("prefix")).expect("prefix opens");
    Pipeline::new()
        .threads(THREADS)
        .run_source_checkpointed(&source, &ctx.work.path("store"))
        .expect("staging run");
    built.payload_bytes
}

/// Epochs in the store.
fn epochs(store: &Path) -> Vec<ssfa::logs::EpochEntry> {
    CheckpointReader::open(store)
        .expect("store opens")
        .manifest()
        .epochs
        .clone()
}

/// Puts the store back to the epochs every refresh starts from.
fn rewind(store: &Path, keep: usize) {
    CheckpointWriter::append_to(store)
        .and_then(|mut w| w.truncate_to(keep))
        .expect("store rewinds");
}

/// The cold run over the whole corpus that every refresh must match.
fn reference(full: &Path) -> Reference {
    let source = FileSource::open(full).expect("corpus opens");
    let (cold, _, cold_health) = Pipeline::new()
        .threads(THREADS)
        .run_source(&source)
        .expect("cold reference");
    Reference {
        table1: corpus::table1_text(&cold),
        summary: corpus::summary_json(&cold, &cold_health),
        line_counts: corpus::manifest(full)
            .shards
            .iter()
            .map(|s| s.line_count)
            .collect(),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let full = ctx.work.path("corpus");
    let store = ctx.work.path("store");
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut runs: Vec<Analysis> = Vec::new();
    let (mut payload, mut store_bytes) = (0, 0);
    for _ in 0..ctx.setups() {
        let start = sys::now();
        payload = set_up(ctx);
        setup_s.push(sys::secs(start.elapsed()));
        let staged = epochs(&store);
        if runs.is_empty() {
            println!(
                "refresh_append: scale {SCALE}, seed {}, {payload} payload bytes, {} staged epochs",
                ctx.seed,
                staged.len()
            );
        }
        if ctx.trace {
            traced(ctx, &full, &store, &staged, &reference(&full), &mut out);
            out.correct = out.failed == 0;
            return out;
        }
        let mut keep = staged.len();
        let start = sys::now();
        let mut reps = 0;
        while !ctx.block_done(start, reps, MIN_REPS) {
            let a = child::run(Request {
                corpus: &full,
                threads: THREADS,
                mmap: false,
                resume: Some(&store),
            })
            .expect("refresh runs");
            if reps == 0 {
                // The resume may drop a staged epoch that no longer ends on
                // a chunk boundary; later refreshes start where it restored.
                keep = common_prefix(&staged, &epochs(&store));
                store_bytes = sys::dir_bytes(&store);
            }
            rewind(&store, keep);
            runs.push(a);
            reps += 1;
        }
    }
    let reference = reference(&full);
    for a in &runs {
        reference.check(
            &a.table1,
            &a.summary,
            a.shards_total,
            a.lines_seen,
            a.shard_reads,
            &mut out,
        );
    }
    let walls: Vec<f64> = runs.iter().map(|a| a.wall_s).collect();
    let rss: Vec<f64> = runs.iter().map(|a| a.peak_rss_mib).collect();
    let wall = median(&walls);
    let detail = format!("median of {} refreshes", walls.len());
    note("refresh_s", wall, "s", &detail);
    note(
        "store_bytes_per_corpus_byte",
        store_bytes as f64 / payload as f64,
        "ratio",
        &format!("{store_bytes} store bytes after a refresh"),
    );
    note(
        "suffix_shard_reads",
        runs[0].shard_reads as f64,
        "count",
        "shards a refresh re-reads",
    );
    out.put("setup_s", median(&setup_s), "s");
    out.put("latency_ms", wall * 1e3, "ms");
    out.put("mb_s", payload as f64 / 1e6 / wall, "MB/s");
    out.put("peak_rss_mb", median(&rss), "MiB");
    out.correct = out.failed == 0;
    out
}

/// Leading epochs two store manifests share.
fn common_prefix(a: &[ssfa::logs::EpochEntry], b: &[ssfa::logs::EpochEntry]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// What a refresh must reproduce: the cold run's outputs.
struct Reference {
    table1: String,
    summary: String,
    /// Lines per corpus shard, for the increment's accounting.
    line_counts: Vec<u64>,
}

impl Reference {
    /// Checks one refresh: Table 1 and the study part of the summary
    /// byte-equal to the cold run's; the health counters cover exactly
    /// the shards the refresh read, and restored plus refolded lines add
    /// up to the cold run's.
    fn check(
        &self,
        table1: &str,
        summary: &str,
        shards_total: u64,
        lines_seen: u64,
        shard_reads: u64,
        out: &mut Outcome,
    ) {
        out.attempted += 1;
        let restored = self.line_counts.len() as u64 - shards_total;
        let restored_lines: u64 = self.line_counts[..restored as usize].iter().sum();
        let cold_lines = corpus::summary_field(&self.summary, "lines_seen");
        let ok = table1 == self.table1
            && corpus::study_lines(summary) == corpus::study_lines(&self.summary)
            && shards_total == shard_reads
            && corpus::summary_field(summary, "shards_processed") == Some(shards_total)
            && Some(restored_lines + lines_seen) == cold_lines;
        if !ok {
            out.failed += 1;
            eprintln!(
                "refresh_append: refresh differs from the cold run:\n{summary}\nvs\n{}",
                self.summary
            );
        }
    }
}

/// The traced run: refreshes with and without a span per shard load
/// (the tracing overhead), then the per-layer probes.
fn traced(
    ctx: &Ctx,
    full: &Path,
    store: &Path,
    staged: &[ssfa::logs::EpochEntry],
    reference: &Reference,
    out: &mut Outcome,
) {
    let pipeline = Pipeline::new().threads(THREADS);
    let mut keep = staged.len();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut last_op = 0;
    for rep in 0..3 {
        let source = FileSource::open(full).expect("corpus opens");
        let start = sys::now();
        let (study, _, health) = pipeline.resume_from(&source, store).expect("refresh runs");
        plain.push(sys::secs(start.elapsed()));
        let summary = corpus::summary_json(&study, &health);
        let table1 = corpus::table1_text(&study);
        let shards = health.shards_total as u64;
        reference.check(
            &table1,
            &summary,
            shards,
            health.lines_seen,
            source.shard_reads(),
            out,
        );
        if rep == 0 {
            keep = common_prefix(staged, &epochs(store));
        }
        rewind(store, keep);

        let source =
            layers::Traced::new(FileSource::open(full).expect("corpus opens"), &ctx.tracer);
        let start = sys::now();
        ctx.tracer.span("pipeline.resume_from", 0, |id| {
            last_op = id;
            source.under(id);
            pipeline.resume_from(&source, store).expect("refresh runs")
        });
        spanned.push(sys::secs(start.elapsed()));
        rewind(store, keep);
    }
    layers::overhead(ctx, &plain, &spanned, last_op, out);
    layers::probe(ctx, full, out);
}
