//! `analyze_full`: what an analyst runs to get Table 1 — `run_source`
//! over the paper-scale on-disk corpus with two workers.
//!
//! Read+verify, parse, classify and fold do nearly all the work; the
//! checkpoint store and the daemon do none. Each measured call runs in a
//! child process of its own (see [`crate::child`]) with the page cache
//! warm from set-up. The check: every call's Table 1 and JSON summary
//! must equal the in-memory `SimSource` run's at the same scale and seed.
//! The summary's `chunks_total` line is left out of the comparison: the
//! automatic chunk plan sizes chunks from event-count estimates for the
//! simulator and from manifest bytes for a corpus, so the two sources
//! batch the same shards into different chunk counts by design.

use std::path::Path;

use ssfa::{FileSource, Pipeline};

use crate::child::{self, Request};
use crate::report::Outcome;
use crate::stats::median;
use crate::{corpus, layers, note, sys, Ctx};

/// The paper's fleet: 39,115 systems.
const SCALE: f64 = 1.0;
/// The CLI default on a 2-core machine.
const THREADS: usize = 2;
/// Measured calls after each set-up, at least.
const MIN_REPS: usize = 1;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let dir = ctx.work.path("corpus");
    let mut out = Outcome::default();
    let (mut setup_s, mut walls, mut rss, mut reports) = (vec![], vec![], vec![], vec![]);
    let mut payload = 0;
    for _ in 0..ctx.setups() {
        ctx.work.clear("corpus");
        let start = sys::now();
        let built = corpus::build(&dir, SCALE, ctx.seed);
        setup_s.push(sys::secs(start.elapsed()));
        payload = built.payload_bytes;
        if walls.is_empty() {
            println!(
                "analyze_full: scale {SCALE}, seed {}, {} shards, {payload} payload bytes, \
                 {} lines, {THREADS} workers",
                ctx.seed, built.shards, built.lines
            );
        }
        if ctx.trace {
            traced(ctx, &dir, &mut out);
            return out;
        }
        let start = sys::now();
        let mut reps = 0;
        while !ctx.block_done(start, reps, MIN_REPS) {
            let a = child::run(Request {
                corpus: &dir,
                threads: THREADS,
                mmap: false,
                resume: None,
            })
            .expect("analysis runs");
            walls.push(a.wall_s);
            rss.push(a.peak_rss_mib);
            reports.push((a.table1, a.summary));
            reps += 1;
        }
    }
    let wall = median(&walls);
    let mb = payload as f64 / 1e6;
    note(
        "analyze_mb_s",
        mb / wall,
        "MB/s",
        &format!("median of {} calls", walls.len()),
    );
    out.put("setup_s", median(&setup_s), "s");
    out.put("latency_ms", wall * 1e3, "ms");
    out.put("mb_s", mb / wall, "MB/s");
    out.put("peak_rss_mb", median(&rss), "MiB");
    check(ctx, &reports, &mut out);
    out
}

/// A summary without its `chunks_total` line.
fn without_chunks(summary: &str) -> String {
    summary
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"chunks_total\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compares every `(Table 1, summary)` with the in-memory simulation's.
fn check(ctx: &Ctx, reports: &[(String, String)], out: &mut Outcome) {
    let reference = Pipeline::new().scale(SCALE).seed(ctx.seed).threads(THREADS);
    let (study, health) = reference.run_with_health().expect("reference run");
    let table1 = corpus::table1_text(&study);
    let summary = without_chunks(&corpus::summary_json(&study, &health));
    for (t, s) in reports {
        out.attempted += 1;
        if *t != table1 || without_chunks(s) != summary {
            out.failed += 1;
            eprintln!(
                "analyze_full: output differs from the SimSource reference:\n{s}\nvs\n{summary}"
            );
        }
    }
    out.correct = out.failed == 0;
}

/// The traced run: the analysis call with and without a span per shard
/// load (the tracing overhead), then the per-layer probes.
fn traced(ctx: &Ctx, dir: &Path, out: &mut Outcome) {
    let pipeline = Pipeline::new().threads(THREADS);
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut reports = Vec::new();
    let mut last_op = 0;
    for _ in 0..2 {
        let source = FileSource::open(dir).expect("corpus opens");
        let start = sys::now();
        let (study, _, health) = pipeline.run_source(&source).expect("analysis runs");
        plain.push(sys::secs(start.elapsed()));
        reports.push((
            corpus::table1_text(&study),
            corpus::summary_json(&study, &health),
        ));

        let source = layers::Traced::new(FileSource::open(dir).expect("corpus opens"), &ctx.tracer);
        let start = sys::now();
        let (study, _, health) = ctx.tracer.span("pipeline.run_source", 0, |id| {
            last_op = id;
            source.under(id);
            pipeline.run_source(&source).expect("analysis runs")
        });
        spanned.push(sys::secs(start.elapsed()));
        reports.push((
            corpus::table1_text(&study),
            corpus::summary_json(&study, &health),
        ));
    }
    layers::overhead(ctx, &plain, &spanned, last_op, out);
    layers::probe(ctx, dir, out);
    check(ctx, &reports, out);
}
