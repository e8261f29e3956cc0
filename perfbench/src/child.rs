//! One analysis call in a child process of its own, so its wall time and
//! peak resident memory are measured apart from the benchmark's heap
//! (corpus simulation, reference runs).
//!
//! The parent runs `perfbench --child analyze --corpus <dir> --threads <n>
//! [--mmap] [--resume <ckpt>]`; the child makes exactly one
//! `Pipeline::run_source` (or `resume_from`) call and prints the summary,
//! Table 1 and a `RESULT` line of `key=value` figures.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ssfa::pipeline::Source;
use ssfa::{FileSource, MmapSource, Pipeline};

use crate::{alloc, corpus, sys};

/// What one child analysis reports.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Wall time of the analysis call alone.
    pub wall_s: f64,
    /// The child's peak resident set.
    pub peak_rss_mib: f64,
    /// Allocation calls made during the analysis call.
    pub allocs: u64,
    /// Shard payloads the source served.
    pub shard_reads: u64,
    /// Chunks the engine planned.
    pub chunks: u64,
    /// Largest shard held at once.
    pub max_shard_bytes: u64,
    /// Shards the run covered (its increment, for a resume).
    pub shards_total: u64,
    /// Lines the run classified.
    pub lines_seen: u64,
    /// The `JsonSummarySink` document.
    pub summary: String,
    /// Table 1.
    pub table1: String,
}

/// How to analyze.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Corpus directory.
    pub corpus: &'a Path,
    /// Engine workers.
    pub threads: usize,
    /// `MmapSource` instead of `FileSource`.
    pub mmap: bool,
    /// Resume from (and checkpoint into) this store.
    pub resume: Option<&'a Path>,
}

/// Runs one analysis in a child process and collects its report.
///
/// # Errors
///
/// The child's failure, or output that does not parse.
pub fn run(req: Request<'_>) -> Result<Analysis, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "analyze", "--corpus"])
        .arg(req.corpus)
        .args(["--threads", &req.threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if req.mmap {
        cmd.arg("--mmap");
    }
    if let Some(ckpt) = req.resume {
        cmd.arg("--resume").arg(ckpt);
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child analysis failed: {}", out.status));
    }
    parse(&String::from_utf8_lossy(&out.stdout))
}

fn parse(text: &str) -> Result<Analysis, String> {
    let section = |from: &str, to: &str| -> Result<String, String> {
        let start = text.find(from).ok_or(format!("no {from}"))? + from.len();
        let end = text[start..].find(to).ok_or(format!("no {to}"))? + start;
        Ok(text[start..end].to_owned())
    };
    let summary = section("SUMMARY\n", "TABLE1\n")?;
    let table1 = section("TABLE1\n", "RESULT ")?;
    let result = text
        .lines()
        .find_map(|l| l.strip_prefix("RESULT "))
        .ok_or("no RESULT line")?;
    let field = |key: &str| -> Result<f64, String> {
        result
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or(format!("RESULT lacks {key}"))
    };
    Ok(Analysis {
        wall_s: field("wall_s")?,
        peak_rss_mib: field("peak_rss_mib")?,
        allocs: field("allocs")? as u64,
        shard_reads: field("shard_reads")? as u64,
        chunks: field("chunks")? as u64,
        max_shard_bytes: field("max_shard_bytes")? as u64,
        shards_total: field("shards_total")? as u64,
        lines_seen: field("lines_seen")? as u64,
        summary,
        table1,
    })
}

/// The child side: `args` are everything after `--child analyze`.
pub fn main(args: &[String]) -> ExitCode {
    let mut corpus_dir: Option<PathBuf> = None;
    let mut threads = 1usize;
    let mut mmap = false;
    let mut resume: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--corpus" => corpus_dir = it.next().map(PathBuf::from),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--mmap" => mmap = true,
            "--resume" => resume = it.next().map(PathBuf::from),
            other => {
                eprintln!("child: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(dir), true) = (corpus_dir, threads > 0) else {
        eprintln!("child: need --corpus <dir> and --threads <n >= 1>");
        return ExitCode::from(2);
    };
    let pipeline = Pipeline::new().threads(threads);
    let outcome = if mmap {
        let source = MmapSource::open(&dir).map_err(|e| e.to_string());
        source.and_then(|s| analyze(&pipeline, &s, resume.as_deref(), || s.shard_reads()))
    } else {
        let source = FileSource::open(&dir).map_err(|e| e.to_string());
        source.and_then(|s| analyze(&pipeline, &s, resume.as_deref(), || s.shard_reads()))
    };
    match outcome {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn analyze<S: ssfa::pipeline::ManifestSource>(
    pipeline: &Pipeline,
    source: &S,
    resume: Option<&Path>,
    shard_reads: impl Fn() -> u64,
) -> Result<String, String> {
    let allocs = alloc::allocations();
    let start = sys::now();
    let run = match resume {
        Some(ckpt) => pipeline.resume_from(source, ckpt),
        None => pipeline.run_source(source as &dyn Source),
    };
    let wall = start.elapsed();
    let allocs = alloc::allocations() - allocs;
    let (study, stats, health) = run.map_err(|e| e.to_string())?;
    let peak = sys::peak_rss_kib(None).ok_or("no VmHWM")?;
    Ok(format!(
        "SUMMARY\n{}TABLE1\n{}RESULT wall_s={} peak_rss_mib={} allocs={allocs} shard_reads={} \
         chunks={} max_shard_bytes={} shards_total={} lines_seen={}\n",
        corpus::summary_json(&study, &health),
        corpus::table1_text(&study),
        wall.as_secs_f64(),
        sys::mib(peak),
        shard_reads(),
        stats.chunks,
        stats.max_shard_bytes,
        health.shards_total,
        health.lines_seen,
    ))
}
