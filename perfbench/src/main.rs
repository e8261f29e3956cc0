//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <analyze_full|refresh_append|daemon_ingest>
//!           --seed <n> --seconds <n> --trace <0|1> [--ssfad <path>]
//! ```
//!
//! Builds the workload's inputs from the seed, measures for about
//! `--seconds`, checks every output against an independent reference,
//! and prints one JSON result line last. With `--trace 0` the line holds
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics from spans recorded around the program's public calls, and
//! the spans are written to `.bench_out/`. See `perfbench/NOTES.md`.

mod alloc;
mod analyze;
mod child;
mod corpus;
mod ingest;
mod layers;
mod refresh;
mod report;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;
use sys::WorkDir;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where runs keep their scratch files and trace output, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";
const OUT_DIR: &str = ".bench_out";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One run's settings and shared state.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase should last.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// The `ssfad` binary.
    pub ssfad: PathBuf,
    /// Scratch space, removed at exit.
    pub work: WorkDir,
    /// Spans of a traced run.
    pub tracer: Tracer,
}

impl Ctx {
    /// How many set-ups to time.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// Whether a measured phase begun at `start` has run its share of
    /// `--seconds` with at least `min_reps` repetitions done. An untraced
    /// run measures one block after each of its set-ups, so its
    /// repetitions spread over the whole run and a slow spell of the
    /// machine weighs on fewer of them.
    pub fn block_done(&self, start: Instant, reps: usize, min_reps: usize) -> bool {
        let share = self.seconds / self.setups() as f64;
        reps >= min_reps && start.elapsed() >= Duration::from_secs_f64(share)
    }
}

/// Prints a named figure for the log (the result line comes last).
pub fn note(name: &str, value: f64, unit: &str, detail: &str) {
    println!("{name} = {value:.4} {unit}  {detail}");
}

const USAGE: &str = "usage: perfbench --workload <analyze_full|refresh_append|daemon_ingest> \
                     --seed <n> --seconds <n> --trace <0|1> [--ssfad <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return match args.get(1).map(String::as_str) {
            Some("analyze") => child::main(&args[2..]),
            _ => {
                eprintln!("unknown child role");
                ExitCode::from(2)
            }
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let mut ssfad = PathBuf::from(target).join("release/ssfad");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_owned()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            ("--ssfad", Some(v)) => ssfad = PathBuf::from(v),
            _ => {
                eprintln!("bad argument `{flag}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let run: fn(&Ctx) -> Outcome = match workload.as_str() {
        "analyze_full" => analyze::run,
        "refresh_append" => refresh::run,
        "daemon_ingest" => ingest::run,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "daemon_ingest" && !ssfad.is_file() {
        eprintln!("ssfad binary not found at {}", ssfad.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        ssfad,
        work: WorkDir::new(std::path::Path::new(WORK_DIR), &workload),
        tracer: Tracer::new(),
    };
    let outcome = run(&ctx);
    if trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-{seed}.jsonl"));
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| ctx.tracer.write_jsonl(&path));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    drop(ctx);
    let line = outcome.to_json();
    // The line must read back as what was measured.
    assert_eq!(
        Outcome::parse(&line).as_ref(),
        Ok(&outcome),
        "result line round trip"
    );
    println!("{line}");
    ExitCode::SUCCESS
}
