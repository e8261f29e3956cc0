//! `daemon_ingest`: the always-on ingest path. `ssfad serve --wal` runs
//! as a child process; this process is the traffic generator, with two
//! threads and two loopback connections:
//!
//! - connection A sends every shard frame of a scale-0.1 corpus as DATA
//!   in an **open loop** at [`RATE_FPS`], each followed by a HEARTBEAT so
//!   its ACK comes straight back. Each frame's ACK latency is timed from
//!   the frame's *due* time, so a stall is charged to every frame it
//!   delays;
//! - connection B asks for the tenant's STATUS at [`STATUS_HZ`]. STATUS
//!   clones the tenant's fold under the lock admission needs, so this is
//!   the writes-beside-reads case.
//!
//! Wire framing, admission, the WAL append and the absorber do the work.
//! The check: the live summary once every frame is absorbed, and the
//! summary the daemon prints when drained, must both equal the offline
//! `JsonSummarySink` over the same corpus. Every shed or never-acked
//! frame, refused STATUS, quarantine or mismatch counts as a failure. A
//! run whose generator fell behind its own schedule is marked invalid.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ssfa::daemon::{read_message, Cursor, Hello, Message, MessageKind};
use ssfa::logs::{CorpusReader, FrameHeader, Strictness, HEADER_LEN};
use ssfa::{FileSource, Pipeline};

use crate::report::Outcome;
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use crate::{corpus, layers, note, sys, Ctx};

/// A tenth of the paper's fleet: 3,911 frames per ingest.
const SCALE: f64 = 0.1;
/// DATA frames per second. Calibrated once at seed 2008 against the
/// first rate that shed (see `NOTES.md`).
pub const RATE_FPS: f64 = 500.0;
/// STATUS requests per second on connection B.
pub const STATUS_HZ: f64 = 10.0;
/// A run is invalid when the generator's p99 lateness exceeds this.
const LATE_LIMIT_MS: f64 = 20.0;
/// The `max_fps` ladder: rates tried in order, each for at most
/// [`RUNG_SECONDS`] of frames, and the ACK tail each must stay under
/// (with nothing shed and the backlog drained within [`LAG_LIMIT_MS`]).
const LADDER_FPS: [f64; 6] = [500.0, 750.0, 1000.0, 1500.0, 2000.0, 3000.0];
const RUNG_SECONDS: f64 = 2.0;
const ACK_TAIL_LIMIT_MS: f64 = 50.0;
const LAG_LIMIT_MS: f64 = 250.0;
/// How long without a new ACK, after the last frame went out, counts as
/// a stalled stream.
const STALL: Duration = Duration::from_secs(3);
const TENANT: &str = "bench";
const SESSION: &str = "ingest";

/// One ingest's figures.
#[derive(Debug, Default)]
struct Ingest {
    frames: usize,
    acked: usize,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    status_ms: Vec<f64>,
    status_refused: u64,
    quarantined: bool,
    frames_shed: u64,
    /// Last frame due → every frame absorbed.
    result_lag_ms: f64,
    /// First frame due → every frame absorbed.
    span_s: f64,
    live_summary: String,
    drained_summary: String,
    peak_rss_mib: f64,
}

impl Ingest {
    /// Failed operations: never-acked frames, refused STATUS, a
    /// quarantine, and each summary that differs from `expected`.
    /// A shed frame is never acked (the generator does not retransmit),
    /// so it is counted once, among the never-acked.
    fn failures(&self, expected: &str) -> u64 {
        let mut failed = (self.frames - self.acked) as u64 + self.status_refused;
        failed += u64::from(self.quarantined);
        failed += u64::from(self.live_summary != expected);
        failed += u64::from(self.drained_summary != expected);
        failed
    }

    /// Operations attempted: frames, STATUS requests, two comparisons.
    fn attempts(&self) -> u64 {
        (self.frames + self.status_ms.len()) as u64 + self.status_refused + 2
    }
}

/// A running `ssfad serve`.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Starts `ssfad serve --wal <wal>` on a free loopback port.
    fn start(ssfad: &Path, wal: &Path) -> Server {
        let mut child = Command::new(ssfad)
            .args(["serve", "--addr", "127.0.0.1:0", "--wal"])
            .arg(wal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("ssfad starts");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("ssfad prints its address");
        let addr = line
            .trim()
            .strip_prefix("ssfad listening on ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected ssfad greeting `{line}`"));
        Server {
            child,
            stdin,
            stdout,
            addr,
        }
    }

    /// Closes stdin (the drain signal), reads everything the daemon
    /// prints, waits for it to exit, and returns the tenant's drained
    /// summary.
    fn finish(mut self) -> String {
        drop(self.stdin.take());
        let mut text = String::new();
        let _ = self.stdout.read_to_string(&mut text);
        let status = self.child.wait().expect("ssfad exits");
        assert!(status.success(), "ssfad exited with {status}");
        let marker = format!("--- tenant {TENANT} ---\n");
        let Some(start) = text.find(&marker).map(|i| i + marker.len()) else {
            return String::new();
        };
        let body = &text[start..];
        body.find("\n}\n")
            .map_or_else(String::new, |end| body[..end + 3].to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached with the child still running on a failure path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Inputs shared by every ingest of a run.
struct Frames {
    /// Encoded `DATA` envelopes, in stream order.
    wire: Vec<Vec<u8>>,
    payload_bytes: u64,
}

/// Reads every shard frame of the corpus and wraps it in its envelope.
fn load_frames(dir: &Path) -> Frames {
    let reader = CorpusReader::open(dir).expect("corpus opens");
    let wire = (0..reader.shard_count())
        .map(|i| {
            let body = reader.read_shard_frame(i).expect("frame reads");
            Message {
                kind: MessageKind::Data,
                seq: i as u64,
                body,
            }
            .to_frame()
        })
        .collect();
    Frames {
        wire,
        payload_bytes: reader.manifest().total_payload_bytes,
    }
}

/// The offline reference: one shard per chunk on one worker, as the
/// daemon folds one frame at a time.
fn offline_summary(dir: &Path) -> String {
    let source = FileSource::open(dir).expect("corpus opens");
    let (study, _, health) = Pipeline::new()
        .threads(1)
        .chunk_systems(1)
        .run_source(&source)
        .expect("offline run");
    corpus::summary_json(&study, &health)
}

/// Set-up: corpus build, frame load, daemon start.
fn set_up(ctx: &Ctx) -> (Frames, Server) {
    ctx.work.clear("corpus");
    ctx.work.clear("wal");
    corpus::build(&ctx.work.path("corpus"), SCALE, ctx.seed);
    let frames = load_frames(&ctx.work.path("corpus"));
    let server = Server::start(&ctx.ssfad, &ctx.work.path("wal"));
    (frames, server)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ingests = Vec::new();
    let mut expected = None;
    // One ingest per set-up: each needs a fresh daemon and WAL.
    let start = sys::now();
    let seconds = Duration::from_secs_f64(ctx.seconds);
    while ingests.len() < ctx.setups() || (!ctx.trace && start.elapsed() < seconds) {
        let began = sys::now();
        let (frames, server) = set_up(ctx);
        setup_s.push(sys::secs(began.elapsed()));
        let expected = expected.get_or_insert_with(|| offline_summary(&ctx.work.path("corpus")));
        let ingest = ingest(server, &frames.wire, RATE_FPS, None);
        if ingest.acked < ingest.frames {
            eprintln!(
                "daemon_ingest: {} of {} frames never acked ({} shed)",
                ingest.frames - ingest.acked,
                ingest.frames,
                ingest.frames_shed
            );
        }
        out.attempted += ingest.attempts();
        out.failed += ingest.failures(expected);
        ingests.push((ingest, frames.payload_bytes));
    }
    let ack: Vec<f64> = ingests.iter().flat_map(|(i, _)| i.ack_ms.clone()).collect();
    let status: Vec<f64> = ingests
        .iter()
        .flat_map(|(i, _)| i.status_ms.clone())
        .collect();
    let late: Vec<f64> = ingests
        .iter()
        .flat_map(|(i, _)| i.late_ms.clone())
        .collect();
    let lag: Vec<f64> = ingests.iter().map(|(i, _)| i.result_lag_ms).collect();
    let mb_s: Vec<f64> = ingests
        .iter()
        .map(|(i, b)| *b as f64 / 1e6 / i.span_s)
        .collect();
    let rss: Vec<f64> = ingests.iter().map(|(i, _)| i.peak_rss_mib).collect();
    let shed: u64 = ingests.iter().map(|(i, _)| i.frames_shed).sum();
    let late_p99 = percentile(&late, 99.0);
    let n = format!(
        "{} frames, {} ingests at {RATE_FPS} frames/s",
        ack.len(),
        ingests.len()
    );
    note("ack_p50_ms", median(&ack), "ms", &n);
    if let Some((p, v)) = tail(&ack) {
        note(
            "ack_p99_ms",
            v,
            "ms",
            &format!("p{p} of {} samples", ack.len()),
        );
    }
    note(
        "status_p50_ms",
        median(&status),
        "ms",
        &format!("{} STATUS replies", status.len()),
    );
    note("result_lag_ms", median(&lag), "ms", "median over ingests");
    note("generator_late_ms", late_p99, "ms", "p99 send lateness");
    note("frames_shed", shed as f64, "count", "");
    let valid = late_p99 <= LATE_LIMIT_MS;
    if !valid {
        eprintln!(
            "daemon_ingest: run invalid: generator p99 lateness {late_p99:.2} ms exceeds {LATE_LIMIT_MS} ms"
        );
    }
    if ctx.trace {
        traced(ctx, &ingests[0].0, &mut out);
    } else {
        out.put("setup_s", median(&setup_s), "s");
        out.put("latency_ms", median(&ack), "ms");
        out.put("mb_s", median(&mb_s), "MB/s");
        out.put("peak_rss_mb", median(&rss), "MiB");
    }
    out.correct = valid && out.failed == 0;
    out
}

/// The traced run: one more ingest with a span per frame (due → ACK),
/// the `max_fps` ladder, and the per-layer probes.
fn traced(ctx: &Ctx, plain: &Ingest, out: &mut Outcome) {
    let (frames, server) = set_up(ctx);
    let expected = offline_summary(&ctx.work.path("corpus"));
    let op = ctx.tracer.reserve();
    let started = ctx.tracer.now_ns();
    let spanned = ingest(server, &frames.wire, RATE_FPS, Some((&ctx.tracer, op)));
    ctx.tracer
        .record(op, 0, "daemon.ingest", started, ctx.tracer.now_ns());
    out.attempted += spanned.attempts();
    out.failed += spanned.failures(&expected);
    layers::overhead(ctx, &[plain.span_s], &[spanned.span_s], op, out);

    let mut max_fps = 0.0;
    for &rate in &LADDER_FPS {
        let (frames, server) = set_up(ctx);
        let count = frames.wire.len().min((rate * RUNG_SECONDS) as usize);
        let rung = ingest(server, &frames.wire[..count], rate, None);
        let ack_tail = tail(&rung.ack_ms).map_or(f64::INFINITY, |t| t.1);
        let ok = rung.acked == rung.frames
            && rung.frames_shed == 0
            && ack_tail <= ACK_TAIL_LIMIT_MS
            && rung.result_lag_ms <= LAG_LIMIT_MS;
        println!(
            "ladder {rate} frames/s: acked {}/{}, shed {}, ack tail {ack_tail:.2} ms, lag {:.1} ms -> {}",
            rung.acked,
            rung.frames,
            rung.frames_shed,
            rung.result_lag_ms,
            if ok { "ok" } else { "over" }
        );
        if !ok {
            break;
        }
        max_fps = rate;
    }
    note(
        "max_fps",
        max_fps,
        "1/s",
        &format!("ack tail <= {ACK_TAIL_LIMIT_MS} ms, no shed, lag <= {LAG_LIMIT_MS} ms"),
    );
    layers::probe(ctx, &ctx.work.path("corpus"), out);
}

/// Drives one ingest against `server` at `rate` frames per second and
/// drains it. With a tracer, records a span per frame from its due time
/// to its ACK under span `parent`.
fn ingest(server: Server, frames: &[Vec<u8>], rate: f64, trace: Option<(&Tracer, u64)>) -> Ingest {
    let mut a = TcpStream::connect(server.addr).expect("connect A");
    a.set_nodelay(true).expect("nodelay");
    a.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = Hello {
        tenant: TENANT.to_owned(),
        session: SESSION.to_owned(),
        cursor: 0,
        strictness: Strictness::Strict,
    };
    send(&mut a, MessageKind::Hello, hello.encode());
    let welcome = read_message(&mut a).expect("WELCOME");
    assert_eq!(welcome.kind, MessageKind::Welcome, "HELLO refused");

    let n = frames.len();
    let stop = AtomicBool::new(false);
    // Start slightly in the future so both threads share one origin.
    let t0 = sys::now() + Duration::from_millis(20);
    let t0_ns = trace.map_or(0, |(t, _)| t.now_ns() + 20_000_000);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let pid = server.child.id();
    let mut result = Ingest {
        frames: n,
        ..Ingest::default()
    };
    // The generator's second thread; the scope joins it.
    // lint: allow(no-raw-spawn) the STATUS poller, joined by the scope
    let poll = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_status(server.addr, t0, n, &stop));
        send_loop(
            &mut a,
            frames,
            &due,
            &mut result,
            trace.map(|(t, p)| (t, p, t0, t0_ns)),
        );
        stop.store(true, Ordering::SeqCst);
        poller.join().expect("STATUS thread")
    });
    result.status_ms = poll.status_ms;
    result.status_refused = poll.refused;
    result.frames_shed = poll.frames_shed;
    result.live_summary = poll.summary;
    if let Some(done) = poll.absorbed_at {
        result.result_lag_ms = sys::millis(done.saturating_duration_since(due(n - 1)));
        result.span_s = sys::secs(done.saturating_duration_since(due(0)));
    } else {
        result.span_s = f64::INFINITY;
        result.result_lag_ms = f64::INFINITY;
    }
    result.peak_rss_mib = sys::mib(sys::peak_rss_kib(Some(pid)).expect("ssfad status readable"));
    drop(a);
    result.drained_summary = server.finish();
    result
}

fn send(stream: &mut TcpStream, kind: MessageKind, body: Vec<u8>) {
    let frame = Message { kind, seq: 0, body }.to_frame();
    stream.write_all(&frame).expect("send");
}

/// Connection A: queues each DATA+HEARTBEAT at its due time, writes
/// without blocking, and timestamps ACKs as they arrive. Lateness is how
/// long after its due time a frame was queued; time the socket spends
/// full is backpressure, charged to ACK latency instead.
fn send_loop(
    a: &mut TcpStream,
    frames: &[Vec<u8>],
    due: &dyn Fn(usize) -> Instant,
    result: &mut Ingest,
    trace: Option<(&Tracer, u64, Instant, u64)>,
) {
    let n = frames.len();
    let heartbeat = Message::bare(MessageKind::Heartbeat).to_frame();
    a.set_nonblocking(true).expect("nonblocking");
    let (mut out, mut written) = (Vec::new(), 0usize);
    let mut inbox = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let (mut next, mut acked) = (0usize, 0usize);
    let mut progress = sys::now();
    while acked < n {
        let now = sys::now();
        while next < n && due(next) <= now {
            result.late_ms.push(sys::millis(now - due(next)));
            out.extend_from_slice(&frames[next]);
            out.extend_from_slice(&heartbeat);
            next += 1;
        }
        while written < out.len() {
            match a.write(&out[written..]) {
                Ok(k) => written += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("send DATA: {e}"),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        loop {
            match a.read(&mut buf) {
                Ok(0) => panic!("ssfad closed connection A"),
                Ok(k) => inbox.extend_from_slice(&buf[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read ACK: {e}"),
            }
        }
        let arrived = sys::now();
        while let Some(msg) = next_message(&mut inbox) {
            if msg.kind != MessageKind::Ack {
                continue;
            }
            let cursor = Cursor::parse(&msg.body).expect("ACK body");
            if cursor.quarantined.is_some() {
                result.quarantined = true;
            }
            let upto = (cursor.cursor as usize).min(next);
            for i in acked..upto {
                let d = due(i);
                result
                    .ack_ms
                    .push(sys::millis(arrived.saturating_duration_since(d)));
                if let Some((tracer, parent, t0, t0_ns)) = trace {
                    // Due times and arrivals are never before `t0`.
                    let at = |t: Instant| t0_ns + t.saturating_duration_since(t0).as_nanos() as u64;
                    tracer.record(tracer.reserve(), parent, "daemon.frame", at(d), at(arrived));
                }
            }
            if upto > acked {
                acked = upto;
                progress = arrived;
            }
        }
        if result.quarantined || (next == n && arrived - progress > STALL) {
            break;
        }
        let wake = if next < n {
            due(next)
        } else {
            arrived + Duration::from_millis(1)
        };
        let wait = wake
            .saturating_duration_since(sys::now())
            .min(Duration::from_micros(250));
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    result.acked = acked;
    a.set_nonblocking(false).expect("blocking");
}

/// Pops one complete message off the front of `inbox`.
fn next_message(inbox: &mut Vec<u8>) -> Option<Message> {
    if inbox.len() < HEADER_LEN {
        return None;
    }
    let header = FrameHeader::parse(&inbox[..HEADER_LEN]).expect("envelope header");
    let len = header.frame_len() as usize;
    if inbox.len() < len {
        return None;
    }
    let msg = read_message(&mut &inbox[..len]).expect("envelope");
    inbox.drain(..len);
    Some(msg)
}

/// What connection B saw.
struct Poll {
    status_ms: Vec<f64>,
    refused: u64,
    /// When a STATUS first showed every frame absorbed.
    absorbed_at: Option<Instant>,
    summary: String,
    frames_shed: u64,
}

/// Connection B: STATUS at a fixed rate, each timed from its due time,
/// until connection A has every ACK; then STATUS every 2 ms until the
/// summary covers all `n` frames, and one HEALTH for the shed count. A
/// refused request ends the connection (the daemon hangs up after an
/// ERROR), so polling stops there.
fn poll_status(addr: SocketAddr, t0: Instant, n: usize, stop: &AtomicBool) -> Poll {
    let mut b = TcpStream::connect(addr).expect("connect B");
    b.set_nodelay(true).expect("nodelay");
    b.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = format!("tenant={TENANT}\n").into_bytes();
    let mut poll = Poll {
        status_ms: Vec::new(),
        refused: 0,
        absorbed_at: None,
        summary: String::new(),
        frames_shed: 0,
    };
    let mut request = |kind| -> Option<String> {
        send(&mut b, kind, body.clone());
        match read_message(&mut b) {
            Ok(reply) if reply.kind == MessageKind::Ok => {
                Some(String::from_utf8_lossy(&reply.body).into_owned())
            }
            _ => None,
        }
    };
    let mut polls = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let due = t0 + Duration::from_secs_f64(f64::from(polls) / STATUS_HZ);
        let now = sys::now();
        if due > now {
            // Short steps, so the end of the stream is noticed promptly.
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
            continue;
        }
        polls += 1;
        if request(MessageKind::Status).is_none() {
            poll.refused += 1;
            return poll;
        }
        poll.status_ms.push(sys::millis(sys::now() - due));
    }
    let deadline = sys::now() + STALL;
    while sys::now() < deadline {
        let Some(summary) = request(MessageKind::Status) else {
            poll.refused += 1;
            return poll;
        };
        if corpus::summary_field(&summary, "shards_total") == Some(n as u64) {
            poll.absorbed_at = Some(sys::now());
            poll.summary = summary;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if let Some(health) = request(MessageKind::Health) {
        poll.frames_shed = health
            .lines()
            .find_map(|l| l.strip_prefix("frames_shed="))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
    }
    poll
}
