//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the id of the span that caused
//! it (0 for a root). Spans are kept in memory while the benchmark runs
//! and written out once at the end ([`Tracer::write_jsonl`]). A span's
//! self time is its duration minus the part of its interval that its
//! children cover ([`self_time_ns`]); children running on several
//! threads at once are counted once.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sys;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The causing span's id; 0 for a root span.
    pub parent: u64,
    /// Layer-qualified call name, e.g. `logs.read_shard_frame`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `>= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: sys::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a new span named `name` under `parent`; `f` gets
    /// the new span's id for its own children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f(id);
        self.record(id, parent, name, start, self.now_ns());
        out
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON array per line:
    /// `[id, parent, "name", start_ns, end_ns]`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "[{},{},\"{}\",{},{}]",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sum of the durations of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// The self time of span `id`: its duration minus the union of its
/// children's intervals, clipped to its own. `None` if no span has that
/// id.
pub fn self_time_ns(spans: &[Span], id: u64) -> Option<u64> {
    let parent = spans.iter().find(|s| s.id == id)?;
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in children {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    Some(parent.duration_ns() - covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 50, 80)];
        assert_eq!(self_time_ns(&spans, 1), Some(60));
        assert_eq!(self_time_ns(&spans, 2), Some(10));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two worker threads' children overlap on 30..40.
        let spans = [span(1, 0, 0, 100), span(2, 1, 20, 40), span(3, 1, 30, 60)];
        assert_eq!(self_time_ns(&spans, 1), Some(60));
    }

    #[test]
    fn self_time_ignores_grandchildren_and_clips_children() {
        let spans = [
            span(1, 0, 100, 200),
            // Starts before its parent: only 100..150 counts.
            span(2, 1, 90, 150),
            // A grandchild inside the child is not the root's child.
            span(3, 2, 110, 120),
            // Entirely outside the parent.
            span(4, 1, 250, 300),
        ];
        assert_eq!(self_time_ns(&spans, 1), Some(50));
        assert_eq!(self_time_ns(&spans, 2), Some(50));
        assert_eq!(self_time_ns(&spans, 9), None);
    }

    #[test]
    fn tracer_records_nested_spans_with_parents() {
        let tracer = Tracer::new();
        tracer.span("outer", 0, |outer| {
            tracer.span("inner", outer, |_| std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let own = self_time_ns(&spans, outer.id).unwrap();
        assert_eq!(own, outer.duration_ns() - inner.duration_ns());
        assert_eq!(total_ns(&spans, "inner"), inner.duration_ns());
    }
}
