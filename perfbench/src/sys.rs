//! Process and filesystem probes: peak resident memory, directory sizes,
//! and the scratch directory a run works in.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The wall clock. Every timing in the benchmark reads it here.
pub fn now() -> Instant {
    // lint: allow(no-wall-clock) a benchmark measures wall time
    Instant::now()
}

/// Peak resident set size of process `pid` (`None` = this process) in
/// KiB, from `/proc/<pid>/status` (`VmHWM`).
pub fn peak_rss_kib(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// KiB to MiB.
pub fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

/// Bytes under `path`, recursively (0 if it does not exist).
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Seconds in a duration, as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds in a duration, as `f64`.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A run's scratch directory, removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Creates (emptying first) `base/<tag>-<pid>`.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(base: &Path, tag: &str) -> WorkDir {
        let root = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch directory creates");
        WorkDir { root }
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Removes `name` inside the scratch directory if present.
    pub fn clear(&self, name: &str) {
        let _ = std::fs::remove_dir_all(self.path(name));
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
