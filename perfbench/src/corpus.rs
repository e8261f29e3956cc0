//! Inputs and reference outputs: seeded corpora on disk, shard-prefix
//! copies of them, and the report texts the correctness checks compare.

use std::path::Path;

use ssfa::core::Study;
use ssfa::logs::{CascadeStyle, CorpusSummary, CorpusWriter, Manifest, HEADER_LEN, MANIFEST_NAME};
use ssfa::pipeline::{JsonSummarySink, RunHealth, Sink};
use ssfa::Pipeline;

/// Simulates the fleet at `(scale, seed)` and renders it into a sharded
/// corpus at `dir`, as `ssfa corpus build` does.
///
/// # Panics
///
/// If the corpus cannot be written.
pub fn build(dir: &Path, scale: f64, seed: u64) -> CorpusSummary {
    let base = Pipeline::new().scale(scale).seed(seed);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    CorpusWriter::new(dir)
        .param("scale", format!("{scale}"))
        .param("source", "ssfa-sim")
        .write(&fleet, &output, CascadeStyle::RaidOnly, seed)
        .expect("corpus builds")
}

/// The corpus manifest at `dir`.
///
/// # Panics
///
/// If it cannot be read or parsed.
pub fn manifest(dir: &Path) -> Manifest {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME)).expect("manifest reads");
    Manifest::parse(&text).expect("manifest parses")
}

/// Writes the corpus as it stood `keep` shards in: segment files cut at
/// the last kept frame, manifest truncated to match. Frames abut from
/// offset 0 in each segment, so any shard prefix is itself a corpus.
///
/// # Panics
///
/// On I/O failure or a `keep` outside `1..shards`.
pub fn prefix(full: &Path, out: &Path, keep: usize) {
    let mut m = manifest(full);
    assert!(keep > 0 && keep < m.shards.len(), "bad prefix size");
    m.shards.truncate(keep);
    m.segments = m.shards.last().map_or(0, |e| e.segment + 1);
    m.total_payload_bytes = m.shards.iter().map(|e| e.payload_len).sum();
    std::fs::create_dir_all(out).expect("prefix dir creates");
    for segment in 0..m.segments {
        let name = format!("segment-{segment:05}.seg");
        let bytes = std::fs::read(full.join(&name)).expect("segment reads");
        let end = m
            .shards
            .iter()
            .filter(|e| e.segment == segment)
            .map(|e| e.offset as usize + HEADER_LEN + e.payload_len as usize)
            .max()
            .expect("kept segment holds a shard");
        std::fs::write(out.join(&name), &bytes[..end]).expect("segment prefix writes");
    }
    std::fs::write(out.join(MANIFEST_NAME), m.to_text()).expect("manifest writes");
}

/// The `JsonSummarySink` document for a run.
pub fn summary_json(study: &Study, health: &RunHealth) -> String {
    let mut sink = JsonSummarySink::new(Vec::new());
    sink.consume(study, health)
        .expect("writes to a Vec cannot fail");
    String::from_utf8(sink.into_inner()).expect("summary is UTF-8")
}

/// Table 1, one row per line.
pub fn table1_text(study: &Study) -> String {
    study
        .table1()
        .iter()
        .map(|row| format!("{row:?}\n"))
        .collect()
}

/// The value of a `"key": value` line in a summary document.
pub fn summary_field(summary: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    summary.lines().find_map(|l| {
        l.trim()
            .strip_prefix(&needle)?
            .trim_end_matches(',')
            .parse()
            .ok()
    })
}

/// The summary lines derived from the study alone (not from run-health
/// counters, which a resumed run reports for its increment only).
pub fn study_lines(summary: &str) -> String {
    const STUDY_KEYS: [&str; 5] = [
        "\"schema\"",
        "\"systems\"",
        "\"lifetimes\"",
        "\"failures\"",
        "\"disk_years\"",
    ];
    summary
        .lines()
        .filter(|l| STUDY_KEYS.iter().any(|k| l.trim_start().starts_with(k)))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"schema\": \"ssfa-run-summary/v1\",\n  \"systems\": 40,\n  \
                       \"failures\": 7,\n  \"shards_total\": 40,\n  \"lines_skipped\": 0\n}\n";

    #[test]
    fn summary_fields_parse_with_and_without_trailing_commas() {
        assert_eq!(summary_field(DOC, "systems"), Some(40));
        assert_eq!(summary_field(DOC, "lines_skipped"), Some(0));
        assert_eq!(summary_field(DOC, "coverage"), None);
    }

    #[test]
    fn study_lines_drop_health_counters() {
        let lines = study_lines(DOC);
        assert!(lines.contains("\"failures\": 7"));
        assert!(!lines.contains("shards_total"));
    }
}
