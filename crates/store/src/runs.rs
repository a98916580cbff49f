//! The append-only run history behind `dtaint history`.
//!
//! Every *completed* `dtaint batch` run appends one [`RunSummary`] line
//! to `<store>/runs.jsonl`: config tag, image counts by outcome,
//! finding deltas, cache traffic, salvage counters, and wall time. The
//! file is advisory trend data — it is never read back into analysis,
//! is excluded from the `--resume` byte-identity contract (it carries
//! wall-clock), and a missing or torn file costs nothing but history.
//!
//! Like the journal, lines are versioned and a load discards what it
//! cannot parse, so the format can grow without migrations.

use dtaint_telemetry::ImageCacheStats;
use serde::{Deserialize, Serialize};

/// Version stamp on [`RunSummary`]; bump on schema changes.
pub const RUN_VERSION: u32 = 1;

/// One completed batch run, as recorded in `runs.jsonl`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Record format version ([`RUN_VERSION`]).
    pub v: u32,
    /// Seconds since the Unix epoch when the run started.
    pub started_unix: u64,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: u64,
    /// Semantic-config tag (alias mode, cache on/off).
    pub config: String,
    /// Findings-db generation after this run's commits.
    pub generation: u64,
    /// Total images in the corpus.
    pub images: usize,
    /// Images scanned cleanly.
    pub ok: usize,
    /// Images that failed to scan.
    pub failures: usize,
    /// Images that hit the per-image deadline.
    pub timeouts: usize,
    /// Images replayed from the journal by `--resume`.
    pub resumed: usize,
    /// Images whose scan was this image's first (baseline).
    pub baselines: usize,
    /// New fingerprints across all images.
    pub new_findings: usize,
    /// Re-opened fingerprints across all images.
    pub reopened: usize,
    /// Resolved fingerprints across all images.
    pub resolved: usize,
    /// Images whose delta was a regression (drives exit code 2).
    pub regressions: usize,
    /// Open vulnerable findings corpus-wide after the run.
    pub open_vulnerable: usize,
    /// Symbolic-summary cache hits / misses across the run.
    pub sym_hits: u64,
    /// Symbolic-summary cache misses.
    pub sym_misses: u64,
    /// DDG slice cache hits.
    pub ddg_hits: u64,
    /// DDG slice cache misses.
    pub ddg_misses: u64,
    /// Cache entries invalidated by content/config drift.
    pub invalidations: u64,
    /// Entries in the summary cache after the final snapshot.
    pub cache_entries: usize,
    /// Journal lines discarded on load (torn tail, version drift).
    pub journal_discarded: usize,
}

impl RunSummary {
    /// Combined cache hit rate in `[0, 1]` (0 when no traffic).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        ImageCacheStats {
            sym_hits: self.sym_hits,
            sym_misses: self.sym_misses,
            ddg_hits: self.ddg_hits,
            ddg_misses: self.ddg_misses,
            invalidations: self.invalidations,
        }
        .hit_rate()
    }
}

/// What a history load found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunsLoad {
    /// Parsed run records in file (chronological) order.
    pub runs: Vec<RunSummary>,
    /// Unparseable or version-mismatched lines discarded.
    pub discarded_lines: usize,
}

/// Parses `runs.jsonl` bytes, tolerating a torn tail and unknown
/// versions.
#[must_use]
pub fn parse_runs(bytes: &[u8]) -> RunsLoad {
    let mut out = RunsLoad::default();
    for line in bytes.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        match serde_json::from_slice::<RunSummary>(line) {
            Ok(r) if r.v == RUN_VERSION => out.runs.push(r),
            _ => out.discarded_lines += 1,
        }
    }
    out
}

/// Serializes one run record as a JSONL line (newline-terminated).
///
/// # Errors
///
/// Propagates serialization failures.
pub fn encode_run(run: &RunSummary) -> Result<Vec<u8>, serde_json::Error> {
    let mut line = serde_json::to_vec(run)?;
    line.push(b'\n');
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(gen: u64) -> RunSummary {
        RunSummary {
            v: RUN_VERSION,
            started_unix: 1_700_000_000,
            wall_ms: 1234,
            config: "alias=sse;cache=on".into(),
            generation: gen,
            images: 3,
            ok: 2,
            failures: 1,
            timeouts: 0,
            resumed: 0,
            baselines: 3,
            new_findings: 5,
            reopened: 0,
            resolved: 0,
            regressions: 0,
            open_vulnerable: 4,
            sym_hits: 10,
            sym_misses: 90,
            ddg_hits: 5,
            ddg_misses: 45,
            invalidations: 0,
            cache_entries: 100,
            journal_discarded: 0,
        }
    }

    #[test]
    fn round_trips_and_tolerates_torn_tail() {
        let a = run(3);
        let b = run(6);
        let mut bytes = encode_run(&a).unwrap();
        bytes.extend(encode_run(&b).unwrap());
        let torn = encode_run(&run(9)).unwrap();
        bytes.extend(&torn[..torn.len() / 2]);
        let load = parse_runs(&bytes);
        assert_eq!(load.runs, vec![a, b]);
        assert_eq!(load.discarded_lines, 1);
    }

    #[test]
    fn unknown_version_is_discarded() {
        let mut r = run(1);
        r.v = 999;
        let load = parse_runs(&encode_run(&r).unwrap());
        assert!(load.runs.is_empty());
        assert_eq!(load.discarded_lines, 1);
    }

    #[test]
    fn hit_rate_handles_zero_traffic() {
        let mut r = RunSummary::default();
        assert_eq!(r.cache_hit_rate(), 0.0);
        r.sym_hits = 3;
        r.sym_misses = 1;
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-9);
    }
}
