//! The append-only run journal behind `dtaint batch --resume`.
//!
//! One JSONL line per *completed* image: name, a content hash of the
//! image file, the analysis config tag, the report file name, the
//! outcome, and the full fold inputs (the deduplicated [`ScanFinding`]
//! list plus cache counters). A resumed run skips every journaled image
//! whose content hash and config still match, reuses the journaled fold
//! inputs, and re-scans only the rest — so the final findings database
//! and `corpus.json` are byte-identical to an uninterrupted run.
//!
//! The journal is strictly weaker than the database: the db is written
//! once, atomically, at the end of a *complete* run, while the journal
//! records progress durably after each image. A crash therefore leaves
//! the old db plus a journal prefix; resume replays the prefix and
//! finishes the suffix. A completed run deletes its journal.
//!
//! Appends go through [`crate::atomic::append_durable`] (fsync per
//! line); a crash mid-append leaves one partial trailing line, which
//! [`crate::StoreDir::load_journal`] counts and discards.

use crate::ScanFinding;
pub use dtaint_telemetry::ImageOutcome as JournalOutcome;
use dtaint_telemetry::{ImageCacheStats, MetricsRegistry};
use serde::{Deserialize, Serialize};

/// One journal line — everything `batch` needs to fold the image into
/// the corpus summary and findings database without re-scanning it.
/// The scan worker builds it, the commit persists it, and the fold
/// reads it, for fresh and replayed images alike.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Journal format version.
    pub v: u32,
    /// Image name (file stem, the store's image key).
    pub image: String,
    /// FNV-1a 64 of the image file bytes, 16 hex digits — a resumed
    /// run re-scans when the file changed underneath the journal.
    pub content: String,
    /// Semantic-config tag (alias mode etc.); a resumed run re-scans
    /// when the configuration changed.
    pub config: String,
    /// Report file name under the reports dir, when one was written.
    pub report: Option<String>,
    /// How the scan ended.
    pub outcome: JournalOutcome,
    /// Error message for [`JournalOutcome::Error`]/`Timeout`.
    pub error: Option<String>,
    /// Number of executables scanned.
    pub binaries: usize,
    /// Deduplicated fold inputs (one exemplar per fingerprint).
    pub findings: Vec<ScanFinding>,
    /// Symex-level cache hits during this image's scan.
    pub sym_hits: u64,
    /// Symex-level cache misses.
    pub sym_misses: u64,
    /// DDG-level cache hits.
    pub ddg_hits: u64,
    /// DDG-level cache misses.
    pub ddg_misses: u64,
    /// Cache entries invalidated during this image's scan (v2).
    #[serde(default)]
    pub invalidations: u64,
    /// The image's merged report [`MetricsRegistry`] — logical counters
    /// only, so a resumed run rebuilds the corpus rollup bit-identically
    /// without re-scanning (v2).
    #[serde(default)]
    pub metrics: MetricsRegistry,
}

impl JournalEntry {
    /// The image's cache traffic.
    #[must_use]
    pub fn cache(&self) -> ImageCacheStats {
        ImageCacheStats {
            sym_hits: self.sym_hits,
            sym_misses: self.sym_misses,
            ddg_hits: self.ddg_hits,
            ddg_misses: self.ddg_misses,
            invalidations: self.invalidations,
        }
    }
}

/// Current journal line version. v2 added `invalidations` and the
/// per-image `metrics` registry for the corpus rollup; v1 journals are
/// discarded on load (their images simply re-scan — the journal is
/// advisory progress, never ground truth).
pub const JOURNAL_VERSION: u32 = 2;

/// What a journal load found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalLoad {
    /// Parsed entries in file order (a resumed-then-resumed run may
    /// hold several entries per image; the last one wins).
    pub entries: Vec<JournalEntry>,
    /// Unparseable lines discarded (a crash mid-append leaves at most
    /// one, at the tail).
    pub discarded_lines: usize,
}

/// Parses journal bytes, tolerating a torn tail.
#[must_use]
pub fn parse_journal(bytes: &[u8]) -> JournalLoad {
    let mut out = JournalLoad::default();
    for line in bytes.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        match serde_json::from_slice::<JournalEntry>(line) {
            Ok(e) if e.v == JOURNAL_VERSION => out.entries.push(e),
            _ => out.discarded_lines += 1,
        }
    }
    out
}

/// Serializes one entry as a journal line (newline-terminated).
///
/// # Errors
///
/// Propagates serialization failures (structurally impossible for the
/// derived types, kept for API honesty).
pub fn encode_entry(entry: &JournalEntry) -> Result<Vec<u8>, serde_json::Error> {
    let mut line = serde_json::to_vec(entry)?;
    line.push(b'\n');
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(image: &str, outcome: JournalOutcome) -> JournalEntry {
        JournalEntry {
            v: JOURNAL_VERSION,
            image: image.into(),
            content: "00000000deadbeef".into(),
            config: "alias:sse".into(),
            report: Some(format!("{image}.json")),
            outcome,
            error: None,
            binaries: 1,
            findings: vec![ScanFinding {
                fingerprint: "abcd".into(),
                vulnerable: true,
                sink: "memcpy".into(),
                sink_fn: "parse".into(),
            }],
            sym_hits: 3,
            sym_misses: 1,
            ddg_hits: 2,
            ddg_misses: 2,
            invalidations: 1,
            metrics: {
                let mut m = MetricsRegistry::default();
                m.inc("symex.blocks_executed", 42);
                m
            },
        }
    }

    #[test]
    fn round_trips_and_tolerates_torn_tail() {
        let a = entry("router", JournalOutcome::Ok);
        let b = entry("camera", JournalOutcome::Error);
        let mut bytes = encode_entry(&a).unwrap();
        bytes.extend(encode_entry(&b).unwrap());
        // A crash mid-append: half of a third line.
        let torn = encode_entry(&entry("nas", JournalOutcome::Ok)).unwrap();
        bytes.extend(&torn[..torn.len() / 2]);
        let load = parse_journal(&bytes);
        assert_eq!(load.entries, vec![a, b]);
        assert_eq!(load.discarded_lines, 1);
    }

    #[test]
    fn unknown_version_is_discarded() {
        let mut e = entry("router", JournalOutcome::Ok);
        e.v = 999;
        let bytes = encode_entry(&e).unwrap();
        let load = parse_journal(&bytes);
        assert!(load.entries.is_empty());
        assert_eq!(load.discarded_lines, 1);
    }

    #[test]
    fn missing_v2_fields_default_to_empty() {
        // A v2 line without the rollup fields (e.g. written by a tool
        // that only knows the required keys) parses with defaults.
        let line = br#"{"v":2,"image":"router","content":"00000000deadbeef","config":"alias:sse","report":null,"outcome":"Ok","error":null,"binaries":1,"findings":[],"sym_hits":0,"sym_misses":0,"ddg_hits":0,"ddg_misses":0}"#;
        let load = parse_journal(line);
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].invalidations, 0);
        assert_eq!(load.entries[0].metrics, MetricsRegistry::default());
    }

    #[test]
    fn outcomes_are_spelled_as_their_variant_names() {
        for (outcome, spelled) in [
            (JournalOutcome::Ok, r#""outcome":"Ok""#),
            (JournalOutcome::Error, r#""outcome":"Error""#),
            (JournalOutcome::Timeout, r#""outcome":"Timeout""#),
        ] {
            let line = String::from_utf8(encode_entry(&entry("router", outcome)).unwrap()).unwrap();
            assert!(line.contains(spelled), "{line}");
            assert_eq!(parse_journal(line.as_bytes()).entries[0].outcome, outcome);
        }
    }

    #[test]
    fn empty_journal_is_empty() {
        assert_eq!(parse_journal(b""), JournalLoad::default());
        assert_eq!(parse_journal(b"\n\n"), JournalLoad::default());
    }
}
