//! Persistent corpus store for `dtaint batch`.
//!
//! A [`StoreDir`] is a directory holding everything a corpus scan wants
//! to keep between runs:
//!
//! * `findings.json` — the [`FindingsDb`]: per image, every finding
//!   ever seen, keyed by its content-addressed fingerprint, with a
//!   lifecycle status (`Open`/`Resolved`) and first/last-seen
//!   generation numbers,
//! * `summaries.dtc` — the incremental summary cache (the caller writes
//!   `SummaryCache` snapshots with [`atomic_write_parts`]; this crate
//!   only names the path),
//! * `reports/` — one `scan --json` report per image per run.
//!
//! [`FindingsDb::record_scan`] folds one image's scan results into the
//! database and returns a [`ScanDelta`] in `dtaint diff` terms: new,
//! re-opened, and resolved fingerprints. The first scan of an image is
//! its *baseline* and can never regress; afterwards a new vulnerable
//! finding or a re-opened one makes [`ScanDelta::is_regression`] true,
//! which `dtaint batch` turns into exit code 2.

pub mod atomic;
pub mod journal;
pub mod lock;
pub mod runs;

pub use atomic::{
    append_durable, atomic_write, atomic_write_parts, fnv64, FaultFs, FaultPlan, FsOp,
};
pub use journal::{JournalEntry, JournalLoad, JournalOutcome, JOURNAL_VERSION};
pub use lock::{pid_alive, LockError, StoreLock};
pub use runs::{encode_run, parse_runs, RunSummary, RunsLoad, RUN_VERSION};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Lifecycle of a stored finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingStatus {
    /// Present in the image's latest scan.
    Open,
    /// Present in some earlier scan, absent from the latest.
    Resolved,
}

/// One finding's history within one image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredFinding {
    /// Whether the latest sighting was vulnerable (vs sanitized).
    pub vulnerable: bool,
    /// Present in the latest scan, or resolved earlier.
    pub status: FindingStatus,
    /// Generation of the scan that first reported this fingerprint.
    pub first_seen: u64,
    /// Generation of the most recent scan that reported it.
    pub last_seen: u64,
    /// Sink name (`memcpy`, `system`, …).
    pub sink: String,
    /// Function containing the sink.
    pub sink_fn: String,
}

/// Every finding ever recorded for one image, keyed by fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageRecord {
    /// Fingerprint → finding history.
    pub findings: BTreeMap<String, StoredFinding>,
}

/// The whole corpus database.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FindingsDb {
    /// Monotone scan counter; each `record_scan` call is one generation.
    pub generation: u64,
    /// Image name → record. An image scanned with zero findings still
    /// has an (empty) record, so its next scan is not a baseline.
    pub images: BTreeMap<String, ImageRecord>,
}

/// One finding as fed into [`FindingsDb::record_scan`] — the projection
/// of a report finding that the store tracks. Serializable because the
/// run journal records each image's fold inputs verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanFinding {
    /// Content-addressed fingerprint (16 hex digits).
    pub fingerprint: String,
    /// Unsanitized flow?
    pub vulnerable: bool,
    /// Sink name.
    pub sink: String,
    /// Function containing the sink.
    pub sink_fn: String,
}

/// What changed for one image in one scan, relative to the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanDelta {
    /// First scan of this image — everything is new by definition.
    pub is_baseline: bool,
    /// Fingerprints never seen before in this image.
    pub new: Vec<String>,
    /// Fingerprints that were resolved (or sanitized) and came back
    /// vulnerable.
    pub reopened: Vec<String>,
    /// Previously open fingerprints absent from this scan.
    pub resolved: Vec<String>,
    /// New **vulnerable** fingerprints (subset of `new`).
    pub new_vulnerable: usize,
}

impl ScanDelta {
    /// A regression is a new vulnerable finding or a re-opened one in a
    /// non-baseline scan; baselines establish the ledger, they never
    /// regress.
    #[must_use]
    pub fn is_regression(&self) -> bool {
        !self.is_baseline && (self.new_vulnerable > 0 || !self.reopened.is_empty())
    }
}

impl FindingsDb {
    /// Folds one image's scan into the database.
    pub fn record_scan(&mut self, image: &str, findings: &[ScanFinding]) -> ScanDelta {
        self.generation += 1;
        let generation = self.generation;
        let is_baseline = !self.images.contains_key(image);
        let rec = self.images.entry(image.to_owned()).or_default();

        let mut delta = ScanDelta { is_baseline, ..ScanDelta::default() };
        let mut present: BTreeMap<&str, ()> = BTreeMap::new();
        for f in findings {
            present.insert(&f.fingerprint, ());
            match rec.findings.get_mut(&f.fingerprint) {
                Some(old) => {
                    // A fingerprint counts as re-opened when it becomes
                    // vulnerable after having been resolved *or* after
                    // having been seen only sanitized — both are the
                    // `diff` regression cases.
                    let was_gone = old.status == FindingStatus::Resolved;
                    if f.vulnerable && (was_gone || !old.vulnerable) {
                        delta.reopened.push(f.fingerprint.clone());
                    }
                    old.status = FindingStatus::Open;
                    old.vulnerable = f.vulnerable;
                    old.last_seen = generation;
                }
                None => {
                    rec.findings.insert(
                        f.fingerprint.clone(),
                        StoredFinding {
                            vulnerable: f.vulnerable,
                            status: FindingStatus::Open,
                            first_seen: generation,
                            last_seen: generation,
                            sink: f.sink.clone(),
                            sink_fn: f.sink_fn.clone(),
                        },
                    );
                    if f.vulnerable {
                        delta.new_vulnerable += 1;
                    }
                    delta.new.push(f.fingerprint.clone());
                }
            }
        }
        for (fp, stored) in &mut rec.findings {
            if stored.status == FindingStatus::Open && !present.contains_key(fp.as_str()) {
                stored.status = FindingStatus::Resolved;
                delta.resolved.push(fp.clone());
            }
        }
        delta
    }

    /// Open **vulnerable** findings across the whole corpus.
    #[must_use]
    pub fn open_vulnerable(&self) -> usize {
        self.images
            .values()
            .flat_map(|r| r.findings.values())
            .filter(|f| f.status == FindingStatus::Open && f.vulnerable)
            .count()
    }
}

/// The on-disk layout of a corpus store.
#[derive(Debug, Clone)]
pub struct StoreDir {
    root: PathBuf,
    fs: Arc<FaultFs>,
}

impl StoreDir {
    /// Opens (creating if necessary) a store rooted at `root`, writing
    /// through a pass-through filesystem shim.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> io::Result<StoreDir> {
        Self::open_with_fs(root, Arc::new(FaultFs::new()))
    }

    /// Opens a store whose writes route through `fs` — the hook the
    /// crash drills use to inject faults or simulate a mid-run kill.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_fs(root: &Path, fs: Arc<FaultFs>) -> io::Result<StoreDir> {
        std::fs::create_dir_all(root)?;
        let s = StoreDir { root: root.to_path_buf(), fs };
        std::fs::create_dir_all(s.reports_dir())?;
        Ok(s)
    }

    /// The filesystem shim every store write goes through.
    #[must_use]
    pub fn fs(&self) -> &Arc<FaultFs> {
        &self.fs
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the findings database.
    #[must_use]
    pub fn findings_path(&self) -> PathBuf {
        self.root.join("findings.json")
    }

    /// Path of the persisted summary cache.
    #[must_use]
    pub fn cache_path(&self) -> PathBuf {
        self.root.join("summaries.dtc")
    }

    /// Directory of per-image reports.
    #[must_use]
    pub fn reports_dir(&self) -> PathBuf {
        self.root.join("reports")
    }

    /// Path of the append-only run journal.
    #[must_use]
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("journal.jsonl")
    }

    /// Path of the pid-stamped lock file.
    #[must_use]
    pub fn lock_path(&self) -> PathBuf {
        self.root.join("lock")
    }

    /// Path of the live-batch heartbeat file (advisory; rewritten
    /// atomically while a batch runs).
    #[must_use]
    pub fn status_path(&self) -> PathBuf {
        self.root.join("status.json")
    }

    /// Path of the append-only run history.
    #[must_use]
    pub fn runs_path(&self) -> PathBuf {
        self.root.join("runs.jsonl")
    }

    /// The pid of the batch currently holding this store's lock, if that
    /// process is still alive. `None` means no lock, an unreadable lock,
    /// or a dead owner (a crashed batch leaves its corpse-lock behind).
    #[must_use]
    pub fn live_run_pid(&self) -> Option<u32> {
        let pid: u32 = std::fs::read_to_string(self.lock_path()).ok()?.trim().parse().ok()?;
        lock::pid_alive(pid).then_some(pid)
    }

    /// Acquires the store lock for this process.
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] when another live process owns the store.
    pub fn lock(&self) -> Result<(StoreLock, Option<u32>), LockError> {
        StoreLock::acquire(&self.lock_path())
    }

    /// Loads the findings database; a missing file is an empty database
    /// (the store is advisory, never a scan blocker). An *unparseable*
    /// file is quarantined — see [`StoreDir::load_db_checked`].
    #[must_use]
    pub fn load_db(&self) -> FindingsDb {
        self.load_db_checked().0
    }

    /// Loads the findings database, distinguishing missing (empty db,
    /// fine) from corrupt (quarantined). A corrupt `findings.json` is
    /// renamed to a `findings.json.corrupt-<hash8>` sidecar — whose path
    /// is returned so the caller can warn loudly — and an empty database
    /// is returned. The sidecar rename means the next run starts from a
    /// clean baseline instead of tripping over the same bytes again,
    /// and the evidence survives for post-mortem.
    #[must_use]
    pub fn load_db_checked(&self) -> (FindingsDb, Option<PathBuf>) {
        let path = self.findings_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return (FindingsDb::default(), None),
        };
        match serde_json::from_slice::<FindingsDb>(&bytes) {
            Ok(db) => (db, None),
            Err(_) => {
                let sidecar = path
                    .with_file_name(format!("findings.json.corrupt-{:08x}", fnv64(&bytes) as u32));
                // Rename, don't copy: the corrupt bytes must not stay
                // under the canonical name where the next load would
                // quarantine them all over again.
                let kept = std::fs::rename(&path, &sidecar).is_ok();
                (FindingsDb::default(), kept.then_some(sidecar))
            }
        }
    }

    /// Saves the findings database atomically (temp + fsync + rename).
    ///
    /// # Errors
    ///
    /// Propagates serialization and write failures.
    pub fn save_db(&self, db: &FindingsDb) -> io::Result<()> {
        let json = serde_json::to_string_pretty(db).map_err(|e| io::Error::other(e.to_string()))?;
        atomic_write(&self.fs, &self.findings_path(), json.as_bytes())
    }

    /// Durably appends one completed image to the run journal.
    ///
    /// # Errors
    ///
    /// Propagates serialization and append failures.
    pub fn append_journal(&self, entry: &JournalEntry) -> io::Result<()> {
        let line = journal::encode_entry(entry).map_err(|e| io::Error::other(e.to_string()))?;
        append_durable(&self.fs, &self.journal_path(), &line)
    }

    /// Loads the run journal; a missing journal is an empty one.
    #[must_use]
    pub fn load_journal(&self) -> JournalLoad {
        match std::fs::read(self.journal_path()) {
            Ok(bytes) => journal::parse_journal(&bytes),
            Err(_) => JournalLoad::default(),
        }
    }

    /// Deletes the run journal (a completed run owes nothing to resume).
    pub fn clear_journal(&self) {
        let _ = std::fs::remove_file(self.journal_path());
    }

    /// Durably appends one completed run to `runs.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and append failures.
    pub fn append_run(&self, run: &RunSummary) -> io::Result<()> {
        let line = runs::encode_run(run).map_err(|e| io::Error::other(e.to_string()))?;
        append_durable(&self.fs, &self.runs_path(), &line)
    }

    /// Loads the run history; a missing file is an empty history.
    #[must_use]
    pub fn load_runs(&self) -> RunsLoad {
        match std::fs::read(self.runs_path()) {
            Ok(bytes) => runs::parse_runs(&bytes),
            Err(_) => RunsLoad::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(fp: &str, vulnerable: bool) -> ScanFinding {
        ScanFinding {
            fingerprint: fp.to_owned(),
            vulnerable,
            sink: "memcpy".into(),
            sink_fn: "parse".into(),
        }
    }

    #[test]
    fn baseline_never_regresses() {
        let mut db = FindingsDb::default();
        let d = db.record_scan("img", &[f("aa", true), f("bb", false)]);
        assert!(d.is_baseline);
        assert_eq!(d.new.len(), 2);
        assert_eq!(d.new_vulnerable, 1);
        assert!(!d.is_regression());
        assert_eq!(db.open_vulnerable(), 1);
    }

    #[test]
    fn repeat_scan_is_quiet_and_new_vulnerable_regresses() {
        let mut db = FindingsDb::default();
        db.record_scan("img", &[f("aa", true)]);
        let d = db.record_scan("img", &[f("aa", true)]);
        assert!(!d.is_baseline);
        assert!(d.new.is_empty() && d.reopened.is_empty() && d.resolved.is_empty());
        assert!(!d.is_regression());
        let d = db.record_scan("img", &[f("aa", true), f("cc", true)]);
        assert_eq!(d.new, vec!["cc".to_owned()]);
        assert!(d.is_regression());
    }

    #[test]
    fn resolve_then_reopen_regresses() {
        let mut db = FindingsDb::default();
        db.record_scan("img", &[f("aa", true)]);
        let d = db.record_scan("img", &[]);
        assert_eq!(d.resolved, vec!["aa".to_owned()]);
        assert!(!d.is_regression(), "a fix is not a regression");
        assert_eq!(db.open_vulnerable(), 0);
        let d = db.record_scan("img", &[f("aa", true)]);
        assert_eq!(d.reopened, vec!["aa".to_owned()]);
        assert!(d.is_regression());
    }

    #[test]
    fn sanitized_to_vulnerable_is_a_reopen() {
        let mut db = FindingsDb::default();
        db.record_scan("img", &[f("aa", false)]);
        let d = db.record_scan("img", &[f("aa", true)]);
        assert_eq!(d.reopened, vec!["aa".to_owned()]);
        assert!(d.is_regression());
    }

    #[test]
    fn images_are_independent() {
        let mut db = FindingsDb::default();
        db.record_scan("one", &[f("aa", true)]);
        let d = db.record_scan("two", &[f("aa", true)]);
        assert!(d.is_baseline, "same fingerprint in another image is that image's baseline");
    }

    #[test]
    fn db_round_trips_through_the_store_dir() {
        let root = std::env::temp_dir().join(format!("dtaint-store-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        let mut db = FindingsDb::default();
        db.record_scan("img", &[f("aa", true)]);
        store.save_db(&db).unwrap();
        assert_eq!(store.load_db(), db);
        assert!(store.reports_dir().is_dir());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_db_loads_empty() {
        let root = std::env::temp_dir().join(format!("dtaint-store-miss-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        let (db, sidecar) = store.load_db_checked();
        assert_eq!(db, FindingsDb::default());
        assert!(sidecar.is_none(), "missing is not corrupt");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_db_is_quarantined_not_silently_emptied() {
        let root =
            std::env::temp_dir().join(format!("dtaint-store-corrupt-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        std::fs::write(store.findings_path(), b"{\"generation\": 3, \"images\": {trunc").unwrap();
        let (db, sidecar) = store.load_db_checked();
        assert_eq!(db, FindingsDb::default());
        let sidecar = sidecar.expect("corrupt db yields a sidecar");
        assert!(sidecar.exists(), "evidence survives");
        assert!(!store.findings_path().exists(), "canonical name is cleared");
        assert!(sidecar
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("findings.json.corrupt-"));
        // The next load is clean — no repeat quarantine.
        let (_, again) = store.load_db_checked();
        assert!(again.is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn journal_appends_load_and_clear() {
        let root =
            std::env::temp_dir().join(format!("dtaint-store-journal-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        assert_eq!(store.load_journal(), JournalLoad::default());
        let entry = JournalEntry {
            v: JOURNAL_VERSION,
            image: "router".into(),
            content: "00000000deadbeef".into(),
            config: "alias:sse".into(),
            report: Some("router.json".into()),
            outcome: JournalOutcome::Ok,
            error: None,
            binaries: 2,
            findings: vec![f("aa", true)],
            sym_hits: 1,
            sym_misses: 2,
            ddg_hits: 3,
            ddg_misses: 4,
            invalidations: 0,
            metrics: dtaint_telemetry::MetricsRegistry::default(),
        };
        store.append_journal(&entry).unwrap();
        store.append_journal(&entry).unwrap();
        let load = store.load_journal();
        assert_eq!(load.entries.len(), 2);
        assert_eq!(load.entries[0], entry);
        assert_eq!(load.discarded_lines, 0);
        store.clear_journal();
        assert_eq!(store.load_journal(), JournalLoad::default());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_db_leaves_no_temp_droppings() {
        let root = std::env::temp_dir().join(format!("dtaint-store-tmp-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        let mut db = FindingsDb::default();
        db.record_scan("img", &[f("aa", true)]);
        store.save_db(&db).unwrap();
        let stray: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "no temp files survive a clean save: {stray:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn run_history_appends_and_loads() {
        let root = std::env::temp_dir().join(format!("dtaint-store-runs-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        assert_eq!(store.load_runs(), RunsLoad::default());
        let run = RunSummary {
            v: RUN_VERSION,
            config: "alias=sse;cache=on".into(),
            images: 2,
            ok: 2,
            ..RunSummary::default()
        };
        store.append_run(&run).unwrap();
        store.append_run(&run).unwrap();
        let load = store.load_runs();
        assert_eq!(load.runs.len(), 2);
        assert_eq!(load.runs[0], run);
        assert_eq!(load.discarded_lines, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn live_run_pid_sees_live_owner_only() {
        let root = std::env::temp_dir().join(format!("dtaint-store-live-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        assert_eq!(store.live_run_pid(), None, "no lock file");
        std::fs::write(store.lock_path(), format!("{}", std::process::id())).unwrap();
        assert_eq!(store.live_run_pid(), Some(std::process::id()));
        std::fs::write(store.lock_path(), "3999999999").unwrap();
        assert_eq!(store.live_run_pid(), None, "dead owner is not live");
        std::fs::write(store.lock_path(), "not-a-pid").unwrap();
        assert_eq!(store.live_run_pid(), None, "garbage lock is not live");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn store_lock_round_trips() {
        let root = std::env::temp_dir().join(format!("dtaint-store-lock-{}", std::process::id()));
        let store = StoreDir::open(&root).unwrap();
        let (guard, stole) = store.lock().unwrap();
        assert!(stole.is_none());
        assert!(store.lock_path().exists());
        drop(guard);
        assert!(!store.lock_path().exists());
        std::fs::remove_dir_all(&root).ok();
    }
}
