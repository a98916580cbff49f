//! `dtaint batch`: a corpus of images through the scan pipeline, with
//! the incremental cache, the findings database, the run journal and
//! the fleet observability exporters.

use crate::report::exemplars;
use crate::{analysis_config, export, export_with, load_binaries, Args};
use dtaint_core::{
    AnalysisReport, CacheFormat, CacheRef, CacheSnapshot, Dtaint, DtaintConfig, SummaryCache,
};
use dtaint_telemetry::{
    export_chrome, export_prometheus, log, FleetProgress, Heartbeat, ImageCacheStats, ImageOutcome,
    MetricsRegistry, SpanEvent, TraceBuffer,
};
use std::io::Write;
use std::sync::Arc;

/// One image's worth of work inside `batch`: a report and a cache scan
/// label per executable, or how and why the image failed (other images
/// are unaffected).
type ImageScan = Result<(Vec<AnalysisReport>, Vec<String>), (ImageOutcome, String)>;

/// Builds an image's journal entry on its scan worker, right after the
/// scan settles and before the same worker's next scan can reset the
/// per-label cache statistics. The commit on the main thread may run
/// arbitrarily later; building the record here (rather than reading the
/// live cache at commit time, which races with the worker running
/// ahead) is what lets an interrupted-and-resumed run reproduce an
/// uninterrupted one byte-for-byte at `--jobs 1`. Failed and timed-out
/// images carry no findings, zero cache traffic and an empty registry.
/// Returns the reports beside the entry for the commit to write.
fn journal_entry(
    job: &ImageJob,
    config: &str,
    cache: Option<&Arc<SummaryCache>>,
    scan: ImageScan,
) -> (dtaint_store::JournalEntry, Vec<AnalysisReport>) {
    let mut entry = dtaint_store::JournalEntry {
        v: dtaint_store::JOURNAL_VERSION,
        image: job.name.clone(),
        content: job.content.clone(),
        config: config.to_owned(),
        ..Default::default()
    };
    let (reports, labels) = match scan {
        Ok(scanned) => scanned,
        Err((outcome, error)) => {
            entry.outcome = outcome;
            entry.error = Some(error);
            return (entry, Vec::new());
        }
    };
    if let Some(c) = cache {
        for label in &labels {
            let st = c.scan_stats(label);
            entry.sym_hits += st.sym_hits;
            entry.sym_misses += st.sym_misses;
            entry.ddg_hits += st.ddg_hits;
            entry.ddg_misses += st.ddg_misses;
            entry.invalidations += st.invalidations;
        }
    }
    // Report registries hold only logical counters and `image.*`
    // gauges — cache traffic never enters them — so this merge is
    // bit-identical across `--jobs`, `--threads`, and cache warmth.
    for r in &reports {
        entry.metrics.merge_summing_gauges(&r.telemetry.metrics);
    }
    // One exemplar per fingerprint (the `diff` convention), before the
    // store fold.
    entry.findings = exemplars(reports.iter().flat_map(|r| &r.findings))
        .into_values()
        .map(|f| dtaint_store::ScanFinding {
            fingerprint: f.fingerprint.clone(),
            vulnerable: !f.sanitized(),
            sink: f.sink.clone(),
            sink_fn: f.sink_fn.clone(),
        })
        .collect();
    entry.binaries = reports.len();
    entry.report = Some(format!("{}.json", job.name));
    (entry, reports)
}

/// One image as enumerated from the corpus directory, with the content
/// hash the run journal keys resume decisions on.
#[derive(Clone)]
struct ImageJob {
    path: std::path::PathBuf,
    /// File stem — the store's image key.
    name: String,
    /// FNV-1a 64 of the image file bytes, 16 hex digits
    /// (`"unreadable"` when the file cannot be read; such an image never
    /// matches a journal entry and takes the per-image failure path).
    content: String,
}

/// Scans one image: every executable through the pipeline under
/// `config`, each with its own label's view of `cache`; panics caught
/// (with their payload string — "scan panicked" alone names nothing),
/// per-image errors isolated.
fn scan_image_attempt(
    job: &ImageJob,
    config: &DtaintConfig,
    cache: Option<&Arc<SummaryCache>>,
    stall: bool,
) -> ImageScan {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<(Vec<AnalysisReport>, Vec<String>), String> {
            if stall {
                // `--drill-stall` turns this image into a deterministic
                // pathological case for deadline tests.
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
            let mut reports = Vec::new();
            let mut labels = Vec::new();
            for (bin_name, bin) in load_binaries(&job.path.to_string_lossy())? {
                let label = format!("{}/{bin_name}", job.name);
                let config = DtaintConfig {
                    cache: cache.map(|c| CacheRef::new(c.clone(), &label)),
                    ..config.clone()
                };
                let report = Dtaint::with_config(config)
                    .analyze(&bin, &bin_name)
                    .map_err(|e| e.to_string())?;
                reports.push(report);
                labels.push(label);
            }
            Ok((reports, labels))
        },
    ));
    attempt
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown payload".to_owned());
            Err(format!("scan panicked: {msg}"))
        })
        .map_err(|e| (ImageOutcome::Error, e))
}

/// Runs [`scan_image_attempt`] under a wall-clock watchdog. The scan
/// runs on a detached supervisor-side thread; if it outlives the
/// deadline the image becomes a `Timeout` outcome and the thread is
/// abandoned (it keeps running until process exit — acceptable for a
/// batch process, and the timed-out image's results are never read).
/// `deadline_secs == 0` disables the watchdog.
fn scan_with_deadline(
    job: &ImageJob,
    config: &DtaintConfig,
    cache: Option<&Arc<SummaryCache>>,
    stall: bool,
    deadline_secs: u64,
) -> ImageScan {
    if deadline_secs == 0 {
        return scan_image_attempt(job, config, cache, stall);
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let (job, config, cache) = (job.clone(), config.clone(), cache.cloned());
    std::thread::spawn(move || {
        let _ = tx.send(scan_image_attempt(&job, &config, cache.as_ref(), stall));
    });
    rx.recv_timeout(std::time::Duration::from_secs(deadline_secs)).unwrap_or_else(|_| {
        Err((
            ImageOutcome::Timeout,
            format!("deadline: exceeded the {deadline_secs}s wall-clock budget"),
        ))
    })
}

/// Per-image entry of `corpus.json`.
#[derive(Default, serde::Serialize)]
struct CorpusImage {
    name: String,
    binaries: usize,
    findings: usize,
    vulnerable: usize,
    baseline: bool,
    new: usize,
    reopened: usize,
    resolved: usize,
    regression: bool,
    sym_hits: u64,
    sym_misses: u64,
    ddg_hits: u64,
    ddg_misses: u64,
    invalidations: u64,
    /// Findings folded away as duplicates across observer functions
    /// (from the image's `detect.duplicates_suppressed` counter).
    duplicates_suppressed: u64,
    /// Sink paths suppressed as infeasible during DDG propagation
    /// (from the image's `ddg.pruned_infeasible` counter).
    infeasible_suppressed: u64,
    timeout: bool,
    error: Option<String>,
}

/// The corpus-level summary written next to the per-image reports.
#[derive(Default, serde::Serialize)]
struct CorpusSummary {
    generation: u64,
    images: Vec<CorpusImage>,
    failures: usize,
    timeouts: usize,
    regressions: usize,
    vulnerable: usize,
    sym_hits: u64,
    sym_misses: u64,
    ddg_hits: u64,
    ddg_misses: u64,
    invalidations: u64,
    /// Corpus-wide sum of per-image `duplicates_suppressed`.
    duplicates_suppressed: u64,
    /// Corpus-wide sum of per-image `infeasible_suppressed`.
    infeasible_suppressed: u64,
    cache_entries: usize,
    cache_salvaged: u64,
    cache_discarded: u64,
    /// Corpus-wide rollup of every image's report registry — logical
    /// counters and summed `image.*` gauges, bit-identical across
    /// `--jobs`/`--threads` and across `--resume`.
    metrics: MetricsRegistry,
}

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let dir = args.arg(0);
    let jobs: usize = args.number("--jobs", 1)?;
    let deadline_secs: u64 = args.number("--deadline-secs", 0)?;
    let no_cache = args.flag("--no-cache");
    let resume = args.flag("--resume");
    let drill_stall = args.value("--drill-stall");
    let status_out = args.value("--status-out");
    // `--audit-dir` switches every scan into audit mode and lands one
    // `<image>.audit.jsonl` per freshly-scanned image in DIR.
    let audit_dir = args.value("--audit-dir").map(std::path::PathBuf::from);
    let scan_config = analysis_config(args, audit_dir.is_some())?;
    let store_root = args
        .value("--store")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(dir).join(".dtaint-store"));
    let fault_plan = match args.value("--drill-io") {
        None => dtaint_store::FaultPlan::None,
        Some(v) => {
            let k = v
                .strip_prefix("kill-after-appends:")
                .and_then(|n| n.parse().ok())
                .ok_or("batch: --drill-io expects kill-after-appends:N")?;
            dtaint_store::FaultPlan::KillAfterAppends { appends: k }
        }
    };
    let fault_fs = Arc::new(dtaint_store::FaultFs::with_plan(fault_plan));
    let store = dtaint_store::StoreDir::open_with_fs(&store_root, fault_fs)
        .map_err(|e| format!("batch: open store {}: {e}", store_root.display()))?;
    // One batch run at a time per store: the journal and the cache/db
    // snapshots are not merge-safe across concurrent writers.
    let (_lock, stolen) = store.lock().map_err(|e| format!("batch: {e}"))?;
    if let Some(pid) = stolen {
        log::warn(&format!("batch: evicted a stale store lock left by dead process {pid}"));
    }
    let reports_dir =
        args.value("--out").map(std::path::PathBuf::from).unwrap_or_else(|| store.reports_dir());
    std::fs::create_dir_all(&reports_dir)
        .map_err(|e| format!("batch: create {}: {e}", reports_dir.display()))?;
    if let Some(d) = &audit_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("batch: create {}: {e}", d.display()))?;
    }
    let run_started = std::time::Instant::now();
    let started_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut image_paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("batch: read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fwi"))
        .collect();
    image_paths.sort();
    if image_paths.is_empty() {
        return Err(format!("batch: no .fwi images in {dir}"));
    }
    let images: Vec<ImageJob> = image_paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_stem()
                .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
            let content = std::fs::read(&path).map_or_else(
                |_| "unreadable".to_owned(),
                |b| format!("{:016x}", dtaint_store::fnv64(&b)),
            );
            ImageJob { path, name, content }
        })
        .collect();

    // The findings database: missing is an empty baseline, corrupt is
    // quarantined loudly — a silently-emptied db would make every known
    // finding look new and fire a spurious regression exit.
    let (mut db, sidecar) = store.load_db_checked();
    if let Some(s) = &sidecar {
        log::warn(&format!(
            "batch: findings database was unreadable; quarantined to {} and starting a fresh baseline",
            s.display()
        ));
    }

    // The summary cache persists in the store across runs; `--no-cache`
    // scans cold and leaves the persisted cache untouched. Damaged
    // cache files are salvaged entry-by-entry; unrecognized ones are a
    // cold start.
    let (cache, cache_report) = if no_cache {
        (None, None)
    } else {
        let (c, rep) = SummaryCache::load_with_report(&store.cache_path());
        (Some(Arc::new(c)), Some(rep))
    };
    if let Some(rep) = cache_report.filter(|r| r.damaged) {
        log::warn(&format!(
            "batch: summary cache was damaged; salvaged {} entries, discarded {}",
            rep.salvaged, rep.discarded
        ));
    }
    // The store generation of the newest cache snapshot on disk: a clean
    // load is generation 0 (the file holds exactly the loaded entries);
    // a missing, unrecognized, or damaged file is stale (`None`), so the
    // first commit rewrites it clean. Snapshots are taken and written
    // only when the cache grew past it.
    let durable_cache = std::sync::Mutex::new(
        cache_report.filter(|r| r.format == CacheFormat::Dtc2 && !r.damaged).map(|_| 0u64),
    );
    let durable_generation =
        || *durable_cache.lock().expect("a cache commit panicked holding the generation");
    let cache_snapshots = std::cell::Cell::new(0u64);
    // Writes `snap` unless the file on disk is at least as new — which
    // also keeps a `--jobs` > 1 capture taken before a later-committed
    // one from overwriting it.
    let persist_snapshot = |snap: &CacheSnapshot| -> Result<(), String> {
        if durable_generation().is_some_and(|g| snap.generation <= g) {
            return Ok(());
        }
        dtaint_store::atomic_write_parts(store.fs(), &store.cache_path(), &snap.parts())
            .map_err(|e| format!("write {}: {e}", store.cache_path().display()))?;
        *durable_cache.lock().expect("a cache commit panicked holding the generation") =
            Some(snap.generation);
        cache_snapshots.set(cache_snapshots.get() + 1);
        Ok(())
    };

    // Resume bookkeeping. The semantic-config tag fences journal reuse:
    // an entry recorded under another alias mode (or cache setting)
    // would not reproduce this run's results.
    // Audit mode changes the per-image report files (decisions embedded)
    // and owes an audit file per image, so audited runs never replay
    // journal entries from unaudited ones (and vice versa). The tag only
    // grows when auditing, keeping existing journals valid.
    let config_tag = format!(
        "alias={};cache={}{}",
        args.value("--alias").unwrap_or("default"),
        if no_cache { "off" } else { "on" },
        if scan_config.audit { ";audit=on" } else { "" }
    );
    let prior = if resume {
        store.load_journal()
    } else {
        store.clear_journal();
        dtaint_store::JournalLoad::default()
    };
    if prior.discarded_lines > 0 {
        log::warn(&format!(
            "batch: discarded {} torn journal line(s) from the interrupted run",
            prior.discarded_lines
        ));
    }
    // The last entry of an image wins.
    let journaled: std::collections::HashMap<&str, &dtaint_store::JournalEntry> =
        prior.entries.iter().map(|e| (e.image.as_str(), e)).collect();
    // A journal entry replays only while the image bytes and the config
    // still match; timeouts are never final (wall-clock is a property
    // of the host, not the image) and are re-scanned.
    let plan: Vec<Option<&dtaint_store::JournalEntry>> = images
        .iter()
        .map(|j| {
            journaled.get(j.name.as_str()).copied().filter(|e| {
                e.content == j.content
                    && e.config == config_tag
                    && e.outcome != ImageOutcome::Timeout
            })
        })
        .collect();
    let resumed = plan.iter().flatten().count();
    if resumed > 0 {
        log::info(&format!("batch: resuming — {resumed} image(s) already completed, skipping"));
    }
    let work: Vec<usize> = (0..images.len()).filter(|&i| plan[i].is_none()).collect();
    let worker_count = jobs.clamp(1, work.len().max(1));

    // Live progress: workers report into the tracker; a reporter thread
    // periodically rewrites the heartbeat (atomically, so a poller never
    // sees a torn file) and repaints the TTY status line. Everything is
    // advisory — a heartbeat write failure never fails the batch, and
    // nothing here feeds back into reports or the store's identity
    // contract.
    let progress = FleetProgress::new(images.len(), worker_count, &config_tag);
    for e in plan.iter().flatten() {
        progress.note_resumed(e.outcome);
    }
    let write_heartbeat = |hb: &Heartbeat| {
        if let Ok(json) = serde_json::to_string_pretty(hb) {
            let _ = dtaint_store::atomic_write(store.fs(), &store.status_path(), json.as_bytes());
            if let Some(p) = status_out {
                let _ = dtaint_store::atomic_write(store.fs(), p.as_ref(), json.as_bytes());
            }
        }
    };
    // An initial heartbeat before any scan: a batch killed on its very
    // first image still leaves `dtaint status` something to report.
    write_heartbeat(&progress.heartbeat("running"));
    // The batch scheduler clock: worker spans for `--trace-chrome`
    // share this epoch (lane 0 holds the batch root, worker i uses
    // lane i+1).
    let batch_clock = dtaint_telemetry::Clock::new();
    let mut batch_lane = TraceBuffer::new(batch_clock, 0, true);
    let batch_t0 = batch_lane.start();

    // Commits one freshly-scanned image durably, in order: report →
    // audit file → cache snapshot → journal append, and returns the
    // entry for the fold. The journal append is the commit point — a
    // crash before it re-scans the image on resume, a crash after it
    // replays the entry, and the per-image cache snapshot keeps a
    // resumed run's warm state identical to an uninterrupted one's.
    let commit = |entry: dtaint_store::JournalEntry,
                  reports: &[AnalysisReport],
                  snapshot: Option<&CacheSnapshot>|
     -> Result<dtaint_store::JournalEntry, String> {
        if let Some(report_name) = &entry.report {
            // One report file per image: a single JSON object when the
            // image holds one executable (the common case, `diff`-able
            // as-is), else a JSON array.
            let (open, close): (&[u8], &[u8]) =
                if reports.len() == 1 { (b"", b"") } else { (b"[\n", b"\n]") };
            let mut doc = open.to_vec();
            for (i, r) in reports.iter().enumerate() {
                if i > 0 {
                    doc.extend_from_slice(b",\n");
                }
                serde_json::to_writer_pretty(&mut doc, r).map_err(|e| e.to_string())?;
            }
            doc.extend_from_slice(close);
            let report_path = reports_dir.join(report_name);
            dtaint_store::atomic_write(store.fs(), &report_path, &doc)
                .map_err(|e| format!("write {}: {e}", report_path.display()))?;

            // The per-image decision log, durable before the journal
            // commit point so a replayed image always has its audit
            // file on disk.
            if let Some(adir) = &audit_dir {
                let mut jsonl = Vec::new();
                for r in reports {
                    dtaint_telemetry::export_jsonl(&r.decisions, &mut jsonl)
                        .map_err(|e| e.to_string())?;
                }
                let audit_path = adir.join(format!("{}.audit.jsonl", entry.image));
                dtaint_store::atomic_write(store.fs(), &audit_path, &jsonl)
                    .map_err(|e| format!("write {}: {e}", audit_path.display()))?;
            }
        }
        if let Some(snap) = snapshot {
            persist_snapshot(snap)?;
        }
        store
            .append_journal(&entry)
            .map_err(|e| format!("write {}: {e}", store.journal_path().display()))?;
        Ok(entry)
    };

    // Work-stealing across the un-journaled images: workers pull the
    // next index and send outcomes back; the main thread commits them
    // durably in sorted-image order (so the journal prefix after a
    // crash is always an in-order prefix of the corpus).
    let next = std::sync::atomic::AtomicUsize::new(0);
    // The reporter's stop flag and the condvar that wakes it on stop.
    let stop_reporter = (std::sync::Mutex::new(false), std::sync::Condvar::new());
    // A scanned image on its way to the commit: its entry, the reports
    // to write, the cache snapshot to persist and its scheduler span for
    // `--trace-chrome` (wall-clock; never journaled), as its lane's events.
    type Scanned =
        (dtaint_store::JournalEntry, Vec<AnalysisReport>, Option<CacheSnapshot>, Vec<SpanEvent>);
    let (txo, rxo) = std::sync::mpsc::channel::<(usize, Scanned)>();
    let mut entries: Vec<dtaint_store::JournalEntry> = Vec::with_capacity(images.len());
    let mut span_events: Vec<SpanEvent> = Vec::new();
    let mut commit_err: Option<String> = None;
    std::thread::scope(|s| {
        let images = &images;
        let work = &work;
        let cache = &cache;
        let scan_config = &scan_config;
        let durable_generation = &durable_generation;
        let config_tag = &config_tag;
        let next = &next;
        let progress = &progress;
        let stop_reporter = &stop_reporter;
        let write_heartbeat = &write_heartbeat;
        for widx in 0..worker_count {
            let txo = txo.clone();
            // The newest snapshot generation this worker has captured. A
            // worker's images come in increasing order and are committed
            // in image order, so that capture is on disk before any later
            // image of this worker commits; encoding the same generation
            // again would only duplicate the cache in memory, once per
            // image the commit thread lags behind.
            let mut captured: Option<u64> = None;
            s.spawn(move || loop {
                let w = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some(&i) = work.get(w) else { break };
                let j = &images[i];
                progress.start_image(widx, &j.name);
                let mut lane = TraceBuffer::new(batch_clock, widx as u32 + 1, true);
                let span_t0 = lane.start();
                let scan = scan_with_deadline(
                    j,
                    scan_config,
                    cache.as_ref(),
                    drill_stall == Some(j.name.as_str()),
                    deadline_secs,
                );
                // Take the snapshot and build the entry *now*, before
                // this worker's next scan can disturb the cache — the
                // commit on the main thread may run arbitrarily later.
                // The snapshot is taken only when the cache grew past
                // the newest one on disk and past this worker's last.
                let snapshot = cache
                    .as_ref()
                    .and_then(|c| c.snapshot_newer_than(durable_generation().max(captured)));
                if let Some(snap) = &snapshot {
                    captured = Some(snap.generation);
                }
                let (entry, reports) = journal_entry(j, config_tag, cache.as_ref(), scan);
                let args = [
                    ("binaries", entry.binaries as u64),
                    ("findings", reports.iter().map(|r| r.findings.len() as u64).sum()),
                    ("sym_hits", entry.sym_hits),
                    ("ddg_hits", entry.ddg_hits),
                    ("outcome", entry.outcome as u64),
                ];
                lane.record(&j.name, "image", span_t0, &args);
                let span = lane.take_events();
                progress.finish_image(widx, entry.outcome, entry.cache());
                let _ = txo.send((i, (entry, reports, snapshot, span)));
            });
        }
        drop(txo);
        // The heartbeat reporter: rewrites the status file every ~250ms
        // and repaints the TTY line. It waits on the stop condvar, so
        // setting the flag ends it at once.
        s.spawn(move || {
            use std::io::IsTerminal;
            let tty = std::io::stderr().is_terminal() && log::enabled(log::Level::Info);
            let mut painted = false;
            let (stopped, wake) = stop_reporter;
            loop {
                let flag = stopped.lock().expect("the batch panicked holding the stop flag");
                let (flag, _) = wake
                    .wait_timeout_while(flag, std::time::Duration::from_millis(250), |s| !*s)
                    .expect("the batch panicked holding the stop flag");
                if *flag {
                    break;
                }
                drop(flag);
                let hb = progress.heartbeat("running");
                write_heartbeat(&hb);
                if tty {
                    eprint!("\r\x1b[K{}", hb.render_line());
                    painted = true;
                }
            }
            if painted {
                eprint!("\r\x1b[K");
            }
        });
        let mut pending: std::collections::BTreeMap<usize, Scanned> =
            std::collections::BTreeMap::new();
        'commit: for (i, planned) in plan.iter().enumerate() {
            let entry = match planned {
                Some(entry) => (*entry).clone(),
                None => {
                    let (entry, reports, snapshot, span) = loop {
                        if let Some(got) = pending.remove(&i) {
                            break got;
                        }
                        match rxo.recv() {
                            Ok((k, got)) if k == i => break got,
                            Ok((k, got)) => {
                                pending.insert(k, got);
                            }
                            Err(_) => {
                                commit_err = Some("batch: a scan worker died".into());
                                break 'commit;
                            }
                        }
                    };
                    span_events.extend(span);
                    match commit(entry, &reports, snapshot.as_ref()) {
                        Ok(entry) => entry,
                        Err(e) => {
                            commit_err = Some(format!("batch: {e}"));
                            break 'commit;
                        }
                    }
                }
            };
            entries.push(entry);
        }
        *stop_reporter.0.lock().expect("the reporter panicked holding the stop flag") = true;
        stop_reporter.1.notify_all();
    });
    if let Some(e) = commit_err {
        return Err(e);
    }

    // Deterministic fold, in sorted-image order: record findings and
    // aggregate the corpus summary. A resumed image folds the entry its
    // original scan journaled, so the database and `corpus.json` come
    // out byte-identical to an uninterrupted run.
    let mut summary = CorpusSummary {
        cache_salvaged: cache_report.map_or(0, |r| r.salvaged),
        cache_discarded: cache_report.map_or(0, |r| r.discarded),
        ..Default::default()
    };
    let mut traffic = ImageCacheStats::default();
    let mut baselines = 0usize;
    let mut totals_new = 0usize;
    let mut totals_reopened = 0usize;
    let mut totals_resolved = 0usize;
    for e in entries {
        // The corpus rollup folds every image's report registry in
        // sorted-image order; gauges sum, so the result is independent
        // of worker scheduling and identical under `--resume`.
        summary.metrics.merge_summing_gauges(&e.metrics);
        let cache = e.cache();
        traffic += cache;
        if let Some(err) = e.error {
            // Failed and timed-out images never fold findings into the
            // database — a partial scan must not resolve or baseline
            // anything.
            let timeout = e.outcome == ImageOutcome::Timeout;
            if timeout {
                summary.timeouts += 1;
            } else {
                summary.failures += 1;
            }
            emit!(out, "!! {}: {err}\n", e.image)?;
            summary.images.push(CorpusImage {
                name: e.image,
                timeout,
                error: Some(err),
                ..Default::default()
            });
            continue;
        }
        let delta = db.record_scan(&e.image, &e.findings);
        baselines += usize::from(delta.is_baseline);
        totals_new += delta.new.len();
        totals_reopened += delta.reopened.len();
        totals_resolved += delta.resolved.len();
        // Suppression counters come from the journaled report registry,
        // so a resumed image surfaces the same numbers a fresh scan
        // would.
        let img = CorpusImage {
            name: e.image,
            binaries: e.binaries,
            findings: e.findings.len(),
            vulnerable: e.findings.iter().filter(|f| f.vulnerable).count(),
            baseline: delta.is_baseline,
            new: delta.new.len(),
            reopened: delta.reopened.len(),
            resolved: delta.resolved.len(),
            regression: delta.is_regression(),
            sym_hits: cache.sym_hits,
            sym_misses: cache.sym_misses,
            ddg_hits: cache.ddg_hits,
            ddg_misses: cache.ddg_misses,
            invalidations: cache.invalidations,
            duplicates_suppressed: e.metrics.counter("detect.duplicates_suppressed"),
            infeasible_suppressed: e.metrics.counter("ddg.pruned_infeasible"),
            ..Default::default()
        };
        let status = if delta.is_baseline {
            "baseline".to_owned()
        } else if delta.is_regression() {
            format!("REGRESSION: {} new, {} reopened", delta.new.len(), delta.reopened.len())
        } else {
            format!(
                "{} new, {} reopened, {} resolved",
                delta.new.len(),
                delta.reopened.len(),
                delta.resolved.len()
            )
        };
        emit!(
            out,
            "== {}: {} binarie(s), {} finding(s), {} vulnerable, cache {cache} dup {} inf {} [{status}]\n",
            img.name,
            img.binaries,
            img.findings,
            img.vulnerable,
            img.duplicates_suppressed,
            img.infeasible_suppressed,
        )?;
        summary.vulnerable += img.vulnerable;
        summary.regressions += usize::from(img.regression);
        summary.duplicates_suppressed += img.duplicates_suppressed;
        summary.infeasible_suppressed += img.infeasible_suppressed;
        summary.images.push(img);
    }
    summary.sym_hits = traffic.sym_hits;
    summary.sym_misses = traffic.sym_misses;
    summary.ddg_hits = traffic.ddg_hits;
    summary.ddg_misses = traffic.ddg_misses;
    summary.invalidations = traffic.invalidations;
    summary.generation = db.generation;
    if let Some(c) = &cache {
        summary.cache_entries = c.totals().entries;
        // Final snapshot: with `--jobs` > 1 late workers may have
        // stored entries after the last per-image snapshot.
        if let Some(snap) = c.snapshot_newer_than(durable_generation()) {
            persist_snapshot(&snap)?;
        }
    }
    store.save_db(&db).map_err(|e| format!("write {}: {e}", store.findings_path().display()))?;
    let corpus_path = reports_dir.join("corpus.json");
    let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    dtaint_store::atomic_write(store.fs(), &corpus_path, json.as_bytes())
        .map_err(|e| format!("write {}: {e}", corpus_path.display()))?;
    // The run is complete and every artifact durable: the journal owes
    // nothing to resume any more.
    store.clear_journal();

    // Batch-level exporters, all fed from the corpus rollup (or, for
    // the Chrome trace, the scheduler spans absorbed in commit order).
    if let Some(dest) = args.value("--metrics-out") {
        let json = serde_json::to_string_pretty(&summary.metrics).map_err(|e| e.to_string())?;
        export(dest, json, "corpus metrics")?;
    }
    if let Some(dest) = args.value("--prom-out") {
        // An export-only copy: run-level gauges/counters ride along for
        // dashboards but never enter the persisted (deterministic)
        // rollup.
        let mut m = summary.metrics.clone();
        m.set_gauge("batch.images", summary.images.len() as u64);
        m.set_gauge("batch.failures", summary.failures as u64);
        m.set_gauge("batch.timeouts", summary.timeouts as u64);
        m.set_gauge("batch.regressions", summary.regressions as u64);
        m.set_gauge("batch.vulnerable", summary.vulnerable as u64);
        m.set_gauge("batch.cache_entries", summary.cache_entries as u64);
        m.inc("batch.cache.sym_hits", traffic.sym_hits);
        m.inc("batch.cache.sym_misses", traffic.sym_misses);
        m.inc("batch.cache.ddg_hits", traffic.ddg_hits);
        m.inc("batch.cache.ddg_misses", traffic.ddg_misses);
        m.inc("batch.cache.invalidations", traffic.invalidations);
        export(dest, export_prometheus(&m, "dtaint_"), "Prometheus textfile")?;
    }
    if let Some(dest) = args.value("--trace-chrome") {
        // Lane 0: the batch root span; lanes 1..: one span per image on
        // the worker that scanned it — the work-stealing schedule made
        // visible. Resumed images never ran, so they have no span.
        let args = [
            ("images", summary.images.len() as u64),
            ("resumed", resumed as u64),
            ("failures", summary.failures as u64),
            ("timeouts", summary.timeouts as u64),
            ("cache_snapshots", cache_snapshots.get()),
        ];
        batch_lane.record("batch", "batch", batch_t0, &args);
        let mut events = batch_lane.take_events();
        events.extend(span_events);
        export_with(dest, "batch Chrome trace (chrome://tracing, Perfetto)", |out| {
            export_chrome(&events, out)
        })?;
    }

    // One run-history line per completed run. Advisory like the
    // heartbeat: a failed append costs trend data, never the batch.
    let run_record = dtaint_store::RunSummary {
        v: dtaint_store::RUN_VERSION,
        started_unix,
        wall_ms: run_started.elapsed().as_millis() as u64,
        config: config_tag.clone(),
        generation: db.generation,
        images: summary.images.len(),
        ok: summary.images.len() - summary.failures - summary.timeouts,
        failures: summary.failures,
        timeouts: summary.timeouts,
        resumed,
        baselines,
        new_findings: totals_new,
        reopened: totals_reopened,
        resolved: totals_resolved,
        regressions: summary.regressions,
        open_vulnerable: db.open_vulnerable(),
        sym_hits: traffic.sym_hits,
        sym_misses: traffic.sym_misses,
        ddg_hits: traffic.ddg_hits,
        ddg_misses: traffic.ddg_misses,
        invalidations: traffic.invalidations,
        cache_entries: summary.cache_entries,
        journal_discarded: prior.discarded_lines,
    };
    if let Err(e) = store.append_run(&run_record) {
        log::warn(&format!("batch: could not append run history: {e}"));
    }

    // Final heartbeat: phase "done", everything committed.
    write_heartbeat(&progress.heartbeat("done"));

    let timeouts_note = if summary.timeouts > 0 {
        format!(", {} timeout(s)", summary.timeouts)
    } else {
        String::new()
    };
    emit!(
        out,
        "corpus: {} image(s), {} vulnerable finding(s), {} regression(s), {} failure(s){}; cache {traffic} ({} entries)\n",
        summary.images.len(),
        summary.vulnerable,
        summary.regressions,
        summary.failures,
        timeouts_note,
        summary.cache_entries,
    )?;
    Ok(if summary.regressions > 0 {
        2
    } else if summary.failures + summary.timeouts > 0 {
        4
    } else {
        0
    })
}
