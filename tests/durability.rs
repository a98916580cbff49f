//! Durability & recovery drills for the batch scanning pipeline.
//!
//! These tests exercise the crash-safety contract end to end through
//! the real CLI: a run killed mid-corpus (via the `FaultFs` drill hook)
//! must leave a durable, in-order prefix behind, and `--resume` must
//! finish the corpus with `findings.json` and `corpus.json` coming out
//! byte-identical to an uninterrupted run. Alongside the interrupt
//! drills, the property tests pin down the `DTC2` salvage counters
//! *exactly* under seeded truncation and single-bit corruption from the
//! `fwgen::mutate` operators.

use std::path::{Path, PathBuf};

use dtaint_cli::run_captured;
use dtaint_dataflow::{CacheFormat, Level, SummaryCache};
use dtaint_fwgen::mutate::{corrupt_bytes, store_fault_corpus, ByteFault};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dtaint-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Packs the profile-0 firmware at `functions` functions.
fn image_bytes(functions: usize, benign: bool) -> Vec<u8> {
    let mut profile = dtaint_fwgen::table2_profiles().remove(0);
    profile.total_functions = functions;
    if benign {
        profile.plants.clear();
        profile.extra_paths = 0;
    }
    dtaint_fwgen::build_firmware(&profile).image.pack(false)
}

/// A three-image corpus whose names sort `alpha < bravo < charlie`,
/// with three *distinct* contents (different content hashes, so resume
/// replay really matches on bytes, not just names).
fn three_image_corpus(tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    std::fs::write(dir.join("alpha.fwi"), image_bytes(50, false)).unwrap();
    std::fs::write(dir.join("bravo.fwi"), image_bytes(54, false)).unwrap();
    std::fs::write(dir.join("charlie.fwi"), image_bytes(50, true)).unwrap();
    dir
}

fn read(p: &Path) -> Vec<u8> {
    std::fs::read(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

// ---------------------------------------------------------------------------
// Interrupt → resume
// ---------------------------------------------------------------------------

/// The acceptance drill: kill the run after one committed image, then
/// `--resume` — the database and the corpus summary must come out
/// byte-identical to a run that was never interrupted, and the already
/// committed image must be replayed from the journal, not re-scanned.
#[test]
fn interrupted_batch_resumes_byte_identical_to_uninterrupted() {
    let dir = three_image_corpus("resume");
    let d = dir.to_str().unwrap();
    let sa = dir.join("store-a");
    let sb = dir.join("store-b");

    // Reference: one uninterrupted run.
    let (code, out) = run_captured(&["batch", d, "--store", sa.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");

    // Drill: the first journal append (image `alpha`) succeeds, then
    // every store write fails — the process "dies" between images.
    let (code, out) = run_captured(&[
        "batch",
        d,
        "--store",
        sb.to_str().unwrap(),
        "--drill-io",
        "kill-after-appends:1",
    ]);
    let err = code.expect_err("the drill must kill the run");
    assert!(err.contains("injected kill"), "died for the drilled reason: {err}\n{out}");

    // Exactly the committed prefix is durable: alpha's report, the
    // cache snapshot, and one journal line — no db, no corpus summary.
    assert!(sb.join("reports/alpha.json").exists(), "committed report survives");
    assert!(!sb.join("reports/bravo.json").exists(), "uncommitted image left nothing");
    assert!(!sb.join("findings.json").exists(), "db is only written by a complete run");
    assert!(!sb.join("reports/corpus.json").exists());
    assert!(sb.join("journal.jsonl").exists(), "the commit point is the journal");

    // Poison the committed report: resume must trust the journal and
    // skip the image entirely, never re-scan (or re-write) it.
    std::fs::write(sb.join("reports/alpha.json"), b"SENTINEL").unwrap();

    let (code, out) = run_captured(&["batch", d, "--store", sb.to_str().unwrap(), "--resume"]);
    assert_eq!(code, Ok(0), "resume finishes the corpus: {out}");

    assert_eq!(
        read(&sa.join("findings.json")),
        read(&sb.join("findings.json")),
        "findings db diverged from the uninterrupted run"
    );
    assert_eq!(
        read(&sa.join("reports/corpus.json")),
        read(&sb.join("reports/corpus.json")),
        "corpus summary diverged from the uninterrupted run"
    );
    assert_eq!(read(&sb.join("reports/alpha.json")), b"SENTINEL", "alpha was re-scanned");
    // Per-image reports carry wall-clock timings, so compare them with
    // the clock zeroed: every logical field must still match.
    let report = |p: &Path| {
        dtaint_core::AnalysisReport::from_json(&String::from_utf8(read(p)).unwrap())
            .unwrap()
            .with_zeroed_wall_clock()
    };
    assert_eq!(
        report(&sa.join("reports/bravo.json")),
        report(&sb.join("reports/bravo.json")),
        "freshly scanned images still match"
    );
    // A completed run retires its journal; the next run starts clean.
    assert!(
        !sb.join("journal.jsonl").exists() || read(&sb.join("journal.jsonl")).is_empty(),
        "journal cleared after completion"
    );
}

/// Without `--resume`, an interrupted run's journal is discarded and
/// the corpus is scanned from scratch — same final bytes, no replay.
#[test]
fn plain_rerun_after_interrupt_discards_the_journal_and_rescans() {
    let dir = three_image_corpus("norescue");
    let d = dir.to_str().unwrap();
    let sb = dir.join("store");
    let (code, _) = run_captured(&[
        "batch",
        d,
        "--store",
        sb.to_str().unwrap(),
        "--drill-io",
        "kill-after-appends:1",
    ]);
    assert!(code.is_err());
    std::fs::write(sb.join("reports/alpha.json"), b"SENTINEL").unwrap();
    let (code, out) = run_captured(&["batch", d, "--store", sb.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert_ne!(
        read(&sb.join("reports/alpha.json")),
        b"SENTINEL",
        "a non-resume run must re-scan and re-write every image"
    );
}

/// A failed image is final: when it is the journaled prefix of a killed
/// run, `--resume` folds its journaled failure instead of re-scanning
/// it, and the database and corpus summary still come out
/// byte-identical to an uninterrupted run.
#[test]
fn resume_replays_a_journaled_failed_image() {
    let dir = tmpdir("resume-failed");
    std::fs::write(dir.join("aaa-broken.fwi"), b"not a firmware image").unwrap();
    std::fs::write(dir.join("bravo.fwi"), image_bytes(54, false)).unwrap();
    std::fs::write(dir.join("charlie.fwi"), image_bytes(50, true)).unwrap();
    let d = dir.to_str().unwrap();
    let sa = dir.join("store-a");
    let sb = dir.join("store-b");

    let (code, out) = run_captured(&["batch", d, "--store", sa.to_str().unwrap()]);
    assert_eq!(code, Ok(4), "the broken image fails the run: {out}");

    // The broken image's failure is the one committed journal line.
    let (code, out) = run_captured(&[
        "batch",
        d,
        "--store",
        sb.to_str().unwrap(),
        "--drill-io",
        "kill-after-appends:1",
    ]);
    let err = code.expect_err("the drill must kill the run");
    assert!(err.contains("injected kill"), "died for the drilled reason: {err}\n{out}");

    let (code, out) = run_captured(&["batch", d, "--store", sb.to_str().unwrap(), "--resume"]);
    assert_eq!(code, Ok(4), "the replayed failure still fails the run: {out}");
    assert!(out.contains("!! aaa-broken: "), "{out}");
    let runs = dtaint_store::parse_runs(&read(&sb.join("runs.jsonl")));
    assert_eq!(runs.runs.last().map(|r| r.resumed), Some(1), "the failure was replayed");

    assert_eq!(
        read(&sa.join("findings.json")),
        read(&sb.join("findings.json")),
        "findings db diverged from the uninterrupted run"
    );
    assert_eq!(
        read(&sa.join("reports/corpus.json")),
        read(&sb.join("reports/corpus.json")),
        "corpus summary diverged from the uninterrupted run"
    );
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// A stalled image times out, surfaces as a `Timeout` outcome with exit
/// 4, and never folds into the findings database.
#[test]
fn deadline_times_out_the_stalled_image_and_exits_4() {
    let dir = tmpdir("deadline");
    let quick = image_bytes(50, false);
    std::fs::write(dir.join("quick.fwi"), &quick).unwrap();
    std::fs::write(dir.join("slow.fwi"), &quick).unwrap();
    let d = dir.to_str().unwrap();

    let (code, out) = run_captured(&["batch", d, "--deadline-secs", "1", "--drill-stall", "slow"]);
    assert_eq!(code, Ok(4), "timeouts are failures, not regressions: {out}");
    assert!(out.contains("!! slow"), "{out}");
    assert!(out.contains("deadline"), "{out}");
    assert!(out.contains("timeout(s)"), "{out}");

    let corpus = std::fs::read_to_string(dir.join(".dtaint-store/reports/corpus.json")).unwrap();
    assert!(corpus.contains("\"timeouts\": 1"), "{corpus}");
    assert!(corpus.contains("\"timeout\": true"), "{corpus}");
    let db = std::fs::read_to_string(dir.join(".dtaint-store/findings.json")).unwrap();
    assert!(!db.contains("\"slow\""), "a timed-out image must never enter the db: {db}");
    assert!(db.contains("\"quick\""), "healthy images still fold: {db}");
}

/// A `Timeout` journal entry is advisory, not final: wall-clock is a
/// property of the host, so `--resume` re-scans the image instead of
/// replaying the timeout.
#[test]
fn resume_rescans_timed_out_images_instead_of_replaying_them() {
    let dir = tmpdir("timeout-resume");
    let bytes = image_bytes(50, false);
    std::fs::write(dir.join("quick.fwi"), &bytes).unwrap();
    std::fs::write(dir.join("slow.fwi"), &bytes).unwrap();
    std::fs::write(dir.join("zulu.fwi"), &bytes).unwrap();
    let d = dir.to_str().unwrap();
    let store = dir.join(".dtaint-store");

    // quick commits (append 1), slow times out and commits (append 2),
    // then zulu's report write hits the injected kill.
    let (code, _) = run_captured(&[
        "batch",
        d,
        "--deadline-secs",
        "1",
        "--drill-stall",
        "slow",
        "--drill-io",
        "kill-after-appends:2",
    ]);
    assert!(code.is_err(), "the drill must kill the run before zulu commits");
    assert!(store.join("journal.jsonl").exists());

    // Resume with the stall lifted: quick replays, slow re-scans (its
    // journaled outcome was Timeout), zulu scans fresh — all clean.
    let (code, out) = run_captured(&["batch", d, "--resume"]);
    assert_eq!(code, Ok(0), "{out}");
    let corpus = std::fs::read_to_string(store.join("reports/corpus.json")).unwrap();
    assert!(corpus.contains("\"timeouts\": 0"), "{corpus}");
    let db = std::fs::read_to_string(store.join("findings.json")).unwrap();
    assert!(db.contains("\"slow\""), "the re-scan folds slow into the db: {db}");
}

// ---------------------------------------------------------------------------
// Corrupt-state recovery
// ---------------------------------------------------------------------------

/// A corrupt findings database is quarantined to a sidecar and the run
/// restarts from a fresh baseline — exit 0, never a spurious exit-2
/// "regression" born from a silently emptied db.
#[test]
fn corrupt_findings_db_is_quarantined_not_a_spurious_regression() {
    let dir = tmpdir("quarantine");
    std::fs::write(dir.join("router.fwi"), image_bytes(50, false)).unwrap();
    let d = dir.to_str().unwrap();
    let store = dir.join(".dtaint-store");

    let (code, out) = run_captured(&["batch", d]);
    assert_eq!(code, Ok(0), "{out}");
    std::fs::write(store.join("findings.json"), b"{ definitely not json").unwrap();

    let (code, out) = run_captured(&["batch", d]);
    assert_eq!(code, Ok(0), "fresh baseline, not a regression: {out}");
    assert!(out.contains("[baseline]"), "{out}");
    let sidecars: Vec<String> = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("findings.json.corrupt-"))
        .collect();
    assert_eq!(sidecars.len(), 1, "exactly one quarantine sidecar: {sidecars:?}");
    assert_eq!(
        read(&store.join(&sidecars[0])),
        b"{ definitely not json",
        "the corrupt bytes are preserved for inspection"
    );
    let db = std::fs::read_to_string(store.join("findings.json")).unwrap();
    assert!(db.contains("\"router\""), "the db was rebuilt: {db}");
}

/// The store lock refuses a second live runner and steals locks left by
/// dead processes.
#[test]
fn store_lock_blocks_live_owners_and_steals_stale_ones() {
    let dir = tmpdir("lock");
    std::fs::write(dir.join("router.fwi"), image_bytes(50, false)).unwrap();
    let d = dir.to_str().unwrap();
    let store = dir.join(".dtaint-store");
    std::fs::create_dir_all(&store).unwrap();

    // pid 1 is always alive: the lock holds.
    std::fs::write(store.join("lock"), b"1").unwrap();
    let (code, _) = run_captured(&["batch", d]);
    let err = code.expect_err("a live lock must refuse the run");
    assert!(err.contains("locked by running process 1"), "{err}");

    // A pid that cannot exist: stale, stolen, run proceeds.
    std::fs::write(store.join("lock"), b"3999999999").unwrap();
    let (code, out) = run_captured(&["batch", d]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(!store.join("lock").exists(), "the lock is released on exit");
}

// ---------------------------------------------------------------------------
// Cache persistence — `summaries.dtc` is written only when the cache grew
// ---------------------------------------------------------------------------

/// Runs one `batch --jobs 1` of `corpus` into `store`, expecting exit 0,
/// and returns how many times it wrote `summaries.dtc` — the
/// `cache_snapshots` arg of the `--trace-chrome` batch root span.
fn batch_counting_snapshots(corpus: &Path, store: &Path) -> i64 {
    batch_counting_snapshots_with(corpus, store, &[])
}

/// [`batch_counting_snapshots`] with extra `batch` arguments.
fn batch_counting_snapshots_with(corpus: &Path, store: &Path, extra: &[&str]) -> i64 {
    let trace = store.with_extension("trace.json");
    let mut args = vec![
        "batch",
        corpus.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--trace-chrome",
        trace.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let (code, out) = run_captured(&args);
    assert_eq!(code, Ok(0), "{out}");
    let doc: serde_json::Value = serde_json::from_str(&String::from_utf8(read(&trace)).unwrap())
        .expect("the Chrome trace parses");
    let Some(serde_json::Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("the Chrome trace has no traceEvents array")
    };
    let root = events
        .iter()
        .find(|e| e.get("cat") == Some(&serde_json::Value::Str("batch".into())))
        .expect("the batch root span");
    match root.get("args").and_then(|a| a.get("cache_snapshots")) {
        Some(serde_json::Value::Int(n)) => *n,
        other => panic!("cache_snapshots arg: {other:?}"),
    }
}

fn inode(p: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(p).unwrap_or_else(|e| panic!("stat {}: {e}", p.display())).ino()
}

/// A warm batch over an unchanged corpus stores nothing, so it leaves
/// `summaries.dtc` alone: no snapshot, same inode, same bytes.
#[test]
fn unchanged_corpus_leaves_the_cache_file_untouched() {
    let dir = three_image_corpus("cache-untouched");
    let store = dir.join("store");
    assert_eq!(batch_counting_snapshots(&dir, &store), 3, "cold: one snapshot per image");
    let cache = store.join("summaries.dtc");
    let (ino, bytes) = (inode(&cache), read(&cache));
    assert_eq!(batch_counting_snapshots(&dir, &store), 0, "warm: nothing to write");
    assert_eq!(inode(&cache), ino, "summaries.dtc was replaced");
    assert_eq!(read(&cache), bytes);
}

/// Editing one image rewrites the cache exactly once — at that image's
/// commit, not at every later one nor again at the end of the run.
#[test]
fn editing_one_image_rewrites_the_cache_once() {
    let dir = three_image_corpus("cache-edit");
    let store = dir.join("store");
    batch_counting_snapshots(&dir, &store);
    let cache = store.join("summaries.dtc");
    let (ino, before) = (inode(&cache), SummaryCache::load_with_report(&cache).0.totals());
    std::fs::write(dir.join("bravo.fwi"), image_bytes(54, true)).unwrap();
    assert_eq!(batch_counting_snapshots(&dir, &store), 1);
    assert_ne!(inode(&cache), ino, "the edit's new summaries were not persisted");
    let (after, report) = SummaryCache::load_with_report(&cache);
    assert!(!report.damaged);
    assert!(after.totals().entries > before.entries, "the edit's summaries are on disk");
}

/// A damaged cache file is salvaged, then rewritten clean even when the
/// run stores nothing new (trailing garbage loses no record), so the
/// next run loads it undamaged — and, summaries being deterministic,
/// byte-identical to the file before the damage.
#[test]
fn damaged_cache_is_salvaged_then_rewritten_clean() {
    let dir = three_image_corpus("cache-salvage");
    let store = dir.join("store");
    batch_counting_snapshots(&dir, &store);
    let cache = store.join("summaries.dtc");
    let pristine = read(&cache);
    let truncated = pristine[..pristine.len() * 3 / 4].to_vec();
    let garbage = [pristine.as_slice(), b"\x00torn tail"].concat();
    for (name, damaged) in [("truncated", truncated), ("trailing garbage", garbage)] {
        std::fs::write(&cache, &damaged).unwrap();
        assert!(SummaryCache::from_bytes(&damaged).1.damaged, "{name}: the drill damages");
        assert!(batch_counting_snapshots(&dir, &store) >= 1, "{name}: no clean rewrite");
        let corpus = String::from_utf8(read(&store.join("reports/corpus.json"))).unwrap();
        assert!(!corpus.contains("\"cache_salvaged\": 0,"), "{name}: salvage reported: {corpus}");
        let (_, report) = SummaryCache::load_with_report(&cache);
        assert!(!report.damaged, "{name}: still damaged after the recovery run: {report:?}");
        assert_eq!(read(&cache), pristine, "{name}: the rewrite differs from the pristine file");
        assert_eq!(batch_counting_snapshots(&dir, &store), 0, "{name}: clean file left alone");
        let corpus = String::from_utf8(read(&store.join("reports/corpus.json"))).unwrap();
        assert!(corpus.contains("\"cache_salvaged\": 0,"), "{name}: {corpus}");
        assert!(corpus.contains("\"cache_discarded\": 0,"), "{name}: {corpus}");
    }
}

/// Two cold batches into fresh stores write byte-identical cache files:
/// nothing in a summary blob depends on hash-map iteration order. Full
/// Table II profiles 1–4, whose functions give such an order the most
/// room to show (`tests/incremental.rs` pins it per function). The same
/// holds across symex thread counts: one worker at `--threads 1` and
/// two at `--threads 2` leave the same master pool, so the DDG blobs
/// encoded from it match too.
#[test]
fn cold_batches_write_identical_cache_files() {
    let dir = tmpdir("cache-deterministic");
    for (i, p) in dtaint_fwgen::table2_profiles().into_iter().take(4).enumerate() {
        let image = dtaint_fwgen::build_firmware(&p).image.pack(false);
        std::fs::write(dir.join(format!("profile{}.fwi", i + 1)), image).unwrap();
    }
    let (sa, sb) = (dir.join("store-a"), dir.join("store-b"));
    batch_counting_snapshots(&dir, &sa);
    batch_counting_snapshots(&dir, &sb);
    assert!(
        read(&sa.join("summaries.dtc")) == read(&sb.join("summaries.dtc")),
        "the two cold runs wrote different summaries.dtc files"
    );
    let (t2, t1) = (dir.join("store-threads-2"), dir.join("store-threads-1"));
    batch_counting_snapshots_with(&dir, &t2, &["--threads", "2"]);
    batch_counting_snapshots_with(&dir, &t1, &["--threads", "1"]);
    assert!(
        read(&t2.join("summaries.dtc")) == read(&t1.join("summaries.dtc")),
        "cold runs at --threads 2 and --threads 1 wrote different summaries.dtc files"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// DTC2 salvage — seeded corruption via the fwgen mutate operators
// ---------------------------------------------------------------------------

/// A cache whose records contain no `0xD7` byte outside the markers and
/// checksums: blob values stay below 7 and keys/lengths stay small, so
/// the expected salvage counts under surgical damage are computable.
fn marker_free_cache(lens: &[usize]) -> SummaryCache {
    let c = SummaryCache::new();
    c.begin_scan("drill");
    for (k, &len) in lens.iter().enumerate() {
        c.store(Level::Symex, "drill", k as u64, vec![(k % 7) as u8; len]);
    }
    c
}

/// Byte span of record `k` in the serialized file: records are
/// key-sorted, each `2 (marker) + 1 (level) + 8 (key) + 4 (len) + blob
/// + 8 (checksum)` bytes, after the 16-byte header.
fn record_span(lens: &[usize], k: usize) -> (usize, usize) {
    let mut off = 16;
    for &l in &lens[..k] {
        off += 23 + l;
    }
    (off, off + 23 + lens[k])
}

/// Every mutant in the standard store damage sweep either loads clean
/// or degrades gracefully — and any entry that survives is bit-exact
/// (its record checksum held), never silently wrong.
#[test]
fn store_fault_sweep_never_panics_and_loaded_entries_are_exact() {
    let lens: Vec<usize> = (0..8).map(|k| 5 + k * 3).collect();
    let cache = marker_free_cache(&lens);
    let bytes = cache.to_bytes();
    for (name, mutant) in store_fault_corpus(&bytes, 0xD7A1) {
        let (loaded, report) = SummaryCache::from_bytes(&mutant);
        if mutant == bytes {
            assert!(!report.damaged, "{name}: identical bytes load clean");
        }
        let mut survivors = 0usize;
        for (k, &len) in lens.iter().enumerate() {
            if let Some(blob) = loaded.lookup_blob(Level::Symex, k as u64) {
                assert_eq!(blob, vec![(k % 7) as u8; len], "{name}: entry {k} corrupted in place");
                survivors += 1;
            }
        }
        assert_eq!(report.entries, survivors, "{name}: report counts what actually loaded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at any depth salvages exactly the records that are
    /// fully inside the kept prefix, and the header's promise prices
    /// the damage: `discarded = promised − salvaged`.
    #[test]
    fn dtc2_truncation_salvage_is_exact(
        lens in proptest::collection::vec(1usize..48, 1..10),
        cut_sel in 0u64..1_000_000,
    ) {
        let cache = marker_free_cache(&lens);
        let bytes = cache.to_bytes();
        let total = bytes.len();
        // Keep the header intact; cut strictly inside the record area.
        let keep = 16 + cut_sel as usize % (total - 16);
        let mutant = corrupt_bytes(&bytes, &ByteFault::Truncate { keep });

        let intact = (0..lens.len()).take_while(|&k| record_span(&lens, k).1 <= keep).count();
        let (loaded, report) = SummaryCache::from_bytes(&mutant);
        prop_assert_eq!(report.format, CacheFormat::Dtc2);
        prop_assert!(report.damaged);
        prop_assert_eq!(report.salvaged, intact as u64);
        prop_assert_eq!(report.discarded, (lens.len() - intact) as u64);
        prop_assert_eq!(report.entries, intact);
        for k in 0..lens.len() {
            prop_assert_eq!(
                loaded.lookup_blob(Level::Symex, k as u64).is_some(),
                k < intact,
                "record {} on the wrong side of the cut at {}", k, keep
            );
        }
    }

    /// A single flipped bit costs at most one record: in the magic it
    /// is a cold start, in the rest of the header it voids the promise
    /// (all records salvage, nothing priced), in a record it discards
    /// exactly that record while both neighbors survive.
    #[test]
    fn dtc2_single_bit_flip_salvage_is_exact(
        lens in proptest::collection::vec(1usize..48, 1..10),
        off_sel in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let cache = marker_free_cache(&lens);
        let bytes = cache.to_bytes();
        let n = lens.len();
        let offset = off_sel as usize % bytes.len();
        let mutant = corrupt_bytes(&bytes, &ByteFault::FlipAt { offset, bit });
        let (loaded, report) = SummaryCache::from_bytes(&mutant);

        if offset < 4 {
            // Magic gone: not a DTC2 file any more — cold start.
            prop_assert_eq!(report.format, CacheFormat::Unrecognized);
            prop_assert!(report.damaged);
            prop_assert_eq!(report.entries, 0);
        } else if offset < 16 {
            // Count or header checksum: the promise is unreadable, the
            // records themselves are all intact.
            prop_assert_eq!(report.format, CacheFormat::Dtc2);
            prop_assert!(report.damaged);
            prop_assert_eq!(report.salvaged, n as u64);
            prop_assert_eq!(report.discarded, 0);
            prop_assert_eq!(report.entries, n);
        } else {
            // Inside record r: that record fails its checksum (or its
            // marker) and is discarded; the parser resyncs on the next
            // marker and every other record survives bit-exact.
            let r = (0..n).find(|&k| {
                let (lo, hi) = record_span(&lens, k);
                (lo..hi).contains(&offset)
            }).unwrap();
            prop_assert_eq!(report.format, CacheFormat::Dtc2);
            prop_assert!(report.damaged);
            prop_assert_eq!(report.salvaged, (n - 1) as u64);
            prop_assert_eq!(report.discarded, 1);
            for (k, &len) in lens.iter().enumerate() {
                let got = loaded.lookup_blob(Level::Symex, k as u64);
                if k == r {
                    prop_assert!(got.is_none(), "the damaged record {} leaked through", k);
                } else {
                    prop_assert_eq!(got, Some(vec![(k % 7) as u8; len]));
                }
            }
        }
    }
}
