//! Fleet observability drills: the corpus metrics rollup, the batch
//! heartbeat, `dtaint status` / `dtaint history`, and the Prometheus
//! textfile exporter — exercised end to end through the real CLI.
//!
//! The two invariants under test:
//!
//! 1. The corpus rollup (`--metrics-out`, and the `metrics` object in
//!    `corpus.json`) carries *logical* counters only, so it is
//!    bit-identical across `--jobs`, across `--threads`, and across an
//!    interrupt + `--resume` — scheduling must never show up in it.
//! 2. The heartbeat and `runs.jsonl` are advisory: they ride along with
//!    a run (and survive a crash for `dtaint status` to read), but the
//!    `--resume` byte-identity contract on `findings.json` and
//!    `corpus.json` holds with them present.

use std::path::{Path, PathBuf};

use dtaint_cli::run_captured;
use dtaint_core::AnalysisReport;
use serde_json::Value;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dtaint-fleet-{}-{tag}", std::process::id()));
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

/// Three distinct images whose names sort `alpha < bravo < charlie`.
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

/// The logical-work rollup must not know how many workers scanned the
/// corpus: `--jobs 1`, `2`, and `4` produce byte-identical
/// `--metrics-out` files (each against its own cold store, so cache
/// scheduling cannot leak in either).
#[test]
fn corpus_rollup_is_bit_identical_across_jobs() {
    let dir = three_image_corpus("jobs");
    let d = dir.to_str().unwrap();
    let mut rollups: Vec<Vec<u8>> = Vec::new();
    for jobs in ["1", "2", "4"] {
        let store = dir.join(format!("store-j{jobs}"));
        let metrics = dir.join(format!("rollup-j{jobs}.json"));
        let (code, out) = run_captured(&[
            "batch",
            d,
            "--jobs",
            jobs,
            "--store",
            store.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert_eq!(code, Ok(0), "--jobs {jobs}: {out}");
        rollups.push(read(&metrics));
    }
    assert_eq!(rollups[0], rollups[1], "rollup diverged between --jobs 1 and 2");
    assert_eq!(rollups[0], rollups[2], "rollup diverged between --jobs 1 and 4");
    // And it is non-trivial: real logical counters, not an empty shell.
    let text = String::from_utf8(rollups[0].clone()).unwrap();
    assert!(text.contains("symex.blocks_executed"), "{text}");
}

/// Cold batches over images that share functions: at `--jobs 2` the two
/// workers race to store and probe the shared summaries, so how an
/// image's probes split between hits and misses depends on scheduling.
/// Everything else does not: two cold `--jobs 2` runs and one `--jobs
/// 1` run write the same reports (wall clock zeroed), `findings.json`
/// and `summaries.dtc`, and each image makes the same number of probes
/// at each cache level. `gen 1`–`gen 3` share no function with each
/// other; `gen 3 --corrupt garbage-fn` shares all but one with `gen 3`.
#[test]
fn cold_multi_job_batches_agree_on_everything_but_the_hit_split() {
    let dir = tmpdir("shared");
    let (gen, corpus) = (dir.join("gen"), dir.join("corpus"));
    std::fs::create_dir_all(&gen).unwrap();
    std::fs::create_dir_all(&corpus).unwrap();
    for (name, args) in [
        ("gen1.fwi", &["1"][..]),
        ("gen2.fwi", &["2"]),
        ("gen3.fwi", &["3"]),
        ("gen3-garbage.fwi", &["3", "--corrupt", "garbage-fn"]),
    ] {
        let out = gen.join(name);
        let mut argv = vec!["gen", args[0], "--out", out.to_str().unwrap()];
        argv.extend(&args[1..]);
        let (code, text) = run_captured(&argv);
        assert_eq!(code, Ok(0), "{text}");
        std::fs::copy(&out, corpus.join(name)).unwrap();
    }
    let outcome = |jobs: &str, tag: &str| {
        let store = dir.join(tag);
        let (code, out) = run_captured(&[
            "batch",
            corpus.to_str().unwrap(),
            "--jobs",
            jobs,
            "--store",
            store.to_str().unwrap(),
        ]);
        assert_eq!(code, Ok(0), "{tag}: {out}");
        let mut reports = Vec::new();
        let mut names: Vec<PathBuf> = std::fs::read_dir(store.join("reports"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().is_some_and(|n| n != "corpus.json"))
            .collect();
        names.sort();
        // Reports carry wall-clock timings: compare them with the clock
        // zeroed.
        for p in names {
            let text = String::from_utf8(read(&p)).unwrap();
            let report = AnalysisReport::from_json(&text).unwrap().with_zeroed_wall_clock();
            reports.push((p.file_name().unwrap().to_owned(), report));
        }
        let corpus_json: Value =
            serde_json::from_slice(&read(&store.join("reports/corpus.json"))).unwrap();
        let Some(Value::Arr(images)) = corpus_json.get("images") else { panic!("{tag}: images") };
        let field = |img: &Value, k: &str| match img.get(k) {
            Some(Value::Int(v)) => *v,
            other => panic!("{tag}: `{k}` is {other:?}"),
        };
        let probes: Vec<(Option<Value>, i64, i64)> = images
            .iter()
            .map(|img| {
                let sym = field(img, "sym_hits") + field(img, "sym_misses");
                let ddg = field(img, "ddg_hits") + field(img, "ddg_misses");
                (img.get("name").cloned(), sym, ddg)
            })
            .collect();
        let stored = (read(&store.join("findings.json")), read(&store.join("summaries.dtc")));
        (reports, stored, probes)
    };
    let serial = outcome("1", "jobs1");
    assert_eq!(serial.0.len(), 4, "one report per image");
    assert!(serial.2.iter().all(|(_, sym, ddg)| *sym > 0 && *ddg > 0), "{:?}", serial.2);
    for tag in ["jobs2-a", "jobs2-b"] {
        let (reports, stored, probes) = outcome("2", tag);
        assert!(reports == serial.0, "{tag}: reports differ from --jobs 1");
        assert!(stored.0 == serial.1 .0, "{tag}: findings.json differs from --jobs 1");
        assert!(stored.1 == serial.1 .1, "{tag}: summaries.dtc differs from --jobs 1");
        assert_eq!(probes, serial.2, "{tag}: probes per image differ from --jobs 1");
    }
}

/// The acceptance drill: kill a batch after one committed image, read
/// the wreck with `dtaint status`, then `--resume` — the database, the
/// corpus summary (rollup included), and the `--metrics-out` export all
/// come out byte-identical to a run that was never interrupted.
#[test]
fn status_reads_an_interrupted_batch_and_resume_stays_byte_identical() {
    let dir = three_image_corpus("drill");
    let d = dir.to_str().unwrap();
    let sa = dir.join("store-a");
    let sb = dir.join("store-b");
    let ma = dir.join("rollup-a.json");
    let mb = dir.join("rollup-b.json");

    // Reference: one uninterrupted run.
    let (code, out) = run_captured(&[
        "batch",
        d,
        "--store",
        sa.to_str().unwrap(),
        "--metrics-out",
        ma.to_str().unwrap(),
    ]);
    assert_eq!(code, Ok(0), "{out}");

    // Drill: alpha's journal append succeeds, then the store "dies".
    let (code, _) = run_captured(&[
        "batch",
        d,
        "--store",
        sb.to_str().unwrap(),
        "--drill-io",
        "kill-after-appends:1",
    ]);
    assert!(code.is_err(), "the drill must kill the run");

    // `status` on the wreck: no live run (the in-process lock was
    // released), the pre-kill heartbeat survives with phase "running",
    // and the journal shows exactly the committed prefix.
    let (code, out) = run_captured(&["status", sb.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "status on an interrupted store: {out}");
    assert!(out.contains("no live batch"), "{out}");
    assert!(out.contains("heartbeat: running"), "{out}");
    assert!(out.contains("journal: 1 committed image(s)"), "{out}");
    assert!(out.contains("ok       alpha"), "{out}");
    assert!(out.contains("pending: 2 image(s)"), "{out}");

    // Resume finishes the corpus; every identity-contract artifact
    // matches the uninterrupted run byte for byte — including the
    // rollup, whose alpha share replays from the journal's v2 metrics.
    let (code, out) = run_captured(&[
        "batch",
        d,
        "--store",
        sb.to_str().unwrap(),
        "--resume",
        "--metrics-out",
        mb.to_str().unwrap(),
    ]);
    assert_eq!(code, Ok(0), "{out}");
    assert_eq!(read(&sa.join("findings.json")), read(&sb.join("findings.json")));
    assert_eq!(
        read(&sa.join("reports/corpus.json")),
        read(&sb.join("reports/corpus.json")),
        "corpus summary (rollup included) diverged after resume"
    );
    assert_eq!(read(&ma), read(&mb), "--metrics-out diverged after resume");

    // After completion, `status` flips to done and the journal is gone.
    let (code, out) = run_captured(&["status", sb.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("heartbeat: done"), "{out}");
    assert!(out.contains("journal: empty"), "{out}");
}

/// Run history accumulates one line per completed run, the resumed
/// count lands in the record, and `dtaint history` renders the trend.
#[test]
fn run_history_accumulates_across_runs_and_records_resume() {
    let dir = three_image_corpus("history");
    let d = dir.to_str().unwrap();
    let store = dir.join(".dtaint-store");

    let (code, out) = run_captured(&["batch", d]);
    assert_eq!(code, Ok(0), "{out}");

    // Interrupted runs append no history line...
    let (code, _) = run_captured(&["batch", d, "--drill-io", "kill-after-appends:1"]);
    assert!(code.is_err());
    // ...but their resume does, with the replayed image counted.
    let (code, out) = run_captured(&["batch", d, "--resume"]);
    assert_eq!(code, Ok(0), "{out}");

    let load = dtaint_store::parse_runs(&read(&store.join("runs.jsonl")));
    assert_eq!(load.discarded_lines, 0);
    assert_eq!(load.runs.len(), 2, "one line per completed run");
    assert_eq!(load.runs[0].images, 3);
    assert_eq!(load.runs[0].resumed, 0);
    assert_eq!(load.runs[1].resumed, 1, "alpha replayed from the journal");
    assert!(
        load.runs[1].generation > load.runs[0].generation,
        "the db generation advances run over run"
    );
    assert!(load.runs.iter().all(|r| r.ok == 3 && r.failures == 0 && r.timeouts == 0));

    let (code, out) = run_captured(&["history", store.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("2 run(s)"), "{out}");
    assert!(out.contains("0 regression(s)"), "{out}");
}

/// The heartbeat file progresses monotonically: the final "done" beat
/// accounts for every image, and its counters are internally
/// consistent with the Prometheus export next to it.
#[test]
fn final_heartbeat_and_prometheus_export_are_consistent() {
    let dir = three_image_corpus("prom");
    let d = dir.to_str().unwrap();
    let status = dir.join("hb.json");
    let prom = dir.join("metrics.prom");
    let (code, out) = run_captured(&[
        "batch",
        d,
        "--jobs",
        "2",
        "--status-out",
        status.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
    ]);
    assert_eq!(code, Ok(0), "{out}");

    let hb: dtaint_telemetry::Heartbeat =
        serde_json::from_str(&String::from_utf8(read(&status)).unwrap()).unwrap();
    assert_eq!(hb.phase, "done");
    assert_eq!(hb.total, 3);
    assert_eq!(hb.done, 3, "the final beat accounts for every image");
    assert_eq!(hb.ok + hb.failed + hb.timeouts, hb.done);
    assert!(hb.elapsed_secs > 0.0);

    let text = String::from_utf8(read(&prom)).unwrap();
    dtaint_telemetry::lint_textfile(&text).expect("prom textfile lints clean");
    assert!(text.contains("# TYPE dtaint_batch_images gauge"), "{text}");
    assert!(text.contains("dtaint_batch_images 3"), "{text}");
    assert!(text.contains("dtaint_batch_cache_sym_misses_total"), "{text}");
    assert!(text.contains("dtaint_symex_blocks_executed_total"), "{text}");
}

/// A batch of two full images (profiles 1 and 2) at `--jobs 2`, its
/// status file polled while it runs: `done` never goes backwards, and
/// the final beat is a versioned record of this process with every
/// worker idle. Afterwards `status` reads the finished store as done
/// with no live batch, and `history` shows the one run.
#[test]
fn heartbeat_progresses_while_the_batch_runs_and_the_store_reads_as_finished() {
    let dir = tmpdir("live");
    for (profile, name) in [("1", "dir645.fwi"), ("2", "dir890l.fwi")] {
        let dest = dir.join(name);
        let (code, out) = run_captured(&["gen", profile, "--out", dest.to_str().unwrap()]);
        assert_eq!(code, Ok(0), "{out}");
    }
    let status = dir.join("status.json");
    let beat = || -> Option<dtaint_telemetry::Heartbeat> {
        serde_json::from_str(&std::fs::read_to_string(&status).ok()?).ok()
    };
    let mut done_seen = Vec::new();
    let (code, out) = std::thread::scope(|s| {
        let batch = s.spawn(|| {
            run_captured(&[
                "batch",
                dir.to_str().unwrap(),
                "--jobs",
                "2",
                "--status-out",
                status.to_str().unwrap(),
            ])
        });
        while !batch.is_finished() {
            done_seen.extend(beat().map(|hb| hb.done));
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        batch.join().unwrap()
    });
    assert_eq!(code, Ok(0), "{out}");
    let hb = beat().expect("the final heartbeat parses");
    done_seen.push(hb.done);
    assert!(done_seen.windows(2).all(|w| w[0] <= w[1]), "heartbeat went backwards: {done_seen:?}");
    assert_eq!(hb.phase, "done");
    assert_eq!((hb.done, hb.total), (2, 2));
    assert_eq!(hb.v, 1);
    assert!(hb.pid > 0);
    assert!(hb.workers.iter().all(|w| w.image.is_none()), "a worker still busy: {hb:?}");

    let store = dir.join(".dtaint-store");
    let (code, out) = run_captured(&["status", store.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("heartbeat: done"), "{out}");
    assert!(out.contains("no live batch"), "{out}");
    let (code, out) = run_captured(&["history", store.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("1 run(s)"), "{out}");
}
