//! The `dtaint` command-line contract, driven in-process through
//! `dtaint_cli::run_captured`: every subcommand's output, exit code and
//! artifacts, plus the invocations the argument parser must reject.

use dtaint_cli::run_captured;
use dtaint_core::AnalysisReport;
use dtaint_fwimage::{extract_binaries, extract_image};
use dtaint_telemetry::{Decision, DecisionKind};
use serde_json::Value;

fn tmpdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dtaint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Tests run in parallel and share the path, so the image is written
/// aside and renamed into place: a concurrent scan never reads a
/// half-written file.
fn small_image_path() -> String {
    let mut profile = dtaint_fwgen::table2_profiles().remove(0);
    profile.total_functions = 60;
    let fw = dtaint_fwgen::build_firmware(&profile);
    let p = tmpdir().join("dir645.fwi");
    let aside = p.with_extension(format!("{:?}", std::thread::current().id()));
    std::fs::write(&aside, fw.image.pack(false)).unwrap();
    std::fs::rename(&aside, &p).unwrap();
    p.to_string_lossy().into_owned()
}

#[test]
fn help_prints_usage() {
    let (code, out) = run_captured(&["help"]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("usage: dtaint"));
}

#[test]
fn unknown_command_errors() {
    let (code, _) = run_captured(&["frobnicate"]);
    assert!(code.is_err());
}

#[test]
fn scan_reports_findings_and_exit_code() {
    let p = small_image_path();
    let (code, out) = run_captured(&["scan", &p]);
    assert_eq!(code, Ok(2), "vulnerabilities present → exit 2");
    assert!(out.contains("VULNERABLE"), "{out}");
    assert!(out.contains("source"), "trace lines present: {out}");
}

#[test]
fn scan_prints_stage_breakdown_and_honors_threads() {
    let p = small_image_path();
    let (code, seq) = run_captured(&["scan", &p, "--threads", "1"]);
    assert_eq!(code, Ok(2));
    assert!(seq.contains("stages:"), "{seq}");
    assert!(seq.contains("propagate"), "{seq}");
    let (code, par) = run_captured(&["scan", &p, "--threads", "4"]);
    assert_eq!(code, Ok(2));
    // Findings (every line after the summary/stage header) must be
    // identical regardless of thread count.
    let body = |s: &str| s.lines().skip(2).map(str::to_owned).collect::<Vec<_>>();
    assert_eq!(body(&seq), body(&par));
    let (code, _) = run_captured(&["scan", &p, "--threads", "zero"]);
    assert!(code.is_err());
}

#[test]
fn non_numeric_values_of_numeric_flags_are_usage_errors() {
    let dir = tmpdir().join("numeric-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let d = dir.to_str().unwrap();
    for (args, err) in [
        (vec!["scan", "fw.bin", "--threads", "zero"], "scan: --threads expects a number"),
        (vec!["batch", d, "--jobs", "two"], "batch: --jobs expects a number"),
        (vec!["batch", d, "--threads", "1.5"], "batch: --threads expects a number"),
        (vec!["batch", d, "--deadline-secs", "-1"], "batch: --deadline-secs expects a number"),
        (vec!["corpus", "--n", "abc"], "corpus: --n expects a number"),
        (vec!["corpus", "--seed", "7x"], "corpus: --seed expects a number"),
    ] {
        assert_eq!(run_captured(&args).0, Err(err.to_owned()), "{args:?}");
    }
    let (code, out) = run_captured(&["corpus", "--n", "20", "--seed", "3"]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("emulation success"), "{out}");
}

#[test]
fn trailing_value_flag_is_a_usage_error() {
    let p = small_image_path();
    let dir = tmpdir().join("trailing-flag");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&p, dir.join("a.fwi")).unwrap();
    let d = dir.to_string_lossy().into_owned();
    for args in [
        vec!["scan", p.as_str(), "--threads"],
        vec!["scan", p.as_str(), "--json", "--trace-out"],
        vec!["batch", d.as_str(), "--jobs"],
        vec!["batch", d.as_str(), "--threads"],
    ] {
        let (code, out) = run_captured(&args);
        let err = code.expect_err(&format!("{args:?} must fail"));
        assert!(err.contains("expects a value"), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?} must not scan: {out}");
    }
    assert!(!dir.join(".dtaint-store").exists(), "batch never opened its store");
}

#[test]
fn scan_interval_guards_prints_absint_line_and_stays_deterministic() {
    let p = small_image_path();
    let (code, seq) = run_captured(&["scan", &p, "--interval-guards", "--threads", "1"]);
    assert_eq!(code, Ok(2));
    assert!(seq.contains("interval: absint"), "{seq}");
    assert!(seq.contains("infeasible path(s) suppressed"), "{seq}");
    let (code, par) = run_captured(&["scan", &p, "--interval-guards", "--threads", "4"]);
    assert_eq!(code, Ok(2));
    // Skip summary, stage and interval-timing headers: the findings
    // themselves must be identical regardless of thread count.
    let body = |s: &str| s.lines().skip(3).map(str::to_owned).collect::<Vec<_>>();
    assert_eq!(body(&seq), body(&par));
}

#[test]
fn scan_markdown_renders() {
    let p = small_image_path();
    let (code, out) = run_captured(&["scan", &p, "--md"]);
    assert_eq!(code, Ok(2));
    assert!(out.contains("# DTaint report"), "{out}");
    assert!(out.contains("## Vulnerabilities"));
}

#[test]
fn scan_json_is_parseable() {
    let p = small_image_path();
    let (code, out) = run_captured(&["scan", &p, "--json"]);
    assert_eq!(code, Ok(2));
    let report = dtaint_core::AnalysisReport::from_json(out.trim()).unwrap();
    assert!(report.vulnerabilities() > 0);
}

#[test]
fn scan_sarif_out_writes_schema_shaped_document() {
    let p = small_image_path();
    let dest = tmpdir().join("scan.sarif");
    let (code, _) = run_captured(&["scan", &p, "--sarif-out", dest.to_str().unwrap()]);
    assert_eq!(code, Ok(2), "exit code still reflects the findings");
    let text = std::fs::read_to_string(&dest).unwrap();
    assert!(text.contains("\"$schema\""), "schema stamped");
    assert!(text.contains("sarif-schema-2.1.0"), "2.1.0 schema URI");
    assert!(text.contains("\"codeFlows\""), "evidence chains exported");
    assert!(text.contains("dtaint/findingIdentity/v1"), "partial fingerprints present");
    assert!(text.contains("\"error\""), "vulnerable findings are errors");
    let doc: Value = serde_json::from_str(&text).unwrap();
    let schema = doc.get("$schema");
    assert!(matches!(schema, Some(Value::Str(s)) if s.ends_with("sarif-schema-2.1.0.json")));
    assert_eq!(doc.get("version"), Some(&Value::Str("2.1.0".into())));
    let runs = items(doc.get("runs"));
    assert!(!runs.is_empty(), "no runs");
    for run in runs {
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(driver.get("name"), Some(&Value::Str("dtaint".into())));
        assert_eq!(items(driver.get("rules")).len(), 2);
        let results = items(run.get("results"));
        assert!(!results.is_empty(), "no results in run");
        for res in results {
            let level = res.get("level");
            assert!(
                [Some(&Value::Str("error".into())), Some(&Value::Str("note".into()))]
                    .contains(&level),
                "{level:?}"
            );
            let identity =
                res.get("partialFingerprints").and_then(|f| f.get("dtaint/findingIdentity/v1"));
            assert!(matches!(identity, Some(Value::Str(s)) if !s.is_empty()), "{identity:?}");
            let flow = &items(res.get("codeFlows"))[0];
            let thread = &items(flow.get("threadFlows"))[0];
            assert!(
                !items(thread.get("locations")).is_empty(),
                "evidence chain missing from codeFlows"
            );
        }
    }
}

/// The elements of a JSON array field.
fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Arr(a)) => a,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

#[test]
fn explain_renders_numbered_evidence_and_filters_by_fingerprint() {
    let p = small_image_path();
    let (_, json) = run_captured(&["scan", &p, "--json"]);
    let rp = tmpdir().join("explain-report.json");
    std::fs::write(&rp, &json).unwrap();
    let path = rp.to_string_lossy().into_owned();
    let (code, out) = run_captured(&["explain", &path]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("finding "), "{out}");
    assert!(out.contains("tainted expression:"), "{out}");
    assert!(out.contains("verdict:"), "chains end in the verdict: {out}");
    assert!(out.contains("   1. "), "steps are numbered: {out}");
    // --finding narrows to one fingerprint (prefix match).
    let report = AnalysisReport::from_json(json.trim()).unwrap();
    let fp = report.findings[0].fingerprint.clone();
    let (code, out) = run_captured(&["explain", &path, "--finding", &fp[..8]]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains(&fp), "{out}");
    let (code, _) = run_captured(&["explain", &path, "--finding", "zzzzzz"]);
    assert!(code.is_err(), "unmatched fingerprint prefix is an error");
}

#[test]
fn scan_audit_out_writes_jsonl_and_why_narrates() {
    let p = small_image_path();
    let audit = tmpdir().join("scan.audit.jsonl");
    let (code, json) =
        run_captured(&["scan", &p, "--json", "--audit-out", audit.to_str().unwrap()]);
    assert_eq!(code, Ok(2));
    let report = AnalysisReport::from_json(json.trim()).unwrap();
    assert!(!report.decisions.is_empty(), "audit scans embed decisions");
    let text = std::fs::read_to_string(&audit).unwrap();
    assert_eq!(text.lines().count(), report.decisions.len(), "one JSONL line per decision");
    assert!(text.contains("\"v\":"), "versioned schema: {text}");

    let rp = tmpdir().join("why-report.json");
    std::fs::write(&rp, &json).unwrap();
    let path = rp.to_string_lossy().into_owned();
    let (code, out) = run_captured(&["why", &path]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("decision(s)"), "{out}");
    assert!(out.contains("coverage:"), "{out}");
    assert!(out.contains("hint: `dtaint explain"), "{out}");
    // Narrowing by the first decision's function keeps only its
    // lines; an address nobody decided on is an error, as is an
    // unparseable one.
    let d = &report.decisions[0];
    let (code, out) = run_captured(&["why", &path, "--fn", &d.function]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains(&format!("in `{}`", d.function)), "{out}");
    let (code, _) = run_captured(&["why", &path, "--sink", "0xdeadbeef"]);
    assert!(code.is_err(), "unmatched sink address is an error");
    let (code, _) = run_captured(&["why", &path, "--sink", "nonsense"]);
    assert!(code.is_err(), "unparseable address is a usage error");
}

#[test]
fn why_without_audit_decisions_is_a_helpful_error() {
    let p = small_image_path();
    let (_, json) = run_captured(&["scan", &p, "--json"]);
    let report = AnalysisReport::from_json(json.trim()).unwrap();
    assert!(report.decisions.is_empty(), "audit is off by default");
    let rp = tmpdir().join("no-audit.json");
    std::fs::write(&rp, &json).unwrap();
    let (code, _) = run_captured(&["why", rp.to_str().unwrap()]);
    let err = code.unwrap_err();
    assert!(err.contains("--audit-out"), "error names the fix: {err}");
}

#[test]
fn batch_audit_dir_writes_per_image_decision_logs() {
    let (dir, full, _) = corpus_dir("audit");
    std::fs::write(dir.join("router.fwi"), &full).unwrap();
    let d = dir.to_str().unwrap().to_owned();
    let adir = dir.join("audits");
    let (code, out) = run_captured(&["batch", &d, "--audit-dir", adir.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains(" dup "), "suppression counters in the console line: {out}");
    assert!(out.contains(" inf "), "{out}");
    let log = std::fs::read_to_string(adir.join("router.audit.jsonl")).unwrap();
    assert!(!log.trim().is_empty(), "decisions recorded for the image");
    // The per-image report embeds the same decisions.
    let rtext = std::fs::read_to_string(dir.join(".dtaint-store/reports/router.json")).unwrap();
    assert!(rtext.contains("\"decisions\""), "{rtext}");
    // corpus.json carries the suppression rollup fields.
    let corpus = std::fs::read_to_string(dir.join(".dtaint-store/reports/corpus.json")).unwrap();
    assert!(corpus.contains("\"duplicates_suppressed\""), "{corpus}");
    assert!(corpus.contains("\"infeasible_suppressed\""), "{corpus}");
}

#[test]
fn diff_identical_reports_is_empty_and_exits_zero() {
    let p = small_image_path();
    let (_, json) = run_captured(&["scan", &p, "--json"]);
    let a = tmpdir().join("diff-base.json");
    let b = tmpdir().join("diff-cur.json");
    std::fs::write(&a, &json).unwrap();
    std::fs::write(&b, &json).unwrap();
    let (code, out) = run_captured(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("no finding differences"), "{out}");
    assert!(out.contains("no regressions"), "{out}");
}

#[test]
fn diff_same_file_fast_path_notes_and_counts_fingerprints() {
    let p = small_image_path();
    let (_, json) = run_captured(&["scan", &p, "--json"]);
    let a = tmpdir().join("diff-self.json");
    std::fs::write(&a, &json).unwrap();
    let path = a.to_str().unwrap();
    let (code, out) = run_captured(&["diff", path, path]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("note: baseline and current are the same file"), "{out}");
    assert!(out.contains("no finding differences:"), "{out}");
    assert!(out.contains("fingerprint(s) match with identical verdicts"), "{out}");
    assert!(out.contains("no regressions"), "{out}");
}

/// Builds a small corpus directory holding the profile-1 image and
/// a findings-free variant of it (same binary name, no plants) for
/// regression testing.
fn corpus_dir(tag: &str) -> (std::path::PathBuf, Vec<u8>, Vec<u8>) {
    let dir = tmpdir().join(format!("corpus-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut profile = dtaint_fwgen::table2_profiles().remove(0);
    profile.total_functions = 50;
    let full = dtaint_fwgen::build_firmware(&profile).image.pack(false);
    profile.plants.clear();
    profile.extra_paths = 0;
    let benign = dtaint_fwgen::build_firmware(&profile).image.pack(false);
    (dir, full, benign)
}

#[test]
fn batch_cold_then_warm_reuses_the_cache_and_stays_quiet() {
    let (dir, full, _) = corpus_dir("warm");
    std::fs::write(dir.join("router.fwi"), &full).unwrap();
    let d = dir.to_str().unwrap().to_owned();
    let (code, out) = run_captured(&["batch", &d, "--jobs", "2"]);
    assert_eq!(code, Ok(0), "baseline run never regresses: {out}");
    assert!(out.contains("[baseline]"), "{out}");
    assert!(out.contains("corpus: 1 image(s)"), "{out}");
    let report = dir.join(".dtaint-store/reports/router.json");
    assert!(report.exists(), "per-image report written");
    let corpus = dir.join(".dtaint-store/reports/corpus.json");
    assert!(corpus.exists(), "corpus summary written");
    // Warm re-run: no finding churn, and the cache serves summaries.
    let (code, out) = run_captured(&["batch", &d, "--jobs", "2"]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("0 new, 0 reopened, 0 resolved"), "{out}");
    let text = std::fs::read_to_string(&corpus).unwrap();
    assert!(text.contains("\"sym_misses\": 0"), "warm run misses nothing: {text}");
    assert!(text.contains("\"ddg_misses\": 0"), "warm run misses nothing: {text}");
    assert!(!text.contains("\"sym_hits\": 0,"), "warm run hits the cache: {text}");
}

/// A cold batch under `--alias sse` populates the store under the SSE
/// salts; the warm re-run reuses every summary at both levels and
/// reproduces the per-image report exactly, apart from its wall clock
/// (`stage_us`) and embedded telemetry.
#[test]
fn batch_cold_then_warm_reuses_the_cache_under_alias_sse() {
    let dir = tmpdir().join("corpus-sse");
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("dir890l.fwi");
    let (code, out) = run_captured(&["gen", "2", "--out", image.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "{out}");
    let d = dir.to_str().unwrap();
    let (code, out) = run_captured(&["batch", d, "--alias", "sse"]);
    assert_eq!(code, Ok(0), "cold sse batch: {out}");
    let reports = dir.join(".dtaint-store/reports");
    let cold = std::fs::read_to_string(reports.join("dir890l.json")).unwrap();
    let (code, out) = run_captured(&["batch", d, "--alias", "sse"]);
    assert_eq!(code, Ok(0), "warm sse batch: {out}");
    let corpus: Value =
        serde_json::from_str(&std::fs::read_to_string(reports.join("corpus.json")).unwrap())
            .unwrap();
    let count = |key: &str| match corpus.get(key) {
        Some(Value::Int(n)) => *n,
        other => panic!("corpus.json `{key}`: {other:?}"),
    };
    assert!(count("sym_hits") > 0 && count("ddg_hits") > 0, "warm run hits both levels");
    assert_eq!((count("sym_misses"), count("ddg_misses")), (0, 0), "warm run misses nothing");
    // The report minus its wall clock and telemetry, per binary.
    let stable = |text: &str| -> Vec<Value> {
        let reports = match serde_json::from_str(text).unwrap() {
            Value::Arr(reports) => reports,
            one => vec![one],
        };
        let keep = |(k, _): &(String, Value)| k != "stage_us" && k != "telemetry";
        reports
            .into_iter()
            .map(|r| match r {
                Value::Obj(pairs) => Value::Obj(pairs.into_iter().filter(keep).collect()),
                other => panic!("a report is an object: {}", other.kind()),
            })
            .collect()
    };
    let warm = std::fs::read_to_string(reports.join("dir890l.json")).unwrap();
    assert!(stable(&cold) == stable(&warm), "warm sse report differs from cold");
}

/// The DIR-890L profile plants a two-level pointer chain split across
/// callees (`handle_deep_link`). The store-based single alias pass
/// misses it; the SSE fixpoint connects it. Both modes still find the
/// flat plants, so both scans exit 2.
#[test]
fn alias_store_misses_the_deep_chain_that_sse_finds() {
    let image = tmpdir().join("alias-gen2.fwi");
    let path = image.to_str().unwrap();
    let (code, out) = run_captured(&["gen", "2", "--out", path]);
    assert_eq!(code, Ok(0), "{out}");
    let deep_findings = |alias: &str| {
        let (code, json) = run_captured(&["scan", path, "--alias", alias, "--json"]);
        assert_eq!(code, Ok(2), "--alias {alias}: {json}");
        let report = AnalysisReport::from_json(json.trim()).unwrap();
        report.findings.iter().filter(|f| f.sink_fn == "handle_deep_link").count()
    };
    assert_eq!(deep_findings("store"), 0, "store mode must miss the multi-level chain");
    assert!(deep_findings("sse") > 0, "SSE mode must detect the planted multi-level chain");
}

#[test]
fn batch_no_cache_scans_cold() {
    let (dir, full, _) = corpus_dir("nocache");
    std::fs::write(dir.join("router.fwi"), &full).unwrap();
    let d = dir.to_str().unwrap().to_owned();
    let _ = run_captured(&["batch", &d, "--no-cache"]);
    let (code, out) = run_captured(&["batch", &d, "--no-cache"]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("cache sym 0/0 ddg 0/0"), "no probes at all: {out}");
    assert!(out.contains("(0 entries)"), "nothing persisted: {out}");
}

#[test]
fn batch_tracks_regressions_across_versions() {
    let (dir, full, benign) = corpus_dir("reg");
    let img = dir.join("router.fwi");
    let d = dir.to_str().unwrap().to_owned();
    // Baseline: the benign build of the image.
    std::fs::write(&img, &benign).unwrap();
    let (code, out) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(0), "{out}");
    // The vendor ships a vulnerable update: every planted finding
    // is new — a regression, exit 2.
    std::fs::write(&img, &full).unwrap();
    let (code, out) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(2), "{out}");
    assert!(out.contains("REGRESSION"), "{out}");
    // Re-scanning the same version is quiet again.
    let (code, out) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("0 new, 0 reopened"), "{out}");
    // Reverting resolves findings (not a regression), and shipping
    // the vulnerable build again re-opens them.
    std::fs::write(&img, &benign).unwrap();
    let (code, out) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(0), "fixes are not regressions: {out}");
    assert!(out.contains("resolved"), "{out}");
    std::fs::write(&img, &full).unwrap();
    let (code, out) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(2), "re-opened findings regress: {out}");
    assert!(out.contains("reopened"), "{out}");
}

#[test]
fn batch_isolates_a_broken_image_and_exits_4() {
    let (dir, full, _) = corpus_dir("broken");
    std::fs::write(dir.join("good.fwi"), &full).unwrap();
    std::fs::write(dir.join("bad.fwi"), b"this is not a firmware image").unwrap();
    let d = dir.to_str().unwrap().to_owned();
    let (code, out) = run_captured(&["batch", &d, "--jobs", "2"]);
    assert_eq!(code, Ok(4), "failures exit 4: {out}");
    assert!(out.contains("!! bad:"), "{out}");
    assert!(out.contains("== good:"), "the good image still scanned: {out}");
    assert!(out.contains("1 failure(s)"), "{out}");
    let (code, _) = run_captured(&["batch", dir.join("empty").to_str().unwrap()]);
    assert!(code.is_err(), "unreadable/empty corpus is a usage error");
}

#[test]
fn batch_observability_artifacts_parse_and_lint() {
    let (dir, full, _) = corpus_dir("obs");
    std::fs::write(dir.join("router.fwi"), &full).unwrap();
    let d = dir.to_str().unwrap().to_owned();
    let status = dir.join("hb.json");
    let prom = dir.join("metrics.prom");
    let rollup = dir.join("rollup.json");
    let trace = dir.join("trace.json");
    let (code, out) = run_captured(&[
        "batch",
        &d,
        "--jobs",
        "2",
        "--status-out",
        status.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
        "--metrics-out",
        rollup.to_str().unwrap(),
        "--trace-chrome",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("inv 0"), "invalidation count in console: {out}");

    // The final heartbeat: phase "done", all images accounted for,
    // written both to --status-out and the store's status.json.
    let hb: dtaint_telemetry::Heartbeat =
        serde_json::from_str(&std::fs::read_to_string(&status).unwrap()).unwrap();
    assert_eq!(hb.phase, "done");
    assert_eq!((hb.done, hb.total, hb.ok), (1, 1, 1));
    assert!(std::fs::read_to_string(dir.join(".dtaint-store/status.json"))
        .unwrap()
        .contains("\"phase\": \"done\""));

    // The Prometheus textfile passes the exposition-format lint and
    // carries the batch gauges.
    let text = std::fs::read_to_string(&prom).unwrap();
    dtaint_telemetry::lint_textfile(&text).unwrap();
    assert!(text.contains("dtaint_batch_images"), "{text}");
    assert!(text.contains("# TYPE"), "{text}");

    // The rollup is a plain MetricsRegistry of logical counters.
    let reg: dtaint_telemetry::MetricsRegistry =
        serde_json::from_str(&std::fs::read_to_string(&rollup).unwrap()).unwrap();
    assert!(reg.counter("symex.blocks_executed") > 0, "logical counters present");

    // The Chrome trace has the batch root span plus one image span.
    let tr = std::fs::read_to_string(&trace).unwrap();
    assert!(tr.contains("\"batch\""), "{tr}");
    assert!(tr.contains("\"router\""), "{tr}");

    // corpus.json now embeds the rollup and invalidation counts.
    let corpus = std::fs::read_to_string(dir.join(".dtaint-store/reports/corpus.json")).unwrap();
    assert!(corpus.contains("\"metrics\""), "{corpus}");
    assert!(corpus.contains("\"invalidations\""), "{corpus}");
}

#[test]
fn status_and_history_inspect_a_finished_store() {
    let (dir, full, benign) = corpus_dir("stat");
    let img = dir.join("router.fwi");
    std::fs::write(&img, &benign).unwrap();
    let d = dir.to_str().unwrap().to_owned();
    let store = dir.join(".dtaint-store");
    let s = store.to_str().unwrap().to_owned();

    // Before any run the store does not exist: usage error, and
    // `status` must not create it.
    let (code, _) = run_captured(&["status", &s]);
    assert!(code.is_err(), "missing store is an error");
    assert!(!store.exists(), "status never creates a store");

    let (code, out) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(0), "{out}");
    std::fs::write(&img, &full).unwrap();
    let (code, _) = run_captured(&["batch", &d]);
    assert_eq!(code, Ok(2), "vulnerable update regresses");

    // A finished store: no live run, journal cleared, final
    // heartbeat retained.
    let (code, out) = run_captured(&["status", &s]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("no live batch"), "{out}");
    assert!(out.contains("heartbeat: done"), "{out}");
    assert!(out.contains("journal: empty"), "{out}");

    // History shows both runs, with the regression in the second.
    let (code, out) = run_captured(&["history", &s]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("2 run(s)"), "{out}");
    assert!(out.contains("1 regression(s)"), "{out}");
    assert!(out.contains("config"), "table header present: {out}");

    let (code, _) = run_captured(&["history", dir.join("nope").to_str().unwrap()]);
    assert!(code.is_err(), "missing store is an error");
}

#[test]
fn diff_flags_new_vulnerable_findings_as_regressions() {
    let p = small_image_path();
    // Baseline: the scan restricted to a non-existent function, so
    // nothing is analyzed; current: the full scan. Every vulnerable
    // finding is new — a regression, exit 2. Reversed, the findings
    // are all "fixed": reportable, but not a regression.
    let (_, base_json) = run_captured(&["scan", &p, "--json", "--filter", "no-such-fn"]);
    let (_, cur_json) = run_captured(&["scan", &p, "--json"]);
    let a = tmpdir().join("reg-base.json");
    let b = tmpdir().join("reg-cur.json");
    std::fs::write(&a, &base_json).unwrap();
    std::fs::write(&b, &cur_json).unwrap();
    let (code, out) = run_captured(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Ok(2), "{out}");
    assert!(out.contains("new finding(s):"), "{out}");
    assert!(out.contains("  + "), "{out}");
    assert!(out.contains("regression(s)"), "{out}");
    assert!(out.contains("counter delta(s):"), "counters differ too: {out}");
    let (code, out) = run_captured(&["diff", b.to_str().unwrap(), a.to_str().unwrap()]);
    assert_eq!(code, Ok(0), "disappearing findings are fixes: {out}");
    assert!(out.contains("fixed finding(s):"), "{out}");
    let (code, _) = run_captured(&["diff", a.to_str().unwrap()]);
    assert!(code.is_err(), "missing current path is a usage error");
}

#[test]
fn unpack_lists_and_writes_files() {
    let p = small_image_path();
    let dir = tmpdir().join("rootfs");
    let (code, out) = run_captured(&["unpack", &p, "--out", dir.to_str().unwrap()]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("bin/cgibin"));
    assert!(dir.join("bin/cgibin").exists());
}

#[test]
fn info_shows_signatures_and_sections() {
    let p = small_image_path();
    let (code, out) = run_captured(&["info", &p]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("FwImage"));
    assert!(out.contains(".text"));
}

#[test]
fn disasm_prints_listing_and_single_function() {
    let p = small_image_path();
    let (code, out) = run_captured(&["disasm", &p]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("<main>:"));
    let (code, out) = run_captured(&["disasm", &p, "main"]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("jal") || out.contains("bl"));
}

#[test]
fn gen_writes_image_and_manifest() {
    let dest = tmpdir().join("gen2.fwi");
    // Profile 2 is small enough for a test.
    let (code, out) = run_captured(&["gen", "2", "--out", dest.to_str().unwrap()]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("wrote"));
    assert!(dest.exists());
    let manifest = std::fs::read_to_string(format!("{}.truth.json", dest.display())).unwrap();
    assert!(manifest.contains("entry_fn"));
}

#[test]
fn gen_corrupt_writes_a_damaged_image() {
    let dest = tmpdir().join("gen2-corrupt.fwi");
    let (code, _) = run_captured(&[
        "gen",
        "2",
        "--out",
        dest.to_str().unwrap(),
        "--corrupt",
        "dangling-symbol",
    ]);
    assert_eq!(code, Ok(0));
    let data = std::fs::read(&dest).unwrap();
    let img = extract_image(&data).unwrap();
    let bins = extract_binaries(&img).unwrap();
    assert!(bins[0].1.function("phantom").is_some(), "mutation reached the packed binary");
    let (code, _) =
        run_captured(&["gen", "2", "--out", dest.to_str().unwrap(), "--corrupt", "nonsense"]);
    assert!(code.is_err(), "unknown fault names are usage errors");
}

#[test]
fn corpus_prints_yearly_stats() {
    let (code, out) = run_captured(&["corpus", "--n", "300", "--seed", "3"]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("emulation success"));
    assert!(out.contains("2009"));
}

#[test]
fn validate_flags_vulnerable_binaries() {
    let p = small_image_path();
    // Extract the inner binary to a file first.
    let data = std::fs::read(&p).unwrap();
    let img = extract_image(&data).unwrap();
    let bins = extract_binaries(&img).unwrap();
    let bp = tmpdir().join("cgibin.fbf");
    std::fs::write(&bp, bins[0].1.to_bytes()).unwrap();
    let (code, out) = run_captured(&["validate", bp.to_str().unwrap(), "main"]);
    assert_eq!(code, Ok(2), "{out}");
    assert!(out.contains("MemoryCorruption") || out.contains("CommandInjected"), "{out}");
}

#[test]
fn defs_renders_figure6_style_summary() {
    let p = small_image_path();
    let (code, out) = run_captured(&["defs", &p, "main"]);
    assert_eq!(code, Ok(0));
    assert!(out.contains("definition pairs"), "{out}");
    assert!(out.contains("deref("), "{out}");
    let (code, _) = run_captured(&["defs", &p, "nonexistent"]);
    assert!(code.is_err());
}

#[test]
fn scan_partial_coverage_prints_skip_table_and_exits_4() {
    // A phantom function whose body lies outside every section:
    // lifting it must fail, and with the scan filtered to it alone
    // there are no findings — "clean but partial", exit 4.
    let mut profile = dtaint_fwgen::table2_profiles().remove(0);
    profile.total_functions = 40;
    let fw = dtaint_fwgen::build_firmware(&profile);
    let mutant = dtaint_fwgen::corrupt_binary(&fw.binary, &dtaint_fwgen::BinFault::DanglingSymbol);
    let p = tmpdir().join("dangling.fbf");
    std::fs::write(&p, mutant.to_bytes()).unwrap();
    let path = p.to_string_lossy().into_owned();
    let (code, out) = run_captured(&["scan", &path, "--filter", "phantom"]);
    assert_eq!(code, Ok(4), "{out}");
    assert!(out.contains("coverage: 0/1 function(s) analyzed"), "{out}");
    assert!(out.contains("lift-failed"), "{out}");
    assert!(out.contains("phantom"), "{out}");
    // The same scan under --fail-fast aborts with the lift error.
    let (code, _) = run_captured(&["scan", &path, "--filter", "phantom", "--fail-fast"]);
    assert!(code.is_err(), "fail-fast propagates the lift failure");
    // The full unfiltered scan still finds the planted vulns: the
    // vulnerability exit code dominates the partial-coverage one.
    let (code, out) = run_captured(&["scan", &path]);
    assert_eq!(code, Ok(2), "{out}");
    assert!(out.contains("coverage:"), "{out}");
    let (code, _) = run_captured(&["scan", &path, "--keep-going", "--fail-fast"]);
    assert!(code.is_err(), "the two policies are mutually exclusive");
}

#[test]
fn scan_with_validate_runs_the_emulator() {
    let p = small_image_path();
    let (code, out) = run_captured(&["scan", &p, "--validate"]);
    assert_eq!(code, Ok(2));
    assert!(out.contains("dynamic validation"), "{out}");
}

/// `gen --corrupt dangling-symbol` plants a phantom function whose body
/// lies outside every section; a keep-going scan of the whole image must
/// still report, account for the skipped function and name its reason.
#[test]
fn corrupted_image_keep_going_scan_accounts_for_the_skip() {
    let dest = tmpdir().join("gen2-dangling.fwi");
    let d = dest.to_str().unwrap();
    let (code, _) = run_captured(&["gen", "2", "--out", d, "--corrupt", "dangling-symbol"]);
    assert_eq!(code, Ok(0));
    let (code, out) = run_captured(&["scan", d, "--keep-going"]);
    assert!(!out.is_empty(), "empty report");
    // 2 = vulnerabilities found (dominates), 4 = clean but partial
    // coverage; anything else means the fault-tolerant path broke.
    assert!(matches!(code, Ok(2 | 4)), "unexpected exit {code:?}: {out}");
    assert!(out.contains("coverage:"), "missing coverage accounting: {out}");
    assert!(out.contains("lift-failed"), "missing skip reason: {out}");
}

/// Two scans of the same pristine image diff empty; a baseline whose
/// planted findings were knocked out by corruption, diffed against the
/// pristine scan, reports the reappearing findings as a regression; a
/// report diffed against itself takes the identical-set fast path.
#[test]
fn scan_over_scan_diff_flags_the_corrupt_baseline() {
    let gen = |name: &str, corrupt: &[&str]| {
        let dest = tmpdir().join(name).to_string_lossy().into_owned();
        let mut args = vec!["gen", "2", "--out", &dest];
        args.extend(corrupt);
        assert_eq!(run_captured(&args).0, Ok(0));
        dest
    };
    let scan_json = |image: &str, name: &str, codes: &[i32]| {
        let (code, json) = run_captured(&["--quiet", "scan", image, "--json"]);
        assert!(codes.contains(&code.clone().unwrap()), "{code:?}");
        let dest = tmpdir().join(name);
        std::fs::write(&dest, json).unwrap();
        dest.to_string_lossy().into_owned()
    };
    let pristine_image = gen("fw-diff.fwi", &[]);
    let corrupt_image = gen("fw-diff-corrupt.fwi", &["--corrupt", "garbage-fn"]);
    let pristine = scan_json(&pristine_image, "pristine.json", &[0, 2]);
    let pristine2 = scan_json(&pristine_image, "pristine2.json", &[0, 2]);
    let corrupt = scan_json(&corrupt_image, "corrupt.json", &[0, 2, 4]);

    let (code, out) = run_captured(&["diff", &pristine, &pristine2]);
    assert_eq!(code, Ok(0), "pristine-vs-pristine: {out}");
    assert!(out.contains("no finding differences"), "pristine diff not empty: {out}");

    let (code, out) = run_captured(&["diff", &corrupt, &pristine]);
    assert_eq!(code, Ok(2), "expected a regression: {out}");
    assert!(out.contains("new finding(s):"), "missing new-findings section: {out}");
    assert!(out.contains("regression(s)"), "missing regression verdict: {out}");

    let (code, out) = run_captured(&["diff", &pristine, &pristine]);
    assert_eq!(code, Ok(0), "self-diff: {out}");
    assert!(out.contains("note: baseline and current are the same file"), "{out}");
    assert!(out.contains("no finding differences:"), "missing fast-path summary: {out}");
}

/// The DIR-890L profile plants the sanitized twin `safe_guarded_recv`:
/// `why --fn` must name its SanitizeSuppressed verdict and constraint,
/// the JSONL must reconcile with the embedded decision list, and every
/// coverage row must partition its sink sites.
#[test]
fn why_and_the_audit_log_reconcile_with_the_report() {
    let image = tmpdir().join("fw-audit.fwi").to_string_lossy().into_owned();
    assert_eq!(run_captured(&["gen", "2", "--out", &image]).0, Ok(0));
    let audit = tmpdir().join("fw-audit.jsonl").to_string_lossy().into_owned();
    let (code, json) = run_captured(&["--quiet", "scan", &image, "--json", "--audit-out", &audit]);
    assert!(matches!(code, Ok(0 | 2)), "{code:?}");
    let report_path = tmpdir().join("fw-audit-report.json").to_string_lossy().into_owned();
    std::fs::write(&report_path, &json).unwrap();

    let (code, out) = run_captured(&["why", &report_path, "--fn", "safe_guarded_recv"]);
    assert_eq!(code, Ok(0), "{out}");
    assert!(out.contains("SanitizeSuppressed"), "why missed the sanitizer decision: {out}");
    assert!(out.contains("fits"), "why missed the bounds verdict: {out}");
    assert!(out.contains("coverage:"), "why missed the coverage context: {out}");

    let lines: Vec<Decision> = std::fs::read_to_string(&audit)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(!lines.is_empty(), "empty audit log");
    assert!(lines.iter().all(|d| d.v == 1), "unversioned decision");
    assert!(lines.iter().any(|d| d.kind == DecisionKind::SanitizeSuppressed));

    let report = AnalysisReport::from_json(json.trim()).unwrap();
    assert_eq!(report.decisions.len(), lines.len(), "JSONL diverges from the embedded list");
    let rows = &report.sink_coverage.rows;
    assert!(!rows.is_empty(), "no coverage rows");
    for row in rows {
        let parts = row.reported + row.sanitized + row.unreached;
        assert_eq!(row.sites, parts, "row does not partition: {row:?}");
    }
    let sanitized: usize = rows.iter().map(|r| r.sanitized).sum();
    let decided =
        report.decisions.iter().filter(|d| d.kind == DecisionKind::SanitizeSuppressed).count();
    assert_eq!(sanitized, decided);
}

/// Each malformed invocation is a usage error naming the offending
/// argument, and runs nothing: no scan output, no file written.
#[test]
fn malformed_invocations_are_usage_errors_naming_the_argument() {
    let p = small_image_path();
    let gen_dest = tmpdir().join("rejected-gen.fwi");
    let g = gen_dest.to_str().unwrap();
    for (args, named) in [
        (vec!["scan", &p, "--interval-guard"], "--interval-guard"),
        (vec!["scan", &p, "--jobs", "4"], "--jobs"),
        (vec!["scan", &p, "extra.fwi"], "extra.fwi"),
        (vec!["scan", &p, "--filter", "--json"], "--filter"),
        (vec!["gen", "1", "--out", g, "--corupt", "garbage-fn"], "--corupt"),
        (vec!["scan", &p, "--threads", "1", "--threads", "2"], "--threads"),
        (vec!["scan", &p, "--json", "--md"], "--md"),
    ] {
        let (code, out) = run_captured(&args);
        let err = code.expect_err(&format!("{args:?} must be rejected"));
        assert!(err.contains(named), "{args:?} must name `{named}`: {err}");
        assert!(err.contains("usage: dtaint"), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?} must not run: {out}");
    }
    assert!(!gen_dest.exists(), "a rejected `gen` writes no image");
}
