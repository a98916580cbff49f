//! Audit-log invariants: the decision stream is bit-identical across
//! thread counts, every suppression/degradation counter in the report
//! is exactly reconciled by the decisions that explain it, and the
//! sink-coverage rows partition the sink population.
//!
//! The determinism contract under test: decisions are assembled in one
//! canonical order (symex budget → ddg prunes/budget/saturation →
//! cache quarantines → detect verdicts), all of it derived from
//! logical analysis state — wall-clock never enters a decision.

use dtaint_core::AnalysisReport;
use dtaint_fwgen::{build_firmware, table2_profiles, GeneratedFirmware};
use dtaint_telemetry::DecisionKind;

fn capped_firmware(index: usize, cap: usize) -> GeneratedFirmware {
    let mut p = table2_profiles().remove(index);
    p.total_functions = p.total_functions.min(cap);
    build_firmware(&p)
}

fn tmpdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dtaint-audit-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes the capped profile as a packed image and returns its path.
/// Tests run in parallel and share the path, so the image is written
/// aside and renamed into place: a concurrent scan never reads a
/// half-written file.
fn image_path(index: usize, cap: usize) -> String {
    let fw = capped_firmware(index, cap);
    let p = tmpdir().join(format!("audit-p{index}.fwi"));
    let aside = p.with_extension(format!("{:?}", std::thread::current().id()));
    std::fs::write(&aside, fw.image.pack(false)).unwrap();
    std::fs::rename(&aside, &p).unwrap();
    p.to_string_lossy().into_owned()
}

/// `--audit-out` is byte-identical across `--threads {1, 2, 8}` on all
/// six Table II profiles: worker scheduling must never reorder, drop,
/// or duplicate a decision.
#[test]
fn audit_stream_is_bit_identical_across_thread_counts() {
    let mut total_decisions = 0usize;
    for index in 0..6 {
        let p = image_path(index, 60);
        let mut streams: Vec<Vec<u8>> = Vec::new();
        for threads in ["1", "2", "8"] {
            let audit = tmpdir().join(format!("audit-p{index}-t{threads}.jsonl"));
            let (code, out) = dtaint_cli::run_captured(&[
                "scan",
                &p,
                "--json",
                "--threads",
                threads,
                "--audit-out",
                audit.to_str().unwrap(),
            ]);
            assert!(matches!(code, Ok(0 | 2 | 4)), "profile {index} t{threads}: {code:?} {out}");
            streams.push(std::fs::read(&audit).unwrap());
        }
        assert_eq!(streams[0], streams[1], "profile {index}: --threads 1 vs 2 diverged");
        assert_eq!(streams[0], streams[2], "profile {index}: --threads 1 vs 8 diverged");
        total_decisions += streams[0].iter().filter(|&&b| b == b'\n').count();
    }
    assert!(total_decisions > 0, "the Table II profiles produce audit decisions");
}

/// Every suppressed/degraded counter in the report is explained by
/// exactly as many decisions, and the coverage rows partition their
/// sink sites — no silent suppression, no double counting.
#[test]
fn decisions_reconcile_every_suppression_counter() {
    for index in 0..6 {
        let p = image_path(index, 60);
        let audit = tmpdir().join(format!("audit-rec-p{index}.jsonl"));
        let (code, json) = dtaint_cli::run_captured(&[
            "scan",
            &p,
            "--json",
            "--threads",
            "2",
            "--audit-out",
            audit.to_str().unwrap(),
        ]);
        assert!(matches!(code, Ok(0 | 2 | 4)), "profile {index}: {code:?}");
        let report = AnalysisReport::from_json(json.trim()).unwrap();
        let counter = |n: &str| report.telemetry.metrics.counter(n);
        let kind_count =
            |k: DecisionKind| report.decisions.iter().filter(|d| d.kind == k).count() as u64;
        let stage_count = |k: DecisionKind, s: &str| {
            report.decisions.iter().filter(|d| d.kind == k && d.stage == s).count() as u64
        };

        assert_eq!(
            stage_count(DecisionKind::PathPruned, "detect"),
            counter("detect.infeasible_suppressed"),
            "profile {index}: detect-side prune decisions match the counter"
        );
        // A cache-less scan analyzes everything cold, so the per-sink
        // DDG prune records cover the whole aggregate count.
        assert_eq!(
            stage_count(DecisionKind::PathPruned, "ddg"),
            counter("ddg.pruned_infeasible"),
            "profile {index}: ddg prune decisions match the counter"
        );
        assert_eq!(
            kind_count(DecisionKind::DuplicateSuppressed),
            counter("detect.duplicates_suppressed"),
            "profile {index}: duplicate decisions match the counter"
        );
        assert_eq!(
            kind_count(DecisionKind::SanitizeSuppressed),
            report.findings.iter().filter(|f| f.sanitized()).count() as u64,
            "profile {index}: one decision per sanitized finding"
        );
        assert_eq!(
            stage_count(DecisionKind::BudgetDegraded, "symex"),
            counter("symex.functions_retried"),
            "profile {index}: symex degradations match the retry counter"
        );
        assert_eq!(
            kind_count(DecisionKind::AliasSaturated),
            counter("ddg.alias_sse_saturated"),
            "profile {index}: saturation decisions match the counter"
        );
        assert_eq!(
            kind_count(DecisionKind::CacheQuarantined),
            0,
            "profile {index}: no cache configured → no quarantine decisions"
        );

        // Coverage rows partition their sites, and the aggregates agree
        // with the report-level counters.
        for row in &report.sink_coverage.rows {
            assert_eq!(
                row.sites,
                row.reported + row.sanitized + row.infeasible + row.unreached,
                "profile {index}: row `{}` partitions its sites",
                row.sink
            );
            assert_eq!(row.reached(), row.reported + row.sanitized + row.infeasible);
        }
        let t = report.sink_coverage.totals();
        assert_eq!(
            t.sites,
            report.sink_coverage.rows.iter().map(|r| r.sites).sum::<usize>(),
            "profile {index}: totals sum the rows"
        );
        assert!(t.sites > 0, "profile {index}: the profiles plant sinks");
        assert_eq!(
            report.sink_coverage.ddg_pruned as u64,
            counter("ddg.pruned_infeasible"),
            "profile {index}: coverage aggregate mirrors the DDG counter"
        );
        assert_eq!(
            report.sink_coverage.duplicates as u64,
            counter("detect.duplicates_suppressed"),
            "profile {index}: coverage aggregate mirrors the dedup counter"
        );

        // The JSONL stream is the same decision list the report embeds.
        let text = std::fs::read_to_string(&audit).unwrap();
        assert_eq!(text.lines().count(), report.decisions.len());
    }
}

/// Audit off (the default) records nothing — the report's decision list
/// stays empty and findings/coverage are unchanged, so the audit hook
/// is free when disabled.
#[test]
fn audit_disabled_changes_nothing_but_the_decision_list() {
    let p = image_path(1, 60);
    let audit = tmpdir().join("audit-onoff.jsonl");
    let (_, plain) = dtaint_cli::run_captured(&["scan", &p, "--json", "--threads", "2"]);
    let (_, audited) = dtaint_cli::run_captured(&[
        "scan",
        &p,
        "--json",
        "--threads",
        "2",
        "--audit-out",
        audit.to_str().unwrap(),
    ]);
    let plain = AnalysisReport::from_json(plain.trim()).unwrap();
    let audited = AnalysisReport::from_json(audited.trim()).unwrap();
    assert!(plain.decisions.is_empty(), "audit is off by default");
    assert!(!audited.decisions.is_empty(), "audited scans record decisions");
    assert_eq!(plain.findings, audited.findings, "findings are identical");
    assert_eq!(plain.sink_coverage, audited.sink_coverage, "coverage is identical");
    assert_eq!(
        plain.telemetry.metrics.counters, audited.telemetry.metrics.counters,
        "logical counters are identical"
    );
}
