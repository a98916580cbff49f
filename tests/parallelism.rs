//! The parallel per-function analysis (merged by pool translation) must
//! be observationally identical to the single-worker run: same findings,
//! same counts, same rendered expressions — for every thread count, on
//! every Table II profile.

use dtaint_core::{AnalysisReport, Dtaint, DtaintConfig, Finding};
use dtaint_fwgen::{build_firmware, table2_profiles, GeneratedFirmware};
use proptest::prelude::*;

/// Builds one Table II profile with the function count capped, so the
/// debug-mode suite stays fast (the Uniview/Hikvision rows are 6.7k and
/// 14k functions at full size).
fn capped_firmware(index: usize, cap: usize) -> GeneratedFirmware {
    let mut p = table2_profiles().remove(index);
    p.total_functions = p.total_functions.min(cap);
    build_firmware(&p)
}

fn report(fw: &GeneratedFirmware, threads: usize) -> AnalysisReport {
    let config = DtaintConfig { threads, ..Default::default() };
    Dtaint::with_config(config).analyze(&fw.binary, "par").unwrap()
}

/// Order-insensitive finding keys, including the rendered tainted
/// expression (pool translation must be structure-preserving), the
/// fingerprint, and the full typed evidence chain down to the verdict.
fn finding_keys(r: &AnalysisReport) -> Vec<(u32, String, bool, String, Vec<u32>, String)> {
    let mut keys: Vec<_> = r
        .findings
        .iter()
        .map(|f: &Finding| {
            (
                f.sink_ins,
                f.sink.clone(),
                f.sanitized(),
                f.tainted_expr.clone(),
                f.call_chain.clone(),
                format!("{}{:?}{:?}{:?}", f.fingerprint, f.sources, f.verdict, f.evidence),
            )
        })
        .collect();
    keys.sort();
    keys
}

fn assert_reports_agree(seq: &AnalysisReport, par: &AnalysisReport, label: &str) {
    assert_eq!(seq.functions, par.functions, "{label}");
    assert_eq!(seq.sinks_count, par.sinks_count, "{label}");
    assert_eq!(seq.resolved_indirect, par.resolved_indirect, "{label}");
    assert_eq!(seq.vulnerabilities(), par.vulnerabilities(), "{label}");
    assert_eq!(finding_keys(seq), finding_keys(par), "{label}: findings must be identical");
}

fn reports_for_threads(threads: usize) -> AnalysisReport {
    let fw = capped_firmware(2, 160); // DGN1000: richest plant mix
    report(&fw, threads)
}

#[test]
fn parallel_and_sequential_analyses_agree() {
    let seq = reports_for_threads(1);
    let par = reports_for_threads(4);
    assert_reports_agree(&seq, &par, "DGN1000 @4t");
}

#[test]
fn ddg_stage_agrees_across_thread_counts_on_all_profiles() {
    for index in 0..6 {
        let fw = capped_firmware(index, 200);
        let seq = report(&fw, 1);
        for threads in [2, 4, 8] {
            let par = report(&fw, threads);
            assert_reports_agree(
                &seq,
                &par,
                &format!("profile {} threads={threads}", fw.profile.binary_name),
            );
        }
    }
}

/// Reports round-trip through JSON losslessly — full `PartialEq`,
/// including the typed evidence chains and the telemetry section — and
/// the provenance (fingerprints, verdicts, evidence) is bit-identical
/// across thread counts, on every Table II profile.
#[test]
fn report_json_round_trips_and_evidence_is_thread_invariant() {
    for index in 0..6 {
        let fw = capped_firmware(index, 120);
        let label = fw.profile.binary_name;
        let seq = report(&fw, 1);
        let par = report(&fw, 4);
        for r in [&seq, &par] {
            let back = AnalysisReport::from_json(&r.to_json().unwrap())
                .unwrap_or_else(|e| panic!("{label}: reparse failed: {e}"));
            assert_eq!(&back, r, "{label}: JSON round-trip must be lossless");
        }
        let provenance = |r: &AnalysisReport| {
            r.findings
                .iter()
                .map(|f| (f.fingerprint.clone(), f.verdict.clone(), f.evidence.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(provenance(&seq), provenance(&par), "{label}: evidence differs at 4 threads");
        for f in seq.findings.iter().filter(|f| !f.evidence.is_empty()) {
            assert!(
                matches!(f.evidence.last(), Some(dtaint_core::EvidenceStep::Verdict(_))),
                "{label}: evidence chain must end in a verdict"
            );
            assert!(!f.fingerprint.is_empty(), "{label}: fingerprint populated");
        }
    }
}

#[test]
fn thread_count_does_not_affect_repeated_runs() {
    for threads in [2, 3, 8] {
        let r1 = reports_for_threads(threads);
        let r2 = reports_for_threads(threads);
        assert_eq!(r1.vulnerabilities(), r2.vulnerabilities(), "threads={threads}");
        assert_eq!(r1.findings.len(), r2.findings.len(), "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeded generated programs: the parallel pipeline must
    /// produce the identical order-insensitive finding set as the
    /// sequential one, whatever the program shape.
    #[test]
    fn random_programs_agree_between_parallel_and_sequential(
        seed in 0u64..1_000_000,
        extra in 40usize..120,
        threads in 2usize..=8,
    ) {
        let mut p = table2_profiles().remove(2);
        p.seed = seed;
        p.total_functions = 40 + extra;
        let fw = build_firmware(&p);
        let seq = report(&fw, 1);
        let par = report(&fw, threads);
        prop_assert_eq!(seq.resolved_indirect, par.resolved_indirect);
        prop_assert_eq!(finding_keys(&seq), finding_keys(&par));
    }
}
