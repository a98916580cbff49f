//! Fault-injection corpus: the scanner must never panic on corrupted
//! inputs, must always terminate with a report (or a typed error for
//! unparseable containers), must enumerate every skipped function with
//! a reason, and must keep the findings of still-analyzed functions
//! bit-identical across thread counts and stable against the pristine
//! run.

use dtaint_core::{Dtaint, DtaintConfig, Finding, FunctionOutcome};
use dtaint_fwbin::Binary;
use dtaint_fwgen::{
    build_firmware, corrupt_binary, fbf_fault_corpus, fwi_fault_corpus, table2_profiles, BinFault,
};
use dtaint_fwimage::{extract_binaries, extract_image};
use dtaint_symex::SymexConfig;
use dtaint_telemetry::Collector;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn small_firmware() -> dtaint_fwgen::GeneratedFirmware {
    let mut p = table2_profiles().remove(0);
    p.total_functions = 40;
    build_firmware(&p)
}

fn config_threads(threads: usize) -> DtaintConfig {
    DtaintConfig { threads, ..Default::default() }
}

/// The fields of a finding that are stable across pool layouts — the
/// rendered `tainted_expr`/evidence strings may embed pool-global
/// unknown indices, which legitimately shift when an *earlier* function
/// is skipped, so pristine-vs-mutant comparisons key on these.
fn stable_key(f: &Finding) -> (String, u32, String, String, Vec<String>, Vec<u32>, bool) {
    (
        f.sink.clone(),
        f.sink_ins,
        f.sink_fn.clone(),
        f.observed_in.clone(),
        f.sources.iter().map(|s| s.name.clone()).collect(),
        f.call_chain.clone(),
        f.sanitized(),
    )
}

/// True when the finding touches the function named `name` (covering
/// `addr..addr+size`) as sink holder, observer, or via a call-chain
/// instruction inside it.
fn mentions(f: &Finding, name: &str, addr: u32, size: u32) -> bool {
    f.sink_fn == name
        || f.observed_in == name
        || f.call_chain.iter().any(|&cs| cs >= addr && cs < addr.saturating_add(size))
}

#[test]
fn corrupt_fbf_bytes_error_cleanly_never_panic() {
    let fw = small_firmware();
    for (name, mutant) in fbf_fault_corpus(&fw.binary, 11) {
        let parsed = catch_unwind(AssertUnwindSafe(|| Binary::from_bytes(&mutant)));
        assert!(parsed.is_ok(), "parser panicked on mutant `{name}`");
    }
}

#[test]
fn corrupt_fwi_bytes_error_cleanly_never_panic() {
    let fw = small_firmware();
    for (name, mutant) in fwi_fault_corpus(&fw.image, 13) {
        let parsed = catch_unwind(AssertUnwindSafe(|| extract_image(&mutant)));
        assert!(parsed.is_ok(), "image extractor panicked on mutant `{name}`");
    }
}

/// Profile 2 (DAP-2695) capped at 150 functions, pristine and with
/// `util_fn10`'s opcodes garbled. Its call chains substitute deeply
/// shared expression DAGs (in `cgi_fn19` and `cgi_fn7`); walked as
/// trees they took 2.4 G `replace` steps and ~12 s of `ddg_propagate`.
/// Each DAG walk works a node out once, so the DDG's walk visits — a
/// step count, the same at every thread count — stay under a ceiling.
#[test]
fn shared_expression_dags_keep_ddg_walks_linear() {
    let mut p = table2_profiles().remove(1);
    p.total_functions = 150;
    let pristine = build_firmware(&p).binary;
    let garbled = corrupt_binary(&pristine, &BinFault::GarbageOpcodes { index: 70, seed: 11 });
    for (label, bin) in [("pristine", &pristine), ("garbled", &garbled)] {
        let mut seen = Vec::new();
        for threads in [1, 2, 8] {
            let mut tel = Collector::disabled();
            let report = Dtaint::with_config(config_threads(threads))
                .analyze_traced(bin, label, &mut tel)
                .unwrap();
            // ~18 k on this image (~156 k before the walks skipped
            // subtrees by leaf signature).
            let visits = tel.metrics.counter("ddg.walk_visits");
            assert!(visits > 0 && visits <= 300_000, "{label}: {visits} DDG walk visits");
            seen.push((visits, report.with_zeroed_wall_clock()));
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{label}: differs across threads");
    }
}

/// The acceptance gate: for every corpus mutant the scanner terminates
/// without panicking; parseable mutants always produce a report whose
/// skipped functions carry reasons.
#[test]
fn scanner_survives_the_whole_corpus() {
    let fw = small_firmware();
    let analyzer = Dtaint::new();
    for (name, mutant) in fwi_fault_corpus(&fw.image, 17) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let img = extract_image(&mutant).map_err(|e| e.to_string())?;
            let bins = extract_binaries(&img).map_err(|e| e.to_string())?;
            let mut reports = Vec::new();
            for (bname, bin) in &bins {
                reports.push(analyzer.analyze(bin, bname).map_err(|e| e.to_string())?);
            }
            Ok::<_, String>(reports)
        }));
        let result = outcome.unwrap_or_else(|_| panic!("scanner panicked on mutant `{name}`"));
        let Ok(reports) = result else { continue }; // typed error: fine
        for report in reports {
            // `functions_skipped` counts exactly the records with a
            // no-summary outcome; degraded/budget records are listed
            // but still analyzed.
            let severe = report
                .skipped_functions
                .iter()
                .filter(|r| {
                    matches!(r.outcome, FunctionOutcome::LiftFailed | FunctionOutcome::Panicked)
                })
                .count();
            assert_eq!(severe, report.functions_skipped, "mutant `{name}`");
            for rec in &report.skipped_functions {
                assert_ne!(rec.outcome, FunctionOutcome::Analyzed, "mutant `{name}`");
                assert!(!rec.detail.is_empty(), "mutant `{name}`: reason missing");
            }
            if !report.coverage_complete() {
                assert!(
                    !report.skip_table().is_empty(),
                    "mutant `{name}`: incomplete coverage but empty skip table"
                );
            }
        }
    }
}

/// Garbage-opcode mutants parse but damage one function; the scanner
/// must keep going, and its report must be bit-identical (full
/// fidelity, rendered strings included) across thread counts.
#[test]
fn mutant_reports_are_bit_identical_across_threads() {
    let fw = small_firmware();
    let mutant = corrupt_binary(&fw.binary, &BinFault::GarbageOpcodes { index: 1, seed: 23 });
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let report = Dtaint::with_config(config_threads(threads))
            .analyze(&mutant, "mutant")
            .expect("keep-going scan yields a report");
        snapshots.push((
            threads,
            format!("{:?}", report.findings),
            format!("{:?}", report.skipped_functions),
            report.functions_analyzed,
            report.functions_skipped,
        ));
    }
    for pair in snapshots.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "findings differ: t={} vs t={}", pair[0].0, pair[1].0);
        assert_eq!(pair[0].2, pair[1].2, "skip set differs: t={} vs t={}", pair[0].0, pair[1].0);
        assert_eq!((pair[0].3, pair[0].4), (pair[1].3, pair[1].4));
    }
}

/// Findings of functions untouched by the mutation are preserved from
/// the pristine run (on pool-layout-stable fields).
#[test]
fn analyzed_function_findings_match_pristine() {
    let fw = small_firmware();
    let pristine = Dtaint::new().analyze(&fw.binary, "pristine").unwrap();
    for index in [0usize, 2] {
        let fault = BinFault::GarbageOpcodes { index, seed: 31 };
        let mutant_bin = corrupt_binary(&fw.binary, &fault);
        let report = Dtaint::new().analyze(&mutant_bin, "mutant").unwrap();
        // Every function downgraded by the mutation defines the
        // "affected" set; findings not touching it must survive intact.
        let affected: Vec<_> = report
            .skipped_functions
            .iter()
            .filter_map(|r| fw.binary.function(&r.name).map(|s| (r.name.clone(), s.addr, s.size)))
            .collect();
        let untouched = |f: &Finding| {
            !affected.iter().any(|(name, addr, size)| mentions(f, name, *addr, *size))
        };
        let mut kept: Vec<_> =
            report.findings.iter().filter(|f| untouched(f)).map(stable_key).collect();
        let mut expected: Vec<_> =
            pristine.findings.iter().filter(|f| untouched(f)).map(stable_key).collect();
        kept.sort();
        expected.sort();
        assert_eq!(kept, expected, "fault {fault:?} disturbed unaffected findings");
    }
}

/// The `panic_on` drill forces a real `panic!` inside symbolic
/// execution of one chosen function. The catch_unwind isolation must
/// produce the same skip set for 1, 2, and 8 threads, and — when the
/// drilled function feeds no finding — leave the findings exactly
/// pristine.
#[test]
fn panic_drill_skip_set_is_thread_invariant() {
    let fw = small_firmware();
    let pristine = Dtaint::new().analyze(&fw.binary, "pristine").unwrap();
    // Drill a function that no pristine finding touches.
    let victim = fw
        .binary
        .functions()
        .into_iter()
        .find(|s| !pristine.findings.iter().any(|f| mentions(f, &s.name, s.addr, s.size)))
        .expect("some function is uninvolved in findings")
        .clone();
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = DtaintConfig {
            threads,
            symex: SymexConfig { panic_on: Some(victim.addr), ..Default::default() },
            ..Default::default()
        };
        let report = Dtaint::with_config(config).analyze(&fw.binary, "drilled").unwrap();
        assert_eq!(report.functions_skipped, 1);
        assert_eq!(report.skipped_functions.len(), 1);
        let rec = &report.skipped_functions[0];
        assert_eq!(rec.outcome, FunctionOutcome::Panicked);
        assert_eq!(rec.addr, victim.addr);
        let mut keys: Vec<_> = report.findings.iter().map(stable_key).collect();
        keys.sort();
        snapshots.push((threads, keys, format!("{:?}", report.skipped_functions)));
    }
    for pair in snapshots.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "t={} vs t={}", pair[0].0, pair[1].0);
        assert_eq!(pair[0].2, pair[1].2, "t={} vs t={}", pair[0].0, pair[1].0);
    }
    let mut pristine_keys: Vec<_> = pristine.findings.iter().map(stable_key).collect();
    pristine_keys.sort();
    assert_eq!(snapshots[0].1, pristine_keys, "drilling an uninvolved function changed findings");
}

/// A starvation-level fuel budget triggers the degraded retry path:
/// the scan still completes, retries are counted, outcomes are
/// enumerated, and the report is deterministic across thread counts.
#[test]
fn tiny_fuel_budget_degrades_deterministically() {
    let fw = small_firmware();
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = DtaintConfig {
            threads,
            symex: SymexConfig { max_fuel: 2, ..Default::default() },
            ..Default::default()
        };
        let report = Dtaint::with_config(config).analyze(&fw.binary, "starved").unwrap();
        assert!(report.functions_retried > 0, "a 2-step budget must force retries");
        assert!(report.skipped_functions.iter().all(|r| matches!(
            r.outcome,
            FunctionOutcome::Degraded | FunctionOutcome::BudgetExceeded
        )));
        // Budget exhaustion is a downgrade, not a skip: coverage stays
        // complete because every function still contributes a summary.
        assert_eq!(report.functions_skipped, 0);
        snapshots.push(format!(
            "{:?}|{:?}|{}",
            report.findings, report.skipped_functions, report.functions_retried
        ));
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[1], snapshots[2]);
}

/// The incremental cache must never serve a faulted function: a
/// `Panicked` function is quarantined (re-missed on every scan, at both
/// cache levels) rather than stored as an `Analyzed` summary, and the
/// warm report stays byte-identical to the cold one.
#[test]
fn panicked_functions_are_never_cached() {
    use dtaint_core::{CacheRef, SummaryCache};
    use std::sync::Arc;
    let fw = small_firmware();
    let pristine = Dtaint::new().analyze(&fw.binary, "pristine").unwrap();
    let victim = fw
        .binary
        .functions()
        .into_iter()
        .find(|s| !pristine.findings.iter().any(|f| mentions(f, &s.name, s.addr, s.size)))
        .expect("some function is uninvolved in findings")
        .clone();
    let config = |cache: Option<CacheRef>| DtaintConfig {
        symex: SymexConfig { panic_on: Some(victim.addr), ..Default::default() },
        cache,
        ..Default::default()
    };
    let cold = Dtaint::with_config(config(None))
        .analyze(&fw.binary, "drilled")
        .unwrap()
        .with_zeroed_wall_clock();
    assert_eq!(cold.skipped_functions[0].outcome, FunctionOutcome::Panicked);

    let cache = Arc::new(SummaryCache::new());
    Dtaint::with_config(config(Some(CacheRef::new(cache.clone(), "drill"))))
        .analyze(&fw.binary, "drilled")
        .unwrap();
    let warm = Dtaint::with_config(config(Some(CacheRef::new(cache.clone(), "drill"))))
        .analyze(&fw.binary, "drilled")
        .unwrap()
        .with_zeroed_wall_clock();
    assert_eq!(warm, cold, "warm drilled scan must reproduce the cold report exactly");
    let st = cache.scan_stats("drill");
    assert!(st.sym_hits > 0, "healthy functions are served from the cache");
    assert_eq!(
        st.sym_miss_fns.iter().cloned().collect::<Vec<_>>(),
        vec![victim.name.clone()],
        "only the panicked function may re-miss at the symex level"
    );
    // The quarantine also covers the DDG level: the victim's
    // placeholder summary is re-derived (re-missed) on every scan,
    // never stored, and nothing else misses.
    assert_eq!(
        st.ddg_miss_fns.iter().cloned().collect::<Vec<_>>(),
        vec![victim.name.clone()],
        "only the panicked function may re-miss at the DDG level"
    );
}

/// Same quarantine for `Degraded`/`BudgetExceeded` outcomes: a
/// starvation-level fuel budget downgrades many functions, and none of
/// them may ever be served from (or stored into) the cache as an
/// `Analyzed` summary.
#[test]
fn degraded_functions_are_never_cached() {
    use dtaint_core::{CacheRef, SummaryCache};
    use std::sync::Arc;
    let fw = small_firmware();
    let config = |cache: Option<CacheRef>| DtaintConfig {
        symex: SymexConfig { max_fuel: 2, ..Default::default() },
        cache,
        ..Default::default()
    };
    let cold = Dtaint::with_config(config(None))
        .analyze(&fw.binary, "starved")
        .unwrap()
        .with_zeroed_wall_clock();
    assert!(!cold.skipped_functions.is_empty(), "a 2-step budget must degrade something");

    let cache = Arc::new(SummaryCache::new());
    Dtaint::with_config(config(Some(CacheRef::new(cache.clone(), "starve"))))
        .analyze(&fw.binary, "starved")
        .unwrap();
    let warm = Dtaint::with_config(config(Some(CacheRef::new(cache.clone(), "starve"))))
        .analyze(&fw.binary, "starved")
        .unwrap()
        .with_zeroed_wall_clock();
    assert_eq!(warm, cold, "warm starved scan must reproduce the cold report exactly");
    let st = cache.scan_stats("starve");
    for rec in &warm.skipped_functions {
        assert!(
            matches!(rec.outcome, FunctionOutcome::Degraded | FunctionOutcome::BudgetExceeded),
            "unexpected outcome for {}: {:?}",
            rec.name,
            rec.outcome
        );
        assert!(
            st.sym_miss_fns.contains(&rec.name),
            "{} ({:?}) was served from the symex cache",
            rec.name,
            rec.outcome
        );
        assert!(
            st.ddg_miss_fns.contains(&rec.name),
            "{} ({:?}) was served from the DDG cache",
            rec.name,
            rec.outcome
        );
    }
}

/// fail-fast mode restores the old abort-on-first-failure behaviour.
#[test]
fn fail_fast_aborts_where_keep_going_reports() {
    let fw = small_firmware();
    let victim = fw.binary.functions()[0].clone();
    let drill = SymexConfig { panic_on: Some(victim.addr), ..Default::default() };
    let keep = DtaintConfig { symex: drill, ..Default::default() };
    let report = Dtaint::with_config(keep.clone()).analyze(&fw.binary, "kept").unwrap();
    assert_eq!(report.functions_skipped, 1);
    let fast = DtaintConfig { fail_fast: true, ..keep };
    let err = Dtaint::with_config(fast).analyze(&fw.binary, "aborted");
    assert!(err.is_err(), "fail-fast must abort on the drilled panic");
}

/// The DDG `panic_on` drill panics at the end of one function's
/// propagation, after it has interned nodes and pruned infeasible sinks
/// (profile 2, interval bounds, audit on). The rollback boundary must
/// undo all of it: the function is recorded `Panicked`, none of its
/// prunes reach the audit stream, the pool keeps nothing it interned,
/// and the report and audit stream are identical at every thread count.
#[test]
fn ddg_panic_drill_rolls_back_the_functions_propagation() {
    use dtaint_core::BoundsMode;
    use dtaint_telemetry::DecisionKind;
    let bin = build_firmware(&table2_profiles().remove(1)).binary;
    let config = |threads, panic_on| {
        let mut c = DtaintConfig { threads, audit: true, ..Default::default() };
        c.dataflow.bounds = BoundsMode::Interval;
        c.dataflow.panic_on = panic_on;
        c
    };
    let scan = |config: DtaintConfig| {
        let mut tel = Collector::disabled();
        let report = Dtaint::with_config(config).analyze_traced(&bin, "ddg-drill", &mut tel);
        let root = tel.events().iter().find(|e| e.cat == "scan").expect("root span");
        (report.unwrap().with_zeroed_wall_clock(), root.args["pool_nodes"])
    };
    let (pristine, pristine_nodes) = scan(config(1, None));
    // A function nothing calls, so no other function reads its final
    // summary: only its own rolled-back propagation separates the
    // drilled pool from the pristine one.
    let cfgs: Vec<_> = bin
        .functions()
        .into_iter()
        .filter_map(|s| dtaint_cfg::build_function_cfg(&bin, s).ok())
        .collect();
    let graph = dtaint_cfg::CallGraph::build(&bin, &cfgs);
    let victim = pristine
        .decisions
        .iter()
        .find(|d| {
            d.kind == DecisionKind::PathPruned && graph.callers_of(d.function_addr).is_empty()
        })
        .expect("an uncalled function prunes a sink");
    let (addr, name) = (victim.function_addr, victim.function.clone());
    let names_victim = |d: &&dtaint_telemetry::Decision| {
        d.kind == DecisionKind::PathPruned && d.function_addr == addr
    };

    let mut drilled = Vec::new();
    for threads in [1, 2, 8] {
        let (report, nodes) = scan(config(threads, Some(addr)));
        let rec = report.skipped_functions.iter().find(|r| r.addr == addr).expect("recorded");
        assert_eq!(rec.outcome, FunctionOutcome::Panicked);
        assert_eq!(report.skipped_functions.len(), 1);
        assert!(!report.decisions.iter().any(|d| names_victim(&d)), "t={threads}: prunes kept");
        assert!(nodes < pristine_nodes, "t={threads}: the drilled propagation stayed in the pool");
        drilled.push((report, nodes));
    }
    assert!(drilled.windows(2).all(|w| w[0] == w[1]), "drilled scans differ across threads");
    // The other functions' prunes all survive.
    let pruned = |r: &dtaint_core::AnalysisReport| {
        r.decisions
            .iter()
            .filter(|d| d.kind == DecisionKind::PathPruned && !names_victim(d))
            .count()
    };
    assert_eq!(pruned(&drilled[0].0), pruned(&pristine));

    let fast = DtaintConfig { fail_fast: true, ..config(1, Some(addr)) };
    let err = Dtaint::with_config(fast).analyze(&bin, "ddg-drill").expect_err("fail-fast aborts");
    assert!(err.to_string().contains(&format!("panic while analyzing `{name}`")), "{err}");
}
