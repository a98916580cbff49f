//! The fused per-function pass (lift → CFG → symex → drop the IR) must
//! give what the staged pipeline gave: lift every function first, keep
//! all CFGs, build the call graph over them, then run symbolic analysis.
//!
//! Two differentials hold it there. The call graph assembled from the
//! per-function shape records equals the one classified over full CFGs,
//! on every Table II profile and every `BinFault` mutant. The outcome
//! records, the fail-fast error and `functions_analyzed` of a scan equal
//! those of a lift-all-then-symex reference on the fault corpus, at 1, 2
//! and 8 threads.

use dtaint_cfg::{build_function_cfg, CallGraph, CallTarget, Callsite, FunctionCfg, FunctionShape};
use dtaint_core::{CacheRef, Dtaint, DtaintConfig, FunctionOutcome, FunctionRecord, SummaryCache};
use dtaint_fwbin::{Binary, SymbolKind, INS_SIZE};
use dtaint_fwgen::{build_firmware, corrupt_binary, fbf_fault_corpus, table2_profiles, BinFault};
use dtaint_ir::JumpKind;
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};
use dtaint_telemetry::Collector;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The call-graph classification as it was written over full CFGs,
/// before shape records existed: the reference the records must match.
fn reference_callgraph(bin: &Binary, cfgs: &[FunctionCfg]) -> CallGraph {
    let mut functions: Vec<u32> = cfgs.iter().map(|c| c.addr).collect();
    functions.sort_unstable();
    let func_set: HashSet<u32> = functions.iter().copied().collect();
    let mut callsites = Vec::new();
    let mut edges: HashMap<u32, Vec<u32>> = HashMap::new();
    for cfg in cfgs {
        edges.entry(cfg.addr).or_default();
        for (&block, b) in &cfg.blocks {
            let JumpKind::Call { return_to } = b.jumpkind else { continue };
            let target = match b.next_const() {
                Some(t) if func_set.contains(&t) => CallTarget::Direct(t),
                Some(t) => match bin.import_at(t) {
                    Some(imp) => CallTarget::Import(imp.name.clone()),
                    None => CallTarget::Indirect,
                },
                None => CallTarget::Indirect,
            };
            if let CallTarget::Direct(t) = target {
                let out = edges.entry(cfg.addr).or_default();
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            let ins_addr = b.end() - INS_SIZE;
            callsites.push(Callsite { caller: cfg.addr, block, ins_addr, return_to, target });
        }
    }
    CallGraph { functions, callsites, edges, resolved_indirect: Vec::new() }
}

fn assert_same_graph(got: &CallGraph, want: &CallGraph, label: &str) {
    assert_eq!(got.functions, want.functions, "{label}: functions");
    assert_eq!(got.callsites, want.callsites, "{label}: callsites");
    assert_eq!(got.edges, want.edges, "{label}: edges");
    assert_eq!(got.edge_count(), want.edge_count(), "{label}: edge_count");
    assert_eq!(got.strata(), want.strata(), "{label}: strata");
}

/// Lifts every function the way the fused pass does — one at a time,
/// behind a panic boundary, keeping only the shape — and also keeps the
/// full CFGs for the reference.
fn lift(bin: &Binary) -> (Vec<FunctionCfg>, Vec<FunctionShape>) {
    let mut cfgs = Vec::new();
    let mut shapes = Vec::new();
    for s in bin.functions() {
        if let Ok(Ok(cfg)) = catch_unwind(AssertUnwindSafe(|| build_function_cfg(bin, s))) {
            shapes.push(cfg.shape());
            cfgs.push(cfg);
        }
    }
    (cfgs, shapes)
}

/// Checks the shape-built call graph of one Table II profile, pristine
/// and under every `BinFault` mutant, against the full-CFG reference.
fn check_profile(index: usize) {
    let profile = table2_profiles().remove(index);
    let bin = build_firmware(&profile).binary;
    let n_funcs = bin.functions().len();
    let check = |label: &str, variant: &Binary| {
        let label = format!("{} {label}", profile.binary_name);
        let (cfgs, shapes) = lift(variant);
        let want = reference_callgraph(variant, &cfgs);
        assert_same_graph(&CallGraph::from_shapes(variant, &shapes), &want, &label);
        assert_same_graph(&CallGraph::build(variant, &cfgs), &want, &label);
        let blocks: usize = cfgs.iter().map(FunctionCfg::block_count).sum();
        assert_eq!(shapes.iter().map(|s| s.blocks).sum::<usize>(), blocks, "{label}");
    };
    check("pristine", &bin);
    for fault in [
        BinFault::LyingSectionSize { index: 0 },
        BinFault::WrappingSymbol { index: 0 },
        BinFault::OverlappingSymbols,
        BinFault::DanglingSymbol,
        BinFault::GarbageOpcodes { index: 0, seed: 11 },
        BinFault::GarbageOpcodes { index: n_funcs / 2, seed: 11 },
        // `dtaint gen --corrupt garbage-fn`; the other two `--corrupt`
        // kinds are the parameterless faults above.
        BinFault::GarbageOpcodes { index: 1, seed: 7 },
    ] {
        check(&format!("{fault:?}"), &corrupt_binary(&bin, &fault));
    }
}

// Two tests of similar size, so the harness runs them side by side.
#[test]
fn shape_call_graph_equals_full_cfg_call_graph_on_profiles_1_to_5() {
    (0..5).for_each(check_profile);
}

#[test]
fn shape_call_graph_equals_full_cfg_call_graph_on_hikvision() {
    check_profile(5);
}

/// The staged reference for one scan's outcome accounting: lift every
/// function and keep its CFG, then run symbolic analysis over the CFGs
/// (with the degraded retry), each stage reporting in address order.
/// Returns the outcome records and `functions_analyzed`, or the error a
/// fail-fast scan aborts with.
fn staged_outcomes(
    bin: &Binary,
    config: &DtaintConfig,
) -> Result<(Vec<FunctionRecord>, usize), String> {
    let syms = bin.functions();
    let mut records: BTreeMap<u32, FunctionRecord> = BTreeMap::new();
    let mut put = |addr: u32, name: &str, outcome: FunctionOutcome, detail: String| {
        records.insert(addr, FunctionRecord { addr, name: name.to_owned(), outcome, detail });
    };
    let mut cfgs = Vec::new();
    for s in &syms {
        match catch_unwind(AssertUnwindSafe(|| build_function_cfg(bin, s))) {
            Ok(Ok(cfg)) => cfgs.push(cfg),
            Ok(Err(e)) if config.fail_fast => return Err(e.to_string()),
            Ok(Err(e)) => put(s.addr, &s.name, FunctionOutcome::LiftFailed, e.to_string()),
            Err(_) if config.fail_fast => {
                return Err(malformed(format!("panic while lifting `{}`", s.name)))
            }
            Err(_) => put(
                s.addr,
                &s.name,
                FunctionOutcome::Panicked,
                "panic during lift/CFG construction".into(),
            ),
        }
    }
    let symex = &config.symex;
    for c in &cfgs {
        let run = |config: &SymexConfig| {
            catch_unwind(AssertUnwindSafe(|| {
                analyze_function(bin, c, &mut ExprPool::new(), config).fuel_exhausted
            }))
        };
        let (outcome, detail) = match run(symex) {
            Ok(false) => continue,
            Err(_) => (FunctionOutcome::Panicked, "panic during symbolic execution".to_owned()),
            Ok(true) => match run(&symex.degraded()) {
                Err(_) => (
                    FunctionOutcome::Panicked,
                    "panic during degraded symbolic execution".to_owned(),
                ),
                Ok(true) => (
                    FunctionOutcome::BudgetExceeded,
                    format!(
                        "fuel exhausted at full and degraded strength (max_fuel = {})",
                        symex.max_fuel
                    ),
                ),
                Ok(false) => (
                    FunctionOutcome::Degraded,
                    format!(
                        "retried degraded after fuel exhaustion (max_fuel = {})",
                        symex.max_fuel
                    ),
                ),
            },
        };
        if config.fail_fast && outcome == FunctionOutcome::Panicked {
            return Err(malformed(format!("panic while analyzing `{}`", c.name)));
        }
        put(c.addr, &c.name, outcome, detail);
    }
    let skipped = records
        .values()
        .filter(|r| matches!(r.outcome, FunctionOutcome::LiftFailed | FunctionOutcome::Panicked))
        .count();
    Ok((records.into_values().collect(), syms.len() - skipped))
}

/// How a scan renders the error it converts a caught panic into.
fn malformed(msg: String) -> String {
    dtaint_fwbin::Error::BadFormat(msg).to_string()
}

fn fused_outcomes(
    bin: &Binary,
    config: &DtaintConfig,
) -> Result<(Vec<FunctionRecord>, usize), String> {
    let report =
        Dtaint::with_config(config.clone()).analyze(bin, "fused").map_err(|e| e.to_string())?;
    Ok((report.skipped_functions, report.functions_analyzed))
}

#[test]
fn fused_pass_outcomes_equal_the_staged_reference_on_the_fault_corpus() {
    let mut p = table2_profiles().remove(0);
    p.total_functions = 40;
    let pristine = build_firmware(&p).binary;
    let mut corpus: Vec<(String, Binary)> = fbf_fault_corpus(&pristine, 11)
        .into_iter()
        .filter_map(|(name, bytes)| Binary::from_bytes(&bytes).ok().map(|b| (name, b)))
        .collect();
    // The two faults the parser rejects, scanned in memory.
    for fault in [BinFault::LyingSectionSize { index: 0 }, BinFault::WrappingSymbol { index: 0 }] {
        corpus.push((format!("{fault:?}"), corrupt_binary(&pristine, &fault)));
    }
    corpus.push(("pristine".to_owned(), pristine));
    assert!(corpus.len() >= 8, "the corpus keeps its parseable mutants");

    let mut lift_failed = 0;
    let mut errors = 0;
    for (name, bin) in &corpus {
        let first = bin.functions().first().map(|s| s.addr);
        let mut configs = vec![
            DtaintConfig::default(),
            // A symex panic in the first function: fail-fast must still
            // report the first lift failure before it.
            DtaintConfig {
                symex: SymexConfig { panic_on: first, ..Default::default() },
                fail_fast: true,
                ..Default::default()
            },
        ];
        // Starved fuel forces degraded retries and budget records.
        if name == "pristine" || name == "garbage-fn-0" {
            configs.push(DtaintConfig {
                symex: SymexConfig { max_fuel: 2, ..Default::default() },
                ..Default::default()
            });
        }
        for config in configs {
            let want = staged_outcomes(bin, &config);
            match &want {
                Ok((records, _)) => {
                    lift_failed +=
                        records.iter().filter(|r| r.outcome == FunctionOutcome::LiftFailed).count();
                }
                Err(_) => errors += 1,
            }
            for threads in [1, 2, 8] {
                let got = fused_outcomes(bin, &DtaintConfig { threads, ..config.clone() });
                assert_eq!(
                    got, want,
                    "mutant `{name}` at {threads} thread(s), fail_fast {}",
                    config.fail_fast
                );
            }
        }
    }
    assert!(lift_failed > 0, "the corpus must exercise lift failures");
    assert!(errors > 0, "the corpus must exercise fail-fast errors");
}

/// Profile 1 (Netgear) capped at 200 functions, then cut to its first
/// `n` function symbols in address order (the generator cannot go below
/// a couple of dozen functions).
fn first_functions(n: usize) -> Binary {
    let mut p = table2_profiles().remove(0);
    p.total_functions = 200;
    let full = build_firmware(&p).binary;
    let last = full.functions()[n - 1].addr;
    let mut bin = full.clone();
    bin.symbols.retain(|s| s.kind != SymbolKind::Function || s.addr <= last);
    bin
}

/// The fused pass works in fixed 64-symbol chunks. On either side of a
/// chunk boundary, and at thread counts that do not divide the chunk
/// count, a scan gives the same report (audit log included), the same
/// master pool size and the same cold cache bytes.
#[test]
fn chunk_boundaries_and_thread_counts_do_not_change_the_scan() {
    for cap in [1, 63, 64, 65, 200] {
        let bin = first_functions(cap);
        assert_eq!(bin.functions().len(), cap, "the image has {cap} functions");
        let scan = |threads: usize| {
            let cache = Arc::new(SummaryCache::new());
            let config = DtaintConfig {
                threads,
                audit: true,
                cache: Some(CacheRef::new(cache.clone(), "img")),
                ..Default::default()
            };
            let mut tel = Collector::disabled();
            let report =
                Dtaint::with_config(config).analyze_traced(&bin, "chunks", &mut tel).unwrap();
            let root = tel.events().iter().find(|e| e.cat == "scan").expect("the root span");
            (report.with_zeroed_wall_clock(), root.args["pool_nodes"], cache.to_bytes())
        };
        let want = scan(1);
        assert_eq!(want.0.functions, cap);
        for threads in [2, 3, 8] {
            let got = scan(threads);
            assert!(got.0 == want.0, "{cap} functions: report differs at {threads} threads");
            assert_eq!(got.1, want.1, "{cap} functions: pool_nodes at {threads} threads");
            assert!(got.2 == want.2, "{cap} functions: cache bytes differ at {threads} threads");
        }
    }
}

/// Faults in the last function of a chunk: a symex panic ending chunk
/// 0, lift failures ending chunks 1 and 2. Whichever chunk finishes
/// first, the outcome records match the staged reference, and a
/// fail-fast scan reports the first lift failure in address order.
#[test]
fn faults_at_chunk_ends_keep_address_order() {
    let pristine = first_functions(200);
    let bin = [127, 191].iter().fold(pristine, |b, &index| {
        corrupt_binary(&b, &BinFault::GarbageOpcodes { index, seed: 11 })
    });
    let syms = bin.functions();
    let lift_error = build_function_cfg(&bin, syms[127]).expect_err("garbage does not lift");
    let symex = SymexConfig { panic_on: Some(syms[63].addr), ..Default::default() };
    for fail_fast in [false, true] {
        let config = DtaintConfig { symex, fail_fast, ..Default::default() };
        let want = staged_outcomes(&bin, &config);
        match &want {
            Ok((records, _)) => {
                let outcome =
                    |i: usize| records.iter().find(|r| r.addr == syms[i].addr).map(|r| r.outcome);
                assert_eq!(outcome(63), Some(FunctionOutcome::Panicked));
                assert_eq!(outcome(127), Some(FunctionOutcome::LiftFailed));
                assert_eq!(outcome(191), Some(FunctionOutcome::LiftFailed));
            }
            Err(e) => assert_eq!(e, &lift_error.to_string()),
        }
        for threads in [1, 2, 3, 8] {
            let got = fused_outcomes(&bin, &DtaintConfig { threads, ..config.clone() });
            assert_eq!(got, want, "fail_fast {fail_fast} at {threads} thread(s)");
        }
    }
}
