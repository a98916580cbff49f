//! The fused per-function pass (lift → CFG → symex → drop the IR) must
//! give what the staged pipeline gave: lift every function first, keep
//! all CFGs, build the call graph over them, then run symbolic analysis.
//!
//! Three differentials hold it there. Every function's flat CFG equals
//! the map-based construction it replaced, block by block and edge by
//! edge, on every Table II profile and every `BinFault` mutant. The call
//! graph assembled from the per-function shape records equals the one
//! classified over full CFGs, on the same images. The outcome records,
//! the fail-fast error and `functions_analyzed` of a scan equal those of
//! a lift-all-then-symex reference on the fault corpus, at 1, 2 and 8
//! threads.

use dtaint_cfg::{build_function_cfg, CallGraph, CallTarget, Callsite, FunctionCfg, FunctionShape};
use dtaint_core::{CacheRef, Dtaint, DtaintConfig, FunctionOutcome, FunctionRecord, SummaryCache};
use dtaint_fwbin::{Binary, Symbol, SymbolKind, INS_SIZE};
use dtaint_fwgen::{build_firmware, corrupt_binary, fbf_fault_corpus, table2_profiles, BinFault};
use dtaint_ir::lift::lift_block;
use dtaint_ir::{IrBlock, JumpKind};
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};
use dtaint_telemetry::Collector;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
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
        for b in cfg.blocks() {
            let block = b.addr;
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

/// The per-function CFG as it was built before blocks were stored flat:
/// `BTreeMap` blocks, `HashMap` successor and predecessor lists, eager
/// DFS back edges and a `HashMap` Tarjan. The reference the flat
/// `FunctionCfg` must match.
struct ReferenceCfg {
    addr: u32,
    blocks: BTreeMap<u32, IrBlock>,
    succs: HashMap<u32, Vec<u32>>,
    preds: HashMap<u32, Vec<u32>>,
    back_edges: HashSet<(u32, u32)>,
}

fn reference_cfg(bin: &Binary, sym: &Symbol) -> dtaint_fwbin::Result<ReferenceCfg> {
    let start = sym.addr;
    let end = sym
        .addr
        .checked_add(sym.size)
        .ok_or_else(|| dtaint_fwbin::Error::BadSymbol { name: sym.name.clone(), addr: sym.addr })?;

    // Pass 1: leaders, lifting each terminator as a one-instruction block.
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    leaders.insert(start);
    let mut pc = start;
    while pc < end {
        let word = bin.read_u32(pc).ok_or(dtaint_fwbin::Error::Truncated)?;
        let is_term = match bin.arch {
            dtaint_fwbin::Arch::Arm32e => {
                dtaint_fwbin::arm::ArmIns::decode(word, pc)?.is_terminator()
            }
            dtaint_fwbin::Arch::Mips32e => {
                dtaint_fwbin::mips::MipsIns::decode(word, pc)?.is_terminator()
            }
        };
        if is_term {
            let one = lift_block(bin, pc, pc + INS_SIZE)?;
            let exits: Vec<u32> = one.exit_targets().collect();
            for &t in &exits {
                if (start..end).contains(&t) {
                    leaders.insert(t);
                }
            }
            match one.jumpkind {
                JumpKind::Boring => {
                    if let Some(t) = one.next_const() {
                        if (start..end).contains(&t) {
                            leaders.insert(t);
                        }
                    }
                }
                JumpKind::Call { return_to } => {
                    if (start..end).contains(&return_to) {
                        leaders.insert(return_to);
                    }
                }
                JumpKind::Ret => {}
            }
            if pc + INS_SIZE < end && !exits.is_empty() {
                leaders.insert(pc + INS_SIZE);
            }
        }
        pc += INS_SIZE;
    }

    // Pass 2: one block per leader, bounded by the next leader.
    let mut blocks: BTreeMap<u32, IrBlock> = BTreeMap::new();
    let leader_list: Vec<u32> = leaders.iter().copied().collect();
    for (i, &leader) in leader_list.iter().enumerate() {
        let limit = leader_list.get(i + 1).copied().unwrap_or(end);
        blocks.insert(leader, lift_block(bin, leader, limit)?);
    }

    let mut succs: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut preds: HashMap<u32, Vec<u32>> = HashMap::new();
    for (&a, b) in &blocks {
        let mut out: Vec<u32> = b.exit_targets().filter(|t| blocks.contains_key(t)).collect();
        match b.jumpkind {
            JumpKind::Ret => {}
            JumpKind::Call { return_to } => {
                if blocks.contains_key(&return_to) {
                    out.push(return_to);
                }
            }
            JumpKind::Boring => {
                if let Some(t) = b.next_const() {
                    if blocks.contains_key(&t) {
                        out.push(t);
                    }
                }
            }
        }
        out.dedup();
        for &s in &out {
            preds.entry(s).or_default().push(a);
        }
        succs.insert(a, out);
    }

    let mut back_edges = HashSet::new();
    let mut on_stack: HashSet<u32> = HashSet::new();
    let mut visited: HashSet<u32> = HashSet::new();
    let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
    visited.insert(start);
    on_stack.insert(start);
    while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
        let ss = succs.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
        if *idx < ss.len() {
            let s = ss[*idx];
            *idx += 1;
            if on_stack.contains(&s) {
                back_edges.insert((node, s));
            } else if visited.insert(s) {
                on_stack.insert(s);
                stack.push((s, 0));
            }
        } else {
            on_stack.remove(&node);
            stack.pop();
        }
    }
    Ok(ReferenceCfg { addr: start, blocks, succs, preds, back_edges })
}

impl ReferenceCfg {
    fn succs_of(&self, a: u32) -> &[u32] {
        self.succs.get(&a).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Iterative Tarjan SCC over block addresses.
    fn loop_blocks(&self) -> HashSet<u32> {
        #[derive(Clone, Copy)]
        struct NodeInfo {
            index: u32,
            lowlink: u32,
            on_stack: bool,
        }
        let mut info: HashMap<u32, NodeInfo> = HashMap::new();
        let mut next_index = 0u32;
        let mut scc_stack: Vec<u32> = Vec::new();
        let mut result: HashSet<u32> = HashSet::new();
        let self_loops: HashSet<u32> =
            self.succs.iter().filter(|(a, outs)| outs.contains(a)).map(|(&a, _)| a).collect();
        for &root in self.blocks.keys() {
            if info.contains_key(&root) {
                continue;
            }
            let mut call_stack: Vec<(u32, usize)> = vec![(root, 0)];
            info.insert(root, NodeInfo { index: next_index, lowlink: next_index, on_stack: true });
            scc_stack.push(root);
            next_index += 1;
            while let Some(&mut (node, ref mut idx)) = call_stack.last_mut() {
                let succs = self.succs_of(node);
                if *idx < succs.len() {
                    let s = succs[*idx];
                    *idx += 1;
                    match info.get(&s) {
                        None => {
                            info.insert(
                                s,
                                NodeInfo { index: next_index, lowlink: next_index, on_stack: true },
                            );
                            scc_stack.push(s);
                            next_index += 1;
                            call_stack.push((s, 0));
                        }
                        Some(si) if si.on_stack => {
                            let s_index = si.index;
                            let ni = info.get_mut(&node).unwrap();
                            ni.lowlink = ni.lowlink.min(s_index);
                        }
                        Some(_) => {}
                    }
                } else {
                    call_stack.pop();
                    let node_info = info[&node];
                    if let Some(&(parent, _)) = call_stack.last() {
                        let pi = info.get_mut(&parent).unwrap();
                        pi.lowlink = pi.lowlink.min(node_info.lowlink);
                    }
                    if node_info.lowlink == node_info.index {
                        let mut members = Vec::new();
                        loop {
                            let m = scc_stack.pop().unwrap();
                            info.get_mut(&m).unwrap().on_stack = false;
                            members.push(m);
                            if m == node {
                                break;
                            }
                        }
                        if members.len() > 1 {
                            result.extend(members);
                        } else if self_loops.contains(&members[0]) {
                            result.insert(members[0]);
                        }
                    }
                }
            }
        }
        result
    }

    fn rpo(&self) -> Vec<u32> {
        let mut visited = HashSet::new();
        let mut post = Vec::new();
        let mut stack: Vec<(u32, usize)> = vec![(self.addr, 0)];
        visited.insert(self.addr);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let succs = self.succs_of(node);
            if *idx < succs.len() {
                let s = succs[*idx];
                *idx += 1;
                if visited.insert(s) {
                    stack.push((s, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    fn edge_count(&self) -> usize {
        self.succs.values().map(Vec::len).sum()
    }

    fn shape(&self, name: &str) -> FunctionShape {
        let calls = self
            .blocks
            .iter()
            .filter_map(|(&block, b)| match b.jumpkind {
                JumpKind::Call { return_to } => Some(dtaint_cfg::CallRow {
                    block,
                    ins_addr: b.end() - INS_SIZE,
                    return_to,
                    next_const: b.next_const(),
                }),
                _ => None,
            })
            .collect();
        FunctionShape {
            addr: self.addr,
            name: name.to_owned(),
            blocks: self.blocks.len(),
            edges: self.edge_count(),
            instructions: self.blocks.values().map(|b| (b.size / INS_SIZE) as usize).sum(),
            calls,
        }
    }
}

/// Every function of `bin`, built flat and by the reference: the same
/// result (or the same error, or a panic on both sides), and for a built
/// CFG the same blocks, successor lists in order, predecessors, back
/// edges, loop blocks, reverse post-order, counts and shape.
fn assert_cfgs_equal_the_reference(bin: &Binary, label: &str) {
    for s in bin.functions() {
        let label = format!("{label} `{}` at {:#x}", s.name, s.addr);
        let got = catch_unwind(AssertUnwindSafe(|| build_function_cfg(bin, s)));
        let want = catch_unwind(AssertUnwindSafe(|| reference_cfg(bin, s)));
        let (got, want) = match (got, want) {
            (Ok(Ok(got)), Ok(Ok(want))) => (got, want),
            (Ok(Err(got)), Ok(Err(want))) => {
                assert_eq!(got, want, "{label}: error");
                continue;
            }
            (Err(_), Err(_)) => continue,
            (got, want) => panic!(
                "{label}: flat build {} where the reference {}",
                outcome(&got),
                outcome(&want)
            ),
        };
        let addrs: Vec<u32> = got.blocks().iter().map(|b| b.addr).collect();
        let to_addrs =
            |indices: &[u32]| -> Vec<u32> { indices.iter().map(|&i| addrs[i as usize]).collect() };
        assert!(got.blocks().iter().eq(want.blocks.values()), "{label}: blocks");
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(to_addrs(got.succs(i)), want.succs[&a], "{label}: successors of {a:#x}");
        }
        let preds: HashMap<u32, Vec<u32>> = got
            .preds()
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, p)| (addrs[i], to_addrs(p)))
            .collect();
        assert_eq!(preds, want.preds, "{label}: predecessors");
        let back = got.back_edges();
        assert_eq!(back.iter().copied().collect::<HashSet<_>>(), want.back_edges, "{label}");
        assert_eq!(back.len(), want.back_edges.len(), "{label}: back edges repeat");
        let loops: HashSet<u32> =
            got.loop_blocks().iter().zip(&addrs).filter(|(l, _)| **l).map(|(_, &a)| a).collect();
        assert_eq!(loops, want.loop_blocks(), "{label}: loop blocks");
        assert_eq!(got.rpo(), want.rpo(), "{label}: rpo");
        assert_eq!(got.block_count(), want.blocks.len(), "{label}: block_count");
        assert_eq!(got.edge_count(), want.edge_count(), "{label}: edge_count");
        assert_eq!(got.shape(), want.shape(&s.name), "{label}: shape");
    }
}

fn outcome<T, E: std::fmt::Debug>(r: &std::thread::Result<Result<T, E>>) -> String {
    match r {
        Ok(Ok(_)) => "built".to_owned(),
        Ok(Err(e)) => format!("failed with {e:?}"),
        Err(_) => "panicked".to_owned(),
    }
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

/// Checks one Table II profile, pristine and under every `BinFault`
/// mutant: each flat CFG against the map-based reference, and the
/// shape-built call graph against the full-CFG reference.
fn check_profile(index: usize) {
    let profile = table2_profiles().remove(index);
    let bin = build_firmware(&profile).binary;
    let n_funcs = bin.functions().len();
    let check = |label: &str, variant: &Binary| {
        let label = format!("{} {label}", profile.binary_name);
        assert_cfgs_equal_the_reference(variant, &label);
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

/// Symex keeps a path's registers in a fixed file. A register the
/// lifters emit without a slot there would panic every function that
/// touches it, and each would be downgraded to `Panicked`: on every
/// profile, none is.
#[test]
fn no_function_panics_on_any_profile() {
    for p in table2_profiles() {
        let bin = build_firmware(&p).binary;
        let report = Dtaint::with_config(DtaintConfig { threads: 2, ..Default::default() })
            .analyze(&bin, p.binary_name)
            .unwrap();
        let panicked: Vec<&str> = report
            .skipped_functions
            .iter()
            .filter(|r| r.outcome == FunctionOutcome::Panicked)
            .map(|r| r.name.as_str())
            .collect();
        assert!(panicked.is_empty(), "{}: panicked functions {panicked:?}", p.binary_name);
        assert!(report.telemetry.metrics.counter("symex.blocks_executed") > 0);
    }
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
