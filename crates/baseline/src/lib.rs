//! A conventional top-down, context-sensitive data-dependency generator —
//! the comparator of the paper's Table VII.
//!
//! The paper attributes angr's slowness to its "worklist-based and
//! iterative approach to generate interprocedural data flows": the same
//! callee is re-analyzed under every calling context, and data
//! dependencies are built for *every* variable rather than just what
//! taint analysis needs. This crate reproduces that design honestly:
//!
//! * the call graph is traversed **top-down from the roots**,
//! * at every call site the callee is **re-lifted and re-executed from
//!   scratch** with the caller's actual arguments as its context,
//! * the same function analyzed under *k* different contexts costs *k*
//!   full symbolic executions (DTaint's bottom-up pass costs exactly
//!   one).
//!
//! The result quality on direct flows matches DTaint (the same sinks are
//! observed with contextualised arguments); the cost difference is the
//! point. `BaselineResult::contexts_analyzed` vs the function count makes
//! the re-analysis factor measurable.

use dtaint_cfg::{CallGraph, FunctionCfg};
use dtaint_fwbin::Binary;
use dtaint_symex::pool::ExprPool;
use dtaint_symex::{analyze_function, CalleeRef, ExprId, FuncSummary, SymexConfig};
use std::collections::{HashMap, HashSet};

/// Tuning for the top-down exploration.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Maximum call-chain depth explored from each root.
    pub max_depth: usize,
    /// Per-function symbolic execution settings. Defaults to a larger
    /// path budget than DTaint's, reflecting the generic engine's lack
    /// of the loop-once specialisation.
    pub symex: SymexConfig,
    /// Import names recorded as sinks (for result parity with DTaint).
    pub sink_names: HashSet<String>,
    /// Hard cap on analyzed contexts (safety valve for pathological
    /// call graphs).
    pub max_contexts: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            max_depth: 8,
            symex: SymexConfig { max_paths: 128, ..SymexConfig::default() },
            sink_names: [
                "strcpy", "strncpy", "sprintf", "memcpy", "strcat", "sscanf", "system", "popen",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            max_contexts: 200_000,
        }
    }
}

/// A sink observed under one concrete calling context.
#[derive(Debug, Clone)]
pub struct ContextSink {
    /// Import name of the sink.
    pub name: String,
    /// Instruction address of the sink call.
    pub ins_addr: u32,
    /// Function containing the sink.
    pub func: u32,
    /// Sink arguments after context substitution.
    pub args: Vec<ExprId>,
}

/// Outcome of the top-down analysis.
#[derive(Debug)]
pub struct BaselineResult {
    /// The expression pool shared by all contexts.
    pub pool: ExprPool,
    /// Number of (function, context) analyses performed — each one a
    /// full re-lift and re-execution.
    pub contexts_analyzed: usize,
    /// Number of distinct functions reached.
    pub functions_reached: usize,
    /// `contexts_analyzed - functions_reached`: pure re-analysis waste.
    pub reanalyses: usize,
    /// Sinks observed, one entry per (sink, context).
    pub sinks: Vec<ContextSink>,
}

/// Runs the conventional top-down analysis over the whole binary.
///
/// Roots are functions without callers; every root is explored with
/// unconstrained arguments.
pub fn analyze_topdown(
    bin: &Binary,
    cfgs: &[FunctionCfg],
    callgraph: &CallGraph,
    config: &BaselineConfig,
) -> BaselineResult {
    let cfg_by_addr: HashMap<u32, &FunctionCfg> = cfgs.iter().map(|c| (c.addr, c)).collect();
    let mut pool = ExprPool::new();
    let mut result = BaselineResult {
        pool: ExprPool::new(),
        contexts_analyzed: 0,
        functions_reached: 0,
        reanalyses: 0,
        sinks: Vec::new(),
    };
    let mut reached: HashSet<u32> = HashSet::new();

    // Roots: functions nobody calls (fall back to all functions).
    let callees: HashSet<u32> = callgraph.edges.values().flat_map(|v| v.iter().copied()).collect();
    let roots: Vec<u32> = {
        let r: Vec<u32> =
            callgraph.functions.iter().copied().filter(|f| !callees.contains(f)).collect();
        if r.is_empty() {
            callgraph.functions.clone()
        } else {
            r
        }
    };

    // Explicit stack of (function, context args, depth, on-stack set).
    for root in roots {
        let mut stack: Vec<(u32, Vec<ExprId>, usize, Vec<u32>)> =
            vec![(root, Vec::new(), 0, Vec::new())];
        while let Some((faddr, ctx_args, depth, chain)) = stack.pop() {
            if result.contexts_analyzed >= config.max_contexts {
                break;
            }
            let Some(fcfg) = cfg_by_addr.get(&faddr) else { continue };
            // The expensive step, repeated per context: full re-analysis.
            let summary: FuncSummary = analyze_function(bin, fcfg, &mut pool, &config.symex);
            result.contexts_analyzed += 1;
            reached.insert(faddr);

            // Context substitution of this summary's expressions: an
            // argument the context lacks maps to one fresh unknown per
            // expression.
            let subst = |pool: &mut ExprPool, e: ExprId| -> ExprId {
                let mut missing: HashMap<u8, ExprId> = HashMap::new();
                pool.rewrite(e, &mut |p, id| match p.node(id) {
                    dtaint_symex::SymNode::Arg(i) => Some(match ctx_args.get(i as usize) {
                        Some(&a) => a,
                        None => *missing.entry(i).or_insert_with(|| p.fresh_unknown()),
                    }),
                    _ => None,
                })
            };

            for cs in &summary.callsites {
                match &cs.callee {
                    CalleeRef::Import(name) => {
                        if config.sink_names.contains(name) {
                            let args = cs.args.iter().map(|&a| subst(&mut pool, a)).collect();
                            result.sinks.push(ContextSink {
                                name: name.clone(),
                                ins_addr: cs.ins_addr,
                                func: faddr,
                                args,
                            });
                        }
                    }
                    CalleeRef::Direct(callee) => {
                        if depth < config.max_depth && *callee != faddr && !chain.contains(callee) {
                            let args: Vec<ExprId> =
                                cs.args.iter().map(|&a| subst(&mut pool, a)).collect();
                            let mut new_chain = chain.clone();
                            new_chain.push(faddr);
                            stack.push((*callee, args, depth + 1, new_chain));
                        }
                    }
                    CalleeRef::Indirect(_) => {
                        // The conventional engine leaves indirect calls
                        // unresolved — a recall gap DTaint's layout
                        // similarity closes (§VI).
                    }
                }
            }
        }
    }

    result.functions_reached = reached.len();
    result.reanalyses = result.contexts_analyzed.saturating_sub(result.functions_reached);
    result.pool = pool;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_cfg::build_all_cfgs;
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::{Arch, Reg};

    /// A fan-shaped program: `main` calls `util` via three intermediate
    /// helpers, so `util` has three calling contexts.
    fn fan_binary() -> Binary {
        let arch = Arch::Arm32e;
        let mut b = BinaryBuilder::new(arch);
        let mut main = Assembler::new(arch);
        for h in ["h0", "h1", "h2"] {
            main.call(h);
        }
        main.ret();
        b.add_function("main", main);
        for (i, h) in ["h0", "h1", "h2"].iter().enumerate() {
            let mut a = Assembler::new(arch);
            a.arm(dtaint_fwbin::arm::ArmIns::MovI { rd: Reg(0), imm: i as u16 });
            a.call("util");
            a.ret();
            b.add_function(h, a);
        }
        let mut util = Assembler::new(arch);
        util.arm(dtaint_fwbin::arm::ArmIns::MovR { rd: Reg(1), rm: Reg(0) });
        util.call("strcpy");
        util.ret();
        b.add_function("util", util);
        b.add_import("strcpy");
        b.link().unwrap()
    }

    #[test]
    fn reanalyzes_shared_callee_once_per_context() {
        let bin = fan_binary();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        let r = analyze_topdown(&bin, &cfgs, &cg, &BaselineConfig::default());
        // 1 main + 3 helpers + 3 × util = 7 contexts over 5 functions.
        assert_eq!(r.functions_reached, 5);
        assert_eq!(r.contexts_analyzed, 7);
        assert_eq!(r.reanalyses, 2);
        // The strcpy sink is seen once per context.
        assert_eq!(r.sinks.len(), 3);
    }

    #[test]
    fn context_substitution_reaches_the_sink() {
        let bin = fan_binary();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        let r = analyze_topdown(&bin, &cfgs, &cg, &BaselineConfig::default());
        // Each context passes a distinct constant as arg0 → strcpy's
        // second arg (copied from arg0 in util).
        let consts: HashSet<i64> =
            r.sinks.iter().filter_map(|s| r.pool.as_const(s.args[1])).collect();
        assert_eq!(consts, HashSet::from([0, 1, 2]));
    }

    #[test]
    fn depth_limit_bounds_recursion() {
        let arch = Arch::Mips32e;
        let mut f = Assembler::new(arch);
        f.call("f"); // direct self-recursion
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        let bin = b.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        let r = analyze_topdown(&bin, &cfgs, &cg, &BaselineConfig::default());
        assert_eq!(r.contexts_analyzed, 1, "self-recursion cut by the chain check");
    }

    #[test]
    fn max_contexts_is_a_hard_cap() {
        let bin = fan_binary();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        let config = BaselineConfig { max_contexts: 3, ..Default::default() };
        let r = analyze_topdown(&bin, &cfgs, &cg, &config);
        assert!(r.contexts_analyzed <= 3);
    }
}
