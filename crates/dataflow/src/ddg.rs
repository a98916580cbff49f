//! Backward sink→source traversal over the data dependencies.
//!
//! The paper: "Based on the data flow graph, we track the sinks and
//! perform backward depth-first traversal to generate paths from sinks
//! to sources" (§I). The propagation stage already *substitutes* callee
//! knowledge into expressions, so the dependency relation is implicit in
//! the final summaries: a definition pair `(d, u)` — location `d`
//! received value `u` at some instruction — feeds every value that
//! mentions `d`, and a source-import call site feeds every value that
//! mentions its return or output symbols.
//!
//! [`backward_trace`] performs the paper's backward DFS along that
//! relation from a sink variable to the sources feeding it, returning a
//! printable step-by-step path.

use crate::interproc::{DataflowView, FinalSummary};
use dtaint_symex::pool::{Kinds, SymNode};
use dtaint_symex::ExprId;
use std::collections::HashSet;

/// One step of a sink-to-source path (printed source-first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStep {
    /// Attacker data enters at this call site.
    Source {
        /// Import name (`recv`, `getenv`, …).
        name: String,
        /// Call-site instruction address.
        ins_addr: u32,
    },
    /// A definition propagates the data.
    Def {
        /// Instruction address of the defining store/call.
        ins_addr: u32,
        /// Rendered location (`deref(arg0 + 0x4c)`).
        location: String,
        /// Rendered value.
        value: String,
    },
    /// The data reaches the sink variable.
    Sink {
        /// Rendered tainted variable.
        expr: String,
    },
}

impl std::fmt::Display for TraceStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStep::Source { name, ins_addr } => write!(f, "source {name}@{ins_addr:#x}"),
            TraceStep::Def { ins_addr, location, value } => {
                write!(f, "def @{ins_addr:#x}: {location} = {value}")
            }
            TraceStep::Sink { expr } => write!(f, "sink var {expr}"),
        }
    }
}

/// Backward depth-first traversal from a sink variable to the sources
/// feeding it, within the observing function's (`holder`'s) final
/// summary.
///
/// Returns the first source-reaching path, rendered source-first
/// (`Source → Def* → Sink`), or an empty vector when the expression is
/// not source-derived. `max_depth` bounds the def-chain length.
pub fn backward_trace(
    df: DataflowView<'_>,
    holder: &FinalSummary,
    sink_expr: ExprId,
    sources: &HashSet<String>,
    max_depth: usize,
) -> Vec<TraceStep> {
    let mut visited: HashSet<ExprId> = HashSet::new();
    let mut steps: Vec<TraceStep> = Vec::new();
    if dfs(df, holder, sink_expr, sources, max_depth, &mut visited, &mut steps) {
        // The DFS pushes the source at the deepest point and each def as
        // its frame unwinds, so `steps` is already source-first.
        steps.push(TraceStep::Sink { expr: df.pool.display(sink_expr).to_string() });
        steps
    } else {
        Vec::new()
    }
}

/// DFS helper: true when `expr` reaches a source; `steps` collects the
/// path from the sink side down.
fn dfs(
    df: DataflowView<'_>,
    holder: &FinalSummary,
    expr: ExprId,
    sources: &HashSet<String>,
    depth: usize,
    visited: &mut HashSet<ExprId>,
    steps: &mut Vec<TraceStep>,
) -> bool {
    if !visited.insert(expr) {
        return false;
    }
    // Direct source symbols in the expression.
    let mut found: Option<(String, u32)> = None;
    df.pool.any_node(expr, Kinds::RET_SYM | Kinds::CALL_OUT, &mut |n| {
        let cs = match n {
            SymNode::RetSym(cs) | SymNode::CallOut { callsite: cs, .. } => Some(cs),
            _ => None,
        };
        if let Some(cs) = cs {
            if let Some(name) = df.callgraph.import_at(cs) {
                if sources.contains(name) && found.is_none() {
                    found = Some((name.to_owned(), cs));
                }
            }
        }
        false
    });
    if let Some((name, ins_addr)) = found {
        steps.push(TraceStep::Source { name, ins_addr });
        return true;
    }
    if depth == 0 {
        return false;
    }
    // Defs whose location appears in the expression (including object
    // granularity: a def at any offset of a base the expression reads).
    for dp in &holder.summary.def_pairs {
        let related = df.pool.contains(expr, dp.d) || same_object_read(df, expr, dp.d);
        if related && dfs(df, holder, dp.u, sources, depth - 1, visited, steps) {
            steps.push(TraceStep::Def {
                ins_addr: dp.ins_addr,
                location: df.pool.display(dp.d).to_string(),
                value: df.pool.display(dp.u).to_string(),
            });
            return true;
        }
    }
    false
}

/// True when `expr` reads memory from the same object base that `def_d`
/// defines (offset-insensitive, the Heartbleed `buf+1` case).
fn same_object_read(df: DataflowView<'_>, expr: ExprId, def_d: ExprId) -> bool {
    let SymNode::Deref { addr: daddr, .. } = df.pool.node(def_d) else { return false };
    let (dbase, _) = df.pool.base_offset(daddr);
    let mut hit = false;
    df.pool.any_node(expr, Kinds::DEREF, &mut |n| {
        if let SymNode::Deref { addr, .. } = n {
            let (base, _) = df.pool.base_offset(addr);
            if base == dbase {
                hit = true;
            }
        }
        false
    });
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::{build_dataflow, DataflowConfig, ProgramDataflow};
    use dtaint_cfg::{build_all_cfgs, CallGraph};
    use dtaint_fwbin::arm::ArmIns;
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::{Arch, Reg};
    use dtaint_symex::{analyze_function, CalleeRef, ExprPool, SymexConfig};

    fn sources() -> HashSet<String> {
        ["recv", "getenv"].into_iter().map(str::to_owned).collect()
    }

    /// recv fills a buffer; the buffer pointer is stored into a struct
    /// field; memcpy consumes the field. Runs `check` on the data flow.
    fn with_dataflow_sample(check: impl FnOnce(&dtaint_fwbin::Binary, &ProgramDataflow)) {
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.arm(ArmIns::SubI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::MovI { rd: Reg(2), imm: 0x80 });
        f.arm(ArmIns::MovI { rd: Reg(3), imm: 0 });
        f.call("recv");
        f.arm(ArmIns::MovR { rd: Reg(2), rm: Reg(0) });
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 0x20 });
        f.call("memcpy");
        f.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        b.add_import("recv");
        b.add_import("memcpy");
        let bin = b.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let mut cg = CallGraph::build(&bin, &cfgs);
        let mut pool = ExprPool::new();
        let sums: Vec<_> = cfgs
            .iter()
            .map(|c| analyze_function(&bin, c, &mut pool, &SymexConfig::default()))
            .collect();
        check(&bin, &build_dataflow(&bin, &mut cg, sums, pool, &DataflowConfig::default()));
    }

    #[test]
    fn backward_trace_finds_the_recv_source() {
        with_dataflow_sample(|bin, df| {
            let f_addr = bin.function("f").unwrap().addr;
            // The memcpy sink's length arg = ret of recv.
            let sink = df.finals[&f_addr]
                .sinks
                .iter()
                .find(|s| matches!(&s.kind, crate::SinkKind::Import(n) if n == "memcpy"))
                .unwrap();
            let len = sink.args[2];
            let trace = backward_trace(df.view(), &df.finals[&f_addr], len, &sources(), 8);
            assert!(!trace.is_empty(), "length is source-derived");
            assert!(matches!(&trace[0], TraceStep::Source { name, .. } if name == "recv"));
            assert!(matches!(trace.last().unwrap(), TraceStep::Sink { .. }));
        });
    }

    #[test]
    fn backward_trace_walks_def_chains() {
        // Multi-hop: v = getenv(...); *(g+4) = v; read *(g+4) into sink.
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.load_addr(Reg(4), "g_slot");
        f.load_addr(Reg(0), "name");
        f.call("getenv");
        f.arm(ArmIns::Str { rt: Reg(0), rn: Reg(4), off: 4 });
        f.arm(ArmIns::Ldr { rt: Reg(0), rn: Reg(4), off: 4 });
        f.call("system");
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        b.add_import("getenv");
        b.add_import("system");
        b.add_cstring("name", "X");
        b.add_bss("g_slot", 16);
        let bin = b.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let mut cg = CallGraph::build(&bin, &cfgs);
        let mut pool = ExprPool::new();
        let sums: Vec<_> = cfgs
            .iter()
            .map(|c| analyze_function(&bin, c, &mut pool, &SymexConfig::default()))
            .collect();
        let df = build_dataflow(&bin, &mut cg, sums, pool, &DataflowConfig::default());
        let f_addr = bin.function("f").unwrap().addr;
        let sink = df.finals[&f_addr]
            .sinks
            .iter()
            .find(|s| matches!(&s.kind, crate::SinkKind::Import(n) if n == "system"))
            .unwrap();
        let trace = backward_trace(df.view(), &df.finals[&f_addr], sink.args[0], &sources(), 8);
        assert!(matches!(&trace.first(), Some(TraceStep::Source { name, .. }) if name == "getenv"));
    }

    #[test]
    fn untainted_expression_has_empty_trace() {
        with_dataflow_sample(|bin, df| {
            let f_addr = bin.function("f").unwrap().addr;
            // A constant is never source-derived.
            let c = {
                // Find any constant expression in the pool via a def pair.
                df.finals[&f_addr]
                    .summary
                    .callsites
                    .iter()
                    .find_map(|cs| cs.args.iter().copied().find(|&a| df.pool.as_const(a).is_some()))
                    .expect("some constant arg")
            };
            assert!(backward_trace(df.view(), &df.finals[&f_addr], c, &sources(), 8).is_empty());
        });
    }

    #[test]
    fn callee_ref_is_reexported_for_consumers() {
        // Minor API sanity so downstream code can match on it.
        let x: CalleeRef = CalleeRef::Import("recv".into());
        assert!(matches!(x, CalleeRef::Import(_)));
    }
}
