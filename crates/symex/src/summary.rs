//! Per-function analysis results.

use crate::pool::{CmpOp, ExprId, ExprPool, TranslationMemo};
use crate::types::VType;
use std::collections::{BTreeSet, HashMap};

/// A definition pair `(d, u)`: location `d` was assigned value `u`
/// (§III-B, *Definition Pairs*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefPair {
    /// The defined location, typically a `deref(…)` expression.
    pub d: ExprId,
    /// The assigned value expression.
    pub u: ExprId,
    /// Instruction address of the defining store.
    pub ins_addr: u32,
    /// Index of the explored path that produced the pair.
    pub path: u32,
}

/// What a call site calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalleeRef {
    /// A defined function, by entry address.
    Direct(u32),
    /// An imported library function.
    Import(String),
    /// An indirect call through the given address expression (e.g.
    /// `deref(arg0 + 8)`), to be resolved by layout similarity.
    Indirect(ExprId),
}

/// One observed call, with symbolic arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallsiteInfo {
    /// Instruction address of the call.
    pub ins_addr: u32,
    /// The callee.
    pub callee: CalleeRef,
    /// Symbolic argument values (register args, then any stack args).
    pub args: Vec<ExprId>,
    /// The `ret_{callsite}` symbol bound to the return value.
    pub ret: ExprId,
    /// Index of the explored path that observed the call.
    pub path: u32,
}

/// A path constraint recorded at a conditional branch, in the direction
/// the path took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Comparison operator (already negated for the not-taken side).
    pub op: CmpOp,
    /// Left operand.
    pub lhs: ExprId,
    /// Right operand.
    pub rhs: ExprId,
    /// Instruction address of the branch.
    pub ins_addr: u32,
    /// Index of the explored path.
    pub path: u32,
}

/// A memory-to-memory copy statement inside a loop — the paper's
/// loop-copy sink pattern (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopCopy {
    /// Instruction address of the copying store.
    pub ins_addr: u32,
    /// Destination address expression.
    pub dst_addr: ExprId,
    /// Stored value expression (derived from a memory read).
    pub value: ExprId,
    /// Index of the explored path.
    pub path: u32,
}

/// The complete static-symbolic-analysis result for one function.
///
/// Produced by [`analyze_function`](crate::analyze_function); consumed by
/// the alias, layout and interprocedural stages in `dtaint-dataflow`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncSummary {
    /// Function entry address.
    pub addr: u32,
    /// Function name.
    pub name: String,
    /// All definition pairs, deduplicated across paths.
    pub def_pairs: Vec<DefPair>,
    /// Definition pairs that reach a function exit and whose root pointer
    /// is a formal argument or returned pointer — the pairs Algorithm 2
    /// pushes to callers.
    pub escape_defs: Vec<DefPair>,
    /// Observed call sites.
    pub callsites: Vec<CallsiteInfo>,
    /// Path constraints.
    pub constraints: Vec<Constraint>,
    /// Return-value expressions, one per distinct returning path.
    pub ret_values: Vec<ExprId>,
    /// Loop-copy observations.
    pub loop_copies: Vec<LoopCopy>,
    /// Inferred types per expression.
    pub types: HashMap<ExprId, VType>,
    /// Formal arguments observed in use (`arg_i` indices).
    pub args_used: BTreeSet<u8>,
    /// Number of paths fully explored.
    pub paths_explored: u32,
    /// True when exploration stopped at the path cap.
    pub path_cap_hit: bool,
    /// True when exploration stopped because the per-function fuel
    /// budget ([`SymexConfig::max_fuel`]) ran out.
    ///
    /// [`SymexConfig::max_fuel`]: crate::exec::SymexConfig::max_fuel
    pub fuel_exhausted: bool,
    /// True when this summary comes from a degraded retry (reduced path
    /// budget after a fuel exhaustion); downstream stages skip optional
    /// refinements such as alias rewriting for degraded summaries.
    pub degraded: bool,
    /// Basic-block executions charged against the fuel budget, summed
    /// over every explored path — the symbolic stage's logical work
    /// counter. A pure step count (never wall-clock), identical across
    /// thread counts.
    pub blocks_executed: u32,
    /// Rewritten definition pairs appended by pointer-alias recognition
    /// (Algorithm 1) — the alias stage's logical work counter. Zero
    /// until `dtaint-dataflow` runs the alias pass over this summary.
    pub alias_rewrites: u32,
    /// Fixpoint rounds executed by SSE alias matching over this summary
    /// (local pass plus post-substitution refinement). Zero in store
    /// mode. A pure step count, identical across thread counts.
    pub sse_rounds: u32,
    /// Rewritten definition pairs appended specifically by the SSE
    /// fixpoint (a subset of [`alias_rewrites`](Self::alias_rewrites)).
    pub sse_rewrites: u32,
    /// Deepest deref nesting among SSE-rewritten definition names.
    pub sse_depth: u32,
    /// True when an SSE fixpoint pass still had pending rewrites when
    /// its round budget ran out (did not converge).
    pub sse_saturated: bool,
}

impl FuncSummary {
    /// Re-interns every expression of this summary from `src` into `dst`.
    ///
    /// Per-function analyses run in parallel with private pools; the
    /// interprocedural stage merges them into one global pool with
    /// [`translate_with`](Self::translate_with). This is its one-summary
    /// call.
    pub fn translate_into(&self, src: &ExprPool, dst: &mut ExprPool) -> FuncSummary {
        self.translate_with(src, dst, &mut TranslationMemo::for_pool(src))
    }

    /// [`translate_into`](Self::translate_into) through a memo shared by
    /// every summary translated out of `src`, so a sub-expression they
    /// share is translated once. The summaries come out equal, and `dst`
    /// ends up node-for-node identical, to translating each summary on
    /// its own.
    pub fn translate_with(
        &self,
        src: &ExprPool,
        dst: &mut ExprPool,
        memo: &mut TranslationMemo,
    ) -> FuncSummary {
        let mut tr = |e: ExprId| dst.translate(src, e, memo);
        let mut out = FuncSummary {
            addr: self.addr,
            name: self.name.clone(),
            args_used: self.args_used.clone(),
            paths_explored: self.paths_explored,
            path_cap_hit: self.path_cap_hit,
            fuel_exhausted: self.fuel_exhausted,
            degraded: self.degraded,
            blocks_executed: self.blocks_executed,
            alias_rewrites: self.alias_rewrites,
            sse_rounds: self.sse_rounds,
            sse_rewrites: self.sse_rewrites,
            sse_depth: self.sse_depth,
            sse_saturated: self.sse_saturated,
            ..FuncSummary::default()
        };
        for dp in &self.def_pairs {
            out.def_pairs.push(DefPair { d: tr(dp.d), u: tr(dp.u), ..*dp });
        }
        for dp in &self.escape_defs {
            out.escape_defs.push(DefPair { d: tr(dp.d), u: tr(dp.u), ..*dp });
        }
        for cs in &self.callsites {
            out.callsites.push(CallsiteInfo {
                ins_addr: cs.ins_addr,
                callee: match &cs.callee {
                    CalleeRef::Indirect(e) => CalleeRef::Indirect(tr(*e)),
                    other => other.clone(),
                },
                args: cs.args.iter().map(|&a| tr(a)).collect(),
                ret: tr(cs.ret),
                path: cs.path,
            });
        }
        for c in &self.constraints {
            out.constraints.push(Constraint { lhs: tr(c.lhs), rhs: tr(c.rhs), ..*c });
        }
        out.ret_values = self.ret_values.iter().map(|&r| tr(r)).collect();
        for lc in &self.loop_copies {
            out.loop_copies.push(LoopCopy {
                dst_addr: tr(lc.dst_addr),
                value: tr(lc.value),
                ..*lc
            });
        }
        for (&e, &t) in &self.types {
            out.observe_type(tr(e), t);
        }
        out
    }

    /// Records a type observation, joining with any existing one.
    pub fn observe_type(&mut self, e: ExprId, t: VType) {
        let entry = self.types.entry(e).or_default();
        *entry = entry.join(t);
    }

    /// The inferred type of an expression ([`VType::Unknown`] if never
    /// observed).
    pub fn type_of(&self, e: ExprId) -> VType {
        self.types.get(&e).copied().unwrap_or_default()
    }

    /// Call sites calling the given import, across all paths.
    pub fn calls_to_import(&self, name: &str) -> Vec<&CallsiteInfo> {
        self.callsites
            .iter()
            .filter(|c| matches!(&c.callee, CalleeRef::Import(n) if n == name))
            .collect()
    }

    /// Constraints recorded on the given path.
    pub fn constraints_on_path(&self, path: u32) -> Vec<&Constraint> {
        self.constraints.iter().filter(|c| c.path == path).collect()
    }

    /// Renders the summary in the paper's Figure 6 style: the symbolic
    /// call sites, definition pairs and constraints the static analysis
    /// derived for this function.
    pub fn render(&self, pool: &crate::pool::ExprPool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "<{}(…)> @ {:#x}  ({} paths{})",
            self.name,
            self.addr,
            self.paths_explored,
            if self.path_cap_hit { ", capped" } else { "" }
        );
        if !self.callsites.is_empty() {
            let _ = writeln!(out, "  call sites:");
            for cs in &self.callsites {
                let callee = match &cs.callee {
                    CalleeRef::Direct(a) => format!("{a:#x}"),
                    CalleeRef::Import(n) => n.clone(),
                    CalleeRef::Indirect(e) => format!("*({})", pool.display(*e)),
                };
                let args: Vec<String> =
                    cs.args.iter().take(4).map(|&a| pool.display(a).to_string()).collect();
                let _ = writeln!(
                    out,
                    "    {:#x}: call {callee}({}), R0 = {}",
                    cs.ins_addr,
                    args.join(", "),
                    pool.display(cs.ret)
                );
            }
        }
        if !self.def_pairs.is_empty() {
            let _ = writeln!(out, "  definition pairs:");
            for dp in &self.def_pairs {
                let _ = writeln!(
                    out,
                    "    {:#x}: {} = {}",
                    dp.ins_addr,
                    pool.display(dp.d),
                    pool.display(dp.u)
                );
            }
        }
        if !self.constraints.is_empty() {
            let _ = writeln!(out, "  constraints:");
            for c in &self.constraints {
                let _ = writeln!(
                    out,
                    "    {:#x}: {} {} {}  (path {})",
                    c.ins_addr,
                    pool.display(c.lhs),
                    c.op,
                    pool.display(c.rhs),
                    c.path
                );
            }
        }
        if !self.ret_values.is_empty() {
            let rets: Vec<String> =
                self.ret_values.iter().map(|&r| pool.display(r).to_string()).collect();
            let _ = writeln!(out, "  returns: {}", rets.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_type_joins() {
        let mut s = FuncSummary::default();
        let e = ExprId(3);
        s.observe_type(e, VType::Ptr);
        s.observe_type(e, VType::CharPtr);
        assert_eq!(s.type_of(e), VType::CharPtr);
        assert_eq!(s.type_of(ExprId(9)), VType::Unknown);
    }

    #[test]
    fn calls_to_import_filters_by_name() {
        let mut s = FuncSummary::default();
        s.callsites.push(CallsiteInfo {
            ins_addr: 0x10,
            callee: CalleeRef::Import("recv".into()),
            args: vec![],
            ret: ExprId(0),
            path: 0,
        });
        s.callsites.push(CallsiteInfo {
            ins_addr: 0x20,
            callee: CalleeRef::Direct(0x8000),
            args: vec![],
            ret: ExprId(1),
            path: 0,
        });
        assert_eq!(s.calls_to_import("recv").len(), 1);
        assert!(s.calls_to_import("strcpy").is_empty());
    }

    /// Summaries over one source pool whose expressions overlap: all of
    /// them reach `deref(arg0 + 0x4c)`, pairs of neighbours share a
    /// field deref and its nested deref, and each has a constant of its
    /// own. The shared nodes are interned before the private ones, so
    /// source and destination ids diverge.
    fn overlapping_summaries(src: &mut ExprPool) -> Vec<FuncSummary> {
        let arg0 = src.arg(0);
        let field = src.add_const(arg0, 0x4c);
        let shared = src.deref(field, 4);
        (0..9u32)
            .map(|k| {
                let base = src.arg(1 + (k / 2 % 3) as u8);
                let addr = src.add_const(base, 4 + 4 * i64::from(k / 2));
                let near = src.deref(addr, 4);
                let nested = src.deref(near, 1);
                let own = src.constant(1000 + i64::from(k));
                let sum = src.add(nested, own);
                let product = src.mul(sum, shared);
                let ret = src.ret_sym(0x2000 + k);
                let mut s = FuncSummary {
                    addr: 0x1000 + 0x100 * k,
                    name: format!("f{k}"),
                    paths_explored: k,
                    ..FuncSummary::default()
                };
                s.def_pairs.push(DefPair { d: near, u: shared, ins_addr: s.addr, path: 0 });
                s.escape_defs.push(DefPair { d: nested, u: product, ins_addr: s.addr, path: 1 });
                s.callsites.push(CallsiteInfo {
                    ins_addr: s.addr + 8,
                    callee: CalleeRef::Indirect(near),
                    args: vec![shared, sum],
                    ret,
                    path: 0,
                });
                s.constraints.push(Constraint {
                    op: CmpOp::Lt,
                    lhs: sum,
                    rhs: own,
                    ins_addr: s.addr + 4,
                    path: 0,
                });
                s.ret_values.push(product);
                s.loop_copies.push(LoopCopy {
                    ins_addr: s.addr + 12,
                    dst_addr: addr,
                    value: near,
                    path: 0,
                });
                s.observe_type(near, VType::CharPtr);
                s.observe_type(shared, VType::Ptr);
                s
            })
            .collect()
    }

    fn nodes(pool: &ExprPool) -> Vec<crate::pool::SymNode> {
        (0..pool.len() as u32).map(|i| pool.node(ExprId(i))).collect()
    }

    #[test]
    fn a_shared_memo_translates_like_one_memo_per_summary() {
        let mut src = ExprPool::new();
        let summaries = overlapping_summaries(&mut src);
        // Both destinations start with the same unrelated nodes.
        let seeded = || {
            let mut p = ExprPool::new();
            p.arg(7);
            p.constant(99);
            p
        };
        let (mut a, mut b) = (seeded(), seeded());
        let mut memo = TranslationMemo::for_pool(&src);
        let shared: Vec<FuncSummary> =
            summaries.iter().map(|s| s.translate_with(&src, &mut a, &mut memo)).collect();
        let alone: Vec<FuncSummary> =
            summaries.iter().map(|s| s.translate_into(&src, &mut b)).collect();
        assert_eq!(nodes(&a), nodes(&b), "destination pools differ");
        assert_eq!(shared, alone, "translated summaries differ");
        for (t, s) in shared.iter().zip(&summaries) {
            assert_eq!(t.render(&a), s.render(&src), "{} changed in translation", s.name);
        }
        // Every source node is reachable from some summary, and each was
        // translated exactly once.
        assert_eq!(memo.translated(), src.len());
    }
}
