//! The per-function static symbolic executor.
//!
//! Follows §III-B of the paper: every function is analyzed separately,
//! seeded with unique symbolic values for its calling convention
//! (`arg0..arg3` in registers, `arg4..arg9` on the stack), exploring both
//! directions of each conditional branch with the heuristic that *blocks
//! in the same loop are only analyzed once* (per path), and binding a
//! fresh `ret_{callsite}` symbol at every call.

use crate::libsig::{lib_sig, WriteEffect};
use crate::pool::{CmpOp, ExprId, ExprPool, SymNode};
use crate::summary::{CalleeRef, CallsiteInfo, Constraint, DefPair, FuncSummary, LoopCopy};
use crate::types::VType;
use dtaint_cfg::FunctionCfg;
use dtaint_fwbin::{Binary, Reg};
use dtaint_ir::{BinOp, IrBlock, IrExpr, IrStmt, JumpKind, Width, CMP_L, CMP_R};
use std::collections::HashSet;

/// Tuning knobs for path exploration.
#[derive(Debug, Clone, Copy)]
pub struct SymexConfig {
    /// Maximum number of fully explored paths per function.
    pub max_paths: u32,
    /// Maximum blocks executed along a single path.
    pub max_blocks_per_path: u32,
    /// Number of stack-passed arguments to seed (`arg4..`).
    pub stack_args: u8,
    /// Total block executions allowed per function, summed over every
    /// path. Fuel is a deterministic step count — never wall-clock — so
    /// the set of functions that exhaust it is identical run-to-run and
    /// thread-count-to-thread-count. The default is well above the
    /// worst case of `max_paths * max_blocks_per_path`, so it only
    /// binds when lowered explicitly.
    pub max_fuel: u32,
    /// Fault-injection drill: panic on entry when analyzing the function
    /// at this address. Exercises the pipeline's `catch_unwind` isolation
    /// in tests; `None` in production.
    pub panic_on: Option<u32>,
}

impl Default for SymexConfig {
    fn default() -> Self {
        SymexConfig {
            max_paths: 64,
            max_blocks_per_path: 512,
            stack_args: 6,
            max_fuel: 1 << 20,
            panic_on: None,
        }
    }
}

impl SymexConfig {
    /// The degraded retry profile: quarter of the path budget (at least
    /// one path) under the same fuel, used for one retry after a
    /// function exhausts its fuel at full strength.
    pub fn degraded(&self) -> SymexConfig {
        SymexConfig { max_paths: (self.max_paths / 4).max(1), ..*self }
    }
}

/// Slots in a path's register file: the architectural registers
/// `0..=31` (ARM uses `0..=15`, MIPS all of them) and the lifter's two
/// compare pseudo-registers.
const REG_SLOTS: usize = 34;

/// The register-file slot of `r`.
///
/// # Panics
///
/// Panics on a register no lifter emits.
fn reg_slot(r: Reg) -> usize {
    match r {
        Reg(n @ 0..=31) => n as usize,
        CMP_L => 32,
        CMP_R => 33,
        Reg(n) => panic!("register {n} is outside the symex register file"),
    }
}

/// One path's machine state. Nothing here hashes: a fork copies one
/// array and one vector.
#[derive(Debug, Clone)]
struct SymState {
    /// Per [`reg_slot`], the register's value once written or read.
    regs: [Option<ExprId>; REG_SLOTS],
    /// Memory cells `(address, value)`, sorted by address id.
    mem: Vec<(ExprId, ExprId)>,
}

impl SymState {
    fn new() -> Self {
        SymState { regs: [None; REG_SLOTS], mem: Vec::new() }
    }

    fn set_reg(&mut self, r: Reg, v: ExprId) {
        self.regs[reg_slot(r)] = Some(v);
    }

    fn load(&self, addr: ExprId) -> Option<ExprId> {
        let i = self.mem.binary_search_by_key(&addr, |&(a, _)| a).ok()?;
        Some(self.mem[i].1)
    }

    fn store(&mut self, addr: ExprId, v: ExprId) {
        match self.mem.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.mem[i].1 = v,
            Err(i) => self.mem.insert(i, (addr, v)),
        }
    }
}

/// The blocks one path has executed: a bit per [`FunctionCfg`] block
/// index.
#[derive(Debug, Clone)]
struct BlockSet(Vec<u64>);

impl BlockSet {
    fn new(blocks: usize) -> Self {
        BlockSet(vec![0; blocks.div_ceil(64)])
    }

    fn insert(&mut self, index: usize) {
        self.0[index / 64] |= 1 << (index % 64);
    }

    fn contains(&self, index: usize) -> bool {
        self.0[index / 64] >> (index % 64) & 1 != 0
    }
}

/// Work item: a path positioned at the start of `block`.
#[derive(Debug, Clone)]
struct PathItem {
    block: u32,
    state: SymState,
    visited: BlockSet,
    steps: u32,
    def_pairs: Vec<DefPair>,
    constraints: Vec<Constraint>,
    callsites: Vec<CallsiteInfo>,
    loop_copies: Vec<LoopCopy>,
}

/// Analyzes one function, producing its [`FuncSummary`].
///
/// `pool` receives every symbolic expression the function mentions; pass
/// a per-function pool when analyzing functions in parallel and merge
/// with [`ExprPool::translate`].
pub fn analyze_function(
    bin: &Binary,
    cfg: &FunctionCfg,
    pool: &mut ExprPool,
    config: &SymexConfig,
) -> FuncSummary {
    if config.panic_on == Some(cfg.addr) {
        panic!("injected fault: symex panic drill at {:#x}", cfg.addr);
    }
    Executor {
        bin,
        cfg,
        pool,
        config,
        loop_blocks: cfg.loop_blocks(),
        escape_seen: HashSet::new(),
        fuel_used: 0,
    }
    .run()
}

struct Executor<'a> {
    bin: &'a Binary,
    cfg: &'a FunctionCfg,
    pool: &'a mut ExprPool,
    config: &'a SymexConfig,
    /// Per block index, whether the block is in a loop.
    loop_blocks: Vec<bool>,
    escape_seen: HashSet<(ExprId, ExprId)>,
    fuel_used: u32,
}

impl<'a> Executor<'a> {
    fn run(mut self) -> FuncSummary {
        // Blocks are read in place through this copy of the `&'a`
        // reference, so holding one does not borrow `self`: no block is
        // ever cloned.
        let cfg: &'a FunctionCfg = self.cfg;
        let mut summary =
            FuncSummary { addr: cfg.addr, name: cfg.name.clone(), ..FuncSummary::default() };
        if cfg.blocks().is_empty() {
            return summary;
        }
        let mut stack = vec![PathItem {
            block: cfg.addr,
            state: self.initial_state(),
            visited: BlockSet::new(cfg.blocks().len()),
            steps: 0,
            def_pairs: Vec::new(),
            constraints: Vec::new(),
            callsites: Vec::new(),
            loop_copies: Vec::new(),
        }];
        let mut def_seen: HashSet<(ExprId, ExprId, u32)> = HashSet::new();
        let mut call_seen: HashSet<(u32, Vec<ExprId>)> = HashSet::new();
        let mut con_seen: HashSet<(CmpOp, ExprId, ExprId, u32)> = HashSet::new();
        let mut copy_seen: HashSet<(u32, ExprId, ExprId)> = HashSet::new();
        let mut ret_seen: HashSet<ExprId> = HashSet::new();

        while let Some(mut item) = stack.pop() {
            if summary.paths_explored >= self.config.max_paths {
                summary.path_cap_hit = true;
                break;
            }
            if self.fuel_used >= self.config.max_fuel {
                summary.fuel_exhausted = true;
                break;
            }
            // Execute blocks until the path ends or forks.
            let ended = loop {
                if item.steps >= self.config.max_blocks_per_path {
                    break true;
                }
                if self.fuel_used >= self.config.max_fuel {
                    summary.fuel_exhausted = true;
                    break true;
                }
                self.fuel_used += 1;
                item.steps += 1;
                let Some(index) = cfg.index_of(item.block) else { break true };
                item.visited.insert(index);
                let block = &cfg.blocks()[index];
                let in_loop = self.loop_blocks[index];
                let mut exit: Option<(ExprId, CmpOp, ExprId, u32, u32)> = None;
                let mut ins_addr = block.addr;
                for stmt in &block.stmts {
                    match stmt {
                        IrStmt::Imark { addr, .. } => ins_addr = *addr,
                        IrStmt::Put { reg, value } => {
                            let v = self.eval(&mut item, &mut summary, value, ins_addr);
                            item.state.set_reg(*reg, v);
                        }
                        IrStmt::Store { addr, value, width } => {
                            let a = self.eval(&mut item, &mut summary, addr, ins_addr);
                            let v = self.eval(&mut item, &mut summary, value, ins_addr);
                            self.note_pointer_base(&mut summary, a);
                            item.state.store(a, v);
                            let w = width.bytes() as u8;
                            let d = self.pool.deref(a, w);
                            item.def_pairs.push(DefPair { d, u: v, ins_addr, path: 0 });
                            if in_loop && self.derived_from_memory(v) {
                                item.loop_copies.push(LoopCopy {
                                    ins_addr,
                                    dst_addr: a,
                                    value: v,
                                    path: 0,
                                });
                            }
                        }
                        IrStmt::Exit { cond, target } => {
                            if let IrExpr::Binop { op, lhs, rhs } = cond {
                                let l = self.eval(&mut item, &mut summary, lhs, ins_addr);
                                let r = self.eval(&mut item, &mut summary, rhs, ins_addr);
                                let cmp = cmp_of(*op);
                                let (cmp, l, r) = normalize_cond(self.pool, cmp, l, r);
                                // Machine-instruction type rule: a value
                                // compared against an immediate is an int.
                                if self.pool.as_const(r).is_some() {
                                    summary.observe_type(l, VType::Int);
                                }
                                exit = Some((l, cmp, r, *target, ins_addr));
                            }
                        }
                    }
                }

                match block.jumpkind {
                    JumpKind::Ret => {
                        let ret_reg = self.bin.arch.ret_reg();
                        let rv = self.read_reg(&mut item.state, ret_reg);
                        if ret_seen.insert(rv) {
                            summary.ret_values.push(rv);
                        }
                        self.collect_escapes(&item, &mut summary);
                        break true;
                    }
                    JumpKind::Call { return_to } => {
                        self.handle_call(&mut item, &mut summary, block);
                        if cfg.index_of(return_to).is_some() {
                            item.block = return_to;
                            continue;
                        }
                        break true;
                    }
                    JumpKind::Boring => {
                        if let Some((l, op, r, target, at)) = exit {
                            // Statically decided branches follow one side.
                            if let (Some(lc), Some(rc)) =
                                (self.pool.as_const(l), self.pool.as_const(r))
                            {
                                let next =
                                    if op.eval(lc, rc) { Some(target) } else { block.next_const() };
                                match next.filter(|n| self.may_enter(&item, *n)) {
                                    Some(n) => {
                                        item.block = n;
                                        continue;
                                    }
                                    None => break true,
                                }
                            }
                            // Fork: taken side pushed as a new path.
                            let fall = block.next_const();
                            let mut taken = item.clone();
                            taken.constraints.push(Constraint {
                                op,
                                lhs: l,
                                rhs: r,
                                ins_addr: at,
                                path: 0,
                            });
                            let taken_ok = self.may_enter(&taken, target);
                            if taken_ok {
                                taken.block = target;
                                stack.push(taken);
                            }
                            item.constraints.push(Constraint {
                                op: op.negate(),
                                lhs: l,
                                rhs: r,
                                ins_addr: at,
                                path: 0,
                            });
                            match fall.filter(|n| self.may_enter(&item, *n)) {
                                Some(n) => {
                                    item.block = n;
                                    continue;
                                }
                                None => break true,
                            }
                        }
                        match block.next_const().filter(|n| self.may_enter(&item, *n)) {
                            Some(n) => {
                                item.block = n;
                                continue;
                            }
                            None => break true,
                        }
                    }
                }
            };
            if ended {
                // Finalize this path into the summary, deduplicating.
                let pid = summary.paths_explored;
                summary.paths_explored += 1;
                for mut dp in item.def_pairs {
                    if def_seen.insert((dp.d, dp.u, dp.ins_addr)) {
                        dp.path = pid;
                        summary.def_pairs.push(dp);
                    }
                }
                for mut c in item.constraints {
                    if con_seen.insert((c.op, c.lhs, c.rhs, c.ins_addr)) {
                        c.path = pid;
                        summary.constraints.push(c);
                    }
                }
                for mut cs in item.callsites {
                    if call_seen.insert((cs.ins_addr, cs.args.clone())) {
                        cs.path = pid;
                        summary.callsites.push(cs);
                    }
                }
                for mut lc in item.loop_copies {
                    if copy_seen.insert((lc.ins_addr, lc.dst_addr, lc.value)) {
                        lc.path = pid;
                        summary.loop_copies.push(lc);
                    }
                }
            }
        }
        summary.blocks_executed = self.fuel_used;
        summary
    }

    /// Loop-once heuristic: a path never re-enters a block it already
    /// executed.
    fn may_enter(&self, item: &PathItem, block: u32) -> bool {
        self.cfg.index_of(block).is_some_and(|index| !item.visited.contains(index))
    }

    fn initial_state(&mut self) -> SymState {
        let arch = self.bin.arch;
        let mut state = SymState::new();
        for (i, r) in arch.arg_regs().into_iter().enumerate() {
            let a = self.pool.arg(i as u8);
            state.set_reg(r, a);
        }
        let sp0 = self.pool.stack_base();
        state.set_reg(arch.sp(), sp0);
        // Stack-passed arguments live just above the entry SP.
        for k in 0..self.config.stack_args {
            let slot = self.pool.add_const(sp0, 4 * k as i64);
            let a = self.pool.arg(4 + k);
            state.store(slot, a);
        }
        state
    }

    fn read_reg(&mut self, state: &mut SymState, r: Reg) -> ExprId {
        let slot = &mut state.regs[reg_slot(r)];
        if let Some(v) = *slot {
            return v;
        }
        let v = self.pool.init_reg(r.0);
        *slot = Some(v);
        v
    }

    #[allow(clippy::only_used_in_recursion)] // kept for future per-use records
    fn eval(
        &mut self,
        item: &mut PathItem,
        summary: &mut FuncSummary,
        e: &IrExpr,
        ins_addr: u32,
    ) -> ExprId {
        match e {
            IrExpr::Const(v) => self.pool.constant(*v as i32 as i64),
            IrExpr::Get(r) => {
                let v = self.read_reg(&mut item.state, *r);
                if let SymNode::Arg(i) = self.pool.node(v) {
                    summary.args_used.insert(i);
                }
                v
            }
            IrExpr::Load { addr, width } => {
                let a = self.eval(item, summary, addr, ins_addr);
                self.note_pointer_base(summary, a);
                if let Some(i) = self.arg_index(a) {
                    summary.args_used.insert(i);
                }
                if let Some(v) = item.state.load(a) {
                    return v;
                }
                // Concrete addresses in *immutable* sections read through
                // the loaded image — this is how function pointers and
                // string literals surface. Writable globals (.data/.bss)
                // stay symbolic: their runtime contents are not the
                // load-time bytes.
                if let Some(c) = self.pool.as_const(a) {
                    let caddr = c as u32;
                    if self.bin.is_immutable_addr(caddr) {
                        let loaded = match width {
                            Width::W32 => self.bin.read_u32(caddr),
                            Width::W16 => {
                                self.bin.array_at(caddr).map(|b| u16::from_le_bytes(b).into())
                            }
                            Width::W8 => self.bin.array_at(caddr).map(|[b]: [u8; 1]| b.into()),
                        };
                        if let Some(v) = loaded {
                            return self.pool.constant(v as i64);
                        }
                    }
                }
                self.pool.deref(a, width.bytes() as u8)
            }
            IrExpr::Binop { op, lhs, rhs } => {
                let a = self.eval(item, summary, lhs, ins_addr);
                let b = self.eval(item, summary, rhs, ins_addr);
                match op {
                    BinOp::Add => self.pool.add(a, b),
                    BinOp::Sub => self.pool.sub(a, b),
                    BinOp::Mul => self.pool.mul(a, b),
                    BinOp::And => self.pool.and_op(a, b),
                    BinOp::Or => self.pool.or_op(a, b),
                    BinOp::Xor => self.pool.xor_op(a, b),
                    BinOp::Shl => self.pool.shl_op(a, b),
                    BinOp::Shr => self.pool.shr_op(a, b),
                    cmp => {
                        let c = cmp_of(*cmp);
                        self.pool.cmp(c, a, b)
                    }
                }
            }
        }
    }

    /// The machine-instruction typing rule: the base of an indirect
    /// access holds a pointer.
    fn note_pointer_base(&mut self, summary: &mut FuncSummary, addr: ExprId) {
        let (base, _) = self.pool.base_offset(addr);
        summary.observe_type(base, VType::Ptr);
    }

    fn arg_index(&self, e: ExprId) -> Option<u8> {
        let (base, _) = self.pool.base_offset(e);
        match self.pool.node(base) {
            SymNode::Arg(i) => Some(i),
            _ => None,
        }
    }

    /// True when a stored value is memory-derived (for loop-copy sinks).
    fn derived_from_memory(&self, v: ExprId) -> bool {
        self.pool.any_node(v, &mut |n| matches!(n, SymNode::Deref { .. } | SymNode::CallOut { .. }))
    }

    fn handle_call(&mut self, item: &mut PathItem, summary: &mut FuncSummary, block: &IrBlock) {
        let arch = self.bin.arch;
        let cs_addr = block.end() - dtaint_fwbin::INS_SIZE;
        // Register arguments.
        let mut args: Vec<ExprId> =
            arch.arg_regs().iter().map(|r| self.read_reg(&mut item.state, *r)).collect();
        // Stack arguments present in the symbolic store.
        let sp = self.read_reg(&mut item.state, arch.sp());
        for k in 0..self.config.stack_args {
            let slot = self.pool.add_const(sp, 4 * k as i64);
            match item.state.load(slot) {
                Some(v) => args.push(v),
                None => break,
            }
        }
        let callee = match block.next_const() {
            Some(t) => {
                if let Some(imp) = self.bin.import_at(t) {
                    CalleeRef::Import(imp.name.clone())
                } else if self.bin.function_at(t).is_some() {
                    CalleeRef::Direct(t)
                } else {
                    let c = self.pool.constant(t as i64);
                    CalleeRef::Indirect(c)
                }
            }
            None => {
                // Re-evaluate the indirect target expression.
                let t = self.eval(item, summary, &block.next, cs_addr);
                CalleeRef::Indirect(t)
            }
        };
        let ret = self.pool.ret_sym(cs_addr);
        if let CalleeRef::Import(name) = &callee {
            if let Some(sig) = lib_sig(name) {
                for (i, t) in sig.arg_types.iter().enumerate() {
                    if let Some(&a) = args.get(i) {
                        summary.observe_type(a, *t);
                    }
                }
                summary.observe_type(ret, sig.ret_type);
                for eff in sig.effects {
                    match *eff {
                        WriteEffect::Fills { dst } => {
                            if let Some(&p) = args.get(dst) {
                                let out = self.pool.call_out(cs_addr, dst as u8);
                                item.state.store(p, out);
                                let d = self.pool.deref(p, 1);
                                item.def_pairs.push(DefPair {
                                    d,
                                    u: out,
                                    ins_addr: cs_addr,
                                    path: 0,
                                });
                            }
                        }
                        WriteEffect::Copies { dst, src } => {
                            if let (Some(&pd), Some(&ps)) = (args.get(dst), args.get(src)) {
                                let data = match item.state.load(ps) {
                                    Some(v) => v,
                                    None => self.pool.deref(ps, 1),
                                };
                                item.state.store(pd, data);
                                let d = self.pool.deref(pd, 1);
                                item.def_pairs.push(DefPair {
                                    d,
                                    u: data,
                                    ins_addr: cs_addr,
                                    path: 0,
                                });
                            }
                        }
                    }
                }
                if sig.ret_points_to_external {
                    let out = self.pool.call_out(cs_addr, crate::RET_PTR_ARG);
                    item.state.store(ret, out);
                    let d = self.pool.deref(ret, 1);
                    item.def_pairs.push(DefPair { d, u: out, ins_addr: cs_addr, path: 0 });
                }
            }
        }
        item.state.set_reg(arch.ret_reg(), ret);
        item.callsites.push(CallsiteInfo { ins_addr: cs_addr, callee, args, ret, path: 0 });
    }

    /// Records the definition pairs that reach this exit and whose root
    /// pointer is a formal argument or a returned pointer — the set
    /// Algorithm 2 forwards to callers.
    fn collect_escapes(&mut self, item: &PathItem, summary: &mut FuncSummary) {
        // Address order: the `deref` nodes interned here and the order of
        // `escape_defs` end up in cached summary blobs, which must come
        // out identical from run to run.
        for &(addr, val) in &item.state.mem {
            let w = 4;
            let d = self.pool.deref(addr, w);
            let Some(root) = self.pool.root_ptr(d) else { continue };
            // Argument/return-pointer pointees escape (Algorithm 2), and
            // so do writable globals — their contents persist across the
            // call boundary.
            let escapes = match self.pool.node(root) {
                SymNode::Arg(_) | SymNode::RetSym(_) => true,
                SymNode::Const(c) => {
                    let addr = c as u32;
                    self.bin.section_at(addr).is_some() && !self.bin.is_immutable_addr(addr)
                }
                _ => false,
            };
            if escapes && self.escape_seen.insert((d, val)) {
                // Skip the seeded stack-arg slots themselves.
                if matches!(self.pool.node(val), SymNode::Arg(_))
                    && self.pool.base_offset(addr).0 == self.pool.stack_base()
                {
                    continue;
                }
                summary.escape_defs.push(DefPair {
                    d,
                    u: val,
                    ins_addr: self.cfg.addr,
                    path: summary.paths_explored,
                });
            }
        }
    }
}

/// Unfolds the MIPS `SLT`-then-branch idiom: a boolean comparison value
/// tested against 0/1 becomes the inner comparison (possibly negated),
/// so `beq (a < b), 0` records the constraint `a >= b` rather than an
/// opaque equality on a boolean.
fn normalize_cond(pool: &ExprPool, op: CmpOp, l: ExprId, r: ExprId) -> (CmpOp, ExprId, ExprId) {
    let (boolean, konst, outer) = if let Some(c) = pool.as_const(r) {
        (l, c, op)
    } else if let Some(c) = pool.as_const(l) {
        // Keep the boolean on the left for uniform handling.
        (r, c, op)
    } else {
        return (op, l, r);
    };
    let SymNode::Cmp(inner, a, b) = pool.node(boolean) else {
        return (op, l, r);
    };
    match (outer, konst) {
        (CmpOp::Eq, 0) | (CmpOp::Ne, 1) => (inner.negate(), a, b),
        (CmpOp::Ne, 0) | (CmpOp::Eq, 1) => (inner, a, b),
        _ => (op, l, r),
    }
}

fn cmp_of(op: BinOp) -> CmpOp {
    match op {
        BinOp::CmpEq => CmpOp::Eq,
        BinOp::CmpNe => CmpOp::Ne,
        BinOp::CmpLt => CmpOp::Lt,
        BinOp::CmpGe => CmpOp::Ge,
        BinOp::CmpLe => CmpOp::Le,
        BinOp::CmpGt => CmpOp::Gt,
        other => unreachable!("{other:?} is not a comparison"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::arm::ArmIns;
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::mips::MipsIns;
    use dtaint_fwbin::{Arch, INS_SIZE};
    use dtaint_ir::lift::{lift_ins, Terminator};
    use std::collections::BTreeSet;

    fn regs_in(e: &IrExpr, out: &mut BTreeSet<Reg>) {
        match e {
            IrExpr::Const(_) => {}
            IrExpr::Get(r) => {
                out.insert(*r);
            }
            IrExpr::Load { addr, .. } => regs_in(addr, out),
            IrExpr::Binop { lhs, rhs, .. } => {
                regs_in(lhs, out);
                regs_in(rhs, out);
            }
        }
    }

    /// Every register the lifter reads or writes over every word that
    /// decodes, with each register field at every value `0..32`.
    fn lifted_regs(arch: Arch) -> BTreeSet<Reg> {
        let mut asm = Assembler::new(arch);
        for op in 0..64u32 {
            for r in 0..32u32 {
                for imm in [0, 0x7ff, 0xffff] {
                    let word = op << 26 | r << 21 | r << 16 | r << 11 | imm;
                    match arch {
                        Arch::Arm32e => match ArmIns::decode(word, 0) {
                            Ok(ins) if ins.encode().is_ok() => asm.arm(ins),
                            _ => {}
                        },
                        Arch::Mips32e => match MipsIns::decode(word, 0) {
                            Ok(ins) if ins.encode().is_ok() => asm.mips(ins),
                            _ => {}
                        },
                    }
                }
            }
        }
        let mut b = BinaryBuilder::new(arch);
        b.add_function("every_word", asm);
        let bin = b.link().unwrap();
        let f = bin.function("every_word").unwrap();
        let mut regs = BTreeSet::new();
        let mut stmts = Vec::new();
        for pc in (f.addr..f.addr + f.size).step_by(INS_SIZE as usize) {
            stmts.clear();
            let term = lift_ins(&bin, pc, &mut stmts).unwrap();
            for stmt in &stmts {
                match stmt {
                    IrStmt::Imark { .. } => {}
                    IrStmt::Put { reg, value } => {
                        regs.insert(*reg);
                        regs_in(value, &mut regs);
                    }
                    IrStmt::Store { addr, value, .. } => {
                        regs_in(addr, &mut regs);
                        regs_in(value, &mut regs);
                    }
                    IrStmt::Exit { cond, .. } => regs_in(cond, &mut regs),
                }
            }
            match term {
                Some(
                    Terminator::Jump(e) | Terminator::Ret(e) | Terminator::Call { next: e, .. },
                ) => regs_in(&e, &mut regs),
                Some(Terminator::CondBranch) | None => {}
            }
        }
        regs
    }

    #[test]
    fn register_file_covers_every_lifted_register() {
        let arm = lifted_regs(Arch::Arm32e);
        let mips = lifted_regs(Arch::Mips32e);
        assert_eq!(arm.iter().filter(|r| r.0 < 16).count(), 16, "every ARM register lifted");
        assert!(arm.contains(&CMP_L) && arm.contains(&CMP_R), "ARM compares lifted");
        // `$zero` lifts to the constant 0.
        assert!((1..32).all(|n| mips.contains(&Reg(n))), "every MIPS register lifted");
        let slots: BTreeSet<usize> = arm.iter().chain(&mips).map(|&r| reg_slot(r)).collect();
        let regs: BTreeSet<Reg> = arm.union(&mips).copied().collect();
        assert_eq!(slots.len(), regs.len(), "distinct registers get distinct slots");
        assert!(slots.iter().all(|&s| s < REG_SLOTS));
    }
}
