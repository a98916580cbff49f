use dtaint_fwbin::{Binary, Result, Symbol, INS_SIZE};
use dtaint_ir::lift::{lift_ins, Terminator, MAX_BLOCK_BYTES};
use dtaint_ir::{IrBlock, IrBuf, IrStmt, JumpKind};

/// The control-flow graph of one function.
///
/// The function's IR lives in one flat [`IrBuf`] ([`FunctionCfg::ir`]);
/// each [`IrBlock`] is a statement range of it. Blocks are stored flat
/// in one `Vec`, sorted by start address; a block's position in that
/// order is its *index*, and the entry is index 0. Successor edges are
/// block indices in compressed-sparse-row form: block `i`'s successors
/// are `succ_targets[succ_offsets[i]..succ_offsets[i + 1]]`, in the
/// order the block's exits list them (side exits first, then the
/// fall-through, jump or return site), with a repeat of the previous
/// successor dropped. A call's only intra-function successor is its
/// return site (the callee is an edge in the
/// [`CallGraph`](crate::CallGraph), not here).
///
/// Only what symbolic execution reads is built eagerly: the blocks, the
/// address lookup ([`FunctionCfg::block`]) and the successor lists.
/// [`FunctionCfg::loop_blocks`], [`FunctionCfg::preds`] and
/// [`FunctionCfg::back_edges`] are computed on demand.
#[derive(Debug, Clone)]
pub struct FunctionCfg {
    /// Entry address (also the function symbol's address).
    pub addr: u32,
    /// Function name from the symbol table.
    pub name: String,
    /// End address (exclusive).
    pub end: u32,
    ir: IrBuf,
    blocks: Vec<IrBlock>,
    succ_offsets: Vec<u32>,
    succ_targets: Vec<u32>,
}

/// One block of a function that ends in a call, as the call graph reads
/// it. The target is classified later, against the set of lifted
/// functions ([`CallGraph::from_shapes`](crate::CallGraph::from_shapes)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallRow {
    /// Address of the block ending in the call.
    pub block: u32,
    /// Address of the call instruction itself.
    pub ins_addr: u32,
    /// Address execution resumes at.
    pub return_to: u32,
    /// The call target when it is a constant (`BL`/`JAL`), else `None`.
    pub next_const: Option<u32>,
}

/// What a [`FunctionCfg`] leaves behind once its IR is dropped: the
/// function's identity, its size counters, and its call rows in block
/// order. The pipeline keeps only these after the per-function pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionShape {
    /// Entry address.
    pub addr: u32,
    /// Function name from the symbol table.
    pub name: String,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Number of intra-function control-flow edges.
    pub edges: usize,
    /// Guest instructions covered by the blocks.
    pub instructions: usize,
    /// Blocks ending in a call, in block-address order.
    pub calls: Vec<CallRow>,
}

impl FunctionShape {
    /// Appends the compact encoding of everything but `addr` and `name`:
    /// `blocks`, `edges`, `instructions`, the row count, then each row in
    /// block order, every field a LEB128 varint. A row stores `block`
    /// relative to the function entry, `ins_addr` relative to `block` and
    /// `return_to` relative to `ins_addr` (wrapping deltas), and
    /// `next_const` as `0` for `None` or `t + 1`.
    pub fn encode_compact(&self, out: &mut Vec<u8>) {
        for n in [self.blocks, self.edges, self.instructions, self.calls.len()] {
            put_varint(out, n as u64);
        }
        for row in &self.calls {
            put_varint(out, u64::from(row.block.wrapping_sub(self.addr)));
            put_varint(out, u64::from(row.ins_addr.wrapping_sub(row.block)));
            put_varint(out, u64::from(row.return_to.wrapping_sub(row.ins_addr)));
            put_varint(out, row.next_const.map_or(0, |t| u64::from(t) + 1));
        }
    }

    /// Decodes bytes written by [`FunctionShape::encode_compact`] for the
    /// function `addr`/`name`. `None` unless `bytes` holds exactly one
    /// well-formed encoding.
    pub fn decode_compact(addr: u32, name: String, bytes: &[u8]) -> Option<FunctionShape> {
        let mut pos = 0;
        let mut next = || get_varint(bytes, &mut pos);
        let blocks = usize::try_from(next()?).ok()?;
        let edges = usize::try_from(next()?).ok()?;
        let instructions = usize::try_from(next()?).ok()?;
        let rows = usize::try_from(next()?).ok()?;
        // A row takes at least four bytes: never reserve more rows than
        // the input can hold.
        let mut calls = Vec::with_capacity(rows.min(bytes.len() / 4));
        for _ in 0..rows {
            let block = addr.wrapping_add(u32::try_from(next()?).ok()?);
            let ins_addr = block.wrapping_add(u32::try_from(next()?).ok()?);
            let return_to = ins_addr.wrapping_add(u32::try_from(next()?).ok()?);
            let next_const = match next()? {
                0 => None,
                t => Some(u32::try_from(t - 1).ok()?),
            };
            calls.push(CallRow { block, ins_addr, return_to, next_const });
        }
        (pos == bytes.len()).then_some(FunctionShape {
            addr,
            name,
            blocks,
            edges,
            instructions,
            calls,
        })
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint at `*pos`; `None` when it runs off the end
/// or overflows 64 bits.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        let part = u64::from(b & 0x7f);
        if (part << shift) >> shift != part {
            return None;
        }
        v |= part << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

impl FunctionCfg {
    /// The function's IR: every block's statements and expression nodes.
    pub fn ir(&self) -> &IrBuf {
        &self.ir
    }

    /// The basic blocks in address order; a block's position is its index.
    pub fn blocks(&self) -> &[IrBlock] {
        &self.blocks
    }

    /// Index of the block starting at `addr`.
    pub fn index_of(&self, addr: u32) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.addr).ok()
    }

    /// The block starting at `addr`.
    pub fn block(&self, addr: u32) -> Option<&IrBlock> {
        self.index_of(addr).map(|i| &self.blocks[i])
    }

    /// Successor indices of block `index`, in edge order.
    pub fn succs(&self, index: usize) -> &[u32] {
        let (from, to) = (self.succ_offsets[index], self.succ_offsets[index + 1]);
        &self.succ_targets[from as usize..to as usize]
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of intra-function control-flow edges.
    pub fn edge_count(&self) -> usize {
        self.succ_targets.len()
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics when the function has no blocks — builders never produce
    /// such CFGs.
    pub fn entry_block(&self) -> &IrBlock {
        self.block(self.addr).expect("the entry is a block")
    }

    /// Predecessor indices per block index, each list ascending.
    /// Computed on each call.
    pub fn preds(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for from in 0..self.blocks.len() {
            for &to in self.succs(from) {
                preds[to as usize].push(from as u32);
            }
        }
        preds
    }

    /// The back edges `(from, to)` of a depth-first search from the entry
    /// (block addresses; `to` heads a loop), in the order the search
    /// meets them. Computed on each call.
    pub fn back_edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        let mut visited = vec![false; self.blocks.len()];
        let mut on_stack = vec![false; self.blocks.len()];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        on_stack[0] = true;
        while let Some(&mut (node, ref mut pos)) = stack.last_mut() {
            if let Some(&s) = self.succs(node).get(*pos) {
                *pos += 1;
                let s = s as usize;
                if on_stack[s] {
                    edges.push((self.blocks[node].addr, self.blocks[s].addr));
                } else if !visited[s] {
                    visited[s] = true;
                    on_stack[s] = true;
                    stack.push((s, 0));
                }
            } else {
                on_stack[node] = false;
                stack.pop();
            }
        }
        edges
    }

    /// True when `(from, to)` (block addresses) closes a loop; see
    /// [`FunctionCfg::back_edges`].
    pub fn is_back_edge(&self, from: u32, to: u32) -> bool {
        self.back_edges().contains(&(from, to))
    }

    /// Per block index, whether the block is part of some loop (a
    /// non-trivial strongly connected component, or a self-loop).
    ///
    /// The paper's loop-copy sink ("copy statements in the loop", §IV)
    /// tests this bitmap.
    pub fn loop_blocks(&self) -> Vec<bool> {
        // Iterative Tarjan SCC over block indices.
        const UNVISITED: u32 = u32::MAX;
        let n = self.blocks.len();
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut in_loop = vec![false; n];
        let mut scc: Vec<usize> = Vec::new();
        let mut calls: Vec<(usize, usize)> = Vec::new();
        let mut next_index = 0u32;
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            calls.push((root, 0));
            while let Some(&mut (node, ref mut pos)) = calls.last_mut() {
                if index[node] == UNVISITED {
                    index[node] = next_index;
                    lowlink[node] = next_index;
                    next_index += 1;
                    on_stack[node] = true;
                    scc.push(node);
                }
                if let Some(&s) = self.succs(node).get(*pos) {
                    *pos += 1;
                    let s = s as usize;
                    if index[s] == UNVISITED {
                        calls.push((s, 0));
                    } else if on_stack[s] {
                        lowlink[node] = lowlink[node].min(index[s]);
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(parent, _)) = calls.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[node]);
                }
                if lowlink[node] == index[node] {
                    // Pop the SCC rooted here.
                    let root_at = scc.iter().rposition(|&m| m == node).expect("root on stack");
                    let looped =
                        scc.len() - root_at > 1 || self.succs(node).contains(&(node as u32));
                    for m in scc.drain(root_at..) {
                        on_stack[m] = false;
                        in_loop[m] = looped;
                    }
                }
            }
        }
        in_loop
    }

    /// The small record this CFG leaves behind once its IR is dropped.
    pub fn shape(&self) -> FunctionShape {
        let calls = self
            .blocks
            .iter()
            .filter_map(|b| match b.jumpkind {
                JumpKind::Call { return_to } => Some(CallRow {
                    block: b.addr,
                    ins_addr: b.end() - INS_SIZE,
                    return_to,
                    next_const: b.next_const(&self.ir),
                }),
                _ => None,
            })
            .collect();
        FunctionShape {
            addr: self.addr,
            name: self.name.clone(),
            blocks: self.block_count(),
            edges: self.edge_count(),
            instructions: self.blocks.iter().map(|b| (b.size / INS_SIZE) as usize).sum(),
            calls,
        }
    }

    /// Block addresses in reverse post-order from the entry (a
    /// topological order ignoring back edges).
    pub fn rpo(&self) -> Vec<u32> {
        let mut post = Vec::with_capacity(self.blocks.len());
        let mut visited = vec![false; self.blocks.len()];
        // Iterative DFS with an explicit stack of (node, next-succ-index).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (node, ref mut pos)) = stack.last_mut() {
            if let Some(&s) = self.succs(node).get(*pos) {
                *pos += 1;
                let s = s as usize;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(self.blocks[node].addr);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

/// Builds the CFG for one function symbol.
///
/// The builder lifts every instruction of `[sym.addr, sym.addr +
/// sym.size)` exactly once, in address order, into the function's one
/// [`IrBuf`], recording where each instruction's statements start and
/// how it ends. The lifted terminators give the *leaders* (the entry,
/// branch targets, and the instruction after every terminator). Each
/// leader then starts one block, cut from the records by
/// [`lift_block`](dtaint_ir::lift::lift_block)'s rules: it ends after
/// its first terminator, before the next leader, or after
/// [`MAX_BLOCK_BYTES`]. This yields non-overlapping blocks even when
/// branches target the middle of straight-line runs. Words that no block
/// covers keep their statements in the buffer, unread. Successor edges
/// are laid out as index lists.
///
/// # Errors
///
/// Propagates the first lifting error in address order
/// ([`dtaint_fwbin::Error::BadInstruction`] on undecodable words,
/// [`dtaint_fwbin::Error::Truncated`] on unmapped reads), and
/// [`dtaint_fwbin::Error::BadSymbol`] when the symbol's address range
/// wraps the 32-bit address space.
pub fn build_function_cfg(bin: &Binary, sym: &Symbol) -> Result<FunctionCfg> {
    /// One lifted instruction: where its `Imark` sits, how it ends its
    /// block, and whether a block starts at it.
    #[derive(Clone, Copy)]
    struct Word {
        stmt: u32,
        term: Option<Terminator>,
        leader: bool,
    }
    /// Words reserved for up front at most: a damaged symbol may claim
    /// far more than the mapped text holds, and lifting stops there.
    const RESERVE_WORDS: usize = 1 << 14;

    let start = sym.addr;
    let end = sym
        .addr
        .checked_add(sym.size)
        .ok_or_else(|| dtaint_fwbin::Error::BadSymbol { name: sym.name.clone(), addr: sym.addr })?;

    // Lift every word once, in address order; the first error is the
    // function's error.
    let words = sym.size.div_ceil(INS_SIZE) as usize;
    let reserve = words.min(RESERVE_WORDS);
    let mut lifted: Vec<Word> = Vec::with_capacity(reserve);
    // Under two statements and 3.4 nodes per instruction on every
    // generated profile (ARM's register lists need the most nodes), so
    // each `Vec` is allocated once.
    let mut ir = IrBuf::with_capacity(2 * reserve + 4, 4 * reserve + 8);
    let stmt_count =
        |ir: &IrBuf| u32::try_from(ir.stmts.len()).expect("fewer than 2^32 statements");
    let mut pc = start;
    while pc < end {
        let stmt = stmt_count(&ir);
        ir.stmts.push(IrStmt::Imark { addr: pc, len: INS_SIZE });
        let term = lift_ins(bin, pc, &mut ir)?;
        lifted.push(Word { stmt, term, leader: false });
        pc += INS_SIZE;
    }
    // Where word `k`'s statements start; the buffer's end past the last.
    let stmts_len = stmt_count(&ir);
    let stmt_at = |lifted: &[Word], k: usize| lifted.get(k).map_or(stmts_len, |w| w.stmt);

    // Leaders: every target of a terminator inside the range. Each is
    // the terminator's address plus a multiple of the instruction size,
    // so it is always one of the lifted words.
    for k in 0..lifted.len() {
        let Some(term) = lifted[k].term else { continue };
        let pc = start + k as u32 * INS_SIZE;
        let own = stmt_at(&lifted, k) as usize + 1..stmt_at(&lifted, k + 1) as usize;
        // A side exit comes only from a conditional branch, whose
        // fall-through makes the next instruction a leader.
        let exits = ir.stmts[own].iter().filter_map(|s| match *s {
            IrStmt::Exit { target, .. } => Some(target),
            _ => None,
        });
        let flow = match term {
            Terminator::CondBranch => Some(pc + INS_SIZE),
            Terminator::Jump(next) => ir.expr(next).as_const(),
            Terminator::Call { return_to, .. } => Some(return_to),
            Terminator::Ret(_) => None,
        };
        for t in exits.chain(flow).filter(|t| (start..end).contains(t)) {
            debug_assert_eq!((t - start) % INS_SIZE, 0, "leader {t:#x} off the word grid");
            lifted[((t - start) / INS_SIZE) as usize].leader = true;
        }
    }

    // Cut one block per leader (the entry is always one), in address
    // order, by `lift_block`'s rules.
    let leaders = 1 + lifted.iter().skip(1).filter(|w| w.leader).count();
    let mut blocks = Vec::with_capacity(leaders);
    let mut first = 0;
    loop {
        let next_leader = (first + 1..lifted.len()).find(|&k| lifted[k].leader);
        let addr = start + first as u32 * INS_SIZE;
        let limit = next_leader.map_or(end, |k| start + k as u32 * INS_SIZE);
        let (mut k, mut pc, mut term) = (first, addr, None);
        while term.is_none() && pc < limit && pc - addr < MAX_BLOCK_BYTES {
            term = lifted[k].term;
            k += 1;
            pc += INS_SIZE;
        }
        let (stmt_start, stmt_end) = (stmt_at(&lifted, first), stmt_at(&lifted, k));
        let (next, jumpkind) = Terminator::block_exit(term, pc, &mut ir);
        blocks.push(IrBlock { addr, size: pc - addr, stmt_start, stmt_end, next, jumpkind });
        match next_leader {
            Some(k) => first = k,
            None => break,
        }
    }

    // Successor edges, as block indices.
    let index_of = |t: u32| blocks.binary_search_by_key(&t, |b: &IrBlock| b.addr).ok();
    let mut succ_offsets = Vec::with_capacity(blocks.len() + 1);
    let mut succ_targets: Vec<u32> = Vec::with_capacity(2 * blocks.len());
    succ_offsets.push(0);
    for b in &blocks {
        let first = succ_targets.len();
        let flow = match b.jumpkind {
            JumpKind::Ret => None,
            JumpKind::Call { return_to } => Some(return_to),
            JumpKind::Boring => b.next_const(&ir),
        };
        for t in b.exit_targets(&ir).chain(flow) {
            let Some(i) = index_of(t) else { continue };
            // Drop a repeat of the previous successor (`Vec::dedup`).
            if succ_targets[first..].last() != Some(&(i as u32)) {
                succ_targets.push(i as u32);
            }
        }
        succ_offsets.push(succ_targets.len() as u32);
    }

    Ok(FunctionCfg {
        addr: start,
        name: sym.name.clone(),
        end,
        ir,
        blocks,
        succ_offsets,
        succ_targets,
    })
}

/// Builds CFGs for every function symbol in the binary, in address order.
///
/// # Errors
///
/// Propagates the first lifting error; see [`build_function_cfg`].
pub fn build_all_cfgs(bin: &Binary) -> Result<Vec<FunctionCfg>> {
    bin.functions().iter().map(|sym| build_function_cfg(bin, sym)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::arm::{ArmIns, Cond};
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::{Arch, Reg};

    fn build(arch: Arch, f: impl FnOnce(&mut Assembler)) -> (Binary, FunctionCfg) {
        let mut a = Assembler::new(arch);
        f(&mut a);
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", a);
        b.add_import("recv");
        let bin = b.link().unwrap();
        let cfg = build_function_cfg(&bin, bin.function("f").unwrap()).unwrap();
        (bin, cfg)
    }

    /// Successor addresses of the block at `addr`.
    fn succ_addrs(cfg: &FunctionCfg, addr: u32) -> Vec<u32> {
        let index = cfg.index_of(addr).unwrap();
        cfg.succs(index).iter().map(|&s| cfg.blocks()[s as usize].addr).collect()
    }

    /// Whether the block at `addr` is in a loop.
    fn in_loop(cfg: &FunctionCfg, addr: u32) -> bool {
        cfg.loop_blocks()[cfg.index_of(addr).unwrap()]
    }

    #[test]
    fn straight_line_is_single_block() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::MovI { rd: Reg(0), imm: 1 });
            a.arm(ArmIns::AddI { rd: Reg(0), rn: Reg(0), imm: 2 });
            a.ret();
        });
        assert_eq!(cfg.block_count(), 1);
        assert!(cfg.succs(0).is_empty());
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn diamond_has_four_blocks() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
            a.arm_b(Cond::Eq, "else");
            a.arm(ArmIns::MovI { rd: Reg(1), imm: 1 });
            a.jump("join");
            a.label("else");
            a.arm(ArmIns::MovI { rd: Reg(1), imm: 2 });
            a.label("join");
            a.ret();
        });
        assert_eq!(cfg.block_count(), 4);
        assert_eq!(cfg.succs(0).len(), 2);
        // Both arms join at the return block.
        assert_eq!(cfg.preds()[3], [1, 2]);
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn loop_produces_back_edge() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::MovI { rd: Reg(2), imm: 10 });
            a.label("head");
            a.arm(ArmIns::CmpI { rn: Reg(2), imm: 0 });
            a.arm_b(Cond::Eq, "out");
            a.arm(ArmIns::SubI { rd: Reg(2), rn: Reg(2), imm: 1 });
            a.jump("head");
            a.label("out");
            a.ret();
        });
        let back = cfg.back_edges();
        assert_eq!(back.len(), 1);
        let (from, to) = back[0];
        assert_eq!(to, cfg.addr + 4, "loop head is the second instruction");
        assert!(cfg.is_back_edge(from, to));
        assert!(!cfg.is_back_edge(cfg.addr, to));
    }

    #[test]
    fn call_splits_block_at_return_site() {
        let (bin, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
            a.call("recv");
            a.arm(ArmIns::MovR { rd: Reg(4), rm: Reg(0) });
            a.ret();
        });
        assert_eq!(cfg.block_count(), 2);
        let call_block = cfg.entry_block();
        assert!(matches!(call_block.jumpkind, JumpKind::Call { .. }));
        // The call block's CFG successor is its return site, not the stub.
        let stub = bin.imports[0].stub_addr;
        assert_eq!(succ_addrs(&cfg, cfg.addr), [cfg.addr + 8]);
        assert_ne!(succ_addrs(&cfg, cfg.addr)[0], stub);
    }

    #[test]
    fn branch_into_middle_splits_blocks() {
        // A backward branch into the middle of a straight-line run must
        // split that run into two blocks.
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
            a.label("mid");
            a.arm(ArmIns::AddI { rd: Reg(0), rn: Reg(0), imm: 1 });
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 5 });
            a.arm_b(Cond::Lt, "mid");
            a.ret();
        });
        assert!(cfg.block(cfg.addr + 4).is_some(), "mid is a leader");
        assert_eq!(cfg.back_edges().len(), 1);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let (_, cfg) = build(Arch::Mips32e, |a| {
            a.mips_bne(Reg(4), Reg(5), "other");
            a.ret();
            a.label("other");
            a.ret();
        });
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], cfg.addr);
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    fn mips_cfg_with_loop() {
        let (_, cfg) = build(Arch::Mips32e, |a| {
            a.mips(dtaint_fwbin::mips::MipsIns::Ori { rt: Reg(8), rs: Reg::ZERO, imm: 4 });
            a.label("head");
            a.mips(dtaint_fwbin::mips::MipsIns::Addiu { rt: Reg(8), rs: Reg(8), imm: -1 });
            a.mips_bgtz(Reg(8), "head");
            a.ret();
        });
        assert_eq!(cfg.back_edges().len(), 1);
        assert!(cfg.block_count() >= 3);
    }

    #[test]
    fn loop_blocks_cover_the_cycle_only() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::MovI { rd: Reg(2), imm: 10 }); // pre-header
            a.label("head");
            a.arm(ArmIns::CmpI { rn: Reg(2), imm: 0 });
            a.arm_b(Cond::Eq, "out");
            a.arm(ArmIns::SubI { rd: Reg(2), rn: Reg(2), imm: 1 });
            a.jump("head");
            a.label("out");
            a.ret();
        });
        assert!(in_loop(&cfg, cfg.addr + 4), "loop head in loop");
        assert!(!in_loop(&cfg, cfg.addr), "pre-header not in loop");
        let out = cfg.blocks().last().unwrap().addr;
        assert!(!in_loop(&cfg, out), "exit block not in loop");
    }

    #[test]
    fn loop_blocks_empty_for_acyclic_cfg() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
            a.arm_b(Cond::Eq, "x");
            a.label("x");
            a.ret();
        });
        assert_eq!(cfg.loop_blocks(), [false, false]);
    }

    #[test]
    fn self_loop_detected() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::Nop);
            a.label("spin");
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
            a.arm_b(Cond::Ne, "spin");
            a.ret();
        });
        assert!(in_loop(&cfg, cfg.addr + 4));
        assert!(!in_loop(&cfg, cfg.addr));
    }

    /// A zero-size symbol still has its entry as a leader: one empty
    /// block that falls through to itself.
    #[test]
    fn zero_size_function_is_one_empty_block() {
        let (bin, _) = build(Arch::Arm32e, |a| a.ret());
        let sym = Symbol { size: 0, ..bin.function("f").unwrap().clone() };
        let cfg = build_function_cfg(&bin, &sym).unwrap();
        assert_eq!(cfg.block_count(), 1);
        assert_eq!(cfg.entry_block().size, 0);
        assert_eq!(succ_addrs(&cfg, cfg.addr), [cfg.addr]);
        assert_eq!(cfg.loop_blocks(), [true]);
    }

    #[test]
    fn build_all_cfgs_covers_every_function() {
        let mut f = Assembler::new(Arch::Arm32e);
        f.ret();
        let mut g = Assembler::new(Arch::Arm32e);
        g.ret();
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", f);
        b.add_function("g", g);
        let bin = b.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].name, "f");
        assert_eq!(cfgs[1].name, "g");
    }

    #[test]
    fn block_count_matches_paper_style_accounting() {
        // Sanity for the Table II "Blocks" column: block totals are the sum
        // over functions.
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
            a.arm_b(Cond::Ne, "x");
            a.label("x");
            a.ret();
        });
        assert_eq!(cfg.block_count(), 2);
        // The side exit and the fall-through reach the same block: one edge.
        assert_eq!(succ_addrs(&cfg, cfg.addr), [cfg.addr + 8]);
        assert_eq!(cfg.edge_count(), 1);
    }

    /// Wrapping deltas and `next_const` extremes survive the compact
    /// encoding; anything but exactly one encoding is refused.
    #[test]
    fn compact_shape_round_trips_and_refuses_damage() {
        let addr = 0xffff_fff0;
        let shape = FunctionShape {
            addr,
            name: "f".into(),
            blocks: 300,
            edges: 0,
            instructions: usize::MAX,
            calls: vec![
                CallRow { block: addr, ins_addr: addr + 8, return_to: 0, next_const: Some(0) },
                CallRow { block: 4, ins_addr: 4, return_to: 8, next_const: Some(u32::MAX) },
                CallRow { block: 0x10, ins_addr: 0x1c, return_to: 0x20, next_const: None },
            ],
        };
        let mut bytes = Vec::new();
        shape.encode_compact(&mut bytes);
        assert_eq!(FunctionShape::decode_compact(addr, "f".into(), &bytes), Some(shape));
        for len in 0..bytes.len() {
            assert_eq!(FunctionShape::decode_compact(addr, "f".into(), &bytes[..len]), None);
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(FunctionShape::decode_compact(addr, "f".into(), &long), None);
        // A field past its type's range, and a varint past 64 bits.
        let mut wide = Vec::new();
        for v in [1u64, 1, 1, 1, 1 << 32, 0, 0, 0] {
            put_varint(&mut wide, v);
        }
        assert_eq!(FunctionShape::decode_compact(addr, "f".into(), &wide), None);
        let overlong = [0xffu8; 10].iter().chain(&[1u8]).copied().collect::<Vec<_>>();
        assert_eq!(get_varint(&overlong, &mut 0), None);
        assert_eq!(get_varint(&[0xff, 0xff, 0xff, 0xff, 0x0f], &mut 0), Some(u64::from(u32::MAX)));
    }
}
