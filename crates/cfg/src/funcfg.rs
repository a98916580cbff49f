use dtaint_fwbin::{Binary, Result, Symbol, INS_SIZE};
use dtaint_ir::lift::lift_block;
use dtaint_ir::{IrBlock, JumpKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The control-flow graph of one function.
///
/// Blocks are keyed by start address. Edges within the function are in
/// `succs`/`preds`; a call's only intra-function successor is its return
/// site (the callee is an edge in the [`CallGraph`](crate::CallGraph),
/// not here).
#[derive(Debug, Clone)]
pub struct FunctionCfg {
    /// Entry address (also the function symbol's address).
    pub addr: u32,
    /// Function name from the symbol table.
    pub name: String,
    /// End address (exclusive).
    pub end: u32,
    /// Basic blocks keyed by start address.
    pub blocks: BTreeMap<u32, IrBlock>,
    /// Successor edges.
    pub succs: HashMap<u32, Vec<u32>>,
    /// Predecessor edges.
    pub preds: HashMap<u32, Vec<u32>>,
    /// DFS back edges `(from, to)` — the heads of loops.
    pub back_edges: HashSet<(u32, u32)>,
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
    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of intra-function control-flow edges.
    pub fn edge_count(&self) -> usize {
        self.succs.values().map(Vec::len).sum()
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics when the function is empty (zero-size symbol) — builders
    /// never produce such CFGs.
    pub fn entry_block(&self) -> &IrBlock {
        &self.blocks[&self.addr]
    }

    /// True when `(from, to)` closes a loop.
    pub fn is_back_edge(&self, from: u32, to: u32) -> bool {
        self.back_edges.contains(&(from, to))
    }

    /// Addresses of blocks that are part of some loop (a non-trivial
    /// strongly connected component, or a self-loop).
    ///
    /// The paper's loop-copy sink ("copy statements in the loop", §IV)
    /// queries this set.
    pub fn loop_blocks(&self) -> HashSet<u32> {
        // Iterative Tarjan SCC over the block graph.
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
        let mut self_loops: HashSet<u32> = HashSet::new();
        for (&a, outs) in &self.succs {
            if outs.contains(&a) {
                self_loops.insert(a);
            }
        }
        for &root in self.blocks.keys() {
            if info.contains_key(&root) {
                continue;
            }
            let mut call_stack: Vec<(u32, usize)> = vec![(root, 0)];
            info.insert(root, NodeInfo { index: next_index, lowlink: next_index, on_stack: true });
            scc_stack.push(root);
            next_index += 1;
            while let Some(&mut (node, ref mut idx)) = call_stack.last_mut() {
                let succs = self.succs.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
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
                            let ni = info.get_mut(&node).expect("node visited");
                            ni.lowlink = ni.lowlink.min(s_index);
                        }
                        Some(_) => {}
                    }
                } else {
                    call_stack.pop();
                    let node_info = info[&node];
                    if let Some(&(parent, _)) = call_stack.last() {
                        let pi = info.get_mut(&parent).expect("parent visited");
                        pi.lowlink = pi.lowlink.min(node_info.lowlink);
                    }
                    if node_info.lowlink == node_info.index {
                        // Pop the SCC rooted here.
                        let mut members = Vec::new();
                        loop {
                            let m = scc_stack.pop().expect("scc stack nonempty");
                            info.get_mut(&m).expect("member visited").on_stack = false;
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

    /// The small record this CFG leaves behind once its IR is dropped.
    pub fn shape(&self) -> FunctionShape {
        let calls = self
            .blocks
            .iter()
            .filter_map(|(&block, b)| match b.jumpkind {
                JumpKind::Call { return_to } => Some(CallRow {
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
            name: self.name.clone(),
            blocks: self.block_count(),
            edges: self.edge_count(),
            instructions: self.blocks.values().map(|b| (b.size / INS_SIZE) as usize).sum(),
            calls,
        }
    }

    /// Blocks in reverse post-order from the entry (a topological order
    /// ignoring back edges).
    pub fn rpo(&self) -> Vec<u32> {
        let mut visited = HashSet::new();
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack of (node, next-succ-index).
        let mut stack: Vec<(u32, usize)> = vec![(self.addr, 0)];
        visited.insert(self.addr);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let succs = self.succs.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
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
}

/// Builds the CFG for one function symbol.
///
/// The builder first performs a linear sweep over `[sym.addr, sym.addr +
/// sym.size)` to discover *leaders* (the entry, branch targets, and the
/// instruction after every terminator), then lifts one block per leader,
/// bounded by the next leader. This yields non-overlapping blocks even
/// when branches target the middle of straight-line runs.
///
/// # Errors
///
/// Propagates lifting errors ([`dtaint_fwbin::Error::BadInstruction`] on
/// undecodable words, [`dtaint_fwbin::Error::Truncated`] on unmapped
/// reads, [`dtaint_fwbin::Error::BadSymbol`] when the symbol's address
/// range wraps the 32-bit address space).
pub fn build_function_cfg(bin: &Binary, sym: &Symbol) -> Result<FunctionCfg> {
    let start = sym.addr;
    let end = sym
        .addr
        .checked_add(sym.size)
        .ok_or_else(|| dtaint_fwbin::Error::BadSymbol { name: sym.name.clone(), addr: sym.addr })?;

    // Pass 1: discover leaders by lifting one instruction at a time.
    // Terminator-ness comes from the decoded instruction, not from the
    // lifted shape: a `B +0` (jump to the next instruction) looks exactly
    // like fall-through in the IR but still ends its block in pass 2, so
    // its target must be a leader.
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
            for t in one.exit_targets() {
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
            if pc + INS_SIZE < end && !one.exit_targets().is_empty() {
                leaders.insert(pc + INS_SIZE);
            }
        }
        pc += INS_SIZE;
    }

    // Pass 2: lift one block per leader, bounded by the next leader.
    let mut blocks: BTreeMap<u32, IrBlock> = BTreeMap::new();
    let leader_list: Vec<u32> = leaders.iter().copied().collect();
    for (i, &leader) in leader_list.iter().enumerate() {
        let limit = leader_list.get(i + 1).copied().unwrap_or(end);
        let block = lift_block(bin, leader, limit)?;
        blocks.insert(leader, block);
    }

    // Edges.
    let mut succs: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut preds: HashMap<u32, Vec<u32>> = HashMap::new();
    for (&a, b) in &blocks {
        let mut out: Vec<u32> = Vec::new();
        for t in b.exit_targets() {
            if blocks.contains_key(&t) {
                out.push(t);
            }
        }
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

    // DFS back edges.
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

    Ok(FunctionCfg { addr: start, name: sym.name.clone(), end, blocks, succs, preds, back_edges })
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

    #[test]
    fn straight_line_is_single_block() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::MovI { rd: Reg(0), imm: 1 });
            a.arm(ArmIns::AddI { rd: Reg(0), rn: Reg(0), imm: 2 });
            a.ret();
        });
        assert_eq!(cfg.block_count(), 1);
        assert!(cfg.succs[&cfg.addr].is_empty());
        assert!(cfg.back_edges.is_empty());
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
        let entry_succs = &cfg.succs[&cfg.addr];
        assert_eq!(entry_succs.len(), 2);
        // Both arms join at the return block.
        let join = *cfg.blocks.keys().last().unwrap();
        assert_eq!(cfg.preds[&join].len(), 2);
        assert!(cfg.back_edges.is_empty());
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
        assert_eq!(cfg.back_edges.len(), 1);
        let (_, to) = *cfg.back_edges.iter().next().unwrap();
        assert_eq!(to, cfg.addr + 4, "loop head is the second instruction");
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
        let call_block = &cfg.blocks[&cfg.addr];
        assert!(matches!(call_block.jumpkind, JumpKind::Call { .. }));
        // The call block's CFG successor is its return site, not the stub.
        let stub = bin.imports[0].stub_addr;
        assert_eq!(cfg.succs[&cfg.addr], vec![cfg.addr + 8]);
        assert_ne!(cfg.succs[&cfg.addr][0], stub);
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
        assert!(cfg.blocks.contains_key(&(cfg.addr + 4)), "mid is a leader");
        assert_eq!(cfg.back_edges.len(), 1);
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
        assert_eq!(cfg.back_edges.len(), 1);
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
        let loops = cfg.loop_blocks();
        assert!(loops.contains(&(cfg.addr + 4)), "loop head in loop");
        assert!(!loops.contains(&cfg.addr), "pre-header not in loop");
        let out = *cfg.blocks.keys().last().unwrap();
        assert!(!loops.contains(&out), "exit block not in loop");
    }

    #[test]
    fn loop_blocks_empty_for_acyclic_cfg() {
        let (_, cfg) = build(Arch::Arm32e, |a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
            a.arm_b(Cond::Eq, "x");
            a.label("x");
            a.ret();
        });
        assert!(cfg.loop_blocks().is_empty());
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
        let loops = cfg.loop_blocks();
        assert!(loops.contains(&(cfg.addr + 4)));
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
