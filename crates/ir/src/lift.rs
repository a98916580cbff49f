//! Lifting guest code to IR blocks.

use crate::expr::ExprRef;
use crate::stmt::{IrBlock, IrBuf, IrStmt, JumpKind};
use crate::{lift_arm, lift_mips};
use dtaint_fwbin::{Arch, Binary, Error, Result, INS_SIZE};

/// Upper bound on the bytes lifted into a single block, as a safety net
/// against lifting through data.
pub const MAX_BLOCK_BYTES: u32 = 16 * 1024;

/// How one lifted instruction affects control flow. Its expressions are
/// nodes of the buffer the instruction was lifted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional transfer to an address expression.
    Jump(ExprRef),
    /// A conditional branch: an [`IrStmt::Exit`] has been emitted and the
    /// block falls through to the next instruction.
    CondBranch,
    /// A (direct or indirect) call.
    Call {
        /// Callee address expression.
        next: ExprRef,
        /// Address execution resumes at after the callee returns.
        return_to: u32,
    },
    /// A function return.
    Ret(ExprRef),
}

impl Terminator {
    /// The exit of a block that ends with `term` (or, for `None`, runs
    /// out of instructions) just before `fall`: where control goes next,
    /// and how. A fall-through appends its `fall` constant to `ir`.
    pub fn block_exit(term: Option<Terminator>, fall: u32, ir: &mut IrBuf) -> (ExprRef, JumpKind) {
        match term {
            None | Some(Terminator::CondBranch) => (ir.constant(fall), JumpKind::Boring),
            Some(Terminator::Jump(e)) => (e, JumpKind::Boring),
            Some(Terminator::Call { next, return_to }) => (next, JumpKind::Call { return_to }),
            Some(Terminator::Ret(e)) => (e, JumpKind::Ret),
        }
    }
}

/// Lifts the one guest instruction at `pc`, appending its statements
/// (without an `Imark`) and their expression nodes to `out`, and returns
/// how it ends the block: `None` when control falls through to the next
/// instruction. An instruction ends its block exactly when it decodes as
/// a terminator (`is_terminator`).
///
/// `out` is only appended to — its earlier contents stay as they are —
/// so a caller lifts a whole block, or a whole function, into one
/// buffer.
///
/// # Errors
///
/// Returns [`Error::Truncated`] when `pc` is outside the mapped text and
/// [`Error::BadInstruction`] when the word fails to decode; `out` is
/// unchanged then.
pub fn lift_ins(bin: &Binary, pc: u32, out: &mut IrBuf) -> Result<Option<Terminator>> {
    let word = bin.read_u32(pc).ok_or(Error::Truncated)?;
    match bin.arch {
        Arch::Arm32e => lift_arm::lift_ins(word, pc, out),
        Arch::Mips32e => lift_mips::lift_ins(word, pc, out),
    }
}

/// Lifts one basic block starting at `addr` into a buffer of its own.
///
/// Lifting stops at the first control-flow instruction, at `limit`
/// (typically the end of the enclosing function), or after
/// [`MAX_BLOCK_BYTES`]. When the block ends without a control-flow
/// instruction it falls through (`JumpKind::Boring` to the next address).
/// Every instruction contributes an [`IrStmt::Imark`] followed by its
/// [`lift_ins`] statements, all appended to the block's one buffer.
///
/// This is the reference a function's CFG is cut from
/// (`dtaint_cfg::build_function_cfg` lifts each instruction once into
/// one buffer for the whole function, with the same block rules).
///
/// Note that a block ended by a *conditional* branch has the branch
/// recorded as an [`IrStmt::Exit`] side exit and falls through, exactly
/// like VEX superblocks.
///
/// # Errors
///
/// Returns [`Error::BadInstruction`] when a word fails to decode and
/// [`Error::Truncated`] when `addr` is outside the mapped text.
pub fn lift_block(bin: &Binary, addr: u32, limit: u32) -> Result<(IrBlock, IrBuf)> {
    // Most instructions lift to one statement after their `Imark`. The
    // cap keeps a far `limit` from reserving much more than a typical
    // block (about five instructions) uses.
    let ins = limit.saturating_sub(addr) / INS_SIZE;
    let n = ins.min(32) as usize;
    let mut ir = IrBuf::with_capacity(2 * n, 3 * n);
    let mut pc = addr;
    let mut term = None;
    while term.is_none() && pc < limit && pc - addr < MAX_BLOCK_BYTES {
        ir.stmts.push(IrStmt::Imark { addr: pc, len: INS_SIZE });
        term = lift_ins(bin, pc, &mut ir)?;
        pc += INS_SIZE;
    }
    let (next, jumpkind) = Terminator::block_exit(term, pc, &mut ir);
    let stmt_end = ir.stmts.len() as u32;
    Ok((IrBlock { addr, size: pc - addr, stmt_start: 0, stmt_end, next, jumpkind }, ir))
}

/// The IR text of what one [`lift_ins`] appended to `ir` from statement
/// `from` on: each statement, then the terminator.
#[cfg(test)]
pub(crate) fn appended_text(ir: &IrBuf, from: usize, term: Option<Terminator>) -> Vec<String> {
    let mut out: Vec<String> = ir.stmts[from..].iter().map(|&s| ir.show(s).to_string()).collect();
    out.push(match term {
        None => "falls through".to_owned(),
        Some(Terminator::CondBranch) => "branches".to_owned(),
        Some(Terminator::Jump(e)) => format!("jump {}", ir.show(e)),
        Some(Terminator::Call { next, return_to }) => {
            format!("call {} returning to {return_to:#x}", ir.show(next))
        }
        Some(Terminator::Ret(e)) => format!("ret {}", ir.show(e)),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, IrExpr, Width};
    use crate::{CMP_L, CMP_R};
    use dtaint_fwbin::arm::{ArmIns, Cond};
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::mips::MipsIns;
    use dtaint_fwbin::Reg;

    fn arm_bin(build: impl FnOnce(&mut Assembler)) -> Binary {
        let mut a = Assembler::new(Arch::Arm32e);
        build(&mut a);
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", a);
        b.add_import("memcpy");
        b.link().unwrap()
    }

    fn mips_bin(build: impl FnOnce(&mut Assembler)) -> Binary {
        let mut a = Assembler::new(Arch::Mips32e);
        build(&mut a);
        let mut b = BinaryBuilder::new(Arch::Mips32e);
        b.add_function("f", a);
        b.add_import("memcpy");
        b.link().unwrap()
    }

    fn lift_fn(bin: &Binary) -> (IrBlock, IrBuf) {
        let f = bin.function("f").unwrap();
        lift_block(bin, f.addr, f.addr + f.size).unwrap()
    }

    /// The block's statements as IR text.
    fn stmt_text(b: &IrBlock, ir: &IrBuf) -> Vec<String> {
        b.stmts(ir).iter().map(|&s| ir.show(s).to_string()).collect()
    }

    /// Checks the contract between the two lifting entry points on every
    /// block of `f`, and on each block cut short one instruction before
    /// its end: `lift_block`'s buffer is, instruction by instruction, an
    /// `Imark` followed by what `lift_ins` appends, node for node;
    /// `lift_ins` leaves the buffer's earlier contents untouched and
    /// appends the same IR onto them; only the last instruction
    /// terminates, and its terminator gives the block's exit.
    fn assert_blocks_are_their_instructions(bin: &Binary) {
        let f = bin.function("f").unwrap();
        let end = f.addr + f.size;
        let mut earlier = IrBuf::default();
        earlier.stmts.push(IrStmt::Imark { addr: 0xdead_0000, len: INS_SIZE });
        let seven = earlier.constant(7);
        earlier.stmts.push(IrStmt::Put { reg: Reg(7), value: seven });
        let check = |addr: u32, limit: u32| -> u32 {
            let (block, ir) = lift_block(bin, addr, limit).unwrap();
            let mut want = IrBuf::default();
            let mut term = None;
            for pc in (addr..block.end()).step_by(INS_SIZE as usize) {
                assert!(term.is_none(), "{pc:#x}: only the last instruction ends a block");
                let mut buf = earlier.clone();
                let onto = lift_ins(bin, pc, &mut buf).unwrap();
                assert_eq!(buf.stmts[..2], earlier.stmts[..], "{pc:#x}: earlier statements kept");
                assert_eq!(buf.exprs[..1], earlier.exprs[..], "{pc:#x}: earlier nodes kept");
                want.stmts.push(IrStmt::Imark { addr: pc, len: INS_SIZE });
                let from = want.stmts.len();
                term = lift_ins(bin, pc, &mut want).unwrap();
                assert_eq!(
                    appended_text(&buf, 2, onto),
                    appended_text(&want, from, term),
                    "{pc:#x}: the same IR onto earlier contents"
                );
            }
            let exit = match term {
                None | Some(Terminator::CondBranch) => {
                    (want.constant(block.end()), JumpKind::Boring)
                }
                Some(Terminator::Jump(e)) => (e, JumpKind::Boring),
                Some(Terminator::Call { next, return_to }) => (next, JumpKind::Call { return_to }),
                Some(Terminator::Ret(e)) => (e, JumpKind::Ret),
            };
            assert_eq!(ir, want, "block {addr:#x}..{limit:#x}");
            assert_eq!((block.next, block.jumpkind), exit, "block {addr:#x}..{limit:#x}");
            assert_eq!((block.stmt_start, block.stmt_end as usize), (0, want.stmts.len()));
            block.end()
        };
        let mut pc = f.addr;
        let mut blocks = 0;
        while pc < end {
            let next = check(pc, end);
            if next - pc > INS_SIZE {
                check(pc, next - INS_SIZE);
            }
            pc = next;
            blocks += 1;
        }
        assert!(blocks >= 4, "the range spans several blocks");
    }

    #[test]
    fn arm_lift_block_is_imark_plus_lift_ins_per_instruction() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Push { mask: 0b0100_0000_0011_0000 });
            a.arm(ArmIns::Ldr { rt: Reg(1), rn: Reg(5), off: 0x4c });
            a.arm(ArmIns::MovT { rd: Reg(2), imm: 0x1234 });
            a.arm(ArmIns::Strb { rt: Reg(1), rn: Reg::SP, off: -3 });
            a.arm(ArmIns::CmpI { rn: Reg(1), imm: 64 });
            a.arm_b(Cond::Ge, "out");
            a.arm(ArmIns::LslI { rd: Reg(3), rn: Reg(1), sh: 2 });
            a.arm(ArmIns::Ldrh { rt: Reg(0), rn: Reg(3), off: 6 });
            a.call("memcpy");
            a.arm(ArmIns::Blx { rm: Reg(3) });
            a.arm(ArmIns::EorR { rd: Reg(0), rn: Reg(0), rm: Reg(0) });
            a.jump("out");
            a.label("out");
            a.arm(ArmIns::Pop { mask: 0b0100_0000_0011_0000 });
            a.ret();
        });
        assert_blocks_are_their_instructions(&bin);
    }

    #[test]
    fn mips_lift_block_is_imark_plus_lift_ins_per_instruction() {
        let bin = mips_bin(|a| {
            a.mips(MipsIns::Addiu { rt: Reg::SP, rs: Reg::SP, imm: -32 });
            a.mips(MipsIns::Lw { rt: Reg(8), base: Reg(4), off: 8 });
            a.mips(MipsIns::Addu { rd: Reg(0), rs: Reg(8), rt: Reg(5) });
            a.mips(MipsIns::Sh { rt: Reg(8), base: Reg::SP, off: 2 });
            a.mips(MipsIns::Slt { rd: Reg(9), rs: Reg(8), rt: Reg(0) });
            a.mips_beq(Reg(9), Reg::ZERO, "out");
            a.mips(MipsIns::Lui { rt: Reg(10), imm: 0x40 });
            a.mips(MipsIns::Bne { rs: Reg(4), rt: Reg(4), off: 3 });
            a.mips(MipsIns::Lb { rt: Reg(11), base: Reg(10), off: -1 });
            a.call("memcpy");
            a.call_reg(Reg(25));
            a.mips_bgtz(Reg(8), "out");
            a.jump("out");
            a.label("out");
            a.ret();
        });
        assert_blocks_are_their_instructions(&bin);
    }

    /// Every word that decodes ends its block under `lift_ins` exactly
    /// when it decodes as a terminator, so a CFG builder can take its
    /// leaders from the lifted terminators alone.
    #[test]
    fn lift_ins_terminates_exactly_on_decoded_terminators() {
        for arch in [Arch::Arm32e, Arch::Mips32e] {
            let mut asm = Assembler::new(arch);
            for op in 0..64u32 {
                for r in [0u32, 4, 13, 31] {
                    for imm in [0u32, 3, 0x7ff, 0xffff] {
                        let word = op << 26 | r << 21 | (r ^ 1) << 16 | r << 11 | imm;
                        let twin = op << 26 | r << 21 | r << 16 | imm;
                        for w in [word, twin] {
                            match arch {
                                Arch::Arm32e => match ArmIns::decode(w, 0) {
                                    Ok(ins) if ins.encode().is_ok() => asm.arm(ins),
                                    _ => {}
                                },
                                Arch::Mips32e => match MipsIns::decode(w, 0) {
                                    Ok(ins) if ins.encode().is_ok() => asm.mips(ins),
                                    _ => {}
                                },
                            }
                        }
                    }
                }
            }
            let mut b = BinaryBuilder::new(arch);
            b.add_function("every_word", asm);
            let bin = b.link().unwrap();
            let f = bin.function("every_word").unwrap();
            let mut ir = IrBuf::default();
            let mut terminators = 0;
            for pc in (f.addr..f.addr + f.size).step_by(INS_SIZE as usize) {
                let word = bin.read_u32(pc).unwrap();
                let decoded = match arch {
                    Arch::Arm32e => ArmIns::decode(word, pc).unwrap().is_terminator(),
                    Arch::Mips32e => MipsIns::decode(word, pc).unwrap().is_terminator(),
                };
                let term = lift_ins(&bin, pc, &mut ir).unwrap();
                assert_eq!(term.is_some(), decoded, "{arch:?} word {word:#010x} at {pc:#x}");
                terminators += usize::from(decoded);
            }
            assert!(terminators > 8, "{arch:?}: the sweep covers the branches");
        }
    }

    #[test]
    fn lift_ins_errors_leave_the_buffer_alone() {
        let bin = arm_bin(|a| a.ret());
        let mut buf = IrBuf::default();
        buf.stmts.push(IrStmt::Imark { addr: 4, len: INS_SIZE });
        buf.constant(1);
        let before = buf.clone();
        assert_eq!(lift_ins(&bin, 0xdead_0000, &mut buf).unwrap_err(), Error::Truncated);
        assert_eq!(buf, before);
    }

    #[test]
    fn arm_load_lifts_to_base_plus_offset() {
        // The paper's running example: LDR R1, [R5, 0x4C].
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Ldr { rt: Reg(1), rn: Reg(5), off: 0x4c });
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        let IrStmt::Put { reg, value } = b.stmts(&ir)[1] else { panic!() };
        assert_eq!(reg, Reg(1));
        let IrExpr::Load { addr, width: Width::W32 } = ir.expr(value) else { panic!() };
        let IrExpr::Binop { op: BinOp::Add, lhs, rhs } = ir.expr(addr) else { panic!() };
        assert_eq!((ir.expr(lhs), ir.expr(rhs)), (IrExpr::Get(Reg(5)), IrExpr::Const(0x4c)));
        assert_eq!(ir.show(value).to_string(), "mem32[(x5 + 0x4c)]");
        assert_eq!(b.jumpkind, JumpKind::Ret);
    }

    #[test]
    fn arm_cmp_and_branch_produce_exit() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 64 });
            a.arm_b(Cond::Lt, "ok");
            a.label("ok");
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        let stmts = b.stmts(&ir);
        // CMP writes both pseudo-registers.
        assert!(stmts.iter().any(|s| matches!(s, IrStmt::Put { reg, .. } if *reg == CMP_L)));
        assert!(stmts.iter().any(|s| matches!(s, IrStmt::Put { reg, .. } if *reg == CMP_R)));
        // The branch becomes a side exit with a CmpLt condition.
        let (cond, target) = stmts
            .iter()
            .find_map(|s| match *s {
                IrStmt::Exit { cond, target } => Some((cond, target)),
                _ => None,
            })
            .expect("exit statement");
        let IrExpr::Binop { op: BinOp::CmpLt, lhs, rhs } = ir.expr(cond) else { panic!() };
        assert_eq!((ir.expr(lhs), ir.expr(rhs)), (IrExpr::Get(CMP_L), IrExpr::Get(CMP_R)));
        assert_eq!(target, bin.function("f").unwrap().addr + 8);
        // Fallthrough next.
        assert_eq!(b.next_const(&ir), Some(bin.function("f").unwrap().addr + 8));
    }

    #[test]
    fn arm_call_sets_link_register_and_jumpkind() {
        let bin = arm_bin(|a| {
            a.call("memcpy");
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let (b, ir) = lift_block(&bin, f.addr, f.addr + f.size).unwrap();
        assert_eq!(b.jumpkind, JumpKind::Call { return_to: f.addr + 4 });
        let stub = bin.imports[0].stub_addr;
        assert_eq!(b.next_const(&ir), Some(stub));
        assert!(b.stmts(&ir).iter().any(|s| matches!(
            *s,
            IrStmt::Put { reg: Reg(14), value } if ir.expr(value) == IrExpr::Const(f.addr + 4)
        )));
    }

    #[test]
    fn arm_indirect_call_has_register_next() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Blx { rm: Reg(3) });
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        assert_eq!(ir.expr(b.next), IrExpr::Get(Reg(3)));
        assert!(matches!(b.jumpkind, JumpKind::Call { .. }));
    }

    #[test]
    fn arm_push_pop_expand_to_memory_ops() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Push { mask: 0b1_0011 }); // r0, r1, r4
            a.arm(ArmIns::Pop { mask: 0b1_0011 });
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        let stmts = b.stmts(&ir);
        let stores = stmts.iter().filter(|s| matches!(s, IrStmt::Store { .. })).count();
        assert_eq!(stores, 3);
        let sp_writes = stmts
            .iter()
            .filter(|s| matches!(s, IrStmt::Put { reg, .. } if *reg == Reg::SP))
            .count();
        assert_eq!(sp_writes, 2, "one SP update per push/pop");
        // r0 is pushed at the lowest address: sp - 12.
        assert!(stmt_text(&b, &ir).contains(&"mem32[(x13 + 0xfffffff4)] = x0".to_owned()));
    }

    #[test]
    fn mips_zero_register_folds_to_constant() {
        let bin = mips_bin(|a| {
            a.mips(MipsIns::Addu { rd: Reg(2), rs: Reg(0), rt: Reg(4) });
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        assert_eq!(stmt_text(&b, &ir)[1], "x2 = (0x0 + x4)");
    }

    #[test]
    fn mips_write_to_zero_register_is_dropped() {
        let bin = mips_bin(|a| {
            a.mips(MipsIns::Addiu { rt: Reg(0), rs: Reg(4), imm: 1 });
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        assert!(
            !b.stmts(&ir).iter().any(|s| matches!(s, IrStmt::Put { .. })),
            "writes to $zero must vanish"
        );
    }

    #[test]
    fn mips_compare_and_branch_is_single_exit() {
        let bin = mips_bin(|a| {
            a.mips_bne(Reg(4), Reg(5), "out");
            a.label("out");
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        assert_eq!(b.exit_targets(&ir).count(), 1);
        assert!(b.stmts(&ir).iter().any(|s| matches!(
            *s,
            IrStmt::Exit { cond, .. } if matches!(ir.expr(cond), IrExpr::Binop { op: BinOp::CmpNe, .. })
        )));
    }

    #[test]
    fn mips_beq_zero_zero_is_unconditional() {
        // The assembler's `jump` idiom.
        let bin = mips_bin(|a| {
            a.jump("out");
            a.mips(MipsIns::Nop);
            a.label("out");
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let (b, ir) = lift_block(&bin, f.addr, f.addr + f.size).unwrap();
        assert_eq!(b.jumpkind, JumpKind::Boring);
        assert_eq!(b.next_const(&ir), Some(f.addr + 8));
        assert_eq!(b.exit_targets(&ir).next(), None);
        assert_eq!(b.size, 4);
    }

    #[test]
    fn mips_call_and_ret() {
        let bin = mips_bin(|a| {
            a.call("memcpy");
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let (b, _) = lift_block(&bin, f.addr, f.addr + f.size).unwrap();
        assert!(matches!(b.jumpkind, JumpKind::Call { .. }));
        let (b2, ir) = lift_block(&bin, f.addr + 4, f.addr + f.size).unwrap();
        assert_eq!(b2.jumpkind, JumpKind::Ret);
        assert_eq!(ir.expr(b2.next), IrExpr::Get(Reg::RA));
    }

    #[test]
    fn lift_stops_at_limit() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Nop);
            a.arm(ArmIns::Nop);
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let (b, ir) = lift_block(&bin, f.addr, f.addr + 4).unwrap();
        assert_eq!(b.size, 4);
        assert_eq!(b.jumpkind, JumpKind::Boring);
        assert_eq!(b.next_const(&ir), Some(f.addr + 4));
    }

    #[test]
    fn lift_unmapped_address_errors() {
        let bin = arm_bin(|a| a.ret());
        assert_eq!(lift_block(&bin, 0xdead_0000, 0xdead_0010).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn movt_preserves_low_half() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::MovT { rd: Reg(2), imm: 0x1234 });
            a.ret();
        });
        let (b, ir) = lift_fn(&bin);
        assert_eq!(stmt_text(&b, &ir)[1], "x2 = ((x2 & 0xffff) | 0x12340000)");
    }
}
