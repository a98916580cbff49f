//! Lifting guest code to IR blocks.

use crate::expr::IrExpr;
use crate::stmt::{IrBlock, IrStmt, JumpKind};
use crate::{lift_arm, lift_mips};
use dtaint_fwbin::{Arch, Binary, Error, Result, INS_SIZE};

/// Upper bound on the bytes lifted into a single block, as a safety net
/// against lifting through data.
pub const MAX_BLOCK_BYTES: u32 = 16 * 1024;

/// How one lifted instruction affects control flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional transfer to an address expression.
    Jump(IrExpr),
    /// A conditional branch: an [`IrStmt::Exit`] has been emitted and the
    /// block falls through to the next instruction.
    CondBranch,
    /// A (direct or indirect) call.
    Call {
        /// Callee address expression.
        next: IrExpr,
        /// Address execution resumes at after the callee returns.
        return_to: u32,
    },
    /// A function return.
    Ret(IrExpr),
}

/// Lifts the one guest instruction at `pc`, appending its statements
/// (without an `Imark`) to `out`, and returns how it ends the block:
/// `None` when control falls through to the next instruction.
///
/// `out` is only appended to — its earlier contents stay as they are —
/// so a caller lifts a whole block, or probes one instruction at a time,
/// into one reused buffer.
///
/// # Errors
///
/// Returns [`Error::Truncated`] when `pc` is outside the mapped text and
/// [`Error::BadInstruction`] when the word fails to decode; `out` is
/// unchanged then.
pub fn lift_ins(bin: &Binary, pc: u32, out: &mut Vec<IrStmt>) -> Result<Option<Terminator>> {
    let word = bin.read_u32(pc).ok_or(Error::Truncated)?;
    match bin.arch {
        Arch::Arm32e => lift_arm::lift_ins(word, pc, out),
        Arch::Mips32e => lift_mips::lift_ins(word, pc, out),
    }
}

/// Lifts one basic block starting at `addr`.
///
/// Lifting stops at the first control-flow instruction, at `limit`
/// (typically the end of the enclosing function), or after
/// [`MAX_BLOCK_BYTES`]. When the block ends without a control-flow
/// instruction it falls through (`JumpKind::Boring` to the next address).
/// Every instruction contributes an [`IrStmt::Imark`] followed by its
/// [`lift_ins`] statements, all appended to the block's one buffer.
///
/// Note that a block ended by a *conditional* branch has the branch
/// recorded as an [`IrStmt::Exit`] side exit and falls through, exactly
/// like VEX superblocks.
///
/// # Errors
///
/// Returns [`Error::BadInstruction`] when a word fails to decode and
/// [`Error::Truncated`] when `addr` is outside the mapped text.
pub fn lift_block(bin: &Binary, addr: u32, limit: u32) -> Result<IrBlock> {
    // Most instructions lift to one statement after their `Imark`. The
    // cap keeps a far `limit` from reserving much more than a typical
    // block (about five instructions) uses.
    let ins = limit.saturating_sub(addr) / INS_SIZE;
    let mut stmts = Vec::with_capacity(2 * ins.min(32) as usize);
    let mut pc = addr;
    while pc < limit && pc - addr < MAX_BLOCK_BYTES {
        stmts.push(IrStmt::Imark { addr: pc, len: INS_SIZE });
        let term = lift_ins(bin, pc, &mut stmts)?;
        pc += INS_SIZE;
        let (next, jumpkind) = match term {
            None => continue,
            Some(Terminator::Jump(e)) => (e, JumpKind::Boring),
            Some(Terminator::CondBranch) => (IrExpr::Const(pc), JumpKind::Boring),
            Some(Terminator::Call { next, return_to }) => (next, JumpKind::Call { return_to }),
            Some(Terminator::Ret(e)) => (e, JumpKind::Ret),
        };
        return Ok(IrBlock { addr, size: pc - addr, stmts, next, jumpkind });
    }
    // Fell off the end (or hit the limit): plain fall-through.
    Ok(IrBlock {
        addr,
        size: pc - addr,
        stmts,
        next: IrExpr::Const(pc),
        jumpkind: JumpKind::Boring,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Width};
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

    fn lift_fn(bin: &Binary) -> IrBlock {
        let f = bin.function("f").unwrap();
        lift_block(bin, f.addr, f.addr + f.size).unwrap()
    }

    /// Checks the contract between the two lifting entry points on every
    /// block of `f`, and on each block cut short one instruction before
    /// its end: `lift_block` is, instruction by instruction, an `Imark`
    /// followed by what `lift_ins` appends; `lift_ins` leaves the
    /// buffer's earlier contents untouched; only the last instruction
    /// terminates, and its terminator gives the block's exit.
    fn assert_blocks_are_their_instructions(bin: &Binary) {
        let f = bin.function("f").unwrap();
        let end = f.addr + f.size;
        let earlier = vec![
            IrStmt::Imark { addr: 0xdead_0000, len: INS_SIZE },
            IrStmt::Put { reg: Reg(7), value: IrExpr::Const(7) },
        ];
        let check = |addr: u32, limit: u32| -> u32 {
            let block = lift_block(bin, addr, limit).unwrap();
            let mut want = Vec::new();
            let mut exit = (IrExpr::Const(block.end()), JumpKind::Boring);
            for pc in (addr..block.end()).step_by(INS_SIZE as usize) {
                let mut buf = earlier.clone();
                let term = lift_ins(bin, pc, &mut buf).unwrap();
                assert_eq!(buf[..earlier.len()], earlier[..], "{pc:#x}: earlier contents kept");
                want.push(IrStmt::Imark { addr: pc, len: INS_SIZE });
                want.extend(buf.drain(earlier.len()..));
                let last = pc + INS_SIZE == block.end();
                assert!(last || term.is_none(), "{pc:#x}: only the last instruction ends a block");
                exit = match term {
                    None => continue,
                    Some(Terminator::Jump(e)) => (e, JumpKind::Boring),
                    Some(Terminator::CondBranch) => (IrExpr::Const(block.end()), JumpKind::Boring),
                    Some(Terminator::Call { next, return_to }) => {
                        (next, JumpKind::Call { return_to })
                    }
                    Some(Terminator::Ret(e)) => (e, JumpKind::Ret),
                };
            }
            assert_eq!(block.stmts, want, "block {addr:#x}..{limit:#x}");
            assert_eq!((block.next.clone(), block.jumpkind), exit, "block {addr:#x}..{limit:#x}");
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

    #[test]
    fn lift_ins_errors_leave_the_buffer_alone() {
        let bin = arm_bin(|a| a.ret());
        let mut buf = vec![IrStmt::Imark { addr: 4, len: INS_SIZE }];
        assert_eq!(lift_ins(&bin, 0xdead_0000, &mut buf).unwrap_err(), Error::Truncated);
        assert_eq!(buf, [IrStmt::Imark { addr: 4, len: INS_SIZE }]);
    }

    #[test]
    fn arm_load_lifts_to_base_plus_offset() {
        // The paper's running example: LDR R1, [R5, 0x4C].
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Ldr { rt: Reg(1), rn: Reg(5), off: 0x4c });
            a.ret();
        });
        let b = lift_fn(&bin);
        assert_eq!(
            b.stmts[1],
            IrStmt::Put {
                reg: Reg(1),
                value: IrExpr::load(
                    IrExpr::binop(BinOp::Add, IrExpr::Get(Reg(5)), IrExpr::Const(0x4c)),
                    Width::W32
                ),
            }
        );
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
        let b = lift_fn(&bin);
        // CMP writes both pseudo-registers.
        assert!(b.stmts.iter().any(|s| matches!(s, IrStmt::Put { reg, .. } if *reg == CMP_L)));
        assert!(b.stmts.iter().any(|s| matches!(s, IrStmt::Put { reg, .. } if *reg == CMP_R)));
        // The branch becomes a side exit with a CmpLt condition.
        let exit = b
            .stmts
            .iter()
            .find_map(|s| match s {
                IrStmt::Exit { cond, target } => Some((cond.clone(), *target)),
                _ => None,
            })
            .expect("exit statement");
        assert_eq!(exit.0, IrExpr::binop(BinOp::CmpLt, IrExpr::Get(CMP_L), IrExpr::Get(CMP_R)));
        assert_eq!(exit.1, bin.function("f").unwrap().addr + 8);
        // Fallthrough next.
        assert_eq!(b.next_const(), Some(bin.function("f").unwrap().addr + 8));
    }

    #[test]
    fn arm_call_sets_link_register_and_jumpkind() {
        let bin = arm_bin(|a| {
            a.call("memcpy");
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let b = lift_block(&bin, f.addr, f.addr + f.size).unwrap();
        assert_eq!(b.jumpkind, JumpKind::Call { return_to: f.addr + 4 });
        let stub = bin.imports[0].stub_addr;
        assert_eq!(b.next_const(), Some(stub));
        assert!(b.stmts.iter().any(|s| matches!(
            s,
            IrStmt::Put { reg: Reg(14), value } if *value == IrExpr::Const(f.addr + 4)
        )));
    }

    #[test]
    fn arm_indirect_call_has_register_next() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Blx { rm: Reg(3) });
            a.ret();
        });
        let b = lift_fn(&bin);
        assert_eq!(b.next, IrExpr::Get(Reg(3)));
        assert!(matches!(b.jumpkind, JumpKind::Call { .. }));
    }

    #[test]
    fn arm_push_pop_expand_to_memory_ops() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Push { mask: 0b1_0011 }); // r0, r1, r4
            a.arm(ArmIns::Pop { mask: 0b1_0011 });
            a.ret();
        });
        let b = lift_fn(&bin);
        let stores = b.stmts.iter().filter(|s| matches!(s, IrStmt::Store { .. })).count();
        assert_eq!(stores, 3);
        let sp_writes = b
            .stmts
            .iter()
            .filter(|s| matches!(s, IrStmt::Put { reg, .. } if *reg == Reg::SP))
            .count();
        assert_eq!(sp_writes, 2, "one SP update per push/pop");
        // r0 is pushed at the lowest address: sp - 12.
        assert!(b.stmts.iter().any(|s| matches!(
            s,
            IrStmt::Store { addr: IrExpr::Binop { op: BinOp::Add, rhs, .. }, value, .. }
                if **rhs == IrExpr::Const((-12i32) as u32) && *value == IrExpr::Get(Reg(0))
        )));
    }

    #[test]
    fn mips_zero_register_folds_to_constant() {
        let bin = mips_bin(|a| {
            a.mips(MipsIns::Addu { rd: Reg(2), rs: Reg(0), rt: Reg(4) });
            a.ret();
        });
        let b = lift_fn(&bin);
        assert_eq!(
            b.stmts[1],
            IrStmt::Put {
                reg: Reg(2),
                value: IrExpr::binop(BinOp::Add, IrExpr::Const(0), IrExpr::Get(Reg(4))),
            }
        );
    }

    #[test]
    fn mips_write_to_zero_register_is_dropped() {
        let bin = mips_bin(|a| {
            a.mips(MipsIns::Addiu { rt: Reg(0), rs: Reg(4), imm: 1 });
            a.ret();
        });
        let b = lift_fn(&bin);
        assert!(
            !b.stmts.iter().any(|s| matches!(s, IrStmt::Put { .. })),
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
        let b = lift_fn(&bin);
        assert_eq!(b.exit_targets().count(), 1);
        assert!(b.stmts.iter().any(|s| matches!(
            s,
            IrStmt::Exit { cond: IrExpr::Binop { op: BinOp::CmpNe, .. }, .. }
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
        let b = lift_block(&bin, f.addr, f.addr + f.size).unwrap();
        assert_eq!(b.jumpkind, JumpKind::Boring);
        assert_eq!(b.next_const(), Some(f.addr + 8));
        assert_eq!(b.exit_targets().next(), None);
        assert_eq!(b.size, 4);
    }

    #[test]
    fn mips_call_and_ret() {
        let bin = mips_bin(|a| {
            a.call("memcpy");
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let b = lift_block(&bin, f.addr, f.addr + f.size).unwrap();
        assert!(matches!(b.jumpkind, JumpKind::Call { .. }));
        let b2 = lift_block(&bin, f.addr + 4, f.addr + f.size).unwrap();
        assert_eq!(b2.jumpkind, JumpKind::Ret);
        assert_eq!(b2.next, IrExpr::Get(Reg::RA));
    }

    #[test]
    fn lift_stops_at_limit() {
        let bin = arm_bin(|a| {
            a.arm(ArmIns::Nop);
            a.arm(ArmIns::Nop);
            a.ret();
        });
        let f = bin.function("f").unwrap();
        let b = lift_block(&bin, f.addr, f.addr + 4).unwrap();
        assert_eq!(b.size, 4);
        assert_eq!(b.jumpkind, JumpKind::Boring);
        assert_eq!(b.next_const(), Some(f.addr + 4));
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
        let b = lift_fn(&bin);
        let IrStmt::Put { value, .. } = &b.stmts[1] else { panic!() };
        let s = value.to_string();
        assert!(s.contains("0xffff"), "movt keeps low bits: {s}");
        assert!(s.contains("0x12340000"), "movt installs high bits: {s}");
    }
}
