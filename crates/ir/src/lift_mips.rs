//! Lifting `mips32e` instructions to IR.

use crate::expr::{BinOp, ExprRef, Width};
use crate::lift::Terminator;
use crate::stmt::{IrBuf, IrStmt};
use dtaint_fwbin::mips::MipsIns;
use dtaint_fwbin::{Reg, Result, INS_SIZE};

/// Reads a register, folding `$zero` to the constant 0.
fn get(out: &mut IrBuf, r: Reg) -> ExprRef {
    if r == Reg::ZERO {
        out.constant(0)
    } else {
        out.get(r)
    }
}

/// `reg = value`, building `value` into `out` first; a write to `$zero`
/// is discarded unbuilt.
fn put(out: &mut IrBuf, reg: Reg, value: impl FnOnce(&mut IrBuf) -> ExprRef) {
    if reg != Reg::ZERO {
        let value = value(out);
        out.stmts.push(IrStmt::Put { reg, value });
    }
}

/// `rs op rt`.
fn rr(out: &mut IrBuf, op: BinOp, rs: Reg, rt: Reg) -> ExprRef {
    let (l, r) = (get(out, rs), get(out, rt));
    out.binop(op, l, r)
}

/// `rs op imm`.
fn ri(out: &mut IrBuf, op: BinOp, rs: Reg, imm: u32) -> ExprRef {
    let (l, r) = (get(out, rs), out.constant(imm));
    out.binop(op, l, r)
}

/// The address `base + off`.
fn reg_plus(out: &mut IrBuf, base: Reg, off: i16) -> ExprRef {
    let b = get(out, base);
    out.add_const(b, off.into())
}

fn load(out: &mut IrBuf, rt: Reg, base: Reg, off: i16, width: Width) {
    put(out, rt, |o| {
        let addr = reg_plus(o, base, off);
        o.load(addr, width)
    });
}

fn store(out: &mut IrBuf, rt: Reg, base: Reg, off: i16, width: Width) {
    let addr = reg_plus(out, base, off);
    let value = get(out, rt);
    out.stmts.push(IrStmt::Store { addr, value, width });
}

/// Lifts one decoded `mips32e` instruction at `pc`, appending its
/// statements to `out`; see [`crate::lift::lift_ins`].
///
/// # Errors
///
/// Returns the decode error for an invalid instruction word.
pub(crate) fn lift_ins(word: u32, pc: u32, out: &mut IrBuf) -> Result<Option<Terminator>> {
    use MipsIns::*;
    let ins = MipsIns::decode(word, pc)?;
    let branch_target =
        |off: i16| (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
    let jump_target =
        |off: i32| (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
    let exit = |out: &mut IrBuf, cond: ExprRef, off: i16| {
        out.stmts.push(IrStmt::Exit { cond, target: branch_target(off) });
        Ok(Some(Terminator::CondBranch))
    };
    match ins {
        Nop => {}
        Addu { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::Add, rs, rt)),
        Addiu { rt, rs, imm } => put(out, rt, |o| reg_plus(o, rs, imm)),
        Subu { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::Sub, rs, rt)),
        And { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::And, rs, rt)),
        Andi { rt, rs, imm } => put(out, rt, |o| ri(o, BinOp::And, rs, imm as u32)),
        Or { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::Or, rs, rt)),
        Ori { rt, rs, imm } => put(out, rt, |o| ri(o, BinOp::Or, rs, imm as u32)),
        Xor { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::Xor, rs, rt)),
        Sll { rd, rt, sh } => put(out, rd, |o| ri(o, BinOp::Shl, rt, sh as u32)),
        Srl { rd, rt, sh } => put(out, rd, |o| ri(o, BinOp::Shr, rt, sh as u32)),
        Mul { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::Mul, rs, rt)),
        Slt { rd, rs, rt } => put(out, rd, |o| rr(o, BinOp::CmpLt, rs, rt)),
        Slti { rt, rs, imm } => put(out, rt, |o| ri(o, BinOp::CmpLt, rs, imm as i32 as u32)),
        Lui { rt, imm } => put(out, rt, |o| o.constant((imm as u32) << 16)),
        Lw { rt, base, off } => load(out, rt, base, off, Width::W32),
        Sw { rt, base, off } => store(out, rt, base, off, Width::W32),
        Lb { rt, base, off } => load(out, rt, base, off, Width::W8),
        Sb { rt, base, off } => store(out, rt, base, off, Width::W8),
        Lh { rt, base, off } => load(out, rt, base, off, Width::W16),
        Sh { rt, base, off } => store(out, rt, base, off, Width::W16),
        // beq x, x is always taken — the assembler's `jump` idiom.
        Beq { rs, rt, off } if rs == rt => {
            return Ok(Some(Terminator::Jump(out.constant(branch_target(off)))));
        }
        Beq { rs, rt, off } => {
            let cond = rr(out, BinOp::CmpEq, rs, rt);
            return exit(out, cond, off);
        }
        // bne x, x is never taken: a jump to the next instruction, which
        // still ends the block like every decoded branch.
        Bne { rs, rt, .. } if rs == rt => {
            return Ok(Some(Terminator::Jump(out.constant(pc + INS_SIZE))));
        }
        Bne { rs, rt, off } => {
            let cond = rr(out, BinOp::CmpNe, rs, rt);
            return exit(out, cond, off);
        }
        Blez { rs, off } => {
            let cond = ri(out, BinOp::CmpLe, rs, 0);
            return exit(out, cond, off);
        }
        Bgtz { rs, off } => {
            let cond = ri(out, BinOp::CmpGt, rs, 0);
            return exit(out, cond, off);
        }
        J { off } => return Ok(Some(Terminator::Jump(out.constant(jump_target(off))))),
        Jal { off } => {
            let return_to = pc + INS_SIZE;
            put(out, Reg::RA, |o| o.constant(return_to));
            let next = out.constant(jump_target(off));
            return Ok(Some(Terminator::Call { next, return_to }));
        }
        Jalr { rs } => {
            let return_to = pc + INS_SIZE;
            put(out, Reg::RA, |o| o.constant(return_to));
            return Ok(Some(Terminator::Call { next: get(out, rs), return_to }));
        }
        Jr { rs } if rs == Reg::RA => return Ok(Some(Terminator::Ret(out.get(Reg::RA)))),
        Jr { rs } => return Ok(Some(Terminator::Jump(get(out, rs)))),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::appended_text;

    /// The IR text of one instruction lifted into an empty buffer: its
    /// statements, then its terminator.
    fn lift(ins: MipsIns, pc: u32) -> Vec<String> {
        let mut ir = IrBuf::default();
        let term = lift_ins(ins.encode().unwrap(), pc, &mut ir).unwrap();
        appended_text(&ir, 0, term)
    }

    #[test]
    fn lui_materialises_high_half() {
        assert_eq!(
            lift(MipsIns::Lui { rt: Reg(4), imm: 0x1234 }, 0),
            ["x4 = 0x12340000", "falls through"]
        );
    }

    #[test]
    fn slt_produces_boolean_compare() {
        assert_eq!(
            lift(MipsIns::Slt { rd: Reg(8), rs: Reg(4), rt: Reg(5) }, 0),
            ["x8 = (x4 < x5)", "falls through"]
        );
    }

    #[test]
    fn bne_same_register_jumps_to_the_next_instruction() {
        assert_eq!(lift(MipsIns::Bne { rs: Reg(4), rt: Reg(4), off: 5 }, 0x20), ["jump 0x24"]);
    }

    #[test]
    fn blez_compares_against_zero() {
        assert_eq!(
            lift(MipsIns::Blez { rs: Reg(2), off: 3 }, 0x100),
            ["if (x2 <= 0x0) goto 0x110", "branches"]
        );
    }

    #[test]
    fn jalr_is_indirect_call() {
        assert_eq!(
            lift(MipsIns::Jalr { rs: Reg(25) }, 0x40),
            ["x31 = 0x44", "call x25 returning to 0x44"]
        );
    }

    #[test]
    fn jr_non_ra_is_indirect_jump() {
        assert_eq!(lift(MipsIns::Jr { rs: Reg(25) }, 0), ["jump x25"]);
    }

    #[test]
    fn lh_sh_are_halfword_accesses() {
        assert_eq!(
            lift(MipsIns::Lh { rt: Reg(8), base: Reg(4), off: 4 }, 0),
            ["x8 = mem16[(x4 + 0x4)]", "falls through"]
        );
        assert_eq!(
            lift(MipsIns::Sh { rt: Reg(8), base: Reg(4), off: 4 }, 0),
            ["mem16[(x4 + 0x4)] = x8", "falls through"]
        );
    }

    #[test]
    fn sb_is_byte_store() {
        assert_eq!(
            lift(MipsIns::Sb { rt: Reg(8), base: Reg(4), off: 1 }, 0),
            ["mem8[(x4 + 0x1)] = x8", "falls through"]
        );
    }
}
