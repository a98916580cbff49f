//! Lifting `arm32e` instructions to IR.

use crate::expr::{BinOp, ExprRef, Width};
use crate::lift::Terminator;
use crate::stmt::{IrBuf, IrStmt};
use crate::{CMP_L, CMP_R};
use dtaint_fwbin::arm::{ArmIns, Cond};
use dtaint_fwbin::{Reg, Result, INS_SIZE};

/// `reg = value`, building `value` into `out` first.
fn put(out: &mut IrBuf, reg: Reg, value: impl FnOnce(&mut IrBuf) -> ExprRef) {
    let value = value(out);
    out.stmts.push(IrStmt::Put { reg, value });
}

/// `rn op rm`.
fn rr(out: &mut IrBuf, op: BinOp, rn: Reg, rm: Reg) -> ExprRef {
    let (l, r) = (out.get(rn), out.get(rm));
    out.binop(op, l, r)
}

/// `rn op imm`.
fn ri(out: &mut IrBuf, op: BinOp, rn: Reg, imm: u32) -> ExprRef {
    let (l, r) = (out.get(rn), out.constant(imm));
    out.binop(op, l, r)
}

/// The address `rn + off`.
fn reg_plus(out: &mut IrBuf, rn: Reg, off: i32) -> ExprRef {
    let base = out.get(rn);
    out.add_const(base, off)
}

fn store(out: &mut IrBuf, rt: Reg, rn: Reg, off: i32, width: Width) {
    let addr = reg_plus(out, rn, off);
    let value = out.get(rt);
    out.stmts.push(IrStmt::Store { addr, value, width });
}

fn load(out: &mut IrBuf, rt: Reg, rn: Reg, off: i32, width: Width) {
    put(out, rt, |o| {
        let addr = reg_plus(o, rn, off);
        o.load(addr, width)
    });
}

fn cond_to_op(c: Cond) -> BinOp {
    match c {
        Cond::Eq => BinOp::CmpEq,
        Cond::Ne => BinOp::CmpNe,
        Cond::Lt => BinOp::CmpLt,
        Cond::Ge => BinOp::CmpGe,
        Cond::Le => BinOp::CmpLe,
        Cond::Gt => BinOp::CmpGt,
        Cond::Al => unreachable!("AL handled as an unconditional jump"),
    }
}

/// Lifts one decoded `arm32e` instruction at `pc`, appending its
/// statements to `out`; see [`crate::lift::lift_ins`].
///
/// # Errors
///
/// Returns the decode error for an invalid instruction word.
pub(crate) fn lift_ins(word: u32, pc: u32, out: &mut IrBuf) -> Result<Option<Terminator>> {
    use ArmIns::*;
    let ins = ArmIns::decode(word, pc)?;
    match ins {
        Nop => {}
        MovR { rd, rm } => put(out, rd, |o| o.get(rm)),
        MovI { rd, imm } => put(out, rd, |o| o.constant(imm as u32)),
        MovT { rd, imm } => put(out, rd, |o| {
            let low = ri(o, BinOp::And, rd, 0xffff);
            let high = o.constant((imm as u32) << 16);
            o.binop(BinOp::Or, low, high)
        }),
        AddR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Add, rn, rm)),
        AddI { rd, rn, imm } => put(out, rd, |o| reg_plus(o, rn, imm as i32)),
        SubR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Sub, rn, rm)),
        SubI { rd, rn, imm } => put(out, rd, |o| ri(o, BinOp::Sub, rn, imm as i32 as u32)),
        Mul { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Mul, rn, rm)),
        AndR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::And, rn, rm)),
        OrrR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Or, rn, rm)),
        EorR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Xor, rn, rm)),
        LslI { rd, rn, sh } => put(out, rd, |o| ri(o, BinOp::Shl, rn, sh as u32)),
        LsrI { rd, rn, sh } => put(out, rd, |o| ri(o, BinOp::Shr, rn, sh as u32)),
        LslR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Shl, rn, rm)),
        LsrR { rd, rn, rm } => put(out, rd, |o| rr(o, BinOp::Shr, rn, rm)),
        CmpR { rn, rm } => {
            put(out, CMP_L, |o| o.get(rn));
            put(out, CMP_R, |o| o.get(rm));
        }
        CmpI { rn, imm } => {
            put(out, CMP_L, |o| o.get(rn));
            put(out, CMP_R, |o| o.constant(imm as i32 as u32));
        }
        Ldr { rt, rn, off } => load(out, rt, rn, off.into(), Width::W32),
        Str { rt, rn, off } => store(out, rt, rn, off.into(), Width::W32),
        Ldrb { rt, rn, off } => load(out, rt, rn, off.into(), Width::W8),
        Strb { rt, rn, off } => store(out, rt, rn, off.into(), Width::W8),
        Ldrh { rt, rn, off } => load(out, rt, rn, off.into(), Width::W16),
        Strh { rt, rn, off } => store(out, rt, rn, off.into(), Width::W16),
        Push { mask } => {
            let regs = (0..16).filter(|i| mask & (1 << i) != 0).map(Reg);
            let n = mask.count_ones() as i32;
            // Lowest-numbered register lands at the lowest address.
            for (rank, r) in regs.enumerate() {
                store(out, r, Reg::SP, -(4 * (n - rank as i32)), Width::W32);
            }
            put(out, Reg::SP, |o| ri(o, BinOp::Sub, Reg::SP, 4 * n as u32));
        }
        Pop { mask } => {
            let regs = (0..16).filter(|i| mask & (1 << i) != 0).map(Reg);
            let n = mask.count_ones();
            for (rank, r) in regs.enumerate() {
                load(out, r, Reg::SP, 4 * rank as i32, Width::W32);
            }
            put(out, Reg::SP, |o| ri(o, BinOp::Add, Reg::SP, 4 * n));
        }
        B { cond, off } => {
            let target = (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
            if cond == Cond::Al {
                return Ok(Some(Terminator::Jump(out.constant(target))));
            }
            let cond = rr(out, cond_to_op(cond), CMP_L, CMP_R);
            out.stmts.push(IrStmt::Exit { cond, target });
            return Ok(Some(Terminator::CondBranch));
        }
        Bl { off } => {
            let target = (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
            let return_to = pc + INS_SIZE;
            put(out, Reg::LR, |o| o.constant(return_to));
            return Ok(Some(Terminator::Call { next: out.constant(target), return_to }));
        }
        Blx { rm } => {
            let return_to = pc + INS_SIZE;
            put(out, Reg::LR, |o| o.constant(return_to));
            return Ok(Some(Terminator::Call { next: out.get(rm), return_to }));
        }
        Bx { rm } if rm == Reg::LR => return Ok(Some(Terminator::Ret(out.get(Reg::LR)))),
        Bx { rm } => return Ok(Some(Terminator::Jump(out.get(rm)))),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::appended_text;

    /// The IR text of one instruction lifted into an empty buffer: its
    /// statements, then its terminator.
    fn lift(ins: ArmIns, pc: u32) -> Vec<String> {
        let mut ir = IrBuf::default();
        let term = lift_ins(ins.encode().unwrap(), pc, &mut ir).unwrap();
        appended_text(&ir, 0, term)
    }

    #[test]
    fn branch_target_arithmetic() {
        // B with offset -2 at pc=0x100: target = 0x100 + 4 - 8 = 0xfc.
        assert_eq!(lift(ArmIns::B { cond: Cond::Al, off: -2 }, 0x100), ["jump 0xfc"]);
    }

    #[test]
    fn conditional_branch_keeps_fallthrough() {
        assert_eq!(
            lift(ArmIns::B { cond: Cond::Ne, off: 4 }, 0x200),
            ["if (x100 != x101) goto 0x214", "branches"]
        );
    }

    #[test]
    fn bl_records_return_address() {
        assert_eq!(
            lift(ArmIns::Bl { off: 10 }, 0x400),
            ["x14 = 0x404", "call 0x42c returning to 0x404"]
        );
    }

    #[test]
    fn bx_non_lr_is_plain_indirect_jump() {
        assert_eq!(lift(ArmIns::Bx { rm: Reg(3) }, 0), ["jump x3"]);
        assert_eq!(lift(ArmIns::Bx { rm: Reg::LR }, 0), ["ret x14"]);
    }

    #[test]
    fn push_order_matches_arm_convention() {
        // push {r0, r4}: r0 at sp-8, r4 at sp-4, sp -= 8.
        assert_eq!(
            lift(ArmIns::Push { mask: 0b1_0001 }, 0),
            [
                "mem32[(x13 + 0xfffffff8)] = x0",
                "mem32[(x13 + 0xfffffffc)] = x4",
                "x13 = (x13 - 0x8)",
                "falls through"
            ]
        );
    }

    #[test]
    fn halfword_ops_lift_with_w16() {
        assert_eq!(
            lift(ArmIns::Ldrh { rt: Reg(1), rn: Reg(2), off: 6 }, 0),
            ["x1 = mem16[(x2 + 0x6)]", "falls through"]
        );
        assert_eq!(
            lift(ArmIns::Strh { rt: Reg(1), rn: Reg(2), off: -2 }, 0),
            ["mem16[(x2 + 0xfffffffe)] = x1", "falls through"]
        );
    }

    #[test]
    fn pop_then_sp_restore() {
        assert_eq!(
            lift(ArmIns::Pop { mask: 0b11 }, 0),
            ["x0 = mem32[x13]", "x1 = mem32[(x13 + 0x4)]", "x13 = (x13 + 0x8)", "falls through"]
        );
    }
}
