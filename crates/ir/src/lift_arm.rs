//! Lifting `arm32e` instructions to IR.

use crate::expr::{BinOp, IrExpr, Width};
use crate::lift::Terminator;
use crate::stmt::IrStmt;
use crate::{CMP_L, CMP_R};
use dtaint_fwbin::arm::{ArmIns, Cond};
use dtaint_fwbin::{Reg, Result, INS_SIZE};

fn get(r: Reg) -> IrExpr {
    IrExpr::Get(r)
}

fn put(reg: Reg, value: IrExpr) -> IrStmt {
    IrStmt::Put { reg, value }
}

fn binop3(op: BinOp, rd: Reg, rn: Reg, rm: Reg) -> IrStmt {
    put(rd, IrExpr::binop(op, get(rn), get(rm)))
}

fn store(rt: Reg, rn: Reg, off: i16, width: Width) -> IrStmt {
    IrStmt::Store { addr: IrExpr::add_const(get(rn), off as i32), value: get(rt), width }
}

fn load(rt: Reg, rn: Reg, off: i16, width: Width) -> IrStmt {
    put(rt, IrExpr::load(IrExpr::add_const(get(rn), off as i32), width))
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
pub(crate) fn lift_ins(word: u32, pc: u32, out: &mut Vec<IrStmt>) -> Result<Option<Terminator>> {
    use ArmIns::*;
    let ins = ArmIns::decode(word, pc)?;
    match ins {
        Nop => {}
        MovR { rd, rm } => out.push(put(rd, get(rm))),
        MovI { rd, imm } => out.push(put(rd, IrExpr::Const(imm as u32))),
        MovT { rd, imm } => out.push(put(
            rd,
            IrExpr::binop(
                BinOp::Or,
                IrExpr::binop(BinOp::And, get(rd), IrExpr::Const(0xffff)),
                IrExpr::Const((imm as u32) << 16),
            ),
        )),
        AddR { rd, rn, rm } => out.push(binop3(BinOp::Add, rd, rn, rm)),
        AddI { rd, rn, imm } => out.push(put(rd, IrExpr::add_const(get(rn), imm as i32))),
        SubR { rd, rn, rm } => out.push(binop3(BinOp::Sub, rd, rn, rm)),
        SubI { rd, rn, imm } => {
            out.push(put(rd, IrExpr::binop(BinOp::Sub, get(rn), IrExpr::Const(imm as i32 as u32))))
        }
        Mul { rd, rn, rm } => out.push(binop3(BinOp::Mul, rd, rn, rm)),
        AndR { rd, rn, rm } => out.push(binop3(BinOp::And, rd, rn, rm)),
        OrrR { rd, rn, rm } => out.push(binop3(BinOp::Or, rd, rn, rm)),
        EorR { rd, rn, rm } => out.push(binop3(BinOp::Xor, rd, rn, rm)),
        LslI { rd, rn, sh } => {
            out.push(put(rd, IrExpr::binop(BinOp::Shl, get(rn), IrExpr::Const(sh as u32))))
        }
        LsrI { rd, rn, sh } => {
            out.push(put(rd, IrExpr::binop(BinOp::Shr, get(rn), IrExpr::Const(sh as u32))))
        }
        LslR { rd, rn, rm } => out.push(binop3(BinOp::Shl, rd, rn, rm)),
        LsrR { rd, rn, rm } => out.push(binop3(BinOp::Shr, rd, rn, rm)),
        CmpR { rn, rm } => out.extend([put(CMP_L, get(rn)), put(CMP_R, get(rm))]),
        CmpI { rn, imm } => {
            out.extend([put(CMP_L, get(rn)), put(CMP_R, IrExpr::Const(imm as i32 as u32))])
        }
        Ldr { rt, rn, off } => out.push(load(rt, rn, off, Width::W32)),
        Str { rt, rn, off } => out.push(store(rt, rn, off, Width::W32)),
        Ldrb { rt, rn, off } => out.push(load(rt, rn, off, Width::W8)),
        Strb { rt, rn, off } => out.push(store(rt, rn, off, Width::W8)),
        Ldrh { rt, rn, off } => out.push(load(rt, rn, off, Width::W16)),
        Strh { rt, rn, off } => out.push(store(rt, rn, off, Width::W16)),
        Push { mask } => {
            let regs = (0..16).filter(|i| mask & (1 << i) != 0).map(Reg);
            let n = mask.count_ones() as i32;
            // Lowest-numbered register lands at the lowest address.
            for (rank, r) in regs.enumerate() {
                let off = -(4 * (n - rank as i32));
                out.push(IrStmt::Store {
                    addr: IrExpr::add_const(get(Reg::SP), off),
                    value: get(r),
                    width: Width::W32,
                });
            }
            out.push(put(
                Reg::SP,
                IrExpr::binop(BinOp::Sub, get(Reg::SP), IrExpr::Const(4 * n as u32)),
            ));
        }
        Pop { mask } => {
            let regs = (0..16).filter(|i| mask & (1 << i) != 0).map(Reg);
            let n = mask.count_ones();
            for (rank, r) in regs.enumerate() {
                out.push(put(
                    r,
                    IrExpr::load(IrExpr::add_const(get(Reg::SP), 4 * rank as i32), Width::W32),
                ));
            }
            out.push(put(Reg::SP, IrExpr::binop(BinOp::Add, get(Reg::SP), IrExpr::Const(4 * n))));
        }
        B { cond, off } => {
            let target = (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
            if cond == Cond::Al {
                return Ok(Some(Terminator::Jump(IrExpr::Const(target))));
            }
            let cond = IrExpr::binop(cond_to_op(cond), get(CMP_L), get(CMP_R));
            out.push(IrStmt::Exit { cond, target });
            return Ok(Some(Terminator::CondBranch));
        }
        Bl { off } => {
            let target = (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
            let return_to = pc + INS_SIZE;
            out.push(put(Reg::LR, IrExpr::Const(return_to)));
            return Ok(Some(Terminator::Call { next: IrExpr::Const(target), return_to }));
        }
        Blx { rm } => {
            let return_to = pc + INS_SIZE;
            out.push(put(Reg::LR, IrExpr::Const(return_to)));
            return Ok(Some(Terminator::Call { next: get(rm), return_to }));
        }
        Bx { rm } if rm == Reg::LR => return Ok(Some(Terminator::Ret(get(Reg::LR)))),
        Bx { rm } => return Ok(Some(Terminator::Jump(get(rm)))),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statements and terminator of one instruction, lifted into an
    /// empty buffer.
    fn lift(ins: ArmIns, pc: u32) -> (Vec<IrStmt>, Option<Terminator>) {
        let mut stmts = Vec::new();
        let term = lift_ins(ins.encode().unwrap(), pc, &mut stmts).unwrap();
        (stmts, term)
    }

    #[test]
    fn branch_target_arithmetic() {
        // B with offset -2 at pc=0x100: target = 0x100 + 4 - 8 = 0xfc.
        let (stmts, term) = lift(ArmIns::B { cond: Cond::Al, off: -2 }, 0x100);
        assert!(stmts.is_empty());
        match term {
            Some(Terminator::Jump(IrExpr::Const(t))) => assert_eq!(t, 0xfc),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conditional_branch_keeps_fallthrough() {
        let (stmts, term) = lift(ArmIns::B { cond: Cond::Ne, off: 4 }, 0x200);
        assert!(matches!(term, Some(Terminator::CondBranch)));
        assert_eq!(
            stmts,
            vec![IrStmt::Exit {
                cond: IrExpr::binop(BinOp::CmpNe, IrExpr::Get(CMP_L), IrExpr::Get(CMP_R)),
                target: 0x200 + 4 + 16,
            }]
        );
    }

    #[test]
    fn bl_records_return_address() {
        let (stmts, term) = lift(ArmIns::Bl { off: 10 }, 0x400);
        assert_eq!(stmts, vec![put(Reg::LR, IrExpr::Const(0x404))]);
        match term {
            Some(Terminator::Call { next: IrExpr::Const(t), return_to }) => {
                assert_eq!(t, 0x400 + 4 + 40);
                assert_eq!(return_to, 0x404);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bx_non_lr_is_plain_indirect_jump() {
        let (stmts, term) = lift(ArmIns::Bx { rm: Reg(3) }, 0);
        assert!(stmts.is_empty());
        assert!(matches!(term, Some(Terminator::Jump(IrExpr::Get(Reg(3))))));
    }

    #[test]
    fn push_order_matches_arm_convention() {
        // push {r0, r4}: r0 at sp-8, r4 at sp-4, sp -= 8.
        let (stmts, term) = lift(ArmIns::Push { mask: 0b1_0001 }, 0);
        assert!(term.is_none());
        assert_eq!(stmts.len(), 3);
        let IrStmt::Store { addr, value, .. } = &stmts[0] else { panic!() };
        assert_eq!(value, &IrExpr::Get(Reg(0)));
        assert_eq!(addr.to_string(), "(x13 + 0xfffffff8)");
        let IrStmt::Store { value, .. } = &stmts[1] else { panic!() };
        assert_eq!(value, &IrExpr::Get(Reg(4)));
    }

    #[test]
    fn halfword_ops_lift_with_w16() {
        let (stmts, _) = lift(ArmIns::Ldrh { rt: Reg(1), rn: Reg(2), off: 6 }, 0);
        assert!(matches!(
            &stmts[0],
            IrStmt::Put { value: IrExpr::Load { width: crate::Width::W16, .. }, .. }
        ));
        let (stmts, _) = lift(ArmIns::Strh { rt: Reg(1), rn: Reg(2), off: -2 }, 0);
        assert!(matches!(&stmts[0], IrStmt::Store { width: crate::Width::W16, .. }));
    }

    #[test]
    fn pop_then_sp_restore() {
        let (stmts, _) = lift(ArmIns::Pop { mask: 0b11 }, 0);
        let IrStmt::Put { reg, .. } = &stmts[2] else { panic!() };
        assert_eq!(*reg, Reg::SP);
    }
}
