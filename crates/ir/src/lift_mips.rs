//! Lifting `mips32e` instructions to IR.

use crate::expr::{BinOp, IrExpr, Width};
use crate::lift::Terminator;
use crate::stmt::IrStmt;
use dtaint_fwbin::mips::MipsIns;
use dtaint_fwbin::{Reg, Result, INS_SIZE};

/// Reads a register, folding `$zero` to the constant 0.
fn get(r: Reg) -> IrExpr {
    if r == Reg::ZERO {
        IrExpr::Const(0)
    } else {
        IrExpr::Get(r)
    }
}

/// Writes a register, discarding writes to `$zero`.
fn put(out: &mut Vec<IrStmt>, reg: Reg, value: IrExpr) {
    if reg != Reg::ZERO {
        out.push(IrStmt::Put { reg, value });
    }
}

fn binop3(out: &mut Vec<IrStmt>, op: BinOp, rd: Reg, rs: Reg, rt: Reg) {
    put(out, rd, IrExpr::binop(op, get(rs), get(rt)));
}

fn load(out: &mut Vec<IrStmt>, rt: Reg, base: Reg, off: i16, width: Width) {
    put(out, rt, IrExpr::load(IrExpr::add_const(get(base), off as i32), width));
}

fn store(rt: Reg, base: Reg, off: i16, width: Width) -> IrStmt {
    IrStmt::Store { addr: IrExpr::add_const(get(base), off as i32), value: get(rt), width }
}

/// Lifts one decoded `mips32e` instruction at `pc`, appending its
/// statements to `out`; see [`crate::lift::lift_ins`].
///
/// # Errors
///
/// Returns the decode error for an invalid instruction word.
pub(crate) fn lift_ins(word: u32, pc: u32, out: &mut Vec<IrStmt>) -> Result<Option<Terminator>> {
    use MipsIns::*;
    let ins = MipsIns::decode(word, pc)?;
    let branch_target =
        |off: i16| (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
    let jump_target =
        |off: i32| (pc as i64 + INS_SIZE as i64 + off as i64 * INS_SIZE as i64) as u32;
    let exit = |cond: IrExpr, target: u32| IrStmt::Exit { cond, target };
    match ins {
        Nop => {}
        Addu { rd, rs, rt } => binop3(out, BinOp::Add, rd, rs, rt),
        Addiu { rt, rs, imm } => put(out, rt, IrExpr::add_const(get(rs), imm as i32)),
        Subu { rd, rs, rt } => binop3(out, BinOp::Sub, rd, rs, rt),
        And { rd, rs, rt } => binop3(out, BinOp::And, rd, rs, rt),
        Andi { rt, rs, imm } => {
            put(out, rt, IrExpr::binop(BinOp::And, get(rs), IrExpr::Const(imm as u32)))
        }
        Or { rd, rs, rt } => binop3(out, BinOp::Or, rd, rs, rt),
        Ori { rt, rs, imm } => {
            put(out, rt, IrExpr::binop(BinOp::Or, get(rs), IrExpr::Const(imm as u32)))
        }
        Xor { rd, rs, rt } => binop3(out, BinOp::Xor, rd, rs, rt),
        Sll { rd, rt, sh } => {
            put(out, rd, IrExpr::binop(BinOp::Shl, get(rt), IrExpr::Const(sh as u32)))
        }
        Srl { rd, rt, sh } => {
            put(out, rd, IrExpr::binop(BinOp::Shr, get(rt), IrExpr::Const(sh as u32)))
        }
        Mul { rd, rs, rt } => binop3(out, BinOp::Mul, rd, rs, rt),
        Slt { rd, rs, rt } => binop3(out, BinOp::CmpLt, rd, rs, rt),
        Slti { rt, rs, imm } => {
            put(out, rt, IrExpr::binop(BinOp::CmpLt, get(rs), IrExpr::Const(imm as i32 as u32)))
        }
        Lui { rt, imm } => put(out, rt, IrExpr::Const((imm as u32) << 16)),
        Lw { rt, base, off } => load(out, rt, base, off, Width::W32),
        Sw { rt, base, off } => out.push(store(rt, base, off, Width::W32)),
        Lb { rt, base, off } => load(out, rt, base, off, Width::W8),
        Sb { rt, base, off } => out.push(store(rt, base, off, Width::W8)),
        Lh { rt, base, off } => load(out, rt, base, off, Width::W16),
        Sh { rt, base, off } => out.push(store(rt, base, off, Width::W16)),
        // beq x, x is always taken — the assembler's `jump` idiom.
        Beq { rs, rt, off } if rs == rt => {
            return Ok(Some(Terminator::Jump(IrExpr::Const(branch_target(off)))));
        }
        Beq { rs, rt, off } => {
            out.push(exit(IrExpr::binop(BinOp::CmpEq, get(rs), get(rt)), branch_target(off)));
            return Ok(Some(Terminator::CondBranch));
        }
        // bne x, x is never taken; plain fall-through.
        Bne { rs, rt, .. } if rs == rt => {}
        Bne { rs, rt, off } => {
            out.push(exit(IrExpr::binop(BinOp::CmpNe, get(rs), get(rt)), branch_target(off)));
            return Ok(Some(Terminator::CondBranch));
        }
        Blez { rs, off } => {
            out.push(exit(
                IrExpr::binop(BinOp::CmpLe, get(rs), IrExpr::Const(0)),
                branch_target(off),
            ));
            return Ok(Some(Terminator::CondBranch));
        }
        Bgtz { rs, off } => {
            out.push(exit(
                IrExpr::binop(BinOp::CmpGt, get(rs), IrExpr::Const(0)),
                branch_target(off),
            ));
            return Ok(Some(Terminator::CondBranch));
        }
        J { off } => return Ok(Some(Terminator::Jump(IrExpr::Const(jump_target(off))))),
        Jal { off } => {
            let return_to = pc + INS_SIZE;
            put(out, Reg::RA, IrExpr::Const(return_to));
            return Ok(Some(Terminator::Call { next: IrExpr::Const(jump_target(off)), return_to }));
        }
        Jalr { rs } => {
            let return_to = pc + INS_SIZE;
            put(out, Reg::RA, IrExpr::Const(return_to));
            return Ok(Some(Terminator::Call { next: get(rs), return_to }));
        }
        Jr { rs } if rs == Reg::RA => return Ok(Some(Terminator::Ret(get(Reg::RA)))),
        Jr { rs } => return Ok(Some(Terminator::Jump(get(rs)))),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statements and terminator of one instruction, lifted into an
    /// empty buffer.
    fn lift(ins: MipsIns, pc: u32) -> (Vec<IrStmt>, Option<Terminator>) {
        let mut stmts = Vec::new();
        let term = lift_ins(ins.encode().unwrap(), pc, &mut stmts).unwrap();
        (stmts, term)
    }

    #[test]
    fn lui_materialises_high_half() {
        let (stmts, term) = lift(MipsIns::Lui { rt: Reg(4), imm: 0x1234 }, 0);
        assert!(term.is_none());
        assert_eq!(stmts, vec![IrStmt::Put { reg: Reg(4), value: IrExpr::Const(0x1234_0000) }]);
    }

    #[test]
    fn slt_produces_boolean_compare() {
        let (stmts, _) = lift(MipsIns::Slt { rd: Reg(8), rs: Reg(4), rt: Reg(5) }, 0);
        assert_eq!(
            stmts,
            vec![IrStmt::Put {
                reg: Reg(8),
                value: IrExpr::binop(BinOp::CmpLt, IrExpr::Get(Reg(4)), IrExpr::Get(Reg(5))),
            }]
        );
    }

    #[test]
    fn bne_same_register_falls_through() {
        let (stmts, term) = lift(MipsIns::Bne { rs: Reg(4), rt: Reg(4), off: 5 }, 0);
        assert!(term.is_none());
        assert!(stmts.is_empty());
    }

    #[test]
    fn blez_compares_against_zero() {
        let (stmts, term) = lift(MipsIns::Blez { rs: Reg(2), off: 3 }, 0x100);
        assert_eq!(term, Some(Terminator::CondBranch));
        assert_eq!(
            stmts,
            vec![IrStmt::Exit {
                cond: IrExpr::binop(BinOp::CmpLe, IrExpr::Get(Reg(2)), IrExpr::Const(0)),
                target: 0x100 + 4 + 12,
            }]
        );
    }

    #[test]
    fn jalr_is_indirect_call() {
        let (stmts, term) = lift(MipsIns::Jalr { rs: Reg(25) }, 0x40);
        match term {
            Some(Terminator::Call { next: IrExpr::Get(r), return_to }) => {
                assert_eq!(r, Reg(25));
                assert_eq!(return_to, 0x44);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stmts, vec![IrStmt::Put { reg: Reg::RA, value: IrExpr::Const(0x44) }]);
    }

    #[test]
    fn jr_non_ra_is_indirect_jump() {
        let (stmts, term) = lift(MipsIns::Jr { rs: Reg(25) }, 0);
        assert!(stmts.is_empty());
        assert!(matches!(term, Some(Terminator::Jump(IrExpr::Get(Reg(25))))));
    }

    #[test]
    fn lh_sh_are_halfword_accesses() {
        let (stmts, _) = lift(MipsIns::Lh { rt: Reg(8), base: Reg(4), off: 4 }, 0);
        assert!(matches!(
            &stmts[0],
            IrStmt::Put { value: crate::IrExpr::Load { width: Width::W16, .. }, .. }
        ));
        let (stmts, _) = lift(MipsIns::Sh { rt: Reg(8), base: Reg(4), off: 4 }, 0);
        assert!(matches!(&stmts[0], IrStmt::Store { width: Width::W16, .. }));
    }

    #[test]
    fn sb_is_byte_store() {
        let (stmts, _) = lift(MipsIns::Sb { rt: Reg(8), base: Reg(4), off: 1 }, 0);
        assert!(matches!(&stmts[0], IrStmt::Store { width: Width::W8, .. }));
    }
}
