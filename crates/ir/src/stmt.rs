use crate::expr::{IrExpr, Width};
use dtaint_fwbin::Reg;
use std::fmt;

/// One IR statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrStmt {
    /// Marks the start of a lifted guest instruction (VEX's `IMark`).
    Imark {
        /// Guest address of the instruction.
        addr: u32,
        /// Instruction length in bytes.
        len: u32,
    },
    /// Writes a guest register: `reg = value`.
    Put {
        /// Destination register.
        reg: Reg,
        /// Value expression.
        value: IrExpr,
    },
    /// Writes memory: `mem[addr] = value`.
    Store {
        /// Address expression.
        addr: IrExpr,
        /// Value expression.
        value: IrExpr,
        /// Access width.
        width: Width,
    },
    /// Conditional side exit: when `cond` is true, control transfers to
    /// `target`; otherwise execution continues with the next statement.
    Exit {
        /// Boolean condition (a `Cmp*` binop).
        cond: IrExpr,
        /// Guest target address.
        target: u32,
    },
}

impl fmt::Display for IrStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrStmt::Imark { addr, len } => write!(f, "-- imark {addr:#x} len={len}"),
            IrStmt::Put { reg, value } => write!(f, "{reg} = {value}"),
            IrStmt::Store { addr, value, width } => {
                let w = match width {
                    Width::W8 => "8",
                    Width::W16 => "16",
                    Width::W32 => "32",
                };
                write!(f, "mem{w}[{addr}] = {value}")
            }
            IrStmt::Exit { cond, target } => write!(f, "if {cond} goto {target:#x}"),
        }
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JumpKind {
    /// Ordinary jump or fall-through.
    Boring,
    /// A call; after the callee returns execution resumes at `return_to`.
    Call {
        /// Address the callee returns to.
        return_to: u32,
    },
    /// A function return.
    Ret,
}

/// One lifted basic block.
///
/// The block covers guest bytes `[addr, addr + size)`. Control continues
/// at the address `next` evaluates to (a [`IrExpr::Const`] for direct
/// flow, a register read for indirect flow), with semantics given by
/// `jumpkind`. Conditional branches appear as [`IrStmt::Exit`] side exits
/// before the block end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrBlock {
    /// Guest address of the first instruction.
    pub addr: u32,
    /// Size of the covered guest bytes.
    pub size: u32,
    /// Lifted statements in execution order.
    pub stmts: Vec<IrStmt>,
    /// Where control flows after the block.
    pub next: IrExpr,
    /// How control flows after the block.
    pub jumpkind: JumpKind,
}

impl IrBlock {
    /// Address of the first byte after the block.
    pub fn end(&self) -> u32 {
        self.addr + self.size
    }

    /// Guest addresses of the lifted instructions, from the `Imark`s.
    pub fn instruction_addrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.stmts.iter().filter_map(|s| match s {
            IrStmt::Imark { addr, .. } => Some(*addr),
            _ => None,
        })
    }

    /// Targets of the conditional side exits in the block, in statement
    /// order.
    pub fn exit_targets(&self) -> impl Iterator<Item = u32> + '_ {
        self.stmts.iter().filter_map(|s| match s {
            IrStmt::Exit { target, .. } => Some(*target),
            _ => None,
        })
    }

    /// The constant fall-through / jump target, when direct.
    pub fn next_const(&self) -> Option<u32> {
        self.next.as_const()
    }
}

impl fmt::Display for IrBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "block {:#x}..{:#x}:", self.addr, self.end())?;
        for s in &self.stmts {
            writeln!(f, "  {s}")?;
        }
        write!(f, "  next {} ({:?})", self.next, self.jumpkind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn sample_block() -> IrBlock {
        IrBlock {
            addr: 0x1000,
            size: 12,
            stmts: vec![
                IrStmt::Imark { addr: 0x1000, len: 4 },
                IrStmt::Put { reg: Reg(0), value: IrExpr::Const(7) },
                IrStmt::Imark { addr: 0x1004, len: 4 },
                IrStmt::Exit {
                    cond: IrExpr::binop(BinOp::CmpEq, IrExpr::Get(Reg(0)), IrExpr::Const(0)),
                    target: 0x2000,
                },
                IrStmt::Imark { addr: 0x1008, len: 4 },
                IrStmt::Store {
                    addr: IrExpr::Get(Reg(13)),
                    value: IrExpr::Get(Reg(0)),
                    width: Width::W32,
                },
            ],
            next: IrExpr::Const(0x100c),
            jumpkind: JumpKind::Boring,
        }
    }

    #[test]
    fn accessors() {
        let b = sample_block();
        assert_eq!(b.end(), 0x100c);
        assert_eq!(b.instruction_addrs().collect::<Vec<_>>(), [0x1000, 0x1004, 0x1008]);
        assert_eq!(b.exit_targets().collect::<Vec<_>>(), [0x2000]);
        assert_eq!(b.next_const(), Some(0x100c));
    }

    #[test]
    fn indirect_next_has_no_const() {
        let mut b = sample_block();
        b.next = IrExpr::Get(Reg(14));
        assert_eq!(b.next_const(), None);
    }

    #[test]
    fn display_contains_all_statements() {
        let s = sample_block().to_string();
        assert!(s.contains("imark 0x1000"));
        assert!(s.contains("x0 = 0x7"));
        assert!(s.contains("if (x0 == 0x0) goto 0x2000"));
        assert!(s.contains("mem32[x13] = x0"));
    }
}
