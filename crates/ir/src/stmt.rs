use crate::expr::{BinOp, ExprRef, IrExpr, Width};
use dtaint_fwbin::Reg;
use std::fmt;

/// One IR statement. Its expressions are nodes of the [`IrBuf`] holding
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        value: ExprRef,
    },
    /// Writes memory: `mem[addr] = value`.
    Store {
        /// Address expression.
        addr: ExprRef,
        /// Value expression.
        value: ExprRef,
        /// Access width.
        width: Width,
    },
    /// Conditional side exit: when `cond` is true, control transfers to
    /// `target`; otherwise execution continues with the next statement.
    Exit {
        /// Boolean condition (a `Cmp*` binop).
        cond: ExprRef,
        /// Guest target address.
        target: u32,
    },
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

/// One flat IR buffer: the statements and expression nodes of a lifted
/// block or a whole lifted function, as VEX keeps a superblock in one
/// arena. Nodes are appended, never removed, so an [`ExprRef`] stays
/// valid for the buffer's life, and dropping the buffer frees two
/// `Vec`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IrBuf {
    /// Statements in lifting order.
    pub stmts: Vec<IrStmt>,
    /// Expression nodes; an operand precedes every node reading it.
    pub exprs: Vec<IrExpr>,
}

impl IrBuf {
    /// An empty buffer with room for `stmts` statements and `exprs`
    /// nodes.
    pub fn with_capacity(stmts: usize, exprs: usize) -> IrBuf {
        IrBuf { stmts: Vec::with_capacity(stmts), exprs: Vec::with_capacity(exprs) }
    }

    /// The node `e` names.
    pub fn expr(&self, e: ExprRef) -> IrExpr {
        self.exprs[e.index()]
    }

    /// Appends a node whose operands are already in the buffer.
    fn push(&mut self, e: IrExpr) -> ExprRef {
        let r = ExprRef(u32::try_from(self.exprs.len()).expect("fewer than 2^32 nodes"));
        self.exprs.push(e);
        r
    }

    /// Appends [`IrExpr::Const`].
    pub fn constant(&mut self, v: u32) -> ExprRef {
        self.push(IrExpr::Const(v))
    }

    /// Appends [`IrExpr::Get`].
    pub fn get(&mut self, r: Reg) -> ExprRef {
        self.push(IrExpr::Get(r))
    }

    /// Appends [`IrExpr::Binop`].
    pub fn binop(&mut self, op: BinOp, lhs: ExprRef, rhs: ExprRef) -> ExprRef {
        self.push(IrExpr::Binop { op, lhs, rhs })
    }

    /// Appends [`IrExpr::Load`].
    pub fn load(&mut self, addr: ExprRef, width: Width) -> ExprRef {
        self.push(IrExpr::Load { addr, width })
    }

    /// Appends `base + offset`, or nothing for a zero offset (then the
    /// result is `base` itself).
    pub fn add_const(&mut self, base: ExprRef, offset: i32) -> ExprRef {
        if offset == 0 {
            return base;
        }
        let c = self.constant(offset as u32);
        self.binop(BinOp::Add, base, c)
    }

    /// Renders an [`ExprRef`], an [`IrStmt`] or an [`IrBlock`] of this
    /// buffer as IR text, e.g. `mem32[(x5 + 0x4c)]`.
    pub fn show<T>(&self, item: T) -> Show<'_, T> {
        Show { ir: self, item }
    }
}

/// IR text of one item of an [`IrBuf`]; see [`IrBuf::show`].
pub struct Show<'a, T> {
    ir: &'a IrBuf,
    item: T,
}

impl fmt::Display for Show<'_, ExprRef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ir = self.ir;
        match ir.expr(self.item) {
            IrExpr::Const(v) => write!(f, "{v:#x}"),
            IrExpr::Get(r) => write!(f, "{r}"),
            IrExpr::Load { addr, width } => write!(f, "mem{}[{}]", width.bits(), ir.show(addr)),
            IrExpr::Binop { op, lhs, rhs } => {
                write!(f, "({} {op} {})", ir.show(lhs), ir.show(rhs))
            }
        }
    }
}

impl fmt::Display for Show<'_, IrStmt> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ir = self.ir;
        match self.item {
            IrStmt::Imark { addr, len } => write!(f, "-- imark {addr:#x} len={len}"),
            IrStmt::Put { reg, value } => write!(f, "{reg} = {}", ir.show(value)),
            IrStmt::Store { addr, value, width } => {
                write!(f, "mem{}[{}] = {}", width.bits(), ir.show(addr), ir.show(value))
            }
            IrStmt::Exit { cond, target } => write!(f, "if {} goto {target:#x}", ir.show(cond)),
        }
    }
}

impl fmt::Display for Show<'_, IrBlock> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ir, b) = (self.ir, self.item);
        writeln!(f, "block {:#x}..{:#x}:", b.addr, b.end())?;
        for &s in b.stmts(ir) {
            writeln!(f, "  {}", ir.show(s))?;
        }
        write!(f, "  next {} ({:?})", ir.show(b.next), b.jumpkind)
    }
}

/// One lifted basic block: a window on the [`IrBuf`] it was lifted
/// into, owning no heap memory.
///
/// The block covers guest bytes `[addr, addr + size)`; its statements
/// are the buffer's `stmts[stmt_start..stmt_end]`. Control continues at
/// the address `next` evaluates to (an [`IrExpr::Const`] for direct
/// flow, a register read for indirect flow), with semantics given by
/// `jumpkind`. Conditional branches appear as [`IrStmt::Exit`] side exits
/// before the block end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrBlock {
    /// Guest address of the first instruction.
    pub addr: u32,
    /// Size of the covered guest bytes.
    pub size: u32,
    /// Index of the block's first statement in the buffer.
    pub stmt_start: u32,
    /// Index one past the block's last statement in the buffer.
    pub stmt_end: u32,
    /// Where control flows after the block.
    pub next: ExprRef,
    /// How control flows after the block.
    pub jumpkind: JumpKind,
}

impl IrBlock {
    /// Address of the first byte after the block.
    pub fn end(&self) -> u32 {
        self.addr + self.size
    }

    /// The block's statements in execution order.
    pub fn stmts<'b>(&self, ir: &'b IrBuf) -> &'b [IrStmt] {
        &ir.stmts[self.stmt_start as usize..self.stmt_end as usize]
    }

    /// Targets of the conditional side exits in the block, in statement
    /// order.
    pub fn exit_targets<'b>(&self, ir: &'b IrBuf) -> impl Iterator<Item = u32> + 'b {
        self.stmts(ir).iter().filter_map(|s| match *s {
            IrStmt::Exit { target, .. } => Some(target),
            _ => None,
        })
    }

    /// The constant fall-through / jump target, when direct.
    pub fn next_const(&self, ir: &IrBuf) -> Option<u32> {
        ir.expr(self.next).as_const()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> (IrBlock, IrBuf) {
        let mut ir = IrBuf::default();
        let seven = ir.constant(7);
        ir.stmts.push(IrStmt::Imark { addr: 0x1000, len: 4 });
        ir.stmts.push(IrStmt::Put { reg: Reg(0), value: seven });
        ir.stmts.push(IrStmt::Imark { addr: 0x1004, len: 4 });
        let (x0, zero) = (ir.get(Reg(0)), ir.constant(0));
        let cond = ir.binop(BinOp::CmpEq, x0, zero);
        ir.stmts.push(IrStmt::Exit { cond, target: 0x2000 });
        ir.stmts.push(IrStmt::Imark { addr: 0x1008, len: 4 });
        let (sp, x0) = (ir.get(Reg(13)), ir.get(Reg(0)));
        ir.stmts.push(IrStmt::Store { addr: sp, value: x0, width: Width::W32 });
        let next = ir.constant(0x100c);
        let block = IrBlock {
            addr: 0x1000,
            size: 12,
            stmt_start: 0,
            stmt_end: ir.stmts.len() as u32,
            next,
            jumpkind: JumpKind::Boring,
        };
        (block, ir)
    }

    #[test]
    fn accessors() {
        let (b, ir) = sample_block();
        assert_eq!(b.end(), 0x100c);
        assert_eq!(b.stmts(&ir).len(), 6);
        assert_eq!(b.exit_targets(&ir).collect::<Vec<_>>(), [0x2000]);
        assert_eq!(b.next_const(&ir), Some(0x100c));
    }

    #[test]
    fn indirect_next_has_no_const() {
        let (mut b, mut ir) = sample_block();
        b.next = ir.get(Reg(14));
        assert_eq!(b.next_const(&ir), None);
    }

    #[test]
    fn display_contains_all_statements() {
        let (b, ir) = sample_block();
        let s = ir.show(b).to_string();
        assert!(s.contains("imark 0x1000"));
        assert!(s.contains("x0 = 0x7"));
        assert!(s.contains("if (x0 == 0x0) goto 0x2000"));
        assert!(s.contains("mem32[x13] = x0"));
        assert!(s.ends_with("next 0x100c (Boring)"));
    }

    #[test]
    fn add_const_folds_zero() {
        let mut ir = IrBuf::default();
        let x1 = ir.get(Reg(1));
        assert_eq!(ir.add_const(x1, 0), x1);
        let e = ir.add_const(x1, -4);
        assert_eq!(ir.show(e).to_string(), "(x1 + 0xfffffffc)");
        let w = ir.load(e, Width::W16);
        assert_eq!(ir.show(w).to_string(), "mem16[(x1 + 0xfffffffc)]");
    }
}
