//! An architecture-neutral intermediate representation and lifters.
//!
//! DTaint converts guest instructions into a VEX-like IR before any
//! analysis (the paper uses Valgrind's VEX via angr's loader). This crate
//! is the equivalent for the `arm32e`/`mips32e` dialects of
//! [`dtaint_fwbin`]:
//!
//! * [`IrBuf`] — one flat buffer of statements and expression nodes, as
//!   VEX keeps a superblock in one arena; a lifted block, or a whole
//!   lifted function, lives in one,
//! * [`IrExpr`] — side-effect-free expression nodes over guest registers,
//!   memory loads and constants, `Copy` values naming their operands by
//!   [`ExprRef`] (an index into the buffer),
//! * [`IrStmt`] — register writes, memory stores, instruction marks and
//!   conditional side exits,
//! * [`IrBlock`] — one basic block (a statement range of its buffer) with
//!   its final jump kind (fall-through, call, return, indirect),
//! * [`lift::lift_block`] — decodes and lifts a block from a loaded
//!   [`Binary`](dtaint_fwbin::Binary) into a buffer of its own;
//!   [`lift::lift_ins`] lifts one instruction, appending to a caller's
//!   buffer.
//!
//! Architecture differences are normalised here so that every later stage
//! is ISA-agnostic: ARM condition flags become explicit compare operands
//! stashed in the pseudo-registers [`CMP_L`]/[`CMP_R`]; the MIPS `$zero`
//! register reads as the constant 0; `PUSH`/`POP` expand to store/load
//! sequences.
//!
//! # Examples
//!
//! ```
//! use dtaint_fwbin::arm::ArmIns;
//! use dtaint_fwbin::asm::Assembler;
//! use dtaint_fwbin::link::BinaryBuilder;
//! use dtaint_fwbin::{Arch, Reg};
//! use dtaint_ir::lift::lift_block;
//! use dtaint_ir::JumpKind;
//!
//! let mut a = Assembler::new(Arch::Arm32e);
//! a.arm(ArmIns::Ldr { rt: Reg(1), rn: Reg(0), off: 0x4c });
//! a.ret();
//! let mut b = BinaryBuilder::new(Arch::Arm32e);
//! b.add_function("f", a);
//! let bin = b.link()?;
//! let f = bin.function("f").unwrap();
//! let (block, ir) = lift_block(&bin, f.addr, f.addr + f.size)?;
//! assert_eq!(block.jumpkind, JumpKind::Ret);
//! assert_eq!(ir.show(block.stmts(&ir)[1]).to_string(), "x1 = mem32[(x0 + 0x4c)]");
//! # Ok::<(), dtaint_fwbin::Error>(())
//! ```

pub mod lift;

mod expr;
mod lift_arm;
mod lift_mips;
mod stmt;

pub use expr::{BinOp, ExprRef, IrExpr, Width};
pub use stmt::{IrBlock, IrBuf, IrStmt, JumpKind, Show};

use dtaint_fwbin::Reg;

/// Pseudo-register holding the left operand of the latest ARM `CMP`.
///
/// Lives outside the architectural file (`Reg(100)`), mirroring VEX's
/// `CC_DEP1` thunk.
pub const CMP_L: Reg = Reg(100);

/// Pseudo-register holding the right operand of the latest ARM `CMP`
/// (VEX's `CC_DEP2`).
pub const CMP_R: Reg = Reg(101);
