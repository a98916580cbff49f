use dtaint_fwbin::Reg;
use std::fmt;

/// Access width of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte, zero-extended on load.
    W8,
    /// One halfword (16 bits), zero-extended on load.
    W16,
    /// One 32-bit word.
    W32,
}

impl Width {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
        }
    }

    /// Size of the access in bits, as the IR text prints it (`mem32[..]`).
    pub(crate) fn bits(self) -> u32 {
        8 * self.bytes()
    }
}

/// A binary operator in the IR.
///
/// The `Cmp*` family yields a boolean (0/1) and appears only in
/// [`IrStmt::Exit`](crate::IrStmt::Exit) conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping 32-bit addition.
    Add,
    /// Wrapping 32-bit subtraction.
    Sub,
    /// Wrapping 32-bit multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Equality test.
    CmpEq,
    /// Inequality test.
    CmpNe,
    /// Signed less-than.
    CmpLt,
    /// Signed greater-or-equal.
    CmpGe,
    /// Signed less-or-equal.
    CmpLe,
    /// Signed greater-than.
    CmpGt,
}

impl BinOp {
    /// True for the comparison operators.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::CmpEq | BinOp::CmpNe | BinOp::CmpLt | BinOp::CmpGe | BinOp::CmpLe | BinOp::CmpGt
        )
    }

    /// The comparison testing the opposite outcome.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-comparison operator.
    pub fn negate_cmp(self) -> BinOp {
        match self {
            BinOp::CmpEq => BinOp::CmpNe,
            BinOp::CmpNe => BinOp::CmpEq,
            BinOp::CmpLt => BinOp::CmpGe,
            BinOp::CmpGe => BinOp::CmpLt,
            BinOp::CmpLe => BinOp::CmpGt,
            BinOp::CmpGt => BinOp::CmpLe,
            other => panic!("negate_cmp on non-comparison operator {other:?}"),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::CmpEq => "==",
            BinOp::CmpNe => "!=",
            BinOp::CmpLt => "<",
            BinOp::CmpGe => ">=",
            BinOp::CmpLe => "<=",
            BinOp::CmpGt => ">",
        };
        f.write_str(s)
    }
}

/// Index of an expression node in its [`IrBuf`](crate::IrBuf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprRef(pub(crate) u32);

impl ExprRef {
    /// Position of the node in [`IrBuf::exprs`](crate::IrBuf::exprs).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a side-effect-free IR expression.
///
/// Like VEX's `IRExpr`, nodes live in one flat buffer and name their
/// operands by [`ExprRef`]; an operand is always stored before the node
/// reading it. The lifters emit nested expressions directly rather than
/// flattening them through temporaries, which keeps the symbolic
/// evaluator a single recursive walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrExpr {
    /// A 32-bit constant.
    Const(u32),
    /// The current value of a guest register (or pseudo-register).
    Get(Reg),
    /// A memory load.
    Load {
        /// Address expression.
        addr: ExprRef,
        /// Access width.
        width: Width,
    },
    /// A binary operation.
    Binop {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprRef,
        /// Right operand.
        rhs: ExprRef,
    },
}

impl IrExpr {
    /// The constant value, when the node is a constant.
    pub fn as_const(self) -> Option<u32> {
        match self {
            IrExpr::Const(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negation() {
        assert_eq!(BinOp::CmpLt.negate_cmp(), BinOp::CmpGe);
        assert_eq!(BinOp::CmpEq.negate_cmp(), BinOp::CmpNe);
        assert!(BinOp::CmpGt.is_cmp());
        assert!(!BinOp::Add.is_cmp());
    }

    #[test]
    #[should_panic(expected = "negate_cmp")]
    fn negate_non_cmp_panics() {
        BinOp::Add.negate_cmp();
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::W32.bytes(), 4);
    }

    #[test]
    fn nodes_are_small_copy_values() {
        assert_eq!(std::mem::size_of::<IrExpr>(), 12);
        assert_eq!(IrExpr::Const(7).as_const(), Some(7));
        assert_eq!(IrExpr::Get(Reg(1)).as_const(), None);
    }
}
