//! Hash-consed symbolic expressions in the paper's *variable description*.
//!
//! DTaint "uses the address expression of the memory to describe the
//! variable" (§III-B): indirect accesses become `deref(base + offset)`
//! terms over symbolic argument values `arg0..arg9`, per-call-site return
//! symbols `ret_{callsite}`, and the entry stack pointer. This module
//! implements that term language with:
//!
//! * **interning** — structurally equal expressions share one [`ExprId`],
//!   so equality (the backbone of alias recognition and definition-pair
//!   matching) is an integer compare,
//! * **normalisation** — constants fold, `x - c` becomes `x + (-c)`, and
//!   constant addends bubble to the right, giving every address a
//!   canonical `base + offset` spine,
//! * **substitution** — [`ExprPool::replace`] implements the `Replace`
//!   primitive used by the paper's Algorithm 1 (alias rewriting) and
//!   Algorithm 2 (formal→actual argument substitution).

use std::collections::HashMap;
use std::fmt;

/// An interned symbolic expression (index into an [`ExprPool`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Comparison operators appearing in path constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
}

impl CmpOp {
    /// The operator testing the opposite outcome.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
        }
    }

    /// Evaluates the comparison on two concrete values.
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Ge => l >= r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
        }
    }

    /// True for `<`, `<=`, `>`, `>=` — the operators that can bound a
    /// tainted length (the paper's sanitisation check).
    pub fn is_bounding(self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// The structure of one symbolic term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymNode {
    /// A concrete 64-bit constant (addresses and immediates are
    /// sign-agnostic 32-bit values widened for arithmetic).
    Const(i64),
    /// The i-th formal argument of the function under analysis
    /// (`arg0..arg9`, §III-B).
    Arg(u8),
    /// The return value of the call at the given instruction address
    /// (`ret_{callsite}`).
    RetSym(u32),
    /// Data written by the library call at `callsite` through its
    /// `arg`-th pointer argument (e.g. the buffer `recv` fills).
    CallOut {
        /// Call-site instruction address.
        callsite: u32,
        /// Index of the pointer argument written through.
        arg: u8,
    },
    /// The unknown initial value of a register at function entry.
    InitReg(u8),
    /// The stack pointer at function entry.
    StackBase,
    /// A fresh opaque value (used when merging loop states).
    Unknown(u32),
    /// A memory read: `deref(addr)` with the access width in bytes.
    Deref {
        /// Address expression.
        addr: ExprId,
        /// Access width in bytes (1 or 4).
        width: u8,
    },
    /// Addition.
    Add(ExprId, ExprId),
    /// Multiplication.
    Mul(ExprId, ExprId),
    /// Bitwise and.
    And(ExprId, ExprId),
    /// Bitwise or.
    Or(ExprId, ExprId),
    /// Bitwise exclusive-or.
    Xor(ExprId, ExprId),
    /// Logical shift left.
    Shl(ExprId, ExprId),
    /// Logical shift right.
    Shr(ExprId, ExprId),
    /// A boolean-valued comparison (from `SLT`-style instructions).
    Cmp(CmpOp, ExprId, ExprId),
}

/// An interning arena of [`SymNode`]s.
///
/// # Examples
///
/// ```
/// use dtaint_symex::pool::ExprPool;
///
/// let mut p = ExprPool::new();
/// let arg0 = p.arg(0);
/// let addr = p.add_const(arg0, 0x4c);
/// let var = p.deref(addr, 4);
/// assert_eq!(p.display(var).to_string(), "deref(arg0 + 0x4c)");
/// // Structurally equal expressions intern to the same id.
/// let arg0_again = p.arg(0);
/// let addr_again = p.add_const(arg0_again, 0x4c);
/// let again = p.deref(addr_again, 4);
/// assert_eq!(var, again);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExprPool {
    nodes: Vec<SymNode>,
    dedup: HashMap<SymNode, ExprId>,
    next_unknown: u32,
}

impl ExprPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned expressions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no expression has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics when `id` belongs to a different pool.
    pub fn node(&self, id: ExprId) -> SymNode {
        self.nodes[id.0 as usize]
    }

    /// Interns a node verbatim (no normalisation).
    pub fn intern(&mut self, node: SymNode) -> ExprId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.dedup.insert(node, id);
        id
    }

    /// Interns a constant, normalised to sign-extended 32-bit two's
    /// complement — the guest is a 32-bit machine, so folded arithmetic
    /// must wrap exactly like the hardware (`(a - b) * c` overflowing 32
    /// bits must not keep 64-bit precision).
    pub fn constant(&mut self, v: i64) -> ExprId {
        self.intern(SymNode::Const(v as i32 as i64))
    }

    /// Interns `arg{i}`.
    pub fn arg(&mut self, i: u8) -> ExprId {
        self.intern(SymNode::Arg(i))
    }

    /// Interns `ret_{callsite}`.
    pub fn ret_sym(&mut self, callsite: u32) -> ExprId {
        self.intern(SymNode::RetSym(callsite))
    }

    /// Interns the output-data symbol for `callsite`'s `arg`-th pointer.
    pub fn call_out(&mut self, callsite: u32, arg: u8) -> ExprId {
        self.intern(SymNode::CallOut { callsite, arg })
    }

    /// Interns the initial value of register `r`.
    pub fn init_reg(&mut self, r: u8) -> ExprId {
        self.intern(SymNode::InitReg(r))
    }

    /// Interns the entry stack pointer.
    pub fn stack_base(&mut self) -> ExprId {
        self.intern(SymNode::StackBase)
    }

    /// Creates a fresh opaque unknown.
    pub fn fresh_unknown(&mut self) -> ExprId {
        let n = self.next_unknown;
        self.next_unknown += 1;
        self.intern(SymNode::Unknown(n))
    }

    /// The index the next [`Self::fresh_unknown`] will use.
    ///
    /// Recording the index before and after one function's run delimits
    /// exactly the unknowns that run created (the incremental cache keys
    /// its unknown-ownership table on these ranges).
    pub fn next_unknown_index(&self) -> u32 {
        self.next_unknown
    }

    /// Interns `deref(addr)` with `width` bytes.
    pub fn deref(&mut self, addr: ExprId, width: u8) -> ExprId {
        self.intern(SymNode::Deref { addr, width })
    }

    /// Snapshots the pool so a failed analysis can be undone.
    ///
    /// Interning only ever appends, so a mark is two integers. Taken
    /// before running untrusted per-function analysis; if that analysis
    /// panics, [`Self::rollback`] erases every node (and unknown index)
    /// it interned, leaving the pool bit-identical to the snapshot —
    /// required so a caught panic cannot perturb expression ids or
    /// unknown numbering for the functions analysed afterwards.
    pub fn mark(&self) -> PoolMark {
        PoolMark { len: self.nodes.len(), next_unknown: self.next_unknown }
    }

    /// Reverts the pool to a [`Self::mark`] taken earlier.
    ///
    /// Cost is proportional to the nodes interned since the mark, not to
    /// the pool size.
    ///
    /// # Panics
    ///
    /// Panics when the mark does not come from this pool's past (the
    /// pool has fewer nodes than the mark records).
    pub fn rollback(&mut self, mark: PoolMark) {
        assert!(mark.len <= self.nodes.len(), "rollback mark is from the future");
        for node in self.nodes.drain(mark.len..) {
            self.dedup.remove(&node);
        }
        self.next_unknown = mark.next_unknown;
    }

    /// Interns a normalised addition: constants fold, and a constant
    /// addend bubbles to the right of the spine, keeping addresses in
    /// `base + offset` form.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (na, nb) = (self.node(a), self.node(b));
        match (na, nb) {
            (SymNode::Const(x), SymNode::Const(y)) => self.constant(x.wrapping_add(y)),
            (SymNode::Const(0), _) => b,
            (_, SymNode::Const(0)) => a,
            // (x + c1) + c2 → x + (c1+c2), collapsing a zero sum to x.
            (SymNode::Add(x, c1), SymNode::Const(c2)) => {
                if let SymNode::Const(c1v) = self.node(c1) {
                    let sum = c1v.wrapping_add(c2);
                    if sum == 0 {
                        return x;
                    }
                    let c = self.constant(sum);
                    return self.intern(SymNode::Add(x, c));
                }
                self.intern(SymNode::Add(a, b))
            }
            // c + x → x + c
            (SymNode::Const(_), _) => self.intern(SymNode::Add(b, a)),
            // (x + c) + y → (x + y) + c
            (SymNode::Add(x, c), _) => {
                if let SymNode::Const(_) = self.node(c) {
                    let xy = self.add(x, b);
                    return self.add(xy, c);
                }
                self.intern(SymNode::Add(a, b))
            }
            // x + (y + c) → (x + y) + c
            (_, SymNode::Add(y, c)) => {
                if let SymNode::Const(_) = self.node(c) {
                    let xy = self.add(a, y);
                    return self.add(xy, c);
                }
                self.intern(SymNode::Add(a, b))
            }
            _ => self.intern(SymNode::Add(a, b)),
        }
    }

    /// Interns `a + c`.
    pub fn add_const(&mut self, a: ExprId, c: i64) -> ExprId {
        let cc = self.constant(c);
        self.add(a, cc)
    }

    /// Interns a subtraction, normalised to `a + (-b)` for constant `b`.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => self.constant(x.wrapping_sub(y)),
            (_, SymNode::Const(c)) => self.add_const(a, -c),
            _ if a == b => self.constant(0),
            _ => {
                // Represent x - y as x + (-1)*y so address spines stay Add.
                let minus1 = self.constant(-1);
                let neg = self.mul(b, minus1);
                self.add(a, neg)
            }
        }
    }

    /// Interns a multiplication with constant folding.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => self.constant(x.wrapping_mul(y)),
            (SymNode::Const(0), _) | (_, SymNode::Const(0)) => self.constant(0),
            (SymNode::Const(1), _) => b,
            (_, SymNode::Const(1)) => a,
            (SymNode::Const(_), _) => self.intern(SymNode::Mul(b, a)),
            _ => self.intern(SymNode::Mul(a, b)),
        }
    }

    /// Interns `a & b` with constant folding and identities.
    pub fn and_op(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => self.constant(x & y),
            (SymNode::Const(0), _) | (_, SymNode::Const(0)) => self.constant(0),
            _ if a == b => a,
            _ => self.intern(SymNode::And(a, b)),
        }
    }

    /// Interns `a | b` with constant folding and identities.
    pub fn or_op(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => self.constant(x | y),
            (SymNode::Const(0), _) => b,
            (_, SymNode::Const(0)) => a,
            _ if a == b => a,
            _ => self.intern(SymNode::Or(a, b)),
        }
    }

    /// Interns `a ^ b` with constant folding and identities.
    pub fn xor_op(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => self.constant(x ^ y),
            (SymNode::Const(0), _) => b,
            (_, SymNode::Const(0)) => a,
            _ if a == b => self.constant(0),
            _ => self.intern(SymNode::Xor(a, b)),
        }
    }

    /// Interns `a << b` (32-bit logical) with constant folding.
    pub fn shl_op(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => {
                self.constant(((x as u32) << (y as u32 & 31)) as i64)
            }
            (_, SymNode::Const(0)) => a,
            _ => self.intern(SymNode::Shl(a, b)),
        }
    }

    /// Interns `a >> b` (32-bit logical) with constant folding.
    pub fn shr_op(&mut self, a: ExprId, b: ExprId) -> ExprId {
        match (self.node(a), self.node(b)) {
            (SymNode::Const(x), SymNode::Const(y)) => {
                self.constant(((x as u32) >> (y as u32 & 31)) as i64)
            }
            (_, SymNode::Const(0)) => a,
            _ => self.intern(SymNode::Shr(a, b)),
        }
    }

    /// Interns a comparison value, folding when both sides are constant.
    pub fn cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        if let (SymNode::Const(x), SymNode::Const(y)) = (self.node(a), self.node(b)) {
            return self.constant(op.eval(x, y) as i64);
        }
        self.intern(SymNode::Cmp(op, a, b))
    }

    /// The constant value of `id` when it is a constant.
    pub fn as_const(&self, id: ExprId) -> Option<i64> {
        match self.node(id) {
            SymNode::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Splits an address into `(base, constant offset)` along the
    /// normalised `Add` spine. A plain expression has offset 0.
    pub fn base_offset(&self, id: ExprId) -> (ExprId, i64) {
        if let SymNode::Add(x, c) = self.node(id) {
            if let SymNode::Const(cv) = self.node(c) {
                return (x, cv);
            }
        }
        (id, 0)
    }

    /// True when `sub` occurs anywhere inside `id` (including `id`
    /// itself).
    pub fn contains(&self, id: ExprId, sub: ExprId) -> bool {
        if id == sub {
            return true;
        }
        match self.node(id) {
            SymNode::Deref { addr, .. } => self.contains(addr, sub),
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => self.contains(a, sub) || self.contains(b, sub),
            _ => false,
        }
    }

    /// True when any node inside `id` satisfies the predicate.
    pub fn any_node(&self, id: ExprId, pred: &mut impl FnMut(SymNode) -> bool) -> bool {
        if pred(self.node(id)) {
            return true;
        }
        match self.node(id) {
            SymNode::Deref { addr, .. } => self.any_node(addr, pred),
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => self.any_node(a, pred) || self.any_node(b, pred),
            _ => false,
        }
    }

    /// All base pointers contained in `id` — the paper's `GetPtrInVar`.
    ///
    /// For `deref(deref(arg0 + 0x58) + 0xEC)` this returns
    /// `[deref(arg0 + 0x58), arg0]`: every expression used as the base of
    /// a memory access, outermost first.
    pub fn ptrs_in(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.collect_ptrs(id, &mut out);
        out
    }

    /// [`Self::ptrs_in`] into a caller-owned scratch buffer, so hot
    /// loops can reuse one allocation across many expressions.
    pub fn ptrs_in_into(&self, id: ExprId, out: &mut Vec<ExprId>) {
        out.clear();
        self.collect_ptrs(id, out);
    }

    /// Maximum `Deref` nesting depth anywhere inside `id`; 0 when the
    /// expression touches no memory. `deref(deref(a+4)+8)` has depth 2.
    pub fn deref_depth(&self, id: ExprId) -> u32 {
        match self.node(id) {
            SymNode::Deref { addr, .. } => 1 + self.deref_depth(addr),
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => self.deref_depth(a).max(self.deref_depth(b)),
            _ => 0,
        }
    }

    fn collect_ptrs(&self, id: ExprId, out: &mut Vec<ExprId>) {
        match self.node(id) {
            SymNode::Deref { addr, .. } => {
                let (base, _) = self.base_offset(addr);
                if !out.contains(&base) {
                    out.push(base);
                }
                self.collect_ptrs(addr, out);
            }
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => {
                self.collect_ptrs(a, out);
                self.collect_ptrs(b, out);
            }
            _ => {}
        }
    }

    /// The innermost (root) pointer of `id`, when `id` is memory-shaped.
    ///
    /// For `deref(deref(arg0+0x4C) + 8)` the root pointer is `arg0` — the
    /// paper's `d.rootPtr` in Algorithm 2.
    pub fn root_ptr(&self, id: ExprId) -> Option<ExprId> {
        match self.node(id) {
            SymNode::Deref { addr, .. } => {
                let (base, _) = self.base_offset(addr);
                self.root_ptr(base).or(Some(base))
            }
            _ => None,
        }
    }

    /// Rewrites every occurrence of `from` inside `id` to `to`,
    /// re-normalising along the way — the `Replace` primitive of
    /// Algorithms 1 and 2.
    pub fn replace(&mut self, id: ExprId, from: ExprId, to: ExprId) -> ExprId {
        if id == from {
            return to;
        }
        match self.node(id) {
            SymNode::Deref { addr, width } => {
                let new_addr = self.replace(addr, from, to);
                if new_addr == addr {
                    id
                } else {
                    self.deref(new_addr, width)
                }
            }
            SymNode::Add(a, b) => {
                let (na, nb) = (self.replace(a, from, to), self.replace(b, from, to));
                if (na, nb) == (a, b) {
                    id
                } else {
                    self.add(na, nb)
                }
            }
            SymNode::Mul(a, b) => {
                let (na, nb) = (self.replace(a, from, to), self.replace(b, from, to));
                if (na, nb) == (a, b) {
                    id
                } else {
                    self.mul(na, nb)
                }
            }
            SymNode::And(a, b) => self.replace_bitop(id, SymNode::And, a, b, from, to),
            SymNode::Or(a, b) => self.replace_bitop(id, SymNode::Or, a, b, from, to),
            SymNode::Xor(a, b) => self.replace_bitop(id, SymNode::Xor, a, b, from, to),
            SymNode::Shl(a, b) => self.replace_bitop(id, SymNode::Shl, a, b, from, to),
            SymNode::Shr(a, b) => self.replace_bitop(id, SymNode::Shr, a, b, from, to),
            SymNode::Cmp(op, a, b) => {
                let (na, nb) = (self.replace(a, from, to), self.replace(b, from, to));
                if (na, nb) == (a, b) {
                    id
                } else {
                    self.cmp(op, na, nb)
                }
            }
            _ => id,
        }
    }

    fn replace_bitop(
        &mut self,
        id: ExprId,
        make: fn(ExprId, ExprId) -> SymNode,
        a: ExprId,
        b: ExprId,
        from: ExprId,
        to: ExprId,
    ) -> ExprId {
        let (na, nb) = (self.replace(a, from, to), self.replace(b, from, to));
        if (na, nb) == (a, b) {
            id
        } else {
            self.intern(make(na, nb))
        }
    }

    /// Rebuilds an expression bottom-up, letting `f` override any node.
    ///
    /// `f` is called on every node (leaves and interior); returning
    /// `Some(id)` replaces that whole subtree, returning `None` keeps the
    /// node and rewrites its children. Used by the interprocedural stage
    /// to map callee expressions into a caller's namespace
    /// (`arg_i → actual argument`, callee stack → fresh unknown).
    pub fn rewrite(
        &mut self,
        id: ExprId,
        f: &mut impl FnMut(&mut ExprPool, ExprId) -> Option<ExprId>,
    ) -> ExprId {
        if let Some(out) = f(self, id) {
            return out;
        }
        match self.node(id) {
            SymNode::Deref { addr, width } => {
                let a = self.rewrite(addr, f);
                if a == addr {
                    id
                } else {
                    self.deref(a, width)
                }
            }
            SymNode::Add(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.add(x, y)
                }
            }
            SymNode::Mul(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.mul(x, y)
                }
            }
            SymNode::And(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.and_op(x, y)
                }
            }
            SymNode::Or(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.or_op(x, y)
                }
            }
            SymNode::Xor(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.xor_op(x, y)
                }
            }
            SymNode::Shl(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.shl_op(x, y)
                }
            }
            SymNode::Shr(a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.shr_op(x, y)
                }
            }
            SymNode::Cmp(op, a, b) => {
                let (x, y) = (self.rewrite(a, f), self.rewrite(b, f));
                if (x, y) == (a, b) {
                    id
                } else {
                    self.cmp(op, x, y)
                }
            }
            _ => id,
        }
    }

    /// Re-interns an expression from another pool into this one.
    ///
    /// Used when merging per-function analysis results (computed in
    /// parallel with private pools) into the global pool of the
    /// interprocedural stage.
    pub fn translate(
        &mut self,
        src: &ExprPool,
        id: ExprId,
        memo: &mut HashMap<ExprId, ExprId>,
    ) -> ExprId {
        if let Some(&t) = memo.get(&id) {
            return t;
        }
        let out = match src.node(id) {
            n @ (SymNode::Const(_)
            | SymNode::Arg(_)
            | SymNode::RetSym(_)
            | SymNode::CallOut { .. }
            | SymNode::InitReg(_)
            | SymNode::StackBase
            | SymNode::Unknown(_)) => self.intern(n),
            SymNode::Deref { addr, width } => {
                let a = self.translate(src, addr, memo);
                self.deref(a, width)
            }
            SymNode::Add(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.add(x, y)
            }
            SymNode::Mul(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.mul(x, y)
            }
            SymNode::And(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.and_op(x, y)
            }
            SymNode::Or(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.or_op(x, y)
            }
            SymNode::Xor(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.xor_op(x, y)
            }
            SymNode::Shl(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.shl_op(x, y)
            }
            SymNode::Shr(a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.shr_op(x, y)
            }
            SymNode::Cmp(op, a, b) => {
                let (x, y) = (self.translate(src, a, memo), self.translate(src, b, memo));
                self.cmp(op, x, y)
            }
        };
        memo.insert(id, out);
        out
    }

    /// A displayable view of an expression in the paper's notation.
    pub fn display(&self, id: ExprId) -> DisplayExpr<'_> {
        DisplayExpr { pool: self, id }
    }
}

/// Snapshot token returned by [`ExprPool::mark`].
#[derive(Debug, Clone, Copy)]
pub struct PoolMark {
    len: usize,
    next_unknown: u32,
}

/// Helper returned by [`ExprPool::display`].
#[derive(Debug, Clone, Copy)]
pub struct DisplayExpr<'a> {
    pool: &'a ExprPool,
    id: ExprId,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.pool;
        match p.node(self.id) {
            SymNode::Const(v) => {
                if (-4096..4096).contains(&v) {
                    write!(f, "{v}")
                } else {
                    write!(f, "{v:#x}")
                }
            }
            SymNode::Arg(i) => write!(f, "arg{i}"),
            SymNode::RetSym(cs) => write!(f, "ret_{cs:#x}"),
            SymNode::CallOut { callsite, arg } => write!(f, "out_{callsite:#x}.{arg}"),
            SymNode::InitReg(r) => write!(f, "reg{r}_0"),
            SymNode::StackBase => write!(f, "sp0"),
            SymNode::Unknown(n) => write!(f, "unk{n}"),
            SymNode::Deref { addr, .. } => write!(f, "deref({})", p.display(addr)),
            SymNode::Add(a, b) => {
                if let SymNode::Const(c) = p.node(b) {
                    if c < 0 {
                        return write!(f, "{} - {:#x}", p.display(a), -c);
                    }
                    return write!(f, "{} + {:#x}", p.display(a), c);
                }
                write!(f, "{} + {}", p.display(a), p.display(b))
            }
            SymNode::Mul(a, b) => write!(f, "({} * {})", p.display(a), p.display(b)),
            SymNode::And(a, b) => write!(f, "({} & {})", p.display(a), p.display(b)),
            SymNode::Or(a, b) => write!(f, "({} | {})", p.display(a), p.display(b)),
            SymNode::Xor(a, b) => write!(f, "({} ^ {})", p.display(a), p.display(b)),
            SymNode::Shl(a, b) => write!(f, "({} << {})", p.display(a), p.display(b)),
            SymNode::Shr(a, b) => write!(f, "({} >> {})", p.display(a), p.display(b)),
            SymNode::Cmp(op, a, b) => {
                write!(f, "({} {op} {})", p.display(a), p.display(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_gives_stable_ids() {
        let mut p = ExprPool::new();
        let a = p.arg(0);
        let b = p.arg(0);
        assert_eq!(a, b);
        let c = p.arg(1);
        assert_ne!(a, c);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn add_normalises_to_base_plus_offset() {
        let mut p = ExprPool::new();
        let arg = p.arg(0);
        // ((arg0 + 4) + 8) folds to arg0 + 12.
        let e1 = p.add_const(arg, 4);
        let e2 = p.add_const(e1, 8);
        assert_eq!(p.base_offset(e2), (arg, 12));
        // 4 + arg0 commutes to arg0 + 4.
        let four = p.constant(4);
        let e3 = p.add(four, arg);
        assert_eq!(p.base_offset(e3), (arg, 4));
        // (arg0 + 4) + arg1 re-associates to (arg0 + arg1) + 4.
        let arg1 = p.arg(1);
        let e4 = p.add(e1, arg1);
        let (base, off) = p.base_offset(e4);
        assert_eq!(off, 4);
        assert_eq!(p.node(base), SymNode::Add(arg, arg1));
    }

    #[test]
    fn sub_constant_becomes_negative_offset() {
        let mut p = ExprPool::new();
        let sp = p.stack_base();
        let c = p.constant(0x118);
        let e = p.sub(sp, c);
        assert_eq!(p.base_offset(e), (sp, -0x118));
        // x - x = 0
        assert_eq!(p.sub(sp, sp), p.constant(0));
    }

    #[test]
    fn constant_folding_everywhere() {
        let mut p = ExprPool::new();
        let a = p.constant(6);
        let b = p.constant(7);
        let m = p.mul(a, b);
        assert_eq!(p.as_const(m), Some(42));
        let s = p.add(a, b);
        assert_eq!(p.as_const(s), Some(13));
        let c = p.cmp(CmpOp::Lt, a, b);
        assert_eq!(p.as_const(c), Some(1));
        let x = p.arg(0);
        let zero = p.constant(0);
        assert_eq!(p.mul(x, zero), zero);
        let one = p.constant(1);
        assert_eq!(p.mul(x, one), x);
    }

    #[test]
    fn ptrs_in_matches_paper_example() {
        // deref(deref(arg0 + 0x58) + 0xEC) has base pointers
        // deref(arg0+0x58) and arg0.
        let mut p = ExprPool::new();
        let arg0 = p.arg(0);
        let inner_addr = p.add_const(arg0, 0x58);
        let inner = p.deref(inner_addr, 4);
        let outer_addr = p.add_const(inner, 0xec);
        let outer = p.deref(outer_addr, 4);
        let ptrs = p.ptrs_in(outer);
        assert_eq!(ptrs, vec![inner, arg0]);
        assert_eq!(p.root_ptr(outer), Some(arg0));
    }

    #[test]
    fn replace_rewrites_and_renormalises() {
        // Replace arg0 inside deref(arg0 + 0x4C) with (sp0 - 0x100):
        // deref(sp0 - 0x100 + 0x4C) = deref(sp0 - 0xB4).
        let mut p = ExprPool::new();
        let arg0 = p.arg(0);
        let addr = p.add_const(arg0, 0x4c);
        let var = p.deref(addr, 4);
        let sp = p.stack_base();
        let repl = p.add_const(sp, -0x100);
        let out = p.replace(var, arg0, repl);
        let SymNode::Deref { addr: na, .. } = p.node(out) else { panic!() };
        assert_eq!(p.base_offset(na), (sp, -0xb4));
    }

    #[test]
    fn replace_leaves_unrelated_expressions_alone() {
        let mut p = ExprPool::new();
        let a = p.arg(0);
        let b = p.arg(1);
        let e = p.add_const(b, 8);
        let sp = p.stack_base();
        assert_eq!(p.replace(e, a, sp), e);
    }

    #[test]
    fn contains_traverses_deref_chains() {
        let mut p = ExprPool::new();
        let arg0 = p.arg(0);
        let a1 = p.add_const(arg0, 0x4c);
        let d1 = p.deref(a1, 4);
        let d2 = p.deref(d1, 4);
        assert!(p.contains(d2, arg0));
        assert!(p.contains(d2, d1));
        let arg1 = p.arg(1);
        assert!(!p.contains(d2, arg1));
    }

    #[test]
    fn translate_between_pools_preserves_structure() {
        let mut src = ExprPool::new();
        let arg = src.arg(2);
        let addr = src.add_const(arg, 0x24);
        let var = src.deref(addr, 4);
        let mut dst = ExprPool::new();
        // Pre-populate dst so the ids diverge.
        dst.arg(7);
        dst.constant(99);
        let mut memo = HashMap::new();
        let t = dst.translate(&src, var, &mut memo);
        assert_eq!(dst.display(t).to_string(), src.display(var).to_string());
        // Translation is memoised and idempotent.
        let t2 = dst.translate(&src, var, &mut memo);
        assert_eq!(t, t2);
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut p = ExprPool::new();
        let arg1 = p.arg(1);
        let addr = p.add_const(arg1, 0x24);
        let inner = p.deref(addr, 4);
        let outer = p.deref(inner, 1);
        assert_eq!(p.display(outer).to_string(), "deref(deref(arg1 + 0x24))");
        let sp = p.stack_base();
        let below = p.add_const(sp, -0x100);
        assert_eq!(p.display(below).to_string(), "sp0 - 0x100");
    }

    #[test]
    fn cmp_op_properties() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Gt] {
            assert_eq!(op.negate().negate(), op);
            // negation flips evaluation on every input
            for (l, r) in [(1, 2), (2, 2), (3, 2)] {
                assert_ne!(op.eval(l, r), op.negate().eval(l, r));
            }
        }
        assert!(CmpOp::Lt.is_bounding());
        assert!(!CmpOp::Eq.is_bounding());
    }

    #[test]
    fn fresh_unknowns_are_distinct() {
        let mut p = ExprPool::new();
        assert_ne!(p.fresh_unknown(), p.fresh_unknown());
    }

    #[test]
    fn rollback_erases_everything_after_the_mark() {
        let mut p = ExprPool::new();
        let arg0 = p.arg(0);
        let kept = p.add_const(arg0, 4);
        let unk_before = p.next_unknown_index();
        let mark = p.mark();
        // Pollute the pool the way a panicking analysis would.
        let u = p.fresh_unknown();
        let junk = p.add(kept, u);
        p.deref(junk, 4);
        p.rollback(mark);
        assert_eq!(p.len(), mark.len);
        assert_eq!(p.next_unknown_index(), unk_before);
        // Old ids survive; re-interning after rollback reuses the same
        // ids a clean run would have produced.
        assert_eq!(p.add_const(arg0, 4), kept);
        let u2 = p.fresh_unknown();
        assert_eq!(p.node(u2), SymNode::Unknown(unk_before));
        assert_eq!(u2, u);
    }

    proptest! {
        #[test]
        fn add_chain_always_folds_to_single_offset(offs in proptest::collection::vec(-1000i64..1000, 1..8)) {
            let mut p = ExprPool::new();
            let base = p.arg(0);
            let mut e = base;
            let mut total = 0i64;
            for o in &offs {
                e = p.add_const(e, *o);
                total += o;
            }
            let (b, off) = p.base_offset(e);
            if total == 0 {
                prop_assert_eq!(e, base);
            } else {
                prop_assert_eq!(b, base);
                prop_assert_eq!(off, total);
            }
        }

        #[test]
        fn replace_is_identity_when_absent(x in 0u8..5, y in 5u8..10) {
            let mut p = ExprPool::new();
            let ax = p.arg(x);
            let addr = p.add_const(ax, 8);
            let e = p.deref(addr, 4);
            let ay = p.arg(y);
            let sp = p.stack_base();
            prop_assert_eq!(p.replace(e, ay, sp), e);
        }

        #[test]
        fn interning_is_injective_on_structure(c1 in -100i64..100, c2 in -100i64..100) {
            let mut p = ExprPool::new();
            let a = p.constant(c1);
            let b = p.constant(c2);
            prop_assert_eq!(a == b, c1 == c2);
        }
    }
}
