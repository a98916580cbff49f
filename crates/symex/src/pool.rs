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

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl SymNode {
    /// The node as one `u128`: a variant tag in bits 96..104, the first
    /// operand in bits 64..96 and the last in bits 0..64. Distinct nodes
    /// pack to distinct values, so hashing this one word hashes the node.
    pub fn packed(self) -> u128 {
        use SymNode::*;
        let (tag, hi, lo): (u8, u32, u64) = match self {
            Const(v) => (0, 0, v as u64),
            Arg(i) => (1, 0, i.into()),
            RetSym(cs) => (2, 0, cs.into()),
            CallOut { callsite, arg } => (3, arg.into(), callsite.into()),
            InitReg(r) => (4, 0, r.into()),
            StackBase => (5, 0, 0),
            Unknown(n) => (6, 0, n.into()),
            Deref { addr, width } => (7, width.into(), addr.0.into()),
            Add(a, b) => (8, a.0, b.0.into()),
            Mul(a, b) => (9, a.0, b.0.into()),
            And(a, b) => (10, a.0, b.0.into()),
            Or(a, b) => (11, a.0, b.0.into()),
            Xor(a, b) => (12, a.0, b.0.into()),
            Shl(a, b) => (13, a.0, b.0.into()),
            Shr(a, b) => (14, a.0, b.0.into()),
            Cmp(op, a, b) => (15 + op as u8, a.0, b.0.into()),
        };
        u128::from(tag) << 96 | u128::from(hi) << 64 | u128::from(lo)
    }

    /// True for a node without operands. Walks answer these directly,
    /// outside their memo.
    fn is_leaf(self) -> bool {
        use SymNode::*;
        matches!(
            self,
            Const(_) | Arg(_) | RetSym(_) | CallOut { .. } | InitReg(_) | StackBase | Unknown(_)
        )
    }
}

impl Hash for SymNode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.packed());
    }
}

/// Slots in a pool's intern cache: 4 KiB of `u32` ids, in two-way sets.
const INTERN_CACHE_SLOTS: usize = 1 << 10;

/// The intern-cache set of a packed node: a fixed multiplicative hash
/// (Fibonacci hashing) of the word's two halves.
fn intern_set(packed: u128) -> usize {
    let sets = (INTERN_CACHE_SLOTS / 2).trailing_zeros();
    let folded = (packed as u64) ^ ((packed >> 64) as u64).rotate_left(32);
    (folded.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - sets)) as usize
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
    /// The authority on what is interned: keyed std SipHash, so
    /// attacker-chosen constants cannot force collisions.
    dedup: HashMap<SymNode, ExprId>,
    /// A cache in front of `dedup`: per [`intern_set`], the ids of the
    /// two nodes of that set interned most recently, the latest first.
    /// A slot is only a guess — it is used when `nodes` holds the same
    /// node at that id — so stale slots (after [`Self::rollback`]) and
    /// colliding nodes only cost a miss. Allocated on the first intern.
    recent: Vec<u32>,
    next_unknown: u32,
    interns: u64,
    intern_cache_hits: u64,
    /// A cell because the read-only walks count too.
    walk_visits: Cell<u64>,
}

/// Logical work counters of one [`ExprPool`]: deterministic for a
/// deterministic sequence of calls, so thread-invariant wherever the
/// pool's history is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`ExprPool::intern`], direct or through a constructor.
    pub interns: u64,
    /// Interns answered by the intern cache, without hashing.
    pub intern_cache_hits: u64,
    /// Interior nodes entered by the DAG walks (`replace`, `rewrite`,
    /// `any_node`, `contains`, `deref_depth`, `ptrs_in`), memoised
    /// revisits included.
    pub walk_visits: u64,
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, other: PoolStats) {
        self.interns += other.interns;
        self.intern_cache_hits += other.intern_cache_hits;
        self.walk_visits += other.walk_visits;
    }
}

/// What one walk over an expression DAG has worked out: per interior
/// node, its answer. Hash-consing shares subterms freely (`x + x` holds
/// `x` once), so a walk that recursed into every occurrence would take
/// time exponential in the depth of the sharing. Past its first
/// [`WALK_MEMO_AFTER`] interior visits a walk remembers every answer
/// and works each distinct node out once; shorter walks — nearly all of
/// them — cost what plain recursion costs. Leaves are answered directly.
struct WalkMemo<T> {
    /// Allocated when the walk starts memoising.
    done: Option<HashMap<ExprId, T>>,
    visits: u64,
}

/// Interior-node visits a walk makes before it starts memoising.
const WALK_MEMO_AFTER: u64 = 64;

impl<T: Copy> WalkMemo<T> {
    fn new() -> Self {
        WalkMemo { done: None, visits: 0 }
    }

    /// Counts a visit of `id`; its answer when the walk already has one.
    fn enter(&mut self, id: ExprId) -> Option<T> {
        self.visits += 1;
        self.done.as_ref()?.get(&id).copied()
    }

    /// Records `id`'s answer, once the walk memoises, and returns it.
    fn leave(&mut self, id: ExprId, answer: T) -> T {
        if self.visits > WALK_MEMO_AFTER {
            self.done.get_or_insert_with(HashMap::new).insert(id, answer);
        }
        answer
    }
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

    /// The pool's logical work counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            interns: self.interns,
            intern_cache_hits: self.intern_cache_hits,
            walk_visits: self.walk_visits.get(),
        }
    }

    /// Interns a node verbatim (no normalisation).
    ///
    /// The intern cache answers most calls without hashing; a miss falls
    /// through to the dedup map. Either way the node becomes its set's
    /// latest entry.
    pub fn intern(&mut self, node: SymNode) -> ExprId {
        self.interns += 1;
        if self.recent.is_empty() {
            self.recent = vec![u32::MAX; INTERN_CACHE_SLOTS];
        }
        let set = 2 * intern_set(node.packed());
        let (recent, older) = (self.recent[set], self.recent[set + 1]);
        if self.nodes.get(recent as usize) == Some(&node) {
            self.intern_cache_hits += 1;
            return ExprId(recent);
        }
        let id = if self.nodes.get(older as usize) == Some(&node) {
            self.intern_cache_hits += 1;
            ExprId(older)
        } else {
            let nodes = &mut self.nodes;
            *self.dedup.entry(node).or_insert_with(|| {
                nodes.push(node);
                ExprId(nodes.len() as u32 - 1)
            })
        };
        self.recent[set] = id.0;
        self.recent[set + 1] = recent;
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
    /// the pool size. The intern cache needs no undo: a slot naming an
    /// erased id fails validation like any other stale slot.
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
        self.walk(|p, memo| p.contains_in(id, sub, memo))
    }

    fn contains_in(&self, id: ExprId, sub: ExprId, memo: &mut WalkMemo<bool>) -> bool {
        if id == sub {
            return true;
        }
        // Nothing below a node older than `sub` can be `sub` (see
        // `replace_in`).
        if id < sub {
            return false;
        }
        let node = self.node(id);
        if node.is_leaf() {
            return false;
        }
        if let Some(hit) = memo.enter(id) {
            return hit;
        }
        let hit = match node {
            SymNode::Deref { addr, .. } => self.contains_in(addr, sub, memo),
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => {
                self.contains_in(a, sub, memo) || self.contains_in(b, sub, memo)
            }
            _ => false,
        };
        memo.leave(id, hit)
    }

    /// True when any node inside `id` satisfies the predicate.
    ///
    /// The predicate must answer as a function of the node: a long walk
    /// asks it once per distinct node, a short one once per occurrence.
    pub fn any_node(&self, id: ExprId, pred: &mut impl FnMut(SymNode) -> bool) -> bool {
        self.walk(|p, memo| p.any_node_in(id, pred, memo))
    }

    fn any_node_in(
        &self,
        id: ExprId,
        pred: &mut impl FnMut(SymNode) -> bool,
        memo: &mut WalkMemo<bool>,
    ) -> bool {
        let node = self.node(id);
        if node.is_leaf() {
            return pred(node);
        }
        if let Some(hit) = memo.enter(id) {
            return hit;
        }
        let hit = pred(node)
            || match node {
                SymNode::Deref { addr, .. } => self.any_node_in(addr, pred, memo),
                SymNode::Add(a, b)
                | SymNode::Mul(a, b)
                | SymNode::And(a, b)
                | SymNode::Or(a, b)
                | SymNode::Xor(a, b)
                | SymNode::Shl(a, b)
                | SymNode::Shr(a, b)
                | SymNode::Cmp(_, a, b) => {
                    self.any_node_in(a, pred, memo) || self.any_node_in(b, pred, memo)
                }
                _ => false,
            };
        memo.leave(id, hit)
    }

    /// All base pointers contained in `id` — the paper's `GetPtrInVar`.
    ///
    /// For `deref(deref(arg0 + 0x58) + 0xEC)` this returns
    /// `[deref(arg0 + 0x58), arg0]`: every expression used as the base of
    /// a memory access, outermost first.
    pub fn ptrs_in(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.ptrs_in_into(id, &mut out);
        out
    }

    /// [`Self::ptrs_in`] into a caller-owned scratch buffer, so hot
    /// loops can reuse one allocation across many expressions.
    pub fn ptrs_in_into(&self, id: ExprId, out: &mut Vec<ExprId>) {
        out.clear();
        self.walk(|p, memo| p.collect_ptrs(id, out, memo));
    }

    /// Maximum `Deref` nesting depth anywhere inside `id`; 0 when the
    /// expression touches no memory. `deref(deref(a+4)+8)` has depth 2.
    pub fn deref_depth(&self, id: ExprId) -> u32 {
        self.walk(|p, memo| p.deref_depth_in(id, memo))
    }

    fn deref_depth_in(&self, id: ExprId, memo: &mut WalkMemo<u32>) -> u32 {
        let node = self.node(id);
        if node.is_leaf() {
            return 0;
        }
        if let Some(depth) = memo.enter(id) {
            return depth;
        }
        let depth = match node {
            SymNode::Deref { addr, .. } => 1 + self.deref_depth_in(addr, memo),
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => {
                self.deref_depth_in(a, memo).max(self.deref_depth_in(b, memo))
            }
            _ => 0,
        };
        memo.leave(id, depth)
    }

    /// Appends the bases below `id` that `out` lacks. A node already
    /// walked has nothing left to add.
    fn collect_ptrs(&self, id: ExprId, out: &mut Vec<ExprId>, memo: &mut WalkMemo<()>) {
        let node = self.node(id);
        if node.is_leaf() || memo.enter(id).is_some() {
            return;
        }
        match node {
            SymNode::Deref { addr, .. } => {
                let (base, _) = self.base_offset(addr);
                if !out.contains(&base) {
                    out.push(base);
                }
                self.collect_ptrs(addr, out, memo);
            }
            SymNode::Add(a, b)
            | SymNode::Mul(a, b)
            | SymNode::And(a, b)
            | SymNode::Or(a, b)
            | SymNode::Xor(a, b)
            | SymNode::Shl(a, b)
            | SymNode::Shr(a, b)
            | SymNode::Cmp(_, a, b) => {
                self.collect_ptrs(a, out, memo);
                self.collect_ptrs(b, out, memo);
            }
            _ => {}
        }
        memo.leave(id, ());
    }

    /// Runs one DAG walk with a fresh memo and adds its visits to
    /// [`PoolStats::walk_visits`].
    fn walk<T: Copy, R>(&self, body: impl FnOnce(&Self, &mut WalkMemo<T>) -> R) -> R {
        let mut memo = WalkMemo::new();
        let out = body(self, &mut memo);
        self.walk_visits.set(self.walk_visits.get() + memo.visits);
        out
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
        self.walk_mut(|p, memo| p.replace_in(id, from, to, memo))
    }

    /// [`Self::walk`] for the walks that intern.
    fn walk_mut<R>(&mut self, body: impl FnOnce(&mut Self, &mut WalkMemo<ExprId>) -> R) -> R {
        let mut memo = WalkMemo::new();
        let out = body(self, &mut memo);
        *self.walk_visits.get_mut() += memo.visits;
        out
    }

    fn replace_in(
        &mut self,
        id: ExprId,
        from: ExprId,
        to: ExprId,
        memo: &mut WalkMemo<ExprId>,
    ) -> ExprId {
        if id == from {
            return to;
        }
        // Operands are interned before the nodes that use them, so
        // nothing below an older node can be `from`.
        if id < from {
            return id;
        }
        let node = self.node(id);
        if node.is_leaf() {
            return id;
        }
        if let Some(out) = memo.enter(id) {
            return out;
        }
        let mut pair = |p: &mut Self, a, b| {
            let (x, y) = (p.replace_in(a, from, to, memo), p.replace_in(b, from, to, memo));
            ((x, y) != (a, b)).then_some((x, y))
        };
        let out = match node {
            SymNode::Deref { addr, width } => {
                let new_addr = self.replace_in(addr, from, to, memo);
                if new_addr == addr {
                    id
                } else {
                    self.deref(new_addr, width)
                }
            }
            SymNode::Add(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.add(x, y)),
            SymNode::Mul(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.mul(x, y)),
            SymNode::And(a, b) => {
                pair(self, a, b).map_or(id, |(x, y)| self.intern(SymNode::And(x, y)))
            }
            SymNode::Or(a, b) => {
                pair(self, a, b).map_or(id, |(x, y)| self.intern(SymNode::Or(x, y)))
            }
            SymNode::Xor(a, b) => {
                pair(self, a, b).map_or(id, |(x, y)| self.intern(SymNode::Xor(x, y)))
            }
            SymNode::Shl(a, b) => {
                pair(self, a, b).map_or(id, |(x, y)| self.intern(SymNode::Shl(x, y)))
            }
            SymNode::Shr(a, b) => {
                pair(self, a, b).map_or(id, |(x, y)| self.intern(SymNode::Shr(x, y)))
            }
            SymNode::Cmp(op, a, b) => pair(self, a, b).map_or(id, |(x, y)| self.cmp(op, x, y)),
            _ => id,
        };
        memo.leave(id, out)
    }

    /// Rebuilds an expression bottom-up, letting `f` override any node.
    ///
    /// `f` is called top-down on the nodes (leaves and interior);
    /// returning `Some(id)` replaces that whole subtree, returning `None`
    /// keeps the node and rewrites its children. `f` must answer as a
    /// function of the node: a long walk asks it once per distinct node,
    /// a short one once per occurrence. Used by the interprocedural stage to map callee expressions into a
    /// caller's namespace (`arg_i → actual argument`, callee stack →
    /// fresh unknown).
    pub fn rewrite(
        &mut self,
        id: ExprId,
        f: &mut impl FnMut(&mut ExprPool, ExprId) -> Option<ExprId>,
    ) -> ExprId {
        self.walk_mut(|p, memo| p.rewrite_in(id, f, memo))
    }

    fn rewrite_in(
        &mut self,
        id: ExprId,
        f: &mut impl FnMut(&mut ExprPool, ExprId) -> Option<ExprId>,
        memo: &mut WalkMemo<ExprId>,
    ) -> ExprId {
        let node = self.node(id);
        if node.is_leaf() {
            return f(self, id).unwrap_or(id);
        }
        if let Some(out) = memo.enter(id) {
            return out;
        }
        if let Some(out) = f(self, id) {
            return memo.leave(id, out);
        }
        let mut pair = |p: &mut Self, a, b| {
            let (x, y) = (p.rewrite_in(a, f, memo), p.rewrite_in(b, f, memo));
            ((x, y) != (a, b)).then_some((x, y))
        };
        let out = match node {
            SymNode::Deref { addr, width } => {
                let a = self.rewrite_in(addr, f, memo);
                if a == addr {
                    id
                } else {
                    self.deref(a, width)
                }
            }
            SymNode::Add(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.add(x, y)),
            SymNode::Mul(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.mul(x, y)),
            SymNode::And(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.and_op(x, y)),
            SymNode::Or(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.or_op(x, y)),
            SymNode::Xor(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.xor_op(x, y)),
            SymNode::Shl(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.shl_op(x, y)),
            SymNode::Shr(a, b) => pair(self, a, b).map_or(id, |(x, y)| self.shr_op(x, y)),
            SymNode::Cmp(op, a, b) => pair(self, a, b).map_or(id, |(x, y)| self.cmp(op, x, y)),
            _ => id,
        };
        memo.leave(id, out)
    }

    /// Re-interns an expression from another pool into this one.
    ///
    /// Used when merging per-function analysis results (computed in
    /// parallel with private pools) into the global pool of the
    /// interprocedural stage. `memo` remembers what is already
    /// translated from `src`; sharing one memo across many expressions
    /// yields exactly the ids separate memos would, since a memo hit is
    /// what re-translation finds through deduplication.
    ///
    /// # Panics
    ///
    /// Panics when `memo` was sized for a smaller pool than `src`.
    pub fn translate(&mut self, src: &ExprPool, id: ExprId, memo: &mut TranslationMemo) -> ExprId {
        let slot = id.0 as usize;
        if memo.map[slot] != TranslationMemo::UNSET {
            return ExprId(memo.map[slot]);
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
        memo.map[slot] = out.0;
        out
    }

    /// A displayable view of an expression in the paper's notation.
    pub fn display(&self, id: ExprId) -> DisplayExpr<'_> {
        DisplayExpr { pool: self, id }
    }
}

/// What [`ExprPool::translate`] has already copied out of one source
/// pool: a dense map from source id to destination id.
#[derive(Debug, Clone)]
pub struct TranslationMemo {
    map: Vec<u32>,
}

impl TranslationMemo {
    const UNSET: u32 = u32::MAX;

    /// An empty memo for translating out of `src`.
    pub fn for_pool(src: &ExprPool) -> Self {
        TranslationMemo { map: vec![Self::UNSET; src.len()] }
    }

    /// Source nodes translated so far — the memo's misses.
    pub fn translated(&self) -> usize {
        self.map.iter().filter(|&&t| t != Self::UNSET).count()
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
        let mut memo = TranslationMemo::for_pool(&src);
        let t = dst.translate(&src, var, &mut memo);
        assert_eq!(dst.display(t).to_string(), src.display(var).to_string());
        // Translation is memoised and idempotent.
        let t2 = dst.translate(&src, var, &mut memo);
        assert_eq!(t, t2);
        assert_eq!(memo.translated(), src.len());
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

    /// `x_{k+1} = x_k + x_k` from `x_0 = base`: `k + 1` distinct nodes,
    /// but `2^k` occurrences of `base` as a tree.
    fn doubling(p: &mut ExprPool, base: ExprId, k: usize) -> ExprId {
        (0..k).fold(base, |x, _| p.intern(SymNode::Add(x, x)))
    }

    /// Walk visits the call makes, which must stay linear in the DAG.
    fn visits_of<R>(p: &mut ExprPool, walk: impl FnOnce(&mut ExprPool) -> R) -> (R, u64) {
        let before = p.stats().walk_visits;
        let out = walk(p);
        (out, p.stats().walk_visits - before)
    }

    #[test]
    fn replace_walks_a_shared_dag_once_per_node() {
        let mut p = ExprPool::new();
        let (arg0, sp) = (p.arg(0), p.stack_base());
        let x = doubling(&mut p, arg0, 64);
        let want = doubling(&mut p, sp, 64);
        let (out, visits) = visits_of(&mut p, |p| p.replace(x, arg0, sp));
        assert_eq!(out, want);
        assert!(visits <= 64 + 3 * 65, "replace visited {visits} nodes");
        // `from` newer than the whole expression: nothing to walk.
        let fresh = p.arg(7);
        assert_eq!(visits_of(&mut p, |p| p.replace(x, fresh, sp)), (x, 0));
    }

    #[test]
    fn rewrite_walks_a_shared_dag_once_per_node() {
        let mut p = ExprPool::new();
        let (arg0, sp) = (p.arg(0), p.stack_base());
        let x = doubling(&mut p, arg0, 64);
        let want = doubling(&mut p, sp, 64);
        let mut asked = 0u64;
        let (out, visits) = visits_of(&mut p, |p| {
            p.rewrite(x, &mut |p, id| {
                asked += 1;
                (p.node(id) == SymNode::Arg(0)).then_some(sp)
            })
        });
        assert_eq!(out, want);
        assert!(visits <= 64 + 3 * 65, "rewrite visited {visits} nodes");
        assert!(asked <= visits);
    }

    #[test]
    fn read_only_walks_visit_a_shared_dag_once_per_node() {
        let mut p = ExprPool::new();
        let (arg0, sp) = (p.arg(0), p.stack_base());
        let x = doubling(&mut p, arg0, 64);
        let bound = 64 + 3 * 65;
        let (hit, visits) = visits_of(&mut p, |p| p.any_node(x, &mut |n| n == SymNode::StackBase));
        assert!(!hit && visits <= bound, "any_node visited {visits} nodes");
        let (hit, visits) = visits_of(&mut p, |p| p.any_node(x, &mut |n| n == SymNode::Arg(0)));
        assert!(hit && visits <= bound);
        let (hit, visits) = visits_of(&mut p, |p| p.contains(x, arg0));
        assert!(hit && visits <= bound);
        let (hit, visits) = visits_of(&mut p, |p| p.contains(x, sp));
        assert!(!hit && visits <= bound);
        let fresh = p.arg(7);
        assert_eq!(visits_of(&mut p, |p| p.contains(x, fresh)), (false, 0), "arg7 is newer than x");
        // d_{k+1} = deref(d_k + d_k): depth and bases of a shared deref DAG.
        let mut d = arg0;
        let mut bases = Vec::new();
        for _ in 0..64 {
            let addr = p.intern(SymNode::Add(d, d));
            bases.push(addr);
            d = p.deref(addr, 4);
        }
        bases.reverse();
        let (depth, visits) = visits_of(&mut p, |p| p.deref_depth(d));
        assert!(depth == 64 && visits <= 2 * bound, "deref_depth visited {visits} nodes");
        let (ptrs, visits) = visits_of(&mut p, |p| p.ptrs_in(d));
        assert!(ptrs == bases && visits <= 2 * bound, "ptrs_in visited {visits} nodes");
    }

    /// A reference pool that interns through its map alone.
    #[derive(Default)]
    struct PlainPool {
        nodes: Vec<SymNode>,
        map: HashMap<SymNode, ExprId>,
    }

    impl PlainPool {
        fn intern(&mut self, node: SymNode) -> ExprId {
            let next = ExprId(self.nodes.len() as u32);
            let id = *self.map.entry(node).or_insert(next);
            if id == next {
                self.nodes.push(node);
            }
            id
        }

        fn rollback(&mut self, len: usize) {
            for node in self.nodes.drain(len..) {
                self.map.remove(&node);
            }
        }
    }

    /// Constants that all land in intern-cache set 0.
    fn colliding_constants() -> Vec<i64> {
        let set0 = |v: i64| intern_set(SymNode::Const(v).packed()) == 0;
        let found: Vec<i64> = (0..1 << 20).filter(|&v| set0(v)).take(12).collect();
        assert_eq!(found.len(), 12);
        found
    }

    #[test]
    fn packed_is_injective_on_variants() {
        let (a, b) = (ExprId(1), ExprId(2));
        let nodes = [
            SymNode::Const(1),
            SymNode::Const(-1),
            SymNode::Arg(1),
            SymNode::RetSym(1),
            SymNode::CallOut { callsite: 1, arg: 0 },
            SymNode::CallOut { callsite: 0, arg: 1 },
            SymNode::InitReg(1),
            SymNode::StackBase,
            SymNode::Unknown(1),
            SymNode::Deref { addr: a, width: 1 },
            SymNode::Deref { addr: a, width: 4 },
            SymNode::Add(a, b),
            SymNode::Add(b, a),
            SymNode::Mul(a, b),
            SymNode::And(a, b),
            SymNode::Or(a, b),
            SymNode::Xor(a, b),
            SymNode::Shl(a, b),
            SymNode::Shr(a, b),
            SymNode::Cmp(CmpOp::Eq, a, b),
            SymNode::Cmp(CmpOp::Ne, a, b),
            SymNode::Cmp(CmpOp::Lt, a, b),
            SymNode::Cmp(CmpOp::Ge, a, b),
            SymNode::Cmp(CmpOp::Le, a, b),
            SymNode::Cmp(CmpOp::Gt, a, b),
        ];
        let packed: std::collections::HashSet<u128> = nodes.iter().map(|n| n.packed()).collect();
        assert_eq!(packed.len(), nodes.len());
    }

    proptest! {
        /// The intern cache never changes what interning returns: under
        /// random interns (many into one cache set), marks and rollbacks,
        /// ids, `len()` and `node()` match a pool that only uses a map.
        #[test]
        fn intern_cache_matches_a_plain_map(
            ops in proptest::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 1..300)
        ) {
            let colliding = colliding_constants();
            let (mut p, mut r) = (ExprPool::new(), PlainPool::default());
            let mut marks: Vec<PoolMark> = Vec::new();
            let mut interns = 0;
            for (kind, x, y) in ops {
                let len = p.len() as u32;
                let pick = |v: u32| ExprId(v % len);
                let node = match kind {
                    0..=3 => SymNode::Const(colliding[x as usize % colliding.len()]),
                    4 => SymNode::Arg((x % 6) as u8),
                    5 if len > 0 => SymNode::Add(pick(x), pick(y)),
                    6 if len > 0 => SymNode::Deref { addr: pick(x), width: 4 },
                    7 if len > 0 => SymNode::Cmp(CmpOp::Lt, pick(x), pick(y)),
                    8 => {
                        marks.push(p.mark());
                        continue;
                    }
                    9 => {
                        if let Some(m) = marks.pop() {
                            p.rollback(m);
                            r.rollback(m.len);
                        }
                        continue;
                    }
                    _ => SymNode::RetSym(x % 4),
                };
                interns += 1;
                prop_assert_eq!(p.intern(node), r.intern(node));
                prop_assert_eq!(p.len(), r.nodes.len());
            }
            for (i, &node) in r.nodes.iter().enumerate() {
                prop_assert_eq!(p.node(ExprId(i as u32)), node);
            }
            prop_assert_eq!(p.stats().interns, interns);
        }

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
