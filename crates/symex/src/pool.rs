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
//!   Algorithm 2 (formal→actual argument substitution),
//! * **leaf signatures** — every node carries the set of leaf kinds below
//!   it (and whether a `Deref` is), plus hashed bits of the ids of its
//!   leaves other than constants, so the DAG walks skip subtrees that
//!   cannot hold what they look for.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::BitOr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An interned symbolic expression (index into an [`ExprPool`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Comparison operators appearing in path constraints.
///
/// `op as u8` is the operator's tag in [`SymNode::packed`] and in every
/// serialized form; the numbering is part of the on-disk format, so the
/// variants are never reordered.
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

    /// The operator whose tag (`op as u8`) is `t`.
    pub fn from_tag(t: u8) -> Option<CmpOp> {
        use CmpOp::*;
        [Eq, Ne, Lt, Ge, Le, Gt].get(usize::from(t)).copied()
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

    /// The node's operands: `(addr, None)` for a `Deref`, `(a, Some(b))`
    /// for a binary node, `None` for a leaf. The DAG walks read a node's
    /// structure only through this (and rebuild it through the pool's
    /// private `rebuild`); they answer leaves directly, outside their
    /// memo.
    pub fn operands(self) -> Option<(ExprId, Option<ExprId>)> {
        use SymNode::*;
        match self {
            Const(_)
            | Arg(_)
            | RetSym(_)
            | CallOut { .. }
            | InitReg(_)
            | StackBase
            | Unknown(_) => None,
            Deref { addr, .. } => Some((addr, None)),
            Add(a, b)
            | Mul(a, b)
            | And(a, b)
            | Or(a, b)
            | Xor(a, b)
            | Shl(a, b)
            | Shr(a, b)
            | Cmp(_, a, b) => Some((a, Some(b))),
        }
    }
}

/// A set of node kinds: the seven leaf kinds and `Deref`, the kinds a
/// node's signature records exactly. The walks that act on some kinds
/// only ([`ExprPool::any_node`], [`ExprPool::rewrite`]) take the kinds
/// they act on and skip every subtree holding none of them;
/// [`ExprPool::holds_any`] answers from the signature alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kinds(u16);

impl Kinds {
    /// [`SymNode::Const`].
    pub const CONST: Kinds = Kinds(1 << SIG_ID_BITS);
    /// [`SymNode::Arg`].
    pub const ARG: Kinds = Kinds(1 << (SIG_ID_BITS + 1));
    /// [`SymNode::RetSym`].
    pub const RET_SYM: Kinds = Kinds(1 << (SIG_ID_BITS + 2));
    /// [`SymNode::CallOut`].
    pub const CALL_OUT: Kinds = Kinds(1 << (SIG_ID_BITS + 3));
    /// [`SymNode::InitReg`].
    pub const INIT_REG: Kinds = Kinds(1 << (SIG_ID_BITS + 4));
    /// [`SymNode::StackBase`].
    pub const STACK_BASE: Kinds = Kinds(1 << (SIG_ID_BITS + 5));
    /// [`SymNode::Unknown`].
    pub const UNKNOWN: Kinds = Kinds(1 << (SIG_ID_BITS + 6));
    /// [`SymNode::Deref`].
    pub const DEREF: Kinds = Kinds(1 << (SIG_ID_BITS + 7));

    /// The node's own kind: its leaf kind or `Deref`, and the empty set
    /// for the other interior kinds.
    fn of(node: SymNode) -> Kinds {
        use SymNode::*;
        match node {
            Const(_) => Kinds::CONST,
            Arg(_) => Kinds::ARG,
            RetSym(_) => Kinds::RET_SYM,
            CallOut { .. } => Kinds::CALL_OUT,
            InitReg(_) => Kinds::INIT_REG,
            StackBase => Kinds::STACK_BASE,
            Unknown(_) => Kinds::UNKNOWN,
            Deref { .. } => Kinds::DEREF,
            _ => Kinds(0),
        }
    }
}

impl BitOr for Kinds {
    type Output = Kinds;

    fn bitor(self, other: Kinds) -> Kinds {
        Kinds(self.0 | other.0)
    }
}

/// The low bits of a node signature: a leaf other than a constant sets
/// one of them, picked by a hash of its id. The eight [`Kinds`] bits sit
/// above them.
const SIG_ID_BITS: u32 = 8;

/// A leaf's signature: its kind bit and, unless it is a constant, its
/// id's hashed bit (Fibonacci hashing of the id onto [`SIG_ID_BITS`]
/// bits). Constants are the commonest leaf — every offset is one — so
/// their bits would fill most signatures' id bits, while the walks
/// seldom look for a constant: Hikvision's DDG walks entered 1.37 M
/// nodes with them and 0.95 M without. Ids follow push order, so
/// signatures are as thread-invariant as the ids are.
fn leaf_signature(kind: Kinds, id: u32) -> u16 {
    if kind == Kinds::CONST {
        return kind.0;
    }
    let bit = id.wrapping_mul(0x9e37_79b9) >> (32 - SIG_ID_BITS.trailing_zeros());
    kind.0 | 1 << bit
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

/// The pool's dedup index: open addressing with linear probing over
/// node ids, 4 bytes a slot. A slot stores no key — a probe confirms a
/// hit against the pool's node array — where a std map bucket holds the
/// node beside its id in 25 bytes. Slots are found by keyed std
/// SipHash of [`SymNode::packed`] (a per-pool [`RandomState`]), so
/// attacker-chosen constants cannot force collisions; ids follow push
/// order alone, never the hash.
#[derive(Debug, Clone, Default)]
struct DedupTable {
    keys: RandomState,
    /// [`Self::EMPTY`] or an id; a power of two long once anything is
    /// interned, and at most three quarters full.
    slots: Vec<u32>,
}

impl DedupTable {
    const EMPTY: u32 = u32::MAX;
    /// Slots of a table's first allocation.
    const MIN_SLOTS: usize = 64;

    /// Where `node`'s probe sequence starts.
    fn home(&self, node: SymNode) -> usize {
        self.keys.hash_one(node.packed()) as usize & (self.slots.len() - 1)
    }

    /// The slot holding `node`'s id, or the empty slot that ends its
    /// probe sequence.
    fn find(&self, nodes: &[SymNode], node: SymNode) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(node);
        loop {
            match self.slots[i] {
                Self::EMPTY => return i,
                id if nodes[id as usize] == node => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The id of `node`, pushing it onto `nodes` when it is new.
    fn intern(&mut self, nodes: &mut Vec<SymNode>, node: SymNode) -> ExprId {
        if (nodes.len() + 1) * 4 > self.slots.len() * 3 {
            self.resize(nodes, (self.slots.len() * 2).max(Self::MIN_SLOTS));
        }
        let i = self.find(nodes, node);
        if self.slots[i] == Self::EMPTY {
            self.slots[i] = nodes.len() as u32;
            nodes.push(node);
        }
        ExprId(self.slots[i])
    }

    /// Rebuilds the table at `slots` slots by inserting every id in
    /// order. The old slots are freed first, so a growth never holds
    /// two tables.
    fn resize(&mut self, nodes: &[SymNode], slots: usize) {
        self.slots = Vec::new();
        self.slots = vec![Self::EMPTY; slots];
        for (id, &node) in nodes.iter().enumerate() {
            let i = self.find(nodes, node);
            self.slots[i] = id as u32;
        }
    }

    /// Erases the ids from `len` on, newest first, before `nodes` is
    /// truncated to `len`.
    ///
    /// The table always holds exactly what inserting ids `0..nodes.len()`
    /// in order gives (a resize re-inserts in id order), and an insert
    /// only fills the first empty slot of its probe sequence, a slot no
    /// older id's probe sequence runs through. So emptying the newest
    /// id's slot undoes its insert exactly — nothing later in the
    /// cluster needs shifting back, and no tombstone is left.
    fn truncate(&mut self, nodes: &[SymNode], len: usize) {
        for &node in nodes[len..].iter().rev() {
            let i = self.find(nodes, node);
            self.slots[i] = Self::EMPTY;
        }
    }
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
    /// 16 bytes a node; an id is an index.
    nodes: Vec<SymNode>,
    /// Per node, its leaf signature: the [`Kinds`] bits of every leaf
    /// below it (`Deref` included for a deref anywhere in it) and the
    /// hashed id bits of those leaves ([`leaf_signature`]) — the OR of
    /// the operands' signatures for an interior node. A node that
    /// contains another holds every bit of the other's signature, so a
    /// walk looking for a node or a kind skips each subtree that lacks
    /// its bits. Two bytes a node, always as long as `nodes`.
    sigs: Vec<u16>,
    /// The authority on what is interned.
    dedup: DedupTable,
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
    /// revisits included; subtrees a leaf signature rules out are not
    /// entered.
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

    /// The leaf signature of `id` (see the `sigs` field).
    fn sig(&self, id: ExprId) -> u16 {
        self.sigs[id.0 as usize]
    }

    /// False when `id` cannot contain `sub`: `sub`'s signature has a bit
    /// `id`'s lacks. A necessary condition, like `sub <= id`.
    fn may_contain(&self, id: ExprId, sub: ExprId) -> bool {
        let want = self.sig(sub);
        self.sig(id) & want == want
    }

    /// True when some node inside `id` (`id` included) is of one of
    /// `kinds` — one signature lookup, exact.
    pub fn holds_any(&self, id: ExprId, kinds: Kinds) -> bool {
        self.sig(id) & kinds.0 != 0
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
    /// through to the dedup table. Either way the node becomes its set's
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
            let id = self.dedup.intern(&mut self.nodes, node);
            if self.sigs.len() < self.nodes.len() {
                // A new node.
                let own = Kinds::of(node);
                self.sigs.push(match node.operands() {
                    None => leaf_signature(own, id.0),
                    Some((a, b)) => own.0 | self.sig(a) | b.map_or(0, |b| self.sig(b)),
                });
            }
            debug_assert_eq!(self.sigs.len(), self.nodes.len());
            id
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
    /// Interning only ever appends, so a mark is two integers.
    /// [`Self::rollback`] erases every node (and unknown index) interned
    /// since, leaving the pool bit-identical to the snapshot — required
    /// so a caught panic cannot perturb expression ids or unknown
    /// numbering for the functions analysed afterwards. Per-function
    /// analysis pairs the two through [`Self::attempt`].
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
        self.dedup.truncate(&self.nodes, mark.len);
        self.nodes.truncate(mark.len);
        self.sigs.truncate(mark.len);
        debug_assert_eq!(self.sigs.len(), self.nodes.len());
        self.next_unknown = mark.next_unknown;
    }

    /// Runs one fallible per-function step as a unit: when `f` panics or
    /// returns `None`, every node, dedup entry and unknown index it
    /// interned is rolled back, so the pool is exactly as if the step
    /// never ran and later ids do not depend on whether it failed.
    /// `Some` keeps what `f` interned.
    pub fn attempt<T>(&mut self, f: impl FnOnce(&mut ExprPool) -> Option<T>) -> Option<T> {
        let mark = self.mark();
        let r = catch_unwind(AssertUnwindSafe(|| f(self))).ok().flatten();
        if r.is_none() {
            self.rollback(mark);
        }
        r
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
        // Nothing below a node older than `sub`, or lacking a bit of its
        // signature, can be `sub` (see `replace_in`).
        if id < sub || !self.may_contain(id, sub) {
            return false;
        }
        let Some((a, b)) = self.node(id).operands() else { return false };
        if let Some(hit) = memo.enter(id) {
            return hit;
        }
        let hit =
            self.contains_in(a, sub, memo) || b.is_some_and(|b| self.contains_in(b, sub, memo));
        memo.leave(id, hit)
    }

    /// True when any node inside `id` satisfies the predicate.
    ///
    /// `kinds` must hold every kind the predicate can accept: the walk
    /// skips, unasked, each subtree holding none of them. The predicate
    /// must answer as a function of the node: a long walk asks it once
    /// per distinct node, a short one once per occurrence.
    pub fn any_node(
        &self,
        id: ExprId,
        kinds: Kinds,
        pred: &mut impl FnMut(SymNode) -> bool,
    ) -> bool {
        self.walk(|p, memo| p.any_node_in(id, kinds, pred, memo))
    }

    fn any_node_in(
        &self,
        id: ExprId,
        kinds: Kinds,
        pred: &mut impl FnMut(SymNode) -> bool,
        memo: &mut WalkMemo<bool>,
    ) -> bool {
        if !self.holds_any(id, kinds) {
            return false;
        }
        let node = self.node(id);
        let Some((a, b)) = node.operands() else { return pred(node) };
        if let Some(hit) = memo.enter(id) {
            return hit;
        }
        let hit = pred(node)
            || self.any_node_in(a, kinds, pred, memo)
            || b.is_some_and(|b| self.any_node_in(b, kinds, pred, memo));
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
        if !self.holds_any(id, Kinds::DEREF) {
            return 0;
        }
        let node = self.node(id);
        let Some((a, b)) = node.operands() else { return 0 };
        if let Some(depth) = memo.enter(id) {
            return depth;
        }
        let below = self.deref_depth_in(a, memo).max(b.map_or(0, |b| self.deref_depth_in(b, memo)));
        memo.leave(id, below + u32::from(matches!(node, SymNode::Deref { .. })))
    }

    /// Appends the bases below `id` that `out` lacks. A node already
    /// walked, or holding no deref, has nothing left to add.
    fn collect_ptrs(&self, id: ExprId, out: &mut Vec<ExprId>, memo: &mut WalkMemo<()>) {
        if !self.holds_any(id, Kinds::DEREF) {
            return;
        }
        let node = self.node(id);
        let Some((a, b)) = node.operands() else { return };
        if memo.enter(id).is_some() {
            return;
        }
        if let SymNode::Deref { addr, .. } = node {
            let (base, _) = self.base_offset(addr);
            if !out.contains(&base) {
                out.push(base);
            }
        }
        self.collect_ptrs(a, out, memo);
        if let Some(b) = b {
            self.collect_ptrs(b, out, memo);
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
        if !self.may_contain(id, from) {
            return id;
        }
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
        // nothing below an older node can be `from`; nor below a node
        // whose signature lacks a bit of `from`'s.
        if id < from || !self.may_contain(id, from) {
            return id;
        }
        let node = self.node(id);
        let Some((a, b)) = node.operands() else { return id };
        if let Some(out) = memo.enter(id) {
            return out;
        }
        let x = self.replace_in(a, from, to, memo);
        let y = b.map(|b| self.replace_in(b, from, to, memo));
        let out = if (x, y) == (a, b) { id } else { self.replace_rebuild(node, x, y) };
        memo.leave(id, out)
    }

    /// [`Self::rebuild`] for `Replace`, which interns the bitwise kinds
    /// verbatim: folding them would change some DDG summaries, and cached
    /// ones would need a `dtaint-ddg` salt bump.
    fn replace_rebuild(&mut self, node: SymNode, x: ExprId, y: Option<ExprId>) -> ExprId {
        match (node, y) {
            (SymNode::And(..), Some(y)) => self.intern(SymNode::And(x, y)),
            (SymNode::Or(..), Some(y)) => self.intern(SymNode::Or(x, y)),
            (SymNode::Xor(..), Some(y)) => self.intern(SymNode::Xor(x, y)),
            (SymNode::Shl(..), Some(y)) => self.intern(SymNode::Shl(x, y)),
            (SymNode::Shr(..), Some(y)) => self.intern(SymNode::Shr(x, y)),
            _ => self.rebuild(node, x, y),
        }
    }

    /// Rebuilds an expression bottom-up, letting `f` override nodes of
    /// `kinds`.
    ///
    /// `f` is called top-down on the nodes (leaves and interior) that
    /// hold one of `kinds`; returning `Some(id)` replaces that whole
    /// subtree, returning `None` keeps the node and rewrites its
    /// children. Every subtree holding none of `kinds` is kept unasked,
    /// so `kinds` must hold every kind `f` acts on. `f` must answer as a
    /// function of the node: a long walk asks it once per distinct node,
    /// a short one once per occurrence. Used by the interprocedural
    /// stage to map callee expressions into a caller's namespace
    /// (`arg_i → actual argument`, callee stack → fresh unknown).
    pub fn rewrite(
        &mut self,
        id: ExprId,
        kinds: Kinds,
        f: &mut impl FnMut(&mut ExprPool, ExprId) -> Option<ExprId>,
    ) -> ExprId {
        self.walk_mut(|p, memo| p.rewrite_in(id, kinds, f, memo))
    }

    fn rewrite_in(
        &mut self,
        id: ExprId,
        kinds: Kinds,
        f: &mut impl FnMut(&mut ExprPool, ExprId) -> Option<ExprId>,
        memo: &mut WalkMemo<ExprId>,
    ) -> ExprId {
        if !self.holds_any(id, kinds) {
            return id;
        }
        let node = self.node(id);
        let Some((a, b)) = node.operands() else { return f(self, id).unwrap_or(id) };
        if let Some(out) = memo.enter(id) {
            return out;
        }
        if let Some(out) = f(self, id) {
            return memo.leave(id, out);
        }
        let x = self.rewrite_in(a, kinds, f, memo);
        let y = b.map(|b| self.rewrite_in(b, kinds, f, memo));
        let out = if (x, y) == (a, b) { id } else { self.rebuild(node, x, y) };
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
        let node = src.node(id);
        let out = match node.operands() {
            None => self.intern(node),
            Some((a, b)) => {
                let x = self.translate(src, a, memo);
                let y = b.map(|b| self.translate(src, b, memo));
                self.rebuild(node, x, y)
            }
        };
        memo.map[slot] = out.0;
        out
    }

    /// Interns `node`'s kind over new operands `x` (and `y`, for a binary
    /// node) through that kind's normalising constructor — the one place
    /// that says which constructor rebuilds which kind.
    ///
    /// # Panics
    ///
    /// Panics when `node` is a leaf or the operands do not fit it (see
    /// [`SymNode::operands`]).
    fn rebuild(&mut self, node: SymNode, x: ExprId, y: Option<ExprId>) -> ExprId {
        use SymNode::*;
        match (node, y) {
            (Deref { width, .. }, None) => self.deref(x, width),
            (Add(..), Some(y)) => self.add(x, y),
            (Mul(..), Some(y)) => self.mul(x, y),
            (And(..), Some(y)) => self.and_op(x, y),
            (Or(..), Some(y)) => self.or_op(x, y),
            (Xor(..), Some(y)) => self.xor_op(x, y),
            (Shl(..), Some(y)) => self.shl_op(x, y),
            (Shr(..), Some(y)) => self.shr_op(x, y),
            (Cmp(op, ..), Some(y)) => self.cmp(op, x, y),
            _ => unreachable!("operands do not fit {node:?}"),
        }
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

    /// `replace` interns the bitwise kinds verbatim, where `rewrite` and
    /// the constructors fold: the cached DDG summaries depend on it.
    #[test]
    fn replace_keeps_bitwise_nodes_verbatim() {
        let mut p = ExprPool::new();
        let (arg0, c) = (p.arg(0), p.constant(0xff));
        let four = p.constant(4);
        let and = p.intern(SymNode::And(arg0, c));
        let shl = p.intern(SymNode::Shl(arg0, c));
        let out = p.replace(and, arg0, four);
        assert_eq!(p.node(out), SymNode::And(four, c));
        let out = p.replace(shl, arg0, four);
        assert_eq!(p.node(out), SymNode::Shl(four, c));
        // The folding path gives the constant instead.
        let folded = p.rewrite(and, Kinds::ARG, &mut |_, id| (id == arg0).then_some(four));
        assert_eq!(p.as_const(folded), Some(4));
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
        for (tag, op) in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Gt]
            .into_iter()
            .enumerate()
        {
            // The on-disk tag is the declaration order.
            assert_eq!((op as u8, CmpOp::from_tag(tag as u8)), (tag as u8, Some(op)));
            assert_eq!(op.negate().negate(), op);
            // negation flips evaluation on every input
            for (l, r) in [(1, 2), (2, 2), (3, 2)] {
                assert_ne!(op.eval(l, r), op.negate().eval(l, r));
            }
        }
        assert_eq!(CmpOp::from_tag(6), None);
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

    #[test]
    fn attempt_rolls_back_panics_and_none_and_keeps_some() {
        let mut p = ExprPool::new();
        let arg0 = p.arg(0);
        let pollute = |p: &mut ExprPool| {
            let u = p.fresh_unknown();
            let junk = p.add(arg0, u);
            p.deref(junk, 4)
        };
        let (len, unk) = (p.len(), p.next_unknown_index());
        let panicked: Option<()> = p.attempt(|p| {
            pollute(p);
            panic!("drill")
        });
        assert!(panicked.is_none());
        assert_eq!((p.len(), p.next_unknown_index()), (len, unk));
        let declined: Option<ExprId> = p.attempt(|p| {
            pollute(p);
            None
        });
        assert!(declined.is_none());
        assert_eq!((p.len(), p.next_unknown_index()), (len, unk));
        let kept = p.attempt(|p| Some(pollute(p))).expect("step succeeds");
        assert_eq!(p.len(), len + 3);
        assert_eq!(p.next_unknown_index(), unk + 1);
        assert_eq!(p.node(kept), SymNode::Deref { addr: ExprId(kept.0 - 1), width: 4 });
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
        let (arg0, sp, arg1) = (p.arg(0), p.stack_base(), p.arg(1));
        let x = doubling(&mut p, arg0, 64);
        let want = doubling(&mut p, sp, 64);
        let (out, visits) = visits_of(&mut p, |p| p.replace(x, arg0, sp));
        assert_eq!(out, want);
        assert!(visits <= 64 + 3 * 65, "replace visited {visits} nodes");
        // `from` newer than the whole expression: nothing to walk.
        let fresh = p.arg(7);
        assert_eq!(visits_of(&mut p, |p| p.replace(x, fresh, sp)), (x, 0));
        // `from` older but absent — of another kind, or of `x`'s kind
        // with another id bit: the signatures rule it out unwalked.
        let len = p.len();
        assert_eq!(visits_of(&mut p, |p| p.replace(want, arg0, fresh)), (want, 0));
        assert_ne!(p.sig(arg1), p.sig(arg0));
        assert_eq!(visits_of(&mut p, |p| p.replace(x, arg1, fresh)), (x, 0));
        assert_eq!(p.len(), len);
    }

    #[test]
    fn rewrite_walks_a_shared_dag_once_per_node() {
        let mut p = ExprPool::new();
        let (arg0, sp) = (p.arg(0), p.stack_base());
        let x = doubling(&mut p, arg0, 64);
        let want = doubling(&mut p, sp, 64);
        let mut asked = 0u64;
        let (out, visits) = visits_of(&mut p, |p| {
            p.rewrite(x, Kinds::ARG, &mut |p, id| {
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
        let (hit, visits) =
            visits_of(&mut p, |p| p.any_node(x, Kinds::ARG, &mut |n| n == SymNode::Arg(1)));
        assert!(!hit && visits <= bound, "any_node visited {visits} nodes");
        let (hit, visits) =
            visits_of(&mut p, |p| p.any_node(x, Kinds::ARG, &mut |n| n == SymNode::Arg(0)));
        assert!(hit && visits <= bound);
        let (hit, visits) = visits_of(&mut p, |p| p.contains(x, arg0));
        assert!(hit && visits <= bound);
        // No stack base below `x`: its signature says so, unwalked.
        let stack = &mut |n| n == SymNode::StackBase;
        assert_eq!(visits_of(&mut p, |p| p.any_node(x, Kinds::STACK_BASE, stack)), (false, 0));
        assert_eq!(visits_of(&mut p, |p| p.contains(x, sp)), (false, 0));
        assert_eq!(visits_of(&mut p, |p| (p.deref_depth(x), p.ptrs_in(x))), ((0, vec![]), 0));
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

    /// A reference pool that interns through a std map alone, keyed by
    /// the packed node.
    #[derive(Default)]
    struct PlainPool {
        nodes: Vec<SymNode>,
        map: HashMap<u128, ExprId>,
    }

    impl PlainPool {
        fn intern(&mut self, node: SymNode) -> ExprId {
            let next = ExprId(self.nodes.len() as u32);
            let id = *self.map.entry(node.packed()).or_insert(next);
            if id == next {
                self.nodes.push(node);
            }
            id
        }

        fn rollback(&mut self, len: usize) {
            for node in self.nodes.drain(len..) {
                self.map.remove(&node.packed());
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

    /// The dedup table against a plain map through 200k distinct
    /// nodes. Every other round of interns is rolled back; the rounds
    /// grow with the pool, so many straddle a growth of the table. Each
    /// round starts by planting a probe cluster that wraps past the
    /// table's end. After each round the table is slot for slot what
    /// inserting the surviving ids in order gives.
    #[test]
    fn dedup_table_matches_a_plain_map_through_growth_and_rollback() {
        assert_eq!(std::mem::size_of::<SymNode>(), 16, "the node array's bytes a node");
        let (mut p, mut r) = (ExprPool::new(), PlainPool::default());
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        assert_eq!(p.intern(SymNode::StackBase), r.intern(SymNode::StackBase));
        let pick = |i: usize| ExprId(i as u32);
        let (mut fresh, mut undone_growths, mut wraps) = (0, 0, 0);
        for round in 0.. {
            if r.nodes.len() >= 200_000 {
                break;
            }
            // Plant a cluster that wraps past the table's end: a
            // constant homed in the last slot fills it, and the next
            // one runs on into slot 0. The hash is keyed per pool, so
            // such constants are searched for; an intern that grows the
            // table rehashes everything, and the search starts over at
            // the new size. The planted nodes are kept, so the round's
            // interns (and in odd rounds, their rollback) probe through
            // the wrapped cluster.
            for _ in 0..8 {
                let last = p.dedup.slots.len() - 1;
                if ![p.dedup.slots[0], p.dedup.slots[last]].contains(&DedupTable::EMPTY) {
                    break;
                }
                let node = loop {
                    fresh += 1;
                    if p.dedup.home(SymNode::Const(fresh)) == last {
                        break SymNode::Const(fresh);
                    }
                };
                assert_eq!(p.intern(node), r.intern(node), "round {round}: planting");
            }
            let (mark, slots) = (p.mark(), p.dedup.slots.len());
            for _ in 0..r.nodes.len() / 2 + 64 {
                let len = r.nodes.len();
                let node = match below(4) {
                    0 => {
                        fresh += 1;
                        SymNode::Const(fresh)
                    }
                    1 => SymNode::Add(pick(below(len)), pick(below(len))),
                    2 => SymNode::Deref { addr: pick(below(len)), width: 4 },
                    _ => r.nodes[below(len)],
                };
                assert_eq!(p.intern(node), r.intern(node), "round {round}");
                assert_eq!(p.len(), r.nodes.len());
            }
            if round % 2 == 1 {
                undone_growths += usize::from(p.dedup.slots.len() > slots);
                p.rollback(mark);
                r.rollback(mark.len);
                assert_eq!(p.len(), r.nodes.len());
            }
            let mut rebuilt = p.dedup.clone();
            rebuilt.resize(&p.nodes, rebuilt.slots.len());
            assert!(rebuilt.slots == p.dedup.slots, "round {round}: table differs from a rebuild");
            let ends = [p.dedup.slots[0], p.dedup.slots[p.dedup.slots.len() - 1]];
            wraps += usize::from(!ends.contains(&DedupTable::EMPTY));
            for (i, &node) in r.nodes.iter().enumerate() {
                assert_eq!(p.node(ExprId(i as u32)), node);
            }
        }
        assert!(undone_growths > 0 && wraps > 0, "{undone_growths} undone growths, {wraps} wraps");
        // Every kept node is still found, under its own id.
        for (i, &node) in r.nodes.iter().enumerate() {
            assert_eq!(p.intern(node), ExprId(i as u32));
        }
        assert_eq!(p.len(), r.nodes.len());
    }

    /// The walks without signatures, for checking the pruned ones:
    /// plain recursion into every operand, each distinct node worked out
    /// once (a full memo), no `id < from` rule.
    mod unpruned {
        use super::*;
        use std::collections::HashSet;

        pub fn contains(
            p: &ExprPool,
            id: ExprId,
            sub: ExprId,
            memo: &mut HashMap<ExprId, bool>,
        ) -> bool {
            if id == sub {
                return true;
            }
            let Some((a, b)) = p.node(id).operands() else { return false };
            if let Some(&hit) = memo.get(&id) {
                return hit;
            }
            let hit = contains(p, a, sub, memo) || b.is_some_and(|b| contains(p, b, sub, memo));
            memo.insert(id, hit);
            hit
        }

        pub fn any_node(p: &ExprPool, id: ExprId, pred: &impl Fn(SymNode) -> bool) -> bool {
            let mut seen = HashSet::new();
            let mut stack = vec![id];
            while let Some(id) = stack.pop() {
                if !seen.insert(id) {
                    continue;
                }
                let node = p.node(id);
                if pred(node) {
                    return true;
                }
                if let Some((a, b)) = node.operands() {
                    stack.extend([a].into_iter().chain(b));
                }
            }
            false
        }

        pub fn deref_depth(p: &ExprPool, id: ExprId, memo: &mut HashMap<ExprId, u32>) -> u32 {
            let node = p.node(id);
            let Some((a, b)) = node.operands() else { return 0 };
            if let Some(&depth) = memo.get(&id) {
                return depth;
            }
            let below = deref_depth(p, a, memo).max(b.map_or(0, |b| deref_depth(p, b, memo)));
            let depth = below + u32::from(matches!(node, SymNode::Deref { .. }));
            memo.insert(id, depth);
            depth
        }

        pub fn ptrs_in(
            p: &ExprPool,
            id: ExprId,
            out: &mut Vec<ExprId>,
            seen: &mut HashSet<ExprId>,
        ) {
            let node = p.node(id);
            let Some((a, b)) = node.operands() else { return };
            if !seen.insert(id) {
                return;
            }
            if let SymNode::Deref { addr, .. } = node {
                let (base, _) = p.base_offset(addr);
                if !out.contains(&base) {
                    out.push(base);
                }
            }
            ptrs_in(p, a, out, seen);
            if let Some(b) = b {
                ptrs_in(p, b, out, seen);
            }
        }

        pub fn replace(
            p: &mut ExprPool,
            id: ExprId,
            from: ExprId,
            to: ExprId,
            memo: &mut HashMap<ExprId, ExprId>,
        ) -> ExprId {
            if id == from {
                return to;
            }
            let node = p.node(id);
            let Some((a, b)) = node.operands() else { return id };
            if let Some(&out) = memo.get(&id) {
                return out;
            }
            let x = replace(p, a, from, to, memo);
            let y = b.map(|b| replace(p, b, from, to, memo));
            let out = if (x, y) == (a, b) { id } else { p.replace_rebuild(node, x, y) };
            memo.insert(id, out);
            out
        }

        pub fn rewrite(
            p: &mut ExprPool,
            id: ExprId,
            f: &mut impl FnMut(&mut ExprPool, ExprId) -> Option<ExprId>,
            memo: &mut HashMap<ExprId, ExprId>,
        ) -> ExprId {
            let node = p.node(id);
            let Some((a, b)) = node.operands() else { return f(p, id).unwrap_or(id) };
            if let Some(&out) = memo.get(&id) {
                return out;
            }
            let out = match f(p, id) {
                Some(out) => out,
                None => {
                    let x = rewrite(p, a, f, memo);
                    let y = b.map(|b| rewrite(p, b, f, memo));
                    if (x, y) == (a, b) {
                        id
                    } else {
                        p.rebuild(node, x, y)
                    }
                }
            };
            memo.insert(id, out);
            out
        }
    }

    /// One step of a random DAG's history: a leaf of each kind, interior
    /// nodes through the constructors and verbatim, marks, rollbacks and
    /// attempts that fail or keep what they interned.
    fn dag_step(p: &mut ExprPool, marks: &mut Vec<PoolMark>, (op, x, y): (u8, u32, u32)) {
        let len = p.len() as u32;
        let pick = |v: u32| ExprId(v % len.max(1));
        let interior = len > 0;
        let _ = match op {
            0 => p.constant(i64::from(x % 9) - 4),
            1 => p.arg((x % 4) as u8),
            2 => p.ret_sym(x % 4),
            3 => p.call_out(x % 3, (y % 2) as u8),
            4 => p.init_reg((x % 3) as u8),
            5 => p.stack_base(),
            6 => p.fresh_unknown(),
            7 if interior => p.deref(pick(x), [1, 4][y as usize % 2]),
            8 if interior => p.add(pick(x), pick(y)),
            9 if interior => p.intern(SymNode::Add(pick(x), pick(y))),
            10 if interior => p.intern(SymNode::And(pick(x), pick(y))),
            11 if interior => p.cmp(CmpOp::Lt, pick(x), pick(y)),
            _ => ExprId(0),
        };
        match op {
            12 => marks.push(p.mark()),
            13 => {
                if let Some(m) = marks.pop().filter(|m| m.len <= p.len()) {
                    p.rollback(m);
                }
            }
            14 if interior => {
                let _ = p.attempt(|p| {
                    let d = p.deref(pick(x), 4);
                    let u = p.fresh_unknown();
                    let e = p.add(d, u);
                    (y % 2 == 0).then_some(e)
                });
            }
            _ => {}
        }
    }

    /// The pruned walks against [`unpruned`] over `(id, from, to)` of
    /// `p`; `q` is `p`'s twin, which the interning walks run unpruned.
    /// Both must return the same ids and intern the same nodes.
    fn walks_agree(p: &mut ExprPool, q: &mut ExprPool, (a, b, c): (u32, u32, u32)) {
        prop_assert_eq!(p.sigs.len(), p.len());
        let len = p.len() as u32;
        let (id, from, to) = (ExprId(a % len), ExprId(b % len), ExprId(c % len));
        prop_assert_eq!(p.contains(id, from), unpruned::contains(q, id, from, &mut HashMap::new()));
        prop_assert_eq!(p.deref_depth(id), unpruned::deref_depth(q, id, &mut HashMap::new()));
        let mut ptrs = Vec::new();
        unpruned::ptrs_in(q, id, &mut ptrs, &mut Default::default());
        prop_assert_eq!(p.ptrs_in(id), ptrs);
        // Two kinds (by their order in `Kinds`), and a predicate that
        // accepts only some of their nodes.
        let picked = [b % 8, c % 8];
        let kinds = Kinds(1 << (SIG_ID_BITS + picked[0])) | Kinds(1 << (SIG_ID_BITS + picked[1]));
        let of_kinds = |n: SymNode| {
            use SymNode::*;
            let index = match n {
                Const(_) => 0,
                Arg(_) => 1,
                RetSym(_) => 2,
                CallOut { .. } => 3,
                InitReg(_) => 4,
                StackBase => 5,
                Unknown(_) => 6,
                Deref { .. } => 7,
                _ => 8,
            };
            picked.contains(&index)
        };
        let pred = |n: SymNode| of_kinds(n) && !n.packed().is_multiple_of(3);
        prop_assert_eq!(p.any_node(id, kinds, &mut |n| pred(n)), unpruned::any_node(q, id, &pred));
        prop_assert_eq!(p.holds_any(id, kinds), unpruned::any_node(q, id, &of_kinds));

        let out = p.replace(id, from, to);
        prop_assert_eq!(out, unpruned::replace(q, id, from, to, &mut HashMap::new()));
        prop_assert!(p.nodes == q.nodes, "replace interned differently");
        // `arg_i` → `to` for even `i`, a fresh unknown per odd one; the
        // stack base → `from`.
        let mapping =
            |unknowns: &mut HashMap<ExprId, ExprId>, p: &mut ExprPool, e: ExprId| match p.node(e) {
                SymNode::Arg(i) if i % 2 == 0 => Some(to),
                SymNode::Arg(_) => Some(*unknowns.entry(e).or_insert_with(|| p.fresh_unknown())),
                SymNode::StackBase => Some(from),
                _ => None,
            };
        let (mut mine, mut theirs) = (HashMap::new(), HashMap::new());
        let out =
            p.rewrite(id, Kinds::ARG | Kinds::STACK_BASE, &mut |p, e| mapping(&mut mine, p, e));
        let reference =
            unpruned::rewrite(q, id, &mut |q, e| mapping(&mut theirs, q, e), &mut HashMap::new());
        prop_assert_eq!(out, reference);
        prop_assert!(p.nodes == q.nodes, "rewrite interned differently");
        prop_assert_eq!(p.next_unknown_index(), q.next_unknown_index());
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

        /// Each pruned walk agrees with its unpruned reference on
        /// random DAGs, through marks, rollbacks and attempts
        /// interleaved with the walks (whose interning they undo too),
        /// and after translating the pool into another.
        #[test]
        fn pruned_walks_match_unpruned_ones(
            ops in proptest::collection::vec((0u8..18, any::<u32>(), any::<u32>()), 1..160),
            queries in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..12),
        ) {
            let (mut p, mut q) = (ExprPool::new(), ExprPool::new());
            let (mut p_marks, mut q_marks) = (Vec::new(), Vec::new());
            for (op, x, y) in ops {
                if op >= 15 && !p.is_empty() {
                    walks_agree(&mut p, &mut q, (x, y, x ^ y));
                    continue;
                }
                dag_step(&mut p, &mut p_marks, (op, x, y));
                dag_step(&mut q, &mut q_marks, (op, x, y));
                prop_assert!(p.nodes == q.nodes);
            }
            // Into a pool that already holds other nodes, so ids shift.
            let (mut tp, mut tq) = (ExprPool::new(), ExprPool::new());
            for t in [&mut tp, &mut tq] {
                let u = t.fresh_unknown();
                let sp = t.stack_base();
                t.add(u, sp);
            }
            let (mut p_memo, mut q_memo) = (TranslationMemo::for_pool(&p), TranslationMemo::for_pool(&q));
            for i in (0..p.len() as u32).rev() {
                tp.translate(&p, ExprId(i), &mut p_memo);
                tq.translate(&q, ExprId(i), &mut q_memo);
            }
            for query in queries {
                walks_agree(&mut tp, &mut tq, query);
            }
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
