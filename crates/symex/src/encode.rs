//! Pool-independent summary encoding for the incremental cache.
//!
//! A [`FuncSummary`] holds [`ExprId`]s, which are indices into one
//! particular [`ExprPool`] — meaningless in any other pool or process.
//! The cache stores summaries as pool-free **blobs** instead, decodable
//! into any pool by re-interning every node, with [`SymNode::Unknown`]
//! indices renumbered onto the destination pool's counter.
//!
//! Expressions serialise as a memoised post-order node table (children
//! precede parents, each node written once), followed by a body that
//! references nodes by table index. The sole pool-dependent leaf,
//! `Unknown(n)`, goes through a caller-supplied mapper turning the
//! absolute index into an `(owner_addr, rel)` pair relative to the
//! owning function's first unknown; the decoder maps the pair back
//! through the destination pool's ownership table.
//!
//! The **canonical** encoding ([`canonical_encode`]) uses a mapper that
//! refuses every unknown: it is the encoding of a symex-level (local)
//! summary, and a local summary that holds an unknown has no canonical
//! form and is not cached at that level. Cache keys never hash an
//! encoding: they hash the function's raw bytes, because a summary's
//! pool structure depends on the merge path that absorbed it (see
//! `function_content_hash` in the dataflow crate's cache).

use crate::pool::{CmpOp, ExprId, ExprPool, SymNode};
use crate::summary::{
    sort_types, ArgList, ArgMask, CalleeRef, CallsiteInfo, Constraint, DefPair, FuncSummary,
    LoopCopy,
};
use crate::types::VType;
use std::collections::HashMap;

/// FNV-1a 64-bit, the content hash of the cache keys. Stable across
/// platforms and runs; no dependency, no randomised state.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a little-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (prefix keeps `"ab","c"` and
    /// `"a","bc"` distinct).
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Convenience: hash one byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

// Node tags. The numbering is part of the on-disk format; never reorder.
const TAG_CONST: u8 = 0;
const TAG_ARG: u8 = 1;
const TAG_RETSYM: u8 = 2;
const TAG_CALLOUT: u8 = 3;
const TAG_INITREG: u8 = 4;
const TAG_STACKBASE: u8 = 5;
const TAG_UNKNOWN: u8 = 6;
const TAG_DEREF: u8 = 7;
const TAG_ADD: u8 = 8;
const TAG_MUL: u8 = 9;
const TAG_AND: u8 = 10;
const TAG_OR: u8 = 11;
const TAG_XOR: u8 = 12;
const TAG_SHL: u8 = 13;
const TAG_SHR: u8 = 14;
const TAG_CMP: u8 = 15;

fn vtype_tag(t: VType) -> u8 {
    match t {
        VType::Unknown => 0,
        VType::Int => 1,
        VType::Char => 2,
        VType::Ptr => 3,
        VType::CharPtr => 4,
        VType::IntPtr => 5,
    }
}

fn vtype_untag(t: u8) -> Option<VType> {
    Some(match t {
        0 => VType::Unknown,
        1 => VType::Int,
        2 => VType::Char,
        3 => VType::Ptr,
        4 => VType::CharPtr,
        5 => VType::IntPtr,
        _ => return None,
    })
}

/// Maps an absolute `Unknown` index to its pool-free `(owner_addr, rel)`
/// form; `None` marks the summary as unencodable (see module docs).
pub type UnknownMapper<'m> = &'m mut dyn FnMut(u32) -> Option<(u32, u32)>;

/// Serialises expressions and summaries from one pool into the pool-free
/// wire form. One encoder produces one blob; the memoised node table is
/// shared by everything encoded through it.
pub struct SummaryEncoder<'p, 'm> {
    pool: &'p ExprPool,
    map_unknown: UnknownMapper<'m>,
    memo: HashMap<u32, u32>,
    table: Vec<u8>,
    count: u32,
    failed: bool,
    body: Vec<u8>,
}

impl<'p, 'm> SummaryEncoder<'p, 'm> {
    /// An encoder over `pool` with the given unknown mapper.
    pub fn new(pool: &'p ExprPool, map_unknown: UnknownMapper<'m>) -> Self {
        SummaryEncoder {
            pool,
            map_unknown,
            memo: HashMap::new(),
            table: Vec::new(),
            count: 0,
            failed: false,
            body: Vec::new(),
        }
    }

    /// True once any unknown failed to map; the blob is void.
    pub fn failed(&self) -> bool {
        self.failed
    }

    fn node_index(&mut self, id: ExprId) -> u32 {
        if let Some(&ix) = self.memo.get(&id.0) {
            return ix;
        }
        // Children first: the record may only reference earlier indices.
        let node = self.pool.node(id);
        let rec: (u8, Vec<u8>) = match node {
            SymNode::Const(v) => (TAG_CONST, v.to_le_bytes().to_vec()),
            SymNode::Arg(i) => (TAG_ARG, vec![i]),
            SymNode::RetSym(cs) => (TAG_RETSYM, cs.to_le_bytes().to_vec()),
            SymNode::CallOut { callsite, arg } => {
                let mut f = callsite.to_le_bytes().to_vec();
                f.push(arg);
                (TAG_CALLOUT, f)
            }
            SymNode::InitReg(r) => (TAG_INITREG, vec![r]),
            SymNode::StackBase => (TAG_STACKBASE, vec![]),
            SymNode::Unknown(n) => match (self.map_unknown)(n) {
                Some((owner, rel)) => {
                    let mut f = owner.to_le_bytes().to_vec();
                    f.extend_from_slice(&rel.to_le_bytes());
                    (TAG_UNKNOWN, f)
                }
                None => {
                    self.failed = true;
                    (TAG_UNKNOWN, vec![0; 8])
                }
            },
            SymNode::Deref { addr, width } => {
                let a = self.node_index(addr);
                let mut f = a.to_le_bytes().to_vec();
                f.push(width);
                (TAG_DEREF, f)
            }
            SymNode::Add(a, b) => (TAG_ADD, two(self.node_index(a), self.node_index(b))),
            SymNode::Mul(a, b) => (TAG_MUL, two(self.node_index(a), self.node_index(b))),
            SymNode::And(a, b) => (TAG_AND, two(self.node_index(a), self.node_index(b))),
            SymNode::Or(a, b) => (TAG_OR, two(self.node_index(a), self.node_index(b))),
            SymNode::Xor(a, b) => (TAG_XOR, two(self.node_index(a), self.node_index(b))),
            SymNode::Shl(a, b) => (TAG_SHL, two(self.node_index(a), self.node_index(b))),
            SymNode::Shr(a, b) => (TAG_SHR, two(self.node_index(a), self.node_index(b))),
            SymNode::Cmp(op, a, b) => {
                let mut f = vec![op as u8];
                f.extend_from_slice(&two(self.node_index(a), self.node_index(b)));
                (TAG_CMP, f)
            }
        };
        // A child encode may have interned this id meanwhile? No — ids are
        // acyclic and children are strictly distinct from the parent, but
        // re-check to keep the memo single-assignment regardless.
        if let Some(&ix) = self.memo.get(&id.0) {
            return ix;
        }
        let ix = self.count;
        self.count += 1;
        self.table.push(rec.0);
        self.table.extend_from_slice(&rec.1);
        self.memo.insert(id.0, ix);
        ix
    }

    /// Writes an expression reference into the body.
    pub fn expr(&mut self, id: ExprId) {
        let ix = self.node_index(id);
        self.body.extend_from_slice(&ix.to_le_bytes());
    }

    /// Writes one byte into the body.
    pub fn u8(&mut self, v: u8) {
        self.body.push(v);
    }

    /// Writes a little-endian u32 into the body.
    pub fn u32(&mut self, v: u32) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64 into the body.
    pub fn u64(&mut self, v: u64) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed string into the body.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.body.extend_from_slice(s.as_bytes());
    }

    /// Encodes a whole summary into the body, fields in declaration
    /// order. The `types` entries are sorted by id, an order that depends
    /// on the pool, so they are written sorted by their own standalone
    /// encodings instead — a pool-free, layout-invariant order.
    pub fn summary(&mut self, s: &FuncSummary) {
        self.u32(s.addr);
        self.str(&s.name);
        self.def_pairs(&s.def_pairs);
        self.def_pairs(&s.escape_defs);
        self.u32(s.callsites.len() as u32);
        for cs in &s.callsites {
            self.u32(cs.ins_addr);
            match &cs.callee {
                CalleeRef::Direct(a) => {
                    self.u8(0);
                    self.u32(*a);
                }
                CalleeRef::Import(n) => {
                    self.u8(1);
                    self.str(n);
                }
                CalleeRef::Indirect(e) => {
                    self.u8(2);
                    self.expr(*e);
                }
            }
            self.u32(cs.args.len() as u32);
            for &a in &cs.args {
                self.expr(a);
            }
            self.expr(cs.ret);
            self.u32(cs.path);
        }
        self.u32(s.constraints.len() as u32);
        for c in &s.constraints {
            self.u8(c.op as u8);
            self.expr(c.lhs);
            self.expr(c.rhs);
            self.u32(c.ins_addr);
            self.u32(c.path);
        }
        self.u32(s.ret_values.len() as u32);
        for &r in &s.ret_values {
            self.expr(r);
        }
        self.u32(s.loop_copies.len() as u32);
        for lc in &s.loop_copies {
            self.u32(lc.ins_addr);
            self.expr(lc.dst_addr);
            self.expr(lc.value);
            self.u32(lc.path);
        }
        let mut typed: Vec<(Vec<u8>, ExprId, VType)> = Vec::with_capacity(s.types.len());
        for &(e, t) in &s.types {
            match encode_expr_standalone(self.pool, &mut *self.map_unknown, e) {
                Some(key) => typed.push((key, e, t)),
                None => {
                    self.failed = true;
                    typed.push((Vec::new(), e, t));
                }
            }
        }
        typed.sort_by(|a, b| a.0.cmp(&b.0).then(vtype_tag(a.2).cmp(&vtype_tag(b.2))));
        self.u32(typed.len() as u32);
        for (_, e, t) in typed {
            self.expr(e);
            self.u8(vtype_tag(t));
        }
        self.u32(s.args_used.len() as u32);
        for a in s.args_used.iter() {
            self.u8(a);
        }
        self.u32(s.paths_explored);
        self.u8(s.path_cap_hit as u8);
        self.u8(s.fuel_exhausted as u8);
        self.u8(s.degraded as u8);
        self.u32(s.blocks_executed);
        self.u32(s.alias_rewrites);
        self.u32(s.sse_rounds);
        self.u32(s.sse_rewrites);
        self.u32(s.sse_depth);
        self.u8(s.sse_saturated as u8);
    }

    fn def_pairs(&mut self, pairs: &[DefPair]) {
        self.u32(pairs.len() as u32);
        for dp in pairs {
            self.expr(dp.d);
            self.expr(dp.u);
            self.u32(dp.ins_addr);
            self.u32(dp.path);
        }
    }

    /// Final blob: `[u32 node_count][node records][body]`, or `None` when
    /// any unknown refused to map.
    pub fn finish(self) -> Option<Vec<u8>> {
        if self.failed {
            return None;
        }
        let mut out = Vec::with_capacity(4 + self.table.len() + self.body.len());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.table);
        out.extend_from_slice(&self.body);
        Some(out)
    }
}

fn two(a: u32, b: u32) -> Vec<u8> {
    let mut f = a.to_le_bytes().to_vec();
    f.extend_from_slice(&b.to_le_bytes());
    f
}

/// One expression encoded alone (its own node table + body); used as a
/// pool-free sort key for the `types` map.
fn encode_expr_standalone(
    pool: &ExprPool,
    map_unknown: &mut dyn FnMut(u32) -> Option<(u32, u32)>,
    id: ExprId,
) -> Option<Vec<u8>> {
    let mut enc = SummaryEncoder::new(pool, map_unknown);
    enc.expr(id);
    enc.finish()
}

/// Encodes one summary into a standalone blob.
pub fn encode_summary(
    pool: &ExprPool,
    s: &FuncSummary,
    map_unknown: UnknownMapper<'_>,
) -> Option<Vec<u8>> {
    let mut enc = SummaryEncoder::new(pool, map_unknown);
    enc.summary(s);
    enc.finish()
}

/// The canonical encoding, the unknown-free encoding of a symex-level
/// blob: refuses any summary containing an [`SymNode::Unknown`], whose
/// index is a pool-global counter artefact.
pub fn canonical_encode(pool: &ExprPool, s: &FuncSummary) -> Option<Vec<u8>> {
    encode_summary(pool, s, &mut |_| None)
}

/// Maps a wire-form `(owner_addr, rel)` unknown back to an absolute
/// index in the destination pool; `None` aborts the decode (unknown
/// owner — the cache entry is unusable in this scan).
pub type UnknownUnmapper<'m> = &'m mut dyn FnMut(u32, u32) -> Option<u32>;

/// Decodes blobs produced by [`SummaryEncoder`], re-interning every node
/// into a destination pool. Interning is verbatim (`ExprPool::intern`,
/// no normalising constructors) so the decoded structure is bit-equal to
/// what the encoder saw.
pub struct SummaryDecoder<'b> {
    exprs: Vec<ExprId>,
    body: &'b [u8],
    pos: usize,
}

impl<'b> SummaryDecoder<'b> {
    /// Parses the node table of `blob` into `pool`; the body is read in
    /// place. Returns `None` on any malformed record or unmappable
    /// unknown.
    pub fn new(blob: &'b [u8], pool: &mut ExprPool, unmap: UnknownUnmapper<'_>) -> Option<Self> {
        let mut pos = 0usize;
        let count = read_u32(blob, &mut pos)?;
        // Every record takes at least its tag byte, so a corrupt count
        // cannot reserve more than the blob could hold.
        let mut exprs: Vec<ExprId> = Vec::with_capacity((count as usize).min(blob.len() - pos));
        for _ in 0..count {
            let tag = read_u8(blob, &mut pos)?;
            let node = match tag {
                TAG_CONST => SymNode::Const(read_i64(blob, &mut pos)?),
                TAG_ARG => SymNode::Arg(read_u8(blob, &mut pos)?),
                TAG_RETSYM => SymNode::RetSym(read_u32(blob, &mut pos)?),
                TAG_CALLOUT => SymNode::CallOut {
                    callsite: read_u32(blob, &mut pos)?,
                    arg: read_u8(blob, &mut pos)?,
                },
                TAG_INITREG => SymNode::InitReg(read_u8(blob, &mut pos)?),
                TAG_STACKBASE => SymNode::StackBase,
                TAG_UNKNOWN => {
                    let owner = read_u32(blob, &mut pos)?;
                    let rel = read_u32(blob, &mut pos)?;
                    SymNode::Unknown(unmap(owner, rel)?)
                }
                TAG_DEREF => {
                    let addr = *exprs.get(read_u32(blob, &mut pos)? as usize)?;
                    SymNode::Deref { addr, width: read_u8(blob, &mut pos)? }
                }
                TAG_ADD | TAG_MUL | TAG_AND | TAG_OR | TAG_XOR | TAG_SHL | TAG_SHR => {
                    let a = *exprs.get(read_u32(blob, &mut pos)? as usize)?;
                    let b = *exprs.get(read_u32(blob, &mut pos)? as usize)?;
                    match tag {
                        TAG_ADD => SymNode::Add(a, b),
                        TAG_MUL => SymNode::Mul(a, b),
                        TAG_AND => SymNode::And(a, b),
                        TAG_OR => SymNode::Or(a, b),
                        TAG_XOR => SymNode::Xor(a, b),
                        TAG_SHL => SymNode::Shl(a, b),
                        _ => SymNode::Shr(a, b),
                    }
                }
                TAG_CMP => {
                    let op = CmpOp::from_tag(read_u8(blob, &mut pos)?)?;
                    let a = *exprs.get(read_u32(blob, &mut pos)? as usize)?;
                    let b = *exprs.get(read_u32(blob, &mut pos)? as usize)?;
                    SymNode::Cmp(op, a, b)
                }
                _ => return None,
            };
            exprs.push(pool.intern(node));
        }
        Some(SummaryDecoder { exprs, body: &blob[pos..], pos: 0 })
    }

    /// Reads one byte from the body.
    pub fn u8(&mut self) -> Option<u8> {
        read_u8(self.body, &mut self.pos)
    }

    /// Reads a little-endian u32 from the body.
    pub fn u32(&mut self) -> Option<u32> {
        read_u32(self.body, &mut self.pos)
    }

    /// Reads a little-endian u64 from the body.
    pub fn u64(&mut self) -> Option<u64> {
        read_u64(self.body, &mut self.pos)
    }

    /// Reads a length-prefixed string from the body.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if self.pos + len > self.body.len() {
            return None;
        }
        let s = String::from_utf8(self.body[self.pos..self.pos + len].to_vec()).ok()?;
        self.pos += len;
        Some(s)
    }

    /// Reads an expression reference from the body.
    pub fn expr(&mut self) -> Option<ExprId> {
        let ix = self.u32()? as usize;
        self.exprs.get(ix).copied()
    }

    /// The body bytes not read yet.
    pub fn rest(&self) -> &[u8] {
        &self.body[self.pos..]
    }

    /// True when the whole body was consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.body.len()
    }

    /// Decodes a summary written by [`SummaryEncoder::summary`]. Every
    /// list comes out at its exact length. `None` on a malformed body,
    /// including a call site with more than [`ArgList::CAPACITY`]
    /// arguments or a used-argument index of 16 or more.
    pub fn summary(&mut self) -> Option<FuncSummary> {
        let mut s = FuncSummary { addr: self.u32()?, name: self.str()?, ..FuncSummary::default() };
        s.def_pairs = self.list(Self::def_pair)?;
        s.escape_defs = self.list(Self::def_pair)?;
        s.callsites = self.list(|d| {
            let ins_addr = d.u32()?;
            let callee = match d.u8()? {
                0 => CalleeRef::Direct(d.u32()?),
                1 => CalleeRef::Import(d.str()?),
                2 => CalleeRef::Indirect(d.expr()?),
                _ => return None,
            };
            let n = d.u32()?;
            if n as usize > ArgList::CAPACITY {
                return None;
            }
            let mut args = ArgList::new();
            for _ in 0..n {
                args.push(d.expr()?);
            }
            let ret = d.expr()?;
            let path = d.u32()?;
            Some(CallsiteInfo { ins_addr, callee, args, ret, path })
        })?;
        s.constraints = self.list(|d| {
            let op = CmpOp::from_tag(d.u8()?)?;
            let lhs = d.expr()?;
            let rhs = d.expr()?;
            let ins_addr = d.u32()?;
            let path = d.u32()?;
            Some(Constraint { op, lhs, rhs, ins_addr, path })
        })?;
        s.ret_values = self.list(Self::expr)?;
        s.loop_copies = self.list(|d| {
            let ins_addr = d.u32()?;
            let dst_addr = d.expr()?;
            let value = d.expr()?;
            let path = d.u32()?;
            Some(LoopCopy { ins_addr, dst_addr, value, path })
        })?;
        // Written in encoding order; kept by id, the last entry of a
        // repeated id winning.
        let mut types = self.list(|d| Some((d.expr()?, vtype_untag(d.u8()?)?)))?;
        sort_types(&mut types, |_, later| later);
        s.types = types;
        let mut used = ArgMask::default();
        for _ in 0..self.u32()? {
            if !used.insert(self.u8()?) {
                return None;
            }
        }
        s.args_used = used;
        s.paths_explored = self.u32()?;
        s.path_cap_hit = self.u8()? != 0;
        s.fuel_exhausted = self.u8()? != 0;
        s.degraded = self.u8()? != 0;
        s.blocks_executed = self.u32()?;
        s.alias_rewrites = self.u32()?;
        s.sse_rounds = self.u32()?;
        s.sse_rewrites = self.u32()?;
        s.sse_depth = self.u32()?;
        s.sse_saturated = self.u8()? != 0;
        Some(s)
    }

    fn def_pair(&mut self) -> Option<DefPair> {
        let d = self.expr()?;
        let u = self.expr()?;
        let ins_addr = self.u32()?;
        let path = self.u32()?;
        Some(DefPair { d, u, ins_addr, path })
    }

    /// A `u32` count, then that many items read by `item`. The vector
    /// is sized up front only as far as the unread bytes could hold
    /// items, so a corrupt count cannot reserve more than the blob.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.body.len() - self.pos));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Option<u8> {
    let v = *buf.get(*pos)?;
    *pos += 1;
    Some(v)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::DefPair;

    fn sample_summary(pool: &mut ExprPool) -> FuncSummary {
        let a0 = pool.arg(0);
        let addr = pool.add_const(a0, 0x4c);
        let var = pool.deref(addr, 4);
        let ret = pool.ret_sym(0x1010);
        let c = pool.constant(64);
        let mut s = FuncSummary {
            addr: 0x8000,
            name: "frob".into(),
            paths_explored: 3,
            blocks_executed: 17,
            alias_rewrites: 5,
            sse_rounds: 2,
            sse_rewrites: 4,
            sse_depth: 3,
            sse_saturated: true,
            ..FuncSummary::default()
        };
        s.def_pairs.push(DefPair { d: var, u: ret, ins_addr: 0x1014, path: 0 });
        s.escape_defs.push(DefPair { d: var, u: ret, ins_addr: 0x1014, path: 0 });
        s.callsites.push(CallsiteInfo {
            ins_addr: 0x1010,
            callee: CalleeRef::Import("recv".into()),
            args: [a0, c].into_iter().collect(),
            ret,
            path: 0,
        });
        s.constraints.push(Constraint {
            op: CmpOp::Lt,
            lhs: ret,
            rhs: c,
            ins_addr: 0x1020,
            path: 1,
        });
        s.ret_values.push(ret);
        s.loop_copies.push(LoopCopy { ins_addr: 0x1030, dst_addr: addr, value: var, path: 2 });
        s.observe_type(a0, VType::CharPtr);
        s.observe_type(ret, VType::Int);
        s.args_used.insert(0);
        s
    }

    /// Structural equality of two summaries across different pools.
    fn assert_same_shape(a: &FuncSummary, pa: &ExprPool, b: &FuncSummary, pb: &ExprPool) {
        assert_eq!(a.render(pa), b.render(pb));
        assert_eq!(a.def_pairs.len(), b.def_pairs.len());
        assert_eq!(a.escape_defs.len(), b.escape_defs.len());
        assert_eq!(a.types.len(), b.types.len());
        assert_eq!(a.args_used, b.args_used);
        assert_eq!(a.alias_rewrites, b.alias_rewrites);
        assert_eq!(a.sse_rounds, b.sse_rounds);
        assert_eq!(a.sse_rewrites, b.sse_rewrites);
        assert_eq!(a.sse_depth, b.sse_depth);
        assert_eq!(a.sse_saturated, b.sse_saturated);
    }

    #[test]
    fn roundtrip_into_fresh_pool() {
        let mut pool = ExprPool::new();
        let s = sample_summary(&mut pool);
        let blob = canonical_encode(&pool, &s).expect("unknown-free summary encodes");
        let mut dst = ExprPool::new();
        // Intern noise first: decode must not depend on pool layout.
        dst.arg(7);
        dst.constant(0x1234);
        let mut dec = SummaryDecoder::new(&blob, &mut dst, &mut |_, _| None).expect("table parses");
        let back = dec.summary().expect("summary decodes");
        assert!(dec.at_end(), "no trailing bytes");
        assert_same_shape(&s, &pool, &back, &dst);
    }

    #[test]
    fn canonical_encoding_is_pool_layout_invariant() {
        let mut p1 = ExprPool::new();
        let s1 = sample_summary(&mut p1);
        let b1 = canonical_encode(&p1, &s1).unwrap();
        // Same summary content, pool pre-polluted with unrelated nodes so
        // every ExprId differs.
        let mut p2 = ExprPool::new();
        for i in 0..40 {
            p2.constant(1000 + i);
        }
        let s2 = sample_summary(&mut p2);
        let b2 = canonical_encode(&p2, &s2).unwrap();
        assert_eq!(b1, b2, "bytes must not depend on pool layout");
    }

    #[test]
    fn canonical_encoding_refuses_unknowns() {
        let mut pool = ExprPool::new();
        let mut s = sample_summary(&mut pool);
        let u = pool.fresh_unknown();
        s.ret_values.push(u);
        assert!(canonical_encode(&pool, &s).is_none());
    }

    #[test]
    fn unknowns_renumber_through_ownership_pairs() {
        let mut pool = ExprPool::new();
        let base = pool.next_unknown_index();
        let u0 = pool.fresh_unknown();
        let u1 = pool.fresh_unknown();
        let mut s = sample_summary(&mut pool);
        s.ret_values.push(u1);
        s.ret_values.push(u0);
        let owner = s.addr;
        let blob = encode_summary(&pool, &s, &mut |n| Some((owner, n - base))).expect("maps all");
        // Destination pool already burned three unknowns; rehydration
        // allocates a fresh base and maps (owner, rel) onto it.
        let mut dst = ExprPool::new();
        dst.fresh_unknown();
        dst.fresh_unknown();
        dst.fresh_unknown();
        let dst_base = dst.next_unknown_index();
        dst.fresh_unknown();
        dst.fresh_unknown();
        let mut dec = SummaryDecoder::new(&blob, &mut dst, &mut |o, rel| {
            (o == owner).then_some(dst_base + rel)
        })
        .expect("table parses");
        let back = dec.summary().expect("decodes");
        let n = back.ret_values.len();
        assert_eq!(dst.node(back.ret_values[n - 2]), SymNode::Unknown(dst_base + 1));
        assert_eq!(dst.node(back.ret_values[n - 1]), SymNode::Unknown(dst_base));
    }

    #[test]
    fn decode_rejects_unknown_owner() {
        let mut pool = ExprPool::new();
        let base = pool.next_unknown_index();
        let u = pool.fresh_unknown();
        let mut s = sample_summary(&mut pool);
        s.ret_values.push(u);
        let blob = encode_summary(&pool, &s, &mut |n| Some((0xdead, n - base))).unwrap();
        let mut dst = ExprPool::new();
        assert!(SummaryDecoder::new(&blob, &mut dst, &mut |_, _| None).is_none());
    }

    #[test]
    fn truncated_blobs_never_panic() {
        let mut pool = ExprPool::new();
        let s = sample_summary(&mut pool);
        let blob = canonical_encode(&pool, &s).unwrap();
        for len in 0..blob.len() {
            let mut dst = ExprPool::new();
            if let Some(mut dec) = SummaryDecoder::new(&blob[..len], &mut dst, &mut |_, _| None) {
                let _ = dec.summary();
            }
        }
    }

    /// A corrupt node count reserves no more than the blob holds: the
    /// table runs out of records and the decode refuses it.
    #[test]
    fn huge_node_count_decodes_to_none() {
        let mut blob = u32::MAX.to_le_bytes().to_vec();
        blob.extend_from_slice(&[TAG_STACKBASE; 8]);
        let mut dst = ExprPool::new();
        assert!(SummaryDecoder::new(&blob, &mut dst, &mut |_, _| None).is_none());
    }

    /// A hand-written body with one direct call site claiming `args`
    /// arguments (at most 16 written) and the given used-argument
    /// indices.
    fn blob_with(args: u32, used: &[u8]) -> Vec<u8> {
        let mut pool = ExprPool::new();
        let a0 = pool.arg(0);
        let mut refuse = |_| None;
        let mut enc = SummaryEncoder::new(&pool, &mut refuse);
        enc.u32(0x8000);
        enc.str("wide");
        enc.u32(0); // def pairs
        enc.u32(0); // escape defs
        enc.u32(1); // call sites
        enc.u32(0x8010);
        enc.u8(0);
        enc.u32(0x9000);
        enc.u32(args);
        for _ in 0..args.min(16) {
            enc.expr(a0);
        }
        enc.expr(a0);
        enc.u32(0);
        for _ in 0..4 {
            enc.u32(0); // constraints, returns, loop copies, types
        }
        enc.u32(used.len() as u32);
        for &a in used {
            enc.u8(a);
        }
        enc.u32(1);
        for _ in 0..3 {
            enc.u8(0);
        }
        for _ in 0..5 {
            enc.u32(0);
        }
        enc.u8(0);
        enc.finish().unwrap()
    }

    #[test]
    fn decode_refuses_what_the_inline_layout_cannot_hold() {
        let decode = |blob: &[u8]| {
            let mut dst = ExprPool::new();
            SummaryDecoder::new(blob, &mut dst, &mut |_, _| None)?.summary()
        };
        let full = decode(&blob_with(ArgList::CAPACITY as u32, &[15, 0, 15])).expect("fits");
        assert_eq!(full.callsites[0].args.len(), ArgList::CAPACITY);
        assert_eq!(full.args_used.iter().collect::<Vec<_>>(), [0, 15]);
        assert!(decode(&blob_with(ArgList::CAPACITY as u32 + 1, &[])).is_none());
        assert!(decode(&blob_with(u32::MAX, &[])).is_none());
        assert!(decode(&blob_with(2, &[16])).is_none());
        assert!(decode(&blob_with(2, &[255])).is_none());
    }

    /// Types are written in encoding order and decoded by id; when a
    /// body names one id twice, the later entry wins.
    #[test]
    fn decoded_types_are_sorted_by_id_and_the_last_duplicate_wins() {
        let mut pool = ExprPool::new();
        let (a0, a1) = (pool.arg(0), pool.arg(1));
        let mut refuse = |_| None;
        let mut enc = SummaryEncoder::new(&pool, &mut refuse);
        enc.u32(0x8000);
        enc.str("typed");
        for _ in 0..6 {
            enc.u32(0); // def pairs .. loop copies
        }
        enc.u32(3);
        for (e, t) in [(a1, VType::Int), (a0, VType::Ptr), (a1, VType::CharPtr)] {
            enc.expr(e);
            enc.u8(vtype_tag(t));
        }
        enc.u32(0);
        enc.u32(1);
        for _ in 0..3 {
            enc.u8(0);
        }
        for _ in 0..5 {
            enc.u32(0);
        }
        enc.u8(0);
        let blob = enc.finish().unwrap();
        let mut dst = ExprPool::new();
        dst.constant(5);
        let mut dec = SummaryDecoder::new(&blob, &mut dst, &mut |_, _| None).unwrap();
        let s = dec.summary().expect("decodes");
        assert!(dec.at_end());
        let (d1, d0) = (dst.arg(1), dst.arg(0));
        assert!(d1 < d0, "the table interned arg1 first");
        assert_eq!(s.types, vec![(d1, VType::CharPtr), (d0, VType::Ptr)]);
        assert_eq!(s.types.capacity(), 2);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_changes_when_content_changes() {
        let mut pool = ExprPool::new();
        let s = sample_summary(&mut pool);
        let h1 = fnv64(&canonical_encode(&pool, &s).unwrap());
        let mut s2 = s.clone();
        s2.blocks_executed += 1;
        let h2 = fnv64(&canonical_encode(&pool, &s2).unwrap());
        assert_ne!(h1, h2);
    }
}
