//! SSE-based alias analysis — structured-symbolic-expression matching.
//!
//! The paper's Algorithm 1 ([`alias_replace`](crate::alias::alias_replace))
//! recognises one store shape, `deref(base1 + o1) = base2 + o2`, and
//! rewrites other definitions once, forward only (`base2 → name - o2`).
//! That misses multi-level chains: when the intermediate pointer of
//! `deref(deref(base + o1) + o2)` is itself only reachable through an
//! alias, a single pass can never connect the two names — the rewrite
//! that would expose the match is only produced *by* the pass itself.
//!
//! The same first author's follow-up work ("Finding Taint-Style
//! Vulnerabilities in Linux-based Embedded Firmware with SSE-based Alias
//! Analysis") replaces the single pass with structured-symbolic-
//! expression matching. This module ports that idea onto our expression
//! pool:
//!
//! * every definition name is canonicalised into an SSE — a root base
//!   plus a spine of `(offset, width)` deref steps ([`canonicalize`]);
//! * recognised aliases are indexed by base (a sorted list) so each
//!   round is a binary search per pointer, not a scan;
//! * substitution runs in **both** directions — forward
//!   (`base → name - offset`) like Algorithm 1, and reverse
//!   (`name → base + offset`), which resolves a memory name back to the
//!   pointer value it holds;
//! * rounds iterate to a fixpoint: a twin appended in round *k* can seed
//!   both new aliases and new matches in round *k+1*, connecting chains
//!   of arbitrary (bounded) depth;
//! * the expression universe is bounded by [`AliasConfig::max_depth`]
//!   (deref nesting) and the iteration by [`AliasConfig::max_rounds`];
//!   a pass that still had pending rewrites at the round cap reports
//!   itself as saturated.
//!
//! Unlike store mode, SSE admits **writable-global** constants as alias
//! bases: `*(g_ctx + 8) = g_req` is precisely the cross-callee chain
//! link embedded firmware builds out of static config structs. The
//! caller supplies the "is this constant a writable address" predicate
//! since only it can see the binary's section map.

use crate::alias::{AliasConfig, AliasEntry};
use dtaint_fwbin::{Binary, SymbolKind};
use dtaint_symex::pool::{ExprPool, SymNode};
use dtaint_symex::{keep_first, DefPair, ExprId, FuncSummary};

/// Resolves a constant address to the base address of the writable
/// global object containing it — the `global_base` oracle the SSE pass
/// needs, backed by the binary's symbol map.
///
/// A constant inside a sized writable `Object` symbol resolves to the
/// symbol's start; a constant in a writable section with no covering
/// symbol is treated as its own zero-offset object; anything immutable
/// or unmapped resolves to `None`.
#[derive(Debug, Clone, Default)]
pub struct GlobalMap {
    /// `(start, end)` of sized writable `Object` symbols, sorted.
    objects: Vec<(u32, u32)>,
    /// `(start, end)` of writable sections, sorted.
    writable: Vec<(u32, u32)>,
}

impl GlobalMap {
    /// Indexes the binary's writable objects and sections.
    pub fn build(bin: &Binary) -> GlobalMap {
        let mut objects: Vec<(u32, u32)> = bin
            .symbols
            .iter()
            .filter(|s| {
                s.kind == SymbolKind::Object && s.size > 0 && !bin.is_immutable_addr(s.addr)
            })
            .map(|s| (s.addr, s.addr.saturating_add(s.size)))
            .collect();
        objects.sort_unstable();
        let mut writable: Vec<(u32, u32)> = bin
            .sections
            .iter()
            .filter(|s| !bin.is_immutable_addr(s.addr))
            .map(|s| (s.addr, s.addr.saturating_add(s.size)))
            .collect();
        writable.sort_unstable();
        GlobalMap { objects, writable }
    }

    /// The base of the writable object containing `c`, if any.
    pub fn base_of(&self, c: i64) -> Option<i64> {
        let addr = u32::try_from(c).ok()?;
        if let Some(&(start, _)) = range_containing(&self.objects, addr) {
            return Some(i64::from(start));
        }
        if range_containing(&self.writable, addr).is_some() {
            return Some(c);
        }
        None
    }
}

/// Binary-searches sorted, non-overlapping `(start, end)` ranges.
fn range_containing(ranges: &[(u32, u32)], addr: u32) -> Option<&(u32, u32)> {
    let i = ranges.partition_point(|&(start, _)| start <= addr);
    let r = ranges.get(i.checked_sub(1)?)?;
    (addr < r.1).then_some(r)
}

/// One deref step of an SSE spine: the constant offset added to the
/// inner value before dereferencing, and the access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpineStep {
    /// Constant offset along the normalised `Add` spine.
    pub offset: i64,
    /// Access width in bytes.
    pub width: u8,
}

/// A structured symbolic expression: a deref-free root base plus the
/// spine of deref steps applied to it, innermost first.
///
/// `deref(deref(arg0 + 0x4C) + 8, 4)` canonicalises to base `arg0`,
/// spine `[(0x4C, w_inner), (8, 4)]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sse {
    /// Root base expression (contains no `Deref`).
    pub base: ExprId,
    /// Deref steps, innermost first. Never empty.
    pub spine: Vec<SpineStep>,
}

impl Sse {
    /// Deref depth of the canonicalised expression.
    pub fn depth(&self) -> u32 {
        self.spine.len() as u32
    }
}

/// Canonicalises `e` into an [`Sse`] when it is a *structured* memory
/// name: a chain of derefs whose every address is `inner + constant`
/// and whose root base touches no memory. Returns `None` for
/// non-memory expressions and for irregular shapes (symbolic offsets,
/// derefs buried inside arithmetic).
pub fn canonicalize(pool: &ExprPool, e: ExprId) -> Option<Sse> {
    let mut spine = Vec::new();
    let base = walk_spine(pool, e, |step| spine.push(step))?;
    spine.reverse();
    Some(Sse { base, spine })
}

/// Walks the deref chain of `e` from the outermost deref in, handing
/// each step to `step`, and returns the root base when `e` is a
/// structured memory name ([`canonicalize`]'s rule); `None` otherwise.
fn walk_spine(pool: &ExprPool, e: ExprId, mut step: impl FnMut(SpineStep)) -> Option<ExprId> {
    let mut cur = e;
    let mut steps = 0u32;
    while let SymNode::Deref { addr, width } = pool.node(cur) {
        let (base, offset) = pool.base_offset(addr);
        // `base_offset` peels one `Add(x, const)` level; any
        // remaining arithmetic around a deref is unstructured.
        if !matches!(pool.node(base), SymNode::Deref { .. }) && pool.deref_depth(base) > 0 {
            return None;
        }
        step(SpineStep { offset, width });
        steps += 1;
        cur = base;
    }
    (steps > 0).then_some(cur)
}

/// Outcome counters of one [`sse_replace`] pass. All values are pure
/// step counts — identical across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SseStats {
    /// Fixpoint rounds executed (0 when the summary had nothing to do).
    pub rounds: u32,
    /// Definition pairs appended.
    pub rewrites: u32,
    /// Deepest deref nesting among appended names.
    pub max_depth: u32,
    /// True when the round budget ran out with rewrites still pending.
    pub saturated: bool,
}

/// Runs SSE alias matching over one summary to a bounded fixpoint,
/// appending rewritten definition pairs and accumulating the SSE
/// counters into the summary. Deterministic: all iteration follows
/// discovery order, never hash order.
///
/// `global_base` maps a constant address to the start of the writable
/// object containing it (`None` for non-global constants). The pool
/// folds `g + off` into one constant, so recovering the `(object,
/// offset)` split needs the binary's symbol map — only the caller has
/// it.
pub fn sse_replace(
    summary: &mut FuncSummary,
    pool: &mut ExprPool,
    cfg: &AliasConfig,
    global_base: &dyn Fn(i64) -> Option<i64>,
) -> SseStats {
    let mut stats = SseStats::default();
    if cfg.max_rounds == 0
        || !summary.def_pairs.iter().any(|dp| matches!(pool.node(dp.d), SymNode::Deref { .. }))
    {
        return stats;
    }

    // Every index below is a sorted `Vec`, merged once per round and
    // searched by bisection; nothing hashes.
    //
    // (d, u) pairs already present — the append-side dedup. Most passes
    // find no twin, so it is built when a round first finds one.
    let mut seen: Option<Vec<(ExprId, ExprId)>> = None;

    let mut deref_bases = DerefBases::default();
    let mut scratch: Vec<ExprId> = Vec::new();

    let mut aliases: Vec<AliasEntry> = Vec::new();
    let mut alias_seen: Vec<AliasEntry> = Vec::new();
    // `(base, alias index)`: the aliases of each base, in discovery
    // order.
    let mut by_base: Vec<(ExprId, u32)> = Vec::new();

    // Pairs appended by the previous round; the work list when the
    // alias set did not change.
    let mut frontier = 0..summary.def_pairs.len();

    for round in 1..=cfg.max_rounds {
        stats.rounds = round;

        // Collect aliases over all pairs (the deref-base set may have
        // grown, making previously rejected pairs eligible).
        let mut fresh: Vec<AliasEntry> = Vec::new();
        for dp in &summary.def_pairs {
            if let Some(entry) = alias_entry(summary, pool, dp, &mut deref_bases, global_base) {
                if alias_seen.binary_search(&entry).is_err() {
                    fresh.push(entry);
                }
            }
        }
        keep_first(&mut fresh, |&a| a);
        let grew = !fresh.is_empty();
        if grew {
            for (a, i) in fresh.iter().zip(aliases.len() as u32..) {
                by_base.push((a.base, i));
            }
            by_base.sort_unstable();
            alias_seen.extend_from_slice(&fresh);
            alias_seen.sort_unstable();
            aliases.append(&mut fresh);
        }
        if aliases.is_empty() {
            stats.rounds = round - 1;
            break;
        }

        // New aliases can match any pair; otherwise only last round's
        // twins can produce anything new.
        let work = if grew { 0..summary.def_pairs.len() } else { frontier.clone() };

        // Each twin with its deref depth.
        let mut twins: Vec<(DefPair, u32)> = Vec::new();
        for i in work {
            let dp = summary.def_pairs[i];
            if !matches!(pool.node(dp.d), SymNode::Deref { .. }) {
                continue;
            }
            // Forward: replace an aliased base with its memory name.
            // A folded global address `Const(obj + off)` matches an
            // alias of `Const(obj)` with the residual offset re-added.
            pool.ptrs_in_into(dp.d, &mut scratch);
            for &ptr in &scratch {
                let (lookup, residual) = match pool.node(ptr) {
                    SymNode::Const(c) => match global_base(c) {
                        Some(s) if s != c => (pool.constant(s), c - s),
                        _ => (ptr, 0),
                    },
                    _ => (ptr, 0),
                };
                let from = by_base.partition_point(|&(b, _)| b < lookup);
                for &(_, ai) in by_base[from..].iter().take_while(|&&(b, _)| b == lookup) {
                    let alias = aliases[ai as usize];
                    // Occurs check: rewriting a name that already
                    // mentions the alias would nest it inside itself
                    // and ping-pong against the reverse direction.
                    if alias.name == dp.d || pool.contains(dp.d, alias.name) {
                        continue;
                    }
                    let repl = pool.add_const(alias.name, residual - alias.offset);
                    twins.extend(twin(dp, ptr, repl, pool, cfg));
                }
            }
            // Reverse: resolve a memory name occurring strictly inside
            // the definition back to the pointer value it holds.
            for alias in &aliases {
                if alias.name == dp.d || !pool.contains(dp.d, alias.name) {
                    continue;
                }
                let repl = pool.add_const(alias.base, alias.offset);
                twins.extend(twin(dp, alias.name, repl, pool, cfg));
            }
        }

        // Append each twin that is new, once, as first found.
        if !twins.is_empty() {
            let seen = seen.get_or_insert_with(|| {
                let mut pairs: Vec<_> = summary.def_pairs.iter().map(|p| (p.d, p.u)).collect();
                pairs.sort_unstable();
                pairs
            });
            twins.retain(|(p, _)| seen.binary_search(&(p.d, p.u)).is_err());
            keep_first(&mut twins, |(p, _)| (p.d, p.u));
            seen.extend(twins.iter().map(|(p, _)| (p.d, p.u)));
            seen.sort_unstable();
        }
        if twins.is_empty() {
            break;
        }
        let start = summary.def_pairs.len();
        stats.rewrites = stats.rewrites.saturating_add(twins.len() as u32);
        stats.max_depth = twins.iter().fold(stats.max_depth, |m, &(_, depth)| m.max(depth));
        summary.def_pairs.extend(twins.into_iter().map(|(p, _)| p));
        frontier = start..summary.def_pairs.len();
        if round == cfg.max_rounds {
            stats.saturated = true;
        }
    }

    summary.alias_rewrites = summary.alias_rewrites.saturating_add(stats.rewrites);
    summary.sse_rewrites = summary.sse_rewrites.saturating_add(stats.rewrites);
    summary.sse_rounds = summary.sse_rounds.saturating_add(stats.rounds);
    summary.sse_depth = summary.sse_depth.max(stats.max_depth);
    summary.sse_saturated |= stats.saturated;
    stats
}

/// Expressions used as a deref base anywhere in a summary's pairs. The
/// executor only types load/store bases it saw locally; a callee's
/// buffer argument is still a pointer if *we* deref it. Only a candidate
/// that no cheaper test settles reads the set, so it is gathered when one
/// first asks, and then only from the pairs appended since.
#[derive(Default)]
struct DerefBases {
    /// Sorted and deduplicated.
    bases: Vec<ExprId>,
    /// Pairs already walked for their bases.
    scanned: usize,
    scratch: Vec<ExprId>,
}

impl DerefBases {
    /// True when `e` is a deref base in some pair of `pairs`, which only
    /// ever grow between calls.
    fn holds(&mut self, pool: &ExprPool, pairs: &[DefPair], e: ExprId) -> bool {
        if self.scanned < pairs.len() {
            for dp in &pairs[self.scanned..] {
                for side in [dp.d, dp.u] {
                    pool.ptrs_in_into(side, &mut self.scratch);
                    self.bases.extend_from_slice(&self.scratch);
                }
            }
            self.scanned = pairs.len();
            self.bases.sort_unstable();
            self.bases.dedup();
        }
        self.bases.binary_search(&e).is_ok()
    }
}

/// Applies one substitution to `dp.d`: the twin and its deref depth,
/// when the name changes and stays within the depth budget.
fn twin(
    dp: DefPair,
    from: ExprId,
    to: ExprId,
    pool: &mut ExprPool,
    cfg: &AliasConfig,
) -> Option<(DefPair, u32)> {
    let d = pool.replace(dp.d, from, to);
    if d == dp.d {
        return None;
    }
    let depth = pool.deref_depth(d);
    (depth <= cfg.max_depth).then_some((DefPair { d, ..dp }, depth))
}

/// Recognises one alias from a definition pair, SSE-style: the name
/// must canonicalise as a structured memory expression, and the stored
/// value must look like a pointer — by inferred type, by being the
/// stack frame, by being used as a deref base somewhere in this
/// summary (`deref_bases`), or by being an address inside
/// writable global storage (in which case the alias is anchored at the
/// object's base with the interior displacement as its offset).
fn alias_entry(
    summary: &FuncSummary,
    pool: &mut ExprPool,
    dp: &DefPair,
    deref_bases: &mut DerefBases,
    global_base: &dyn Fn(i64) -> Option<i64>,
) -> Option<AliasEntry> {
    let (base, offset) = pool.base_offset(dp.u);
    if base == dp.d {
        // Self-referential store (`*p = *p + 8`); never an alias link.
        return None;
    }
    // The cheap pointer-likeness tests first; the global object's base
    // is interned only once the name is known to be structured.
    let object = match pool.node(base) {
        SymNode::Const(c) => Some((c, global_base(c)?)),
        SymNode::StackBase => None,
        _ => {
            let mut is_base = |e: ExprId| deref_bases.holds(pool, &summary.def_pairs, e);
            let pointer_like = summary.type_of(dp.u).is_pointer()
                || summary.type_of(base).is_pointer()
                || is_base(dp.u)
                || is_base(base);
            if !pointer_like {
                return None;
            }
            None
        }
    };
    walk_spine(pool, dp.d, |_| {})?;
    match object {
        Some((c, s)) if s != c => {
            Some(AliasEntry { name: dp.d, base: pool.constant(s), offset: offset + c - s })
        }
        _ => Some(AliasEntry { name: dp.d, base, offset }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::{alias_replace, AliasMode};
    use dtaint_symex::VType;

    fn cfg() -> AliasConfig {
        AliasConfig { mode: AliasMode::Sse, ..AliasConfig::default() }
    }

    fn no_globals(_: i64) -> Option<i64> {
        None
    }

    /// 256-byte writable objects at 0x30000, 0x30100, … — the shape the
    /// binary's symbol map provides in production.
    fn globals(c: i64) -> Option<i64> {
        if (0x30000..0x40000).contains(&c) {
            Some(c & !0xFF)
        } else {
            None
        }
    }

    #[test]
    fn canonicalize_builds_the_spine() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let f = pool.add_const(arg0, 0x4C);
        let inner = pool.deref(f, 4);
        let g = pool.add_const(inner, 8);
        let outer = pool.deref(g, 4);
        let sse = canonicalize(&pool, outer).expect("structured");
        assert_eq!(sse.base, arg0);
        assert_eq!(
            sse.spine,
            vec![SpineStep { offset: 0x4C, width: 4 }, SpineStep { offset: 8, width: 4 }]
        );
        assert_eq!(sse.depth(), 2);
        // Non-memory and irregular shapes do not canonicalise.
        assert!(canonicalize(&pool, arg0).is_none());
        let arg1 = pool.arg(1);
        let sym_off = pool.add(inner, arg1);
        let irregular = pool.deref(sym_off, 4);
        assert!(canonicalize(&pool, irregular).is_none());
    }

    /// The store-mode example still works: SSE subsumes Algorithm 1.
    #[test]
    fn sse_covers_the_store_alias_shape() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let arg1 = pool.arg(1);
        let q4 = pool.add_const(arg1, 4);
        let name = pool.deref(q4, 4);
        let taint = pool.call_out(0x100, 1);
        let p_deref = pool.deref(arg0, 1);
        let mut s = FuncSummary::default();
        s.observe_type(arg0, VType::Ptr);
        s.def_pairs.push(DefPair { d: name, u: arg0, ins_addr: 0x10, path: 0 });
        s.def_pairs.push(DefPair { d: p_deref, u: taint, ins_addr: 0x14, path: 0 });
        let stats = sse_replace(&mut s, &mut pool, &cfg(), &no_globals);
        let expected_d = pool.deref(name, 1);
        assert!(s.def_pairs.iter().any(|p| p.d == expected_d && p.u == taint));
        assert!(stats.rewrites >= 1);
        assert!(!stats.saturated);
        assert_eq!(s.sse_rounds, stats.rounds);
    }

    /// Reverse substitution: the name resolves back to the stored
    /// pointer, connecting a nested name store mode cannot touch.
    #[test]
    fn reverse_substitution_resolves_names_to_values() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0); // ctx
        let arg1 = pool.arg(1); // req
        let arg2 = pool.arg(2); // buf
        let co = pool.add_const(arg0, 0x20);
        let n1 = pool.deref(co, 4); // deref(ctx+0x20) — holds req
        let n1u = pool.add_const(n1, 0x40);
        let nested = pool.deref(n1u, 4); // deref(deref(ctx+0x20)+0x40)
        let out = pool.call_out(0x100, 1);
        let buf_deref = pool.deref(arg2, 1);

        let mut s = FuncSummary::default();
        s.observe_type(arg1, VType::Ptr);
        s.def_pairs.push(DefPair { d: n1, u: arg1, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: nested, u: arg2, ins_addr: 4, path: 0 });
        s.def_pairs.push(DefPair { d: buf_deref, u: out, ins_addr: 8, path: 0 });
        sse_replace(&mut s, &mut pool, &cfg(), &no_globals);
        // deref(deref(ctx+0x20)+0x40) = buf, with deref(ctx+0x20) ≡ req,
        // must gain the twin deref(req+0x40) = buf.
        let req_u = pool.add_const(arg1, 0x40);
        let twin = pool.deref(req_u, 4);
        assert!(
            s.def_pairs.iter().any(|p| p.d == twin && p.u == arg2),
            "{:?}",
            s.def_pairs.iter().map(|p| pool.display(p.d).to_string()).collect::<Vec<_>>()
        );
        // Store mode cannot produce that twin.
        let mut s2 = FuncSummary::default();
        s2.observe_type(arg1, VType::Ptr);
        s2.def_pairs.push(DefPair { d: n1, u: arg1, ins_addr: 0, path: 0 });
        s2.def_pairs.push(DefPair { d: nested, u: arg2, ins_addr: 4, path: 0 });
        s2.def_pairs.push(DefPair { d: buf_deref, u: out, ins_addr: 8, path: 0 });
        alias_replace(&mut s2, &mut pool);
        assert!(!s2.def_pairs.iter().any(|p| p.d == twin));
    }

    /// A 3-link chain needs a round-2 rewrite: the round-1 twin seeds
    /// the match that connects the full chain.
    #[test]
    fn fixpoint_connects_chains_across_rounds() {
        let mut pool = ExprPool::new();
        let g_ctx = pool.constant(0x30000);
        let g_req = pool.constant(0x30100);
        let g_inner = pool.constant(0x30200);
        let g_buf = pool.constant(0x30300);
        let co = pool.add_const(g_ctx, 0x20);
        let e1 = pool.deref(co, 4); // deref(g_ctx+0x20) = g_req
        let ro = pool.add_const(g_req, 0x28);
        let e2 = pool.deref(ro, 4); // deref(g_req+0x28) = g_inner
        let uo = pool.add_const(g_inner, 0x40);
        let e3 = pool.deref(uo, 4); // deref(g_inner+0x40) = g_buf
        let out = pool.call_out(0x100, 1);
        let buf_deref = pool.deref(g_buf, 1);

        let mut s = FuncSummary::default();
        s.def_pairs.push(DefPair { d: e1, u: g_req, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: e2, u: g_inner, ins_addr: 4, path: 0 });
        s.def_pairs.push(DefPair { d: e3, u: g_buf, ins_addr: 8, path: 0 });
        s.def_pairs.push(DefPair { d: buf_deref, u: out, ins_addr: 12, path: 0 });
        let stats = sse_replace(&mut s, &mut pool, &cfg(), &globals);

        // The reader-side name deref(deref(deref(g_ctx+0x20)+0x28)+0x40)
        // requires composing two forward rewrites.
        let l1 = pool.add_const(e1, 0x28);
        let d1 = pool.deref(l1, 4);
        let l2 = pool.add_const(d1, 0x40);
        let d2 = pool.deref(l2, 4);
        assert!(
            s.def_pairs.iter().any(|p| p.d == d2 && p.u == g_buf),
            "{:?}",
            s.def_pairs.iter().map(|p| pool.display(p.d).to_string()).collect::<Vec<_>>()
        );
        assert!(stats.rounds >= 2, "needs at least two rounds, got {}", stats.rounds);
        assert!(stats.max_depth >= 3);
    }

    /// Depth budget: rewrites past `max_depth` are discarded and the
    /// pass still converges.
    #[test]
    fn depth_budget_bounds_the_universe() {
        let mut pool = ExprPool::new();
        let g_ctx = pool.constant(0x30000);
        let g_req = pool.constant(0x30100);
        let co = pool.add_const(g_ctx, 0x20);
        let e1 = pool.deref(co, 4);
        let uo = pool.add_const(g_req, 0x40);
        let e2 = pool.deref(uo, 4);
        let out = pool.call_out(0x100, 1);
        let mut s = FuncSummary::default();
        s.def_pairs.push(DefPair { d: e1, u: g_req, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: e2, u: out, ins_addr: 4, path: 0 });
        let tight = AliasConfig { mode: AliasMode::Sse, max_depth: 1, max_rounds: 6 };
        let stats = sse_replace(&mut s, &mut pool, &tight, &globals);
        assert_eq!(stats.rewrites, 0, "depth-2 twin exceeds the budget");
        for dp in &s.def_pairs {
            assert!(pool.deref_depth(dp.d) <= 1);
        }
    }

    /// Idempotence: a second pass over converged output changes nothing.
    #[test]
    fn idempotent_once_converged() {
        let mut pool = ExprPool::new();
        let g_ctx = pool.constant(0x30000);
        let g_req = pool.constant(0x30100);
        let g_buf = pool.constant(0x30300);
        let co = pool.add_const(g_ctx, 0x20);
        let e1 = pool.deref(co, 4);
        let uo = pool.add_const(g_req, 0x40);
        let e2 = pool.deref(uo, 4);
        let out = pool.call_out(0x100, 1);
        let buf_deref = pool.deref(g_buf, 1);
        let mut s = FuncSummary::default();
        s.def_pairs.push(DefPair { d: e1, u: g_req, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: e2, u: g_buf, ins_addr: 4, path: 0 });
        s.def_pairs.push(DefPair { d: buf_deref, u: out, ins_addr: 8, path: 0 });
        let first = sse_replace(&mut s, &mut pool, &cfg(), &globals);
        assert!(!first.saturated);
        let n = s.def_pairs.len();
        let second = sse_replace(&mut s, &mut pool, &cfg(), &globals);
        assert_eq!(s.def_pairs.len(), n, "converged output is a fixpoint");
        assert_eq!(second.rewrites, 0);
    }

    /// The occurs-check regression: a pair of mutually-referential
    /// aliases must not ping-pong forever; the round budget holds and
    /// the pass reports saturation instead of diverging.
    #[test]
    fn mutually_referential_aliases_saturate_within_budget() {
        let mut pool = ExprPool::new();
        let g_a = pool.constant(0x30000);
        let g_b = pool.constant(0x30100);
        let a8 = pool.add_const(g_a, 8);
        let n1 = pool.deref(a8, 4); // deref(g_a+8) = g_b + 8
        let b8v = pool.add_const(g_b, 8);
        let b8 = pool.add_const(g_b, 16);
        let n2 = pool.deref(b8, 4); // deref(g_b+16) = g_a + 8
        let a8v = pool.add_const(g_a, 8);
        let out = pool.call_out(0x100, 1);
        let sink = pool.deref(g_b, 1);
        let mut s = FuncSummary::default();
        s.def_pairs.push(DefPair { d: n1, u: b8v, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: n2, u: a8v, ins_addr: 4, path: 0 });
        s.def_pairs.push(DefPair { d: sink, u: out, ins_addr: 8, path: 0 });
        let budget = AliasConfig { mode: AliasMode::Sse, max_depth: 3, max_rounds: 4 };
        let stats = sse_replace(&mut s, &mut pool, &budget, &globals);
        assert!(stats.rounds <= budget.max_rounds);
        // Every appended name respects the depth bound.
        for dp in &s.def_pairs {
            assert!(pool.deref_depth(dp.d) <= budget.max_depth);
        }
    }
}
