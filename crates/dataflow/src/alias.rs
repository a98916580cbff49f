//! Pointer-aliasing recognition — the paper's Algorithm 1.
//!
//! The troublesome alias shape is a pointer saved into memory:
//!
//! ```c
//! int *p = x;  *(q + 4) = p;   // *(*(q+4)) and *p alias
//! ```
//!
//! which, in variable descriptions, is a definition pair
//! `deref(base1 + offset1) = base2 + offset2` (Formula 1). For every
//! other definition whose description mentions `base2`, we add a rewritten
//! twin in which `base2` is replaced by `deref(base1 + offset1) - offset2`,
//! so data flow through either name connects.

use dtaint_symex::pool::{ExprPool, SymNode};
use dtaint_symex::{keep_first, DefPair, ExprId, FuncSummary};

/// One recognised alias: `name` (a `deref(…)` expression) holds the value
/// `base + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AliasEntry {
    /// The memory name holding the pointer (`deref(base1 + offset1)`).
    pub name: ExprId,
    /// The pointer value's base.
    pub base: ExprId,
    /// The pointer value's constant offset.
    pub offset: i64,
}

/// Which alias-recognition algorithm the dataflow stage runs, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AliasMode {
    /// No alias recognition: summaries keep their pre-alias definition
    /// pairs (the ablation baseline; not selectable from the CLI).
    Off,
    /// The paper's Algorithm 1: a single store-based rewrite pass per
    /// local summary. Misses multi-level chains whose links are split
    /// across callees or hidden behind another alias.
    Store,
    /// Structured-symbolic-expression matching (the same first author's
    /// follow-up work): bidirectional substitution iterated to a
    /// fixpoint with bounded deref depth, run both on local summaries
    /// and again after callee substitution so chains composed at a call
    /// site still connect.
    #[default]
    Sse,
}

impl std::str::FromStr for AliasMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "store" => Ok(AliasMode::Store),
            "sse" => Ok(AliasMode::Sse),
            other => Err(format!("unknown alias mode `{other}` (expected `store` or `sse`)")),
        }
    }
}

impl std::fmt::Display for AliasMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AliasMode::Off => "off",
            AliasMode::Store => "store",
            AliasMode::Sse => "sse",
        })
    }
}

/// Alias-analysis knobs. Every field is semantic (changes which
/// definition pairs exist) and therefore enters the DDG cache salt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AliasConfig {
    /// Which algorithm to run.
    pub mode: AliasMode,
    /// Maximum deref nesting allowed in an SSE-rewritten name; deeper
    /// rewrites are discarded. Bounds the expression universe so the
    /// fixpoint terminates.
    pub max_depth: u32,
    /// Maximum SSE fixpoint rounds per summary; a pass that still has
    /// pending rewrites at the cap sets `FuncSummary::sse_saturated`.
    pub max_rounds: u32,
}

impl Default for AliasConfig {
    fn default() -> Self {
        AliasConfig { mode: AliasMode::default(), max_depth: 4, max_rounds: 6 }
    }
}

/// Mode-dispatched front for the alias stage: runs the configured
/// algorithm over one summary (nothing when off). `global_base` maps a
/// constant address to the base of the writable global object
/// containing it — the SSE pass uses it to admit global structs as
/// alias bases (store mode never does).
pub fn alias_pass(
    summary: &mut FuncSummary,
    pool: &mut ExprPool,
    cfg: &AliasConfig,
    global_base: &dyn Fn(i64) -> Option<i64>,
) {
    match cfg.mode {
        AliasMode::Off => {}
        AliasMode::Store => {
            alias_replace(summary, pool);
        }
        AliasMode::Sse => {
            crate::sse::sse_replace(summary, pool, cfg, global_base);
        }
    }
}

/// [`alias_pass`] behind the pool's rollback boundary
/// ([`ExprPool::attempt`]): true when the pass ran to the end. When it
/// panics, the pool is rolled back and the summary restored, and false
/// is returned. Both passes only append definition pairs and bump the
/// summary's five alias counters, so restoring means truncating the
/// pairs and putting the counters back; the summary is never copied.
pub fn alias_pass_or_restore(
    summary: &mut FuncSummary,
    pool: &mut ExprPool,
    cfg: &AliasConfig,
    global_base: &dyn Fn(i64) -> Option<i64>,
) -> bool {
    let pairs = summary.def_pairs.len();
    let counters = (
        summary.alias_rewrites,
        summary.sse_rounds,
        summary.sse_rewrites,
        summary.sse_depth,
        summary.sse_saturated,
    );
    let done = pool
        .attempt(|p| {
            alias_pass(summary, p, cfg, global_base);
            Some(())
        })
        .is_some();
    if !done {
        summary.def_pairs.truncate(pairs);
        (
            summary.alias_rewrites,
            summary.sse_rounds,
            summary.sse_rewrites,
            summary.sse_depth,
            summary.sse_saturated,
        ) = counters;
    }
    done
}

/// Runs Algorithm 1 over a function summary, appending the rewritten
/// definition pairs and returning the alias set that was used.
///
/// A value counts as a pointer when its inferred type is a pointer, when
/// its base is the stack frame, or when it is itself memory-shaped and
/// used as a base elsewhere (the executor types load/store bases as
/// pointers, so this covers the common cases).
pub fn alias_replace(summary: &mut FuncSummary, pool: &mut ExprPool) -> Vec<AliasEntry> {
    // Collect ALIAS: defs of Formula-(1) shape, each once, in discovery
    // order.
    let mut aliases: Vec<AliasEntry> = Vec::new();
    for dp in &summary.def_pairs {
        if !matches!(pool.node(dp.d), SymNode::Deref { .. }) {
            continue;
        }
        let (base, offset) = pool.base_offset(dp.u);
        let is_ptr = summary.type_of(dp.u).is_pointer()
            || summary.type_of(base).is_pointer()
            || matches!(pool.node(base), SymNode::StackBase);
        if !is_ptr || matches!(pool.node(base), SymNode::Const(_)) {
            continue;
        }
        aliases.push(AliasEntry { name: dp.d, base, offset });
    }
    keep_first(&mut aliases, |&a| a);

    // Collect DOP: defs whose description contains base pointers, and
    // rewrite each matching base with its alias name.
    let mut new_pairs: Vec<DefPair> = Vec::new();
    let mut ptrs: Vec<ExprId> = Vec::new();
    for dp in &summary.def_pairs {
        if !matches!(pool.node(dp.d), SymNode::Deref { .. }) {
            continue;
        }
        pool.ptrs_in_into(dp.d, &mut ptrs);
        for &ptr in &ptrs {
            for alias in &aliases {
                // Do not rewrite a name with itself, and — the occurs
                // check — never rewrite a def that already mentions the
                // alias name: substituting `base → name - offset` there
                // nests the name inside itself, and under fixpoint
                // iteration the reverse substitution would ping-pong.
                if alias.base != ptr || alias.name == dp.d || pool.contains(dp.d, alias.name) {
                    continue;
                }
                let replacement = pool.add_const(alias.name, -alias.offset);
                let new_d = pool.replace(dp.d, ptr, replacement);
                if new_d != dp.d {
                    new_pairs.push(DefPair {
                        d: new_d,
                        u: dp.u,
                        ins_addr: dp.ins_addr,
                        path: dp.path,
                    });
                }
            }
        }
    }
    // Append each new (d, u) once, as first rewritten.
    if !new_pairs.is_empty() {
        let mut existing: Vec<(ExprId, ExprId)> =
            summary.def_pairs.iter().map(|p| (p.d, p.u)).collect();
        existing.sort_unstable();
        new_pairs.retain(|p| existing.binary_search(&(p.d, p.u)).is_err());
        keep_first(&mut new_pairs, |p| (p.d, p.u));
        summary.alias_rewrites = summary.alias_rewrites.saturating_add(new_pairs.len() as u32);
        summary.def_pairs.append(&mut new_pairs);
    }
    aliases
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_symex::VType;

    /// Builds the paper's second alias example:
    /// `int *p = x; *(q+4) = p; *p = taint`
    /// encoded as def pairs
    ///   deref(arg1 + 4) = arg0          (store p into q+4; p == arg0)
    ///   deref(arg0)     = out_...       (write through p)
    /// Algorithm 1 must add `deref(deref(arg1+4)) = out_...`.
    #[test]
    fn store_alias_generates_rewritten_pair() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0); // p's value
        let arg1 = pool.arg(1); // q
        let q4 = pool.add_const(arg1, 4);
        let name = pool.deref(q4, 4); // deref(q+4)
        let taint = pool.call_out(0x100, 1);
        let p_deref = pool.deref(arg0, 1);

        let mut s = FuncSummary::default();
        s.observe_type(arg0, VType::Ptr);
        s.def_pairs.push(DefPair { d: name, u: arg0, ins_addr: 0x10, path: 0 });
        s.def_pairs.push(DefPair { d: p_deref, u: taint, ins_addr: 0x14, path: 0 });

        let aliases = alias_replace(&mut s, &mut pool);
        assert_eq!(aliases.len(), 1);
        assert_eq!(aliases[0], AliasEntry { name, base: arg0, offset: 0 });

        // The rewritten pair names the same object through q.
        let expected_d = pool.deref(name, 1);
        assert!(
            s.def_pairs.iter().any(|p| p.d == expected_d && p.u == taint),
            "missing rewritten pair deref(deref(arg1 + 4)) = taint: {:?}",
            s.def_pairs
                .iter()
                .map(|p| format!("{} = {}", pool.display(p.d), pool.display(p.u)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn offset_aliases_subtract_the_offset() {
        // deref(arg1) = arg0 + 8  →  arg0 == deref(arg1) - 8.
        // A def through arg0 must gain a twin through deref(arg1) - 8.
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let arg1 = pool.arg(1);
        let name = pool.deref(arg1, 4);
        let val = pool.add_const(arg0, 8);
        let field = pool.add_const(arg0, 0x20);
        let d2 = pool.deref(field, 4);
        let seven = pool.constant(7);

        let mut s = FuncSummary::default();
        s.observe_type(val, VType::Ptr);
        s.def_pairs.push(DefPair { d: name, u: val, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: d2, u: seven, ins_addr: 4, path: 0 });

        alias_replace(&mut s, &mut pool);
        // Twin: deref((deref(arg1) - 8) + 0x20) = deref(deref(arg1) + 0x18).
        let base = pool.add_const(name, -8);
        let twin_addr = pool.add_const(base, 0x20);
        let twin = pool.deref(twin_addr, 4);
        assert!(
            s.def_pairs.iter().any(|p| p.d == twin && p.u == seven),
            "{:?}",
            s.def_pairs.iter().map(|p| pool.display(p.d).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn non_pointer_values_do_not_create_aliases() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let addr = pool.add_const(arg0, 4);
        let d = pool.deref(addr, 4);
        let c = pool.constant(42);
        let mut s = FuncSummary::default();
        s.def_pairs.push(DefPair { d, u: c, ins_addr: 0, path: 0 });
        let aliases = alias_replace(&mut s, &mut pool);
        assert!(aliases.is_empty());
        assert_eq!(s.def_pairs.len(), 1, "no pairs added");
    }

    #[test]
    fn stack_pointers_count_as_pointers() {
        // deref(arg0 + 8) = sp0 - 0x40 (a stack buffer address escapes
        // into a structure).
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let f = pool.add_const(arg0, 8);
        let name = pool.deref(f, 4);
        let sp = pool.stack_base();
        let buf = pool.add_const(sp, -0x40);
        let mut s = FuncSummary::default();
        s.def_pairs.push(DefPair { d: name, u: buf, ins_addr: 0, path: 0 });
        let aliases = alias_replace(&mut s, &mut pool);
        assert_eq!(aliases.len(), 1);
        assert_eq!(aliases[0].offset, -0x40);
    }

    #[test]
    fn idempotent_on_second_run() {
        let mut pool = ExprPool::new();
        let arg0 = pool.arg(0);
        let arg1 = pool.arg(1);
        let q4 = pool.add_const(arg1, 4);
        let name = pool.deref(q4, 4);
        let taint = pool.call_out(0x100, 1);
        let p_deref = pool.deref(arg0, 1);
        let mut s = FuncSummary::default();
        s.observe_type(arg0, VType::Ptr);
        s.def_pairs.push(DefPair { d: name, u: arg0, ins_addr: 0, path: 0 });
        s.def_pairs.push(DefPair { d: p_deref, u: taint, ins_addr: 4, path: 0 });
        alias_replace(&mut s, &mut pool);
        let n = s.def_pairs.len();
        alias_replace(&mut s, &mut pool);
        assert_eq!(s.def_pairs.len(), n, "re-running adds nothing new");
    }

    /// A panic partway through an SSE pass — after its first round
    /// appended twins and interned their names — leaves the summary
    /// equal to its pre-pass clone (its earlier counters included) and
    /// the pool at its pre-pass length; a clean pass keeps both.
    #[test]
    fn a_panicking_pass_restores_the_summary_and_the_pool() {
        use std::cell::Cell;

        // Writable 256-byte objects at 0x30000, 0x30100, …: a 3-link
        // chain of global structs, which takes the fixpoint two rounds.
        let mut pool = ExprPool::new();
        let g = |pool: &mut ExprPool, c| pool.constant(c);
        let (g_ctx, g_req, g_inner, g_buf) = (
            g(&mut pool, 0x30000),
            g(&mut pool, 0x30100),
            g(&mut pool, 0x30200),
            g(&mut pool, 0x30300),
        );
        let mut link = |base, off, value| {
            let a = pool.add_const(base, off);
            (pool.deref(a, 4), value)
        };
        let links =
            [link(g_ctx, 0x20, g_req), link(g_req, 0x28, g_inner), link(g_inner, 0x40, g_buf)];
        let out = pool.call_out(0x100, 1);
        let sink = pool.deref(g_buf, 1);
        let mut s = FuncSummary {
            alias_rewrites: 2,
            sse_rounds: 3,
            sse_rewrites: 1,
            sse_depth: 1,
            ..FuncSummary::default()
        };
        for (i, (d, u)) in links.into_iter().chain([(sink, out)]).enumerate() {
            s.def_pairs.push(DefPair { d, u, ins_addr: 4 * i as u32, path: 0 });
        }
        let cfg = AliasConfig { mode: AliasMode::Sse, ..AliasConfig::default() };

        // A clean run, counting the oracle's calls.
        let calls = Cell::new(0u32);
        let counting = |c: i64| {
            calls.set(calls.get() + 1);
            (0x30000..0x40000).contains(&c).then_some(c & !0xFF)
        };
        let (mut clean, mut clean_pool) = (s.clone(), pool.clone());
        assert!(alias_pass_or_restore(&mut clean, &mut clean_pool, &cfg, &counting));
        assert!(clean.sse_rounds - s.sse_rounds >= 2, "the chain takes two rounds");
        assert!(clean.def_pairs.len() > s.def_pairs.len() && clean_pool.len() > pool.len());

        // The same pass, panicking at the oracle's last call: in the
        // last round, after the first round's twins were appended.
        let last = calls.replace(0);
        let panicking = |c: i64| {
            calls.set(calls.get() + 1);
            assert!(calls.get() < last, "injected fault: global_base call {last}");
            (0x30000..0x40000).contains(&c).then_some(c & !0xFF)
        };
        let (before, len) = (s.clone(), pool.len());
        assert!(!alias_pass_or_restore(&mut s, &mut pool, &cfg, &panicking));
        assert_eq!(calls.get(), last, "the pass ran up to the injected panic");
        assert_eq!(s, before, "the summary is restored");
        assert_eq!(pool.len(), len, "the pool is rolled back");
    }
}
