//! Indirect-call resolution through data-structure layout similarity
//! (§III-D).
//!
//! The key insight of the paper: the object flowing into an indirect call
//! site and the object a function pointer was installed into usually
//! *share a data structure*. We therefore:
//!
//! 1. find **installers** — definition pairs storing a function's address
//!    into a structure field (`deref(root·path + off) = &func`),
//! 2. find **indirect call sites** — calls through `deref(base + off)`,
//! 3. match sites to installers with the same field position
//!    (access path and offset), ranking matches by the layout similarity
//!    σ of the two structures (Formula 2).
//!
//! # Cost
//!
//! Finding installers and sites is one pass over the definition pairs
//! and call sites, with an indexed symbol lookup per constant store.
//! Layouts — the expensive part — are inferred only for the functions
//! that own a call site with a positional match, or an installer such a
//! site is scored against, so an image without installers infers none.

use crate::layout::{infer_layouts, root_and_path, AccessPath, Layout};
use dtaint_fwbin::Binary;
use dtaint_symex::pool::{ExprPool, SymNode};
use dtaint_symex::{CalleeRef, ExprId, FuncSummary};
use std::collections::{BTreeMap, HashMap};

/// A function pointer installed into a structure field.
#[derive(Debug, Clone)]
pub struct Installer {
    /// Entry address of the installed (target) function.
    pub func: u32,
    /// Function that performed the store.
    pub in_func: u32,
    /// Access path of the field's base from the structure root.
    pub path: AccessPath,
    /// Field offset of the stored pointer.
    pub offset: i64,
    /// The structure root in `in_func`; its layout there is what a call
    /// site's structure is compared against.
    pub root: ExprId,
}

/// Logical work counts of one [`resolve_indirect_calls`] run. They
/// depend only on the summaries, so they are identical for every thread
/// count and cache state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndirectStats {
    /// Installers found.
    pub installers: usize,
    /// Indirect call sites with at least one positional installer match
    /// (the sites Formula 2 scores).
    pub sites: usize,
    /// Functions whose layouts were inferred.
    pub layouts_inferred: usize,
}

/// A resolved indirect call.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCall {
    /// Instruction address of the indirect call.
    pub ins_addr: u32,
    /// Function containing the call.
    pub caller: u32,
    /// Resolved callee entry address.
    pub callee: u32,
    /// Layout similarity of the match (Formula 2); 0 when the match fell
    /// back to unique field position without layout evidence.
    pub score: f64,
}

/// An indirect call site and the installers at its field position, in
/// installer order.
struct Site<'i> {
    ins_addr: u32,
    caller: u32,
    root: ExprId,
    positional: &'i [&'i Installer],
}

/// Finds installers and matches every indirect call site against them.
///
/// `summaries` must share `pool`; a function's layouts come from the last
/// summary with its address. Sites with several structurally plausible
/// targets resolve to the highest-similarity one ("the highest
/// similarity σ", §III-D); ties and zero-evidence sites resolve only when
/// the field position identifies a unique candidate. The result is
/// sorted by call instruction, with one entry per instruction, caller
/// and callee, so each function sharing a resolved call gets its own.
pub fn resolve_indirect_calls<'a>(
    bin: &Binary,
    summaries: impl IntoIterator<Item = &'a FuncSummary>,
    pool: &ExprPool,
) -> (Vec<ResolvedCall>, IndirectStats) {
    let summaries: Vec<&FuncSummary> = summaries.into_iter().collect();
    let mut stats = IndirectStats::default();

    // Pass 1: installers.
    let mut installers: Vec<Installer> = Vec::new();
    for s in &summaries {
        for dp in &s.def_pairs {
            let SymNode::Deref { addr, .. } = pool.node(dp.d) else { continue };
            let Some(c) = pool.as_const(dp.u) else { continue };
            let target = c as u32;
            let Some(func) = bin.function_at(target) else { continue };
            if func.addr != target {
                continue;
            }
            let (base, offset) = pool.base_offset(addr);
            let Some((root, path)) = root_and_path(base, pool) else { continue };
            installers.push(Installer { func: target, in_func: s.addr, path, offset, root });
        }
    }
    stats.installers = installers.len();
    if installers.is_empty() {
        return (Vec::new(), stats);
    }

    // Pass 2: indirect call sites with a positional match.
    let mut by_field: HashMap<(AccessPath, i64), Vec<&Installer>> = HashMap::new();
    for inst in &installers {
        by_field.entry((inst.path.clone(), inst.offset)).or_default().push(inst);
    }
    let mut sites: Vec<Site> = Vec::new();
    for s in &summaries {
        for cs in &s.callsites {
            let CalleeRef::Indirect(e) = &cs.callee else { continue };
            let SymNode::Deref { addr, .. } = pool.node(*e) else { continue };
            let (base, offset) = pool.base_offset(addr);
            let Some((root, path)) = root_and_path(base, pool) else { continue };
            let Some(positional) = by_field.get(&(path, offset)) else { continue };
            sites.push(Site { ins_addr: cs.ins_addr, caller: s.addr, root, positional });
        }
    }
    stats.sites = sites.len();

    // Layouts of exactly the functions the ranking compares, one slot
    // per summary. A function's slot is its last summary's: summary
    // positions sorted by address, found by binary search.
    let mut by_addr: Vec<usize> = (0..summaries.len()).collect();
    by_addr.sort_unstable_by_key(|&i| (summaries[i].addr, i));
    let slot = |f: u32| by_addr[by_addr.partition_point(|&i| summaries[i].addr <= f) - 1];
    let mut layouts: Vec<Option<BTreeMap<ExprId, Layout>>> = vec![None; summaries.len()];
    for site in &sites {
        for f in std::iter::once(site.caller).chain(site.positional.iter().map(|i| i.in_func)) {
            let i = slot(f);
            layouts[i].get_or_insert_with(|| infer_layouts(summaries[i], pool));
        }
    }
    stats.layouts_inferred = layouts.iter().flatten().count();
    let empty = Layout::default();
    let layout_of = |f: u32, root: ExprId| {
        layouts[slot(f)].as_ref().and_then(|l| l.get(&root)).unwrap_or(&empty)
    };

    // Pass 3: rank each site's candidates by layout similarity.
    let mut resolved = Vec::new();
    for site in &sites {
        let caller_layout = layout_of(site.caller, site.root);
        let mut best: Option<(&Installer, f64)> = None;
        let mut best_count = 0usize;
        for &inst in site.positional {
            let score = caller_layout.similarity(layout_of(inst.in_func, inst.root));
            match &best {
                Some((_, s0)) if score < *s0 => {}
                Some((_, s0)) if (score - s0).abs() < 1e-12 => best_count += 1,
                _ => {
                    best = Some((inst, score));
                    best_count = 1;
                }
            }
        }
        let (inst, score) = best.expect("positional nonempty");
        let unique = site.positional.iter().all(|i| i.func == inst.func);
        // Resolve on a strict similarity winner, or when the field
        // position identifies a single target anyway. Ambiguous ties
        // between different targets stay unresolved — precision over
        // recall.
        if (score > 0.0 && best_count == 1) || unique {
            resolved.push(ResolvedCall {
                ins_addr: site.ins_addr,
                caller: site.caller,
                callee: inst.func,
                score,
            });
        }
    }
    resolved.sort_by_key(|r| r.ins_addr);
    resolved.dedup_by_key(|r| (r.ins_addr, r.caller, r.callee));
    (resolved, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::fbf::{Section, SectionKind, Symbol, SymbolKind};
    use dtaint_fwbin::Arch;
    use dtaint_symex::{ArgList, CallsiteInfo, Constraint, DefPair, VType};
    use proptest::prelude::*;

    /// A binary with functions at 0x1000, 0x1400, 0x2000 and 0x2400 (no
    /// code needed — resolution only consults the symbol table).
    fn fake_bin() -> Binary {
        let handler = |name: &str, addr| Symbol {
            name: name.into(),
            addr,
            size: 16,
            kind: SymbolKind::Function,
        };
        Binary::new(
            Arch::Arm32e,
            0x1000,
            vec![Section {
                name: ".text".into(),
                kind: SectionKind::Text,
                addr: 0x1000,
                size: 0x2000,
                data: vec![0; 0x2000],
            }],
            vec![
                handler("handler_a", 0x1000),
                handler("handler_b", 0x2000),
                handler("handler_c", 0x1400),
                handler("handler_d", 0x2400),
            ],
            vec![],
        )
    }

    fn resolve(bin: &Binary, summaries: &[FuncSummary], pool: &ExprPool) -> Vec<ResolvedCall> {
        resolve_indirect_calls(bin, summaries, pool).0
    }

    fn field(pool: &mut ExprPool, root: ExprId, off: i64) -> ExprId {
        let a = pool.add_const(root, off);
        pool.deref(a, 4)
    }

    /// Installer summary: stores &handler into arg0+8 and touches fields
    /// `offs` of the same struct.
    fn installer_summary(
        pool: &mut ExprPool,
        addr: u32,
        handler: u32,
        offs: &[i64],
    ) -> FuncSummary {
        let mut s = FuncSummary { addr, name: format!("install_{addr:x}"), ..Default::default() };
        let arg0 = pool.arg(0);
        let fp_field = field(pool, arg0, 8);
        let target = pool.constant(handler as i64);
        s.def_pairs.push(DefPair { d: fp_field, u: target, ins_addr: addr, path: 0 });
        let zero = pool.constant(0);
        for &o in offs {
            let d = field(pool, arg0, o);
            s.def_pairs.push(DefPair { d, u: zero, ins_addr: addr, path: 0 });
        }
        s
    }

    /// Caller summary: calls through arg0+8 and touches fields `offs`.
    fn caller_summary(pool: &mut ExprPool, addr: u32, offs: &[i64]) -> FuncSummary {
        let mut s = FuncSummary { addr, name: format!("call_{addr:x}"), ..Default::default() };
        let arg0 = pool.arg(0);
        let fp = field(pool, arg0, 8);
        let ret = pool.ret_sym(addr + 4);
        s.callsites.push(CallsiteInfo {
            ins_addr: addr + 4,
            callee: CalleeRef::Indirect(fp),
            args: [arg0].into_iter().collect(),
            ret,
            path: 0,
        });
        let zero = pool.constant(0);
        for &o in offs {
            let d = field(pool, arg0, o);
            s.def_pairs.push(DefPair { d, u: zero, ins_addr: addr, path: 0 });
        }
        s
    }

    #[test]
    fn unique_candidate_resolves_even_without_layout_overlap() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let inst = installer_summary(&mut pool, 0x1100, 0x1000, &[]);
        let call = caller_summary(&mut pool, 0x1200, &[]);
        let r = resolve(&bin, &[inst, call], &pool);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].callee, 0x1000);
    }

    #[test]
    fn similarity_picks_the_matching_structure() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        // Two installers at the same field offset but different struct
        // shapes; the caller shares fields {0x10, 0x14} with installer A.
        let inst_a = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10, 0x14]);
        let inst_b = installer_summary(&mut pool, 0x1300, 0x2000, &[0x40, 0x44, 0x48]);
        let call = caller_summary(&mut pool, 0x1200, &[0x10, 0x14]);
        let r = resolve(&bin, &[inst_a, inst_b, call], &pool);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].callee, 0x1000, "layout similarity must pick handler_a");
        assert!(r[0].score > 0.5);
    }

    #[test]
    fn mismatched_field_offset_does_not_resolve() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let inst = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10]);
        // Caller uses offset 12, installer stored at offset 8.
        let mut call = FuncSummary { addr: 0x1200, ..Default::default() };
        let arg0 = pool.arg(0);
        let fp = field(&mut pool, arg0, 12);
        let ret = pool.ret_sym(0x1204);
        call.callsites.push(CallsiteInfo {
            ins_addr: 0x1204,
            callee: CalleeRef::Indirect(fp),
            args: ArgList::new(),
            ret,
            path: 0,
        });
        let r = resolve(&bin, &[inst, call], &pool);
        assert!(r.is_empty());
    }

    #[test]
    fn ambiguous_identical_candidates_stay_unresolved() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        // Two installers, identical shapes, different targets: ambiguous.
        let inst_a = installer_summary(&mut pool, 0x1100, 0x1000, &[0x10]);
        let inst_b = installer_summary(&mut pool, 0x1300, 0x2000, &[0x10]);
        let call = caller_summary(&mut pool, 0x1200, &[0x10]);
        let r = resolve(&bin, &[inst_a, inst_b, call], &pool);
        assert!(r.is_empty(), "tie between different targets must stay unresolved");
    }

    #[test]
    fn non_function_constants_are_not_installers() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        let mut inst = FuncSummary { addr: 0x1100, ..Default::default() };
        let arg0 = pool.arg(0);
        let f = field(&mut pool, arg0, 8);
        // 0x1008 is *inside* handler_a but not its entry.
        let mid = pool.constant(0x1008);
        inst.def_pairs.push(DefPair { d: f, u: mid, ins_addr: 0, path: 0 });
        let call = caller_summary(&mut pool, 0x1200, &[]);
        let r = resolve(&bin, &[inst, call], &pool);
        assert!(r.is_empty());
    }

    #[test]
    fn layouts_are_inferred_only_for_matched_functions() {
        let bin = fake_bin();
        let mut pool = ExprPool::new();
        // One installer, then nine callers through its field.
        let mut all = vec![installer_summary(&mut pool, 0x1100, 0x1000, &[0x10])];
        for i in 0..9 {
            all.push(caller_summary(&mut pool, 0x1200 + 0x100 * i, &[0x10]));
        }
        let (_, stats) = resolve_indirect_calls(&bin, &all, &pool);
        assert_eq!(stats, IndirectStats { installers: 1, sites: 9, layouts_inferred: 10 });
        // Without installers nothing is inferred, however many sites exist.
        let (r, stats) = resolve_indirect_calls(&bin, &all[1..], &pool);
        assert!(r.is_empty());
        assert_eq!(stats, IndirectStats::default());
        // Nor for an installer that no site matches.
        let (_, stats) = resolve_indirect_calls(&bin, &all[..1], &pool);
        assert_eq!(stats, IndirectStats { installers: 1, sites: 0, layouts_inferred: 0 });
    }

    /// The whole-image algorithm the lazy one replaced: layouts for every
    /// function up front, installers carrying cloned layouts, and a scan
    /// of all installers per call site.
    fn reference(bin: &Binary, summaries: &[FuncSummary], pool: &ExprPool) -> Vec<ResolvedCall> {
        struct RefInstaller {
            func: u32,
            path: AccessPath,
            offset: i64,
            layout: Layout,
        }
        let mut installers: Vec<RefInstaller> = Vec::new();
        let mut layouts_cache: BTreeMap<u32, BTreeMap<ExprId, Layout>> = BTreeMap::new();
        for s in summaries {
            layouts_cache.insert(s.addr, infer_layouts(s, pool));
        }
        for s in summaries {
            for dp in &s.def_pairs {
                let SymNode::Deref { addr, .. } = pool.node(dp.d) else { continue };
                let Some(c) = pool.as_const(dp.u) else { continue };
                let target = c as u32;
                let Some(func) = bin.function_at(target) else { continue };
                if func.addr != target {
                    continue;
                }
                let (base, offset) = pool.base_offset(addr);
                let Some((root, path)) = root_and_path(base, pool) else { continue };
                let layout = layouts_cache[&s.addr].get(&root).cloned().unwrap_or_default();
                installers.push(RefInstaller { func: target, path, offset, layout });
            }
        }
        let mut resolved = Vec::new();
        for s in summaries {
            for cs in &s.callsites {
                let CalleeRef::Indirect(e) = &cs.callee else { continue };
                let SymNode::Deref { addr, .. } = pool.node(*e) else { continue };
                let (base, offset) = pool.base_offset(addr);
                let Some((root, path)) = root_and_path(base, pool) else { continue };
                let caller_layout = layouts_cache[&s.addr].get(&root).cloned().unwrap_or_default();
                let positional: Vec<&RefInstaller> =
                    installers.iter().filter(|i| i.path == path && i.offset == offset).collect();
                if positional.is_empty() {
                    continue;
                }
                let mut best: Option<(&RefInstaller, f64)> = None;
                let mut best_count = 0usize;
                for inst in &positional {
                    let score = caller_layout.similarity(&inst.layout);
                    match &best {
                        Some((_, s0)) if score < *s0 => {}
                        Some((_, s0)) if (score - s0).abs() < 1e-12 => best_count += 1,
                        _ => {
                            best = Some((inst, score));
                            best_count = 1;
                        }
                    }
                }
                let (inst, score) = best.expect("positional nonempty");
                let distinct_targets: std::collections::BTreeSet<u32> =
                    positional.iter().map(|i| i.func).collect();
                if (score > 0.0 && best_count == 1) || distinct_targets.len() == 1 {
                    resolved.push(ResolvedCall {
                        ins_addr: cs.ins_addr,
                        caller: s.addr,
                        callee: inst.func,
                        score,
                    });
                }
            }
        }
        resolved.sort_by_key(|r| r.ins_addr);
        resolved.dedup_by_key(|r| (r.ins_addr, r.caller, r.callee));
        resolved
    }

    /// Xorshift stream behind the random summary sets.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// A field access `deref(root·path + off)` over a small vocabulary
    /// of roots, nested paths and offsets, so field positions and layouts
    /// collide often.
    fn random_field(rng: &mut Rng, pool: &mut ExprPool) -> ExprId {
        let mut base = match rng.below(4) {
            0 | 1 => pool.arg(rng.below(2) as u8),
            2 => pool.ret_sym(0x5000),
            _ => pool.constant(0x8000),
        };
        for _ in 0..rng.below(3) {
            base = field(pool, base, rng.pick(&[0, 8, 0x58]));
        }
        field(pool, base, rng.pick(&[0, 4, 8, 12]))
    }

    /// Function entries, then constants that are not entries: inside a
    /// function, just past one, and unmapped.
    const TARGETS: [u32; 7] = [0x1000, 0x1400, 0x2000, 0x2400, 0x1008, 0x2410, 0x9000];

    /// Random installer/caller summaries: stores of function pointers and
    /// other constants into fields, calls through fields (sometimes
    /// repeated on a second path, sometimes through a constant), typed
    /// field touches and guards, and an occasional repeated address.
    fn random_summaries(seed: u64) -> (Vec<FuncSummary>, ExprPool) {
        let mut rng = Rng(seed | 1);
        let mut pool = ExprPool::new();
        let zero = pool.constant(0);
        let mut summaries: Vec<FuncSummary> = Vec::new();
        for i in 0..1 + rng.below(7) as u32 {
            let mut addr = 0x3000 + 0x100 * i;
            if i > 0 && rng.below(8) == 0 {
                addr -= 0x100;
            }
            let mut s = FuncSummary { addr, name: format!("f{i}"), ..Default::default() };
            for k in 0..rng.below(5) as u32 {
                let d = random_field(&mut rng, &mut pool);
                let u = match rng.below(3) {
                    0 => zero,
                    _ => pool.constant(i64::from(rng.pick(&TARGETS))),
                };
                s.def_pairs.push(DefPair { d, u, ins_addr: addr + 4 * k, path: 0 });
                if rng.below(4) == 0 {
                    s.observe_type(d, rng.pick(&[VType::Int, VType::CharPtr, VType::Ptr]));
                }
            }
            for k in 0..rng.below(4) as u32 {
                let callee = match rng.below(5) {
                    0 => CalleeRef::Indirect(pool.constant(0x1000)),
                    1 => CalleeRef::Direct(0x1000),
                    _ => CalleeRef::Indirect(random_field(&mut rng, &mut pool)),
                };
                let args: ArgList = match rng.below(2) {
                    0 => ArgList::new(),
                    _ => [random_field(&mut rng, &mut pool)].into_iter().collect(),
                };
                let ins_addr = addr + 0x80 + 4 * k;
                let ret = pool.ret_sym(ins_addr);
                let cs = CallsiteInfo { ins_addr, callee, args, ret, path: 0 };
                if rng.below(4) == 0 {
                    s.callsites.push(CallsiteInfo { path: 1, ..cs.clone() });
                }
                s.callsites.push(cs);
            }
            if rng.below(3) == 0 {
                let lhs = random_field(&mut rng, &mut pool);
                let rhs = pool.constant(64);
                let op = dtaint_symex::CmpOp::Lt;
                s.constraints.push(Constraint { op, lhs, rhs, ins_addr: addr, path: 0 });
            }
            summaries.push(s);
        }
        (summaries, pool)
    }

    #[test]
    fn random_summary_sets_reach_every_outcome() {
        let bin = fake_bin();
        let (mut resolved, mut scored, mut unresolved) = (0, 0, 0);
        for seed in 0..256 {
            let (summaries, pool) = random_summaries(seed);
            let (r, stats) = resolve_indirect_calls(&bin, &summaries, &pool);
            resolved += r.len();
            scored += r.iter().filter(|c| c.score > 0.0).count();
            unresolved += stats.sites.saturating_sub(r.len());
        }
        assert!(scored > 0, "some sites resolve on layout evidence");
        assert!(scored < resolved, "some resolve by a unique position alone");
        assert!(unresolved > 0, "some stay ambiguous");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Installer order, tie-breaking, scores and the `(ins_addr,
        /// callee)` dedup all match the whole-image algorithm.
        #[test]
        fn lazy_resolution_matches_the_whole_image_reference(seed in any::<u64>()) {
            let bin = fake_bin();
            let (summaries, pool) = random_summaries(seed);
            let (got, stats) = resolve_indirect_calls(&bin, &summaries, &pool);
            prop_assert_eq!(got, reference(&bin, &summaries, &pool), "seed {}", seed);
            prop_assert!(stats.layouts_inferred <= stats.installers + stats.sites);
        }
    }
}
