use crate::funcfg::{FunctionCfg, FunctionShape};
use dtaint_fwbin::fbf::SymbolKind;
use dtaint_fwbin::Binary;
use std::collections::HashMap;

/// A function's dense index: the position of its entry among the
/// distinct entry addresses of the image's function symbols, in address
/// order (see [`CallGraph::ix`]). Per-function tables are `Vec` slots
/// indexed by it; addresses stay in every output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnIx(pub u32);

impl FnIx {
    /// The slot this index names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a call instruction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// A function defined in the binary, by entry address.
    Direct(u32),
    /// An imported library function (`strcpy`, `recv`, …), by index into
    /// [`CallGraph::imports`].
    Import(u32),
    /// An indirect call (`BLX reg` / `JALR reg`) that no layout resolved.
    Indirect,
    /// An indirect call resolved by data-structure layout similarity, by
    /// callee entry address.
    Resolved(u32),
}

/// One call instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Callsite {
    /// Address of the call instruction.
    pub ins_addr: u32,
    /// Entry address of the function that owns the call: the
    /// highest-addressed lifted function containing the instruction.
    pub caller: u32,
    /// The callee.
    pub target: CallTarget,
}

/// The program call graph: the scan's one table of call instructions,
/// and the call edges between function slots ([`FnIx`]).
///
/// Direct edges come from `BL`/`JAL`; import calls are kept separate (they
/// are the sources/sinks of the taint analysis, not analyzable callees);
/// indirect calls are resolved later by layout similarity.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// The entry address of every slot, in address order: each function
    /// symbol's entry (lifted or not) and each shape's, once.
    entries: Vec<u32>,
    /// Entry addresses of the lifted functions, in address order.
    pub functions: Vec<u32>,
    /// One row per call instruction, sorted by instruction address.
    pub callsites: Vec<Callsite>,
    /// Import names, each stored once, indexed by [`CallTarget::Import`].
    pub imports: Vec<String>,
    /// Call edges, one slot per function: its callees (deduplicated, in
    /// call order). Every function that contains a call gets its edge,
    /// whether it owns the call's row or not.
    edges: Vec<Vec<FnIx>>,
    /// Resolved indirect calls recorded, one per
    /// [`CallGraph::add_resolved_indirect`].
    pub resolved: usize,
}

/// The SCC condensation of a [`CallGraph`], from one Tarjan run.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Strongly connected components over the call edges, each sorted by
    /// address, in reverse-topological order: every component comes after
    /// all components it calls into.
    pub components: Vec<Vec<FnIx>>,
    /// Component of every slot; [`NOT_A_NODE`] for a slot no lifted
    /// function reaches.
    comp_of: Vec<u32>,
    /// Dependency levels over the condensation. Stratum 0 holds functions
    /// with no callees outside their own component; every function's
    /// out-of-component callees sit in strictly lower strata. Flattened,
    /// this is a valid bottom-up analysis order. Within one stratum,
    /// distinct components never call each other; members of one
    /// recursive component share a stratum and must treat each other as
    /// opaque. Each stratum is sorted by address.
    pub strata: Vec<Vec<FnIx>>,
}

/// The "no component" and "not visited" mark of the slot tables.
const NOT_A_NODE: u32 = u32::MAX;

impl Condensation {
    /// True when `a` and `b` sit in one component (or neither is a node).
    pub fn same_component(&self, a: FnIx, b: FnIx) -> bool {
        self.comp_of[a.index()] == self.comp_of[b.index()]
    }
}

impl CallGraph {
    /// Builds the call graph from the binary and its function CFGs.
    pub fn build(bin: &Binary, cfgs: &[FunctionCfg]) -> CallGraph {
        let shapes: Vec<FunctionShape> = cfgs.iter().map(FunctionCfg::shape).collect();
        CallGraph::from_shapes(bin, &shapes)
    }

    /// Builds the call graph from the per-function shape records.
    ///
    /// Call targets are classified here, against the whole set of
    /// lifted functions: a constant target that is one of them is
    /// direct, one that is an import stub is an import call, and
    /// anything else is indirect. A call instruction that several
    /// (overlapping) functions contain gets one row, owned by the one
    /// with the highest entry address, whatever order the shapes come in.
    pub fn from_shapes(bin: &Binary, shapes: &[FunctionShape]) -> CallGraph {
        let mut functions: Vec<u32> = shapes.iter().map(|s| s.addr).collect();
        functions.sort_unstable();
        let symbols = bin.symbols.iter().filter(|s| s.kind == SymbolKind::Function);
        let mut entries: Vec<u32> = symbols.map(|s| s.addr).chain(functions.clone()).collect();
        // Two sorted runs when the symbol table is in address order.
        entries.sort();
        entries.dedup();
        let last = entries.last().copied().unwrap_or(0);
        let ix = |addr: u32| (addr <= last).then(|| entries.binary_search(&addr).ok())?;
        // Both lists are sorted: one walk marks the lifted slots.
        let (mut lifted, mut i) = (vec![false; entries.len()], 0);
        for &f in &functions {
            while entries[i] < f {
                i += 1;
            }
            lifted[i] = true;
        }
        let mut imports: Vec<String> = Vec::new();
        let mut import_ix: HashMap<&str, u32> = HashMap::new();
        let mut callsites = Vec::with_capacity(shapes.iter().map(|s| s.calls.len()).sum());
        let mut edges: Vec<Vec<FnIx>> = vec![Vec::new(); entries.len()];
        for shape in shapes {
            let caller = ix(shape.addr).expect("every shape has a slot");
            for row in &shape.calls {
                let direct = row.next_const.and_then(ix).filter(|&c| lifted[c]);
                let target = match (row.next_const, direct) {
                    (Some(t), Some(c)) => {
                        let (out, c) = (&mut edges[caller], FnIx(c as u32));
                        if !out.contains(&c) {
                            out.push(c);
                        }
                        CallTarget::Direct(t)
                    }
                    (Some(t), None) => match bin.import_at(t) {
                        Some(imp) => CallTarget::Import(
                            *import_ix.entry(imp.name.as_str()).or_insert_with(|| {
                                imports.push(imp.name.clone());
                                imports.len() as u32 - 1
                            }),
                        ),
                        // A direct call to an address that is neither a
                        // function nor a stub — treat as unresolvable.
                        None => CallTarget::Indirect,
                    },
                    (None, _) => CallTarget::Indirect,
                };
                callsites.push(Callsite { ins_addr: row.ins_addr, caller: shape.addr, target });
            }
        }
        callsites.sort_unstable_by_key(|c| (c.ins_addr, c.caller));
        callsites.dedup_by(|later, kept| {
            let same = later.ins_addr == kept.ins_addr;
            if same {
                *kept = *later;
            }
            same
        });
        callsites.shrink_to_fit();
        CallGraph { entries, functions, callsites, imports, edges, resolved: 0 }
    }

    /// The number of function slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the image has no function.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every slot, in address order.
    pub fn slots(&self) -> impl Iterator<Item = FnIx> {
        (0..self.entries.len() as u32).map(FnIx)
    }

    /// The slot of the function entered at `addr`, by binary search;
    /// `None` when no function symbol starts there.
    pub fn ix(&self, addr: u32) -> Option<FnIx> {
        self.entries.binary_search(&addr).ok().map(|i| FnIx(i as u32))
    }

    /// The entry address of slot `f`.
    pub fn entry(&self, f: FnIx) -> u32 {
        self.entries[f.index()]
    }

    /// The direct (and resolved-indirect) callees of `f`, deduplicated,
    /// in call order.
    pub fn callees(&self, f: FnIx) -> &[FnIx] {
        &self.edges[f.index()]
    }

    /// Records an indirect call at `ins_addr` in `caller` that layout
    /// similarity resolved to `callee`: the call's row now targets
    /// `callee`, and `caller` gains the edge that orders it after
    /// `callee` (both are function entries, so both have slots). A later
    /// resolution of the same instruction overrides the row's target.
    pub fn add_resolved_indirect(&mut self, caller: u32, ins_addr: u32, callee: u32) {
        if let (Some(from), Some(to)) = (self.ix(caller), self.ix(callee)) {
            let out = &mut self.edges[from.index()];
            if !out.contains(&to) {
                out.push(to);
            }
        }
        if let Ok(i) = self.callsites.binary_search_by_key(&ins_addr, |c| c.ins_addr) {
            self.callsites[i].target = CallTarget::Resolved(callee);
        }
        self.resolved += 1;
    }
    /// The call at instruction `ins`, if there is one.
    pub fn callsite(&self, ins: u32) -> Option<&Callsite> {
        let i = self.callsites.binary_search_by_key(&ins, |c| c.ins_addr).ok()?;
        Some(&self.callsites[i])
    }

    /// The import called at `ins`, if `ins` is an import call.
    pub fn import_at(&self, ins: u32) -> Option<&str> {
        match self.callsite(ins)?.target {
            CallTarget::Import(i) => Some(&self.imports[i as usize]),
            _ => None,
        }
    }

    /// The callee layout similarity resolved the indirect call at `ins`
    /// to, if it did.
    pub fn resolved_at(&self, ins: u32) -> Option<u32> {
        match self.callsite(ins)?.target {
            CallTarget::Resolved(a) => Some(a),
            _ => None,
        }
    }

    /// Caller and callee names of the call at `ins`, or `None` when no
    /// call sits there. Functions are named by `name_of`, or by address
    /// when it has no name for them; imports keep their import name, and
    /// unresolved indirect calls read `"<indirect>"`. Names the steps of
    /// a finding's call chain.
    pub fn callsite_names<'n>(
        &self,
        ins: u32,
        name_of: impl Fn(u32) -> Option<&'n str>,
    ) -> Option<(String, String)> {
        let cs = self.callsite(ins)?;
        let name = |addr: u32| name_of(addr).map_or_else(|| format!("{addr:#x}"), str::to_owned);
        let callee = match cs.target {
            CallTarget::Direct(a) | CallTarget::Resolved(a) => name(a),
            CallTarget::Import(i) => self.imports[i as usize].clone(),
            CallTarget::Indirect => "<indirect>".to_owned(),
        };
        Some((name(cs.caller), callee))
    }

    /// Direct (and resolved-indirect) callers of `callee`, in address
    /// order.
    pub fn callers_of(&self, callee: u32) -> Vec<u32> {
        let Some(c) = self.ix(callee) else { return Vec::new() };
        self.slots().filter(|&f| self.callees(f).contains(&c)).map(|f| self.entry(f)).collect()
    }

    /// Total number of call-graph edges (the paper's Table II column):
    /// one per direct or import call, plus one per resolved indirect
    /// call.
    pub fn edge_count(&self) -> usize {
        self.callsites
            .iter()
            .filter(|c| matches!(c.target, CallTarget::Direct(_) | CallTarget::Import(_)))
            .count()
            + self.resolved
    }

    /// The SCC condensation over direct (and resolved-indirect) call
    /// edges: components by iterative Tarjan, then their strata.
    ///
    /// Deterministic: roots are tried in address order and successors in
    /// edge order.
    pub fn condense(&self) -> Condensation {
        let n = self.len();
        let (mut index, mut lowlink, mut on_stack) =
            (vec![NOT_A_NODE; n], vec![0; n], vec![false; n]);
        let mut comp_of = vec![NOT_A_NODE; n];
        let mut stack: Vec<FnIx> = Vec::new();
        let mut next_index = 0u32;
        let mut components: Vec<Vec<FnIx>> = Vec::new();

        for root in self.functions.iter().filter_map(|&a| self.ix(a)) {
            let mut call: Vec<(FnIx, usize)> = Vec::new();
            // The node to discover next: the root, then each unvisited
            // successor.
            let mut found = (index[root.index()] == NOT_A_NODE).then_some(root);
            loop {
                if let Some(w) = found.take() {
                    let i = w.index();
                    (index[i], lowlink[i], on_stack[i]) = (next_index, next_index, true);
                    next_index += 1;
                    stack.push(w);
                    call.push((w, 0));
                }
                let Some(&mut (v, ref mut ci)) = call.last_mut() else { break };
                if let Some(&w) = self.callees(v).get(*ci) {
                    *ci += 1;
                    if index[w.index()] == NOT_A_NODE {
                        found = Some(w);
                    } else if on_stack[w.index()] {
                        lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                    }
                    continue;
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
                }
                if lowlink[v.index()] == index[v.index()] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w.index()] = false;
                        comp_of[w.index()] = components.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }

        // Tarjan pops callees before callers, so one forward pass over
        // the components sees every callee component's level before it
        // is needed.
        let mut level = vec![0usize; components.len()];
        for (i, c) in components.iter().enumerate() {
            let mut lv = 0;
            for &f in c {
                for w in self.callees(f) {
                    let j = comp_of[w.index()] as usize;
                    if j != i {
                        debug_assert!(j < i, "condensation must be topological");
                        lv = lv.max(level[j] + 1);
                    }
                }
            }
            level[i] = lv;
        }
        let depth = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut strata: Vec<Vec<FnIx>> = vec![Vec::new(); depth];
        for (i, c) in components.iter().enumerate() {
            strata[level[i]].extend(c.iter().copied());
        }
        for s in &mut strata {
            s.sort_unstable();
        }
        Condensation { components, comp_of, strata }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcfg::{build_all_cfgs, CallRow};
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::{Arch, Reg};

    /// Builds a binary where `main` calls `a` and `b`, `a` calls `b`,
    /// and `b` calls the import `recv` plus an indirect target.
    fn sample() -> (Binary, Vec<FunctionCfg>, CallGraph) {
        let arch = Arch::Arm32e;
        let mut main = Assembler::new(arch);
        main.call("a");
        main.call("b");
        main.ret();
        let mut a = Assembler::new(arch);
        a.call("b");
        a.ret();
        let mut b = Assembler::new(arch);
        b.call("recv");
        b.call_reg(Reg(4));
        b.ret();
        let mut bb = BinaryBuilder::new(arch);
        bb.add_function("main", main);
        bb.add_function("a", a);
        bb.add_function("b", b);
        bb.add_import("recv");
        let bin = bb.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        (bin, cfgs, cg)
    }

    /// The instruction of `caller`'s indirect call.
    fn indirect_site(cg: &CallGraph, caller: u32) -> u32 {
        cg.callsites
            .iter()
            .find(|c| c.caller == caller && c.target == CallTarget::Indirect)
            .unwrap()
            .ins_addr
    }

    /// A shape with no blocks to speak of and the given call rows, each
    /// `(ins_addr, next_const)`.
    fn shape(addr: u32, calls: &[(u32, Option<u32>)]) -> FunctionShape {
        let calls = calls
            .iter()
            .map(|&(ins_addr, next_const)| CallRow {
                block: ins_addr,
                ins_addr,
                return_to: ins_addr + 4,
                next_const,
            })
            .collect();
        FunctionShape {
            addr,
            name: format!("f{addr:x}"),
            blocks: 1,
            edges: 0,
            instructions: 1,
            calls,
        }
    }

    #[test]
    fn classifies_direct_import_and_indirect() {
        let (bin, _, cg) = sample();
        let b_addr = bin.function("b").unwrap().addr;
        let kinds: Vec<CallTarget> =
            cg.callsites.iter().filter(|c| c.caller == b_addr).map(|c| c.target).collect();
        assert_eq!(cg.imports, ["recv"]);
        assert_eq!(kinds, [CallTarget::Import(0), CallTarget::Indirect]);
        let main = cg.ix(bin.function("main").unwrap().addr).unwrap();
        assert_eq!(cg.callees(main).len(), 2);
        assert!(cg.callsites.windows(2).all(|w| w[0].ins_addr < w[1].ins_addr));
    }

    #[test]
    fn slots_number_each_function_entry_once_in_address_order() {
        // Only `b` is lifted, a shape sits where no symbol starts, and a
        // second symbol names `b`'s entry: every entry gets one slot.
        let (mut bin, cfgs, _) = sample();
        let b = cfgs.iter().find(|c| c.name == "b").unwrap();
        let mut alias = bin.function("b").unwrap().clone();
        alias.name = "b_alias".into();
        bin.symbols.push(alias);
        let cg = CallGraph::from_shapes(&bin, &[b.shape(), shape(0x4, &[])]);
        let mut want: Vec<u32> = bin.functions().iter().map(|s| s.addr).chain([0x4]).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(want.len(), 4, "main, a, b and the stray shape");
        assert_eq!(cg.slots().map(|f| cg.entry(f)).collect::<Vec<_>>(), want);
        for (i, &a) in want.iter().enumerate() {
            assert_eq!(cg.ix(a), Some(FnIx(i as u32)));
        }
        assert_eq!(cg.ix(b.addr + 4), None, "a mid-function address has no slot");
        assert_eq!(cg.functions, [0x4, b.addr]);
        // `b` is the only node: the unlifted symbols are in no stratum.
        let strata = cg.condense().strata;
        assert_eq!(strata.concat(), [cg.ix(0x4).unwrap(), cg.ix(b.addr).unwrap()]);
    }

    #[test]
    fn callers_of_inverts_edges() {
        let (bin, _, cg) = sample();
        let b_addr = bin.function("b").unwrap().addr;
        let callers = cg.callers_of(b_addr);
        assert_eq!(callers.len(), 2);
    }

    #[test]
    fn resolved_indirect_extends_edges_count_and_names() {
        let (bin, _, mut cg) = sample();
        let b_addr = bin.function("b").unwrap().addr;
        let a_addr = bin.function("a").unwrap().addr;
        let before = cg.edge_count();
        let site = indirect_site(&cg, b_addr);
        let names =
            |a: u32| bin.functions().into_iter().find(|s| s.addr == a).map(|s| s.name.as_str());
        assert_eq!(cg.callsite_names(site, names), Some(("b".into(), "<indirect>".into())));
        assert_eq!(cg.resolved_at(site), None);
        cg.add_resolved_indirect(b_addr, site, a_addr);
        assert_eq!(cg.edge_count(), before + 1);
        assert!(cg.callees(cg.ix(b_addr).unwrap()).contains(&cg.ix(a_addr).unwrap()));
        assert_eq!(cg.resolved_at(site), Some(a_addr));
        assert_eq!(cg.callsite_names(site, names), Some(("b".into(), "a".into())));
        let recv = cg.callsites.iter().find(|c| c.target == CallTarget::Import(0)).unwrap();
        assert_eq!(cg.import_at(recv.ins_addr), Some("recv"));
        assert_eq!(cg.callsite_names(recv.ins_addr, names), Some(("b".into(), "recv".into())));
        assert_eq!(cg.callsite_names(b_addr + 0x1000, names), None);
    }

    #[test]
    fn each_call_instruction_has_one_row_owned_by_the_highest_function() {
        // Overlapping functions at 0x1000 and 0x1008 both hold the calls
        // at 0x1010 and 0x1020; the shapes arrive out of address order.
        let (bin, _, _) = sample();
        let recv = bin.imports[0].stub_addr;
        let low = shape(0x1000, &[(0x1000, Some(recv)), (0x1010, Some(recv)), (0x1020, None)]);
        let high = shape(0x1008, &[(0x1010, Some(recv)), (0x1020, None), (0x1030, Some(recv))]);
        let cg = CallGraph::from_shapes(&bin, &[high, low]);
        let rows: Vec<(u32, u32)> = cg.callsites.iter().map(|c| (c.ins_addr, c.caller)).collect();
        assert_eq!(rows, [(0x1000, 0x1000), (0x1010, 0x1008), (0x1020, 0x1008), (0x1030, 0x1008)]);
        assert_eq!(cg.imports, ["recv"], "each name stored once");
        for ins in [0x1000, 0x1010, 0x1030] {
            assert_eq!(cg.import_at(ins), Some("recv"), "{ins:#x}");
        }
        for miss in [0, 0x1004, 0x1020, 0x1040, u32::MAX] {
            assert_eq!(cg.import_at(miss), None, "{miss:#x}");
        }
        assert!(CallGraph::from_shapes(&bin, &[]).callsites.is_empty());
    }

    #[test]
    fn every_caller_of_a_shared_resolved_call_sits_above_its_callee() {
        // Overlapping functions at 0x1000 and 0x1008 share the indirect
        // call at 0x1010, which resolves to the leaf at 0x1040 in each.
        let (bin, _, _) = sample();
        let shapes = [
            shape(0x1000, &[(0x1010, None)]),
            shape(0x1008, &[(0x1010, None)]),
            shape(0x1040, &[]),
        ];
        let mut cg = CallGraph::from_shapes(&bin, &shapes);
        for caller in [0x1000, 0x1008] {
            cg.add_resolved_indirect(caller, 0x1010, 0x1040);
        }
        assert_valid_stratification(&cg);
        let strata = cg.condense().strata;
        let stratum = |f: u32| strata.iter().position(|s| s.contains(&cg.ix(f).unwrap())).unwrap();
        assert!(stratum(0x1000) > stratum(0x1040));
        assert!(stratum(0x1008) > stratum(0x1040));
        assert_eq!(cg.callsite(0x1010).unwrap().caller, 0x1008);
        assert_eq!(cg.resolved_at(0x1010), Some(0x1040));
    }

    /// The condensation's invariant: a valid topological order — every
    /// callee in a different component sits in a strictly lower stratum,
    /// and the flattened strata cover each function exactly once.
    fn assert_valid_stratification(cg: &CallGraph) {
        let cond = cg.condense();
        let mut stratum_of: Vec<Option<usize>> = vec![None; cg.len()];
        for (lvl, s) in cond.strata.iter().enumerate() {
            for &f in s {
                assert!(stratum_of[f.index()].replace(lvl).is_none(), "{f:?} in two strata");
            }
        }
        let placed = stratum_of.iter().flatten().count();
        assert_eq!(placed, cg.functions.len(), "every function exactly once");
        for caller in cg.slots() {
            for &callee in cg.callees(caller) {
                let (lc, le) = (stratum_of[caller.index()], stratum_of[callee.index()]);
                if cond.same_component(caller, callee) {
                    assert_eq!(lc, le, "cycle members share a stratum");
                } else {
                    assert!(le < lc, "callee {callee:?} must sit strictly below caller {caller:?}");
                }
            }
        }
    }

    #[test]
    fn strata_are_topological_on_acyclic_graph() {
        let (bin, _, cg) = sample();
        assert_valid_stratification(&cg);
        // The concrete shape: b (leaf), then a, then main.
        let strata = cg.condense().strata;
        let ix = |name: &str| cg.ix(bin.function(name).unwrap().addr).unwrap();
        assert_eq!(strata.len(), 3);
        assert_eq!(strata[0], vec![ix("b")]);
        assert_eq!(strata[1], vec![ix("a")]);
        assert_eq!(strata[2], vec![ix("main")]);
    }

    #[test]
    fn strata_handle_mutual_recursion() {
        // main -> f; f <-> g (mutual recursion); f -> h (a leaf).
        let arch = Arch::Mips32e;
        let mut main = Assembler::new(arch);
        main.call("f");
        main.ret();
        let mut f = Assembler::new(arch);
        f.call("g");
        f.call("h");
        f.ret();
        let mut g = Assembler::new(arch);
        g.call("f");
        g.ret();
        let mut h = Assembler::new(arch);
        h.ret();
        let mut bb = BinaryBuilder::new(arch);
        bb.add_function("main", main);
        bb.add_function("f", f);
        bb.add_function("g", g);
        bb.add_function("h", h);
        let bin = bb.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        assert_valid_stratification(&cg);

        let ix = |name: &str| cg.ix(bin.function(name).unwrap().addr).unwrap();
        let cond = cg.condense();
        let cycle: Vec<FnIx> = {
            let mut v = vec![ix("f"), ix("g")];
            v.sort_unstable();
            v
        };
        assert!(cond.components.contains(&cycle), "f and g form one component");
        assert_eq!(cond.components.len(), 3, "main and h are singletons");
        assert!(cond.same_component(ix("f"), ix("g")));
        assert!(!cond.same_component(ix("f"), ix("h")));

        assert_eq!(cond.strata.len(), 3);
        assert_eq!(cond.strata[0], vec![ix("h")]);
        assert_eq!(cond.strata[1], cycle, "the cycle shares one stratum");
        assert_eq!(cond.strata[2], vec![ix("main")]);
    }

    #[test]
    fn strata_respect_resolved_indirect_edges() {
        let (bin, _, mut cg) = sample();
        assert_valid_stratification(&cg);
        // Resolving b's indirect site to a creates the cycle a <-> b
        // (a already calls b); stratification must still be valid.
        let a_addr = bin.function("a").unwrap().addr;
        let b_addr = bin.function("b").unwrap().addr;
        let site = indirect_site(&cg, b_addr);
        cg.add_resolved_indirect(b_addr, site, a_addr);
        assert_valid_stratification(&cg);
        let comps = cg.condense().components;
        assert!(comps.iter().any(|c| c.len() == 2), "a and b now form a cycle");
    }

    #[test]
    fn flattened_strata_are_a_bottom_up_order() {
        let (bin, _, cg) = sample();
        let flat: Vec<FnIx> = cg.condense().strata.into_iter().flatten().collect();
        let pos = |name: &str| {
            let f = cg.ix(bin.function(name).unwrap().addr).unwrap();
            flat.iter().position(|&x| x == f).unwrap()
        };
        assert!(pos("b") < pos("a"));
        assert!(pos("a") < pos("main"));
        assert_eq!(flat.len(), cg.functions.len());
        assert_eq!(cg.functions.len(), bin.functions().len());
    }
}
