use crate::funcfg::{FunctionCfg, FunctionShape};
use dtaint_fwbin::Binary;
use std::collections::{HashMap, HashSet};

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

/// The program call graph: the scan's one table of call instructions.
///
/// Direct edges come from `BL`/`JAL`; import calls are kept separate (they
/// are the sources/sinks of the taint analysis, not analyzable callees);
/// indirect calls are resolved later by layout similarity.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Entry addresses of all functions, in address order.
    pub functions: Vec<u32>,
    /// One row per call instruction, sorted by instruction address.
    pub callsites: Vec<Callsite>,
    /// Import names, each stored once, indexed by [`CallTarget::Import`].
    pub imports: Vec<String>,
    /// Call edges: caller entry → callee entries (deduplicated, in call
    /// order). Every function that contains a call gets its edge, whether
    /// it owns the call's row or not.
    pub edges: HashMap<u32, Vec<u32>>,
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
    pub components: Vec<Vec<u32>>,
    /// Component index of every node, callees outside
    /// [`CallGraph::functions`] included.
    comp_of: HashMap<u32, usize>,
    /// Dependency levels over the condensation. Stratum 0 holds functions
    /// with no callees outside their own component; every function's
    /// out-of-component callees sit in strictly lower strata. Flattened,
    /// this is a valid bottom-up analysis order. Within one stratum,
    /// distinct components never call each other; members of one
    /// recursive component share a stratum and must treat each other as
    /// opaque. Each stratum is sorted by address.
    pub strata: Vec<Vec<u32>>,
}

impl Condensation {
    /// True when `a` and `b` sit in one component (or neither is a node).
    pub fn same_component(&self, a: u32, b: u32) -> bool {
        self.comp_of.get(&a) == self.comp_of.get(&b)
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
        let func_set: HashSet<u32> = functions.iter().copied().collect();
        let mut imports: Vec<String> = Vec::new();
        let mut import_ix: HashMap<&str, u32> = HashMap::new();
        let mut callsites = Vec::with_capacity(shapes.iter().map(|s| s.calls.len()).sum());
        let mut edges: HashMap<u32, Vec<u32>> = HashMap::with_capacity(shapes.len());
        for shape in shapes {
            let out = edges.entry(shape.addr).or_default();
            for row in &shape.calls {
                let target = match row.next_const {
                    Some(t) if func_set.contains(&t) => {
                        if !out.contains(&t) {
                            out.push(t);
                        }
                        CallTarget::Direct(t)
                    }
                    Some(t) => match bin.import_at(t) {
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
                    None => CallTarget::Indirect,
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
        CallGraph { functions, callsites, imports, edges, resolved: 0 }
    }

    /// Records an indirect call at `ins_addr` in `caller` that layout
    /// similarity resolved to `callee`: the call's row now targets
    /// `callee`, and `caller` gains the edge that orders it after
    /// `callee`. A later resolution of the same instruction overrides
    /// the row's target.
    pub fn add_resolved_indirect(&mut self, caller: u32, ins_addr: u32, callee: u32) {
        let out = self.edges.entry(caller).or_default();
        if !out.contains(&callee) {
            out.push(callee);
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

    /// Direct (and resolved-indirect) callers of `callee`.
    pub fn callers_of(&self, callee: u32) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .edges
            .iter()
            .filter(|(_, callees)| callees.contains(&callee))
            .map(|(&caller, _)| caller)
            .collect();
        out.sort_unstable();
        out
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
        let mut index: HashMap<u32, u32> = HashMap::new();
        let mut lowlink: HashMap<u32, u32> = HashMap::new();
        let mut on_stack: HashSet<u32> = HashSet::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut components: Vec<Vec<u32>> = Vec::new();

        for &root in &self.functions {
            if index.contains_key(&root) {
                continue;
            }
            let mut call: Vec<(u32, usize)> = vec![(root, 0)];
            index.insert(root, next_index);
            lowlink.insert(root, next_index);
            next_index += 1;
            stack.push(root);
            on_stack.insert(root);
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                let outs = self.edges.get(&v).map(|e| e.as_slice()).unwrap_or(&[]);
                if *ci < outs.len() {
                    let w = outs[*ci];
                    *ci += 1;
                    match index.get(&w) {
                        None => {
                            index.insert(w, next_index);
                            lowlink.insert(w, next_index);
                            next_index += 1;
                            stack.push(w);
                            on_stack.insert(w);
                            call.push((w, 0));
                        }
                        Some(&iw) if on_stack.contains(&w) => {
                            let lv = lowlink.get_mut(&v).unwrap();
                            *lv = (*lv).min(iw);
                        }
                        Some(_) => {}
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let lv = lowlink[&v];
                        let lp = lowlink.get_mut(&parent).unwrap();
                        *lp = (*lp).min(lv);
                    }
                    if lowlink[&v] == index[&v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack.remove(&w);
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
        }

        let comp_of: HashMap<u32, usize> = components
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.iter().map(move |&f| (f, i)))
            .collect();
        // Tarjan pops callees before callers, so one forward pass over
        // the components sees every callee component's level before it
        // is needed.
        let mut level = vec![0usize; components.len()];
        for (i, c) in components.iter().enumerate() {
            let mut lv = 0;
            for f in c {
                for w in self.edges.get(f).into_iter().flatten() {
                    let j = comp_of[w];
                    if j != i {
                        debug_assert!(j < i, "condensation must be topological");
                        lv = lv.max(level[j] + 1);
                    }
                }
            }
            level[i] = lv;
        }
        let depth = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut strata: Vec<Vec<u32>> = vec![Vec::new(); depth];
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
        let main_addr = bin.function("main").unwrap().addr;
        assert_eq!(cg.edges[&main_addr].len(), 2);
        assert!(cg.callsites.windows(2).all(|w| w[0].ins_addr < w[1].ins_addr));
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
        assert!(cg.edges[&b_addr].contains(&a_addr));
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
        let stratum = |f: u32| strata.iter().position(|s| s.contains(&f)).unwrap();
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
        let mut stratum_of: HashMap<u32, usize> = HashMap::new();
        for (lvl, s) in cond.strata.iter().enumerate() {
            for &f in s {
                assert!(stratum_of.insert(f, lvl).is_none(), "{f:#x} in two strata");
            }
        }
        assert_eq!(stratum_of.len(), cg.functions.len(), "every function exactly once");
        for (&caller, callees) in &cg.edges {
            for &callee in callees {
                if cond.same_component(caller, callee) {
                    assert_eq!(
                        stratum_of[&caller], stratum_of[&callee],
                        "cycle members share a stratum"
                    );
                } else {
                    assert!(
                        stratum_of[&callee] < stratum_of[&caller],
                        "callee {callee:#x} must sit strictly below caller {caller:#x}"
                    );
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
        let addr = |name: &str| bin.function(name).unwrap().addr;
        assert_eq!(strata.len(), 3);
        assert_eq!(strata[0], vec![addr("b")]);
        assert_eq!(strata[1], vec![addr("a")]);
        assert_eq!(strata[2], vec![addr("main")]);
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

        let addr = |name: &str| bin.function(name).unwrap().addr;
        let cond = cg.condense();
        let cycle: Vec<u32> = {
            let mut v = vec![addr("f"), addr("g")];
            v.sort_unstable();
            v
        };
        assert!(cond.components.contains(&cycle), "f and g form one component");
        assert_eq!(cond.components.len(), 3, "main and h are singletons");
        assert!(cond.same_component(addr("f"), addr("g")));
        assert!(!cond.same_component(addr("f"), addr("h")));

        assert_eq!(cond.strata.len(), 3);
        assert_eq!(cond.strata[0], vec![addr("h")]);
        assert_eq!(cond.strata[1], cycle, "the cycle shares one stratum");
        assert_eq!(cond.strata[2], vec![addr("main")]);
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
        let flat: Vec<u32> = cg.condense().strata.into_iter().flatten().collect();
        let pos = |name: &str| {
            let addr = bin.function(name).unwrap().addr;
            flat.iter().position(|&x| x == addr).unwrap()
        };
        assert!(pos("b") < pos("a"));
        assert!(pos("a") < pos("main"));
        assert_eq!(flat.len(), cg.functions.len());
        assert_eq!(cg.functions.len(), bin.functions().len());
    }
}
