use crate::funcfg::{FunctionCfg, FunctionShape};
use dtaint_fwbin::Binary;
use std::collections::{HashMap, HashSet};

/// What a call site targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// A function defined in the binary, by entry address.
    Direct(u32),
    /// An imported library function, by name (`strcpy`, `recv`, …).
    Import(String),
    /// An indirect call (`BLX reg` / `JALR reg`); the target is resolved
    /// later by data-structure layout similarity.
    Indirect,
}

/// One call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Callsite {
    /// Entry address of the calling function.
    pub caller: u32,
    /// Address of the block ending in the call.
    pub block: u32,
    /// Address of the call instruction itself.
    pub ins_addr: u32,
    /// Address execution resumes at.
    pub return_to: u32,
    /// The callee.
    pub target: CallTarget,
}

/// The program call graph.
///
/// Direct edges come from `BL`/`JAL`; import calls are kept separate (they
/// are the sources/sinks of the taint analysis, not analyzable callees);
/// indirect sites are recorded for later resolution.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Entry addresses of all functions, in address order.
    pub functions: Vec<u32>,
    /// Every call site in the binary.
    pub callsites: Vec<Callsite>,
    /// Direct call edges: caller entry → callee entries (deduplicated).
    pub edges: HashMap<u32, Vec<u32>>,
    /// Extra edges added by indirect-call resolution: `(ins_addr, callee)`.
    pub resolved_indirect: Vec<(u32, u32)>,
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
    /// anything else is indirect.
    pub fn from_shapes(bin: &Binary, shapes: &[FunctionShape]) -> CallGraph {
        let mut functions: Vec<u32> = shapes.iter().map(|s| s.addr).collect();
        functions.sort_unstable();
        let func_set: HashSet<u32> = functions.iter().copied().collect();
        let mut callsites = Vec::new();
        let mut edges: HashMap<u32, Vec<u32>> = HashMap::new();
        for shape in shapes {
            edges.entry(shape.addr).or_default();
            for row in &shape.calls {
                let target = match row.next_const {
                    Some(t) if func_set.contains(&t) => CallTarget::Direct(t),
                    Some(t) => match bin.import_at(t) {
                        Some(imp) => CallTarget::Import(imp.name.clone()),
                        // A direct call to an address that is neither a
                        // function nor a stub — treat as unresolvable.
                        None => CallTarget::Indirect,
                    },
                    None => CallTarget::Indirect,
                };
                if let CallTarget::Direct(t) = target {
                    let out = edges.entry(shape.addr).or_default();
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
                callsites.push(Callsite {
                    caller: shape.addr,
                    block: row.block,
                    ins_addr: row.ins_addr,
                    return_to: row.return_to,
                    target,
                });
            }
        }
        CallGraph { functions, callsites, edges, resolved_indirect: Vec::new() }
    }

    /// Records a resolved indirect call and adds its edge to the graph.
    ///
    /// Used by the data-structure-similarity stage; `ins_addr` must be an
    /// indirect call site.
    pub fn add_resolved_indirect(&mut self, ins_addr: u32, callee: u32) {
        if let Some(cs) = self.callsites.iter().find(|c| c.ins_addr == ins_addr) {
            let caller = cs.caller;
            let out = self.edges.entry(caller).or_default();
            if !out.contains(&callee) {
                out.push(callee);
            }
        }
        self.resolved_indirect.push((ins_addr, callee));
    }

    /// Call sites inside the given function.
    pub fn callsites_of(&self, caller: u32) -> Vec<&Callsite> {
        self.callsites.iter().filter(|c| c.caller == caller).collect()
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

    /// Total number of call-graph edges (the paper's Table II column),
    /// counting one per call site with a known or resolved target.
    pub fn edge_count(&self) -> usize {
        self.callsites.iter().filter(|c| !matches!(c.target, CallTarget::Indirect)).count()
            + self.resolved_indirect.len()
    }

    /// Strongly connected components over direct (and resolved-indirect)
    /// call edges, via iterative Tarjan.
    ///
    /// Deterministic: roots are tried in address order and successors in
    /// edge order, and each component's members are sorted by address.
    /// Components come out in reverse-topological order over the
    /// condensation — every component is emitted after all components it
    /// calls into.
    pub fn sccs(&self) -> Vec<Vec<u32>> {
        let mut index: HashMap<u32, u32> = HashMap::new();
        let mut lowlink: HashMap<u32, u32> = HashMap::new();
        let mut on_stack: HashSet<u32> = HashSet::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut comps: Vec<Vec<u32>> = Vec::new();

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
                        comps.push(comp);
                    }
                }
            }
        }
        comps
    }

    /// Groups functions into dependency levels over the SCC condensation.
    ///
    /// Stratum 0 holds functions with no callees outside their own
    /// component; every function's out-of-component callees sit in
    /// strictly lower strata. Flattened, this is a valid bottom-up
    /// analysis order. Within one stratum, distinct components never call
    /// each other, so they can be analyzed concurrently; members of one
    /// recursive component share a stratum and must treat each other as
    /// opaque. Each stratum is sorted by address.
    pub fn strata(&self) -> Vec<Vec<u32>> {
        let comps = self.sccs();
        let mut comp_of: HashMap<u32, usize> = HashMap::new();
        for (i, c) in comps.iter().enumerate() {
            for &f in c {
                comp_of.insert(f, i);
            }
        }
        // Tarjan pops callees before callers, so one forward pass over
        // `comps` sees every callee component's level before it is needed.
        let mut level = vec![0usize; comps.len()];
        for (i, c) in comps.iter().enumerate() {
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
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); depth];
        for (i, c) in comps.iter().enumerate() {
            out[level[i]].extend(c.iter().copied());
        }
        for s in &mut out {
            s.sort_unstable();
        }
        out
    }

    /// Functions in post-order over direct call edges: callees before
    /// callers, each function exactly once.
    ///
    /// Recursion cycles are broken at the DFS back edge, so members of a
    /// cycle appear in DFS finish order — the bottom-up pass then analyzes
    /// each exactly once, as the paper specifies.
    pub fn post_order(&self) -> Vec<u32> {
        let mut visited: HashSet<u32> = HashSet::new();
        let mut order = Vec::with_capacity(self.functions.len());
        // Roots: functions nobody calls, then anything left (cycles).
        let mut callees: HashSet<u32> = HashSet::new();
        for outs in self.edges.values() {
            callees.extend(outs.iter().copied());
        }
        let roots: Vec<u32> = self
            .functions
            .iter()
            .copied()
            .filter(|f| !callees.contains(f))
            .chain(self.functions.iter().copied())
            .collect();
        for root in roots {
            if visited.contains(&root) {
                continue;
            }
            // Iterative DFS with finish-time collection.
            let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
            visited.insert(root);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let outs = self.edges.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
                if *idx < outs.len() {
                    let s = outs[*idx];
                    *idx += 1;
                    if !visited.contains(&s) {
                        visited.insert(s);
                        stack.push((s, 0));
                    }
                } else {
                    order.push(node);
                    stack.pop();
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcfg::build_all_cfgs;
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

    #[test]
    fn classifies_direct_import_and_indirect() {
        let (bin, _, cg) = sample();
        let b_addr = bin.function("b").unwrap().addr;
        let kinds: Vec<&CallTarget> =
            cg.callsites_of(b_addr).into_iter().map(|c| &c.target).collect();
        assert!(kinds.contains(&&CallTarget::Import("recv".into())));
        assert!(kinds.contains(&&CallTarget::Indirect));
        let main_addr = bin.function("main").unwrap().addr;
        assert_eq!(cg.edges[&main_addr].len(), 2);
    }

    #[test]
    fn post_order_visits_callees_first() {
        let (bin, _, cg) = sample();
        let order = cg.post_order();
        let pos = |name: &str| {
            let addr = bin.function(name).unwrap().addr;
            order.iter().position(|&x| x == addr).unwrap()
        };
        assert!(pos("b") < pos("a"), "b before a");
        assert!(pos("a") < pos("main"), "a before main");
        assert_eq!(order.len(), 3, "each function exactly once");
    }

    #[test]
    fn recursion_does_not_hang_post_order() {
        let arch = Arch::Mips32e;
        let mut f = Assembler::new(arch);
        f.call("g");
        f.ret();
        let mut g = Assembler::new(arch);
        g.call("f");
        g.ret();
        let mut bb = BinaryBuilder::new(arch);
        bb.add_function("f", f);
        bb.add_function("g", g);
        let bin = bb.link().unwrap();
        let cfgs = build_all_cfgs(&bin).unwrap();
        let cg = CallGraph::build(&bin, &cfgs);
        let order = cg.post_order();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn callers_of_inverts_edges() {
        let (bin, _, cg) = sample();
        let b_addr = bin.function("b").unwrap().addr;
        let callers = cg.callers_of(b_addr);
        assert_eq!(callers.len(), 2);
    }

    #[test]
    fn resolved_indirect_extends_edges_and_count() {
        let (bin, _, mut cg) = sample();
        let b_addr = bin.function("b").unwrap().addr;
        let a_addr = bin.function("a").unwrap().addr;
        let before = cg.edge_count();
        let site = cg
            .callsites_of(b_addr)
            .into_iter()
            .find(|c| c.target == CallTarget::Indirect)
            .unwrap()
            .ins_addr;
        cg.add_resolved_indirect(site, a_addr);
        assert_eq!(cg.edge_count(), before + 1);
        assert!(cg.edges[&b_addr].contains(&a_addr));
    }

    /// `strata()` invariant: a valid topological order — every callee in a
    /// different component sits in a strictly lower stratum, and the
    /// flattened strata cover each function exactly once.
    fn assert_valid_stratification(cg: &CallGraph) {
        let strata = cg.strata();
        let mut stratum_of: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for (lvl, s) in strata.iter().enumerate() {
            for &f in s {
                assert!(stratum_of.insert(f, lvl).is_none(), "{f:#x} in two strata");
            }
        }
        assert_eq!(stratum_of.len(), cg.functions.len(), "every function exactly once");
        let comps = cg.sccs();
        let comp_of: std::collections::HashMap<u32, usize> =
            comps.iter().enumerate().flat_map(|(i, c)| c.iter().map(move |&f| (f, i))).collect();
        for (&caller, callees) in &cg.edges {
            for &callee in callees {
                if comp_of[&caller] == comp_of[&callee] {
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
        let strata = cg.strata();
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
        let comps = cg.sccs();
        let cycle: Vec<u32> = {
            let mut v = vec![addr("f"), addr("g")];
            v.sort_unstable();
            v
        };
        assert!(comps.contains(&cycle), "f and g form one component");
        assert_eq!(comps.len(), 3, "main and h are singletons");

        let strata = cg.strata();
        assert_eq!(strata.len(), 3);
        assert_eq!(strata[0], vec![addr("h")]);
        assert_eq!(strata[1], cycle, "the cycle shares one stratum");
        assert_eq!(strata[2], vec![addr("main")]);
    }

    #[test]
    fn strata_respect_resolved_indirect_edges() {
        let (bin, _, mut cg) = sample();
        assert_valid_stratification(&cg);
        // Resolving b's indirect site to a creates the cycle a <-> b
        // (a already calls b); stratification must still be valid.
        let a_addr = bin.function("a").unwrap().addr;
        let b_addr = bin.function("b").unwrap().addr;
        let site = cg
            .callsites_of(b_addr)
            .into_iter()
            .find(|c| c.target == CallTarget::Indirect)
            .unwrap()
            .ins_addr;
        cg.add_resolved_indirect(site, a_addr);
        assert_valid_stratification(&cg);
        let comps = cg.sccs();
        assert!(comps.iter().any(|c| c.len() == 2), "a and b now form a cycle");
    }

    #[test]
    fn flattened_strata_are_a_bottom_up_order() {
        let (bin, _, cg) = sample();
        let flat: Vec<u32> = cg.strata().into_iter().flatten().collect();
        let pos = |name: &str| {
            let addr = bin.function(name).unwrap().addr;
            flat.iter().position(|&x| x == addr).unwrap()
        };
        assert!(pos("b") < pos("a"));
        assert!(pos("a") < pos("main"));
        assert_eq!(flat.len(), cg.functions.len());
    }

    #[test]
    fn return_to_is_instruction_after_call() {
        let (bin, _, cg) = sample();
        for cs in &cg.callsites {
            assert_eq!(cs.return_to, cs.ins_addr + 4);
        }
        assert_eq!(cg.functions.len(), bin.functions().len());
    }
}
