//! Dominator trees over function CFGs.
//!
//! A block `d` dominates `b` when every path from the entry to `b`
//! passes through `d`. The detector's sanitisation reasoning is
//! path-based, but dominators answer the stronger question "is this
//! guard *unavoidable* before the sink?" — useful for ranking findings
//! and for the future-work idea of suggesting guard placements.
//!
//! The implementation is the classic Cooper–Harvey–Kennedy iterative
//! algorithm over the reverse post-order.

use crate::funcfg::FunctionCfg;
use std::collections::HashMap;

/// The dominator tree of one function.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator per block (the entry maps to itself).
    pub idom: HashMap<u32, u32>,
    entry: u32,
}

impl Dominators {
    /// Computes dominators for a CFG.
    pub fn compute(cfg: &FunctionCfg) -> Dominators {
        let rpo = cfg.rpo();
        let preds = cfg.preds();
        let blocks = cfg.blocks();
        let order: HashMap<u32, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let mut idom: HashMap<u32, u32> = HashMap::new();
        idom.insert(cfg.addr, cfg.addr);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor.
                let index = cfg.index_of(b).expect("rpo lists blocks");
                let mut new_idom: Option<u32> = None;
                for p in preds[index].iter().map(|&p| blocks[p as usize].addr) {
                    if !idom.contains_key(&p) {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &order, cur, p),
                    });
                }
                let Some(ni) = new_idom else { continue };
                if idom.get(&b) != Some(&ni) {
                    idom.insert(b, ni);
                    changed = true;
                }
            }
        }
        Dominators { idom, entry: cfg.addr }
    }

    /// True when block `d` dominates block `b` (reflexive).
    pub fn dominates(&self, d: u32, b: u32) -> bool {
        let mut cur = b;
        loop {
            if cur == d {
                return true;
            }
            if cur == self.entry {
                return d == self.entry;
            }
            match self.idom.get(&cur) {
                Some(&n) if n != cur => cur = n,
                _ => return false,
            }
        }
    }

    /// All dominators of `b`, entry-first.
    pub fn dominators_of(&self, b: u32) -> Vec<u32> {
        let mut chain = vec![];
        let mut cur = b;
        loop {
            chain.push(cur);
            if cur == self.entry {
                break;
            }
            match self.idom.get(&cur) {
                Some(&n) if n != cur => cur = n,
                _ => break,
            }
        }
        chain.reverse();
        chain
    }
}

fn intersect(idom: &HashMap<u32, u32>, order: &HashMap<u32, usize>, mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while order.get(&a) > order.get(&b) {
            a = idom[&a];
        }
        while order.get(&b) > order.get(&a) {
            b = idom[&b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcfg::build_function_cfg;
    use dtaint_fwbin::arm::{ArmIns, Cond};
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::{Arch, Reg};

    fn cfg_of(f: impl FnOnce(&mut Assembler)) -> FunctionCfg {
        let mut a = Assembler::new(Arch::Arm32e);
        f(&mut a);
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", a);
        let bin = b.link().unwrap();
        build_function_cfg(&bin, bin.function("f").unwrap()).unwrap()
    }

    #[test]
    fn straight_line_chain() {
        let cfg = cfg_of(|a| {
            a.arm(ArmIns::Nop);
            a.ret();
        });
        let dom = Dominators::compute(&cfg);
        assert!(dom.dominates(cfg.addr, cfg.addr));
    }

    #[test]
    fn diamond_join_dominated_by_entry_not_arms() {
        let cfg = cfg_of(|a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
            a.arm_b(Cond::Eq, "else");
            a.arm(ArmIns::MovI { rd: Reg(1), imm: 1 });
            a.jump("join");
            a.label("else");
            a.arm(ArmIns::MovI { rd: Reg(1), imm: 2 });
            a.label("join");
            a.ret();
        });
        let dom = Dominators::compute(&cfg);
        let blocks: Vec<u32> = cfg.blocks().iter().map(|b| b.addr).collect();
        let entry = blocks[0];
        let (then_b, else_b, join) = (blocks[1], blocks[2], blocks[3]);
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(then_b, join), "join reachable around the then arm");
        assert!(!dom.dominates(else_b, join));
        assert_eq!(dom.idom[&join], entry);
        assert_eq!(dom.dominators_of(join), vec![entry, join]);
    }

    #[test]
    fn guard_block_dominates_guarded_sink() {
        // entry → guard → sink (no bypass): guard dominates sink.
        let cfg = cfg_of(|a| {
            a.arm(ArmIns::CmpI { rn: Reg(0), imm: 64 });
            a.arm_b(Cond::Ge, "out");
            a.arm(ArmIns::MovI { rd: Reg(2), imm: 0 }); // "sink" block
            a.label("out");
            a.ret();
        });
        let dom = Dominators::compute(&cfg);
        let blocks: Vec<u32> = cfg.blocks().iter().map(|b| b.addr).collect();
        let (entry, sink, out) = (blocks[0], blocks[1], blocks[2]);
        assert!(dom.dominates(entry, sink));
        assert!(dom.dominates(entry, out));
        assert!(!dom.dominates(sink, out), "out reachable via the branch");
    }

    #[test]
    fn loop_header_dominates_body() {
        let cfg = cfg_of(|a| {
            a.arm(ArmIns::MovI { rd: Reg(2), imm: 10 });
            a.label("head");
            a.arm(ArmIns::CmpI { rn: Reg(2), imm: 0 });
            a.arm_b(Cond::Eq, "out");
            a.arm(ArmIns::SubI { rd: Reg(2), rn: Reg(2), imm: 1 });
            a.jump("head");
            a.label("out");
            a.ret();
        });
        let dom = Dominators::compute(&cfg);
        let head = cfg.addr + 4;
        for b in cfg.blocks().iter().map(|b| b.addr) {
            if b != cfg.addr {
                assert!(dom.dominates(head, b), "head dominates {b:#x}");
            }
        }
    }
}
