//! Constraint-driven interval evaluation of pool expressions.

use crate::Interval;
use dtaint_symex::pool::{CmpOp, ExprPool, SymNode};
use dtaint_symex::ExprId;
use std::collections::BTreeMap;

/// Refinement passes before widening cuts the descending chain.
///
/// Path constraints come from the executor's loop-once exploration, so
/// genuine loops cannot appear in a constraint set — but *cyclic*
/// comparisons (`x < y && y < x` shapes over finite ranges) would
/// otherwise narrow one unit per pass indefinitely.
const MAX_PASSES: usize = 16;

/// Recursion cap for structural evaluation (expressions are DAGs; the
/// cap guards against adversarially deep spines).
const MAX_EVAL_DEPTH: u32 = 32;

/// A flow-sensitive interval environment for one path through one
/// observing function.
///
/// Facts enter in two ways:
///
/// * [`assume`](Self::assume) — a path constraint recorded at a branch;
///   refines both operands and detects contradictions,
/// * [`seed_def`](Self::seed_def) — a definition pair `d = u` from the
///   observing function's summary (including pairs Algorithm 2 pushed up
///   from callees, which is how argument/return ranges travel
///   interprocedurally); multiple defs of one location *join*, and a
///   seed that contradicts the path's constraints is dropped rather
///   than trusted (definition pairs are flow-insensitive).
///
/// After [`solve`](Self::solve), [`range_of`](Self::range_of) answers
/// value-range queries and [`feasible`](Self::feasible) reports whether
/// the constraint set is satisfiable. All queries are pure functions of
/// the pool's interned nodes — no interior mutation, no iteration over
/// unordered maps — so results are identical across thread counts.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis<'p> {
    pool: &'p ExprPool,
    env: BTreeMap<ExprId, Interval>,
    constraints: Vec<(CmpOp, ExprId, ExprId)>,
    seeds: BTreeMap<ExprId, Vec<ExprId>>,
    infeasible: bool,
    witness: Option<(CmpOp, ExprId, ExprId)>,
    passes_run: u32,
}

impl<'p> IntervalAnalysis<'p> {
    /// An empty environment over `pool`.
    pub fn new(pool: &'p ExprPool) -> Self {
        IntervalAnalysis {
            pool,
            env: BTreeMap::new(),
            constraints: Vec::new(),
            seeds: BTreeMap::new(),
            infeasible: false,
            witness: None,
            passes_run: 0,
        }
    }

    /// Refinement passes executed by [`solve`] so far — a deterministic
    /// logical work counter (one per fixpoint iteration, bounded by
    /// `MAX_PASSES` per solve), used by the telemetry layer.
    ///
    /// [`solve`]: Self::solve
    pub fn passes_run(&self) -> u32 {
        self.passes_run
    }

    /// Records a path constraint `lhs op rhs` for the next [`solve`].
    ///
    /// [`solve`]: Self::solve
    pub fn assume(&mut self, op: CmpOp, lhs: ExprId, rhs: ExprId) {
        self.constraints.push((op, lhs, rhs));
    }

    /// Records every constraint of a sink observation.
    pub fn assume_all(&mut self, constraints: &[(CmpOp, ExprId, ExprId)]) {
        self.constraints.extend_from_slice(constraints);
    }

    /// Records a definition pair `d = u` as a range seed for `d`.
    pub fn seed_def(&mut self, d: ExprId, u: ExprId) {
        if self.pool.as_const(d).is_some() || d == u {
            return;
        }
        let us = self.seeds.entry(d).or_default();
        if !us.contains(&u) {
            us.push(u);
        }
    }

    /// Runs constraint refinement to a fixpoint (or the pass budget).
    ///
    /// Each pass narrows operand ranges through every recorded
    /// constraint, then folds the definition seeds in. Refinement only
    /// narrows, so the iteration is a descending chain; if it has not
    /// stabilised after `MAX_PASSES` (16), the final pass's movement is
    /// widened away ([`Interval::widen`]) and iteration stops — the
    /// sound direction for both queries (ranges stay wider, paths stay
    /// feasible).
    pub fn solve(&mut self) {
        for pass in 0..MAX_PASSES {
            self.passes_run += 1;
            let before = self.env.clone();
            let mut changed = false;
            let cons = self.constraints.clone();
            for (op, l, r) in cons {
                changed |= self.refine(op, l, r);
                if self.infeasible {
                    return;
                }
            }
            let seeds: Vec<(ExprId, Vec<ExprId>)> =
                self.seeds.iter().map(|(d, us)| (*d, us.clone())).collect();
            for (d, us) in seeds {
                let mut joined = Interval::EMPTY;
                for u in us {
                    joined = joined.join(self.eval(u, 0));
                }
                if joined.is_empty() || joined.is_top() {
                    continue;
                }
                let met = self.eval(d, 0).meet(joined);
                if met.is_empty() {
                    // The seed contradicts the path constraints: the
                    // defs are flow-insensitive, the constraints are
                    // not — trust the path.
                    continue;
                }
                changed |= self.store(d, met);
            }
            if !changed {
                return;
            }
            if pass == MAX_PASSES - 1 {
                for (e, cur) in self.env.iter_mut() {
                    let prev = before.get(e).copied().unwrap_or(Interval::TOP);
                    *cur = prev.widen(*cur);
                }
            }
        }
    }

    /// The proven value range of `e` under the solved constraints.
    pub fn range_of(&self, e: ExprId) -> Interval {
        self.eval(e, 0)
    }

    /// False when the constraint set was proven contradictory.
    pub fn feasible(&self) -> bool {
        !self.infeasible
    }

    /// The constraint whose refinement first emptied an interval — the
    /// *winning* contradiction of an infeasible set. `None` while
    /// feasible. Refinement visits constraints in recorded order, so the
    /// witness is deterministic for a given constraint set.
    pub fn infeasible_witness(&self) -> Option<(CmpOp, ExprId, ExprId)> {
        self.witness
    }

    /// One refinement step through `lhs op rhs`; returns true when an
    /// environment entry narrowed.
    fn refine(&mut self, op: CmpOp, l: ExprId, r: ExprId) -> bool {
        let lr = self.eval(l, 0);
        let rr = self.eval(r, 0);
        let (nl, nr) = match op {
            CmpOp::Lt => (lr.meet(Interval::lt_bound(rr)), rr.meet(Interval::gt_bound(lr))),
            CmpOp::Le => (lr.meet(Interval::le_bound(rr)), rr.meet(Interval::ge_bound(lr))),
            CmpOp::Gt => (lr.meet(Interval::gt_bound(rr)), rr.meet(Interval::lt_bound(lr))),
            CmpOp::Ge => (lr.meet(Interval::ge_bound(rr)), rr.meet(Interval::le_bound(lr))),
            CmpOp::Eq => {
                let m = lr.meet(rr);
                (m, m)
            }
            CmpOp::Ne => {
                let nl = match rr.as_point() {
                    Some(p) => lr.without_point(p),
                    None => lr,
                };
                let nr = match lr.as_point() {
                    Some(p) => rr.without_point(p),
                    None => rr,
                };
                (nl, nr)
            }
        };
        if nl.is_empty() || nr.is_empty() {
            self.infeasible = true;
            if self.witness.is_none() {
                self.witness = Some((op, l, r));
            }
            return true;
        }
        self.store(l, nl) | self.store(r, nr)
    }

    /// Narrows the stored range of `e`; constants are already exact.
    fn store(&mut self, e: ExprId, iv: Interval) -> bool {
        if self.pool.as_const(e).is_some() {
            return false;
        }
        let cur = self.env.get(&e).copied().unwrap_or(Interval::TOP);
        if iv == cur {
            return false;
        }
        self.env.insert(e, iv);
        true
    }

    /// Structural evaluation meet the refined environment.
    ///
    /// Structure alone already bounds several shapes: byte and
    /// half-word loads are zero-extended by the lifters, masking
    /// (`n & 0xff`) bounds from above, and comparison results are
    /// boolean. Any arithmetic whose interval escapes the guest's
    /// 32-bit value range degrades to ⊤, because the concrete machine
    /// would wrap where the interval would not.
    fn eval(&self, e: ExprId, depth: u32) -> Interval {
        let refined = self.env.get(&e).copied().unwrap_or(Interval::TOP);
        if depth > MAX_EVAL_DEPTH {
            return refined;
        }
        let d = depth + 1;
        let structural = match self.pool.node(e) {
            SymNode::Const(c) => return Interval::point(c),
            SymNode::Deref { width: 1, .. } => Interval::new(0, 0xff),
            SymNode::Deref { width: 2, .. } => Interval::new(0, 0xffff),
            SymNode::Add(a, b) => guest_range(self.eval(a, d) + self.eval(b, d)),
            SymNode::Mul(a, b) => guest_range(self.eval(a, d) * self.eval(b, d)),
            SymNode::And(a, b) => self.eval(a, d).bit_and(self.eval(b, d)),
            SymNode::Or(a, b) | SymNode::Xor(a, b) => self.eval(a, d).bit_or_like(self.eval(b, d)),
            SymNode::Shl(a, b) => match self.pool.as_const(b) {
                Some(s @ 0..=31) => guest_range(self.eval(a, d) * Interval::point(1i64 << s)),
                _ => Interval::TOP,
            },
            SymNode::Shr(a, b) => match self.pool.as_const(b) {
                Some(s @ 0..=63) => self.eval(a, d).shr_const(s as u32),
                _ => Interval::TOP,
            },
            SymNode::Cmp(..) => Interval::new(0, 1),
            _ => Interval::TOP,
        };
        structural.meet(refined)
    }
}

/// True when an interval fits the guest's 32-bit signed value range;
/// otherwise the operation may have wrapped and the bound is unusable.
fn guest_range(iv: Interval) -> Interval {
    let fits = |b: Option<i64>| b.is_some_and(|v| (-(1i64 << 31)..(1i64 << 31)).contains(&v));
    if iv.is_empty() || (fits(iv.lower()) && fits(iv.upper())) {
        iv
    } else {
        Interval::TOP
    }
}

/// Decides satisfiability of one path's constraint set: `None` when the
/// set is satisfiable, otherwise the winning contradictory constraint
/// (see [`IntervalAnalysis::infeasible_witness`]), so audit-mode callers
/// can name it without a second solve.
///
/// This is the path-feasibility query of the DDG: an observation whose
/// guards contradict each other (`n < 8 && n > 64`) describes a path the
/// program cannot execute, so the finding is suppressed. Pure constraint
/// logic only — definition seeds are deliberately excluded, keeping
/// suppression decisions independent of flow-insensitive facts.
pub fn path_feasible_witness(
    pool: &ExprPool,
    constraints: &[(CmpOp, ExprId, ExprId)],
) -> Option<(CmpOp, ExprId, ExprId)> {
    let mut a = IntervalAnalysis::new(pool);
    a.assume_all(constraints);
    a.solve();
    if a.feasible() {
        None
    } else {
        // An infeasible solve always passed through `refine`'s
        // empty-interval branch, which records the witness; fall back to
        // the first constraint for API totality.
        a.infeasible_witness().or_else(|| constraints.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_constraint_proves_an_upper_bound() {
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let c200 = p.constant(200);
        let mut a = IntervalAnalysis::new(&p);
        a.assume(CmpOp::Lt, n, c200);
        a.solve();
        assert_eq!(a.range_of(n).upper(), Some(199));
        assert_eq!(a.range_of(n).lower(), None);
        assert!(a.feasible());
    }

    #[test]
    fn reversed_and_inclusive_operators_bound_too() {
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let c64 = p.constant(64);
        for (op, l, r, hi) in
            [(CmpOp::Le, n, c64, 64), (CmpOp::Gt, c64, n, 63), (CmpOp::Ge, c64, n, 64)]
        {
            let mut a = IntervalAnalysis::new(&p);
            a.assume(op, l, r);
            a.solve();
            assert_eq!(a.range_of(n).upper(), Some(hi), "{op:?}");
        }
    }

    #[test]
    fn contradictory_constraints_are_infeasible() {
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let c8 = p.constant(8);
        let c64 = p.constant(64);
        assert!(path_feasible_witness(&p, &[(CmpOp::Lt, n, c8), (CmpOp::Gt, n, c64)]).is_some());
        assert!(path_feasible_witness(&p, &[(CmpOp::Lt, n, c64), (CmpOp::Gt, n, c8)]).is_none());
    }

    #[test]
    fn infeasible_witness_names_the_contradicting_constraint() {
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let c8 = p.constant(8);
        let c64 = p.constant(64);
        // `n > 64` is the constraint whose refinement empties `n`'s
        // interval (after `n < 8` already bounded it).
        let w = path_feasible_witness(&p, &[(CmpOp::Lt, n, c8), (CmpOp::Gt, n, c64)]);
        assert_eq!(w, Some((CmpOp::Gt, n, c64)));
        assert_eq!(path_feasible_witness(&p, &[(CmpOp::Lt, n, c64)]), None);
        // The witness is the same no matter how often it's asked for.
        let again = path_feasible_witness(&p, &[(CmpOp::Lt, n, c8), (CmpOp::Gt, n, c64)]);
        assert_eq!(w, again);
    }

    #[test]
    fn contradictory_equalities_on_one_location_are_infeasible() {
        let mut p = ExprPool::new();
        let g = p.constant(0x11000);
        let sel = p.deref(g, 4);
        let c5 = p.constant(5);
        let c7 = p.constant(7);
        assert!(path_feasible_witness(&p, &[(CmpOp::Eq, sel, c5), (CmpOp::Eq, sel, c7)]).is_some());
        assert!(path_feasible_witness(&p, &[(CmpOp::Eq, sel, c5), (CmpOp::Eq, sel, c5)]).is_none());
        // Ne against the pinned value is just as contradictory.
        assert!(path_feasible_witness(&p, &[(CmpOp::Eq, sel, c5), (CmpOp::Ne, sel, c5)]).is_some());
    }

    #[test]
    fn constant_only_contradictions_need_no_environment() {
        let mut p = ExprPool::new();
        let c3 = p.constant(3);
        let c5 = p.constant(5);
        assert!(path_feasible_witness(&p, &[(CmpOp::Lt, c5, c3)]).is_some());
        assert!(path_feasible_witness(&p, &[(CmpOp::Eq, c5, c3)]).is_some());
        assert!(path_feasible_witness(&p, &[(CmpOp::Lt, c3, c5)]).is_none());
    }

    #[test]
    fn definition_seeds_resolve_symbolic_bounds() {
        // The symbolic-guard shape: `if (n < y)` where `y = *g_limit`
        // and a definition pair (pushed up from an init routine by
        // Algorithm 2) pins `*g_limit = 200`.
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let g = p.constant(0x11000);
        let y = p.deref(g, 4);
        let c200 = p.constant(200);
        let mut a = IntervalAnalysis::new(&p);
        a.seed_def(y, c200);
        a.assume(CmpOp::Lt, n, y);
        a.solve();
        assert_eq!(a.range_of(y).as_point(), Some(200));
        assert_eq!(a.range_of(n).upper(), Some(199));
    }

    #[test]
    fn multiple_defs_of_one_location_join() {
        let mut p = ExprPool::new();
        let g = p.constant(0x11000);
        let y = p.deref(g, 4);
        let c0 = p.constant(0);
        let c200 = p.constant(200);
        let mut a = IntervalAnalysis::new(&p);
        a.seed_def(y, c0);
        a.seed_def(y, c200);
        a.solve();
        assert_eq!(a.range_of(y).lower(), Some(0));
        assert_eq!(a.range_of(y).upper(), Some(200));
    }

    #[test]
    fn a_seed_contradicting_the_path_is_dropped_not_trusted() {
        // Defs are flow-insensitive: a store of 5 somewhere does not
        // make a path that observed 7 infeasible.
        let mut p = ExprPool::new();
        let g = p.constant(0x11000);
        let sel = p.deref(g, 4);
        let c5 = p.constant(5);
        let c7 = p.constant(7);
        let mut a = IntervalAnalysis::new(&p);
        a.seed_def(sel, c5);
        a.assume(CmpOp::Eq, sel, c7);
        a.solve();
        assert!(a.feasible(), "seed conflicts drop the seed, not the path");
        assert_eq!(a.range_of(sel).as_point(), Some(7));
    }

    #[test]
    fn structural_shapes_are_bounded_without_constraints() {
        let mut p = ExprPool::new();
        let addr = p.constant(0x11000);
        let byte = p.deref(addr, 1);
        let word = p.deref(addr, 4);
        let n = p.ret_sym(0x40);
        let mask = p.constant(0xff);
        let masked = p.and_op(n, mask);
        let flag = p.cmp(CmpOp::Lt, n, mask);
        let a = IntervalAnalysis::new(&p);
        assert_eq!(a.range_of(byte), Interval::new(0, 0xff));
        assert!(a.range_of(word).is_top());
        assert_eq!(a.range_of(masked).upper(), Some(0xff));
        assert_eq!(a.range_of(flag), Interval::new(0, 1));
    }

    #[test]
    fn ranges_propagate_through_arithmetic() {
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let c100 = p.constant(100);
        let four = p.constant(4);
        let sum = p.add(n, four);
        let prod = p.mul(n, four);
        let mut a = IntervalAnalysis::new(&p);
        a.assume(CmpOp::Lt, n, c100);
        a.assume(CmpOp::Ge, n, four);
        a.solve();
        assert_eq!(a.range_of(sum).upper(), Some(103));
        assert_eq!(a.range_of(sum).lower(), Some(8));
        assert_eq!(a.range_of(prod).upper(), Some(396));
    }

    #[test]
    fn widening_terminates_cyclic_narrowing() {
        // `x <= 100 && x < x` narrows one unit per pass and would
        // otherwise descend for 100 passes; the budget plus widening
        // stops it early, leaving a wider (sound) range.
        let mut p = ExprPool::new();
        let x = p.ret_sym(0x40);
        let c100 = p.constant(100);
        let mut a = IntervalAnalysis::new(&p);
        a.assume(CmpOp::Le, x, c100);
        a.assume(CmpOp::Lt, x, x);
        a.solve();
        assert!(a.range_of(x).upper().is_some(), "still bounded from the first constraint");
    }

    #[test]
    fn constraint_order_does_not_change_the_result() {
        let mut p = ExprPool::new();
        let n = p.ret_sym(0x40);
        let m = p.ret_sym(0x44);
        let c10 = p.constant(10);
        let c50 = p.constant(50);
        let cons = [(CmpOp::Lt, n, m), (CmpOp::Lt, m, c50), (CmpOp::Ge, n, c10)];
        let mut fwd = IntervalAnalysis::new(&p);
        fwd.assume_all(&cons);
        fwd.solve();
        let mut rev = IntervalAnalysis::new(&p);
        for c in cons.iter().rev() {
            rev.assume(c.0, c.1, c.2);
        }
        rev.solve();
        assert_eq!(fwd.range_of(n), rev.range_of(n));
        assert_eq!(fwd.range_of(m), rev.range_of(m));
        assert_eq!(fwd.range_of(n).upper(), Some(48), "n < m < 50");
    }
}
