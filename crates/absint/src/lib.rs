//! Interval abstract interpretation over the symbolic expression pool.
//!
//! DTaint's sanitisation judgement (§IV of the paper) is *syntactic*:
//! any bounding constraint on the tainted length counts as a guard.
//! This crate replaces that pattern match with a small value-range
//! analysis so guard quality is *computed*:
//!
//! * [`IntervalAnalysis::range_of`] evaluates an expression's proven
//!   value range under a path's constraints — `if (n < y)` sanitises a
//!   copy exactly when the analysis can bound `y` (through definition
//!   pairs pushed up by Algorithm 2) tightly enough to fit the
//!   destination;
//! * [`path_feasible_witness`] detects contradictory constraint sets
//!   (`n < 8 && n > 64`): an observation on an infeasible path is not a
//!   finding at all.
//!
//! The domain is the classic integer interval lattice with ±∞
//! sentinels ([`Interval`]); refinement runs a descending fixpoint over
//! the path's constraints with a pass budget and widening as the
//! termination backstop (see [`IntervalAnalysis::solve`]).
//!
//! The analysis only *reads* an [`ExprPool`](dtaint_symex::pool::ExprPool)
//! — every query is a pure function of the pool's interned nodes, so
//! its verdicts inside the DDG build depend only on the expressions it
//! is given.
//!
//! # Examples
//!
//! ```
//! use dtaint_absint::{path_feasible_witness, Interval, IntervalAnalysis};
//! use dtaint_symex::pool::{CmpOp, ExprPool};
//!
//! let mut p = ExprPool::new();
//! let n = p.ret_sym(0x100); // e.g. the length recv returned
//! let c8 = p.constant(8);
//! let c64 = p.constant(64);
//!
//! // `n < 8` proves an upper bound of 7.
//! let mut a = IntervalAnalysis::new(&p);
//! a.assume(CmpOp::Lt, n, c8);
//! a.solve();
//! assert_eq!(a.range_of(n).upper(), Some(7));
//!
//! // `n < 8 && n > 64` is contradictory — the path cannot execute.
//! assert!(path_feasible_witness(&p, &[(CmpOp::Lt, n, c8), (CmpOp::Gt, n, c64)]).is_some());
//! ```

#![warn(missing_docs)]

mod analysis;
mod interval;

pub use analysis::{path_feasible_witness, IntervalAnalysis};
pub use interval::Interval;
