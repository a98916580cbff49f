//! Control-flow graphs, loop membership, and the call graph.
//!
//! DTaint "performs a static analysis on the firmware to generate the CFG
//! for each function separately" (§III-B). This crate provides exactly
//! that layer on top of the lifted IR:
//!
//! * [`FunctionCfg`] — per-function basic blocks (flat, address-sorted
//!   statement ranges of the function's one IR buffer) and successor
//!   edges (block indices), built by one exact linear sweep that lifts
//!   each instruction once (both dialects use fixed-width instructions
//!   and contiguous function bodies), plus the per-block loop membership that marks the paper's
//!   "copy statements in the loop"; predecessors, DFS back edges and
//!   reverse post-order are computed on demand,
//! * [`CallGraph`] — the scan's one table of call instructions, each
//!   classified as direct, import (library) or indirect and owned by one
//!   function; the call edges between dense function slots ([`FnIx`],
//!   one per distinct function-symbol entry, in address order); and the
//!   SCC condensation ([`Condensation`], one Tarjan
//!   run) whose strata the bottom-up interprocedural analysis walks
//!   (callees before callers, each function visited once; the members
//!   of a recursion cycle share a stratum),
//! * [`FunctionShape`] — what a CFG leaves behind once its IR is
//!   dropped (counts and raw call rows). [`CallGraph::from_shapes`]
//!   builds the call graph from these, so a pipeline can free each
//!   function's IR as soon as it has analyzed it.
//!
//! # Examples
//!
//! ```
//! use dtaint_fwbin::asm::Assembler;
//! use dtaint_fwbin::link::BinaryBuilder;
//! use dtaint_fwbin::Arch;
//! use dtaint_cfg::{build_all_cfgs, CallGraph};
//!
//! let mut main = Assembler::new(Arch::Arm32e);
//! main.call("helper");
//! main.ret();
//! let mut helper = Assembler::new(Arch::Arm32e);
//! helper.call("recv");
//! helper.ret();
//!
//! let mut b = BinaryBuilder::new(Arch::Arm32e);
//! b.add_function("main", main);
//! b.add_function("helper", helper);
//! b.add_import("recv");
//! let bin = b.link()?;
//!
//! let cfgs = build_all_cfgs(&bin)?;
//! let cg = CallGraph::build(&bin, &cfgs);
//! // Each function has a dense slot, found from its entry address.
//! let helper = cg.ix(bin.function("helper").unwrap().addr).unwrap();
//! let main = cg.ix(bin.function("main").unwrap().addr).unwrap();
//! assert_eq!(cg.callees(main), [helper]);
//! let strata = cg.condense().strata;
//! // Bottom-up: helper's stratum comes before main's.
//! let stratum_of = |f| strata.iter().position(|s| s.contains(&f));
//! assert!(stratum_of(helper) < stratum_of(main));
//! # Ok::<(), dtaint_fwbin::Error>(())
//! ```

mod callgraph;
mod funcfg;

pub use callgraph::{CallGraph, CallTarget, Callsite, Condensation, FnIx};
pub use funcfg::{build_all_cfgs, build_function_cfg, CallRow, FunctionCfg, FunctionShape};
