//! Control-flow graphs, loop membership, and the call graph.
//!
//! DTaint "performs a static analysis on the firmware to generate the CFG
//! for each function separately" (§III-B). This crate provides exactly
//! that layer on top of the lifted IR:
//!
//! * [`FunctionCfg`] — per-function basic blocks (flat, address-sorted)
//!   and successor edges (block indices), built by an exact linear sweep
//!   (both dialects use fixed-width instructions and contiguous function
//!   bodies), plus the per-block loop membership that marks the paper's
//!   "copy statements in the loop"; predecessors, DFS back edges and
//!   reverse post-order are computed on demand,
//! * [`CallGraph`] — call sites classified as direct, import (library) or
//!   indirect, with the post-order traversal the bottom-up
//!   interprocedural analysis walks (callees before callers, each
//!   function visited once; recursion cycles are broken at the DFS
//!   back edge),
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
//! let helper_addr = bin.function("helper").unwrap().addr;
//! let main_addr = bin.function("main").unwrap().addr;
//! let order = cg.post_order();
//! // Bottom-up: helper is visited before main.
//! assert!(order.iter().position(|&a| a == helper_addr)
//!     < order.iter().position(|&a| a == main_addr));
//! # Ok::<(), dtaint_fwbin::Error>(())
//! ```

mod callgraph;
mod dominators;
mod funcfg;

pub use callgraph::{CallGraph, CallTarget, Callsite};
pub use dominators::Dominators;
pub use funcfg::{build_all_cfgs, build_function_cfg, CallRow, FunctionCfg, FunctionShape};
