//! Data-flow identification — the core of DTaint (§III of the paper).
//!
//! This crate combines the per-function symbolic summaries of
//! [`dtaint_symex`] into whole-program data flow:
//!
//! * [`alias`] — pointer-aliasing recognition (Algorithm 1),
//! * [`layout`] — data-structure layout inference and the similarity
//!   metric σ (Formula 2),
//! * [`indirect`] — indirect-call resolution by layout similarity,
//! * [`interproc`] — the bottom-up interprocedural propagation
//!   (Algorithm 2), producing a [`ProgramDataflow`] with fully
//!   contextualised sink observations ready for taint checking.
//!
//! # Examples
//!
//! The paper's running example (Figures 5–7): `foo` calls `woo`, which
//! stores a buffer pointer into `*(arg0 + 0x4C)` and `recv`s into that
//! buffer; back in `foo` the buffer is read through the same field and
//! `memcpy`'d with a tainted length. After `build_dataflow`, the `memcpy`
//! sink's argument expressions contain the `recv` output symbol — the
//! source-to-sink flow the detector reports.
//!
//! See `tests/` in this crate and the `dtaint-core` pipeline for runnable
//! versions.

pub mod alias;
pub mod cache;
pub mod ddg;
pub mod indirect;
pub mod interproc;
pub mod layout;
pub mod sse;

pub use alias::{
    alias_pass, alias_pass_or_restore, alias_replace, AliasConfig, AliasEntry, AliasMode,
};
pub use cache::{
    CacheFormat, CacheLoadReport, CacheRef, CacheSnapshot, CacheTotals, Level, ScanStats,
    SummaryCache,
};
pub use ddg::{backward_trace, TraceStep};
pub use indirect::{resolve_indirect_calls, IndirectStats, Installer, ResolvedCall};
pub use interproc::{
    build_dataflow, build_dataflow_judged, BoundsMode, DataflowConfig, DataflowView, FinalSummary,
    FnResidue, ProgramDataflow, PrunedSink, SinkCensus, SinkKind, SinkObservation,
    MAX_SINKS_PER_FN, SINK_NAMES,
};
pub use layout::{infer_layouts, root_and_path, AccessPath, Layout};
pub use sse::{canonicalize, sse_replace, Sse, SseStats};

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_cfg::{build_all_cfgs, CallGraph};
    use dtaint_fwbin::arm::ArmIns;
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::{Arch, Binary, Reg};
    use dtaint_symex::pool::{Kinds, SymNode};
    use dtaint_symex::{analyze_function, ExprPool, SymexConfig};

    fn analyze_all(bin: &Binary) -> (CallGraph, Vec<dtaint_symex::FuncSummary>, ExprPool) {
        let cfgs = build_all_cfgs(bin).unwrap();
        let cg = CallGraph::build(bin, &cfgs);
        let mut pool = ExprPool::new();
        let summaries = cfgs
            .iter()
            .map(|c| analyze_function(bin, c, &mut pool, &SymexConfig::default()))
            .collect();
        (cg, summaries, pool)
    }

    /// Builds the paper's Figure 5 program:
    ///
    /// ```c
    /// void woo(ctx *a0, req *a1) {
    ///     char *buf = a1->buf;      // +0x24
    ///     a0->data = buf;           // +0x4C
    ///     recv(0, buf, 0x200, 0);
    /// }
    /// void foo(ctx *a0, req *a1) {
    ///     int n = woo(a0, a1);      // ret used as length
    ///     char local[0x100];
    ///     memcpy(local, a0->data, n);   // sink
    /// }
    /// ```
    fn paper_figure5_binary() -> Binary {
        let arch = Arch::Arm32e;

        let mut woo = Assembler::new(arch);
        woo.arm(ArmIns::Ldr { rt: Reg(5), rn: Reg(1), off: 0x24 });
        woo.arm(ArmIns::Str { rt: Reg(5), rn: Reg(0), off: 0x4c });
        woo.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
        woo.arm(ArmIns::MovR { rd: Reg(1), rm: Reg(5) });
        woo.arm(ArmIns::MovI { rd: Reg(2), imm: 0x200 });
        woo.arm(ArmIns::MovI { rd: Reg(3), imm: 0 });
        woo.call("recv");
        woo.ret();

        let mut foo = Assembler::new(arch);
        foo.arm(ArmIns::SubI { rd: Reg::SP, rn: Reg::SP, imm: 0x118 });
        foo.arm(ArmIns::MovR { rd: Reg(11), rm: Reg(0) }); // save ctx
        foo.arm(ArmIns::MovR { rd: Reg(4), rm: Reg(1) });
        foo.call("woo");
        foo.arm(ArmIns::MovR { rd: Reg(2), rm: Reg(0) }); // n = ret
        foo.arm(ArmIns::Ldr { rt: Reg(1), rn: Reg(11), off: 0x4c }); // src = ctx->data
        foo.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 0x18 }); // dst = local
        foo.call("memcpy");
        foo.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x118 });
        foo.ret();

        let mut b = BinaryBuilder::new(arch);
        b.add_function("foo", foo);
        b.add_function("woo", woo);
        b.add_import("recv");
        b.add_import("memcpy");
        b.link().unwrap()
    }

    #[test]
    fn figure5_source_reaches_memcpy_sink() {
        let bin = paper_figure5_binary();
        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());

        let foo = bin.function("foo").unwrap().addr;
        let foo_final = &df.finals[&foo];
        let memcpy_sink = foo_final
            .sinks
            .iter()
            .find(|s| s.kind == SinkKind::Import("memcpy".into()))
            .expect("memcpy sink observed in foo");

        // The source (src argument, index 1) is a pointer whose pointee
        // must carry recv's output after woo's stores are pushed up.
        let src = memcpy_sink.args[1];
        let mut carriers = df.finals[&foo].pointee_values(&df.pool, src);
        carriers.push(src);
        let has_recv_data = carriers.iter().any(|&v| {
            df.pool.any_node(v, Kinds::CALL_OUT, &mut |n| {
                matches!(n, SymNode::CallOut { callsite, .. }
                    if df.callgraph.import_at(callsite) == Some("recv"))
            })
        });
        assert!(
            has_recv_data,
            "memcpy src pointee must carry recv output, got {} (pointees: {:?})",
            df.pool.display(src),
            df.finals[&foo]
                .pointee_values(&df.pool, src)
                .iter()
                .map(|&v| df.pool.display(v).to_string())
                .collect::<Vec<_>>()
        );

        // The length argument (index 2) is recv's return value.
        let len = memcpy_sink.args[2];
        let has_recv_ret = df.pool.any_node(len, Kinds::RET_SYM, &mut |n| {
            matches!(n, SymNode::RetSym(cs)
                if df.callgraph.import_at(cs) == Some("recv"))
        });
        assert!(has_recv_ret, "memcpy length must be recv's return, got {}", df.pool.display(len));
        // No length check anywhere: no bounding constraint mentions `len`.
        assert!(memcpy_sink.constraints.is_empty());
    }

    #[test]
    fn sink_inside_callee_bubbles_to_caller_with_actuals() {
        // main reads env data and passes it to helper, which system()s it.
        let arch = Arch::Arm32e;
        let mut helper = Assembler::new(arch);
        helper.call("system"); // system(arg0)
        helper.ret();
        let mut main = Assembler::new(arch);
        main.load_addr(Reg(0), "name");
        main.call("getenv");
        main.call("helper"); // helper(getenv(...))
        main.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("main", main);
        b.add_function("helper", helper);
        b.add_import("getenv");
        b.add_import("system");
        b.add_cstring("name", "PATH");
        let bin = b.link().unwrap();

        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());
        let main_addr = bin.function("main").unwrap().addr;
        let helper_addr = bin.function("helper").unwrap().addr;

        // helper sees system(arg0).
        let h = &df.finals[&helper_addr];
        let hs = h.sinks.iter().find(|s| s.kind == SinkKind::Import("system".into())).unwrap();
        assert!(matches!(df.pool.node(hs.args[0]), SymNode::Arg(0)));

        // main sees the same sink with arg0 replaced by getenv's return.
        let m = &df.finals[&main_addr];
        let ms = m.sinks.iter().find(|s| s.kind == SinkKind::Import("system".into())).unwrap();
        assert_eq!(ms.call_chain.len(), 1);
        let is_getenv_ret = df.pool.any_node(ms.args[0], Kinds::RET_SYM, &mut |n| {
            matches!(n, SymNode::RetSym(cs)
                if df.callgraph.import_at(cs) == Some("getenv"))
        });
        assert!(
            is_getenv_ret,
            "bubbled sink arg must be getenv's return, got {}",
            df.pool.display(ms.args[0])
        );
    }

    #[test]
    fn callee_return_value_substitutes_at_caller() {
        // int id(int x) { return x; }   int f() { return id(7); }
        let arch = Arch::Mips32e;
        let mut id = Assembler::new(arch);
        id.mov(Reg(2), Reg(4)); // v0 = a0
        id.ret();
        let mut f = Assembler::new(arch);
        f.load_const(Reg(4), 7);
        f.call("id");
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        b.add_function("id", id);
        let bin = b.link().unwrap();

        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());
        let f_addr = bin.function("f").unwrap().addr;
        let rv = df.finals[&f_addr].summary.ret_values[0];
        assert_eq!(df.pool.as_const(rv), Some(7), "id(7) folds to 7 in the caller");
    }

    #[test]
    fn escape_defs_connect_memory_across_functions() {
        // init(p) stores taint into *(p+8); use(p) reads *(p+8).
        // After propagation, caller's read resolves to the taint.
        let arch = Arch::Arm32e;
        let mut init = Assembler::new(arch);
        init.arm(ArmIns::MovR { rd: Reg(4), rm: Reg(0) });
        init.call("getenv"); // returns external pointer
        init.arm(ArmIns::Str { rt: Reg(0), rn: Reg(4), off: 8 });
        init.ret();
        let mut main = Assembler::new(arch);
        main.arm(ArmIns::SubI { rd: Reg(0), rn: Reg::SP, imm: 0x40 });
        main.arm(ArmIns::MovR { rd: Reg(5), rm: Reg(0) });
        main.call("init");
        main.arm(ArmIns::Ldr { rt: Reg(0), rn: Reg(5), off: 8 });
        main.call("system"); // system(*(p+8)) — tainted command
        main.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("main", main);
        b.add_function("init", init);
        b.add_import("getenv");
        b.add_import("system");
        let bin = b.link().unwrap();

        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());
        let main_addr = bin.function("main").unwrap().addr;
        let ms = df.finals[&main_addr]
            .sinks
            .iter()
            .find(|s| s.kind == SinkKind::Import("system".into()))
            .expect("system sink in main");
        let carries_getenv =
            df.pool.any_node(ms.args[0], Kinds::RET_SYM | Kinds::CALL_OUT, &mut |n| {
                matches!(n, SymNode::RetSym(cs) | SymNode::CallOut { callsite: cs, .. }
                    if df.callgraph.import_at(cs) == Some("getenv"))
            });
        assert!(
            carries_getenv,
            "system arg must resolve through init's store: {}",
            df.pool.display(ms.args[0])
        );
    }

    #[test]
    fn sanitized_path_carries_its_bounding_constraint() {
        use dtaint_fwbin::arm::Cond;
        // n = recv(...); if (n < 64) memcpy(dst, buf, n);
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.arm(ArmIns::SubI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::MovI { rd: Reg(2), imm: 0x100 });
        f.arm(ArmIns::MovI { rd: Reg(3), imm: 0 });
        f.call("recv");
        f.arm(ArmIns::CmpI { rn: Reg(0), imm: 64 });
        f.arm_b(Cond::Ge, "out");
        f.arm(ArmIns::MovR { rd: Reg(2), rm: Reg(0) }); // n
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 0x20 });
        f.call("memcpy");
        f.label("out");
        f.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        b.add_import("recv");
        b.add_import("memcpy");
        let bin = b.link().unwrap();

        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());
        let f_addr = bin.function("f").unwrap().addr;
        let sink = df.finals[&f_addr]
            .sinks
            .iter()
            .find(|s| s.kind == SinkKind::Import("memcpy".into()))
            .expect("memcpy sink");
        let len = sink.args[2];
        // The guarding constraint `len < 64` is attached to the sink.
        let guarded = sink.constraints.iter().any(|(op, l, r)| {
            *op == dtaint_symex::CmpOp::Lt && *l == len && df.pool.as_const(*r) == Some(64)
        });
        assert!(guarded, "bounding constraint must accompany the sink");
    }

    #[test]
    fn indirect_call_sink_is_found_through_layout_similarity() {
        // A handler is installed into a struct field; a dispatcher calls
        // through the same field. The handler system()s its argument.
        let arch = Arch::Arm32e;
        let mut handler = Assembler::new(arch);
        handler.arm(ArmIns::Ldr { rt: Reg(0), rn: Reg(0), off: 0x10 }); // cmd = s->buf
        handler.call("system");
        handler.ret();
        let mut install = Assembler::new(arch);
        install.load_addr(Reg(1), "handler");
        install.arm(ArmIns::Str { rt: Reg(1), rn: Reg(0), off: 8 }); // s->fn = handler
        install.arm(ArmIns::MovI { rd: Reg(2), imm: 0 });
        install.arm(ArmIns::Str { rt: Reg(2), rn: Reg(0), off: 0x10 }); // touch s->buf
        install.ret();
        let mut dispatch = Assembler::new(arch);
        dispatch.arm(ArmIns::MovR { rd: Reg(4), rm: Reg(0) });
        dispatch.arm(ArmIns::Ldr { rt: Reg(5), rn: Reg(4), off: 8 }); // fn = s->fn
        dispatch.arm(ArmIns::Ldr { rt: Reg(6), rn: Reg(4), off: 0x10 }); // touch s->buf
        dispatch.arm(ArmIns::MovR { rd: Reg(0), rm: Reg(4) });
        dispatch.arm(ArmIns::Blx { rm: Reg(5) }); // s->fn(s)
        dispatch.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("dispatch", dispatch);
        b.add_function("install", install);
        b.add_function("handler", handler);
        b.add_import("system");
        let bin = b.link().unwrap();

        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());
        assert_eq!(df.resolved_indirect.len(), 1);
        assert_eq!(df.resolved_indirect[0].callee, bin.function("handler").unwrap().addr);
        // Layouts only for the installer and the dispatcher, not the handler.
        let stats = IndirectStats { installers: 1, sites: 1, layouts_inferred: 2 };
        assert_eq!(df.indirect_stats, stats);
        // The system sink bubbles into dispatch through the resolved edge.
        let dispatch_addr = bin.function("dispatch").unwrap().addr;
        assert!(df.finals[&dispatch_addr]
            .sinks
            .iter()
            .any(|s| s.kind == SinkKind::Import("system".into())));
    }

    #[test]
    fn disabling_stages_changes_results() {
        let bin = paper_figure5_binary();
        let (mut cg, summaries, pool) = analyze_all(&bin);
        let config = DataflowConfig {
            alias: AliasConfig { mode: AliasMode::Off, ..Default::default() },
            enable_indirect: false,
            ..Default::default()
        };
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &config);
        assert!(df.resolved_indirect.is_empty());
        assert_eq!(df.indirect_stats, IndirectStats::default());
        // The memcpy sink is still observed (it is a direct-flow case).
        let foo = bin.function("foo").unwrap().addr;
        assert!(!df.finals[&foo].sinks.is_empty());
    }

    #[test]
    fn post_order_is_respected_in_output() {
        let bin = paper_figure5_binary();
        let (mut cg, summaries, pool) = analyze_all(&bin);
        let df = build_dataflow(&bin, &mut cg, summaries, pool, &DataflowConfig::default());
        let foo = bin.function("foo").unwrap().addr;
        let woo = bin.function("woo").unwrap().addr;
        let pos = |a| df.order.iter().position(|&x| x == a).unwrap();
        assert!(pos(woo) < pos(foo));
    }
}
