//! DTaint — detecting taint-style vulnerabilities in embedded firmware
//! binaries, reproduced from the DSN 2018 paper.
//!
//! A taint-style vulnerability has three parts: an attacker-controlled
//! **source** (`recv`, `getenv`, …), a **data propagation path**, and a
//! sensitive **sink** (`strcpy`, `memcpy`, `system`, …). This crate wires
//! together the whole pipeline of the paper's Figure 4:
//!
//! 1. lift the binary to IR and build CFGs ([`dtaint_ir`],
//!    [`dtaint_cfg`]),
//! 2. run a per-function static symbolic analysis producing definition
//!    pairs over `deref(base + offset)` variable descriptions
//!    ([`dtaint_symex`]) — steps 1 and 2 run as one pass per function,
//!    which frees each function's IR once it is analyzed,
//! 3. recover pointer aliases, resolve indirect calls by data-structure
//!    layout similarity, and propagate data flow bottom-up over the call
//!    graph ([`dtaint_dataflow`]),
//! 4. match sinks against sources and check sanitisation constraints
//!    ([`taint`], [`sinks`]), yielding an [`AnalysisReport`].
//!
//! # Examples
//!
//! Detect a command injection (`getenv → system`, the shape of
//! CVE-2015-2051) in a freshly assembled binary:
//!
//! ```
//! use dtaint_core::{Dtaint, VulnKindRepr};
//! use dtaint_fwbin::asm::Assembler;
//! use dtaint_fwbin::link::BinaryBuilder;
//! use dtaint_fwbin::{Arch, Reg};
//!
//! let mut f = Assembler::new(Arch::Arm32e);
//! f.load_addr(Reg(0), "soap_action");
//! f.call("getenv");
//! f.call("system"); // system(getenv("SOAPAction")) — unchecked
//! f.ret();
//!
//! let mut b = BinaryBuilder::new(Arch::Arm32e);
//! b.add_function("cgi_handler", f);
//! b.add_import("getenv");
//! b.add_import("system");
//! b.add_cstring("soap_action", "SOAPAction");
//! let bin = b.link()?;
//!
//! let report = Dtaint::new().analyze(&bin, "cgibin")?;
//! assert_eq!(report.vulnerabilities(), 1);
//! let f = &report.vulnerable_paths()[0];
//! assert_eq!(f.kind, VulnKindRepr::CommandInjection);
//! assert_eq!(f.sources[0].name, "getenv");
//! # Ok::<(), dtaint_fwbin::Error>(())
//! ```

pub mod evidence;
pub mod report;
pub mod sarif;
pub mod score;
pub mod sinks;
pub mod taint;

mod pipeline;

pub use dtaint_dataflow::{
    AliasConfig, AliasMode, CacheFormat, CacheLoadReport, CacheRef, CacheSnapshot, CacheTotals,
    ScanStats, SummaryCache,
};
pub use evidence::{EvidenceStep, SanitizeVerdict};
pub use pipeline::{Dtaint, DtaintConfig};
pub use report::{
    AnalysisReport, Finding, FnCost, FunctionOutcome, FunctionRecord, SinkCoverage,
    SinkCoverageRow, SourceRef, TelemetrySection, VulnKindRepr,
};
pub use sarif::to_sarif;
pub use score::{score, GroundTruthFlow, Score};
pub use sinks::{
    default_sources, sink_spec, SinkSpec, TaintedVar, VulnKind, CMD_SEPARATORS, SINK_SPECS,
    SOURCE_NAMES,
};
pub use taint::{BoundsMode, TaintOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::arm::{ArmIns, Cond};
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::mips::MipsIns;
    use dtaint_fwbin::{Arch, Binary, Reg};

    fn analyze(bin: &Binary) -> AnalysisReport {
        Dtaint::new().analyze(bin, "test").unwrap()
    }

    /// recv → memcpy with no length check: one buffer-overflow vuln.
    #[test]
    fn unchecked_memcpy_length_is_vulnerable() {
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.arm(ArmIns::SubI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::MovI { rd: Reg(2), imm: 0x100 });
        f.arm(ArmIns::MovI { rd: Reg(3), imm: 0 });
        f.call("recv");
        f.arm(ArmIns::MovR { rd: Reg(2), rm: Reg(0) }); // n = recv ret
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 0x20 });
        f.call("memcpy");
        f.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("handle", f);
        b.add_import("recv");
        b.add_import("memcpy");
        let bin = b.link().unwrap();

        let r = analyze(&bin);
        assert_eq!(r.vulnerabilities(), 1);
        let v = &r.vulnerable_paths()[0];
        assert_eq!(v.kind, VulnKindRepr::BufferOverflow);
        assert_eq!(v.sink, "memcpy");
        assert_eq!(v.sources[0].name, "recv");
        // Every finding carries a typed provenance chain: at least the
        // source observation, terminated by the sanitization verdict.
        assert!(!v.fingerprint.is_empty());
        assert!(v.evidence.iter().any(|s| matches!(s, EvidenceStep::Source { .. })));
        assert!(matches!(
            v.evidence.last(),
            Some(EvidenceStep::Verdict(SanitizeVerdict::UncheckedFlow))
        ));
    }

    /// The same flow guarded by `if (n < 64)`: sanitized, no vuln.
    #[test]
    fn bounded_memcpy_length_is_sanitized() {
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
        f.arm(ArmIns::MovR { rd: Reg(2), rm: Reg(0) });
        f.arm(ArmIns::AddI { rd: Reg(1), rn: Reg::SP, imm: 0x100 });
        f.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 0x20 });
        f.call("memcpy");
        f.label("out");
        f.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x200 });
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("handle", f);
        b.add_import("recv");
        b.add_import("memcpy");
        let bin = b.link().unwrap();

        let r = analyze(&bin);
        assert_eq!(r.vulnerabilities(), 0, "guarded path is not a vulnerability");
        // The path is still found, but judged sanitized — by a typed
        // constant-bound verdict carrying the guard's numbers.
        let sane = r.findings.iter().find(|f| f.sanitized()).expect("sanitized finding");
        assert!(
            matches!(sane.verdict, SanitizeVerdict::ConstGuard { bound: 64, fits: true, .. }),
            "expected a const-guard verdict, got {:?}",
            sane.verdict
        );
    }

    /// getenv → strcpy: the Table IV CVE-2016-5681 shape.
    #[test]
    fn getenv_strcpy_overflow_detected() {
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.arm(ArmIns::SubI { rd: Reg::SP, rn: Reg::SP, imm: 0x100 });
        f.load_addr(Reg(0), "cookie_name");
        f.call("getenv");
        f.arm(ArmIns::MovR { rd: Reg(1), rm: Reg(0) }); // src = env value
        f.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 8 }); // dst: stack
        f.call("strcpy");
        f.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x100 });
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("session", f);
        b.add_import("getenv");
        b.add_import("strcpy");
        b.add_cstring("cookie_name", "uid");
        let bin = b.link().unwrap();

        let r = analyze(&bin);
        assert_eq!(r.vulnerabilities(), 1);
        let v = &r.vulnerable_paths()[0];
        assert_eq!(v.sink, "strcpy");
        assert_eq!(v.sources[0].name, "getenv");
    }

    /// Command injection guarded by a semicolon check is sanitized.
    #[test]
    fn semicolon_check_sanitizes_command_injection() {
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.load_addr(Reg(0), "env_name");
        f.call("getenv");
        f.arm(ArmIns::MovR { rd: Reg(4), rm: Reg(0) });
        // if (cmd[0] == ';') return;
        f.arm(ArmIns::Ldrb { rt: Reg(5), rn: Reg(4), off: 0 });
        f.arm(ArmIns::CmpI { rn: Reg(5), imm: b';' as i16 });
        f.arm_b(Cond::Eq, "reject");
        f.arm(ArmIns::MovR { rd: Reg(0), rm: Reg(4) });
        f.call("system");
        f.label("reject");
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("runner", f);
        b.add_import("getenv");
        b.add_import("system");
        b.add_cstring("env_name", "CMD");
        let bin = b.link().unwrap();

        let r = analyze(&bin);
        assert_eq!(r.vulnerabilities(), 0);
        let sane = r
            .findings
            .iter()
            .find(|f| f.sanitized() && f.kind == VulnKindRepr::CommandInjection)
            .expect("the guarded injection path must be found and judged sanitized");
        assert!(
            matches!(&sane.verdict, SanitizeVerdict::SeparatorCheck { chars } if chars.contains(';')),
            "expected a separator-check verdict, got {:?}",
            sane.verdict
        );
    }

    /// A MIPS websGetVar → system flow (the CVE-2017-6077 shape).
    #[test]
    fn mips_websgetvar_system_injection() {
        let arch = Arch::Mips32e;
        let mut f = Assembler::new(arch);
        f.mips(MipsIns::Addiu { rt: Reg(29), rs: Reg(29), imm: -32 });
        f.load_addr(Reg(5), "param"); // name
        f.load_addr(Reg(6), "empty"); // default
        f.call("websGetVar"); // a0 = wp (arg0 passthrough)
        f.mips(MipsIns::Or { rd: Reg(4), rs: Reg(2), rt: Reg::ZERO });
        f.call("system");
        f.mips(MipsIns::Addiu { rt: Reg(29), rs: Reg(29), imm: 32 });
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("ping_handler", f);
        b.add_import("websGetVar");
        b.add_import("system");
        b.add_cstring("param", "ping_IPAddr");
        b.add_cstring("empty", "");
        let bin = b.link().unwrap();

        let r = analyze(&bin);
        assert_eq!(r.vulnerabilities(), 1);
        let v = &r.vulnerable_paths()[0];
        assert_eq!(v.kind, VulnKindRepr::CommandInjection);
        assert_eq!(v.sources[0].name, "websGetVar");
    }

    /// Interprocedural: source in caller, sink in callee.
    #[test]
    fn cross_function_flow_detected() {
        let arch = Arch::Arm32e;
        let mut do_copy = Assembler::new(arch);
        do_copy.arm(ArmIns::SubI { rd: Reg::SP, rn: Reg::SP, imm: 0x40 });
        do_copy.arm(ArmIns::MovR { rd: Reg(1), rm: Reg(0) });
        do_copy.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 4 });
        do_copy.call("strcpy");
        do_copy.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x40 });
        do_copy.ret();
        let mut main = Assembler::new(arch);
        main.load_addr(Reg(0), "key");
        main.call("getenv");
        main.call("do_copy");
        main.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("main", main);
        b.add_function("do_copy", do_copy);
        b.add_import("getenv");
        b.add_import("strcpy");
        b.add_cstring("key", "QUERY_STRING");
        let bin = b.link().unwrap();

        let r = analyze(&bin);
        assert_eq!(r.vulnerabilities(), 1);
        let v = &r.vulnerable_paths()[0];
        assert_eq!(v.sink_fn, "do_copy");
        assert_eq!(v.observed_in, "main");
        assert_eq!(v.call_chain.len(), 1);
        // The interprocedural hop shows up as a typed callsite
        // substitution naming both ends.
        assert!(
            v.evidence.iter().any(|s| matches!(
                s,
                EvidenceStep::CallsiteSubstitution { caller, callee, .. }
                    if caller == "main" && callee == "do_copy"
            )),
            "missing callsite evidence: {:?}",
            v.evidence
        );
        assert!(v.to_string().contains("[chain: main →("), "{v}");
    }

    /// No sources at all → no findings, even with sinks present.
    #[test]
    fn sink_without_source_is_silent() {
        let arch = Arch::Arm32e;
        let mut f = Assembler::new(arch);
        f.load_addr(Reg(1), "lit");
        f.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: -64 });
        f.call("strcpy"); // copies a constant string
        f.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        b.add_import("strcpy");
        b.add_cstring("lit", "hello");
        let bin = b.link().unwrap();
        let r = analyze(&bin);
        assert!(r.findings.is_empty());
        assert_eq!(r.vulnerabilities(), 0);
        assert!(r.sinks_count >= 1, "the sink itself is still counted");
    }

    #[test]
    fn report_counts_match_structure() {
        let arch = Arch::Mips32e;
        let mut f = Assembler::new(arch);
        f.ret();
        let mut g = Assembler::new(arch);
        g.call("f");
        g.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("f", f);
        b.add_function("g", g);
        let bin = b.link().unwrap();
        let r = analyze(&bin);
        assert_eq!(r.functions, 2);
        assert_eq!(r.call_graph_edges, 1);
        assert_eq!(r.arch, "mips32e");
        // An untraced scan still clocks itself, from its lane-0 spans.
        assert!(r.stage("scan") > std::time::Duration::ZERO);
        for stage in
            ["lift_cfg", "ssa", "ddg", "ddg_alias", "ddg_indirect", "ddg_propagate", "detect"]
        {
            assert!(r.stage_us.contains_key(stage), "missing stage `{stage}`");
        }
    }

    #[test]
    fn function_filter_restricts_scope() {
        let arch = Arch::Arm32e;
        let mut vuln = Assembler::new(arch);
        vuln.load_addr(Reg(0), "name");
        vuln.call("getenv");
        vuln.call("system");
        vuln.ret();
        let mut other = Assembler::new(arch);
        other.ret();
        let mut b = BinaryBuilder::new(arch);
        b.add_function("http_cgi", vuln);
        b.add_function("boring", other);
        b.add_import("getenv");
        b.add_import("system");
        b.add_cstring("name", "X");
        let bin = b.link().unwrap();

        let config =
            DtaintConfig { function_filter: Some(vec!["boring".into()]), ..Default::default() };
        let r = Dtaint::with_config(config).analyze(&bin, "t").unwrap();
        assert_eq!(r.functions, 1);
        assert_eq!(r.vulnerabilities(), 0);

        let config =
            DtaintConfig { function_filter: Some(vec!["http".into()]), ..Default::default() };
        let r = Dtaint::with_config(config).analyze(&bin, "t").unwrap();
        assert_eq!(r.vulnerabilities(), 1);
    }
}
