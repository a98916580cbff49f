//! Executable versions of the paper's worked examples: the Figure 5–7
//! `foo`/`woo` program, the Heartbleed listing of Figures 2–3, and the
//! §III-C pointer-alias formula.

use dtaint_core::{Dtaint, VulnKind};
use dtaint_fwbin::arm::ArmIns;
use dtaint_fwbin::asm::Assembler;
use dtaint_fwbin::link::BinaryBuilder;
use dtaint_fwbin::{Arch, Reg};
use dtaint_fwgen::codegen::compile;
use dtaint_fwgen::profiles::add_heartbleed;
use dtaint_fwgen::spec::{Callee, FnSpec, ProgramSpec, Stmt, Val};

/// Figure 5's assembly, transliterated to the arm32e dialect:
///
/// ```text
/// woo: LDR R5,[R1,0x24]; STR R5,[R0,0x4C]; …; BL recv
/// foo: SUB SP,0x118; …; BL woo; …; LDR R1,[Rx,0x4C]; BL memcpy
/// ```
#[test]
fn figure5_foo_woo_flow_is_a_vulnerability() {
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
    foo.arm(ArmIns::MovR { rd: Reg(11), rm: Reg(0) });
    foo.call("woo");
    foo.arm(ArmIns::MovR { rd: Reg(2), rm: Reg(0) }); // n = recv length
    foo.arm(ArmIns::Ldr { rt: Reg(1), rn: Reg(11), off: 0x4c });
    foo.arm(ArmIns::AddI { rd: Reg(0), rn: Reg::SP, imm: 0x18 });
    foo.call("memcpy");
    foo.arm(ArmIns::AddI { rd: Reg::SP, rn: Reg::SP, imm: 0x118 });
    foo.ret();

    let mut b = BinaryBuilder::new(arch);
    b.add_function("foo", foo);
    b.add_function("woo", woo);
    b.add_import("recv");
    b.add_import("memcpy");
    let bin = b.link().unwrap();

    let r = Dtaint::new().analyze(&bin, "figure5").unwrap();
    let v = r.vulnerable_paths();
    assert_eq!(r.vulnerabilities(), 1);
    assert_eq!(v[0].kind, VulnKind::BufferOverflow);
    assert_eq!(v[0].sink, "memcpy");
    assert_eq!(v[0].sink_fn, "foo");
    assert_eq!(v[0].sources[0].name, "recv");
    // The data flowed through the structure field written in woo.
    assert_eq!(v[0].observed_in, "foo");
}

/// Figures 2–3: the Heartbleed flow across `ssl3_read_bytes`,
/// `ssl3_read_n`, and `tls1_process_heartbeat`, with `n2s` inlined.
#[test]
fn heartbleed_memcpy_length_traces_to_bio_read() {
    let mut spec = ProgramSpec::new("openssl");
    add_heartbleed(&mut spec);
    let mut main = FnSpec::new("main", 0);
    main.push(Stmt::Call {
        callee: Callee::Func("ssl3_read_bytes".into()),
        args: vec![Val::GlobalAddr("g_ssl".into())],
        ret: None,
    });
    main.push(Stmt::Return(None));
    spec.func(main);
    let bin = compile(&spec, Arch::Arm32e).unwrap();
    let r = Dtaint::new().analyze(&bin, "openssl").unwrap();
    let hb = r
        .vulnerable_paths()
        .into_iter()
        .find(|f| f.sink == "memcpy")
        .expect("heartbleed memcpy found");
    assert!(hb.sources.iter().any(|s| s.name == "BIO_read"));
    assert!(
        hb.tainted_expr.contains("<< 8"),
        "the n2s byte-combination survives into the report: {}",
        hb.tainted_expr
    );
    assert_eq!(hb.sink_fn, "tls1_process_heartbeat");
}

/// §III-C: `int *p = x; *(q+4) = p;` makes `*(*(q+4))` and `*p`
/// aliases. A taint written through one name must be seen through the
/// other.
#[test]
fn pointer_alias_through_store_connects_the_flow() {
    let arch = Arch::Arm32e;
    // store_ptr(q, p): *(q+4) = p
    let mut store_ptr = Assembler::new(arch);
    store_ptr.arm(ArmIns::Str { rt: Reg(1), rn: Reg(0), off: 4 });
    store_ptr.ret();
    // fill(p): recv(0, p, 64, 0)
    let mut fill = Assembler::new(arch);
    fill.arm(ArmIns::MovR { rd: Reg(1), rm: Reg(0) });
    fill.arm(ArmIns::MovI { rd: Reg(0), imm: 0 });
    fill.arm(ArmIns::MovI { rd: Reg(2), imm: 64 });
    fill.arm(ArmIns::MovI { rd: Reg(3), imm: 0 });
    fill.call("recv");
    fill.ret();
    // use_alias(q): system(*(q+4)) — the data arrives via the alias.
    let mut use_alias = Assembler::new(arch);
    use_alias.arm(ArmIns::Ldr { rt: Reg(0), rn: Reg(0), off: 4 });
    use_alias.call("system");
    use_alias.ret();
    // main: q = g_q; p = g_buf; store_ptr(q, p); fill(p); use_alias(q)
    let mut main = Assembler::new(arch);
    main.load_addr(Reg(4), "g_q");
    main.load_addr(Reg(5), "g_buf");
    main.arm(ArmIns::MovR { rd: Reg(0), rm: Reg(4) });
    main.arm(ArmIns::MovR { rd: Reg(1), rm: Reg(5) });
    main.call("store_ptr");
    main.arm(ArmIns::MovR { rd: Reg(0), rm: Reg(5) });
    main.call("fill");
    main.arm(ArmIns::MovR { rd: Reg(0), rm: Reg(4) });
    main.call("use_alias");
    main.ret();

    let mut b = BinaryBuilder::new(arch);
    b.add_function("main", main);
    b.add_function("store_ptr", store_ptr);
    b.add_function("fill", fill);
    b.add_function("use_alias", use_alias);
    b.add_import("recv");
    b.add_import("system");
    b.add_bss("g_q", 16);
    b.add_bss("g_buf", 64);
    let bin = b.link().unwrap();

    let r = Dtaint::new().analyze(&bin, "alias").unwrap();
    let v = r.vulnerable_paths();
    assert!(
        v.iter().any(|f| f.sink == "system" && f.sources.iter().any(|s| s.name == "recv")),
        "taint must flow through the stored-pointer alias: {:?}",
        v.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
}

/// Table I, as printed by the configuration.
#[test]
fn table1_sources_and_sinks_match_the_paper() {
    let sinks: Vec<&str> = dtaint_core::SINK_SPECS.iter().map(|s| s.name).collect();
    assert_eq!(
        sinks,
        ["strcpy", "strncpy", "sprintf", "memcpy", "strcat", "sscanf", "system", "popen"]
    );
    for source in
        ["read", "recv", "recvfrom", "recvmsg", "getenv", "fgets", "websGetVar", "find_var"]
    {
        assert!(dtaint_core::SOURCE_NAMES.contains(&source), "{source}");
    }
}
