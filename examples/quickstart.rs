//! Quickstart: assemble a tiny vulnerable firmware binary and scan it.
//!
//! Builds the classic router-CGI bug shape — an environment variable
//! flowing into `system()` unchecked (CVE-2015-2051 style) next to a
//! properly guarded twin — and runs the full DTaint pipeline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dtaint_core::Dtaint;
use dtaint_fwbin::arm::{ArmIns, Cond};
use dtaint_fwbin::asm::Assembler;
use dtaint_fwbin::link::BinaryBuilder;
use dtaint_fwbin::{Arch, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A vulnerable handler: system(getenv("SOAPAction")).
    let mut vulnerable = Assembler::new(Arch::Arm32e);
    vulnerable.load_addr(Reg(0), "soap_action");
    vulnerable.call("getenv");
    vulnerable.call("system");
    vulnerable.ret();

    // A guarded handler: rejects values starting with ';'.
    let mut guarded = Assembler::new(Arch::Arm32e);
    guarded.load_addr(Reg(0), "soap_action");
    guarded.call("getenv");
    guarded.arm(ArmIns::MovR { rd: Reg(4), rm: Reg(0) });
    guarded.arm(ArmIns::Ldrb { rt: Reg(5), rn: Reg(4), off: 0 });
    guarded.arm(ArmIns::CmpI { rn: Reg(5), imm: b';' as i16 });
    guarded.arm_b(Cond::Eq, "reject");
    guarded.arm(ArmIns::MovR { rd: Reg(0), rm: Reg(4) });
    guarded.call("system");
    guarded.label("reject");
    guarded.ret();

    let mut builder = BinaryBuilder::new(Arch::Arm32e);
    builder.add_function("soap_handler", vulnerable);
    builder.add_function("soap_handler_fixed", guarded);
    builder.add_import("getenv");
    builder.add_import("system");
    builder.add_cstring("soap_action", "SOAPAction");
    let binary = builder.link()?;

    println!(
        "assembled cgibin: {} bytes, {} functions",
        binary.total_size(),
        binary.functions().len()
    );

    let report = Dtaint::new().analyze(&binary, "cgibin")?;
    println!(
        "analysis: {} functions, {} blocks, {} sinks, {:.2?} total",
        report.functions,
        report.blocks,
        report.sinks_count,
        report.stage("scan")
    );
    println!();
    for finding in &report.findings {
        println!("{finding}");
    }
    println!();
    println!(
        "verdict: {} vulnerable path(s), {} distinct vulnerability(ies)",
        report.vulnerable_paths().len(),
        report.vulnerabilities()
    );
    assert_eq!(report.vulnerabilities(), 1, "the unguarded handler only");
    Ok(())
}
