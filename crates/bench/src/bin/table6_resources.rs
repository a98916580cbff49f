//! Table VI — "CPU, memory and time usage of prototype software":
//! peak memory and CPU time of the static-symbolic-analysis module vs
//! the data-flow-generation module.
//!
//! Every figure is read from the spans of one `dtaint scan`-equivalent
//! run ([`dtaint_bench::traced_scan`], one thread): time from the `ssa`
//! and `ddg` stage spans, CPU share as that time over the `scan` root
//! span, and peak memory from each span's `peak_bytes` (the counting
//! allocator is installed below).
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin table6_resources
//! ```

use dtaint_bench::{human_bytes, render_table, scaled, traced_scan, CountingAlloc};
use dtaint_core::DtaintConfig;
use dtaint_fwgen::{build_firmware, table2_profiles};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    // The paper measured the prototype on the DGN2200 httpd-class
    // binaries; use the Table II row 4 profile.
    let profile = scaled(table2_profiles().remove(3));
    println!(
        "Table VI: resource usage (subject: {} {}, scale {})",
        profile.manufacturer,
        profile.firmware_version,
        dtaint_bench::scale()
    );
    let fw = build_firmware(&profile);
    let (report, spans) = traced_scan(&fw.binary, profile.binary_name, DtaintConfig::default());
    let wall = spans.secs("scan");
    let rows = [("Static symbolic analysis", "ssa"), ("Data flow generation", "ddg")]
        .map(|(module, span)| {
            vec![
                module.to_owned(),
                format!("{:.0}%", 100.0 * spans.secs(span) / wall),
                human_bytes(spans.get(span).args["peak_bytes"] as usize),
                format!("{:.2}ms", spans.secs(span) * 1e3),
            ]
        })
        .to_vec();
    println!();
    print!("{}", render_table(&["Module", "CPU share", "Peak memory", "Time"], &rows));
    println!();
    println!(
        "scan: {:.2}ms over {} functions, {} sink call sites",
        wall * 1e3,
        report.functions,
        report.sinks_count
    );
    println!("SSA is the fused lift + symex pass; DDG includes the taint judgement run");
    println!("inside propagation. Peak memory is the live heap, loaded image included.");
    println!();
    println!("paper reference: SSA 25% CPU / 15.3GB; DDG 10% CPU / 208.9MB —");
    println!("the shape to reproduce: SSA dominates both CPU and memory.");
}
