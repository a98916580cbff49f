//! Table VI — "CPU, memory and time usage of prototype software":
//! peak memory and CPU time of the static-symbolic-analysis module vs
//! the data-flow-generation module.
//!
//! Every figure is read from the spans of a `dtaint scan`-equivalent
//! run ([`dtaint_bench::traced_scan`], one thread): time from the `ssa`
//! and `ddg` stage spans, CPU share as that time over the `scan` root
//! span, and peak memory from each span's `peak_bytes` (the counting
//! allocator is installed below). The scan runs
//! [`dtaint_bench::TIMED_RUNS`] times: times and shares print as the
//! median with the min–max range, and the peaks, which repeat exactly
//! from one invocation to the next, print once, from the first run.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin table6_resources
//! ```

use dtaint_bench::{
    human_bytes, render_table, scaled, traced_scan, CountingAlloc, ScanSpans, Timing, TIMED_RUNS,
};
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
    let scan = || traced_scan(&fw.binary, profile.binary_name, DtaintConfig::default());
    // Peaks come from the first run: later runs start with its results
    // still live.
    let (report, first) = scan();
    let peak = |span: &str| human_bytes(first.get(span).args["peak_bytes"] as usize);
    let peaks = [peak("ssa"), peak("ddg")];
    let runs: Vec<ScanSpans> =
        std::iter::once(first).chain((1..TIMED_RUNS).map(|_| scan().1)).collect();
    let across = |f: &dyn Fn(&ScanSpans) -> f64| Timing::of(runs.iter().map(f));
    let rows = [("Static symbolic analysis", "ssa"), ("Data flow generation", "ddg")]
        .into_iter()
        .zip(peaks)
        .map(|((module, span), peak)| {
            vec![
                module.to_owned(),
                across(&|s| s.secs(span) / s.secs("scan")).render(100.0, 0),
                peak,
                across(&|s| s.secs(span)).render(1e3, 2),
            ]
        })
        .collect::<Vec<_>>();
    println!();
    print!("{}", render_table(&["Module", "CPU share (%)", "Peak memory", "Time (ms)"], &rows));
    println!();
    println!(
        "scan: {} ms over {} functions, {} sink call sites",
        across(&|s| s.secs("scan")).render(1e3, 2),
        report.functions,
        report.sinks_count
    );
    println!("Each time and share is the median (min–max) of {TIMED_RUNS} runs.");
    println!("SSA is the fused lift + symex pass; DDG includes the taint judgement run");
    println!("inside propagation. Peak memory is the live heap, loaded image included.");
    println!();
    println!("paper reference: SSA 25% CPU / 15.3GB; DDG 10% CPU / 208.9MB —");
    println!("the shape to reproduce: SSA dominates both CPU and memory.");
}
