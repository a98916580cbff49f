//! Table VI — "CPU, memory and time usage of prototype software":
//! peak memory and CPU time of the static-symbolic-analysis module vs
//! the data-flow-generation module.
//!
//! Memory is tracked with a counting global allocator (peak live bytes
//! per stage); CPU usage is reported as stage time over wall time —
//! the pipeline is run single-threaded here so the split is exact.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin table6_resources
//! ```

use dtaint_bench::{human_bytes, render_table, scaled, CountingAlloc};
use dtaint_cfg::{build_all_cfgs, CallGraph};
use dtaint_dataflow::{build_dataflow, DataflowConfig};
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};
use dtaint_telemetry::heap;
use std::time::Instant;

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
    let cfgs = build_all_cfgs(&fw.binary).expect("lifts");
    let mut cg = CallGraph::build(&fw.binary, &cfgs);
    let wall = Instant::now();

    // Stage 1: static symbolic analysis.
    heap::reset_peak();
    let t = Instant::now();
    let mut pool = ExprPool::new();
    let summaries: Vec<_> = cfgs
        .iter()
        .map(|c| analyze_function(&fw.binary, c, &mut pool, &SymexConfig::default()))
        .collect();
    let ssa_time = t.elapsed();
    let ssa_peak = heap::peak();

    // Stage 2: data-flow generation.
    heap::reset_peak();
    let t = Instant::now();
    let df = build_dataflow(&fw.binary, &mut cg, summaries, pool, &DataflowConfig::default());
    let ddg_time = t.elapsed();
    let ddg_peak = heap::peak();
    let wall = wall.elapsed();

    let rows = vec![
        vec![
            "Static symbolic analysis".to_owned(),
            format!("{:.0}%", 100.0 * ssa_time.as_secs_f64() / wall.as_secs_f64()),
            human_bytes(ssa_peak),
            format!("{ssa_time:.2?}"),
        ],
        vec![
            "Data flow generation".to_owned(),
            format!("{:.0}%", 100.0 * ddg_time.as_secs_f64() / wall.as_secs_f64()),
            human_bytes(ddg_peak),
            format!("{ddg_time:.2?}"),
        ],
    ];
    println!();
    print!("{}", render_table(&["Module", "CPU share", "Peak memory", "Time"], &rows));
    println!();
    println!("sinks observed: {}", df.finals.values().map(|f| f.sinks.len()).sum::<usize>());
    println!();
    println!("paper reference: SSA 25% CPU / 15.3GB; DDG 10% CPU / 208.9MB —");
    println!("the shape to reproduce: SSA dominates both CPU and memory.");
}
