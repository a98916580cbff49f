//! Table VII — "Time cost between Angr and DTaint": SSA and DDG
//! seconds on the four subject programs (`cgibin`, `setup.cgi`,
//! `httpd`, `openssl`), with the conventional top-down context-cloning
//! generator standing in for angr.
//!
//! The shape to reproduce: comparable SSA costs, and a DDG gap of
//! orders of magnitude in DTaint's favour, growing with call-graph
//! density — because the baseline re-analyzes every function once per
//! calling context while DTaint's bottom-up pass analyzes each exactly
//! once.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin table7_timecost
//! ```

use dtaint_baseline::{analyze_topdown, BaselineConfig};
use dtaint_bench::{render_table, scaled};
use dtaint_cfg::{build_all_cfgs, CallGraph};
use dtaint_dataflow::{build_dataflow, DataflowConfig};
use dtaint_fwgen::{build_firmware, table7_programs};
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};
use std::time::Instant;

fn main() {
    let depth: usize =
        std::env::var("DTAINT_BASELINE_DEPTH").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    println!("Table VII: time cost, baseline (angr-style) vs DTaint");
    println!(
        "(scale factor {}, baseline context depth {depth} — raise DTAINT_BASELINE_DEPTH to widen the gap)",
        dtaint_bench::scale()
    );
    println!();
    let mut rows = Vec::new();
    for profile in table7_programs() {
        let profile = scaled(profile);
        let fw = build_firmware(&profile);
        let cfgs = build_all_cfgs(&fw.binary).expect("lifts");
        let mut cg = CallGraph::build(&fw.binary, &cfgs);

        // Baseline SSA: the generic engine's per-function execution with
        // its larger default path budget.
        let t = Instant::now();
        {
            let mut pool = ExprPool::new();
            let generic = BaselineConfig::default().symex;
            for c in &cfgs {
                let _ = analyze_function(&fw.binary, c, &mut pool, &generic);
            }
        }
        let base_ssa = t.elapsed();

        // Baseline DDG: top-down, context-cloning re-analysis.
        let t = Instant::now();
        let base_config = BaselineConfig { max_depth: depth, ..Default::default() };
        let base = analyze_topdown(&fw.binary, &cfgs, &cg, &base_config);
        let base_ddg = t.elapsed();

        // DTaint SSA: one pass per function.
        let t = Instant::now();
        let mut pool = ExprPool::new();
        let summaries: Vec<_> = cfgs
            .iter()
            .map(|c| analyze_function(&fw.binary, c, &mut pool, &SymexConfig::default()))
            .collect();
        let dt_ssa = t.elapsed();

        // DTaint DDG: one bottom-up propagation pass.
        let t = Instant::now();
        let df = build_dataflow(&fw.binary, &mut cg, summaries, pool, &DataflowConfig::default());
        let dt_ddg = t.elapsed();

        rows.push(vec![
            profile.binary_name.to_owned(),
            format!("{:.3}", base_ssa.as_secs_f64()),
            format!("{:.3}", base_ddg.as_secs_f64()),
            format!("{:.3}", dt_ssa.as_secs_f64()),
            format!("{:.3}", dt_ddg.as_secs_f64()),
            format!("{:.1}x", base_ddg.as_secs_f64() / dt_ddg.as_secs_f64().max(1e-9)),
            format!("{} ctx / {} fns", base.contexts_analyzed, df.order.len()),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "Program",
                "Baseline SSA (s)",
                "Baseline DDG (s)",
                "DTaint SSA (s)",
                "DTaint DDG (s)",
                "DDG speedup",
                "Re-analysis"
            ],
            &rows
        )
    );
    println!();
    println!("paper reference (seconds, Angr SSA/DDG vs DTaint SSA/DDG):");
    println!("  cgibin     134.49 / 16,463.32   62.34 / 10.48");
    println!("  setup.cgi   39.17 /    539.68   33.85 /  1.21");
    println!("  httpd      106.92 / 22,195.45   60.92 /  8.87");
    println!("  openssl    102.94 /  7,345.56   47.33 /  3.09");
}
