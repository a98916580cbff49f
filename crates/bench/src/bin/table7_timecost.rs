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
//! DTaint's columns are the `ssa` and `ddg` stage spans of a
//! `dtaint scan`-equivalent run ([`dtaint_bench::traced_scan`], one
//! thread). Its `ssa` span is the fused lift + CFG + symbolic-execution
//! pass, so the baseline SSA timer includes the baseline's own CFG
//! lift; its `ddg` span includes the taint judgement that runs inside
//! the propagation loop. Each timer and scan runs
//! [`dtaint_bench::TIMED_RUNS`] times, and each cell prints the median
//! with the min–max range; the speed-up is the ratio of the medians.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin table7_timecost
//! ```

use dtaint_baseline::{analyze_topdown, BaselineConfig};
use dtaint_bench::{render_table, scaled, traced_scan, ScanSpans, Timing, TIMED_RUNS};
use dtaint_cfg::{build_all_cfgs, CallGraph};
use dtaint_core::DtaintConfig;
use dtaint_fwgen::{build_firmware, table7_programs};
use dtaint_symex::{analyze_function, ExprPool};
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

        // Baseline SSA: lift every CFG, then the generic engine's
        // per-function execution with its larger default path budget.
        let generic = BaselineConfig::default().symex;
        let base_ssa = Timing::of((0..TIMED_RUNS).map(|_| {
            let t = Instant::now();
            let cfgs = build_all_cfgs(&fw.binary).expect("lifts");
            let mut pool = ExprPool::new();
            for c in &cfgs {
                let _ = analyze_function(&fw.binary, c, &mut pool, &generic);
            }
            t.elapsed().as_secs_f64()
        }));
        let cfgs = build_all_cfgs(&fw.binary).expect("lifts");
        let cg = CallGraph::build(&fw.binary, &cfgs);

        // Baseline DDG: top-down, context-cloning re-analysis.
        let base_config = BaselineConfig { max_depth: depth, ..Default::default() };
        let mut contexts = 0;
        let base_ddg = Timing::of((0..TIMED_RUNS).map(|_| {
            let t = Instant::now();
            contexts = analyze_topdown(&fw.binary, &cfgs, &cg, &base_config).contexts_analyzed;
            t.elapsed().as_secs_f64()
        }));

        // DTaint: a scan — the fused pass, then one bottom-up
        // propagation pass.
        let mut functions = 0;
        let scans: Vec<ScanSpans> = (0..TIMED_RUNS)
            .map(|_| {
                let (report, spans) =
                    traced_scan(&fw.binary, profile.binary_name, DtaintConfig::default());
                functions = report.functions;
                spans
            })
            .collect();
        let dt = |span: &str| Timing::of(scans.iter().map(|s| s.secs(span)));
        let dt_ddg = dt("ddg");

        rows.push(vec![
            profile.binary_name.to_owned(),
            base_ssa.render(1.0, 3),
            base_ddg.render(1.0, 3),
            dt("ssa").render(1.0, 3),
            dt_ddg.render(1.0, 3),
            format!("{:.1}x", base_ddg.median / dt_ddg.median.max(1e-9)),
            format!("{contexts} ctx / {functions} fns"),
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
    println!(
        "Each time is the median (min–max) of {TIMED_RUNS} runs; the speedup divides medians."
    );
    println!("Baseline SSA includes its CFG lift, as DTaint's fused `ssa` span does;");
    println!("DTaint DDG includes the taint judgement run inside its propagation loop.");
    println!();
    println!("paper reference (seconds, Angr SSA/DDG vs DTaint SSA/DDG):");
    println!("  cgibin     134.49 / 16,463.32   62.34 / 10.48");
    println!("  setup.cgi   39.17 /    539.68   33.85 /  1.21");
    println!("  httpd      106.92 / 22,195.45   60.92 /  8.87");
    println!("  openssl    102.94 /  7,345.56   47.33 /  3.09");
}
