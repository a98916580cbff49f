//! Table III — "The summary of the taint-style vulnerabilities that
//! DTaint found": analyzed functions, sink counts, execution time,
//! vulnerable paths, and vulnerabilities per firmware image — scored
//! against planted ground truth, which the paper could only approximate
//! by manual validation.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin table3_detection
//! ```

use dtaint_bench::{analyze_profile, render_table, scaled};
use dtaint_fwgen::table2_profiles;

fn main() {
    println!("Table III: taint-style vulnerabilities found by DTaint");
    println!("(scale factor {})", dtaint_bench::scale());
    println!();
    let mut rows = Vec::new();
    let mut total_vulns = 0;
    let mut total_expected = 0;
    for profile in table2_profiles() {
        let profile = scaled(profile);
        let (fw, report) = analyze_profile(&profile);
        let expected = fw.ground_truth.iter().filter(|g| !g.sanitized).count();
        total_vulns += report.vulnerabilities();
        total_expected += expected;
        rows.push(vec![
            format!("{} {}", profile.manufacturer, profile.firmware_version),
            report.functions.to_string(),
            report.sinks_count.to_string(),
            format!("{:.2}", report.stage("scan").as_secs_f64() / 60.0),
            report.vulnerable_paths().len().to_string(),
            report.vulnerabilities().to_string(),
            format!("{expected} planted"),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "Firmware",
                "Analysis functions",
                "Sinks count",
                "Time (minutes)",
                "Vulnerable paths",
                "Vulnerability",
                "Ground truth"
            ],
            &rows
        )
    );
    println!();
    println!("detected {total_vulns} vulnerabilities; ground truth {total_expected} (paper: 21)");
    println!();
    println!("paper reference (functions / sinks / minutes / paths / vulns):");
    println!("  DIR-645    237 /   176 /  1.18 /  7 / 4");
    println!("  DIR-890L   358 /   276 /  1.48 /  5 / 2");
    println!("  DGN1000    732 /   958 /  3.19 / 19 / 6");
    println!("  DGN2200    796 / 1,264 /  6.62 / 14 / 2");
    println!("  IPC_6201   430 /   447 /  3.97 / 10 / 1");
    println!("  DS-2CD6  3,233 / 2,052 / 31.89 / 30 / 6");
}
