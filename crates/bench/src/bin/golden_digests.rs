//! Rewrites `results/golden.json`: the digests of every Table II
//! profile's scan outputs at one and two threads (see
//! [`dtaint_bench::golden`]). Run it from the workspace root after a
//! change that moves an output on purpose, and say in CHANGES.md which
//! digest moved and why; `tests/fused_pass.rs` fails until the file
//! matches.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin golden_digests
//! ```

use dtaint_bench::golden::{render, scan, setting, GOLDEN_FILE, THREADS};
use dtaint_fwgen::{build_firmware, table2_profiles};

fn main() {
    let mut settings = Vec::new();
    for (i, p) in table2_profiles().into_iter().enumerate() {
        let bin = build_firmware(&p).binary;
        for threads in THREADS {
            let (report, tel) = scan(&bin, p.binary_name, threads);
            settings.push(setting(i + 1, p.manufacturer, &report, &tel, threads));
            eprintln!("profile {} ({}) at {threads} thread(s)", i + 1, p.binary_name);
        }
    }
    std::fs::write(GOLDEN_FILE, render(settings)).expect("write the golden file");
    println!("wrote {GOLDEN_FILE}");
}
