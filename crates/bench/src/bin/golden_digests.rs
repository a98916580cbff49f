//! Rewrites `results/golden.json`: the digests of every golden
//! setting's scan outputs (see [`dtaint_bench::golden`]). Run it from
//! the workspace root after a change that moves an output on purpose,
//! and say in CHANGES.md which digest moved and why;
//! `tests/fused_pass.rs` fails until the file matches.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin golden_digests
//! ```

use dtaint_bench::golden::{matrix, render, run, GOLDEN_FILE};

fn main() {
    let mut settings = Vec::new();
    for spec in matrix() {
        settings.push(run(&spec));
        eprintln!("{spec:?}");
    }
    std::fs::write(GOLDEN_FILE, render(settings)).expect("write the golden file");
    println!("wrote {GOLDEN_FILE}");
}
