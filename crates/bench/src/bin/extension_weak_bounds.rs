//! The bounds-judgement extensions in action (beyond the paper).
//!
//! The paper's sanitisation check is syntactic: *any* bounding
//! constraint on the tainted length counts. A guard that does not fit
//! the destination (`if (n < 1024)` into a 256-byte buffer) therefore
//! silences the report while the flow stays exploitable. Two extensions
//! close the gap in stages:
//!
//! * **strict bounds** — constant guards are compared against the
//!   destination's stack capacity;
//! * **interval guards** — path constraints are evaluated over an
//!   interval abstract domain, so *symbolic* guards (`if (n < y)`),
//!   global destinations, oversized counted loops, and contradictory
//!   (infeasible) paths are judged too.
//!
//! Every static verdict is cross-checked against a concrete 1000-byte
//! emulator probe. `tests/ablation.rs` holds the headline rows: both
//! syntactic modes wrong, interval right, the emulator agreeing.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin extension_weak_bounds
//! ```

use dtaint_bench::render_table;
use dtaint_bench::weak_bounds::{build, probe, verdict, CASES};
use dtaint_core::BoundsMode;

fn main() {
    println!("bounds-judgement extensions: paper vs strict vs interval");
    println!();
    let mut rows = Vec::new();
    for &(label, kind, sanitized) in CASES {
        let bin = build(kind, sanitized);
        rows.push(vec![
            label.to_owned(),
            verdict(&bin, BoundsMode::Paper).to_owned(),
            verdict(&bin, BoundsMode::Strict).to_owned(),
            verdict(&bin, BoundsMode::Interval).to_owned(),
            probe(&bin),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["Guard", "Paper-faithful", "Strict-bounds", "Interval", "Concrete (1000-byte probe)"],
            &rows
        )
    );
    println!();
    println!("the weak, symbolic, global-destination and counted-loop guards fool the");
    println!("syntactic checks; the interval solver rates each against the destination");
    println!("capacity, discards the contradictory path, and the emulator agrees.");
}
