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
//! emulator probe.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin extension_weak_bounds
//! ```

use dtaint_bench::render_table;
use dtaint_core::{BoundsMode, Dtaint, DtaintConfig};
use dtaint_emu::{validate, AttackConfig, Verdict};
use dtaint_fwbin::Arch;
use dtaint_fwgen::compile;
use dtaint_fwgen::spec::{Callee, FnSpec, ProgramSpec, Stmt};
use dtaint_fwgen::templates::{plant, PlantKind, PlantSpec};

fn build(kind: PlantKind, sanitized: bool) -> dtaint_fwbin::Binary {
    let mut spec = ProgramSpec::new("wb");
    let gt = plant(&mut spec, &PlantSpec::new(kind, "w", sanitized, 0));
    let mut main = FnSpec::new("main", 0);
    main.push(Stmt::Call { callee: Callee::Func(gt.entry_fn), args: vec![], ret: None });
    main.push(Stmt::Return(None));
    spec.func(main);
    compile(&spec, Arch::Arm32e).unwrap()
}

fn verdict(bin: &dtaint_fwbin::Binary, bounds: BoundsMode) -> &'static str {
    let config = DtaintConfig { bounds, ..Default::default() };
    let r = Dtaint::with_config(config).analyze(bin, "wb").unwrap();
    if r.vulnerabilities() > 0 {
        "FLAGGED"
    } else {
        "clean"
    }
}

fn main() {
    println!("bounds-judgement extensions: paper vs strict vs interval");
    println!();
    let cases: &[(&str, PlantKind, bool)] = &[
        ("if (n < 1024) memcpy(dst256, …, n)", PlantKind::BofWeakBound, false),
        ("if (n < 200) memcpy(dst256, …, n)", PlantKind::BofWeakBound, true),
        ("if (n < y) …, y = 1024 from init()", PlantKind::BofSymbolicBound, false),
        ("if (n < y) …, y = 200 from init()", PlantKind::BofSymbolicBound, true),
        ("if (n < 1024) memcpy(g_dst64, …, n)", PlantKind::BofGlobalDst, false),
        ("if (n < 48) memcpy(g_dst64, …, n)", PlantKind::BofGlobalDst, true),
        ("counted 1024-byte loop into dst64", PlantKind::BofLoopcopyOversized, false),
        ("counted 48-byte loop into dst64", PlantKind::BofLoopcopyOversized, true),
        ("if (sel==5 && sel==7) memcpy (dead)", PlantKind::BofInfeasiblePath, true),
        ("if (sel==5) memcpy, init sel=5", PlantKind::BofInfeasiblePath, false),
    ];
    let mut rows = Vec::new();
    for &(label, kind, sanitized) in cases {
        let bin = build(kind, sanitized);
        let paper = verdict(&bin, BoundsMode::Paper);
        let strict = verdict(&bin, BoundsMode::Strict);
        let interval = verdict(&bin, BoundsMode::Interval);
        let attack = AttackConfig { overflow_len: 1000, input_frames: 2, ..Default::default() };
        let dynamic = match validate(&bin, "main", &attack) {
            Verdict::MemoryCorruption(f) => format!("crash: {f}"),
            Verdict::CommandInjected(_) => "injected".into(),
            Verdict::NoEffect => "survived".into(),
            Verdict::Hang => "hang".into(),
        };
        rows.push(vec![
            label.to_owned(),
            paper.to_owned(),
            strict.to_owned(),
            interval.to_owned(),
            dynamic.clone(),
        ]);

        // The headline rows: both syntactic modes wrong, interval right,
        // emulator agreeing. Guard the claim so the table cannot rot.
        let crashed = dynamic.starts_with("crash");
        match (kind, sanitized) {
            (PlantKind::BofSymbolicBound, false) => {
                assert_eq!((paper, strict, interval), ("clean", "clean", "FLAGGED"));
                assert!(crashed, "oversized symbolic guard must be exploitable");
            }
            (PlantKind::BofInfeasiblePath, true) => {
                assert_eq!((paper, strict, interval), ("FLAGGED", "FLAGGED", "clean"));
                assert!(!crashed, "dead code cannot crash");
            }
            _ => {}
        }
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
