//! The bounds-judgement matrix: one planted guard per row, judged in
//! each [`BoundsMode`] and probed in the emulator. The measurement
//! behind `extension_weak_bounds`; the root test `tests/ablation.rs`
//! holds its headline rows.

use dtaint_core::{BoundsMode, Dtaint, DtaintConfig};
use dtaint_emu::{validate, AttackConfig, Verdict};
use dtaint_fwbin::{Arch, Binary};
use dtaint_fwgen::compile;
use dtaint_fwgen::spec::{Callee, FnSpec, ProgramSpec, Stmt};
use dtaint_fwgen::templates::{plant, PlantKind, PlantSpec};

/// The guards: a label, the plant kind and whether it is the sanitized
/// twin.
pub const CASES: &[(&str, PlantKind, bool)] = &[
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

/// A one-plant ARM program whose `main` calls the plant's entry.
pub fn build(kind: PlantKind, sanitized: bool) -> Binary {
    let mut spec = ProgramSpec::new("wb");
    let gt = plant(&mut spec, &PlantSpec::new(kind, "w", sanitized, 0));
    let mut main = FnSpec::new("main", 0);
    main.push(Stmt::Call { callee: Callee::Func(gt.entry_fn), args: vec![], ret: None });
    main.push(Stmt::Return(None));
    spec.func(main);
    compile(&spec, Arch::Arm32e).unwrap()
}

/// The static verdict in one bounds mode: `FLAGGED` or `clean`.
pub fn verdict(bin: &Binary, bounds: BoundsMode) -> &'static str {
    let mut config = DtaintConfig::default();
    config.dataflow.bounds = bounds;
    let r = Dtaint::with_config(config).analyze(bin, "wb").unwrap();
    if r.vulnerabilities() > 0 {
        "FLAGGED"
    } else {
        "clean"
    }
}

/// The concrete verdict of a 1000-byte emulator probe from `main`:
/// `crash: …`, `injected`, `survived` or `hang`.
pub fn probe(bin: &Binary) -> String {
    let attack = AttackConfig { overflow_len: 1000, input_frames: 2, ..Default::default() };
    match validate(bin, "main", &attack) {
        Verdict::MemoryCorruption(f) => format!("crash: {f}"),
        Verdict::CommandInjected(_) => "injected".into(),
        Verdict::NoEffect => "survived".into(),
        Verdict::Hang => "hang".into(),
    }
}
