//! The interval abstract-interpretation extension: symbolic guards are
//! resolved through definition pairs, destination capacity covers named
//! globals, contradictory paths are suppressed, and counted loops are
//! judged by trip count. Each static verdict is cross-checked against
//! the paper-faithful and strict modes (documenting the gaps those
//! close) and against the concrete emulator.

use dtaint_core::{BoundsMode, Dtaint, DtaintConfig};
use dtaint_emu::{validate, AttackConfig, Verdict};
use dtaint_fwbin::Arch;
use dtaint_fwgen::compile;
use dtaint_fwgen::spec::{Callee, FnSpec, ProgramSpec, Stmt};
use dtaint_fwgen::templates::{plant, PlantKind, PlantSpec};

fn build(kind: PlantKind, sanitized: bool, arch: Arch) -> dtaint_fwbin::Binary {
    let mut spec = ProgramSpec::new("iv");
    let gt = plant(&mut spec, &PlantSpec::new(kind, "t", sanitized, 0));
    let mut main = FnSpec::new("main", 0);
    main.push(Stmt::Call { callee: Callee::Func(gt.entry_fn), args: vec![], ret: None });
    main.push(Stmt::Return(None));
    spec.func(main);
    compile(&spec, arch).unwrap()
}

fn analyze(bin: &dtaint_fwbin::Binary, bounds: BoundsMode) -> dtaint_core::AnalysisReport {
    let config = DtaintConfig { bounds, ..Default::default() };
    Dtaint::with_config(config).analyze(bin, "iv").unwrap()
}

#[test]
fn interval_mode_resolves_symbolic_guards() {
    for arch in [Arch::Arm32e, Arch::Mips32e] {
        // `if (n < y)` with y = 1024 against a 256-byte stack buffer:
        // both syntactic modes trust the guard, the interval solver
        // resolves y and rejects it.
        let weak = build(PlantKind::BofSymbolicBound, false, arch);
        assert_eq!(analyze(&weak, BoundsMode::Paper).vulnerabilities(), 0, "{arch}: paper gap");
        assert_eq!(analyze(&weak, BoundsMode::Strict).vulnerabilities(), 0, "{arch}: strict gap");
        assert_eq!(
            analyze(&weak, BoundsMode::Interval).vulnerabilities(),
            1,
            "{arch}: interval flags"
        );
        // y = 200 fits: stays sanitized in interval mode too.
        let fitting = build(PlantKind::BofSymbolicBound, true, arch);
        let r = analyze(&fitting, BoundsMode::Interval);
        assert_eq!(r.vulnerabilities(), 0, "{arch}: fitting symbolic bound is sanitisation");
        assert!(r.findings.iter().any(|f| f.sanitized()), "{arch}: the flow is seen");
    }
}

#[test]
fn infeasible_paths_are_suppressed() {
    for arch in [Arch::Arm32e, Arch::Mips32e] {
        // `if (sel == 5) { if (sel == 7) { memcpy } }` is dead code:
        // the syntactic modes report it (Eq guards are not bounding),
        // the interval mode proves the contradiction and drops it.
        let dead = build(PlantKind::BofInfeasiblePath, true, arch);
        assert_eq!(analyze(&dead, BoundsMode::Paper).vulnerabilities(), 1, "{arch}: paper FP");
        assert_eq!(analyze(&dead, BoundsMode::Strict).vulnerabilities(), 1, "{arch}: strict FP");
        let r = analyze(&dead, BoundsMode::Interval);
        assert_eq!(r.vulnerabilities(), 0, "{arch}: contradictory path suppressed");
        assert!(r.infeasible_suppressed >= 1, "{arch}: suppression is counted");
        // The feasible single-check twin stays a finding everywhere.
        let live = build(PlantKind::BofInfeasiblePath, false, arch);
        let r = analyze(&live, BoundsMode::Interval);
        assert_eq!(r.vulnerabilities(), 1, "{arch}: consistent selector path is kept");
    }
}

#[test]
fn interval_verdicts_match_the_emulator() {
    let attack = AttackConfig { overflow_len: 1000, input_frames: 2, ..Default::default() };
    // The oversized symbolic guard admits a 1000-byte copy into 256.
    let bin = build(PlantKind::BofSymbolicBound, false, Arch::Arm32e);
    assert!(
        matches!(validate(&bin, "main", &attack), Verdict::MemoryCorruption(_)),
        "y = 1024 lets 1000 bytes through a 256-byte buffer"
    );
    // The fitting guard blocks the same probe.
    let bin = build(PlantKind::BofSymbolicBound, true, Arch::Arm32e);
    assert_eq!(validate(&bin, "main", &attack), Verdict::NoEffect);
    // The dead selector path never executes its copy.
    let bin = build(PlantKind::BofInfeasiblePath, true, Arch::Arm32e);
    assert_eq!(validate(&bin, "main", &attack), Verdict::NoEffect);
    // The live selector path does, and crashes.
    let bin = build(PlantKind::BofInfeasiblePath, false, Arch::Arm32e);
    assert!(matches!(validate(&bin, "main", &attack), Verdict::MemoryCorruption(_)));
}

#[test]
fn global_destinations_get_object_capacity() {
    for arch in [Arch::Arm32e, Arch::Mips32e] {
        // `if (n < 1024) memcpy(g_dst64, buf, n)`: no stack capacity, so
        // strict mode falls back to trusting the guard; the interval
        // mode measures the 64-byte object symbol.
        let weak = build(PlantKind::BofGlobalDst, false, arch);
        assert_eq!(analyze(&weak, BoundsMode::Strict).vulnerabilities(), 0, "{arch}: strict gap");
        assert_eq!(
            analyze(&weak, BoundsMode::Interval).vulnerabilities(),
            1,
            "{arch}: interval flags"
        );
        let fitting = build(PlantKind::BofGlobalDst, true, arch);
        assert_eq!(
            analyze(&fitting, BoundsMode::Interval).vulnerabilities(),
            0,
            "{arch}: n < 48 fits"
        );
    }
}

#[test]
fn oversized_counted_loops_are_judged_by_trip_count() {
    for arch in [Arch::Arm32e, Arch::Mips32e] {
        // A counted 1024-byte loop into a 64-byte stack buffer: the
        // paper's judgement accepts any counted loop.
        let weak = build(PlantKind::BofLoopcopyOversized, false, arch);
        assert_eq!(analyze(&weak, BoundsMode::Paper).vulnerabilities(), 0, "{arch}: paper gap");
        assert_eq!(
            analyze(&weak, BoundsMode::Interval).vulnerabilities(),
            1,
            "{arch}: interval flags"
        );
        let fitting = build(PlantKind::BofLoopcopyOversized, true, arch);
        assert_eq!(analyze(&fitting, BoundsMode::Interval).vulnerabilities(), 0, "{arch}: 48 fits");
    }
    // And the oversized loop really smashes the frame.
    let bin = build(PlantKind::BofLoopcopyOversized, false, Arch::Arm32e);
    let attack = AttackConfig { overflow_len: 1000, input_frames: 2, ..Default::default() };
    assert!(matches!(validate(&bin, "main", &attack), Verdict::MemoryCorruption(_)));
}

#[test]
fn interval_findings_are_deterministic_across_threads() {
    // One binary with every interval-sensitive plant, vulnerable and
    // sanitised twins side by side.
    let mut spec = ProgramSpec::new("det");
    let mut main = FnSpec::new("main", 0);
    let kinds = [
        PlantKind::BofSymbolicBound,
        PlantKind::BofInfeasiblePath,
        PlantKind::BofGlobalDst,
        PlantKind::BofLoopcopyOversized,
        PlantKind::BofWeakBound,
    ];
    for (i, kind) in kinds.iter().enumerate() {
        for sanitized in [false, true] {
            let id = format!("p{i}{}", u8::from(sanitized));
            let gt = plant(&mut spec, &PlantSpec::new(*kind, &id, sanitized, 0));
            main.push(Stmt::Call { callee: Callee::Func(gt.entry_fn), args: vec![], ret: None });
        }
    }
    main.push(Stmt::Return(None));
    spec.func(main);
    let bin = compile(&spec, Arch::Arm32e).unwrap();

    let run = |threads: usize| {
        let config =
            DtaintConfig { bounds: BoundsMode::Interval, threads, ..DtaintConfig::default() };
        Dtaint::with_config(config).analyze(&bin, "det").unwrap()
    };
    let seq = run(1);
    let par = run(4);
    assert!(seq.vulnerabilities() >= 4, "all planted vulns present: {}", seq.vulnerabilities());
    assert_eq!(
        serde_json::to_string(&seq.findings).unwrap(),
        serde_json::to_string(&par.findings).unwrap(),
        "findings must be bit-identical across thread counts"
    );
    assert_eq!(seq.infeasible_suppressed, par.infeasible_suppressed);
}
