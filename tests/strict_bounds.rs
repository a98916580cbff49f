//! The strict-bounds extension: a length check that does not fit the
//! destination buffer is not sanitisation. Verified three ways — the
//! default (paper-faithful) detector misses it, the strict detector
//! flags it, and the emulator proves it exploitable.

use dtaint_core::{BoundsMode, Dtaint, DtaintConfig};
use dtaint_emu::{validate, AttackConfig, Verdict};
use dtaint_fwbin::Arch;
use dtaint_fwgen::compile;
use dtaint_fwgen::spec::{Callee, FnSpec, ProgramSpec, Stmt};
use dtaint_fwgen::templates::{plant, PlantKind, PlantSpec};

fn build(sanitized: bool, arch: Arch) -> dtaint_fwbin::Binary {
    let mut spec = ProgramSpec::new("wb");
    let gt = plant(&mut spec, &PlantSpec::new(PlantKind::BofWeakBound, "w", sanitized, 0));
    let mut main = FnSpec::new("main", 0);
    main.push(Stmt::Call { callee: Callee::Func(gt.entry_fn), args: vec![], ret: None });
    main.push(Stmt::Return(None));
    spec.func(main);
    compile(&spec, arch).unwrap()
}

#[test]
fn paper_faithful_mode_trusts_the_weak_bound() {
    let bin = build(false, Arch::Arm32e);
    let r = Dtaint::new().analyze(&bin, "wb").unwrap();
    assert_eq!(
        r.vulnerabilities(),
        0,
        "the syntactic check accepts any bounding constraint — a documented gap"
    );
    assert!(r.findings.iter().any(|f| f.sanitized()), "the flow is seen, judged sanitized");
}

#[test]
fn strict_mode_flags_the_weak_bound_on_both_arches() {
    for arch in [Arch::Arm32e, Arch::Mips32e] {
        let bin = build(false, arch);
        let mut config = DtaintConfig::default();
        config.dataflow.bounds = BoundsMode::Strict;
        let r = Dtaint::with_config(config).analyze(&bin, "wb").unwrap();
        assert_eq!(r.vulnerabilities(), 1, "{arch}: weak bound must be flagged");
    }
}

#[test]
fn strict_mode_accepts_a_fitting_bound() {
    for arch in [Arch::Arm32e, Arch::Mips32e] {
        let bin = build(true, arch);
        let mut config = DtaintConfig::default();
        config.dataflow.bounds = BoundsMode::Strict;
        let r = Dtaint::with_config(config).analyze(&bin, "wb").unwrap();
        assert_eq!(r.vulnerabilities(), 0, "{arch}: fitting bound stays sanitized");
    }
}

#[test]
fn the_weak_bound_really_is_exploitable() {
    let bin = build(false, Arch::Arm32e);
    // The attacker picks a length that passes the weak check (< 1024)
    // but overflows the 256-byte destination.
    let config = AttackConfig { overflow_len: 1000, input_frames: 2, ..Default::default() };
    let verdict = validate(&bin, "main", &config);
    assert!(
        matches!(verdict, Verdict::MemoryCorruption(_)),
        "1023 bytes through a 256-byte buffer must crash: {verdict:?}"
    );
    // And the fitting bound survives the same attack.
    let bin = build(true, Arch::Arm32e);
    let verdict = validate(&bin, "main", &config);
    assert_eq!(verdict, Verdict::NoEffect);
}
