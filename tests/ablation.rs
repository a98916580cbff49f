//! The floors of the two ablation tables (`ablation_recall` and
//! `extension_weak_bounds` print them): the SSE alias fixpoint never
//! detects fewer plants than the store-based pass, and the interval
//! bounds mode fixes the two cases both syntactic modes misjudge.

use dtaint_bench::alias_recall::{alias_profile, alias_recall, PROFILE_SIZES};
use dtaint_bench::weak_bounds::{build, probe, verdict, CASES};
use dtaint_core::{AliasMode, BoundsMode};
use dtaint_fwgen::templates::PlantKind;

/// Store-vs-SSE on every Table II profile, scored per plant class: SSE
/// recall ≥ store recall everywhere, SSE finds every deep plant, and
/// the alias mode does not change recall on the flat plants.
#[test]
fn sse_recall_never_falls_below_store_on_any_profile() {
    for i in 0..PROFILE_SIZES.len() {
        let fw = alias_profile(i);
        let name = fw.profile.binary_name;
        let (s_deep, _, s_flat, _) = alias_recall(&fw, AliasMode::Store);
        let (e_deep, deep_n, e_flat, _) = alias_recall(&fw, AliasMode::Sse);
        assert!(
            e_deep + e_flat >= s_deep + s_flat,
            "{name}: SSE recall fell below store ({e_deep}+{e_flat} < {s_deep}+{s_flat})"
        );
        assert_eq!(e_deep, deep_n, "{name}: SSE must detect every multi-level alias plant");
        assert_eq!(e_flat, s_flat, "{name}: alias mode must not change recall on flat plants");
    }
}

/// Every guard of the bounds matrix is judged in all three modes and
/// probed; on the two headline rows both syntactic modes are wrong, the
/// interval mode is right and the emulator agrees.
#[test]
fn interval_bounds_fix_what_both_syntactic_modes_misjudge() {
    for &(label, kind, sanitized) in CASES {
        let bin = build(kind, sanitized);
        let modes = [BoundsMode::Paper, BoundsMode::Strict, BoundsMode::Interval];
        let [paper, strict, interval] = modes.map(|mode| verdict(&bin, mode));
        let crashed = probe(&bin).starts_with("crash");
        match (kind, sanitized) {
            (PlantKind::BofSymbolicBound, false) => {
                assert_eq!((paper, strict, interval), ("clean", "clean", "FLAGGED"), "{label}");
                assert!(crashed, "oversized symbolic guard must be exploitable");
            }
            (PlantKind::BofInfeasiblePath, true) => {
                assert_eq!((paper, strict, interval), ("FLAGGED", "FLAGGED", "clean"), "{label}");
                assert!(!crashed, "dead code cannot crash");
            }
            _ => {}
        }
    }
}
