//! Store-vs-SSE alias recall, scored per plant class: the measurement
//! behind `ablation_recall`'s tables. The root test `tests/ablation.rs`
//! holds its floor.

use dtaint_core::{AliasMode, AnalysisReport, Dtaint, DtaintConfig};
use dtaint_fwgen::templates::{PlantKind, PlantedVuln};
use dtaint_fwgen::{build_firmware, table2_profiles, GeneratedFirmware};

/// The multi-level alias plants ("deep" chains).
pub const DEEP_KINDS: [PlantKind; 4] = [
    PlantKind::BofAliasDeep2,
    PlantKind::BofAliasDeep3,
    PlantKind::BofAliasCalleeLoad,
    PlantKind::BofAliasOffset,
];

/// Functions kept of each Table II profile for the store-vs-SSE
/// comparison.
pub const PROFILE_SIZES: [usize; 6] = [120, 120, 150, 150, 300, 400];

/// Whether `report` contains a finding for plant `g`. Several plant
/// kinds share a (source, sink) pair, so plants whose sink lives in a
/// per-plant handler additionally match on the handler's name — a
/// BofUrlParamAliasIndirect hit must not be credited to a deep-alias
/// plant it didn't detect.
pub fn plant_detected(report: &AnalysisReport, g: &PlantedVuln) -> bool {
    let own_handler = DEEP_KINDS.contains(&g.kind) || g.kind == PlantKind::BofUrlParamAliasIndirect;
    report.vulnerable_paths().iter().any(|f| {
        f.sink == g.sink
            && f.sources.iter().any(|s| s.name == g.source)
            && (!own_handler || f.sink_fn == format!("handle_{}", g.id))
    })
}

/// Table II profile `index`, shrunk to its [`PROFILE_SIZES`] entry
/// (every plant is kept).
pub fn alias_profile(index: usize) -> GeneratedFirmware {
    let mut profile = table2_profiles().remove(index);
    profile.total_functions = profile.total_functions.min(PROFILE_SIZES[index]);
    build_firmware(&profile)
}

/// Recall counted separately for the multi-level alias plants and the
/// rest of the ground truth: `(deep hits, deep plants, flat hits, flat
/// plants)`.
pub fn alias_recall(fw: &GeneratedFirmware, mode: AliasMode) -> (usize, usize, usize, usize) {
    let mut config = DtaintConfig {
        function_filter: fw
            .profile
            .analyzed_prefixes
            .clone()
            .map(|v| v.into_iter().map(str::to_owned).collect()),
        ..Default::default()
    };
    config.dataflow.alias.mode = mode;
    let report = Dtaint::with_config(config).analyze(&fw.binary, "alias").unwrap();
    let deep: Vec<_> =
        fw.ground_truth.iter().filter(|g| !g.sanitized && DEEP_KINDS.contains(&g.kind)).collect();
    let flat: Vec<_> =
        fw.ground_truth.iter().filter(|g| !g.sanitized && !DEEP_KINDS.contains(&g.kind)).collect();
    let deep_hit = deep.iter().filter(|g| plant_detected(&report, g)).count();
    let flat_hit = flat.iter().filter(|g| plant_detected(&report, g)).count();
    (deep_hit, deep.len(), flat_hit, flat.len())
}
