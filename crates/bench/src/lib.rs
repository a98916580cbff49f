//! Shared infrastructure for the table/figure harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; this library provides the common pieces: profile scaling,
//! analysis wrappers, table rendering, and (re-exported from the
//! telemetry crate) the counting allocator for the Table VI memory
//! measurements.
//!
//! Set `DTAINT_SCALE` (default `1.0`) to shrink or grow the generated
//! firmware sizes, e.g. `DTAINT_SCALE=0.1 cargo run --bin
//! table3_detection` for a quick pass.

use dtaint_core::{AnalysisReport, Dtaint, DtaintConfig};
use dtaint_fwgen::{build_firmware, FirmwareProfile, GeneratedFirmware};

/// The counting global allocator for the Table VI memory column, from
/// the telemetry crate: install it with `#[global_allocator]` in the
/// harness binary, then bracket the measured stage with
/// [`dtaint_telemetry::heap::reset_peak`] and
/// [`dtaint_telemetry::heap::peak`].
pub use dtaint_telemetry::CountingAlloc;

/// The scale factor applied to profile function counts (`DTAINT_SCALE`).
pub fn scale() -> f64 {
    std::env::var("DTAINT_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Applies the scale factor to one profile (minimum 40 functions, so
/// plants always fit).
pub fn scaled(mut profile: FirmwareProfile) -> FirmwareProfile {
    let n = (profile.total_functions as f64 * scale()) as usize;
    profile.total_functions = n.max(40);
    profile
}

/// Builds and analyzes one profile with its function filter applied.
pub fn analyze_profile(profile: &FirmwareProfile) -> (GeneratedFirmware, AnalysisReport) {
    let fw = build_firmware(profile);
    let config = DtaintConfig {
        function_filter: profile
            .analyzed_prefixes
            .clone()
            .map(|v| v.into_iter().map(str::to_owned).collect()),
        ..Default::default()
    };
    let report = Dtaint::with_config(config)
        .analyze(&fw.binary, profile.binary_name)
        .expect("generated binary analyzes");
    (fw, report)
}

/// Renders an ASCII table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&line(headers.iter().map(|s| s.to_string()).collect()));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone()));
        out.push('\n');
    }
    out
}

/// Pretty-prints a byte count.
pub fn human_bytes(n: usize) -> String {
    if n >= 1 << 30 {
        format!("{:.1}GB", n as f64 / (1u64 << 30) as f64)
    } else if n >= 1 << 20 {
        format!("{:.1}MB", n as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1}KB", n as f64 / (1 << 10) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("a "));
        assert!(lines[0].contains("long-header"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(3 << 20), "3.0MB");
    }

    #[test]
    fn scaled_has_a_floor() {
        let mut p = dtaint_fwgen::table2_profiles().remove(0);
        p.total_functions = 10;
        assert!(scaled(p).total_functions >= 40);
    }
}
