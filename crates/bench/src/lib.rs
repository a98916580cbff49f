//! Shared infrastructure for the table/figure harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; this library provides the common pieces: profile scaling,
//! analysis wrappers, the scan's own spans as the harnesses' clock,
//! table rendering, and (re-exported from the telemetry crate) the
//! counting allocator for the Table VI memory measurements.
//!
//! Set `DTAINT_SCALE` (default `1.0`) to shrink or grow the generated
//! firmware sizes, e.g. `DTAINT_SCALE=0.1 cargo run --bin
//! table3_detection` for a quick pass.

use dtaint_core::{AnalysisReport, Dtaint, DtaintConfig};
use dtaint_fwbin::Binary;
use dtaint_fwgen::{build_firmware, FirmwareProfile, GeneratedFirmware};
use dtaint_telemetry::{Collector, SpanEvent};

pub mod alias_recall;
pub mod golden;
pub mod weak_bounds;

/// The counting global allocator for the Table VI memory column, from
/// the telemetry crate: once a harness binary installs it with
/// `#[global_allocator]`, every span of [`ScanSpans`] carries
/// `peak_bytes` and `live_bytes` args.
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

/// The lane-0 spans of one scan: the `scan` root and its stages, the
/// same spans [`AnalysisReport::stage_us`] reads.
pub struct ScanSpans(Vec<SpanEvent>);

impl ScanSpans {
    /// The span named as in [`AnalysisReport::stage_us`] (`scan` for the
    /// root). Panics when the scan recorded no such span.
    pub fn get(&self, name: &str) -> &SpanEvent {
        self.0
            .iter()
            .find(|e| if e.cat == "scan" { name == "scan" } else { e.name == name })
            .unwrap_or_else(|| panic!("no `{name}` span"))
    }

    /// The named span's duration in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.get(name).dur_us as f64 / 1e6
    }
}

/// Scans `bin` as `dtaint scan` does, through [`Dtaint::analyze_traced`],
/// at one thread so each stage span times that stage's work alone, and
/// returns the report with the scan's lane-0 spans.
pub fn traced_scan(bin: &Binary, name: &str, config: DtaintConfig) -> (AnalysisReport, ScanSpans) {
    let config = DtaintConfig { threads: 1, ..config };
    let mut tel = Collector::disabled();
    let report = Dtaint::with_config(config).analyze_traced(bin, name, &mut tel).expect("scan");
    (report, ScanSpans(tel.events().to_vec()))
}

/// Runs behind each timed cell of the Table VI and VII harnesses. One
/// run on a shared host moves by tens of percent, so each cell prints
/// the median with the min–max range ([`Timing`]).
pub const TIMED_RUNS: usize = 5;

/// The median and range of repeated timings, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The median run (the upper one of an even count).
    pub median: f64,
    /// The fastest run.
    pub min: f64,
    /// The slowest run.
    pub max: f64,
}

impl Timing {
    /// The median and range of `samples`; panics when there are none.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Timing {
        let mut v: Vec<f64> = samples.into_iter().collect();
        v.sort_by(f64::total_cmp);
        Timing { median: v[v.len() / 2], min: v[0], max: v[v.len() - 1] }
    }

    /// `median (min–max)`, each multiplied by `unit` and printed with
    /// `decimals` places.
    pub fn render(&self, unit: f64, decimals: usize) -> String {
        let [m, lo, hi] = [self.median, self.min, self.max].map(|x| x * unit);
        format!("{m:.decimals$} ({lo:.decimals$}–{hi:.decimals$})")
    }
}

/// Renders an ASCII table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
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
    fn timing_is_the_median_and_range() {
        let t = Timing::of([0.05, 0.01, 0.04, 0.02, 0.03]);
        assert_eq!(t, Timing { median: 0.03, min: 0.01, max: 0.05 });
        assert_eq!(t.render(1e3, 1), "30.0 (10.0–50.0)");
        let cell = t.render(1.0, 2);
        let width = cell.chars().count();
        let table = render_table(&["t"], &[vec![cell], vec!["x".into()]]);
        assert!(table.lines().all(|l| l.chars().count() == width), "{table}");
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
