//! Golden digests: what a change that keeps outputs byte-identical must
//! leave alone.
//!
//! For each Table II profile, scanned at one and two threads in the
//! default mode with auditing on, three outputs are digested with the
//! summary cache's 64-bit FNV-1a ([`fnv64`](dtaint_symex::fnv64)):
//!
//! * `report`: the bytes `dtaint scan --json` prints, with every
//!   `stage_us` value zeroed and the audit decisions left out (a scan
//!   without `--audit-out` carries none);
//! * `audit`: the bytes `--audit-out` writes (one JSON line per
//!   decision);
//! * `metrics`: the bytes `--metrics-out` writes, without the
//!   `stage.*_us` wall-clock gauges.
//!
//! Each setting also lists the session registry's counters in clear
//! text, so a diff of `results/golden.json` says which counter moved.
//! `tests/fused_pass.rs` recomputes every setting from the scans it
//! already runs and compares it with the file; the `golden_digests`
//! binary rewrites the file. A change that moves an output on purpose
//! re-pins it and says in CHANGES.md which digest moved and why.

use dtaint_core::{AnalysisReport, Dtaint, DtaintConfig};
use dtaint_fwbin::Binary;
use dtaint_symex::Fnv64;
use dtaint_telemetry::{export_jsonl, Collector};
use serde_json::Value;
use std::io;

/// The golden file, relative to the workspace root.
pub const GOLDEN_FILE: &str = "results/golden.json";

/// The thread counts every profile is pinned at.
pub const THREADS: [usize; 2] = [1, 2];

/// The configuration of a golden scan: the CLI's default mode at
/// `threads`, with auditing on (as `--audit-out` sets it).
pub fn config(threads: usize) -> DtaintConfig {
    DtaintConfig { threads, audit: true, ..Default::default() }
}

/// Scans `bin` as `dtaint scan --json --audit-out --metrics-out` does,
/// returning the report and the session collector.
pub fn scan(bin: &Binary, name: &str, threads: usize) -> (AnalysisReport, Collector) {
    let mut tel = Collector::disabled();
    let report =
        Dtaint::with_config(config(threads)).analyze_traced(bin, name, &mut tel).expect("scan");
    (report, tel)
}

/// An [`io::Write`] that digests what it is given.
struct Digest(Fnv64);

impl io::Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The FNV-1a digest of what `write` writes, as 16 hex digits.
fn digest(write: impl FnOnce(&mut Digest) -> io::Result<()>) -> String {
    let mut d = Digest(Fnv64::new());
    write(&mut d).expect("digesting cannot fail");
    format!("{:016x}", d.0.finish())
}

/// One golden setting: profile `profile` (1-based Table II index)
/// scanned at `threads`.
pub fn setting(
    profile: usize,
    manufacturer: &str,
    report: &AnalysisReport,
    tel: &Collector,
    threads: usize,
) -> Value {
    let printed = AnalysisReport {
        stage_us: report.stage_us.keys().map(|k| (k.clone(), 0)).collect(),
        decisions: Vec::new(),
        ..report.clone()
    };
    let report_digest = digest(|out| {
        serde_json::to_writer_pretty(&mut *out, &printed).map_err(io::Error::other)?;
        io::Write::write_all(out, b"\n")
    });
    let audit_digest = digest(|out| export_jsonl(&report.decisions, out));
    let mut metrics = tel.metrics.clone();
    metrics.gauges.retain(|k, _| !(k.starts_with("stage.") && k.ends_with("_us")));
    let metrics_digest = digest(|out| {
        let json = serde_json::to_string_pretty(&metrics).map_err(io::Error::other)?;
        io::Write::write_all(out, json.as_bytes())
    });
    let counters =
        metrics.counters.iter().map(|(k, &v)| (k.clone(), Value::Int(v as i64))).collect();
    Value::Obj(vec![
        ("profile".into(), Value::Int(profile as i64)),
        ("manufacturer".into(), Value::Str(manufacturer.into())),
        ("binary".into(), Value::Str(report.binary_name.clone())),
        ("threads".into(), Value::Int(threads as i64)),
        ("mode".into(), Value::Str("default".into())),
        ("report".into(), Value::Str(report_digest)),
        ("audit".into(), Value::Str(audit_digest)),
        ("metrics".into(), Value::Str(metrics_digest)),
        ("counters".into(), Value::Obj(counters)),
    ])
}

/// The golden document over `settings`, as the file holds it.
pub fn render(settings: Vec<Value>) -> String {
    let doc = Value::Obj(vec![
        ("digest".into(), Value::Str("fnv64 (FNV-1a, 64-bit), hex".into())),
        ("settings".into(), Value::Arr(settings)),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("render");
    text.push('\n');
    text
}

/// Compares recomputed settings with the golden document `pinned`,
/// naming every setting whose counters or digests moved.
///
/// # Errors
///
/// Describes every setting that is missing from `pinned`, differs from
/// it, or is pinned but was not recomputed.
pub fn check(pinned: &str, settings: &[Value]) -> Result<(), String> {
    let doc: Value = serde_json::from_str(pinned).map_err(|e| format!("{GOLDEN_FILE}: {e}"))?;
    let Some(Value::Arr(want)) = doc.get("settings") else {
        return Err(format!("{GOLDEN_FILE}: no `settings` array"));
    };
    let key = |s: &Value| (s.get("profile").cloned(), s.get("threads").cloned());
    let label = |s: &Value| {
        let text = |k: &str| match s.get(k) {
            Some(Value::Str(v)) => v.clone(),
            Some(Value::Int(v)) => v.to_string(),
            _ => "?".into(),
        };
        format!("profile {} ({}) at {} thread(s)", text("profile"), text("binary"), text("threads"))
    };
    let mut errors = Vec::new();
    for got in settings {
        let Some(pin) = want.iter().find(|w| key(w) == key(got)) else {
            errors.push(format!("{}: not pinned", label(got)));
            continue;
        };
        if let (Some(Value::Obj(g)), Some(Value::Obj(p))) =
            (got.get("counters"), pin.get("counters"))
        {
            for (name, v) in g {
                let was = p.iter().find(|(n, _)| n == name).map(|(_, v)| v);
                if was != Some(v) {
                    errors.push(format!("{}: counter {name} {was:?} -> {v:?}", label(got)));
                }
            }
            for (name, _) in p.iter().filter(|(n, _)| !g.iter().any(|(m, _)| m == n)) {
                errors.push(format!("{}: counter {name} is gone", label(got)));
            }
        }
        for field in ["binary", "report", "audit", "metrics"] {
            if got.get(field) != pin.get(field) {
                errors.push(format!(
                    "{}: {field} digest {:?} -> {:?}",
                    label(got),
                    pin.get(field),
                    got.get(field)
                ));
            }
        }
    }
    for pin in want.iter().filter(|w| !settings.iter().any(|s| key(s) == key(w))) {
        errors.push(format!("{}: pinned but not recomputed", label(pin)));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}
