//! Golden digests: what a change that keeps outputs byte-identical must
//! leave alone.
//!
//! Each setting scans one image (a Table II profile, or a mutant of
//! one) in one mode at one thread count, with auditing on, and digests
//! its outputs with the summary cache's 64-bit FNV-1a
//! ([`fnv64`](dtaint_symex::fnv64)):
//!
//! * `report`: the bytes `dtaint scan --json` prints, with every
//!   `stage_us` value zeroed and the audit decisions left out (a scan
//!   without `--audit-out` carries none);
//! * `audit`: the bytes `--audit-out` writes (one JSON line per
//!   decision);
//! * `metrics`: the bytes `--metrics-out` writes, without the
//!   `stage.*_us` wall-clock gauges;
//! * `cache` (in [`Mode::Cache`] only): the summary cache's
//!   [`SummaryCache::to_bytes`] after the cold scan, the bytes a
//!   one-image `dtaint batch` writes to `summaries.dtc`.
//!
//! The matrix ([`matrix`]): every profile at one and two threads in the
//! default mode; profiles 1–4 at one thread with `--interval-guards`,
//! with `--alias store`, and with a fresh cache; and two mutants of
//! profile 3 with a fresh cache at one thread ([`MUTANTS`]). Profiles 5
//! and 6 stay out of the extra modes to keep the check's debug-build
//! time down.
//!
//! Each setting also lists the session registry's counters in clear
//! text, so a diff of `results/golden.json` says which counter moved.
//! `tests/fused_pass.rs` recomputes every setting (the default-mode ones
//! from the scans it already runs) and compares it with the file; the
//! `golden_digests` binary rewrites the file. A change that moves an
//! output on purpose re-pins it and says in CHANGES.md which digest
//! moved and why.

use dtaint_core::{AnalysisReport, BoundsMode, CacheRef, Dtaint, DtaintConfig, SummaryCache};
use dtaint_dataflow::AliasMode;
use dtaint_fwbin::Binary;
use dtaint_fwgen::{build_firmware, corrupt_binary, table2_profiles, BinFault};
use dtaint_symex::Fnv64;
use dtaint_telemetry::{export_jsonl, Collector};
use serde_json::Value;
use std::io;
use std::sync::Arc;

/// The golden file, relative to the workspace root.
pub const GOLDEN_FILE: &str = "results/golden.json";

/// The thread counts every profile is pinned at in the default mode.
pub const THREADS: [usize; 2] = [1, 2];

/// The profiles (1-based Table II indices) pinned in the other modes.
pub const SMALL_PROFILES: [usize; 4] = [1, 2, 3, 4];

/// The mutants pinned with a fresh cache: a name, the profile it
/// corrupts and the fault. In the first, `hop0_edb_43055` fails to lift
/// and its one direct caller's DDG key takes the `absent` marker; the
/// second names `util_fn98`'s entry twice.
pub const MUTANTS: [(&str, usize, BinFault); 2] = [
    ("garbage-fn-1", 3, BinFault::GarbageOpcodes { index: 1, seed: 11 }),
    ("aliased-entry-util_fn98", 3, BinFault::AliasedEntry { index: 366 }),
];

/// How a golden setting scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The CLI's default mode.
    Default,
    /// `--interval-guards`.
    IntervalGuards,
    /// `--alias store`.
    AliasStore,
    /// The default mode with a fresh summary cache attached.
    Cache,
}

impl Mode {
    /// The mode's name in the golden file.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Default => "default",
            Mode::IntervalGuards => "interval-guards",
            Mode::AliasStore => "alias-store",
            Mode::Cache => "cache",
        }
    }
}

/// One golden setting: which image, how it is scanned.
#[derive(Debug, Clone)]
pub struct Spec {
    /// 1-based Table II index.
    pub profile: usize,
    /// The [`MUTANTS`] entry applied to the profile, if any.
    pub mutant: Option<usize>,
    /// The scan mode.
    pub mode: Mode,
    /// Worker threads.
    pub threads: usize,
}

impl Spec {
    /// The image this setting scans, with its profile's manufacturer
    /// and binary name.
    pub fn image(&self) -> (Binary, &'static str, &'static str) {
        let p = table2_profiles().swap_remove(self.profile - 1);
        let mut bin = build_firmware(&p).binary;
        if let Some(m) = self.mutant {
            bin = corrupt_binary(&bin, &MUTANTS[m].2);
        }
        (bin, p.manufacturer, p.binary_name)
    }
}

/// Every golden setting, in the file's order.
pub fn matrix() -> Vec<Spec> {
    let mut out = Vec::new();
    for profile in 1..=table2_profiles().len() {
        for threads in THREADS {
            out.push(Spec { profile, mutant: None, mode: Mode::Default, threads });
        }
    }
    for profile in SMALL_PROFILES {
        for mode in [Mode::IntervalGuards, Mode::AliasStore, Mode::Cache] {
            out.push(Spec { profile, mutant: None, mode, threads: 1 });
        }
    }
    for (m, &(_, profile, _)) in MUTANTS.iter().enumerate() {
        out.push(Spec { profile, mutant: Some(m), mode: Mode::Cache, threads: 1 });
    }
    out
}

/// Scans `bin` as `dtaint scan --json --audit-out --metrics-out` does in
/// the default mode, returning the report and the session collector.
pub fn scan(bin: &Binary, name: &str, threads: usize) -> (AnalysisReport, Collector) {
    let (report, tel, _) = scan_in(bin, name, Mode::Default, threads);
    (report, tel)
}

/// [`scan`] in `mode`, with auditing on (as `--audit-out` sets it); in
/// [`Mode::Cache`] also the bytes of the cache the scan filled.
pub fn scan_in(
    bin: &Binary,
    name: &str,
    mode: Mode,
    threads: usize,
) -> (AnalysisReport, Collector, Option<Vec<u8>>) {
    let mut config = DtaintConfig { threads, audit: true, ..Default::default() };
    match mode {
        Mode::Default | Mode::Cache => {}
        Mode::IntervalGuards => config.dataflow.bounds = BoundsMode::Interval,
        Mode::AliasStore => config.dataflow.alias.mode = AliasMode::Store,
    }
    let cache = (mode == Mode::Cache).then(|| Arc::new(SummaryCache::new()));
    config.cache = cache.clone().map(|c| CacheRef::new(c, name));
    let mut tel = Collector::disabled();
    let report = Dtaint::with_config(config).analyze_traced(bin, name, &mut tel).expect("scan");
    (report, tel, cache.map(|c| c.to_bytes()))
}

/// Scans a setting's image and digests it ([`setting`]).
pub fn run(spec: &Spec) -> Value {
    let (bin, manufacturer, name) = spec.image();
    let (report, tel, cache) = scan_in(&bin, name, spec.mode, spec.threads);
    setting(spec, manufacturer, &report, &tel, cache.as_deref())
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

/// The golden entry of setting `spec`, from its scan's report,
/// session collector and, in [`Mode::Cache`], cache bytes.
pub fn setting(
    spec: &Spec,
    manufacturer: &str,
    report: &AnalysisReport,
    tel: &Collector,
    cache: Option<&[u8]>,
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
    let mut fields = vec![
        ("profile".into(), Value::Int(spec.profile as i64)),
        ("manufacturer".into(), Value::Str(manufacturer.into())),
    ];
    if let Some(m) = spec.mutant {
        fields.push(("mutant".into(), Value::Str(MUTANTS[m].0.into())));
    }
    fields.extend([
        ("binary".into(), Value::Str(report.binary_name.clone())),
        ("threads".into(), Value::Int(spec.threads as i64)),
        ("mode".into(), Value::Str(spec.mode.name().into())),
        ("report".into(), Value::Str(report_digest)),
        ("audit".into(), Value::Str(audit_digest)),
        ("metrics".into(), Value::Str(metrics_digest)),
    ]);
    if let Some(bytes) = cache {
        fields.push(("cache".into(), Value::Str(digest(|out| io::Write::write_all(out, bytes)))));
    }
    fields.push(("counters".into(), Value::Obj(counters)));
    Value::Obj(fields)
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
    let key = |s: &Value| ["profile", "mutant", "mode", "threads"].map(|k| s.get(k).cloned());
    let label = |s: &Value| {
        let text = |k: &str| match s.get(k) {
            Some(Value::Str(v)) => v.clone(),
            Some(Value::Int(v)) => v.to_string(),
            _ => "?".into(),
        };
        let mutant = s.get("mutant").map(|_| format!(" mutant {}", text("mutant")));
        format!(
            "profile {} ({}){} in mode {} at {} thread(s)",
            text("profile"),
            text("binary"),
            mutant.unwrap_or_default(),
            text("mode"),
            text("threads")
        )
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
        for field in ["binary", "report", "audit", "metrics", "cache"] {
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
