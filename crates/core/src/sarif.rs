//! SARIF 2.1.0 export for analysis reports.
//!
//! Emits one `run` per [`AnalysisReport`], with:
//!
//! * `tool.driver.rules` — one rule per [`VulnKindRepr`];
//! * one `result` per finding, `level` = `"error"` for vulnerable paths
//!   and `"note"` for sanitised ones, a stable
//!   `partialFingerprints["dtaint/findingIdentity/v1"]` from the
//!   finding's content-addressed fingerprint, and binary locations
//!   (`physicalLocation.address.absoluteAddress` = the sink
//!   instruction, `logicalLocations` = the sink function);
//! * `codeFlows` rebuilt from the typed evidence chain, one
//!   `threadFlow` location per [`EvidenceStep`].
//!
//! The output is consumable by any SARIF viewer (VS Code's SARIF
//! Viewer extension, GitHub code scanning).

use crate::evidence::EvidenceStep;
use crate::report::{AnalysisReport, Finding, VulnKindRepr};
use serde_json::Value;

/// The SARIF schema location stamped into every document.
pub const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// The partial-fingerprint key carrying the content-addressed finding
/// identity (versioned, per the SARIF convention).
pub const FINGERPRINT_KEY: &str = "dtaint/findingIdentity/v1";

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn rule_id(kind: VulnKindRepr) -> &'static str {
    match kind {
        VulnKindRepr::BufferOverflow => "DTAINT-BUFFER-OVERFLOW",
        VulnKindRepr::CommandInjection => "DTAINT-COMMAND-INJECTION",
    }
}

fn rules() -> Value {
    let rule = |kind: VulnKindRepr, desc: &str| {
        obj(vec![
            ("id", s(rule_id(kind))),
            ("name", s(format!("{kind}"))),
            ("shortDescription", obj(vec![("text", s(desc))])),
        ])
    };
    Value::Arr(vec![
        rule(
            VulnKindRepr::BufferOverflow,
            "Attacker-controlled data reaches a memory copy without a sufficient bound",
        ),
        rule(
            VulnKindRepr::CommandInjection,
            "Attacker-controlled data reaches a command interpreter without separator checks",
        ),
    ])
}

/// A binary location: physical address plus the containing function as
/// a logical location.
fn location(address: u32, function: &str, message: Option<String>) -> Value {
    let mut pairs = vec![
        (
            "physicalLocation",
            obj(vec![("address", obj(vec![("absoluteAddress", Value::Int(i64::from(address)))]))]),
        ),
        (
            "logicalLocations",
            Value::Arr(vec![obj(vec![("name", s(function)), ("kind", s("function"))])]),
        ),
    ];
    if let Some(m) = message {
        pairs.push(("message", obj(vec![("text", s(m))])));
    }
    obj(pairs)
}

/// One threadFlow location per evidence step, each annotated with the
/// step's rendered narrative. Steps without their own address anchor on
/// the sink instruction.
fn code_flow(f: &Finding) -> Value {
    let locations: Vec<Value> = f
        .evidence
        .iter()
        .map(|step| {
            let (addr, function) = match step {
                EvidenceStep::Source { ins_addr, .. } => (*ins_addr, f.observed_in.as_str()),
                EvidenceStep::DefUse { ins_addr, function, .. } => (*ins_addr, function.as_str()),
                EvidenceStep::CallsiteSubstitution { ins_addr, caller, .. } => {
                    (*ins_addr, caller.as_str())
                }
                EvidenceStep::AliasRewrite { function, .. } => (f.sink_ins, function.as_str()),
                EvidenceStep::IntervalGuard { .. } | EvidenceStep::Verdict(_) => {
                    (f.sink_ins, f.sink_fn.as_str())
                }
            };
            obj(vec![("location", location(addr, function, Some(step.to_string())))])
        })
        .collect();
    obj(vec![("threadFlows", Value::Arr(vec![obj(vec![("locations", Value::Arr(locations))])]))])
}

fn result(f: &Finding) -> Value {
    let level = if f.sanitized() { "note" } else { "error" };
    let mut pairs = vec![
        ("ruleId", s(rule_id(f.kind))),
        ("level", s(level)),
        ("message", obj(vec![("text", s(f.to_string()))])),
        ("locations", Value::Arr(vec![location(f.sink_ins, &f.sink_fn, None)])),
        ("partialFingerprints", obj(vec![(FINGERPRINT_KEY, s(f.fingerprint.clone()))])),
    ];
    if !f.evidence.is_empty() {
        pairs.push(("codeFlows", Value::Arr(vec![code_flow(f)])));
    }
    obj(pairs)
}

fn run(report: &AnalysisReport) -> Value {
    obj(vec![
        (
            "tool",
            obj(vec![(
                "driver",
                obj(vec![
                    ("name", s("dtaint")),
                    ("informationUri", s("https://doi.org/10.1109/DSN.2018.00052")),
                    ("rules", rules()),
                ]),
            )]),
        ),
        (
            "artifacts",
            Value::Arr(vec![obj(vec![(
                "location",
                obj(vec![("uri", s(report.binary_name.clone()))]),
            )])]),
        ),
        ("results", Value::Arr(report.findings.iter().map(result).collect())),
    ])
}

/// Renders one SARIF document covering the given reports (one SARIF
/// `run` each — a whole-image scan passes one report per scanned
/// binary).
pub fn to_sarif(reports: &[AnalysisReport]) -> Value {
    obj(vec![
        ("$schema", s(SARIF_SCHEMA)),
        ("version", s("2.1.0")),
        ("runs", Value::Arr(reports.iter().map(run).collect())),
    ])
}

/// [`to_sarif`], rendered as pretty JSON.
pub fn to_sarif_string(reports: &[AnalysisReport]) -> String {
    serde_json::to_string_pretty(&to_sarif(reports)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::SanitizeVerdict;
    use crate::report::{SourceRef, TelemetrySection};

    fn sample_report() -> AnalysisReport {
        let sources = vec![SourceRef { name: "recv".into(), ins_addr: 0x100 }];
        let finding = Finding {
            kind: VulnKindRepr::BufferOverflow,
            sink: "memcpy".into(),
            sink_ins: 0x140,
            sink_fn: "handle".into(),
            observed_in: "handle".into(),
            fingerprint: "00deadbeef00cafe".into(),
            evidence: vec![
                EvidenceStep::Source { name: "recv".into(), ins_addr: 0x100 },
                EvidenceStep::DefUse {
                    ins_addr: 0x104,
                    location: "r2".into(),
                    value: "ret_0x100".into(),
                    function: "handle".into(),
                },
                EvidenceStep::Verdict(SanitizeVerdict::UncheckedFlow),
            ],
            sources,
            call_chain: Vec::new(),
            tainted_expr: "ret_0x100".into(),
            verdict: SanitizeVerdict::UncheckedFlow,
        };
        let mut sanitized = finding.clone();
        sanitized.verdict =
            SanitizeVerdict::ConstGuard { bound: 64, capacity: Some(256), fits: true };
        sanitized.evidence = vec![EvidenceStep::Verdict(sanitized.verdict.clone())];
        AnalysisReport {
            binary_name: "httpd".into(),
            arch: "arm32e".into(),
            functions: 1,
            blocks: 1,
            call_graph_edges: 0,
            sinks_count: 1,
            resolved_indirect: 0,
            findings: vec![finding, sanitized],
            infeasible_suppressed: 0,
            functions_analyzed: 1,
            functions_skipped: 0,
            functions_retried: 0,
            loop_copy_sinks: 0,
            skipped_functions: Vec::new(),
            stage_us: Default::default(),
            telemetry: TelemetrySection::default(),
            sink_coverage: Default::default(),
            decisions: Vec::new(),
        }
    }

    #[test]
    fn sarif_has_schema_version_and_runs() {
        let doc = to_sarif(&[sample_report()]);
        assert_eq!(doc.get("$schema"), Some(&Value::Str(SARIF_SCHEMA.into())));
        assert_eq!(doc.get("version"), Some(&Value::Str("2.1.0".into())));
        let Some(Value::Arr(runs)) = doc.get("runs") else { panic!("runs array") };
        assert_eq!(runs.len(), 1);
        let driver = runs[0].get("tool").and_then(|t| t.get("driver")).expect("driver");
        assert_eq!(driver.get("name"), Some(&Value::Str("dtaint".into())));
        let Some(Value::Arr(rules)) = driver.get("rules") else { panic!("rules array") };
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn results_carry_level_fingerprint_and_code_flows() {
        let doc = to_sarif(&[sample_report()]);
        let Some(Value::Arr(runs)) = doc.get("runs") else { panic!() };
        let Some(Value::Arr(results)) = runs[0].get("results") else { panic!("results array") };
        assert_eq!(results.len(), 2);

        let vuln = &results[0];
        assert_eq!(vuln.get("ruleId"), Some(&Value::Str("DTAINT-BUFFER-OVERFLOW".into())));
        assert_eq!(vuln.get("level"), Some(&Value::Str("error".into())));
        let fp = vuln
            .get("partialFingerprints")
            .and_then(|p| p.get(FINGERPRINT_KEY))
            .expect("fingerprint");
        assert_eq!(fp, &Value::Str("00deadbeef00cafe".into()));

        // The code flow mirrors the evidence chain step-for-step.
        let Some(Value::Arr(flows)) = vuln.get("codeFlows") else { panic!("codeFlows") };
        let locations = flows[0]
            .get("threadFlows")
            .and_then(|tf| match tf {
                Value::Arr(v) => v.first(),
                _ => None,
            })
            .and_then(|tf| tf.get("locations"))
            .expect("threadFlow locations");
        let Value::Arr(locations) = locations else { panic!("locations array") };
        assert_eq!(locations.len(), 3, "one per evidence step");
        let first_addr = locations[0]
            .get("location")
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|p| p.get("address"))
            .and_then(|a| a.get("absoluteAddress"))
            .expect("address");
        assert_eq!(first_addr, &Value::Int(0x100));

        // The sanitised twin downgrades to a note.
        assert_eq!(results[1].get("level"), Some(&Value::Str("note".into())));
    }

    #[test]
    fn sarif_string_parses_back() {
        let text = to_sarif_string(&[sample_report()]);
        let v: Value = serde_json::from_str(&text).unwrap();
        assert!(v.get("runs").is_some());
    }
}
