//! Scoring analysis reports against planted ground truth.
//!
//! The paper validated findings by hand on real devices; generated
//! firmware carries machine-readable ground truth instead, so precision
//! and recall are computed, not estimated. A *plant* is matched by its
//! `(source, sink)` pair; a reported vulnerable sink that matches no
//! vulnerable plant is a false positive, and a guarded twin reported as
//! vulnerable is too.

use crate::report::AnalysisReport;
use serde::{Deserialize, Serialize};

/// Minimal view of one planted flow (mirrors
/// `dtaint_fwgen::PlantedVuln` without the crate dependency).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruthFlow {
    /// Plant identifier.
    pub id: String,
    /// Source import name.
    pub source: String,
    /// Sink name (`loop-copy` for the structural sink).
    pub sink: String,
    /// True for guarded twins (must NOT be reported).
    pub sanitized: bool,
}

/// Precision/recall outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Score {
    /// Vulnerable plants detected.
    pub true_positives: usize,
    /// Vulnerable plants missed.
    pub false_negatives: usize,
    /// Reported vulnerabilities matching no vulnerable plant (includes
    /// guarded twins reported as vulnerable).
    pub false_positives: usize,
    /// Ids of missed plants.
    pub missed: Vec<String>,
}

impl Score {
    /// `tp / (tp + fp)`; 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1.0 when nothing was planted.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// True when every plant is found and nothing else is reported.
    pub fn is_perfect(&self) -> bool {
        self.false_negatives == 0 && self.false_positives == 0
    }
}

/// Scores a report against ground truth.
///
/// Matching is by `(source, sink)` pair: a vulnerable plant counts as
/// detected when some vulnerable finding carries its sink name and one
/// of its sources; each *distinct vulnerable sink site* that matches no
/// vulnerable plant pair counts as one false positive.
pub fn score(report: &AnalysisReport, truth: &[GroundTruthFlow]) -> Score {
    let vulnerable_plants: Vec<&GroundTruthFlow> = truth.iter().filter(|g| !g.sanitized).collect();
    let findings = report.vulnerable_paths();

    let mut true_positives = 0;
    let mut missed = Vec::new();
    for g in &vulnerable_plants {
        let hit = findings
            .iter()
            .any(|f| f.sink == g.sink && f.sources.iter().any(|s| s.name == g.source));
        if hit {
            true_positives += 1;
        } else {
            missed.push(g.id.clone());
        }
    }

    // Distinct vulnerable sink sites whose (source, sink) matches no
    // vulnerable plant.
    let mut fp_sites = std::collections::BTreeSet::new();
    for f in &findings {
        let matches_plant = vulnerable_plants
            .iter()
            .any(|g| f.sink == g.sink && f.sources.iter().any(|s| s.name == g.source));
        if !matches_plant {
            fp_sites.insert(f.sink_ins);
        }
    }

    Score { true_positives, false_negatives: missed.len(), false_positives: fp_sites.len(), missed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Finding, SourceRef, VulnKindRepr};

    fn finding(sink: &str, source: &str, sink_ins: u32, sanitized: bool) -> Finding {
        Finding {
            kind: VulnKindRepr::BufferOverflow,
            sink: sink.into(),
            sink_ins,
            sink_fn: "f".into(),
            observed_in: "main".into(),
            sources: vec![SourceRef { name: source.into(), ins_addr: 1 }],
            call_chain: vec![],
            tainted_expr: String::new(),
            fingerprint: String::new(),
            verdict: if sanitized {
                crate::evidence::SanitizeVerdict::ConstGuard {
                    bound: 64,
                    capacity: None,
                    fits: true,
                }
            } else {
                crate::evidence::SanitizeVerdict::UncheckedFlow
            },
            evidence: vec![],
        }
    }

    fn report(findings: Vec<Finding>) -> AnalysisReport {
        AnalysisReport {
            binary_name: "t".into(),
            arch: "arm32e".into(),
            functions: 1,
            blocks: 1,
            call_graph_edges: 0,
            sinks_count: 1,
            resolved_indirect: 0,
            findings,
            infeasible_suppressed: 0,
            stage_us: Default::default(),
            functions_analyzed: 1,
            functions_skipped: 0,
            functions_retried: 0,
            loop_copy_sinks: 0,
            skipped_functions: vec![],
            telemetry: Default::default(),
            sink_coverage: Default::default(),
            decisions: vec![],
        }
    }

    fn plant(id: &str, source: &str, sink: &str, sanitized: bool) -> GroundTruthFlow {
        GroundTruthFlow { id: id.into(), source: source.into(), sink: sink.into(), sanitized }
    }

    #[test]
    fn perfect_detection_scores_perfect() {
        let r = report(vec![finding("memcpy", "recv", 0x10, false)]);
        let t = vec![plant("a", "recv", "memcpy", false), plant("b", "recv", "memcpy", true)];
        let s = score(&r, &t);
        assert!(s.is_perfect());
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }

    #[test]
    fn missed_plant_is_a_false_negative() {
        let r = report(vec![]);
        let t = vec![plant("a", "recv", "memcpy", false)];
        let s = score(&r, &t);
        assert_eq!(s.false_negatives, 1);
        assert_eq!(s.missed, vec!["a".to_string()]);
        assert_eq!(s.recall(), 0.0);
        assert_eq!(s.precision(), 1.0, "nothing reported → vacuous precision");
    }

    #[test]
    fn unmatched_report_is_a_false_positive() {
        let r = report(vec![
            finding("system", "getenv", 0x20, false),
            finding("system", "getenv", 0x20, false), // same site twice
        ]);
        let t = vec![plant("a", "recv", "memcpy", false)];
        let s = score(&r, &t);
        assert_eq!(s.false_positives, 1, "dedup by sink site");
        assert_eq!(s.false_negatives, 1);
        assert_eq!(s.precision(), 0.0);
    }

    #[test]
    fn sanitized_findings_do_not_count_either_way() {
        let r = report(vec![finding("memcpy", "recv", 0x10, true)]);
        let t = vec![plant("a", "recv", "memcpy", false)];
        let s = score(&r, &t);
        assert_eq!(s.true_positives, 0);
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.false_negatives, 1);
    }
}
