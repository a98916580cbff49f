//! The decision audit log: a typed record of every *negative* decision
//! the pipeline makes — paths pruned, findings sanitized away, duplicates
//! folded, budgets degraded, caches quarantined, sinks never reached.
//!
//! Aggregate counters (`ddg.pruned_infeasible`,
//! `detect.duplicates_suppressed`, …) say *how many* flows were dropped;
//! the audit log says *which* and *why*, one [`Decision`] per event, so a
//! missed plant is triaged with `dtaint why` instead of a debugger.
//!
//! Determinism contract: the analysis stages return what they decided as
//! typed, address-ordered records, and the pipeline renders the whole log
//! from them in one canonical order — so the log is bit-identical across
//! thread counts. Reasons render symbolic expressions *structurally*
//! (never by pool id), which keeps the text stable across the pool
//! layouts different thread counts produce.
//!
//! Zero-cost when disabled: the log is rendered only when auditing was
//! requested; no `Decision` is allocated otherwise.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Audit line schema version, embedded in every JSONL line as `"v"`.
pub const AUDIT_VERSION: u32 = 1;

/// What kind of negative decision was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DecisionKind {
    /// A sink observation was dropped because its accumulated path
    /// constraints are contradictory (interval-guard pruning inside
    /// Algorithm 2).
    PathPruned,
    /// A tainted flow reached the sink but a sanitize verdict judged the
    /// guard sufficient; the finding is recorded but not reported.
    SanitizeSuppressed,
    /// A finding was folded into an earlier one with the same semantic
    /// identity (sink instruction, call chain, sources).
    DuplicateSuppressed,
    /// A function's analysis ran out of fuel and was retried degraded or
    /// kept a conservative partial summary.
    BudgetDegraded,
    /// The alias SSE fixpoint hit its iteration budget before
    /// stabilising in this function.
    AliasSaturated,
    /// A function's summary was excluded from the incremental cache
    /// because its analysis did not complete cleanly.
    CacheQuarantined,
    /// A sink call site was observed but no tainted data reached it.
    SinkUnreached,
}

impl fmt::Display for DecisionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecisionKind::PathPruned => "PathPruned",
            DecisionKind::SanitizeSuppressed => "SanitizeSuppressed",
            DecisionKind::DuplicateSuppressed => "DuplicateSuppressed",
            DecisionKind::BudgetDegraded => "BudgetDegraded",
            DecisionKind::AliasSaturated => "AliasSaturated",
            DecisionKind::CacheQuarantined => "CacheQuarantined",
            DecisionKind::SinkUnreached => "SinkUnreached",
        })
    }
}

/// The compact typed reason behind a [`Decision`], mirroring
/// `EvidenceStep`'s shape: structured fields plus a human rendering.
/// Symbolic expressions arrive pre-rendered (`String`) because the
/// telemetry crate sits below the expression pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionReason {
    /// The winning contradictory constraint of an infeasible path.
    InfeasiblePath {
        /// Rendered constraint that emptied an interval (`sel == 5`
        /// against an environment already pinning `sel` elsewhere).
        constraint: String,
    },
    /// The sanitize verdict that suppressed the finding.
    Sanitized {
        /// Rendered `SanitizeVerdict` (`constant guard 200 vs
        /// capacity 256: fits`).
        verdict: String,
    },
    /// The fingerprint this duplicate collapsed into.
    Duplicate {
        /// Content-addressed fingerprint of the retained exemplar.
        fingerprint: String,
    },
    /// A deterministic fuel budget was exhausted.
    FuelExhausted {
        /// Pipeline stage that ran dry (`symex` / `ddg`).
        stage: String,
        /// Fuel units consumed before the cut-off.
        fuel_used: u64,
        /// True when a degraded retry salvaged a partial result.
        retried: bool,
    },
    /// A fixpoint iteration budget was exhausted before stabilising.
    Saturated {
        /// Iteration bound that was hit.
        rounds: u64,
    },
    /// The function outcome that disqualified the summary from caching.
    Quarantined {
        /// Rendered outcome (`degraded`, `panicked`, …).
        outcome: String,
    },
    /// No tainted source flows into any argument of the sink.
    Untainted,
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionReason::InfeasiblePath { constraint } => {
                write!(f, "infeasible path: constraint `{constraint}` is contradictory")
            }
            DecisionReason::Sanitized { verdict } => write!(f, "sanitized: {verdict}"),
            DecisionReason::Duplicate { fingerprint } => {
                write!(f, "duplicate of fingerprint {fingerprint}")
            }
            DecisionReason::FuelExhausted { stage, fuel_used, retried } => write!(
                f,
                "{stage} fuel exhausted after {fuel_used} unit(s){}",
                if *retried { ", retried degraded" } else { "" }
            ),
            DecisionReason::Saturated { rounds } => {
                write!(f, "fixpoint saturated after {rounds} round(s)")
            }
            DecisionReason::Quarantined { outcome } => {
                write!(f, "summary quarantined from cache: outcome {outcome}")
            }
            DecisionReason::Untainted => f.write_str("no tainted source reaches the sink"),
        }
    }
}

/// One audited decision. Serialized as one JSONL line by
/// [`crate::export_jsonl`]; the field set is the versioned schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Schema version ([`AUDIT_VERSION`]).
    pub v: u32,
    /// What was decided.
    pub kind: DecisionKind,
    /// Pipeline stage that made the decision (`symex` / `ddg` /
    /// `detect` / `cache`).
    pub stage: String,
    /// Name of the function the decision concerns (the observing
    /// function for sink decisions, the analyzed function otherwise).
    pub function: String,
    /// Entry address of that function.
    pub function_addr: u32,
    /// Sink/site instruction address, when the decision concerns one.
    pub site: Option<u32>,
    /// Sink kind name (`memcpy`, `system`, `loop-copy`, …), when the
    /// decision concerns a sink.
    pub sink: Option<String>,
    /// Why.
    pub reason: DecisionReason,
}

impl Decision {
    /// Convenience constructor stamping [`AUDIT_VERSION`].
    pub fn new(
        kind: DecisionKind,
        stage: &str,
        function: &str,
        function_addr: u32,
        reason: DecisionReason,
    ) -> Decision {
        Decision {
            v: AUDIT_VERSION,
            kind,
            stage: stage.to_owned(),
            function: function.to_owned(),
            function_addr,
            site: None,
            sink: None,
            reason,
        }
    }

    /// Attaches the sink site address and kind name.
    #[must_use]
    pub fn at_sink(mut self, site: u32, sink: &str) -> Decision {
        self.site = Some(site);
        self.sink = Some(sink.to_owned());
        self
    }

    /// One-line human rendering, used by `dtaint why`.
    pub fn render(&self) -> String {
        let site = match self.site {
            Some(a) => match &self.sink {
                Some(k) => format!(" at {a:#x} ({k})"),
                None => format!(" at {a:#x}"),
            },
            None => String::new(),
        };
        format!("{} [{}] in `{}`{}: {}", self.kind, self.stage, self.function, site, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Decision {
        Decision::new(
            DecisionKind::SanitizeSuppressed,
            "detect",
            "handle_cfg",
            0x8000,
            DecisionReason::Sanitized {
                verdict: "constant guard 200 vs capacity 256: fits".into(),
            },
        )
        .at_sink(0x8044, "memcpy")
    }

    #[test]
    fn decision_round_trips_through_json() {
        let d = sample();
        let line = serde_json::to_string(&d).unwrap();
        let back: Decision = serde_json::from_str(&line).unwrap();
        assert_eq!(back, d);
        assert!(line.contains("\"v\":"), "schema version embedded: {line}");
    }

    #[test]
    fn jsonl_export_is_one_line_per_decision_in_order() {
        let a = sample();
        let mut b = sample();
        b.kind = DecisionKind::PathPruned;
        b.reason = DecisionReason::InfeasiblePath { constraint: "n < 8".into() };
        let mut out = Vec::new();
        crate::export_jsonl(&[a.clone(), b.clone()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(serde_json::from_str::<Decision>(lines[0]).unwrap(), a);
        assert_eq!(serde_json::from_str::<Decision>(lines[1]).unwrap(), b);
    }

    #[test]
    fn render_names_kind_stage_site_and_reason() {
        let r = sample().render();
        assert!(r.contains("SanitizeSuppressed"), "{r}");
        assert!(r.contains("[detect]"), "{r}");
        assert!(r.contains("`handle_cfg`"), "{r}");
        assert!(r.contains("0x8044"), "{r}");
        assert!(r.contains("memcpy"), "{r}");
        assert!(r.contains("fits"), "{r}");
    }

    #[test]
    fn every_reason_renders_distinctly() {
        let reasons = [
            DecisionReason::InfeasiblePath { constraint: "x == 5".into() },
            DecisionReason::Sanitized { verdict: "v".into() },
            DecisionReason::Duplicate { fingerprint: "abcd".into() },
            DecisionReason::FuelExhausted { stage: "symex".into(), fuel_used: 9, retried: true },
            DecisionReason::Saturated { rounds: 12 },
            DecisionReason::Quarantined { outcome: "panicked".into() },
            DecisionReason::Untainted,
        ];
        let rendered: Vec<String> = reasons.iter().map(ToString::to_string).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &rendered[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
