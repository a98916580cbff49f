//! Findings and analysis reports.

use crate::evidence::{EvidenceStep, SanitizeVerdict};
use crate::sinks::VulnKind;
use dtaint_telemetry::{Decision, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// A source that contributed tainted data to a finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SourceRef {
    /// Library function name (`recv`, `getenv`, …).
    pub name: String,
    /// Instruction address of the source call.
    pub ins_addr: u32,
}

/// One `(source, path, sink)` tuple the detector judged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Weakness class.
    pub kind: VulnKindRepr,
    /// Sink name (`memcpy`, `system`, or `loop-copy`).
    pub sink: String,
    /// Instruction address of the sink.
    pub sink_ins: u32,
    /// Name of the function containing the sink.
    pub sink_fn: String,
    /// Name of the function the flow was observed from (where argument
    /// substitution bottomed out).
    pub observed_in: String,
    /// Sources feeding the tainted variable.
    pub sources: Vec<SourceRef>,
    /// Call-site chain from the observing function down to the sink.
    pub call_chain: Vec<u32>,
    /// The tainted variable, rendered in the paper's notation.
    pub tainted_expr: String,
    /// Content-addressed identity: a hash of the finding's semantics
    /// (kind, sink, sink function, address-normalized tainted
    /// expression, source names) that is stable across relinks and
    /// verdict changes. See [`crate::evidence::fingerprint`].
    #[serde(default)]
    pub fingerprint: String,
    /// The typed sanitization decision. A sanitised finding is *not*
    /// reported as a vulnerability; see [`Finding::sanitized`].
    #[serde(default)]
    pub verdict: SanitizeVerdict,
    /// The typed provenance chain, rendered source-first and terminated
    /// by an [`EvidenceStep::Verdict`] (empty only in hand-built or
    /// legacy reports).
    #[serde(default)]
    pub evidence: Vec<EvidenceStep>,
}

impl Finding {
    /// True when a sanitising constraint guards the path — the derived
    /// view of [`Finding::verdict`] that replaces the old stored bool.
    pub fn sanitized(&self) -> bool {
        self.verdict.sanitized()
    }

    /// Renders the interprocedural call chain as
    /// `f1 →(0xADDR) f2 →(0xADDR) sink_fn`, preferring the callee names
    /// recorded in [`EvidenceStep::CallsiteSubstitution`] evidence and
    /// falling back to raw addresses between `observed_in` and
    /// `sink_fn` when the chain carries no evidence. Empty when the
    /// flow never crossed a call site.
    pub fn call_chain_display(&self) -> String {
        if self.call_chain.is_empty() {
            return String::new();
        }
        let subs: Vec<(&u32, &str, &str)> = self
            .evidence
            .iter()
            .filter_map(|s| match s {
                EvidenceStep::CallsiteSubstitution { ins_addr, caller, callee } => {
                    Some((ins_addr, caller.as_str(), callee.as_str()))
                }
                _ => None,
            })
            .collect();
        let mut parts: Vec<String> = Vec::new();
        if subs.len() == self.call_chain.len() {
            parts.push(subs[0].1.to_owned());
            for (addr, _, callee) in subs {
                parts.push(format!("→({addr:#x})"));
                parts.push(callee.to_owned());
            }
        } else {
            parts.push(self.observed_in.clone());
            for addr in &self.call_chain {
                parts.push(format!("→({addr:#x})"));
            }
            parts.push(self.sink_fn.clone());
        }
        parts.join(" ")
    }
}

/// Serializable mirror of [`VulnKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VulnKindRepr {
    /// See [`VulnKind::BufferOverflow`].
    BufferOverflow,
    /// See [`VulnKind::CommandInjection`].
    CommandInjection,
}

impl From<VulnKind> for VulnKindRepr {
    fn from(k: VulnKind) -> Self {
        match k {
            VulnKind::BufferOverflow => VulnKindRepr::BufferOverflow,
            VulnKind::CommandInjection => VulnKindRepr::CommandInjection,
        }
    }
}

impl fmt::Display for VulnKindRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VulnKindRepr::BufferOverflow => f.write_str("buffer overflow"),
            VulnKindRepr::CommandInjection => f.write_str("command injection"),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.sanitized() { "sanitized" } else { "VULNERABLE" };
        write!(
            f,
            "[{status}] {} via {} at {:#x} in {} (sources: {}; tainted: {})",
            self.kind,
            self.sink,
            self.sink_ins,
            self.sink_fn,
            self.sources
                .iter()
                .map(|s| format!("{}@{:#x}", s.name, s.ins_addr))
                .collect::<Vec<_>>()
                .join(", "),
            self.tainted_expr,
        )?;
        let chain = self.call_chain_display();
        if !chain.is_empty() {
            write!(f, " [chain: {chain}]")?;
        }
        Ok(())
    }
}

/// Sorts findings into the canonical report order: vulnerable before
/// sanitised, then by kind, fingerprint, and the remaining identity
/// fields as tie-breakers. The key is a pure function of deterministic
/// finding fields, so the order is stable across runs and thread
/// counts.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        a.sanitized()
            .cmp(&b.sanitized())
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.fingerprint.cmp(&b.fingerprint))
            .then_with(|| a.sink_ins.cmp(&b.sink_ins))
            .then_with(|| a.observed_in.cmp(&b.observed_in))
            .then_with(|| a.call_chain.cmp(&b.call_chain))
            .then_with(|| a.sources.cmp(&b.sources))
    });
}

/// Drops findings that are identical in *every* field (full structural
/// equality, not just the fingerprint), returning how many were
/// suppressed. Expects the canonically sorted order produced by
/// [`sort_findings`], under which identical findings are adjacent.
pub fn dedup_findings(findings: &mut Vec<Finding>) -> usize {
    dedup_findings_with(findings, |_, _| {})
}

/// [`dedup_findings`], calling `suppressed(dup, kept)` for each dropped
/// finding, in order.
pub fn dedup_findings_with(
    findings: &mut Vec<Finding>,
    mut suppressed: impl FnMut(&Finding, &Finding),
) -> usize {
    let before = findings.len();
    findings.dedup_by(|dup, kept| {
        let same = dup == kept;
        if same {
            suppressed(dup, kept);
        }
        same
    });
    before - findings.len()
}

/// How the pipeline fared on one function — the fault-tolerance
/// lattice, ordered from full success to total loss.
///
/// Everything except [`FunctionOutcome::LiftFailed`] and
/// [`FunctionOutcome::Panicked`] still contributes results to the
/// report; those two downgrade the function to an opaque summary (no
/// defs, conservative pass-through for callers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FunctionOutcome {
    /// Fully analyzed at full strength.
    Analyzed,
    /// Analyzed under the degraded profile (reduced path budget and/or
    /// alias rewriting off) after exhausting its fuel at full strength.
    Degraded,
    /// Even the degraded retry exhausted its fuel; partial results kept.
    BudgetExceeded,
    /// The function could not be lifted to a CFG (undecodable word,
    /// unmapped read, impossible symbol range); downgraded to opaque.
    LiftFailed,
    /// Analysis panicked and was caught; downgraded to opaque with the
    /// expression pool rolled back to its pre-function state.
    Panicked,
}

impl fmt::Display for FunctionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FunctionOutcome::Analyzed => "analyzed",
            FunctionOutcome::Degraded => "degraded",
            FunctionOutcome::BudgetExceeded => "budget-exceeded",
            FunctionOutcome::LiftFailed => "lift-failed",
            FunctionOutcome::Panicked => "panicked",
        })
    }
}

/// Per-function outcome record for every function that did not come
/// through [`FunctionOutcome::Analyzed`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionRecord {
    /// Function entry address.
    pub addr: u32,
    /// Function name.
    pub name: String,
    /// How far the analysis got.
    pub outcome: FunctionOutcome,
    /// Human-readable reason (the lift error, the exhausted budget, the
    /// panic stage).
    pub detail: String,
}

/// Logical cost profile of one function, aggregated across pipeline
/// stages. Every field except the `*_us` durations is a deterministic
/// work counter — bit-identical across thread counts — and only those
/// logical fields ever feed reports or comparisons. The durations exist
/// for trace export and `--profile` display only.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FnCost {
    /// Function entry address.
    pub addr: u32,
    /// Function name.
    pub name: String,
    /// Basic blocks executed during symbolic exploration (the symex
    /// fuel spent; counts re-executions across paths).
    pub blocks_executed: u64,
    /// Execution paths explored by symex.
    pub paths_explored: u64,
    /// Definition pairs rewritten by alias recognition (Algorithm 1).
    pub alias_rewrites: u64,
    /// Fuel units spent by bottom-up propagation (Algorithm 2).
    pub ddg_fuel: u64,
    /// Sink observations visible from this function.
    pub sinks: u64,
    /// Wall-clock spent in symex for this function, in microseconds.
    /// Never deterministic; excluded from all logical comparisons.
    #[serde(default)]
    pub symex_us: u64,
    /// Wall-clock spent propagating this function, in microseconds.
    /// Never deterministic; excluded from all logical comparisons.
    #[serde(default)]
    pub ddg_us: u64,
}

impl FnCost {
    /// Logical work score used to rank hotspots: a pure function of the
    /// deterministic counters, so the ranking is identical across
    /// thread counts.
    pub fn work(&self) -> u64 {
        self.blocks_executed + self.ddg_fuel + self.alias_rewrites
    }
}

/// The observability section of a report: the per-image metrics
/// registry plus per-function cost profiles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySection {
    /// Counters, gauges and histograms aggregated over the whole image.
    #[serde(default)]
    pub metrics: MetricsRegistry,
    /// Per-function cost profiles, in address order.
    #[serde(default)]
    pub functions: Vec<FnCost>,
}

impl TelemetrySection {
    /// The `n` most expensive functions by logical work, descending
    /// (ties broken by address, ascending). Zero-work functions are
    /// omitted.
    pub fn hotspots(&self, n: usize) -> Vec<&FnCost> {
        let mut v: Vec<&FnCost> = self.functions.iter().filter(|f| f.work() > 0).collect();
        v.sort_by(|a, b| b.work().cmp(&a.work()).then(a.addr.cmp(&b.addr)));
        v.truncate(n);
        v
    }
}

/// Where the judged sink sites of one sink kind ended up — one row of
/// the sink-coverage report.
///
/// Counts are distinct sink *sites* (instruction addresses), each
/// classified by the best judgement any observing function reached
/// (reported outranks sanitized outranks infeasible outranks
/// unreached). Invariants, checked by the CI audit smoke:
///
/// * `sites == reported + sanitized + infeasible + unreached`
/// * `reached() == reported + sanitized + infeasible`
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkCoverageRow {
    /// Sink kind name (`memcpy`, `system`, `loop-copy`, …).
    pub sink: String,
    /// Distinct call sites of this sink the detector saw.
    pub sites: usize,
    /// Sites reported as findings (vulnerable paths survive).
    pub reported: usize,
    /// Sites whose best outcome was a sanitize-suppressed finding.
    pub sanitized: usize,
    /// Sites whose every tainted observation was judged infeasible.
    pub infeasible: usize,
    /// Sites no tainted data reached.
    pub unreached: usize,
}

impl SinkCoverageRow {
    /// Sites tainted data reached (regardless of the final verdict).
    pub fn reached(&self) -> usize {
        self.reported + self.sanitized + self.infeasible
    }
}

/// The sink-coverage section of a report: per-kind site accounting plus
/// the suppression aggregates that have no per-site attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkCoverage {
    /// One row per sink kind, sorted by sink name.
    pub rows: Vec<SinkCoverageRow>,
    /// Sink observations pruned as infeasible inside Algorithm 2
    /// propagation (aggregate only: cache-served functions re-credit
    /// the count but carry no per-site records).
    pub ddg_pruned: usize,
    /// Candidate findings folded by cross-holder deduplication.
    pub duplicates: usize,
}

impl SinkCoverage {
    /// True when nothing was recorded (no sinks judged, no prunes).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.ddg_pruned == 0 && self.duplicates == 0
    }

    /// Column-wise total over all rows.
    pub fn totals(&self) -> SinkCoverageRow {
        let mut t = SinkCoverageRow { sink: "total".to_owned(), ..SinkCoverageRow::default() };
        for r in &self.rows {
            t.sites += r.sites;
            t.reported += r.reported;
            t.sanitized += r.sanitized;
            t.infeasible += r.infeasible;
            t.unreached += r.unreached;
        }
        t
    }
}

/// The complete result of analyzing one binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Name used for reporting (binary or firmware component).
    pub binary_name: String,
    /// Guest architecture.
    pub arch: String,
    /// Number of functions analyzed.
    pub functions: usize,
    /// Total basic blocks.
    pub blocks: usize,
    /// Call-graph edges (Table II).
    pub call_graph_edges: usize,
    /// Number of sensitive sink call sites found (Table III "Sinks").
    pub sinks_count: usize,
    /// Indirect calls resolved by layout similarity.
    pub resolved_indirect: usize,
    /// Every judged `(source, path, sink)` tuple.
    pub findings: Vec<Finding>,
    /// Tainted sink observations suppressed because their path
    /// constraints are contradictory (interval-guards mode only).
    #[serde(default)]
    pub infeasible_suppressed: usize,
    /// Functions that produced results — [`FunctionOutcome::Analyzed`],
    /// [`FunctionOutcome::Degraded`] or
    /// [`FunctionOutcome::BudgetExceeded`].
    #[serde(default)]
    pub functions_analyzed: usize,
    /// Functions downgraded to opaque summaries
    /// ([`FunctionOutcome::LiftFailed`] or
    /// [`FunctionOutcome::Panicked`]).
    #[serde(default)]
    pub functions_skipped: usize,
    /// Functions re-run under the degraded profile after exhausting
    /// their fuel at full strength.
    #[serde(default)]
    pub functions_retried: usize,
    /// Loop-copy sink observations carried by the data-flow stage
    /// (the paper's memory-copies-in-loops heuristic, §III-F).
    #[serde(default)]
    pub loop_copy_sinks: usize,
    /// One record per function that did not come through fully analyzed,
    /// in address order — the skip table `dtaint scan` prints.
    #[serde(default)]
    pub skipped_functions: Vec<FunctionRecord>,
    /// The scan's wall clock: the duration in microseconds of each span
    /// the scan recorded on lane 0, keyed by span name (`lift_cfg`,
    /// `ssa`, `ddg`, `ddg_alias`, `ddg_indirect`, `ddg_propagate`,
    /// `detect`), with the root span under `scan`. Display only — see
    /// [`Self::stage`].
    #[serde(default)]
    pub stage_us: BTreeMap<String, u64>,
    /// Logical metrics and per-function cost profiles. The counters in
    /// here are deterministic (bit-identical across thread counts);
    /// wall-clock only appears in fields documented as such.
    #[serde(default)]
    pub telemetry: TelemetrySection,
    /// Per sink-kind site accounting (always populated by the pipeline;
    /// defaults empty in hand-built and legacy reports). Deterministic
    /// and stable across cold/warm cache runs — classification happens
    /// entirely at detection time.
    #[serde(default)]
    pub sink_coverage: SinkCoverage,
    /// The decision audit log — only populated when the scan ran with
    /// auditing enabled (`--audit-out`); empty otherwise. `dtaint why`
    /// reads these.
    #[serde(default)]
    pub decisions: Vec<Decision>,
}

impl AnalysisReport {
    /// Unsafe paths: findings with taint and no sanitisation
    /// (Table III "Vulnerable paths").
    pub fn vulnerable_paths(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.sanitized()).collect()
    }

    /// The report with every wall-clock field zeroed: `stage_us` cleared
    /// and the per-function `symex_us`/`ddg_us` display costs zeroed.
    /// Everything left is a deterministic logical quantity, so two
    /// reports of the same image compare equal under `==` regardless of
    /// machine load, thread count, or whether an incremental cache served
    /// the scan — the comparison the differential cold-vs-warm harness
    /// performs.
    #[must_use]
    pub fn with_zeroed_wall_clock(mut self) -> AnalysisReport {
        self.stage_us.clear();
        for f in &mut self.telemetry.functions {
            f.symex_us = 0;
            f.ddg_us = 0;
        }
        self
    }

    /// Wall-clock duration of the named lane-0 span (`scan` for the whole
    /// scan); zero when the scan recorded no such span.
    pub fn stage(&self, name: &str) -> Duration {
        Duration::from_micros(self.stage_us.get(name).copied().unwrap_or(0))
    }

    /// Distinct vulnerable sink sites (Table III "Vulnerability").
    pub fn vulnerabilities(&self) -> usize {
        self.vulnerable_paths().iter().map(|f| f.sink_ins).collect::<BTreeSet<_>>().len()
    }

    /// Vulnerable findings of one kind.
    pub fn findings_of_kind(&self, kind: VulnKindRepr) -> Vec<&Finding> {
        self.vulnerable_paths().into_iter().filter(|f| f.kind == kind).collect()
    }

    /// True when no function was downgraded to an opaque summary — the
    /// report covers every function the binary declares.
    pub fn coverage_complete(&self) -> bool {
        self.functions_skipped == 0
    }

    /// Plain-text table of every function that did not come through
    /// fully analyzed (empty string when coverage is clean).
    pub fn skip_table(&self) -> String {
        use std::fmt::Write as _;
        if self.skipped_functions.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "degraded/skipped functions:");
        let _ = writeln!(out, "  {:<10} {:<24} {:<16} detail", "address", "function", "outcome");
        for r in &self.skipped_functions {
            let _ = writeln!(
                out,
                "  {:<#10x} {:<24} {:<16} {}",
                r.addr,
                r.name,
                r.outcome.to_string(),
                r.detail
            );
        }
        out
    }

    /// Renders the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (practically impossible for
    /// this type).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed input.
    pub fn from_json(s: &str) -> serde_json::Result<AnalysisReport> {
        serde_json::from_str(s)
    }

    /// Renders the report as a Markdown document (summary table,
    /// vulnerable findings with traces, then suppressed/sanitised paths).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut md = String::new();
        let _ = writeln!(md, "# DTaint report: `{}`\n", self.binary_name);
        let _ = writeln!(md, "| metric | value |");
        let _ = writeln!(md, "|---|---|");
        let _ = writeln!(md, "| architecture | {} |", self.arch);
        let _ = writeln!(md, "| functions analyzed | {} |", self.functions);
        let _ = writeln!(md, "| basic blocks | {} |", self.blocks);
        let _ = writeln!(md, "| call-graph edges | {} |", self.call_graph_edges);
        let _ = writeln!(md, "| sensitive sinks | {} |", self.sinks_count);
        let _ = writeln!(md, "| indirect calls resolved | {} |", self.resolved_indirect);
        let _ = writeln!(md, "| vulnerable paths | {} |", self.vulnerable_paths().len());
        if self.infeasible_suppressed > 0 {
            let _ =
                writeln!(md, "| infeasible paths suppressed | {} |", self.infeasible_suppressed);
        }
        if self.loop_copy_sinks > 0 {
            let _ = writeln!(md, "| loop-copy sinks | {} |", self.loop_copy_sinks);
        }
        if !self.coverage_complete() || self.functions_retried > 0 {
            let _ = writeln!(md, "| functions skipped | {} |", self.functions_skipped);
            let _ = writeln!(md, "| functions retried (degraded) | {} |", self.functions_retried);
        }
        let _ = writeln!(md, "| **vulnerabilities** | **{}** |", self.vulnerabilities());
        let _ = writeln!(md, "| analysis time | {:.2?} |", self.stage("scan"));
        let vulnerable = self.vulnerable_paths();
        if !vulnerable.is_empty() {
            let _ = writeln!(md, "\n## Vulnerabilities\n");
            for f in &vulnerable {
                let _ = writeln!(
                    md,
                    "### {} via `{}` at `{:#x}` (in `{}`)\n",
                    f.kind, f.sink, f.sink_ins, f.sink_fn
                );
                let srcs: Vec<String> =
                    f.sources.iter().map(|s| format!("`{}@{:#x}`", s.name, s.ins_addr)).collect();
                let _ = writeln!(md, "- sources: {}", srcs.join(", "));
                let _ = writeln!(md, "- tainted variable: `{}`", f.tainted_expr);
                let _ = writeln!(md, "- observed from: `{}`", f.observed_in);
                if !f.fingerprint.is_empty() {
                    let _ = writeln!(md, "- fingerprint: `{}`", f.fingerprint);
                }
                let chain = f.call_chain_display();
                if !chain.is_empty() {
                    let _ = writeln!(md, "- call chain: {chain}");
                }
                if !f.evidence.is_empty() {
                    let _ = writeln!(md, "- evidence:");
                    for step in &f.evidence {
                        let _ = writeln!(md, "  - {step}");
                    }
                }
                let _ = writeln!(md);
            }
        }
        let sanitized: Vec<&Finding> = self.findings.iter().filter(|f| f.sanitized()).collect();
        if !sanitized.is_empty() {
            let _ = writeln!(md, "## Sanitised paths (not reported)\n");
            for f in sanitized {
                let _ = writeln!(
                    md,
                    "- {} via `{}` at `{:#x}` — {}",
                    f.kind, f.sink, f.sink_ins, f.verdict
                );
            }
        }
        if !self.skipped_functions.is_empty() {
            let _ = writeln!(md, "\n## Degraded / skipped functions\n");
            let _ = writeln!(md, "| address | function | outcome | detail |");
            let _ = writeln!(md, "|---|---|---|---|");
            for r in &self.skipped_functions {
                let _ = writeln!(
                    md,
                    "| `{:#x}` | `{}` | {} | {} |",
                    r.addr, r.name, r.outcome, r.detail
                );
            }
        }
        // Hotspots rank by the deterministic work score only, so this
        // table is bit-identical across thread counts.
        let hot = self.telemetry.hotspots(10);
        if !hot.is_empty() {
            let _ = writeln!(md, "\n## Hotspots (top {} by logical work)\n", hot.len());
            let _ =
                writeln!(md, "| address | function | blocks | paths | alias | ddg fuel | sinks |");
            let _ = writeln!(md, "|---|---|---|---|---|---|---|");
            for f in hot {
                let _ = writeln!(
                    md,
                    "| `{:#x}` | `{}` | {} | {} | {} | {} | {} |",
                    f.addr,
                    f.name,
                    f.blocks_executed,
                    f.paths_explored,
                    f.alias_rewrites,
                    f.ddg_fuel,
                    f.sinks
                );
            }
        }
        if !self.sink_coverage.is_empty() {
            let _ = writeln!(md, "\n## Sink coverage\n");
            let _ = writeln!(
                md,
                "| sink | sites | reached | reported | sanitized | infeasible | unreached |"
            );
            let _ = writeln!(md, "|---|---|---|---|---|---|---|");
            for r in &self.sink_coverage.rows {
                let _ = writeln!(
                    md,
                    "| `{}` | {} | {} | {} | {} | {} | {} |",
                    r.sink,
                    r.sites,
                    r.reached(),
                    r.reported,
                    r.sanitized,
                    r.infeasible,
                    r.unreached
                );
            }
            let t = self.sink_coverage.totals();
            let _ = writeln!(
                md,
                "| **total** | **{}** | **{}** | **{}** | **{}** | **{}** | **{}** |",
                t.sites,
                t.reached(),
                t.reported,
                t.sanitized,
                t.infeasible,
                t.unreached
            );
            if self.sink_coverage.ddg_pruned > 0 {
                let _ = writeln!(
                    md,
                    "\nPruned inside DDG propagation (no per-site attribution): {}",
                    self.sink_coverage.ddg_pruned
                );
            }
            if self.sink_coverage.duplicates > 0 {
                let _ = writeln!(
                    md,
                    "\nDuplicate findings folded across observers: {}",
                    self.sink_coverage.duplicates
                );
            }
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(sink_ins: u32, sanitized: bool) -> Finding {
        let verdict = if sanitized {
            SanitizeVerdict::ConstGuard { bound: 64, capacity: Some(256), fits: true }
        } else {
            SanitizeVerdict::UncheckedFlow
        };
        let sources = vec![SourceRef { name: "recv".into(), ins_addr: 0x100 }];
        Finding {
            kind: VulnKindRepr::BufferOverflow,
            sink: "memcpy".into(),
            sink_ins,
            sink_fn: "f".into(),
            observed_in: "main".into(),
            fingerprint: crate::evidence::fingerprint(
                VulnKindRepr::BufferOverflow,
                "memcpy",
                "f",
                "ret_0x100",
                &sources,
            ),
            evidence: vec![
                EvidenceStep::Source { name: "recv".into(), ins_addr: 0x100 },
                EvidenceStep::CallsiteSubstitution {
                    ins_addr: 0x200,
                    caller: "main".into(),
                    callee: "f".into(),
                },
                EvidenceStep::Verdict(verdict.clone()),
            ],
            sources,
            call_chain: vec![0x200],
            tainted_expr: "ret_0x100".into(),
            verdict,
        }
    }

    fn report() -> AnalysisReport {
        AnalysisReport {
            binary_name: "t".into(),
            arch: "arm32e".into(),
            functions: 2,
            blocks: 5,
            call_graph_edges: 3,
            sinks_count: 2,
            resolved_indirect: 0,
            findings: vec![finding(0x10, false), finding(0x10, false), finding(0x20, true)],
            infeasible_suppressed: 0,
            functions_analyzed: 2,
            functions_skipped: 0,
            functions_retried: 0,
            loop_copy_sinks: 0,
            skipped_functions: Vec::new(),
            stage_us: BTreeMap::new(),
            telemetry: TelemetrySection::default(),
            sink_coverage: SinkCoverage::default(),
            decisions: Vec::new(),
        }
    }

    #[test]
    fn vulnerable_paths_exclude_sanitized() {
        let r = report();
        assert_eq!(r.vulnerable_paths().len(), 2);
        assert_eq!(r.vulnerabilities(), 1, "same sink site counted once");
    }

    #[test]
    fn json_roundtrip() {
        let r = report();
        let s = r.to_json().unwrap();
        let back = AnalysisReport::from_json(&s).unwrap();
        assert_eq!(back.findings.len(), 3);
        assert_eq!(back.binary_name, "t");
        assert_eq!(back, r, "round-trip must preserve every field");
    }

    #[test]
    fn stored_report_with_old_timings_still_parses() {
        // A report written before `stage_us`: it carried a `timings`
        // object instead, which is now ignored.
        let mut r = report();
        r.stage_us.insert("scan".into(), 7);
        let s = r.to_json().unwrap();
        let old = s.replace(
            "\"stage_us\": {\n    \"scan\": 7\n  }",
            "\"timings\": {\"lift_cfg\": {\"secs\": 0, \"nanos\": 5}}",
        );
        assert_ne!(old, s, "the old layout replaced the map");
        let back = AnalysisReport::from_json(&old).unwrap();
        assert!(back.stage_us.is_empty());
        assert_eq!(back, r.with_zeroed_wall_clock());
    }

    #[test]
    fn legacy_json_without_provenance_fields_still_parses() {
        // A PR-4-era finding: `sanitized`/`trace` instead of
        // `verdict`/`evidence`/`fingerprint`. Unknown members are
        // ignored; the new fields default (verdict = UncheckedFlow).
        let legacy = r#"{
            "kind": "BufferOverflow", "sink": "memcpy", "sink_ins": 16,
            "sink_fn": "f", "observed_in": "main",
            "sources": [{"name": "recv", "ins_addr": 256}],
            "call_chain": [], "tainted_expr": "ret_0x100",
            "sanitized": true, "trace": ["source recv@0x100"]
        }"#;
        let f: Finding = serde_json::from_str(legacy).unwrap();
        assert!(!f.sanitized(), "legacy bool is not carried over; verdict defaults unchecked");
        assert!(f.evidence.is_empty());
        assert!(f.fingerprint.is_empty());
    }

    #[test]
    fn markdown_renders_summary_and_findings() {
        let md = report().to_markdown();
        assert!(md.contains("# DTaint report"));
        assert!(md.contains("**vulnerabilities** | **1**"));
        assert!(md.contains("## Vulnerabilities"));
        assert!(md.contains("Sanitised paths"));
        assert!(md.contains("source recv@0x100"));
    }

    #[test]
    fn skip_table_lists_non_analyzed_functions() {
        let mut r = report();
        assert!(r.coverage_complete());
        assert_eq!(r.skip_table(), "");
        r.functions_skipped = 1;
        r.skipped_functions.push(FunctionRecord {
            addr: 0x8000,
            name: "broken".into(),
            outcome: FunctionOutcome::LiftFailed,
            detail: "undecodable instruction word".into(),
        });
        assert!(!r.coverage_complete());
        let table = r.skip_table();
        assert!(table.contains("0x8000"));
        assert!(table.contains("broken"));
        assert!(table.contains("lift-failed"));
        let md = r.to_markdown();
        assert!(md.contains("Degraded / skipped functions"));
        // Round-trips through JSON, and old reports without the new
        // fields still parse.
        let back = AnalysisReport::from_json(&r.to_json().unwrap()).unwrap();
        assert_eq!(back.skipped_functions, r.skipped_functions);
    }

    #[test]
    fn hotspots_rank_by_logical_work() {
        let mut r = report();
        r.telemetry.functions = vec![
            FnCost { addr: 0x100, name: "cold".into(), ..FnCost::default() },
            FnCost {
                addr: 0x200,
                name: "warm".into(),
                blocks_executed: 10,
                ddg_fuel: 5,
                ..FnCost::default()
            },
            FnCost {
                addr: 0x300,
                name: "hot".into(),
                blocks_executed: 100,
                alias_rewrites: 3,
                symex_us: 1, // durations must not affect the ranking
                ..FnCost::default()
            },
        ];
        let hot = r.telemetry.hotspots(10);
        assert_eq!(hot.len(), 2, "zero-work functions are omitted");
        assert_eq!(hot[0].name, "hot");
        assert_eq!(hot[1].name, "warm");
        let md = r.to_markdown();
        assert!(md.contains("## Hotspots"));
        assert!(md.contains("| `0x300` | `hot` | 100 |"));
        assert!(!md.contains("cold"));
        // And the whole section round-trips through JSON.
        let back = AnalysisReport::from_json(&r.to_json().unwrap()).unwrap();
        assert_eq!(back.telemetry.functions, r.telemetry.functions);
    }

    #[test]
    fn sink_coverage_renders_and_round_trips() {
        let mut r = report();
        assert!(!r.to_markdown().contains("## Sink coverage"), "empty coverage is omitted");
        r.sink_coverage = SinkCoverage {
            rows: vec![
                SinkCoverageRow {
                    sink: "memcpy".into(),
                    sites: 4,
                    reported: 1,
                    sanitized: 1,
                    infeasible: 1,
                    unreached: 1,
                },
                SinkCoverageRow {
                    sink: "system".into(),
                    sites: 2,
                    reported: 1,
                    sanitized: 0,
                    infeasible: 0,
                    unreached: 1,
                },
            ],
            ddg_pruned: 3,
            duplicates: 2,
        };
        // Row invariant: sites = reported + sanitized + infeasible + unreached.
        for row in &r.sink_coverage.rows {
            assert_eq!(row.sites, row.reported + row.sanitized + row.infeasible + row.unreached);
            assert_eq!(row.reached(), row.reported + row.sanitized + row.infeasible);
        }
        let t = r.sink_coverage.totals();
        assert_eq!((t.sites, t.reported, t.unreached), (6, 2, 2));
        let md = r.to_markdown();
        assert!(md.contains("## Sink coverage"), "{md}");
        assert!(md.contains("| `memcpy` | 4 | 3 | 1 | 1 | 1 | 1 |"), "{md}");
        assert!(
            md.contains("| **total** | **6** | **4** | **2** | **1** | **1** | **2** |"),
            "{md}"
        );
        assert!(md.contains("Pruned inside DDG propagation"), "{md}");
        assert!(md.contains("Duplicate findings folded"), "{md}");
        let back = AnalysisReport::from_json(&r.to_json().unwrap()).unwrap();
        assert_eq!(back.sink_coverage, r.sink_coverage);
        // Legacy reports without the section parse to the empty default.
        let legacy: AnalysisReport = serde_json::from_str(&report().to_json().unwrap()).unwrap();
        assert!(legacy.sink_coverage.is_empty());
        assert!(legacy.decisions.is_empty());
    }

    #[test]
    fn display_flags_vulnerable_findings() {
        let s = finding(0x10, false).to_string();
        assert!(s.contains("VULNERABLE"));
        assert!(s.contains("recv@0x100"));
        let s = finding(0x10, true).to_string();
        assert!(s.contains("sanitized"));
    }

    #[test]
    fn display_renders_call_chain_from_evidence() {
        let s = finding(0x10, false).to_string();
        assert!(s.contains("[chain: main →(0x200) f]"), "{s}");
        // Without callsite evidence the chain falls back to raw
        // addresses between the observing function and the sink.
        let mut f = finding(0x10, false);
        f.evidence.clear();
        assert_eq!(f.call_chain_display(), "main →(0x200) f");
        f.call_chain.clear();
        assert_eq!(f.call_chain_display(), "");
        assert!(!f.to_string().contains("[chain:"));
    }

    #[test]
    fn findings_sort_canonically_and_dedup_counts_duplicates() {
        let mut sane = finding(0x30, true);
        sane.fingerprint = "ffff".into();
        let mut vuln_b = finding(0x20, false);
        vuln_b.fingerprint = "bbbb".into();
        let mut vuln_a = finding(0x10, false);
        vuln_a.fingerprint = "aaaa".into();
        let mut v = vec![sane.clone(), vuln_b.clone(), vuln_a.clone(), vuln_a.clone()];
        sort_findings(&mut v);
        // Vulnerable first, then fingerprint order; identical findings
        // are adjacent and collapse in dedup.
        assert_eq!(
            v.iter().map(|f| f.fingerprint.as_str()).collect::<Vec<_>>(),
            ["aaaa", "aaaa", "bbbb", "ffff"]
        );
        assert_eq!(dedup_findings(&mut v), 1);
        assert_eq!(v.len(), 3);
        assert!(!v[0].sanitized() && v[2].sanitized());
        // The capturing form sees each dropped duplicate beside the
        // finding it duplicates.
        let mut w = vec![vuln_a.clone(), vuln_a.clone(), vuln_a.clone(), sane.clone()];
        let mut dropped = 0;
        let n = dedup_findings_with(&mut w, |dup, kept| {
            assert_eq!((dup, kept), (&vuln_a, &vuln_a));
            dropped += 1;
        });
        assert_eq!((n, dropped, w.len()), (2, 2, 2));
    }
}
