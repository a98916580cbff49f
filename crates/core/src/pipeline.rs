//! The end-to-end DTaint pipeline (Figure 4 of the paper).
//!
//! `binary → IR/CFG → per-function symbolic analysis (parallel) →
//! pointer aliasing → layout similarity → bottom-up data flow →
//! sink/source matching → findings`.

use crate::report;
use crate::report::{
    AnalysisReport, FnCost, FunctionOutcome, FunctionRecord, StageTimings, TelemetrySection,
};
use crate::sinks::{default_sink_names, default_sources};
use crate::taint;
use dtaint_cfg::{build_function_cfg, CallGraph, FunctionCfg};
use dtaint_dataflow::cache::{env_digest, function_content_hash, sym_salt, Level};
use dtaint_dataflow::{build_dataflow, CacheRef, DataflowConfig, SinkKind};
use dtaint_fwbin::Binary;
use dtaint_symex::{analyze_function, canonical_encode, SummaryDecoder};
use dtaint_symex::{ExprPool, FuncSummary, SymexConfig};
use dtaint_telemetry::{Collector, MetricsRegistry, SpanEvent, TraceBuffer, TraceSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Configuration of the whole pipeline.
#[derive(Debug, Clone)]
pub struct DtaintConfig {
    /// Per-function symbolic execution settings.
    pub symex: SymexConfig,
    /// Data-flow stage settings (alias/indirect switches, sink names).
    pub dataflow: DataflowConfig,
    /// Import names treated as attacker-controlled sources.
    pub sources: HashSet<String>,
    /// Worker threads for the per-function analysis (0 = all cores).
    pub threads: usize,
    /// How bounding guards are judged ([`taint::BoundsMode`]): the
    /// paper's syntactic check (the default), the strict-bounds
    /// extension (constant guards must fit the destination's stack
    /// capacity), or interval abstract interpretation, which also
    /// suppresses contradictory (infeasible) paths during propagation.
    pub bounds: taint::BoundsMode,
    /// When set, only functions whose name passes the filter are
    /// analyzed — the paper does this for the large Uniview/Hikvision
    /// images ("we manually extract 430 functions that are used to
    /// process RTSP and HTTP", §V-A).
    pub function_filter: Option<Vec<String>>,
    /// Abort the scan on the first function that cannot be lifted or
    /// that panics, instead of downgrading it to an opaque summary and
    /// carrying on. `false` (keep-going) is the production default for
    /// whole-image scans; `true` is the old behaviour, useful when a
    /// clean corpus is expected and any failure is a bug.
    pub fail_fast: bool,
    /// Incremental summary cache: when set, per-function symbolic
    /// summaries and final DDG summaries are keyed by content hash and
    /// reused across scans (see [`dtaint_dataflow::cache`]). Findings
    /// and all report fields except wall-clock timings are identical
    /// with or without it; hit/miss counters land in the *collector's*
    /// metrics, never in the report. `None` (the default) scans cold.
    pub cache: Option<CacheRef>,
    /// Collect the decision audit log ([`AnalysisReport::decisions`]):
    /// one typed [`dtaint_telemetry::Decision`] per negative analysis
    /// decision, for `dtaint why`. Off by default; the analysis result
    /// is identical either way — the flag only controls whether records
    /// are materialised (zero allocation when off).
    pub audit: bool,
}

impl Default for DtaintConfig {
    fn default() -> Self {
        DtaintConfig {
            symex: SymexConfig::default(),
            dataflow: DataflowConfig { sink_names: default_sink_names(), ..Default::default() },
            sources: default_sources(),
            threads: 0,
            bounds: taint::BoundsMode::Paper,
            function_filter: None,
            fail_fast: false,
            cache: None,
            audit: false,
        }
    }
}

/// The DTaint analyzer.
///
/// # Examples
///
/// See the crate-level example ([`crate`]) for an end-to-end run on an
/// assembled binary.
#[derive(Debug, Clone, Default)]
pub struct Dtaint {
    config: DtaintConfig,
}

impl Dtaint {
    /// Creates an analyzer with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an analyzer with explicit configuration.
    pub fn with_config(config: DtaintConfig) -> Self {
        Dtaint { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DtaintConfig {
        &self.config
    }

    /// Analyzes one binary end-to-end.
    ///
    /// In the default keep-going mode a function that cannot be lifted,
    /// exhausts its analysis budget, or panics is downgraded — never
    /// aborting the scan — and recorded in
    /// [`AnalysisReport::skipped_functions`]. With
    /// [`DtaintConfig::fail_fast`] the first lift failure or caught
    /// panic aborts instead.
    ///
    /// # Errors
    ///
    /// In fail-fast mode only: propagates lifting failures (undecodable
    /// instruction words, unmapped reads) from CFG construction, and
    /// converts caught analysis panics into
    /// [`dtaint_fwbin::Error::BadFormat`].
    pub fn analyze(&self, bin: &Binary, name: &str) -> dtaint_fwbin::Result<AnalysisReport> {
        let mut tel = Collector::disabled();
        self.analyze_traced(bin, name, &mut tel)
    }

    /// [`Dtaint::analyze`] with telemetry: hierarchical spans (scan →
    /// function → stage) are recorded into `tel` when it is enabled, and
    /// the metrics registry is populated either way (metrics are logical
    /// counters — free to keep, and bit-identical across thread counts).
    ///
    /// Spans carry wall-clock durations *and* logical work counters; the
    /// two are kept strictly separate, and nothing the analysis computes
    /// ever reads a duration, so findings and all logical counters are
    /// identical whether `tel` is enabled or not, at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`Dtaint::analyze`].
    pub fn analyze_traced(
        &self,
        bin: &Binary,
        name: &str,
        tel: &mut Collector,
    ) -> dtaint_fwbin::Result<AnalysisReport> {
        let scan_t0 = tel.start();
        // Only events this scan appends matter for the per-function
        // duration lookup below (one collector may span many binaries).
        let watermark = tel.events().len();
        if let Some(cref) = &self.config.cache {
            cref.cache.begin_scan(&cref.scan);
        }
        // Per-function outcome records, keyed by entry address; only
        // non-Analyzed outcomes are stored, and a later stage may
        // overwrite with a more severe outcome.
        let mut records: BTreeMap<u32, FunctionRecord> = BTreeMap::new();

        // Stage 1: lift + CFGs + call graph. Each function lifts behind
        // its own error and panic boundary; failures downgrade that one
        // function to an opaque (absent) summary.
        let stage_t0 = tel.start();
        let t = Instant::now();
        let mut syms: Vec<&dtaint_fwbin::Symbol> = bin.functions();
        if let Some(filter) = &self.config.function_filter {
            syms.retain(|s| filter.iter().any(|f| s.name.contains(f.as_str())));
        }
        let total_functions = syms.len();
        let mut cfgs: Vec<FunctionCfg> = Vec::with_capacity(syms.len());
        for s in &syms {
            match catch_unwind(AssertUnwindSafe(|| build_function_cfg(bin, s))) {
                Ok(Ok(cfg)) => cfgs.push(cfg),
                Ok(Err(e)) => {
                    if self.config.fail_fast {
                        return Err(e);
                    }
                    record(
                        &mut records,
                        s.addr,
                        &s.name,
                        FunctionOutcome::LiftFailed,
                        e.to_string(),
                    );
                }
                Err(_) => {
                    if self.config.fail_fast {
                        return Err(dtaint_fwbin::Error::BadFormat(format!(
                            "panic while lifting `{}`",
                            s.name
                        )));
                    }
                    record(
                        &mut records,
                        s.addr,
                        &s.name,
                        FunctionOutcome::Panicked,
                        "panic during lift/CFG construction".into(),
                    );
                }
            }
        }
        let mut callgraph = CallGraph::build(bin, &cfgs);
        let lift_cfg = t.elapsed();
        tel.record("lift_cfg", "stage", stage_t0, BTreeMap::new());

        // Stage 2: per-function static symbolic analysis, in parallel
        // with private pools, merged afterwards. A panicking function is
        // rolled back out of its pool and downgraded to an opaque
        // summary; a fuel-exhausted one is retried once degraded.
        let stage_t0 = tel.start();
        let t = Instant::now();
        let sym_cache = self.config.cache.as_ref().map(|cref| SymexCacheCtx {
            cref: cref.clone(),
            salt: sym_salt(env_digest(bin), &self.config.symex),
        });
        let stage = self.run_symex(bin, &cfgs, tel, sym_cache.as_ref());
        let SymexStage { summaries, pool, records: symex_records, retried, retry_time } = stage;
        // Decision audit log, assembled stage by stage in one canonical
        // order (symex budget → ddg prunes/budget/saturation → cache
        // quarantines → detect verdicts); empty unless auditing.
        let mut decisions: Vec<dtaint_telemetry::Decision> = Vec::new();
        for (addr, name, outcome, detail) in symex_records {
            if self.config.fail_fast && outcome == FunctionOutcome::Panicked {
                return Err(dtaint_fwbin::Error::BadFormat(format!(
                    "panic while analyzing `{name}`"
                )));
            }
            if self.config.audit
                && matches!(outcome, FunctionOutcome::Degraded | FunctionOutcome::BudgetExceeded)
            {
                decisions.push(dtaint_telemetry::Decision::new(
                    dtaint_telemetry::DecisionKind::BudgetDegraded,
                    "symex",
                    &name,
                    addr,
                    dtaint_telemetry::DecisionReason::FuelExhausted {
                        stage: "symex".to_owned(),
                        fuel_used: u64::from(self.config.symex.max_fuel),
                        retried: true,
                    },
                ));
            }
            record(&mut records, addr, &name, outcome, detail);
        }
        let ssa = t.elapsed();
        tel.record("ssa", "stage", stage_t0, BTreeMap::new());

        // Stage 3: alias + layout similarity + bottom-up propagation.
        let stage_t0 = tel.start();
        let t = Instant::now();
        let mut df_config = self.config.dataflow.clone();
        df_config.interval_guards = self.config.bounds == taint::BoundsMode::Interval;
        df_config.audit = self.config.audit;
        df_config.trace = tel.is_enabled().then(|| TraceSpec { clock: tel.clock(), base_lane: 1 });
        // Quarantine every function with a non-Analyzed outcome so far
        // (lift failures, symex panics/degradations): the DDG stage must
        // never store their summaries — a faulted artefact in the cache
        // would masquerade as a healthy one on the next scan.
        df_config.cache = self.config.cache.as_ref().map(|cref| CacheRef {
            cache: cref.cache.clone(),
            scan: cref.scan.clone(),
            uncacheable: std::sync::Arc::new(
                cref.uncacheable
                    .iter()
                    .copied()
                    .chain(
                        records
                            .values()
                            .filter(|r| r.outcome != FunctionOutcome::Analyzed)
                            .map(|r| r.addr),
                    )
                    .collect(),
            ),
        });
        let mut df = build_dataflow(bin, &mut callgraph, summaries, pool, &df_config);
        tel.absorb(std::mem::take(&mut df.trace_events));
        let df = df;
        let fn_name_of = |addr: u32| {
            df.finals
                .get(&addr)
                .map(|f| f.summary.name.clone())
                .unwrap_or_else(|| format!("{addr:#x}"))
        };
        for &addr in &df.alias_panics {
            record(
                &mut records,
                addr,
                &fn_name_of(addr),
                FunctionOutcome::Degraded,
                "alias stage panicked; alias rewriting skipped".into(),
            );
        }
        for f in df.finals.values() {
            if f.panicked {
                record(
                    &mut records,
                    f.summary.addr,
                    &f.summary.name,
                    FunctionOutcome::Panicked,
                    "panic during data-flow propagation".into(),
                );
            } else if f.budget_exhausted {
                record(
                    &mut records,
                    f.summary.addr,
                    &f.summary.name,
                    FunctionOutcome::BudgetExceeded,
                    format!("data-flow fuel exhausted (max_fuel = {})", df_config.max_fuel),
                );
            }
        }
        if self.config.fail_fast {
            if let Some(r) = records.values().find(|r| r.outcome == FunctionOutcome::Panicked) {
                return Err(dtaint_fwbin::Error::BadFormat(format!(
                    "panic while analyzing `{}`",
                    r.name
                )));
            }
        }
        if self.config.audit {
            use dtaint_telemetry::{Decision, DecisionKind, DecisionReason};
            // DDG fuel exhaustion, in finals (address) order.
            for f in df.finals.values().filter(|f| f.budget_exhausted) {
                decisions.push(Decision::new(
                    DecisionKind::BudgetDegraded,
                    "ddg",
                    &f.summary.name,
                    f.summary.addr,
                    DecisionReason::FuelExhausted {
                        stage: "ddg".to_owned(),
                        fuel_used: f.fuel_used,
                        retried: false,
                    },
                ));
            }
            // Interval prunes inside Algorithm 2, in the deterministic
            // drain order `build_dataflow` produced them in. Cache-hit
            // functions re-credit the aggregate count but carry no
            // per-sink records, so warm scans only list cold-analyzed
            // prunes (see `ProgramDataflow::pruned_sinks`).
            for p in &df.pruned_sinks {
                decisions.push(
                    Decision::new(
                        DecisionKind::PathPruned,
                        "ddg",
                        &p.pruned_in_name,
                        p.pruned_in,
                        DecisionReason::InfeasiblePath { constraint: p.constraint.clone() },
                    )
                    .at_sink(p.sink_ins, &p.sink),
                );
            }
            // Alias SSE fixpoints that hit their round budget.
            for f in df.finals.values().filter(|f| f.summary.sse_saturated) {
                decisions.push(Decision::new(
                    DecisionKind::AliasSaturated,
                    "ddg",
                    &f.summary.name,
                    f.summary.addr,
                    DecisionReason::Saturated { rounds: u64::from(f.summary.sse_rounds) },
                ));
            }
            // Functions quarantined from the incremental cache, in
            // address order (absent entirely on cache-less scans).
            if let Some(cref) = &df_config.cache {
                for &addr in cref.uncacheable.iter() {
                    let (name, outcome) = match records.get(&addr) {
                        Some(r) => (r.name.clone(), r.outcome.to_string()),
                        None => (fn_name_of(addr), "quarantined by prior scan".to_owned()),
                    };
                    decisions.push(Decision::new(
                        DecisionKind::CacheQuarantined,
                        "cache",
                        &name,
                        addr,
                        DecisionReason::Quarantined { outcome },
                    ));
                }
            }
        }
        let ddg = t.elapsed();
        tel.record("ddg", "stage", stage_t0, BTreeMap::new());
        // The DDG sub-stages run back-to-back inside `build_dataflow`,
        // so their spans can be reconstructed from its timing breakdown
        // at the stage's start offset without plumbing a clock through.
        if tel.is_enabled() {
            let mut off = stage_t0;
            for (nm, d) in [
                ("ddg_alias", df.timings.alias),
                ("ddg_indirect", df.timings.indirect),
                ("ddg_propagate", df.timings.propagate),
            ] {
                let dur = d.as_micros() as u64;
                tel.push(SpanEvent {
                    name: nm.to_owned(),
                    cat: "stage".to_owned(),
                    lane: 0,
                    start_us: off,
                    dur_us: dur,
                    args: BTreeMap::new(),
                });
                off += dur;
            }
        }

        // Stage 4: taint judgement.
        let stage_t0 = tel.start();
        let t = Instant::now();
        let fn_names: HashMap<u32, String> =
            cfgs.iter().map(|c| (c.addr, c.name.clone())).collect();
        let mut outcome = taint::detect_audit(
            &df,
            Some(bin),
            &self.config.sources,
            &fn_names,
            self.config.bounds,
            self.config.audit,
        );
        // Insert-time dedup: detect_full already collapses same-path
        // observations from different holders; this catches findings
        // that are identical in every field (usually zero). Both counts
        // feed the `detect.duplicates_suppressed` counter. Under audit
        // the structural pass is replaced by a capturing dedup so every
        // suppressed duplicate still yields a Decision record — the
        // retained order and counts are identical to `dedup_findings`.
        let duplicates_suppressed = outcome.duplicates_suppressed
            + if self.config.audit {
                let mut removed: Vec<(String, u32, String, String)> = Vec::new();
                outcome.findings.dedup_by(|dup, kept| {
                    let same = dup == kept;
                    if same {
                        removed.push((
                            dup.observed_in.clone(),
                            dup.sink_ins,
                            dup.sink.clone(),
                            kept.fingerprint.clone(),
                        ));
                    }
                    same
                });
                for (observed_in, sink_ins, sink, fingerprint) in &removed {
                    // The observing function's address is not on the
                    // finding; resolve it back through the name map.
                    let addr = fn_names
                        .iter()
                        .filter(|(_, n)| *n == observed_in)
                        .map(|(&a, _)| a)
                        .min()
                        .unwrap_or(0);
                    outcome.decisions.push(
                        dtaint_telemetry::Decision::new(
                            dtaint_telemetry::DecisionKind::DuplicateSuppressed,
                            "detect",
                            observed_in,
                            addr,
                            dtaint_telemetry::DecisionReason::Duplicate {
                                fingerprint: fingerprint.clone(),
                            },
                        )
                        .at_sink(*sink_ins, sink),
                    );
                }
                removed.len()
            } else {
                report::dedup_findings(&mut outcome.findings)
            };
        for &addr in &outcome.failed_holders {
            if self.config.fail_fast {
                return Err(dtaint_fwbin::Error::BadFormat(format!(
                    "panic while judging `{}`",
                    fn_name_of(addr)
                )));
            }
            record(
                &mut records,
                addr,
                &fn_name_of(addr),
                FunctionOutcome::Panicked,
                "panic during taint judgement".into(),
            );
        }
        let detect = t.elapsed();
        tel.record("detect", "stage", stage_t0, BTreeMap::new());

        let sinks_count = df
            .finals
            .values()
            .flat_map(|f| f.sinks.iter())
            .filter(|s| s.call_chain.is_empty())
            .count();
        let loop_copy_sinks = df
            .finals
            .values()
            .flat_map(|f| f.sinks.iter())
            .filter(|s| s.kind == SinkKind::LoopCopy && s.call_chain.is_empty())
            .count();

        // Sink coverage: classify every distinct sink site the data-flow
        // stage surfaced by the best judgement any observer reached.
        // Classification is detect-side only, so the section is
        // identical between cold and warm cache runs (DDG-level prunes
        // stay an aggregate — cache blobs carry no per-site records).
        let mut best_rank: BTreeMap<(String, u32), u8> = BTreeMap::new();
        for s in df.finals.values().flat_map(|f| f.sinks.iter()) {
            best_rank.entry((s.kind.name().to_owned(), s.sink_ins)).or_insert(0);
        }
        for (key, rank) in &outcome.site_outcomes {
            let e = best_rank.entry(key.clone()).or_insert(*rank);
            *e = (*e).max(*rank);
        }
        let mut rows: BTreeMap<String, report::SinkCoverageRow> = BTreeMap::new();
        for ((sink, _ins), rank) in &best_rank {
            let row = rows.entry(sink.clone()).or_insert_with(|| report::SinkCoverageRow {
                sink: sink.clone(),
                ..Default::default()
            });
            row.sites += 1;
            match *rank {
                taint::site_rank::REPORTED => row.reported += 1,
                taint::site_rank::SANITIZED => row.sanitized += 1,
                taint::site_rank::INFEASIBLE => row.infeasible += 1,
                _ => row.unreached += 1,
            }
        }
        let sink_coverage = report::SinkCoverage {
            rows: rows.into_values().collect(),
            ddg_pruned: df.pruned_infeasible,
            duplicates: duplicates_suppressed,
        };

        let functions_skipped = records
            .values()
            .filter(|r| {
                matches!(r.outcome, FunctionOutcome::LiftFailed | FunctionOutcome::Panicked)
            })
            .count();

        // Per-function wall-clock, looked up from the spans this scan
        // recorded (empty maps when the collector is disabled). These
        // feed only the `*_us` display fields of `FnCost`.
        let mut symex_us: HashMap<u32, u64> = HashMap::new();
        let mut ddg_us: HashMap<u32, u64> = HashMap::new();
        for ev in &tel.events()[watermark..] {
            if let Some(&addr) = ev.args.get("addr") {
                match ev.cat.as_str() {
                    "symex_fn" => {
                        symex_us.insert(addr as u32, ev.dur_us);
                    }
                    "ddg_fn" => {
                        ddg_us.insert(addr as u32, ev.dur_us);
                    }
                    _ => {}
                }
            }
        }
        let fn_costs: Vec<FnCost> = df
            .finals
            .values()
            .map(|f| FnCost {
                addr: f.summary.addr,
                name: f.summary.name.clone(),
                blocks_executed: u64::from(f.summary.blocks_executed),
                paths_explored: u64::from(f.summary.paths_explored),
                alias_rewrites: u64::from(f.summary.alias_rewrites),
                ddg_fuel: f.fuel_used,
                sinks: f.sinks.len() as u64,
                symex_us: symex_us.get(&f.summary.addr).copied().unwrap_or(0),
                ddg_us: ddg_us.get(&f.summary.addr).copied().unwrap_or(0),
            })
            .collect();

        // The metrics registry: every value here is a deterministic
        // logical count or size — never wall-clock — so the whole
        // registry is bit-identical across thread counts.
        let mut metrics = MetricsRegistry::default();
        let stats = bin.stats();
        metrics.set_gauge("image.sections", stats.sections as u64);
        metrics.set_gauge("image.symbols", stats.symbols as u64);
        metrics.set_gauge("image.imports", stats.imports as u64);
        metrics.set_gauge("image.code_bytes", stats.code_bytes);
        metrics.set_gauge("image.functions", cfgs.len() as u64);
        metrics.set_gauge("image.blocks", cfgs.iter().map(|c| c.block_count() as u64).sum());
        metrics.set_gauge("image.cfg_edges", cfgs.iter().map(|c| c.edge_count() as u64).sum());
        metrics.set_gauge("image.call_graph_edges", callgraph.edge_count() as u64);
        metrics.set_gauge("image.sinks", sinks_count as u64);
        metrics.set_gauge("image.resolved_indirect", df.resolved_indirect.len() as u64);
        for f in &fn_costs {
            metrics.inc("symex.blocks_executed", f.blocks_executed);
            metrics.inc("symex.paths_explored", f.paths_explored);
            metrics.inc("ddg.alias_rewrites", f.alias_rewrites);
            metrics.inc("ddg.fuel_spent", f.ddg_fuel);
            metrics.observe("symex.blocks_per_fn", f.blocks_executed);
            metrics.observe("ddg.fuel_per_fn", f.ddg_fuel);
            metrics.observe("fn.sinks", f.sinks);
        }
        for f in df.finals.values() {
            metrics.inc("ddg.alias_sse_rounds", u64::from(f.summary.sse_rounds));
            metrics.inc("ddg.alias_sse_rewrites", u64::from(f.summary.sse_rewrites));
            metrics.inc("ddg.alias_sse_saturated", u64::from(f.summary.sse_saturated));
        }
        metrics.inc("symex.functions_retried", retried as u64);
        metrics.inc("ddg.pruned_infeasible", df.pruned_infeasible as u64);
        metrics.inc("detect.infeasible_suppressed", outcome.infeasible_suppressed as u64);
        metrics.inc("absint.solver_passes", outcome.absint_passes);
        metrics.inc("detect.findings", outcome.findings.len() as u64);
        metrics.inc("detect.duplicates_suppressed", duplicates_suppressed as u64);
        // Coverage rows as gauges: the batch rollup sums gauges across
        // images (`merge_summing_gauges`), so per-kind site accounting
        // aggregates into corpus.json without extra plumbing.
        for row in &sink_coverage.rows {
            metrics.set_gauge(&format!("coverage.{}.sites", row.sink), row.sites as u64);
            metrics.set_gauge(&format!("coverage.{}.reported", row.sink), row.reported as u64);
            metrics.set_gauge(&format!("coverage.{}.sanitized", row.sink), row.sanitized as u64);
            metrics.set_gauge(&format!("coverage.{}.infeasible", row.sink), row.infeasible as u64);
            metrics.set_gauge(&format!("coverage.{}.unreached", row.sink), row.unreached as u64);
        }
        tel.metrics.merge(&metrics);
        // Cache traffic is a property of the *session* (what was warm),
        // not of the analysis result, so it goes only into the
        // collector's registry — after the merge above — keeping the
        // report itself byte-identical between cold and warm scans.
        if let Some(cref) = &self.config.cache {
            let st = cref.cache.scan_stats(&cref.scan);
            tel.metrics.inc("cache.symex.hits", st.sym_hits);
            tel.metrics.inc("cache.symex.misses", st.sym_misses);
            tel.metrics.inc("cache.ddg.hits", st.ddg_hits);
            tel.metrics.inc("cache.ddg.misses", st.ddg_misses);
            tel.metrics.inc("cache.invalidations", st.invalidations);
            tel.metrics.inc("cache.stores", st.stores);
        }

        // Root span last: it closes after everything it contains. The
        // pool size rides here rather than in the registry: the parallel
        // symex merge translates only summary-reachable nodes into the
        // master pool while the sequential path interns intermediates
        // directly, so it is an allocation statistic, not a
        // thread-invariant logical count.
        let mut root_args = BTreeMap::new();
        root_args.insert("functions".to_owned(), cfgs.len() as u64);
        root_args.insert("findings".to_owned(), outcome.findings.len() as u64);
        root_args.insert("pool_nodes".to_owned(), df.pool.len() as u64);
        tel.record(name, "scan", scan_t0, root_args);

        let timings = StageTimings {
            lift_cfg,
            ssa,
            ddg,
            detect,
            ddg_alias: df.timings.alias,
            ddg_indirect: df.timings.indirect,
            ddg_propagate: df.timings.propagate,
            ddg_absint: df.timings.absint,
            detect_absint: outcome.absint,
            ssa_retry: retry_time,
        };
        debug_assert!(
            timings.consistency_error(Duration::from_millis(50)).is_none(),
            "stage timing drift: {:?}",
            timings.consistency_error(Duration::from_millis(50))
        );

        // Detect-stage decisions (including duplicate folds) close out
        // the canonical audit order.
        decisions.append(&mut outcome.decisions);

        Ok(AnalysisReport {
            binary_name: name.to_owned(),
            arch: bin.arch.to_string(),
            functions: cfgs.len(),
            blocks: cfgs.iter().map(|c| c.block_count()).sum(),
            call_graph_edges: callgraph.edge_count(),
            sinks_count,
            resolved_indirect: df.resolved_indirect.len(),
            findings: outcome.findings,
            infeasible_suppressed: outcome.infeasible_suppressed + df.pruned_infeasible,
            functions_analyzed: total_functions - functions_skipped,
            functions_skipped,
            functions_retried: retried,
            loop_copy_sinks,
            skipped_functions: records.into_values().collect(),
            timings,
            telemetry: TelemetrySection { metrics, functions: fn_costs },
            sink_coverage,
            decisions,
        })
    }

    /// Resolves the session thread count (0 = all cores) against the
    /// number of work items.
    fn effective_threads(&self, work_items: usize) -> usize {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.config.threads
        };
        threads.clamp(1, work_items.max(1))
    }

    /// Runs the per-function symbolic analysis, parallelised with
    /// crossbeam scoped threads; each worker interns into a private pool
    /// that is translated into the global pool at the end. Per-function
    /// panics are caught and rolled back out of the pool; fuel
    /// exhaustion triggers one degraded retry (see [`symex_one`]).
    fn run_symex(
        &self,
        bin: &Binary,
        cfgs: &[FunctionCfg],
        tel: &mut Collector,
        cache: Option<&SymexCacheCtx>,
    ) -> SymexStage {
        let threads = self.effective_threads(cfgs.len());
        let mut stage = SymexStage {
            summaries: Vec::with_capacity(cfgs.len()),
            pool: ExprPool::new(),
            records: Vec::new(),
            retried: 0,
            retry_time: Duration::ZERO,
        };
        // The per-function body, shared by both schedules: cache probe,
        // symbolic execution on a miss, one span carrying the logical
        // counters, then hit/miss bookkeeping and the store against the
        // pool the summary lives in. Settling is order-independent (one
        // key per function), and the canonical encoding is
        // pool-independent, so a worker's store is byte-identical to a
        // sequential one. Span recording is a local append guarded by the
        // enabled flag, so the disabled path costs one branch.
        let symex = self.config.symex;
        let step = |c: &FunctionCfg, pool: &mut ExprPool, buf: &mut TraceBuffer| -> SymexOne {
            let t0 = buf.start();
            let key = cache.and_then(|cc| cc.key(bin, c));
            let hit = match (cache, key) {
                (Some(cc), Some(k)) => cc.probe(k, pool),
                _ => None,
            };
            let was_hit = hit.is_some();
            let one = match hit {
                Some(summary) => {
                    SymexOne { summary, record: None, retried: false, retry_time: Duration::ZERO }
                }
                None => symex_one(bin, c, pool, &symex),
            };
            if buf.is_enabled() {
                let mut args = BTreeMap::new();
                args.insert("addr".to_owned(), u64::from(c.addr));
                args.insert("blocks".to_owned(), u64::from(one.summary.blocks_executed));
                args.insert("paths".to_owned(), u64::from(one.summary.paths_explored));
                buf.record(&c.name, "symex_fn", t0, args);
            }
            if let Some(cc) = cache {
                cc.settle(pool, &one, key, was_hit);
            }
            one
        };
        if threads <= 1 || cfgs.len() < 8 {
            let mut buf = tel.buffer(1);
            for c in cfgs {
                let one = step(c, &mut stage.pool, &mut buf);
                stage.absorb(one, None);
            }
            tel.absorb(buf.into_events());
            return stage;
        }
        let chunk = cfgs.len().div_ceil(threads);
        let clock = tel.clock();
        let on = tel.is_enabled();
        let step = &step;
        let parts: Vec<(Vec<SymexOne>, ExprPool, Vec<SpanEvent>)> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = cfgs
                    .chunks(chunk)
                    .enumerate()
                    .map(|(widx, slice)| {
                        scope.spawn(move |_| {
                            let mut pool = ExprPool::new();
                            let mut buf = TraceBuffer::new(clock, 1 + widx as u32, on);
                            let ones = slice.iter().map(|c| step(c, &mut pool, &mut buf)).collect();
                            (ones, pool, buf.into_events())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("symex worker panicked")).collect()
            })
            .expect("crossbeam scope");
        // Absorbed in chunk (spawn) order, so the merged event stream and
        // the summary order are deterministic for a given thread count.
        for (ones, local, events) in parts {
            tel.absorb(events);
            for one in ones {
                stage.absorb(one, Some(&local));
            }
        }
        stage
    }
}

/// Per-scan context for the symex-level summary cache: the config salt
/// plus the shared store handle.
struct SymexCacheCtx {
    cref: CacheRef,
    salt: u64,
}

impl SymexCacheCtx {
    /// Content key for one function: salt + address + name + raw bytes.
    fn key(&self, bin: &Binary, cfg: &FunctionCfg) -> Option<u64> {
        let sym = bin.function_at(cfg.addr)?;
        let bytes = bin.bytes_at(sym.addr, sym.size)?;
        Some(function_content_hash(self.salt, cfg.addr, &cfg.name, &bytes))
    }

    /// Attempts to rehydrate a cached local summary into `pool`. Local
    /// summaries never contain unknowns (only the DDG stage mints
    /// them), so the unknown-unmapper refuses everything; a malformed
    /// blob rolls the pool back and falls through to a cold run.
    fn probe(&self, key: u64, pool: &mut ExprPool) -> Option<FuncSummary> {
        let blob = self.cref.cache.lookup_blob(Level::Symex, key)?;
        let mark = pool.mark();
        let r = (|| {
            let mut dec = SummaryDecoder::new(&blob, pool, &mut |_, _| None)?;
            let s = dec.summary()?;
            dec.at_end().then_some(s)
        })();
        if r.is_none() {
            pool.rollback(mark);
        }
        r
    }

    /// Hit/miss bookkeeping plus the store on an eligible miss: only
    /// cleanly analyzed summaries (no outcome record, not degraded, no
    /// fuel exhaustion) are cached.
    fn settle(&self, pool: &ExprPool, one: &SymexOne, key: Option<u64>, was_hit: bool) {
        let s = &one.summary;
        if was_hit {
            if let Some(k) = key {
                self.cref.cache.note_hit(Level::Symex, &self.cref.scan, s.addr, k);
            }
            return;
        }
        self.cref.cache.note_miss(Level::Symex, &self.cref.scan, &s.name, s.addr, key);
        let Some(k) = key else { return };
        if one.record.is_some() || s.degraded || s.fuel_exhausted {
            return;
        }
        if let Some(blob) = canonical_encode(pool, s) {
            self.cref.cache.store(Level::Symex, &self.cref.scan, k, blob);
        }
    }
}

/// Result of the symbolic-execution stage.
struct SymexStage {
    summaries: Vec<FuncSummary>,
    pool: ExprPool,
    /// `(addr, name, outcome, detail)` for every non-Analyzed function.
    records: Vec<(u32, String, FunctionOutcome, String)>,
    retried: usize,
    retry_time: Duration,
}

impl SymexStage {
    /// Folds one function's result in, translating its summary from the
    /// worker's private pool when one is given.
    fn absorb(&mut self, one: SymexOne, local: Option<&ExprPool>) {
        let summary = match local {
            Some(local) => one.summary.translate_into(local, &mut self.pool),
            None => one.summary,
        };
        if let Some((outcome, detail)) = one.record {
            self.records.push((summary.addr, summary.name.clone(), outcome, detail));
        }
        if one.retried {
            self.retried += 1;
            self.retry_time += one.retry_time;
        }
        self.summaries.push(summary);
    }
}

/// One function's symbolic-execution result.
struct SymexOne {
    summary: FuncSummary,
    record: Option<(FunctionOutcome, String)>,
    retried: bool,
    retry_time: Duration,
}

/// Analyzes one function behind a panic boundary with fuel-exhaustion
/// retry.
///
/// * A panic rolls the pool back to its pre-function state — erasing
///   every node and unknown index the failed run interned, so the
///   functions analyzed after it see bit-identical pool state whether
///   this function panicked or never existed — and yields an opaque
///   summary flagged [`FunctionOutcome::Panicked`].
/// * Fuel exhaustion rolls back and retries once under
///   [`SymexConfig::degraded`]; success is [`FunctionOutcome::Degraded`],
///   a second exhaustion keeps the partial degraded summary as
///   [`FunctionOutcome::BudgetExceeded`].
fn symex_one(
    bin: &Binary,
    cfg: &FunctionCfg,
    pool: &mut ExprPool,
    config: &SymexConfig,
) -> SymexOne {
    let mark = pool.mark();
    let full = catch_unwind(AssertUnwindSafe(|| analyze_function(bin, cfg, pool, config)));
    match full {
        Err(_) => {
            pool.rollback(mark);
            SymexOne {
                summary: opaque_summary(cfg),
                record: Some((FunctionOutcome::Panicked, "panic during symbolic execution".into())),
                retried: false,
                retry_time: Duration::ZERO,
            }
        }
        Ok(summary) if summary.fuel_exhausted => {
            let t = Instant::now();
            pool.rollback(mark);
            let degraded_config = config.degraded();
            let retry = catch_unwind(AssertUnwindSafe(|| {
                analyze_function(bin, cfg, pool, &degraded_config)
            }));
            match retry {
                Err(_) => {
                    pool.rollback(mark);
                    SymexOne {
                        summary: opaque_summary(cfg),
                        record: Some((
                            FunctionOutcome::Panicked,
                            "panic during degraded symbolic execution".into(),
                        )),
                        retried: true,
                        retry_time: t.elapsed(),
                    }
                }
                Ok(mut summary) => {
                    summary.degraded = true;
                    let record = if summary.fuel_exhausted {
                        (
                            FunctionOutcome::BudgetExceeded,
                            format!(
                                "fuel exhausted at full and degraded strength (max_fuel = {})",
                                config.max_fuel
                            ),
                        )
                    } else {
                        (
                            FunctionOutcome::Degraded,
                            format!(
                                "retried degraded after fuel exhaustion (max_fuel = {})",
                                config.max_fuel
                            ),
                        )
                    };
                    SymexOne {
                        summary,
                        record: Some(record),
                        retried: true,
                        retry_time: t.elapsed(),
                    }
                }
            }
        }
        Ok(summary) => {
            SymexOne { summary, record: None, retried: false, retry_time: Duration::ZERO }
        }
    }
}

/// The opaque summary a failed function downgrades to: no defs, no
/// callsites, no constraints — callers treat its calls like unknown
/// imports (`ret_{cs}` stays symbolic), a conservative pass-through.
fn opaque_summary(cfg: &FunctionCfg) -> FuncSummary {
    FuncSummary { addr: cfg.addr, name: cfg.name.clone(), ..FuncSummary::default() }
}

/// Inserts or upgrades a per-function outcome record, keeping the more
/// severe outcome when one exists (severity follows the lattice:
/// analyzed < degraded < budget-exceeded < lift-failed/panicked).
fn record(
    records: &mut BTreeMap<u32, FunctionRecord>,
    addr: u32,
    name: &str,
    outcome: FunctionOutcome,
    detail: String,
) {
    let severity = |o: FunctionOutcome| match o {
        FunctionOutcome::Analyzed => 0,
        FunctionOutcome::Degraded => 1,
        FunctionOutcome::BudgetExceeded => 2,
        FunctionOutcome::LiftFailed => 3,
        FunctionOutcome::Panicked => 4,
    };
    let new = FunctionRecord { addr, name: name.to_owned(), outcome, detail };
    match records.get_mut(&addr) {
        Some(old) if severity(old.outcome) >= severity(new.outcome) => {}
        Some(old) => *old = new,
        None => {
            records.insert(addr, new);
        }
    }
}
