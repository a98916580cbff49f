//! The end-to-end DTaint pipeline (Figure 4 of the paper).
//!
//! `binary → per-function IR/CFG + symbolic analysis (parallel, one
//! fused pass) → call graph → pointer aliasing → layout similarity →
//! bottom-up data flow → sink/source matching → findings`.

use crate::report;
use crate::report::{AnalysisReport, FnCost, FunctionOutcome, FunctionRecord, TelemetrySection};
use crate::sinks::{default_sink_names, default_sources};
use crate::taint;
use dtaint_cfg::{build_function_cfg, CallGraph, FunctionCfg, FunctionShape};
use dtaint_dataflow::cache::{
    decode_local, encode_local, env_digest, sym_salt, symbol_content_hash, Level,
};
use dtaint_dataflow::{build_dataflow, CacheRef, DataflowConfig, SinkKind};
use dtaint_fwbin::{Binary, Symbol};
use dtaint_symex::analyze_function;
use dtaint_symex::{ExprPool, FuncSummary, PoolStats, SymexConfig, TranslationMemo};
use dtaint_telemetry::{Collector, MetricsRegistry, SpanEvent, TraceBuffer, TraceSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// stage → function) are recorded into `tel`, and the metrics
    /// registry is populated (metrics are logical counters — free to
    /// keep, and bit-identical across thread counts). The scan root and
    /// stage spans on lane 0 are always recorded, and every duration in
    /// [`AnalysisReport::stage_us`] is read from them; the per-function
    /// spans on worker lanes only when `tel` is enabled.
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

        let mut syms: Vec<&Symbol> = bin.functions();
        if let Some(filter) = &self.config.function_filter {
            syms.retain(|s| filter.iter().any(|f| s.name.contains(f.as_str())));
        }
        let total_functions = syms.len();

        // Stage 1: the fused per-function pass — lift + CFG, then static
        // symbolic analysis, in parallel over fixed chunks whose private
        // pools are merged in chunk order. Each function's IR is dropped
        // as soon as it is analyzed; only its shape record survives. A
        // function that fails to lift or panics while lifting downgrades
        // to an absent summary; a panicking analysis is rolled back out
        // of its pool and downgraded to an opaque summary; a
        // fuel-exhausted one is retried once degraded.
        let stage_t0 = tel.start();
        let sym_cache = self.config.cache.as_ref().map(|cref| SymexCacheCtx {
            cref: cref.clone(),
            salt: sym_salt(env_digest(bin), &self.config.symex),
        });
        let stage = self.run_symex(bin, &syms, tel, sym_cache.as_ref());
        let SymexStage {
            summaries,
            pool,
            shapes,
            lift_failures,
            records: symex_records,
            retried,
            nodes_translated,
            chunk_pools,
        } = stage;
        // Lift failures first, in address order, so fail-fast reports
        // the first one before any analysis error.
        for LiftFailure { addr, name, error } in lift_failures {
            let (outcome, detail) = match error {
                Some(e) if self.config.fail_fast => return Err(e),
                None if self.config.fail_fast => {
                    return Err(dtaint_fwbin::Error::BadFormat(format!(
                        "panic while lifting `{name}`"
                    )));
                }
                Some(e) => (FunctionOutcome::LiftFailed, e.to_string()),
                None => (FunctionOutcome::Panicked, "panic during lift/CFG construction".into()),
            };
            record(&mut records, addr, &name, outcome, detail);
        }
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
        tel.record("ssa", "stage", stage_t0, BTreeMap::new());

        // Stage 2: the call graph, from the shape records. Target
        // classification needs the final set of lifted functions, so it
        // runs here, serially; symex never reads the call graph.
        let stage_t0 = tel.start();
        let mut callgraph = CallGraph::from_shapes(bin, &shapes);
        tel.record("lift_cfg", "stage", stage_t0, BTreeMap::new());

        // Stage 3: alias + layout similarity + bottom-up propagation.
        let stage_t0 = tel.start();
        let mut df_config = self.config.dataflow.clone();
        df_config.interval_guards = self.config.bounds == taint::BoundsMode::Interval;
        df_config.audit = self.config.audit;
        df_config.trace =
            Some(TraceSpec { clock: tel.clock(), base_lane: 1, workers: tel.is_enabled() });
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
        let walks_before = pool.stats().walk_visits;
        let mut df = build_dataflow(bin, &mut callgraph, summaries, pool, &df_config);
        let ddg_walk_visits = df.pool.stats().walk_visits - walks_before;
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
        tel.record("ddg", "stage", stage_t0, BTreeMap::new());

        // Stage 4: taint judgement.
        let stage_t0 = tel.start();
        let fn_names: HashMap<u32, String> =
            shapes.iter().map(|s| (s.addr, s.name.clone())).collect();
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
        // every suppressed duplicate also yields a Decision record.
        let audit = self.config.audit;
        let duplicates_suppressed = outcome.duplicates_suppressed
            + report::dedup_findings_with(&mut outcome.findings, |dup, kept| {
                if !audit {
                    return;
                }
                // The observing function's address is not on the
                // finding; resolve it back through the name map.
                let addr = fn_names
                    .iter()
                    .filter(|(_, n)| **n == dup.observed_in)
                    .map(|(&a, _)| a)
                    .min()
                    .unwrap_or(0);
                outcome.decisions.push(
                    dtaint_telemetry::Decision::new(
                        dtaint_telemetry::DecisionKind::DuplicateSuppressed,
                        "detect",
                        &dup.observed_in,
                        addr,
                        dtaint_telemetry::DecisionReason::Duplicate {
                            fingerprint: kept.fingerprint.clone(),
                        },
                    )
                    .at_sink(dup.sink_ins, &dup.sink),
                );
            });
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

        // Per-function wall-clock, looked up from the worker-lane spans
        // this scan recorded (empty maps when the collector is disabled).
        // These feed only the `*_us` display fields of `FnCost`.
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
        let blocks: usize = shapes.iter().map(|s| s.blocks).sum();
        metrics.set_gauge("image.functions", shapes.len() as u64);
        metrics.set_gauge("image.blocks", blocks as u64);
        metrics.set_gauge("image.cfg_edges", shapes.iter().map(|s| s.edges as u64).sum());
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
        metrics.inc("lift.instructions", shapes.iter().map(|s| s.instructions as u64).sum());
        metrics.inc("symex.functions_retried", retried as u64);
        metrics.inc("symex.nodes_translated", nodes_translated);
        metrics.inc("ddg.pruned_infeasible", df.pruned_infeasible as u64);
        metrics.inc("ddg.indirect_installers", df.indirect_stats.installers as u64);
        metrics.inc("ddg.indirect_sites", df.indirect_stats.sites as u64);
        metrics.inc("ddg.layouts_inferred", df.indirect_stats.layouts_inferred as u64);
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
        // Pool work depends on cache warmth too (a hit decodes instead of
        // executing, a DDG hit walks nothing), so it joins the session
        // registry beside the cache traffic.
        let mut pools = chunk_pools;
        pools += df.pool.stats();
        tel.metrics.inc("pool.interns", pools.interns);
        tel.metrics.inc("pool.intern_cache_hits", pools.intern_cache_hits);
        tel.metrics.inc("ddg.walk_visits", ddg_walk_visits);
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
        // pool size rides here rather than in the registry: it is an
        // allocation statistic, not a logical count.
        let mut root_args = BTreeMap::new();
        root_args.insert("functions".to_owned(), shapes.len() as u64);
        root_args.insert("findings".to_owned(), outcome.findings.len() as u64);
        root_args.insert("pool_nodes".to_owned(), df.pool.len() as u64);
        tel.record(name, "scan", scan_t0, root_args);
        // The report's wall clock: this scan's lane-0 spans, the root
        // under `scan`.
        let stage_us = tel.events()[watermark..]
            .iter()
            .filter_map(|ev| match ev.cat.as_str() {
                "scan" => Some(("scan".to_owned(), ev.dur_us)),
                "stage" => Some((ev.name.clone(), ev.dur_us)),
                _ => None,
            })
            .collect();

        // Detect-stage decisions (including duplicate folds) close out
        // the canonical audit order.
        decisions.append(&mut outcome.decisions);

        Ok(AnalysisReport {
            binary_name: name.to_owned(),
            arch: bin.arch.to_string(),
            functions: shapes.len(),
            blocks,
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
            stage_us,
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

    /// Runs the fused per-function pass — lift + CFG, then symbolic
    /// analysis, or neither on a symex cache hit — on crossbeam scoped
    /// workers that take fixed, address-ordered chunks of
    /// [`SYMEX_CHUNK`] symbols from a shared cursor. Each chunk interns
    /// into a fresh pool; whichever worker completes the chunk the merge
    /// waits for translates it, and every completed chunk after it, into
    /// the master pool in chunk order. The chunk boundaries and the merge
    /// order do not depend on the thread count, so neither do the master
    /// pool and the cache records. A function's CFG is dropped on its
    /// worker as soon as it is analyzed, and a chunk's pool as soon as it
    /// is merged. Lift errors and panics are caught per function;
    /// analysis panics are rolled back out of the pool, and fuel
    /// exhaustion triggers one degraded retry (see [`symex_one`]).
    fn run_symex(
        &self,
        bin: &Binary,
        syms: &[&Symbol],
        tel: &mut Collector,
        cache: Option<&SymexCacheCtx>,
    ) -> SymexStage {
        let chunks: Vec<&[&Symbol]> = syms.chunks(SYMEX_CHUNK).collect();
        let threads = self.effective_threads(chunks.len());
        let stage = SymexStage {
            summaries: Vec::with_capacity(syms.len()),
            pool: ExprPool::new(),
            shapes: Vec::with_capacity(syms.len()),
            lift_failures: Vec::new(),
            records: Vec::new(),
            retried: 0,
            nodes_translated: 0,
            chunk_pools: PoolStats::default(),
        };
        // The per-function body: the cache probe first, keyed from the
        // symbol alone. A hit serves the summary and the shape from the
        // cache record (one `symex_fn` span) and never lifts. A miss
        // lifts behind a panic boundary (one `lift_fn` span), runs
        // symbolic execution (one `symex_fn` span carrying the logical
        // counters), then stores the summary and the shape against the
        // pool the summary lives in. Settling is order-independent (one
        // key per function). Span recording is a local append guarded by
        // the enabled flag, so the disabled path costs one branch.
        let symex = self.config.symex;
        let symex_span = |buf: &mut TraceBuffer, s: &FuncSummary, t0| {
            if buf.is_enabled() {
                let mut args = BTreeMap::new();
                args.insert("addr".to_owned(), u64::from(s.addr));
                args.insert("blocks".to_owned(), u64::from(s.blocks_executed));
                args.insert("paths".to_owned(), u64::from(s.paths_explored));
                buf.record(&s.name, "symex_fn", t0, args);
            }
        };
        let step = |s: &Symbol, pool: &mut ExprPool, buf: &mut TraceBuffer| -> FnStep {
            let t0 = buf.start();
            let key = cache.and_then(|cc| symbol_content_hash(cc.salt, bin, s));
            if let Some((cc, k)) = cache.zip(key) {
                if let Some((summary, shape)) = cc.probe(k, pool) {
                    symex_span(buf, &summary, t0);
                    let one = SymexOne { summary, record: None, retried: false };
                    cc.settle(pool, &one, &shape, key, true);
                    return Ok((shape, one));
                }
            }
            let t0 = buf.start();
            let lifted = catch_unwind(AssertUnwindSafe(|| build_function_cfg(bin, s)));
            let c = match lifted {
                Ok(Ok(c)) => c,
                Ok(Err(e)) => return Err(LiftFailure::of(s, Some(e))),
                Err(_) => return Err(LiftFailure::of(s, None)),
            };
            let shape = c.shape();
            if buf.is_enabled() {
                let mut args = BTreeMap::new();
                args.insert("addr".to_owned(), u64::from(c.addr));
                args.insert("blocks".to_owned(), shape.blocks as u64);
                args.insert("instructions".to_owned(), shape.instructions as u64);
                buf.record(&c.name, "lift_fn", t0, args);
            }
            let t0 = buf.start();
            let one = symex_one(bin, &c, pool, &symex);
            symex_span(buf, &one.summary, t0);
            if let Some(cc) = cache {
                cc.settle(pool, &one, &shape, key, false);
            }
            Ok((shape, one))
        };
        let clock = tel.clock();
        let on = tel.is_enabled();
        let step = &step;
        let chunks = &chunks;
        let cursor = AtomicUsize::new(0);
        let merge = Mutex::new(ChunkMerge {
            stage,
            events: Vec::new(),
            ready: chunks.iter().map(|_| None).collect(),
            next: 0,
        });
        crossbeam::thread::scope(|scope| {
            for widx in 0..threads {
                let (cursor, merge) = (&cursor, &merge);
                scope.spawn(move |_| {
                    let mut buf = TraceBuffer::new(clock, 1 + widx as u32, on);
                    // The cursor hands out chunk indices and publishes
                    // nothing else: chunk results travel through the mutex.
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slice) = chunks.get(index) else { break };
                        let mut pool = ExprPool::new();
                        let steps = slice.iter().map(|s| step(s, &mut pool, &mut buf)).collect();
                        let done = SymexChunk { steps, pool, events: buf.take_events() };
                        let mut merge =
                            merge.lock().expect("a symex worker panicked while merging");
                        merge.park(index, done, &mut buf);
                    }
                });
            }
        })
        .expect("symex worker panicked");
        let ChunkMerge { stage, events, next, .. } =
            merge.into_inner().expect("a symex worker panicked while merging");
        debug_assert_eq!(next, chunks.len(), "every chunk merged");
        tel.absorb(events);
        stage
    }
}

/// Symbols per work unit of the fused pass. Fixed, so the chunk
/// boundaries — and with them the merge order, the
/// `symex.nodes_translated` count and every pool id — are the same at
/// every thread count.
const SYMEX_CHUNK: usize = 64;

/// One chunk's trip through the fused pass: a step per symbol, the pool
/// its summaries live in, and its worker-lane spans.
struct SymexChunk {
    steps: Vec<FnStep>,
    pool: ExprPool,
    events: Vec<SpanEvent>,
}

/// The fused pass's in-order merge, shared by its workers behind one
/// mutex. Chunks complete in any order and wait in `ready` until every
/// chunk before them is merged.
struct ChunkMerge {
    stage: SymexStage,
    /// Worker-lane spans, in chunk order.
    events: Vec<SpanEvent>,
    ready: Vec<Option<SymexChunk>>,
    /// The first chunk not merged yet.
    next: usize,
}

impl ChunkMerge {
    /// Parks chunk `index`; when it is the one the merge waits for,
    /// merges it and every consecutive completed chunk after it. `buf`
    /// is the calling worker's lane, for one `symex_merge` span per
    /// merged chunk.
    fn park(&mut self, index: usize, chunk: SymexChunk, buf: &mut TraceBuffer) {
        self.ready[index] = Some(chunk);
        while let Some(SymexChunk { steps, pool, events }) =
            self.ready.get_mut(self.next).and_then(Option::take)
        {
            let t0 = buf.start();
            let functions = steps.len() as u64;
            let mut memo = TranslationMemo::for_pool(&pool);
            for step in steps {
                self.stage.absorb(step, &pool, &mut memo);
            }
            let nodes = memo.translated() as u64;
            self.stage.nodes_translated += nodes;
            self.stage.chunk_pools += pool.stats();
            if buf.is_enabled() {
                let mut args = BTreeMap::new();
                args.insert("chunk".to_owned(), self.next as u64);
                args.insert("functions".to_owned(), functions);
                args.insert("nodes".to_owned(), nodes);
                buf.record("symex_merge", "symex_merge", t0, args);
            }
            self.events.extend(events);
            self.events.append(&mut buf.take_events());
            self.next += 1;
        }
    }
}

/// Per-scan context for the symex-level summary cache: the config salt
/// plus the shared store handle. A function's key is
/// [`symbol_content_hash`] under the salt, so it needs no lift.
struct SymexCacheCtx {
    cref: CacheRef,
    salt: u64,
}

impl SymexCacheCtx {
    /// Attempts to rehydrate a cached local summary into `pool`, with
    /// the function's shape. Local summaries never contain unknowns
    /// (only the DDG stage mints them); a malformed blob or shape rolls
    /// the pool back and falls through to a cold run.
    fn probe(&self, key: u64, pool: &mut ExprPool) -> Option<(FuncSummary, FunctionShape)> {
        let blob = self.cref.cache.lookup_blob(Level::Symex, key)?;
        let mark = pool.mark();
        let r = decode_local(&blob, pool);
        if r.is_none() {
            pool.rollback(mark);
        }
        r
    }

    /// Hit/miss bookkeeping plus the store on an eligible miss: only
    /// cleanly analyzed summaries (no outcome record, not degraded, no
    /// fuel exhaustion) are cached, together with the function's shape.
    fn settle(
        &self,
        pool: &ExprPool,
        one: &SymexOne,
        shape: &FunctionShape,
        key: Option<u64>,
        was_hit: bool,
    ) {
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
        if let Some(blob) = encode_local(pool, s, shape) {
            self.cref.cache.store(Level::Symex, &self.cref.scan, k, blob);
        }
    }
}

/// Result of the fused lift + symbolic-execution pass, in symbol order.
struct SymexStage {
    summaries: Vec<FuncSummary>,
    pool: ExprPool,
    /// What each function's CFG left behind, lifted or served from the
    /// cache.
    shapes: Vec<FunctionShape>,
    /// Functions that could not be lifted.
    lift_failures: Vec<LiftFailure>,
    /// `(addr, name, outcome, detail)` for every non-Analyzed lifted
    /// function.
    records: Vec<(u32, String, FunctionOutcome, String)>,
    retried: usize,
    /// Source nodes copied into `pool`: the chunk memos' misses.
    nodes_translated: u64,
    /// The chunk pools' work counters, summed as each is merged.
    chunk_pools: PoolStats,
}

/// One function's trip through the fused pass: its shape and symex
/// result, or why it could not be lifted.
type FnStep = Result<(FunctionShape, SymexOne), LiftFailure>;

/// One function that could not be lifted: `error` is the lift error, or
/// `None` when lifting panicked.
struct LiftFailure {
    addr: u32,
    name: String,
    error: Option<dtaint_fwbin::Error>,
}

impl LiftFailure {
    fn of(sym: &Symbol, error: Option<dtaint_fwbin::Error>) -> Self {
        LiftFailure { addr: sym.addr, name: sym.name.clone(), error }
    }
}

impl SymexStage {
    /// Folds one function's result in, translating its summary from its
    /// chunk's pool through the chunk's memo.
    fn absorb(&mut self, step: FnStep, local: &ExprPool, memo: &mut TranslationMemo) {
        let (shape, one) = match step {
            Ok(analyzed) => analyzed,
            Err(failure) => return self.lift_failures.push(failure),
        };
        self.shapes.push(shape);
        let summary = one.summary.translate_with(local, &mut self.pool, memo);
        if let Some((outcome, detail)) = one.record {
            self.records.push((summary.addr, summary.name.clone(), outcome, detail));
        }
        self.retried += usize::from(one.retried);
        self.summaries.push(summary);
    }
}

/// One function's symbolic-execution result.
struct SymexOne {
    summary: FuncSummary,
    record: Option<(FunctionOutcome, String)>,
    retried: bool,
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
            }
        }
        Ok(summary) if summary.fuel_exhausted => {
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
                    SymexOne { summary, record: Some(record), retried: true }
                }
            }
        }
        Ok(summary) => SymexOne { summary, record: None, retried: false },
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
