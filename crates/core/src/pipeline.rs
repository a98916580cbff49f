//! The end-to-end DTaint pipeline (Figure 4 of the paper).
//!
//! `binary → per-function IR/CFG + symbolic analysis (parallel, one
//! fused pass) → call graph → pointer aliasing → layout similarity →
//! bottom-up data flow → sink/source matching → findings`.

use crate::report;
use crate::report::{AnalysisReport, FnCost, FunctionOutcome, FunctionRecord, TelemetrySection};
use crate::sinks::default_sources;
use crate::taint;
use dtaint_cfg::{build_function_cfg, CallGraph, FunctionCfg, FunctionShape};
use dtaint_dataflow::cache::{
    decode_local, encode_local, env_digest, sym_salt, symbol_content_hash, Level,
};
use dtaint_dataflow::{build_dataflow_judged, CacheRef, DataflowConfig, ProgramDataflow};
use dtaint_fwbin::{Binary, Symbol};
use dtaint_symex::analyze_function;
use dtaint_symex::{ExprPool, FuncSummary, PoolStats, SymexConfig, TranslationMemo};
use dtaint_telemetry::{
    Collector, Decision, DecisionKind, DecisionReason, MetricsRegistry, SpanEvent, TraceBuffer,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of the whole pipeline.
#[derive(Debug, Clone)]
pub struct DtaintConfig {
    /// Per-function symbolic execution settings.
    pub symex: SymexConfig,
    /// Data-flow stage settings (alias mode, indirect and loop-copy
    /// switches, fuel) and how bounding guards are judged
    /// ([`DataflowConfig::bounds`]), which the detector reads too.
    pub dataflow: DataflowConfig,
    /// Import names treated as attacker-controlled sources.
    pub sources: HashSet<String>,
    /// Worker threads for the per-function analysis (0 = all cores).
    pub threads: usize,
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
    /// one typed [`Decision`] per negative analysis decision, for
    /// `dtaint why`. Off by default; the analysis result is identical
    /// either way — the flag only decides whether the log is rendered
    /// from the stages' typed results (nothing is rendered when off).
    pub audit: bool,
}

impl Default for DtaintConfig {
    fn default() -> Self {
        DtaintConfig {
            symex: SymexConfig::default(),
            dataflow: DataflowConfig::default(),
            sources: default_sources(),
            threads: 0,
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
        // Only spans this scan records make up its report's wall clock
        // (one collector may span many binaries).
        let watermark = tel.events().len();
        if let Some(cref) = &self.config.cache {
            cref.cache.begin_scan(&cref.scan);
        }

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
        let stage = self.run_symex(bin, &syms, tel);
        let SymexStage {
            summaries,
            pool,
            shapes,
            mut lift_failures,
            records: symex_records,
            retried,
            nodes_translated,
            chunk_pools,
        } = stage;
        // Fail-fast reports the first lift failure, in address order,
        // before any analysis error.
        if self.config.fail_fast {
            if let Some(LiftFailure { name, error, .. }) = lift_failures.drain(..).next() {
                return Err(error.unwrap_or_else(|| {
                    dtaint_fwbin::Error::BadFormat(format!("panic while lifting `{name}`"))
                }));
            }
            let panicked = symex_records.iter().find(|r| r.2 == FunctionOutcome::Panicked);
            if let Some((_, name, ..)) = panicked {
                return Err(dtaint_fwbin::Error::BadFormat(format!(
                    "panic while analyzing `{name}`"
                )));
            }
        }
        tel.record("ssa", "stage", stage_t0, &[]);

        // Stage 2: the call graph, from the shape records. Target
        // classification needs the final set of lifted functions, so it
        // runs here, serially; symex never reads the call graph. It
        // numbers the function slots every per-function table below
        // uses.
        let stage_t0 = tel.start();
        let mut callgraph = CallGraph::from_shapes(bin, &shapes);
        tel.record("lift_cfg", "stage", stage_t0, &[]);

        // Per-function outcome records, one slot per function; only
        // non-Analyzed outcomes are stored, and a later stage may
        // overwrite with a more severe outcome. Lift failures come
        // first, then the symbolic stage's records.
        let mut records: Records = vec![None; callgraph.len()];
        for LiftFailure { addr, name, error } in lift_failures {
            let (outcome, detail) = match error {
                Some(e) => (FunctionOutcome::LiftFailed, e.to_string()),
                None => (FunctionOutcome::Panicked, "panic during lift/CFG construction".into()),
            };
            record(&mut records, &callgraph, addr, &name, outcome, detail);
        }
        for (addr, name, outcome, detail) in &symex_records {
            record(&mut records, &callgraph, *addr, name, *outcome, detail.clone());
        }

        // Stage 3: alias + layout similarity + bottom-up propagation. The
        // taint judgement of each function as a holder runs inside the
        // propagation loop, as soon as its final summary is settled, and
        // the summary is dropped once its last caller has applied it.
        let stage_t0 = tel.start();
        // With a cache, quarantine every function with an outcome record
        // so far (lift failures, symex panics/degradations; records hold
        // only non-Analyzed outcomes): the DDG stage must never store
        // their summaries — a faulted artefact in the cache would
        // masquerade as a healthy one on the next scan.
        let cache = self.config.cache.as_ref();
        let quarantine: Vec<bool> =
            records.iter().map(|r| cache.is_some() && r.is_some()).collect();
        // Each function's name, from its shape record (the later of two
        // at one entry).
        let mut fn_names: Vec<Option<&str>> = vec![None; callgraph.len()];
        for s in &shapes {
            if let Some(f) = callgraph.ix(s.addr) {
                fn_names[f.index()] = Some(&s.name);
            }
        }
        let detector = taint::Detector {
            bin: Some(bin),
            sources: &self.config.sources,
            fn_names: &fn_names,
            mode: self.config.dataflow.bounds,
        };
        let mut judged = Vec::new();
        // The judge's own DAG walks stay out of `ddg.walk_visits`.
        let mut judge_walks = 0;
        let walks_before = pool.stats().walk_visits;
        let df = build_dataflow_judged(
            bin,
            &mut callgraph,
            summaries,
            pool,
            &self.config.dataflow,
            tel,
            cache,
            &quarantine,
            Some(&mut |view, holder| {
                let before = view.pool.stats().walk_visits;
                judged.push(detector.judge(view, holder));
                judge_walks += view.pool.stats().walk_visits - before;
            }),
        );
        let ddg_walk_visits = df.pool.stats().walk_visits - walks_before - judge_walks;
        let graph = df.callgraph;
        let fn_name_of = |addr: u32| function_name(&fn_names, graph, addr);
        // The DDG stage's outcomes: alias-stage panics, then propagation
        // panics and fuel exhaustion, each in address order.
        let fuel =
            format!("data-flow fuel exhausted (max_fuel = {})", self.config.dataflow.max_fuel);
        let alias_panics = df.alias_panics.iter().map(|&addr| {
            (addr, FunctionOutcome::Degraded, "alias stage panicked; alias rewriting skipped")
        });
        let propagation = df.residues().filter_map(|(addr, f)| match f {
            f if f.panicked => {
                Some((addr, FunctionOutcome::Panicked, "panic during data-flow propagation"))
            }
            f if f.budget_exhausted => Some((addr, FunctionOutcome::BudgetExceeded, fuel.as_str())),
            _ => None,
        });
        for (addr, outcome, detail) in alias_panics.chain(propagation) {
            record(&mut records, graph, addr, &fn_name_of(addr), outcome, detail.into());
        }
        if self.config.fail_fast {
            let panicked =
                records.iter().flatten().find(|r| r.outcome == FunctionOutcome::Panicked);
            if let Some(r) = panicked {
                return Err(dtaint_fwbin::Error::BadFormat(format!(
                    "panic while analyzing `{}`",
                    r.name
                )));
            }
        }
        tel.record("ddg", "stage", stage_t0, &[]);

        // Stage 4: the holders' verdicts, folded in holder address order
        // (cross-holder dedup, callsite names for the findings' chains).
        let stage_t0 = tel.start();
        judged.sort_by_key(|j| j.holder);
        let outcome = taint::fold(judged, |ins| {
            graph.callsite_names(ins, |a| {
                let f = graph.ix(a)?;
                fn_names[f.index()].filter(|_| df.functions[f.index()].is_some())
            })
        });
        // The audit log reads the outcome records as the DDG stage left
        // them, so it is rendered before detect-stage panics join them.
        let decisions = if self.config.audit {
            self.audit_log(&symex_records, &df, &quarantine, &records, &fn_names, &outcome.verdicts)
        } else {
            Vec::new()
        };
        for &addr in &outcome.failed_holders {
            if self.config.fail_fast {
                return Err(dtaint_fwbin::Error::BadFormat(format!(
                    "panic while judging `{}`",
                    fn_name_of(addr)
                )));
            }
            let detail = "panic during taint judgement".into();
            record(&mut records, graph, addr, &fn_name_of(addr), FunctionOutcome::Panicked, detail);
        }
        tel.record("detect", "stage", stage_t0, &[]);

        let sinks_count = df.sinks.own;
        let loop_copy_sinks = df.sinks.own_loop_copies;

        // Sink coverage: classify every distinct sink site the data-flow
        // stage surfaced by the most severe verdict any observer reached
        // (0 unreached, 1 sanitized, 2 reported): a site reported
        // anywhere counts as reported. DDG prunes stay an aggregate —
        // cache blobs carry no per-site records — so the section is
        // identical between cold and warm cache runs.
        let mut worst: HashMap<(&str, u32), u8> = HashMap::new();
        for v in &outcome.verdicts {
            let e = worst.entry((v.sink, v.sink_ins)).or_insert(0);
            *e = (*e).max(v.judged.rank());
        }
        let rows = df
            .sinks
            .sites
            .iter()
            .map(|(sink, sites)| {
                let mut row = report::SinkCoverageRow { sink: sink.clone(), ..Default::default() };
                for &ins in sites {
                    row.sites += 1;
                    match worst.get(&(sink.as_str(), ins)) {
                        Some(2) => row.reported += 1,
                        Some(1) => row.sanitized += 1,
                        _ => row.unreached += 1,
                    }
                }
                row
            })
            .collect();
        let sink_coverage = report::SinkCoverage {
            rows,
            ddg_pruned: df.pruned_infeasible,
            duplicates: outcome.duplicates_suppressed,
        };

        let functions_skipped = records
            .iter()
            .flatten()
            .filter(|r| {
                matches!(r.outcome, FunctionOutcome::LiftFailed | FunctionOutcome::Panicked)
            })
            .count();

        let fn_costs: Vec<FnCost> = df
            .residues()
            .map(|(addr, f)| FnCost {
                addr,
                name: fn_name_of(addr).into_owned(),
                blocks_executed: u64::from(f.blocks_executed),
                paths_explored: u64::from(f.paths_explored),
                alias_rewrites: u64::from(f.alias_rewrites),
                ddg_fuel: f.fuel_used,
                sinks: u64::from(f.sinks),
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
        metrics.set_gauge("image.call_graph_edges", df.callgraph.edge_count() as u64);
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
        for (_, f) in df.residues() {
            metrics.inc("ddg.alias_sse_rounds", u64::from(f.sse_rounds));
            metrics.inc("ddg.alias_sse_rewrites", u64::from(f.sse_rewrites));
            metrics.inc("ddg.alias_sse_saturated", u64::from(f.sse_saturated));
        }
        metrics.inc("lift.instructions", shapes.iter().map(|s| s.instructions as u64).sum());
        metrics.inc("symex.functions_retried", retried as u64);
        metrics.inc("symex.nodes_translated", nodes_translated);
        metrics.inc("ddg.pruned_infeasible", df.pruned_infeasible as u64);
        metrics.inc("ddg.indirect_installers", df.indirect_stats.installers as u64);
        metrics.inc("ddg.indirect_sites", df.indirect_stats.sites as u64);
        metrics.inc("ddg.layouts_inferred", df.indirect_stats.layouts_inferred as u64);
        metrics.inc("absint.solver_passes", outcome.absint_passes);
        metrics.inc("detect.findings", outcome.findings.len() as u64);
        metrics.inc("detect.duplicates_suppressed", outcome.duplicates_suppressed as u64);
        // Coverage rows as gauges: the batch rollup sums gauges across
        // images (`merge_summing_gauges`), so per-kind site accounting
        // aggregates into corpus.json without extra plumbing.
        for row in &sink_coverage.rows {
            metrics.set_gauge(&format!("coverage.{}.sites", row.sink), row.sites as u64);
            metrics.set_gauge(&format!("coverage.{}.reported", row.sink), row.reported as u64);
            metrics.set_gauge(&format!("coverage.{}.sanitized", row.sink), row.sanitized as u64);
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
        let root_args = [
            ("functions", shapes.len() as u64),
            ("findings", outcome.findings.len() as u64),
            ("pool_nodes", df.pool.len() as u64),
        ];
        tel.record(name, "scan", scan_t0, &root_args);
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

        Ok(AnalysisReport {
            binary_name: name.to_owned(),
            arch: bin.arch.to_string(),
            functions: shapes.len(),
            blocks,
            call_graph_edges: df.callgraph.edge_count(),
            sinks_count,
            resolved_indirect: df.resolved_indirect.len(),
            findings: outcome.findings,
            infeasible_suppressed: df.pruned_infeasible,
            functions_analyzed: total_functions - functions_skipped,
            functions_skipped,
            functions_retried: retried,
            loop_copy_sinks,
            skipped_functions: records.into_iter().flatten().map(|r| *r).collect(),
            stage_us,
            telemetry: TelemetrySection { metrics, functions: fn_costs },
            sink_coverage,
            decisions,
        })
    }

    /// The decision audit log ([`AnalysisReport::decisions`]), rendered
    /// from the stages' typed results in one canonical order: symex
    /// budget, DDG budget, DDG prunes, alias saturation, cache
    /// quarantines, detect verdicts (holder address order, then
    /// observation order), and duplicate folds last. `records` are the
    /// outcome records as the DDG stage left them; `quarantine` marks the
    /// slots the DDG stage kept out of the cache (every one has a
    /// record).
    fn audit_log(
        &self,
        symex_records: &[(u32, String, FunctionOutcome, String)],
        df: &ProgramDataflow,
        quarantine: &[bool],
        records: &Records,
        fn_names: &[Option<&str>],
        verdicts: &[taint::SiteVerdict],
    ) -> Vec<Decision> {
        let mut log = Vec::new();
        let fuel_exhausted = |stage: &str, fuel_used, retried| DecisionReason::FuelExhausted {
            stage: stage.to_owned(),
            fuel_used,
            retried,
        };
        for (addr, name, outcome, _) in symex_records {
            if matches!(outcome, FunctionOutcome::Degraded | FunctionOutcome::BudgetExceeded) {
                let reason = fuel_exhausted("symex", u64::from(self.config.symex.max_fuel), true);
                log.push(Decision::new(DecisionKind::BudgetDegraded, "symex", name, *addr, reason));
            }
        }
        // A decision of the DDG stage about the function entered at `addr`.
        let ddg = |kind, addr: u32, reason| {
            Decision::new(kind, "ddg", &function_name(fn_names, df.callgraph, addr), addr, reason)
        };
        for (addr, f) in df.residues().filter(|(_, f)| f.budget_exhausted) {
            let reason = fuel_exhausted("ddg", f.fuel_used, false);
            log.push(ddg(DecisionKind::BudgetDegraded, addr, reason));
        }
        // Cache-hit functions re-credit the aggregate prune count but
        // carry no per-sink records, so warm scans list only the prunes
        // of functions analyzed cold.
        for p in &df.pruned_sinks {
            let (op, l, r) = p.witness;
            let constraint = format!("{} {} {}", df.pool.display(l), op, df.pool.display(r));
            let reason = DecisionReason::InfeasiblePath { constraint };
            let decision = ddg(DecisionKind::PathPruned, p.pruned_in, reason);
            log.push(decision.at_sink(p.sink_ins, p.kind.name()));
        }
        for (addr, f) in df.residues().filter(|(_, f)| f.sse_saturated) {
            let reason = DecisionReason::Saturated { rounds: u64::from(f.sse_rounds) };
            log.push(ddg(DecisionKind::AliasSaturated, addr, reason));
        }
        // Functions quarantined from the incremental cache, in address
        // order (none on cache-less scans).
        let quarantined = quarantine.iter().zip(records).filter(|(&q, _)| q);
        for r in quarantined.filter_map(|(_, r)| r.as_deref()) {
            let reason = DecisionReason::Quarantined { outcome: r.outcome.to_string() };
            log.push(Decision::new(
                DecisionKind::CacheQuarantined,
                "cache",
                &r.name,
                r.addr,
                reason,
            ));
        }
        log.extend(taint::detect_decisions(verdicts, |addr| {
            let f = df.callgraph.ix(addr);
            f.and_then(|f| fn_names[f.index()]).unwrap_or("<unknown>")
        }));
        log
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
    fn run_symex(&self, bin: &Binary, syms: &[&Symbol], tel: &mut Collector) -> SymexStage {
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
        // symbol alone under the config salt. A hit serves the summary
        // and the shape from the cache record (one `symex_fn` span) and
        // never lifts; a malformed record rolls back and falls through.
        // A miss lifts behind a panic boundary (one `lift_fn` span), runs
        // symbolic execution (one `symex_fn` span carrying the logical
        // counters), then stores the summary and the shape against the
        // pool the summary lives in — only when it was cleanly analyzed.
        // Settling is order-independent (one key per function). Span
        // recording is a local append a disabled buffer skips, so the
        // disabled path costs one branch.
        let symex = self.config.symex;
        let cache = self.config.cache.as_ref().map(|c| (c, sym_salt(env_digest(bin), &symex)));
        let symex_span = |buf: &mut TraceBuffer, s: &FuncSummary, t0| {
            let args = [
                ("addr", u64::from(s.addr)),
                ("blocks", u64::from(s.blocks_executed)),
                ("paths", u64::from(s.paths_explored)),
            ];
            buf.record(&s.name, "symex_fn", t0, &args);
        };
        let step = |s: &Symbol, pool: &mut ExprPool, buf: &mut TraceBuffer| -> FnStep {
            let t0 = buf.start();
            let key = cache.and_then(|(_, salt)| symbol_content_hash(salt, bin, s));
            let hit = cache.zip(key).and_then(|((cref, _), k)| {
                let blob = cref.cache.lookup_blob(Level::Symex, k)?;
                pool.attempt(|p| decode_local(&blob, p))
            });
            let was_hit = hit.is_some();
            let (shape, one) = match hit {
                Some((summary, shape)) => {
                    symex_span(buf, &summary, t0);
                    (shape, SymexOne { summary, record: None, retried: false })
                }
                None => {
                    let t0 = buf.start();
                    let lifted = catch_unwind(AssertUnwindSafe(|| build_function_cfg(bin, s)));
                    let c = match lifted {
                        Ok(Ok(c)) => c,
                        Ok(Err(e)) => return Err(LiftFailure::of(s, Some(e))),
                        Err(_) => return Err(LiftFailure::of(s, None)),
                    };
                    let shape = c.shape();
                    let args = [
                        ("addr", u64::from(c.addr)),
                        ("blocks", shape.blocks as u64),
                        ("instructions", shape.instructions as u64),
                    ];
                    buf.record(&c.name, "lift_fn", t0, &args);
                    let t0 = buf.start();
                    let one = symex_one(bin, &c, pool, &symex);
                    symex_span(buf, &one.summary, t0);
                    (shape, one)
                }
            };
            if let Some((cref, _)) = cache {
                let s = &one.summary;
                cref.cache.settle(Level::Symex, &cref.scan, s.addr, &s.name, key, was_hit, || {
                    let clean = one.record.is_none() && !s.degraded && !s.fuel_exhausted;
                    clean.then(|| encode_local(pool, s, &shape))?
                });
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
            let args = [("chunk", self.next as u64), ("functions", functions), ("nodes", nodes)];
            buf.record("symex_merge", "symex_merge", t0, &args);
            self.events.extend(events);
            self.events.append(&mut buf.take_events());
            self.next += 1;
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

/// Analyzes one function behind the pool's rollback boundary
/// ([`ExprPool::attempt`]) with fuel-exhaustion retry.
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
    let panicked = |detail: &str, retried| SymexOne {
        summary: opaque_summary(cfg),
        record: Some((FunctionOutcome::Panicked, detail.to_owned())),
        retried,
    };
    // Tells a fuel-exhausted full run (retried) from a panicked one.
    let mut exhausted = false;
    let full = pool.attempt(|p| {
        let summary = analyze_function(bin, cfg, p, config);
        exhausted = summary.fuel_exhausted;
        (!exhausted).then_some(summary)
    });
    if let Some(summary) = full {
        return SymexOne { summary, record: None, retried: false };
    }
    if !exhausted {
        return panicked("panic during symbolic execution", false);
    }
    let degraded = config.degraded();
    let Some(mut summary) = pool.attempt(|p| Some(analyze_function(bin, cfg, p, &degraded))) else {
        return panicked("panic during degraded symbolic execution", true);
    };
    summary.degraded = true;
    let (outcome, what) = if summary.fuel_exhausted {
        (FunctionOutcome::BudgetExceeded, "fuel exhausted at full and degraded strength")
    } else {
        (FunctionOutcome::Degraded, "retried degraded after fuel exhaustion")
    };
    let detail = format!("{what} (max_fuel = {})", config.max_fuel);
    SymexOne { summary, record: Some((outcome, detail)), retried: true }
}

/// The opaque summary a failed function downgrades to: no defs, no
/// callsites, no constraints — callers treat its calls like unknown
/// imports (`ret_{cs}` stays symbolic), a conservative pass-through.
fn opaque_summary(cfg: &FunctionCfg) -> FuncSummary {
    FuncSummary { addr: cfg.addr, name: cfg.name.clone(), ..FuncSummary::default() }
}

/// The name of the function at `addr`, borrowed from the shape records
/// (one slot per `graph` slot), or its address when no lifted function
/// starts there.
fn function_name<'n>(fn_names: &[Option<&'n str>], graph: &CallGraph, addr: u32) -> Cow<'n, str> {
    let name = graph.ix(addr).and_then(|f| fn_names[f.index()]);
    name.map_or_else(|| Cow::Owned(format!("{addr:#x}")), Cow::Borrowed)
}

/// The per-function outcome records, one slot per call-graph slot.
type Records = Vec<Option<Box<FunctionRecord>>>;

/// Inserts or upgrades the outcome record of the function entered at
/// `addr`, keeping the more severe outcome when one exists
/// ([`FunctionOutcome`]'s order).
fn record(
    records: &mut Records,
    graph: &CallGraph,
    addr: u32,
    name: &str,
    outcome: FunctionOutcome,
    detail: String,
) {
    let Some(f) = graph.ix(addr) else { return };
    let slot = &mut records[f.index()];
    if slot.as_ref().is_none_or(|old| old.outcome < outcome) {
        *slot = Some(Box::new(FunctionRecord { addr, name: name.to_owned(), outcome, detail }));
    }
}
