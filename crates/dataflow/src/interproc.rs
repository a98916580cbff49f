//! Bottom-up interprocedural data flow — §III-E, Algorithm 2.
//!
//! DTaint traverses the call graph in post-order (callees before
//! callers), analyzing every function exactly once. At each call site of
//! an already-summarised callee it:
//!
//! * **replaces the return variable** — `ret_{callsite}` becomes the
//!   callee's return expression, with the callee's formals mapped to the
//!   site's actual arguments (`ReplaceRetVariable` + `ReplaceFormalArgs`),
//! * **pushes callee definitions up** — definition pairs that reach the
//!   callee's exit and are rooted in a formal argument or returned
//!   pointer are rewritten into the caller's namespace and both appended
//!   to the caller's pairs and *substituted* into the caller's
//!   expressions, connecting memory written by the callee to loads in
//!   the caller (`UpdatDefPairs`),
//! * **forwards unresolved uses up** — a sink whose arguments still
//!   mention formal arguments bubbles to every caller with
//!   formals replaced by actuals (`ForwardUndefinedUse`), accumulating
//!   the call chain and the path constraints met along the way.
//!
//! The output, [`ProgramDataflow`], is the data-dependency substrate the
//! detector traverses backwards from sinks to sources.
//!
//! # Order
//!
//! The bottom-up pass walks the call graph's SCC condensation in
//! strata: stratum 0 holds functions whose every out-of-component
//! callee is already done (leaves), stratum *k* those whose callees all
//! sit in strata < *k*. The pass is one sequential loop over the
//! flattened strata (address order within a stratum) on the single
//! shared [`ExprPool`], so every function sees all of its
//! out-of-component callees finished, and members of one recursive
//! component treat each other as opaque. Per-image parallelism lives in
//! the symbolic stage and across images (`batch --jobs`), not here.

use crate::cache::{self, CacheRef, Level};
use crate::indirect::{resolve_indirect_calls, IndirectStats, ResolvedCall};
use dtaint_cfg::CallGraph;
use dtaint_fwbin::{Binary, Symbol};
use dtaint_symex::pool::{CmpOp, ExprPool, SymNode};
use dtaint_symex::{CalleeRef, CallsiteInfo, Constraint, DefPair, ExprId, FuncSummary};
use dtaint_telemetry::{Clock, SpanEvent, TraceBuffer, TraceSpec};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Switches for the pipeline stages (used by the ablation benches).
#[derive(Debug, Clone)]
pub struct DataflowConfig {
    /// Run pointer-aliasing recognition (Algorithm 1 or its SSE
    /// successor, per [`AliasConfig::mode`]).
    pub enable_alias: bool,
    /// Alias-analysis algorithm and budgets. Every field is semantic
    /// and enters the DDG cache salt.
    pub alias: crate::alias::AliasConfig,
    /// Resolve indirect calls by layout similarity (§III-D).
    pub enable_indirect: bool,
    /// Import names treated as sensitive sinks (bubbled up the call
    /// graph as [`SinkObservation`]s).
    pub sink_names: HashSet<String>,
    /// Treat memory-copy statements in loops as sinks.
    pub loop_copy_sinks: bool,
    /// Cap on sink observations carried per function (safety valve).
    pub max_sinks_per_fn: usize,
    /// Ignored: the bottom-up pass is sequential. Kept only because the
    /// benchmark package still assigns it; the next benchmark change
    /// removes it.
    pub threads: usize,
    /// Drop sink observations whose path constraints are contradictory
    /// (`n < 8 && n > 64`) during propagation, before they bubble to
    /// callers — the interval-analysis extension. The feasibility check
    /// is a pure function of the pool's interned nodes, so pruning
    /// preserves the bit-identical-across-threads guarantee.
    pub interval_guards: bool,
    /// Per-function fuel for the bottom-up propagation, in work units
    /// (one unit per call-site application plus one per callee term
    /// substituted up). Deterministic step count, never wall-clock:
    /// the set of functions that exhaust it is identical for every
    /// thread count. When a function runs out, the remaining call
    /// sites keep their un-substituted symbolic form (a conservative
    /// partial summary) and the function is flagged
    /// [`FinalSummary::budget_exhausted`]. The default is far above any
    /// realistic function, so it only binds when lowered explicitly.
    pub max_fuel: u64,
    /// Fault-injection drill: panic at the end of propagating the
    /// function at this address, after it has interned nodes, minted
    /// unknowns and pruned sinks — everything the per-function
    /// [`ExprPool::attempt`] boundary must undo. For tests; `None` in
    /// production.
    pub panic_on: Option<u32>,
    /// The clock the build's spans are measured on. The three sub-stage
    /// spans go to lane 0 of [`ProgramDataflow::trace_events`] either
    /// way; with [`TraceSpec::workers`] set, the propagation stage also
    /// records one span per function on lane `base_lane`. Spans carry
    /// wall-clock durations for display and trace export only — nothing
    /// analysed downstream reads them, so this never changes findings.
    /// `None` (the default) measures the sub-stages on a fresh clock.
    pub trace: Option<TraceSpec>,
    /// Incremental summary cache handle. When set, each function's final
    /// summary is looked up by content key before Algorithm 2's inner
    /// loop runs, and stored after (see [`crate::cache`]). `None` (the
    /// default) analyzes everything cold. Hits and misses never change
    /// results — only whether they are recomputed or rehydrated.
    pub cache: Option<crate::cache::CacheRef>,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            enable_alias: true,
            alias: crate::alias::AliasConfig::default(),
            enable_indirect: true,
            sink_names: [
                "strcpy", "strncpy", "sprintf", "memcpy", "strcat", "sscanf", "system", "popen",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            loop_copy_sinks: true,
            max_sinks_per_fn: 4096,
            threads: 1,
            interval_guards: false,
            max_fuel: 1 << 24,
            panic_on: None,
            trace: None,
            cache: None,
        }
    }
}

/// What kind of sink an observation describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkKind {
    /// A call to a sensitive library function.
    Import(String),
    /// A memory copy inside a loop.
    LoopCopy,
}

impl SinkKind {
    /// The kind's display name — the import name, or `loop-copy`.
    pub fn name(&self) -> &str {
        match self {
            SinkKind::Import(n) => n,
            SinkKind::LoopCopy => "loop-copy",
        }
    }
}

/// A sink observation the interval feasibility pruning dropped, with the
/// constraint that proved its path infeasible. Recorded under
/// [`DataflowConfig::interval_guards`], in the order the propagation
/// prunes (processing order, then sink order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedSink {
    /// The dropped observation's sink kind.
    pub kind: SinkKind,
    /// Instruction address of the sink itself.
    pub sink_ins: u32,
    /// Function whose propagation dropped the observation (the sink's
    /// own function, or a caller it had bubbled into).
    pub pruned_in: u32,
    /// The contradictory constraint, in the shared pool: the witness
    /// [`dtaint_absint::path_feasible_witness`] returned.
    pub witness: (CmpOp, ExprId, ExprId),
}

/// A sensitive sink, as visible from some function up the call chain.
///
/// `args` and `constraints` are expressed in the *observing* function's
/// namespace; when the observation bubbles from callee to caller, formals
/// are replaced by actuals and the caller's own constraints on the
/// calling path are appended.
#[derive(Debug, Clone)]
pub struct SinkObservation {
    /// The sink's kind.
    pub kind: SinkKind,
    /// Instruction address of the sink itself.
    pub sink_ins: u32,
    /// Function that contains the sink.
    pub sink_fn: u32,
    /// Sink arguments in the observing function's namespace. For
    /// [`SinkKind::LoopCopy`] this is `[destination address, value]`.
    pub args: Vec<ExprId>,
    /// Call-site chain from the observing function down to the sink
    /// (instruction addresses; empty when observed in `sink_fn` itself).
    pub call_chain: Vec<u32>,
    /// Path constraints collected along the chain, for the sanitisation
    /// check.
    pub constraints: Vec<(CmpOp, ExprId, ExprId)>,
}

/// Final (post-propagation) summary of one function.
#[derive(Debug, Clone)]
pub struct FinalSummary {
    /// The function's summary with callee knowledge substituted in.
    pub summary: FuncSummary,
    /// Sinks visible from this function (own + inherited from callees).
    pub sinks: Vec<SinkObservation>,
    /// Number of leading entries of `summary.constraints` that are the
    /// function's *own* (path-local) constraints; the rest were pulled
    /// from callees and are not re-exported (transitive pulling would
    /// compound exponentially up the call graph).
    pub local_constraints: usize,
    /// True when propagation for this function panicked and was caught:
    /// the summary was downgraded to an opaque one (no defs, no sinks)
    /// and every expression the failed run interned was rolled back.
    pub panicked: bool,
    /// True when propagation stopped at [`DataflowConfig::max_fuel`];
    /// call sites past the cut-off keep their symbolic form.
    pub budget_exhausted: bool,
    /// Fuel units this function's propagation consumed — a deterministic
    /// step count (a pure function of the callee summaries), never a
    /// wall-clock measurement, so it is safe to compare across thread
    /// counts. Zero for panicked functions.
    pub fuel_used: u64,
}

impl FinalSummary {
    /// Values known to be stored at the pointee of `ptr` within this
    /// function's final definition pairs (any access width).
    ///
    /// A copy sink like `strcpy(dst, src)` receives the *pointer* `src`;
    /// the tainted payload is what memory holds at `deref(src)`. This
    /// resolves that indirection.
    pub fn pointee_values(&self, pool: &ExprPool, ptr: ExprId) -> Vec<ExprId> {
        // Value closure of the pointer: the pointer expression itself
        // plus anything the definition pairs say it evaluates to (e.g.
        // `deref(g + 0x10) = &buf` resolves a field-loaded pointer to
        // the buffer it designates).
        let mut vals = vec![ptr];
        let mut i = 0;
        while i < vals.len() && vals.len() < 32 {
            let v = vals[i];
            i += 1;
            for dp in &self.summary.def_pairs {
                if dp.d == v && !vals.contains(&dp.u) {
                    vals.push(dp.u);
                }
            }
        }
        let mut out = Vec::new();
        for dp in &self.summary.def_pairs {
            if let SymNode::Deref { addr, .. } = pool.node(dp.d) {
                if vals.contains(&addr) && !out.contains(&dp.u) {
                    out.push(dp.u);
                }
            }
        }
        out
    }
}

/// What the bottom-up pass keeps of a function after its final summary
/// is dropped: the counters and flags the report reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnResidue {
    /// [`FuncSummary::blocks_executed`].
    pub blocks_executed: u32,
    /// [`FuncSummary::paths_explored`].
    pub paths_explored: u32,
    /// [`FuncSummary::alias_rewrites`].
    pub alias_rewrites: u32,
    /// [`FuncSummary::sse_rounds`].
    pub sse_rounds: u32,
    /// [`FuncSummary::sse_rewrites`].
    pub sse_rewrites: u32,
    /// [`FuncSummary::sse_saturated`].
    pub sse_saturated: bool,
    /// [`FinalSummary::fuel_used`].
    pub fuel_used: u64,
    /// [`FinalSummary::panicked`].
    pub panicked: bool,
    /// [`FinalSummary::budget_exhausted`].
    pub budget_exhausted: bool,
    /// Sink observations the final summary held, own and inherited.
    pub sinks: u32,
}

impl FnResidue {
    fn of(fs: &FinalSummary) -> FnResidue {
        let s = &fs.summary;
        FnResidue {
            blocks_executed: s.blocks_executed,
            paths_explored: s.paths_explored,
            alias_rewrites: s.alias_rewrites,
            sse_rounds: s.sse_rounds,
            sse_rewrites: s.sse_rewrites,
            sse_saturated: s.sse_saturated,
            fuel_used: fs.fuel_used,
            panicked: fs.panicked,
            budget_exhausted: fs.budget_exhausted,
            sinks: fs.sinks.len() as u32,
        }
    }
}

/// Every distinct sink site the propagation surfaced, and how many
/// observations sit in their sink's own function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkCensus {
    /// Distinct sink instructions, by sink kind name
    /// ([`SinkKind::name`]).
    pub sites: BTreeMap<String, BTreeSet<u32>>,
    /// Observations with an empty call chain: sinks seen in the function
    /// that contains them.
    pub own: usize,
    /// Of those, loop copies.
    pub own_loop_copies: usize,
}

impl SinkCensus {
    fn note(&mut self, fs: &FinalSummary) {
        for s in &fs.sinks {
            match self.sites.get_mut(s.kind.name()) {
                Some(sites) => {
                    sites.insert(s.sink_ins);
                }
                None => {
                    self.sites.insert(s.kind.name().to_owned(), BTreeSet::from([s.sink_ins]));
                }
            }
            if s.call_chain.is_empty() {
                self.own += 1;
                self.own_loop_copies += usize::from(s.kind == SinkKind::LoopCopy);
            }
        }
    }
}

/// The caller and callee of every call site in the program, as
/// addresses, keyed by the call instruction. Names are resolved only on
/// demand ([`ProgramDataflow::callsite_names`]): for the call chains of
/// reported findings.
#[derive(Debug, Clone, Default)]
pub struct CallsiteIndex {
    sites: HashMap<u32, (u32, CallTarget)>,
}

/// Where one call site goes.
#[derive(Debug, Clone, Copy)]
enum CallTarget {
    /// A function: a direct callee, or an indirect call resolved by
    /// layout similarity.
    Function(u32),
    /// An import, named by [`ProgramDataflow::import_sites`].
    Import,
    /// An indirect call no layout resolved.
    Unresolved,
}

impl CallsiteIndex {
    /// Indexes one final summary's call sites. A call instruction that
    /// several (overlapping) functions contain belongs to the one with
    /// the highest entry address, whatever order they are noted in.
    fn note(&mut self, fs: &FinalSummary, resolution: &HashMap<u32, u32>) {
        let caller = fs.summary.addr;
        for cs in &fs.summary.callsites {
            let target = match &cs.callee {
                CalleeRef::Direct(a) => CallTarget::Function(*a),
                CalleeRef::Import(_) => CallTarget::Import,
                CalleeRef::Indirect(_) => resolution
                    .get(&cs.ins_addr)
                    .map_or(CallTarget::Unresolved, |&a| CallTarget::Function(a)),
            };
            let slot = self.sites.entry(cs.ins_addr).or_insert((caller, target));
            if slot.0 <= caller {
                *slot = (caller, target);
            }
        }
    }
}

/// The program-wide state a holder's judgement reads besides the
/// holder's own final summary.
#[derive(Debug, Clone, Copy)]
pub struct DataflowView<'a> {
    /// The shared expression pool.
    pub pool: &'a ExprPool,
    /// Import call sites across the program: `ins_addr → import name`.
    pub import_sites: &'a HashMap<u32, String>,
}

/// The whole-program data-flow result.
#[derive(Debug)]
pub struct ProgramDataflow {
    /// The shared expression pool.
    pub pool: ExprPool,
    /// Final summaries keyed by function entry address. Ordered, so every
    /// whole-program iteration downstream is deterministic. Holds every
    /// function after [`build_dataflow`]; empty after
    /// [`build_dataflow_judged`], which drops each summary once its last
    /// caller has applied it.
    pub finals: BTreeMap<u32, FinalSummary>,
    /// What each function kept of its final summary, by entry address —
    /// one entry per function the pass summarised.
    pub functions: BTreeMap<u32, FnResidue>,
    /// The bottom-up analysis order used (the flattened strata).
    pub order: Vec<u32>,
    /// Indirect calls resolved by layout similarity.
    pub resolved_indirect: Vec<ResolvedCall>,
    /// Work counts of the indirect-call resolution.
    pub indirect_stats: IndirectStats,
    /// Import call sites across the program: `ins_addr → import name`.
    pub import_sites: HashMap<u32, String>,
    /// Caller and callee of every call site in the final summaries.
    pub callsites: CallsiteIndex,
    /// The sink sites across all final summaries.
    pub sinks: SinkCensus,
    /// Sink observations dropped because their accumulated path
    /// constraints are contradictory (only with
    /// [`DataflowConfig::interval_guards`]; zero otherwise).
    pub pruned_infeasible: usize,
    /// Functions whose alias-recognition pass panicked; their summaries
    /// kept the pre-alias form (no rewriting) and were flagged
    /// [`FuncSummary::degraded`]. Sorted by address.
    pub alias_panics: Vec<u32>,
    /// The build's spans: one lane-0 stage span per sub-stage
    /// (`ddg_alias`, `ddg_indirect`, `ddg_propagate`, always recorded),
    /// then the per-function propagation spans in [`Self::order`] when
    /// [`DataflowConfig::trace`] asks for worker spans. Durations are
    /// wall-clock and must never feed findings.
    pub trace_events: Vec<SpanEvent>,
    /// One record per observation the interval pruning dropped (empty
    /// without [`DataflowConfig::interval_guards`]). Ordered by
    /// [`Self::order`], then sink order. Cache *hits* re-credit
    /// [`Self::pruned_infeasible`] from the blob's count but carry no
    /// per-sink records — on a warm scan this list covers only the
    /// functions analyzed cold.
    pub pruned_sinks: Vec<PrunedSink>,
}

impl ProgramDataflow {
    /// Every sink observation, across all functions.
    pub fn all_sinks(&self) -> impl Iterator<Item = (&FinalSummary, &SinkObservation)> {
        self.finals.values().flat_map(|f| f.sinks.iter().map(move |s| (f, s)))
    }

    /// The pool and import sites, for judging a holder.
    pub fn view(&self) -> DataflowView<'_> {
        DataflowView { pool: &self.pool, import_sites: &self.import_sites }
    }

    /// Caller and callee names of the call at `ins`, or `None` when no
    /// final summary holds it. Functions are named by `name_of`, or by
    /// address when it has no name for them; imports keep their import
    /// name, and unresolved indirect calls read `"<indirect>"`. Feeds
    /// the per-finding provenance chain: each `call_chain` entry becomes
    /// a named callsite-substitution evidence step.
    pub fn callsite_names<'n>(
        &self,
        ins: u32,
        name_of: impl Fn(u32) -> Option<&'n str>,
    ) -> Option<(String, String)> {
        let &(caller, target) = self.callsites.sites.get(&ins)?;
        let name = |addr: u32| name_of(addr).map_or_else(|| format!("{addr:#x}"), str::to_owned);
        let callee = match target {
            CallTarget::Function(a) => name(a),
            CallTarget::Import => self.import_sites.get(&ins)?.clone(),
            CallTarget::Unresolved => "<indirect>".to_owned(),
        };
        Some((name(caller), callee))
    }
}

/// Runs the bottom-up interprocedural analysis and keeps every final
/// summary in [`ProgramDataflow::finals`].
///
/// `locals` are the per-function symbolic summaries, all interned in
/// `pool` (see [`FuncSummary::translate_with`] for merging parallel
/// results). The call graph gains edges for indirect calls resolved
/// during the run.
pub fn build_dataflow(
    bin: &Binary,
    callgraph: &mut CallGraph,
    locals: Vec<FuncSummary>,
    pool: ExprPool,
    config: &DataflowConfig,
) -> ProgramDataflow {
    propagate(bin, callgraph, locals, pool, config, None)
}

/// [`build_dataflow`] for a caller that needs each final summary only
/// once: `judge` sees every function's final summary as soon as it is
/// settled (cache store included), in processing order, and the summary
/// is dropped once its last out-of-component caller has applied it. So
/// the live summaries are the call-graph frontier, not the image.
/// [`ProgramDataflow::finals`] comes back empty; everything else is
/// what [`build_dataflow`] returns.
pub fn build_dataflow_judged(
    bin: &Binary,
    callgraph: &mut CallGraph,
    locals: Vec<FuncSummary>,
    pool: ExprPool,
    config: &DataflowConfig,
    judge: &mut dyn FnMut(DataflowView<'_>, &FinalSummary),
) -> ProgramDataflow {
    propagate(bin, callgraph, locals, pool, config, Some(judge))
}

/// The per-holder callback of [`build_dataflow_judged`].
type Judge<'j> = &'j mut dyn FnMut(DataflowView<'_>, &FinalSummary);

/// The one bottom-up loop behind [`build_dataflow`] (no `judge`: keep
/// every final summary) and [`build_dataflow_judged`].
fn propagate(
    bin: &Binary,
    callgraph: &mut CallGraph,
    locals: Vec<FuncSummary>,
    mut pool: ExprPool,
    config: &DataflowConfig,
    mut judge: Option<Judge<'_>>,
) -> ProgramDataflow {
    let spec =
        config.trace.unwrap_or(TraceSpec { clock: Clock::new(), base_lane: 1, workers: false });
    let mut stages = TraceBuffer::new(spec.clock, 0, true);
    let mut pruned_infeasible = 0usize;
    // Ordered, so per-function passes intern into the pool in a fixed
    // order regardless of how `locals` arrived.
    let mut by_addr: BTreeMap<u32, FuncSummary> = locals.into_iter().map(|s| (s.addr, s)).collect();

    // Stage 1: pointer aliasing per function (Algorithm 1 in store
    // mode, the SSE fixpoint in sse mode). Degraded summaries skip it
    // (that is what "degraded" means: optional refinements off); a
    // panic inside it downgrades just that function — the pristine
    // summary is restored, the pool rolled back, and the scan
    // continues.
    let t0 = stages.start();
    let globals = crate::sse::GlobalMap::build(bin);
    let mut alias_panics: Vec<u32> = Vec::new();
    if config.enable_alias {
        for s in by_addr.values_mut() {
            if s.degraded {
                continue;
            }
            let saved = s.clone();
            let done = pool.attempt(|p| {
                crate::alias::alias_pass(s, p, &config.alias, &|c| globals.base_of(c));
                Some(())
            });
            if done.is_none() {
                *s = saved;
                s.degraded = true;
                alias_panics.push(s.addr);
            }
        }
    }
    stages.record("ddg_alias", "stage", t0, BTreeMap::new());

    // Stage 2: indirect-call resolution (§III-D).
    let t0 = stages.start();
    let (resolved, indirect_stats) = if config.enable_indirect {
        resolve_indirect_calls(bin, by_addr.values(), &pool)
    } else {
        Default::default()
    };
    stages.record("ddg_indirect", "stage", t0, BTreeMap::new());
    let resolution: HashMap<u32, u32> = resolved.iter().map(|r| (r.ins_addr, r.callee)).collect();
    for r in &resolved {
        callgraph.add_resolved_indirect(r.ins_addr, r.callee);
    }

    // Import call sites (for the detector's source lookup).
    let mut import_sites: HashMap<u32, String> = HashMap::new();
    for s in by_addr.values() {
        for cs in &s.callsites {
            if let CalleeRef::Import(name) = &cs.callee {
                import_sites.insert(cs.ins_addr, name.clone());
            }
        }
    }

    // Stage 3: bottom-up propagation (Algorithm 2) over the flattened
    // SCC strata. Strata must be computed *after* indirect resolution,
    // whose edges can deepen (or entangle) the order.
    let propagate_t0 = stages.start();
    let order: Vec<u32> = callgraph.strata().into_iter().flatten().collect();
    let comp_of: HashMap<u32, usize> = callgraph
        .sccs()
        .into_iter()
        .enumerate()
        .flat_map(|(i, c)| c.into_iter().map(move |f| (f, i)))
        .collect();
    // Incremental-cache context: content hashes over each function's
    // raw bytes, computed while `by_addr` is still fully populated — the
    // loop below drains it.
    let mut cache_ctx = DdgCacheCtx::build(bin, config, &by_addr, callgraph);
    // Out-of-component callers still to apply each function's final
    // summary, counted from the same callee resolution the propagation
    // applies (`applied_callees`), once per calling function.
    let mut callers_left: HashMap<u32, u32> = HashMap::new();
    for (&faddr, s) in &by_addr {
        for callee in applied_callees(faddr, s, &comp_of, &resolution) {
            *callers_left.entry(callee).or_default() += 1;
        }
    }
    let mut finals: BTreeMap<u32, FinalSummary> = BTreeMap::new();
    let mut functions: BTreeMap<u32, FnResidue> = BTreeMap::new();
    let mut callsites = CallsiteIndex::default();
    let mut sinks = SinkCensus::default();
    let mut buf = TraceBuffer::new(spec.clock, spec.base_lane, spec.workers);
    let mut pruned_sinks: Vec<PrunedSink> = Vec::new();

    for &faddr in &order {
        let Some(summary) = by_addr.remove(&faddr) else { continue };
        let callees = applied_callees(faddr, &summary, &comp_of, &resolution);
        let t0 = buf.start();
        // Final scan keys compose bottom-up: a function's key folds its
        // own content hash with the keys of its out-of-component callees,
        // all of which come earlier in `order` and are already keyed.
        let key = cache_ctx.as_mut().and_then(|ctx| {
            let key = ctx.key_for(faddr, &summary, &comp_of, &resolution);
            ctx.final_keys.insert(faddr, key);
            key
        });
        let before_unknowns = pool.next_unknown_index();
        let hit = cache_ctx.as_ref().zip(key).and_then(|(ctx, k)| {
            let blob = ctx.cref.cache.lookup_blob(Level::Ddg, k)?;
            ctx.rehydrate(&blob, faddr, &mut pool)
        });
        let was_hit = hit.is_some();
        // A hit carries the pruning count of the cold run that stored
        // it, so `pruned_infeasible` matches a cold scan exactly. A
        // panic rolls the pool back (later functions see bit-identical
        // ids) and downgrades to an opaque summary, which prunes nothing.
        let (fs, fn_pruned) = hit.unwrap_or_else(|| {
            let name = summary.name.clone();
            let propagated = pool.attempt(|p| {
                Some(process_function(
                    bin,
                    faddr,
                    summary,
                    &finals,
                    &comp_of,
                    &resolution,
                    &globals,
                    p,
                    config,
                ))
            });
            match propagated {
                Some((fs, mut pruned)) => {
                    let fn_pruned = pruned.len() as u32;
                    pruned_sinks.append(&mut pruned);
                    (fs, fn_pruned)
                }
                None => {
                    let summary = FuncSummary { addr: faddr, name, ..FuncSummary::default() };
                    let fs = FinalSummary {
                        summary,
                        sinks: Vec::new(),
                        local_constraints: 0,
                        panicked: true,
                        budget_exhausted: false,
                        fuel_used: 0,
                    };
                    (fs, 0)
                }
            }
        });
        pruned_infeasible += fn_pruned as usize;
        if buf.is_enabled() {
            let mut args = BTreeMap::new();
            args.insert("addr".to_owned(), faddr as u64);
            args.insert("fuel".to_owned(), fs.fuel_used);
            buf.record(&fs.summary.name, "ddg_fn", t0, args);
        }
        let created_k = pool.next_unknown_index() - before_unknowns;
        if let Some(ctx) = cache_ctx.as_mut() {
            ctx.push_base(before_unknowns, created_k, faddr);
            let (cache_store, scan) = (&ctx.cref.cache, &ctx.cref.scan);
            cache_store.settle(Level::Ddg, scan, faddr, &fs.summary.name, key, was_hit, || {
                // Faulted results — panicked, budget-exhausted, degraded,
                // or symex-quarantined (`uncacheable`) — are never
                // stored: a cache must not launder a partial summary
                // into a healthy-looking one.
                if fs.panicked
                    || fs.budget_exhausted
                    || fs.summary.degraded
                    || ctx.cref.uncacheable.contains(&faddr)
                {
                    return None;
                }
                cache::encode_final(&pool, &fs, fn_pruned, created_k, &mut |abs| ctx.map_abs(abs))
            });
        }
        callsites.note(&fs, &resolution);
        sinks.note(&fs);
        functions.insert(faddr, FnResidue::of(&fs));
        let Some(judge) = judge.as_deref_mut() else {
            finals.insert(faddr, fs);
            continue;
        };
        judge(DataflowView { pool: &pool, import_sites: &import_sites }, &fs);
        // Keep the summary only while some caller has yet to apply it,
        // and drop each callee this function was the last to apply.
        if callers_left.get(&faddr).is_some_and(|&n| n > 0) {
            finals.insert(faddr, fs);
        }
        for callee in callees {
            let Some(n) = callers_left.get_mut(&callee) else { continue };
            *n -= 1;
            if *n == 0 {
                finals.remove(&callee);
            }
        }
    }
    if judge.is_some() {
        // Callers outside `order` never ran; nothing reads these now.
        finals.clear();
    }
    stages.record("ddg_propagate", "stage", propagate_t0, BTreeMap::new());
    let mut trace_events = stages.take_events();
    trace_events.extend(buf.take_events());

    ProgramDataflow {
        pool,
        finals,
        functions,
        order,
        resolved_indirect: resolved,
        indirect_stats,
        import_sites,
        callsites,
        sinks,
        pruned_infeasible,
        alias_panics,
        trace_events,
        pruned_sinks,
    }
}

/// Per-scan state for the incremental DDG cache (see [`crate::cache`]).
///
/// Holds the content hashes computed up front, the final scan keys
/// (filled in processing order), and the unknown-ownership table that makes cached blobs
/// relocatable: every `Unknown(n)` serializes as `(owner_addr, n −
/// base_owner)` and rehydrates against *this* scan's bases.
struct DdgCacheCtx {
    cref: CacheRef,
    salt: u64,
    /// Per-function content hash over the symbol's raw bytes. `None`
    /// when the function has no binary symbol, or an empty or unmapped
    /// one (then it can never hit or be stored, and neither can its
    /// callers).
    own: HashMap<u32, Option<u64>>,
    /// For members of multi-function SCCs: the combined component hash
    /// (all members fold into every member's key — a change anywhere in
    /// a recursive component invalidates the whole component).
    combined: HashMap<u32, Option<u64>>,
    /// Final scan key per function, filled just before it is processed.
    final_keys: HashMap<u32, Option<u64>>,
    /// `(base, k, addr)` unknown-ownership ranges in master numbering,
    /// sorted by base (strictly increasing; zero-width ranges omitted).
    /// Backs the abs→(owner, rel) lookup when encoding blobs.
    owner_of: Vec<(u32, u32, u32)>,
    /// `addr → (base, k)` — the inverse, for decoding.
    base_of: HashMap<u32, (u32, u32)>,
}

impl DdgCacheCtx {
    fn build(
        bin: &Binary,
        config: &DataflowConfig,
        by_addr: &BTreeMap<u32, FuncSummary>,
        callgraph: &CallGraph,
    ) -> Option<DdgCacheCtx> {
        let cref = config.cache.clone()?;
        let env = cache::env_digest(bin);
        let salt = cache::ddg_salt(env, config);
        // The own hash covers the function's raw bytes only — not its
        // local summary. The summary is a deterministic function of
        // those bytes plus the config (in the salt) plus the rest of the
        // image's data sections, symbols, and imports (in the env
        // digest), and deliberately NOT of its structural encoding: the
        // symex stage's parallel merge rebuilds expressions through
        // normalising constructors, so structurally distinct but
        // observationally equal forms exist across thread counts, and
        // keying on them would make warmth thread-dependent.
        // Each summary's own symbol, by address and name: when symbols
        // overlap, the first symbol covering an entry may be another
        // function, whose bytes would leave this one's edits unseen.
        let mut syms: HashMap<(u32, &str), &Symbol> = HashMap::new();
        for sym in bin.functions() {
            syms.entry((sym.addr, sym.name.as_str())).or_insert(sym);
        }
        let own: HashMap<u32, Option<u64>> = by_addr
            .iter()
            .map(|(&addr, s)| {
                let sym = syms.get(&(addr, s.name.as_str()));
                (addr, sym.and_then(|sym| cache::symbol_content_hash(salt, bin, sym)))
            })
            .collect();
        let mut combined: HashMap<u32, Option<u64>> = HashMap::new();
        for comp in callgraph.sccs() {
            if comp.len() < 2 {
                continue;
            }
            let members: Option<Vec<(u32, u64)>> =
                comp.iter().map(|&a| Some((a, own.get(&a).copied().flatten()?))).collect();
            let c = members.as_deref().map(cache::combine_scc);
            for &a in &comp {
                combined.insert(a, c);
            }
        }
        Some(DdgCacheCtx {
            cref,
            salt,
            own,
            combined,
            final_keys: HashMap::new(),
            owner_of: Vec::new(),
            base_of: HashMap::new(),
        })
    }

    /// The final scan key for one function: the own hash, the
    /// SCC-combined hash, and one marker per call site in local-summary
    /// order. Resolution outcomes and callee keys flow in through the
    /// markers, so a change in any transitive out-of-component callee —
    /// or in how an indirect site resolves — changes the key. `None`
    /// poisons callers too.
    fn key_for(
        &self,
        faddr: u32,
        summary: &FuncSummary,
        comp_of: &HashMap<u32, usize>,
        resolution: &HashMap<u32, u32>,
    ) -> Option<u64> {
        let own = self.own.get(&faddr).copied().flatten()?;
        let combined = match self.combined.get(&faddr) {
            Some(c) => Some((*c)?),
            None => None,
        };
        let mut markers = Vec::with_capacity(summary.callsites.len());
        for cs in &summary.callsites {
            let callee_addr = match &cs.callee {
                CalleeRef::Import(name) => {
                    markers.push(cache::marker::import(name));
                    continue;
                }
                CalleeRef::Direct(a) => Some(*a),
                CalleeRef::Indirect(_) => resolution.get(&cs.ins_addr).copied(),
            };
            let Some(a) = callee_addr else {
                markers.push(cache::marker::unresolved());
                continue;
            };
            if comp_of.get(&a) == comp_of.get(&faddr) {
                markers.push(cache::marker::same_scc());
                continue;
            }
            match self.final_keys.get(&a) {
                Some(Some(k)) => markers.push(*k),
                Some(None) => return None,
                // Callee never summarised (no CFG): propagation will
                // skip the site, deterministically — mark its absence.
                None => markers.push(cache::marker::absent(a)),
            }
        }
        Some(cache::compose_final_key(self.salt, own, combined, &markers))
    }

    /// Records a function's unknown-ownership range for this scan.
    /// Called for every function, hit or miss, in processing order, so
    /// bases are identical to a cold scan's lazily-created numbering.
    fn push_base(&mut self, base: u32, k: u32, addr: u32) {
        if k == 0 {
            return;
        }
        self.owner_of.push((base, k, addr));
        self.base_of.insert(addr, (base, k));
    }

    /// abs unknown index → (owner addr, index relative to owner's base).
    fn map_abs(&self, abs: u32) -> Option<(u32, u32)> {
        let i = self.owner_of.partition_point(|&(b, _, _)| b <= abs);
        let (b, k, a) = *self.owner_of.get(i.checked_sub(1)?)?;
        (abs < b + k).then_some((a, abs - b))
    }

    /// Attempts to rehydrate a cached blob: allocates the blob's `k`
    /// unknowns up front (rel `j` → `base + j`, matching the cold run's
    /// creation order), then decodes. Failure rolls the pool back — node
    /// count *and* unknown counter — and falls through to a recompute.
    fn rehydrate(
        &self,
        blob: &[u8],
        faddr: u32,
        pool: &mut ExprPool,
    ) -> Option<(FinalSummary, u32)> {
        let k = cache::blob_k_unknowns(blob)?;
        pool.attempt(|pool| {
            let base = pool.next_unknown_index();
            for _ in 0..k {
                pool.fresh_unknown();
            }
            cache::decode_final(blob, pool, &mut |owner, rel| {
                if owner == faddr {
                    (rel < k).then_some(base + rel)
                } else {
                    self.base_of.get(&owner).and_then(|&(b, bk)| (rel < bk).then_some(b + rel))
                }
            })
        })
    }
}

/// Summarises one function (Algorithm 2 outer-loop body): collects its
/// own sinks, then applies every already-summarised callee at each call
/// site. Returns the final summary and one [`PrunedSink`] per sink
/// observation the interval pruning dropped.
///
/// `finals` must already contain every callee outside the function's own
/// component — the stratified order guarantees it. Callees *inside* the
/// component (recursion) are treated as opaque, so members of a cycle
/// can be summarised in any order with one result.
#[allow(clippy::too_many_arguments)]
fn process_function(
    bin: &Binary,
    faddr: u32,
    mut summary: FuncSummary,
    finals: &BTreeMap<u32, FinalSummary>,
    comp_of: &HashMap<u32, usize>,
    resolution: &HashMap<u32, u32>,
    globals: &crate::sse::GlobalMap,
    pool: &mut ExprPool,
    config: &DataflowConfig,
) -> (FinalSummary, Vec<PrunedSink>) {
    let local_constraints = summary.constraints.len();
    let mut sinks: Vec<SinkObservation> = Vec::new();
    let mut fuel = config.max_fuel;
    let mut budget_exhausted = false;

    // Own loop-copy sinks.
    if config.loop_copy_sinks {
        for lc in &summary.loop_copies {
            let cons = constraints_on_path(&summary, lc.path);
            sinks.push(SinkObservation {
                kind: SinkKind::LoopCopy,
                sink_ins: lc.ins_addr,
                sink_fn: faddr,
                args: vec![lc.dst_addr, lc.value],
                call_chain: vec![],
                constraints: cons,
            });
        }
    }

    // Iterate by index: earlier call sites substitute expressions
    // (ret symbols, callee stores) that later call sites' arguments
    // must observe, so each site is re-read after prior rewrites.
    for idx in 0..summary.callsites.len() {
        let cs = summary.callsites[idx].clone();
        let cs = &cs;
        if let CalleeRef::Import(name) = &cs.callee {
            if config.sink_names.contains(name) {
                let cons = constraints_on_path(&summary, cs.path);
                sinks.push(SinkObservation {
                    kind: SinkKind::Import(name.clone()),
                    sink_ins: cs.ins_addr,
                    sink_fn: faddr,
                    args: cs.args.clone(),
                    call_chain: vec![],
                    constraints: cons,
                });
            }
            continue;
        }
        let Some(callee_addr) = applied_callee(faddr, cs, comp_of, resolution) else { continue };
        let Some(callee) = finals.get(&callee_addr) else { continue };
        // Fuel: one unit for the application itself plus one per callee
        // term that must be substituted up. Charged before applying so
        // the cut-off point is a pure function of the summaries, not of
        // timing or thread count.
        let cost = 1
            + callee.summary.escape_defs.len() as u64
            + callee.summary.ret_values.len() as u64
            + callee.sinks.len() as u64;
        if fuel < cost {
            // Out of fuel: remaining call sites keep their symbolic
            // `ret_{cs}` form — a conservative partial summary.
            budget_exhausted = true;
            break;
        }
        fuel -= cost;
        apply_callee(
            bin,
            &mut summary,
            &mut sinks,
            callee,
            cs.ins_addr,
            cs.path,
            &cs.args,
            pool,
            config,
        );
    }

    // SSE refinement: callee application composes definition pairs from
    // different callees, but `substitute_everywhere` only rewrites
    // expressions that exist at application time — a chain link added
    // by a later callee keeps its nested name unconnected. Re-running
    // the SSE fixpoint over the composed summary closes those
    // cross-callee chains. Store mode stays faithful to the paper's
    // single local pass.
    if config.enable_alias
        && config.alias.mode == crate::alias::AliasMode::Sse
        && !summary.degraded
        && !summary.callsites.is_empty()
    {
        crate::sse::sse_replace(&mut summary, pool, &config.alias, &|c| globals.base_of(c));
    }

    // Interval extension: an observation whose accumulated constraints
    // contradict each other describes a path the program cannot take;
    // dropping it here also stops it bubbling further up the call graph.
    // Each drop records the constraint that won.
    let mut pruned = Vec::new();
    if config.interval_guards {
        sinks.retain(|sk| {
            let Some(witness) = dtaint_absint::path_feasible_witness(pool, &sk.constraints) else {
                return true;
            };
            pruned.push(PrunedSink {
                kind: sk.kind.clone(),
                sink_ins: sk.sink_ins,
                pruned_in: faddr,
                witness,
            });
            false
        });
    }
    if config.panic_on == Some(faddr) {
        panic!("injected fault: ddg panic drill at {faddr:#x}");
    }

    sinks.truncate(config.max_sinks_per_fn);
    let fs = FinalSummary {
        summary,
        sinks,
        local_constraints,
        panicked: false,
        budget_exhausted,
        fuel_used: config.max_fuel - fuel,
    };
    (fs, pruned)
}

/// The function whose final summary a call site applies: its direct
/// callee, or the layout-similarity resolution of an indirect call.
/// `None` for imports, unresolved indirect calls, and callees in the
/// caller's own component — recursion (self or mutual) is treated as
/// opaque so each function is analyzed exactly once, as the paper
/// prescribes, independent of summarisation order.
fn applied_callee(
    faddr: u32,
    cs: &CallsiteInfo,
    comp_of: &HashMap<u32, usize>,
    resolution: &HashMap<u32, u32>,
) -> Option<u32> {
    let callee = match &cs.callee {
        CalleeRef::Direct(a) => *a,
        CalleeRef::Indirect(_) => *resolution.get(&cs.ins_addr)?,
        CalleeRef::Import(_) => return None,
    };
    (comp_of.get(&callee) != comp_of.get(&faddr)).then_some(callee)
}

/// The distinct functions `summary`'s call sites apply, in address
/// order ([`applied_callee`]).
fn applied_callees(
    faddr: u32,
    summary: &FuncSummary,
    comp_of: &HashMap<u32, usize>,
    resolution: &HashMap<u32, u32>,
) -> Vec<u32> {
    let mut out: Vec<u32> = summary
        .callsites
        .iter()
        .filter_map(|cs| applied_callee(faddr, cs, comp_of, resolution))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn constraints_on_path(summary: &FuncSummary, path: u32) -> Vec<(CmpOp, ExprId, ExprId)> {
    summary.constraints.iter().filter(|c| c.path == path).map(|c| (c.op, c.lhs, c.rhs)).collect()
}

/// Applies one summarised callee at one call site (Algorithm 2 body).
#[allow(clippy::too_many_arguments)]
fn apply_callee(
    bin: &Binary,
    summary: &mut FuncSummary,
    sinks: &mut Vec<SinkObservation>,
    callee: &FinalSummary,
    cs_ins: u32,
    cs_path: u32,
    actual_args: &[ExprId],
    pool: &mut ExprPool,
    config: &DataflowConfig,
) {
    // Maps a callee-namespace expression into the caller's namespace.
    // An argument the call site does not pass maps to one fresh unknown
    // per expression, so the rewrite answers as a function of the node.
    let mut stack_unknown: Option<ExprId> = None;
    let mut reg_unknowns: HashMap<u8, ExprId> = HashMap::new();
    let mut map_expr = |e: ExprId, pool: &mut ExprPool| -> ExprId {
        let mut su = stack_unknown;
        let mut ru = std::mem::take(&mut reg_unknowns);
        let mut missing: HashMap<u8, ExprId> = HashMap::new();
        let out = pool.rewrite(e, &mut |p, id| match p.node(id) {
            SymNode::Arg(i) => Some(match actual_args.get(i as usize) {
                Some(&a) => a,
                None => *missing.entry(i).or_insert_with(|| p.fresh_unknown()),
            }),
            SymNode::StackBase => Some(*su.get_or_insert_with(|| p.fresh_unknown())),
            SymNode::InitReg(r) => Some(*ru.entry(r).or_insert_with(|| p.fresh_unknown())),
            _ => None,
        });
        stack_unknown = su;
        reg_unknowns = ru;
        out
    };

    // (a) ReplaceRetVariable: ret_{cs} → callee return expression.
    let ret_sym = pool.ret_sym(cs_ins);
    if let Some(&rv) = callee.summary.ret_values.first() {
        let mapped = map_expr(rv, pool);
        substitute_everywhere(summary, sinks, pool, ret_sym, mapped);
    }

    // (b) Push callee escape defs: add + substitute.
    let mut subs: Vec<(ExprId, ExprId)> = Vec::new();
    for dp in &callee.summary.escape_defs {
        let d = map_expr(dp.d, pool);
        let u = map_expr(dp.u, pool);
        if d == u {
            continue;
        }
        summary.def_pairs.push(DefPair { d, u, ins_addr: cs_ins, path: cs_path });
        subs.push((d, u));
    }
    for (d, u) in subs {
        substitute_everywhere(summary, sinks, pool, d, u);
    }

    // (c) Pull callee constraints that are *meaningful to the caller* —
    // those over formal arguments and call results (the "check helper"
    // pattern). Constraints over the callee's own stack or saved
    // registers would map to fresh unknowns, carry no information, and
    // compound exponentially up deep call graphs.
    let portable = |p: &ExprPool, e: ExprId| {
        !p.any_node(e, &mut |n| {
            matches!(n, SymNode::StackBase | SymNode::InitReg(_) | SymNode::Unknown(_))
        })
    };
    let callee_cons: Vec<(CmpOp, ExprId, ExprId)> = callee
        .summary
        .constraints
        .iter()
        .take(callee.local_constraints)
        .filter(|c| portable(pool, c.lhs) && portable(pool, c.rhs))
        .map(|c| (c.op, c.lhs, c.rhs))
        .collect();
    for (op, l, r) in &callee_cons {
        if summary.constraints.len() >= 4096 {
            break;
        }
        let lhs = map_expr(*l, pool);
        let rhs = map_expr(*r, pool);
        let c = Constraint { op: *op, lhs, rhs, ins_addr: cs_ins, path: cs_path };
        if !summary.constraints.contains(&c) {
            summary.constraints.push(c);
        }
    }

    // (d) ForwardUndefinedUse: bubble the callee's sinks up — but only
    // those whose arguments still need caller context. The paper pushes
    // *undefined* uses to callers; a sink whose variables no longer
    // mention a formal argument (or a writable global that other
    // functions may define) gains nothing from further substitution and
    // would otherwise fan out combinatorially through dense call graphs.
    let caller_cons = constraints_on_path(summary, cs_path);
    for sk in &callee.sinks {
        if sinks.len() >= config.max_sinks_per_fn {
            break;
        }
        let unresolved = sk.args.iter().any(|&a| {
            pool.any_node(a, &mut |n| match n {
                SymNode::Arg(_) => true,
                SymNode::Const(c) => {
                    let addr = c as u32;
                    bin.section_at(addr).is_some() && !bin.is_immutable_addr(addr)
                }
                _ => false,
            })
        });
        if !unresolved {
            continue;
        }
        let args = sk.args.iter().map(|&a| map_expr(a, pool)).collect();
        let mut constraints: Vec<(CmpOp, ExprId, ExprId)> = sk
            .constraints
            .iter()
            .map(|(op, l, r)| (*op, map_expr(*l, pool), map_expr(*r, pool)))
            .collect();
        constraints.extend(caller_cons.iter().copied());
        let mut call_chain = vec![cs_ins];
        call_chain.extend(&sk.call_chain);
        sinks.push(SinkObservation {
            kind: sk.kind.clone(),
            sink_ins: sk.sink_ins,
            sink_fn: sk.sink_fn,
            args,
            call_chain,
            constraints,
        });
    }
}

/// Substitutes `from → to` across every expression a summary holds,
/// including the sink observations gathered so far.
fn substitute_everywhere(
    summary: &mut FuncSummary,
    sinks: &mut [SinkObservation],
    pool: &mut ExprPool,
    from: ExprId,
    to: ExprId,
) {
    if from == to {
        return;
    }
    for dp in &mut summary.def_pairs {
        // A defined location keeps its name: only *inner* occurrences of
        // `from` rewrite on the d side, otherwise the fact `from = u`
        // would degenerate to `to = u` and the binding would be lost.
        if dp.d != from {
            dp.d = pool.replace(dp.d, from, to);
        }
        dp.u = pool.replace(dp.u, from, to);
    }
    for dp in &mut summary.escape_defs {
        if dp.d != from {
            dp.d = pool.replace(dp.d, from, to);
        }
        dp.u = pool.replace(dp.u, from, to);
    }
    for cs in &mut summary.callsites {
        for a in &mut cs.args {
            *a = pool.replace(*a, from, to);
        }
        if let CalleeRef::Indirect(e) = &mut cs.callee {
            *e = pool.replace(*e, from, to);
        }
    }
    for c in &mut summary.constraints {
        c.lhs = pool.replace(c.lhs, from, to);
        c.rhs = pool.replace(c.rhs, from, to);
    }
    for r in &mut summary.ret_values {
        *r = pool.replace(*r, from, to);
    }
    for lc in &mut summary.loop_copies {
        lc.dst_addr = pool.replace(lc.dst_addr, from, to);
        lc.value = pool.replace(lc.value, from, to);
    }
    for sk in sinks.iter_mut() {
        for a in &mut sk.args {
            *a = pool.replace(*a, from, to);
        }
        for (_, l, r) in &mut sk.constraints {
            *l = pool.replace(*l, from, to);
            *r = pool.replace(*r, from, to);
        }
    }
}
