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
use dtaint_cfg::{CallGraph, Condensation, FnIx};
use dtaint_fwbin::Binary;
use dtaint_symex::pool::{CmpOp, ExprPool, Kinds, SymNode};
use dtaint_symex::{CalleeRef, CallsiteInfo, Constraint, DefPair, ExprId, FuncSummary};
use dtaint_telemetry::Collector;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Import names treated as sensitive sinks — the paper's Table I, in
/// its order. Calls to them bubble up the call graph as
/// [`SinkObservation`]s.
pub const SINK_NAMES: [&str; 8] =
    ["strcpy", "strncpy", "sprintf", "memcpy", "strcat", "sscanf", "system", "popen"];

/// Cap on sink observations carried per function (safety valve).
pub const MAX_SINKS_PER_FN: usize = 4096;

/// How bounding guards on buffer-overflow paths are judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsMode {
    /// The paper's syntactic judgement: any bounding constraint on the
    /// tainted data sanitises the copy.
    #[default]
    Paper,
    /// Constant guards must fit the destination's stack capacity;
    /// symbolic guards and non-stack destinations fall back to the
    /// syntactic judgement.
    Strict,
    /// Interval abstract interpretation: a guard sanitises only when the
    /// inferred range of the copied length provably fits the
    /// destination's capacity (stack *or* named writable global), and
    /// observations whose path constraints are contradictory
    /// (`n < 8 && n > 64`) are dropped during propagation, before they
    /// bubble to callers. Subsumes [`BoundsMode::Strict`].
    Interval,
}

/// Switches for the pipeline stages (used by the ablation benches).
#[derive(Debug, Clone)]
pub struct DataflowConfig {
    /// Alias-analysis algorithm (Algorithm 1, its SSE successor, or
    /// none) and budgets. Every field is semantic and enters the DDG
    /// cache salt.
    pub alias: crate::alias::AliasConfig,
    /// Resolve indirect calls by layout similarity (§III-D).
    pub enable_indirect: bool,
    /// Treat memory-copy statements in loops as sinks.
    pub loop_copy_sinks: bool,
    /// Ignored: the bottom-up pass is sequential. Kept only because the
    /// benchmark package still assigns it; the next benchmark change
    /// removes it.
    pub threads: usize,
    /// How the detector judges bounding guards. Only
    /// [`BoundsMode::Interval`] changes propagation: it drops sink
    /// observations whose path constraints are contradictory. The
    /// feasibility check is a pure function of the pool's interned
    /// nodes, so pruning preserves the bit-identical-across-threads
    /// guarantee.
    pub bounds: BoundsMode,
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
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            alias: crate::alias::AliasConfig::default(),
            enable_indirect: true,
            loop_copy_sinks: true,
            threads: 1,
            bounds: BoundsMode::Paper,
            max_fuel: 1 << 24,
            panic_on: None,
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
/// [`BoundsMode::Interval`], in the order the propagation
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

/// The program-wide state a holder's judgement reads besides the
/// holder's own final summary.
#[derive(Debug, Clone, Copy)]
pub struct DataflowView<'a> {
    /// The shared expression pool.
    pub pool: &'a ExprPool,
    /// The call graph, for the import a call instruction calls.
    pub callgraph: &'a CallGraph,
}

/// The whole-program data-flow result.
#[derive(Debug)]
pub struct ProgramDataflow<'g> {
    /// The shared expression pool.
    pub pool: ExprPool,
    /// The call graph the pass walked, resolved indirect calls included:
    /// the caller, callee and import of every call instruction.
    pub callgraph: &'g CallGraph,
    /// Final summaries keyed by function entry address. Ordered, so every
    /// whole-program iteration downstream is deterministic. Holds every
    /// function after [`build_dataflow`]; empty after
    /// [`build_dataflow_judged`], which drops each summary once its last
    /// caller has applied it.
    pub finals: BTreeMap<u32, FinalSummary>,
    /// What each function kept of its final summary, one slot per
    /// call-graph slot ([`FnIx`]): `Some` for every function the pass
    /// summarised. [`ProgramDataflow::residues`] pairs them with their
    /// entry addresses.
    pub functions: Vec<Option<FnResidue>>,
    /// The bottom-up analysis order used (the flattened strata).
    pub order: Vec<u32>,
    /// Indirect calls resolved by layout similarity.
    pub resolved_indirect: Vec<ResolvedCall>,
    /// Work counts of the indirect-call resolution.
    pub indirect_stats: IndirectStats,
    /// The sink sites across all final summaries.
    pub sinks: SinkCensus,
    /// Sink observations dropped because their accumulated path
    /// constraints are contradictory (only with
    /// [`BoundsMode::Interval`]; zero otherwise).
    pub pruned_infeasible: usize,
    /// Functions whose alias-recognition pass panicked; their summaries
    /// kept the pre-alias form (no rewriting) and were flagged
    /// [`FuncSummary::degraded`]. Sorted by address.
    pub alias_panics: Vec<u32>,
    /// One record per observation the interval pruning dropped (empty
    /// without [`BoundsMode::Interval`]). Ordered by
    /// [`Self::order`], then sink order. Cache *hits* re-credit
    /// [`Self::pruned_infeasible`] from the blob's count but carry no
    /// per-sink records — on a warm scan this list covers only the
    /// functions analyzed cold.
    pub pruned_sinks: Vec<PrunedSink>,
}

impl ProgramDataflow<'_> {
    /// Every sink observation, across all functions.
    pub fn all_sinks(&self) -> impl Iterator<Item = (&FinalSummary, &SinkObservation)> {
        self.finals.values().flat_map(|f| f.sinks.iter().map(move |s| (f, s)))
    }

    /// The pool and call graph, for judging a holder.
    pub fn view(&self) -> DataflowView<'_> {
        DataflowView { pool: &self.pool, callgraph: self.callgraph }
    }

    /// Every summarised function's entry address and residue, in address
    /// order.
    pub fn residues(&self) -> impl Iterator<Item = (u32, &FnResidue)> {
        let graph = self.callgraph;
        graph.slots().zip(&self.functions).filter_map(|(f, r)| Some((graph.entry(f), r.as_ref()?)))
    }
}

/// Runs the bottom-up interprocedural analysis and keeps every final
/// summary in [`ProgramDataflow::finals`], cold and untraced.
///
/// `locals` are the per-function symbolic summaries, all interned in
/// `pool` (see [`FuncSummary::translate_with`] for merging parallel
/// results), one per function of `callgraph` (the later of two with one
/// entry address wins). The call graph gains the indirect calls
/// resolved during the run, and the result borrows it.
pub fn build_dataflow<'g>(
    bin: &Binary,
    callgraph: &'g mut CallGraph,
    locals: Vec<FuncSummary>,
    pool: ExprPool,
    config: &DataflowConfig,
) -> ProgramDataflow<'g> {
    let mut tel = Collector::disabled();
    build_dataflow_judged(bin, callgraph, locals, pool, config, &mut tel, None, &[], None)
}

/// The per-holder callback of [`build_dataflow_judged`].
type Judge<'j> = &'j mut dyn FnMut(DataflowView<'_>, &FinalSummary);

/// The one bottom-up loop behind [`build_dataflow`].
///
/// The three sub-stage spans (`ddg_alias`, `ddg_indirect`,
/// `ddg_propagate`) go to lane 0 of `tel`; when `tel` is enabled, the
/// propagation also records one `ddg_fn` span per function on lane 1,
/// in processing order, after them. Spans carry wall-clock durations
/// for display and trace export only — nothing analysed downstream
/// reads them, so they never change findings.
///
/// With `cache`, each function's final summary is looked up by content
/// key before Algorithm 2's inner loop runs, and stored after (see
/// [`crate::cache`]); hits and misses never change results, only
/// whether they are recomputed or rehydrated. `None` analyzes
/// everything cold. Functions whose `quarantine` slot ([`FnIx`]) is set
/// are never stored: their earlier stages reported a fault, and a
/// degraded artefact must not masquerade as an analyzed one. Their
/// content keys still take part in their callers' keys.
///
/// With `judge`, the caller needs each final summary only once: `judge`
/// sees every function's final summary as soon as it is settled (cache
/// store included), in processing order, and the summary is dropped
/// once its last out-of-component caller has applied it. So the live
/// summaries are the call-graph frontier, not the image, and
/// [`ProgramDataflow::finals`] comes back empty. Without it, every
/// final summary is kept.
#[allow(clippy::too_many_arguments)]
pub fn build_dataflow_judged<'g>(
    bin: &Binary,
    callgraph: &'g mut CallGraph,
    mut locals: Vec<FuncSummary>,
    mut pool: ExprPool,
    config: &DataflowConfig,
    tel: &mut Collector,
    cache: Option<&CacheRef>,
    quarantine: &[bool],
    mut judge: Option<Judge<'_>>,
) -> ProgramDataflow<'g> {
    let mut pruned_infeasible = 0usize;
    // Each slot's local summary: its position in `locals` (of two
    // summaries of one entry, the later). Walking the slots visits
    // functions in address order, so per-function passes intern into the
    // pool in a fixed order regardless of how `locals` arrived.
    let mut local_of: Vec<Option<u32>> = vec![None; callgraph.len()];
    for (i, s) in locals.iter().enumerate() {
        if let Some(f) = callgraph.ix(s.addr) {
            local_of[f.index()] = Some(i as u32);
        }
    }

    // Stage 1: pointer aliasing per function (Algorithm 1 in store
    // mode, the SSE fixpoint in sse mode). Degraded summaries skip it
    // (that is what "degraded" means: optional refinements off); a
    // panic inside it downgrades just that function — the pristine
    // summary is restored, the pool rolled back, and the scan
    // continues.
    let t0 = tel.start();
    let globals = crate::sse::GlobalMap::build(bin);
    let mut alias_panics: Vec<u32> = Vec::new();
    if config.alias.mode != crate::alias::AliasMode::Off {
        for &i in local_of.iter().flatten() {
            let s = &mut locals[i as usize];
            if s.degraded {
                continue;
            }
            let base_of = |c| globals.base_of(c);
            if !crate::alias::alias_pass_or_restore(s, &mut pool, &config.alias, &base_of) {
                s.degraded = true;
                alias_panics.push(s.addr);
            }
        }
    }
    tel.record("ddg_alias", "stage", t0, &[]);

    // Stage 2: indirect-call resolution (§III-D).
    let t0 = tel.start();
    let (resolved, indirect_stats) = if config.enable_indirect {
        let summaries = local_of.iter().flatten().map(|&i| &locals[i as usize]);
        resolve_indirect_calls(bin, summaries, &pool)
    } else {
        Default::default()
    };
    tel.record("ddg_indirect", "stage", t0, &[]);
    for r in &resolved {
        callgraph.add_resolved_indirect(r.caller, r.ins_addr, r.callee);
    }
    let graph: &'g CallGraph = callgraph;

    // Stage 3: bottom-up propagation (Algorithm 2) over the flattened
    // SCC strata. The condensation must be computed *after* indirect
    // resolution, whose edges can deepen (or entangle) the order.
    let propagate_t0 = tel.start();
    let cond = graph.condense();
    let order: Vec<FnIx> = cond.strata.concat();
    // Incremental-cache context: content hashes over each function's
    // raw bytes, computed while every local summary is still in place —
    // the loop below takes them.
    let mut cache_ctx =
        cache.map(|cref| DdgCacheCtx::build(bin, config, cref, graph, &cond, &local_of, &locals));
    // The distinct functions each function's call sites apply
    // ([`applied_callee`]), in address order, computed once into one
    // list, slot by slot (`callees[starts[f]..starts[f + 1]]`): they
    // count each function's callers still to apply its final summary,
    // and name the callees a function may be the last to apply.
    let (mut starts, mut callees, mut mine) = (vec![0], Vec::new(), Vec::new());
    for (f, &local) in graph.slots().zip(&local_of) {
        if let Some(i) = local {
            let sites = locals[i as usize].callsites.iter();
            mine.extend(sites.filter_map(|cs| applied_callee(f, cs, graph, &cond)));
            mine.sort_unstable();
            mine.dedup();
            callees.append(&mut mine);
        }
        starts.push(callees.len());
    }
    let mut callers_left = vec![0u32; graph.len()];
    for c in &callees {
        callers_left[c.index()] += 1;
    }
    let mut finals: Vec<Option<Box<FinalSummary>>> = vec![None; graph.len()];
    let mut functions: Vec<Option<FnResidue>> = vec![None; graph.len()];
    let mut sinks = SinkCensus::default();
    let mut buf = tel.buffer(1);
    let mut pruned_sinks: Vec<PrunedSink> = Vec::new();

    for &f in &order {
        let Some(i) = local_of[f.index()] else { continue };
        let summary = std::mem::take(&mut locals[i as usize]);
        let faddr = summary.addr;
        let t0 = buf.start();
        // Final scan keys compose bottom-up: a function's key folds its
        // own content hash with the keys of its out-of-component callees,
        // all of which come earlier in `order` and are already keyed.
        let key = cache_ctx.as_mut().and_then(|ctx| {
            let key = ctx.key_for(f, &summary, &cond);
            ctx.final_keys[f.index()] = Some(key);
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
                Some(process_function(bin, f, summary, &finals, graph, &cond, &globals, p, config))
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
        buf.record(
            &fs.summary.name,
            "ddg_fn",
            t0,
            &[("addr", u64::from(faddr)), ("fuel", fs.fuel_used)],
        );
        let created_k = pool.next_unknown_index() - before_unknowns;
        if let Some(ctx) = cache_ctx.as_mut() {
            ctx.push_base(before_unknowns, created_k, f, faddr);
            let (cache_store, scan) = (&ctx.cref.cache, &ctx.cref.scan);
            cache_store.settle(Level::Ddg, scan, faddr, &fs.summary.name, key, was_hit, || {
                // Faulted results — panicked, budget-exhausted, degraded,
                // or quarantined — are never stored: a cache must not
                // launder a partial summary into a healthy-looking one.
                if fs.panicked
                    || fs.budget_exhausted
                    || fs.summary.degraded
                    || quarantine.get(f.index()).copied().unwrap_or(false)
                {
                    return None;
                }
                cache::encode_final(&pool, &fs, fn_pruned, created_k, &mut |abs| ctx.map_abs(abs))
            });
        }
        sinks.note(&fs);
        functions[f.index()] = Some(FnResidue::of(&fs));
        let Some(judge) = judge.as_deref_mut() else {
            finals[f.index()] = Some(Box::new(fs));
            continue;
        };
        judge(DataflowView { pool: &pool, callgraph: graph }, &fs);
        // Keep the summary only while some caller has yet to apply it,
        // and drop each callee this function was the last to apply.
        if callers_left[f.index()] > 0 {
            finals[f.index()] = Some(Box::new(fs));
        }
        for c in &callees[starts[f.index()]..starts[f.index() + 1]] {
            callers_left[c.index()] -= 1;
            if callers_left[c.index()] == 0 {
                finals[c.index()] = None;
            }
        }
    }
    // The emptied summaries go before the stage's span closes.
    drop(locals);
    // With `judge`, nothing reads the finals left (callers outside
    // `order` never ran); without it, each is kept by entry address.
    let kept = graph.slots().zip(finals).filter_map(|(f, fs)| Some((graph.entry(f), *fs?)));
    let finals = if judge.is_some() { BTreeMap::new() } else { kept.collect() };
    tel.record("ddg_propagate", "stage", propagate_t0, &[]);
    tel.absorb(buf.take_events());

    ProgramDataflow {
        pool,
        callgraph: graph,
        finals,
        functions,
        order: order.iter().map(|&f| graph.entry(f)).collect(),
        resolved_indirect: resolved,
        indirect_stats,
        sinks,
        pruned_infeasible,
        alias_panics,
        pruned_sinks,
    }
}

/// Per-scan state for the incremental DDG cache (see [`crate::cache`]),
/// in call-graph slots ([`FnIx`]).
///
/// Holds the content hashes computed up front, the final scan keys
/// (filled in processing order), and the unknown-ownership table that makes cached blobs
/// relocatable: every `Unknown(n)` serializes as `(owner_addr, n −
/// base_owner)` and rehydrates against *this* scan's bases.
struct DdgCacheCtx<'c> {
    cref: &'c CacheRef,
    graph: &'c CallGraph,
    salt: u64,
    /// Per slot: the function's own content hash over its symbol's raw
    /// bytes and, for members of multi-function SCCs, the combined
    /// component hash (all members fold into every member's key — a
    /// change anywhere in a recursive component invalidates the whole
    /// component). `None` when the function has no summary, or no
    /// binary symbol, or an empty or unmapped one, or shares a component
    /// with such a function: then it can never hit or be stored, and
    /// neither can its callers.
    content: Vec<Option<(u64, Option<u64>)>>,
    /// Final scan key per slot, set just before the function is
    /// processed: `None` until then.
    final_keys: Vec<Option<Option<u64>>>,
    /// `(base, k, addr)` unknown-ownership ranges in master numbering,
    /// sorted by base (strictly increasing; zero-width ranges omitted).
    /// Backs the abs→(owner, rel) lookup when encoding blobs.
    owner_of: Vec<(u32, u32, u32)>,
    /// Per slot, the `(base, k)` range of `owner_of` — the inverse, for
    /// decoding; the empty `(0, 0)` for a function that created none.
    base_of: Vec<(u32, u32)>,
}

impl<'c> DdgCacheCtx<'c> {
    fn build(
        bin: &Binary,
        config: &DataflowConfig,
        cref: &'c CacheRef,
        graph: &'c CallGraph,
        cond: &Condensation,
        local_of: &[Option<u32>],
        locals: &[FuncSummary],
    ) -> DdgCacheCtx<'c> {
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
        // Each summary's own symbol is the first at its entry with its
        // name: when symbols overlap, the first symbol covering an entry
        // may be another function, whose bytes would leave this one's
        // edits unseen.
        let syms = bin.functions();
        let mut content: Vec<Option<(u64, Option<u64>)>> = local_of
            .iter()
            .map(|&i| {
                let s = &locals[i? as usize];
                let from = syms.partition_point(|y| y.addr < s.addr);
                let mut at = syms[from..].iter().take_while(|y| y.addr == s.addr);
                let sym = at.find(|y| y.name == s.name)?;
                Some((cache::symbol_content_hash(salt, bin, sym)?, None))
            })
            .collect();
        for comp in cond.components.iter().filter(|c| c.len() >= 2) {
            let members: Option<Vec<(u32, u64)>> =
                comp.iter().map(|&f| Some((graph.entry(f), content[f.index()]?.0))).collect();
            let combined = members.as_deref().map(cache::combine_scc);
            for f in comp {
                let slot = &mut content[f.index()];
                *slot = combined.and_then(|c| Some((slot.as_ref()?.0, Some(c))));
            }
        }
        DdgCacheCtx {
            cref,
            graph,
            salt,
            content,
            final_keys: vec![None; graph.len()],
            owner_of: Vec::new(),
            base_of: vec![(0, 0); graph.len()],
        }
    }

    /// The final scan key for one function: the own hash, the
    /// SCC-combined hash, and one marker per call site in local-summary
    /// order. Resolution outcomes and callee keys flow in through the
    /// markers, so a change in any transitive out-of-component callee —
    /// or in how an indirect site resolves — changes the key. `None`
    /// poisons callers too.
    fn key_for(&self, f: FnIx, summary: &FuncSummary, cond: &Condensation) -> Option<u64> {
        let (own, combined) = self.content[f.index()]?;
        let mut markers = Vec::with_capacity(summary.callsites.len());
        for cs in &summary.callsites {
            let callee_addr = match &cs.callee {
                CalleeRef::Import(name) => {
                    markers.push(cache::marker::import(name));
                    continue;
                }
                CalleeRef::Direct(a) => Some(*a),
                CalleeRef::Indirect(_) => self.graph.resolved_at(cs.ins_addr),
            };
            let Some(a) = callee_addr else {
                markers.push(cache::marker::unresolved());
                continue;
            };
            let callee = self.graph.ix(a);
            if callee.is_some_and(|c| cond.same_component(c, f)) {
                markers.push(cache::marker::same_scc());
                continue;
            }
            match callee.and_then(|c| self.final_keys[c.index()]) {
                Some(Some(k)) => markers.push(k),
                Some(None) => return None,
                // Callee never summarised (no CFG, or no function starts
                // there): propagation will skip the site,
                // deterministically — mark its absence.
                None => markers.push(cache::marker::absent(a)),
            }
        }
        Some(cache::compose_final_key(self.salt, own, combined, &markers))
    }

    /// Records the unknown-ownership range of function `f`, entered at
    /// `addr`, for this scan. Called for every function, hit or miss, in
    /// processing order, so bases are identical to a cold scan's
    /// lazily-created numbering.
    fn push_base(&mut self, base: u32, k: u32, f: FnIx, addr: u32) {
        if k == 0 {
            return;
        }
        self.owner_of.push((base, k, addr));
        self.base_of[f.index()] = (base, k);
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
                    let (b, bk) = self.base_of[self.graph.ix(owner)?.index()];
                    (rel < bk).then_some(b + rel)
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
/// `finals`, one slot per function, must already hold every callee
/// outside the function's own component — the stratified order
/// guarantees it. Callees *inside* the component (recursion) are treated
/// as opaque, so members of a cycle can be summarised in any order with
/// one result.
#[allow(clippy::too_many_arguments)]
fn process_function(
    bin: &Binary,
    f: FnIx,
    mut summary: FuncSummary,
    finals: &[Option<Box<FinalSummary>>],
    graph: &CallGraph,
    cond: &Condensation,
    globals: &crate::sse::GlobalMap,
    pool: &mut ExprPool,
    config: &DataflowConfig,
) -> (FinalSummary, Vec<PrunedSink>) {
    let faddr = summary.addr;
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
        let cs = &summary.callsites[idx];
        let (ins_addr, path, args) = (cs.ins_addr, cs.path, cs.args);
        if let CalleeRef::Import(name) = &cs.callee {
            if SINK_NAMES.contains(&name.as_str()) {
                sinks.push(SinkObservation {
                    kind: SinkKind::Import(name.clone()),
                    sink_ins: ins_addr,
                    sink_fn: faddr,
                    args: args.to_vec(),
                    call_chain: vec![],
                    constraints: constraints_on_path(&summary, path),
                });
            }
            continue;
        }
        let Some(callee) = applied_callee(f, cs, graph, cond) else { continue };
        let Some(callee) = finals[callee.index()].as_deref() else { continue };
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
        apply_callee(bin, &mut summary, &mut sinks, callee, ins_addr, path, &args, pool);
    }

    // SSE refinement: callee application composes definition pairs from
    // different callees, but `substitute_everywhere` only rewrites
    // expressions that exist at application time — a chain link added
    // by a later callee keeps its nested name unconnected. Re-running
    // the SSE fixpoint over the composed summary closes those
    // cross-callee chains. Store mode stays faithful to the paper's
    // single local pass.
    if config.alias.mode == crate::alias::AliasMode::Sse
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
    if config.bounds == BoundsMode::Interval {
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

    sinks.truncate(MAX_SINKS_PER_FN);
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

/// The function whose final summary a call site of `f` applies: its
/// direct callee, or the layout-similarity resolution of an indirect
/// call. `None` for imports, unresolved indirect calls, targets where no
/// function starts, and callees in the caller's own component —
/// recursion (self or mutual) is treated as opaque so each function is
/// analyzed exactly once, as the paper prescribes, independent of
/// summarisation order.
fn applied_callee(
    f: FnIx,
    cs: &CallsiteInfo,
    graph: &CallGraph,
    cond: &Condensation,
) -> Option<FnIx> {
    let callee = match &cs.callee {
        CalleeRef::Direct(a) => *a,
        CalleeRef::Indirect(_) => graph.resolved_at(cs.ins_addr)?,
        CalleeRef::Import(_) => return None,
    };
    let callee = graph.ix(callee)?;
    (!cond.same_component(callee, f)).then_some(callee)
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
        let kinds = Kinds::ARG | Kinds::STACK_BASE | Kinds::INIT_REG;
        let out = pool.rewrite(e, kinds, &mut |p, id| match p.node(id) {
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
        !p.holds_any(e, Kinds::STACK_BASE | Kinds::INIT_REG | Kinds::UNKNOWN)
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
        if sinks.len() >= MAX_SINKS_PER_FN {
            break;
        }
        let unresolved = sk.args.iter().any(|&a| {
            pool.any_node(a, Kinds::ARG | Kinds::CONST, &mut |n| match n {
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
        for a in cs.args.iter_mut() {
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
