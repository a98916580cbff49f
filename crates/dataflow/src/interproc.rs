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
use dtaint_symex::{CalleeRef, Constraint, DefPair, ExprId, FuncSummary};
use dtaint_telemetry::{Clock, SpanEvent, TraceBuffer, TraceSpec};
use std::collections::{BTreeMap, HashMap, HashSet};

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
    /// Fault-injection drill: panic when propagating the function at
    /// this address. Exercises the per-function `catch_unwind`
    /// isolation in tests; `None` in production.
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
    /// Record one [`PrunedSink`] per observation the interval pruning
    /// drops, with the winning contradictory constraint rendered — the
    /// decision-audit feed. The feasibility *decision* is identical
    /// either way; auditing only captures evidence, so findings and
    /// counters never depend on this flag. `false` (the default)
    /// records nothing and allocates nothing.
    pub audit: bool,
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
            audit: false,
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
/// winning contradictory constraint rendered — one decision-audit
/// record. Collected only under [`DataflowConfig::audit`], in the order
/// the propagation prunes (processing order, then sink order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedSink {
    /// Sink kind name (`memcpy`, `loop-copy`, …).
    pub sink: String,
    /// Instruction address of the sink itself.
    pub sink_ins: u32,
    /// Function that contains the sink.
    pub sink_fn: u32,
    /// Function whose propagation dropped the observation (the sink's
    /// own function, or a caller it had bubbled into).
    pub pruned_in: u32,
    /// Name of that function.
    pub pruned_in_name: String,
    /// The contradictory constraint that proved the path infeasible,
    /// rendered structurally (`ret_0x40 > 64`) so it is identical across
    /// thread counts.
    pub constraint: String,
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

/// The whole-program data-flow result.
#[derive(Debug)]
pub struct ProgramDataflow {
    /// The shared expression pool.
    pub pool: ExprPool,
    /// Final summaries keyed by function entry address. Ordered, so every
    /// whole-program iteration downstream is deterministic.
    pub finals: BTreeMap<u32, FinalSummary>,
    /// The bottom-up analysis order used (the flattened strata).
    pub order: Vec<u32>,
    /// Indirect calls resolved by layout similarity.
    pub resolved_indirect: Vec<ResolvedCall>,
    /// Work counts of the indirect-call resolution.
    pub indirect_stats: IndirectStats,
    /// Import call sites across the program: `ins_addr → import name`.
    pub import_sites: HashMap<u32, String>,
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
    /// Audit records for every observation the interval pruning dropped,
    /// recorded only under [`DataflowConfig::audit`] (empty otherwise).
    /// Ordered by [`Self::order`], then sink order. Cache *hits*
    /// re-credit [`Self::pruned_infeasible`] from the blob's count but
    /// carry no per-sink records — on a warm scan this list covers only
    /// the functions analyzed cold.
    pub pruned_sinks: Vec<PrunedSink>,
}

impl ProgramDataflow {
    /// Sinks observed at "root" level — in functions with no analyzed
    /// callers, where argument substitution has gone as far as it can.
    ///
    /// Deduplicated by sink instruction: each sink is reported in its
    /// most-contextualised form(s).
    pub fn root_sinks(&self) -> Vec<(&FinalSummary, &SinkObservation)> {
        let called: HashSet<u32> = self
            .finals
            .values()
            .flat_map(|f| f.summary.callsites.iter())
            .filter_map(|c| match c.callee {
                CalleeRef::Direct(a) => Some(a),
                _ => None,
            })
            .collect();
        let mut out = Vec::new();
        for f in self.finals.values() {
            if called.contains(&f.summary.addr) {
                continue;
            }
            for s in &f.sinks {
                out.push((f, s));
            }
        }
        out
    }

    /// Every sink observation, across all functions.
    pub fn all_sinks(&self) -> impl Iterator<Item = (&FinalSummary, &SinkObservation)> {
        self.finals.values().flat_map(|f| f.sinks.iter().map(move |s| (f, s)))
    }

    /// Caller/callee names for every call site in the program, keyed by
    /// the call instruction address. Direct callees resolve through
    /// their final summaries, imports keep their import name, and
    /// indirect calls resolve through the layout-similarity matches
    /// (falling back to `"<indirect>"` when unresolved). Feeds the
    /// per-finding provenance chain: each `call_chain` entry becomes a
    /// named callsite-substitution evidence step.
    pub fn callsite_index(&self) -> HashMap<u32, (String, String)> {
        let resolved: HashMap<u32, u32> =
            self.resolved_indirect.iter().map(|r| (r.ins_addr, r.callee)).collect();
        let name_of = |addr: u32| {
            self.finals.get(&addr).map_or_else(|| format!("{addr:#x}"), |f| f.summary.name.clone())
        };
        let mut out = HashMap::new();
        for f in self.finals.values() {
            for cs in &f.summary.callsites {
                let callee = match &cs.callee {
                    CalleeRef::Direct(a) => name_of(*a),
                    CalleeRef::Import(n) => n.clone(),
                    CalleeRef::Indirect(_) => resolved
                        .get(&cs.ins_addr)
                        .map_or_else(|| "<indirect>".to_owned(), |&a| name_of(a)),
                };
                out.insert(cs.ins_addr, (f.summary.name.clone(), callee));
            }
        }
        out
    }

    /// Values known to be stored at the pointee of `ptr` within the given
    /// function's final definition pairs (any access width).
    ///
    /// A copy sink like `strcpy(dst, src)` receives the *pointer* `src`;
    /// the tainted payload is what memory holds at `deref(src)`. This
    /// resolves that indirection.
    pub fn pointee_values(&self, func: u32, ptr: ExprId) -> Vec<ExprId> {
        let Some(f) = self.finals.get(&func) else { return Vec::new() };
        // Value closure of the pointer: the pointer expression itself
        // plus anything the definition pairs say it evaluates to (e.g.
        // `deref(g + 0x10) = &buf` resolves a field-loaded pointer to
        // the buffer it designates).
        let mut vals = vec![ptr];
        let mut i = 0;
        while i < vals.len() && vals.len() < 32 {
            let v = vals[i];
            i += 1;
            for dp in &f.summary.def_pairs {
                if dp.d == v && !vals.contains(&dp.u) {
                    vals.push(dp.u);
                }
            }
        }
        let mut out = Vec::new();
        for dp in &f.summary.def_pairs {
            if let SymNode::Deref { addr, .. } = self.pool.node(dp.d) {
                if vals.contains(&addr) && !out.contains(&dp.u) {
                    out.push(dp.u);
                }
            }
        }
        out
    }
}

/// Runs the bottom-up interprocedural analysis.
///
/// `locals` are the per-function symbolic summaries, all interned in
/// `pool` (see [`FuncSummary::translate_with`] for merging parallel
/// results). The call graph gains edges for indirect calls resolved
/// during the run.
pub fn build_dataflow(
    bin: &Binary,
    callgraph: &mut CallGraph,
    locals: Vec<FuncSummary>,
    mut pool: ExprPool,
    config: &DataflowConfig,
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
            let mark = pool.mark();
            let saved = s.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::alias::alias_pass(s, &mut pool, &config.alias, &|c| globals.base_of(c))
            }));
            if r.is_err() {
                pool.rollback(mark);
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
    // Incremental-cache context: content hashes over the *post-alias*
    // local summaries (so Algorithm 1's rewrites are part of the key),
    // computed while `by_addr` is still fully populated — the loop below
    // drains it.
    let mut cache_ctx = DdgCacheCtx::build(bin, config, &by_addr, callgraph);
    let mut finals: BTreeMap<u32, FinalSummary> = BTreeMap::new();
    let mut buf = TraceBuffer::new(spec.clock, spec.base_lane, spec.workers);
    let mut pruned_sinks: Vec<PrunedSink> = Vec::new();

    for &faddr in &order {
        let Some(summary) = by_addr.remove(&faddr) else { continue };
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
        let pruned_before = pruned_infeasible;
        let mut hit: Option<(FinalSummary, u32)> = None;
        if let (Some(ctx), Some(k)) = (cache_ctx.as_ref(), key) {
            if let Some(blob) = ctx.cref.cache.lookup_blob(Level::Ddg, k) {
                hit = ctx.rehydrate(&blob, faddr, &mut pool);
            }
        }
        let was_hit = hit.is_some();
        let fs = match hit {
            Some((fs, blob_pruned)) => {
                // Re-credit the pruning the cold run performed so
                // `pruned_infeasible` matches a cold scan exactly.
                pruned_infeasible += blob_pruned as usize;
                fs
            }
            None => process_function_caught(
                bin,
                faddr,
                summary,
                &finals,
                &comp_of,
                &resolution,
                &globals,
                &mut pool,
                config,
                &mut pruned_infeasible,
                &mut pruned_sinks,
            ),
        };
        if buf.is_enabled() {
            let mut args = BTreeMap::new();
            args.insert("addr".to_owned(), faddr as u64);
            args.insert("fuel".to_owned(), fs.fuel_used);
            buf.record(&fs.summary.name, "ddg_fn", t0, args);
        }
        let created_k = pool.next_unknown_index() - before_unknowns;
        let fn_pruned = (pruned_infeasible - pruned_before) as u32;
        if let Some(ctx) = cache_ctx.as_mut() {
            ctx.push_base(before_unknowns, created_k, faddr);
            ctx.settle(&pool, faddr, &fs, key, was_hit, fn_pruned, created_k);
        }
        finals.insert(faddr, fs);
    }
    stages.record("ddg_propagate", "stage", propagate_t0, BTreeMap::new());
    let mut trace_events = stages.take_events();
    trace_events.extend(buf.take_events());

    ProgramDataflow {
        pool,
        finals,
        order,
        resolved_indirect: resolved,
        indirect_stats,
        import_sites,
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
    /// Per-function content hash over raw bytes + post-alias canonical
    /// summary encoding. `None` when the function has no binary symbol
    /// or its summary refuses canonical encoding (then it can never hit
    /// or be stored, and neither can its callers).
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
        let mark = pool.mark();
        let base = pool.next_unknown_index();
        for _ in 0..k {
            pool.fresh_unknown();
        }
        let r = cache::decode_final(blob, pool, &mut |owner, rel| {
            if owner == faddr {
                (rel < k).then_some(base + rel)
            } else {
                self.base_of.get(&owner).and_then(|&(b, bk)| (rel < bk).then_some(b + rel))
            }
        });
        if r.is_none() {
            pool.rollback(mark);
        }
        r
    }

    /// Post-processing bookkeeping for one function: hit/miss counters
    /// and, on an eligible miss, the store. Faulted results — panicked,
    /// budget-exhausted, degraded, or symex-quarantined (`uncacheable`)
    /// — are never stored: a cache must not launder a partial summary
    /// into a healthy-looking one.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        pool: &ExprPool,
        faddr: u32,
        fs: &FinalSummary,
        key: Option<u64>,
        was_hit: bool,
        fn_pruned: u32,
        created_k: u32,
    ) {
        let cache_store = &self.cref.cache;
        if was_hit {
            if let Some(k) = key {
                cache_store.note_hit(Level::Ddg, &self.cref.scan, faddr, k);
            }
            return;
        }
        cache_store.note_miss(Level::Ddg, &self.cref.scan, &fs.summary.name, faddr, key);
        let Some(k) = key else { return };
        if fs.panicked
            || fs.budget_exhausted
            || fs.summary.degraded
            || self.cref.uncacheable.contains(&faddr)
        {
            return;
        }
        let blob =
            cache::encode_final(pool, fs, fn_pruned, created_k, &mut |abs| self.map_abs(abs));
        if let Some(b) = blob {
            cache_store.store(Level::Ddg, &self.cref.scan, k, b);
        }
    }
}

/// [`process_function`] behind a panic boundary: a panic while
/// propagating one function rolls the pool back to its pre-function
/// state (erasing every node and unknown the failed run interned, so
/// later functions see bit-identical ids) and yields an opaque
/// [`FinalSummary`] — no defs, no sinks — flagged `panicked`.
#[allow(clippy::too_many_arguments)]
fn process_function_caught(
    bin: &Binary,
    faddr: u32,
    summary: FuncSummary,
    finals: &BTreeMap<u32, FinalSummary>,
    comp_of: &HashMap<u32, usize>,
    resolution: &HashMap<u32, u32>,
    globals: &crate::sse::GlobalMap,
    pool: &mut ExprPool,
    config: &DataflowConfig,
    pruned_infeasible: &mut usize,
    pruned: &mut Vec<PrunedSink>,
) -> FinalSummary {
    let name = summary.name.clone();
    let mark = pool.mark();
    let saved_pruned_infeasible = *pruned_infeasible;
    let saved_pruned = pruned.len();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_function(
            bin,
            faddr,
            summary,
            finals,
            comp_of,
            resolution,
            globals,
            pool,
            config,
            pruned_infeasible,
            pruned,
        )
    }));
    match r {
        Ok(fs) => fs,
        Err(_) => {
            pool.rollback(mark);
            *pruned_infeasible = saved_pruned_infeasible;
            pruned.truncate(saved_pruned);
            FinalSummary {
                summary: FuncSummary { addr: faddr, name, ..FuncSummary::default() },
                sinks: Vec::new(),
                local_constraints: 0,
                panicked: true,
                budget_exhausted: false,
                fuel_used: 0,
            }
        }
    }
}

/// Summarises one function (Algorithm 2 outer-loop body): collects its
/// own sinks, then applies every already-summarised callee at each call
/// site.
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
    pruned_infeasible: &mut usize,
    pruned: &mut Vec<PrunedSink>,
) -> FinalSummary {
    if config.panic_on == Some(faddr) {
        panic!("injected fault: ddg panic drill at {faddr:#x}");
    }
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
        let callee_addr = match &cs.callee {
            CalleeRef::Direct(a) => Some(*a),
            CalleeRef::Indirect(_) => resolution.get(&cs.ins_addr).copied(),
            CalleeRef::Import(name) => {
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
                None
            }
        };
        let Some(callee_addr) = callee_addr else { continue };
        if comp_of.get(&callee_addr) == comp_of.get(&faddr) {
            // Recursion (self or mutual): the callee is in this
            // function's own component, treated as opaque so each
            // function is analyzed exactly once, as the paper
            // prescribes — independent of summarisation order.
            continue;
        }
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
    if config.interval_guards {
        if config.audit {
            // Same decision, witness-carrying query: record what was
            // dropped and the constraint that won.
            let mut kept = Vec::with_capacity(sinks.len());
            for sk in sinks.drain(..) {
                match dtaint_absint::path_feasible_witness(pool, &sk.constraints) {
                    None => kept.push(sk),
                    Some((op, l, r)) => {
                        *pruned_infeasible += 1;
                        pruned.push(PrunedSink {
                            sink: sk.kind.name().to_owned(),
                            sink_ins: sk.sink_ins,
                            sink_fn: sk.sink_fn,
                            pruned_in: faddr,
                            pruned_in_name: summary.name.clone(),
                            constraint: format!("{} {} {}", pool.display(l), op, pool.display(r)),
                        });
                    }
                }
            }
            sinks = kept;
        } else {
            let before = sinks.len();
            sinks.retain(|sk| dtaint_absint::path_feasible(pool, &sk.constraints));
            *pruned_infeasible += before - sinks.len();
        }
    }

    sinks.truncate(config.max_sinks_per_fn);
    FinalSummary {
        summary,
        sinks,
        local_constraints,
        panicked: false,
        budget_exhausted,
        fuel_used: config.max_fuel - fuel,
    }
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
