//! Taint judgement: turning sink observations into findings.
//!
//! For every `(source, path, sink)` tuple the data-flow stage surfaced,
//! this module decides (§IV):
//!
//! 1. **Is the sink's sensitive variable tainted?** The variable (chosen
//!    per sink by [`TaintedVar`]) must carry data originating at an
//!    attacker-controlled source. Taint is tracked at two granularities,
//!    matching the paper's buffer semantics:
//!    * *value* taint — the expression contains a `ret_{cs}`/`out_{cs}`
//!      symbol of a source call;
//!    * *object* taint — the expression reads memory (`deref(base+k)`)
//!      from a buffer `base` that a definition pair shows was filled
//!      with source data at any offset (a `recv` into `buf` taints
//!      `buf[1]`, `buf[2]`, … — the Heartbleed `n2s` pattern).
//! 2. **Is the path sanitised?** Buffer overflows are guarded by a
//!    bounding constraint on the tainted data (`n < 64`, `n < y`);
//!    command injections by a comparison of a tainted byte against a
//!    shell separator ([`CMD_SEPARATORS`]). An unguarded tainted path
//!    is a vulnerability.
//!
//! The judgement of bounding guards comes in three [`BoundsMode`]s: the
//! paper's syntactic check, the strict-bounds extension (constant guards
//! must fit the destination), and the interval extension (guards are
//! evaluated over an interval abstract domain, so symbolic guards are
//! judged too and contradictory paths are suppressed).

use crate::evidence::{self, EvidenceStep, SanitizeVerdict};
use crate::report::{Finding, SourceRef};
use crate::sinks::{sink_spec, TaintedVar, VulnKind, CMD_SEPARATORS};
use dtaint_absint::IntervalAnalysis;
use dtaint_dataflow::{FinalSummary, ProgramDataflow, SinkKind, SinkObservation, TraceStep};
use dtaint_fwbin::{Binary, SymbolKind};
use dtaint_symex::pool::{CmpOp, SymNode};
use dtaint_symex::{ExprId, ExprPool};
use dtaint_telemetry::{Decision, DecisionKind, DecisionReason};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// ASCII code of the classic command separator (the first entry of
/// [`CMD_SEPARATORS`], kept for backward compatibility).
pub const SEMICOLON: i64 = b';' as i64;

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
    /// observations whose path constraints are contradictory are
    /// suppressed outright. Subsumes [`BoundsMode::Strict`].
    Interval,
}

/// Per-site judgement rank used by the sink-coverage report. Higher
/// outranks lower when the same sink instruction is judged from several
/// observing functions (max-merge): a site reported anywhere counts as
/// reported, even if another holder saw it sanitised.
pub mod site_rank {
    /// Seen by the detector but the sensitive variable carried no taint.
    pub const UNREACHED: u8 = 0;
    /// Tainted, but every observation's path constraints contradict.
    pub const INFEASIBLE: u8 = 1;
    /// Tainted and feasible, but a sanitising guard covers the data.
    pub const SANITIZED: u8 = 2;
    /// Reported as a finding (vulnerable or sanitised candidate kept).
    pub const REPORTED: u8 = 3;
}

/// The complete result of one taint-judgement pass.
#[derive(Debug, Clone, Default)]
pub struct TaintOutcome {
    /// Every judged `(source, path, sink)` tuple.
    pub findings: Vec<Finding>,
    /// Tainted observations dropped because their path constraints are
    /// contradictory ([`BoundsMode::Interval`] only; zero otherwise).
    pub infeasible_suppressed: usize,
    /// Interval-solver passes run across all observations — a
    /// deterministic step count.
    pub absint_passes: u64,
    /// Observing functions whose judgement panicked and was caught —
    /// their sink observations yielded no findings. Sorted by address.
    pub failed_holders: Vec<u32>,
    /// Candidate findings dropped by cross-holder deduplication (same
    /// sink instruction, call chain, source set and sink name observed
    /// from more than one holder).
    pub duplicates_suppressed: usize,
    /// Best judgement per distinct sink site `(sink name, instruction)`
    /// across all observing functions (see [`site_rank`]). Always
    /// populated — the sink-coverage report is built from it.
    pub site_outcomes: BTreeMap<(String, u32), u8>,
    /// Typed audit records for every negative judgement — only
    /// populated when the audit log is enabled; empty (and zero-cost)
    /// otherwise. Ordered by observing function address, then
    /// observation order, with cross-holder duplicate suppressions
    /// appended last in the same holder order a clean run visits.
    pub decisions: Vec<Decision>,
}

/// Object-granular taint knowledge for one observing function.
struct TaintIndex<'a> {
    df: &'a ProgramDataflow,
    sources: &'a HashSet<String>,
    /// Buffer base → sources whose data was stored into the buffer.
    tainted_bases: HashMap<ExprId, BTreeSet<SourceRef>>,
}

impl<'a> TaintIndex<'a> {
    fn build(df: &'a ProgramDataflow, holder: &FinalSummary, sources: &'a HashSet<String>) -> Self {
        let mut tainted_bases: HashMap<ExprId, BTreeSet<SourceRef>> = HashMap::new();
        for dp in &holder.summary.def_pairs {
            let mut atoms = BTreeSet::new();
            direct_atoms(df, sources, dp.u, &mut atoms);
            if atoms.is_empty() {
                continue;
            }
            if let SymNode::Deref { addr, .. } = df.pool.node(dp.d) {
                let (base, _) = df.pool.base_offset(addr);
                tainted_bases.entry(base).or_default().extend(atoms);
            }
        }
        // Alias closure: a memory name holding a pointer *to* a tainted
        // buffer is itself a tainted base — reading through
        // `deref(ctx + 0x10)` reaches the buffer the field points at.
        for _ in 0..8 {
            let mut changed = false;
            for dp in &holder.summary.def_pairs {
                let (ubase, _) = df.pool.base_offset(dp.u);
                let Some(atoms) = tainted_bases.get(&ubase).cloned() else { continue };
                if matches!(df.pool.node(dp.d), SymNode::Deref { .. }) {
                    let entry = tainted_bases.entry(dp.d).or_default();
                    let before = entry.len();
                    entry.extend(atoms);
                    changed |= entry.len() != before;
                }
            }
            if !changed {
                break;
            }
        }
        TaintIndex { df, sources, tainted_bases }
    }

    /// All source references carried by an expression (value taint plus
    /// object taint through memory reads).
    fn atoms_in(&self, e: ExprId) -> BTreeSet<SourceRef> {
        let mut out = BTreeSet::new();
        direct_atoms(self.df, self.sources, e, &mut out);
        // Object taint: any deref whose base was filled with source data.
        self.df.pool.any_node(e, &mut |n| {
            if let SymNode::Deref { addr, .. } = n {
                let (base, _) = self.df.pool.base_offset(addr);
                if let Some(atoms) = self.tainted_bases.get(&base) {
                    out.extend(atoms.iter().cloned());
                }
            }
            false // keep walking
        });
        out
    }

    /// Taint of the *pointee* of a pointer-valued expression: the buffer
    /// the pointer designates, resolved through the definition pairs.
    fn pointee_atoms(&self, holder_fn: u32, ptr: ExprId) -> BTreeSet<SourceRef> {
        let mut out = BTreeSet::new();
        // The pointer value itself may be a source (getenv's return).
        out.extend(self.atoms_in(ptr));
        // Values the pointer resolves to, plus what memory holds there.
        let mut vals = vec![ptr];
        for v in self.df.pointee_values(holder_fn, ptr) {
            out.extend(self.atoms_in(v));
            if !vals.contains(&v) {
                vals.push(v);
            }
        }
        // Object taint at the pointed-to buffer, at any offset.
        for v in vals {
            let (base, _) = self.df.pool.base_offset(v);
            if let Some(atoms) = self.tainted_bases.get(&base) {
                out.extend(atoms.iter().cloned());
            }
        }
        out
    }
}

fn direct_atoms(
    df: &ProgramDataflow,
    sources: &HashSet<String>,
    e: ExprId,
    out: &mut BTreeSet<SourceRef>,
) {
    df.pool.any_node(e, &mut |n| {
        let cs = match n {
            SymNode::RetSym(cs) => Some(cs),
            SymNode::CallOut { callsite, .. } => Some(callsite),
            _ => None,
        };
        if let Some(cs) = cs {
            if let Some(name) = df.import_sites.get(&cs) {
                if sources.contains(name) {
                    out.insert(SourceRef { name: name.clone(), ins_addr: cs });
                }
            }
        }
        false // keep walking
    });
}

/// Runs the taint judgement over every sink observation.
///
/// `sources` is the set of import names treated as attacker-controlled
/// inputs; `fn_names` maps function entry addresses to names for
/// reporting.
pub fn detect(
    df: &ProgramDataflow,
    sources: &HashSet<String>,
    fn_names: &HashMap<u32, String>,
) -> Vec<Finding> {
    detect_full(df, None, sources, fn_names, BoundsMode::Paper).findings
}

/// The full judgement with an explicit [`BoundsMode`] and, optionally,
/// the binary (for global-destination capacities in interval mode).
///
/// In [`BoundsMode::Interval`] every holder function gets one
/// [`IntervalAnalysis`] seeded from its definition pairs; each tainted
/// observation clones it, assumes the observation's path constraints,
/// and solves. A contradictory path suppresses the observation; an
/// otherwise-guarded copy is sanitised only when the solved range of the
/// length fits the destination capacity.
pub fn detect_full(
    df: &ProgramDataflow,
    bin: Option<&Binary>,
    sources: &HashSet<String>,
    fn_names: &HashMap<u32, String>,
    mode: BoundsMode,
) -> TaintOutcome {
    detect_audit(df, bin, sources, fn_names, mode, false)
}

/// [`detect_full`] with the decision audit log switched on or off.
///
/// With `audit == false` the result is identical to [`detect_full`]
/// (same findings, counters, and [`TaintOutcome::site_outcomes`]) and
/// no [`Decision`] records are built — the judgement itself never
/// branches on the flag, only the record construction does.
pub fn detect_audit(
    df: &ProgramDataflow,
    bin: Option<&Binary>,
    sources: &HashSet<String>,
    fn_names: &HashMap<u32, String>,
    mode: BoundsMode,
    audit: bool,
) -> TaintOutcome {
    let mut findings = Vec::new();
    let mut infeasible_suppressed = 0usize;
    let mut duplicates_suppressed = 0usize;
    let mut absint_passes = 0u64;
    let mut seen: HashSet<(u32, Vec<u32>, Vec<SourceRef>, String)> = HashSet::new();
    let mut failed_holders: Vec<u32> = Vec::new();
    let mut site_outcomes: BTreeMap<(String, u32), u8> = BTreeMap::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut dup_decisions: Vec<Decision> = Vec::new();
    let mut holders: Vec<&FinalSummary> = df.finals.values().collect();
    holders.sort_by_key(|f| f.summary.addr);
    // Caller/callee names per call instruction, shared by every
    // holder's evidence assembly.
    let callsites = df.callsite_index();
    for holder in holders {
        // Judge each observing function behind a panic boundary: the
        // pool is only read here, so a caught panic loses that holder's
        // findings and nothing else. Cross-holder deduplication stays
        // out here, applied in the same holder order as a clean run.
        let judged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            judge_holder(df, bin, sources, fn_names, mode, holder, &callsites, audit)
        }));
        let Ok(judged) = judged else {
            failed_holders.push(holder.summary.addr);
            continue;
        };
        infeasible_suppressed += judged.suppressed;
        absint_passes += judged.absint_passes;
        for (key, rank) in judged.site_ranks {
            let entry = site_outcomes.entry(key).or_insert(rank);
            *entry = (*entry).max(rank);
        }
        decisions.extend(judged.decisions);
        for f in judged.candidates {
            let key = (f.sink_ins, f.call_chain.clone(), f.sources.clone(), f.sink.clone());
            if seen.insert(key) {
                findings.push(f);
            } else {
                duplicates_suppressed += 1;
                if audit {
                    dup_decisions.push(
                        Decision::new(
                            DecisionKind::DuplicateSuppressed,
                            "detect",
                            &f.observed_in,
                            holder.summary.addr,
                            DecisionReason::Duplicate { fingerprint: f.fingerprint.clone() },
                        )
                        .at_sink(f.sink_ins, &f.sink),
                    );
                }
            }
        }
    }
    decisions.append(&mut dup_decisions);
    crate::report::sort_findings(&mut findings);
    TaintOutcome {
        findings,
        infeasible_suppressed,
        absint_passes,
        failed_holders,
        duplicates_suppressed,
        site_outcomes,
        decisions,
    }
}

/// Per-holder result of [`judge_holder`], before cross-holder
/// deduplication.
struct HolderJudgement {
    candidates: Vec<Finding>,
    suppressed: usize,
    absint_passes: u64,
    /// Site key → best rank this holder proved (see [`site_rank`]).
    site_ranks: Vec<((String, u32), u8)>,
    /// Audit records in observation order; empty unless auditing.
    decisions: Vec<Decision>,
}

/// Judges every sink observation of one observing function. Pure reader
/// of the data-flow result — it never mutates the pool — so it can run
/// behind `catch_unwind` without poisoning shared state.
#[allow(clippy::too_many_arguments)]
fn judge_holder(
    df: &ProgramDataflow,
    bin: Option<&Binary>,
    sources: &HashSet<String>,
    fn_names: &HashMap<u32, String>,
    mode: BoundsMode,
    holder: &FinalSummary,
    callsites: &HashMap<u32, (String, String)>,
    audit: bool,
) -> HolderJudgement {
    let mut findings = Vec::new();
    let mut infeasible_suppressed = 0usize;
    let mut absint_passes = 0u64;
    let mut site_ranks: Vec<((String, u32), u8)> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let holder_name =
        fn_names.get(&holder.summary.addr).cloned().unwrap_or_else(|| "<unknown>".to_owned());
    {
        // One object-taint index per observing function, shared by all
        // of its sink observations.
        let index = TaintIndex::build(df, holder, sources);
        // Interval mode: one definition-seeded base environment per
        // holder, cloned and specialised per observation below.
        let base_absint = (mode == BoundsMode::Interval).then(|| {
            let mut a = IntervalAnalysis::new(&df.pool);
            for dp in &holder.summary.def_pairs {
                a.seed_def(dp.d, dp.u);
            }
            a
        });
        for obs in &holder.sinks {
            let (kind, sink_name) = match &obs.kind {
                SinkKind::Import(name) => {
                    let Some(spec) = sink_spec(name) else { continue };
                    (spec.kind, name.clone())
                }
                SinkKind::LoopCopy => (VulnKind::BufferOverflow, "loop-copy".to_owned()),
            };

            // 1. Taint on the sink's sensitive variable.
            let mut source_refs: BTreeSet<SourceRef> = BTreeSet::new();
            let mut tainted_rendered: Option<ExprId> = None;
            let mut note_taint = |e: ExprId, atoms: BTreeSet<SourceRef>| {
                if !atoms.is_empty() {
                    source_refs.extend(atoms);
                    tainted_rendered.get_or_insert(e);
                }
            };
            match &obs.kind {
                SinkKind::LoopCopy => {
                    if let Some(&value) = obs.args.get(1) {
                        note_taint(value, index.atoms_in(value));
                    }
                }
                SinkKind::Import(name) => {
                    let spec = sink_spec(name).expect("checked above");
                    match spec.tainted {
                        TaintedVar::Arg(i) => {
                            if let Some(&a) = obs.args.get(i) {
                                note_taint(a, index.atoms_in(a));
                            }
                        }
                        TaintedVar::Pointee(i) => {
                            if let Some(&p) = obs.args.get(i) {
                                note_taint(p, index.pointee_atoms(holder.summary.addr, p));
                            }
                        }
                        TaintedVar::PointeesFrom(i) => {
                            for &p in obs.args.iter().skip(i) {
                                note_taint(p, index.pointee_atoms(holder.summary.addr, p));
                            }
                        }
                    }
                }
            }
            if source_refs.is_empty() {
                site_ranks.push(((sink_name.clone(), obs.sink_ins), site_rank::UNREACHED));
                if audit {
                    decisions.push(
                        Decision::new(
                            DecisionKind::SinkUnreached,
                            "detect",
                            &holder_name,
                            holder.summary.addr,
                            DecisionReason::Untainted,
                        )
                        .at_sink(obs.sink_ins, &sink_name),
                    );
                }
                continue;
            }

            // 2. Interval feasibility and per-path ranges. Infeasibility
            // comes from the path constraints alone (never from the
            // flow-insensitive definition seeds): a contradiction there
            // means no input reaches the sink with these guards taken.
            let mut ranges: Option<IntervalAnalysis> = None;
            if let Some(base) = &base_absint {
                let witness = dtaint_absint::path_feasible_witness(&df.pool, &obs.constraints);
                if witness.is_none() {
                    let mut a = base.clone();
                    a.assume_all(&obs.constraints);
                    a.solve();
                    absint_passes += u64::from(a.passes_run());
                    ranges = Some(a);
                }
                if let Some((op, l, r)) = witness {
                    infeasible_suppressed += 1;
                    site_ranks.push(((sink_name.clone(), obs.sink_ins), site_rank::INFEASIBLE));
                    if audit {
                        let constraint =
                            format!("{} {} {}", df.pool.display(l), op, df.pool.display(r));
                        decisions.push(
                            Decision::new(
                                DecisionKind::PathPruned,
                                "detect",
                                &holder_name,
                                holder.summary.addr,
                                DecisionReason::InfeasiblePath { constraint },
                            )
                            .at_sink(obs.sink_ins, &sink_name),
                        );
                    }
                    continue;
                }
            }

            // 3. Sanitisation.
            let capacity = match mode {
                BoundsMode::Paper => None,
                // Strict mode keeps its documented stack-only scope;
                // only interval mode rates named global destinations.
                BoundsMode::Strict => obs.args.first().and_then(|&d| stack_capacity(&df.pool, d)),
                BoundsMode::Interval => dest_capacity(df, bin, obs),
            };
            let verdict = match kind {
                VulnKind::BufferOverflow => match &obs.kind {
                    SinkKind::LoopCopy => loop_copy_verdict(df, obs, capacity, mode),
                    SinkKind::Import(name) => {
                        let spec = sink_spec(name).expect("checked above");
                        match (&ranges, spec.tainted) {
                            (Some(a), TaintedVar::Arg(i)) => obs
                                .args
                                .get(i)
                                .map(|&len| interval_upper_bound(&index, a, obs, len, capacity))
                                .unwrap_or_default(),
                            _ => upper_bound_verdict(&index, obs, capacity),
                        }
                    }
                },
                VulnKind::CommandInjection => separator_verdict(df, &index, obs),
            };

            let srcs: Vec<SourceRef> = source_refs.into_iter().collect();
            let unknown = "<unknown>".to_owned();
            let observed_name = fn_names.get(&holder.summary.addr).unwrap_or(&unknown).clone();
            let sink_fn_name = fn_names.get(&obs.sink_fn).unwrap_or(&unknown).clone();

            // Typed provenance chain, source-first: the backward DDG
            // walk, then the transformations that carried the
            // observation (alias rewrites, callsite substitutions), the
            // interval refinement when it ran, and the verdict last.
            let mut chain: Vec<EvidenceStep> = Vec::new();
            if let Some(e) = tainted_rendered {
                for step in dtaint_dataflow::backward_trace(df, holder.summary.addr, e, sources, 12)
                {
                    match step {
                        TraceStep::Source { name, ins_addr } => {
                            chain.push(EvidenceStep::Source { name, ins_addr });
                        }
                        TraceStep::Def { ins_addr, location, value } => {
                            chain.push(EvidenceStep::DefUse {
                                ins_addr,
                                location,
                                value,
                                function: observed_name.clone(),
                            });
                        }
                        // The finding itself records the sink; the
                        // chain ends at the verdict instead.
                        TraceStep::Sink { .. } => {}
                    }
                }
            }
            // Object-granular taint can have no single def chain; the
            // source set is still known, so lead with it.
            if !chain.iter().any(|s| matches!(s, EvidenceStep::Source { .. })) {
                let mut pre: Vec<EvidenceStep> = srcs
                    .iter()
                    .map(|s| EvidenceStep::Source { name: s.name.clone(), ins_addr: s.ins_addr })
                    .collect();
                pre.append(&mut chain);
                chain = pre;
            }
            if holder.summary.alias_rewrites > 0 {
                chain.push(EvidenceStep::AliasRewrite {
                    function: observed_name.clone(),
                    rewrites: u64::from(holder.summary.alias_rewrites),
                    rounds: u64::from(holder.summary.sse_rounds),
                    depth: u64::from(holder.summary.sse_depth),
                });
            }
            for &cs in &obs.call_chain {
                let (caller, callee) = callsites
                    .get(&cs)
                    .cloned()
                    .unwrap_or_else(|| (observed_name.clone(), sink_fn_name.clone()));
                chain.push(EvidenceStep::CallsiteSubstitution { ins_addr: cs, caller, callee });
            }
            if kind == VulnKind::BufferOverflow {
                if let (Some(a), SinkKind::Import(name)) = (&ranges, &obs.kind) {
                    let spec = sink_spec(name).expect("checked above");
                    if let TaintedVar::Arg(i) = spec.tainted {
                        if let Some(&len) = obs.args.get(i) {
                            let r = a.range_of(len);
                            chain.push(EvidenceStep::IntervalGuard {
                                expr: df.pool.display(len).to_string(),
                                lower: r.lower(),
                                upper: r.upper(),
                            });
                        }
                    }
                }
            }
            chain.push(EvidenceStep::Verdict(verdict.clone()));

            let rank = if verdict.sanitized() { site_rank::SANITIZED } else { site_rank::REPORTED };
            site_ranks.push(((sink_name.clone(), obs.sink_ins), rank));
            if audit && verdict.sanitized() {
                decisions.push(
                    Decision::new(
                        DecisionKind::SanitizeSuppressed,
                        "detect",
                        &holder_name,
                        holder.summary.addr,
                        DecisionReason::Sanitized { verdict: verdict.to_string() },
                    )
                    .at_sink(obs.sink_ins, &sink_name),
                );
            }

            let tainted_expr =
                tainted_rendered.map(|e| df.pool.display(e).to_string()).unwrap_or_default();
            let fingerprint =
                evidence::fingerprint(kind.into(), &sink_name, &sink_fn_name, &tainted_expr, &srcs);
            findings.push(Finding {
                kind: kind.into(),
                sink: sink_name,
                sink_ins: obs.sink_ins,
                sink_fn: sink_fn_name,
                observed_in: observed_name,
                sources: srcs,
                call_chain: obs.call_chain.clone(),
                tainted_expr,
                fingerprint,
                verdict,
                evidence: chain,
            });
        }
    }
    HolderJudgement {
        candidates: findings,
        suppressed: infeasible_suppressed,
        absint_passes,
        site_ranks,
        decisions,
    }
}

/// Judges bounding constraints covering the tainted data:
/// `T < c` / `T <= y` (taken), or `c > T` style checks. When `capacity`
/// is known (strict mode, stack destination), a constant bound must
/// actually fit it. Returns the first sanitising guard as its typed
/// verdict; when every covering guard is a too-large constant, the
/// first such failed guard is reported (so the finding shows *which*
/// bound was insufficient); with no covering guard at all the flow is
/// unchecked.
fn upper_bound_verdict(
    index: &TaintIndex<'_>,
    obs: &SinkObservation,
    capacity: Option<i64>,
) -> SanitizeVerdict {
    let mut failed: Option<SanitizeVerdict> = None;
    for (op, l, r) in &obs.constraints {
        let (tainted_side, bound_side) = match op {
            CmpOp::Lt | CmpOp::Le => (*l, *r),
            CmpOp::Gt | CmpOp::Ge => (*r, *l),
            _ => continue,
        };
        if index.atoms_in(tainted_side).is_empty() {
            continue;
        }
        match (capacity, index.df.pool.as_const(bound_side)) {
            (Some(cap), Some(bound)) => {
                let effective = if matches!(op, CmpOp::Le | CmpOp::Ge) { bound + 1 } else { bound };
                let v = SanitizeVerdict::ConstGuard {
                    bound,
                    capacity: Some(cap),
                    fits: effective <= cap,
                };
                if effective <= cap {
                    return v;
                }
                failed.get_or_insert(v);
            }
            // Constant bound, unknown capacity: the paper's syntactic
            // judgement accepts it.
            (None, Some(bound)) => {
                return SanitizeVerdict::ConstGuard { bound, capacity: None, fits: true };
            }
            // Symbolic bound: syntactic judgement accepts it too (the
            // interval mode is where symbolic bounds get resolved).
            (_, None) => {
                return SanitizeVerdict::SymbolicGuard {
                    expr: index.df.pool.display(bound_side).to_string(),
                    resolved_upper: None,
                    capacity,
                    fits: true,
                };
            }
        }
    }
    failed.unwrap_or(SanitizeVerdict::UncheckedFlow)
}

/// Interval-mode bound judgement for a length argument. A bounding
/// constraint must cover the tainted data (some explicit guard exists —
/// a structural range alone, like a byte load's `[0, 255]`, is not a
/// sanitiser), and the solver's range for the copied length must fit
/// the destination when its capacity is known. This is where a symbolic
/// guard `n < y` is decided: the seeded solver resolves `y` through the
/// definition pairs, so `y = 200` sanitises a 256-byte copy while
/// `y = 1024` — or an unresolvable `y` — does not.
fn interval_upper_bound(
    index: &TaintIndex<'_>,
    analysis: &IntervalAnalysis<'_>,
    obs: &SinkObservation,
    len: ExprId,
    capacity: Option<i64>,
) -> SanitizeVerdict {
    let guarded = obs.constraints.iter().any(|(op, l, r)| {
        let tainted_side = match op {
            CmpOp::Lt | CmpOp::Le => *l,
            CmpOp::Gt | CmpOp::Ge => *r,
            _ => return false,
        };
        !index.atoms_in(tainted_side).is_empty()
    });
    if !guarded {
        return SanitizeVerdict::UncheckedFlow;
    }
    let resolved_upper = analysis.range_of(len).upper();
    let fits = match (resolved_upper, capacity) {
        (Some(hi), Some(cap)) => hi <= cap,
        // Unknown capacity: a provably finite length is the best
        // obtainable judgement (matches the strict-mode fallback).
        (Some(_), None) => true,
        // Guarded, but the bound never resolves to a finite range:
        // refuse to trust the guard.
        (None, _) => false,
    };
    SanitizeVerdict::SymbolicGuard {
        expr: index.df.pool.display(len).to_string(),
        resolved_upper,
        capacity,
        fits,
    }
}

/// The destination's writable capacity: either the distance from a stack
/// buffer to the saved-return slot, or the distance from a writable
/// global to the end of its covering `Object` symbol. `None` when the
/// destination is symbolic (heap pointers, unresolved arguments).
fn dest_capacity(df: &ProgramDataflow, bin: Option<&Binary>, obs: &SinkObservation) -> Option<i64> {
    let dst = *obs.args.first()?;
    if let Some(cap) = stack_capacity(&df.pool, dst) {
        return Some(cap);
    }
    let bin = bin?;
    let (base, off) = deep_base_offset(&df.pool, dst);
    let addr = u32::try_from(df.pool.as_const(base)? + off).ok()?;
    if bin.is_immutable_addr(addr) {
        return None;
    }
    let sym = bin
        .symbols
        .iter()
        .filter(|s| s.kind == SymbolKind::Object && s.size > 0)
        .find(|s| addr >= s.addr && addr < s.addr + s.size)?;
    Some(i64::from(sym.addr + sym.size - addr))
}

/// [`ExprPool::base_offset`] applied down the whole `Add` spine:
/// `(sp0 - 0x858) + 0x400` resolves to `(sp0, -0x458)` instead of
/// stopping at the outer addition.
fn deep_base_offset(pool: &ExprPool, mut e: ExprId) -> (ExprId, i64) {
    let mut off = 0i64;
    loop {
        let (b, o) = pool.base_offset(e);
        if b == e {
            return (e, off);
        }
        off += o;
        e = b;
    }
}

/// The byte distance from a stack destination `sp0 - K` to the saved
/// return slot (`K - 8`). `None` for non-stack bases and for
/// non-negative offsets (caller-frame or unresolved pointers).
pub(crate) fn stack_capacity(pool: &ExprPool, dst: ExprId) -> Option<i64> {
    let (base, off) = pool.base_offset(dst);
    if !matches!(pool.node(base), SymNode::StackBase) || off >= 0 {
        return None;
    }
    Some((-off - 8).max(0))
}

/// Loop-copy judgement. A counted loop carries a bounding constraint
/// (`p < src + n`); a "copy until NUL" loop does not. In strict and
/// interval modes a counted loop's *trip count* — the constant distance
/// between the two compared pointers when they share a base — must
/// additionally fit the destination's capacity, so an oversized counted
/// copy is judged exactly like a weak constant `memcpy` bound.
fn loop_copy_verdict(
    df: &ProgramDataflow,
    obs: &SinkObservation,
    capacity: Option<i64>,
    mode: BoundsMode,
) -> SanitizeVerdict {
    let bounding: Vec<&(CmpOp, ExprId, ExprId)> =
        obs.constraints.iter().filter(|(op, _, _)| op.is_bounding()).collect();
    if bounding.is_empty() {
        return SanitizeVerdict::UncheckedFlow;
    }
    if mode == BoundsMode::Paper {
        return SanitizeVerdict::LoopTripCount { trips: None, capacity: None, fits: true };
    }
    let Some(cap) = capacity else {
        return SanitizeVerdict::LoopTripCount { trips: None, capacity: None, fits: true };
    };
    let trips: Vec<i64> = bounding
        .iter()
        .filter_map(|(_, l, r)| {
            let (bl, ol) = deep_base_offset(&df.pool, *l);
            let (br, orr) = deep_base_offset(&df.pool, *r);
            (bl == br).then(|| (orr - ol).abs())
        })
        .collect();
    // Symbolic loop bound (no extractable trip count): syntactic verdict.
    match trips.iter().min() {
        None => SanitizeVerdict::LoopTripCount { trips: None, capacity: Some(cap), fits: true },
        Some(&best) => SanitizeVerdict::LoopTripCount {
            trips: Some(best),
            capacity: Some(cap),
            fits: best <= cap,
        },
    }
}

/// Judges separator checks on command-injection paths: the path must
/// compare a tainted byte against one of the shell separators in
/// [`CMD_SEPARATORS`]. The verdict collects every separator character
/// actually checked.
fn separator_verdict(
    df: &ProgramDataflow,
    index: &TaintIndex<'_>,
    obs: &SinkObservation,
) -> SanitizeVerdict {
    let sep_const = |e: ExprId| df.pool.as_const(e).filter(|c| CMD_SEPARATORS.contains(c));
    let mut chars: BTreeSet<char> = BTreeSet::new();
    for (op, l, r) in &obs.constraints {
        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            continue;
        }
        let (data, sep) = if let Some(c) = sep_const(*r) {
            (*l, c)
        } else if let Some(c) = sep_const(*l) {
            (*r, c)
        } else {
            continue;
        };
        if !index.atoms_in(data).is_empty() {
            if let Ok(b) = u8::try_from(sep) {
                chars.insert(char::from(b));
            }
        }
    }
    if chars.is_empty() {
        SanitizeVerdict::UncheckedFlow
    } else {
        SanitizeVerdict::SeparatorCheck { chars: chars.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_capacity_measures_distance_to_saved_return() {
        let mut p = ExprPool::new();
        let sp = p.intern(SymNode::StackBase);
        let dst = p.add_const(sp, -264);
        assert_eq!(stack_capacity(&p, dst), Some(256));
    }

    #[test]
    fn stack_capacity_rejects_non_stack_base() {
        let mut p = ExprPool::new();
        let g = p.constant(0x30000);
        let dst = p.add_const(g, -64);
        assert_eq!(stack_capacity(&p, dst), None);
        let a = p.arg(0);
        assert_eq!(stack_capacity(&p, a), None);
    }

    #[test]
    fn stack_capacity_rejects_non_negative_offsets() {
        let mut p = ExprPool::new();
        let sp = p.intern(SymNode::StackBase);
        assert_eq!(stack_capacity(&p, sp), None, "offset 0 is the caller frame");
        let above = p.add_const(sp, 16);
        assert_eq!(stack_capacity(&p, above), None);
    }

    #[test]
    fn stack_capacity_at_saved_return_slot_is_zero() {
        let mut p = ExprPool::new();
        let sp = p.intern(SymNode::StackBase);
        let dst = p.add_const(sp, -8);
        assert_eq!(stack_capacity(&p, dst), Some(0), "writes at sp0-8 hit the return address");
        let dst4 = p.add_const(sp, -4);
        assert_eq!(stack_capacity(&p, dst4), Some(0), "clamped, never negative");
    }
}
