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
//! judged too; the pipeline's DDG drops contradictory paths before they
//! reach the detector).

use crate::evidence::{self, EvidenceStep, SanitizeVerdict};
use crate::report::{Finding, SourceRef};
use crate::sinks::{sink_spec, TaintedVar, VulnKind, CMD_SEPARATORS};
use dtaint_absint::IntervalAnalysis;
use dtaint_dataflow::{
    DataflowView, FinalSummary, ProgramDataflow, SinkKind, SinkObservation, TraceStep,
};
use dtaint_fwbin::{Binary, SymbolKind};
use dtaint_symex::pool::{CmpOp, Kinds, SymNode};
use dtaint_symex::{ExprId, ExprPool};
use dtaint_telemetry::{Decision, DecisionKind, DecisionReason};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use dtaint_dataflow::BoundsMode;

/// The complete result of one taint-judgement pass.
#[derive(Debug, Clone, Default)]
pub struct TaintOutcome {
    /// Every judged `(source, path, sink)` tuple, minus cross-holder
    /// duplicates.
    pub findings: Vec<Finding>,
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
    /// One verdict per judged sink observation, in holder address order
    /// and then observation order. The sink-coverage report and the
    /// audit log's detect-stage decisions are built from it.
    pub verdicts: Vec<SiteVerdict>,
}

/// The detector's verdict on one sink observation: a small record that
/// allocates nothing in the common unreached case.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteVerdict {
    /// The observing function's entry address.
    pub holder: u32,
    /// The sink's name: its import name, or `loop-copy`.
    pub sink: &'static str,
    /// Instruction address of the sink.
    pub sink_ins: u32,
    /// What the judgement found.
    pub judged: Judged,
    /// The finding's fingerprint when an earlier holder already
    /// reported the same flow and this one was folded away.
    pub folded: Option<Box<str>>,
}

/// What the detector concluded about one sink observation, from least
/// to most severe.
#[derive(Debug, Clone, PartialEq)]
pub enum Judged {
    /// The sink's sensitive variable carried no taint.
    Unreached,
    /// Tainted, but a sanitising guard covers the data (boxed: most
    /// observations are unreached, and each verdict record stays small).
    Sanitized(Box<SanitizeVerdict>),
    /// Tainted and unguarded: a vulnerable finding.
    Vulnerable,
}

impl Judged {
    /// Severity rank: 0 unreached, 1 sanitized, 2 reported.
    pub fn rank(&self) -> u8 {
        match self {
            Judged::Unreached => 0,
            Judged::Sanitized(_) => 1,
            Judged::Vulnerable => 2,
        }
    }
}

/// Object-granular taint knowledge for one observing function.
struct TaintIndex<'a> {
    df: DataflowView<'a>,
    holder: &'a FinalSummary,
    sources: &'a HashSet<String>,
    /// Buffer base → sources whose data was stored into the buffer.
    tainted_bases: HashMap<ExprId, BTreeSet<SourceRef>>,
}

impl<'a> TaintIndex<'a> {
    fn build(df: DataflowView<'a>, holder: &'a FinalSummary, sources: &'a HashSet<String>) -> Self {
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
        TaintIndex { df, holder, sources, tainted_bases }
    }

    /// All source references carried by an expression (value taint plus
    /// object taint through memory reads).
    fn atoms_in(&self, e: ExprId) -> BTreeSet<SourceRef> {
        let mut out = BTreeSet::new();
        direct_atoms(self.df, self.sources, e, &mut out);
        // Object taint: any deref whose base was filled with source data.
        self.df.pool.any_node(e, Kinds::DEREF, &mut |n| {
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
    /// the pointer designates, resolved through the holder's definition
    /// pairs.
    fn pointee_atoms(&self, ptr: ExprId) -> BTreeSet<SourceRef> {
        let mut out = BTreeSet::new();
        // The pointer value itself may be a source (getenv's return).
        out.extend(self.atoms_in(ptr));
        // Values the pointer resolves to, plus what memory holds there.
        let mut vals = vec![ptr];
        for v in self.holder.pointee_values(self.df.pool, ptr) {
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
    df: DataflowView<'_>,
    sources: &HashSet<String>,
    e: ExprId,
    out: &mut BTreeSet<SourceRef>,
) {
    df.pool.any_node(e, Kinds::RET_SYM | Kinds::CALL_OUT, &mut |n| {
        let cs = match n {
            SymNode::RetSym(cs) => Some(cs),
            SymNode::CallOut { callsite, .. } => Some(callsite),
            _ => None,
        };
        if let Some(cs) = cs {
            if let Some(name) = df.callgraph.import_at(cs) {
                if sources.contains(name) {
                    out.insert(SourceRef { name: name.to_owned(), ins_addr: cs });
                }
            }
        }
        false // keep walking
    });
}

/// The detector's settings: everything a holder's judgement reads
/// besides the data-flow view and the holder itself.
#[derive(Debug)]
pub struct Detector<'a> {
    /// The binary, for global-destination capacities in interval mode.
    pub bin: Option<&'a Binary>,
    /// Import names treated as attacker-controlled sources.
    pub sources: &'a HashSet<String>,
    /// Function names, one slot per slot of the judged data flow's call
    /// graph ([`dtaint_cfg::FnIx`]), for the findings' function fields
    /// (`<unknown>` for a function without one).
    pub fn_names: &'a [Option<&'a str>],
    /// How bounding guards are judged.
    pub mode: BoundsMode,
}

/// One holder's [`Judgement`]s and interval-solver passes, waiting for
/// [`fold`]; `None` when the judgement panicked.
#[derive(Debug)]
pub struct HolderJudgement {
    /// The observing function's entry address.
    pub holder: u32,
    judged: Option<(Vec<Judgement>, u64)>,
}

/// One judged observation: its verdict, and the finding its tainted flow
/// was judged into (sanitised or not), or `None` when no taint reached
/// the sink.
type Judgement = (SiteVerdict, Option<Box<Finding>>);

/// The full judgement over a data-flow result that kept every final
/// summary ([`dtaint_dataflow::build_dataflow`]): each holder judged in
/// address order, then [`fold`]ed.
///
/// In [`BoundsMode::Interval`] every holder function gets one
/// [`IntervalAnalysis`] seeded from its definition pairs; each tainted
/// observation clones it, assumes the observation's path constraints,
/// and solves. An otherwise-guarded copy is sanitised only when the
/// solved range of the length fits the destination capacity. Interval
/// mode expects a data-flow result built with
/// [`BoundsMode::Interval`], which drops the observations whose path
/// constraints contradict.
pub fn detect_full<S: AsRef<str>>(
    df: &ProgramDataflow,
    bin: Option<&Binary>,
    sources: &HashSet<String>,
    fn_names: &HashMap<u32, S>,
    mode: BoundsMode,
) -> TaintOutcome {
    let graph = df.callgraph;
    let names: Vec<Option<&str>> =
        graph.slots().map(|f| fn_names.get(&graph.entry(f)).map(AsRef::as_ref)).collect();
    let detector = Detector { bin, sources, fn_names: &names, mode };
    let judged = df.finals.values().map(|f| detector.judge(df.view(), f));
    fold(judged, |ins| {
        df.callgraph.callsite_names(ins, |a| df.finals.get(&a).map(|f| f.summary.name.as_str()))
    })
}

/// Folds holder judgements, given in holder address order, into one
/// outcome. A finding whose sink instruction, call chain, source set and
/// sink name an earlier (lower-addressed) holder already reported is
/// folded away: its verdict keeps the fingerprint and it counts as a
/// duplicate. The surviving findings' callsite-substitution steps are
/// named by `callsite_names` (caller and callee of a call instruction),
/// falling back to the finding's observing and sink functions.
pub fn fold(
    judged: impl IntoIterator<Item = HolderJudgement>,
    callsite_names: impl Fn(u32) -> Option<(String, String)>,
) -> TaintOutcome {
    let mut out = TaintOutcome::default();
    let mut seen: HashSet<(u32, Vec<u32>, Vec<SourceRef>, String)> = HashSet::new();
    for HolderJudgement { holder, judged } in judged {
        let Some((judgements, passes)) = judged else {
            out.failed_holders.push(holder);
            continue;
        };
        out.absint_passes += passes;
        for (mut verdict, finding) in judgements {
            if let Some(f) = finding {
                let key = (f.sink_ins, f.call_chain.clone(), f.sources.clone(), f.sink.clone());
                if seen.insert(key) {
                    out.findings.push(*f);
                } else {
                    verdict.folded = Some(f.fingerprint.into_boxed_str());
                }
            }
            out.verdicts.push(verdict);
        }
    }
    out.duplicates_suppressed = out.verdicts.iter().filter(|v| v.folded.is_some()).count();
    for f in &mut out.findings {
        let Finding { evidence, observed_in, sink_fn, .. } = f;
        for step in evidence {
            if let EvidenceStep::CallsiteSubstitution { ins_addr, caller, callee } = step {
                (*caller, *callee) = callsite_names(*ins_addr)
                    .unwrap_or_else(|| (observed_in.clone(), sink_fn.clone()));
            }
        }
    }
    crate::report::sort_findings(&mut out.findings);
    out
}

/// The detect stage's audit decisions, in the log's order: one per
/// unreached or sanitised verdict (holder address order, then
/// observation order), then one per duplicate the fold suppressed.
/// Vulnerable verdicts are findings, not decisions.
pub(crate) fn detect_decisions<'n>(
    verdicts: &[SiteVerdict],
    holder_name: impl Fn(u32) -> &'n str,
) -> Vec<Decision> {
    let mut log = Vec::new();
    for v in verdicts {
        let (kind, reason) = match &v.judged {
            Judged::Unreached => (DecisionKind::SinkUnreached, DecisionReason::Untainted),
            Judged::Sanitized(verdict) => (
                DecisionKind::SanitizeSuppressed,
                DecisionReason::Sanitized { verdict: verdict.to_string() },
            ),
            Judged::Vulnerable => continue,
        };
        log.push(
            Decision::new(kind, "detect", holder_name(v.holder), v.holder, reason)
                .at_sink(v.sink_ins, v.sink),
        );
    }
    for v in verdicts {
        let Some(fingerprint) = &v.folded else { continue };
        let reason = DecisionReason::Duplicate { fingerprint: fingerprint.to_string() };
        log.push(
            Decision::new(
                DecisionKind::DuplicateSuppressed,
                "detect",
                holder_name(v.holder),
                v.holder,
                reason,
            )
            .at_sink(v.sink_ins, v.sink),
        );
    }
    log
}

impl Detector<'_> {
    /// Judges every sink observation of one observing function, in
    /// order, behind a panic boundary: the judgement only reads the pool
    /// and the holder, so a caught panic loses that holder's verdicts and
    /// nothing else.
    pub fn judge(&self, df: DataflowView<'_>, holder: &FinalSummary) -> HolderJudgement {
        let judged = catch_unwind(AssertUnwindSafe(|| judge_holder(self, df, holder))).ok();
        HolderJudgement { holder: holder.summary.addr, judged }
    }
}

/// The judgement behind [`Detector::judge`]. Observations of a sink
/// without a [`sink_spec`] get no verdict; callsite-substitution
/// evidence is left unnamed for [`fold`].
fn judge_holder(
    detector: &Detector<'_>,
    df: DataflowView<'_>,
    holder: &FinalSummary,
) -> (Vec<Judgement>, u64) {
    let Detector { bin, sources, fn_names, mode } = *detector;
    let addr = holder.summary.addr;
    let name = |a: u32| df.callgraph.ix(a).and_then(|f| fn_names[f.index()]);
    let name_of = |a: u32| name(a).unwrap_or("<unknown>").to_owned();
    let mut judgements = Vec::with_capacity(holder.sinks.len());
    let mut absint_passes = 0u64;
    // One object-taint index per observing function, shared by all
    // of its sink observations.
    let index = TaintIndex::build(df, holder, sources);
    // Interval mode: one definition-seeded base environment per
    // holder, cloned and specialised per observation below.
    let base_absint = (mode == BoundsMode::Interval).then(|| {
        let mut a = IntervalAnalysis::new(df.pool);
        for dp in &holder.summary.def_pairs {
            a.seed_def(dp.d, dp.u);
        }
        a
    });
    for obs in &holder.sinks {
        let (kind, sink): (VulnKind, &'static str) = match &obs.kind {
            SinkKind::Import(name) => {
                let Some(spec) = sink_spec(name) else { continue };
                (spec.kind, spec.name)
            }
            SinkKind::LoopCopy => (VulnKind::BufferOverflow, "loop-copy"),
        };
        let mut site = SiteVerdict {
            holder: addr,
            sink,
            sink_ins: obs.sink_ins,
            judged: Judged::Unreached,
            folded: None,
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
                            note_taint(p, index.pointee_atoms(p));
                        }
                    }
                    TaintedVar::PointeesFrom(i) => {
                        for &p in obs.args.iter().skip(i) {
                            note_taint(p, index.pointee_atoms(p));
                        }
                    }
                }
            }
        }
        if source_refs.is_empty() {
            judgements.push((site, None));
            continue;
        }

        // 2. Interval mode: the observation's per-path ranges. The DDG,
        // built in the same mode, already dropped every observation
        // whose path constraints contradict.
        let ranges = base_absint.as_ref().map(|base| {
            let mut a = base.clone();
            a.assume_all(&obs.constraints);
            a.solve();
            absint_passes += u64::from(a.passes_run());
            a
        });

        // 3. Sanitisation.
        let capacity = match mode {
            BoundsMode::Paper => None,
            // Strict mode keeps its documented stack-only scope;
            // only interval mode rates named global destinations.
            BoundsMode::Strict => obs.args.first().and_then(|&d| stack_capacity(df.pool, d)),
            BoundsMode::Interval => dest_capacity(df.pool, bin, obs),
        };
        let verdict = match kind {
            VulnKind::BufferOverflow => match &obs.kind {
                SinkKind::LoopCopy => loop_copy_verdict(df.pool, obs, capacity, mode),
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
            VulnKind::CommandInjection => separator_verdict(df.pool, &index, obs),
        };

        let srcs: Vec<SourceRef> = source_refs.into_iter().collect();
        let observed_name = name_of(addr);
        let sink_fn_name = name_of(obs.sink_fn);

        // Typed provenance chain, source-first: the backward DDG
        // walk, then the transformations that carried the
        // observation (alias rewrites, callsite substitutions), the
        // interval refinement when it ran, and the verdict last.
        let mut chain: Vec<EvidenceStep> = Vec::new();
        if let Some(e) = tainted_rendered {
            for step in dtaint_dataflow::backward_trace(df, holder, e, sources, 12) {
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
            chain.push(EvidenceStep::CallsiteSubstitution {
                ins_addr: cs,
                caller: String::new(),
                callee: String::new(),
            });
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

        site.judged = if verdict.sanitized() {
            Judged::Sanitized(Box::new(verdict.clone()))
        } else {
            Judged::Vulnerable
        };
        let tainted_expr =
            tainted_rendered.map(|e| df.pool.display(e).to_string()).unwrap_or_default();
        let fingerprint =
            evidence::fingerprint(kind.into(), sink, &sink_fn_name, &tainted_expr, &srcs);
        let finding = Finding {
            kind: kind.into(),
            sink: sink.to_owned(),
            sink_ins: obs.sink_ins,
            sink_fn: sink_fn_name,
            observed_in: observed_name,
            sources: srcs,
            call_chain: obs.call_chain.clone(),
            tainted_expr,
            fingerprint,
            verdict,
            evidence: chain,
        };
        judgements.push((site, Some(Box::new(finding))));
    }
    (judgements, absint_passes)
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
fn dest_capacity(pool: &ExprPool, bin: Option<&Binary>, obs: &SinkObservation) -> Option<i64> {
    let dst = *obs.args.first()?;
    if let Some(cap) = stack_capacity(pool, dst) {
        return Some(cap);
    }
    let bin = bin?;
    let (base, off) = deep_base_offset(pool, dst);
    let addr = u32::try_from(pool.as_const(base)? + off).ok()?;
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
    pool: &ExprPool,
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
            let (bl, ol) = deep_base_offset(pool, *l);
            let (br, orr) = deep_base_offset(pool, *r);
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
    pool: &ExprPool,
    index: &TaintIndex<'_>,
    obs: &SinkObservation,
) -> SanitizeVerdict {
    let sep_const = |e: ExprId| pool.as_const(e).filter(|c| CMD_SEPARATORS.contains(c));
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

    /// Two holders report the same flow: same sink instruction, call
    /// chain, sources and sink name. The fold keeps the lower holder's
    /// finding and names its callsite step, and the higher holder's
    /// duplicate decision is rendered after every verdict decision.
    #[test]
    fn fold_keeps_the_lowest_holder_and_renders_the_duplicate_last() {
        let finding = |observed: &str| Finding {
            kind: VulnKind::BufferOverflow.into(),
            sink: "memcpy".into(),
            sink_ins: 0x1000,
            sink_fn: "copy".into(),
            observed_in: observed.into(),
            sources: vec![SourceRef { name: "recv".into(), ins_addr: 0x2000 }],
            call_chain: vec![0x3000],
            tainted_expr: "ret_0x2000".into(),
            fingerprint: "fp".into(),
            verdict: SanitizeVerdict::UncheckedFlow,
            evidence: vec![EvidenceStep::CallsiteSubstitution {
                ins_addr: 0x3000,
                caller: String::new(),
                callee: String::new(),
            }],
        };
        let verdict = |holder, judged| SiteVerdict {
            holder,
            sink: "memcpy",
            sink_ins: 0x1000,
            judged,
            folded: None,
        };
        let holder = |addr: u32, observed: &str| HolderJudgement {
            holder: addr,
            judged: Some((
                vec![
                    (verdict(addr, Judged::Unreached), None),
                    (verdict(addr, Judged::Vulnerable), Some(Box::new(finding(observed)))),
                ],
                0,
            )),
        };
        let out = fold([holder(0x100, "low"), holder(0x200, "high")], |ins| {
            (ins == 0x3000).then(|| ("caller".to_owned(), "callee".to_owned()))
        });

        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].observed_in, "low", "the lowest holder address wins");
        assert_eq!(
            out.findings[0].evidence,
            [EvidenceStep::CallsiteSubstitution {
                ins_addr: 0x3000,
                caller: "caller".into(),
                callee: "callee".into(),
            }]
        );
        assert_eq!(out.duplicates_suppressed, 1);
        let folded: Vec<(u32, Option<&str>)> =
            out.verdicts.iter().map(|v| (v.holder, v.folded.as_deref())).collect();
        assert_eq!(folded, [(0x100, None), (0x100, None), (0x200, None), (0x200, Some("fp"))]);

        let log = detect_decisions(&out.verdicts, |a| if a == 0x100 { "low" } else { "high" });
        let kinds: Vec<DecisionKind> = log.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            [
                DecisionKind::SinkUnreached,
                DecisionKind::SinkUnreached,
                DecisionKind::DuplicateSuppressed
            ]
        );
        let dup = &log[2];
        assert_eq!((dup.function.as_str(), dup.function_addr), ("high", 0x200));
        assert_eq!((dup.site, dup.sink.as_deref()), (Some(0x1000), Some("memcpy")));
        assert_eq!(dup.reason, DecisionReason::Duplicate { fingerprint: "fp".into() });
    }

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
