//! Typed finding provenance: evidence chains and sanitization verdicts.
//!
//! Every [`Finding`](crate::report::Finding) carries a chain of
//! [`EvidenceStep`]s — the replayable record of *why* the detector
//! believes the flow exists — terminated by a [`SanitizeVerdict`], the
//! typed replacement for the old `sanitized: bool`. The chain covers:
//!
//! * the source call the attacker data enters at,
//! * every DDG def-use hop the backward trace walked,
//! * alias rewrites that renamed definitions in the observing function,
//! * interprocedural argument substitutions along the call chain,
//! * the interval-guard evaluation that fed the verdict (interval mode),
//! * the final sanitization decision, with its numbers.
//!
//! This module also defines the content-addressed **fingerprint** used
//! by `dtaint diff` and the SARIF exporter: a stable hash of the
//! finding's semantic identity (kind + sink + sink function + the
//! tainted expression with raw addresses normalized out + source names)
//! that survives benign relinking, where every raw address shifts.

use crate::sinks::VulnKind;
use dtaint_symex::Fnv64;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The sanitization decision for one finding, with the evidence behind
/// it. [`SanitizeVerdict::sanitized`] collapses it back to the old
/// boolean: a sanitized finding is *not* reported as a vulnerability.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SanitizeVerdict {
    /// No sanitising guard covers the tainted data — a vulnerability.
    #[default]
    UncheckedFlow,
    /// A constant bound guards the tainted length (`n < 64`).
    ConstGuard {
        /// The guard's constant, as written (exclusive-bound adjusted
        /// semantics are folded into `fits`).
        bound: i64,
        /// Destination capacity in bytes, when the mode resolves one.
        capacity: Option<i64>,
        /// True when the bound actually fits the capacity (or no
        /// capacity is known and the syntactic judgement applies).
        fits: bool,
    },
    /// A symbolic bound guards the tainted length (`n < y`), optionally
    /// resolved to a concrete upper bound by the interval solver.
    SymbolicGuard {
        /// Rendered guarded expression (the copied length).
        expr: String,
        /// The interval solver's upper bound for the length, when it
        /// resolved one.
        resolved_upper: Option<i64>,
        /// Destination capacity in bytes, when known.
        capacity: Option<i64>,
        /// True when the resolved bound fits (or capacity is unknown
        /// and a finite bound exists).
        fits: bool,
    },
    /// A tainted byte is compared against shell separator(s) before a
    /// command sink — sanitises command injections.
    SeparatorCheck {
        /// The separator characters checked (`";|&"` …).
        chars: String,
    },
    /// A counted copy loop: the trip count is judged against the
    /// destination capacity (strict/interval modes).
    LoopTripCount {
        /// Extracted constant trip count, when the compared pointers
        /// share a base.
        trips: Option<i64>,
        /// Destination capacity in bytes, when known.
        capacity: Option<i64>,
        /// True when the trip count fits (or is symbolic/uncapacitated
        /// and the syntactic judgement applies).
        fits: bool,
    },
}

impl SanitizeVerdict {
    /// The old boolean: does this verdict sanitise the path?
    pub fn sanitized(&self) -> bool {
        match self {
            SanitizeVerdict::UncheckedFlow => false,
            SanitizeVerdict::SeparatorCheck { .. } => true,
            SanitizeVerdict::ConstGuard { fits, .. }
            | SanitizeVerdict::SymbolicGuard { fits, .. }
            | SanitizeVerdict::LoopTripCount { fits, .. } => *fits,
        }
    }
}

/// `Some(n)` as `n`, `None` as `?`.
fn opt(v: Option<i64>) -> String {
    v.map_or_else(|| "?".to_owned(), |n| n.to_string())
}

impl fmt::Display for SanitizeVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizeVerdict::UncheckedFlow => {
                f.write_str("unchecked flow (no sanitising guard covers the tainted data)")
            }
            SanitizeVerdict::ConstGuard { bound, capacity, fits } => write!(
                f,
                "constant guard {bound} vs capacity {}: {}",
                opt(*capacity),
                if *fits { "fits" } else { "overflows" }
            ),
            SanitizeVerdict::SymbolicGuard { expr, resolved_upper, capacity, fits } => write!(
                f,
                "symbolic guard on {expr} (resolved upper {}) vs capacity {}: {}",
                opt(*resolved_upper),
                opt(*capacity),
                if *fits { "fits" } else { "overflows" }
            ),
            SanitizeVerdict::SeparatorCheck { chars } => {
                write!(f, "separator check on `{chars}`")
            }
            SanitizeVerdict::LoopTripCount { trips, capacity, fits } => write!(
                f,
                "loop trip count {} vs capacity {}: {}",
                opt(*trips),
                opt(*capacity),
                if *fits { "fits" } else { "overflows" }
            ),
        }
    }
}

/// One typed step of a finding's provenance chain, rendered
/// source-first; the last step is always [`EvidenceStep::Verdict`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvidenceStep {
    /// Attacker data enters at this source call site.
    Source {
        /// Import name (`recv`, `getenv`, …).
        name: String,
        /// Call-site instruction address.
        ins_addr: u32,
    },
    /// A DDG def-use hop: a definition propagates the data.
    DefUse {
        /// Instruction address of the defining store/call.
        ins_addr: u32,
        /// Rendered location expression (`deref(arg0 + 0x4c)`).
        location: String,
        /// Rendered value expression.
        value: String,
        /// Function the definition lives in.
        function: String,
    },
    /// Alias recognition rewrote definitions in the observing function
    /// before the trace was taken (Algorithm 1).
    AliasRewrite {
        /// The function whose definitions were rewritten.
        function: String,
        /// Number of definition pairs rewritten.
        rewrites: u64,
        /// Fixpoint rounds the SSE pass ran in this function (0 when the
        /// store-based single pass produced the rewrites).
        #[serde(default)]
        rounds: u64,
        /// Deepest dereference chain connected by the rewrites.
        #[serde(default)]
        depth: u64,
    },
    /// Interprocedural argument substitution at a call site carried the
    /// observation across a function boundary (Algorithm 2).
    CallsiteSubstitution {
        /// Instruction address of the call.
        ins_addr: u32,
        /// The calling function.
        caller: String,
        /// The called function (next hop towards the sink).
        callee: String,
    },
    /// The interval solver's refined range for the judged expression
    /// (interval-guards mode only).
    IntervalGuard {
        /// Rendered judged expression (the copied length).
        expr: String,
        /// Solved lower bound, when finite.
        lower: Option<i64>,
        /// Solved upper bound, when finite.
        upper: Option<i64>,
    },
    /// The final sanitization decision.
    Verdict(SanitizeVerdict),
}

impl fmt::Display for EvidenceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvidenceStep::Source { name, ins_addr } => write!(f, "source {name}@{ins_addr:#x}"),
            EvidenceStep::DefUse { ins_addr, location, value, function } => {
                write!(f, "def @{ins_addr:#x}: {location} = {value} (in {function})")
            }
            EvidenceStep::AliasRewrite { function, rewrites, rounds, depth } => {
                if *rounds > 0 {
                    write!(
                        f,
                        "alias rewrite: {rewrites} definition pair(s) renamed in {function} \
                         (sse fixpoint: {rounds} round(s), deref depth {depth})"
                    )
                } else {
                    write!(f, "alias rewrite: {rewrites} definition pair(s) renamed in {function}")
                }
            }
            EvidenceStep::CallsiteSubstitution { ins_addr, caller, callee } => {
                write!(f, "call @{ins_addr:#x}: {caller} -> {callee} (argument substitution)")
            }
            EvidenceStep::IntervalGuard { expr, lower, upper } => {
                write!(f, "interval guard: {expr} in [{}, {}]", opt(*lower), opt(*upper))
            }
            EvidenceStep::Verdict(v) => write!(f, "verdict: {v}"),
        }
    }
}

/// Computes a finding's content-addressed fingerprint: a 64-bit FNV-1a
/// hash, rendered as 16 hex digits, over the semantic identity only.
/// Raw addresses are deliberately excluded (every `0x…` literal in the
/// tainted expression is normalized to `0xN`) so a benign relink that
/// shifts the image layout does not churn fingerprints; the verdict is
/// excluded so `dtaint diff` can report a changed verdict for the
/// *same* finding.
pub fn fingerprint(
    kind: VulnKind,
    sink: &str,
    sink_fn: &str,
    tainted_expr: &str,
    sources: &[crate::report::SourceRef],
) -> String {
    let names: BTreeSet<&str> = sources.iter().map(|s| s.name.as_str()).collect();
    let mut h = Fnv64::new();
    // Each field ends in a `0x1f` unit separator so field boundaries
    // cannot alias (`("ab","c")` never collides with `("a","bc")`).
    let mut eat = |field: &str| {
        h.write(field.as_bytes());
        h.write_u8(0x1f);
    };
    eat(match kind {
        VulnKind::BufferOverflow => "BufferOverflow",
        VulnKind::CommandInjection => "CommandInjection",
    });
    eat(sink);
    eat(sink_fn);
    eat(&normalize_addresses(tainted_expr));
    for n in names {
        eat(n);
    }
    format!("{:016x}", h.finish())
}

/// Replaces every `0x` hex literal with the placeholder `0xN` (so two
/// renderings of the same expression that differ only in raw addresses
/// — e.g. `ret_0x8124` vs `ret_0x8224` after a relink — normalize
/// identically) and every pool unknown `unk<i>` with `unkN` (the global
/// unknown numbering shifts whenever an earlier function joins or
/// leaves the analysis scope, which is equally non-semantic).
pub fn normalize_addresses(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'0' && i + 1 < bytes.len() && bytes[i + 1] == b'x' {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_hexdigit() {
                j += 1;
            }
            if j > i + 2 {
                out.push_str("0xN");
                i = j;
                continue;
            }
        }
        if bytes[i..].starts_with(b"unk") {
            let mut j = i + 3;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 3 {
                out.push_str("unkN");
                i = j;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SourceRef;

    #[test]
    fn verdict_sanitized_accessor_matches_semantics() {
        assert!(!SanitizeVerdict::UncheckedFlow.sanitized());
        assert!(SanitizeVerdict::SeparatorCheck { chars: ";".into() }.sanitized());
        assert!(
            SanitizeVerdict::ConstGuard { bound: 64, capacity: Some(256), fits: true }.sanitized()
        );
        assert!(!SanitizeVerdict::ConstGuard { bound: 1024, capacity: Some(256), fits: false }
            .sanitized());
        assert!(!SanitizeVerdict::LoopTripCount {
            trips: Some(400),
            capacity: Some(64),
            fits: false
        }
        .sanitized());
    }

    #[test]
    fn address_normalization_collapses_hex_literals() {
        assert_eq!(normalize_addresses("ret_0x8124"), "ret_0xN");
        assert_eq!(normalize_addresses("deref(arg0 + 0x4c) + 0xFF"), "deref(arg0 + 0xN) + 0xN");
        assert_eq!(normalize_addresses("no hex here"), "no hex here");
        assert_eq!(normalize_addresses("0x"), "0x", "bare prefix untouched");
        assert_eq!(normalize_addresses("deref(unk12 + 8)"), "deref(unkN + 8)");
        assert_eq!(normalize_addresses("unk"), "unk", "bare unknown prefix untouched");
    }

    #[test]
    fn fingerprint_is_stable_under_relink_but_not_under_identity_change() {
        let src = |addr| vec![SourceRef { name: "recv".into(), ins_addr: addr }];
        let a = fingerprint(VulnKind::BufferOverflow, "memcpy", "f", "ret_0x100", &src(0x100));
        // Same flow after a relink: every raw address shifted.
        let b = fingerprint(VulnKind::BufferOverflow, "memcpy", "f", "ret_0x180", &src(0x180));
        assert_eq!(a, b, "addresses must not feed the fingerprint");
        assert_eq!(a.len(), 16);
        // Changing the sink function, sink, kind, or source set churns.
        let c = fingerprint(VulnKind::BufferOverflow, "memcpy", "g", "ret_0x100", &src(0x100));
        assert_ne!(a, c);
        let d = fingerprint(VulnKind::CommandInjection, "memcpy", "f", "ret_0x100", &src(0x100));
        assert_ne!(a, d);
        let e = fingerprint(VulnKind::BufferOverflow, "strcpy", "f", "ret_0x100", &src(0x100));
        assert_ne!(a, e);
    }

    #[test]
    fn evidence_steps_render_stably() {
        let s = EvidenceStep::Source { name: "recv".into(), ins_addr: 0x100 };
        assert_eq!(s.to_string(), "source recv@0x100");
        let d = EvidenceStep::DefUse {
            ins_addr: 0x104,
            location: "r2".into(),
            value: "ret_0x100".into(),
            function: "handle".into(),
        };
        assert_eq!(d.to_string(), "def @0x104: r2 = ret_0x100 (in handle)");
        let c = EvidenceStep::CallsiteSubstitution {
            ins_addr: 0x200,
            caller: "main".into(),
            callee: "do_copy".into(),
        };
        assert_eq!(c.to_string(), "call @0x200: main -> do_copy (argument substitution)");
        let v = EvidenceStep::Verdict(SanitizeVerdict::UncheckedFlow);
        assert!(v.to_string().starts_with("verdict: unchecked flow"));
        let g = EvidenceStep::IntervalGuard { expr: "n".into(), lower: Some(0), upper: None };
        assert_eq!(g.to_string(), "interval guard: n in [0, ?]");
    }

    #[test]
    fn verdicts_serde_round_trip() {
        for v in [
            SanitizeVerdict::UncheckedFlow,
            SanitizeVerdict::ConstGuard { bound: 64, capacity: Some(256), fits: true },
            SanitizeVerdict::SymbolicGuard {
                expr: "y".into(),
                resolved_upper: Some(200),
                capacity: None,
                fits: true,
            },
            SanitizeVerdict::SeparatorCheck { chars: ";|".into() },
            SanitizeVerdict::LoopTripCount { trips: None, capacity: Some(64), fits: true },
        ] {
            let s = serde_json::to_string(&v).unwrap();
            let back: SanitizeVerdict = serde_json::from_str(&s).unwrap();
            assert_eq!(back, v, "{s}");
        }
    }
}
