//! The report readers: `explain`, `why` and `diff` over the JSON that
//! `scan --json` (or `batch`) wrote.

use crate::Args;
use dtaint_core::{AnalysisReport, Finding};
use std::collections::BTreeMap;
use std::io::Write;

/// One exemplar per fingerprint, keyed (so ordered) by fingerprint: the
/// last vulnerable finding carrying it, else the first. Findings that
/// share a fingerprint agree on their sink and sink function (both are
/// hashed into it); a fingerprint whose path set is partly sanitized
/// counts as vulnerable.
pub(crate) fn exemplars<'a>(
    findings: impl IntoIterator<Item = &'a Finding>,
) -> BTreeMap<&'a str, &'a Finding> {
    let mut m = BTreeMap::new();
    for f in findings {
        let e = m.entry(f.fingerprint.as_str()).or_insert(f);
        if !f.sanitized() {
            *e = f;
        }
    }
    m
}

/// Parses a single-report JSON file as produced by `scan --json` on one
/// binary (a whole-image scan concatenates one document per executable;
/// split those before feeding them to `explain`/`diff`).
fn load_report(path: &str) -> Result<AnalysisReport, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    AnalysisReport::from_json(data.trim())
        .map_err(|e| format!("parse {path}: {e} (expected one `scan --json` report)"))
}

pub(crate) fn explain(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let report = load_report(args.arg(0))?;
    let want = args.value("--finding");
    let mut shown = 0usize;
    for f in &report.findings {
        if want.is_some_and(|prefix| !f.fingerprint.starts_with(prefix)) {
            continue;
        }
        shown += 1;
        let status = if f.sanitized() { "sanitized" } else { "VULNERABLE" };
        emit!(
            out,
            "finding {} — {} via `{}` at {:#x} in {} [{status}]\n",
            if f.fingerprint.is_empty() { "<no fingerprint>" } else { &f.fingerprint },
            f.kind,
            f.sink,
            f.sink_ins,
            f.sink_fn
        )?;
        let sources: Vec<String> =
            f.sources.iter().map(|s| format!("{}@{:#x}", s.name, s.ins_addr)).collect();
        emit!(out, "  sources: {}\n", sources.join(", "))?;
        emit!(out, "  tainted expression: {}\n", f.tainted_expr)?;
        let chain = f.call_chain_display();
        if !chain.is_empty() {
            emit!(out, "  call chain: {chain}\n")?;
        }
        if f.evidence.is_empty() {
            emit!(out, "  (no recorded evidence — legacy report?)\n")?;
        }
        for (i, step) in f.evidence.iter().enumerate() {
            emit!(out, "  {:>2}. {step}\n", i + 1)?;
        }
        emit!(out, "\n")?;
    }
    if shown == 0 {
        return Err(match want {
            Some(prefix) => format!("explain: no finding matches fingerprint `{prefix}`"),
            None => "explain: report contains no findings".into(),
        });
    }
    Ok(0)
}

/// Parses a report file as written by `scan --json` on one binary (a
/// single object) or by `batch` for a multi-binary image (a JSON
/// array of reports).
fn load_reports(path: &str) -> Result<Vec<AnalysisReport>, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let text = data.trim();
    if text.starts_with('[') {
        serde_json::from_str(text).map_err(|e| format!("parse {path}: {e}"))
    } else {
        AnalysisReport::from_json(text).map(|r| vec![r]).map_err(|e| format!("parse {path}: {e}"))
    }
}

/// Parses `0x`-hex or decimal instruction addresses for `--sink`.
fn parse_addr(v: &str) -> Option<u32> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// `dtaint why <report.json>` — the decision narrative: every audit
/// record the scan emitted (why a path was pruned, a finding judged
/// sanitized, a duplicate folded, a budget degraded), narrowed by
/// `--sink ADDR` and/or `--fn NAME`, with the sink-coverage context.
pub(crate) fn why(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let path = args.arg(0);
    let sink = args
        .value("--sink")
        .map(|v| parse_addr(v).ok_or_else(|| format!("why: --sink expects an address, got `{v}`")))
        .transpose()?;
    let func = args.value("--fn");
    let reports = load_reports(path)?;
    if reports.iter().all(|r| r.decisions.is_empty()) {
        return Err(
            "why: report carries no audit decisions — re-scan with `scan --json --audit-out FILE` \
             (or `batch --audit-dir DIR`) to record them"
                .into(),
        );
    }
    let mut shown = 0usize;
    for r in &reports {
        let picked: Vec<_> = r
            .decisions
            .iter()
            .filter(|d| {
                sink.is_none_or(|a| d.site == Some(a)) && func.is_none_or(|f| d.function == f)
            })
            .collect();
        emit!(
            out,
            "== {}: {} of {} decision(s)\n",
            r.binary_name,
            picked.len(),
            r.decisions.len()
        )?;
        for (i, d) in picked.iter().enumerate() {
            emit!(out, "  {:>2}. {}\n", i + 1, d.render())?;
        }
        shown += picked.len();
        // The coverage context: how the sink population fared overall.
        if !r.sink_coverage.is_empty() {
            let t = r.sink_coverage.totals();
            emit!(
                out,
                "  coverage: {} sink site(s) — {} reported, {} sanitized, {} unreached\n",
                t.sites,
                t.reported,
                t.sanitized,
                t.unreached,
            )?;
        }
    }
    if shown == 0 {
        let mut wanted = Vec::new();
        if let Some(a) = sink {
            wanted.push(format!("sink {a:#x}"));
        }
        if let Some(f) = func {
            wanted.push(format!("fn `{f}`"));
        }
        return Err(format!("why: no decision matches {}", wanted.join(" and ")));
    }
    emit!(out, "hint: `dtaint explain {path}` renders the reported findings' evidence chains\n")?;
    Ok(0)
}

pub(crate) fn diff(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let (base_path, cur_path) = (args.arg(0), args.arg(1));
    if base_path == cur_path {
        emit!(out, "note: baseline and current are the same file\n")?;
    }
    let base = load_report(base_path)?;
    let cur = load_report(cur_path)?;

    let before = exemplars(&base.findings);
    let after = exemplars(&cur.findings);

    emit!(
        out,
        "baseline {}: {} finding(s); current {}: {} finding(s)\n",
        base.binary_name,
        base.findings.len(),
        cur.binary_name,
        cur.findings.len()
    )?;

    // Fast path: identical fingerprint sets with identical verdicts
    // need no section-by-section walk — the common case when diffing a
    // re-scan of an unchanged image (e.g. out of the batch cache).
    if before.len() == after.len()
        && before.iter().all(|(fp, f)| after.get(fp).is_some_and(|g| g.verdict == f.verdict))
    {
        emit!(
            out,
            "no finding differences: {} fingerprint(s) match with identical verdicts\n",
            after.len()
        )?;
        write_counter_deltas(&base, &cur, out)?;
        emit!(out, "no regressions\n")?;
        return Ok(0);
    }

    let mut regressions = 0usize;
    let mut new_lines = Vec::new();
    let mut fixed_lines = Vec::new();
    let mut changed_lines = Vec::new();
    for (fp, f) in &after {
        match before.get(fp) {
            None => {
                if !f.sanitized() {
                    regressions += 1;
                }
                new_lines.push(format!("  + {fp} {f}\n"));
            }
            Some(old) if old.verdict != f.verdict => {
                if old.sanitized() && !f.sanitized() {
                    regressions += 1;
                }
                changed_lines.push(format!("  ~ {fp} {} => {}\n", old.verdict, f.verdict));
            }
            Some(_) => {}
        }
    }
    for (fp, f) in &before {
        if !after.contains_key(fp) {
            fixed_lines.push(format!("  - {fp} {f}\n"));
        }
    }
    for (title, lines) in [
        ("new finding(s):", &new_lines),
        ("fixed finding(s):", &fixed_lines),
        ("changed verdict(s):", &changed_lines),
    ] {
        if !lines.is_empty() {
            emit!(out, "{title}\n")?;
            for l in lines {
                emit!(out, "{}", l)?;
            }
        }
    }
    write_counter_deltas(&base, &cur, out)?;

    if regressions > 0 {
        emit!(out, "{regressions} regression(s): new or re-opened vulnerable finding(s)\n")?;
        Ok(2)
    } else {
        emit!(out, "no regressions\n")?;
        Ok(0)
    }
}

/// Telemetry counter deltas (the counters are deterministic, so a
/// non-zero delta means the analysis itself changed shape).
fn write_counter_deltas(
    base: &AnalysisReport,
    cur: &AnalysisReport,
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut names: std::collections::BTreeSet<&String> =
        base.telemetry.metrics.counters.keys().collect();
    names.extend(cur.telemetry.metrics.counters.keys());
    let mut delta_lines = Vec::new();
    for name in names {
        let b = base.telemetry.metrics.counters.get(name).copied().unwrap_or(0);
        let c = cur.telemetry.metrics.counters.get(name).copied().unwrap_or(0);
        if b != c {
            delta_lines.push(format!("  {name}: {b} -> {c} ({:+})\n", c as i64 - b as i64));
        }
    }
    if !delta_lines.is_empty() {
        emit!(out, "counter delta(s):\n")?;
        for l in delta_lines {
            emit!(out, "{}", l)?;
        }
    }
    Ok(())
}
