//! The `dtaint` command-line front end.
//!
//! Subcommands:
//!
//! * `scan <image|binary>` — run the full pipeline, print findings
//!   (`--json` for machine-readable reports, `--sarif-out FILE` for a
//!   SARIF 2.1.0 document, `--filter p1,p2` to analyze matching
//!   functions only, `--validate` to confirm findings in the concrete
//!   emulator),
//! * `explain <report.json>` — render each finding's typed evidence
//!   chain as an indented narrative (`--finding PREFIX` to select one),
//! * `why <report.json>` — render the audit decisions recorded by
//!   `scan --audit-out` embedded in the report: why paths were pruned,
//!   findings sanitized or deduplicated, budgets degraded (`--sink
//!   ADDR` / `--fn NAME` to narrow), plus the sink-coverage context,
//! * `diff <baseline.json> <current.json>` — compare two scans by
//!   content-addressed fingerprint: new/fixed/changed-verdict findings
//!   plus metrics-counter deltas; exits 2 when regressions appeared,
//! * `batch <dir>` — scan every `.fwi` image in a directory (images
//!   distributed over `--jobs` worker threads, each scan using the
//!   incremental summary cache persisted in the store), write one
//!   report per image plus `corpus.json`, and track finding lifecycles
//!   in the store's database; exits 2 on new/re-opened vulnerable
//!   findings in non-baseline images, 4 when an image failed to scan or
//!   overran `--deadline-secs`. All store artifacts are written
//!   atomically, progress is journaled per image, and `--resume`
//!   continues a killed run without re-scanning completed images.
//!   While running, a TTY status line and an atomically-rewritten
//!   heartbeat (`status.json`, plus `--status-out FILE`) expose live
//!   progress; at completion the corpus-wide metrics rollup lands in
//!   `corpus.json` (exportable via `--metrics-out`, `--prom-out`,
//!   `--trace-chrome`) and one `RunSummary` line is appended to the
//!   store's `runs.jsonl`,
//! * `status <store>` — inspect a live or interrupted batch from its
//!   heartbeat and journal: progress, per-worker stragglers, committed
//!   and timed-out images,
//! * `history <store>` — the trend table across recorded batch runs,
//! * `unpack <image> [--out dir]` — extract the root filesystem,
//! * `info <image|binary>` — metadata, sections, symbols, signatures,
//! * `disasm <binary> [function]` — objdump-style listing,
//! * `gen <1..6> --out <path>` — generate one of the Table II firmware
//!   profiles (with its ground-truth manifest alongside),
//! * `corpus [--n N] [--seed S]` — the Figure 1 triage on a generated
//!   corpus,
//! * `defs <binary> <function>` — the Figure 6 view: symbolic call
//!   sites, definition pairs and constraints of one function,
//! * `validate <binary> [entry]` — dynamic attack probes only.
//!
//! The command logic lives in [`run`] (writes to any `io::Write`), so
//! every subcommand is unit-testable; `main.rs` is a thin wrapper.

use dtaint_core::{
    AliasMode, AnalysisReport, BoundsMode, CacheFormat, CacheRef, CacheSnapshot, Dtaint,
    DtaintConfig, Finding, SummaryCache,
};
use dtaint_emu::{poison_all_rodata_names, validate as emu_validate, AttackConfig, Verdict};
use dtaint_fwbin::{disasm, Binary};
use dtaint_fwimage::{
    extract_binaries, extract_image, generate_corpus, scan, triage, CorpusConfig, FwImage,
};
use dtaint_telemetry::{
    export_chrome, export_jsonl, export_prometheus, log, Collector, FleetProgress, Heartbeat,
    ImageCacheStats, ImageOutcome, MetricsRegistry, SpanEvent,
};
use std::io::Write;

/// Usage text printed on bad invocations.
pub const USAGE: &str = "\
usage: dtaint [--quiet|-v] <command> [args]

commands:
  scan <image|binary> [--json|--md] [--filter p1,p2] [--threads N] [--interval-guards] [--validate]
                      [--alias store|sse] [--keep-going|--fail-fast] [--profile] [--sarif-out FILE]
                      [--trace-out FILE] [--trace-chrome FILE] [--metrics-out FILE]
                      [--audit-out FILE]
  explain <report.json> [--finding PREFIX]
  why <report.json> [--sink ADDR] [--fn NAME]
  diff <baseline.json> <current.json>
  batch <dir> [--store DIR] [--out DIR] [--jobs N] [--threads N] [--alias store|sse] [--no-cache]
              [--resume] [--deadline-secs N] [--status-out FILE] [--metrics-out FILE]
              [--prom-out FILE] [--trace-chrome FILE] [--audit-dir DIR]
  status <store>
  history <store>
  unpack <image> [--out DIR]
  info <image|binary>
  disasm <binary> [FUNCTION]
  gen <1..6> --out PATH [--corrupt garbage-fn|dangling-symbol|overlapping-symbols]
  corpus [--n N] [--seed S]
  defs <binary> FUNCTION
  validate <binary> [ENTRY]

global flags:
  --quiet   only errors on stderr
  -v        debug chatter on stderr
";

/// Executes one CLI invocation, writing human output to `out`.
///
/// Returns the process exit code.
///
/// # Errors
///
/// Returns a message for usage errors and failed operations; `main`
/// prints it to stderr and exits non-zero.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    // Verbosity flags may appear anywhere; they are consumed here so
    // subcommands never see them.
    let quiet = args.iter().any(|a| a == "--quiet");
    let verbose = args.iter().any(|a| a == "-v");
    if quiet && verbose {
        return Err("--quiet and -v are mutually exclusive".into());
    }
    log::set_verbosity(if quiet {
        log::Level::Error
    } else if verbose {
        log::Level::Debug
    } else {
        log::Level::Info
    });
    let args: Vec<String> =
        args.iter().filter(|a| *a != "--quiet" && *a != "-v").cloned().collect();
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| USAGE.to_owned())?;
    let rest: Vec<String> = it.cloned().collect();
    if let Some(last) = rest.last().filter(|a| VALUE_FLAGS.contains(&a.as_str())) {
        return Err(format!("{cmd}: {last} expects a value\n{USAGE}"));
    }
    match cmd.as_str() {
        "scan" => cmd_scan(&rest, out),
        "explain" => cmd_explain(&rest, out),
        "why" => cmd_why(&rest, out),
        "diff" => cmd_diff(&rest, out),
        "batch" => cmd_batch(&rest, out),
        "status" => cmd_status(&rest, out),
        "history" => cmd_history(&rest, out),
        "unpack" => cmd_unpack(&rest, out),
        "info" => cmd_info(&rest, out),
        "disasm" => cmd_disasm(&rest, out),
        "gen" => cmd_gen(&rest, out),
        "corpus" => cmd_corpus(&rest, out),
        "defs" => cmd_defs(&rest, out),
        "validate" => cmd_validate(&rest, out),
        "help" | "--help" | "-h" => {
            write_out(out, USAGE)?;
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn write_out(out: &mut dyn Write, s: &str) -> Result<(), String> {
    out.write_all(s.as_bytes()).map_err(|e| format!("write failed: {e}"))
}

fn flag_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1)).map(String::as_str)
}

/// Parses the value of the numeric flag `name` of command `cmd`,
/// `default` when the flag is absent.
fn flag_number<T: std::str::FromStr>(
    rest: &[String],
    cmd: &str,
    name: &str,
    default: T,
) -> Result<T, String> {
    flag_value(rest, name)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("{cmd}: {name} expects a number")))
}

fn has_flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

/// Parses `--alias store|sse`; `None` keeps the built-in default.
fn parse_alias_mode(rest: &[String], cmd: &str) -> Result<Option<AliasMode>, String> {
    match flag_value(rest, "--alias") {
        Some(v) => v.parse().map(Some).map_err(|e| format!("{cmd}: {e}")),
        None => Ok(None),
    }
}

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--filter",
    "--n",
    "--seed",
    "--threads",
    "--corrupt",
    "--trace-out",
    "--trace-chrome",
    "--metrics-out",
    "--sarif-out",
    "--finding",
    "--store",
    "--jobs",
    "--alias",
    "--deadline-secs",
    "--status-out",
    "--prom-out",
    "--drill-io",
    "--drill-stall",
    "--audit-out",
    "--audit-dir",
    "--sink",
    "--fn",
];

/// The non-flag arguments, skipping each value flag's value.
fn positional(rest: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            if VALUE_FLAGS.contains(&a.as_str()) {
                args.next();
            }
            continue;
        }
        out.push(a);
    }
    out
}

/// Loads the argument as binaries: a raw FBF file or every executable of
/// an FWI image.
fn load_binaries(path: &str) -> Result<Vec<(String, Binary)>, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    if data.starts_with(&dtaint_fwbin::fbf::FBF_MAGIC) {
        let bin = Binary::from_bytes(&data).map_err(|e| format!("parse {path}: {e}"))?;
        return Ok(vec![(path.to_owned(), bin)]);
    }
    let img = extract_image(&data).map_err(|e| format!("unpack {path}: {e}"))?;
    let bins = extract_binaries(&img).map_err(|e| e.to_string())?;
    if bins.is_empty() {
        return Err(format!("{path}: image contains no executables"));
    }
    Ok(bins)
}

fn cmd_scan(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("scan: missing input path")?;
    let filter =
        flag_value(rest, "--filter").map(|f| f.split(',').map(str::to_owned).collect::<Vec<_>>());
    let threads = flag_number(rest, "scan", "--threads", 0)?;
    let bounds =
        if has_flag(rest, "--interval-guards") { BoundsMode::Interval } else { BoundsMode::Paper };
    let alias_mode = parse_alias_mode(rest, "scan")?;
    let fail_fast = has_flag(rest, "--fail-fast");
    if fail_fast && has_flag(rest, "--keep-going") {
        return Err("scan: --keep-going and --fail-fast are mutually exclusive".into());
    }
    let trace_out = flag_value(rest, "--trace-out");
    let trace_chrome = flag_value(rest, "--trace-chrome");
    let metrics_out = flag_value(rest, "--metrics-out");
    let sarif_out = flag_value(rest, "--sarif-out");
    let audit_out = flag_value(rest, "--audit-out");
    let profile = has_flag(rest, "--profile");
    let mut config = DtaintConfig {
        function_filter: filter,
        threads,
        bounds,
        fail_fast,
        audit: audit_out.is_some(),
        ..Default::default()
    };
    if let Some(mode) = alias_mode {
        config.dataflow.alias.mode = mode;
    }
    let analyzer = Dtaint::with_config(config);

    // One collector for the whole invocation: spans from every binary
    // in the image share the clock epoch, and the registry accumulates.
    // The stage spans are always recorded (they are the scan's clock);
    // per-function spans only when something will consume them.
    let want_spans = profile || trace_out.is_some() || trace_chrome.is_some();
    let mut tel = if want_spans { Collector::enabled() } else { Collector::disabled() };

    let mut any_vuln = false;
    let mut any_partial = false;
    let mut sarif_reports: Vec<AnalysisReport> = Vec::new();
    let mut audit_decisions: Vec<dtaint_telemetry::Decision> = Vec::new();
    for (name, bin) in load_binaries(path)? {
        log::debug(&format!("scanning {name}"));
        let interns_before =
            [tel.metrics.counter("pool.interns"), tel.metrics.counter("pool.intern_cache_hits")];
        let report = analyzer.analyze_traced(&bin, &name, &mut tel).map_err(|e| e.to_string())?;
        if has_flag(rest, "--json") {
            let json = report.to_json().map_err(|e| e.to_string())?;
            write_out(out, &json)?;
            write_out(out, "\n")?;
        } else if has_flag(rest, "--md") {
            write_out(out, &report.to_markdown())?;
        } else {
            write_out(
                out,
                &format!(
                    "== {name}: {} functions, {} sinks, {} vulnerable path(s), {} vulnerability(ies) [{:.2?}]\n",
                    report.functions,
                    report.sinks_count,
                    report.vulnerable_paths().len(),
                    report.vulnerabilities(),
                    report.stage("scan"),
                ),
            )?;
            let t = |nm| report.stage(nm);
            write_out(
                out,
                &format!(
                    "   stages: lift+ssa {:.2?}, callgraph {:.2?}, ddg {:.2?} (alias {:.2?}, indirect {:.2?}, propagate {:.2?}), detect {:.2?}\n",
                    t("ssa"),
                    t("lift_cfg"),
                    t("ddg"),
                    t("ddg_alias"),
                    t("ddg_indirect"),
                    t("ddg_propagate"),
                    t("detect"),
                ),
            )?;
            if bounds == BoundsMode::Interval {
                // Logical counts only: both are identical at any thread
                // count.
                write_out(
                    out,
                    &format!(
                        "   interval: absint {} solver pass(es), {} infeasible path(s) suppressed\n",
                        report.telemetry.metrics.counter("absint.solver_passes"),
                        report.infeasible_suppressed,
                    ),
                )?;
            }
            for f in &report.findings {
                write_out(out, &format!("{f}\n"))?;
                for step in &f.evidence {
                    write_out(out, &format!("    {step}\n"))?;
                }
            }
            // Only imperfect scans print coverage, so a clean scan's
            // output is byte-identical to pre-fault-tolerance builds.
            if !report.coverage_complete() || report.functions_retried > 0 {
                write_out(
                    out,
                    &format!(
                        "   coverage: {}/{} function(s) analyzed, {} skipped, {} retried degraded\n",
                        report.functions_analyzed,
                        report.functions_analyzed + report.functions_skipped,
                        report.functions_skipped,
                        report.functions_retried,
                    ),
                )?;
                write_out(out, &report.skip_table())?;
            }
        }
        if profile {
            let interns = tel.metrics.counter("pool.interns") - interns_before[0];
            let hits = tel.metrics.counter("pool.intern_cache_hits") - interns_before[1];
            write_profile(out, &report, interns, hits)?;
        }
        // Stage wall-clock as gauges, for `--metrics-out`: one
        // `stage.<span>_us` per lane-0 span (`stage.scan_us` for the
        // root). Durations are confined to `stage.*_us` names so
        // consumers can filter them out of determinism comparisons.
        // Summed across binaries.
        for (span, us) in &report.stage_us {
            let nm = format!("stage.{span}_us");
            let prev = tel.metrics.gauge(&nm);
            tel.metrics.set_gauge(&nm, prev + us);
        }
        any_vuln |= report.vulnerabilities() > 0;
        any_partial |= !report.coverage_complete();
        if has_flag(rest, "--validate") {
            let mut attack = AttackConfig::default();
            poison_all_rodata_names(&bin, &mut attack);
            let entry =
                bin.function_at(bin.entry).map(|s| s.name.clone()).unwrap_or_else(|| "main".into());
            let verdict = emu_validate(&bin, &entry, &attack);
            write_out(out, &format!("dynamic validation ({entry}): {verdict:?}\n"))?;
        }
        if audit_out.is_some() {
            audit_decisions.extend(report.decisions.iter().cloned());
        }
        if sarif_out.is_some() {
            sarif_reports.push(report);
        }
    }
    if let Some(dest) = audit_out {
        // One JSONL file for the whole invocation: an image scan
        // concatenates the decisions of every executable, in scan order.
        std::fs::write(dest, dtaint_telemetry::export_audit_jsonl(&audit_decisions))
            .map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote {} audit decision(s) to {dest}", audit_decisions.len()));
    }
    if let Some(dest) = sarif_out {
        std::fs::write(dest, dtaint_core::sarif::to_sarif_string(&sarif_reports))
            .map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote SARIF ({} run(s)) to {dest}", sarif_reports.len()));
    }
    if let Some(dest) = trace_out {
        std::fs::write(dest, export_jsonl(tel.events()))
            .map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote {} span(s) to {dest}", tel.events().len()));
    }
    if let Some(dest) = trace_chrome {
        std::fs::write(dest, export_chrome(tel.events()))
            .map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote Chrome trace to {dest} (open in chrome://tracing or Perfetto)"));
    }
    if let Some(dest) = metrics_out {
        let json = serde_json::to_string_pretty(&tel.metrics).map_err(|e| e.to_string())?;
        std::fs::write(dest, json).map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote metrics to {dest}"));
    }
    // Vulnerabilities dominate; a vuln-free scan with skipped functions
    // exits 4 so callers can tell "clean" from "clean but partial".
    Ok(if any_vuln {
        2
    } else if any_partial {
        4
    } else {
        0
    })
}

/// The `--profile` breakdown: per-stage wall-clock, logical per-function
/// cost percentiles, and the hotspot table. Every duration-derived token
/// is prefixed `~` — strip those and the output is bit-identical across
/// thread counts, because everything else comes from logical counters.
/// `interns` and `cache_hits` are this binary's expression-pool counts.
fn write_profile(
    out: &mut dyn Write,
    report: &AnalysisReport,
    interns: u64,
    cache_hits: u64,
) -> Result<(), String> {
    let total = report.stage("scan").as_micros().max(1) as f64;
    write_out(out, &format!("   profile ({}):\n", report.binary_name))?;
    // `lift+ssa` is the fused per-function pass; `callgraph` is the
    // call-graph assembly from the shape records. Shares are of the
    // whole scan.
    for (nm, span) in
        [("lift+ssa", "ssa"), ("callgraph", "lift_cfg"), ("ddg", "ddg"), ("detect", "detect")]
    {
        let d = report.stage(span);
        write_out(
            out,
            &format!("     {nm:<10} ~{d:.2?} ~{:.1}%\n", 100.0 * d.as_micros() as f64 / total),
        )?;
    }
    let m = &report.telemetry.metrics;
    write_out(
        out,
        &format!(
            "     lift        functions {} blocks {} instructions {} nodes-translated {} interns {} intern-cache-hits {}\n",
            m.gauge("image.functions"),
            m.gauge("image.blocks"),
            m.counter("lift.instructions"),
            m.counter("symex.nodes_translated"),
            interns,
            cache_hits,
        ),
    )?;
    // Percentiles over the logical histograms (deterministic: bucket
    // upper bounds of step counts, no wall-clock involved).
    for (label, hist) in [
        ("blocks/fn", report.telemetry.metrics.histogram("symex.blocks_per_fn")),
        ("ddg-fuel/fn", report.telemetry.metrics.histogram("ddg.fuel_per_fn")),
    ] {
        if let Some(h) = hist {
            write_out(
                out,
                &format!(
                    "     {label:<11} p50 {} p90 {} p99 {} max {}\n",
                    h.percentile(0.50),
                    h.percentile(0.90),
                    h.percentile(0.99),
                    h.percentile(1.0),
                ),
            )?;
        }
    }
    write_out(
        out,
        &format!(
            "     indirect    installers {} sites {} layouts {} resolved {}\n",
            m.counter("ddg.indirect_installers"),
            m.counter("ddg.indirect_sites"),
            m.counter("ddg.layouts_inferred"),
            report.resolved_indirect,
        ),
    )?;
    let hot = report.telemetry.hotspots(5);
    if !hot.is_empty() {
        write_out(out, "     hotspots (by logical work):\n")?;
        for f in hot {
            write_out(
                out,
                &format!(
                    "       {:#010x} {:<24} blocks {} paths {} alias {} fuel {} sinks {} ~{}us ~{}us\n",
                    f.addr,
                    f.name,
                    f.blocks_executed,
                    f.paths_explored,
                    f.alias_rewrites,
                    f.ddg_fuel,
                    f.sinks,
                    f.symex_us,
                    f.ddg_us,
                ),
            )?;
        }
    }
    Ok(())
}

/// Parses a single-report JSON file as produced by `scan --json` on one
/// binary (a whole-image scan concatenates one document per executable;
/// split those before feeding them to `explain`/`diff`).
fn load_report(path: &str) -> Result<AnalysisReport, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    AnalysisReport::from_json(data.trim())
        .map_err(|e| format!("parse {path}: {e} (expected one `scan --json` report)"))
}

fn cmd_explain(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("explain: missing report path (produce with `scan --json`)")?;
    let report = load_report(path)?;
    let want = flag_value(rest, "--finding");
    let mut shown = 0usize;
    for f in &report.findings {
        if let Some(prefix) = want {
            if !f.fingerprint.starts_with(prefix) {
                continue;
            }
        }
        shown += 1;
        let status = if f.sanitized() { "sanitized" } else { "VULNERABLE" };
        write_out(
            out,
            &format!(
                "finding {} — {} via `{}` at {:#x} in {} [{status}]\n",
                if f.fingerprint.is_empty() { "<no fingerprint>" } else { &f.fingerprint },
                f.kind,
                f.sink,
                f.sink_ins,
                f.sink_fn,
            ),
        )?;
        let sources: Vec<String> =
            f.sources.iter().map(|s| format!("{}@{:#x}", s.name, s.ins_addr)).collect();
        write_out(out, &format!("  sources: {}\n", sources.join(", ")))?;
        write_out(out, &format!("  tainted expression: {}\n", f.tainted_expr))?;
        let chain = f.call_chain_display();
        if !chain.is_empty() {
            write_out(out, &format!("  call chain: {chain}\n"))?;
        }
        if f.evidence.is_empty() {
            write_out(out, "  (no recorded evidence — legacy report?)\n")?;
        }
        for (i, step) in f.evidence.iter().enumerate() {
            write_out(out, &format!("  {:>2}. {step}\n", i + 1))?;
        }
        write_out(out, "\n")?;
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
fn cmd_why(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos
        .first()
        .ok_or("why: missing report path (produce with `scan --json --audit-out FILE`)")?;
    let sink = match flag_value(rest, "--sink") {
        Some(v) => Some(
            parse_addr(v).ok_or_else(|| format!("why: --sink expects an address, got `{v}`"))?,
        ),
        None => None,
    };
    let func = flag_value(rest, "--fn");
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
                let sink_ok = match sink {
                    Some(a) => d.site == Some(a),
                    None => true,
                };
                let fn_ok = match func {
                    Some(f) => d.function == f,
                    None => true,
                };
                sink_ok && fn_ok
            })
            .collect();
        write_out(
            out,
            &format!(
                "== {}: {} of {} decision(s)\n",
                r.binary_name,
                picked.len(),
                r.decisions.len()
            ),
        )?;
        for (i, d) in picked.iter().enumerate() {
            write_out(out, &format!("  {:>2}. {}\n", i + 1, d.render()))?;
        }
        shown += picked.len();
        // The coverage context: how the sink population fared overall.
        if !r.sink_coverage.is_empty() {
            let t = r.sink_coverage.totals();
            write_out(
                out,
                &format!(
                    "  coverage: {} sink site(s) — {} reported, {} sanitized, {} infeasible, {} unreached\n",
                    t.sites, t.reported, t.sanitized, t.infeasible, t.unreached,
                ),
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
    write_out(
        out,
        &format!("hint: `dtaint explain {path}` renders the reported findings' evidence chains\n"),
    )?;
    Ok(0)
}

fn cmd_diff(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let base_path = pos.first().ok_or("diff: missing baseline report path")?;
    let cur_path = pos.get(1).ok_or("diff: missing current report path")?;
    if base_path == cur_path {
        write_out(out, "note: baseline and current are the same file\n")?;
    }
    let base = load_report(base_path)?;
    let cur = load_report(cur_path)?;

    // One exemplar per fingerprint, preferring a vulnerable one so a
    // fingerprint whose path set is partly sanitised still diffs as
    // vulnerable. BTreeMap keys give deterministic section ordering.
    fn index(r: &AnalysisReport) -> std::collections::BTreeMap<&str, &Finding> {
        let mut m = std::collections::BTreeMap::new();
        for f in &r.findings {
            let e = m.entry(f.fingerprint.as_str()).or_insert(f);
            if !f.sanitized() {
                *e = f;
            }
        }
        m
    }
    let before = index(&base);
    let after = index(&cur);

    write_out(
        out,
        &format!(
            "baseline {}: {} finding(s); current {}: {} finding(s)\n",
            base.binary_name,
            base.findings.len(),
            cur.binary_name,
            cur.findings.len(),
        ),
    )?;

    // Fast path: identical fingerprint sets with identical verdicts
    // need no section-by-section walk — the common case when diffing a
    // re-scan of an unchanged image (e.g. out of the batch cache).
    if before.len() == after.len()
        && before.iter().all(|(fp, f)| after.get(fp).is_some_and(|g| g.verdict == f.verdict))
    {
        write_out(
            out,
            &format!(
                "no finding differences: {} fingerprint(s) match with identical verdicts\n",
                after.len()
            ),
        )?;
        write_counter_deltas(&base, &cur, out)?;
        write_out(out, "no regressions\n")?;
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
            write_out(out, &format!("{title}\n"))?;
            for l in lines {
                write_out(out, l)?;
            }
        }
    }
    write_counter_deltas(&base, &cur, out)?;

    if regressions > 0 {
        write_out(
            out,
            &format!("{regressions} regression(s): new or re-opened vulnerable finding(s)\n"),
        )?;
        Ok(2)
    } else {
        write_out(out, "no regressions\n")?;
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
        write_out(out, "counter delta(s):\n")?;
        for l in delta_lines {
            write_out(out, &l)?;
        }
    }
    Ok(())
}

/// One image's worth of work inside `batch`: a report and a cache scan
/// label per executable, or how and why the image failed (other images
/// are unaffected).
type ImageScan = Result<(Vec<AnalysisReport>, Vec<String>), (ImageOutcome, String)>;

/// Builds an image's journal entry on its scan worker, right after the
/// scan settles and before the same worker's next scan can reset the
/// per-label cache statistics. The commit on the main thread may run
/// arbitrarily later; building the record here (rather than reading the
/// live cache at commit time, which races with the worker running
/// ahead) is what lets an interrupted-and-resumed run reproduce an
/// uninterrupted one byte-for-byte at `--jobs 1`. Failed and timed-out
/// images carry no findings, zero cache traffic and an empty registry.
/// Returns the reports beside the entry for the commit to write.
fn journal_entry(
    job: &ImageJob,
    config: &str,
    cache: Option<&std::sync::Arc<SummaryCache>>,
    scan: ImageScan,
) -> (dtaint_store::JournalEntry, Vec<AnalysisReport>) {
    let mut entry = dtaint_store::JournalEntry {
        v: dtaint_store::JOURNAL_VERSION,
        image: job.name.clone(),
        content: job.content.clone(),
        config: config.to_owned(),
        ..Default::default()
    };
    let (reports, labels) = match scan {
        Ok(scanned) => scanned,
        Err((outcome, error)) => {
            entry.outcome = outcome;
            entry.error = Some(error);
            return (entry, Vec::new());
        }
    };
    if let Some(c) = cache {
        for label in &labels {
            let st = c.scan_stats(label);
            entry.sym_hits += st.sym_hits;
            entry.sym_misses += st.sym_misses;
            entry.ddg_hits += st.ddg_hits;
            entry.ddg_misses += st.ddg_misses;
            entry.invalidations += st.invalidations;
        }
    }
    // Report registries hold only logical counters and `image.*`
    // gauges — cache traffic never enters them — so this merge is
    // bit-identical across `--jobs`, `--threads`, and cache warmth.
    for r in &reports {
        entry.metrics.merge_summing_gauges(&r.telemetry.metrics);
    }
    // One exemplar per fingerprint, vulnerable winning over sanitized
    // (the `diff` convention), before the store fold.
    let mut by_fp: std::collections::BTreeMap<&str, dtaint_store::ScanFinding> =
        std::collections::BTreeMap::new();
    for f in reports.iter().flat_map(|r| &r.findings) {
        let kept =
            by_fp.entry(f.fingerprint.as_str()).or_insert_with(|| dtaint_store::ScanFinding {
                fingerprint: f.fingerprint.clone(),
                vulnerable: false,
                sink: f.sink.clone(),
                sink_fn: f.sink_fn.clone(),
            });
        kept.vulnerable |= !f.sanitized();
    }
    entry.findings = by_fp.into_values().collect();
    entry.binaries = reports.len();
    entry.report = Some(format!("{}.json", job.name));
    (entry, reports)
}

/// One image as enumerated from the corpus directory, with the content
/// hash the run journal keys resume decisions on.
struct ImageJob {
    path: std::path::PathBuf,
    /// File stem — the store's image key.
    name: String,
    /// FNV-1a 64 of the image file bytes, 16 hex digits
    /// (`"unreadable"` when the file cannot be read; such an image never
    /// matches a journal entry and takes the per-image failure path).
    content: String,
}

/// Scans one image: every executable through the pipeline, panics
/// caught (with their payload string — "scan panicked" alone names
/// nothing), per-image errors isolated.
fn scan_image_attempt(
    path: &std::path::Path,
    name: &str,
    cache: Option<&std::sync::Arc<SummaryCache>>,
    threads: usize,
    alias_mode: Option<AliasMode>,
    audit: bool,
    stall: bool,
) -> ImageScan {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<(Vec<AnalysisReport>, Vec<String>), String> {
            if stall {
                // `--drill-stall` turns this image into a deterministic
                // pathological case for deadline tests.
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
            let mut reports = Vec::new();
            let mut labels = Vec::new();
            for (bin_name, bin) in load_binaries(&path.to_string_lossy())? {
                let label = format!("{name}/{bin_name}");
                let mut config = DtaintConfig {
                    threads,
                    cache: cache.map(|c| CacheRef::new(c.clone(), &label)),
                    audit,
                    ..Default::default()
                };
                if let Some(mode) = alias_mode {
                    config.dataflow.alias.mode = mode;
                }
                let report = Dtaint::with_config(config)
                    .analyze(&bin, &bin_name)
                    .map_err(|e| e.to_string())?;
                reports.push(report);
                labels.push(label);
            }
            Ok((reports, labels))
        },
    ));
    attempt
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown payload".to_owned());
            Err(format!("scan panicked: {msg}"))
        })
        .map_err(|e| (ImageOutcome::Error, e))
}

/// Runs [`scan_image_attempt`] under a wall-clock watchdog. The scan
/// runs on a detached supervisor-side thread; if it outlives the
/// deadline the image becomes a `Timeout` outcome and the thread is
/// abandoned (it keeps running until process exit — acceptable for a
/// batch process, and the timed-out image's results are never read).
/// `deadline_secs == 0` disables the watchdog.
#[allow(clippy::too_many_arguments)]
fn scan_with_deadline(
    path: std::path::PathBuf,
    name: String,
    cache: Option<std::sync::Arc<SummaryCache>>,
    threads: usize,
    alias_mode: Option<AliasMode>,
    audit: bool,
    stall: bool,
    deadline_secs: u64,
) -> ImageScan {
    if deadline_secs == 0 {
        return scan_image_attempt(&path, &name, cache.as_ref(), threads, alias_mode, audit, stall);
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(scan_image_attempt(
            &path,
            &name,
            cache.as_ref(),
            threads,
            alias_mode,
            audit,
            stall,
        ));
    });
    rx.recv_timeout(std::time::Duration::from_secs(deadline_secs)).unwrap_or_else(|_| {
        Err((
            ImageOutcome::Timeout,
            format!("deadline: exceeded the {deadline_secs}s wall-clock budget"),
        ))
    })
}

/// Per-image entry of `corpus.json`.
#[derive(Default, serde::Serialize)]
struct CorpusImage {
    name: String,
    binaries: usize,
    findings: usize,
    vulnerable: usize,
    baseline: bool,
    new: usize,
    reopened: usize,
    resolved: usize,
    regression: bool,
    sym_hits: u64,
    sym_misses: u64,
    ddg_hits: u64,
    ddg_misses: u64,
    invalidations: u64,
    /// Findings folded away as duplicates across observer functions
    /// (from the image's `detect.duplicates_suppressed` counter).
    duplicates_suppressed: u64,
    /// Sink paths suppressed as infeasible, detect-side and inside DDG
    /// propagation combined.
    infeasible_suppressed: u64,
    timeout: bool,
    error: Option<String>,
}

/// The corpus-level summary written next to the per-image reports.
#[derive(Default, serde::Serialize)]
struct CorpusSummary {
    generation: u64,
    images: Vec<CorpusImage>,
    failures: usize,
    timeouts: usize,
    regressions: usize,
    vulnerable: usize,
    sym_hits: u64,
    sym_misses: u64,
    ddg_hits: u64,
    ddg_misses: u64,
    invalidations: u64,
    /// Corpus-wide sum of per-image `duplicates_suppressed`.
    duplicates_suppressed: u64,
    /// Corpus-wide sum of per-image `infeasible_suppressed`.
    infeasible_suppressed: u64,
    cache_entries: usize,
    cache_salvaged: u64,
    cache_discarded: u64,
    /// Corpus-wide rollup of every image's report registry — logical
    /// counters and summed `image.*` gauges, bit-identical across
    /// `--jobs`/`--threads` and across `--resume`.
    metrics: MetricsRegistry,
}

fn cmd_batch(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let dir = pos.first().ok_or("batch: missing corpus directory")?;
    let store_root = flag_value(rest, "--store")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(dir.as_str()).join(".dtaint-store"));
    // `--drill-io` routes every store write through a fault plan — the
    // crash-drill hook (hidden from USAGE; for tests and CI drills).
    let fault_plan = match flag_value(rest, "--drill-io") {
        None => dtaint_store::FaultPlan::None,
        Some(v) => {
            let k = v
                .strip_prefix("kill-after-appends:")
                .and_then(|n| n.parse().ok())
                .ok_or("batch: --drill-io expects kill-after-appends:N")?;
            dtaint_store::FaultPlan::KillAfterAppends { appends: k }
        }
    };
    let fault_fs = std::sync::Arc::new(dtaint_store::FaultFs::with_plan(fault_plan));
    let store = dtaint_store::StoreDir::open_with_fs(&store_root, fault_fs)
        .map_err(|e| format!("batch: open store {}: {e}", store_root.display()))?;
    // One batch run at a time per store: the journal and the cache/db
    // snapshots are not merge-safe across concurrent writers.
    let (_lock, stolen) = store.lock().map_err(|e| format!("batch: {e}"))?;
    if let Some(pid) = stolen {
        log::warn(&format!("batch: evicted a stale store lock left by dead process {pid}"));
    }
    let reports_dir = flag_value(rest, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| store.reports_dir());
    std::fs::create_dir_all(&reports_dir)
        .map_err(|e| format!("batch: create {}: {e}", reports_dir.display()))?;
    let jobs: usize = flag_number(rest, "batch", "--jobs", 1)?;
    let threads: usize = flag_number(rest, "batch", "--threads", 0)?;
    let no_cache = has_flag(rest, "--no-cache");
    let alias_mode = parse_alias_mode(rest, "batch")?;
    let resume = has_flag(rest, "--resume");
    let deadline_secs: u64 = flag_number(rest, "batch", "--deadline-secs", 0)?;
    let drill_stall = flag_value(rest, "--drill-stall").map(str::to_owned);
    let status_out = flag_value(rest, "--status-out").map(std::path::PathBuf::from);
    // `--audit-dir` switches every scan into audit mode and lands one
    // `<image>.audit.jsonl` per freshly-scanned image in DIR.
    let audit_dir = flag_value(rest, "--audit-dir").map(std::path::PathBuf::from);
    if let Some(d) = &audit_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("batch: create {}: {e}", d.display()))?;
    }
    let audit = audit_dir.is_some();
    let run_started = std::time::Instant::now();
    let started_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut image_paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir.as_str())
        .map_err(|e| format!("batch: read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fwi"))
        .collect();
    image_paths.sort();
    if image_paths.is_empty() {
        return Err(format!("batch: no .fwi images in {dir}"));
    }
    let images: Vec<ImageJob> = image_paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_stem()
                .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
            let content = std::fs::read(&path).map_or_else(
                |_| "unreadable".to_owned(),
                |b| format!("{:016x}", dtaint_store::fnv64(&b)),
            );
            ImageJob { path, name, content }
        })
        .collect();

    // The findings database: missing is an empty baseline, corrupt is
    // quarantined loudly — a silently-emptied db would make every known
    // finding look new and fire a spurious regression exit.
    let (mut db, sidecar) = store.load_db_checked();
    if let Some(s) = &sidecar {
        log::warn(&format!(
            "batch: findings database was unreadable; quarantined to {} and starting a fresh baseline",
            s.display()
        ));
    }

    // The summary cache persists in the store across runs; `--no-cache`
    // scans cold and leaves the persisted cache untouched. Damaged
    // cache files are salvaged entry-by-entry; unrecognized ones are a
    // cold start.
    let (cache, cache_report) = if no_cache {
        (None, None)
    } else {
        let (c, rep) = SummaryCache::load_with_report(&store.cache_path());
        (Some(std::sync::Arc::new(c)), Some(rep))
    };
    if let Some(rep) = cache_report.filter(|r| r.damaged) {
        log::warn(&format!(
            "batch: summary cache was damaged; salvaged {} entries, discarded {}",
            rep.salvaged, rep.discarded
        ));
    }
    // The store generation of the newest cache snapshot on disk: a clean
    // load is generation 0 (the file holds exactly the loaded entries);
    // a missing, unrecognized, or damaged file is stale (`None`), so the
    // first commit rewrites it clean. Snapshots are taken and written
    // only when the cache grew past it.
    let durable_cache = std::sync::Mutex::new(
        cache_report.filter(|r| r.format == CacheFormat::Dtc2 && !r.damaged).map(|_| 0u64),
    );
    let durable_generation =
        || *durable_cache.lock().expect("a cache commit panicked holding the generation");
    let cache_snapshots = std::cell::Cell::new(0u64);
    // Writes `snap` unless the file on disk is at least as new — which
    // also keeps a `--jobs` > 1 capture taken before a later-committed
    // one from overwriting it.
    let persist_snapshot = |snap: &CacheSnapshot| -> Result<(), String> {
        if durable_generation().is_some_and(|g| snap.generation <= g) {
            return Ok(());
        }
        dtaint_store::atomic_write_parts(store.fs(), &store.cache_path(), &snap.parts())
            .map_err(|e| format!("write {}: {e}", store.cache_path().display()))?;
        *durable_cache.lock().expect("a cache commit panicked holding the generation") =
            Some(snap.generation);
        cache_snapshots.set(cache_snapshots.get() + 1);
        Ok(())
    };

    // Resume bookkeeping. The semantic-config tag fences journal reuse:
    // an entry recorded under another alias mode (or cache setting)
    // would not reproduce this run's results.
    // Audit mode changes the per-image report files (decisions embedded)
    // and owes an audit file per image, so audited runs never replay
    // journal entries from unaudited ones (and vice versa). The tag only
    // grows when auditing, keeping existing journals valid.
    let config_tag = format!(
        "alias={};cache={}{}",
        flag_value(rest, "--alias").unwrap_or("default"),
        if no_cache { "off" } else { "on" },
        if audit { ";audit=on" } else { "" }
    );
    let prior = if resume {
        store.load_journal()
    } else {
        store.clear_journal();
        dtaint_store::JournalLoad::default()
    };
    if prior.discarded_lines > 0 {
        log::warn(&format!(
            "batch: discarded {} torn journal line(s) from the interrupted run",
            prior.discarded_lines
        ));
    }
    let mut journaled: std::collections::HashMap<&str, &dtaint_store::JournalEntry> =
        std::collections::HashMap::new();
    for e in &prior.entries {
        journaled.insert(e.image.as_str(), e); // last entry wins
    }
    // A journal entry replays only while the image bytes and the config
    // still match; timeouts are never final (wall-clock is a property
    // of the host, not the image) and are re-scanned.
    let plan: Vec<Option<&dtaint_store::JournalEntry>> = images
        .iter()
        .map(|j| {
            journaled.get(j.name.as_str()).copied().filter(|e| {
                e.content == j.content
                    && e.config == config_tag
                    && e.outcome != ImageOutcome::Timeout
            })
        })
        .collect();
    let resumed = plan.iter().flatten().count();
    if resumed > 0 {
        log::info(&format!("batch: resuming — {resumed} image(s) already completed, skipping"));
    }
    let work: Vec<usize> = (0..images.len()).filter(|&i| plan[i].is_none()).collect();
    let worker_count = jobs.clamp(1, work.len().max(1));

    // Live progress: workers report into the tracker; a reporter thread
    // periodically rewrites the heartbeat (atomically, so a poller never
    // sees a torn file) and repaints the TTY status line. Everything is
    // advisory — a heartbeat write failure never fails the batch, and
    // nothing here feeds back into reports or the store's identity
    // contract.
    let progress = FleetProgress::new(images.len(), worker_count, &config_tag);
    for e in plan.iter().flatten() {
        progress.note_resumed(e.outcome);
    }
    let write_heartbeat = |hb: &Heartbeat| {
        if let Ok(json) = serde_json::to_string_pretty(hb) {
            let _ = dtaint_store::atomic_write(store.fs(), &store.status_path(), json.as_bytes());
            if let Some(p) = &status_out {
                let _ = dtaint_store::atomic_write(store.fs(), p, json.as_bytes());
            }
        }
    };
    // An initial heartbeat before any scan: a batch killed on its very
    // first image still leaves `dtaint status` something to report.
    write_heartbeat(&progress.heartbeat("running"));
    // The batch scheduler clock: worker spans for `--trace-chrome`
    // share this epoch (lane 0 holds the batch root, worker i uses
    // lane i+1).
    let batch_clock = dtaint_telemetry::Clock::new();

    // Commits one freshly-scanned image durably, in order: report →
    // audit file → cache snapshot → journal append, and returns the
    // entry for the fold. The journal append is the commit point — a
    // crash before it re-scans the image on resume, a crash after it
    // replays the entry, and the per-image cache snapshot keeps a
    // resumed run's warm state identical to an uninterrupted one's.
    let commit = |entry: dtaint_store::JournalEntry,
                  reports: &[AnalysisReport],
                  snapshot: Option<&CacheSnapshot>|
     -> Result<dtaint_store::JournalEntry, String> {
        if let Some(report_name) = &entry.report {
            // One report file per image: a single JSON object when the
            // image holds one executable (the common case, `diff`-able
            // as-is), else a JSON array.
            let texts: Result<Vec<String>, String> =
                reports.iter().map(|r| r.to_json().map_err(|e| e.to_string())).collect();
            let texts = texts?;
            let doc = if texts.len() == 1 {
                texts[0].clone()
            } else {
                format!("[\n{}\n]", texts.join(",\n"))
            };
            let report_path = reports_dir.join(report_name);
            dtaint_store::atomic_write(store.fs(), &report_path, doc.as_bytes())
                .map_err(|e| format!("write {}: {e}", report_path.display()))?;

            // The per-image decision log, durable before the journal
            // commit point so a replayed image always has its audit
            // file on disk.
            if let Some(adir) = &audit_dir {
                let decisions: Vec<dtaint_telemetry::Decision> =
                    reports.iter().flat_map(|r| r.decisions.iter().cloned()).collect();
                let audit_path = adir.join(format!("{}.audit.jsonl", entry.image));
                dtaint_store::atomic_write(
                    store.fs(),
                    &audit_path,
                    dtaint_telemetry::export_audit_jsonl(&decisions).as_bytes(),
                )
                .map_err(|e| format!("write {}: {e}", audit_path.display()))?;
            }
        }
        if let Some(snap) = snapshot {
            persist_snapshot(snap)?;
        }
        store
            .append_journal(&entry)
            .map_err(|e| format!("write {}: {e}", store.journal_path().display()))?;
        Ok(entry)
    };

    // Work-stealing across the un-journaled images: workers pull the
    // next index and send outcomes back; the main thread commits them
    // durably in sorted-image order (so the journal prefix after a
    // crash is always an in-order prefix of the corpus).
    let next = std::sync::atomic::AtomicUsize::new(0);
    // The reporter's stop flag and the condvar that wakes it on stop.
    let stop_reporter = (std::sync::Mutex::new(false), std::sync::Condvar::new());
    // A scanned image on its way to the commit: its entry, the reports
    // to write, the cache snapshot to persist and its scheduler span for
    // `--trace-chrome` (wall-clock; never journaled).
    type Scanned =
        (dtaint_store::JournalEntry, Vec<AnalysisReport>, Option<CacheSnapshot>, SpanEvent);
    let (txo, rxo) = std::sync::mpsc::channel::<(usize, Scanned)>();
    let mut entries: Vec<dtaint_store::JournalEntry> = Vec::with_capacity(images.len());
    let mut span_events: Vec<SpanEvent> = Vec::new();
    let mut commit_err: Option<String> = None;
    std::thread::scope(|s| {
        let images = &images;
        let work = &work;
        let cache = &cache;
        let durable_generation = &durable_generation;
        let drill_stall = &drill_stall;
        let config_tag = &config_tag;
        let next = &next;
        let progress = &progress;
        let stop_reporter = &stop_reporter;
        let write_heartbeat = &write_heartbeat;
        for widx in 0..worker_count {
            let txo = txo.clone();
            // The newest snapshot generation this worker has captured. A
            // worker's images come in increasing order and are committed
            // in image order, so that capture is on disk before any later
            // image of this worker commits; encoding the same generation
            // again would only duplicate the cache in memory, once per
            // image the commit thread lags behind.
            let mut captured: Option<u64> = None;
            s.spawn(move || loop {
                let w = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some(&i) = work.get(w) else { break };
                let j = &images[i];
                progress.start_image(widx, &j.name);
                let span_start = batch_clock.now_us();
                let scan = scan_with_deadline(
                    j.path.clone(),
                    j.name.clone(),
                    cache.clone(),
                    threads,
                    alias_mode,
                    audit,
                    drill_stall.as_deref() == Some(j.name.as_str()),
                    deadline_secs,
                );
                // Take the snapshot and build the entry *now*, before
                // this worker's next scan can disturb the cache — the
                // commit on the main thread may run arbitrarily later.
                // The snapshot is taken only when the cache grew past
                // the newest one on disk and past this worker's last.
                let snapshot = cache
                    .as_ref()
                    .and_then(|c| c.snapshot_newer_than(durable_generation().max(captured)));
                if let Some(snap) = &snapshot {
                    captured = Some(snap.generation);
                }
                let (entry, reports) = journal_entry(j, config_tag, cache.as_ref(), scan);
                let span = SpanEvent {
                    name: j.name.clone(),
                    cat: "image".into(),
                    lane: widx as u32 + 1,
                    start_us: span_start,
                    dur_us: batch_clock.now_us().saturating_sub(span_start),
                    args: [
                        ("binaries".to_owned(), entry.binaries as u64),
                        (
                            "findings".to_owned(),
                            reports.iter().map(|r| r.findings.len() as u64).sum(),
                        ),
                        ("sym_hits".to_owned(), entry.sym_hits),
                        ("ddg_hits".to_owned(), entry.ddg_hits),
                        ("outcome".to_owned(), entry.outcome as u64),
                    ]
                    .into_iter()
                    .collect(),
                };
                progress.finish_image(widx, entry.outcome, entry.cache());
                let _ = txo.send((i, (entry, reports, snapshot, span)));
            });
        }
        drop(txo);
        // The heartbeat reporter: rewrites the status file every ~250ms
        // and repaints the TTY line. It waits on the stop condvar, so
        // setting the flag ends it at once.
        s.spawn(move || {
            use std::io::IsTerminal;
            let tty = std::io::stderr().is_terminal() && log::enabled(log::Level::Info);
            let mut painted = false;
            let (stopped, wake) = stop_reporter;
            loop {
                let flag = stopped.lock().expect("the batch panicked holding the stop flag");
                let (flag, _) = wake
                    .wait_timeout_while(flag, std::time::Duration::from_millis(250), |s| !*s)
                    .expect("the batch panicked holding the stop flag");
                if *flag {
                    break;
                }
                drop(flag);
                let hb = progress.heartbeat("running");
                write_heartbeat(&hb);
                if tty {
                    eprint!("\r\x1b[K{}", hb.render_line());
                    painted = true;
                }
            }
            if painted {
                eprint!("\r\x1b[K");
            }
        });
        let mut pending: std::collections::BTreeMap<usize, Scanned> =
            std::collections::BTreeMap::new();
        'commit: for (i, planned) in plan.iter().enumerate() {
            let entry = match planned {
                Some(entry) => (*entry).clone(),
                None => {
                    let (entry, reports, snapshot, span) = loop {
                        if let Some(got) = pending.remove(&i) {
                            break got;
                        }
                        match rxo.recv() {
                            Ok((k, got)) if k == i => break got,
                            Ok((k, got)) => {
                                pending.insert(k, got);
                            }
                            Err(_) => {
                                commit_err = Some("batch: a scan worker died".into());
                                break 'commit;
                            }
                        }
                    };
                    span_events.push(span);
                    match commit(entry, &reports, snapshot.as_ref()) {
                        Ok(entry) => entry,
                        Err(e) => {
                            commit_err = Some(format!("batch: {e}"));
                            break 'commit;
                        }
                    }
                }
            };
            entries.push(entry);
        }
        *stop_reporter.0.lock().expect("the reporter panicked holding the stop flag") = true;
        stop_reporter.1.notify_all();
    });
    if let Some(e) = commit_err {
        return Err(e);
    }

    // Deterministic fold, in sorted-image order: record findings and
    // aggregate the corpus summary. A resumed image folds the entry its
    // original scan journaled, so the database and `corpus.json` come
    // out byte-identical to an uninterrupted run.
    let mut summary = CorpusSummary {
        cache_salvaged: cache_report.map_or(0, |r| r.salvaged),
        cache_discarded: cache_report.map_or(0, |r| r.discarded),
        ..Default::default()
    };
    let mut traffic = ImageCacheStats::default();
    let mut baselines = 0usize;
    let mut totals_new = 0usize;
    let mut totals_reopened = 0usize;
    let mut totals_resolved = 0usize;
    for e in entries {
        // The corpus rollup folds every image's report registry in
        // sorted-image order; gauges sum, so the result is independent
        // of worker scheduling and identical under `--resume`.
        summary.metrics.merge_summing_gauges(&e.metrics);
        let cache = e.cache();
        traffic += cache;
        if let Some(err) = e.error {
            // Failed and timed-out images never fold findings into the
            // database — a partial scan must not resolve or baseline
            // anything.
            let timeout = e.outcome == ImageOutcome::Timeout;
            if timeout {
                summary.timeouts += 1;
            } else {
                summary.failures += 1;
            }
            write_out(out, &format!("!! {}: {err}\n", e.image))?;
            summary.images.push(CorpusImage {
                name: e.image,
                timeout,
                error: Some(err),
                ..Default::default()
            });
            continue;
        }
        let delta = db.record_scan(&e.image, &e.findings);
        baselines += usize::from(delta.is_baseline);
        totals_new += delta.new.len();
        totals_reopened += delta.reopened.len();
        totals_resolved += delta.resolved.len();
        // Suppression counters come from the journaled report registry,
        // so a resumed image surfaces the same numbers a fresh scan
        // would.
        let img = CorpusImage {
            name: e.image,
            binaries: e.binaries,
            findings: e.findings.len(),
            vulnerable: e.findings.iter().filter(|f| f.vulnerable).count(),
            baseline: delta.is_baseline,
            new: delta.new.len(),
            reopened: delta.reopened.len(),
            resolved: delta.resolved.len(),
            regression: delta.is_regression(),
            sym_hits: cache.sym_hits,
            sym_misses: cache.sym_misses,
            ddg_hits: cache.ddg_hits,
            ddg_misses: cache.ddg_misses,
            invalidations: cache.invalidations,
            duplicates_suppressed: e.metrics.counter("detect.duplicates_suppressed"),
            infeasible_suppressed: e.metrics.counter("detect.infeasible_suppressed")
                + e.metrics.counter("ddg.pruned_infeasible"),
            ..Default::default()
        };
        let status = if delta.is_baseline {
            "baseline".to_owned()
        } else if delta.is_regression() {
            format!("REGRESSION: {} new, {} reopened", delta.new.len(), delta.reopened.len())
        } else {
            format!(
                "{} new, {} reopened, {} resolved",
                delta.new.len(),
                delta.reopened.len(),
                delta.resolved.len()
            )
        };
        write_out(
            out,
            &format!(
                "== {}: {} binarie(s), {} finding(s), {} vulnerable, cache {cache} dup {} inf {} [{status}]\n",
                img.name,
                img.binaries,
                img.findings,
                img.vulnerable,
                img.duplicates_suppressed,
                img.infeasible_suppressed,
            ),
        )?;
        summary.vulnerable += img.vulnerable;
        summary.regressions += usize::from(img.regression);
        summary.duplicates_suppressed += img.duplicates_suppressed;
        summary.infeasible_suppressed += img.infeasible_suppressed;
        summary.images.push(img);
    }
    summary.sym_hits = traffic.sym_hits;
    summary.sym_misses = traffic.sym_misses;
    summary.ddg_hits = traffic.ddg_hits;
    summary.ddg_misses = traffic.ddg_misses;
    summary.invalidations = traffic.invalidations;
    summary.generation = db.generation;
    if let Some(c) = &cache {
        summary.cache_entries = c.totals().entries;
        // Final snapshot: with `--jobs` > 1 late workers may have
        // stored entries after the last per-image snapshot.
        if let Some(snap) = c.snapshot_newer_than(durable_generation()) {
            persist_snapshot(&snap)?;
        }
    }
    store.save_db(&db).map_err(|e| format!("write {}: {e}", store.findings_path().display()))?;
    let corpus_path = reports_dir.join("corpus.json");
    let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    dtaint_store::atomic_write(store.fs(), &corpus_path, json.as_bytes())
        .map_err(|e| format!("write {}: {e}", corpus_path.display()))?;
    // The run is complete and every artifact durable: the journal owes
    // nothing to resume any more.
    store.clear_journal();

    // Batch-level exporters, all fed from the corpus rollup (or, for
    // the Chrome trace, the scheduler spans absorbed in commit order).
    if let Some(dest) = flag_value(rest, "--metrics-out") {
        let json = serde_json::to_string_pretty(&summary.metrics).map_err(|e| e.to_string())?;
        std::fs::write(dest, json).map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote corpus metrics to {dest}"));
    }
    if let Some(dest) = flag_value(rest, "--prom-out") {
        // An export-only copy: run-level gauges/counters ride along for
        // dashboards but never enter the persisted (deterministic)
        // rollup.
        let mut export = summary.metrics.clone();
        export.set_gauge("batch.images", summary.images.len() as u64);
        export.set_gauge("batch.failures", summary.failures as u64);
        export.set_gauge("batch.timeouts", summary.timeouts as u64);
        export.set_gauge("batch.regressions", summary.regressions as u64);
        export.set_gauge("batch.vulnerable", summary.vulnerable as u64);
        export.set_gauge("batch.cache_entries", summary.cache_entries as u64);
        export.inc("batch.cache.sym_hits", traffic.sym_hits);
        export.inc("batch.cache.sym_misses", traffic.sym_misses);
        export.inc("batch.cache.ddg_hits", traffic.ddg_hits);
        export.inc("batch.cache.ddg_misses", traffic.ddg_misses);
        export.inc("batch.cache.invalidations", traffic.invalidations);
        std::fs::write(dest, export_prometheus(&export, "dtaint_"))
            .map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!("wrote Prometheus textfile to {dest}"));
    }
    if let Some(dest) = flag_value(rest, "--trace-chrome") {
        // Lane 0: the batch root span; lanes 1..: one span per image on
        // the worker that scanned it — the work-stealing schedule made
        // visible. Resumed images never ran, so they have no span.
        let mut events = vec![SpanEvent {
            name: "batch".into(),
            cat: "batch".into(),
            lane: 0,
            start_us: 0,
            dur_us: batch_clock.now_us(),
            args: [
                ("images".to_owned(), summary.images.len() as u64),
                ("resumed".to_owned(), resumed as u64),
                ("failures".to_owned(), summary.failures as u64),
                ("timeouts".to_owned(), summary.timeouts as u64),
                ("cache_snapshots".to_owned(), cache_snapshots.get()),
            ]
            .into_iter()
            .collect(),
        }];
        events.extend(span_events);
        std::fs::write(dest, export_chrome(&events)).map_err(|e| format!("write {dest}: {e}"))?;
        log::info(&format!(
            "wrote batch Chrome trace to {dest} (open in chrome://tracing or Perfetto)"
        ));
    }

    // One run-history line per completed run. Advisory like the
    // heartbeat: a failed append costs trend data, never the batch.
    let run_record = dtaint_store::RunSummary {
        v: dtaint_store::RUN_VERSION,
        started_unix,
        wall_ms: run_started.elapsed().as_millis() as u64,
        config: config_tag.clone(),
        generation: db.generation,
        images: summary.images.len(),
        ok: summary.images.len() - summary.failures - summary.timeouts,
        failures: summary.failures,
        timeouts: summary.timeouts,
        resumed,
        baselines,
        new_findings: totals_new,
        reopened: totals_reopened,
        resolved: totals_resolved,
        regressions: summary.regressions,
        open_vulnerable: db.open_vulnerable(),
        sym_hits: traffic.sym_hits,
        sym_misses: traffic.sym_misses,
        ddg_hits: traffic.ddg_hits,
        ddg_misses: traffic.ddg_misses,
        invalidations: traffic.invalidations,
        cache_entries: summary.cache_entries,
        journal_discarded: prior.discarded_lines,
    };
    if let Err(e) = store.append_run(&run_record) {
        log::warn(&format!("batch: could not append run history: {e}"));
    }

    // Final heartbeat: phase "done", everything committed.
    write_heartbeat(&progress.heartbeat("done"));

    let timeouts_note = if summary.timeouts > 0 {
        format!(", {} timeout(s)", summary.timeouts)
    } else {
        String::new()
    };
    write_out(
        out,
        &format!(
            "corpus: {} image(s), {} vulnerable finding(s), {} regression(s), {} failure(s){}; cache {traffic} ({} entries)\n",
            summary.images.len(),
            summary.vulnerable,
            summary.regressions,
            summary.failures,
            timeouts_note,
            summary.cache_entries,
        ),
    )?;
    Ok(if summary.regressions > 0 {
        2
    } else if summary.failures + summary.timeouts > 0 {
        4
    } else {
        0
    })
}

/// In-flight images a `status` report flags as stragglers: anything a
/// worker has held longer than this many milliseconds.
const STRAGGLER_MS: u64 = 30_000;

/// `dtaint status <store>` — inspect a live, interrupted, or finished
/// batch from its heartbeat and journal. Read-only: never takes the
/// lock, never creates the store.
fn cmd_status(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let root = pos.first().ok_or("status: missing store directory")?;
    let root_path = std::path::Path::new(root.as_str());
    if !root_path.is_dir() {
        return Err(format!("status: no store at {root}"));
    }
    let store = dtaint_store::StoreDir::open(root_path)
        .map_err(|e| format!("status: open store {root}: {e}"))?;
    write_out(out, &format!("store: {root}\n"))?;
    match store.live_run_pid() {
        Some(pid) => write_out(out, &format!("run: live (pid {pid})\n"))?,
        None => write_out(out, "run: no live batch\n")?,
    }

    let heartbeat: Option<Heartbeat> = std::fs::read_to_string(store.status_path())
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    match &heartbeat {
        None => write_out(out, "heartbeat: none\n")?,
        Some(hb) => {
            let pct = if hb.total == 0 { 100.0 } else { 100.0 * hb.done as f64 / hb.total as f64 };
            write_out(
                out,
                &format!(
                    "heartbeat: {} — {}/{} image(s) ({pct:.0}%), {} ok, {} failed, {} timeout(s), {} resumed\n",
                    hb.phase, hb.done, hb.total, hb.ok, hb.failed, hb.timeouts, hb.resumed,
                ),
            )?;
            write_out(
                out,
                &format!(
                    "  {:.2} images/sec, cache hits {:.1}% (sym {}/{} ddg {}/{} inv {}), config {}\n",
                    hb.images_per_sec,
                    100.0 * hb.cache_hit_rate,
                    hb.sym_hits,
                    hb.sym_hits + hb.sym_misses,
                    hb.ddg_hits,
                    hb.ddg_hits + hb.ddg_misses,
                    hb.invalidations,
                    hb.config,
                ),
            )?;
            for w in &hb.workers {
                match &w.image {
                    Some(img) => {
                        let straggler =
                            if w.elapsed_ms >= STRAGGLER_MS { "  ** straggler" } else { "" };
                        write_out(
                            out,
                            &format!(
                                "  worker {}: {img} ({:.1}s){straggler}\n",
                                w.lane,
                                w.elapsed_ms as f64 / 1000.0,
                            ),
                        )?;
                    }
                    None => write_out(out, &format!("  worker {}: idle\n", w.lane))?,
                }
            }
        }
    }

    let journal = store.load_journal();
    if journal.entries.is_empty() {
        write_out(out, "journal: empty (no interrupted run)\n")?;
    } else {
        // A resumed-then-interrupted run can journal an image twice;
        // the last entry wins, matching the resume planner.
        let mut last: std::collections::BTreeMap<&str, &dtaint_store::JournalEntry> =
            std::collections::BTreeMap::new();
        for e in &journal.entries {
            last.insert(e.image.as_str(), e);
        }
        write_out(
            out,
            &format!(
                "journal: {} committed image(s), {} torn line(s)\n",
                last.len(),
                journal.discarded_lines
            ),
        )?;
        let mut timed_out: Vec<&str> = Vec::new();
        for (name, e) in &last {
            let outcome = match e.outcome {
                ImageOutcome::Ok => "ok",
                ImageOutcome::Error => "error",
                ImageOutcome::Timeout => {
                    timed_out.push(name);
                    "timeout"
                }
            };
            let detail = match &e.error {
                Some(err) => format!(" — {err}"),
                None => format!(
                    ": {} finding(s), sym {}/{}",
                    e.findings.len(),
                    e.sym_hits,
                    e.sym_hits + e.sym_misses
                ),
            };
            write_out(out, &format!("  {outcome:<8} {name}{detail}\n"))?;
        }
        if !timed_out.is_empty() {
            write_out(out, &format!("timed-out image(s): {}\n", timed_out.join(", ")))?;
        }
        if let Some(hb) = &heartbeat {
            let remaining = hb.total.saturating_sub(last.len());
            if hb.phase != "done" && remaining > 0 {
                write_out(out, &format!("pending: {remaining} image(s) not yet committed\n"))?;
            }
        }
    }
    Ok(0)
}

/// `dtaint history <store>` — the trend table across recorded runs.
fn cmd_history(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let root = pos.first().ok_or("history: missing store directory")?;
    let root_path = std::path::Path::new(root.as_str());
    if !root_path.is_dir() {
        return Err(format!("history: no store at {root}"));
    }
    let store = dtaint_store::StoreDir::open(root_path)
        .map_err(|e| format!("history: open store {root}: {e}"))?;
    let load = store.load_runs();
    if load.discarded_lines > 0 {
        log::warn(&format!("history: discarded {} unreadable run line(s)", load.discarded_lines));
    }
    if load.runs.is_empty() {
        write_out(out, "history: no recorded runs\n")?;
        return Ok(0);
    }
    write_out(
        out,
        "gen   images  ok  fail  t/o  res  new  reop  rslv  regr  vuln  cache%   wall  config\n",
    )?;
    for r in &load.runs {
        write_out(
            out,
            &format!(
                "{:<5} {:>6}  {:>2}  {:>4}  {:>3}  {:>3}  {:>3}  {:>4}  {:>4}  {:>4}  {:>4}  {:>5.1}%  {:>4.1}s  {}\n",
                r.generation,
                r.images,
                r.ok,
                r.failures,
                r.timeouts,
                r.resumed,
                r.new_findings,
                r.reopened,
                r.resolved,
                r.regressions,
                r.open_vulnerable,
                100.0 * r.cache_hit_rate(),
                r.wall_ms as f64 / 1000.0,
                r.config,
            ),
        )?;
    }
    let regressions: usize = load.runs.iter().map(|r| r.regressions).sum();
    write_out(
        out,
        &format!("{} run(s), {} regression(s) across history\n", load.runs.len(), regressions),
    )?;
    Ok(0)
}

fn cmd_unpack(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("unpack: missing image path")?;
    let data = std::fs::read(path.as_str()).map_err(|e| format!("read {path}: {e}"))?;
    let img = extract_image(&data).map_err(|e| e.to_string())?;
    write_out(
        out,
        &format!(
            "{} {} {} ({:?}, {} files)\n",
            img.metadata.vendor,
            img.metadata.product,
            img.metadata.version,
            img.metadata.arch,
            img.files.len()
        ),
    )?;
    let dir = flag_value(rest, "--out");
    for f in &img.files {
        write_out(out, &format!("  {:>8}  {}\n", f.data.len(), f.path))?;
        if let Some(dir) = dir {
            let dest = std::path::Path::new(dir).join(&f.path);
            if let Some(parent) = dest.parent() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            std::fs::write(&dest, &f.data).map_err(|e| e.to_string())?;
        }
    }
    Ok(0)
}

fn cmd_info(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("info: missing input path")?;
    let data = std::fs::read(path.as_str()).map_err(|e| format!("read {path}: {e}"))?;
    let sigs = scan(&data);
    write_out(out, &format!("{path}: {} bytes, {} signature(s)\n", data.len(), sigs.len()))?;
    for s in &sigs {
        write_out(out, &format!("  {:#010x}  {:?}\n", s.offset, s.kind))?;
    }
    for (name, bin) in load_binaries(path).unwrap_or_default() {
        write_out(out, &format!("\nbinary {name}: {} entry {:#x}\n", bin.arch, bin.entry))?;
        for s in &bin.sections {
            write_out(
                out,
                &format!("  section {:<8} {:#010x} {:>8} bytes\n", s.name, s.addr, s.size),
            )?;
        }
        write_out(
            out,
            &format!("  {} functions, {} imports\n", bin.functions().len(), bin.imports.len()),
        )?;
    }
    Ok(0)
}

fn cmd_disasm(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("disasm: missing binary path")?;
    let bins = load_binaries(path)?;
    let (_, bin) = &bins[0];
    match pos.get(1) {
        Some(func) => {
            let lines = disasm::disassemble_function(bin, func)
                .ok_or_else(|| format!("no function `{func}`"))?;
            for l in lines {
                match l.call_target {
                    Some(t) => write_out(
                        out,
                        &format!("{:#010x}: {:08x}  {:<28} ; → {t}\n", l.addr, l.word, l.text),
                    )?,
                    None => {
                        write_out(out, &format!("{:#010x}: {:08x}  {}\n", l.addr, l.word, l.text))?
                    }
                }
            }
        }
        None => write_out(out, &disasm::listing(bin))?,
    }
    Ok(0)
}

fn cmd_gen(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let index: usize = pos
        .first()
        .ok_or("gen: missing profile index (1..6)")?
        .parse()
        .map_err(|_| "gen: index must be 1..6".to_owned())?;
    if !(1..=6).contains(&index) {
        return Err("gen: index must be 1..6".into());
    }
    let dest = flag_value(rest, "--out").ok_or("gen: missing --out PATH")?;
    let profile = dtaint_fwgen::table2_profiles().remove(index - 1);
    let mut fw = dtaint_fwgen::build_firmware(&profile);
    // Deliberate damage, for exercising the fault-tolerant scan path
    // (CI smoke, demos): the mutated executable replaces the pristine
    // one inside the packed image.
    if let Some(kind) = flag_value(rest, "--corrupt") {
        let fault = match kind {
            "garbage-fn" => dtaint_fwgen::BinFault::GarbageOpcodes { index: 1, seed: 7 },
            "dangling-symbol" => dtaint_fwgen::BinFault::DanglingSymbol,
            "overlapping-symbols" => dtaint_fwgen::BinFault::OverlappingSymbols,
            other => {
                return Err(format!(
                "gen: unknown --corrupt `{other}` (garbage-fn|dangling-symbol|overlapping-symbols)"
            ))
            }
        };
        let mutant = dtaint_fwgen::corrupt_binary(&fw.binary, &fault).to_bytes();
        for f in &mut fw.image.files {
            if f.data.starts_with(&dtaint_fwbin::fbf::FBF_MAGIC) {
                f.data = mutant.clone();
            }
        }
    }
    std::fs::write(dest, fw.image.pack(false)).map_err(|e| e.to_string())?;
    let manifest = serde_json::to_string_pretty(&fw.ground_truth).map_err(|e| e.to_string())?;
    let manifest_path = format!("{dest}.truth.json");
    std::fs::write(&manifest_path, manifest).map_err(|e| e.to_string())?;
    write_out(
        out,
        &format!(
            "wrote {} ({} {}, {} functions) and {}\n",
            dest,
            profile.manufacturer,
            profile.firmware_version,
            profile.total_functions,
            manifest_path
        ),
    )?;
    Ok(0)
}

fn cmd_corpus(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let n = flag_number(rest, "corpus", "--n", 2000)?;
    let seed = flag_number(rest, "corpus", "--seed", 7)?;
    let corpus = generate_corpus(&CorpusConfig { n_images: n, seed, ..Default::default() });
    let stats = triage(&corpus);
    write_out(out, "year  total  unpacked  emulated\n")?;
    for (year, s) in &stats {
        write_out(out, &format!("{year}  {:>5}  {:>8}  {:>8}\n", s.total, s.unpacked, s.emulated))?;
    }
    let total: usize = stats.values().map(|s| s.total).sum();
    let emulated: usize = stats.values().map(|s| s.emulated).sum();
    write_out(
        out,
        &format!(
            "emulation success: {emulated}/{total} ({:.1}%)\n",
            100.0 * emulated as f64 / total as f64
        ),
    )?;
    Ok(0)
}

fn cmd_defs(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("defs: missing binary path")?;
    let func = pos.get(1).ok_or("defs: missing function name")?;
    let bins = load_binaries(path)?;
    let (_, bin) = &bins[0];
    let sym = bin.function(func).ok_or_else(|| format!("no function `{func}`"))?;
    let cfg = dtaint_cfg::build_function_cfg(bin, sym).map_err(|e| e.to_string())?;
    let mut pool = dtaint_symex::ExprPool::new();
    let summary =
        dtaint_symex::analyze_function(bin, &cfg, &mut pool, &dtaint_symex::SymexConfig::default());
    write_out(out, &summary.render(&pool))?;
    Ok(0)
}

fn cmd_validate(rest: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("validate: missing binary path")?;
    let bins = load_binaries(path)?;
    let (_, bin) = &bins[0];
    let entry = pos
        .get(1)
        .map(|s| s.to_string())
        .or_else(|| bin.function_at(bin.entry).map(|s| s.name.clone()))
        .ok_or("validate: no entry function")?;
    let mut attack = AttackConfig::default();
    poison_all_rodata_names(bin, &mut attack);
    let verdict = emu_validate(bin, &entry, &attack);
    write_out(out, &format!("{verdict:?}\n"))?;
    Ok(match verdict {
        Verdict::NoEffect => 0,
        _ => 2,
    })
}

/// Convenience for tests: runs a command line and captures stdout.
pub fn run_captured(args: &[&str]) -> (Result<i32, String>, String) {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run(&owned, &mut buf);
    (code, String::from_utf8_lossy(&buf).into_owned())
}

/// Re-export for `main.rs` and tests that need to pack images.
pub fn pack_image(img: &FwImage, encrypted: bool) -> Vec<u8> {
    img.pack(encrypted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dtaint-cli-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Tests run in parallel and share the path, so the image is written
    /// aside and renamed into place: a concurrent scan never reads a
    /// half-written file.
    fn small_image_path() -> String {
        let mut profile = dtaint_fwgen::table2_profiles().remove(0);
        profile.total_functions = 60;
        let fw = dtaint_fwgen::build_firmware(&profile);
        let p = tmpdir().join("dir645.fwi");
        let aside = p.with_extension(format!("{:?}", std::thread::current().id()));
        std::fs::write(&aside, fw.image.pack(false)).unwrap();
        std::fs::rename(&aside, &p).unwrap();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_captured(&["help"]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("usage: dtaint"));
    }

    #[test]
    fn unknown_command_errors() {
        let (code, _) = run_captured(&["frobnicate"]);
        assert!(code.is_err());
    }

    #[test]
    fn scan_reports_findings_and_exit_code() {
        let p = small_image_path();
        let (code, out) = run_captured(&["scan", &p]);
        assert_eq!(code, Ok(2), "vulnerabilities present → exit 2");
        assert!(out.contains("VULNERABLE"), "{out}");
        assert!(out.contains("source"), "trace lines present: {out}");
    }

    #[test]
    fn scan_prints_stage_breakdown_and_honors_threads() {
        let p = small_image_path();
        let (code, seq) = run_captured(&["scan", &p, "--threads", "1"]);
        assert_eq!(code, Ok(2));
        assert!(seq.contains("stages:"), "{seq}");
        assert!(seq.contains("propagate"), "{seq}");
        let (code, par) = run_captured(&["scan", &p, "--threads", "4"]);
        assert_eq!(code, Ok(2));
        // Findings (every line after the summary/stage header) must be
        // identical regardless of thread count.
        let body = |s: &str| s.lines().skip(2).map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(body(&seq), body(&par));
        let (code, _) = run_captured(&["scan", &p, "--threads", "zero"]);
        assert!(code.is_err());
    }

    #[test]
    fn non_numeric_values_of_numeric_flags_are_usage_errors() {
        let dir = tmpdir().join("numeric-flags");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        for (args, err) in [
            (vec!["scan", "fw.bin", "--threads", "zero"], "scan: --threads expects a number"),
            (vec!["batch", d, "--jobs", "two"], "batch: --jobs expects a number"),
            (vec!["batch", d, "--threads", "1.5"], "batch: --threads expects a number"),
            (vec!["batch", d, "--deadline-secs", "-1"], "batch: --deadline-secs expects a number"),
            (vec!["corpus", "--n", "abc"], "corpus: --n expects a number"),
            (vec!["corpus", "--seed", "7x"], "corpus: --seed expects a number"),
        ] {
            assert_eq!(run_captured(&args).0, Err(err.to_owned()), "{args:?}");
        }
        let (code, out) = run_captured(&["corpus", "--n", "20", "--seed", "3"]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("emulation success"), "{out}");
    }

    #[test]
    fn trailing_value_flag_is_a_usage_error() {
        let p = small_image_path();
        let dir = tmpdir().join("trailing-flag");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(&p, dir.join("a.fwi")).unwrap();
        let d = dir.to_string_lossy().into_owned();
        for args in [
            vec!["scan", p.as_str(), "--threads"],
            vec!["scan", p.as_str(), "--json", "--trace-out"],
            vec!["batch", d.as_str(), "--jobs"],
            vec!["batch", d.as_str(), "--threads"],
        ] {
            let (code, out) = run_captured(&args);
            let err = code.expect_err(&format!("{args:?} must fail"));
            assert!(err.contains("expects a value"), "{args:?}: {err}");
            assert!(out.is_empty(), "{args:?} must not scan: {out}");
        }
        assert!(!dir.join(".dtaint-store").exists(), "batch never opened its store");
    }

    #[test]
    fn scan_interval_guards_prints_absint_line_and_stays_deterministic() {
        let p = small_image_path();
        let (code, seq) = run_captured(&["scan", &p, "--interval-guards", "--threads", "1"]);
        assert_eq!(code, Ok(2));
        assert!(seq.contains("interval: absint"), "{seq}");
        assert!(seq.contains("infeasible path(s) suppressed"), "{seq}");
        let (code, par) = run_captured(&["scan", &p, "--interval-guards", "--threads", "4"]);
        assert_eq!(code, Ok(2));
        // Skip summary, stage and interval-timing headers: the findings
        // themselves must be identical regardless of thread count.
        let body = |s: &str| s.lines().skip(3).map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(body(&seq), body(&par));
    }

    #[test]
    fn scan_markdown_renders() {
        let p = small_image_path();
        let (code, out) = run_captured(&["scan", &p, "--md"]);
        assert_eq!(code, Ok(2));
        assert!(out.contains("# DTaint report"), "{out}");
        assert!(out.contains("## Vulnerabilities"));
    }

    #[test]
    fn scan_json_is_parseable() {
        let p = small_image_path();
        let (code, out) = run_captured(&["scan", &p, "--json"]);
        assert_eq!(code, Ok(2));
        let report = dtaint_core::AnalysisReport::from_json(out.trim()).unwrap();
        assert!(report.vulnerabilities() > 0);
    }

    #[test]
    fn scan_sarif_out_writes_schema_shaped_document() {
        let p = small_image_path();
        let dest = tmpdir().join("scan.sarif");
        let (code, _) = run_captured(&["scan", &p, "--sarif-out", dest.to_str().unwrap()]);
        assert_eq!(code, Ok(2), "exit code still reflects the findings");
        let text = std::fs::read_to_string(&dest).unwrap();
        assert!(text.contains("\"$schema\""), "schema stamped");
        assert!(text.contains("sarif-schema-2.1.0"), "2.1.0 schema URI");
        assert!(text.contains("\"codeFlows\""), "evidence chains exported");
        assert!(text.contains("dtaint/findingIdentity/v1"), "partial fingerprints present");
        assert!(text.contains("\"error\""), "vulnerable findings are errors");
    }

    #[test]
    fn explain_renders_numbered_evidence_and_filters_by_fingerprint() {
        let p = small_image_path();
        let (_, json) = run_captured(&["scan", &p, "--json"]);
        let rp = tmpdir().join("explain-report.json");
        std::fs::write(&rp, &json).unwrap();
        let path = rp.to_string_lossy().into_owned();
        let (code, out) = run_captured(&["explain", &path]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("finding "), "{out}");
        assert!(out.contains("tainted expression:"), "{out}");
        assert!(out.contains("verdict:"), "chains end in the verdict: {out}");
        assert!(out.contains("   1. "), "steps are numbered: {out}");
        // --finding narrows to one fingerprint (prefix match).
        let report = AnalysisReport::from_json(json.trim()).unwrap();
        let fp = report.findings[0].fingerprint.clone();
        let (code, out) = run_captured(&["explain", &path, "--finding", &fp[..8]]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains(&fp), "{out}");
        let (code, _) = run_captured(&["explain", &path, "--finding", "zzzzzz"]);
        assert!(code.is_err(), "unmatched fingerprint prefix is an error");
    }

    #[test]
    fn scan_audit_out_writes_jsonl_and_why_narrates() {
        let p = small_image_path();
        let audit = tmpdir().join("scan.audit.jsonl");
        let (code, json) =
            run_captured(&["scan", &p, "--json", "--audit-out", audit.to_str().unwrap()]);
        assert_eq!(code, Ok(2));
        let report = AnalysisReport::from_json(json.trim()).unwrap();
        assert!(!report.decisions.is_empty(), "audit scans embed decisions");
        let text = std::fs::read_to_string(&audit).unwrap();
        assert_eq!(text.lines().count(), report.decisions.len(), "one JSONL line per decision");
        assert!(text.contains("\"v\":"), "versioned schema: {text}");

        let rp = tmpdir().join("why-report.json");
        std::fs::write(&rp, &json).unwrap();
        let path = rp.to_string_lossy().into_owned();
        let (code, out) = run_captured(&["why", &path]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("decision(s)"), "{out}");
        assert!(out.contains("coverage:"), "{out}");
        assert!(out.contains("hint: `dtaint explain"), "{out}");
        // Narrowing by the first decision's function keeps only its
        // lines; an address nobody decided on is an error, as is an
        // unparseable one.
        let d = &report.decisions[0];
        let (code, out) = run_captured(&["why", &path, "--fn", &d.function]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains(&format!("in `{}`", d.function)), "{out}");
        let (code, _) = run_captured(&["why", &path, "--sink", "0xdeadbeef"]);
        assert!(code.is_err(), "unmatched sink address is an error");
        let (code, _) = run_captured(&["why", &path, "--sink", "nonsense"]);
        assert!(code.is_err(), "unparseable address is a usage error");
    }

    #[test]
    fn why_without_audit_decisions_is_a_helpful_error() {
        let p = small_image_path();
        let (_, json) = run_captured(&["scan", &p, "--json"]);
        let report = AnalysisReport::from_json(json.trim()).unwrap();
        assert!(report.decisions.is_empty(), "audit is off by default");
        let rp = tmpdir().join("no-audit.json");
        std::fs::write(&rp, &json).unwrap();
        let (code, _) = run_captured(&["why", rp.to_str().unwrap()]);
        let err = code.unwrap_err();
        assert!(err.contains("--audit-out"), "error names the fix: {err}");
    }

    #[test]
    fn batch_audit_dir_writes_per_image_decision_logs() {
        let (dir, full, _) = corpus_dir("audit");
        std::fs::write(dir.join("router.fwi"), &full).unwrap();
        let d = dir.to_str().unwrap().to_owned();
        let adir = dir.join("audits");
        let (code, out) = run_captured(&["batch", &d, "--audit-dir", adir.to_str().unwrap()]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains(" dup "), "suppression counters in the console line: {out}");
        assert!(out.contains(" inf "), "{out}");
        let log = std::fs::read_to_string(adir.join("router.audit.jsonl")).unwrap();
        assert!(!log.trim().is_empty(), "decisions recorded for the image");
        // The per-image report embeds the same decisions.
        let rtext = std::fs::read_to_string(dir.join(".dtaint-store/reports/router.json")).unwrap();
        assert!(rtext.contains("\"decisions\""), "{rtext}");
        // corpus.json carries the suppression rollup fields.
        let corpus =
            std::fs::read_to_string(dir.join(".dtaint-store/reports/corpus.json")).unwrap();
        assert!(corpus.contains("\"duplicates_suppressed\""), "{corpus}");
        assert!(corpus.contains("\"infeasible_suppressed\""), "{corpus}");
    }

    #[test]
    fn diff_identical_reports_is_empty_and_exits_zero() {
        let p = small_image_path();
        let (_, json) = run_captured(&["scan", &p, "--json"]);
        let a = tmpdir().join("diff-base.json");
        let b = tmpdir().join("diff-cur.json");
        std::fs::write(&a, &json).unwrap();
        std::fs::write(&b, &json).unwrap();
        let (code, out) = run_captured(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("no finding differences"), "{out}");
        assert!(out.contains("no regressions"), "{out}");
    }

    #[test]
    fn diff_same_file_fast_path_notes_and_counts_fingerprints() {
        let p = small_image_path();
        let (_, json) = run_captured(&["scan", &p, "--json"]);
        let a = tmpdir().join("diff-self.json");
        std::fs::write(&a, &json).unwrap();
        let path = a.to_str().unwrap();
        let (code, out) = run_captured(&["diff", path, path]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("note: baseline and current are the same file"), "{out}");
        assert!(out.contains("no finding differences:"), "{out}");
        assert!(out.contains("fingerprint(s) match with identical verdicts"), "{out}");
        assert!(out.contains("no regressions"), "{out}");
    }

    /// Builds a small corpus directory holding the profile-1 image and
    /// a findings-free variant of it (same binary name, no plants) for
    /// regression testing.
    fn corpus_dir(tag: &str) -> (std::path::PathBuf, Vec<u8>, Vec<u8>) {
        let dir = tmpdir().join(format!("corpus-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut profile = dtaint_fwgen::table2_profiles().remove(0);
        profile.total_functions = 50;
        let full = dtaint_fwgen::build_firmware(&profile).image.pack(false);
        profile.plants.clear();
        profile.extra_paths = 0;
        let benign = dtaint_fwgen::build_firmware(&profile).image.pack(false);
        (dir, full, benign)
    }

    #[test]
    fn batch_cold_then_warm_reuses_the_cache_and_stays_quiet() {
        let (dir, full, _) = corpus_dir("warm");
        std::fs::write(dir.join("router.fwi"), &full).unwrap();
        let d = dir.to_str().unwrap().to_owned();
        let (code, out) = run_captured(&["batch", &d, "--jobs", "2"]);
        assert_eq!(code, Ok(0), "baseline run never regresses: {out}");
        assert!(out.contains("[baseline]"), "{out}");
        assert!(out.contains("corpus: 1 image(s)"), "{out}");
        let report = dir.join(".dtaint-store/reports/router.json");
        assert!(report.exists(), "per-image report written");
        let corpus = dir.join(".dtaint-store/reports/corpus.json");
        assert!(corpus.exists(), "corpus summary written");
        // Warm re-run: no finding churn, and the cache serves summaries.
        let (code, out) = run_captured(&["batch", &d, "--jobs", "2"]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("0 new, 0 reopened, 0 resolved"), "{out}");
        let text = std::fs::read_to_string(&corpus).unwrap();
        assert!(text.contains("\"sym_misses\": 0"), "warm run misses nothing: {text}");
        assert!(text.contains("\"ddg_misses\": 0"), "warm run misses nothing: {text}");
        assert!(!text.contains("\"sym_hits\": 0,"), "warm run hits the cache: {text}");
    }

    #[test]
    fn batch_no_cache_scans_cold() {
        let (dir, full, _) = corpus_dir("nocache");
        std::fs::write(dir.join("router.fwi"), &full).unwrap();
        let d = dir.to_str().unwrap().to_owned();
        let _ = run_captured(&["batch", &d, "--no-cache"]);
        let (code, out) = run_captured(&["batch", &d, "--no-cache"]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("cache sym 0/0 ddg 0/0"), "no probes at all: {out}");
        assert!(out.contains("(0 entries)"), "nothing persisted: {out}");
    }

    #[test]
    fn batch_tracks_regressions_across_versions() {
        let (dir, full, benign) = corpus_dir("reg");
        let img = dir.join("router.fwi");
        let d = dir.to_str().unwrap().to_owned();
        // Baseline: the benign build of the image.
        std::fs::write(&img, &benign).unwrap();
        let (code, out) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(0), "{out}");
        // The vendor ships a vulnerable update: every planted finding
        // is new — a regression, exit 2.
        std::fs::write(&img, &full).unwrap();
        let (code, out) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(2), "{out}");
        assert!(out.contains("REGRESSION"), "{out}");
        // Re-scanning the same version is quiet again.
        let (code, out) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("0 new, 0 reopened"), "{out}");
        // Reverting resolves findings (not a regression), and shipping
        // the vulnerable build again re-opens them.
        std::fs::write(&img, &benign).unwrap();
        let (code, out) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(0), "fixes are not regressions: {out}");
        assert!(out.contains("resolved"), "{out}");
        std::fs::write(&img, &full).unwrap();
        let (code, out) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(2), "re-opened findings regress: {out}");
        assert!(out.contains("reopened"), "{out}");
    }

    #[test]
    fn batch_isolates_a_broken_image_and_exits_4() {
        let (dir, full, _) = corpus_dir("broken");
        std::fs::write(dir.join("good.fwi"), &full).unwrap();
        std::fs::write(dir.join("bad.fwi"), b"this is not a firmware image").unwrap();
        let d = dir.to_str().unwrap().to_owned();
        let (code, out) = run_captured(&["batch", &d, "--jobs", "2"]);
        assert_eq!(code, Ok(4), "failures exit 4: {out}");
        assert!(out.contains("!! bad:"), "{out}");
        assert!(out.contains("== good:"), "the good image still scanned: {out}");
        assert!(out.contains("1 failure(s)"), "{out}");
        let (code, _) = run_captured(&["batch", dir.join("empty").to_str().unwrap()]);
        assert!(code.is_err(), "unreadable/empty corpus is a usage error");
    }

    #[test]
    fn batch_observability_artifacts_parse_and_lint() {
        let (dir, full, _) = corpus_dir("obs");
        std::fs::write(dir.join("router.fwi"), &full).unwrap();
        let d = dir.to_str().unwrap().to_owned();
        let status = dir.join("hb.json");
        let prom = dir.join("metrics.prom");
        let rollup = dir.join("rollup.json");
        let trace = dir.join("trace.json");
        let (code, out) = run_captured(&[
            "batch",
            &d,
            "--jobs",
            "2",
            "--status-out",
            status.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
            "--metrics-out",
            rollup.to_str().unwrap(),
            "--trace-chrome",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("inv 0"), "invalidation count in console: {out}");

        // The final heartbeat: phase "done", all images accounted for,
        // written both to --status-out and the store's status.json.
        let hb: dtaint_telemetry::Heartbeat =
            serde_json::from_str(&std::fs::read_to_string(&status).unwrap()).unwrap();
        assert_eq!(hb.phase, "done");
        assert_eq!((hb.done, hb.total, hb.ok), (1, 1, 1));
        assert!(std::fs::read_to_string(dir.join(".dtaint-store/status.json"))
            .unwrap()
            .contains("\"phase\": \"done\""));

        // The Prometheus textfile passes the exposition-format lint and
        // carries the batch gauges.
        let text = std::fs::read_to_string(&prom).unwrap();
        dtaint_telemetry::lint_textfile(&text).unwrap();
        assert!(text.contains("dtaint_batch_images"), "{text}");
        assert!(text.contains("# TYPE"), "{text}");

        // The rollup is a plain MetricsRegistry of logical counters.
        let reg: dtaint_telemetry::MetricsRegistry =
            serde_json::from_str(&std::fs::read_to_string(&rollup).unwrap()).unwrap();
        assert!(reg.counter("symex.blocks_executed") > 0, "logical counters present");

        // The Chrome trace has the batch root span plus one image span.
        let tr = std::fs::read_to_string(&trace).unwrap();
        assert!(tr.contains("\"batch\""), "{tr}");
        assert!(tr.contains("\"router\""), "{tr}");

        // corpus.json now embeds the rollup and invalidation counts.
        let corpus =
            std::fs::read_to_string(dir.join(".dtaint-store/reports/corpus.json")).unwrap();
        assert!(corpus.contains("\"metrics\""), "{corpus}");
        assert!(corpus.contains("\"invalidations\""), "{corpus}");
    }

    #[test]
    fn status_and_history_inspect_a_finished_store() {
        let (dir, full, benign) = corpus_dir("stat");
        let img = dir.join("router.fwi");
        std::fs::write(&img, &benign).unwrap();
        let d = dir.to_str().unwrap().to_owned();
        let store = dir.join(".dtaint-store");
        let s = store.to_str().unwrap().to_owned();

        // Before any run the store does not exist: usage error, and
        // `status` must not create it.
        let (code, _) = run_captured(&["status", &s]);
        assert!(code.is_err(), "missing store is an error");
        assert!(!store.exists(), "status never creates a store");

        let (code, out) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(0), "{out}");
        std::fs::write(&img, &full).unwrap();
        let (code, _) = run_captured(&["batch", &d]);
        assert_eq!(code, Ok(2), "vulnerable update regresses");

        // A finished store: no live run, journal cleared, final
        // heartbeat retained.
        let (code, out) = run_captured(&["status", &s]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("no live batch"), "{out}");
        assert!(out.contains("heartbeat: done"), "{out}");
        assert!(out.contains("journal: empty"), "{out}");

        // History shows both runs, with the regression in the second.
        let (code, out) = run_captured(&["history", &s]);
        assert_eq!(code, Ok(0), "{out}");
        assert!(out.contains("2 run(s)"), "{out}");
        assert!(out.contains("1 regression(s)"), "{out}");
        assert!(out.contains("config"), "table header present: {out}");

        let (code, _) = run_captured(&["history", dir.join("nope").to_str().unwrap()]);
        assert!(code.is_err(), "missing store is an error");
    }

    #[test]
    fn diff_flags_new_vulnerable_findings_as_regressions() {
        let p = small_image_path();
        // Baseline: the scan restricted to a non-existent function, so
        // nothing is analyzed; current: the full scan. Every vulnerable
        // finding is new — a regression, exit 2. Reversed, the findings
        // are all "fixed": reportable, but not a regression.
        let (_, base_json) = run_captured(&["scan", &p, "--json", "--filter", "no-such-fn"]);
        let (_, cur_json) = run_captured(&["scan", &p, "--json"]);
        let a = tmpdir().join("reg-base.json");
        let b = tmpdir().join("reg-cur.json");
        std::fs::write(&a, &base_json).unwrap();
        std::fs::write(&b, &cur_json).unwrap();
        let (code, out) = run_captured(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(code, Ok(2), "{out}");
        assert!(out.contains("new finding(s):"), "{out}");
        assert!(out.contains("  + "), "{out}");
        assert!(out.contains("regression(s)"), "{out}");
        assert!(out.contains("counter delta(s):"), "counters differ too: {out}");
        let (code, out) = run_captured(&["diff", b.to_str().unwrap(), a.to_str().unwrap()]);
        assert_eq!(code, Ok(0), "disappearing findings are fixes: {out}");
        assert!(out.contains("fixed finding(s):"), "{out}");
        let (code, _) = run_captured(&["diff", a.to_str().unwrap()]);
        assert!(code.is_err(), "missing current path is a usage error");
    }

    #[test]
    fn unpack_lists_and_writes_files() {
        let p = small_image_path();
        let dir = tmpdir().join("rootfs");
        let (code, out) = run_captured(&["unpack", &p, "--out", dir.to_str().unwrap()]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("bin/cgibin"));
        assert!(dir.join("bin/cgibin").exists());
    }

    #[test]
    fn info_shows_signatures_and_sections() {
        let p = small_image_path();
        let (code, out) = run_captured(&["info", &p]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("FwImage"));
        assert!(out.contains(".text"));
    }

    #[test]
    fn disasm_prints_listing_and_single_function() {
        let p = small_image_path();
        let (code, out) = run_captured(&["disasm", &p]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("<main>:"));
        let (code, out) = run_captured(&["disasm", &p, "main"]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("jal") || out.contains("bl"));
    }

    #[test]
    fn gen_writes_image_and_manifest() {
        let dest = tmpdir().join("gen2.fwi");
        // Profile 2 is small enough for a test.
        let (code, out) = run_captured(&["gen", "2", "--out", dest.to_str().unwrap()]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("wrote"));
        assert!(dest.exists());
        let manifest = std::fs::read_to_string(format!("{}.truth.json", dest.display())).unwrap();
        assert!(manifest.contains("entry_fn"));
    }

    #[test]
    fn gen_corrupt_writes_a_damaged_image() {
        let dest = tmpdir().join("gen2-corrupt.fwi");
        let (code, _) = run_captured(&[
            "gen",
            "2",
            "--out",
            dest.to_str().unwrap(),
            "--corrupt",
            "dangling-symbol",
        ]);
        assert_eq!(code, Ok(0));
        let data = std::fs::read(&dest).unwrap();
        let img = extract_image(&data).unwrap();
        let bins = extract_binaries(&img).unwrap();
        assert!(bins[0].1.function("phantom").is_some(), "mutation reached the packed binary");
        let (code, _) =
            run_captured(&["gen", "2", "--out", dest.to_str().unwrap(), "--corrupt", "nonsense"]);
        assert!(code.is_err(), "unknown fault names are usage errors");
    }

    #[test]
    fn corpus_prints_yearly_stats() {
        let (code, out) = run_captured(&["corpus", "--n", "300", "--seed", "3"]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("emulation success"));
        assert!(out.contains("2009"));
    }

    #[test]
    fn validate_flags_vulnerable_binaries() {
        let p = small_image_path();
        // Extract the inner binary to a file first.
        let data = std::fs::read(&p).unwrap();
        let img = extract_image(&data).unwrap();
        let bins = extract_binaries(&img).unwrap();
        let bp = tmpdir().join("cgibin.fbf");
        std::fs::write(&bp, bins[0].1.to_bytes()).unwrap();
        let (code, out) = run_captured(&["validate", bp.to_str().unwrap(), "main"]);
        assert_eq!(code, Ok(2), "{out}");
        assert!(out.contains("MemoryCorruption") || out.contains("CommandInjected"), "{out}");
    }

    #[test]
    fn defs_renders_figure6_style_summary() {
        let p = small_image_path();
        let (code, out) = run_captured(&["defs", &p, "main"]);
        assert_eq!(code, Ok(0));
        assert!(out.contains("definition pairs"), "{out}");
        assert!(out.contains("deref("), "{out}");
        let (code, _) = run_captured(&["defs", &p, "nonexistent"]);
        assert!(code.is_err());
    }

    #[test]
    fn scan_partial_coverage_prints_skip_table_and_exits_4() {
        // A phantom function whose body lies outside every section:
        // lifting it must fail, and with the scan filtered to it alone
        // there are no findings — "clean but partial", exit 4.
        let mut profile = dtaint_fwgen::table2_profiles().remove(0);
        profile.total_functions = 40;
        let fw = dtaint_fwgen::build_firmware(&profile);
        let mutant =
            dtaint_fwgen::corrupt_binary(&fw.binary, &dtaint_fwgen::BinFault::DanglingSymbol);
        let p = tmpdir().join("dangling.fbf");
        std::fs::write(&p, mutant.to_bytes()).unwrap();
        let path = p.to_string_lossy().into_owned();
        let (code, out) = run_captured(&["scan", &path, "--filter", "phantom"]);
        assert_eq!(code, Ok(4), "{out}");
        assert!(out.contains("coverage: 0/1 function(s) analyzed"), "{out}");
        assert!(out.contains("lift-failed"), "{out}");
        assert!(out.contains("phantom"), "{out}");
        // The same scan under --fail-fast aborts with the lift error.
        let (code, _) = run_captured(&["scan", &path, "--filter", "phantom", "--fail-fast"]);
        assert!(code.is_err(), "fail-fast propagates the lift failure");
        // The full unfiltered scan still finds the planted vulns: the
        // vulnerability exit code dominates the partial-coverage one.
        let (code, out) = run_captured(&["scan", &path]);
        assert_eq!(code, Ok(2), "{out}");
        assert!(out.contains("coverage:"), "{out}");
        let (code, _) = run_captured(&["scan", &path, "--keep-going", "--fail-fast"]);
        assert!(code.is_err(), "the two policies are mutually exclusive");
    }

    #[test]
    fn scan_with_validate_runs_the_emulator() {
        let p = small_image_path();
        let (code, out) = run_captured(&["scan", &p, "--validate"]);
        assert_eq!(code, Ok(2));
        assert!(out.contains("dynamic validation"), "{out}");
    }
}
