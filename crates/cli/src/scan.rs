//! `dtaint scan`: one image or binary through the whole pipeline.

use crate::{analysis_config, export, export_with, load_binaries, Args};
use dtaint_core::{AnalysisReport, BoundsMode, Dtaint};
use dtaint_emu::{poison_all_rodata_names, validate as emu_validate, AttackConfig};
use dtaint_telemetry::{export_chrome, export_jsonl, log, Collector, SpanEvent};
use std::io::{BufWriter, Write};

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let path = args.arg(0);
    let audit_out = args.value("--audit-out");
    let sarif_out = args.value("--sarif-out");
    let trace_out = args.value("--trace-out");
    let trace_chrome = args.value("--trace-chrome");
    let profile = args.flag("--profile");
    let mut config = analysis_config(args, audit_out.is_some())?;
    config.function_filter =
        args.value("--filter").map(|f| f.split(',').map(str::to_owned).collect());
    let interval = args.flag("--interval-guards");
    if interval {
        config.dataflow.bounds = BoundsMode::Interval;
    }
    config.fail_fast = args.flag("--fail-fast");
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
        let spans_before = tel.events().len();
        let report = analyzer.analyze_traced(&bin, &name, &mut tel).map_err(|e| e.to_string())?;
        if args.flag("--json") {
            // Streamed as it is printed: the report never exists as a
            // value tree or a string.
            let mut buf = BufWriter::new(&mut *out);
            serde_json::to_writer_pretty(&mut buf, &report)
                .map_err(|e| format!("write failed: {e}"))?;
            emit!(buf, "\n")?;
            buf.flush().map_err(|e| format!("write failed: {e}"))?;
        } else if args.flag("--md") {
            emit!(out, "{}", report.to_markdown())?;
        } else {
            emit!(
                out,
                "== {name}: {} functions, {} sinks, {} vulnerable path(s), {} vulnerability(ies) [{:.2?}]\n",
                report.functions,
                report.sinks_count,
                report.vulnerable_paths().len(),
                report.vulnerabilities(),
                report.stage("scan"),
            )?;
            let t = |nm| report.stage(nm);
            emit!(
                out,
                "   stages: lift+ssa {:.2?}, callgraph {:.2?}, ddg {:.2?} (alias {:.2?}, indirect {:.2?}, propagate {:.2?}), detect {:.2?}\n",
                t("ssa"),
                t("lift_cfg"),
                t("ddg"),
                t("ddg_alias"),
                t("ddg_indirect"),
                t("ddg_propagate"),
                t("detect"),
            )?;
            if interval {
                // Logical counts only: both are identical at any thread
                // count.
                emit!(
                    out,
                    "   interval: absint {} solver pass(es), {} infeasible path(s) suppressed\n",
                    report.telemetry.metrics.counter("absint.solver_passes"),
                    report.infeasible_suppressed
                )?;
            }
            for f in &report.findings {
                emit!(out, "{f}\n")?;
                for step in &f.evidence {
                    emit!(out, "    {step}\n")?;
                }
            }
            // Only imperfect scans print coverage, so a clean scan's
            // output is byte-identical to pre-fault-tolerance builds.
            if !report.coverage_complete() || report.functions_retried > 0 {
                emit!(
                    out,
                    "   coverage: {}/{} function(s) analyzed, {} skipped, {} retried degraded\n",
                    report.functions_analyzed,
                    report.functions_analyzed + report.functions_skipped,
                    report.functions_skipped,
                    report.functions_retried
                )?;
                emit!(out, "{}", report.skip_table())?;
            }
        }
        if profile {
            let interns = tel.metrics.counter("pool.interns") - interns_before[0];
            let hits = tel.metrics.counter("pool.intern_cache_hits") - interns_before[1];
            write_profile(out, &report, &tel.events()[spans_before..], interns, hits)?;
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
        if args.flag("--validate") {
            let mut attack = AttackConfig::default();
            poison_all_rodata_names(&bin, &mut attack);
            let entry =
                bin.function_at(bin.entry).map(|s| s.name.clone()).unwrap_or_else(|| "main".into());
            let verdict = emu_validate(&bin, &entry, &attack);
            emit!(out, "dynamic validation ({entry}): {verdict:?}\n")?;
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
        let what = format!("{} audit decision(s)", audit_decisions.len());
        export_with(dest, &what, |out| export_jsonl(&audit_decisions, out))?;
    }
    if let Some(dest) = sarif_out {
        let sarif = dtaint_core::sarif::to_sarif_string(&sarif_reports);
        export(dest, sarif, &format!("SARIF ({} run(s))", sarif_reports.len()))?;
    }
    if let Some(dest) = trace_out {
        let what = format!("{} span(s)", tel.events().len());
        export_with(dest, &what, |out| export_jsonl(tel.events(), out))?;
    }
    if let Some(dest) = trace_chrome {
        export_with(dest, "Chrome trace (chrome://tracing, Perfetto)", |out| {
            export_chrome(tel.events(), out)
        })?;
    }
    if let Some(dest) = args.value("--metrics-out") {
        let json = serde_json::to_string_pretty(&tel.metrics).map_err(|e| e.to_string())?;
        export(dest, json, "metrics")?;
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
/// `spans` are the spans this binary's scan recorded, whose `symex_fn`
/// and `ddg_fn` durations the hotspot rows show; `interns` and
/// `cache_hits` are its expression-pool counts.
fn write_profile(
    out: &mut dyn Write,
    report: &AnalysisReport,
    spans: &[SpanEvent],
    interns: u64,
    cache_hits: u64,
) -> Result<(), String> {
    let total = report.stage("scan").as_micros().max(1) as f64;
    emit!(out, "   profile ({}):\n", report.binary_name)?;
    // `lift+ssa` is the fused per-function pass; `callgraph` is the
    // call-graph assembly from the shape records. Shares are of the
    // whole scan.
    for (nm, span) in
        [("lift+ssa", "ssa"), ("callgraph", "lift_cfg"), ("ddg", "ddg"), ("detect", "detect")]
    {
        let d = report.stage(span);
        emit!(out, "     {nm:<10} ~{d:.2?} ~{:.1}%\n", 100.0 * d.as_micros() as f64 / total)?;
    }
    let m = &report.telemetry.metrics;
    emit!(
        out,
        "     lift        functions {} blocks {} instructions {} nodes-translated {} interns {} intern-cache-hits {}\n",
        m.gauge("image.functions"),
        m.gauge("image.blocks"),
        m.counter("lift.instructions"),
        m.counter("symex.nodes_translated"),
        interns,
        cache_hits,
    )?;
    // Percentiles over the logical histograms (deterministic: bucket
    // upper bounds of step counts, no wall-clock involved).
    for (label, hist) in [
        ("blocks/fn", report.telemetry.metrics.histogram("symex.blocks_per_fn")),
        ("ddg-fuel/fn", report.telemetry.metrics.histogram("ddg.fuel_per_fn")),
    ] {
        if let Some(h) = hist {
            emit!(
                out,
                "     {label:<11} p50 {} p90 {} p99 {} max {}\n",
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.percentile(1.0)
            )?;
        }
    }
    emit!(
        out,
        "     indirect    installers {} sites {} layouts {} resolved {}\n",
        m.counter("ddg.indirect_installers"),
        m.counter("ddg.indirect_sites"),
        m.counter("ddg.layouts_inferred"),
        report.resolved_indirect
    )?;
    let span_us = |cat: &str, addr: u32| {
        spans
            .iter()
            .find(|e| e.cat == cat && e.args.get("addr") == Some(&u64::from(addr)))
            .map_or(0, |e| e.dur_us)
    };
    let hot = report.telemetry.hotspots(5);
    if !hot.is_empty() {
        emit!(out, "     hotspots (by logical work):\n")?;
        for f in hot {
            emit!(
                out,
                "       {:#010x} {:<24} blocks {} paths {} alias {} fuel {} sinks {} ~{}us ~{}us\n",
                f.addr,
                f.name,
                f.blocks_executed,
                f.paths_explored,
                f.alias_rewrites,
                f.ddg_fuel,
                f.sinks,
                span_us("symex_fn", f.addr),
                span_us("ddg_fn", f.addr)
            )?;
        }
    }
    Ok(())
}
