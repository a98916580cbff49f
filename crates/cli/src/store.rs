//! The store inspectors: `status` and `history`. Both are read-only:
//! they never take the store lock and never create a store.

use crate::Args;
use dtaint_store::StoreDir;
use dtaint_telemetry::{log, Heartbeat, ImageOutcome};
use std::io::Write;

/// Opens the existing store named by the command's `<store>` argument.
fn open_existing<'a>(args: &Args<'a>) -> Result<(&'a str, StoreDir), String> {
    let (cmd, root) = (args.cmd, args.arg(0));
    let root_path = std::path::Path::new(root);
    if !root_path.is_dir() {
        return Err(format!("{cmd}: no store at {root}"));
    }
    let store = StoreDir::open(root_path).map_err(|e| format!("{cmd}: open store {root}: {e}"))?;
    Ok((root, store))
}

/// In-flight images a `status` report flags as stragglers: anything a
/// worker has held longer than this many milliseconds.
const STRAGGLER_MS: u64 = 30_000;

/// `dtaint status <store>` — inspect a live, interrupted, or finished
/// batch from its heartbeat and journal.
pub(crate) fn status(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let (root, store) = open_existing(args)?;
    emit!(out, "store: {root}\n")?;
    match store.live_run_pid() {
        Some(pid) => emit!(out, "run: live (pid {pid})\n")?,
        None => emit!(out, "run: no live batch\n")?,
    }

    let heartbeat: Option<Heartbeat> = std::fs::read_to_string(store.status_path())
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    match &heartbeat {
        None => emit!(out, "heartbeat: none\n")?,
        Some(hb) => {
            let pct = if hb.total == 0 { 100.0 } else { 100.0 * hb.done as f64 / hb.total as f64 };
            emit!(
                out,
                "heartbeat: {} — {}/{} image(s) ({pct:.0}%), {} ok, {} failed, {} timeout(s), {} resumed\n",
                hb.phase,
                hb.done,
                hb.total,
                hb.ok,
                hb.failed,
                hb.timeouts,
                hb.resumed,
            )?;
            emit!(
                out,
                "  {:.2} images/sec, cache hits {:.1}% (sym {}/{} ddg {}/{} inv {}), config {}\n",
                hb.images_per_sec,
                100.0 * hb.cache_hit_rate,
                hb.sym_hits,
                hb.sym_hits + hb.sym_misses,
                hb.ddg_hits,
                hb.ddg_hits + hb.ddg_misses,
                hb.invalidations,
                hb.config
            )?;
            for w in &hb.workers {
                match &w.image {
                    Some(img) => {
                        let straggler =
                            if w.elapsed_ms >= STRAGGLER_MS { "  ** straggler" } else { "" };
                        emit!(
                            out,
                            "  worker {}: {img} ({:.1}s){straggler}\n",
                            w.lane,
                            w.elapsed_ms as f64 / 1000.0
                        )?;
                    }
                    None => emit!(out, "  worker {}: idle\n", w.lane)?,
                }
            }
        }
    }

    let journal = store.load_journal();
    if journal.entries.is_empty() {
        emit!(out, "journal: empty (no interrupted run)\n")?;
    } else {
        // A resumed-then-interrupted run can journal an image twice;
        // the last entry wins, matching the resume planner.
        let last: std::collections::BTreeMap<&str, &dtaint_store::JournalEntry> =
            journal.entries.iter().map(|e| (e.image.as_str(), e)).collect();
        emit!(
            out,
            "journal: {} committed image(s), {} torn line(s)\n",
            last.len(),
            journal.discarded_lines
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
            emit!(out, "  {outcome:<8} {name}{detail}\n")?;
        }
        if !timed_out.is_empty() {
            emit!(out, "timed-out image(s): {}\n", timed_out.join(", "))?;
        }
        if let Some(hb) = &heartbeat {
            let remaining = hb.total.saturating_sub(last.len());
            if hb.phase != "done" && remaining > 0 {
                emit!(out, "pending: {remaining} image(s) not yet committed\n")?;
            }
        }
    }
    Ok(0)
}

/// `dtaint history <store>` — the trend table across recorded runs.
pub(crate) fn history(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let (_, store) = open_existing(args)?;
    let load = store.load_runs();
    if load.discarded_lines > 0 {
        log::warn(&format!("history: discarded {} unreadable run line(s)", load.discarded_lines));
    }
    if load.runs.is_empty() {
        emit!(out, "history: no recorded runs\n")?;
        return Ok(0);
    }
    emit!(
        out,
        "gen   images  ok  fail  t/o  res  new  reop  rslv  regr  vuln  cache%   wall  config\n"
    )?;
    for r in &load.runs {
        emit!(
            out,
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
        )?;
    }
    let regressions: usize = load.runs.iter().map(|r| r.regressions).sum();
    emit!(out, "{} run(s), {} regression(s) across history\n", load.runs.len(), regressions)?;
    Ok(0)
}
