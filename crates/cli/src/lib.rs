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
//! Each command is one `COMMANDS` entry: its usage line, which is
//! also the grammar its arguments are parsed against (an undeclared
//! flag is an error), and its handler. The command logic lives in
//! [`run`] (writes to any `io::Write`), so every subcommand is testable
//! in-process; `main.rs` is a thin wrapper.

/// `write!` to a handler's output, a failed write becoming the
/// handler's error message.
macro_rules! emit {
    ($out:expr, $($fmt:tt)+) => {
        write!($out, $($fmt)+).map_err(|e| format!("write failed: {e}"))
    };
}

mod args;
mod batch;
mod report;
mod scan;
mod store;
mod tools;

use args::Args;
use dtaint_core::DtaintConfig;
use dtaint_fwbin::Binary;
use dtaint_fwimage::{extract_binaries, extract_image};
use dtaint_telemetry::log;
use std::io::Write;

/// A command's handler: reads its parsed arguments, writes its output.
type Handler = fn(&Args, &mut dyn Write) -> Result<i32, String>;

/// One subcommand.
struct Command {
    /// The usage line, starting with the command name. It is both the
    /// usage text and the parser's grammar: the flags it lists are the
    /// only ones the command accepts.
    usage: &'static str,
    /// Flags accepted but left out of the usage text, in the same
    /// syntax.
    hidden: &'static str,
    run: Handler,
}

const fn cmd(usage: &'static str, run: Handler) -> Command {
    Command { usage, hidden: "", run }
}

/// Every subcommand, in usage-text order.
const COMMANDS: &[Command] = &[
    cmd(
        concat!(
            "scan <image|binary> [--json|--md] [--filter p1,p2] [--threads N] [--interval-guards] [--validate]\n",
            "                      [--alias store|sse] [--keep-going|--fail-fast] [--profile] [--sarif-out FILE]\n",
            "                      [--trace-out FILE] [--trace-chrome FILE] [--metrics-out FILE]\n",
            "                      [--audit-out FILE]",
        ),
        scan::run,
    ),
    cmd("explain <report.json> [--finding PREFIX]", report::explain),
    cmd("why <report.json> [--sink ADDR] [--fn NAME]", report::why),
    cmd("diff <baseline.json> <current.json>", report::diff),
    Command {
        usage: concat!(
            "batch <dir> [--store DIR] [--out DIR] [--jobs N] [--threads N] [--alias store|sse] [--no-cache]\n",
            "              [--resume] [--deadline-secs N] [--status-out FILE] [--metrics-out FILE]\n",
            "              [--prom-out FILE] [--trace-chrome FILE] [--audit-dir DIR]",
        ),
        // Crash-drill hooks for tests and CI: `--drill-io` routes every
        // store write through a fault plan, `--drill-stall` makes the
        // named image hang (deadline drills).
        hidden: "[--drill-io kill-after-appends:N] [--drill-stall IMAGE]",
        run: batch::run,
    },
    cmd("status <store>", store::status),
    cmd("history <store>", store::history),
    cmd("unpack <image> [--out DIR]", tools::unpack),
    cmd("info <image|binary>", tools::info),
    cmd("disasm <binary> [FUNCTION]", tools::disasm),
    cmd(
        "gen <1..6> --out PATH [--corrupt garbage-fn|dangling-symbol|overlapping-symbols]",
        tools::gen,
    ),
    cmd("corpus [--n N] [--seed S]", tools::corpus),
    cmd("defs <binary> FUNCTION", tools::defs),
    cmd("validate <binary> [ENTRY]", tools::validate),
];

/// Usage text printed on bad invocations, built from [`COMMANDS`].
fn usage() -> String {
    let mut text = String::from("usage: dtaint [--quiet|-v] <command> [args]\n\ncommands:\n");
    for c in COMMANDS {
        text.push_str("  ");
        text.push_str(c.usage);
        text.push('\n');
    }
    text.push_str(
        "\nglobal flags:\n  --quiet   only errors on stderr\n  -v        debug chatter on stderr\n",
    );
    text
}

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
    let (name, rest) = args.split_first().ok_or_else(usage)?;
    if ["help", "--help", "-h"].contains(&name.as_str()) {
        emit!(out, "{}", usage())?;
        return Ok(0);
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.usage.split(' ').next() == Some(name.as_str()))
        .ok_or_else(|| format!("unknown command `{name}`\n{}", usage()))?;
    (command.run)(&Args::parse(command.usage, command.hidden, rest)?, out)
}

/// Writes one exporter file (`--metrics-out FILE` and the like) and
/// logs `wrote {what} to {dest}`.
fn export(dest: &str, contents: impl AsRef<[u8]>, what: &str) -> Result<(), String> {
    export_with(dest, what, |out| out.write_all(contents.as_ref()))
}

/// [`export`] for a file rendered piece by piece: `write` streams it
/// into a buffered writer on `dest`.
fn export_with(
    dest: &str,
    what: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("write {dest}: {e}");
    let mut out = std::io::BufWriter::new(std::fs::File::create(dest).map_err(fail)?);
    write(&mut out).and_then(|()| out.flush()).map_err(fail)?;
    log::info(&format!("wrote {what} to {dest}"));
    Ok(())
}

/// The analysis settings `scan` and `batch` share: `--threads`,
/// `--alias` and whether to record the audit log.
fn analysis_config(args: &Args, audit: bool) -> Result<DtaintConfig, String> {
    let mut config =
        DtaintConfig { threads: args.number("--threads", 0)?, audit, ..Default::default() };
    if let Some(mode) = args.value("--alias") {
        config.dataflow.alias.mode = mode.parse().map_err(|e| format!("{}: {e}", args.cmd))?;
    }
    Ok(config)
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

/// Convenience for tests: runs a command line and captures stdout.
pub fn run_captured(args: &[&str]) -> (Result<i32, String>, String) {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run(&owned, &mut buf);
    (code, String::from_utf8_lossy(&buf).into_owned())
}
