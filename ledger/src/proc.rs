//! `dtaint` child processes, each started through a small helper so that
//! its peak resident set is its own.
//!
//! On `exec`, Linux folds the peak RSS of the address space being
//! replaced into the process's `maxrss`, and a spawned child starts from
//! its parent's address space. A `dtaint` spawned straight from the
//! benchmark would therefore report at least the benchmark's own peak
//! (generated images, parsed reports, the calibration buffer). Instead the
//! benchmark re-executes itself as a helper — a fresh process a few MiB
//! in size — which spawns `dtaint`, times it from spawn to exit, reads
//! `getrusage(RUSAGE_CHILDREN)` for its only child, writes both to a
//! report file and exits with the child's exit code.

use std::ffi::{OsStr, OsString};
use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// First argument that switches the ledger into helper mode.
pub const HELPER_ARG: &str = "--reap-child";

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux `struct rusage`: two timevals, then fourteen `long` counters
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

const RUSAGE_CHILDREN: c_int = -1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// What one finished child left behind.
pub struct Finished {
    /// The child's exit status, as the helper passed it on.
    pub status: ExitStatus,
    /// Wall time from spawn to exit of the child, in seconds.
    pub wall_s: f64,
    /// Peak resident set of the child, in KiB.
    pub max_rss_kib: u64,
    /// Everything the child wrote to stdout (empty unless captured).
    pub stdout: Vec<u8>,
}

/// Runs `program args` to completion through the helper. Stdin is
/// closed; stdout is captured when `capture` is set and discarded
/// otherwise; stderr passes through. `report` is a temporary file the
/// helper writes its measurements to.
///
/// # Errors
///
/// Spawn, read and report failures, as messages.
pub fn run(
    program: &Path,
    args: &[&OsStr],
    report: &Path,
    capture: bool,
) -> Result<Finished, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(HELPER_ARG).arg(report).arg(program).args(args);
    cmd.stdin(Stdio::null()).stdout(if capture { Stdio::piped() } else { Stdio::null() });
    let mut child = cmd.spawn().map_err(|e| format!("spawn {program:?}: {e}"))?;
    let mut stdout = Vec::new();
    // Drained before waiting: a child blocked on a full pipe never exits.
    if let Some(mut out) = child.stdout.take() {
        out.read_to_end(&mut stdout).map_err(|e| format!("read stdout of {program:?}: {e}"))?;
    }
    let status = child.wait().map_err(|e| format!("wait for {program:?}: {e}"))?;
    let text = std::fs::read_to_string(report)
        .map_err(|e| format!("{program:?}: no helper report ({e}), exit {status}"))?;
    let mut fields = text.split_whitespace();
    let (Some(Ok(wall_s)), Some(Ok(max_rss_kib))) =
        (fields.next().map(str::parse), fields.next().map(str::parse))
    else {
        return Err(format!("{program:?}: malformed helper report {text:?}"));
    };
    std::fs::remove_file(report).map_err(|e| format!("remove {}: {e}", report.display()))?;
    Ok(Finished { status, wall_s, max_rss_kib, stdout })
}

/// Helper mode: `<report> <program> <args>...`. Returns the exit code to
/// leave with: the child's, or 128 plus the signal that ended it.
pub fn helper(args: &[OsString]) -> i32 {
    let [report, program, rest @ ..] = args else {
        eprintln!("ledger {HELPER_ARG}: expects a report path and a program");
        return 2;
    };
    let t0 = Instant::now();
    let status = match Command::new(program).args(rest).stdin(Stdio::null()).status() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ledger {HELPER_ARG}: spawn {program:?}: {e}");
            return 2;
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut usage = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable local with the C layout of
    // `struct rusage` on Linux, which `getrusage` fills and nothing else.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        eprintln!("ledger {HELPER_ARG}: getrusage: {}", std::io::Error::last_os_error());
        return 2;
    }
    if let Err(e) = std::fs::write(report, format!("{wall_s} {}\n", usage.ru_maxrss)) {
        eprintln!("ledger {HELPER_ARG}: write {report:?}: {e}");
        return 2;
    }
    use std::os::unix::process::ExitStatusExt;
    status.code().unwrap_or_else(|| 128 + status.signal().unwrap_or(0))
}
