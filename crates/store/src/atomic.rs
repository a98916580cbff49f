//! Durable filesystem primitives with injectable faults.
//!
//! Every store artifact (`findings.json`, `summaries.dtc`, per-image
//! reports, `corpus.json`) is written through [`atomic_write`]:
//! temp-file + fsync + rename + directory fsync, so a reader never
//! observes a half-written file — after a crash at *any* step the path
//! holds either the complete old version or the complete new one. The
//! run journal is appended through [`append_durable`] (O_APPEND +
//! fsync); a crash mid-append leaves at most one partial trailing line,
//! which the journal loader discards.
//!
//! All operations route through a [`FaultFs`], a shim over the real
//! filesystem whose [`FaultPlan`] can inject `ENOSPC`/`EINTR`-style
//! errors at any single step, or simulate the process dying at a chosen
//! point (every operation after the kill fails). Production code uses
//! the default pass-through plan; the crash-drill tests enumerate
//! failure at every write step and assert the old-or-new invariant.
//!
//! Transient errors (`EINTR`-class kinds) are retried with a short
//! bounded backoff inside [`atomic_write`]/[`append_durable`];
//! permanent ones (`ENOSPC`, injected kills) propagate to the caller.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// FNV-1a 64 over a byte slice — the store's content hash (image
/// bytes for journal entries, corrupt-db sidecar names).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One class of filesystem operation the shim can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Creating the temp file of an atomic write.
    CreateTmp,
    /// Writing the payload bytes (a failure here leaves a partial temp
    /// file, like a process dying mid-`write(2)`).
    WriteChunk,
    /// `fsync` of the temp file.
    SyncFile,
    /// The rename that publishes the new version.
    Rename,
    /// `fsync` of the containing directory.
    SyncDir,
    /// One durable journal append (open + write + fsync).
    Append,
}

/// What the shim should do to incoming operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Pass everything through (production).
    None,
    /// Fail the `index`-th checked operation (zero-based, counted
    /// across all kinds) exactly once with `kind`, then pass through.
    FailOp {
        /// Which operation to fail.
        index: u64,
        /// The injected error kind (`Interrupted` is retried by the
        /// durable writers; `StorageFull` etc. propagate).
        kind: io::ErrorKind,
    },
    /// After `appends` successful [`FsOp::Append`] operations, every
    /// subsequent operation fails — the process "died" at that commit
    /// point. `dtaint batch --drill-io kill-after-appends:N` maps here.
    KillAfterAppends {
        /// Successful appends before death.
        appends: u64,
    },
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    ops: u64,
    appends_ok: u64,
    injected: u64,
    fired: bool,
}

/// The injectable filesystem shim. One instance is shared by a
/// [`crate::StoreDir`] and everything writing through it.
#[derive(Debug)]
pub struct FaultFs {
    state: Mutex<FaultState>,
}

impl Default for FaultFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultFs {
    /// A pass-through shim (no injected faults).
    #[must_use]
    pub fn new() -> Self {
        Self::with_plan(FaultPlan::None)
    }

    /// A shim executing `plan`.
    #[must_use]
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultFs {
            state: Mutex::new(FaultState {
                plan,
                ops: 0,
                appends_ok: 0,
                injected: 0,
                fired: false,
            }),
        }
    }

    /// Errors injected so far (for asserting a drill actually fired).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.state.lock().unwrap().injected
    }

    /// Total operations checked so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Gate one operation through the plan.
    fn check(&self, op: FsOp) -> io::Result<()> {
        let mut g = self.state.lock().unwrap();
        let index = g.ops;
        g.ops += 1;
        match g.plan {
            FaultPlan::None => Ok(()),
            FaultPlan::FailOp { index: want, kind } => {
                if index == want && !g.fired {
                    g.fired = true;
                    g.injected += 1;
                    Err(io::Error::new(kind, format!("injected fault at {op:?} (op {index})")))
                } else {
                    Ok(())
                }
            }
            FaultPlan::KillAfterAppends { appends } => {
                if g.appends_ok >= appends {
                    g.injected += 1;
                    Err(io::Error::other(format!("injected kill at {op:?} (op {index})")))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Records one completed journal append (drives `KillAfterAppends`).
    fn note_append_ok(&self) {
        self.state.lock().unwrap().appends_ok += 1;
    }
}

/// Retry budget for transient errors.
const MAX_RETRIES: u32 = 3;

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn with_retries(mut body: impl FnMut() -> io::Result<()>) -> io::Result<()> {
    let mut attempt = 0u32;
    loop {
        match body() {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) && attempt < MAX_RETRIES => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(u64::from(attempt)));
            }
            Err(e) => return Err(e),
        }
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|s| s.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, directory fsync. After any
/// crash or error, `path` holds either its previous content or `bytes`,
/// never a mixture. Transient errors are retried with bounded backoff.
///
/// # Errors
///
/// Propagates persistent IO failures (the target is left untouched; a
/// stale temp file may remain and is ignored by every reader).
pub fn atomic_write(fs: &FaultFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_parts(fs, path, &[bytes])
}

/// [`atomic_write`] of the concatenation of `parts`, written in order
/// through one buffer, so a payload held in pieces is never joined in
/// memory.
///
/// # Errors
///
/// As [`atomic_write`].
pub fn atomic_write_parts(fs: &FaultFs, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    with_retries(|| {
        let tmp = tmp_path(path);
        let res = (|| {
            fs.check(FsOp::CreateTmp)?;
            let mut w = BufWriter::new(File::create(&tmp)?);
            if let Err(e) = fs.check(FsOp::WriteChunk) {
                // Simulate dying mid-write: the first half of the
                // payload lands in the temp file, which the rename never
                // publishes.
                let half = parts.iter().map(|p| p.len()).sum::<usize>() / 2;
                for p in prefix(parts, half) {
                    let _ = w.write_all(p);
                }
                let _ = w.flush();
                return Err(e);
            }
            for p in parts {
                w.write_all(p)?;
            }
            let f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
            fs.check(FsOp::SyncFile)?;
            f.sync_all()?;
            drop(f);
            fs.check(FsOp::Rename)?;
            std::fs::rename(&tmp, path)?;
            fs.check(FsOp::SyncDir)?;
            if let Some(dir) = path.parent() {
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        })();
        if res.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        res
    })
}

/// The first `n` bytes of the concatenation of `parts`, part by part.
fn prefix<'a>(parts: &[&'a [u8]], mut n: usize) -> Vec<&'a [u8]> {
    parts
        .iter()
        .map(|p| {
            let k = n.min(p.len());
            n -= k;
            &p[..k]
        })
        .collect()
}

/// Appends `bytes` to `path` durably (create + `O_APPEND` + fsync).
/// A crash mid-append leaves at most one partial trailing record.
///
/// # Errors
///
/// Propagates persistent IO failures after bounded transient retries.
pub fn append_durable(fs: &FaultFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    with_retries(|| {
        fs.check(FsOp::Append)?;
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs.note_append_ok();
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dtaint-atomic-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b"abc"), fnv64(b"abc"));
    }

    /// The acceptance drill: inject a permanent failure at every write
    /// step in turn; the target must always hold exactly the old or the
    /// new version, never a prefix or a mixture — whether the new
    /// version is written in one part, two, or many.
    #[test]
    fn failure_at_every_step_leaves_old_or_new() {
        let dir = tdir("steps");
        let target = dir.join("artifact.json");
        let old = b"OLD-CONTENT-OLD-CONTENT".to_vec();
        let new = b"NEW-CONTENT-NEW-CONTENT-LONGER".to_vec();
        let splits: [&[usize]; 3] = [&[], &[11], &[0, 1, 2, 3, 5, 8, 13, 13, 21, 30]];
        for cuts in splits {
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut at = 0;
            for &cut in cuts.iter().chain(&[new.len()]) {
                parts.push(&new[at..cut]);
                at = cut;
            }
            // 5 checked ops per atomic_write attempt.
            for step in 0..5u64 {
                atomic_write(&FaultFs::new(), &target, &old).unwrap();
                let fs = FaultFs::with_plan(FaultPlan::FailOp {
                    index: step,
                    kind: io::ErrorKind::Other,
                });
                let res = atomic_write_parts(&fs, &target, &parts);
                let on_disk = std::fs::read(&target).unwrap();
                // A failure injected after the rename (the SyncDir step)
                // legitimately leaves the new version published; every
                // earlier failure must leave the old one. Never a mixture.
                assert!(
                    on_disk == old || (on_disk == new && step == 4),
                    "{} part(s), step {step} ({res:?}): on-disk content is neither old nor \
                     complete-new",
                    parts.len()
                );
                assert_eq!(fs.injected(), 1, "step {step}: drill fired");
            }
            atomic_write_parts(&FaultFs::new(), &target, &parts).unwrap();
            assert_eq!(std::fs::read(&target).unwrap(), new, "{} part(s)", parts.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write dying at `WriteChunk` writes the first half of the
    /// concatenated payload, however it is split.
    #[test]
    fn prefix_spans_parts() {
        let parts: [&[u8]; 4] = [b"ab", b"", b"cdefg", b"hij"];
        for n in 0..=10 {
            assert_eq!(prefix(&parts, n).concat(), &b"abcdefghij"[..n], "n = {n}");
        }
    }

    #[test]
    fn first_write_failure_leaves_no_file() {
        let dir = tdir("first");
        let target = dir.join("fresh.json");
        for step in 0..4u64 {
            let fs = FaultFs::with_plan(FaultPlan::FailOp {
                index: step,
                kind: io::ErrorKind::StorageFull,
            });
            let res = atomic_write(&fs, &target, b"payload");
            if res.is_err() && step < 3 {
                assert!(!target.exists(), "step {step}: no partial file published");
            }
            std::fs::remove_file(&target).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let dir = tdir("retry");
        let target = dir.join("retried.json");
        for step in 0..5u64 {
            let fs = FaultFs::with_plan(FaultPlan::FailOp {
                index: step,
                kind: io::ErrorKind::Interrupted,
            });
            atomic_write(&fs, &target, b"payload").unwrap();
            assert_eq!(std::fs::read(&target).unwrap(), b"payload");
            assert_eq!(fs.injected(), 1, "step {step}: EINTR injected once then retried");
        }
        // Appends retry too.
        let journal = dir.join("j.jsonl");
        let fs =
            FaultFs::with_plan(FaultPlan::FailOp { index: 0, kind: io::ErrorKind::Interrupted });
        append_durable(&fs, &journal, b"line-1\n").unwrap();
        append_durable(&fs, &journal, b"line-2\n").unwrap();
        assert_eq!(std::fs::read(&journal).unwrap(), b"line-1\nline-2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_after_appends_fails_everything_after_the_commit_point() {
        let dir = tdir("kill");
        let journal = dir.join("j.jsonl");
        let fs = FaultFs::with_plan(FaultPlan::KillAfterAppends { appends: 2 });
        append_durable(&fs, &journal, b"a\n").unwrap();
        append_durable(&fs, &journal, b"b\n").unwrap();
        assert!(append_durable(&fs, &journal, b"c\n").is_err(), "dead after 2 appends");
        assert!(atomic_write(&fs, &dir.join("x"), b"x").is_err(), "all ops dead");
        assert_eq!(std::fs::read(&journal).unwrap(), b"a\nb\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
