//! Fleet-level batch observability: a shared progress tracker, its
//! machine-readable heartbeat snapshot, and a TTY status line.
//!
//! A `dtaint batch` run over a corpus is long-lived; this module makes
//! it observable while it runs. Workers report image starts/finishes
//! into one [`FleetProgress`] (a mutex over plain counters — touched
//! once per image, never per block, so it cannot perturb analysis
//! throughput), and a reporter thread periodically takes a
//! [`Heartbeat`] snapshot to (a) render a `\r`-rewritten status line on
//! a TTY and (b) atomically rewrite a `status.json` file that external
//! monitors — and `dtaint status` — can poll.
//!
//! Everything here is **advisory**: heartbeats carry wall-clock rates
//! and ETAs and are explicitly excluded from the store's determinism
//! contract (`findings.json`/`corpus.json` byte-identity never depends
//! on them).

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// Version stamp on [`Heartbeat`]; bump on schema changes.
pub const HEARTBEAT_VERSION: u32 = 1;

/// How one image's scan ended. The one outcome type of a batch run: the
/// scan worker, the progress tracker, the run journal (re-exported as
/// `dtaint_store::JournalOutcome`, spelled `"Ok"`/`"Error"`/`"Timeout"`
/// on each line) and the corpus fold all read it. The discriminant is
/// the image span's `outcome` arg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImageOutcome {
    /// Scanned cleanly (with or without findings).
    #[default]
    Ok = 0,
    /// The image could not be scanned. Final: a resumed run does not
    /// retry it.
    Error = 1,
    /// The per-image deadline expired. Not final: a resumed run
    /// re-scans the image (wall-clock is not a property of the image).
    Timeout = 2,
}

/// Cache traffic of one image or of a whole run — the one in-memory
/// form of the five counters the serialized records spell out flat.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImageCacheStats {
    /// Per-function symbolic-summary cache hits.
    pub sym_hits: u64,
    /// Per-function symbolic-summary cache misses.
    pub sym_misses: u64,
    /// DDG slice cache hits.
    pub ddg_hits: u64,
    /// DDG slice cache misses.
    pub ddg_misses: u64,
    /// Cache entries invalidated by content/config drift.
    pub invalidations: u64,
}

impl ImageCacheStats {
    /// Fraction of hits over all cache lookups, in `[0, 1]` (0 when
    /// there were none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.sym_hits + self.ddg_hits;
        let total = hits + self.sym_misses + self.ddg_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for ImageCacheStats {
    fn add_assign(&mut self, o: ImageCacheStats) {
        self.sym_hits += o.sym_hits;
        self.sym_misses += o.sym_misses;
        self.ddg_hits += o.ddg_hits;
        self.ddg_misses += o.ddg_misses;
        self.invalidations += o.invalidations;
    }
}

/// `sym H/N ddg H/N inv I`: hits over lookups per level, then
/// invalidations.
impl std::fmt::Display for ImageCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sym {}/{} ddg {}/{} inv {}",
            self.sym_hits,
            self.sym_hits + self.sym_misses,
            self.ddg_hits,
            self.ddg_hits + self.ddg_misses,
            self.invalidations
        )
    }
}

/// One worker's slot in a heartbeat: what it is scanning and for how
/// long (`image: None` means idle or already drained).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerHeartbeat {
    /// Worker lane, 1-based (lane 0 is the batch driver).
    pub lane: u32,
    /// Image currently being scanned, if any.
    #[serde(default)]
    pub image: Option<String>,
    /// Milliseconds spent on that image so far.
    #[serde(default)]
    pub elapsed_ms: u64,
}

/// A point-in-time snapshot of a running (or finished) batch, written
/// atomically to `status.json`. All rates/ETAs are wall-clock and
/// advisory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Schema version ([`HEARTBEAT_VERSION`]).
    pub v: u32,
    /// Pid of the batch process (cross-check against the store lock).
    pub pid: u32,
    /// `"running"` while the batch is in flight, `"done"` after commit.
    pub phase: String,
    /// The batch config tag (alias/cache settings).
    pub config: String,
    /// Total images in the corpus.
    pub total: usize,
    /// Images committed so far (fresh scans + resumed replays).
    pub done: usize,
    /// Of `done`, how many were replayed from the journal by `--resume`.
    pub resumed: usize,
    /// Committed images that scanned cleanly.
    pub ok: usize,
    /// Committed images that failed.
    pub failed: usize,
    /// Committed images that hit the deadline.
    pub timeouts: usize,
    /// Wall-clock seconds since the batch started.
    pub elapsed_secs: f64,
    /// Fresh (non-resumed) images committed per wall-clock second.
    pub images_per_sec: f64,
    /// Estimated seconds to completion, when the rate supports one.
    #[serde(default)]
    pub eta_secs: Option<u64>,
    /// Symbolic-summary cache hits across committed images.
    pub sym_hits: u64,
    /// Symbolic-summary cache misses across committed images.
    pub sym_misses: u64,
    /// DDG slice cache hits across committed images.
    pub ddg_hits: u64,
    /// DDG slice cache misses across committed images.
    pub ddg_misses: u64,
    /// Cache invalidations across committed images.
    #[serde(default)]
    pub invalidations: u64,
    /// Combined cache hit rate in `[0, 1]` (0 when no traffic).
    pub cache_hit_rate: f64,
    /// Per-worker current image + elapsed.
    pub workers: Vec<WorkerHeartbeat>,
}

impl Heartbeat {
    /// One-line human rendering for the TTY status line.
    pub fn render_line(&self) -> String {
        let pct =
            if self.total == 0 { 100.0 } else { 100.0 * self.done as f64 / self.total as f64 };
        let eta = match self.eta_secs {
            Some(s) => format!("ETA {}", format_secs(s)),
            None => "ETA --".to_owned(),
        };
        let mut line = format!(
            "batch {}/{} ({pct:.0}%) {:.2} img/s {eta} cache {:.0}%",
            self.done,
            self.total,
            self.images_per_sec,
            100.0 * self.cache_hit_rate,
        );
        for w in &self.workers {
            if let Some(img) = &w.image {
                line.push_str(&format!(
                    " [w{} {img} {}]",
                    w.lane,
                    format_secs(w.elapsed_ms / 1000)
                ));
            }
        }
        line
    }
}

/// `secs` as a compact `90s` / `4m05s` / `2h11m` string.
fn format_secs(secs: u64) -> String {
    if secs < 120 {
        format!("{secs}s")
    } else if secs < 7200 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    }
}

/// Mutable progress state behind the [`FleetProgress`] mutex.
#[derive(Debug)]
struct FleetInner {
    resumed: usize,
    /// Committed images per [`ImageOutcome`], indexed by discriminant.
    outcomes: [usize; 3],
    cache: ImageCacheStats,
    /// Per-worker `(current image, start time)`.
    workers: Vec<(Option<String>, Instant)>,
}

/// Shared progress tracker for one batch run. Workers call
/// [`start_image`](FleetProgress::start_image) /
/// [`finish_image`](FleetProgress::finish_image); the driver notes
/// resumed replays and snapshots [`Heartbeat`]s.
#[derive(Debug)]
pub struct FleetProgress {
    started: Instant,
    pid: u32,
    config: String,
    total: usize,
    inner: Mutex<FleetInner>,
}

impl FleetProgress {
    /// A tracker for `total` images over `workers` worker lanes.
    pub fn new(total: usize, workers: usize, config: &str) -> FleetProgress {
        FleetProgress {
            started: Instant::now(),
            pid: std::process::id(),
            config: config.to_owned(),
            total,
            inner: Mutex::new(FleetInner {
                resumed: 0,
                outcomes: [0; 3],
                cache: ImageCacheStats::default(),
                workers: vec![(None, Instant::now()); workers],
            }),
        }
    }

    /// Records one image replayed from the journal (counts toward
    /// `done` but not toward the throughput rate).
    pub fn note_resumed(&self, outcome: ImageOutcome) {
        let mut g = self.inner.lock().unwrap();
        g.resumed += 1;
        g.outcomes[outcome as usize] += 1;
    }

    /// Marks worker `worker` (0-based) as scanning `image`.
    pub fn start_image(&self, worker: usize, image: &str) {
        let mut g = self.inner.lock().unwrap();
        if let Some(slot) = g.workers.get_mut(worker) {
            *slot = (Some(image.to_owned()), Instant::now());
        }
    }

    /// Records a fresh scan finishing on worker `worker`.
    pub fn finish_image(&self, worker: usize, outcome: ImageOutcome, cache: ImageCacheStats) {
        let mut g = self.inner.lock().unwrap();
        if let Some(slot) = g.workers.get_mut(worker) {
            slot.0 = None;
        }
        g.outcomes[outcome as usize] += 1;
        g.cache += cache;
    }

    /// A point-in-time snapshot with the given `phase`.
    pub fn heartbeat(&self, phase: &str) -> Heartbeat {
        let g = self.inner.lock().unwrap();
        let elapsed = self.started.elapsed().as_secs_f64();
        let done: usize = g.outcomes.iter().sum();
        let fresh = done.saturating_sub(g.resumed);
        // Zero freshly-scanned images (a warm `--resume` run replaying
        // everything from the journal) must yield a finite zero rate and
        // an unknown ETA — never a division by zero or an inf/NaN that
        // would poison the heartbeat JSON.
        let raw_rate = if elapsed > 0.0 && fresh > 0 { fresh as f64 / elapsed } else { 0.0 };
        let rate = if raw_rate.is_finite() { raw_rate } else { 0.0 };
        let remaining = self.total.saturating_sub(done);
        let eta_secs = if remaining == 0 {
            Some(0)
        } else if rate > 0.0 {
            let eta = remaining as f64 / rate;
            if eta.is_finite() {
                Some(eta.ceil() as u64)
            } else {
                None
            }
        } else {
            None
        };
        let workers = g
            .workers
            .iter()
            .enumerate()
            .map(|(i, (image, since))| WorkerHeartbeat {
                lane: i as u32 + 1,
                image: image.clone(),
                elapsed_ms: if image.is_some() { since.elapsed().as_millis() as u64 } else { 0 },
            })
            .collect();
        Heartbeat {
            v: HEARTBEAT_VERSION,
            pid: self.pid,
            phase: phase.to_owned(),
            config: self.config.clone(),
            total: self.total,
            done,
            resumed: g.resumed,
            ok: g.outcomes[ImageOutcome::Ok as usize],
            failed: g.outcomes[ImageOutcome::Error as usize],
            timeouts: g.outcomes[ImageOutcome::Timeout as usize],
            elapsed_secs: elapsed,
            images_per_sec: rate,
            eta_secs,
            sym_hits: g.cache.sym_hits,
            sym_misses: g.cache.sym_misses,
            ddg_hits: g.cache.ddg_hits,
            ddg_misses: g.cache.ddg_misses,
            invalidations: g.cache.invalidations,
            cache_hit_rate: g.cache.hit_rate(),
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_counts_outcomes_and_cache() {
        let p = FleetProgress::new(4, 2, "alias=sse;cache=on");
        p.note_resumed(ImageOutcome::Ok);
        p.start_image(0, "alpha");
        p.start_image(1, "bravo");
        let hb = p.heartbeat("running");
        assert_eq!(hb.v, HEARTBEAT_VERSION);
        assert_eq!(hb.total, 4);
        assert_eq!(hb.done, 1);
        assert_eq!(hb.resumed, 1);
        assert_eq!(hb.workers.len(), 2);
        assert_eq!(hb.workers[0].image.as_deref(), Some("alpha"));
        assert_eq!(hb.workers[0].lane, 1);

        p.finish_image(
            0,
            ImageOutcome::Ok,
            ImageCacheStats { sym_hits: 3, sym_misses: 1, ..Default::default() },
        );
        p.finish_image(1, ImageOutcome::Timeout, ImageCacheStats::default());
        let hb = p.heartbeat("running");
        assert_eq!(hb.done, 3);
        assert_eq!(hb.ok, 2);
        assert_eq!(hb.timeouts, 1);
        assert_eq!(hb.sym_hits, 3);
        assert!((hb.cache_hit_rate - 0.75).abs() < 1e-9);
        assert!(hb.workers.iter().all(|w| w.image.is_none()), "slots cleared on finish");
        let traffic = ImageCacheStats {
            sym_hits: 3,
            sym_misses: 1,
            ddg_hits: 2,
            ddg_misses: 2,
            invalidations: 1,
        };
        assert_eq!(traffic.to_string(), "sym 3/4 ddg 2/4 inv 1");
    }

    #[test]
    fn eta_is_zero_when_done_and_absent_without_rate() {
        let p = FleetProgress::new(2, 1, "cfg");
        // Only resumed images: fresh rate is 0, ETA unknown.
        p.note_resumed(ImageOutcome::Ok);
        let hb = p.heartbeat("running");
        assert_eq!(hb.eta_secs, None);
        assert_eq!(hb.images_per_sec, 0.0);
        p.note_resumed(ImageOutcome::Ok);
        let hb = p.heartbeat("done");
        assert_eq!(hb.eta_secs, Some(0), "nothing remaining");
        assert_eq!(hb.phase, "done");
    }

    #[test]
    fn warm_all_resumed_run_keeps_throughput_finite_and_eta_unknown() {
        // A fully warm `--resume` run: every image replays from the
        // journal, nothing is freshly scanned.
        let p = FleetProgress::new(3, 1, "cfg");
        p.note_resumed(ImageOutcome::Ok);
        p.note_resumed(ImageOutcome::Ok);
        let hb = p.heartbeat("running");
        assert!(hb.images_per_sec.is_finite());
        assert_eq!(hb.images_per_sec, 0.0, "resumed images never count toward throughput");
        assert_eq!(hb.eta_secs, None, "no fresh throughput → unknown ETA");
        let line = hb.render_line();
        assert!(line.contains("ETA --"), "line: {line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "line: {line}");
        // The last replay completes the batch: ETA collapses to zero
        // even though the rate is still zero.
        p.note_resumed(ImageOutcome::Ok);
        let done = p.heartbeat("done");
        assert_eq!(done.eta_secs, Some(0), "nothing remaining");
        assert!(done.images_per_sec.is_finite());
        let s = serde_json::to_string(&done).unwrap();
        assert!(!s.contains("inf") && !s.contains("NaN"), "heartbeat JSON stays parseable: {s}");
    }

    #[test]
    fn heartbeat_roundtrips_through_json() {
        let p = FleetProgress::new(3, 2, "alias=sse;cache=on");
        p.start_image(1, "zulu");
        let hb = p.heartbeat("running");
        let s = serde_json::to_string(&hb).unwrap();
        let back: Heartbeat = serde_json::from_str(&s).unwrap();
        assert_eq!(back, hb);
    }

    #[test]
    fn render_line_shows_progress_and_workers() {
        let p = FleetProgress::new(10, 2, "cfg");
        p.start_image(0, "alpha");
        p.finish_image(1, ImageOutcome::Ok, ImageCacheStats::default());
        // Re-mark worker 1 busy after the finish cleared it.
        p.start_image(1, "bravo");
        let line = p.heartbeat("running").render_line();
        assert!(line.contains("1/10"), "line: {line}");
        assert!(line.contains("ETA"), "line: {line}");
        assert!(line.contains("alpha"), "line: {line}");
        assert!(line.contains("bravo"), "line: {line}");
    }

    #[test]
    fn format_secs_is_compact() {
        assert_eq!(format_secs(45), "45s");
        assert_eq!(format_secs(245), "4m05s");
        assert_eq!(format_secs(7860), "2h11m");
    }
}
