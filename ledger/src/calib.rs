//! Host-speed calibration for the end-to-end times.
//!
//! The benchmark runs on shared hosts whose CPU speed drifts by up to 2×
//! for minutes at a time (a busy neighbour on the same core or cache);
//! steal time stays zero and the children's CPU time inflates with their
//! wall time, so neither hides the drift. A fixed kernel of this file's
//! own code — integer mixing, a cache-resident and a cache-spilling hash
//! map, short-lived allocations, and a dependent walk through 64 MiB for
//! the DRAM latency the large images depend on — and a few spawns of
//! `/bin/true`, for the process start-up every op pays, are timed between
//! consecutive ops and set-ups. Each part's time over its quiet-host
//! reference is the host's slowness; a time is divided by the mean
//! slowness of the samples on either side of it, so scaled times read as
//! seconds on the quiet host. Neither part runs `dtaint` code, so a change
//! to the program cannot move them. On a 2-vCPU Xeon guest, camera-scan
//! times whose 5-op windows spread 37 % spread 8.5 % scaled by the
//! compute part, and router passes whose 20-op windows spread 12.9 %
//! spread 4.7 % scaled by both parts.
//!
//! A sample runs the kernel once per [`SECONDS_PER_REP`] of the interval
//! before it (at most [`MAX_REPS`] times), about 6 % of the op: in a
//! steady phase one short sample around a 2.8 s op added more noise than
//! it removed, while ten kept the spread of 7-op medians within a point
//! of the raw times.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// One kernel run's time on a quiet host, in seconds.
const KERNEL_REF_S: f64 = 0.024;

/// One spawn of `/bin/true` on a quiet host, in seconds.
const SPAWN_REF_S: f64 = 0.0005;

/// Spawns per sample rep.
const SPAWNS: u32 = 5;

/// Entries of the DRAM walk's buffer (64 MiB of `u32`).
const WALK_LEN: usize = 16 << 20;

/// Dependent loads per kernel run.
const WALK_STEPS: usize = 60_000;

/// Interval length that earns one more kernel run in the next sample.
const SECONDS_PER_REP: f64 = 0.4;

/// Most kernel runs in one sample.
const MAX_REPS: u32 = 10;

/// Fixed-key hashing, so every sample does the same probes.
type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn count_into(map: &mut Map, keys: u64, n: u64) {
    let mut x = 1;
    for i in 0..n {
        *map.entry(next(&mut x) % keys).or_insert(0) += i;
    }
}

/// One random cycle through every slot (Sattolo's shuffle), so the walk
/// never settles into a cache-sized loop. Built once, before any timing.
fn walk_buffer() -> &'static [u32] {
    static BUF: OnceLock<Vec<u32>> = OnceLock::new();
    BUF.get_or_init(|| {
        let mut buf: Vec<u32> = (0..WALK_LEN as u32).collect();
        let mut x = 1;
        for i in (1..WALK_LEN).rev() {
            buf.swap(i, (next(&mut x) % i as u64) as usize);
        }
        buf
    })
}

fn kernel() {
    let buf = walk_buffer();
    let mut at = 0usize;
    for _ in 0..WALK_STEPS {
        at = buf[at] as usize;
    }
    black_box(at);
    let mut x = 88_172_645_463_325_252_u64;
    let mut acc = 0u64;
    for _ in 0..1_500_000 {
        acc = acc.wrapping_add(next(&mut x).rotate_left(7));
    }
    black_box(acc);
    for keys in [2_000, 200_000] {
        let mut map = Map::default();
        count_into(&mut map, keys, 150_000);
        black_box(&map);
    }
    let mut lists: Vec<Vec<u32>> = Vec::new();
    for _ in 0..30_000 {
        let n = (next(&mut x) % 40) as u32;
        lists.push((0..n).collect());
        if lists.len() > 2_000 {
            lists.clear();
        }
    }
    black_box(&lists);
}

/// Mean time of one `/bin/true` spawn, in seconds.
fn spawn_time() -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..SPAWNS {
        let status = Command::new("/bin/true")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("calibration spawn of /bin/true: {e}"))?;
        if !status.success() {
            return Err(format!("calibration spawn of /bin/true: {status}"));
        }
    }
    Ok(t.elapsed().as_secs_f64() / f64::from(SPAWNS))
}

/// The host's slowness over `reps` runs of both parts: 1 on the quiet
/// host, 2 when everything takes twice as long.
fn sample(reps: u32) -> Result<f64, String> {
    let (mut kernel_s, mut spawn_s) = (0.0, 0.0);
    for _ in 0..reps {
        let t = Instant::now();
        kernel();
        kernel_s += t.elapsed().as_secs_f64();
        spawn_s += spawn_time()?;
    }
    let reps = f64::from(reps);
    Ok(0.5 * (kernel_s / reps / KERNEL_REF_S + spawn_s / reps / SPAWN_REF_S))
}

/// Calibration samples taken at the boundaries of consecutive timed
/// intervals: each interval is scaled by the mean of the samples on either
/// side of it, and the closing sample opens the next interval.
pub struct Bracket {
    last: f64,
}

impl Bracket {
    /// Builds the walk buffer, then takes the first boundary sample.
    ///
    /// # Errors
    ///
    /// `/bin/true` cannot be spawned.
    pub fn start() -> Result<Bracket, String> {
        walk_buffer();
        Ok(Bracket { last: sample(1)? })
    }

    /// Scales `raw` seconds, measured since the previous boundary, to the
    /// quiet host's speed.
    ///
    /// # Errors
    ///
    /// `/bin/true` cannot be spawned.
    pub fn scale(&mut self, raw: f64) -> Result<f64, String> {
        let reps = ((raw / SECONDS_PER_REP).ceil() as u32).clamp(1, MAX_REPS);
        let next = sample(reps)?;
        let scaled = raw * 2.0 / (self.last + next);
        self.last = next;
        Ok(scaled)
    }
}
