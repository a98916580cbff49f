//! The four workloads: their generated inputs, the `dtaint` invocations
//! that make up one op, and the correctness gate every op must pass.
//!
//! An op is one pass over the workload's corpus: every image scanned
//! once by its own `dtaint scan` process for the scan workloads, one
//! `dtaint batch` over the whole corpus for the fleet workloads. The
//! client is a closed loop: an op starts only after the previous one
//! exited.

use crate::stats::tail_quantile;
use crate::{json, proc};
use dtaint_core::{score, AnalysisReport, GroundTruthFlow};
use dtaint_fwgen::{build_firmware, build_version_pair, table2_profiles, GeneratedFirmware, Rng64};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};

/// Threads every `dtaint` invocation runs with (`--threads`).
pub const THREADS: &str = "2";

/// A named set of inputs and the op run on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dtaint scan` on Table II profiles 1–4 (237–796 functions).
    RouterScan,
    /// `dtaint scan` on profiles 5 and 6 (6,714 and 14,035 functions).
    CameraScan,
    /// `dtaint batch` over eight router builds, on a fresh store.
    FleetCold,
    /// The same batch against a store seeded during set-up.
    FleetWarm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::RouterScan, Workload::CameraScan, Workload::FleetCold, Workload::FleetWarm];

    /// The workload's name on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouterScan => "router_scan",
            Workload::CameraScan => "camera_scan",
            Workload::FleetCold => "fleet_cold",
            Workload::FleetWarm => "fleet_warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether an op is a `dtaint batch` (else one `dtaint scan` per image).
    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetCold | Workload::FleetWarm)
    }

    /// Table II profiles (1-based) the corpus is built from.
    fn profiles(self) -> &'static [usize] {
        match self {
            Workload::CameraScan => &[5, 6],
            _ => &[1, 2, 3, 4],
        }
    }

    /// Ops a baseline run of the default length measures. The tail
    /// percentile is fixed from it, so a parent and a change that differ
    /// in speed still report the same percentile.
    fn nominal_ops(self) -> usize {
        match self {
            Workload::RouterScan => 75,
            Workload::CameraScan => 6,
            Workload::FleetCold => 30,
            Workload::FleetWarm => 35,
        }
    }

    /// The percentile reported as `op_s_tail`.
    pub fn tail_q(self) -> f64 {
        tail_quantile(self.nominal_ops())
    }
}

/// One generated firmware image.
pub struct Image {
    /// File stem (the batch's image key).
    pub name: String,
    /// Path of the packed `.fwi` file.
    pub path: PathBuf,
    /// Planted flows of the image's profile.
    pub truth: Vec<GroundTruthFlow>,
}

/// `fleet_warm`'s edited image: a second build of one `*b` image with a
/// one-function edit the seeded store has never seen.
struct Swap {
    image: usize,
    base: Vec<u8>,
    alt: Vec<u8>,
}

/// Cache traffic of one image, as `corpus.json` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounts {
    /// Symex-level hits.
    pub sym_hits: u64,
    /// Symex-level misses.
    pub sym_misses: u64,
    /// DDG-level hits.
    pub ddg_hits: u64,
    /// DDG-level misses.
    pub ddg_misses: u64,
}

/// What one image of an op produced.
pub struct ImageResult {
    /// The image's report, parsed from `dtaint`'s output, with its
    /// wall-clock fields zeroed so that renderings of it repeat exactly.
    pub report: AnalysisReport,
    /// Batch cache traffic (fleet workloads only).
    pub cache: Option<CacheCounts>,
}

/// A finished op that passed the gate.
#[derive(Default)]
pub struct OpResult {
    /// Wall time of the op's `dtaint` processes, in seconds.
    pub wall_s: f64,
    /// Largest peak RSS among them, in KiB.
    pub max_rss_kib: u64,
    /// Functions given a verdict (`functions_analyzed`, summed).
    pub functions: u64,
    /// Per-image results, keyed by image name.
    pub images: BTreeMap<String, ImageResult>,
    /// Indices into [`Runner::images`], in the order the op scanned them.
    pub order: Vec<usize>,
}

/// A workload's inputs plus everything needed to run and check its ops.
pub struct Runner {
    workload: Workload,
    dtaint: PathBuf,
    corpus: PathBuf,
    /// Images, sorted by name.
    pub images: Vec<Image>,
    swap: Option<Swap>,
    /// The seeded store every `fleet_warm` op starts from.
    snapshot: PathBuf,
    /// Scratch file the process helper reports through.
    report: PathBuf,
    rng: Rng64,
    /// Fingerprints per image from the first set-up.
    reference: Option<BTreeMap<String, BTreeSet<String>>>,
}

fn edit_seed(seed: u64, profile: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ profile as u64
}

fn truth_of(fw: &GeneratedFirmware) -> Vec<GroundTruthFlow> {
    fw.ground_truth
        .iter()
        .map(|g| GroundTruthFlow {
            id: g.id.clone(),
            source: g.source.clone(),
            sink: g.sink.clone(),
            sanitized: g.sanitized,
        })
        .collect()
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

fn shuffle<T>(rng: &mut Rng64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Recursively copies `from` to a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    remove_dir(to)?;
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Removes a directory tree if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// The report's finding fingerprints.
pub fn fingerprints(report: &AnalysisReport) -> BTreeSet<String> {
    report.findings.iter().map(|f| f.fingerprint.clone()).collect()
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::Int(n)) => u64::try_from(*n).map_err(|_| format!("{key} = {n}")),
        other => Err(format!("corpus.json: `{key}` is {other:?}")),
    }
}

impl Runner {
    /// Generates the workload's inputs under `work` (never timed). The
    /// seed picks the edits of the fleet builds, which image `fleet_warm`
    /// edits, and the scan pass orders; the profiles themselves are
    /// fixed.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn generate(
        workload: Workload,
        seed: u64,
        dtaint: &Path,
        work: &Path,
    ) -> Result<Runner, String> {
        let corpus = work.join("corpus");
        std::fs::create_dir_all(&corpus)
            .map_err(|e| format!("create {}: {e}", corpus.display()))?;
        let all = table2_profiles();
        let mut rng = Rng64::new(seed ^ 0x1ed6_e5ee_d000_0001);
        let profiles = workload.profiles();
        let edited = profiles[rng.below(profiles.len() as u64) as usize];
        let mut images = Vec::new();
        let mut swap = None;
        for &p in profiles {
            let profile = &all[p - 1];
            let mut add = |name: String, fw: &GeneratedFirmware| -> Result<Vec<u8>, String> {
                let path = corpus.join(format!("{name}.fwi"));
                let bytes = fw.image.pack(false);
                write(&path, &bytes)?;
                images.push(Image { name, path, truth: truth_of(fw) });
                Ok(bytes)
            };
            if workload.is_fleet() {
                let pair = build_version_pair(profile, edit_seed(seed, p), 3);
                add(format!("p{p}a"), &pair.base)?;
                let base = add(format!("p{p}b"), &pair.updated)?;
                if workload == Workload::FleetWarm && p == edited {
                    let alt = build_version_pair(profile, !edit_seed(seed, p), 1).updated;
                    swap = Some(Swap { image: images.len() - 1, base, alt: alt.image.pack(false) });
                }
            } else {
                add(format!("p{p}"), &build_firmware(profile))?;
            }
        }
        Ok(Runner {
            workload,
            dtaint: dtaint.to_path_buf(),
            corpus,
            images,
            swap,
            snapshot: work.join("warm-store"),
            report: work.join("child-rusage"),
            rng,
            reference: None,
        })
    }

    /// The store `dtaint batch` uses by default.
    pub fn store(&self) -> PathBuf {
        self.corpus.join(".dtaint-store")
    }

    /// Writes `fleet_warm`'s edited image as its alternate or its base.
    fn swap(&self, alternate: bool) -> Result<(), String> {
        let s = self.swap.as_ref().expect("fleet_warm has an edited image");
        write(&self.images[s.image].path, if alternate { &s.alt } else { &s.base })
    }

    /// One set-up: the untimed warm-up op, plus for `fleet_warm` the cold
    /// batch on the unedited corpus that seeds the store. Returns the
    /// seconds its `dtaint` processes took. The first set-up's
    /// fingerprints become the reference later ops must reproduce.
    ///
    /// # Errors
    ///
    /// A failed warm-up or file-system failure.
    pub fn setup(&mut self) -> Result<f64, String> {
        match self.workload {
            Workload::RouterScan | Workload::CameraScan => {
                let order: Vec<usize> = (0..self.images.len()).collect();
                Ok(self.scan_pass(&order)?.wall_s)
            }
            Workload::FleetCold => {
                remove_dir(&self.store())?;
                Ok(self.batch()?.wall_s)
            }
            Workload::FleetWarm => {
                remove_dir(&self.store())?;
                self.swap(false)?;
                let seeding = self.batch()?.wall_s;
                copy_dir(&self.store(), &self.snapshot)?;
                self.swap(true)?;
                let warm_up = self.batch()?.wall_s;
                Ok(seeding + warm_up)
            }
        }
    }

    /// Puts the store in the state an op starts from (untimed) and
    /// returns the scan order for scan workloads. Every `fleet_warm` op
    /// starts from the seeded store, so each one re-analyzes exactly the
    /// edited function and its callers.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn prepare(&mut self) -> Result<Vec<usize>, String> {
        match self.workload {
            Workload::RouterScan | Workload::CameraScan => {
                let mut order: Vec<usize> = (0..self.images.len()).collect();
                shuffle(&mut self.rng, &mut order);
                Ok(order)
            }
            Workload::FleetCold => {
                remove_dir(&self.store())?;
                Ok(Vec::new())
            }
            Workload::FleetWarm => {
                copy_dir(&self.snapshot, &self.store())?;
                Ok(Vec::new())
            }
        }
    }

    /// The store state an op starts from, for a replay to copy: the
    /// seeded store, or `None` for an empty one.
    pub fn start_store(&self) -> Option<&Path> {
        (self.workload == Workload::FleetWarm).then_some(self.snapshot.as_path())
    }

    /// Runs the op prepared by [`Runner::prepare`] and gates it.
    ///
    /// # Errors
    ///
    /// The first gate failure: a spawn error, an unexpected exit code, an
    /// unparsable report, an imperfect score, or a fingerprint set that
    /// differs from the set-up's.
    pub fn run(&mut self, order: &[usize]) -> Result<OpResult, String> {
        if self.workload.is_fleet() {
            self.batch()
        } else {
            self.scan_pass(order)
        }
    }

    /// Scores one image's report and checks its fingerprints against the
    /// reference, recording them as the reference on the first set-up.
    fn check(&mut self, image: usize, report: &AnalysisReport) -> Result<(), String> {
        let img = &self.images[image];
        let s = score(report, &img.truth);
        if !s.is_perfect() {
            return Err(format!("{}: imperfect score {s:?}", img.name));
        }
        let fps = fingerprints(report);
        match &mut self.reference {
            Some(r) if r.len() == self.images.len() => {
                if r.get(&img.name) != Some(&fps) {
                    return Err(format!("{}: fingerprints differ from the warm-up's", img.name));
                }
            }
            r => {
                r.get_or_insert_with(BTreeMap::new).insert(img.name.clone(), fps);
            }
        }
        Ok(())
    }

    fn scan_pass(&mut self, order: &[usize]) -> Result<OpResult, String> {
        let mut op = OpResult::default();
        for &i in order {
            let path = self.images[i].path.as_os_str();
            let args = ["--quiet", "scan"].map(OsStr::new).into_iter().chain([path]);
            let args: Vec<&OsStr> =
                args.chain(["--json", "--threads", THREADS].map(OsStr::new)).collect();
            let done = proc::run(&self.dtaint, &args, &self.report, true)?;
            op.wall_s += done.wall_s;
            op.max_rss_kib = op.max_rss_kib.max(done.max_rss_kib);
            let name = self.images[i].name.clone();
            if done.status.code() != Some(2) {
                return Err(format!("{name}: scan exited {:?}, expected 2", done.status));
            }
            // Every generated image holds one executable, so the output is
            // exactly one report document.
            let text = String::from_utf8(done.stdout).map_err(|e| format!("{name}: {e}"))?;
            let report = json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
            self.check(i, &report)?;
            op.functions += report.functions_analyzed as u64;
            let report = report.with_zeroed_wall_clock();
            op.images.insert(name, ImageResult { report, cache: None });
            op.order.push(i);
        }
        Ok(op)
    }

    fn batch(&mut self) -> Result<OpResult, String> {
        let args = [OsStr::new("--quiet"), OsStr::new("batch"), self.corpus.as_os_str()];
        let args: Vec<&OsStr> =
            args.into_iter().chain(["--threads", THREADS].map(OsStr::new)).collect();
        let done = proc::run(&self.dtaint, &args, &self.report, false)?;
        if done.status.code() != Some(0) {
            return Err(format!("batch exited {:?}, expected 0", done.status));
        }
        let reports = self.store().join("reports");
        let path = reports.join("corpus.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let corpus = json::parse(&text).map_err(|e| format!("corpus.json: {e}"))?;
        for key in ["failures", "timeouts", "regressions"] {
            if num(&corpus, key)? != 0 {
                return Err(format!("corpus.json: {key} = {}", num(&corpus, key)?));
            }
        }
        let Some(Value::Arr(entries)) = corpus.get("images") else {
            return Err("corpus.json: no images".into());
        };
        let mut op =
            OpResult { wall_s: done.wall_s, max_rss_kib: done.max_rss_kib, ..Default::default() };
        if entries.len() != self.images.len() {
            return Err(format!(
                "corpus.json: {} images, expected {}",
                entries.len(),
                self.images.len()
            ));
        }
        for (i, entry) in entries.iter().enumerate() {
            let name = self.images[i].name.clone();
            if entry.get("name") != Some(&Value::Str(name.clone())) {
                return Err(format!("corpus.json: image {i} is not {name}"));
            }
            let cache = CacheCounts {
                sym_hits: num(entry, "sym_hits")?,
                sym_misses: num(entry, "sym_misses")?,
                ddg_hits: num(entry, "ddg_hits")?,
                ddg_misses: num(entry, "ddg_misses")?,
            };
            let path = reports.join(format!("{name}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let report: AnalysisReport =
                json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
            self.check(i, &report)?;
            op.functions += report.functions_analyzed as u64;
            let report = report.with_zeroed_wall_clock();
            op.images.insert(name, ImageResult { report, cache: Some(cache) });
            op.order.push(i);
        }
        Ok(op)
    }
}
