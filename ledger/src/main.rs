//! `ledger` — the end-to-end and per-layer performance benchmark of the
//! `dtaint` CLI. See `ledger/README.md` for workloads, metrics and the
//! A/B protocol.
//!
//! ```text
//! ledger --workload W --seed N [--seconds S] [--trace 0|1] [--dtaint PATH]
//! ledger run   --seed N [--runs K] [--seconds S] [--workload W] [--dtaint A [--dtaint B]] [--out FILE]
//! ledger trace --seed N [--seconds S] [--workload W] [--dtaint PATH] [--out FILE]
//! ledger compare A.json B.json
//! ```
//!
//! The first form is one run of one workload; its last stdout line is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. `run`
//! and `trace` start one such process per workload and run, and collect
//! their results in one file for `compare`; `run` with two `--dtaint`
//! binaries is the A/B protocol, alternating them run by run.

mod calib;
mod json;
mod metrics;
mod proc;
mod replay;
mod stats;
mod workload;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use serde_json::Value;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workload::{remove_dir, Runner, Workload};

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 20;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Traced runs per workload in `ledger trace`, each on the same seed, so
/// that every count can be checked to repeat exactly.
const TRACE_RUNS: usize = 2;

const USAGE: &str = "usage:
  ledger --workload W --seed N [--seconds S] [--trace 0|1] [--dtaint PATH]
  ledger run   --seed N [--runs K] [--seconds S] [--workload W] [--dtaint A [--dtaint B]] [--out FILE]
  ledger trace --seed N [--seconds S] [--workload W] [--dtaint PATH] [--out FILE]
  ledger compare A.json B.json
workloads: router_scan camera_scan fleet_cold fleet_warm";

/// Parsed command-line options shared by every mode.
struct Opts {
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    workloads: Vec<Workload>,
    dtaint: Vec<PathBuf>,
    runs: usize,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: None,
        seconds: RUN_SECONDS,
        trace: false,
        workloads: Vec::new(),
        dtaint: Vec::new(),
        runs: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            o.files.push(PathBuf::from(a));
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{a} expects a value\n{USAGE}"))?;
        let number = || v.parse::<u64>().map_err(|_| format!("{a} expects a number, got {v}"));
        match a.as_str() {
            "--seed" => o.seed = Some(number()?),
            "--seconds" => o.seconds = number()?.max(1),
            "--runs" => o.runs = usize::try_from(number()?.max(1)).map_err(|e| e.to_string())?,
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {v}")),
                }
            }
            "--workload" => o
                .workloads
                .push(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}\n{USAGE}"))?),
            "--dtaint" => o.dtaint.push(PathBuf::from(v)),
            "--out" => o.out = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown option {a}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn ledger_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `dtaint` binary to drive: `--dtaint PATH`, or a release build of
/// `dtaint-cli` from this checkout (into `CARGO_TARGET_DIR` when set).
fn resolve_dtaint(given: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(p) = given {
        return std::fs::canonicalize(p).map_err(|e| format!("--dtaint {}: {e}", p.display()));
    }
    let root = ledger_dir().parent().ok_or("the ledger has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--offline", "--release", "--quiet", "-p", "dtaint-cli", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of dtaint-cli failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    std::fs::canonicalize(target.join("release").join("dtaint"))
        .map_err(|e| format!("built dtaint not found under {}: {e}", target.display()))
}

/// A per-run working directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload, seed: u64) -> Result<WorkDir, String> {
        let dir = ledger_dir().join("work").join(format!(
            "{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ));
        remove_dir(&dir)?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `work/` itself once the last run is gone.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// One run's outcome, as printed on the last stdout line.
struct Outcome {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<(MetricDef, f64)>,
}

impl Outcome {
    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v)| {
                let value = if d.is_count() { Value::Int(*v as i64) } else { Value::Float(*v) };
                (
                    d.name.to_owned(),
                    Value::Obj(vec![
                        ("value".to_owned(), value),
                        ("unit".to_owned(), Value::Str(d.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::Int(self.attempted as i64)),
            ("failed".to_owned(), Value::Int(self.failed as i64)),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ])
    }
}

/// Whether another op still fits in the measured window, judged by the
/// mean time per op so far.
fn another_op_fits(t0: Instant, ops: usize, seconds: u64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    ops == 0 || elapsed + elapsed / ops as f64 <= seconds as f64
}

/// The untraced run: set-ups, then ops until the window closes. Every
/// time is scaled to the reference host speed by the calibration samples
/// around it (see `calib`); the raw medians are printed too.
fn measured(w: Workload, runner: &mut Runner, seconds: u64) -> Result<Outcome, String> {
    let mut bracket = calib::Bracket::start()?;
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let s = runner.setup()?;
        setups.push(bracket.scale(s)?);
        raw_setups.push(s);
    }
    let (mut walls, mut raw_walls, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    let (mut functions, mut rss_kib) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0, 0);
    let t0 = Instant::now();
    while another_op_fits(t0, attempted, seconds) {
        let order = runner.prepare()?;
        attempted += 1;
        let result = runner.run(&order);
        let raw = result.as_ref().map_or(0.0, |op| op.wall_s);
        let scaled = bracket.scale(raw)?;
        match result {
            Ok(op) => {
                walls.push(scaled);
                raw_walls.push(op.wall_s);
                scales.push(scaled / op.wall_s);
                functions += op.functions;
                rss_kib = rss_kib.max(op.max_rss_kib);
            }
            Err(e) => {
                failed += 1;
                eprintln!("ledger: {} op {attempted} failed: {e}", w.name());
            }
        }
    }
    let total: f64 = walls.iter().sum();
    let values = [
        stats::quantile(&walls, 0.5),
        stats::quantile(&walls, w.tail_q()),
        functions as f64 / total,
        rss_kib as f64 / 1024.0,
        median(&setups),
    ];
    println!(
        "{}: {attempted} ops in {:.1} s, op_s_tail = p{:.0}, failed_op_ratio {}/{attempted} = {}",
        w.name(),
        t0.elapsed().as_secs_f64(),
        w.tail_q() * 100.0,
        failed,
        failed as f64 / attempted as f64
    );
    println!(
        "  unscaled: op p50 {:.6} s, set-up {:.6} s; host speed scale median {:.4}",
        median(&raw_walls),
        median(&raw_setups),
        median(&scales)
    );
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && !walls.is_empty(),
        metrics: END_TO_END.iter().copied().zip(values).collect(),
    })
}

/// The traced run: each op runs untraced through the CLI, then its inputs
/// are replayed in-process under spans. Checks that the replay reproduces
/// the op (fingerprints, and per-image cache traffic for batches) and
/// that every count repeats exactly across ops.
fn traced(
    w: Workload,
    runner: &mut Runner,
    seed: u64,
    seconds: u64,
    work: &Path,
) -> Result<Outcome, String> {
    runner.setup()?;
    let zero: Vec<&str> = PER_LAYER.iter().filter(|d| d.is_count()).map(|d| d.name).collect();
    let replay_store = work.join("replay-store");
    let mut tracer = replay::Tracer::new();
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut counts: Option<BTreeMap<String, u64>> = None;
    let (mut attempted, mut failed) = (0, 0);
    let t0 = Instant::now();
    while another_op_fits(t0, attempted, seconds) {
        let k = attempted;
        let order = runner.prepare()?;
        attempted += 1;
        let op = match runner.run(&order) {
            Ok(op) => op,
            Err(e) => {
                failed += 1;
                eprintln!("ledger: {} op {attempted} failed: {e}", w.name());
                continue;
            }
        };
        let batch_store = if w.is_fleet() {
            match runner.start_store() {
                Some(snapshot) => workload::copy_dir(snapshot, &replay_store)?,
                None => remove_dir(&replay_store)?,
            }
            Some(replay_store.as_path())
        } else {
            None
        };
        let images: Vec<&workload::Image> = op.order.iter().map(|&i| &runner.images[i]).collect();
        let r = replay::replay_op(&mut tracer, k, &images, &op, batch_store, &zero)?;
        let mut mismatch = Vec::new();
        for (name, img) in &op.images {
            if r.fingerprints.get(name) != Some(&workload::fingerprints(&img.report)) {
                mismatch.push(format!("{name}: replay fingerprints differ from the op's"));
            }
            if img.cache.is_some() && r.cache.get(name) != img.cache.as_ref() {
                mismatch.push(format!(
                    "{name}: replay cache traffic {:?} differs from corpus.json's {:?}",
                    r.cache.get(name),
                    img.cache
                ));
            }
        }
        match &counts {
            None => counts = Some(r.counts.clone()),
            Some(c) if *c != r.counts => {
                let diff: Vec<String> = r
                    .counts
                    .iter()
                    .filter(|(n, v)| c.get(*n) != Some(v))
                    .map(|(n, v)| format!("{n} {} -> {v}", c.get(n).copied().unwrap_or_default()))
                    .collect();
                mismatch.push(format!("op {k}: counts differ from op 0's: {}", diff.join(", ")));
            }
            Some(_) => {}
        }
        if !mismatch.is_empty() {
            failed += 1;
            eprintln!(
                "ledger: {} op {attempted} replay is not faithful:\n  {}",
                w.name(),
                mismatch.join("\n  ")
            );
            continue;
        }
        for (name, v) in r.values {
            values.entry(name).or_default().push(v);
        }
        values.entry("trace.replay_ratio".to_owned()).or_default().push(r.wall_s / op.wall_s);
    }
    let spans = ledger_dir().join("results").join(format!("trace-{seed}-{}.jsonl", w.name()));
    std::fs::create_dir_all(ledger_dir().join("results")).map_err(|e| e.to_string())?;
    std::fs::write(&spans, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    let counts = counts.unwrap_or_default();

    println!(
        "{}: {attempted} traced ops in {:.1} s; spans in {}",
        w.name(),
        t0.elapsed().as_secs_f64(),
        spans.display()
    );
    println!("  per-layer metrics (times and ratios: per-op medians; counts: per op, exact)");
    for (name, vs) in &values {
        println!("  {name:<30} {:>14.6}", median(vs));
    }
    for (name, v) in &counts {
        println!("  {name:<30} {v:>14}");
    }
    let mut metrics = Vec::new();
    for d in PER_LAYER {
        let v = if d.is_count() {
            counts.get(d.name).map(|&c| c as f64)
        } else {
            values.get(d.name).map(|vs| median(vs))
        };
        match v {
            Some(v) => metrics.push((d, v)),
            None if attempted > failed => {
                return Err(format!("{}: no value for {}", w.name(), d.name))
            }
            None => metrics.push((d, 0.0)),
        }
    }
    Ok(Outcome { attempted, failed, correct: failed == 0 && attempted > 0, metrics })
}

/// One run of one workload: the form `BENCHMARK.json` names.
fn single(o: &Opts) -> Result<i32, String> {
    let [w] = o.workloads[..] else { return Err(format!("give exactly one --workload\n{USAGE}")) };
    let seed = o.seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    let dtaint = match &o.dtaint[..] {
        [] => resolve_dtaint(None)?,
        [p] => resolve_dtaint(Some(p))?,
        _ => return Err(format!("a single run takes one --dtaint\n{USAGE}")),
    };
    let work = WorkDir::new(w, seed)?;
    let mut runner = Runner::generate(w, seed, &dtaint, &work.0)?;
    println!(
        "{}: seed {seed}, {} images, dtaint --threads {}, available_parallelism {}",
        w.name(),
        runner.images.len(),
        workload::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = if o.trace {
        traced(w, &mut runner, seed, o.seconds, &work.0)?
    } else {
        measured(w, &mut runner, o.seconds)?
    };
    if !o.trace {
        for (d, v) in &outcome.metrics {
            println!("  {:<14} {v:>14.6} {}", d.name, d.unit);
        }
    }
    println!("{}", serde_json::to_string(&outcome.to_json()).map_err(|e| e.to_string())?);
    Ok(if outcome.correct { 0 } else { 1 })
}

/// One child run of one workload on one `dtaint`: its result object,
/// tagged with workload and seed, and whether it passed.
fn child_run(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dtaint: &Path,
) -> Result<(Value, bool), String> {
    let done = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--dtaint")
        .arg(dtaint)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&done.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let Ok(Value::Obj(mut fields)) = json::parse(last) else {
        return Err(format!("{} seed {seed}: no result line; exit {:?}", w.name(), done.status));
    };
    let passed = done.status.success()
        && fields.iter().any(|(k, v)| k == "correct" && *v == Value::Bool(true));
    fields.insert(0, ("workload".to_owned(), Value::Str(w.name().to_owned())));
    fields.insert(1, ("seed".to_owned(), Value::Int(seed as i64)));
    Ok((Value::Obj(fields), passed))
}

/// `ledger run` / `ledger trace`: one child process per workload and
/// run, results collected into one file per `dtaint`. With two
/// `--dtaint` binaries (A, then B) the runs alternate which side goes
/// first, pair by pair, and the two files are compared at the end.
fn orchestrate(o: &Opts, trace: bool) -> Result<i32, String> {
    let seed = o.seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    // A replay runs the layers linked into this ledger, so a traced A/B
    // needs one ledger build per commit, not two binaries.
    if o.dtaint.len() > if trace { 1 } else { 2 } {
        return Err(format!("give at most two --dtaint to run, one to trace\n{USAGE}"));
    }
    let sides: Vec<PathBuf> = if o.dtaint.is_empty() {
        vec![resolve_dtaint(None)?]
    } else {
        o.dtaint.iter().map(|p| resolve_dtaint(Some(p))).collect::<Result<_, _>>()?
    };
    let workloads =
        if o.workloads.is_empty() { Workload::ALL.to_vec() } else { o.workloads.clone() };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let runs = if trace { TRACE_RUNS } else { o.runs };
    let mut results: Vec<Vec<Value>> = vec![Vec::new(); sides.len()];
    let mut ok = true;
    for run in 0..runs {
        let run_seed = if trace { seed } else { seed + run as u64 };
        for &w in &workloads {
            let mut order: Vec<usize> = (0..sides.len()).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for side in order {
                let (v, passed) = child_run(&exe, w, run_seed, o.seconds, trace, &sides[side])?;
                ok &= passed;
                results[side].push(v);
            }
        }
    }

    let kind = if trace { "trace" } else { "run" };
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| ledger_dir().join("results").join(format!("{kind}-{seed}.json")));
    let mut files = Vec::new();
    for (side, results) in results.into_iter().enumerate() {
        let samples = stats::samples(&results)?;
        println!("\n{}", stats::summary(&samples));
        if trace {
            for (w, metrics) in &samples {
                for d in PER_LAYER.iter().filter(|d| d.is_count()) {
                    let vs = metrics.get(d.name).map_or(&[][..], Vec::as_slice);
                    if vs.iter().any(|x| *x != vs[0]) {
                        eprintln!("ledger: {w}: {} differs between traced runs: {vs:?}", d.name);
                        ok = false;
                    }
                }
            }
        }
        let path = if sides.len() == 1 {
            out.clone()
        } else {
            let stem =
                out.file_stem().map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            out.with_file_name(format!("{stem}-{}.json", ["a", "b"][side]))
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let doc = Value::Obj(vec![
            ("kind".to_owned(), Value::Str(kind.to_owned())),
            (
                "dtaint".to_owned(),
                Value::Str(o.dtaint.get(side).map_or_else(
                    || "built from this checkout".to_owned(),
                    |p| p.display().to_string(),
                )),
            ),
            ("seed".to_owned(), Value::Int(seed as i64)),
            ("runs".to_owned(), Value::Int(runs as i64)),
            ("seconds".to_owned(), Value::Int(o.seconds as i64)),
            (
                "available_parallelism".to_owned(),
                Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
            ),
            ("results".to_owned(), Value::Arr(results)),
        ]);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        files.push(path);
    }
    if let [a, b] = &files[..] {
        let (table, failed) = stats::compare(a, b)?;
        print!("\n{table}");
        ok &= !failed;
    }
    Ok(if ok { 0 } else { 1 })
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (Some(c), &args[1..]),
        _ => (None, args),
    };
    let o = parse_opts(rest)?;
    match cmd {
        Some("compare") => {
            let [a, b] = &o.files[..] else {
                return Err(format!("compare takes two files\n{USAGE}"));
            };
            let (table, failed) = stats::compare(a, b)?;
            print!("{table}");
            Ok(i32::from(failed))
        }
        Some(c) => orchestrate(&o, c == "trace"),
        None if o.files.is_empty() => single(&o),
        None => Err(format!("unexpected argument {}\n{USAGE}", o.files[0].display())),
    }
}

fn main() {
    let args: Vec<std::ffi::OsString> = std::env::args_os().skip(1).collect();
    if args.first().is_some_and(|a| a == proc::HELPER_ARG) {
        std::process::exit(proc::helper(&args[1..]));
    }
    let args: Vec<String> = args.into_iter().map(|a| a.to_string_lossy().into_owned()).collect();
    match real_main(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    }
}
