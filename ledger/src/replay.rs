//! The traced run: an op's inputs replayed in-process through each
//! layer's public functions, with a span around every call.
//!
//! Spans are recorded from this file only, around the calls into the
//! layers; nothing here reads the program's own stage timings. A scan
//! image replays as five timed layer calls (extract, lift + call graph,
//! serial symex, DDG, detect + dedup) plus the report rendering. A batch
//! replays `dtaint batch`'s call sequence: cache load, then per image
//! content hash, extract, `Dtaint::analyze` with the shared cache, report
//! and snapshot writes and the journal append, then the findings fold
//! and the final snapshot.

use crate::workload::{CacheCounts, Image, OpResult, THREADS};
use dtaint_cfg::{build_function_cfg, CallGraph};
use dtaint_core::report::dedup_findings;
use dtaint_core::taint::detect_full;
use dtaint_core::SummaryCache;
use dtaint_core::{AnalysisReport, BoundsMode, CacheRef, Dtaint, DtaintConfig, Finding};
use dtaint_dataflow::build_dataflow;
use dtaint_fwbin::Binary;
use dtaint_store::{atomic_write, fnv64, JournalEntry, JournalOutcome, ScanFinding, StoreDir};
use dtaint_symex::{analyze_function, ExprPool, FuncSummary, SymexConfig};
use dtaint_telemetry::MetricsRegistry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Layer call, `<layer>.<call>`; `op` for the root of each op.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The spans as JSON lines: id, op, parent, name, start and end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// What one replayed op produced besides its spans.
pub struct Replay {
    /// Layer counts for the op (`<layer>.<count>` → value); exact.
    pub counts: BTreeMap<String, u64>,
    /// Layer times in seconds — each span name's total duration as
    /// `<name>_s`, plus `trace.unattributed_s`, the op span's self time —
    /// and ratios. Reported as medians over ops.
    pub values: BTreeMap<String, f64>,
    /// The op span's duration, in seconds.
    pub wall_s: f64,
    /// Fingerprints per image.
    pub fingerprints: BTreeMap<String, BTreeSet<String>>,
    /// Cache traffic per image (batch replays only).
    pub cache: BTreeMap<String, CacheCounts>,
}

fn bump(counts: &mut BTreeMap<String, u64>, name: &str, by: u64) {
    *counts.entry(name.to_owned()).or_default() += by;
}

/// Replays op `k` on `images` (in the order the op ran them). `store`
/// is the batch replay's own store, already in the op's start state.
///
/// # Errors
///
/// Read, extract and store failures.
pub fn replay_op(
    t: &mut Tracer,
    k: usize,
    images: &[&Image],
    op: &OpResult,
    batch_store: Option<&Path>,
    zero_counts: &[&str],
) -> Result<Replay, String> {
    t.op = k;
    let first = t.spans.len();
    let mut r = Replay {
        counts: zero_counts.iter().map(|n| ((*n).to_owned(), 0)).collect(),
        values: BTreeMap::new(),
        wall_s: 0.0,
        fingerprints: BTreeMap::new(),
        cache: BTreeMap::new(),
    };
    t.span("op", |t| match batch_store {
        Some(store) => replay_batch(t, images, store, &mut r),
        None => replay_scans(t, images, op, &mut r),
    })?;
    let spans = &t.spans[first..];
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p - first] += s.seconds();
        }
        if s.name != "op" {
            *r.values.entry(format!("{}_s", s.name)).or_default() += s.seconds();
        }
    }
    r.wall_s = spans[0].seconds();
    r.values.insert("trace.unattributed_s".to_owned(), r.wall_s - covered[0]);
    Ok(r)
}

/// Reads an image file and extracts its executables.
fn extract(
    path: &Path,
    counts: &mut BTreeMap<String, u64>,
) -> Result<Vec<(String, Binary)>, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    bump(counts, "fwimage.bytes", data.len() as u64);
    let img =
        dtaint_fwimage::extract_image(&data).map_err(|e| format!("{}: {e}", path.display()))?;
    dtaint_fwimage::extract_binaries(&img).map_err(|e| format!("{}: {e}", path.display()))
}

fn replay_scans(
    t: &mut Tracer,
    images: &[&Image],
    op: &OpResult,
    r: &mut Replay,
) -> Result<(), String> {
    let config = DtaintConfig::default();
    for img in images {
        let bins = t.span("fwimage.extract", |_| extract(&img.path, &mut r.counts))?;
        let mut fps = BTreeSet::new();
        for (_, bin) in &bins {
            let findings =
                t.span("core.analyze", |t| analyze_layers(t, bin, &config, &mut r.counts));
            fps.extend(findings.into_iter().map(|f| f.fingerprint));
        }
        r.fingerprints.insert(img.name.clone(), fps);
        let report = &op.images[&img.name].report;
        let json = t.span("core.render", |_| report.to_json()).map_err(|e| e.to_string())?;
        bump(&mut r.counts, "core.report_bytes", json.len() as u64);
    }
    Ok(())
}

/// The scan pipeline as a sequence of layer calls. Symex runs serially:
/// the pipeline's parallel scheduler is private, and findings are the same
/// at every thread count.
fn analyze_layers(
    t: &mut Tracer,
    bin: &Binary,
    config: &DtaintConfig,
    counts: &mut BTreeMap<String, u64>,
) -> Vec<Finding> {
    let (cfgs, mut callgraph) = t.span("cfg.lift", |_| {
        let mut cfgs = Vec::new();
        for sym in bin.functions() {
            match build_function_cfg(bin, sym) {
                Ok(c) => cfgs.push(c),
                Err(_) => bump(counts, "cfg.lift_failed", 1),
            }
        }
        let callgraph = CallGraph::build(bin, &cfgs);
        (cfgs, callgraph)
    });
    bump(counts, "cfg.functions", cfgs.len() as u64);
    bump(counts, "cfg.blocks", cfgs.iter().map(|c| c.block_count() as u64).sum());
    bump(counts, "cfg.edges", cfgs.iter().map(|c| c.edge_count() as u64).sum());
    bump(counts, "cfg.callgraph_edges", callgraph.edge_count() as u64);

    let (summaries, pool) = t.span("symex.analyze", |_| {
        let mut pool = ExprPool::new();
        let summaries: Vec<_> = cfgs
            .iter()
            .map(|c| symex_with_retry(bin, c, &mut pool, &config.symex, counts))
            .collect();
        (summaries, pool)
    });
    for s in &summaries {
        bump(counts, "symex.blocks_executed", u64::from(s.blocks_executed));
        bump(counts, "symex.paths_explored", u64::from(s.paths_explored));
    }
    bump(counts, "symex.pool_nodes", pool.len() as u64);

    let mut df_config = config.dataflow.clone();
    df_config.threads = THREADS.parse().expect("THREADS is a number");
    let df = t.span("dataflow.build", |_| {
        build_dataflow(bin, &mut callgraph, summaries, pool, &df_config)
    });
    bump(counts, "dataflow.resolved_indirect", df.resolved_indirect.len() as u64);
    bump(counts, "dataflow.sink_observations", df.all_sinks().count() as u64);
    bump(counts, "dataflow.fuel_spent", df.finals.values().map(|f| f.fuel_used).sum());
    bump(
        counts,
        "dataflow.budget_exhausted",
        df.finals.values().filter(|f| f.budget_exhausted).count() as u64,
    );
    bump(counts, "dataflow.pool_nodes", df.pool.len() as u64);

    t.span("core.detect", |_| {
        let names: HashMap<u32, String> = cfgs.iter().map(|c| (c.addr, c.name.clone())).collect();
        let mut outcome = detect_full(&df, Some(bin), &config.sources, &names, BoundsMode::Paper);
        let dups = outcome.duplicates_suppressed + dedup_findings(&mut outcome.findings);
        bump(counts, "core.duplicates_suppressed", dups as u64);
        bump(counts, "core.findings", outcome.findings.len() as u64);
        outcome.findings
    })
}

/// One function's symbolic execution with the pipeline's single
/// degraded retry after fuel exhaustion.
fn symex_with_retry(
    bin: &Binary,
    cfg: &dtaint_cfg::FunctionCfg,
    pool: &mut ExprPool,
    config: &SymexConfig,
    counts: &mut BTreeMap<String, u64>,
) -> FuncSummary {
    let mark = pool.mark();
    let summary = analyze_function(bin, cfg, pool, config);
    if !summary.fuel_exhausted {
        return summary;
    }
    bump(counts, "symex.fuel_exhausted", 1);
    pool.rollback(mark);
    let mut retry = analyze_function(bin, cfg, pool, &config.degraded());
    retry.degraded = true;
    retry
}

/// Names the file an I/O error is about.
fn io(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// `dtaint batch`'s call sequence at `--jobs 1`, without the heartbeat,
/// lock and run-history side files.
fn replay_batch(
    t: &mut Tracer,
    images: &[&Image],
    root: &Path,
    r: &mut Replay,
) -> Result<(), String> {
    let store = StoreDir::open(root).map_err(io(root))?;
    let fs = store.fs().clone();
    let cache_path = store.cache_path();
    let (cache, _) = t.span("cache.decode", |_| SummaryCache::load_with_report(&cache_path));
    let cache = Arc::new(cache);
    let (mut db, _) = t.span("store.fold", |_| store.load_db_checked());
    t.span("store.journal", |_| store.clear_journal());
    let write = |t: &mut Tracer, path: &Path, bytes: &[u8], counts: &mut BTreeMap<String, u64>| {
        bump(counts, "store.writes", 1);
        bump(counts, "store.bytes_written", bytes.len() as u64);
        t.span("store.write", |_| atomic_write(&fs, path, bytes)).map_err(io(path))
    };
    let config_tag = "alias=default;cache=on";
    let mut folds: Vec<(String, Vec<ScanFinding>)> = Vec::new();
    for img in images {
        let content = t.span("store.hash", |_| {
            std::fs::read(&img.path).map(|b| format!("{:016x}", fnv64(&b)))
        });
        let content = content.map_err(|e| format!("read {}: {e}", img.path.display()))?;
        let bins = t.span("fwimage.extract", |_| extract(&img.path, &mut r.counts))?;
        let mut reports: Vec<AnalysisReport> = Vec::new();
        let mut stats = CacheCounts { sym_hits: 0, sym_misses: 0, ddg_hits: 0, ddg_misses: 0 };
        let mut invalidations = 0;
        let mut metrics = MetricsRegistry::default();
        for (bin_name, bin) in &bins {
            let label = format!("{}/{bin_name}", img.name);
            let config = DtaintConfig {
                threads: THREADS.parse().expect("THREADS is a number"),
                cache: Some(CacheRef::new(cache.clone(), &label)),
                ..Default::default()
            };
            let report =
                t.span("core.analyze", |_| Dtaint::with_config(config).analyze(bin, bin_name));
            // Zeroed like the op's reports, so written bytes repeat exactly.
            let report = report.map_err(|e| format!("{}: {e}", img.name))?.with_zeroed_wall_clock();
            let st = cache.scan_stats(&label);
            stats.sym_hits += st.sym_hits;
            stats.sym_misses += st.sym_misses;
            stats.ddg_hits += st.ddg_hits;
            stats.ddg_misses += st.ddg_misses;
            invalidations += st.invalidations;
            metrics.merge_summing_gauges(&report.telemetry.metrics);
            reports.push(report);
        }
        for rep in &reports {
            let m = &rep.telemetry.metrics;
            bump(&mut r.counts, "cfg.functions", rep.functions as u64);
            bump(&mut r.counts, "cfg.blocks", rep.blocks as u64);
            bump(&mut r.counts, "cfg.edges", m.gauge("image.cfg_edges"));
            bump(&mut r.counts, "symex.blocks_executed", m.counter("symex.blocks_executed"));
            bump(&mut r.counts, "symex.paths_explored", m.counter("symex.paths_explored"));
            bump(&mut r.counts, "dataflow.resolved_indirect", rep.resolved_indirect as u64);
            bump(&mut r.counts, "dataflow.fuel_spent", m.counter("ddg.fuel_spent"));
            bump(&mut r.counts, "core.findings", rep.findings.len() as u64);
            bump(
                &mut r.counts,
                "core.duplicates_suppressed",
                m.counter("detect.duplicates_suppressed"),
            );
        }
        for (name, v) in [
            ("cache.sym_hits", stats.sym_hits),
            ("cache.sym_misses", stats.sym_misses),
            ("cache.ddg_hits", stats.ddg_hits),
            ("cache.ddg_misses", stats.ddg_misses),
        ] {
            bump(&mut r.counts, name, v);
        }
        r.cache.insert(img.name.clone(), stats);
        r.fingerprints.insert(
            img.name.clone(),
            reports.iter().flat_map(|x| &x.findings).map(|f| f.fingerprint.clone()).collect(),
        );

        let doc = t.span("core.render", |_| -> Result<String, String> {
            let texts: Vec<String> = reports
                .iter()
                .map(|x| x.to_json().map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            Ok(if texts.len() == 1 {
                texts[0].clone()
            } else {
                format!("[\n{}\n]", texts.join(",\n"))
            })
        })?;
        bump(&mut r.counts, "core.report_bytes", doc.len() as u64);
        let report_name = format!("{}.json", img.name);
        write(t, &store.reports_dir().join(&report_name), doc.as_bytes(), &mut r.counts)?;

        let mut by_fp: BTreeMap<&str, ScanFinding> = BTreeMap::new();
        for f in reports.iter().flat_map(|x| &x.findings) {
            let e = by_fp.entry(f.fingerprint.as_str()).or_insert_with(|| ScanFinding {
                fingerprint: f.fingerprint.clone(),
                vulnerable: false,
                sink: f.sink.clone(),
                sink_fn: f.sink_fn.clone(),
            });
            e.vulnerable |= !f.sanitized();
        }
        let findings: Vec<ScanFinding> = by_fp.into_values().collect();

        let snapshot = t.span("cache.encode", |_| cache.to_bytes());
        bump(&mut r.counts, "cache.snapshots", 1);
        write(t, &cache_path, &snapshot, &mut r.counts)?;
        let entry = JournalEntry {
            v: dtaint_store::JOURNAL_VERSION,
            image: img.name.clone(),
            content,
            config: config_tag.to_owned(),
            report: Some(report_name),
            outcome: JournalOutcome::Ok,
            error: None,
            binaries: reports.len(),
            findings: findings.clone(),
            sym_hits: stats.sym_hits,
            sym_misses: stats.sym_misses,
            ddg_hits: stats.ddg_hits,
            ddg_misses: stats.ddg_misses,
            invalidations,
            metrics,
        };
        bump(&mut r.counts, "store.writes", 1);
        t.span("store.journal", |_| store.append_journal(&entry))
            .map_err(io(&store.journal_path()))?;
        folds.push((img.name.clone(), findings));
    }

    t.span("store.fold", |_| {
        for (name, findings) in &folds {
            db.record_scan(name, findings);
        }
        store.save_db(&db)
    })
    .map_err(io(&store.findings_path()))?;
    bump(&mut r.counts, "store.writes", 1);
    let snapshot = t.span("cache.encode", |_| cache.to_bytes());
    bump(&mut r.counts, "cache.snapshots", 1);
    bump(&mut r.counts, "cache.bytes", snapshot.len() as u64);
    bump(&mut r.counts, "cache.entries", cache.totals().entries as u64);
    write(t, &cache_path, &snapshot, &mut r.counts)?;
    // The database and journal are serialized inside the store crate;
    // their sizes on disk are what those writes moved.
    for path in [store.findings_path(), store.journal_path()] {
        let len = std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?.len();
        bump(&mut r.counts, "store.bytes_written", len);
    }
    t.span("store.journal", |_| store.clear_journal());
    let hits = r.counts["cache.sym_hits"] + r.counts["cache.ddg_hits"];
    let probes = hits + r.counts["cache.sym_misses"] + r.counts["cache.ddg_misses"];
    r.values.insert("cache.hit_ratio".to_owned(), hits as f64 / probes.max(1) as f64);
    Ok(())
}
