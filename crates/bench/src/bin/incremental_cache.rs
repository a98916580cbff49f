//! Incremental-cache payoff — wall time of a cold corpus scan vs a warm
//! re-scan after a one-function edit, over a three-image Table II corpus.
//! The warm pass re-analyzes only the edited function and its transitive
//! callers; everything else is served from the summary cache.
//!
//! Every warm report is checked byte-for-byte (modulo wall clock)
//! against a cold scan of the same image before any number is reported,
//! so the speedup is measured on provably identical output.
//!
//! Prints the comparison and records the measurements in
//! `results/BENCH_incremental.json` (relative to the working directory,
//! normally the workspace root).
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin incremental_cache
//! ```
//!
//! `DTAINT_REPS` (default 3) sets the repetitions; the best (minimum)
//! wall time of each pass is reported. A pass's wall time is the sum of
//! its scans' `scan` root spans ([`dtaint_bench::traced_scan`], one
//! thread).

use dtaint_bench::{render_table, traced_scan};
use dtaint_core::{AnalysisReport, CacheRef, DtaintConfig, SummaryCache};
use dtaint_fwgen::{build_firmware, build_version_pair, table2_profiles, GeneratedFirmware};
use serde_json::Value;
use std::sync::Arc;

/// Corpus profiles (Table II indices) with the function count capped so
/// the bench finishes in seconds; the edit lands in the last image.
const PROFILES: [usize; 3] = [0, 1, 2];
const CAP: usize = 400;
const EDIT_SEED: u64 = 11;
const EDITS: usize = 1;

/// One scan of `fw`, returning its report and its `scan` span in
/// seconds.
fn scan(
    fw: &GeneratedFirmware,
    label: &str,
    cache: Option<&Arc<SummaryCache>>,
) -> (AnalysisReport, f64) {
    let config = DtaintConfig {
        cache: cache.map(|c| CacheRef::new(c.clone(), label)),
        ..Default::default()
    };
    let (report, spans) = traced_scan(&fw.binary, label, config);
    (report, spans.secs("scan"))
}

fn main() {
    let reps: usize = std::env::var("DTAINT_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);

    // Base corpus, and an updated build of the last image with EDITS
    // function bodies changed (size-preservingly, via a version pair).
    let mut base = Vec::new();
    for &index in &PROFILES {
        let mut p = table2_profiles().remove(index);
        p.total_functions = p.total_functions.min(CAP);
        base.push(build_firmware(&p));
    }
    let mut edited_profile = table2_profiles().remove(*PROFILES.last().unwrap());
    edited_profile.total_functions = edited_profile.total_functions.min(CAP);
    let pair = build_version_pair(&edited_profile, EDIT_SEED, EDITS);
    let mut updated: Vec<&GeneratedFirmware> = base.iter().take(PROFILES.len() - 1).collect();
    updated.push(&pair.updated);

    let total_functions: usize = base.iter().map(|fw| fw.profile.total_functions).sum();
    println!(
        "incremental cache payoff: {} image(s), {} functions total, {} edited, best of {reps} reps",
        base.len(),
        total_functions,
        pair.changed.len()
    );
    println!();

    // Reference: cold scans of the *updated* corpus, for the
    // differential check below.
    let reference: Vec<_> = updated
        .iter()
        .enumerate()
        .map(|(i, fw)| scan(fw, &format!("img{i}"), None).0.with_zeroed_wall_clock())
        .collect();

    let mut cold_best = f64::MAX;
    let mut warm_best = f64::MAX;
    let mut hits = 0u64;
    let mut misses = 0u64;
    for _ in 0..reps {
        let cache = Arc::new(SummaryCache::new());
        // Cold pass: populate the cache from the base corpus.
        let cold: f64 = base
            .iter()
            .enumerate()
            .map(|(i, fw)| scan(fw, &format!("img{i}"), Some(&cache)).1)
            .sum();
        cold_best = cold_best.min(cold);
        // Warm pass: re-scan with one image updated.
        let mut warm = 0.0;
        for (i, fw) in updated.iter().enumerate() {
            let (report, secs) = scan(fw, &format!("img{i}"), Some(&cache));
            warm += secs;
            assert_eq!(
                report.with_zeroed_wall_clock(),
                reference[i],
                "img{i}: warm report diverged from the cold reference"
            );
        }
        warm_best = warm_best.min(warm);
        // Counters are deterministic — read them once, from the last rep.
        hits = 0;
        misses = 0;
        for i in 0..updated.len() {
            let st = cache.scan_stats(&format!("img{i}"));
            hits += st.sym_hits + st.ddg_hits;
            misses += st.sym_misses + st.ddg_misses;
        }
    }

    let speedup = cold_best / warm_best.max(1e-9);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let rows = vec![
        vec!["cold (populate)".into(), format!("{:.1}", cold_best * 1e3)],
        vec!["warm (1 fn edited)".into(), format!("{:.1}", warm_best * 1e3)],
        vec!["speedup".into(), format!("{speedup:.2}x")],
        vec!["warm hit rate".into(), format!("{:.1}%", hit_rate * 100.0)],
    ];
    print!("{}", render_table(&["Pass", "Wall time (ms)"], &rows));
    println!();
    println!("warm reports matched the cold reference on every image");

    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("incremental".into())),
        ("images".into(), Value::Int(base.len() as i64)),
        ("functions".into(), Value::Int(total_functions as i64)),
        ("changed_functions".into(), Value::Int(pair.changed.len() as i64)),
        ("reps".into(), Value::Int(reps as i64)),
        ("cold_ms".into(), Value::Float(cold_best * 1e3)),
        ("warm_ms".into(), Value::Float(warm_best * 1e3)),
        ("speedup".into(), Value::Float(speedup)),
        ("warm_hit_rate".into(), Value::Float(hit_rate)),
        ("identical_findings".into(), Value::Bool(true)),
    ]);
    std::fs::create_dir_all("results").ok();
    let path = "results/BENCH_incremental.json";
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(path, json + "\n").expect("write results file");
    println!("wrote {path}");
}
