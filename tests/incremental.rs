//! Differential harness for the incremental summary cache: a
//! warm-cache scan must be **byte-identical** (full `PartialEq`,
//! evidence and telemetry counters included) to a cold scan of the same
//! image — on every Table II profile, at every thread count — and the
//! set of functions that miss the cache after an edit must be exactly
//! the changed functions plus their transitive callers.

use dtaint_core::{AnalysisReport, CacheRef, Dtaint, DtaintConfig, SummaryCache};
use dtaint_fwgen::{build_firmware, build_version_pair, table2_profiles, GeneratedFirmware};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Builds one Table II profile with the function count capped, so the
/// debug-mode suite stays fast.
fn capped_firmware(index: usize, cap: usize) -> GeneratedFirmware {
    let mut p = table2_profiles().remove(index);
    p.total_functions = p.total_functions.min(cap);
    build_firmware(&p)
}

fn scan(fw: &GeneratedFirmware, threads: usize, cache: Option<CacheRef>) -> AnalysisReport {
    let config = DtaintConfig { threads, cache, ..Default::default() };
    Dtaint::with_config(config).analyze(&fw.binary, "img").unwrap()
}

/// Cold scan == warm scan, full `PartialEq` after zeroing the only
/// non-deterministic fields (wall-clock durations), for every profile
/// and every thread count the parallel merge exercises.
#[test]
fn warm_scan_is_byte_identical_to_cold_on_all_profiles() {
    for index in 0..6 {
        let fw = capped_firmware(index, 80);
        let label = fw.profile.binary_name;
        let cold = scan(&fw, 1, None).with_zeroed_wall_clock();
        for threads in [1, 2, 8] {
            let cache = Arc::new(SummaryCache::new());
            // First scan populates the cache ...
            let populate = scan(&fw, threads, Some(CacheRef::new(cache.clone(), "img")))
                .with_zeroed_wall_clock();
            assert_eq!(populate, cold, "{label}: populating scan diverged at {threads} threads");
            let st = cache.scan_stats("img");
            assert_eq!(st.sym_hits + st.ddg_hits, 0, "{label}: cold scan cannot hit");
            // ... the second is served from it and must not differ in
            // any logical field.
            let warm = scan(&fw, threads, Some(CacheRef::new(cache.clone(), "img")))
                .with_zeroed_wall_clock();
            assert_eq!(warm, cold, "{label}: warm scan diverged at {threads} threads");
            let st = cache.scan_stats("img");
            assert!(st.ddg_hits > 0, "{label}: warm scan saw no DDG hits at {threads} threads");
            assert!(st.sym_hits > 0, "{label}: warm scan saw no symex hits at {threads} threads");
            assert_eq!(
                st.sym_misses, 0,
                "{label}: warm scan missed symex cache at {threads} threads: {:?}",
                st.sym_miss_fns
            );
        }
    }
}

/// Warmth is thread-count agnostic: a cache populated at 1 thread
/// serves a scan at 8 threads (and vice versa) — the content keys and
/// blobs never depend on pool layout or scheduling.
#[test]
fn cache_populated_at_one_thread_count_serves_another() {
    let fw = capped_firmware(2, 120);
    let cold = scan(&fw, 1, None).with_zeroed_wall_clock();
    let cache = Arc::new(SummaryCache::new());
    scan(&fw, 1, Some(CacheRef::new(cache.clone(), "img")));
    let warm8 = scan(&fw, 8, Some(CacheRef::new(cache.clone(), "img"))).with_zeroed_wall_clock();
    assert_eq!(warm8, cold, "populate@1t then warm@8t diverged");
    let st = cache.scan_stats("img");
    assert_eq!(st.sym_misses, 0, "cross-thread warm scan missed symex: {:?}", st.sym_miss_fns);
    assert_eq!(st.ddg_misses, 0, "cross-thread warm scan missed ddg: {:?}", st.ddg_miss_fns);
}

/// Functions transitively reaching any of `changed` through the direct
/// call graph (including `changed` itself) — the exact set whose DDG
/// final keys must move when `changed` bodies change.
fn reverse_reachable(bin: &dtaint_fwbin::Binary, changed: &[String]) -> BTreeSet<String> {
    let cfgs = dtaint_cfg::build_all_cfgs(bin).unwrap();
    let cg = dtaint_cfg::CallGraph::build(bin, &cfgs);
    let name_of: HashMap<u32, String> =
        bin.functions().iter().map(|s| (s.addr, s.name.clone())).collect();
    let addr_of: HashMap<&str, u32> =
        bin.functions().iter().map(|s| (s.name.as_str(), s.addr)).collect();
    let mut rev: HashMap<u32, Vec<u32>> = HashMap::new();
    for (caller, callees) in &cg.edges {
        for callee in callees {
            rev.entry(*callee).or_default().push(*caller);
        }
    }
    let mut frontier: Vec<u32> =
        changed.iter().filter_map(|n| addr_of.get(n.as_str())).copied().collect();
    let mut seen: BTreeSet<u32> = frontier.iter().copied().collect();
    while let Some(addr) = frontier.pop() {
        for &caller in rev.get(&addr).into_iter().flatten() {
            if seen.insert(caller) {
                frontier.push(caller);
            }
        }
    }
    seen.into_iter().filter_map(|a| name_of.get(&a).cloned()).collect()
}

/// The core version-pair check: after populating the cache with the
/// base build, scanning the updated build must (a) produce a report
/// byte-identical to a cold scan of the updated build, and (b) miss the
/// symex cache for exactly the changed functions and the DDG cache for
/// exactly the changed functions plus their transitive callers.
fn check_version_pair(profile_index: usize, cap: usize, edit_seed: u64, k: usize) {
    let mut p = table2_profiles().remove(profile_index);
    p.total_functions = p.total_functions.min(cap);
    let pair = build_version_pair(&p, edit_seed, k);
    let cold = scan(&pair.updated, 1, None).with_zeroed_wall_clock();

    let cache = Arc::new(SummaryCache::new());
    scan(&pair.base, 1, Some(CacheRef::new(cache.clone(), "img")));
    // A warm re-scan of the unchanged base isolates the *residual* miss
    // set: functions that can never be cached (degraded under budget,
    // etc.) — normally empty, but excluded from the delta either way.
    scan(&pair.base, 1, Some(CacheRef::new(cache.clone(), "img")));
    let residual = cache.scan_stats("img");

    let warm =
        scan(&pair.updated, 2, Some(CacheRef::new(cache.clone(), "img"))).with_zeroed_wall_clock();
    assert_eq!(warm, cold, "seed {edit_seed}: incremental re-scan diverged from cold scan");

    let st = cache.scan_stats("img");
    let changed: BTreeSet<String> = pair.changed.iter().cloned().collect();
    let mut expected_sym = changed.clone();
    expected_sym.extend(residual.sym_miss_fns.iter().cloned());
    assert_eq!(
        st.sym_miss_fns, expected_sym,
        "seed {edit_seed}: symex misses must be exactly the changed functions"
    );
    // DDG misses: every changed function must miss, and nothing outside
    // the changed set plus its transitive callers may. The caller side
    // is an upper bound, not an equality: a caller whose symbolic
    // summary never recorded the callsite (say, past the path budget)
    // does not depend on the callee, so its key — correctly — survives.
    let mut allowed_ddg = reverse_reachable(&pair.updated.binary, &pair.changed);
    allowed_ddg.extend(residual.ddg_miss_fns.iter().cloned());
    assert!(
        st.ddg_miss_fns.is_superset(&changed),
        "seed {edit_seed}: every changed function must miss the DDG cache: {:?}",
        st.ddg_miss_fns
    );
    assert!(
        st.ddg_miss_fns.is_subset(&allowed_ddg),
        "seed {edit_seed}: DDG misses leaked outside changed + transitive callers: {:?} vs {:?}",
        st.ddg_miss_fns,
        allowed_ddg
    );
    if !pair.changed.is_empty() {
        assert!(
            st.invalidations >= pair.changed.len() as u64,
            "seed {edit_seed}: changed functions must register as invalidations"
        );
    }
}

/// Deterministic spot check of the version-pair contract.
#[test]
fn version_pair_misses_only_changed_functions_and_their_callers() {
    check_version_pair(2, 100, 11, 2);
}

/// The cache must stay correct when the corpus contains a corrupt
/// image: `batch` isolates the damaged functions (never caching them),
/// reuses summaries everywhere else, and reproduces identical findings
/// on the warm run.
#[test]
fn batch_cache_survives_a_corrupt_image_in_the_corpus() {
    let dir = std::env::temp_dir().join(format!("dtaint-inc-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = capped_firmware(2, 60);
    std::fs::write(dir.join("good.fwi"), good.image.pack(false)).unwrap();
    let mut corrupt = capped_firmware(0, 50);
    let mutant = dtaint_fwgen::corrupt_binary(
        &corrupt.binary,
        &dtaint_fwgen::BinFault::GarbageOpcodes { index: 1, seed: 7 },
    )
    .to_bytes();
    for f in &mut corrupt.image.files {
        if f.data.starts_with(&dtaint_fwbin::fbf::FBF_MAGIC) {
            f.data = mutant.clone();
        }
    }
    std::fs::write(dir.join("corrupt.fwi"), corrupt.image.pack(false)).unwrap();

    let d = dir.to_string_lossy().into_owned();
    let (code, out) = dtaint_cli::run_captured(&["batch", &d]);
    assert_eq!(code, Ok(0), "cold batch over the corpus: {out}");
    let report_of = |name: &str| {
        let text = std::fs::read_to_string(dir.join(".dtaint-store/reports").join(name)).unwrap();
        AnalysisReport::from_json(text.trim()).unwrap().with_zeroed_wall_clock()
    };
    let cold_good = report_of("good.json");
    let cold_corrupt = report_of("corrupt.json");
    assert!(cold_corrupt.functions_skipped > 0, "the mutant image must degrade somewhere");

    let (code, out) = dtaint_cli::run_captured(&["batch", &d]);
    assert_eq!(code, Ok(0), "warm batch: {out}");
    assert!(out.contains("0 new, 0 reopened, 0 resolved"), "{out}");
    assert_eq!(report_of("good.json"), cold_good, "warm reports must match cold byte-for-byte");
    assert_eq!(report_of("corrupt.json"), cold_corrupt, "corrupt image report must be stable");
    let corpus = std::fs::read_to_string(dir.join(".dtaint-store/reports/corpus.json")).unwrap();
    assert!(!corpus.contains("\"ddg_hits\": 0,"), "warm run reuses summaries: {corpus}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Summarizing a function again, each time into a fresh pool, encodes
/// to the same blob: nothing in a local summary may follow hash-map
/// iteration order (which changes with every map), or the cached blobs
/// — and `summaries.dtc` — would differ from run to run. That order
/// could show wherever a definition escapes, and may show in only a
/// few runs, so each such function is summarized sixteen times.
#[test]
fn local_summary_blobs_repeat_exactly() {
    use dtaint_symex::{analyze_function, encode_summary, ExprPool, SymexConfig};
    for index in 0..4 {
        let fw = build_firmware(&table2_profiles().remove(index));
        for cfg in dtaint_cfg::build_all_cfgs(&fw.binary).unwrap() {
            let summarize = || {
                let mut pool = ExprPool::new();
                let s = analyze_function(&fw.binary, &cfg, &mut pool, &SymexConfig::default());
                (s.escape_defs.is_empty(), encode_summary(&pool, &s, &mut |u| Some((0, u))))
            };
            let (no_escapes, first) = summarize();
            if no_escapes {
                continue;
            }
            for _ in 1..16 {
                assert!(
                    summarize().1 == first,
                    "{}: the summary blob of {} changed between runs",
                    fw.profile.binary_name,
                    cfg.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Seeded version pairs: only changed functions and their transitive
    /// callers miss the cache, and the warm report is byte-identical to
    /// a cold one — for arbitrary edit seeds and edit counts.
    #[test]
    fn version_pairs_miss_exactly_changed_plus_callers(
        profile_index in prop_oneof![Just(0usize), Just(2usize)],
        edit_seed in any::<u64>(),
        k in 1usize..4,
    ) {
        check_version_pair(profile_index, 60, edit_seed, k);
    }
}
