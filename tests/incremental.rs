//! Differential harness for the incremental summary cache: a
//! warm-cache scan must be **byte-identical** (full `PartialEq`,
//! evidence and telemetry counters included) to a cold scan of the same
//! image — on every Table II profile, at every thread count — and the
//! set of functions that miss the cache after an edit must be exactly
//! the changed functions plus their transitive callers.

use dtaint_cfg::build_function_cfg;
use dtaint_core::{AnalysisReport, CacheRef, Dtaint, DtaintConfig, SummaryCache};
use dtaint_dataflow::cache::{decode_local, env_digest, sym_salt, symbol_content_hash, Level};
use dtaint_fwbin::{Binary, Symbol};
use dtaint_fwgen::{
    build_firmware, build_version_pair, corrupt_binary, table2_profiles, BinFault,
    GeneratedFirmware,
};
use dtaint_symex::{ExprPool, SymexConfig};
use dtaint_telemetry::Collector;
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
    scan_bin(&fw.binary, threads, cache)
}

fn scan_bin(bin: &Binary, threads: usize, cache: Option<CacheRef>) -> AnalysisReport {
    let config = DtaintConfig { threads, cache, ..Default::default() };
    Dtaint::with_config(config).analyze(bin, "img").unwrap()
}

/// The symex-level key of `sym` under the default configuration.
fn sym_key(bin: &Binary, sym: &Symbol) -> Option<u64> {
    let salt = sym_salt(env_digest(bin), &SymexConfig::default());
    symbol_content_hash(salt, bin, sym)
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

/// A symex hit serves the function's shape from the cache record instead
/// of lifting it. On every Table II profile and every `BinFault` mutant,
/// each record a warm scan hits decodes to exactly the shape a lift
/// gives, and the warm report equals the cold one.
#[test]
fn warm_hits_serve_the_lifted_shape_on_profiles_and_mutants() {
    for index in 0..6 {
        let fw = capped_firmware(index, 60);
        let n = fw.binary.functions().len();
        let mut variants = vec![("pristine".to_owned(), fw.binary.clone())];
        for fault in [
            BinFault::LyingSectionSize { index: 0 },
            BinFault::WrappingSymbol { index: 0 },
            BinFault::OverlappingSymbols,
            BinFault::DanglingSymbol,
            BinFault::GarbageOpcodes { index: 0, seed: 11 },
            BinFault::GarbageOpcodes { index: n / 2, seed: 11 },
            BinFault::GarbageOpcodes { index: 1, seed: 7 },
        ] {
            variants.push((format!("{fault:?}"), corrupt_binary(&fw.binary, &fault)));
        }
        for (fault, bin) in &variants {
            let label = format!("{} {fault}", fw.profile.binary_name);
            let cache = Arc::new(SummaryCache::new());
            let cold = scan_bin(bin, 2, Some(CacheRef::new(cache.clone(), "img")))
                .with_zeroed_wall_clock();
            let warm = scan_bin(bin, 2, Some(CacheRef::new(cache.clone(), "img")))
                .with_zeroed_wall_clock();
            assert_eq!(warm, cold, "{label}: warm scan diverged");
            let mut served = 0;
            for sym in bin.functions() {
                let Some(blob) = sym_key(bin, sym).and_then(|k| cache.lookup_blob(Level::Symex, k))
                else {
                    continue;
                };
                let (summary, shape) = decode_local(&blob, &mut ExprPool::new())
                    .unwrap_or_else(|| panic!("{label}: `{}` record decodes", sym.name));
                assert_eq!((summary.addr, summary.name.as_str()), (sym.addr, sym.name.as_str()));
                let lifted = build_function_cfg(bin, sym).expect("cached functions lift").shape();
                assert_eq!(
                    shape, lifted,
                    "{label}: `{}` served a shape a lift disagrees with",
                    sym.name
                );
                served += 1;
            }
            let st = cache.scan_stats("img");
            // A lying text section maps no function bytes, so nothing
            // has a key there.
            assert!(served > 0 || fault.starts_with("LyingSectionSize"), "{label}: no hits");
            assert_eq!(st.sym_hits, served, "{label}: every stored record is hit");
        }
    }
}

/// A warm scan lifts exactly the functions that miss the symex cache:
/// one `lift_fn` span per miss, none per hit, at every thread count.
#[test]
fn warm_scans_lift_only_symex_misses() {
    let mut p = table2_profiles().remove(2);
    p.total_functions = 100;
    let pair = build_version_pair(&p, 11, 2);
    let cold = scan(&pair.updated, 1, None).with_zeroed_wall_clock();
    for threads in [1, 2, 8] {
        let cache = Arc::new(SummaryCache::new());
        scan(&pair.base, threads, Some(CacheRef::new(cache.clone(), "img")));
        let config = DtaintConfig {
            threads,
            cache: Some(CacheRef::new(cache.clone(), "img")),
            ..Default::default()
        };
        let mut tel = Collector::enabled();
        let warm = Dtaint::with_config(config)
            .analyze_traced(&pair.updated.binary, "img", &mut tel)
            .unwrap()
            .with_zeroed_wall_clock();
        assert_eq!(warm, cold, "warm scan diverged at {threads} threads");
        let st = cache.scan_stats("img");
        let lifted: Vec<String> =
            tel.events().iter().filter(|e| e.cat == "lift_fn").map(|e| e.name.clone()).collect();
        assert!(st.sym_misses > 0 && st.sym_hits > 0, "{st:?}");
        assert_eq!(lifted.len() as u64, st.sym_misses, "one lift per miss at {threads} threads");
        assert_eq!(BTreeSet::from_iter(lifted), st.sym_miss_fns, "the lifted functions missed");
        let symex_spans = tel.events().iter().filter(|e| e.cat == "symex_fn").count() as u64;
        assert_eq!(symex_spans, st.sym_hits + st.sym_misses, "one symex span per function");
    }
}

/// A record whose shape tail is damaged is never served: the probe
/// rolls the pool back, the function runs cold, its record is stored
/// afresh, and the report equals a cold scan's.
#[test]
fn damaged_shape_tail_falls_back_to_a_cold_run() {
    let fw = capped_firmware(0, 60);
    let bin = &fw.binary;
    let cold = scan(&fw, 1, None).with_zeroed_wall_clock();
    let cache = Arc::new(SummaryCache::new());
    scan(&fw, 1, Some(CacheRef::new(cache.clone(), "img")));
    // The function with the most call rows, so its tail is longest.
    let (sym, key, blob) = bin
        .functions()
        .into_iter()
        .filter_map(|s| {
            let k = sym_key(bin, s)?;
            Some((s, k, cache.lookup_blob(Level::Symex, k)?))
        })
        .max_by_key(|(s, ..)| build_function_cfg(bin, s).unwrap().shape().calls.len())
        .unwrap();
    let tail_len = {
        let mut shape = Vec::new();
        build_function_cfg(bin, sym).unwrap().shape().encode_compact(&mut shape);
        shape.len()
    };
    let mut dangling = blob.clone();
    *dangling.last_mut().unwrap() |= 0x80;
    let mut long = blob.clone();
    long.push(0);
    let damaged = [
        ("truncated", blob[..blob.len() - 1].to_vec()),
        ("summary only", blob[..blob.len() - tail_len].to_vec()),
        ("dangling varint", dangling),
        ("trailing byte", long),
    ];
    for (what, bad) in damaged {
        cache.store(Level::Symex, "seed", key, bad);
        let warm = scan(&fw, 2, Some(CacheRef::new(cache.clone(), "img"))).with_zeroed_wall_clock();
        assert_eq!(warm, cold, "{what}: report diverged");
        let st = cache.scan_stats("img");
        assert_eq!(st.sym_miss_fns, BTreeSet::from([sym.name.clone()]), "{what}");
        assert_eq!(cache.lookup_blob(Level::Symex, key), Some(blob.clone()), "{what}: re-stored");
    }

    // A bit flipped on disk inside the tail fails the record checksum:
    // the record is discarded on load and the function runs cold.
    let mut bytes = cache.to_bytes();
    let at = bytes.windows(blob.len()).position(|w| w == blob).unwrap() + blob.len() - 1;
    bytes[at] ^= 0x01;
    let (loaded, report) = SummaryCache::from_bytes(&bytes);
    assert!(report.damaged && report.discarded == 1, "{report:?}");
    let loaded = Arc::new(loaded);
    let warm = scan(&fw, 2, Some(CacheRef::new(loaded.clone(), "img"))).with_zeroed_wall_clock();
    assert_eq!(warm, cold, "bit flip on disk: report diverged");
    assert_eq!(loaded.scan_stats("img").sym_miss_fns, BTreeSet::from([sym.name.clone()]));
}

/// The symex key hashes the function's own bytes, not those of the first
/// symbol covering its entry. On the overlapping-symbols mutant the
/// first function runs 8 bytes into the second, so an edit further into
/// the second function must still miss, and the warm report must equal
/// a cold scan of the edited image.
#[test]
fn overlapping_symbols_key_each_function_by_its_own_bytes() {
    let fw = capped_firmware(0, 60);
    let overlapped = corrupt_binary(&fw.binary, &BinFault::OverlappingSymbols);
    let funcs = overlapped.functions();
    let (first, second) = (funcs[0].clone(), funcs[1].clone());
    assert_eq!(
        overlapped.function_at(second.addr).map(|s| s.name.as_str()),
        Some(first.name.as_str()),
        "the first function covers the second one's entry"
    );
    // The first bit flip past the overlap that still lifts, so the
    // function is analyzed (a lift failure is never a cache probe).
    let edited = (8..second.size)
        .flat_map(|off| (0..8).map(move |bit| (off, bit)))
        .find_map(|(off, bit)| {
            let mut b = overlapped.clone();
            let addr = second.addr + off;
            let text = b.sections.iter_mut().find(|s| s.contains(addr)).unwrap();
            text.data[(addr - text.addr) as usize] ^= 1 << bit;
            build_function_cfg(&b, &second).is_ok().then_some(b)
        })
        .expect("some flip keeps the function liftable");
    let cold = scan_bin(&edited, 1, None).with_zeroed_wall_clock();
    let cache = Arc::new(SummaryCache::new());
    scan_bin(&overlapped, 1, Some(CacheRef::new(cache.clone(), "img")));
    let warm =
        scan_bin(&edited, 2, Some(CacheRef::new(cache.clone(), "img"))).with_zeroed_wall_clock();
    let st = cache.scan_stats("img");
    assert_eq!(st.sym_miss_fns, BTreeSet::from([second.name.clone()]), "{st:?}");
    assert!(st.ddg_miss_fns.contains(&second.name), "{st:?}");
    assert_eq!(warm, cold, "warm scan of the edited overlap diverged from cold");
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
