//! Property-based tests over the whole stack: arbitrary generated
//! programs must compile, link, lift, and analyze without panics, and
//! planted flows must be found regardless of the surrounding noise.

use dtaint_core::Dtaint;
use dtaint_fwbin::{Arch, Binary};
use dtaint_fwgen::compile;
use dtaint_fwgen::filler::add_filler;
use dtaint_fwgen::spec::{Callee, FnSpec, ProgramSpec, Stmt, Val};
use dtaint_fwgen::templates::{plant, PlantKind, PlantSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arch_strategy() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::Arm32e), Just(Arch::Mips32e)]
}

fn kind_strategy() -> impl Strategy<Value = PlantKind> {
    prop_oneof![
        Just(PlantKind::CmdiGetenvSystem),
        Just(PlantKind::CmdiWebsgetvarSystem),
        Just(PlantKind::CmdiFindvarPopen),
        Just(PlantKind::BofReadStrncpy),
        Just(PlantKind::BofGetenvSprintf),
        Just(PlantKind::BofGetenvStrcpy),
        Just(PlantKind::BofRecvMemcpy),
        Just(PlantKind::BofSscanfRtsp),
        Just(PlantKind::BofReadMemcpySmall),
        Just(PlantKind::BofReadLoopcopy),
        Just(PlantKind::BofUrlParamAliasIndirect),
    ]
}

/// Builds a program with one plant surrounded by seeded filler noise.
fn noisy_program(
    kind: PlantKind,
    sanitized: bool,
    depth: u8,
    filler: usize,
    seed: u64,
    arch: Arch,
) -> Binary {
    let mut spec = ProgramSpec::new("prop");
    let gt = plant(&mut spec, &PlantSpec::new(kind, "p", sanitized, depth));
    let mut rng = StdRng::seed_from_u64(seed);
    let names = add_filler(&mut spec, "noise_", filler, &mut rng);
    let mut main = FnSpec::new("main", 0);
    main.push(Stmt::Call { callee: Callee::Func(gt.entry_fn), args: vec![], ret: None });
    for n in names.iter().rev().take(3) {
        main.push(Stmt::Call {
            callee: Callee::Func(n.clone()),
            args: vec![Val::Const(2)],
            ret: None,
        });
    }
    main.push(Stmt::Return(None));
    spec.func(main);
    compile(&spec, arch).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The detector's verdict is exactly the ground truth, for every
    /// template kind, on both architectures, under arbitrary noise.
    #[test]
    fn verdict_matches_ground_truth(
        kind in kind_strategy(),
        sanitized in any::<bool>(),
        depth in 0u8..3,
        filler in 0usize..25,
        seed in any::<u64>(),
        arch in arch_strategy(),
    ) {
        let bin = noisy_program(kind, sanitized, depth, filler, seed, arch);
        let r = Dtaint::new().analyze(&bin, "prop").unwrap();
        if sanitized {
            prop_assert_eq!(r.vulnerabilities(), 0, "guarded twin misreported");
        } else {
            prop_assert_eq!(r.vulnerabilities(), 1, "plant missed or duplicated");
        }
    }

    /// Every byte sequence either decodes or errors — flipping bits in a
    /// linked binary's text never panics the lifter/CFG layers.
    #[test]
    fn bitflips_never_panic_the_pipeline(
        seed in any::<u64>(),
        flip_at in 0usize..256,
        flip_bit in 0u8..32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = ProgramSpec::new("flip");
        let names = add_filler(&mut spec, "f_", 3, &mut rng);
        let mut main = FnSpec::new("main", 0);
        for n in &names {
            main.push(Stmt::Call { callee: Callee::Func(n.clone()), args: vec![Val::Const(1)], ret: None });
        }
        main.push(Stmt::Return(None));
        spec.func(main);
        let bin = compile(&spec, Arch::Mips32e).unwrap();
        let mut bytes = bin.to_bytes();
        // Flip one bit somewhere in the serialized form.
        let pos = flip_at % bytes.len();
        bytes[pos] ^= 1u8.rotate_left(flip_bit as u32 % 8);
        if let Ok(parsed) = Binary::from_bytes(&bytes) {
            // Either analyzes or errors cleanly; never panics.
            let _ = Dtaint::new().analyze(&parsed, "flip");
        }
    }

    /// Filler-only programs are never flagged (no false positives from
    /// benign code), regardless of seed and size.
    #[test]
    fn benign_programs_are_never_flagged(
        seed in any::<u64>(),
        n in 1usize..30,
        arch in arch_strategy(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = ProgramSpec::new("benign");
        let names = add_filler(&mut spec, "b_", n, &mut rng);
        let mut main = FnSpec::new("main", 0);
        for nm in names.iter().rev().take(4) {
            main.push(Stmt::Call { callee: Callee::Func(nm.clone()), args: vec![Val::Const(3)], ret: None });
        }
        main.push(Stmt::Return(None));
        spec.func(main);
        let bin = compile(&spec, arch).unwrap();
        let r = Dtaint::new().analyze(&bin, "benign").unwrap();
        prop_assert_eq!(r.vulnerabilities(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental cache's content hash is a pure function of salt,
    /// address, name, and raw bytes — it takes no pool, no thread count,
    /// no scheduling state, so it is trivially stable across pool
    /// layouts — and it moves whenever any of its inputs moves.
    #[test]
    fn summary_content_hash_is_pure_and_sensitive(
        salt in any::<u64>(),
        addr in any::<u32>(),
        bytes in proptest::collection::vec(any::<u8>(), 1..64),
        flip in 0usize..64,
    ) {
        use dtaint_dataflow::cache::function_content_hash;
        let h = function_content_hash(salt, addr, "f", &bytes);
        prop_assert_eq!(h, function_content_hash(salt, addr, "f", &bytes), "hash must be pure");
        let mut flipped = bytes.clone();
        let i = flip % bytes.len();
        flipped[i] ^= 1;
        prop_assert_ne!(h, function_content_hash(salt, addr, "f", &flipped), "byte flip ignored");
        prop_assert_ne!(h, function_content_hash(salt ^ 1, addr, "f", &bytes), "salt ignored");
        prop_assert_ne!(h, function_content_hash(salt, addr ^ 1, "f", &bytes), "address ignored");
        prop_assert_ne!(h, function_content_hash(salt, addr, "g", &bytes), "name ignored");
    }

    /// A function's final DDG key moves whenever its own hash or any
    /// callee's key moves, and never when neither does.
    #[test]
    fn final_key_tracks_own_hash_and_callee_keys(
        salt in any::<u64>(),
        own in any::<u64>(),
        callees in proptest::collection::vec(any::<u64>(), 0..6),
        bump in 0usize..6,
    ) {
        use dtaint_dataflow::cache::{combine_scc, compose_final_key};
        let k = compose_final_key(salt, own, None, &callees);
        prop_assert_eq!(k, compose_final_key(salt, own, None, &callees), "key must be pure");
        prop_assert_ne!(k, compose_final_key(salt, own ^ 1, None, &callees), "own hash ignored");
        prop_assert_ne!(k, compose_final_key(salt ^ 1, own, None, &callees), "salt ignored");
        if !callees.is_empty() {
            let mut moved = callees.clone();
            let i = bump % moved.len();
            moved[i] ^= 1;
            prop_assert_ne!(k, compose_final_key(salt, own, None, &moved), "callee key ignored");
        }
        // Joining a recursive component changes the key even when the
        // combined hash coincides with the own hash's inputs.
        let scc = combine_scc(&[(1, own), (2, own ^ 7)]);
        prop_assert_ne!(k, compose_final_key(salt, own, Some(scc), &callees));
        // SCC combination is member-order-insensitive (whole-SCC
        // granularity must not depend on traversal order).
        let swapped = combine_scc(&[(2, own ^ 7), (1, own)]);
        prop_assert_eq!(scc, swapped, "SCC combine must sort members");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SSE alias fixpoint terminates within any round budget, the
    /// default budget finds every planted multi-level chain, and budget
    /// beyond the fixpoint is a no-op — the saturated state is
    /// idempotent, so findings are bit-identical.
    #[test]
    fn sse_fixpoint_terminates_and_is_idempotent(
        kind in prop_oneof![
            Just(PlantKind::BofAliasDeep2),
            Just(PlantKind::BofAliasDeep3),
            Just(PlantKind::BofAliasCalleeLoad),
            Just(PlantKind::BofAliasOffset),
        ],
        filler in 0usize..15,
        seed in any::<u64>(),
        arch in arch_strategy(),
    ) {
        let bin = noisy_program(kind, false, 0, filler, seed, arch);
        let run = |rounds: u32| {
            let mut config = dtaint_core::DtaintConfig::default();
            config.dataflow.alias.max_rounds = rounds;
            let r = Dtaint::with_config(config).analyze(&bin, "prop").unwrap();
            (r.vulnerabilities(), r.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>())
        };
        let (v_starved, _) = run(1);
        let (v6, f6) = run(6);
        let (v12, f12) = run(12);
        prop_assert!(v6 >= 1, "deep plant must be found at the default budget");
        prop_assert_eq!(v6, v12, "extra rounds past the fixpoint changed the verdict");
        prop_assert_eq!(f6, f12, "extra rounds past the fixpoint changed the findings");
        prop_assert!(v_starved <= v6, "a starved round budget cannot find more");
    }

    /// Every semantic field of `AliasConfig` — and nothing else —
    /// participates in the DDG cache salt: two configs key identically
    /// exactly when mode, depth, and round budgets agree, regardless of
    /// thread count.
    #[test]
    fn alias_config_fields_all_salt_the_ddg_key(
        sse_a in any::<bool>(), depth_a in 0u32..16, rounds_a in 0u32..16,
        sse_b in any::<bool>(), depth_b in 0u32..16, rounds_b in 0u32..16,
        threads_a in 0usize..16, threads_b in 0usize..16,
    ) {
        use dtaint_dataflow::cache::ddg_salt;
        use dtaint_dataflow::{AliasConfig, AliasMode, DataflowConfig};
        let mk = |sse: bool, d: u32, r: u32, t: usize| DataflowConfig {
            threads: t,
            alias: AliasConfig {
                mode: if sse { AliasMode::Sse } else { AliasMode::Store },
                max_depth: d,
                max_rounds: r,
            },
            ..Default::default()
        };
        let env = 0x1234_5678_9abc_def0;
        let a = ddg_salt(env, &mk(sse_a, depth_a, rounds_a, threads_a));
        let b = ddg_salt(env, &mk(sse_b, depth_b, rounds_b, threads_b));
        let same_semantics = sse_a == sse_b && depth_a == depth_b && rounds_a == rounds_b;
        prop_assert_eq!(a == b, same_semantics, "salt must track exactly the semantic fields");
    }
}

/// Thread count and tracing knobs are *not* part of the cache salts —
/// a cache populated at one `--threads` must serve any other — while
/// semantic analysis knobs are.
#[test]
fn cache_salts_ignore_thread_count_but_track_semantics() {
    use dtaint_dataflow::cache::{ddg_salt, sym_salt};
    use dtaint_dataflow::{BoundsMode, DataflowConfig};
    use dtaint_symex::SymexConfig;
    let env = 0x1234_5678_9abc_def0;
    let d1 = DataflowConfig { threads: 1, ..Default::default() };
    let d8 = DataflowConfig { threads: 8, ..Default::default() };
    assert_eq!(ddg_salt(env, &d1), ddg_salt(env, &d8), "threads must not salt DDG keys");
    let guards = DataflowConfig { bounds: BoundsMode::Interval, ..Default::default() };
    assert_ne!(ddg_salt(env, &d1), ddg_salt(env, &guards), "interval guards change semantics");
    let s = SymexConfig::default();
    let starved = SymexConfig { max_fuel: 2, ..Default::default() };
    assert_eq!(sym_salt(env, &s), sym_salt(env, &s));
    assert_ne!(sym_salt(env, &s), sym_salt(env, &starved), "fuel budget changes summaries");
    assert_ne!(sym_salt(env, &s), sym_salt(env ^ 1, &s), "environment digest must salt keys");
}

/// The cache salts of the analysis modes, pinned at a fixed
/// environment digest. A change here invalidates every stored cache
/// entry, so it must come with a salt-version bump.
#[test]
fn cache_salts_match_their_pinned_values() {
    use dtaint_core::{AliasMode, BoundsMode, DtaintConfig};
    use dtaint_dataflow::cache::{ddg_salt, sym_salt};
    let env = 0x0123_4567_89ab_cdef;
    let with = |edit: fn(&mut DtaintConfig)| {
        let mut c = DtaintConfig::default();
        edit(&mut c);
        c
    };
    let pins: [(&str, DtaintConfig, u64); 5] = [
        ("default", DtaintConfig::default(), 0x4cef_2e0f_5b01_e326),
        ("store", with(|c| c.dataflow.alias.mode = AliasMode::Store), 0x4346_3e67_a9a8_fddb),
        ("off", with(|c| c.dataflow.alias.mode = AliasMode::Off), 0x6cb1_8677_b780_7905),
        ("strict", with(|c| c.dataflow.bounds = BoundsMode::Strict), 0x4cef_2e0f_5b01_e326),
        ("interval", with(|c| c.dataflow.bounds = BoundsMode::Interval), 0xed76_d571_b395_4d4f),
    ];
    for (name, config, ddg) in pins {
        assert_eq!(ddg_salt(env, &config.dataflow), ddg, "{name}: ddg salt");
        assert_eq!(sym_salt(env, &config.symex), 0x494d_de89_0abf_7169, "{name}: symex salt");
    }
}

#[test]
fn corpus_statistics_are_stable_across_seeds() {
    // The Figure 1 shape holds for any seed: unpack failures dominate,
    // emulation success is a small minority.
    for seed in [1u64, 99, 12345] {
        let corpus = dtaint_fwimage::generate_corpus(&dtaint_fwimage::CorpusConfig {
            n_images: 800,
            seed,
            ..Default::default()
        });
        let stats = dtaint_fwimage::triage(&corpus);
        let total: usize = stats.values().map(|s| s.total).sum();
        let unpacked: usize = stats.values().map(|s| s.unpacked).sum();
        let emulated: usize = stats.values().map(|s| s.emulated).sum();
        assert!(unpacked * 2 < total, "seed {seed}: unpack failures must dominate");
        assert!(emulated * 5 < total, "seed {seed}: emulation is a small minority");
        assert!(emulated > 0, "seed {seed}: some images do boot");
    }
}

proptest! {
    /// The Prometheus name rewrite is idempotent and always lands in
    /// the legal charset `[a-zA-Z0-9_:]` with no leading digit.
    #[test]
    fn sanitize_metric_name_is_idempotent_and_legal(
        name in proptest::collection::vec(any::<u8>(), 0..40)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
    ) {
        use dtaint_telemetry::sanitize_metric_name;
        let once = sanitize_metric_name(&name);
        prop_assert_eq!(&sanitize_metric_name(&once), &once, "idempotent");
        for (i, c) in once.chars().enumerate() {
            let legal = c.is_ascii_alphabetic()
                || c == '_'
                || c == ':'
                || (i > 0 && c.is_ascii_digit());
            prop_assert!(legal, "illegal char {:?} at {} in {:?}", c, i, once);
        }
    }
}

/// Sanitizing the real registry names a scan produces must not collide:
/// two distinct dotted keys never map to the same Prometheus name, or
/// the textfile would silently merge series.
#[test]
fn sanitize_metric_name_is_collision_free_on_real_registry_names() {
    use dtaint_telemetry::sanitize_metric_name;
    let bin = noisy_program(PlantKind::BofRecvMemcpy, false, 1, 6, 7, Arch::Arm32e);
    let report = Dtaint::new().analyze(&bin, "prom").unwrap();
    let reg = &report.telemetry.metrics;
    let names: Vec<&String> =
        reg.counters.keys().chain(reg.gauges.keys()).chain(reg.histograms.keys()).collect();
    assert!(!names.is_empty(), "scan populated the registry");
    let sanitized: std::collections::BTreeSet<String> =
        names.iter().map(|n| sanitize_metric_name(n)).collect();
    assert_eq!(sanitized.len(), names.len(), "no two registry names collide after sanitizing");
}

/// The exposition-format lint accepts the exporter's output on the
/// degenerate registries: empty (no samples at all) and histogram-only
/// (suffix-matched `_bucket`/`_sum`/`_count` samples, no plain names).
#[test]
fn prometheus_lint_accepts_empty_and_histogram_only_registries() {
    use dtaint_telemetry::{export_prometheus, lint_textfile, MetricsRegistry};
    let empty = MetricsRegistry::default();
    let text = export_prometheus(&empty, "dtaint_");
    assert!(text.is_empty(), "nothing to expose: {text}");
    lint_textfile(&text).expect("an empty textfile is valid");

    let mut reg = MetricsRegistry::default();
    reg.observe("ddg.fuel_per_fn", 0);
    reg.observe("ddg.fuel_per_fn", 700);
    let text = export_prometheus(&reg, "dtaint_");
    lint_textfile(&text).expect("histogram-only textfile is valid");
    assert!(text.contains("# TYPE dtaint_ddg_fuel_per_fn histogram"), "{text}");
    assert!(!text.contains("counter"), "no stray counter series: {text}");
}

/// `keep_first` — the executor's and the alias stage's dedup, which
/// sorts instead of hashing — keeps exactly what a `HashSet` filter
/// keeps: the first item of each key, in list order, each as it was
/// recorded (so with the path id of the path that recorded it first).
/// Lists come as paths would append them at their ends, with keys drawn
/// from a tiny range so most items are duplicates; empty and one-item
/// lists and argument lists of every length are included.
#[test]
fn keep_first_matches_a_hash_set_filter() {
    use dtaint_symex::{keep_first, ArgList, CalleeRef, CallsiteInfo, DefPair, ExprId};
    use rand::Rng;
    use std::collections::HashSet;

    fn reference<T: Clone, K: std::hash::Hash + Eq>(items: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
        let mut seen = HashSet::new();
        items.iter().filter(|t| seen.insert(key(t))).cloned().collect()
    }

    let mut rng = StdRng::seed_from_u64(0x5eed);
    for trial in 0..2000 {
        // Paths end one after another; each appends what it recorded,
        // stamped with its path id.
        let paths = match trial {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(0..8u32),
        };
        let mut pairs = Vec::new();
        let mut calls = Vec::new();
        for path in 0..paths {
            let items = if trial == 1 { 1 } else { rng.gen_range(0..6usize) };
            for _ in 0..items {
                let e = |rng: &mut StdRng| ExprId(rng.gen_range(0..3u32));
                let ins_addr = rng.gen_range(0..2u32);
                pairs.push(DefPair { d: e(&mut rng), u: e(&mut rng), ins_addr, path });
                let args: ArgList = (0..rng.gen_range(0..4usize)).map(|_| e(&mut rng)).collect();
                calls.push(CallsiteInfo {
                    ins_addr,
                    callee: CalleeRef::Direct(rng.gen_range(0..1000u32)),
                    args,
                    ret: e(&mut rng),
                    path,
                });
            }
        }

        let pair_key = |dp: &DefPair| (dp.d, dp.u, dp.ins_addr);
        let want = reference(&pairs, pair_key);
        keep_first(&mut pairs, pair_key);
        assert_eq!(pairs, want, "trial {trial}: definition pairs");

        // The callee and the return symbol are not part of the key: the
        // survivor must be the first one recorded, not any equal-keyed
        // one.
        let want = reference(&calls, |cs| (cs.ins_addr, cs.args.to_vec()));
        keep_first(&mut calls, |cs| (cs.ins_addr, cs.args));
        assert_eq!(calls, want, "trial {trial}: call sites");
    }
}
