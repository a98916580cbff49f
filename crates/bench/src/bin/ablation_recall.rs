//! Recall ablations for DESIGN.md's design choices: what fraction of
//! the planted ground truth survives when a pipeline stage is disabled
//! or the path budget shrinks, plus the store-vs-SSE alias ablation
//! across every Table II profile. Writes the machine-readable alias
//! comparison to `results/BENCH_alias_recall.json`; `tests/ablation.rs`
//! holds the floor that the SSE fixpoint never detects fewer plants
//! than the store-based pass.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin ablation_recall
//! ```

use dtaint_bench::alias_recall::{alias_profile, alias_recall, plant_detected};
use dtaint_bench::render_table;
use dtaint_core::{AliasMode, Dtaint, DtaintConfig};
use dtaint_fwgen::{build_firmware, table2_profiles, GeneratedFirmware};
use dtaint_symex::SymexConfig;
use serde_json::Value;

fn recall(fw: &GeneratedFirmware, config: DtaintConfig) -> (usize, usize) {
    let report = Dtaint::with_config(config).analyze(&fw.binary, "ablation").unwrap();
    let expected: Vec<_> = fw.ground_truth.iter().filter(|g| !g.sanitized).collect();
    let hit = expected.iter().filter(|g| plant_detected(&report, g)).count();
    (hit, expected.len())
}

fn main() {
    // The Hikvision profile exercises every advanced mechanism: aliases,
    // indirect calls, loop copies, multi-level pointer chains.
    let mut profile = table2_profiles().remove(5);
    profile.total_functions = 400;
    profile.analyzed_prefixes = None;
    let fw = build_firmware(&profile);

    let mut rows = Vec::new();
    let configs: Vec<(&str, DtaintConfig)> = vec![
        ("full pipeline (sse alias)", DtaintConfig::default()),
        ("store-based alias (Algorithm 1)", {
            let mut c = DtaintConfig::default();
            c.dataflow.alias.mode = AliasMode::Store;
            c
        }),
        ("no pointer aliasing", {
            let mut c = DtaintConfig::default();
            c.dataflow.alias.mode = AliasMode::Off;
            c
        }),
        ("no indirect resolution", {
            let mut c = DtaintConfig::default();
            c.dataflow.enable_indirect = false;
            c
        }),
        ("no loop-copy sinks", {
            let mut c = DtaintConfig::default();
            c.dataflow.loop_copy_sinks = false;
            c
        }),
        (
            "path cap 4",
            DtaintConfig {
                symex: SymexConfig { max_paths: 4, ..Default::default() },
                ..Default::default()
            },
        ),
        (
            "path cap 1",
            DtaintConfig {
                symex: SymexConfig { max_paths: 1, ..Default::default() },
                ..Default::default()
            },
        ),
    ];
    let total_plants = fw.ground_truth.iter().filter(|g| !g.sanitized).count();
    for (label, config) in configs {
        let (hit, total) = recall(&fw, config);
        rows.push(vec![
            label.to_owned(),
            format!("{hit}/{total}"),
            format!("{:.0}%", 100.0 * hit as f64 / total as f64),
        ]);
    }
    println!("ablation recall on the Hikvision-shaped profile ({total_plants} planted flows):");
    println!();
    print!("{}", render_table(&["Configuration", "Detected", "Recall"], &rows));
    println!();
    println!("expected shape: the store-based pass loses the four multi-level alias");
    println!("chains the SSE fixpoint connects; disabling aliasing or indirect");
    println!("resolution loses the URL-parameter flows as well.");
    println!();

    // Store-vs-SSE across every Table II profile, scored per plant
    // class (`tests/ablation.rs` holds the floor).
    let mut alias_rows = Vec::new();
    let mut profiles_json = Vec::new();
    for i in 0..table2_profiles().len() {
        let fw = alias_profile(i);
        let (s_deep, deep_n, s_flat, flat_n) = alias_recall(&fw, AliasMode::Store);
        let (e_deep, _, e_flat, _) = alias_recall(&fw, AliasMode::Sse);
        alias_rows.push(vec![
            format!("{} ({})", fw.profile.binary_name, fw.profile.manufacturer),
            format!("{}/{}", s_flat + s_deep, flat_n + deep_n),
            format!("{}/{}", e_flat + e_deep, flat_n + deep_n),
            format!("{s_deep}/{deep_n}"),
            format!("{e_deep}/{deep_n}"),
        ]);
        profiles_json.push(Value::Obj(vec![
            ("binary".into(), Value::Str(fw.profile.binary_name.into())),
            ("manufacturer".into(), Value::Str(fw.profile.manufacturer.into())),
            ("plants".into(), Value::Int((flat_n + deep_n) as i64)),
            ("deep_plants".into(), Value::Int(deep_n as i64)),
            ("store_detected".into(), Value::Int((s_flat + s_deep) as i64)),
            ("sse_detected".into(), Value::Int((e_flat + e_deep) as i64)),
            ("store_deep_detected".into(), Value::Int(s_deep as i64)),
            ("sse_deep_detected".into(), Value::Int(e_deep as i64)),
        ]));
    }
    println!("store-vs-SSE alias recall per profile (deep = multi-level chains):");
    println!();
    print!("{}", render_table(&["Profile", "Store", "SSE", "Store deep", "SSE deep"], &alias_rows));
    println!();

    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("alias_recall".into())),
        ("modes".into(), Value::Arr(vec![Value::Str("store".into()), Value::Str("sse".into())])),
        ("profiles".into(), Value::Arr(profiles_json)),
    ]);
    std::fs::create_dir_all("results").ok();
    let path = "results/BENCH_alias_recall.json";
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(path, json + "\n").expect("write results file");
    println!("wrote {path}");
}
