//! Observability invariants: spans nest, logical counters are
//! bit-identical across thread counts, exporters round-trip, and the
//! `--profile` output is stable modulo duration fields.
//!
//! The determinism rule under test: wall-clock may appear in span
//! durations and `~`-prefixed display tokens, but never feeds findings
//! or logical counters.

use dtaint_core::{AnalysisReport, Dtaint, DtaintConfig, FnCost, FunctionOutcome};
use dtaint_fwgen::{build_firmware, corrupt_binary, table2_profiles, BinFault, GeneratedFirmware};
use dtaint_telemetry::{export_chrome, export_jsonl, Collector, SpanEvent};

fn capped_firmware(index: usize, cap: usize) -> GeneratedFirmware {
    let mut p = table2_profiles().remove(index);
    p.total_functions = p.total_functions.min(cap);
    build_firmware(&p)
}

fn traced_report(fw: &GeneratedFirmware, threads: usize) -> (AnalysisReport, Collector) {
    let config = DtaintConfig { threads, ..Default::default() };
    let mut tel = Collector::enabled();
    let report = Dtaint::with_config(config).analyze_traced(&fw.binary, "tel", &mut tel).unwrap();
    (report, tel)
}

/// The logical view of a cost profile: every deterministic field, with
/// the wall-clock display fields zeroed out.
fn logical(costs: &[FnCost]) -> Vec<FnCost> {
    costs.iter().map(|f| FnCost { symex_us: 0, ddg_us: 0, ..f.clone() }).collect()
}

#[test]
fn spans_nest_scan_function_stage() {
    let fw = capped_firmware(1, 80);
    let (report, tel) = traced_report(&fw, 2);
    assert!(report.functions > 0);
    let events = tel.events();

    let scans: Vec<&SpanEvent> = events.iter().filter(|e| e.cat == "scan").collect();
    assert_eq!(scans.len(), 1, "one root span per scan");
    let root = scans[0];
    assert_eq!(root.lane, 0);
    assert!(root.args.contains_key("pool_nodes"), "root carries the pool allocation stat");

    // Every stage span sits on lane 0 inside the root.
    let stage_names: Vec<&str> =
        events.iter().filter(|e| e.cat == "stage").map(|e| e.name.as_str()).collect();
    for expected in
        ["lift_cfg", "ssa", "ddg", "detect", "ddg_alias", "ddg_indirect", "ddg_propagate"]
    {
        assert!(stage_names.contains(&expected), "missing stage span `{expected}`");
    }
    for ev in events.iter().filter(|e| e.cat == "stage") {
        assert_eq!(ev.lane, 0, "stage `{}` on the scan lane", ev.name);
        assert!(root.contains(ev), "stage `{}` nests inside the scan root", ev.name);
    }
    // The DDG sub-stages nest inside the ddg stage, one after another.
    let ddg = events.iter().find(|e| e.name == "ddg" && e.cat == "stage").unwrap();
    let mut prev_end = ddg.start_us;
    for nm in ["ddg_alias", "ddg_indirect", "ddg_propagate"] {
        let sub = events.iter().find(|e| e.name == nm).unwrap();
        assert!(ddg.contains(sub), "`{nm}` nests inside `ddg`");
        assert!(sub.start_us >= prev_end, "`{nm}` starts after the previous sub-stage");
        prev_end = sub.start_us + sub.dur_us;
    }

    // The report's wall clock is read off these spans: one entry per
    // lane-0 span, each equal to that span's duration, the root under
    // `scan`.
    let lane0: Vec<&SpanEvent> = events.iter().filter(|e| e.lane == 0).collect();
    assert_eq!(report.stage_us.len(), lane0.len(), "{:?}", report.stage_us);
    for ev in lane0 {
        let key = if ev.cat == "scan" { "scan" } else { ev.name.as_str() };
        assert_eq!(report.stage_us.get(key), Some(&ev.dur_us), "`{key}` differs from its span");
    }

    // Per-function spans live on worker lanes, inside the root window,
    // and carry their logical counters as args.
    let fn_spans: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.cat == "lift_fn" || e.cat == "symex_fn" || e.cat == "ddg_fn")
        .collect();
    assert!(fn_spans.len() >= 2 * report.functions, "one span per function per stage");
    for ev in &fn_spans {
        assert!(ev.lane >= 1, "function spans use worker lanes");
        assert!(root.contains(ev), "function `{}` nests inside the scan root", ev.name);
        assert!(ev.args.contains_key("addr"), "function spans carry their address");
    }
    assert!(fn_spans.iter().any(|e| e.cat == "symex_fn" && e.args.contains_key("blocks")));
    assert!(fn_spans.iter().any(|e| e.cat == "ddg_fn" && e.args.contains_key("fuel")));

    // Lifting is attributable per function: one `lift_fn` span each,
    // inside the fused `ssa` stage, and the function's `symex_fn` span
    // starts on the same worker lane once its lift has ended.
    let ssa = events.iter().find(|e| e.name == "ssa" && e.cat == "stage").unwrap();
    let lifts: Vec<&SpanEvent> = events.iter().filter(|e| e.cat == "lift_fn").collect();
    assert_eq!(lifts.len(), report.functions, "one lift span per lifted function");
    for lift in &lifts {
        assert!(lift.args["blocks"] > 0 && lift.args["instructions"] > 0, "{}", lift.name);
        assert!(ssa.contains(lift), "`{}` lifts inside the ssa stage", lift.name);
        let symex = events
            .iter()
            .find(|e| e.cat == "symex_fn" && e.args["addr"] == lift.args["addr"])
            .unwrap_or_else(|| panic!("no symex span for `{}`", lift.name));
        assert_eq!(symex.lane, lift.lane, "`{}` lifts and runs on one lane", lift.name);
        assert!(
            symex.start_us >= lift.start_us + lift.dur_us,
            "`{}` symex starts after its lift",
            lift.name
        );
    }
    let instructions: u64 = lifts.iter().map(|e| e.args["instructions"]).sum();
    assert_eq!(instructions, report.telemetry.metrics.counter("lift.instructions"));
}

/// The fused pass merges each 64-symbol chunk once, on a worker lane
/// inside `ssa`: one `symex_merge` span per chunk, in chunk order, even
/// for a chunk with a function that failed to lift. Their node counts
/// add up to `symex.nodes_translated`.
#[test]
fn one_merge_span_per_chunk_inside_ssa() {
    let fw = capped_firmware(0, 150);
    let bin = corrupt_binary(&fw.binary, &BinFault::GarbageOpcodes { index: 100, seed: 11 });
    let symbols = bin.functions().len() as u64;
    for threads in [1, 2, 8] {
        let config = DtaintConfig { threads, ..Default::default() };
        let mut tel = Collector::enabled();
        let report = Dtaint::with_config(config).analyze_traced(&bin, "merge", &mut tel).unwrap();
        assert!(
            report.skipped_functions.iter().any(|r| r.outcome == FunctionOutcome::LiftFailed),
            "the corrupted function fails to lift"
        );
        let events = tel.events();
        let ssa = events.iter().find(|e| e.name == "ssa" && e.cat == "stage").unwrap();
        let merges: Vec<&SpanEvent> = events.iter().filter(|e| e.cat == "symex_merge").collect();
        assert_eq!(merges.len() as u64, symbols.div_ceil(64), "one merge per chunk");
        for (i, m) in merges.iter().enumerate() {
            assert_eq!(m.args["chunk"], i as u64, "merged in chunk order");
            assert!(m.lane >= 1, "merges run on worker lanes");
            assert!(ssa.contains(m), "merge of chunk {i} nests inside ssa");
        }
        let functions: u64 = merges.iter().map(|m| m.args["functions"]).sum();
        assert_eq!(functions, symbols, "lift failures count in their chunk");
        let nodes: u64 = merges.iter().map(|m| m.args["nodes"]).sum();
        assert_eq!(nodes, report.telemetry.metrics.counter("symex.nodes_translated"));
    }
}

/// Without tracing, a scan still records its lane-0 spans — the root and
/// the seven stage spans, the report's only clock — and nothing else.
#[test]
fn disabled_collector_keeps_only_stage_spans() {
    let fw = capped_firmware(1, 80);
    let config = DtaintConfig { threads: 2, ..Default::default() };
    let mut tel = Collector::disabled();
    let report = Dtaint::with_config(config).analyze_traced(&fw.binary, "quiet", &mut tel).unwrap();
    let events = tel.events();
    assert_eq!(events.len(), 8, "{events:?}");
    assert!(events.iter().all(|e| e.lane == 0), "no worker-lane spans when disabled");
    assert_eq!(report.stage_us.len(), 8);
    let root = events.iter().find(|e| e.cat == "scan").expect("the scan root");
    assert_eq!(report.stage_us["scan"], root.dur_us);
    assert!(report.telemetry.functions.iter().all(|f| f.symex_us == 0 && f.ddg_us == 0));
}

#[test]
fn logical_counters_bit_identical_across_threads() {
    let fw = capped_firmware(2, 160); // DGN1000: richest plant mix
    let (base, base_tel) = traced_report(&fw, 1);
    assert!(base.telemetry.metrics.counter("symex.blocks_executed") > 0);
    assert!(base.telemetry.metrics.gauge("image.functions") > 0);
    // Chunk boundaries are fixed, so the pool merge's work is too.
    assert!(base.telemetry.metrics.counter("symex.nodes_translated") > 0);
    for threads in [2, 8] {
        let (r, tel) = traced_report(&fw, threads);
        assert_eq!(
            base.telemetry.metrics, r.telemetry.metrics,
            "metrics registry must be bit-identical at {threads} threads"
        );
        assert_eq!(
            logical(&base.telemetry.functions),
            logical(&r.telemetry.functions),
            "per-function logical counters must be bit-identical at {threads} threads"
        );
        assert_eq!(base_tel.metrics, tel.metrics, "collector registries agree at {threads}");
        assert_eq!(base.findings.len(), r.findings.len());
    }
    // Telemetry itself must not perturb the analysis: a disabled
    // collector yields the same logical result.
    let config = DtaintConfig { threads: 2, ..Default::default() };
    let quiet = Dtaint::with_config(config).analyze(&fw.binary, "tel").unwrap();
    assert_eq!(base.telemetry.metrics, quiet.telemetry.metrics);
    assert_eq!(logical(&base.telemetry.functions), logical(&quiet.telemetry.functions));
}

#[test]
fn jsonl_export_round_trips() {
    let fw = capped_firmware(0, 60);
    let (_, tel) = traced_report(&fw, 2);
    let jsonl = export_jsonl(tel.events());
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), tel.events().len());
    for (line, original) in lines.iter().zip(tel.events()) {
        let back: SpanEvent = serde_json::from_str(line).unwrap();
        assert_eq!(&back, original);
    }
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let fw = capped_firmware(0, 60);
    let (_, tel) = traced_report(&fw, 2);
    let chrome = export_chrome(tel.events());
    let v: serde_json::Value = serde_json::from_str(&chrome).unwrap();
    let serde_json::Value::Obj(top) = &v else { panic!("top level must be an object") };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents array present");
    let serde_json::Value::Arr(events) = events else { panic!("traceEvents must be an array") };
    assert_eq!(events.len(), tel.events().len());
    for ev in events {
        let serde_json::Value::Obj(fields) = ev else { panic!("each event is an object") };
        for required in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(fields.iter().any(|(k, _)| k == required), "missing `{required}`");
        }
        let ph = fields.iter().find(|(k, _)| k == "ph").map(|(_, v)| v).unwrap();
        assert_eq!(ph, &serde_json::Value::Str("X".into()), "complete events");
    }
}

#[test]
fn profile_output_stable_modulo_durations() {
    let fw = capped_firmware(0, 60);
    let dir = std::env::temp_dir().join(format!("dtaint-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("profile.fbf");
    std::fs::write(&p, fw.binary.to_bytes()).unwrap();
    let path = p.to_string_lossy().into_owned();

    let run = |threads: &str| {
        let (code, out) =
            dtaint_cli::run_captured(&["scan", &path, "--profile", "--threads", threads]);
        assert_eq!(code, Ok(2), "{out}");
        out
    };
    let seq = run("1");
    assert!(seq.contains("profile ("), "{seq}");
    assert!(seq.contains("hotspots (by logical work):"), "{seq}");
    assert!(seq.contains("lift        functions 60 blocks "), "{seq}");
    // Skip the summary/stage header (raw wall-clock, like the existing
    // CLI tests do), then drop every `~`-prefixed token (the profile's
    // wall-clock-derived ones); what remains — findings, stage names,
    // percentiles, hotspot counters — must be identical across thread
    // counts.
    let strip = |s: &str| {
        s.lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .filter(|tok| !tok.starts_with('~'))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
    };
    for threads in ["2", "8"] {
        let par = run(threads);
        assert_eq!(strip(&seq), strip(&par), "profile differs at {threads} threads");
    }
}

#[test]
fn scan_exporter_flags_write_parseable_files() {
    let fw = capped_firmware(0, 60);
    let dir = std::env::temp_dir().join(format!("dtaint-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("export.fbf");
    std::fs::write(&p, fw.binary.to_bytes()).unwrap();
    let path = p.to_string_lossy().into_owned();
    let trace = dir.join("trace.jsonl");
    let chrome = dir.join("trace.chrome.json");
    let metrics = dir.join("metrics.json");

    let (code, _) = dtaint_cli::run_captured(&[
        "scan",
        &path,
        "--quiet",
        "--trace-out",
        trace.to_str().unwrap(),
        "--trace-chrome",
        chrome.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, Ok(2));

    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let spans: Vec<SpanEvent> = jsonl.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert!(spans.iter().any(|e| e.cat == "scan"));
    assert!(spans.iter().any(|e| e.name == "ddg_propagate"));

    let chrome_json = std::fs::read_to_string(&chrome).unwrap();
    let v: serde_json::Value = serde_json::from_str(&chrome_json).unwrap();
    assert!(matches!(v, serde_json::Value::Obj(_)));

    let metrics_json = std::fs::read_to_string(&metrics).unwrap();
    let m: dtaint_telemetry::MetricsRegistry = serde_json::from_str(&metrics_json).unwrap();
    assert!(m.counter("symex.blocks_executed") > 0);
    assert!(m.gauge("stage.ddg_us") > 0 || metrics_json.contains("stage.ddg_us"));
    assert!(m.gauge("image.functions") > 0);
}
