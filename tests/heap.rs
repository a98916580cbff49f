//! Live-heap budget of the largest profile.
//!
//! This test binary installs the counting allocator, so every lane-0
//! span of a scan carries `live_bytes` (live when it closed) and
//! `peak_bytes` (the highest live count while it was open). At one
//! thread allocation sizes repeat run to run, so Hikvision's figures are
//! pinned as budgets at most 5 % above their measured values: a change
//! that keeps summaries alive longer, or copies them, fails here. So
//! does a JSON rendering of the report that builds it whole before
//! writing it.

use dtaint_core::{Dtaint, DtaintConfig};
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_telemetry::{heap, Collector, CountingAlloc, SpanEvent};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn hikvision_live_heap_stays_within_budget() {
    let profile = table2_profiles().into_iter().find(|p| p.manufacturer == "Hikvision").unwrap();
    let bin = build_firmware(&profile).binary;
    let mut tel = Collector::disabled();
    let config = DtaintConfig { threads: 1, ..Default::default() };
    let report = Dtaint::with_config(config).analyze_traced(&bin, "heap", &mut tel).unwrap();
    assert!(!report.findings.is_empty());

    let span = |cat: &str, name: &str| -> &SpanEvent {
        tel.events().iter().find(|e| e.cat == cat && e.name == name).expect("span recorded")
    };
    let mib = |ev: &SpanEvent, key: &str| ev.args[key] as f64 / f64::from(1 << 20);
    // Windows nest: the scan's peak covers every stage's, and the `ddg`
    // stage's covers its propagation sub-stage's.
    let root = span("scan", "heap");
    for ev in tel.events().iter().filter(|e| e.cat == "stage") {
        assert!(ev.args["peak_bytes"] <= root.args["peak_bytes"], "{} inside the scan", ev.name);
    }
    let (ddg, propagate) = (span("stage", "ddg"), span("stage", "ddg_propagate"));
    assert!(ddg.args["peak_bytes"] >= propagate.args["peak_bytes"]);

    // Live heap of the whole test process (the image included), in MiB:
    // the scan's peak, then live bytes as each stage span closes.
    let mut measured = vec![("peak", mib(root, "peak_bytes"))];
    for stage in ["ssa", "lift_cfg", "ddg_alias", "ddg_indirect", "ddg_propagate", "ddg", "detect"]
    {
        measured.push((stage, mib(span("stage", stage), "live_bytes")));
    }
    let budgets = [
        ("peak", 30.0),
        ("ssa", 24.25),
        ("lift_cfg", 26.0),
        ("ddg_alias", 26.5),
        ("ddg_indirect", 26.5),
        ("ddg_propagate", 19.75),
        ("ddg", 18.5),
        ("detect", 17.75),
    ];
    for ((name, got), (_, budget)) in measured.iter().zip(budgets) {
        assert!(*got <= budget, "Hikvision {name}: {got:.2} MiB over {budget} MiB ({measured:?})");
    }

    // The JSON report is streamed as it is printed: rendering all of
    // it holds neither a value tree nor the text.
    let before = heap::live();
    heap::reset_peak();
    serde_json::to_writer_pretty(std::io::sink(), &report).unwrap();
    let rise = (heap::peak() - before) as f64 / f64::from(1 << 20);
    assert!(rise < 0.25, "rendering the Hikvision report raised the live heap {rise:.2} MiB");
}
