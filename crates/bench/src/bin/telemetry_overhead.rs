//! Telemetry overhead check — whole-pipeline wall time with the
//! collector disabled (the `analyze` default, which still records the
//! eight lane-0 root and stage spans) versus enabled (every
//! per-function span too) with no exporter attached, on a mid-sized
//! Table II profile. The instrumented
//! run must stay within 5% of the baseline (plus a small absolute slack
//! to absorb timer noise on fast scans).
//!
//! A third mode re-measures the instrumented scan with a live batch
//! heartbeat writer running beside it — a [`FleetProgress`] reporter
//! rewriting a status file every ~250 ms, exactly what `dtaint batch
//! --status-out` does — and holds it to the same budget: observability
//! must stay an observer even with the fleet layer on.
//!
//! Prints the comparison and records the measurements in
//! `results/BENCH_telemetry_overhead.json` (relative to the working
//! directory, normally the workspace root).
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin telemetry_overhead
//! ```
//!
//! `DTAINT_REPS` (default 5) sets the repetitions; the best (minimum)
//! wall time of each mode is compared, so scheduler noise inflates
//! neither side.

use dtaint_bench::scaled;
use dtaint_core::Dtaint;
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_telemetry::{Collector, FleetProgress};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Absolute slack added to the 5% budget: on a scan measured in tens of
/// milliseconds, timer granularity and allocator jitter alone exceed a
/// strict percentage of the total.
const ABS_SLACK: Duration = Duration::from_millis(15);

fn main() {
    let reps: usize = std::env::var("DTAINT_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    // Profile 2 of Table II: the DIR-890L cgibin.
    let profile = scaled(table2_profiles().remove(1));
    println!(
        "telemetry overhead on {} {} `{}` ({} functions), best of {reps} reps",
        profile.manufacturer,
        profile.firmware_version,
        profile.binary_name,
        profile.total_functions
    );
    let fw = build_firmware(&profile);
    let analyzer = Dtaint::new();

    // Warm-up: touch every code path once so neither mode pays cold
    // caches.
    let warm = analyzer.analyze(&fw.binary, "warmup").expect("scan");

    let mut base = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let r = analyzer.analyze(&fw.binary, "base").expect("scan");
        base = base.min(t.elapsed());
        assert_eq!(r.findings.len(), warm.findings.len());
    }

    let mut traced = Duration::MAX;
    let mut spans = 0usize;
    for _ in 0..reps {
        let mut tel = Collector::enabled();
        let t = Instant::now();
        let r = analyzer.analyze_traced(&fw.binary, "traced", &mut tel).expect("scan");
        traced = traced.min(t.elapsed());
        spans = tel.events().len();
        // Telemetry must be a pure observer.
        assert_eq!(r.findings.len(), warm.findings.len());
        assert_eq!(r.telemetry.metrics, warm.telemetry.metrics);
    }

    // Heartbeat mode: the instrumented scan again, with a fleet
    // heartbeat writer live beside it (the `--status-out` code path).
    let hb_path = std::env::temp_dir().join(format!("dtaint-bench-hb-{}.json", std::process::id()));
    let mut heartbeat = Duration::MAX;
    let mut beats = 0usize;
    for _ in 0..reps {
        let progress = FleetProgress::new(1, 1, "bench");
        progress.start_image(0, "bench-image");
        let stop = AtomicBool::new(false);
        let wrote = std::thread::scope(|scope| {
            let reporter = scope.spawn(|| {
                let mut wrote = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let hb = progress.heartbeat("running");
                    if let Ok(json) = serde_json::to_string_pretty(&hb) {
                        if std::fs::write(&hb_path, json).is_ok() {
                            wrote += 1;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
                wrote
            });
            let mut tel = Collector::enabled();
            let t = Instant::now();
            let r = analyzer.analyze_traced(&fw.binary, "heartbeat", &mut tel).expect("scan");
            heartbeat = heartbeat.min(t.elapsed());
            stop.store(true, Ordering::Relaxed);
            assert_eq!(r.findings.len(), warm.findings.len());
            assert_eq!(r.telemetry.metrics, warm.telemetry.metrics);
            reporter.join().expect("reporter thread")
        });
        beats = beats.max(wrote);
    }
    std::fs::remove_file(&hb_path).ok();

    let overhead = traced.as_secs_f64() / base.as_secs_f64().max(1e-9) - 1.0;
    let hb_overhead = heartbeat.as_secs_f64() / base.as_secs_f64().max(1e-9) - 1.0;
    let allowed = base.mul_f64(1.05) + ABS_SLACK;
    println!("  disabled:  {:8.2} ms", base.as_secs_f64() * 1e3);
    println!("  enabled:   {:8.2} ms ({spans} spans recorded)", traced.as_secs_f64() * 1e3);
    println!("  heartbeat: {:8.2} ms ({beats} beat(s) written)", heartbeat.as_secs_f64() * 1e3);
    println!("  overhead:  {:+.2}% (budget 5% + {ABS_SLACK:?} slack)", overhead * 1e2);
    println!("  hb overhead: {:+.2}% (same budget)", hb_overhead * 1e2);
    let ok = traced <= allowed && heartbeat <= allowed;

    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("telemetry_overhead".into())),
        ("profile".into(), Value::Str(profile.binary_name.into())),
        ("functions".into(), Value::Int(profile.total_functions as i64)),
        ("reps".into(), Value::Int(reps as i64)),
        ("disabled_ms".into(), Value::Float(base.as_secs_f64() * 1e3)),
        ("enabled_ms".into(), Value::Float(traced.as_secs_f64() * 1e3)),
        ("heartbeat_ms".into(), Value::Float(heartbeat.as_secs_f64() * 1e3)),
        ("overhead_pct".into(), Value::Float(overhead * 1e2)),
        ("heartbeat_overhead_pct".into(), Value::Float(hb_overhead * 1e2)),
        ("heartbeat_beats".into(), Value::Int(beats as i64)),
        ("spans".into(), Value::Int(spans as i64)),
        ("budget_pct".into(), Value::Float(5.0)),
        ("within_budget".into(), Value::Bool(ok)),
    ]);
    std::fs::create_dir_all("results").ok();
    let path = "results/BENCH_telemetry_overhead.json";
    let json = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(path, json + "\n").expect("write results file");
    println!("wrote {path}");

    assert!(
        ok,
        "telemetry overhead exceeds the 5% budget: enabled {:.2}% ({traced:?}), \
         heartbeat {:.2}% ({heartbeat:?}), allowed {allowed:?}",
        overhead * 1e2,
        hb_overhead * 1e2,
    );
}
