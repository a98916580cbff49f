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
//! The three modes run interleaved, one scan of each per repetition in
//! an order that rotates from rep to rep, so host drift over the run
//! lands on all three alike instead of on whichever mode ran last.
//!
//! Prints the comparison and records the measurements in
//! `results/BENCH_telemetry_overhead.json` (relative to the working
//! directory, normally the workspace root): each mode's best, median
//! and quartiles.
//!
//! ```sh
//! cargo run --release -p dtaint-bench --bin telemetry_overhead
//! ```
//!
//! `DTAINT_REPS` (default 5) sets the repetitions. The budget is checked
//! on the best (minimum) wall time of each mode, so scheduler noise
//! inflates neither side; the medians and quartiles show how far the
//! figures can be trusted.

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
    let reps: usize =
        std::env::var("DTAINT_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
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

    // One scan per mode, checked against the warm-up: telemetry must be
    // a pure observer. Returns the scan's wall time, the spans it
    // recorded and the heartbeats written beside it.
    let hb_path = std::env::temp_dir().join(format!("dtaint-bench-hb-{}.json", std::process::id()));
    let scan = |mode: Mode| -> (Duration, usize, usize) {
        let mut tel =
            if mode == Mode::Disabled { Collector::disabled() } else { Collector::enabled() };
        let progress = FleetProgress::new(1, 1, "bench");
        progress.start_image(0, "bench-image");
        let stop = AtomicBool::new(false);
        let (elapsed, beats) = std::thread::scope(|scope| {
            // Heartbeat mode: a fleet heartbeat writer live beside the
            // instrumented scan (the `--status-out` code path).
            let reporter = (mode == Mode::Heartbeat).then(|| {
                scope.spawn(|| {
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
                })
            });
            let t = Instant::now();
            let r = analyzer.analyze_traced(&fw.binary, "bench", &mut tel).expect("scan");
            let elapsed = t.elapsed();
            stop.store(true, Ordering::Relaxed);
            assert_eq!(r.findings.len(), warm.findings.len());
            assert_eq!(r.telemetry.metrics, warm.telemetry.metrics);
            (elapsed, reporter.map_or(0, |h| h.join().expect("reporter thread")))
        });
        (elapsed, tel.events().len(), beats)
    };

    let modes = [Mode::Disabled, Mode::Enabled, Mode::Heartbeat];
    let mut times: [Vec<Duration>; 3] = Default::default();
    let (mut spans, mut beats) = (0usize, 0usize);
    for rep in 0..reps {
        for k in 0..modes.len() {
            let m = (rep + k) % modes.len();
            let (elapsed, n, wrote) = scan(modes[m]);
            times[m].push(elapsed);
            if modes[m] == Mode::Enabled {
                spans = n;
            }
            beats = beats.max(wrote);
        }
    }
    std::fs::remove_file(&hb_path).ok();
    let best = |m: usize| times[m].iter().copied().min().expect("at least one rep");
    let (base, traced, heartbeat) = (best(0), best(1), best(2));
    let ms = |m: usize| Quartiles::of(times[m].iter().map(|t| t.as_secs_f64() * 1e3).collect());
    // Each rep's overhead against the disabled scan of the same rep:
    // the pairing cancels drift slower than one rep.
    let paired = |m: usize| {
        let pct = times[m]
            .iter()
            .zip(&times[0])
            .map(|(t, b)| (t.as_secs_f64() / b.as_secs_f64().max(1e-9) - 1.0) * 1e2);
        Quartiles::of(pct.collect())
    };

    let overhead = traced.as_secs_f64() / base.as_secs_f64().max(1e-9) - 1.0;
    let hb_overhead = heartbeat.as_secs_f64() / base.as_secs_f64().max(1e-9) - 1.0;
    let allowed = base.mul_f64(1.05) + ABS_SLACK;
    let best_ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("  disabled:  best {:8.2} ms, median {} ms", best_ms(base), ms(0));
    println!(
        "  enabled:   best {:8.2} ms, median {} ms ({spans} spans recorded)",
        best_ms(traced),
        ms(1)
    );
    println!(
        "  heartbeat: best {:8.2} ms, median {} ms ({beats} beat(s) written)",
        best_ms(heartbeat),
        ms(2)
    );
    println!("  overhead:  {:+.2}% of best (budget 5% + {ABS_SLACK:?} slack)", overhead * 1e2);
    println!("  hb overhead: {:+.2}% of best (same budget)", hb_overhead * 1e2);
    println!("  paired overhead per rep: enabled {}%, heartbeat {}%", paired(1), paired(2));
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
        ("disabled_quartiles_ms".into(), ms(0).to_json()),
        ("enabled_quartiles_ms".into(), ms(1).to_json()),
        ("heartbeat_quartiles_ms".into(), ms(2).to_json()),
        ("paired_overhead_pct".into(), paired(1).to_json()),
        ("heartbeat_paired_overhead_pct".into(), paired(2).to_json()),
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Disabled,
    Enabled,
    Heartbeat,
}

/// The median and quartiles of a sample.
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(mut v: Vec<f64>) -> Quartiles {
        v.sort_unstable_by(f64::total_cmp);
        // Linear interpolation between the nearest ranks.
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Quartiles { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("q1".into(), Value::Float(self.q1)),
            ("median".into(), Value::Float(self.median)),
            ("q3".into(), Value::Float(self.q3)),
        ])
    }
}

impl std::fmt::Display for Quartiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} (IQR {:.2}..{:.2})", self.median, self.q1, self.q3)
    }
}
