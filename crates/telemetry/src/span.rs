//! Hierarchical spans and their exporters.
//!
//! A [`SpanEvent`] is a completed span: a name, a category, a lane
//! (thread track), a start offset and duration against the scan's
//! [`Clock`] epoch, plus *logical* counters in `args`. Nesting is by
//! containment within a lane — the scan root span contains the stage
//! spans, which contain per-function spans — matching how the Chrome
//! `trace_event` viewer and Perfetto infer hierarchy from complete
//! (`ph: "X"`) events.
//!
//! Parallel stages record into per-worker [`TraceBuffer`]s sharing the
//! collector's clock; the owner absorbs them in a fixed order (the
//! symex pass's in chunk order), so the *set* of events is
//! deterministic even though their timestamps are not. Nothing downstream of the exporters ever reads a timestamp.

use crate::metrics::MetricsRegistry;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// A shared monotonic epoch; all span timestamps are offsets from it.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn new() -> Clock {
        Clock { epoch: Instant::now() }
    }

    /// Microseconds elapsed since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Where a stage should record its spans: the shared clock, the first
/// lane its workers may use (worker *i* takes `base_lane + i`), and
/// whether those worker-lane spans are recorded. Lane-0 stage spans are
/// recorded either way.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// The scan's clock epoch.
    pub clock: Clock,
    /// First worker lane.
    pub base_lane: u32,
    /// Record per-function spans on the worker lanes.
    pub workers: bool,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name (stage name or function name).
    pub name: String,
    /// Category: `"scan"`, `"stage"`, or `"function"`.
    pub cat: String,
    /// Lane (rendered as the thread id in Chrome traces). Lane 0 holds
    /// the scan root and stage spans; workers use lanes ≥ 1.
    pub lane: u32,
    /// Start offset from the scan epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Logical counters attached to the span (never durations).
    #[serde(default)]
    pub args: BTreeMap<String, u64>,
}

impl SpanEvent {
    /// True when `other` lies fully inside this span's time window.
    pub fn contains(&self, other: &SpanEvent) -> bool {
        self.start_us <= other.start_us
            && other.start_us + other.dur_us <= self.start_us + self.dur_us
    }
}

/// A thread-local span buffer for one worker lane.
#[derive(Debug)]
pub struct TraceBuffer {
    clock: Clock,
    lane: u32,
    on: bool,
    events: Vec<SpanEvent>,
}

impl TraceBuffer {
    /// A buffer recording (or, when `on` is false, discarding) spans for
    /// one lane.
    pub fn new(clock: Clock, lane: u32, on: bool) -> TraceBuffer {
        TraceBuffer { clock, lane, on, events: Vec::new() }
    }

    /// True when this buffer records.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// A start timestamp for a span about to open (0 when disabled).
    pub fn start(&self) -> u64 {
        if self.on {
            self.clock.now_us()
        } else {
            0
        }
    }

    /// Completes a span opened at `start_us`.
    pub fn record(&mut self, name: &str, cat: &str, start_us: u64, args: BTreeMap<String, u64>) {
        if !self.on {
            return;
        }
        let now = self.clock.now_us();
        self.events.push(SpanEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            lane: self.lane,
            start_us,
            dur_us: now.saturating_sub(start_us),
            args,
        });
    }

    /// Surrenders the events recorded so far, leaving the buffer empty.
    pub fn take_events(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The per-scan telemetry accumulator: clock epoch, span events, and the
/// metrics registry.
///
/// Lane-0 spans (the scan root and its stages, a handful per binary) are
/// always recorded: they are the scan's only wall clock. The enabled bit
/// gates the per-function spans on worker lanes.
#[derive(Debug)]
pub struct Collector {
    on: bool,
    clock: Clock,
    events: Vec<SpanEvent>,
    /// The metrics registry this scan populates.
    pub metrics: MetricsRegistry,
}

impl Collector {
    /// A recording collector.
    pub fn enabled() -> Collector {
        Collector {
            on: true,
            clock: Clock::new(),
            events: Vec::new(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// A collector that keeps lane-0 spans and drops worker-lane spans;
    /// the metrics registry still works (metrics are logical counters,
    /// free to keep).
    pub fn disabled() -> Collector {
        Collector { on: false, ..Collector::enabled() }
    }

    /// True when worker-lane spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// The shared epoch, for handing to parallel stages.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// A worker buffer on the given lane, inheriting the enabled flag.
    pub fn buffer(&self, lane: u32) -> TraceBuffer {
        TraceBuffer::new(self.clock, lane, self.on)
    }

    /// A start timestamp for a lane-0 span about to open.
    pub fn start(&self) -> u64 {
        self.clock.now_us()
    }

    /// Completes a lane-0 span opened at `start_us`.
    pub fn record(&mut self, name: &str, cat: &str, start_us: u64, args: BTreeMap<String, u64>) {
        let now = self.clock.now_us();
        self.events.push(SpanEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            lane: 0,
            start_us,
            dur_us: now.saturating_sub(start_us),
            args,
        });
    }

    /// Folds a worker buffer's (or stage's) events in.
    pub fn absorb(&mut self, events: Vec<SpanEvent>) {
        self.events.extend(events);
    }

    /// All recorded events, in absorption order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }
}

/// Renders events as a JSONL stream: one [`SpanEvent`] JSON object per
/// line, round-trippable through `serde_json`.
pub fn export_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).unwrap_or_default());
        out.push('\n');
    }
    out
}

/// Renders events in the Chrome `trace_event` format (complete events,
/// `ph: "X"`), loadable in `chrome://tracing` and Perfetto. Lanes map to
/// thread ids; nesting is inferred per-lane by containment.
pub fn export_chrome(events: &[SpanEvent]) -> String {
    let trace_events: Vec<Value> = events
        .iter()
        .map(|ev| {
            let args: Vec<(String, Value)> =
                ev.args.iter().map(|(k, v)| (k.clone(), Value::Int(*v as i64))).collect();
            Value::Obj(vec![
                ("name".into(), Value::Str(ev.name.clone())),
                ("cat".into(), Value::Str(ev.cat.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Int(ev.start_us as i64)),
                ("dur".into(), Value::Int(ev.dur_us as i64)),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(i64::from(ev.lane))),
                ("args".into(), Value::Obj(args)),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(trace_events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, lane: u32, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            cat: "stage".into(),
            lane,
            start_us: start,
            dur_us: dur,
            args: [("work".to_owned(), 3u64)].into_iter().collect(),
        }
    }

    #[test]
    fn containment_defines_nesting() {
        let scan = ev("scan", 0, 0, 100);
        let stage = ev("ssa", 0, 10, 50);
        let outside = ev("late", 0, 90, 20);
        assert!(scan.contains(&stage));
        assert!(!stage.contains(&scan));
        assert!(!scan.contains(&outside));
    }

    #[test]
    fn disabled_collector_keeps_lane_zero_and_drops_worker_lanes() {
        let mut c = Collector::disabled();
        let s = c.start();
        c.record("scan", "scan", s, BTreeMap::new());
        let mut b = c.buffer(1);
        let s = b.start();
        b.record("f", "function", s, BTreeMap::new());
        c.absorb(b.take_events());
        // A stage's own lane-0 buffer on the collector's clock records.
        let mut stage = TraceBuffer::new(c.clock(), 0, true);
        stage.record("ddg_alias", "stage", stage.start(), BTreeMap::new());
        c.absorb(stage.take_events());
        let names: Vec<&str> = c.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["scan", "ddg_alias"]);
        assert!(c.events().iter().all(|e| e.lane == 0));
    }

    #[test]
    fn collector_absorbs_worker_buffers() {
        let mut c = Collector::enabled();
        let mut b1 = c.buffer(1);
        let mut b2 = c.buffer(2);
        b1.record("f1", "function", b1.start(), BTreeMap::new());
        b2.record("f2", "function", b2.start(), BTreeMap::new());
        c.absorb(b1.take_events());
        c.absorb(b2.take_events());
        assert_eq!(c.events().len(), 2);
        assert_eq!(c.events()[0].lane, 1);
        assert_eq!(c.events()[1].lane, 2);
    }

    #[test]
    fn jsonl_roundtrips_through_serde() {
        let events = vec![ev("scan", 0, 0, 100), ev("ssa", 0, 10, 50)];
        let jsonl = export_jsonl(&events);
        let back: Vec<SpanEvent> = jsonl
            .lines()
            .map(|l| serde_json::from_str::<SpanEvent>(l).expect("line parses"))
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let events = vec![ev("scan", 0, 0, 100), ev("main", 1, 5, 20)];
        let doc: Value = serde_json::from_str(&export_chrome(&events)).expect("parses");
        let Some(Value::Arr(items)) = doc.get("traceEvents") else {
            panic!("missing traceEvents array")
        };
        assert_eq!(items.len(), 2);
        for item in items {
            assert_eq!(item.get("ph"), Some(&Value::Str("X".into())));
            for key in ["name", "ts", "dur", "pid", "tid", "args"] {
                assert!(item.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn span_event_serializes_args_as_object() {
        let v = ev("x", 0, 1, 2).to_value();
        assert!(matches!(v.get("args"), Some(Value::Obj(_))));
    }
}
