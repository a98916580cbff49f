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

use crate::heap;
use crate::metrics::MetricsRegistry;
use serde::{Deserialize, JsonWriter, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
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

/// Where an open span started: its clock offset and, on lane 0 when a
/// [`heap::CountingAlloc`] is installed, the heap window it opened.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    /// Start offset from the scan epoch, microseconds (0 on a disabled
    /// buffer).
    pub us: u64,
    heap: Option<heap::Mark>,
}

impl SpanStart {
    fn open(clock: &Clock, lane: u32) -> SpanStart {
        SpanStart { us: clock.now_us(), heap: if lane == 0 { heap::mark() } else { None } }
    }
}

/// Closes a span opened at `start` into an event, adding the heap
/// window's `live_bytes` and `peak_bytes` when it opened one.
fn close(
    clock: &Clock,
    name: &str,
    cat: &str,
    lane: u32,
    start: SpanStart,
    args: &[(&str, u64)],
) -> SpanEvent {
    let now = clock.now_us();
    let mut args: BTreeMap<String, u64> = args.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    if let Some(mark) = start.heap {
        let (live, peak) = heap::close(mark);
        args.insert("live_bytes".to_owned(), live as u64);
        args.insert("peak_bytes".to_owned(), peak as u64);
    }
    SpanEvent {
        name: name.to_owned(),
        cat: cat.to_owned(),
        lane,
        start_us: start.us,
        dur_us: now.saturating_sub(start.us),
        args,
    }
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

    /// Opens a span (a zero start when disabled). Lane-0 spans also
    /// open a heap window when the counting allocator is installed.
    pub fn start(&self) -> SpanStart {
        if self.on {
            SpanStart::open(&self.clock, self.lane)
        } else {
            SpanStart { us: 0, heap: None }
        }
    }

    /// Completes a span opened at `start`, with its logical counters.
    pub fn record(&mut self, name: &str, cat: &str, start: SpanStart, args: &[(&str, u64)]) {
        if !self.on {
            return;
        }
        self.events.push(close(&self.clock, name, cat, self.lane, start, args));
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

    /// Opens a lane-0 span (and its heap window when the counting
    /// allocator is installed).
    pub fn start(&self) -> SpanStart {
        SpanStart::open(&self.clock, 0)
    }

    /// Completes a lane-0 span opened at `start`, with its logical
    /// counters.
    pub fn record(&mut self, name: &str, cat: &str, start: SpanStart, args: &[(&str, u64)]) {
        self.events.push(close(&self.clock, name, cat, 0, start, args));
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

/// Writes records as a JSONL stream, in the order given: one compact
/// JSON object per line, round-trippable through `serde_json` — the
/// span trace ([`SpanEvent`]s) and the decision audit log
/// ([`crate::Decision`]s). Writes one record at a time, so a large
/// stream never sits in memory whole.
///
/// # Errors
///
/// Fails when `out` does.
pub fn export_jsonl<T: Serialize>(records: &[T], mut out: impl Write) -> io::Result<()> {
    for r in records {
        serde_json::to_writer(&mut out, r).map_err(io::Error::other)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes events in the Chrome `trace_event` format (complete events,
/// `ph: "X"`), loadable in `chrome://tracing` and Perfetto. Lanes map to
/// thread ids; nesting is inferred per-lane by containment.
///
/// The document is the 2-space-indented JSON of
/// `{"traceEvents": [..], "displayTimeUnit": "ms"}`, written one member
/// at a time by one printer.
///
/// # Errors
///
/// Fails when `out` does.
pub fn export_chrome(events: &[SpanEvent], mut out: impl Write) -> io::Result<()> {
    let mut w = JsonWriter::new(&mut out, Some(2));
    w.key(0, "traceEvents", 0);
    for (i, ev) in events.iter().enumerate() {
        w.element(i, 1);
        let members: [(&str, &dyn Serialize); 8] = [
            ("name", &ev.name),
            ("cat", &ev.cat),
            ("ph", &"X"),
            ("ts", &ev.start_us),
            ("dur", &ev.dur_us),
            ("pid", &1u32),
            ("tid", &ev.lane),
            ("args", &ev.args),
        ];
        for (m, (key, value)) in members.iter().enumerate() {
            w.key(m, key, 2);
            value.write_json(&mut w, 3);
        }
        w.end_object(members.len(), 2);
    }
    w.end_array(events.len(), 1);
    w.key(1, "displayTimeUnit", 0);
    "ms".write_json(&mut w, 1);
    w.end_object(2, 0);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

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
        c.record("scan", "scan", s, &[]);
        let mut b = c.buffer(1);
        let s = b.start();
        b.record("f", "function", s, &[]);
        c.absorb(b.take_events());
        // A stage's own lane-0 buffer on the collector's clock records.
        let mut stage = TraceBuffer::new(c.clock(), 0, true);
        stage.record("ddg_alias", "stage", stage.start(), &[]);
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
        b1.record("f1", "function", b1.start(), &[]);
        b2.record("f2", "function", b2.start(), &[]);
        c.absorb(b1.take_events());
        c.absorb(b2.take_events());
        assert_eq!(c.events().len(), 2);
        assert_eq!(c.events()[0].lane, 1);
        assert_eq!(c.events()[1].lane, 2);
    }

    fn rendered(export: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut out = Vec::new();
        export(&mut out).expect("a Vec takes every write");
        String::from_utf8(out).expect("UTF-8")
    }

    /// One event as a Chrome `trace_event` object tree.
    fn chrome_event(ev: &SpanEvent) -> Value {
        let args = ev.args.iter().map(|(k, v)| (k.clone(), Value::Int(*v as i64))).collect();
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
    }

    /// The exporters as whole-document renderers: the document built as
    /// one `Value` tree, then rendered as one `String`.
    fn chrome_reference(events: &[SpanEvent]) -> String {
        let doc = Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events.iter().map(chrome_event).collect())),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        serde_json::to_string_pretty(&doc).unwrap_or_default()
    }

    fn jsonl_reference(events: &[SpanEvent]) -> String {
        events.iter().map(|ev| serde_json::to_string(ev).unwrap_or_default() + "\n").collect()
    }

    #[test]
    fn streamed_exports_match_the_whole_document_renderers() {
        let mut odd = ev("quote\" back\\ nl\n tab\t ctl\u{1} é ✓", 3, 7, 9);
        odd.cat = "cat\"\n".into();
        odd.args.insert("key \"with\"\nescapes".to_owned(), u64::MAX);
        let mut bare = ev("bare", 1, 0, 0);
        bare.args.clear();
        let cases: [&[SpanEvent]; 4] = [
            &[],
            &[ev("scan", 0, 0, 100)],
            &[ev("scan", 0, 0, 100), odd.clone(), bare.clone()],
            &[bare, odd],
        ];
        for events in cases {
            assert_eq!(rendered(|w| export_chrome(events, w)), chrome_reference(events));
            assert_eq!(rendered(|w| export_jsonl(events, w)), jsonl_reference(events));
        }
    }

    #[test]
    fn jsonl_roundtrips_through_serde() {
        let events = vec![ev("scan", 0, 0, 100), ev("ssa", 0, 10, 50)];
        let jsonl = rendered(|w| export_jsonl(&events, w));
        let back: Vec<SpanEvent> = jsonl
            .lines()
            .map(|l| serde_json::from_str::<SpanEvent>(l).expect("line parses"))
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let events = vec![ev("scan", 0, 0, 100), ev("main", 1, 5, 20)];
        let doc: Value =
            serde_json::from_str(&rendered(|w| export_chrome(&events, w))).expect("parses");
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
        let v: Value = serde_json::from_str(&serde_json::to_string(&ev("x", 0, 1, 2)).unwrap())
            .expect("parses");
        assert!(matches!(v.get("args"), Some(Value::Obj(_))));
    }
}
