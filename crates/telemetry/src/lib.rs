//! Observability for the DTaint pipeline: spans, metrics, exporters,
//! and a leveled log facade.
//!
//! The layer is **deterministic by construction**: every value it feeds
//! back into analysis results is a *logical* work counter (blocks
//! executed, fuel spent, alias rewrites, …) derived from the analysis
//! itself, never from the clock. Wall-clock durations are collected
//! alongside — in [`SpanEvent`]s and per-function cost rows — but they
//! flow only into trace exports and the self-profiling printout, so
//! reports stay bit-identical across thread counts and machine speeds.
//!
//! Pieces:
//!
//! * [`Collector`] — the per-scan accumulator: a shared [`Clock`] epoch,
//!   the span event stream, and a [`MetricsRegistry`]. Lane-0 spans
//!   (the scan root and its stages) are always recorded — they are the
//!   scan's only wall clock; [`Collector::disabled`] drops just the
//!   per-function worker-lane spans, so it stays cheap to carry around.
//! * [`TraceBuffer`] — a thread-local span buffer for parallel stages;
//!   workers record into private buffers that the owner
//!   [`Collector::absorb`]s in a deterministic order.
//! * [`MetricsRegistry`] — counters, gauges, and [`Histogram`]s with
//!   fixed log2 buckets.
//! * [`export_jsonl`]/[`export_chrome`] — the JSONL event stream and the
//!   Chrome `trace_event` format (loadable in `chrome://tracing` and
//!   Perfetto).
//! * [`fleet`] — batch-level progress: the shared [`FleetProgress`]
//!   tracker and its [`Heartbeat`] snapshot for status files and the
//!   TTY status line.
//! * [`export_prometheus`] — the Prometheus text exposition format for
//!   textfile-collector scraping.
//! * [`log`] — a leveled stderr facade replacing ad-hoc `eprintln!`s.
//! * [`audit`] — the typed decision audit log ([`Decision`]) recording
//!   every negative analysis decision for `dtaint why`, collected with
//!   the same thread-deterministic discipline as spans.

pub mod audit;
pub mod fleet;
pub mod log;
pub mod metrics;
pub mod prometheus;
pub mod span;

pub use audit::{export_audit_jsonl, Decision, DecisionKind, DecisionReason, AUDIT_VERSION};
pub use fleet::{FleetProgress, Heartbeat, ImageCacheStats, ImageOutcome, WorkerHeartbeat};
pub use metrics::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use prometheus::{export_prometheus, lint_textfile, sanitize_metric_name};
pub use span::{export_chrome, export_jsonl, Clock, Collector, SpanEvent, TraceBuffer, TraceSpec};
