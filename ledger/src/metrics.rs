//! The benchmark's metric table: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work done).
    Lower,
    /// Larger is better (throughput, cache hits).
    Higher,
}

impl Better {
    /// Whether `x` reads better than `than`.
    pub fn is_better(self, x: f64, than: f64) -> bool {
        match self {
            Better::Lower => x < than,
            Better::Higher => x > than,
        }
    }

    /// The share by which `new` is worse than `base` (negative when it
    /// is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which are diagnostics.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// Counts must repeat exactly between runs of the same inputs.
    pub fn is_count(&self) -> bool {
        matches!(self.unit, "count" | "bytes")
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// Metrics a user of `dtaint` sees, reported by every untraced run.
/// Bounds sit at three times or more the largest run-to-run spread of
/// two 10-seed baseline sets (see `ledger/README.md`); `setup_s` gets the
/// largest, so work moved into set-up shows.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("op_s_p50", "s", Better::Lower, 0.20),
    e2e("op_s_tail", "s", Better::Lower, 0.20),
    e2e("fn_per_s", "fn/s", Better::Higher, 0.20),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics every traced run reports: the ones measured on all
/// four workloads. Layer times a workload never reaches (cache and store
/// in the scan workloads; lift, symex, DDG and detect inside the batch's
/// single `Dtaint::analyze` call) are printed by `ledger trace` but kept
/// out of this list, so no reported time is a constant zero.
pub const PER_LAYER: [MetricDef; 24] = [
    layer("fwimage.extract_s", "s", Better::Lower),
    layer("fwimage.bytes", "bytes", Better::Lower),
    layer("cfg.functions", "count", Better::Higher),
    layer("cfg.blocks", "count", Better::Lower),
    layer("cfg.edges", "count", Better::Lower),
    layer("symex.blocks_executed", "count", Better::Lower),
    layer("symex.paths_explored", "count", Better::Lower),
    layer("dataflow.resolved_indirect", "count", Better::Higher),
    layer("dataflow.fuel_spent", "count", Better::Lower),
    layer("core.analyze_s", "s", Better::Lower),
    layer("core.findings", "count", Better::Higher),
    layer("core.duplicates_suppressed", "count", Better::Lower),
    layer("core.render_s", "s", Better::Lower),
    layer("core.report_bytes", "bytes", Better::Lower),
    layer("cache.sym_hits", "count", Better::Higher),
    layer("cache.sym_misses", "count", Better::Lower),
    layer("cache.ddg_hits", "count", Better::Higher),
    layer("cache.ddg_misses", "count", Better::Lower),
    layer("cache.snapshots", "count", Better::Lower),
    layer("cache.bytes", "bytes", Better::Lower),
    layer("store.writes", "count", Better::Lower),
    layer("store.bytes_written", "bytes", Better::Lower),
    layer("trace.replay_ratio", "ratio", Better::Lower),
    layer("trace.unattributed_s", "s", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("BENCHMARK.json: `{key}` is not a list"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            _ => panic!("BENCHMARK.json: `{key}` is not a string"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            crate::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
                .expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = list(&doc, key);
            assert_eq!(listed.len(), defs.len(), "{key}: metric count");
            for (v, d) in listed.iter().zip(defs) {
                assert_eq!(text(v, "name"), d.name);
                assert_eq!(text(v, "unit"), d.unit, "{}", d.name);
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text(v, "better"), better, "{}", d.name);
                let bound = match v.get("bound") {
                    Some(Value::Float(f)) => Some(*f),
                    None => None,
                    other => panic!("{}: bound {other:?}", d.name),
                };
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
    }
}
