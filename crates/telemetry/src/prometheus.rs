//! Prometheus text-exposition export for a [`MetricsRegistry`].
//!
//! Renders the registry in the textfile-collector format scraped by
//! `node_exporter`: every sample preceded by a `# TYPE` line, counters
//! with the `_total` suffix, histograms as cumulative `_bucket{le=…}`
//! series plus `_sum`/`_count`. The log2 bucket layout maps exactly:
//! bucket *k* of [`Histogram`] holds values in
//! `[2^(k-1), 2^k)`, so its inclusive upper bound is `2^k − 1` (bucket
//! 0, the zeros bucket, gets `le="0"`); the final overflow bucket folds
//! into `+Inf`.
//!
//! Only integers ever appear — the registry is all logical counters —
//! so rendering is exact and deterministic.

use crate::metrics::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};

/// Rewrites a dotted registry key into a legal Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit is prefixed with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_histogram(out: &mut String, name: &str, h: &Histogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (k, &n) in h.buckets.iter().enumerate() {
        cum += n;
        if k == HISTOGRAM_BUCKETS - 1 {
            break; // overflow bucket folds into +Inf below
        }
        let le = if k == 0 { 0 } else { (1u64 << k) - 1 };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Renders `reg` in the Prometheus text exposition format. Every metric
/// name is `prefix` + the sanitized registry key; counters additionally
/// get the conventional `_total` suffix.
pub fn export_prometheus(reg: &MetricsRegistry, prefix: &str) -> String {
    let mut out = String::new();
    for (k, v) in &reg.counters {
        let name = format!("{prefix}{}_total", sanitize_metric_name(k));
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (k, v) in &reg.gauges {
        let name = format!("{prefix}{}", sanitize_metric_name(k));
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (k, h) in &reg.histograms {
        let name = format!("{prefix}{}", sanitize_metric_name(k));
        push_histogram(&mut out, &name, h);
    }
    out
}

/// A minimal textfile-format lint: every sample line must use a metric
/// name declared by a preceding `# TYPE` line (histogram samples match
/// their base name via the `_bucket`/`_sum`/`_count` suffixes), and
/// `# TYPE` values must be known. Returns the first violation.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn lint_textfile(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("line {}: TYPE without name", lineno + 1))?;
            let kind = it.next().ok_or(format!("line {}: TYPE without kind", lineno + 1))?;
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {}: unknown TYPE kind {kind}", lineno + 1));
            }
            typed.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !typed.iter().any(|t| t == name || t == base) {
            return Err(format!("line {}: sample {name} has no preceding # TYPE", lineno + 1));
        }
        if line[name_end..].trim_start_matches(|c: char| c != ' ').trim().is_empty() {
            return Err(format!("line {}: sample {name} has no value", lineno + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_replaces_dots_and_leading_digits() {
        assert_eq!(sanitize_metric_name("symex.blocks_executed"), "symex_blocks_executed");
        assert_eq!(sanitize_metric_name("a-b.c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
    }

    #[test]
    fn export_annotates_every_sample_and_lints_clean() {
        let mut reg = MetricsRegistry::default();
        reg.inc("symex.blocks_executed", 1234);
        reg.set_gauge("image.functions", 50);
        reg.observe("ddg.fuel_per_fn", 0);
        reg.observe("ddg.fuel_per_fn", 5);
        reg.observe("ddg.fuel_per_fn", 900);
        let text = export_prometheus(&reg, "dtaint_");
        assert!(text.contains("# TYPE dtaint_symex_blocks_executed_total counter\n"));
        assert!(text.contains("dtaint_symex_blocks_executed_total 1234\n"));
        assert!(text.contains("# TYPE dtaint_image_functions gauge\n"));
        assert!(text.contains("# TYPE dtaint_ddg_fuel_per_fn histogram\n"));
        assert!(text.contains("dtaint_ddg_fuel_per_fn_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dtaint_ddg_fuel_per_fn_sum 905\n"));
        assert!(text.contains("dtaint_ddg_fuel_per_fn_count 3\n"));
        lint_textfile(&text).expect("exporter output passes its own lint");
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_log2_bounds() {
        let mut reg = MetricsRegistry::default();
        reg.observe("h", 0); // bucket 0 → le="0"
        reg.observe("h", 1); // bucket 1 → le="1"
        reg.observe("h", 3); // bucket 2 → le="3"
        let text = export_prometheus(&reg, "");
        assert!(text.contains("h_bucket{le=\"0\"} 1\n"), "text: {text}");
        assert!(text.contains("h_bucket{le=\"1\"} 2\n"), "text: {text}");
        assert!(text.contains("h_bucket{le=\"3\"} 3\n"), "text: {text}");
        assert!(text.contains("h_bucket{le=\"7\"} 3\n"), "cumulative beyond max");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn lint_rejects_untyped_samples_and_bad_kinds() {
        assert!(lint_textfile("orphan_metric 3\n").is_err());
        assert!(lint_textfile("# TYPE m widget\nm 3\n").is_err());
        assert!(lint_textfile("# TYPE m gauge\nm 3\n").is_ok());
        assert!(lint_textfile("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n")
            .is_ok());
    }
}
