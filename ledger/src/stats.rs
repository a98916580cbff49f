//! Order statistics and the A/B comparison behind `ledger compare`.
//!
//! Quantiles follow Python's `statistics.quantiles` with its default
//! exclusive method, so the spreads printed here are the ones a reader
//! recomputes from the result files with the standard library.

use crate::json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The `q`-quantile of `values` by the exclusive method: the position
/// `q·(n+1)` interpolated between its neighbours, clamped to the
/// second-lowest and second-highest pair (so small samples extrapolate,
/// exactly as Python does). `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => f64::NAN,
        1 => data[0],
        n => {
            let pos = q * (n + 1) as f64;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let delta = pos - j as f64;
            data[j - 1] * (1.0 - delta) + data[j] * delta
        }
    }
}

/// The median (the exclusive 0.5-quantile is the ordinary median).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a sample that cannot have a spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// The highest of p90 and p75 that leaves at least ten of `ops` samples
/// beyond it, else the median.
pub fn tail_quantile(ops: usize) -> f64 {
    [90, 75].into_iter().find(|p| ops * (100 - p) / 100 >= 10).map_or(0.5, |p| p as f64 / 100.0)
}

/// Paired wins of side B over side A, ties counting for neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wins {
    /// Pairs where B reads better.
    pub b: usize,
    /// Pairs where A reads better.
    pub a: usize,
    /// Pairs compared (runs matched by position).
    pub pairs: usize,
}

/// Counts wins over runs matched by position (the alternated A/B
/// protocol runs pair *i* of each side back to back).
pub fn paired_wins(a: &[f64], b: &[f64], better: Better) -> Wins {
    let mut w = Wins { b: 0, a: 0, pairs: a.len().min(b.len()) };
    for (x, y) in a.iter().zip(b) {
        if better.is_better(*y, *x) {
            w.b += 1;
        } else if better.is_better(*x, *y) {
            w.a += 1;
        }
    }
    w
}

/// Pairs needed before win counts are reported.
const MIN_PAIRS: usize = 10;

/// How one metric on one workload compares between two result sets.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Change within the metric's bound, spreads within it too.
    Within,
    /// Worse by more than the bound.
    Regression,
    /// A side's spread exceeds the bound, and the runs overlap.
    Unresolved,
    /// Spreads exceed the bound, but every B run beats every A run.
    BetterInEveryRun,
    /// A count that must repeat exactly and did.
    Identical,
    /// A count that must repeat exactly and did not.
    CountChanged,
    /// Per-layer times and ratios: reported, never judged.
    Unbounded,
}

impl Verdict {
    /// Whether the verdict fails `compare`.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Unresolved | Verdict::CountChanged)
    }

    fn label(&self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::BetterInEveryRun => "better in every run",
            Verdict::Identical => "identical",
            Verdict::CountChanged => "COUNT CHANGED",
            Verdict::Unbounded => "-",
        }
    }
}

/// Judges one metric's samples from side A (parent) and side B (change).
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if def.is_count() {
        let first = a.first().or(b.first());
        return if a.iter().chain(b).all(|v| Some(v) == first) {
            Verdict::Identical
        } else {
            Verdict::CountChanged
        };
    }
    let Some(bound) = def.bound else { return Verdict::Unbounded };
    if iqr_share(a) > bound || iqr_share(b) > bound {
        let all_better = b.iter().all(|y| a.iter().all(|x| def.better.is_better(*y, *x)));
        return if all_better { Verdict::BetterInEveryRun } else { Verdict::Unresolved };
    }
    if def.better.worsening(median(a), median(b)) > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

/// Per-workload samples of every metric: workload → metric → values,
/// in run order.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Collects the samples of result objects (`workload` plus `metrics`).
///
/// # Errors
///
/// A result without a workload, metrics, or numeric values.
pub fn samples(results: &[Value]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for r in results {
        let Some(Value::Str(workload)) = r.get("workload") else {
            return Err("result without a workload".into());
        };
        let Some(Value::Obj(metrics)) = r.get("metrics") else {
            return Err(format!("{workload}: result without metrics"));
        };
        for (name, m) in metrics {
            let v = match m.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => return Err(format!("{workload}: metric {name} has no value")),
            };
            out.entry(workload.clone()).or_default().entry(name.clone()).or_default().push(v);
        }
    }
    Ok(out)
}

fn load_samples(path: &Path) -> Result<Samples, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let Some(Value::Arr(results)) = doc.get("results") else {
        return Err(format!("{}: no `results` array", path.display()));
    };
    samples(results).map_err(|e| format!("{}: {e}", path.display()))
}

/// Median, spread and sample count of every metric, per workload.
pub fn summary(samples: &Samples) -> String {
    let mut out =
        format!("{:<12} {:<28} {:>14} {:>8} {:>4}\n", "workload", "metric", "median", "iqr", "n");
    for (w, metrics) in samples {
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let Some(vs) = metrics.get(d.name) else { continue };
            out.push_str(&format!(
                "{w:<12} {:<28} {:>14.6} {:>7.2}% {:>4}\n",
                format!("{} ({})", d.name, d.unit),
                median(vs),
                iqr_share(vs) * 100.0,
                vs.len()
            ));
        }
    }
    out
}

/// `ledger compare A B`: every metric both files report, per workload,
/// judged against the benchmark's own bounds. Returns the rendered table
/// and whether any verdict fails.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(String, bool), String> {
    let a = load_samples(a_path)?;
    let b = load_samples(b_path)?;
    let mut out = format!(
        "A = {}\nB = {}\n{:<12} {:<28} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  {:<20} wins\n",
        a_path.display(),
        b_path.display(),
        "workload",
        "metric",
        "A median",
        "B median",
        "change",
        "A iqr",
        "B iqr",
        "bound",
        "verdict"
    );
    let mut failed = false;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else { continue };
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(xs), Some(ys)) = (a_metrics.get(def.name), b_metrics.get(def.name)) else {
                continue;
            };
            let verdict = judge(def, xs, ys);
            failed |= verdict.fails();
            let (ma, mb) = (median(xs), median(ys));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let wins = if xs.len().min(ys.len()) >= MIN_PAIRS && !def.is_count() {
                let w = paired_wins(xs, ys, def.better);
                format!("B {}/{} A {}/{}", w.b, w.pairs, w.a, w.pairs)
            } else {
                String::new()
            };
            let bound = def.bound.map_or_else(|| "-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            out.push_str(&format!(
                "{:<12} {:<28} {:>12.6} {:>12.6} {:>+7.1}% {:>6.1}% {:>6.1}% {:>6}  {:<20} {}\n",
                workload,
                format!("{} ({})", def.name, def.unit),
                ma,
                mb,
                change * 100.0,
                iqr_share(xs) * 100.0,
                iqr_share(ys) * 100.0,
                bound,
                verdict.label(),
                wins
            ));
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() < 1e-9
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles(data, n=4) reference values.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quantile(&ten, 0.25), 2.75));
        assert!(close(quantile(&ten, 0.5), 5.5));
        assert!(close(quantile(&ten, 0.75), 8.25));
        // Two samples extrapolate past both ends, like Python.
        assert!(close(quantile(&[5.0, 1.0], 0.25), 0.0));
        assert!(close(quantile(&[5.0, 1.0], 0.75), 6.0));
        let seven = [3.1, 2.7, 2.9, 3.3, 3.0, 2.8, 3.2];
        assert!(close(quantile(&seven, 0.25), 2.8));
        assert!(close(quantile(&seven, 0.75), 3.2));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(quantile(&hundred, 0.9), 90.9));
    }

    #[test]
    fn iqr_share_is_quartile_distance_over_median() {
        let seven = [3.1, 2.7, 2.9, 3.3, 3.0, 2.8, 3.2];
        assert!(close(iqr_share(&seven), (3.2 - 2.8) / 3.0));
        assert_eq!(iqr_share(&[4.0]), 0.0);
        assert_eq!(iqr_share(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(150), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(12), 0.5);
    }

    #[test]
    fn wins_count_pairs_by_direction_and_ignore_ties() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, 2.0, 3.5, 3.0];
        assert_eq!(paired_wins(&a, &b, Better::Lower), Wins { b: 2, a: 1, pairs: 4 });
        assert_eq!(paired_wins(&a, &b, Better::Higher), Wins { b: 1, a: 2, pairs: 4 });
        assert_eq!(paired_wins(&a, &b[..2], Better::Lower).pairs, 2);
    }

    #[test]
    fn verdicts_apply_bounds_spreads_and_exact_counts() {
        let p50 = &END_TO_END[0];
        assert_eq!(p50.name, "op_s_p50");
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(p50, &a, &[1.05, 1.04, 1.06, 1.05, 1.05]), Verdict::Within);
        assert_eq!(judge(p50, &a, &[1.30, 1.31, 1.29, 1.30, 1.30]), Verdict::Regression);
        assert_eq!(judge(p50, &a, &[0.5, 1.5, 0.7, 1.4, 1.0]), Verdict::Unresolved);
        assert_eq!(
            judge(p50, &[2.0, 3.0, 2.2, 2.9], &[0.5, 1.5, 0.7, 1.4]),
            Verdict::BetterInEveryRun
        );
        let fn_per_s = END_TO_END.iter().find(|d| d.name == "fn_per_s").expect("defined");
        assert_eq!(
            judge(fn_per_s, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Regression
        );
        let count = PER_LAYER.iter().find(|d| d.is_count()).expect("a count metric");
        assert_eq!(judge(count, &[7.0, 7.0], &[7.0]), Verdict::Identical);
        assert_eq!(judge(count, &[7.0, 7.0], &[8.0]), Verdict::CountChanged);
    }
}
