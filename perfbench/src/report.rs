//! Aggregation and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (transactions offered, plus audits).
    pub attempted: u64,
    /// Failed operations, each described once in `failures`.
    pub failed: u64,
    /// One line per failure kind.
    pub failures: Vec<String>,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (only in a traced run).
    pub per_layer: Vec<Metric>,
    /// Free-form context lines (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `n` failures of one kind (nothing when `n == 0`).
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} × {}", what.into()));
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric { name, unit, value });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric { name, unit, value });
    }

    /// The result line: the end-to-end metrics, or the per-layer ones
    /// for a traced run.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    out.push('}');
    out
}

/// Median of `xs` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `xs` after cutting `cut` (a share, below 0.5) of the values
/// at each end (0 when empty). Per-drain figures are often bimodal on a
/// small host — a drain either meets a scheduling hiccup or not — and a
/// median then jumps between the modes as the mixture shifts from run
/// to run, while a trimmed mean follows it smoothly and still ignores
/// the rare storm drain.
pub fn trimmed_mean(xs: &[f64], cut: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((v.len() as f64) * cut).floor() as usize;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile (`p` in 0..=1) of `xs`, as `mla-serve`
/// computes its own.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = (v.len() as f64 * p).ceil() as usize;
    v[idx.clamp(1, v.len()) - 1]
}
