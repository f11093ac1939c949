//! Metric values, percentiles and the result line.

use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value rests on; 0 marks a metric the
    /// workload has no samples of (its value is then 0).
    pub samples: usize,
}

/// Every metric one run measured, in the order they were pushed.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Pushes the `q`-quantile of `values` (nearest rank), scaled by
    /// `scale` (e.g. 1e3 to turn seconds into milliseconds).
    pub fn quantile(
        &mut self,
        name: &'static str,
        values: &[f64],
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        self.push(name, quantile(values, q) * scale, unit, values.len());
    }

    /// Pushes the mean of `values`.
    pub fn mean(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        let mean = if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        self.push(name, mean, unit, values.len());
    }

    /// Human-readable lines, one metric each.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = if m.samples == 0 {
                "  (no samples on this workload)"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<26} {:>14.4} {:<6} n={}{}\n",
                m.name, m.value, m.unit, m.samples, note
            ));
        }
        out
    }

    /// The metrics as a JSON object `{name: {value, unit, samples}}`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Nearest-rank quantile of unsorted `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
