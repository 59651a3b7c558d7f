//! The result line every run prints last.

use lsra_trace::json::JsonWriter;

/// Outcome and metrics of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// False when a run-wide invariant broke (e.g. an exact count moved).
    pub correct: bool,
    /// Operations attempted in the timed rounds.
    pub attempted: u64,
    /// Operations among them whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why each failed operation failed, one line each (standard error
    /// shows them as they happen; the result line does not).
    pub failures: Vec<String>,
}

impl Report {
    /// An empty, correct report.
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Adds one metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// One JSON object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.bool(self.correct);
        w.field_uint("attempted", self.attempted);
        w.field_uint("failed", self.failed);
        w.key("metrics");
        w.begin_object();
        for (name, value, unit) in &self.metrics {
            w.key(name);
            w.begin_object();
            // JSON has no NaN or infinity; a metric that cannot be
            // computed is written as 0.
            w.field_float("value", if value.is_finite() { *value } else { 0.0 });
            w.field_str("unit", unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = Report::new();
        r.attempted = 3;
        r.add("a_ms", 1.5, "ms");
        r.add("n", 2.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
