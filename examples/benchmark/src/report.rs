//! Named metrics, the printed report and the one-line JSON result.

use std::fmt::Write as _;

/// One measured value under its fixed name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median; `None` for counts and ratios.
    pub samples: Option<usize>,
    /// Printed beside the value (`FLAG …`, the percentile actually read).
    pub note: String,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a repeated name: either is a bug in
    /// the benchmark, and a number must not be published over it.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) -> &mut Metric {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
            note: String::new(),
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Records a metric read off `samples` timings.
    pub fn put_n(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> &mut Metric {
        let m = self.put(name, value, unit);
        m.samples = Some(samples);
        m
    }

    /// One aligned `name = value unit (n=…) note` line per metric.
    pub fn render(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<width$} = {} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " (n={n})");
            }
            if !m.note.is_empty() {
                let _ = write!(out, "  {}", m.note);
            }
            out.push('\n');
        }
        out
    }

    /// Keeps exactly the metrics named in `wanted`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if a wanted metric was never measured: the result line must
    /// carry every name `BENCHMARK.json` lists.
    pub fn select(&self, wanted: &[(String, &'static str)]) -> Vec<Metric> {
        wanted
            .iter()
            .map(|(name, unit)| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| &m.name == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert_eq!(m.unit, *unit, "metric {name} changed its unit");
                m.clone()
            })
            .collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Display of an f64 prints the shortest digits that round-trip: the
        // value as measured, never rounded for show.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut r = Report::default();
        r.put_n("latency_ms", 1.203_456_789, "ms", 1000);
        r.put("peak_live_bytes", 3_211_264.0, "bytes");
        let line = result_json(true, 1000, 0, &r.metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"peak_live_bytes\": {\"value\": 3211264, \"unit\": \"bytes\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn select_orders_by_the_wanted_list() {
        let mut r = Report::default();
        r.put("b", 2.0, "ms");
        r.put("a", 1.0, "s");
        r.put("extra", 9.0, "count");
        let picked = r.select(&[("a".to_string(), "s"), ("b".to_string(), "ms")]);
        assert_eq!(
            picked.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn select_refuses_a_missing_metric() {
        Report::default().select(&[("gone".to_string(), "ms")]);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        Report::default().put("x", f64::NAN, "ms");
    }

    #[test]
    fn render_shows_units_samples_and_notes() {
        let mut r = Report::default();
        r.put_n("phase_cover", 0.5, "ratio", 9).note = "FLAG".to_string();
        assert_eq!(r.render(), "phase_cover = 0.5 ratio (n=9)  FLAG\n");
    }
}
