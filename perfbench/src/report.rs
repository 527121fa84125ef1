//! The one-line JSON result and the metric catalogue it is checked against.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("cycles_per_s", "1/s"),
    ("cycle_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that never
/// calls into a layer reports that layer's measured total, which is 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cycle_p99_us", "us"),
    ("setup.topology_us", "us"),
    ("setup.graph_build_us", "us"),
    ("stream.read_ns_per_cmd", "ns"),
    ("stream.parse_ns_per_cmd", "ns"),
    ("stream.render_ns_per_line", "ns"),
    ("incremental.decide_ns_per_cmd", "ns"),
    ("incremental.decide_p50_ns", "ns"),
    ("incremental.decide_p99_ns", "ns"),
    ("incremental.allocs", "count"),
    ("incremental.queues", "count"),
    ("incremental.promotes", "count"),
    ("serve.pipeline_ns_per_cmd", "ns"),
    ("serve.write_ns_per_line", "ns"),
    ("system.loop_us_per_cycle", "us"),
    ("scheduler.cycle_us", "us"),
    ("scheduler.degraded_share", "ratio"),
    ("transform.configure_us_per_cycle", "us"),
    ("max_flow.solve_us_per_cycle", "us"),
    ("max_flow.augmentations_per_cycle", "count"),
    ("mapping.extract_us_per_cycle", "us"),
    ("hetero.transform_us_per_cycle", "us"),
    ("lp.solve_ms_per_cycle", "ms"),
    ("lp.pivots_per_cycle", "count"),
    ("lp.columns_per_cycle", "count"),
    ("lp.fallback_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (commands submitted, or scheduling cycles).
    pub attempted: u64,
    /// Operations that failed (`error` log lines, scheduler `Err`s).
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Seconds of every calibration pass of the run, in order.
    pub calibration: Vec<f64>,
}

impl Report {
    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Set a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Multiply every per-layer metric set so far whose unit is a time by
    /// `factor` (the traced run's rescaling to the reference speed).
    pub fn rescale_per_layer(&mut self, factor: f64) {
        for &(name, unit) in PER_LAYER {
            if let (Some(v), "ns" | "us" | "ms") = (self.metrics.get_mut(name), unit) {
                *v *= factor;
            }
        }
    }

    /// The result line: the end-to-end catalogue, or with `traced` the
    /// per-layer one. Per-layer metrics the workload did not set are 0
    /// (the layer was never called); a missing end-to-end metric or a
    /// non-finite value makes the run incorrect.
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut violations = self.violations.clone();
        let mut body = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    violations.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                violations.push(format!("metric {name} is not finite"));
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            violations.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// High-water resident set size of this process, in MB (from
/// `/proc/self/status`).
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
    fn json_lists_every_metric_and_flags_missing_ones() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        assert!(r.to_json(false).starts_with("{\"correct\": true"));
        let traced = r.to_json(true);
        assert!(traced.contains("\"lp.fallback_share\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn rescaling_touches_only_per_layer_times() {
        let mut r = Report::default();
        r.set("stream.parse_ns_per_cmd", 60.0);
        r.set("lp.solve_ms_per_cycle", 2.0);
        r.set("lp.pivots_per_cycle", 150.0);
        r.set("trace.overhead_ratio", 1.5);
        r.set("setup_s", 0.25);
        r.rescale_per_layer(0.5);
        assert_eq!(r.metrics["stream.parse_ns_per_cmd"], 30.0);
        assert_eq!(r.metrics["lp.solve_ms_per_cycle"], 1.0);
        assert_eq!(r.metrics["lp.pivots_per_cycle"], 150.0);
        assert_eq!(r.metrics["trace.overhead_ratio"], 1.5);
        assert_eq!(r.metrics["setup_s"], 0.25);
    }
}
