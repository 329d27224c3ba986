//! Exposition: rendering a [`Snapshot`] as Prometheus-style text
//! ([`render_prometheus`]) or as a JSON value ([`render_json`]) in the
//! workspace's no-serde dialect ([`crate::json`]).

use crate::json::{array, escape, fmt_f64, JsonObject};
use crate::registry::{MetricSnapshot, MetricValue, Snapshot};
use std::fmt::Write as _;

fn type_of(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) | MetricValue::FloatCounter(_) => "counter",
        MetricValue::Gauge(_) | MetricValue::FloatGauge(_) => "gauge",
        MetricValue::Histogram(_) => "summary",
    }
}

/// `{k="v",k2="v2"}` (empty string when unlabeled); `extra` appends one
/// more pair (the `quantile` slot).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot as Prometheus-style text exposition: one
/// `# HELP`/`# TYPE` header per metric name (first-seen help text wins for
/// a labeled family), then one sample line per metric. Histograms emit
/// summary `{quantile=...}` lines (0.5, 0.95, and 1 — the exact maximum)
/// plus `_sum`/`_count`.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for metric in &snapshot.metrics {
        if !seen.contains(&metric.name.as_str()) {
            seen.push(&metric.name);
            let _ = writeln!(out, "# HELP {} {}", metric.name, metric.help);
            let _ = writeln!(out, "# TYPE {} {}", metric.name, type_of(&metric.value));
        }
        let name = &metric.name;
        match &metric.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name}{} {v}", label_block(&metric.labels, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{} {v}", label_block(&metric.labels, None));
            }
            MetricValue::FloatCounter(v) | MetricValue::FloatGauge(v) => {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    label_block(&metric.labels, None),
                    prom_f64(*v)
                );
            }
            MetricValue::Histogram(h) => {
                for (q, label) in [(0.50, "0.5"), (0.95, "0.95")] {
                    let _ = writeln!(
                        out,
                        "{name}{} {}",
                        label_block(&metric.labels, Some(("quantile", label))),
                        h.quantile_us(q)
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    label_block(&metric.labels, Some(("quantile", "1"))),
                    h.max_us
                );
                let labels = label_block(&metric.labels, None);
                let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_us);
                let _ = writeln!(out, "{name}_count{labels} {}", h.count);
            }
        }
    }
    out
}

fn json_labels(metric: &MetricSnapshot) -> String {
    let fields: Vec<String> = metric
        .labels
        .iter()
        .map(|(k, v)| format!("{}: {}", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Renders a snapshot as a JSON array of metric objects (`name`, `labels`,
/// `type`, and a type-appropriate `value`): histograms are summarized to
/// `p50_us`/`p95_us`/`max_us`/`count`/`sum_us` (the buckets stay internal).
pub fn render_json(snapshot: &Snapshot) -> String {
    array(snapshot.metrics.iter().map(|metric| {
        let base = JsonObject::new()
            .str("name", &metric.name)
            .raw("labels", json_labels(metric))
            .str("type", type_of(&metric.value));
        match &metric.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => base.int("value", *v),
            MetricValue::FloatCounter(v) | MetricValue::FloatGauge(v) => {
                base.raw("value", fmt_f64(*v))
            }
            MetricValue::Histogram(h) => base.raw(
                "value",
                JsonObject::new()
                    .int("p50_us", h.quantile_us(0.50))
                    .int("p95_us", h.quantile_us(0.95))
                    .int("max_us", h.max_us)
                    .int("count", h.count)
                    .int("sum_us", h.sum_us)
                    .build(),
            ),
        }
        .build()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_snapshot() -> Snapshot {
        let registry = Registry::new();
        registry
            .counter(
                "heatvit_serve_lane_served",
                &[("lane", "0")],
                "requests per lane",
            )
            .add(12);
        registry
            .counter(
                "heatvit_serve_lane_served",
                &[("lane", "1")],
                "requests per lane",
            )
            .add(3);
        registry
            .gauge(
                "heatvit_serve_lane_queue_depth",
                &[("lane", "0")],
                "live depth",
            )
            .set(4);
        let hist = registry.histogram("heatvit_serve_latency_us", &[], "latency µs");
        for us in [10, 20, 30, 40, 5000] {
            hist.observe(us);
        }
        registry
            .float_counter("heatvit_serve_keep_sum", &[], "keep sum")
            .add(1.5);
        registry.snapshot()
    }

    #[test]
    fn prometheus_text_has_headers_and_family_lines() {
        let text = render_prometheus(&demo_snapshot());
        assert!(text.contains("# HELP heatvit_serve_lane_served requests per lane"));
        assert!(text.contains("# TYPE heatvit_serve_lane_served counter"));
        assert!(text.contains("heatvit_serve_lane_served{lane=\"0\"} 12"));
        assert!(text.contains("heatvit_serve_lane_served{lane=\"1\"} 3"));
        // The HELP/TYPE header appears once for the whole family.
        assert_eq!(text.matches("# TYPE heatvit_serve_lane_served").count(), 1);
        assert!(text.contains("heatvit_serve_lane_queue_depth{lane=\"0\"} 4"));
        assert!(text.contains("heatvit_serve_keep_sum 1.5"));
    }

    #[test]
    fn prometheus_series_render_as_summaries() {
        let text = render_prometheus(&demo_snapshot());
        assert!(text.contains("# TYPE heatvit_serve_latency_us summary"));
        assert!(text.contains("heatvit_serve_latency_us{quantile=\"0.5\"} 30"));
        // rank 5 → the bucket 4992..=5023, clamped to the exact max.
        assert!(text.contains("heatvit_serve_latency_us{quantile=\"0.95\"} 5000"));
        assert!(text.contains("heatvit_serve_latency_us{quantile=\"1\"} 5000"));
        assert!(text.contains("heatvit_serve_latency_us_sum 5100"));
        assert!(text.contains("heatvit_serve_latency_us_count 5"));
        assert!(!text.contains("_bucket"));
    }

    #[test]
    fn json_rendering_is_loadable_shape() {
        let json = render_json(&demo_snapshot());
        assert!(json.starts_with("[\n"));
        assert!(json.contains(r#""name": "heatvit_serve_lane_served""#));
        assert!(json.contains(r#""labels": {"lane": "0"}"#));
        assert!(json.contains(r#""type": "summary""#));
        assert!(json.contains(
            r#""value": {"p50_us": 30, "p95_us": 5000, "max_us": 5000, "count": 5, "sum_us": 5100}"#
        ));
        // Balanced brackets: every open brace closes (cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
