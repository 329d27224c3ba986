//! # heatvit-telemetry
//!
//! Observability substrate for the
//! [HeatViT](https://arxiv.org/abs/2211.08110) reproduction: a lock-free
//! metrics [`Registry`], bounded per-request span tracing
//! ([`SpanRecorder`]), and two exposition formats over point-in-time
//! [`Snapshot`]s — Prometheus-style text ([`render_prometheus`]) and the
//! workspace's no-serde JSON dialect ([`render_json`], [`json`]).
//!
//! Design rules, in priority order:
//!
//! 1. **Hot paths never lock.** Recording into a [`Counter`], [`Gauge`],
//!    [`FloatCounter`], [`FloatGauge`], or [`Histogram`] is a few atomic
//!    operations through an `Arc` handle; the registry mutex is taken only
//!    at registration and snapshot time. The one deliberate exception is
//!    the [`SpanRecorder`] ring (ordered events), a short push-under-mutex
//!    critical section kept off per-image compute paths.
//! 2. **Snapshots are the single source of truth.** End-of-run reports
//!    (`heatvit-serve`'s `ServeReport`) are materialized *from* a
//!    [`Snapshot`], so live metrics and the final report can never
//!    disagree. Counts, sums and maxima are exact; [`Histogram`]
//!    quantiles overstate the exact nearest-rank value by at most a factor
//!    `1 + 2^-7` ([`HISTOGRAM_PRECISION_BITS`]) in fixed memory.
//! 3. **Purely observational.** Nothing here feeds back into scheduling,
//!    admission, or training arithmetic; instrumented code produces
//!    bitwise-identical results with telemetry attached or not.
//!
//! ```
//! use heatvit_telemetry::{render_prometheus, Registry};
//!
//! let registry = Registry::new();
//! let served = registry.counter(
//!     "heatvit_serve_lane_served",
//!     &[("lane", "0")],
//!     "requests served per executing lane",
//! );
//! served.add(3);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("heatvit_serve_lane_served", &[("lane", "0")]), 3);
//! assert!(render_prometheus(&snapshot).contains("heatvit_serve_lane_served{lane=\"0\"} 3"));
//! ```

#![warn(missing_docs)]

pub mod expo;
pub mod json;
mod metrics;
mod registry;
mod trace;

pub use expo::{render_json, render_prometheus};
pub use metrics::{
    nearest_rank_us, Counter, FloatCounter, FloatGauge, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_PRECISION_BITS,
};
pub use registry::{MetricSnapshot, MetricValue, Registry, Snapshot};
pub use trace::{BatchSpan, RequestSpan, ShedSpan, SpanRecorder, TraceEvent};
