//! The server's telemetry surface: every counter, gauge, and latency
//! histogram a [`crate::Server`] records, registered up front in one
//! [`Registry`], plus the bounded [`SpanRecorder`] request trace.
//!
//! [`crate::ServeReport`] is a *view* materialized from a registry
//! [`Snapshot`](heatvit::telemetry::Snapshot) — the metrics here are the
//! single source of truth. Hot-path recording is lock-free (atomic
//! handles); only the trace ring takes a short mutex.
//!
//! Every metric family is pre-registered at server start (all flush
//! reasons, both SLO classes, every batch size up to `max_batch`, every
//! level and lane), so expositions always show the full family — a lane
//! that served nothing still exports `heatvit_serve_lane_served{lane="1"} 0`
//! — and snapshot-derived reports read dense per-index vectors.

use crate::report::FlushReason;
use crate::request::Priority;
use heatvit::telemetry::{
    BatchSpan, Counter, FloatCounter, Gauge, Histogram, Registry, RequestSpan, ShedSpan,
    SpanRecorder, TraceEvent,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registered metric names — the stable observability contract. CI greps
/// the Prometheus exposition for several of these; renaming one is a
/// breaking change to dashboards.
pub mod names {
    /// Counter: requests resolved.
    pub const COMPLETED: &str = "heatvit_serve_completed_total";
    /// Counter: responses resolved after their deadline.
    pub const DEADLINE_MISSES: &str = "heatvit_serve_deadline_misses_total";
    /// Counter family by `reason`: batches flushed per flush policy.
    pub const FLUSH: &str = "heatvit_serve_flush_total";
    /// Counter family by `size`: formed batches per batch size.
    pub const BATCH_SIZE: &str = "heatvit_serve_batch_size_total";
    /// Counter family by `decision` (`accept`/`degrade`/`shed`): admission
    /// outcomes.
    pub const ADMISSION: &str = "heatvit_serve_admission_total";
    /// Histogram: request latency, µs.
    pub const LATENCY: &str = "heatvit_serve_latency_us";
    /// Counter family by `class`: requests resolved per SLO class.
    pub const CLASS_COMPLETED: &str = "heatvit_serve_class_completed_total";
    /// Counter family by `class`: deadline misses per SLO class.
    pub const CLASS_MISSES: &str = "heatvit_serve_class_deadline_misses_total";
    /// Counter family by `class`: admission sheds per SLO class.
    pub const CLASS_SHEDS: &str = "heatvit_serve_class_sheds_total";
    /// Counter family by `class`: requests served at a degraded level.
    pub const CLASS_DEGRADED: &str = "heatvit_serve_class_degraded_total";
    /// Float counter family by `class`: summed keep-fraction accuracy proxy.
    pub const CLASS_KEEP_SUM: &str = "heatvit_serve_class_keep_sum";
    /// Histogram family by `class`: request latency per SLO class, µs.
    pub const CLASS_LATENCY: &str = "heatvit_serve_class_latency_us";
    /// Counter family by `level` (+ `variant`): requests served per level.
    pub const LEVEL_SERVED: &str = "heatvit_serve_level_served_total";
    /// Counter family by `lane`: requests executed per lane.
    pub const LANE_SERVED: &str = "heatvit_serve_lane_served";
    /// Counter family by `lane`: requests executed out of stolen batches.
    pub const LANE_STEALS: &str = "heatvit_serve_lane_steals_total";
    /// Gauge family by `lane`: current queue depth.
    pub const LANE_QUEUE_DEPTH: &str = "heatvit_serve_lane_queue_depth";
    /// Gauge family by `lane`: highest queue depth ever observed.
    pub const LANE_QUEUE_HWM: &str = "heatvit_serve_lane_queue_hwm";
    /// Gauge family by `lane`: predicted in-flight work ledger, µs.
    pub const LANE_INFLIGHT_US: &str = "heatvit_serve_lane_inflight_us";
    /// Float counter: summed relative batch prediction error.
    pub const PREDICTION_ERROR_SUM: &str = "heatvit_serve_prediction_error_sum";
    /// Counter: warmed-up batches scored for prediction error.
    pub const PREDICTION_BATCHES: &str = "heatvit_serve_prediction_batches_total";
    /// Gauge: serving-window start, µs since server start + 1 (0 = unset).
    pub const WINDOW_FIRST_US: &str = "heatvit_serve_window_first_us";
    /// Gauge: serving-window end, µs since server start + 1 (0 = unset).
    pub const WINDOW_LAST_US: &str = "heatvit_serve_window_last_us";
}

/// One lane's gauges and counters. The depth/HWM/in-flight gauges *are*
/// the lane's lock-free coordination signals (steal victim selection,
/// admission wait estimates) — instrumentation and mechanism are the same
/// atomics, so the exported values are honest by construction.
pub(crate) struct LaneMetrics {
    pub(crate) depth: Arc<Gauge>,
    pub(crate) depth_hwm: Arc<Gauge>,
    pub(crate) inflight_us: Arc<Gauge>,
    served: Arc<Counter>,
    steals: Arc<Counter>,
}

/// One SLO class's counters and latency histogram.
struct ClassMetrics {
    completed: Arc<Counter>,
    misses: Arc<Counter>,
    sheds: Arc<Counter>,
    degraded: Arc<Counter>,
    keep_sum: Arc<FloatCounter>,
    latency: Arc<Histogram>,
}

/// Every handle a [`crate::Server`] records into, plus the trace recorder.
///
/// Construction registers the full metric surface. Recording quantizes
/// durations to whole µs before they reach a metric and writes the same
/// values into the trace spans, so a fold over the trace reproduces every
/// count and sum of a snapshot bitwise —
/// `crates/serve/tests/telemetry_parity.rs` asserts exactly that.
pub(crate) struct ServeMetrics {
    registry: Arc<Registry>,
    recorder: Arc<SpanRecorder>,
    /// Server start: the time base of the window gauges and span offsets.
    epoch: Instant,
    completed: Arc<Counter>,
    misses: Arc<Counter>,
    latency: Arc<Histogram>,
    /// Indexed by [`FlushReason`] declaration order (see
    /// [`FlushReason::ALL`]).
    flush: Vec<Arc<Counter>>,
    /// Index `size - 1`, sizes `1..=max_batch` (a formed batch is never
    /// larger — stealing also caps at `max_batch`).
    batch_sizes: Vec<Arc<Counter>>,
    admission_accept: Arc<Counter>,
    admission_degrade: Arc<Counter>,
    admission_shed: Arc<Counter>,
    /// Indexed by [`Priority::index`].
    classes: [ClassMetrics; 2],
    level_served: Vec<Arc<Counter>>,
    pub(crate) lanes: Vec<LaneMetrics>,
    error_sum: Arc<FloatCounter>,
    error_batches: Arc<Counter>,
    window_first: Arc<Gauge>,
    window_last: Arc<Gauge>,
}

impl ServeMetrics {
    /// Registers the whole serve metric surface on `registry`.
    /// `variants[level]` labels each level's served counter with its
    /// backend variant.
    pub(crate) fn new(
        registry: Arc<Registry>,
        trace_capacity: usize,
        variants: &[String],
        lane_count: usize,
        max_batch: usize,
    ) -> Self {
        let flush = FlushReason::ALL
            .iter()
            .map(|reason| {
                registry.counter(
                    names::FLUSH,
                    &[("reason", reason.label())],
                    "Batches flushed, by flush policy.",
                )
            })
            .collect();
        let batch_sizes = (1..=max_batch)
            .map(|size| {
                registry.counter(
                    names::BATCH_SIZE,
                    &[("size", &size.to_string())],
                    "Formed batches, by batch size.",
                )
            })
            .collect();
        let class_metrics = |class: Priority| {
            let labels = &[("class", class.label())][..];
            ClassMetrics {
                completed: registry.counter(
                    names::CLASS_COMPLETED,
                    labels,
                    "Requests resolved, by SLO class.",
                ),
                misses: registry.counter(
                    names::CLASS_MISSES,
                    labels,
                    "Deadline misses, by SLO class.",
                ),
                sheds: registry.counter(
                    names::CLASS_SHEDS,
                    labels,
                    "Submissions refused by predictive admission, by SLO class.",
                ),
                degraded: registry.counter(
                    names::CLASS_DEGRADED,
                    labels,
                    "Requests served at a degraded level, by SLO class.",
                ),
                keep_sum: registry.float_counter(
                    names::CLASS_KEEP_SUM,
                    labels,
                    "Summed keep-fraction accuracy proxy of completed requests.",
                ),
                latency: registry.histogram(
                    names::CLASS_LATENCY,
                    labels,
                    "Request latency (µs), by SLO class.",
                ),
            }
        };
        let level_served = variants
            .iter()
            .enumerate()
            .map(|(level, variant)| {
                registry.counter(
                    names::LEVEL_SERVED,
                    &[("level", &level.to_string()), ("variant", variant)],
                    "Requests served per service level (0 = most accurate).",
                )
            })
            .collect();
        let lanes = (0..lane_count)
            .map(|index| {
                let lane = index.to_string();
                let labels = &[("lane", lane.as_str())][..];
                LaneMetrics {
                    depth: registry.gauge(
                        names::LANE_QUEUE_DEPTH,
                        labels,
                        "Current queue depth of this lane.",
                    ),
                    depth_hwm: registry.gauge(
                        names::LANE_QUEUE_HWM,
                        labels,
                        "Highest queue depth this lane ever reached.",
                    ),
                    inflight_us: registry.gauge(
                        names::LANE_INFLIGHT_US,
                        labels,
                        "Predicted in-flight work charged to this lane (µs).",
                    ),
                    served: registry.counter(
                        names::LANE_SERVED,
                        labels,
                        "Requests executed by this lane (stolen batches count for the thief).",
                    ),
                    steals: registry.counter(
                        names::LANE_STEALS,
                        labels,
                        "Requests this lane executed out of stolen batches.",
                    ),
                }
            })
            .collect();
        Self {
            recorder: Arc::new(SpanRecorder::new(trace_capacity)),
            epoch: Instant::now(),
            completed: registry.counter(names::COMPLETED, &[], "Requests resolved."),
            misses: registry.counter(
                names::DEADLINE_MISSES,
                &[],
                "Responses resolved after their deadline.",
            ),
            latency: registry.histogram(names::LATENCY, &[], "Request latency (µs)."),
            flush,
            batch_sizes,
            admission_accept: registry.counter(
                names::ADMISSION,
                &[("decision", "accept")],
                "Admission outcomes.",
            ),
            admission_degrade: registry.counter(
                names::ADMISSION,
                &[("decision", "degrade")],
                "Admission outcomes.",
            ),
            admission_shed: registry.counter(
                names::ADMISSION,
                &[("decision", "shed")],
                "Admission outcomes.",
            ),
            classes: [
                class_metrics(Priority::High),
                class_metrics(Priority::Normal),
            ],
            level_served,
            lanes,
            error_sum: registry.float_counter(
                names::PREDICTION_ERROR_SUM,
                &[],
                "Summed relative batch execution-time prediction error.",
            ),
            error_batches: registry.counter(
                names::PREDICTION_BATCHES,
                &[],
                "Warmed-up batches scored for prediction error.",
            ),
            window_first: registry.gauge(
                names::WINDOW_FIRST_US,
                &[],
                "Serving-window start (µs since server start, +1; 0 = unset).",
            ),
            window_last: registry.gauge(
                names::WINDOW_LAST_US,
                &[],
                "Serving-window end (µs since server start, +1; 0 = unset).",
            ),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub(crate) fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.recorder
    }

    /// Offset of `at` from the server epoch, µs, shifted by +1 so an unset
    /// window gauge (0) is distinguishable from "exactly at start".
    fn window_off(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64 + 1
    }

    /// Opens the serving window at the first submission (lock-free CAS; at
    /// most one submitter wins).
    pub(crate) fn record_first_submit(&self, at: Instant) {
        self.window_first.set_if_unset(self.window_off(at));
    }

    /// One accepted submission's admission outcome (`accept` at the best
    /// level, `degrade` below it).
    pub(crate) fn record_admission(&self, level: usize) {
        if level == 0 {
            self.admission_accept.inc();
        } else {
            self.admission_degrade.inc();
        }
    }

    /// One refused submission: admission predicted a miss at every level.
    pub(crate) fn record_shed(&self, class: Priority, predicted: Duration) {
        self.admission_shed.inc();
        self.classes[class.index()].sheds.inc();
        self.recorder.record(TraceEvent::Shed(ShedSpan {
            class: class.index(),
            predicted_us: predicted.as_micros() as u64,
        }));
    }

    /// One flushed batch. A `scored` batch adds its relative prediction
    /// error `|predicted − measured| / measured`, computed from the
    /// µs-quantized durations its span carries (a batch measured under
    /// 1 µs is skipped), so a trace fold reproduces the sum bitwise.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_batch(
        &self,
        size: usize,
        reason: FlushReason,
        done: Instant,
        lane: usize,
        level: usize,
        predicted: Duration,
        measured: Duration,
        scored: bool,
    ) {
        let predicted_us = predicted.as_micros() as u64;
        let measured_us = measured.as_micros() as u64;
        self.flush[reason.index()].inc();
        self.batch_sizes[size - 1].inc();
        if reason == FlushReason::Steal {
            self.lanes[lane].steals.add(size as u64);
        }
        let off = self.window_off(done);
        self.window_first.set_if_unset(off);
        self.window_last.set_max(off);
        if scored {
            let measured = Duration::from_micros(measured_us);
            if !measured.is_zero() {
                let predicted = Duration::from_micros(predicted_us);
                let rel = (predicted.as_secs_f64() - measured.as_secs_f64()).abs()
                    / measured.as_secs_f64();
                self.error_sum.add(rel);
                self.error_batches.inc();
            }
        }
        self.recorder.record(TraceEvent::Batch(BatchSpan {
            lane,
            level,
            size,
            reason: reason.label(),
            predicted_us,
            measured_us,
            scored,
            done_off_us: off - 1,
        }));
    }

    /// One resolved request.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_response(
        &self,
        latency: Duration,
        queued: Duration,
        missed: bool,
        class: Priority,
        level: usize,
        keep: f64,
        lane: usize,
        batch_size: usize,
    ) {
        let total_us = latency.as_micros() as u64;
        self.completed.inc();
        self.latency.observe(total_us);
        if missed {
            self.misses.inc();
        }
        let c = &self.classes[class.index()];
        c.completed.inc();
        c.latency.observe(total_us);
        c.keep_sum.add(keep);
        if missed {
            c.misses.inc();
        }
        if level > 0 {
            c.degraded.inc();
        }
        self.level_served[level].inc();
        self.lanes[lane].served.inc();
        self.recorder.record(TraceEvent::Request(RequestSpan {
            class: class.index(),
            level,
            lane,
            queued_us: queued.as_micros() as u64,
            total_us,
            missed,
            keep,
            batch_size,
        }));
    }
}
