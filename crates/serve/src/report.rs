//! The aggregate [`ServeReport`] (latency percentiles, batch-size
//! histogram, deadline misses, flush-policy counts, throughput,
//! per-SLO-class and per-lane breakdowns, and predicted-vs-measured
//! latency error) — materialized as a *view* over a telemetry registry
//! [`Snapshot`] via [`ServeReport::from_snapshot`].

use crate::metrics::names;
use crate::request::Priority;
use heatvit::telemetry::{MetricValue, Snapshot};

/// Why a lane flushed a pending batch into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The batch reached [`crate::ServeConfig::max_batch`] requests.
    MaxBatch,
    /// The earliest deadline in the batch came within
    /// [`crate::ServeConfig::deadline_slack`] of now.
    Deadline,
    /// No new request arrived for [`crate::ServeConfig::idle_flush`].
    Idle,
    /// The server is draining at shutdown (no request is dropped).
    Shutdown,
    /// An idle lane stole this batch off a backlogged lane's queue
    /// ([`crate::StealPolicy`]).
    Steal,
}

/// Flush counts per [`FlushReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// Batches flushed because they filled up.
    pub max_batch: u64,
    /// Batches flushed by deadline proximity.
    pub deadline: u64,
    /// Batches flushed by queue idleness.
    pub idle: u64,
    /// Batches flushed by the shutdown drain.
    pub shutdown: u64,
    /// Batches executed by a lane that stole them from another lane.
    pub steal: u64,
}

impl FlushReason {
    /// Every reason, in declaration order — the index order of the
    /// `heatvit_serve_flush_total` counter family.
    pub const ALL: [FlushReason; 5] = [
        FlushReason::MaxBatch,
        FlushReason::Deadline,
        FlushReason::Idle,
        FlushReason::Shutdown,
        FlushReason::Steal,
    ];

    /// Stable metric-label string of this reason (the `reason` label of
    /// `heatvit_serve_flush_total` and the tag on trace batch spans).
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::MaxBatch => "max_batch",
            FlushReason::Deadline => "deadline",
            FlushReason::Idle => "idle",
            FlushReason::Shutdown => "shutdown",
            FlushReason::Steal => "steal",
        }
    }

    /// Position in [`FlushReason::ALL`].
    pub fn index(self) -> usize {
        match self {
            FlushReason::MaxBatch => 0,
            FlushReason::Deadline => 1,
            FlushReason::Idle => 2,
            FlushReason::Shutdown => 3,
            FlushReason::Steal => 4,
        }
    }

    /// The reason carrying `label`, if it names one (inverse of
    /// [`FlushReason::label`] — how a trace fold maps span tags back).
    pub fn from_label(label: &str) -> Option<FlushReason> {
        FlushReason::ALL.into_iter().find(|r| r.label() == label)
    }
}

impl FlushCounts {
    /// Total batches flushed.
    pub fn total(&self) -> u64 {
        self.max_batch + self.deadline + self.idle + self.shutdown + self.steal
    }
}

/// Per-SLO-class slice of a [`ServeReport`], read through its accessors.
#[derive(Debug, Clone, Copy)]
pub struct ClassReport {
    class: Priority,
    completed: u64,
    deadline_misses: u64,
    sheds: u64,
    degraded: u64,
    p50_ms: f64,
    p95_ms: f64,
    max_ms: f64,
    mean_keep: f64,
}

impl ClassReport {
    /// The SLO class this row describes.
    pub fn class(&self) -> Priority {
        self.class
    }

    /// Requests of this class resolved.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Responses that resolved after their deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Submissions refused with [`crate::SubmitError::Shed`] (admission
    /// predicted a miss at every service level).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Requests served at a degraded level (level index > 0: a cheaper
    /// keep-rate schedule or backend than the class's best).
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    /// Median latency, milliseconds (see [`ServeReport::p50_ms`] for the
    /// error bound).
    pub fn p50_ms(&self) -> f64 {
        self.p50_ms
    }

    /// 95th-percentile latency, milliseconds (same bound as `p50_ms`).
    pub fn p95_ms(&self) -> f64 {
        self.p95_ms
    }

    /// Worst latency, milliseconds (exact).
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Mean accuracy proxy of the levels that served this class: the mean
    /// fraction of tokens kept relative to dense (1.0 = full accuracy
    /// budget; lower = degraded under load).
    pub fn mean_keep(&self) -> f64 {
        self.mean_keep
    }

    /// Fraction of completed requests of this class that missed their
    /// deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.completed as f64
        }
    }
}

/// Aggregate statistics of everything a [`crate::Server`] has served: a
/// *view* materialized from the server's telemetry registry
/// ([`ServeReport::from_snapshot`]), read through its accessors.
#[derive(Debug, Clone)]
pub struct ServeReport {
    completed: u64,
    batches: u64,
    deadline_misses: u64,
    flushes: FlushCounts,
    batch_histogram: Vec<(usize, u64)>,
    mean_batch: f64,
    p50_ms: f64,
    p95_ms: f64,
    max_ms: f64,
    throughput: f64,
    /// Indexed by [`Priority::index`].
    classes: [ClassReport; 2],
    level_served: Vec<u64>,
    lane_served: Vec<u64>,
    lane_steals: Vec<u64>,
    lane_queue_hwm: Vec<u64>,
    predicted_error_pct: f64,
}

impl ServeReport {
    /// Materializes a report from a telemetry registry snapshot — the one
    /// way live reports are built. Every column is read back from the
    /// `heatvit_serve_*` metric families (see [`crate::metrics::names`]).
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let counter_family = |name: &str, key: &str| -> Vec<u64> {
            snapshot
                .family_by(name, key)
                .into_iter()
                .map(|(_, m)| match m.value {
                    MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .collect()
        };
        let flushes = FlushCounts {
            max_batch: snapshot.counter(names::FLUSH, &[("reason", "max_batch")]),
            deadline: snapshot.counter(names::FLUSH, &[("reason", "deadline")]),
            idle: snapshot.counter(names::FLUSH, &[("reason", "idle")]),
            shutdown: snapshot.counter(names::FLUSH, &[("reason", "shutdown")]),
            steal: snapshot.counter(names::FLUSH, &[("reason", "steal")]),
        };
        let batch_histogram: Vec<(usize, u64)> = snapshot
            .family_by(names::BATCH_SIZE, "size")
            .into_iter()
            .filter_map(|(size, m)| match m.value {
                MetricValue::Counter(n) if n > 0 => Some((size, n)),
                _ => None,
            })
            .collect();
        let total_in_batches: u64 = batch_histogram.iter().map(|(s, n)| (*s as u64) * n).sum();
        let percentiles = |name: &str, labels: &[(&str, &str)]| {
            snapshot
                .histogram(name, labels)
                .map_or((0.0, 0.0, 0.0), |h| {
                    (
                        h.quantile_us(0.50) as f64 / 1e3,
                        h.quantile_us(0.95) as f64 / 1e3,
                        h.max_us as f64 / 1e3,
                    )
                })
        };
        let (p50_ms, p95_ms, max_ms) = percentiles(names::LATENCY, &[]);
        let classes = [Priority::High, Priority::Normal].map(|class| {
            let labels = &[("class", class.label())][..];
            let completed = snapshot.counter(names::CLASS_COMPLETED, labels);
            let (p50_ms, p95_ms, max_ms) = percentiles(names::CLASS_LATENCY, labels);
            ClassReport {
                class,
                completed,
                deadline_misses: snapshot.counter(names::CLASS_MISSES, labels),
                sheds: snapshot.counter(names::CLASS_SHEDS, labels),
                degraded: snapshot.counter(names::CLASS_DEGRADED, labels),
                p50_ms,
                p95_ms,
                max_ms,
                mean_keep: if completed == 0 {
                    0.0
                } else {
                    snapshot.float_counter(names::CLASS_KEEP_SUM, labels) / completed as f64
                },
            }
        });
        let completed = snapshot.counter(names::COMPLETED, &[]);
        // Window gauges hold µs offsets + 1 (0 = unset); the +1 cancels in
        // the subtraction.
        let first = snapshot.gauge(names::WINDOW_FIRST_US, &[]);
        let last = snapshot.gauge(names::WINDOW_LAST_US, &[]);
        let window_us = if first == 0 || last == 0 {
            0
        } else {
            last.saturating_sub(first)
        };
        let error_batches = snapshot.counter(names::PREDICTION_BATCHES, &[]);
        ServeReport {
            completed,
            batches: flushes.total(),
            deadline_misses: snapshot.counter(names::DEADLINE_MISSES, &[]),
            flushes,
            batch_histogram,
            mean_batch: if flushes.total() == 0 {
                0.0
            } else {
                total_in_batches as f64 / flushes.total() as f64
            },
            p50_ms,
            p95_ms,
            max_ms,
            throughput: if window_us == 0 {
                0.0
            } else {
                completed as f64 / (window_us as f64 / 1e6)
            },
            classes,
            level_served: counter_family(names::LEVEL_SERVED, "level"),
            lane_served: counter_family(names::LANE_SERVED, "lane"),
            lane_steals: counter_family(names::LANE_STEALS, "lane"),
            lane_queue_hwm: snapshot
                .family_by(names::LANE_QUEUE_HWM, "lane")
                .into_iter()
                .map(|(_, m)| match m.value {
                    MetricValue::Gauge(v) => v,
                    _ => 0,
                })
                .collect(),
            predicted_error_pct: if error_batches == 0 {
                f64::NAN
            } else {
                100.0 * snapshot.float_counter(names::PREDICTION_ERROR_SUM, &[])
                    / error_batches as f64
            },
        }
    }

    /// Requests resolved.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Batches flushed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Responses that resolved after their request's deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Flush counts per policy.
    pub fn flushes(&self) -> FlushCounts {
        self.flushes
    }

    /// `(batch size, count)` pairs in ascending batch-size order.
    pub fn batch_histogram(&self) -> &[(usize, u64)] {
        &self.batch_histogram
    }

    /// Mean formed-batch size.
    pub fn mean_batch(&self) -> f64 {
        self.mean_batch
    }

    /// Median request latency (submit → response), milliseconds:
    /// nearest-rank over whole-µs latencies, read from a log-linear
    /// histogram, so it never understates the exact value and overstates
    /// it by at most a factor `1 + 2^-HISTOGRAM_PRECISION_BITS` (< 0.8 %;
    /// [`heatvit::telemetry::HISTOGRAM_PRECISION_BITS`]).
    pub fn p50_ms(&self) -> f64 {
        self.p50_ms
    }

    /// 95th-percentile request latency, milliseconds (same bound as
    /// [`ServeReport::p50_ms`]).
    pub fn p95_ms(&self) -> f64 {
        self.p95_ms
    }

    /// Worst request latency, milliseconds (always exact).
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Completed requests per second over the serving window (first
    /// submission to last resolved batch).
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Per-SLO-class breakdown, [`Priority::High`] first.
    pub fn classes(&self) -> &[ClassReport; 2] {
        &self.classes
    }

    /// Requests served per service level (index 0 = most accurate).
    pub fn level_served(&self) -> &[u64] {
        &self.level_served
    }

    /// Requests served per executing lane (stolen batches count for the
    /// thief — this is who did the work, `level_served` is what model ran).
    pub fn lane_served(&self) -> &[u64] {
        &self.lane_served
    }

    /// Requests each lane executed out of batches it stole from another
    /// lane's queue (a subset of `lane_served`).
    pub fn lane_steals(&self) -> &[u64] {
        &self.lane_steals
    }

    /// Highest queue depth each lane ever reached (its backlog high-water
    /// mark against [`crate::ServeConfig::queue_capacity`]).
    pub fn lane_queue_hwm(&self) -> &[u64] {
        &self.lane_queue_hwm
    }

    /// Mean `|predicted − measured| / measured` batch execution-time error
    /// of the server's latency model, percent, over warmed-up batches
    /// (each level's first batch is excluded as model cold start). `NaN`
    /// until a warmed-up batch completes.
    pub fn predicted_error_pct(&self) -> f64 {
        self.predicted_error_pct
    }

    /// Fraction of completed requests that missed their deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.completed as f64
        }
    }

    /// The [`ClassReport`] of one SLO class.
    pub fn class(&self, class: Priority) -> &ClassReport {
        &self.classes[class.index()]
    }

    /// Total submissions refused by predictive admission across classes.
    pub fn sheds(&self) -> u64 {
        self.classes.iter().map(|c| c.sheds).sum()
    }

    /// Number of batcher/executor lanes this report covers.
    pub fn lanes(&self) -> usize {
        self.lane_served.len()
    }

    /// Total requests served out of stolen batches, across lanes.
    pub fn stolen(&self) -> u64 {
        self.lane_steals.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServeMetrics;
    use heatvit::telemetry::{Registry, HISTOGRAM_PRECISION_BITS};
    use std::time::{Duration, Instant};

    /// A metric surface over `levels` levels and `lanes` lanes (batches of
    /// up to 4).
    fn serve_metrics(levels: usize, lanes: usize) -> ServeMetrics {
        let variants: Vec<String> = (0..levels).map(|l| format!("level-{l}")).collect();
        ServeMetrics::new(Registry::new(), 64, &variants, lanes, 4)
    }

    fn report(metrics: &ServeMetrics) -> ServeReport {
        ServeReport::from_snapshot(&metrics.registry().snapshot())
    }

    /// One unscored flushed batch.
    fn batch(m: &ServeMetrics, size: usize, reason: FlushReason, done: Instant, lane: usize) {
        m.record_batch(
            size,
            reason,
            done,
            lane,
            0,
            Duration::ZERO,
            Duration::ZERO,
            false,
        );
    }

    /// One resolved request of `latency_us`.
    fn respond(
        m: &ServeMetrics,
        latency_us: u64,
        missed: bool,
        class: Priority,
        level: usize,
        keep: f64,
        lane: usize,
    ) {
        let latency = Duration::from_micros(latency_us);
        m.record_response(latency, Duration::ZERO, missed, class, level, keep, lane, 1);
    }

    /// `exact <= reported <= exact * (1 + 2^-HISTOGRAM_PRECISION_BITS)`,
    /// both in milliseconds of whole µs.
    #[track_caller]
    fn assert_within_bound(reported_ms: f64, exact_ms: f64) {
        let reported = (reported_ms * 1e3).round() as u64;
        let exact = (exact_ms * 1e3).round() as u64;
        assert!(
            exact <= reported && reported - exact <= exact >> HISTOGRAM_PRECISION_BITS,
            "{reported_ms} ms outside the bound of {exact_ms} ms"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let m = serve_metrics(1, 1);
        for ms in 1..=100 {
            respond(&m, ms * 1000, false, Priority::Normal, 0, 1.0, 0);
        }
        let r = report(&m);
        assert_within_bound(r.p50_ms(), 50.0);
        assert_within_bound(r.p95_ms(), 95.0);
        assert_eq!(r.max_ms(), 100.0);
        let single = serve_metrics(1, 1);
        respond(&single, 7000, false, Priority::Normal, 0, 1.0, 0);
        assert_eq!(report(&single).p95_ms(), 7.0);
        assert_eq!(report(&serve_metrics(1, 1)).p95_ms(), 0.0);
        // Small-sample nearest rank rounds up: p50 of [1, 2] is rank 1.
        let pair = serve_metrics(1, 1);
        respond(&pair, 1000, false, Priority::Normal, 0, 1.0, 0);
        respond(&pair, 2000, false, Priority::Normal, 0, 1.0, 0);
        assert_within_bound(report(&pair).p50_ms(), 1.0);
    }

    #[test]
    fn flush_counts_bump_and_total() {
        let m = serve_metrics(1, 1);
        let t0 = Instant::now();
        for reason in [
            FlushReason::MaxBatch,
            FlushReason::Deadline,
            FlushReason::Deadline,
            FlushReason::Idle,
            FlushReason::Shutdown,
            FlushReason::Steal,
        ] {
            batch(&m, 1, reason, t0, 0);
        }
        let counts = report(&m).flushes();
        assert_eq!(counts.max_batch, 1);
        assert_eq!(counts.deadline, 2);
        assert_eq!(counts.steal, 1);
        assert_eq!(counts.total(), 6);
    }

    #[test]
    fn latency_storage_stays_bounded_under_sustained_load() {
        let m = serve_metrics(1, 1);
        let total = 1u64 << 18;
        for us in 1..=total {
            respond(&m, us, false, Priority::Normal, 0, 1.0, 0);
        }
        let snapshot = m.registry().snapshot();
        // The histogram's state is its fixed bucket array: at most 2^7
        // buckets per power of two, however many requests arrive.
        let hist = snapshot.histogram(names::LATENCY, &[]).unwrap();
        assert!(hist.buckets.len() <= 19 << HISTOGRAM_PRECISION_BITS);
        let report = ServeReport::from_snapshot(&snapshot);
        // Counters stay exact, including the maximum.
        assert_eq!(report.completed(), total);
        assert_eq!(report.max_ms(), total as f64 / 1e3);
        // Percentiles stay within the bound of the uniform 1..=total ramp.
        assert_within_bound(report.p50_ms(), (total / 2) as f64 / 1e3);
    }

    #[test]
    fn stats_aggregate_into_a_report() {
        let m = serve_metrics(2, 1);
        let t0 = Instant::now();
        m.record_first_submit(t0);
        batch(
            &m,
            2,
            FlushReason::MaxBatch,
            t0 + Duration::from_millis(10),
            0,
        );
        respond(&m, 4000, false, Priority::High, 0, 1.0, 0);
        respond(&m, 8000, true, Priority::Normal, 1, 0.7, 0);
        batch(&m, 1, FlushReason::Idle, t0 + Duration::from_millis(20), 0);
        respond(&m, 2000, false, Priority::Normal, 0, 1.0, 0);
        let report = report(&m);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.batches(), 2);
        assert_eq!(report.deadline_misses(), 1);
        assert!((report.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.batch_histogram(), vec![(1, 1), (2, 1)]);
        assert!((report.mean_batch() - 1.5).abs() < 1e-12);
        assert_within_bound(report.p50_ms(), 4.0);
        assert_eq!(report.max_ms(), 8.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn per_class_rows_split_correctly() {
        let m = serve_metrics(2, 1);
        respond(&m, 1000, false, Priority::High, 0, 1.0, 0);
        respond(&m, 9000, true, Priority::Normal, 1, 0.6, 0);
        respond(&m, 3000, false, Priority::Normal, 1, 0.8, 0);
        m.record_shed(Priority::Normal, Duration::from_millis(50));
        let report = report(&m);
        let high = report.class(Priority::High);
        assert_eq!(
            (
                high.completed(),
                high.deadline_misses(),
                high.sheds(),
                high.degraded()
            ),
            (1, 0, 0, 0)
        );
        assert!((high.mean_keep() - 1.0).abs() < 1e-12);
        let normal = report.class(Priority::Normal);
        assert_eq!(
            (
                normal.completed(),
                normal.deadline_misses(),
                normal.sheds(),
                normal.degraded()
            ),
            (2, 1, 1, 2)
        );
        assert!((normal.mean_keep() - 0.7).abs() < 1e-12);
        assert!((normal.miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(report.sheds(), 1);
        assert_eq!(report.level_served(), vec![1, 2]);
    }

    #[test]
    fn prediction_error_averages_over_batches() {
        let m = serve_metrics(1, 1);
        assert!(report(&m).predicted_error_pct().is_nan());
        let t0 = Instant::now();
        for predicted_ms in [11, 9] {
            let predicted = Duration::from_millis(predicted_ms);
            let measured = Duration::from_millis(10);
            m.record_batch(1, FlushReason::Idle, t0, 0, 0, predicted, measured, true);
        }
        let report = report(&m);
        assert!((report.predicted_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lane_rows_split_served_and_stolen_work() {
        let m = serve_metrics(1, 2);
        let t0 = Instant::now();
        // Lane 0 forms and executes a full batch of 3...
        batch(
            &m,
            3,
            FlushReason::MaxBatch,
            t0 + Duration::from_millis(1),
            0,
        );
        for _ in 0..3 {
            respond(&m, 1000, false, Priority::Normal, 0, 1.0, 0);
        }
        // ...and lane 1 steals and executes a batch of 2 off lane 0's queue.
        batch(&m, 2, FlushReason::Steal, t0 + Duration::from_millis(2), 1);
        for _ in 0..2 {
            respond(&m, 1000, false, Priority::Normal, 0, 1.0, 1);
        }
        let report = report(&m);
        assert_eq!(report.lanes(), 2);
        assert_eq!(report.lane_served(), vec![3, 2]);
        assert_eq!(report.lane_steals(), vec![0, 2]);
        assert_eq!(report.stolen(), 2);
        assert_eq!(report.flushes().steal, 1);
        // Every stolen request still lands in the per-level row.
        assert_eq!(report.level_served(), vec![5]);
    }
}
