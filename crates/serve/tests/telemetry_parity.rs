//! The telemetry contract, asserted end to end: a [`ServeReport`]
//! materialized from a registry snapshot agrees with an independent fold
//! of the server's own span trace — bitwise on every count, sum, mean and
//! maximum, and within the documented histogram bound on p50/p95
//! (wall-clock-derived fields excluded) — plus the pin test on the
//! `MAX_AUTO_THREADS` / `MAX_AUTO_LANES` auto-sizing caps.

use heatvit::telemetry::{nearest_rank_us, TraceEvent, HISTOGRAM_PRECISION_BITS};
use heatvit::{CostProfile, LatencyModel};
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_serve::metrics::names;
use heatvit_serve::{
    FlushCounts, FlushReason, InferRequest, Priority, ServeConfig, Server, SloPolicy, SubmitError,
};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A latency model with a fixed prediction per variant name, so admission
/// decisions (degrade to level 1, shed impossible Normals) are exactly
/// reproducible.
#[derive(Debug)]
struct FixedLatency {
    per_variant: HashMap<&'static str, Duration>,
}

impl LatencyModel for FixedLatency {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn predict(&self, profile: &CostProfile) -> Duration {
        *self
            .per_variant
            .get(profile.variant.as_str())
            .expect("prediction for every served variant")
    }
}

/// Two-level ladder (dense above adaptive-pruned keep-0.6) on ONE lane —
/// single-lane execution makes every accumulation order deterministic, so
/// the folded f64 sums must match bitwise, not just approximately.
fn tiered_server() -> Server {
    let mut rng = StdRng::seed_from_u64(7);
    let dense = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut pruned = PrunedViT::new(backbone);
    pruned.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    pruned.set_nominal_keep(1, 0.6);
    let latency = Arc::new(FixedLatency {
        per_variant: [
            ("dense", Duration::from_millis(40)),
            ("adaptive-pruned", Duration::from_micros(1)),
        ]
        .into_iter()
        .collect(),
    });
    let config = ServeConfig {
        slo: SloPolicy {
            enabled: true,
            admission_slack: Duration::from_millis(1),
            shed_normal: true,
        },
        ..ServeConfig::default()
    };
    Server::start_tiered(vec![dense.into(), pruned.into()], config, latency)
}

fn image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng)
}

/// What the report should say, folded straight from the span trace.
#[derive(Debug, Default)]
struct Expected {
    flushes: FlushCounts,
    batch_sizes: BTreeMap<usize, u64>,
    error_sum: f64,
    error_batches: u64,
    /// Latencies (µs) of every request, then per class (`Priority::index`).
    latency_us: Vec<u64>,
    class_latency_us: [Vec<u64>; 2],
    misses: u64,
    class_misses: [u64; 2],
    class_sheds: [u64; 2],
    class_degraded: [u64; 2],
    class_keep_sum: [f64; 2],
    level_served: Vec<u64>,
    lane_served: Vec<u64>,
    lane_steals: Vec<u64>,
}

/// Folds the recorded trace in event order. Each float is accumulated in
/// the order the server recorded it, so the single-lane sums match the
/// live float counters bitwise.
fn fold(events: &[TraceEvent], levels: usize, lanes: usize) -> Expected {
    let mut e = Expected {
        level_served: vec![0; levels],
        lane_served: vec![0; lanes],
        lane_steals: vec![0; lanes],
        ..Expected::default()
    };
    for event in events {
        match event {
            TraceEvent::Batch(b) => {
                let counts = &mut e.flushes;
                match FlushReason::from_label(b.reason).expect("known flush reason") {
                    FlushReason::MaxBatch => counts.max_batch += 1,
                    FlushReason::Deadline => counts.deadline += 1,
                    FlushReason::Idle => counts.idle += 1,
                    FlushReason::Shutdown => counts.shutdown += 1,
                    FlushReason::Steal => {
                        counts.steal += 1;
                        e.lane_steals[b.lane] += b.size as u64;
                    }
                }
                *e.batch_sizes.entry(b.size).or_default() += 1;
                if b.scored && b.measured_us > 0 {
                    let predicted = Duration::from_micros(b.predicted_us).as_secs_f64();
                    let measured = Duration::from_micros(b.measured_us).as_secs_f64();
                    e.error_sum += (predicted - measured).abs() / measured;
                    e.error_batches += 1;
                }
            }
            TraceEvent::Request(r) => {
                e.latency_us.push(r.total_us);
                e.class_latency_us[r.class].push(r.total_us);
                e.misses += u64::from(r.missed);
                e.class_misses[r.class] += u64::from(r.missed);
                e.class_degraded[r.class] += u64::from(r.level > 0);
                e.class_keep_sum[r.class] += r.keep;
                e.level_served[r.level] += 1;
                e.lane_served[r.lane] += 1;
            }
            TraceEvent::Shed(s) => e.class_sheds[s.class] += 1,
        }
    }
    e
}

/// Bitwise f64 comparison that treats NaN == NaN (the no-scored-batches
/// sentinel of `predicted_error_pct`).
#[track_caller]
fn assert_f64_bits(actual: f64, expected: f64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        expected.to_bits(),
        "{what}: snapshot {actual} vs trace fold {expected}"
    );
}

/// The report's nearest-rank `q` quantile (ms) sits within the documented
/// histogram bound of the exact one over `latency_us`:
/// `exact <= reported <= exact * (1 + 2^-HISTOGRAM_PRECISION_BITS)`.
#[track_caller]
fn assert_quantile_within_bound(reported_ms: f64, latency_us: &[u64], q: f64, what: &str) {
    let mut sorted = latency_us.to_vec();
    sorted.sort_unstable();
    let exact = nearest_rank_us(&sorted, q);
    let reported = (reported_ms * 1e3).round() as u64;
    assert!(
        exact <= reported && reported - exact <= exact >> HISTOGRAM_PRECISION_BITS,
        "{what}: snapshot {reported} µs outside the bound of exact {exact} µs"
    );
}

fn max_ms(latency_us: &[u64]) -> f64 {
    latency_us.iter().copied().max().unwrap_or(0) as f64 / 1e3
}

#[test]
fn snapshot_report_matches_the_trace_fold() {
    let server = tiered_server();
    let mut sheds = 0u64;
    for i in 0..24u64 {
        let (priority, budget) = match i % 6 {
            // High with a generous budget: pinned to level 0, on time.
            0 => (Priority::High, Duration::from_secs(5)),
            // High with an already-expired deadline: served, missed.
            3 => (Priority::High, Duration::ZERO),
            // Normal with an impossible budget: every level predicts a
            // miss, so predictive admission sheds it at the door.
            5 => (Priority::Normal, Duration::ZERO),
            // Normal inside level 1's prediction but not level 0's:
            // degrades down the ladder deterministically.
            _ => (Priority::Normal, Duration::from_millis(10)),
        };
        let request = InferRequest {
            image: image(i),
            deadline: Instant::now() + budget,
            priority,
        };
        // Submit-and-wait: the inflight refund lands before the ticket is
        // resolved, so admission for the next request always sees an empty
        // lane — the degrade/shed decisions depend only on the fixed model.
        match server.submit(request) {
            Ok(ticket) => {
                ticket.wait();
            }
            Err(SubmitError::Shed { .. }) => sheds += 1,
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(sheds, 4, "every 6th submission is an impossible Normal");

    let levels = server.level_count();
    let lanes = server.lane_count();
    let recorder = Arc::clone(server.recorder());
    let registry = Arc::clone(server.telemetry());
    let live = server.shutdown();
    assert_eq!(recorder.dropped(), 0, "trace ring must not evict this run");
    let expected = fold(&recorder.events(), levels, lanes);
    let snapshot = registry.snapshot();

    // Everything except the two wall-clock-derived fields (throughput's
    // serving window and the lanes' queue HWMs live outside the trace).
    let batches = expected.flushes.total();
    let in_batches: u64 = expected
        .batch_sizes
        .iter()
        .map(|(s, n)| *s as u64 * n)
        .sum();
    let histogram: Vec<(usize, u64)> = expected.batch_sizes.into_iter().collect();
    assert_eq!(live.completed(), expected.latency_us.len() as u64);
    assert_eq!(live.batches(), batches);
    assert_eq!(live.deadline_misses(), expected.misses);
    assert_eq!(live.flushes(), expected.flushes);
    assert_eq!(live.batch_histogram(), histogram);
    assert_f64_bits(
        live.mean_batch(),
        in_batches as f64 / batches as f64,
        "mean_batch",
    );
    assert_quantile_within_bound(live.p50_ms(), &expected.latency_us, 0.50, "p50_ms");
    assert_quantile_within_bound(live.p95_ms(), &expected.latency_us, 0.95, "p95_ms");
    assert_f64_bits(live.max_ms(), max_ms(&expected.latency_us), "max_ms");
    assert_eq!(live.level_served(), expected.level_served);
    assert_eq!(live.lane_served(), expected.lane_served);
    assert_eq!(live.lane_steals(), expected.lane_steals);
    assert_f64_bits(
        live.predicted_error_pct(),
        100.0 * expected.error_sum / expected.error_batches as f64,
        "predicted_error_pct",
    );
    let hist = snapshot.histogram(names::LATENCY, &[]).unwrap();
    assert_eq!(hist.count, expected.latency_us.len() as u64);
    assert_eq!(hist.sum_us, expected.latency_us.iter().sum::<u64>());
    for class in [Priority::High, Priority::Normal] {
        let l = live.class(class);
        let i = class.index();
        let latency_us = &expected.class_latency_us[i];
        let label = class.label();
        assert_eq!(l.class(), class);
        assert_eq!(l.completed(), latency_us.len() as u64, "completed[{label}]");
        assert_eq!(
            l.deadline_misses(),
            expected.class_misses[i],
            "deadline_misses[{label}]"
        );
        assert_eq!(l.sheds(), expected.class_sheds[i], "sheds[{label}]");
        assert_eq!(
            l.degraded(),
            expected.class_degraded[i],
            "degraded[{label}]"
        );
        assert_quantile_within_bound(l.p50_ms(), latency_us, 0.50, "class p50_ms");
        assert_quantile_within_bound(l.p95_ms(), latency_us, 0.95, "class p95_ms");
        assert_f64_bits(l.max_ms(), max_ms(latency_us), "class max_ms");
        assert_f64_bits(
            l.mean_keep(),
            expected.class_keep_sum[i] / latency_us.len() as f64,
            "class mean_keep",
        );
        let hist = snapshot
            .histogram(names::CLASS_LATENCY, &[("class", label)])
            .unwrap();
        assert_eq!(hist.count, latency_us.len() as u64, "count[{label}]");
        assert_eq!(hist.sum_us, latency_us.iter().sum::<u64>(), "sum[{label}]");
    }

    // The run exercised the interesting paths, so the parity above was not
    // vacuous: misses, sheds, degradations, and scored batches all landed.
    assert_eq!(live.completed(), 20);
    assert!(live.deadline_misses() >= 4);
    assert_eq!(live.class(Priority::Normal).sheds(), 4);
    assert_eq!(live.class(Priority::Normal).degraded(), 12);
    assert!(live.batches() >= 2);
    assert!(expected.error_batches > 0, "no scored batch landed");
}

/// Pins the two auto-sizing caps and their deliberate asymmetry: engine
/// workers are cheap one-batch scoped threads (cap 64), lanes are
/// long-lived OS threads with queues, condvars, and a standing steal-scan
/// cost (cap 8). `MAX_AUTO_LANES`'s docs explain the difference; this test
/// keeps the documented values honest.
#[test]
fn auto_sizing_caps_are_pinned() {
    assert_eq!(heatvit::MAX_AUTO_THREADS, 64);
    assert_eq!(heatvit_serve::MAX_AUTO_LANES, 8);
    // Lanes have a standing per-thread cost workers do not; the lane cap
    // must stay strictly lower than the worker cap.
    const _: () = assert!(heatvit_serve::MAX_AUTO_LANES < heatvit::MAX_AUTO_THREADS);
}
