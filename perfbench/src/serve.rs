//! Open-loop serving phases: one generator thread sends seeded Poisson
//! arrivals into a `Server`, every request is timed from its scheduled send.

use crate::stats::ms;
use heatvit::{Backend, Engine, EngineConfig, LatencyModel, MeasuredEwma};
use heatvit_fpga::FpgaCycleModel;
use heatvit_serve::{
    FlushReason, InferRequest, LaneAssignment, LaneCount, Priority, ServeConfig, Server, SloPolicy,
    StealPolicy, SubmitError,
};
use heatvit_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two-lane dense DeiT-T capacity the offered rates are frozen from
/// (batch 8 on two engine threads: 57 ms/img on a 2-core AVX-512 host).
pub const DENSE_CAPACITY: f64 = 17.5;
/// `steady`: half the dense capacity, so every request should stay on the
/// dense level.
pub const STEADY_RATE: f64 = 0.5 * DENSE_CAPACITY;
/// `overload`: twice the dense capacity, so Normal traffic must degrade or
/// be shed.
pub const OVERLOAD_RATE: f64 = 2.0 * DENSE_CAPACITY;
/// Every n-th request is High priority.
pub const HIGH_EVERY: usize = 5;
/// Deadline budget of a Normal request, from its scheduled send.
pub const NORMAL_BUDGET: Duration = Duration::from_millis(1000);
/// Deadline budget of a High request, from its scheduled send.
pub const HIGH_BUDGET: Duration = Duration::from_millis(4000);
/// Serving lanes (one engine thread each).
pub const LANES: usize = 2;
/// Largest batch a lane forms.
pub const MAX_BATCH: usize = 4;

/// Starts a server over `levels` (most accurate first) with SLO admission,
/// predictions from a measured EWMA over the FPGA cycle model, warmed with
/// one single-image execution per level on `warm`.
pub fn start(levels: Vec<Backend>, warm: &Tensor) -> Server<Backend> {
    let ewma = Arc::new(MeasuredEwma::new(FpgaCycleModel::default(), 0.2));
    for level in &levels {
        let profile = heatvit::InferenceModel::cost_profile(level);
        let engine = Engine::builder(level).build();
        let started = Instant::now();
        let out = engine.infer_one(warm);
        ewma.observe(&profile, 1, started.elapsed());
        assert!(
            !out.logits.has_non_finite(),
            "warm-up produced non-finite logits"
        );
    }
    // Level 0 homes on lane 0, every cheaper level on lane 1; an idle lane
    // steals anything queued on the other.
    let homes = (0..levels.len()).map(|l| l.min(LANES - 1)).collect();
    let config = ServeConfig {
        max_batch: MAX_BATCH,
        queue_capacity: 4096,
        idle_flush: Duration::from_millis(1),
        deadline_slack: Duration::from_millis(5),
        default_deadline: NORMAL_BUDGET,
        engine: EngineConfig::with_threads(1),
        slo: SloPolicy {
            enabled: true,
            admission_slack: Duration::from_millis(5),
            shed_normal: true,
        },
        lanes: LaneCount::Fixed(LANES),
        assignment: LaneAssignment::Explicit(homes),
        steal: StealPolicy {
            keep_local: Some(0),
            ..StealPolicy::default()
        },
        ..ServeConfig::default()
    };
    Server::start_tiered(levels, config, ewma as Arc<dyn LatencyModel>)
}

/// One served response, tied to the pool image it answered.
#[derive(Debug)]
pub struct Served {
    /// Index into the image pool.
    pub image: usize,
    /// Serving level.
    pub level: usize,
    /// Logits returned.
    pub logits: Tensor,
}

/// Everything one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests the generator sent.
    pub sent: usize,
    /// Responses received.
    pub completed: usize,
    /// Normal requests refused by admission.
    pub shed: usize,
    /// Requests refused for any other reason (full queue, closed server).
    pub refused: usize,
    /// Completed past their deadline.
    pub missed: usize,
    /// Completed with non-finite logits.
    pub non_finite: usize,
    /// Completed in time with finite logits.
    pub on_time: usize,
    /// Scheduled send → response, ms (completed requests).
    pub latency_ms: Vec<f64>,
    /// Time queued in the server, ms.
    pub queue_ms: Vec<f64>,
    /// Server latency minus queueing, ms.
    pub service_ms: Vec<f64>,
    /// Batch size each response rode in.
    pub batch: Vec<f64>,
    /// Duration of each `try_submit` call, µs (all sent).
    pub submit_us: Vec<f64>,
    /// How late the generator sent each request, ms (all sent).
    pub gen_lag_ms: Vec<f64>,
    /// |predicted − measured| / measured server latency, % (completed).
    pub pred_err_pct: Vec<f64>,
    /// Responses per serving level.
    pub per_level: Vec<usize>,
    /// Responses executed by a stealing lane.
    pub stolen: usize,
    /// First scheduled send to last response.
    pub wall: Duration,
    /// Responses, for the parity and agreement checks.
    pub responses: Vec<Served>,
}

impl Phase {
    /// Completed on time, per second of phase wall time.
    pub fn goodput(&self) -> f64 {
        self.on_time as f64 / self.wall.as_secs_f64()
    }

    /// Shed, refused, late or non-finite, as % of sent.
    pub fn fail_pct(&self) -> f64 {
        100.0 * (self.sent - self.on_time) as f64 / self.sent.max(1) as f64
    }
}

/// Sends requests at the offsets of `schedule` (from the phase start),
/// cycling through `images`, until `count` were sent and `min_accepted`
/// admitted, then waits for every accepted request.
///
/// # Panics
///
/// Panics if the schedule runs out first.
pub fn run(
    server: &Server<Backend>,
    images: &[Tensor],
    schedule: &[Duration],
    count: usize,
    min_accepted: usize,
) -> Phase {
    let mut phase = Phase {
        per_level: vec![0; server.level_count()],
        ..Phase::default()
    };
    let mut tickets = Vec::with_capacity(count);
    let start = Instant::now();
    for (i, &offset) in schedule.iter().enumerate() {
        if i >= count && tickets.len() >= min_accepted {
            break;
        }
        assert!(i + 1 < schedule.len(), "arrival schedule exhausted");
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (priority, budget) = if i % HIGH_EVERY == HIGH_EVERY - 1 {
            (Priority::High, HIGH_BUDGET)
        } else {
            (Priority::Normal, NORMAL_BUDGET)
        };
        let image = i % images.len();
        let request = InferRequest {
            image: images[image].clone(),
            deadline: due + budget,
            priority,
        };
        let sent = Instant::now();
        let result = server.try_submit(request);
        phase.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
        phase
            .gen_lag_ms
            .push(ms(sent.saturating_duration_since(due)));
        phase.sent += 1;
        match result {
            Ok(ticket) => tickets.push((image, due, sent, ticket)),
            Err(SubmitError::Shed { .. }) => phase.shed += 1,
            Err(_) => phase.refused += 1,
        }
    }
    for (image, due, sent, ticket) in tickets {
        let r = ticket.wait();
        let done = sent + r.latency;
        phase.completed += 1;
        phase.missed += usize::from(r.deadline_missed);
        let finite = !r.logits.has_non_finite();
        phase.non_finite += usize::from(!finite);
        phase.on_time += usize::from(finite && !r.deadline_missed);
        phase
            .latency_ms
            .push(ms(done.saturating_duration_since(due)));
        phase.queue_ms.push(ms(r.queued));
        phase
            .service_ms
            .push(ms(r.latency.saturating_sub(r.queued)));
        phase.batch.push(r.batch_size as f64);
        let measured = r.latency.as_secs_f64().max(1e-9);
        phase
            .pred_err_pct
            .push(100.0 * (r.predicted.as_secs_f64() - measured).abs() / measured);
        phase.per_level[r.level] += 1;
        phase.stolen += usize::from(r.flush == FlushReason::Steal);
        phase.wall = phase.wall.max(done.saturating_duration_since(start));
        phase.responses.push(Served {
            image,
            level: r.level,
            logits: r.logits,
        });
    }
    phase
}

/// Logits of `model` on the pool images at `indices` (ascending, distinct),
/// keyed by pool index, through `Engine::infer_batch` on two threads.
pub fn reference_logits(
    model: &Backend,
    images: &[Tensor],
    indices: &[usize],
) -> BTreeMap<usize, Vec<f32>> {
    let batch: Vec<&Tensor> = indices.iter().map(|&i| &images[i]).collect();
    let logits = Engine::builder(model)
        .threads(2)
        .build()
        .infer_batch_iter(batch.into_iter())
        .logits;
    indices
        .iter()
        .enumerate()
        .map(|(row, &i)| (i, logits.row(row).to_vec()))
        .collect()
}

/// Checks every served response against `Engine::infer_batch` on its
/// serving level (over the images that level served), bitwise. `level0`,
/// when given, holds level-0 logits of every image served there. Returns
/// the number of mismatching responses.
pub fn check_parity(
    server: &Server<Backend>,
    images: &[Tensor],
    phases: &[&Phase],
    level0: Option<&BTreeMap<usize, Vec<f32>>>,
) -> usize {
    let mut mismatches = 0;
    for level in 0..server.level_count() {
        let served: BTreeSet<usize> = phases
            .iter()
            .flat_map(|p| &p.responses)
            .filter(|r| r.level == level)
            .map(|r| r.image)
            .collect();
        let computed;
        let reference = match level0 {
            Some(known) if level == 0 => known,
            _ => {
                let indices: Vec<usize> = served.into_iter().collect();
                computed = reference_logits(server.level_model(level), images, &indices);
                &computed
            }
        };
        mismatches += phases
            .iter()
            .flat_map(|p| &p.responses)
            .filter(|r| r.level == level && r.logits.data() != reference[&r.image].as_slice())
            .count();
    }
    mismatches
}
