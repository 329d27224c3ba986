//! Paper-scale DeiT-T benchmark of the HeatViT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deit-t-dense --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ledger. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; any failed correctness
//! check exits non-zero. See `perfbench/README.md` for the workloads.

mod models;
mod quantledger;
mod replay;
mod serve;
mod stats;

use heatvit::{Backend, Engine, InferenceModel};
use heatvit_fpga::FpgaCycleModel;
use heatvit_selector::PrunedViT;
use heatvit_tensor::Tensor;
use heatvit_vit::flops::{patch_embed_gemm, BlockLayer};
use heatvit_vit::{ViTConfig, VisionTransformer};
use replay::{Layer, Replay};
use stats::{mean_std, median, ms, percentile};
use std::time::{Duration, Instant};

/// Distinct workload images per run (cycled by every phase).
const POOL: usize = 96;
/// Distinct images of the serving workload (every served image is checked
/// against a reference inference per level).
const SERVE_POOL: usize = 32;
/// Images of the fixed top-1 evaluation set.
const EVAL_IMAGES: usize = 32;
/// Offline batch size.
const BATCH: usize = 8;
/// Engine threads offline (the host's core count).
const THREADS: usize = 2;
/// Closed-loop batch-1 clients offline (one per core).
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Images a traced run replays when the token schedule is fixed.
const REPLAY_IMAGES: usize = 24;
/// Fewest batch-1 samples of an end-to-end latency phase (p90 needs 100).
const MIN_LATENCY_SAMPLES: usize = 100;
/// Fewest accepted requests of a serving phase whose p90 is reported.
const MIN_SERVED: usize = 110;
/// Standard errors the heatvit token means may sit from the schedule.
const SCHEDULE_SIGMAS: f64 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Dense,
    Heatvit,
    Int8,
    Serve,
}

impl Workload {
    const ALL: [(Workload, &'static str); 4] = [
        (Workload::Dense, "deit-t-dense"),
        (Workload::Heatvit, "deit-t-heatvit"),
        (Workload::Int8, "deit-t-int8"),
        (Workload::Serve, "deit-t-serve"),
    ];
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(w, _)| *w)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metrics and checks of one run.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records percentile `q` of `samples`, or an error when too few
    /// samples lie beyond it.
    fn put_pct(&mut self, name: &str, what: &str, samples: &[f64], q: f64, unit: &'static str) {
        let value = percentile(samples, q).unwrap_or_else(|| {
            self.errors.push(format!(
                "{what}: p{} needs {} samples, have {}",
                (q * 100.0).round(),
                stats::min_samples(q),
                samples.len()
            ));
            f64::NAN
        });
        self.put(name, value, unit);
    }

    /// Prints the human-readable table and the final JSON line; returns
    /// whether every check passed.
    fn emit(mut self) -> bool {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
            }
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>14.4} {unit}");
        }
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
        let correct = self.errors.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// The models of one workload after set-up.
struct Setup {
    /// What the workload serves or runs offline.
    engine: Option<Engine<Backend>>,
    /// The serving ladder (`deit-t-serve` only).
    server: Option<heatvit_serve::Server<Backend>>,
    /// The float backbone every model derives from (top-1 reference).
    backbone: VisionTransformer,
    /// The pruned float model the traced replay runs (`None`: the dense
    /// backbone).
    replayed: Option<PrunedViT>,
}

fn warm_image(config: &ViTConfig) -> Tensor {
    models::images(config, 1, models::CALIBRATION_SEED ^ 0xFF)
        .pop()
        .expect("one image")
}

/// Builds every model of `workload`, calibrates it, and warms it up.
fn set_up(workload: Workload, config: &ViTConfig) -> Setup {
    let warm = warm_image(config);
    let backbone = models::backbone(config);
    match workload {
        Workload::Serve => {
            let (pruned, _) = models::heatvit(config);
            let levels = vec![
                Backend::from(backbone.clone()),
                Backend::from(models::token_merge(backbone.clone())),
                Backend::from(pruned.clone()),
            ];
            Setup {
                engine: None,
                server: Some(serve::start(levels, &warm)),
                backbone,
                replayed: Some(pruned),
            }
        }
        _ => {
            let (model, replayed) = match workload {
                Workload::Dense => (Backend::from(backbone.clone()), None),
                Workload::Heatvit => {
                    let (pruned, _) = models::heatvit(config);
                    (Backend::from(pruned.clone()), Some(pruned))
                }
                _ => (Backend::from(models::int8(&backbone)), None),
            };
            let engine = Engine::builder(model).threads(THREADS).build();
            engine.infer_batch(&[warm.clone(), warm.clone()]);
            engine.infer_one(&warm);
            Setup {
                engine: Some(engine),
                server: None,
                backbone,
                replayed,
            }
        }
    }
}

/// Seed of the workload images (never the calibration seed).
fn image_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1A6E
}

/// Top-1 predictions of `model` on every pool image.
fn predictions(model: &VisionTransformer, pool: &[Tensor]) -> Vec<usize> {
    Engine::builder(model)
        .threads(THREADS)
        .build()
        .infer_batch(pool)
        .predictions()
}

fn argmax(row: &[f32]) -> usize {
    Tensor::from_vec(row.to_vec(), &[1, row.len()]).argmax_rows()[0]
}

/// Batch-1 latencies from [`CLIENTS`] closed-loop clients (one per core),
/// each sending single images through `Engine::infer_one` and the next one
/// only after the previous answer, for at least `budget` and `min_samples`
/// in total (giving up after four times the budget or a minute, whichever
/// is longer). Client `c` walks pool images `c, c + CLIENTS, …`. Returns
/// the latencies in ms and each pool image's output; an image whose logits
/// change between two passes fails the run.
fn batch1<M: InferenceModel>(
    engine: &Engine<M>,
    pool: &[Tensor],
    budget: Duration,
    min_samples: usize,
    report: &mut Report,
) -> (Vec<f64>, Vec<Option<heatvit::ModelOutput>>) {
    let started = Instant::now();
    let cap = (4 * budget).max(Duration::from_secs(60));
    let done = std::sync::atomic::AtomicUsize::new(0);
    let clients: Vec<Vec<(usize, f64, heatvit::ModelOutput)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let done = &done;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut i = c;
                    while (started.elapsed() < budget
                        || done.load(std::sync::atomic::Ordering::Relaxed) < min_samples)
                        && started.elapsed() < cap
                    {
                        let image = i % pool.len();
                        let t = Instant::now();
                        let out = engine.infer_one(&pool[image]);
                        samples.push((image, ms(t.elapsed()), out));
                        done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        i += CLIENTS;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut latencies = Vec::new();
    let mut outputs: Vec<Option<heatvit::ModelOutput>> = vec![None; pool.len()];
    for (image, latency, out) in clients.into_iter().flatten() {
        latencies.push(latency);
        report.attempted += 1;
        report.failed += u64::from(out.logits.has_non_finite());
        match &outputs[image] {
            Some(first) => {
                let same = first.logits.data() == out.logits.data();
                report.failed += u64::from(!same);
                report.check(same, || format!("image {image} changed between runs"));
            }
            None => outputs[image] = Some(out),
        }
    }
    (latencies, outputs)
}

/// Closed-loop batches of [`BATCH`] for at least `budget` (and two
/// batches): the per-batch rates in img/s. Every batched row is checked
/// bitwise against the batch-1 output of the same image.
fn batched<M: InferenceModel>(
    engine: &Engine<M>,
    pool: &[Tensor],
    budget: Duration,
    single: &[Option<heatvit::ModelOutput>],
    report: &mut Report,
) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut checked = 0;
    let started = Instant::now();
    let mut next = 0;
    while rates.len() < 2 || started.elapsed() < budget {
        let idx: Vec<usize> = (next..next + BATCH).map(|i| i % pool.len()).collect();
        next += BATCH;
        let out = engine.infer_batch_iter(idx.iter().map(|&i| &pool[i]));
        rates.push(BATCH as f64 / out.elapsed.as_secs_f64());
        report.attempted += BATCH as u64;
        for (row, &i) in idx.iter().enumerate() {
            if let Some(single) = &single[i] {
                checked += 1;
                let same = single.logits.data() == out.logits.row(row);
                report.failed += u64::from(!same);
                report.check(same, || {
                    format!("batched logits of image {i} differ from infer_one")
                });
            }
        }
    }
    report.check(checked >= BATCH, || {
        format!("only {checked} batched rows were checked against infer_one")
    });
    rates
}

fn run_offline(args: &Args, setup: &Setup, pool: &[Tensor], report: &mut Report) {
    let engine = setup.engine.as_ref().expect("offline engine");
    let total = Duration::from_secs_f64(args.seconds);
    let (latencies, outputs) = batch1(
        engine,
        pool,
        total.mul_f64(0.75),
        MIN_LATENCY_SAMPLES.max(pool.len()),
        report,
    );
    let rates = batched(engine, pool, total.mul_f64(0.25), &outputs, report);
    report.put("img_s", median(&rates), "img/s");
    report.put_pct("lat_p50_ms", "lat", &latencies, 0.5, "ms");
    report.put_pct("lat_p90_ms", "lat", &latencies, 0.9, "ms");
    eprintln!(
        "samples: {} batches of {BATCH}, {} batch-1 latencies",
        rates.len(),
        latencies.len()
    );
    // Fidelity on the fixed evaluation set: a count that any change to the
    // arithmetic moves, and that does not depend on the traffic seed.
    let agree = match args.workload {
        Workload::Dense => 1.0,
        _ => {
            let eval = models::images(setup.backbone.config(), EVAL_IMAGES, models::EVAL_SEED);
            let mine = engine.infer_batch(&eval).predictions();
            let reference = predictions(&setup.backbone, &eval);
            let same = mine.iter().zip(&reference).filter(|(a, b)| a == b).count();
            same as f64 / eval.len() as f64
        }
    };
    report.put("top1_agree", agree, "fraction");
}

fn run_serve_e2e(args: &Args, setup: &Setup, pool: &[Tensor], report: &mut Report) {
    let server = setup.server.as_ref().expect("serve ladder");
    let steady_count = ((serve::STEADY_RATE * 0.5 * args.seconds) as usize).max(MIN_SERVED);
    let steady = serve::run(
        server,
        pool,
        &stats::periodic_schedule(serve::STEADY_RATE, 4 * steady_count),
        steady_count,
        MIN_SERVED,
    );
    let over_count = (serve::OVERLOAD_RATE * 0.35 * args.seconds).ceil() as usize;
    let over = serve::run(
        server,
        pool,
        &stats::periodic_schedule(serve::OVERLOAD_RATE, 4 * over_count),
        over_count,
        0,
    );
    // Dense logits of every served image: the level-0 parity reference and
    // the top-1 reference at once.
    let served: Vec<&serve::Served> = steady.responses.iter().chain(&over.responses).collect();
    let images: std::collections::BTreeSet<usize> = served.iter().map(|r| r.image).collect();
    let indices: Vec<usize> = images.into_iter().collect();
    let dense = serve::reference_logits(server.level_model(0), pool, &indices);
    check_phase(server, pool, &[&steady, &over], Some(&dense), report);
    report.put("img_s", over.goodput(), "img/s");
    report.put_pct("lat_p50_ms", "steady", &steady.latency_ms, 0.5, "ms");
    report.put_pct("lat_p90_ms", "steady", &steady.latency_ms, 0.9, "ms");
    let agree = served
        .iter()
        .filter(|r| argmax(r.logits.data()) == argmax(&dense[&r.image]))
        .count();
    report.put(
        "top1_agree",
        agree as f64 / served.len().max(1) as f64,
        "fraction",
    );
    eprintln!(
        "steady: sent {} completed {} shed {} missed {} levels {:?}; overload: sent {} \
         completed {} shed {} missed {} levels {:?}",
        steady.sent,
        steady.completed,
        steady.shed,
        steady.missed,
        steady.per_level,
        over.sent,
        over.completed,
        over.shed,
        over.missed,
        over.per_level
    );
}

/// Conservation, finiteness and bitwise parity of served phases.
fn check_phase(
    server: &heatvit_serve::Server<Backend>,
    pool: &[Tensor],
    phases: &[&serve::Phase],
    level0: Option<&std::collections::BTreeMap<usize, Vec<f32>>>,
    report: &mut Report,
) {
    for p in phases {
        report.attempted += p.sent as u64;
        report.failed += p.non_finite as u64;
        report.check(p.sent == p.completed + p.shed + p.refused, || {
            format!(
                "sent {} != completed {} + shed {} + refused {}",
                p.sent, p.completed, p.shed, p.refused
            )
        });
    }
    let mismatches = serve::check_parity(server, pool, phases, level0);
    report.failed += mismatches as u64;
    report.check(mismatches == 0, || {
        format!("{mismatches} served responses differ from Engine::infer_batch")
    });
}

/// Per-image accumulators of the traced replay.
#[derive(Default)]
struct Ledger {
    ns: [f64; Layer::ALL.len()],
    macs: [f64; Layer::ALL.len()],
    cycles: [f64; Layer::ALL.len()],
    total_cycles: f64,
    forward_ns: f64,
    wall_ms: Vec<f64>,
    images: usize,
}

/// MACs and FPGA cycles of one image's GEMM layers at its token counts.
fn account(ledger: &mut Ledger, config: &ViTConfig, tokens_per_block: &[usize]) {
    let fpga = FpgaCycleModel::default();
    let float = heatvit_fpga::Precision::Float;
    let slot = |l: Layer| Layer::ALL.iter().position(|&x| x == l).expect("layer");
    let patch = patch_embed_gemm(config);
    ledger.macs[slot(Layer::PatchEmbed)] += patch.macs() as f64;
    ledger.cycles[slot(Layer::PatchEmbed)] += fpga.gemm_cycles(patch, float).total() as f64;
    let rows = [
        Layer::Qkv,
        Layer::Qk,
        Layer::Av,
        Layer::Proj,
        Layer::Fc1,
        Layer::Fc2,
    ];
    for &n in tokens_per_block {
        for (layer, gemm) in rows.iter().zip(BlockLayer::ALL) {
            let shape = gemm.gemm_shape(config, n);
            ledger.macs[slot(*layer)] += shape.macs() as f64;
            ledger.cycles[slot(*layer)] += fpga.gemm_cycles(shape, float).total() as f64;
        }
    }
    let profile = heatvit::CostProfile {
        variant: "ledger".into(),
        config: config.clone(),
        exact: true,
        quantized: false,
        macs: 0,
        tokens_per_block: tokens_per_block.to_vec(),
    };
    ledger.total_cycles += fpga.model_cycles(&profile) as f64;
}

fn run_traced(args: &Args, setup: &Setup, pool: &[Tensor], report: &mut Report) {
    let config = setup.backbone.config().clone();
    let total = Duration::from_secs_f64(args.seconds);
    // Workloads without selectors time the calibrated selectors beside
    // their forward pass.
    let shadow = setup.replayed.is_none().then(|| models::heatvit(&config).0);
    let (replayed_backend, workload_backend) = match (&setup.replayed, &setup.engine) {
        (Some(p), None) => (Backend::from(p.clone()), Backend::from(p.clone())),
        (Some(p), Some(e)) => (Backend::from(p.clone()), e.model().clone()),
        (None, Some(e)) => (Backend::from(setup.backbone.clone()), e.model().clone()),
        (None, None) => unreachable!("serve replays its pruned level"),
    };
    let r_engine = Engine::builder(&replayed_backend).threads(THREADS).build();
    let w_engine = Engine::builder(&workload_backend).threads(THREADS).build();
    let same_model = matches!(
        args.workload,
        Workload::Dense | Workload::Heatvit | Workload::Serve
    );

    // Each replayed image runs untraced through the engine, then traced
    // through the replay: the pool once when the model prunes (its token
    // schedule depends on the image), else REPLAY_IMAGES images; then until
    // the budget is spent.
    let replayed_images = if setup.replayed.is_some() {
        pool.len()
    } else {
        REPLAY_IMAGES.min(pool.len())
    };
    let mut replay = Replay::traced();
    let mut ledger = Ledger::default();
    let mut untraced = Vec::new();
    let mut shadow_ns = [0.0f64; Layer::ALL.len()];
    let mut tokens: Vec<Vec<usize>> = Vec::new();
    let mut reference: Vec<Option<heatvit::ModelOutput>> = vec![None; pool.len()];
    let capture: &[usize] = if shadow.is_some() {
        &models::SELECTOR_BLOCKS
    } else {
        &[]
    };
    let started = Instant::now();
    let mut i = 0;
    while i < replayed_images || started.elapsed() < total.mul_f64(0.25) {
        let image = &pool[i % pool.len()];
        let t = Instant::now();
        let want = r_engine.infer_one(image);
        untraced.push(ms(t.elapsed()));
        replay.take_spans();
        let t = Instant::now();
        let out = match &setup.replayed {
            None => replay.infer(&setup.backbone, &[], true, image, capture),
            Some(p) => replay.infer_pruned(p, image),
        };
        let wall = ms(t.elapsed());
        let spans = replay.take_spans();
        let same = out.logits.data() == want.logits.data()
            && out.tokens_per_block == want.tokens_per_block;
        report.failed += u64::from(!same);
        report.check(same, || {
            format!(
                "traced replay of image {} differs from the engine",
                i % pool.len()
            )
        });
        if i < replayed_images {
            tokens.push(out.tokens_per_block.clone());
        }
        reference[i % pool.len()] = Some(want);
        for (slot, ns) in ledger.ns.iter_mut().zip(spans.ns) {
            *slot += ns as f64;
        }
        ledger.forward_ns += spans.ns.iter().sum::<u64>() as f64;
        ledger.wall_ms.push(wall);
        ledger.images += 1;
        account(&mut ledger, &config, &out.tokens_per_block);
        if let Some(shadow) = &shadow {
            for (selector, tokens) in shadow.selectors().iter().flatten().zip(&out.captured) {
                replay.select(selector, tokens, true);
            }
            let s = replay.take_spans();
            for (slot, ns) in shadow_ns.iter_mut().zip(s.ns) {
                *slot += ns as f64;
            }
        }
        i += 1;
    }
    report.attempted += 2 * ledger.images as u64;
    let untraced_p50 = median(&untraced);
    let (workload_p50, workload_single) = if same_model {
        (untraced_p50, reference)
    } else {
        let n = REPLAY_IMAGES.min(pool.len());
        let (lat, mut single) = batch1(&w_engine, &pool[..n], Duration::ZERO, n, report);
        single.resize(pool.len(), None);
        (median(&lat), single)
    };

    let per_image = |ns: f64| ns / ledger.images as f64 / 1e3;
    let forward_us = per_image(ledger.forward_ns);
    let mut covered_us = 0.0;
    for (k, layer) in Layer::ALL.iter().enumerate() {
        let mut us = per_image(ledger.ns[k]);
        if layer.is_selector() && shadow.is_some() {
            us = per_image(shadow_ns[k]);
        } else {
            covered_us += us;
        }
        report.put(format!("{}.us", layer.name()), us, "us");
        report.put(
            format!("{}.share", layer.name()),
            us / forward_us,
            "fraction",
        );
        if ledger.macs[k] > 0.0 {
            let gmac_s = ledger.macs[k] / (ledger.ns[k].max(1.0));
            report.put(format!("{}.gmac_s", layer.name()), gmac_s, "GMAC/s");
            report.put(
                format!("{}.fpga_share", layer.name()),
                ledger.cycles[k] / ledger.total_cycles,
                "fraction",
            );
        }
    }
    report.put("vit.coverage", covered_us / 1e3 / untraced_p50, "fraction");
    report.put(
        "trace.overhead_pct",
        100.0 * (median(&ledger.wall_ms) - untraced_p50) / untraced_p50,
        "%",
    );

    // Weight packing, timed on its own: every block repacks all six weights
    // once per image whatever its token count (this time is contained in
    // the qkv/proj/fc1/fc2 spans).
    report.put(
        "tensor.pack.us",
        pack_us(&setup.backbone, total.mul_f64(0.03)),
        "us",
    );

    // Token schedule over the pool (each image exactly once).
    let stage_means: Vec<f64> = models::SELECTOR_BLOCKS
        .iter()
        .map(|&b| mean_std(&tokens.iter().map(|t| t[b] as f64).collect::<Vec<_>>()).0)
        .collect();
    let stage_std: Vec<f64> = models::SELECTOR_BLOCKS
        .iter()
        .map(|&b| mean_std(&tokens.iter().map(|t| t[b] as f64).collect::<Vec<_>>()).1)
        .collect();
    for (&b, &m) in models::SELECTOR_BLOCKS.iter().zip(&stage_means) {
        report.put(format!("selector.tokens.b{b}"), m, "tokens");
    }
    report.put("selector.tokens_std", mean_std(&stage_std).0, "tokens");
    if args.workload == Workload::Heatvit {
        // Per-image counts spread widely, so the pool mean and the
        // calibration mean each carry sampling error: allow four standard
        // errors of their difference.
        let targets = models::target_tokens(&config);
        for ((&m, &sd), &target) in stage_means.iter().zip(&stage_std).zip(&targets) {
            let se = sd
                * (1.0 / tokens.len() as f64 + 1.0 / models::SELECTOR_CALIBRATION_IMAGES as f64)
                    .sqrt();
            report.check((m - target).abs() <= SCHEDULE_SIGMAS * se, || {
                format!(
                    "mean tokens {m:.1} outside the calibrated schedule ({target} ± {:.1})",
                    SCHEDULE_SIGMAS * se
                )
            });
        }
    }

    // Int8 ledger at the block shapes.
    let q = quantledger::measure(&setup.backbone, config.num_tokens(), total.mul_f64(0.05));
    let mut quant_total = 0.0;
    for (row, name) in quantledger::ROWS.iter().enumerate() {
        quant_total += q.us[row];
        report.put(format!("quant.{name}.us"), q.us[row], "us");
        if q.macs[row] > 0 {
            report.put(
                format!("quant.{name}.gmac_s"),
                q.macs[row] as f64 / (q.us[row] * 1e3),
                "GMAC/s",
            );
        }
    }
    report.put(
        "quant.coverage",
        quant_total / 1e3 / workload_p50,
        "fraction",
    );

    // Parallel efficiency of the workload model.
    let w_rate = batched(
        &w_engine,
        pool,
        total.mul_f64(0.1),
        &workload_single,
        report,
    );
    report.put(
        "engine.par_eff",
        median(&w_rate) / (THREADS as f64 * 1e3 / workload_p50),
        "fraction",
    );
    report.put(
        "fpga.pred_ms",
        ms(heatvit::LatencyModel::predict(
            &FpgaCycleModel::default(),
            &workload_backend.cost_profile(),
        )),
        "ms",
    );
    drop((r_engine, w_engine));

    // Serving probe at the overload rate.
    let probe_server;
    let server = match &setup.server {
        Some(s) => s,
        None => {
            probe_server = serve::start(vec![workload_backend.clone()], &warm_image(&config));
            &probe_server
        }
    };
    let probe = serve::run(
        server,
        pool,
        &stats::poisson_schedule(args.seed ^ 0x960B, serve::OVERLOAD_RATE, 8 * MIN_SERVED),
        MIN_SERVED,
        MIN_SERVED,
    );
    check_phase(server, pool, &[&probe], None, report);
    report.put_pct("serve.queue_ms.p50", "queue", &probe.queue_ms, 0.5, "ms");
    report.put_pct("serve.queue_ms.p90", "queue", &probe.queue_ms, 0.9, "ms");
    report.put_pct(
        "serve.service_ms.p50",
        "service",
        &probe.service_ms,
        0.5,
        "ms",
    );
    report.put_pct(
        "serve.latency_ms.p90",
        "latency",
        &probe.latency_ms,
        0.9,
        "ms",
    );
    report.put("serve.batch_mean", mean_std(&probe.batch).0, "requests");
    report.put_pct("serve.submit_us.p50", "submit", &probe.submit_us, 0.5, "us");
    report.put_pct("serve.submit_us.p90", "submit", &probe.submit_us, 0.9, "us");
    for level in 0..3 {
        let served = probe.per_level.get(level).copied().unwrap_or(0);
        report.put(
            format!("serve.level_share.{level}"),
            100.0 * served as f64 / probe.completed.max(1) as f64,
            "%",
        );
    }
    report.put(
        "serve.shed_pct",
        100.0 * probe.shed as f64 / probe.sent as f64,
        "%",
    );
    report.put("serve.fail_pct", probe.fail_pct(), "%");
    report.put(
        "serve.steal_pct",
        100.0 * probe.stolen as f64 / probe.completed.max(1) as f64,
        "%",
    );
    report.put("serve.goodput_img_s", probe.goodput(), "img/s");
    report.put_pct("serve.gen_lag_ms.p90", "lag", &probe.gen_lag_ms, 0.9, "ms");
    report.put("latency.pred_err_pct", median(&probe.pred_err_pct), "%");
}

/// Per-image time of packing every block weight once per block (`pack_b`),
/// median over repetitions for at least `budget`.
fn pack_us(backbone: &VisionTransformer, budget: Duration) -> f64 {
    let mut pack = Vec::new();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        for block in backbone.blocks() {
            let attn = block.attention();
            for linear in [
                attn.wq(),
                attn.wk(),
                attn.wv(),
                attn.proj(),
                block.ffn().fc1(),
                block.ffn().fc2(),
            ] {
                let w = linear.weight().value();
                heatvit_tensor::pack_b(w.data(), w.dim(0), w.dim(1), &mut pack);
            }
        }
        std::hint::black_box(&pack);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let config = ViTConfig::deit_tiny();
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup = None;
    for _ in 0..reps {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(args.workload, &config));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let pool_size = if args.workload == Workload::Serve {
        SERVE_POOL
    } else {
        POOL
    };
    let pool = models::images(&config, pool_size, image_seed(args.seed));
    if args.trace {
        run_traced(&args, &setup, &pool, &mut report);
    } else {
        report.put("setup_s", median(&setup_s), "s");
        match args.workload {
            Workload::Serve => run_serve_e2e(&args, &setup, &pool, &mut report),
            _ => run_offline(&args, &setup, &pool, &mut report),
        }
        report.put(
            "peak_rss_mb",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        );
    }
    if let Some(server) = setup.server {
        server.shutdown();
    }
    if !report.emit() {
        std::process::exit(1);
    }
}
