//! Batcher flush-policy coverage: max-batch flush, deadline-proximity
//! flush, idle flush, and the shutdown drain (no request dropped), plus
//! the parity gate — served logits bitwise identical to
//! `Engine::infer_batch` on the same images.
//!
//! Timing-dependent tests use widely separated timescales (milliseconds vs.
//! tens of seconds) so scheduler jitter on a loaded single-core CI machine
//! cannot flip which policy fires.

use heatvit::{Backend, Engine};
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_serve::{FlushReason, InferRequest, Priority, ServeConfig, Server, SubmitError};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const FAR_FUTURE: Duration = Duration::from_secs(600);

fn model(seed: u64) -> Backend {
    let mut rng = StdRng::seed_from_u64(seed);
    Backend::from(VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng))
}

fn pruned_model(seed: u64) -> Backend {
    let mut rng = StdRng::seed_from_u64(seed);
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut pruned = PrunedViT::new(backbone);
    pruned.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    Backend::from(pruned)
}

fn images(seed: u64, count: usize, side: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Tensor::rand_uniform(&[3, side, side], 0.0, 1.0, &mut rng))
        .collect()
}

fn request(image: &Tensor, budget: Duration) -> InferRequest {
    InferRequest {
        image: image.clone(),
        deadline: Instant::now() + budget,
        priority: Priority::Normal,
    }
}

#[test]
fn max_batch_flushes_without_waiting_for_timers() {
    // Timers are far away (10 min deadlines, 30 s idle): the only way these
    // requests resolve promptly is the max-batch policy.
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 16,
        idle_flush: Duration::from_secs(30),
        deadline_slack: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::start(model(1), config);
    let imgs = images(2, 8, 16);
    let tickets: Vec<_> = imgs
        .iter()
        .map(|img| server.submit(request(img, FAR_FUTURE)).expect("open"))
        .collect();
    for ticket in tickets {
        let response = ticket.wait();
        assert_eq!(response.batch_size, 4);
        assert_eq!(response.flush, FlushReason::MaxBatch);
    }
    let report = server.shutdown();
    assert_eq!(report.completed(), 8);
    assert_eq!(report.flushes().max_batch, 2);
    assert_eq!(report.batch_histogram(), vec![(4, 2)]);
}

#[test]
fn deadline_proximity_flushes_a_partial_batch() {
    // One request, deadline 50 ms out, idle timer 60 s out: only the
    // deadline policy can flush before the test's sanity timeout.
    let config = ServeConfig {
        max_batch: 64,
        queue_capacity: 16,
        idle_flush: Duration::from_secs(60),
        deadline_slack: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::start(model(3), config);
    let img = &images(4, 1, 16)[0];
    let submitted = Instant::now();
    let ticket = server
        .submit(request(img, Duration::from_millis(50)))
        .expect("open");
    let response = ticket
        .wait_timeout(Duration::from_secs(20))
        .expect("deadline flush must fire long before the idle timer");
    assert_eq!(response.flush, FlushReason::Deadline);
    assert_eq!(response.batch_size, 1);
    // It flushed near the deadline, not at the 60 s idle horizon.
    assert!(submitted.elapsed() < Duration::from_secs(20));
    let report = server.shutdown();
    assert_eq!(report.flushes().deadline, 1);
    assert_eq!(report.completed(), 1);
}

#[test]
fn idle_flush_serves_trickle_traffic() {
    // Deadlines 10 min out, idle timer 25 ms: only the queue-idle policy
    // can flush this partial batch.
    let config = ServeConfig {
        max_batch: 64,
        queue_capacity: 16,
        idle_flush: Duration::from_millis(25),
        deadline_slack: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::start(model(5), config);
    let imgs = images(6, 3, 16);
    let tickets: Vec<_> = imgs
        .iter()
        .map(|img| server.submit(request(img, FAR_FUTURE)).expect("open"))
        .collect();
    for ticket in tickets {
        let response = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("idle flush must fire");
        assert_eq!(response.flush, FlushReason::Idle);
    }
    let report = server.shutdown();
    assert_eq!(report.completed(), 3);
    assert!(report.flushes().idle >= 1);
    assert_eq!(report.flushes().deadline, 0);
}

#[test]
fn shutdown_drains_every_queued_request() {
    // All timers far away; shutdown must serve all 10 requests anyway:
    // 2 full batches (max-batch) + one 2-request shutdown-drain remainder.
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 16,
        idle_flush: Duration::from_secs(60),
        deadline_slack: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::start(model(7), config);
    let imgs = images(8, 10, 16);
    let tickets: Vec<_> = imgs
        .iter()
        .map(|img| server.submit(request(img, FAR_FUTURE)).expect("open"))
        .collect();
    let report = server.shutdown();
    assert_eq!(report.completed(), 10, "shutdown dropped requests");
    assert!(
        report.flushes().shutdown >= 1,
        "the sub-max_batch remainder can only flush via the shutdown drain: {:?}",
        report.flushes()
    );
    // Every ticket resolves even though shutdown already returned.
    for ticket in tickets {
        let response = ticket.try_take().expect("drained response must be ready");
        assert!(response.batch_size <= 4);
    }
}

#[test]
fn malformed_images_are_refused_at_submission_not_in_the_batcher() {
    // test_tiny expects [3, 16, 16]; a wrong-shaped image must bounce at
    // submit instead of panicking the batcher and stranding other tickets.
    let server = Server::start(model(17), ServeConfig::default());
    let bad = Tensor::zeros(&[3, 8, 8]);
    match server.submit(request(&bad, FAR_FUTURE)) {
        Err(SubmitError::BadImage { request, expected }) => {
            assert_eq!(expected, [3, 16, 16]);
            assert_eq!(request.image.dims(), &[3, 8, 8], "request not returned");
        }
        other => panic!("expected BadImage, got {other:?}"),
    }
    // The server is still fully alive for well-formed traffic.
    let good = &images(18, 1, 16)[0];
    let response = server
        .submit(request(good, FAR_FUTURE))
        .expect("open")
        .wait();
    assert_eq!(response.logits.dims(), &[1, 4]);
    assert_eq!(server.shutdown().completed(), 1);
}

#[test]
fn non_finite_images_are_refused_at_submission() {
    let server = Server::start(model(19), ServeConfig::default());
    let mut nan = images(20, 1, 16).remove(0);
    nan.data_mut()[5] = f32::NAN;
    match server.try_submit(request(&nan, FAR_FUTURE)) {
        Err(SubmitError::NonFiniteImage(returned)) => {
            assert!(returned.image.data()[5].is_nan(), "request not returned");
            assert_eq!(returned.image.data()[..5], nan.data()[..5]);
        }
        other => panic!("expected NonFiniteImage, got {other:?}"),
    }
    assert!(matches!(
        server.submit(request(&nan, FAR_FUTURE)),
        Err(SubmitError::NonFiniteImage(_))
    ));
    assert_eq!(server.shutdown().completed(), 0);
}

#[test]
fn submissions_after_close_are_refused_with_the_request_returned() {
    let server = Server::start(model(9), ServeConfig::default());
    server.close();
    let img = &images(10, 1, 16)[0];
    match server.submit(request(img, FAR_FUTURE)) {
        Err(SubmitError::Closed(returned)) => {
            assert_eq!(returned.image.data(), img.data(), "request not returned");
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.completed(), 0);
}

/// The acceptance gate: served outputs bitwise identical to
/// `Engine::infer_batch` on the same images — across mixed batch shapes
/// and a pruned (input-adaptive) backend.
#[test]
fn served_outputs_are_bitwise_identical_to_engine_infer_batch() {
    let imgs = images(11, 9, 32);
    let reference = Engine::builder(pruned_model(12)).build().infer_batch(&imgs);

    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 16,
        idle_flush: Duration::from_millis(5),
        deadline_slack: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let server = Server::start(pruned_model(12), config);
    let tickets: Vec<_> = imgs
        .iter()
        .map(|img| server.submit(request(img, FAR_FUTURE)).expect("open"))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let report = server.shutdown();
    assert_eq!(report.completed(), 9);

    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            response.logits.data(),
            reference.logits.row(i),
            "served logits diverge from Engine::infer_batch for image {i}"
        );
        assert_eq!(response.tokens_per_block, reference.tokens_per_block[i]);
        assert_eq!(response.macs, reference.macs[i]);
        assert_eq!(response.prediction, reference.predictions()[i]);
    }
}

#[test]
fn mixed_priorities_all_complete() {
    let config = ServeConfig {
        max_batch: 3,
        queue_capacity: 16,
        idle_flush: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::start(model(13), config);
    let imgs = images(14, 6, 16);
    let tickets: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let mut req = request(img, FAR_FUTURE);
            if i % 2 == 0 {
                req.priority = Priority::High;
            }
            server.submit(req).expect("open")
        })
        .collect();
    for ticket in tickets {
        ticket.wait();
    }
    assert_eq!(server.shutdown().completed(), 6);
}

#[test]
fn concurrent_submitters_share_one_server() {
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 8,
        idle_flush: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let server = Server::start(model(15), config);
    let imgs = images(16, 4, 16);
    let reference = Engine::builder(model(15)).build().infer_batch(&imgs);
    std::thread::scope(|scope| {
        for (i, img) in imgs.iter().enumerate() {
            let server = &server;
            let expect = reference.logits.row(i).to_vec();
            scope.spawn(move || {
                let response = server
                    .submit(request(img, FAR_FUTURE))
                    .expect("open")
                    .wait();
                assert_eq!(response.logits.data(), &expect[..], "client {i} diverged");
            });
        }
    });
    assert_eq!(server.shutdown().completed(), 4);
}
