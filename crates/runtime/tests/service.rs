//! Integration tests for the submission surface: every `MultiEngine`
//! submission path (blocking, non-blocking and burst) must deliver the
//! same bits for every kind of tenant, and [`Pending`] must deliver
//! results through each way of claiming them — blocking `wait()`,
//! bounded `wait_timeout()` and the pushed `on_complete` callback.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_models::lower::NetworkWeights;
use epim_models::network::Network;
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{
    InferRequest, Inference, MultiEngine, MultiEngineBuilder, Pending, PlanCache, RuntimeError,
    TenantConfig, TenantId,
};
use epim_tensor::{init, rng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn analog() -> AnalogModel {
    AnalogModel {
        adc_bits: Some(8),
        dac_bits: Some(9),
        ..AnalogModel::ideal()
    }
}

/// One 8×4×3×3 epitome layer over 8×8 inputs, as a network.
fn layer_network() -> (Network, NetworkWeights) {
    let spec = EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2)).unwrap();
    let mut r = rng::seeded(5);
    let epi = Epitome::from_tensor(spec, init::uniform(&[4, 4, 2, 2], -1.0, 1.0, &mut r)).unwrap();
    zoo::epitome_layer_network(&epi, (8, 8))
}

fn register(
    builder: &mut MultiEngineBuilder,
    name: &str,
    (net, weights): &(Network, NetworkWeights),
    hw: usize,
    config: TenantConfig,
) -> TenantId {
    builder
        .register(name, net, weights, (hw, hw), true, analog(), config)
        .unwrap()
}

/// The one-layer network served as the only tenant of a fresh fleet.
fn layer_fleet(config: TenantConfig) -> (MultiEngine, TenantId) {
    let mut builder = MultiEngine::builder(&PlanCache::new());
    let id = register(&mut builder, "layer", &layer_network(), 8, config);
    (builder.build().unwrap(), id)
}

/// Sequential per-request reference outputs of `net`'s unoptimized
/// program.
fn reference(
    (net, weights): &(Network, NetworkWeights),
    hw: usize,
    inputs: &[Tensor],
) -> Vec<Tensor> {
    let prog = net.lower(hw, hw).unwrap();
    inputs
        .iter()
        .map(|x| {
            prog.forward_reference(weights, true, analog(), x)
                .unwrap()
                .0
        })
        .collect()
}

/// Every submission path — blocking `infer`, `try_infer` claimed by
/// `wait` or by `on_complete`, and the burst `infer_many` — serves
/// bit-identical outputs to the reference, for a one-layer tenant and a
/// whole-network tenant sharing one fleet.
#[test]
fn submission_paths_agree_bitwise_with_reference() {
    let layer = layer_network();
    let (net, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
    let weights = NetworkWeights::random(&net, 11).unwrap();
    let network = (net, weights);

    let mut builder = MultiEngine::builder(&PlanCache::new()).workers(2);
    let layer_id = register(&mut builder, "layer", &layer, 8, TenantConfig::default());
    let net_id = register(&mut builder, "net", &network, 16, TenantConfig::default());
    let engine = builder.build().unwrap();

    let mut r = rng::seeded(6);
    for (name, id, model, hw) in [
        ("layer", layer_id, &layer, 8),
        ("net", net_id, &network, 16),
    ] {
        let c = model.0.backbone().layers[0].conv.cin;
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| init::uniform(&[1, c, hw, hw], -1.0, 1.0, &mut r))
            .collect();
        let want = reference(model, hw, &inputs);
        let pushed = {
            let (tx, rx) = mpsc::channel();
            for (i, x) in inputs.iter().enumerate() {
                let tx = tx.clone();
                engine
                    .try_infer(id, InferRequest::new(x.clone()))
                    .unwrap()
                    .on_complete(move |res| tx.send((i, res)).unwrap());
            }
            drop(tx);
            let mut got: Vec<(usize, Tensor)> =
                rx.iter().map(|(i, res)| (i, res.unwrap().output)).collect();
            got.sort_by_key(|(i, _)| *i);
            got.into_iter().map(|(_, out)| out).collect()
        };
        let paths: [Vec<Tensor>; 4] = [
            inputs
                .iter()
                .map(|x| engine.infer(id, x.clone()).unwrap().output)
                .collect(),
            inputs
                .iter()
                .map(|x| engine.try_infer(id, x.clone()).unwrap())
                .collect::<Vec<Pending>>()
                .into_iter()
                .map(|p| p.wait().unwrap().output)
                .collect(),
            pushed,
            engine
                .infer_many(id, inputs.clone())
                .unwrap()
                .into_iter()
                .map(|res| res.unwrap().output)
                .collect(),
        ];
        for (i, got) in paths.iter().enumerate() {
            assert_eq!(got, &want, "{name}: submission path {i} diverged");
        }
        assert_eq!(engine.tenant_stats(id).unwrap().requests, 12);
    }
}

/// What an `on_complete` callback saw: the thread it ran on and the
/// result it was handed.
type Completion = (ThreadId, Result<Inference, RuntimeError>);

/// Registers a callback on `pending` that counts its runs in `calls` and
/// reports its thread and result on the returned channel.
fn push_completion(pending: Pending, calls: &Arc<AtomicUsize>) -> mpsc::Receiver<Completion> {
    let (tx, rx) = mpsc::channel();
    let calls = Arc::clone(calls);
    pending.on_complete(move |res| {
        calls.fetch_add(1, Ordering::SeqCst);
        tx.send((std::thread::current().id(), res)).unwrap();
    });
    rx
}

/// `Pending::on_complete` pushes every outcome exactly once: registered
/// before delivery it runs on the delivering scheduler thread with the
/// reference bits; registered after `is_ready()` it runs inline on the
/// caller; and a typed error (a deadline that expires inside the batch
/// window) reaches the callback like a result does.
#[test]
fn on_complete_pushes_results_and_errors_exactly_once() {
    // max_batch 8 with single submissions: the batcher holds each request
    // for the whole 400 ms window, so the callback below is registered
    // long before delivery.
    let (engine, id) = layer_fleet(TenantConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(400),
        ..TenantConfig::default()
    });
    let mut r = rng::seeded(9);
    let inputs: Vec<Tensor> = (0..2)
        .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
        .collect();
    let want = reference(&layer_network(), 8, &inputs);
    let here = std::thread::current().id();
    let calls = Arc::new(AtomicUsize::new(0));

    // Registered before delivery: runs later, on a scheduler thread.
    let pending = engine.try_infer(id, inputs[0].clone()).unwrap();
    assert!(!pending.is_ready());
    let rx = push_completion(pending, &calls);
    assert_eq!(calls.load(Ordering::SeqCst), 0, "fired before delivery");
    let (thread, res) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_ne!(
        thread, here,
        "a pending callback runs on the delivering thread"
    );
    assert_eq!(res.unwrap().output, want[0]);
    assert_eq!(calls.load(Ordering::SeqCst), 1);

    // Registered after the result arrived: runs inline, before
    // `on_complete` returns.
    let pending = engine.try_infer(id, inputs[1].clone()).unwrap();
    let give_up = Instant::now() + Duration::from_secs(10);
    while !pending.is_ready() {
        assert!(Instant::now() < give_up, "request never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let rx = push_completion(pending, &calls);
    let (thread, res) = rx.try_recv().expect("a ready result is pushed inline");
    assert_eq!(thread, here, "a ready callback runs on the caller");
    assert_eq!(res.unwrap().output, want[1]);
    assert_eq!(calls.load(Ordering::SeqCst), 2);

    // A deadline far inside the batch window: the scheduler sheds the
    // request and the typed error reaches the callback.
    let req = InferRequest::new(inputs[0].clone())
        .with_deadline(Instant::now() + Duration::from_millis(30));
    let rx = push_completion(engine.try_infer(id, req).unwrap(), &calls);
    let (_, res) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(res.unwrap_err(), RuntimeError::DeadlineExceeded);
    assert_eq!(engine.tenant_stats(id).unwrap().deadline_exceeded, 1);

    // Exactly once: nothing fires again once the engine has drained.
    drop(engine);
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert!(rx.try_recv().is_err());
}

/// `wait_timeout` against a deliberately stalled worker: a lone request
/// held open by a long coalescing window times out with
/// `RuntimeError::Timeout`, leaves the request in flight (the handle
/// stays usable), and a later unbounded `wait` still delivers the result.
#[test]
fn wait_timeout_returns_timeout_then_result_survives() {
    // max_batch 8 with a single submission: the batcher holds the
    // request for the whole window hoping for peers, stalling delivery.
    let (engine, id) = layer_fleet(TenantConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(400),
        ..TenantConfig::default()
    });
    let mut r = rng::seeded(8);
    let x = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
    let want = reference(&layer_network(), 8, std::slice::from_ref(&x)).remove(0);

    let mut pending = engine.try_infer(id, x).unwrap();
    assert!(!pending.is_ready());
    let err = pending
        .wait_timeout(Duration::from_millis(30))
        .expect_err("stalled worker must not deliver within 30ms");
    assert_eq!(err, RuntimeError::Timeout);

    // The request is still in flight; an unbounded wait gets the result.
    let out = pending.wait().unwrap().output;
    assert_eq!(out, want);

    // A fresh request against the same engine resolves within a bounded
    // wait longer than the window: timeout is a deadline, not a poison.
    let y = init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
    let mut p2 = engine.try_infer(id, y).unwrap();
    let inf = p2.wait_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(inf.output.shape(), &[1, 8, 8, 8]);
}
