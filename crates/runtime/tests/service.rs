//! Integration tests for the submission surface: every submission path
//! (`MultiEngine` and `TenantHandle`, blocking, non-blocking and burst)
//! must deliver the same bits for every kind of tenant, and [`Pending`]
//! must deliver results through every one of its three consumption modes
//! — blocking `wait()`, bounded `wait_timeout()` and `await` under a
//! runtime-free hand-rolled executor.

use epim_core::{ConvShape, Epitome, EpitomeShape, EpitomeSpec};
use epim_models::lower::NetworkWeights;
use epim_models::network::Network;
use epim_models::zoo;
use epim_pim::datapath::AnalogModel;
use epim_runtime::{
    InferRequest, MultiEngine, MultiEngineBuilder, Pending, PlanCache, RuntimeError, TenantConfig,
    TenantId,
};
use epim_tensor::{init, rng, Tensor};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

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

/// A minimal single-future executor built only on std: parks on a
/// condvar, woken by the `Waker` the future registers. This is the
/// acceptance check that `Pending` integrates with *any* runtime, not
/// that it happens to work with a specific one.
struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        let mut woken = self.woken.lock().unwrap();
        *woken = true;
        self.cv.notify_one();
    }
}

fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let parker = Arc::new(Parker {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                let mut woken = parker.woken.lock().unwrap();
                while !*woken {
                    woken = parker.cv.wait(woken).unwrap();
                }
                *woken = false;
            }
        }
    }
}

/// Every submission path — the engine's and the tenant handle's
/// blocking, non-blocking and burst calls — serves bit-identical outputs
/// to the reference, for a one-layer tenant and a whole-network tenant
/// sharing one fleet.
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
    for (id, model, hw) in [(layer_id, &layer, 8), (net_id, &network, 16)] {
        let c = model.0.backbone().layers[0].conv.cin;
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| init::uniform(&[1, c, hw, hw], -1.0, 1.0, &mut r))
            .collect();
        let want = reference(model, hw, &inputs);
        let handle = engine.tenant(id).unwrap();
        let burst = |results: Vec<Result<epim_runtime::Inference, RuntimeError>>| {
            results
                .into_iter()
                .map(|res| res.unwrap().output)
                .collect::<Vec<_>>()
        };
        let paths: [Vec<Tensor>; 6] = [
            inputs
                .iter()
                .map(|x| engine.infer(id, x.clone()).unwrap().output)
                .collect(),
            inputs
                .iter()
                .map(|x| handle.infer(InferRequest::new(x.clone())).unwrap().output)
                .collect(),
            inputs
                .iter()
                .map(|x| engine.try_infer(id, x.clone()).unwrap())
                .collect::<Vec<Pending>>()
                .into_iter()
                .map(|p| p.wait().unwrap().output)
                .collect(),
            inputs
                .iter()
                .map(|x| handle.try_infer(x.clone()).unwrap())
                .collect::<Vec<Pending>>()
                .into_iter()
                .map(|p| p.wait().unwrap().output)
                .collect(),
            burst(engine.infer_many(id, inputs.clone()).unwrap()),
            burst(handle.infer_many(inputs.clone()).unwrap()),
        ];
        for (i, got) in paths.iter().enumerate() {
            assert_eq!(
                got,
                &want,
                "{}: submission path {i} diverged",
                handle.name()
            );
        }
        assert_eq!(handle.stats().unwrap().requests, 18);
    }
}

/// `Pending` as a `Future`: awaiting results under a minimal hand-rolled
/// executor (no async runtime anywhere in the workspace) matches the
/// blocking path bitwise, and the waker fires without busy-polling.
#[test]
fn pending_resolves_as_future_under_handrolled_executor() {
    let (engine, id) = layer_fleet(TenantConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(2),
        ..TenantConfig::default()
    });
    let mut r = rng::seeded(7);
    let inputs: Vec<Tensor> = (0..6)
        .map(|_| init::uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r))
        .collect();
    let want = reference(&layer_network(), 8, &inputs);

    // Await them one at a time (single-future executor), but submit all
    // up front so the batcher still coalesces.
    let pendings: Vec<Pending> = inputs
        .iter()
        .map(|x| engine.try_infer(id, x.clone()).unwrap())
        .collect();
    let got: Vec<Tensor> = pendings
        .into_iter()
        .map(|p| block_on(p).unwrap().output)
        .collect();
    assert_eq!(got, want);

    // A joined pair through one future: poll-driven multiplexing.
    let p1 = engine.try_infer(id, inputs[0].clone()).unwrap();
    let p2 = engine.try_infer(id, inputs[1].clone()).unwrap();
    let joined = block_on(Join2 {
        a: Some(p1),
        b: Some(p2),
        out_a: None,
        out_b: None,
    });
    assert_eq!(joined.0.unwrap().unwrap().output, want[0]);
    assert_eq!(joined.1.unwrap().unwrap().output, want[1]);
}

/// A tiny join combinator so the executor test exercises re-polling with
/// one result ready and the other still pending.
struct Join2 {
    a: Option<Pending>,
    b: Option<Pending>,
    out_a: Option<Result<epim_runtime::Inference, RuntimeError>>,
    out_b: Option<Result<epim_runtime::Inference, RuntimeError>>,
}

impl Future for Join2 {
    #[allow(clippy::type_complexity)]
    type Output = (
        Option<Result<epim_runtime::Inference, RuntimeError>>,
        Option<Result<epim_runtime::Inference, RuntimeError>>,
    );

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.out_a.is_none() {
            if let Some(p) = this.a.as_mut() {
                if let Poll::Ready(r) = Pin::new(p).poll(cx) {
                    this.out_a = Some(r);
                    this.a = None;
                }
            }
        }
        if this.out_b.is_none() {
            if let Some(p) = this.b.as_mut() {
                if let Poll::Ready(r) = Pin::new(p).poll(cx) {
                    this.out_b = Some(r);
                    this.b = None;
                }
            }
        }
        if this.out_a.is_some() && this.out_b.is_some() {
            Poll::Ready((this.out_a.take(), this.out_b.take()))
        } else {
            Poll::Pending
        }
    }
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
