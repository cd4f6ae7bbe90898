//! The repository benchmark: the served zoo end to end, with per-layer
//! attribution.
//!
//! ```text
//! perfbench --workload serve_open|serve_closed|plan_offline
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds `FleetConfig::default_zoo()` in this process and
//! feeds it seeded 1x3x16x16 inputs, round-robin over the tenants:
//!
//! - `serve_open`: a loopback `Server`, one connection, open loop at a
//!   fixed 500 req/s, each latency timed from its due time.
//! - `serve_closed`: the same server, 2 connections each keeping 8
//!   requests outstanding.
//! - `plan_offline`: `NetworkPlan::execute_batch` on 8-image groups, no
//!   wire and no scheduler.
//!
//! Every output is checked bit for bit: served outputs against an
//! in-process build of the same fleet, `plan_offline` outputs against
//! `forward_reference` on the unoptimized program. A mismatch fails the
//! operation and the run exits 1.
//!
//! `--trace 0` measures for `--seconds` and prints the end-to-end metrics.
//! `--trace 1` measures half the time untraced and half with the program's
//! trace ring and the benchmark's own spans on, and prints the per-layer
//! metrics, the tracing overhead and the reconciliations. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod offline;
mod outcome;
mod serve;
mod spans;
mod stats;
mod zoo;

use layers::{Layers, Ring, Snap, EXACT_COUNTS, PER_LAYER};
use outcome::{Figures, Outcome, LATE_P99_BOUND_MS};
use serve::{Caller, OpenConn, Requests, Served};
use spans::Spans;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use zoo::{Pool, Zoo};

/// Every end-to-end metric of the result line: name, unit. The report
/// also prints `p90_ms`, `p99_ms` and `error_rate`, which are not result
/// metrics: a host that deschedules the process for milliseconds moves the
/// open-loop p99 by several times its median, its slow state moved the
/// `plan_offline` p90 by a third between runs of one build, and a healthy
/// run's error rate is 0.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "req/s"),
    ("images_per_s", "images/s"),
    ("p50_ms", "ms"),
    ("slo_share", "share"),
];

/// `serve_open` offered load.
const OPEN_RATE: f64 = 500.0;
/// `serve_closed` connections, each with its own thread.
const CLOSED_CONNS: usize = 2;
/// Requests each `serve_closed` connection keeps outstanding.
const CLOSED_DEPTH: usize = 8;
/// Set-ups per untraced run before it measures; `setup_s` is their median
/// in the serve workloads.
const SETUP_REPS: usize = 101;
/// Set-ups before each window of an untraced `plan_offline` run, untimed
/// by the window. Its `setup_s` is the median of each window's set-ups,
/// taken at the windows' latency percentile like every latency. The
/// host's slow state lasts seconds to minutes and slows this 1 ms set-up
/// by up to 1.7x, so set-ups all made at the run's start follow one state.
const SETUP_REPS_PER_WINDOW: usize = 5;
/// Each measured phase runs as consecutive windows of about this length
/// and reports for each metric one of the best windows (see
/// `Outcome::figures`).
const WINDOW_S: f64 = 2.0;
/// Untimed load after set-up, so timing starts in steady state.
const WARMUP: Duration = Duration::from_millis(300);
/// Seeded inputs per tenant.
const SERVE_INPUTS: usize = 32;
const OFFLINE_INPUTS: usize = 16;
/// Tolerances of the traced run's reconciliations.
const RESIDUAL_TOL_MS: f64 = 0.01;
const RESIDUAL_TOL_SHARE: f64 = 0.05;
const STAGE_TOL_SHARE: f64 = 0.10;
/// Span buffer per traced run.
const SPAN_CAP: usize = 60_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServeOpen,
    ServeClosed,
    PlanOffline,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeOpen => "serve_open",
            Workload::ServeClosed => "serve_closed",
            Workload::PlanOffline => "plan_offline",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_open" => Workload::ServeOpen,
                    "serve_closed" => Workload::ServeClosed,
                    "plan_offline" => Workload::PlanOffline,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds wants a number")?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one invocation measured.
struct Run {
    setup_s: Vec<f64>,
    /// Median set-up before each window, when set-ups are spread.
    window_setup_s: Vec<f64>,
    /// The untraced measured phase.
    untraced: Outcome,
    /// The traced phase and the per-layer metrics it produced.
    traced: Option<(Outcome, Layers)>,
    /// Every outcome booked, warm-up included, for the mismatch check.
    mismatched: u64,
    /// Named self-checks: `(what, passed)`.
    checks: Vec<(String, bool)>,
    /// Extra human-readable lines.
    notes: Vec<String>,
    spans: Spans,
}

impl Run {
    /// Reports a reconciliation of layer figures against a whole. It
    /// attributes time and does not judge the program, so it never fails
    /// the run.
    fn reconcile(&mut self, what: String, within: bool) {
        let verdict = if within { "ok" } else { "OUTSIDE TOLERANCE" };
        self.notes.push(format!("reconcile {verdict}: {what}"));
    }

    fn new(trace: bool) -> Self {
        Run {
            setup_s: Vec::new(),
            window_setup_s: Vec::new(),
            untraced: Outcome::default(),
            traced: None,
            mismatched: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            spans: Spans::new(trace, SPAN_CAP, 0),
        }
    }
}

/// The phase durations: all of `--seconds` untraced, or half untraced and
/// half traced.
fn phases(args: &Args) -> (Duration, Duration) {
    if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        (half, half)
    } else {
        (Duration::from_secs_f64(args.seconds), Duration::ZERO)
    }
}

/// Expected served outputs: the same request on an in-process build of
/// the same fleet.
fn in_process_outputs(zoo: &Zoo, pool: &Pool) -> Result<Vec<epim_tensor::Tensor>, String> {
    let engine = zoo.build_fleet()?;
    let names = zoo.names();
    pool.entries
        .iter()
        .map(|(t, input)| {
            let id = engine.tenant_id(&names[*t]).expect("own tenant");
            engine
                .infer(id, input.clone())
                .map(|inf| inf.output)
                .map_err(|e| format!("in-process reference: {e}"))
        })
        .collect()
}

/// Measures `dur` as consecutive windows of about [`WINDOW_S`].
fn windowed(dur: Duration, mut window: impl FnMut(Duration) -> Outcome) -> Outcome {
    let n = (dur.as_secs_f64() / WINDOW_S).round().max(1.0);
    let mut phase = Outcome::default();
    for _ in 0..n as usize {
        phase.then(window(dur.div_f64(n)));
    }
    phase
}

enum Conns {
    Open(OpenConn),
    Closed(Vec<Caller>),
}

/// One measured phase of a serve workload.
fn serve_phase(
    conns: &mut Conns,
    reqs: &Requests,
    dur: Duration,
    traced: bool,
    spans: &mut Spans,
) -> Outcome {
    match conns {
        Conns::Open(conn) => {
            let count = (OPEN_RATE * dur.as_secs_f64()).round() as usize;
            let mut send = Spans::new(traced, SPAN_CAP / 2, 1);
            let mut recv = Spans::new(traced, SPAN_CAP / 2, 2);
            let out = serve::open_loop(conn, reqs, OPEN_RATE, count, &mut send, &mut recv);
            spans.absorb(send);
            spans.absorb(recv);
            out
        }
        Conns::Closed(callers) => {
            let n = callers.len();
            let results: Vec<(Outcome, Spans)> = std::thread::scope(|scope| {
                let handles: Vec<_> = callers
                    .iter_mut()
                    .enumerate()
                    .map(|(c, caller)| {
                        scope.spawn(move || {
                            let mut s = Spans::new(traced, SPAN_CAP / n, 1 + c as u32);
                            let out = serve::closed_loop(caller, reqs, CLOSED_DEPTH, dur, &mut s);
                            (out, s)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("closed-loop caller panicked"))
                    .collect()
            });
            let mut total = Outcome::default();
            for (out, s) in results {
                total.merge(out);
                spans.absorb(s);
            }
            total
        }
    }
}

fn serve_workload(args: &Args, zoo: &Zoo) -> Result<Run, String> {
    let open = args.workload == Workload::ServeOpen;
    let names = zoo.names();
    let pool = Pool::seeded(args.seed, names.len(), SERVE_INPUTS);
    let expected = in_process_outputs(zoo, &pool)?;
    let reqs = Requests {
        pool: &pool,
        expected: &expected,
        names: &names,
    };
    let conn_count = if open { 1 } else { CLOSED_CONNS };
    let mut run = Run::new(args.trace);

    // Set-up: fleet build, server start, connections, one checked round
    // trip per tenant per connection. Repeated; all but the last torn down.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut live = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let served = Served::start(zoo.build_fleet()?)?;
        let mut callers = (0..conn_count)
            .map(|c| Caller::connect(&served.addr, c, conn_count))
            .collect::<Result<Vec<_>, _>>()?;
        for c in &mut callers {
            c.warm(&reqs)?;
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            for c in callers {
                c.close()?;
            }
            served.stop()?;
        } else {
            live = Some((served, callers));
        }
    }
    let (served, callers) = live.expect("at least one set-up");
    let fresh = served.engine().fleet_stats();
    let mut conns = if open {
        Conns::Open(OpenConn::from_warm(
            callers.into_iter().next().expect("one connection"),
        ))
    } else {
        Conns::Closed(callers)
    };

    let (untraced_for, traced_for) = phases(args);
    let mut scratch = Spans::new(false, 0, 0);
    let warm = serve_phase(&mut conns, &reqs, WARMUP, false, &mut scratch);
    run.mismatched += warm.mismatched;
    let before = Snap::take(served.engine());
    run.untraced = windowed(untraced_for, |d| {
        serve_phase(&mut conns, &reqs, d, false, &mut scratch)
    });
    let mid = Snap::take(served.engine());
    run.mismatched += run.untraced.mismatched;
    let mut errors_booked = warm.typed_errors() + run.untraced.typed_errors();

    if args.trace {
        epim_obs::set_enabled(true);
        let traced = windowed(traced_for, |d| {
            serve_phase(&mut conns, &reqs, d, true, &mut run.spans)
        });
        epim_obs::set_enabled(false);
        let after = Snap::take(served.engine());
        let ring = Ring::collect();
        run.mismatched += traced.mismatched;
        errors_booked += traced.typed_errors();

        let mut layers = Layers::new();
        let engine = served.engine();
        let programs: Vec<&epim_models::lower::NetworkProgram> = names
            .iter()
            .map(|n| {
                let id = engine.tenant_id(n).expect("own tenant");
                engine.plan(id).expect("own tenant").program()
            })
            .collect();
        let flops: Vec<_> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| zoo.stage_flops(t, p))
            .collect();
        layers::scheduler(&mut layers, &after, &mid);
        layers::serve_stage_times(&after, &mid).apply(&mut layers, &flops);
        layers::fleet_counts(&mut layers, &fresh);
        let traced_counts = layers::datapath_per_image(&layers::serve_datapath(&after, &mid));
        let untraced_counts = layers::datapath_per_image(&layers::serve_datapath(&mid, &before));
        layers::set_datapath(&mut layers, traced_counts);
        run.checks.push((
            "data-path counts per image repeat exactly across the untraced and traced phases"
                .to_string(),
            traced_counts == untraced_counts,
        ));
        ring_metrics(&mut layers, &ring);
        run.notes.push(format!(
            "samples: runtime histograms {} requests in {} batches; trace ring window {} \
             events; wire timings 15 x 200 calls per frame pair; data-path timings 31 per batch \
             size",
            after.fleet.e2e.count - mid.fleet.e2e.count,
            after.fleet.batches - mid.fleet.batches,
            ring.events.len()
        ));
        let (stage_ns, group_ns) = ring.stage_and_group_ns();
        stage_reconciliation(&mut run, &mut layers, stage_ns, group_ns, "group spans");
        let stage_sum_us = after
            .fleet
            .stages
            .iter()
            .zip(&mid.fleet.stages)
            .map(|(a, b)| (a.total_ns - b.total_ns) as f64)
            .sum::<f64>()
            / (after.fleet.batches - mid.fleet.batches).max(1) as f64
            / 1e3;
        run.notes.push(format!(
            "stage sum per batch {stage_sum_us:.1} us vs runtime.service_p50_us {:.1} us \
             (mean batch {:.2}; the service histogram weighs batches by their size)",
            layers.get("runtime.service_p50_us"),
            layers.get("runtime.mean_batch"),
        ));

        // serve.residual_p50_ms splits the client p50 by the server's e2e
        // p50. Means add up per request, so the split is reconciled on
        // them: client mean = server e2e mean (the runtime's histogram) +
        // residual mean (client latency minus each response's own server
        // stamp).
        let client = traced.pooled();
        let server_p50_ms = layers.get("runtime.e2e_p50_us") / 1e3;
        layers.set("serve.residual_p50_ms", client.p50_ms - server_p50_ms);
        let client_mean = stats::mean(&traced.latencies_ms);
        let server_mean = stats::hist_window(&after.fleet.e2e, &mid.fleet.e2e).mean() / 1e6;
        let residual_mean = stats::mean(&traced.residual_ms);
        let gap = (client_mean - server_mean - residual_mean).abs();
        let tol = RESIDUAL_TOL_MS + RESIDUAL_TOL_SHARE * client_mean;
        layers.set("reconcile.residual_gap_ms", gap);
        run.notes.push(format!(
            "client p50 {:.4} ms = serve.residual_p50_ms {:.4} ms + server e2e p50 \
             {server_p50_ms:.4} ms",
            client.p50_ms,
            client.p50_ms - server_p50_ms
        ));
        run.reconcile(
            format!(
                "client mean {client_mean:.4} ms = server e2e mean {server_mean:.4} ms + \
                 residual mean {residual_mean:.4} ms: gap {gap:.4} ms, tolerance {tol:.4} ms"
            ),
            gap <= tol,
        );
        layers.set("serve.client.submit_us", stats::median(&traced.submit_us));
        if open {
            late_metrics(&mut layers, &traced);
        }
        let frames: Vec<_> = (0..names.len())
            .map(|t| {
                let (tenant, input) = pool.get(t);
                layers::frame_pair(&names[*tenant], input, &expected[t])
            })
            .collect();
        layers::wire(&mut layers, &frames, &mut run.spans);
        datapath_microbench(&mut run, &mut layers, zoo, &programs, args.seed)?;
        overhead(&mut layers, &run.untraced.figures(), &traced.figures());
        run.traced = Some((traced, layers));
    }

    match conns {
        Conns::Open(conn) => conn.close()?,
        Conns::Closed(callers) => {
            for c in callers {
                c.close()?;
            }
        }
    }
    let report = served.stop()?;
    run.checks.push((
        format!(
            "server error frames ({}) equal the typed errors the clients booked ({errors_booked})",
            report.error_frames
        ),
        report.error_frames == errors_booked,
    ));
    if open {
        let phases = [Some(&run.untraced), run.traced.as_ref().map(|t| &t.0)];
        for (phase, out) in ["untraced", "traced"].into_iter().zip(phases) {
            let Some(out) = out else { continue };
            let (p99, max) = stats::tail(&out.late_ms);
            let valid = out.windows.iter().filter(|w| w.valid()).count();
            let verdict = if valid == 0 { "INVALID run" } else { "valid" };
            run.notes.push(format!(
                "open-loop generator ({phase}): {verdict}: {valid} of {} windows kept p99 \
                 lateness within {LATE_P99_BOUND_MS} ms and count; lateness over the phase \
                 p99 {p99:.4} ms, max {max:.4} ms",
                out.windows.len()
            ));
        }
    }
    Ok(run)
}

fn late_metrics(layers: &mut Layers, out: &Outcome) {
    let (p99, max) = stats::tail(&out.late_ms);
    layers.set("load.late_p99_ms", p99);
    layers.set("load.late_max_ms", max);
    let invalid = out.windows.iter().filter(|w| !w.valid()).count();
    layers.set(
        "load.invalid_window_share",
        invalid as f64 / out.windows.len().max(1) as f64,
    );
}

fn ring_metrics(layers: &mut Layers, ring: &Ring) {
    layers.set("trace.dropped_events", ring.dropped as f64);
    layers.set("runtime.coalesce_ms", ring.coalesce_ms());
    layers.set("pim.datapath.sweep_share", ring.sweep_share());
}

fn stage_reconciliation(
    run: &mut Run,
    layers: &mut Layers,
    stage_ns: u64,
    whole_ns: u64,
    whole: &str,
) {
    let gap = stats::rel_gap(stage_ns as f64, whole_ns as f64);
    layers.set("reconcile.stage_gap_share", gap);
    run.reconcile(
        format!(
            "per-stage spans sum to {:.3} ms of {:.3} ms in {whole}: gap {:.2}%, tolerance \
             {:.0}%",
            stage_ns as f64 / 1e6,
            whole_ns as f64 / 1e6,
            gap * 100.0,
            STAGE_TOL_SHARE * 100.0
        ),
        gap <= STAGE_TOL_SHARE,
    );
}

fn datapath_microbench(
    run: &mut Run,
    layers: &mut Layers,
    zoo: &Zoo,
    programs: &[&epim_models::lower::NetworkProgram],
    seed: u64,
) -> Result<(), String> {
    let paths = zoo.distinct_datapaths(programs)?;
    for line in layers::datapath(layers, &paths, seed, &mut run.spans) {
        run.notes.push(format!("pim.datapath {line}"));
    }
    Ok(())
}

/// Tracing overhead: traced minus untraced, signed so that a cost is
/// positive for every metric.
fn overhead(layers: &mut Layers, untraced: &Figures, traced: &Figures) {
    layers.set("trace.overhead.qps", untraced.qps - traced.qps);
    layers.set(
        "trace.overhead.images_per_s",
        untraced.images_per_s - traced.images_per_s,
    );
    layers.set("trace.overhead.p50_ms", traced.p50_ms - untraced.p50_ms);
    layers.set("trace.overhead.p90_ms", traced.p90_ms - untraced.p90_ms);
    layers.set(
        "trace.overhead.slo_share",
        untraced.slo_share - traced.slo_share,
    );
}

fn offline_workload(args: &Args, zoo: &Zoo) -> Result<Run, String> {
    let tenants = zoo.tenants.len();
    let pool = Pool::seeded(args.seed, tenants, OFFLINE_INPUTS);
    let expected = pool
        .entries
        .iter()
        .map(|(t, input)| zoo.reference_output(*t, input))
        .collect::<Result<Vec<_>, _>>()?;
    let mut run = Run::new(args.trace);

    // Set-up: fleet build and one checked group per tenant plan.
    let set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let engine = zoo.build_fleet()?;
        let plans: Vec<_> = zoo
            .names()
            .iter()
            .map(|n| {
                let id = engine.tenant_id(n).expect("own tenant");
                engine.plan(id).expect("own tenant").clone()
            })
            .collect();
        for (t, plan) in plans.iter().enumerate() {
            let idx = offline::group_indices(t, tenants, OFFLINE_INPUTS);
            let inputs: Vec<_> = idx.iter().map(|&i| &pool.get(i).1).collect();
            let (outs, _) = plan
                .execute_batch(&inputs)
                .map_err(|e| format!("set-up group: {e}"))?;
            if !outs
                .iter()
                .zip(&idx)
                .all(|(o, &i)| zoo::bit_identical(o, &expected[i]))
            {
                return Err(format!("set-up group of tenant {t}: output mismatch"));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok((engine, plans))
    };
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut live = None;
    for _ in 0..reps {
        live = Some(set_up(&mut run.setup_s)?);
    }
    let (engine, plans) = live.expect("at least one set-up");
    let fresh = engine.fleet_stats();
    let groups = offline::Groups {
        plans: &plans,
        pool: &pool,
        expected: &expected,
    };

    let (untraced_for, traced_for) = phases(args);
    let mut scratch = Spans::new(false, 0, 0);
    let mut next = 0;
    let warm = groups.run(
        &mut next,
        WARMUP,
        &mut scratch,
        &mut offline::Counts::new(tenants),
    );
    run.mismatched += warm.mismatched;
    let mut untraced_counts = offline::Counts::new(tenants);
    let mut failed_setup = None;
    run.untraced = windowed(untraced_for, |d| {
        if !args.trace {
            let mut window = Vec::new();
            for _ in 0..SETUP_REPS_PER_WINDOW {
                if let Err(e) = set_up(&mut window) {
                    failed_setup = Some(e);
                }
            }
            run.window_setup_s.push(stats::median(&window));
            run.setup_s.extend(window);
        }
        groups.run(&mut next, d, &mut scratch, &mut untraced_counts)
    });
    if let Some(e) = failed_setup {
        return Err(e);
    }
    run.mismatched += run.untraced.mismatched;

    if args.trace {
        epim_obs::set_enabled(true);
        let mut counts = offline::Counts::new(tenants);
        let traced = windowed(traced_for, |d| {
            groups.run(&mut next, d, &mut run.spans, &mut counts)
        });
        epim_obs::set_enabled(false);
        let ring = Ring::collect();
        run.mismatched += traced.mismatched;

        let mut layers = Layers::new();
        let programs: Vec<_> = plans.iter().map(|p| p.program()).collect();
        let flops: Vec<_> = programs
            .iter()
            .enumerate()
            .map(|(t, p)| zoo.stage_flops(t, p))
            .collect();
        let per_image = |c: &offline::Counts| {
            let per_tenant: Vec<_> = c
                .datapath
                .iter()
                .map(|(s, images)| (layers::dp_counts(s), *images))
                .collect();
            layers::datapath_per_image(&per_tenant)
        };
        let traced_counts = per_image(&counts);
        layers::set_datapath(&mut layers, traced_counts);
        run.checks.push((
            "data-path counts per image repeat exactly across the untraced and traced phases"
                .to_string(),
            traced_counts == per_image(&untraced_counts),
        ));
        layers::fleet_counts(&mut layers, &fresh);
        ring_metrics(&mut layers, &ring);
        let (stage_times, call_ns) = ring.offline_stage_times(&counts.calls, tenants);
        run.notes.push(format!(
            "samples: trace ring window {} events covering {} images; data-path timings 31 per \
             batch size",
            ring.events.len(),
            stage_times.images.iter().sum::<u64>()
        ));
        stage_times.apply(&mut layers, &flops);
        stage_reconciliation(
            &mut run,
            &mut layers,
            stage_times.total_ns() as u64,
            call_ns,
            "execute_batch calls",
        );
        datapath_microbench(&mut run, &mut layers, zoo, &programs, args.seed)?;
        overhead(&mut layers, &run.untraced.figures(), &traced.figures());
        run.notes.push(
            "serve.*, load.* and runtime scheduler metrics read 0: plan_offline bypasses the \
             wire and the scheduler"
                .to_string(),
        );
        run.traced = Some((traced, layers));
    }
    Ok(run)
}

fn human_outcome(label: &str, out: &Outcome) -> String {
    let f = out.figures();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  [{label}] attempted {} succeeded {} mismatched {} typed errors {} {:?} transport \
         failures {} over {:.3} s",
        out.attempted,
        out.succeeded,
        out.mismatched,
        out.typed_errors(),
        out.typed,
        out.transport,
        out.elapsed_s
    );
    for (name, unit, v) in f.named() {
        let _ = writeln!(s, "  [{label}] {name} = {v:.6} {unit}");
    }
    let _ = writeln!(
        s,
        "  [{label}] latency samples {}; highest supported tail p{}",
        f.samples,
        stats::supported_tail(f.samples)
    );
    let _ = write!(
        s,
        "  [{label}] per-window qps {:?} p50_ms {:?}",
        out.windows
            .iter()
            .map(|w| w.qps.round())
            .collect::<Vec<_>>(),
        out.windows
            .iter()
            .map(|w| (w.p50_ms * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let _ = write!(
        s,
        "\n  [{label}] per-window p99_ms {:?} late_p99_ms {:?}",
        out.windows
            .iter()
            .map(|w| (w.p99_ms * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        out.windows
            .iter()
            .map(|w| (w.late_p99_ms * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_open|serve_closed|plan_offline --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    epim_obs::set_enabled(false);
    let result = Zoo::default_zoo().and_then(|zoo| match args.workload {
        Workload::ServeOpen | Workload::ServeClosed => serve_workload(&args, &zoo),
        Workload::PlanOffline => offline_workload(&args, &zoo),
    });
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    std::process::exit(report(&args, &run));
}

/// Prints the human report and the JSON result line; returns the exit
/// code.
fn report(args: &Args, run: &Run) -> i32 {
    let w = args.workload.name();
    println!(
        "perfbench {w} seed={} seconds={} trace={} threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{}",
        match args.workload {
            Workload::ServeOpen =>
                "  open loop, 500 req/s offered over 1 loopback connection (sender + receiver thread)",
            Workload::ServeClosed =>
                "  closed loop, 2 loopback connections x 8 outstanding requests (one thread each)",
            Workload::PlanOffline =>
                "  offline, NetworkPlan::execute_batch on 8-image groups, one caller thread; an operation is one call;\n  \
                 qps from each plan's p10 call time, p50 the mean of the plans' medians, each the 90th (latencies: 10th) percentile of the windows",
        }
    );
    let setups = stats::sorted(run.setup_s.clone());
    let setup = if run.window_setup_s.is_empty() {
        println!("  setup_s: median of {} set-ups", setups.len());
        stats::median(&setups)
    } else {
        println!(
            "  setup_s: medians of {} set-ups before each of {} windows, at their p{}",
            SETUP_REPS_PER_WINDOW,
            run.window_setup_s.len(),
            100.0 - outcome::WINDOW_PERCENTILE
        );
        stats::percentile(
            &stats::sorted(run.window_setup_s.clone()),
            100.0 - outcome::WINDOW_PERCENTILE,
        )
    };
    println!(
        "  setup_s = {setup:.6} s (all {} set-ups: p10 {:.6} s, p50 {:.6} s, p90 {:.6} s)",
        setups.len(),
        stats::percentile(&setups, 10.0),
        stats::percentile(&setups, 50.0),
        stats::percentile(&setups, 90.0)
    );
    println!("{}", human_outcome("untraced", &run.untraced));

    let mut attempted = run.untraced.attempted;
    let mut failed = run.untraced.failed();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut correct = run.mismatched == 0;
    if let Some((traced, layers)) = &run.traced {
        println!("{}", human_outcome("traced", traced));
        attempted += traced.attempted;
        failed += traced.failed();
        println!("  per-layer metrics (traced phase; FLOPs are computed from the stage shapes):");
        for &(name, unit, _) in PER_LAYER {
            let v = layers.get(name);
            let tag = if EXACT_COUNTS.contains(&name) {
                " (exact count)"
            } else {
                ""
            };
            println!("    {name} = {v} {unit}{tag}");
            metrics.push((name, unit, v));
        }
        println!(
            "  tracing overhead (traced minus untraced): {:?}",
            Figures::named(&traced.figures())
                .iter()
                .zip(run.untraced.figures().named())
                .map(|(t, u)| format!("{} {:+.6} {}", t.0, t.2 - u.2, t.1))
                .collect::<Vec<_>>()
        );
        println!(
            "  benchmark spans: {} kept, {} dropped; per name (count, mean us, mean self us):",
            run.spans.spans.len(),
            run.spans.dropped
        );
        for (name, n, mean, self_us) in spans::summarize(&run.spans.spans) {
            println!("    {name}: {n}, {mean:.3}, {self_us:.3}");
        }
        match write_traces(w, args.seed, &run.spans) {
            Ok(paths) => println!("  traces written: {paths}"),
            Err(e) => println!("  traces not written: {e}"),
        }
    } else {
        metrics.push(("setup_s", "s", setup));
        let f = run.untraced.figures();
        for (name, unit, v) in f.named() {
            if END_TO_END.iter().any(|m| m.0 == name) {
                metrics.push((name, unit, v));
            }
        }
    }
    for note in &run.notes {
        println!("  {note}");
    }
    for (what, ok) in &run.checks {
        println!("  check {}: {what}", if *ok { "ok" } else { "FAILED" });
        correct &= ok;
    }
    if run.mismatched > 0 {
        println!(
            "  check FAILED: {} operations returned outputs that are not bit-identical",
            run.mismatched
        );
    }
    if let Some((name, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        println!("  check FAILED: metric {name} is {v}, not a finite number");
        correct = false;
    }
    let metrics = metrics
        .iter()
        .map(|(name, unit, v)| {
            // JSON has no NaN or infinity; such a run already failed above.
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    println!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}");
    if correct {
        0
    } else {
        1
    }
}

/// Writes the benchmark's spans and the program's trace ring as
/// chrome://tracing JSON under `perfbench/out/`.
fn write_traces(workload: &str, seed: u64, spans: &Spans) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let bench = dir.join(format!("{workload}-seed{seed}.spans.json"));
    let ring = dir.join(format!("{workload}-seed{seed}.ring.json"));
    std::fs::write(&bench, spans::chrome_json(&spans.spans))
        .map_err(|e| format!("{}: {e}", bench.display()))?;
    std::fs::write(&ring, epim_obs::global().export_chrome_trace())
        .map_err(|e| format!("{}: {e}", ring.display()))?;
    Ok(format!("{} {}", bench.display(), ring.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let json = benchmark_json();
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for (name, unit, better) in PER_LAYER {
            assert!(
                json.contains(&format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )),
                "{name}"
            );
        }
        // `serve_closed` runs but is not gated: its spread between runs of
        // one build on a shared 2-vCPU host reached the bound.
        for w in [Workload::ServeOpen, Workload::PlanOffline] {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
        assert!(!json.contains(Workload::ServeClosed.name()));
        let entries = json.matches("\"name\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + 2);
    }

    #[test]
    fn phases_split_traced_runs_in_half() {
        let mut args = Args {
            workload: Workload::ServeOpen,
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        assert_eq!(phases(&args), (Duration::from_secs(10), Duration::ZERO));
        args.trace = true;
        assert_eq!(
            phases(&args),
            (Duration::from_secs(5), Duration::from_secs(5))
        );
    }

    #[test]
    fn windowed_splits_a_phase_into_equal_windows() {
        let mut lengths = Vec::new();
        let phase = windowed(Duration::from_secs(7), |d| {
            lengths.push(d);
            Outcome {
                attempted: 1,
                elapsed_s: d.as_secs_f64(),
                ..Outcome::default()
            }
        });
        assert_eq!(lengths.len(), 4);
        assert!(lengths.iter().all(|&d| d == Duration::from_secs_f64(1.75)));
        assert_eq!(phase.attempted, 4);
        let one = windowed(Duration::from_millis(500), |d| Outcome {
            elapsed_s: d.as_secs_f64(),
            ..Outcome::default()
        });
        assert_eq!(one.windows.len(), 1);
    }
}
