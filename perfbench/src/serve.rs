//! The served workloads: an in-process `Server` on loopback, driven over
//! real TCP connections by an open-loop (fixed rate, timed from due time)
//! or closed-loop (fixed callers) generator.

use crate::outcome::Outcome;
use crate::spans::{request_span_id, Spans, NO_PARENT};
use crate::stats::{latency_from_due, lateness, Schedule};
use crate::zoo::{bit_identical, Pool};
use epim_runtime::MultiEngine;
use epim_serve::client::{Client, ClientReceiver, ClientSender, Reply};
use epim_serve::{ServeReport, Server};
use epim_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Span roles within one request (see [`request_span_id`]).
const ROLE_REQUEST: u64 = 0;
const ROLE_SUBMIT: u64 = 1;
const ROLE_RECV: u64 = 2;

/// A running server and the thread serving it.
pub struct Served {
    server: Arc<Server>,
    thread: JoinHandle<Result<ServeReport, String>>,
    pub addr: String,
}

impl Served {
    pub fn start(engine: MultiEngine) -> Result<Self, String> {
        let server =
            Arc::new(Server::bind(engine, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?);
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve().map_err(|e| e.to_string()));
        Ok(Served {
            server,
            thread,
            addr,
        })
    }

    pub fn engine(&self) -> &MultiEngine {
        self.server.engine()
    }

    /// Drains and joins the server (close every connection first).
    pub fn stop(self) -> Result<ServeReport, String> {
        self.server
            .shutdown_flag()
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// The request and expected answer behind pool index `index`.
pub struct Requests<'a> {
    pub pool: &'a Pool,
    pub expected: &'a [Tensor],
    pub names: &'a [String],
}

impl Requests<'_> {
    fn tenant(&self, index: usize) -> &str {
        &self.names[self.pool.get(index).0]
    }

    fn input(&self, index: usize) -> Tensor {
        self.pool.get(index).1.clone()
    }

    fn matches(&self, index: usize, output: &Tensor) -> bool {
        bit_identical(output, &self.expected[index % self.expected.len()])
    }
}

/// One client connection of a closed-loop caller. Request ids run from 1
/// in submission order, so the pool index of id `i` on connection `c` of
/// `conns` is `(i - 1) * conns + c`.
pub struct Caller {
    pub client: Client,
    pub sent: u64,
    pub conn: usize,
    pub conns: usize,
}

impl Caller {
    pub fn connect(addr: &str, conn: usize, conns: usize) -> Result<Self, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Caller {
            client,
            sent: 0,
            conn,
            conns,
        })
    }

    fn index(&self, id: u64) -> usize {
        (id as usize - 1) * self.conns + self.conn
    }

    /// One round trip per tenant, checked, so every tenant's plan and
    /// arena are warm before anything is timed.
    pub fn warm(&mut self, reqs: &Requests) -> Result<(), String> {
        for _ in 0..reqs.names.len() {
            let index = self.index(self.sent + 1);
            let reply = self
                .client
                .infer(reqs.tenant(index), reqs.input(index))
                .map_err(|e| format!("warm-up: {e}"))?;
            self.sent += 1;
            match reply {
                Ok(resp) if reqs.matches(index, &resp.output) => {}
                Ok(_) => return Err(format!("warm-up request {index}: output mismatch")),
                Err(e) => return Err(format!("warm-up request {index}: error frame {e:?}")),
            }
        }
        Ok(())
    }

    pub fn close(self) -> Result<(), String> {
        self.client.close().map_err(|e| format!("close: {e}"))
    }
}

/// Closed loop: keep `depth` requests outstanding until `run_for` has
/// passed, then drain. Latency runs from just before `submit` to the
/// reply.
pub fn closed_loop(
    caller: &mut Caller,
    reqs: &Requests,
    depth: usize,
    run_for: Duration,
    spans: &mut Spans,
) -> Outcome {
    let mut out = Outcome::default();
    let mut inflight: HashMap<u64, (Instant, u64)> = HashMap::with_capacity(depth * 2);
    let start = Instant::now();
    let end = start + run_for;
    let mut last_done = start;

    let submit = |caller: &mut Caller,
                  inflight: &mut HashMap<u64, (Instant, u64)>,
                  out: &mut Outcome,
                  spans: &mut Spans|
     -> bool {
        let id = caller.sent + 1;
        let index = caller.index(id);
        let input = reqs.input(index);
        let span_start = spans.start();
        let t0 = Instant::now();
        let result = caller.client.submit(reqs.tenant(index), input);
        let t1 = Instant::now();
        out.attempted += 1;
        match result {
            Ok(got) => {
                debug_assert_eq!(got, id);
                caller.sent = id;
                out.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                spans.end(
                    "client.submit",
                    request_span_id(index as u64, ROLE_SUBMIT),
                    request_span_id(index as u64, ROLE_REQUEST),
                    index as u64,
                    span_start,
                );
                inflight.insert(id, (t0, span_start));
                true
            }
            Err(_) => {
                out.transport += 1;
                false
            }
        }
    };

    let mut alive = true;
    for _ in 0..depth {
        alive = alive && submit(caller, &mut inflight, &mut out, spans);
    }
    while alive && !inflight.is_empty() {
        let recv_start = spans.start();
        let reply = caller.client.recv_reply();
        let done = Instant::now();
        match reply {
            Ok(reply) => {
                let id = reply_id(&reply);
                let Some((t0, span_start)) = inflight.remove(&id) else {
                    // A reply to nothing in flight is a protocol breach.
                    out.record_typed(epim_serve::wire::code::PROTOCOL);
                    continue;
                };
                let index = caller.index(id);
                last_done = done;
                account(&mut out, reqs, index, &reply, t0, done);
                spans.end(
                    "client.recv",
                    request_span_id(index as u64, ROLE_RECV),
                    request_span_id(index as u64, ROLE_REQUEST),
                    index as u64,
                    recv_start,
                );
                spans.end(
                    "request",
                    request_span_id(index as u64, ROLE_REQUEST),
                    NO_PARENT,
                    index as u64,
                    span_start,
                );
                if done < end {
                    alive = submit(caller, &mut inflight, &mut out, spans);
                }
            }
            Err(_) => alive = false,
        }
    }
    out.transport += inflight.len() as u64;
    out.elapsed_s = (last_done - start).as_secs_f64();
    out
}

fn reply_id(reply: &Reply) -> u64 {
    match reply {
        Ok(resp) => resp.id,
        Err(err) => err.id,
    }
}

/// Books one reply: a bit-identical output succeeds, any other output is
/// a mismatch, an error frame is a typed failure.
fn account(
    out: &mut Outcome,
    reqs: &Requests,
    index: usize,
    reply: &Reply,
    from: Instant,
    done: Instant,
) {
    match reply {
        Ok(resp) if reqs.matches(index, &resp.output) => {
            let latency_ms = latency_from_due(from, done).as_secs_f64() * 1e3;
            out.record_success(latency_ms, 1);
            out.residual_ms
                .push(latency_ms - resp.latency_ns as f64 / 1e6);
        }
        Ok(_) => {
            out.mismatched += 1;
            eprintln!(
                "perfbench: request {index} (tenant {}): output differs from the in-process fleet",
                reqs.tenant(index)
            );
        }
        Err(err) => out.record_typed(err.code),
    }
}

/// The two halves of the open-loop connection. Ids run from 1 in
/// submission order and request id `i` uses pool index `i - 1`.
pub struct OpenConn {
    pub sender: ClientSender,
    pub receiver: ClientReceiver,
    pub sent: u64,
}

impl OpenConn {
    pub fn from_warm(caller: Caller) -> Self {
        let sent = caller.sent;
        let (sender, receiver) = caller.client.split();
        OpenConn {
            sender,
            receiver,
            sent,
        }
    }

    pub fn close(self) -> Result<(), String> {
        self.sender.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        self.receiver
            .await_goodbye()
            .map_err(|e| format!("await goodbye: {e}"))
    }
}

/// Open loop: `count` requests due at a fixed `rate`, sent by one thread
/// and collected by another. Each latency runs from the request's due
/// time, and the sender's lateness against it is recorded.
pub fn open_loop(
    conn: &mut OpenConn,
    reqs: &Requests,
    rate: f64,
    count: usize,
    send_spans: &mut Spans,
    recv_spans: &mut Spans,
) -> Outcome {
    let first_id = conn.sent + 1;
    let schedule = Schedule::new(Instant::now(), rate);
    let OpenConn {
        sender, receiver, ..
    } = conn;
    let (sent, mut out, received) = std::thread::scope(|scope| {
        let send = scope.spawn(|| {
            let mut out = Outcome::default();
            let mut sent = 0u64;
            for k in 0..count {
                let due = schedule.due(k);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let index = (first_id - 1) as usize + k;
                let input = reqs.input(index);
                let span_start = send_spans.start();
                let t0 = Instant::now();
                out.late_ms.push(lateness(due, t0).as_secs_f64() * 1e3);
                if sender.submit(reqs.tenant(index), input).is_err() {
                    break;
                }
                out.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                send_spans.end(
                    "client.submit",
                    request_span_id(index as u64, ROLE_SUBMIT),
                    request_span_id(index as u64, ROLE_REQUEST),
                    index as u64,
                    span_start,
                );
                sent += 1;
            }
            (sent, out)
        });
        let recv = scope.spawn(|| {
            let mut out = Outcome::default();
            let mut received = 0u64;
            let mut last_done = schedule.epoch;
            while received < count as u64 {
                let recv_start = recv_spans.start();
                let Ok(reply) = receiver.recv_reply() else {
                    break;
                };
                let done = Instant::now();
                received += 1;
                last_done = done;
                let id = reply_id(&reply);
                let Some(k) = id.checked_sub(first_id).filter(|&k| k < count as u64) else {
                    out.record_typed(epim_serve::wire::code::PROTOCOL);
                    continue;
                };
                let index = (first_id - 1 + k) as usize;
                let due = schedule.due(k as usize);
                account(&mut out, reqs, index, &reply, due, done);
                recv_spans.end(
                    "client.recv",
                    request_span_id(index as u64, ROLE_RECV),
                    request_span_id(index as u64, ROLE_REQUEST),
                    index as u64,
                    recv_start,
                );
                if recv_spans.enabled() {
                    // The request span starts at the due time, on the same
                    // clock as every other span.
                    let now_ns = epim_obs::now_ns();
                    let start_ns = now_ns.saturating_sub((done - due).as_nanos() as u64);
                    recv_spans.record(
                        "request",
                        request_span_id(index as u64, ROLE_REQUEST),
                        NO_PARENT,
                        index as u64,
                        start_ns,
                        now_ns,
                    );
                }
            }
            out.elapsed_s = (last_done - schedule.epoch).as_secs_f64();
            (out, received)
        });
        let (sent, send_out) = send.join().expect("open-loop sender panicked");
        let (mut out, received) = recv.join().expect("open-loop receiver panicked");
        out.late_ms = send_out.late_ms;
        out.submit_us = send_out.submit_us;
        (sent, out, received)
    });
    conn.sent += sent;
    out.attempted = count as u64;
    out.transport += count as u64 - received.min(count as u64);
    out
}
