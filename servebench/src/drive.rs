//! Load generators: closed loops (each load thread keeps a fixed window
//! of requests in flight) and open loops (one sender on a fixed schedule,
//! one receiver), over the loopback wire or in-process.
//!
//! Every reply is classified and every OK reply is compared code for
//! code with the pool's golden outputs.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nacu_engine::{Engine, EngineConfig, EngineHandle, Request, SubmitError};
use nacu_net::proto::{max_reply_payload, read_payload_into};
use nacu_net::{
    decode_reply, encode_request, NetClient, NetConfig, NetServer, RequestFrame, ServeNet, Status,
};

use crate::util::{ns_since, Hist};
use crate::workload::{Item, Pool, Spec};

/// How long a receiver waits for a missing reply before counting it
/// timed out.
const REPLY_GRACE: Duration = Duration::from_secs(5);

/// Outcome accounting for one phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub sent: u64,
    /// OK replies whose outputs equal the golden outputs.
    pub ok: u64,
    pub busy: u64,
    pub shed: u64,
    pub quota: u64,
    pub error: u64,
    pub timed_out: u64,
    /// OK replies whose outputs differ from the golden outputs.
    pub mismatched: u64,
    /// Operands in `ok` replies.
    pub ok_ops: u64,
    /// Request latency in ns: from send (closed loop) or from the due
    /// time (open loop) to the matched reply.
    pub latency_ns: Hist,
    /// Open loop: how late each send started against its schedule, ns.
    pub late_ns: Hist,
    /// Open loop: most requests in flight in each quarter of the phase.
    pub backlog_by_quarter: [u64; 4],
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.busy + self.shed + self.quota + self.error + self.timed_out + self.mismatched
    }

    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.busy += other.busy;
        self.shed += other.shed;
        self.quota += other.quota;
        self.error += other.error;
        self.timed_out += other.timed_out;
        self.mismatched += other.mismatched;
        self.ok_ops += other.ok_ops;
        self.latency_ns.merge(&other.latency_ns);
        self.late_ns.merge(&other.late_ns);
        for (mine, theirs) in self
            .backlog_by_quarter
            .iter_mut()
            .zip(other.backlog_by_quarter)
        {
            *mine = (*mine).max(theirs);
        }
    }

    /// A backlog that keeps growing: the last quarter of the phase held
    /// well over twice the in-flight peak of the first.
    pub fn backlog_growing(&self) -> bool {
        let q = self.backlog_by_quarter;
        q[3] > 2 * q[0] + 16
    }

    fn wire_reply(&mut self, item: &Item, status: Status, codes: &[i16]) {
        match status {
            Status::Ok if item.matches(codes.iter().map(|&c| i64::from(c))) => {
                self.ok += 1;
                self.ok_ops += codes.len() as u64;
            }
            Status::Ok => self.mismatched += 1,
            Status::Busy => self.busy += 1,
            Status::Shed => self.shed += 1,
            Status::Quota => self.quota += 1,
            Status::Error => self.error += 1,
        }
    }

    fn engine_reply<E>(&mut self, item: &Item, reply: Result<nacu_engine::Response, E>) {
        match reply {
            Ok(response) if item.matches(response.outputs.iter().map(|x| x.raw())) => {
                self.ok += 1;
                self.ok_ops += response.outputs.len() as u64;
            }
            Ok(_) => self.mismatched += 1,
            Err(_) => self.error += 1,
        }
    }

    fn submit_refused(&mut self, e: &SubmitError) {
        match e {
            SubmitError::Busy { .. } => self.busy += 1,
            _ => self.error += 1,
        }
    }

    fn note_backlog(&mut self, start: Instant, span: Duration, in_flight: u64) {
        let quarter = ((start.elapsed().as_secs_f64() / span.as_secs_f64()) * 4.0) as usize;
        let slot = &mut self.backlog_by_quarter[quarter.min(3)];
        *slot = (*slot).max(in_flight);
    }
}

/// One span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// ns since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same list, `NO_PARENT` for roots.
    pub parent: u32,
    /// Request id the span belongs to.
    pub req: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Per-thread in-memory span list; records nothing when tracing is off.
pub struct Spans {
    epoch: Instant,
    on: bool,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            list: Vec::new(),
        }
    }

    /// Opens a root span; `close` fills in its end, `set_req` its id
    /// once the layer has assigned one.
    fn open(&mut self, name: &'static str, start: Instant) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.list.push(Span {
            name,
            start: ns_since(self.epoch, start),
            end: 0,
            parent: NO_PARENT,
            req: 0,
        });
        (self.list.len() - 1) as u32
    }

    fn set_req(&mut self, index: u32, req: u64) {
        if let Some(span) = self.list.get_mut(index as usize) {
            span.req = req;
        }
    }

    fn close(&mut self, index: u32, end: Instant) {
        if let Some(span) = self.list.get_mut(index as usize) {
            span.end = ns_since(self.epoch, end);
        }
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32, req: u64) {
        if self.on {
            self.list.push(Span {
                name,
                start: ns_since(self.epoch, start),
                end: ns_since(self.epoch, end),
                parent,
                req,
            });
        }
    }
}

/// An engine with, on the wire workloads, a loopback serving plane and
/// one connected client per closed-loop load thread.
pub struct Plane {
    pub engine: Engine,
    pub server: Option<NetServer>,
    pub clients: Vec<NetClient>,
}

impl Plane {
    /// Builds the plane and waits for its first OK reply; returns the
    /// plane, the seconds that took, and the probe's accounting.
    pub fn start(spec: &Spec, pool: &Pool, fast_path: bool) -> Result<(Self, f64, Tally), String> {
        let started = Instant::now();
        let engine = Engine::new(
            EngineConfig::new(spec.nacu_config())
                .with_workers(2)
                .with_fast_path(fast_path),
        )
        .map_err(|e| format!("engine: {e}"))?;
        let mut plane = Self {
            engine,
            server: None,
            clients: Vec::new(),
        };
        let probe = &pool.items[0];
        let mut tally = Tally {
            sent: 1,
            ..Tally::default()
        };
        if spec.wire() {
            let server = plane
                .engine
                .handle()
                .serve_net("127.0.0.1:0")
                .map_err(|e| format!("serve_net: {e}"))?;
            for _ in 0..spec.closed_threads {
                plane
                    .clients
                    .push(NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
            }
            plane.server = Some(server);
            let reply = plane.clients[0]
                .call(probe.function, &probe.operands, 0)
                .map_err(|e| format!("first call: {e}"))?;
            tally.wire_reply(probe, reply.status, &reply.codes);
        } else {
            let reply = plane
                .engine
                .handle()
                .submit(Request::new(probe.function, probe.operands.clone()))
                .map_err(|e| format!("first submit: {e}"))?
                .wait();
            tally.engine_reply(probe, reply);
        }
        let seconds = started.elapsed().as_secs_f64();
        if tally.ok != 1 {
            return Err(format!(
                "first request was not answered OK and exact: {tally:?}"
            ));
        }
        Ok((plane, seconds, tally))
    }

    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(NetServer::addr)
    }

    pub fn stop(mut self) {
        self.clients.clear();
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        self.engine.shutdown();
    }
}

/// First pool index load thread `t` of `threads` starts from, so the
/// threads walk different parts of the pool.
fn offset(pool: &Pool, t: usize, threads: usize) -> usize {
    t * pool.items.len() / threads.max(1)
}

/// Closed loop over the plane's clients, one load thread each, every
/// thread keeping `window` frames in flight for `span`.
pub fn closed_wire(
    clients: &mut [NetClient],
    pool: &Pool,
    window: usize,
    span: Duration,
    spans_on: bool,
    epoch: Instant,
) -> (Tally, Vec<Span>) {
    let threads = clients.len();
    let results: Vec<(Tally, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    closed_wire_thread(
                        client,
                        pool,
                        offset(pool, t, threads),
                        window,
                        span,
                        spans_on,
                        epoch,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop wire thread panicked"))
            .collect()
    });
    merge(results)
}

fn closed_wire_thread(
    client: &mut NetClient,
    pool: &Pool,
    mut next: usize,
    window: usize,
    span: Duration,
    spans_on: bool,
    epoch: Instant,
) -> (Tally, Spans) {
    let mut tally = Tally::default();
    let mut spans = Spans::new(epoch, spans_on);
    let mut in_flight: HashMap<u64, (usize, Instant, u32)> = HashMap::with_capacity(2 * window);
    let end = Instant::now() + span;
    let send = |next: &mut usize,
                tally: &mut Tally,
                spans: &mut Spans,
                in_flight: &mut HashMap<u64, (usize, Instant, u32)>,
                client: &mut NetClient| {
        let index = *next;
        *next = (*next + 1) % pool.items.len();
        let item = &pool.items[index];
        let t0 = Instant::now();
        let root = spans.open("request", t0);
        let sent = client.send(item.function, &item.operands, 0);
        let t1 = Instant::now();
        tally.sent += 1;
        match sent {
            Ok(id) => {
                spans.record("net.client.send", t0, t1, root, id);
                spans.set_req(root, id);
                in_flight.insert(id, (index, t0, root));
            }
            Err(_) => tally.error += 1,
        }
    };
    for _ in 0..window {
        send(&mut next, &mut tally, &mut spans, &mut in_flight, client);
    }
    while !in_flight.is_empty() {
        let r0 = Instant::now();
        let reply = client.recv();
        let r1 = Instant::now();
        let Ok(frame) = reply else {
            // The connection failed: nothing in flight will come back.
            tally.error += in_flight.len() as u64;
            break;
        };
        let Some((index, t0, root)) = in_flight.remove(&frame.id) else {
            tally.error += 1;
            continue;
        };
        spans.record("net.client.recv", r0, r1, root, frame.id);
        spans.close(root, r1);
        tally.wire_reply(&pool.items[index], frame.status, &frame.codes);
        tally.latency_ns.record(ns_since(t0, r1));
        if r1 < end {
            send(&mut next, &mut tally, &mut spans, &mut in_flight, client);
        }
    }
    (tally, spans)
}

/// Closed loop in-process: `threads` callers, each keeping `window`
/// tickets in flight for `span` and waiting on them in submission order.
pub fn closed_inproc(
    handle: &EngineHandle,
    pool: &Pool,
    threads: usize,
    window: usize,
    span: Duration,
    spans_on: bool,
    epoch: Instant,
) -> (Tally, Vec<Span>) {
    let results: Vec<(Tally, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let handle = handle.clone();
                scope.spawn(move || {
                    closed_inproc_thread(
                        &handle,
                        pool,
                        offset(pool, t, threads),
                        window,
                        span,
                        spans_on,
                        epoch,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop caller thread panicked"))
            .collect()
    });
    merge(results)
}

fn closed_inproc_thread(
    handle: &EngineHandle,
    pool: &Pool,
    mut next: usize,
    window: usize,
    span: Duration,
    spans_on: bool,
    epoch: Instant,
) -> (Tally, Spans) {
    let mut tally = Tally::default();
    let mut spans = Spans::new(epoch, spans_on);
    let mut in_flight = VecDeque::with_capacity(window);
    let end = Instant::now() + span;
    let submit =
        |next: &mut usize, tally: &mut Tally, spans: &mut Spans, in_flight: &mut VecDeque<_>| {
            let index = *next;
            *next = (*next + 1) % pool.items.len();
            let item = &pool.items[index];
            let t0 = Instant::now();
            let request = Request::new(item.function, item.operands.clone());
            let root = spans.open("request", t0);
            let s0 = Instant::now();
            let submitted = handle.submit(request);
            let s1 = Instant::now();
            tally.sent += 1;
            match submitted {
                Ok(ticket) => {
                    let id = ticket.request_id();
                    spans.record("engine.submit", s0, s1, root, id);
                    spans.set_req(root, id);
                    in_flight.push_back((ticket, index, t0, root));
                }
                Err(e) => tally.submit_refused(&e),
            }
        };
    for _ in 0..window {
        submit(&mut next, &mut tally, &mut spans, &mut in_flight);
    }
    while let Some((ticket, index, t0, root)) = in_flight.pop_front() {
        let id = ticket.request_id();
        let w0 = Instant::now();
        let reply = ticket.wait_timeout(REPLY_GRACE);
        let w1 = Instant::now();
        spans.record("engine.wait", w0, w1, root, id);
        spans.close(root, w1);
        match reply {
            Err(nacu_engine::WaitError::Timeout) => tally.timed_out += 1,
            reply => tally.engine_reply(&pool.items[index], reply),
        }
        tally.latency_ns.record(ns_since(t0, w1));
        if w1 < end {
            submit(&mut next, &mut tally, &mut spans, &mut in_flight);
        }
    }
    (tally, spans)
}

fn merge(results: Vec<(Tally, Spans)>) -> (Tally, Vec<Span>) {
    let mut tally = Tally::default();
    let mut all = Vec::new();
    for (t, s) in results {
        tally.merge(t);
        // Re-base parent indices onto the concatenated list.
        let base = all.len() as u32;
        all.extend(s.list.into_iter().map(|mut span| {
            if span.parent != NO_PARENT {
                span.parent += base;
            }
            span
        }));
    }
    (tally, all)
}

/// The open-loop schedule: request `i` is due `i / rate` seconds after
/// `start`, whether or not earlier requests have been answered.
struct Schedule {
    start: Instant,
    rate: f64,
    span: Duration,
}

impl Schedule {
    fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Sleeps until request `i` is due; `None` once the phase is over.
    fn wait_for(&self, i: u64) -> Option<Instant> {
        let due = self.due(i);
        if due.duration_since(self.start) >= self.span {
            return None;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Some(due)
    }
}

/// Open loop over one fresh connection: a sender thread writes frames
/// on the fixed schedule while this thread reads replies. Latency runs
/// from each request's due time.
pub fn open_wire(
    addr: SocketAddr,
    pool: &Pool,
    start_at: usize,
    rate: f64,
    span: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            tally.error += 1;
            return tally;
        }
    };
    stream.set_nodelay(true).ok();
    let reader_stream = stream.try_clone().expect("clone loopback socket");
    reader_stream
        .set_read_timeout(Some(REPLY_GRACE))
        .expect("set read timeout");
    let mut reader = BufReader::new(reader_stream);
    let frames: Vec<RequestFrame> = pool
        .items
        .iter()
        .map(|item| RequestFrame {
            function: item.function,
            format: pool.format,
            id: 0,
            deadline_micros: 0,
            codes: item.operands.iter().map(|x| x.raw() as i16).collect(),
        })
        .collect();
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let schedule = Schedule {
        start: Instant::now(),
        rate,
        span,
    };
    let index_of = |id: u64| (start_at + (id - 1) as usize) % pool.items.len();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writer = stream;
            let mut frames = frames;
            let mut late = Hist::default();
            let mut i = 0u64;
            while let Some(due) = schedule.wait_for(i) {
                let t0 = Instant::now();
                let frame = &mut frames[index_of(i + 1)];
                frame.id = i + 1;
                // Count the request before writing it: its reply may be
                // read before `write_all` returns.
                i += 1;
                sent.store(i, Ordering::Release);
                late.record(ns_since(due, t0));
                if writer.write_all(&encode_request(frame)).is_err() {
                    break;
                }
            }
            // Let the receiver collect what is still in flight, then
            // close the socket so its blocking read returns.
            let give_up = Instant::now() + REPLY_GRACE;
            while received.load(Ordering::Acquire) < i && Instant::now() < give_up {
                std::thread::sleep(Duration::from_micros(200));
            }
            let _ = writer.shutdown(std::net::Shutdown::Both);
            late
        });
        let mut buf = Vec::new();
        while let Ok(Some(_)) = read_payload_into(&mut reader, max_reply_payload(1 << 20), &mut buf)
        {
            let now = Instant::now();
            let Ok(frame) = decode_reply(&buf) else {
                tally.error += 1;
                break;
            };
            let got = received.fetch_add(1, Ordering::AcqRel) + 1;
            let sent_now = sent.load(Ordering::Acquire);
            if frame.id == 0 || frame.id > sent_now {
                tally.error += 1;
                continue;
            }
            tally.wire_reply(&pool.items[index_of(frame.id)], frame.status, &frame.codes);
            tally
                .latency_ns
                .record(ns_since(schedule.due(frame.id - 1), now));
            tally.note_backlog(schedule.start, span, sent_now.saturating_sub(got));
        }
        tally.late_ns = sender.join().expect("open-loop sender panicked");
        tally.sent = sent.load(Ordering::Acquire);
        tally.timed_out = tally.sent.saturating_sub(received.load(Ordering::Acquire));
    });
    tally
}

/// Open loop in-process: a sender thread submits on the fixed schedule
/// and hands each ticket to this thread, which waits on them in order.
/// Like a wire connection (`NetConfig::max_inflight_per_conn`), at most
/// that many requests are in flight: beyond it the sender blocks until a
/// reply is taken, which shows up as lateness, never as refusals.
pub fn open_inproc(
    handle: &EngineHandle,
    pool: &Pool,
    start_at: usize,
    rate: f64,
    span: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let schedule = Schedule {
        start: Instant::now(),
        rate,
        span,
    };
    // The hand-off holds one fewer than the cap: the receiver holds the
    // ticket it is waiting on.
    let cap = NetConfig::default().max_inflight_per_conn;
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let (tx, rx) = mpsc::sync_channel(cap - 1);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Hist::default();
            let mut refused = Tally::default();
            let mut i = 0u64;
            while let Some(due) = schedule.wait_for(i) {
                let t0 = Instant::now();
                let index = (start_at + i as usize) % pool.items.len();
                let item = &pool.items[index];
                let submitted = handle.submit(Request::new(item.function, item.operands.clone()));
                late.record(ns_since(due, t0));
                i += 1;
                sent.store(i, Ordering::Release);
                match submitted {
                    Ok(ticket) => tx.send((ticket, index, due)).expect("receiver alive"),
                    Err(e) => {
                        refused.submit_refused(&e);
                        received.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
            drop(tx);
            (late, refused)
        });
        for (ticket, index, due) in rx {
            let reply = ticket.wait_timeout(REPLY_GRACE);
            let now = Instant::now();
            let got = received.fetch_add(1, Ordering::AcqRel) + 1;
            match reply {
                Err(nacu_engine::WaitError::Timeout) => tally.timed_out += 1,
                reply => tally.engine_reply(&pool.items[index], reply),
            }
            tally.latency_ns.record(ns_since(due, now));
            tally.note_backlog(
                schedule.start,
                span,
                sent.load(Ordering::Acquire).saturating_sub(got),
            );
        }
        let (late, refused) = sender.join().expect("open-loop sender panicked");
        tally.late_ns = late;
        tally.merge(refused);
        tally.sent = sent.load(Ordering::Acquire);
    });
    tally
}
