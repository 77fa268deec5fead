//! The admission-controlled TCP serving plane.
//!
//! One accept thread guards the connection limit; each accepted socket
//! gets a reader thread (decode → admission → engine submit). Replies
//! are written by a small **fixed pool of event-driven dispatchers**:
//! every admitted ticket is registered, keyed by its engine
//! `request_id`, in one dispatcher's [`CompletionSet`], and the
//! dispatcher parks until completions wake it — no thread count that
//! scales with connections, no polling interval. Control replies
//! (BUSY/SHED/QUOTA/ERROR) are written directly by the reader; the
//! per-connection write half sits behind a mutex so frames never
//! interleave. Pipelining is native: a client may have many request ids
//! in flight on one socket, replies carry the id and arrive in
//! completion order.
//!
//! Admission is layered, cheapest first:
//!
//! 1. **Protocol** — malformed frames get one ERROR(PROTOCOL) reply and
//!    the connection closes (the stream cannot be resynchronised).
//! 2. **Quota** — the per-client token bucket refuses with QUOTA.
//! 3. **Shed** — a request whose deadline budget is below the modeled
//!    hardware floor ([`modeled_batch_cycles`] at the paper clock) is
//!    refused with SHED before touching the queue; a deadline that
//!    expires while queued becomes SHED at completion.
//! 4. **Backpressure** — the engine's bounded queue refusing a push
//!    becomes a BUSY reply, never a dropped connection.
//!
//! Every admission outcome lands in the engine's `net_*` counters via
//! [`EngineHandle::live_metrics`], and the dispatcher pool feeds the
//! `async_*` counters, so the `/metrics` scrape sees the network plane
//! with zero extra plumbing.

use std::collections::HashMap;
use std::io::Write;
use std::net::{IpAddr, Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use nacu_engine::report::{modeled_batch_cycles, PAPER_CLOCK_HZ};
use nacu_engine::{
    CompletionNotifier, CompletionSet, EngineHandle, EngineMetrics, SubmitError, Ticket, WaitError,
};

use crate::proto::{
    code, decode_request, encode_reply, max_request_payload, push_reply, read_payload_into,
    ReadError, ReplyFrame, RequestFrame, Status,
};

/// Per-client rate limit for the token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Sustained requests per second refilled into the bucket.
    pub rate_per_sec: f64,
    /// Maximum burst the bucket can hold.
    pub burst: f64,
}

/// Tunables for [`serve`]. `Default` is sized for loopback serving.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Concurrent connections served; further accepts are counted
    /// rejected and closed immediately.
    pub max_connections: usize,
    /// Operands accepted per request frame; larger frames are protocol
    /// errors (and their byte length bounds allocation up front).
    pub max_frame_ops: u32,
    /// In-flight requests per connection; the reader stops decoding
    /// (TCP backpressure) once this many tickets are outstanding.
    pub max_inflight_per_conn: usize,
    /// Per-client-IP token bucket; `None` disables quota enforcement.
    pub quota: Option<Quota>,
    /// Reply dispatcher threads shared by every connection (clamped to
    /// ≥ 1). The whole serving plane uses this fixed pool, however many
    /// sockets are open.
    pub dispatchers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame_ops: 1 << 16,
            max_inflight_per_conn: 64,
            quota: None,
            dispatchers: 2,
        }
    }
}

/// A running network serving plane. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the listener and drains the reply
/// dispatchers; the engine keeps serving in-process work either way.
#[derive(Debug)]
pub struct NetServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    dispatchers: Option<Arc<DispatcherPool>>,
}

impl NetServer {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting, then drains and joins the reply dispatchers.
    /// Connections still open keep their readers, but work admitted
    /// after this point is answered ERROR(SHUTTING_DOWN).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(pool) = self.dispatchers.take() {
            pool.shutdown();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Token buckets keyed by client IP, shared across connections.
#[derive(Debug)]
struct Buckets {
    quota: Quota,
    by_ip: Mutex<HashMap<IpAddr, Bucket>>,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled_at: Instant,
}

impl Buckets {
    fn admit(&self, ip: IpAddr) -> bool {
        let mut by_ip = self.by_ip.lock().expect("bucket lock");
        let now = Instant::now();
        let bucket = by_ip.entry(ip).or_insert(Bucket {
            tokens: self.quota.burst,
            refilled_at: now,
        });
        let elapsed = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.quota.rate_per_sec).min(self.quota.burst);
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One connection's write side plus its in-flight accounting. The
/// reader holds it for immediates and admission; dispatchers hold it
/// (via each routed ticket) for completion replies.
#[derive(Debug)]
struct Conn {
    /// Write half; every reply frame is written whole under this lock,
    /// so reader immediates and dispatcher completions never interleave.
    stream: Mutex<TcpStream>,
    /// Admitted-but-unreplied requests, bounded by
    /// [`NetConfig::max_inflight_per_conn`].
    inflight: Mutex<usize>,
    /// Signals slot release (and death) to a reader blocked on the bound.
    room: Condvar,
    /// A write failed (or the peer died): stop decoding, drop replies.
    dead: AtomicBool,
}

impl Conn {
    fn new(write_half: TcpStream) -> Self {
        Self {
            stream: Mutex::new(write_half),
            inflight: Mutex::new(0),
            room: Condvar::new(),
            dead: AtomicBool::new(false),
        }
    }

    /// Writes one control reply (BUSY/SHED/QUOTA/ERROR, header only).
    fn write_reply(&self, frame: &ReplyFrame, metrics: &EngineMetrics) {
        self.write_encoded(&encode_reply(frame), metrics);
    }

    /// Writes one encoded reply frame (counted even if the write then
    /// fails, matching the pre-dispatcher accounting). On error the
    /// connection is marked dead and both socket halves are shut down so
    /// a blocked reader unsticks.
    fn write_encoded(&self, bytes: &[u8], metrics: &EngineMetrics) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        metrics.net_frames_out.add(1);
        let failed = {
            let mut stream = self.stream.lock().expect("stream lock");
            stream
                .write_all(bytes)
                .and_then(|()| stream.flush())
                .is_err()
        };
        if failed {
            self.mark_dead();
        }
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self
            .stream
            .lock()
            .expect("stream lock")
            .shutdown(Shutdown::Both);
        // Wake a reader parked on the in-flight bound.
        drop(self.inflight.lock().expect("inflight lock"));
        self.room.notify_all();
    }

    /// Blocks until an in-flight slot frees up; `false` once dead.
    fn acquire_slot(&self, max_inflight: usize) -> bool {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        while *inflight >= max_inflight && !self.dead.load(Ordering::Acquire) {
            inflight = self.room.wait(inflight).expect("inflight lock");
        }
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        *inflight += 1;
        true
    }

    fn release_slot(&self) {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        *inflight = inflight.saturating_sub(1);
        drop(inflight);
        self.room.notify_all();
    }
}

/// One admitted request handed from a reader to a dispatcher.
#[derive(Debug)]
struct RouteEntry {
    client_id: u64,
    ticket: Ticket,
    conn: Arc<Conn>,
}

#[derive(Debug)]
struct Inbox {
    entries: Vec<RouteEntry>,
    /// Set under the lock by shutdown; once observed true, no further
    /// submissions are accepted, so the dispatcher can exit without a
    /// hand-off race.
    closed: bool,
}

#[derive(Debug)]
struct Shard {
    inbox: Mutex<Inbox>,
    notifier: CompletionNotifier,
}

/// The fixed pool of event-driven reply dispatchers. Readers hand each
/// admitted ticket to a shard (round-robin); the shard's driver thread
/// multiplexes every in-flight ticket it owns on one [`CompletionSet`],
/// parks until completions arrive, and writes the replies.
#[derive(Debug)]
struct DispatcherPool {
    shards: Vec<Arc<Shard>>,
    next: AtomicUsize,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl DispatcherPool {
    /// Starts `count` dispatchers (at least one).
    ///
    /// # Errors
    ///
    /// The first thread-spawn failure. The dispatchers already started
    /// are stopped and joined first, so no shard is left without a
    /// driver for readers to route tickets to.
    fn start(count: usize, metrics: &Arc<EngineMetrics>) -> std::io::Result<Self> {
        Self::start_with(count, metrics, |_| thread::Builder::new())
    }

    /// [`DispatcherPool::start`], spawning dispatcher `index` from
    /// `builder(index)`.
    fn start_with(
        count: usize,
        metrics: &Arc<EngineMetrics>,
        builder: impl Fn(usize) -> thread::Builder,
    ) -> std::io::Result<Self> {
        let count = count.max(1);
        let mut pool = Self {
            shards: Vec::with_capacity(count),
            next: AtomicUsize::new(0),
            threads: Mutex::new(Vec::with_capacity(count)),
        };
        for index in 0..count {
            let set = CompletionSet::new().with_metrics(Arc::clone(metrics));
            let shard = Arc::new(Shard {
                inbox: Mutex::new(Inbox {
                    entries: Vec::new(),
                    closed: false,
                }),
                notifier: set.notifier(),
            });
            let driven = Arc::clone(&shard);
            let metrics = Arc::clone(metrics);
            match builder(index)
                .name(format!("nacu-net-dispatch-{index}"))
                .spawn(move || dispatcher_loop(&driven, set, &metrics))
            {
                Ok(thread) => {
                    pool.shards.push(shard);
                    pool.threads.lock().expect("threads lock").push(thread);
                }
                Err(e) => {
                    pool.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(pool)
    }

    /// Routes one admitted ticket to a dispatcher. `Err` means the pool
    /// already shut down — the caller answers SHUTTING_DOWN itself.
    fn submit(&self, entry: RouteEntry) -> Result<(), RouteEntry> {
        let shard =
            &self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len().max(1)];
        {
            let mut inbox = shard.inbox.lock().expect("inbox lock");
            if inbox.closed {
                return Err(entry);
            }
            inbox.entries.push(entry);
        }
        shard.notifier.notify();
        Ok(())
    }

    /// Closes every shard, then joins the drivers; each drains its
    /// remaining in-flight tickets before exiting, so admitted requests
    /// still get their replies. Idempotent — a second call finds the
    /// shards closed and no threads left to join.
    fn shutdown(&self) {
        for shard in &self.shards {
            shard.inbox.lock().expect("inbox lock").closed = true;
            shard.notifier.notify();
        }
        let threads = std::mem::take(&mut *self.threads.lock().expect("threads lock"));
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// One dispatcher: drain the inbox into the completion set, park until
/// completions (or a poke), write the finished replies, repeat. Exits
/// only when the shard is closed AND nothing is left in flight.
fn dispatcher_loop(shard: &Arc<Shard>, mut set: CompletionSet, metrics: &Arc<EngineMetrics>) {
    // request_id → (client-chosen reply id, connection).
    let mut routes: HashMap<u64, (u64, Arc<Conn>)> = HashMap::new();
    let mut completed: Vec<(u64, Result<nacu_engine::Response, WaitError>)> = Vec::new();
    // Reply bytes, reused for every frame this dispatcher writes.
    let mut out: Vec<u8> = Vec::new();
    loop {
        let arrivals = {
            let mut inbox = shard.inbox.lock().expect("inbox lock");
            if inbox.closed && inbox.entries.is_empty() && set.is_empty() {
                return;
            }
            std::mem::take(&mut inbox.entries)
        };
        for entry in arrivals {
            // The engine's monotonic request id is the routing key: it is
            // unique across every connection and already stamped on the
            // ticket, the trace spans, and the flight recorder.
            let key = entry.ticket.request_id();
            routes.insert(key, (entry.client_id, entry.conn));
            set.insert(key, entry.ticket);
        }
        completed.clear();
        if set.wait_completed(&mut completed) > 0 {
            metrics.async_dispatcher_batches.add(1);
        }
        for (key, outcome) in completed.drain(..) {
            let Some((client_id, conn)) = routes.remove(&key) else {
                continue;
            };
            out.clear();
            encode_completion(&mut out, client_id, outcome, metrics);
            conn.write_encoded(&out, metrics);
            conn.release_slot();
        }
    }
}

/// Starts the serving plane for `handle` on `addr`.
///
/// # Errors
///
/// The bind failure from [`TcpListener::bind`], `InvalidInput` when
/// the engine's format is wider than the wire's 16-bit codes, or a
/// failure to spawn a server thread (nothing is left running then).
pub fn serve(
    handle: &EngineHandle,
    addr: impl ToSocketAddrs,
    config: NetConfig,
) -> std::io::Result<NetServer> {
    if handle.format().total_bits() > 16 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "wire codes are i16: engine formats wider than 16 bits are not servable",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = handle.live_metrics();
    let buckets = config.quota.map(|quota| {
        Arc::new(Buckets {
            quota,
            by_ip: Mutex::new(HashMap::new()),
        })
    });
    let dispatchers = Arc::new(DispatcherPool::start(config.dispatchers, &metrics)?);
    let accept_thread = {
        let stop = Arc::clone(&stop);
        let handle = handle.clone();
        let config = config.clone();
        let dispatchers = Arc::clone(&dispatchers);
        thread::Builder::new()
            .name("nacu-net-accept".into())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &handle,
                    &metrics,
                    &config,
                    buckets,
                    &dispatchers,
                    &stop,
                );
            })
    };
    let accept_thread = accept_thread.inspect_err(|_| dispatchers.shutdown())?;
    Ok(NetServer {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        dispatchers: Some(dispatchers),
    })
}

#[allow(clippy::needless_pass_by_value, clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    handle: &EngineHandle,
    metrics: &Arc<EngineMetrics>,
    config: &NetConfig,
    buckets: Option<Arc<Buckets>>,
    dispatchers: &Arc<DispatcherPool>,
    stop: &Arc<AtomicBool>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let next_conn_id = AtomicU32::new(1);
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if live.load(Ordering::Acquire) >= config.max_connections {
            metrics.net_connections_rejected.add(1);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        metrics.net_connections_accepted.add(1);
        live.fetch_add(1, Ordering::AcqRel);
        let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
        let handle = handle.clone();
        let metrics = Arc::clone(metrics);
        let config = config.clone();
        let buckets = buckets.clone();
        let dispatchers = Arc::clone(dispatchers);
        let conn_live = Arc::clone(&live);
        let spawned = thread::Builder::new()
            .name(format!("nacu-net-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(
                    stream,
                    conn_id,
                    &handle,
                    &metrics,
                    &config,
                    buckets,
                    &dispatchers,
                );
                conn_live.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            live.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    conn_id: u32,
    handle: &EngineHandle,
    metrics: &Arc<EngineMetrics>,
    config: &NetConfig,
    buckets: Option<Arc<Buckets>>,
    dispatchers: &Arc<DispatcherPool>,
) {
    let Ok(write_half) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let conn = Arc::new(Conn::new(write_half));
    read_loop(
        stream,
        conn_id,
        handle,
        metrics,
        config,
        buckets,
        &conn,
        dispatchers,
    );
    // In-flight replies (if any) are still owned by the dispatchers,
    // which hold the write half through `conn` until they finish.
}

/// Decode → admission → submit, blocking on the in-flight bound.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    stream: TcpStream,
    conn_id: u32,
    handle: &EngineHandle,
    metrics: &Arc<EngineMetrics>,
    config: &NetConfig,
    buckets: Option<Arc<Buckets>>,
    conn: &Arc<Conn>,
    dispatchers: &Arc<DispatcherPool>,
) {
    let peer_ip = stream.peer_addr().map(|a| a.ip()).ok();
    let mut reader = std::io::BufReader::new(stream);
    let max_payload = max_request_payload(config.max_frame_ops);
    // Request payload bytes, reused for every frame on this connection.
    let mut payload = Vec::new();
    loop {
        match read_payload_into(&mut reader, max_payload, &mut payload) {
            Ok(Some(_)) => {}
            Ok(None) => return, // clean EOF
            Err(ReadError::Oversize { .. }) => {
                metrics.net_protocol_errors.add(1);
                conn.write_reply(
                    &ReplyFrame::control(Status::Error, code::PROTOCOL, 0),
                    metrics,
                );
                return;
            }
            Err(ReadError::TruncatedFrame { .. } | ReadError::Io(_)) => {
                // The stream died mid-frame: nothing to answer to.
                metrics.net_protocol_errors.add(1);
                return;
            }
        };
        let frame = match decode_request(&payload, config.max_frame_ops) {
            Ok(frame) => frame,
            Err(_) => {
                metrics.net_protocol_errors.add(1);
                conn.write_reply(
                    &ReplyFrame::control(Status::Error, code::PROTOCOL, 0),
                    metrics,
                );
                return; // cannot resync a corrupt stream
            }
        };
        metrics.net_frames_in.add(1);
        match admit(frame, conn_id, handle, metrics, config, &buckets, peer_ip) {
            Admission::Immediate(frame) => conn.write_reply(&frame, metrics),
            Admission::InFlight { client_id, ticket } => {
                if !conn.acquire_slot(config.max_inflight_per_conn) {
                    return; // connection died while parked on the bound
                }
                let entry = RouteEntry {
                    client_id,
                    ticket,
                    conn: Arc::clone(conn),
                };
                if dispatchers.submit(entry).is_err() {
                    // Pool already drained (server shutdown): the ticket
                    // is dropped, the engine's reply is abandoned.
                    conn.release_slot();
                    conn.write_reply(
                        &ReplyFrame::control(Status::Error, code::SHUTTING_DOWN, client_id),
                        metrics,
                    );
                }
            }
        }
        if conn.dead.load(Ordering::Acquire) {
            return;
        }
    }
}

enum Admission {
    /// Answered without touching the engine (or rejected by it).
    Immediate(ReplyFrame),
    /// Enqueued; a dispatcher owns writing the completion reply.
    InFlight { client_id: u64, ticket: Ticket },
}

fn admit(
    frame: RequestFrame,
    conn_id: u32,
    handle: &EngineHandle,
    metrics: &Arc<EngineMetrics>,
    _config: &NetConfig,
    buckets: &Option<Arc<Buckets>>,
    peer_ip: Option<IpAddr>,
) -> Admission {
    let client_id = frame.id;
    // Quota before any per-operand work: refusals must stay cheap.
    if let (Some(buckets), Some(ip)) = (buckets.as_ref(), peer_ip) {
        if !buckets.admit(ip) {
            metrics.net_quota_limited.add(1);
            return Admission::Immediate(ReplyFrame::control(Status::Quota, code::NONE, client_id));
        }
    }
    // Deadline shedding: refuse work the hardware model says cannot
    // finish in budget. `modeled_batch_cycles / PAPER_CLOCK_HZ` is the
    // floor a batch of this shape costs on one unit with zero queueing,
    // so any budget below it is deterministically unmeetable.
    let budget = (frame.deadline_micros > 0).then(|| Duration::from_micros(frame.deadline_micros));
    if let Some(budget) = budget {
        let floor_secs =
            modeled_batch_cycles(frame.function, frame.codes.len()) as f64 / PAPER_CLOCK_HZ;
        if budget.as_secs_f64() < floor_secs {
            metrics.net_requests_shed.add(1);
            return Admission::Immediate(ReplyFrame::control(Status::Shed, code::NONE, client_id));
        }
    }
    let operands = match frame.operands() {
        Ok(operands) => operands,
        Err(_) => {
            metrics.net_protocol_errors.add(1);
            return Admission::Immediate(ReplyFrame::control(
                Status::Error,
                code::PROTOCOL,
                client_id,
            ));
        }
    };
    let mut request =
        nacu_engine::Request::from_codes(frame.function, operands).with_client(conn_id);
    if let Some(budget) = budget {
        request = request.with_deadline(Instant::now() + budget);
    }
    match handle.submit(request) {
        Ok(ticket) => Admission::InFlight { client_id, ticket },
        Err(SubmitError::Busy { .. }) => {
            Admission::Immediate(ReplyFrame::control(Status::Busy, code::NONE, client_id))
        }
        Err(SubmitError::ShuttingDown) => Admission::Immediate(ReplyFrame::control(
            Status::Error,
            code::SHUTTING_DOWN,
            client_id,
        )),
        Err(SubmitError::Invalid(_)) => Admission::Immediate(ReplyFrame::control(
            Status::Error,
            code::INVALID_REQUEST,
            client_id,
        )),
    }
}

/// Encodes one ticket outcome as its wire reply into `out`: an OK reply
/// narrows the response's codes straight into the frame (the plane only
/// serves ≤16-bit formats, see [`serve`]).
fn encode_completion(
    out: &mut Vec<u8>,
    client_id: u64,
    outcome: Result<nacu_engine::Response, WaitError>,
    metrics: &EngineMetrics,
) {
    let (status, detail) = match outcome {
        Ok(response) => {
            let codes = response.outputs.raw.iter().map(|&c| c as i16);
            push_reply(out, Status::Ok, code::NONE, client_id, codes);
            return;
        }
        Err(WaitError::DeadlineExpired) => {
            metrics.net_requests_shed.add(1);
            (Status::Shed, code::NONE)
        }
        Err(WaitError::EngineShutDown) => (Status::Error, code::SHUTTING_DOWN),
        Err(WaitError::FaultDetected { .. } | WaitError::NoHealthyWorkers) => {
            (Status::Error, code::FAULT)
        }
        Err(WaitError::Timeout) => (Status::Error, code::INTERNAL),
    };
    push_reply(out, status, detail, client_id, std::iter::empty());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_admits_burst_then_refuses() {
        let buckets = Buckets {
            quota: Quota {
                rate_per_sec: 0.0001, // effectively no refill inside a test
                burst: 3.0,
            },
            by_ip: Mutex::new(HashMap::new()),
        };
        let ip: IpAddr = "127.0.0.1".parse().unwrap();
        assert!(buckets.admit(ip));
        assert!(buckets.admit(ip));
        assert!(buckets.admit(ip));
        assert!(!buckets.admit(ip), "burst exhausted");
        let other: IpAddr = "10.0.0.1".parse().unwrap();
        assert!(buckets.admit(other), "buckets are per client");
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let buckets = Buckets {
            quota: Quota {
                rate_per_sec: 1_000_000.0,
                burst: 1.0,
            },
            by_ip: Mutex::new(HashMap::new()),
        };
        let ip: IpAddr = "127.0.0.1".parse().unwrap();
        assert!(buckets.admit(ip));
        thread::sleep(Duration::from_millis(2));
        assert!(buckets.admit(ip), "refilled after waiting");
    }

    #[test]
    fn default_config_is_sane() {
        let c = NetConfig::default();
        assert!(c.max_connections > 0);
        assert!(c.max_frame_ops > 0);
        assert!(c.max_inflight_per_conn > 0);
        assert!(c.quota.is_none());
        assert!(c.dispatchers > 0);
    }

    /// Closed shards refuse new routes instead of dropping them, and a
    /// drained pool joins cleanly.
    #[test]
    fn dispatcher_pool_drains_in_flight_work_on_shutdown() {
        let metrics = Arc::new(EngineMetrics::new());
        let pool = DispatcherPool::start(2, &metrics).expect("spawn");
        // A pool with nothing in flight shuts down without hanging.
        pool.shutdown();

        let pool = DispatcherPool::start(1, &metrics).expect("spawn");
        pool.shards[0].inbox.lock().expect("inbox lock").closed = true;
        let (ticket, _completer) = Ticket::detached(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let entry = RouteEntry {
            client_id: 7,
            ticket,
            conn: Arc::new(Conn::new(stream)),
        };
        assert!(pool.submit(entry).is_err(), "closed shard refuses routes");
        pool.shutdown();
    }

    /// A dispatcher that fails to spawn fails the whole start, and the
    /// dispatchers already running are stopped and joined: none is left
    /// parked on a shard that readers could still route tickets to.
    #[test]
    fn dispatcher_spawn_failure_stops_the_started_dispatchers() {
        let metrics = Arc::new(EngineMetrics::new());
        let started = DispatcherPool::start_with(3, &metrics, |index| {
            let builder = thread::Builder::new();
            // No 64-bit address space maps a 1 PiB stack.
            if index == 1 {
                builder.stack_size(1 << 50)
            } else {
                builder
            }
        });
        assert!(started.is_err(), "the failed spawn is reported");
        // Dispatcher 0 held two clones of `metrics`; once it is joined,
        // only the test's own reference is left.
        assert_eq!(Arc::strong_count(&metrics), 1);
    }
}
