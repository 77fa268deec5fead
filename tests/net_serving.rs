//! End-to-end acceptance for the network serving plane: pipelined TCP
//! clients get bit-identical outputs to the sequential [`Nacu`] unit,
//! every admission refusal is a typed frame on a surviving connection,
//! and the `net_*` counters land in both `/metrics` wire formats.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{Engine, EngineConfig, Request, SubmitError, TraceKind};
use nacu_fixed::{Fx, QFormat, Rounding};
use nacu_net::{NetClient, ServeNet, Status};

const WIRE_FUNCTIONS: [Function; 4] = [
    Function::Sigmoid,
    Function::Tanh,
    Function::Exp,
    Function::Softmax,
];

fn engine() -> Engine {
    Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256),
    )
    .expect("paper config")
}

/// Distinct per-client operand ramps so every request has its own golden
/// answer. Exp operands stay ≤ 0, the normalised domain of Eq. 12.
fn operands_for(fmt: QFormat, function: Function, client: usize, n: usize) -> Vec<Fx> {
    (0..n)
        .map(|i| {
            let t = (i as f64) / (n.max(2) - 1) as f64;
            let v = match function {
                Function::Exp => -8.0 * t - 0.01 * client as f64,
                _ => -6.0 + 12.0 * t + 0.05 * client as f64,
            };
            Fx::from_f64(v, fmt, Rounding::Nearest)
        })
        .collect()
}

fn golden_outputs(golden: &Nacu, function: Function, operands: &[Fx]) -> Vec<Fx> {
    match function {
        Function::Sigmoid => operands.iter().map(|&x| golden.sigmoid(x)).collect(),
        Function::Tanh => operands.iter().map(|&x| golden.tanh(x)).collect(),
        Function::Exp => operands.iter().map(|&x| golden.exp(x)).collect(),
        Function::Softmax => golden.softmax(operands).expect("golden softmax"),
        _ => unreachable!("not a wire function"),
    }
}

/// N pipelined TCP clients, mixed unary and softmax batches: every wire
/// output matches the sequential unit bit for bit, matched by request id
/// out of completion order.
#[test]
fn pipelined_clients_match_sequential_golden_bit_for_bit() {
    let engine = engine();
    let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let addr = server.addr();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client_idx| {
                scope.spawn(move || {
                    let golden = Nacu::new(NacuConfig::paper_16bit()).expect("golden unit");
                    let mut client = NetClient::connect(addr).expect("connect");
                    // Pipeline 3 rounds of all four functions before
                    // reading a single reply.
                    let mut inflight = HashMap::new();
                    for round in 0..3 {
                        for function in WIRE_FUNCTIONS {
                            let operands = operands_for(fmt, function, client_idx, 16 + 4 * round);
                            let id = client.send(function, &operands, 0).expect("send");
                            inflight.insert(id, (function, operands));
                        }
                    }
                    for _ in 0..inflight.len() {
                        let reply = client.recv().expect("recv");
                        let (function, operands) =
                            inflight.remove(&reply.id).expect("reply echoes a known id");
                        assert_eq!(reply.status, Status::Ok, "{function:?}");
                        let outputs = reply.outputs(fmt).expect("decodable outputs");
                        assert_eq!(
                            outputs,
                            golden_outputs(&golden, function, &operands),
                            "client {client_idx} {function:?} diverged from the sequential unit"
                        );
                    }
                    assert!(inflight.is_empty());
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    // The flight recorder tied those submissions to their connections.
    let conns: std::collections::HashSet<u32> = engine
        .obs()
        .drain_trace(usize::MAX)
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceKind::Submit { conn, .. } if conn != 0 => Some(conn),
            _ => None,
        })
        .collect();
    assert_eq!(conns.len(), 4, "one connection id per client in the trace");

    server.shutdown();
    engine.shutdown();
}

/// Every one of the 2^16 Q4.11 codes, for σ/tanh/exp, through a loopback
/// socket in 4096-code frames: wire decode, the engine's code batches
/// and reply encode must return exactly `Nacu::compute`'s code, with the
/// table fast path on and with every operand walking the datapath.
#[test]
fn exhaustive_q4_11_sweep_over_loopback_tcp_matches_the_datapath() {
    const FRAME: usize = 4096;
    let config = NacuConfig::paper_16bit();
    let golden = Nacu::new(config).expect("golden unit");
    let fmt = config.format;
    let inputs: Vec<Fx> = fmt
        .raw_codes()
        .map(|raw| Fx::from_raw(raw, fmt).expect("format code"))
        .collect();
    assert_eq!(inputs.len(), 1 << 16);
    for fast_path in [true, false] {
        let engine = Engine::new(
            EngineConfig::new(config)
                .with_workers(2)
                .with_fast_path(fast_path),
        )
        .expect("paper config");
        let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(server.addr()).expect("connect");
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            // All 16 frames of one function in flight, then every reply.
            let mut inflight = HashMap::new();
            for chunk in inputs.chunks(FRAME) {
                let id = client.send(function, chunk, 0).expect("send");
                inflight.insert(id, chunk);
            }
            while !inflight.is_empty() {
                let reply = client.recv().expect("recv");
                let chunk = inflight.remove(&reply.id).expect("known id");
                assert_eq!(reply.status, Status::Ok, "{function:?}");
                assert_eq!(reply.codes.len(), chunk.len());
                for (&x, &code) in chunk.iter().zip(&reply.codes) {
                    assert_eq!(
                        i64::from(code),
                        golden.compute(function, x).raw(),
                        "{function:?} at {x} (fast path {fast_path})"
                    );
                }
            }
        }
        let served = engine.metrics();
        let expected_fast = if fast_path { 3 << 16 } else { 0 };
        assert_eq!(served.fast_path_ops, expected_fast);
        server.shutdown();
        engine.shutdown();
    }
}

/// 256 concurrent pipelined connections through the fixed dispatcher
/// pool: every socket keeps several requests in flight at once, yet the
/// reply plane runs on two dispatcher threads total — and every output
/// stays bit-identical to the sequential unit.
#[test]
fn two_hundred_fifty_six_connections_share_two_dispatchers() {
    const CONNS: usize = 256;
    const PIPELINED: usize = 4;

    // Queue sized for the full in-flight load (CONNS × PIPELINED): this
    // test is about the reply plane, so admission must never say BUSY.
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(2 * CONNS * PIPELINED),
    )
    .expect("paper config");
    let mut server = engine
        .handle()
        .serve_net_with(
            "127.0.0.1:0",
            nacu_net::NetConfig {
                max_connections: CONNS + 8,
                dispatchers: 2,
                ..nacu_net::NetConfig::default()
            },
        )
        .expect("bind");
    let fmt = engine.format();
    let addr = server.addr();
    let golden = Nacu::new(NacuConfig::paper_16bit()).expect("golden unit");

    // Phase 1: open every connection and pipeline its whole batch
    // before reading a single reply — all 256 sockets have work in
    // flight simultaneously.
    let mut clients: Vec<(NetClient, HashMap<u64, Vec<Fx>>)> = Vec::with_capacity(CONNS);
    for conn_idx in 0..CONNS {
        let mut client = NetClient::connect(addr).expect("connect");
        let mut inflight = HashMap::new();
        for round in 0..PIPELINED {
            let operands = operands_for(fmt, Function::Sigmoid, conn_idx, 8 + round);
            let id = client.send(Function::Sigmoid, &operands, 0).expect("send");
            inflight.insert(id, operands);
        }
        clients.push((client, inflight));
    }

    // Phase 2: drain every socket and check outputs bit-for-bit.
    for (client, inflight) in &mut clients {
        for _ in 0..PIPELINED {
            let reply = client.recv().expect("recv");
            assert_eq!(reply.status, Status::Ok);
            let operands = inflight.remove(&reply.id).expect("known id");
            assert_eq!(
                reply.outputs(fmt).expect("decodable outputs"),
                golden_outputs(&golden, Function::Sigmoid, &operands),
                "pipelined reply diverged from the sequential unit"
            );
        }
        assert!(inflight.is_empty());
    }

    // The async plane did the routing: wakers were registered for
    // in-flight tickets and dispatcher batches carried the replies.
    let snapshot = engine.metrics();
    assert!(
        snapshot.async_dispatcher_batches > 0,
        "replies must flow through the dispatcher pool"
    );

    server.shutdown();
    engine.shutdown();
}

/// A full engine queue answers with a typed BUSY frame — and the
/// connection survives to serve the retry.
#[test]
fn queue_full_answers_busy_frame_on_a_surviving_connection() {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(1)
            .with_queue_capacity(1)
            .with_fast_path(false),
    )
    .expect("paper config");
    let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let handle = engine.handle();
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let small = operands_for(fmt, Function::Sigmoid, 0, 8);

    // Pin the single worker on a long datapath softmax, then keep the
    // one-slot queue topped up in-process until a wire request bounces.
    // Sized for the compiled walk (~15 ns per softmax operand): the pin
    // holds the worker for tens of ms and each filler for a few, longer
    // than a probe's round trip on a loaded host.
    let pinned = handle
        .submit(Request::new(
            Function::Softmax,
            operands_for(fmt, Function::Tanh, 0, 2_000_000),
        ))
        .expect("pin the worker");
    let mut fillers = Vec::new();
    let mut busy = None;
    'provoke: for _ in 0..100 {
        while fillers.len() < 64 {
            match handle.submit(Request::new(
                Function::Softmax,
                operands_for(fmt, Function::Tanh, 0, 200_000),
            )) {
                Ok(ticket) => fillers.push(ticket),
                Err(SubmitError::Busy { .. }) => break,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        let reply = client.call(Function::Sigmoid, &small, 0).expect("probe");
        match reply.status {
            Status::Busy => {
                assert_eq!(reply.codes.len(), 0, "BUSY is a control frame");
                busy = Some(reply);
                break 'provoke;
            }
            Status::Ok => {} // queue drained between top-up and probe; retry
            other => panic!("unexpected status {other:?}"),
        }
    }
    let busy = busy.expect("queue-full wire request answered BUSY");
    assert_eq!(busy.status, Status::Busy);

    for ticket in fillers {
        let _ = ticket.wait();
    }
    let _ = pinned.wait();

    // Same socket, after the backlog drains: served normally.
    let reply = client.call(Function::Sigmoid, &small, 0).expect("retry");
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.codes.len(), 8);

    server.shutdown();
    engine.shutdown();
}

/// A deadline below the modeled hardware floor is refused with a typed
/// SHED frame before enqueueing; the connection keeps serving.
#[test]
fn unmeetable_deadline_answers_shed_frame() {
    let engine = engine();
    let mut server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let mut client = NetClient::connect(server.addr()).expect("connect");

    let big = operands_for(fmt, Function::Softmax, 0, 4096);
    let reply = client.call(Function::Softmax, &big, 1).expect("shed call");
    assert_eq!(reply.status, Status::Shed);
    assert_eq!(reply.codes.len(), 0, "SHED is a control frame");

    // Generous deadlines pass; the connection is unharmed.
    let reply = client
        .call(Function::Softmax, &big, 5_000_000)
        .expect("generous deadline");
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.codes.len(), 4096);

    assert!(engine.metrics().net_requests_shed >= 1);
    server.shutdown();
    engine.shutdown();
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape server");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response head");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

const NET_COUNTERS: [&str; 7] = [
    "nacu_net_connections_accepted_total",
    "nacu_net_connections_rejected_total",
    "nacu_net_frames_in_total",
    "nacu_net_frames_out_total",
    "nacu_net_requests_shed_total",
    "nacu_net_quota_limited_total",
    "nacu_net_protocol_errors_total",
];

fn prom_value(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
        .trim()
        .parse()
        .expect("integer counter")
}

/// The wire plane's counters are visible — with the pinned names — in
/// both `/metrics` formats served by the observability scrape server.
#[test]
fn net_counters_land_in_both_metrics_wire_formats() {
    let engine = engine();
    let mut net = engine.handle().serve_net("127.0.0.1:0").expect("bind net");
    let obs = engine.handle().serve_obs("127.0.0.1:0").expect("bind obs");
    let fmt = engine.format();

    // Leave fingerprints on several counters: two served frames, one
    // shed, one protocol error.
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let small = operands_for(fmt, Function::Sigmoid, 0, 8);
    assert_eq!(
        client
            .call(Function::Sigmoid, &small, 0)
            .expect("ok")
            .status,
        Status::Ok
    );
    assert_eq!(
        client
            .call(
                Function::Softmax,
                &operands_for(fmt, Function::Softmax, 0, 4096),
                1
            )
            .expect("shed")
            .status,
        Status::Shed
    );
    let mut hostile = NetClient::connect(net.addr()).expect("hostile");
    hostile
        .send_raw(b"\x08\x00\x00\x00NOTNACU!")
        .expect("garbage");
    assert_eq!(hostile.recv().expect("typed error").status, Status::Error);
    // The error frame is the last wire write; once it is readable the
    // counters below are already recorded.
    std::thread::sleep(Duration::from_millis(50));

    let (status, prom) = get(obs.local_addr(), "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    for name in NET_COUNTERS {
        assert!(
            prom.contains(&format!("{name} ")),
            "{name} missing:\n{prom}"
        );
    }
    assert!(prom_value(&prom, "nacu_net_connections_accepted_total") >= 2);
    assert!(prom_value(&prom, "nacu_net_frames_in_total") >= 2);
    assert!(prom_value(&prom, "nacu_net_frames_out_total") >= 3);
    assert!(prom_value(&prom, "nacu_net_requests_shed_total") >= 1);
    assert!(prom_value(&prom, "nacu_net_protocol_errors_total") >= 1);

    let (status, json) = get(obs.local_addr(), "/metrics.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    for name in NET_COUNTERS {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "{name} missing:\n{json}"
        );
    }

    drop(obs);
    net.shutdown();
    engine.shutdown();
}
