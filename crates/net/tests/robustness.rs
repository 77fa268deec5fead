//! Fuzz-style robustness tests: a live serving plane fed truncated and
//! garbage byte streams must answer with typed frames (or close
//! cleanly), never hang a worker — the engine keeps serving in-process
//! work bit-identically throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nacu::{Function, NacuConfig};
use nacu_engine::{Engine, EngineConfig, Request};
use nacu_fixed::{Fx, QFormat};
use nacu_net::proto::{code, decode_reply, encode_request, RequestFrame, Status};
use nacu_net::{NetClient, NetConfig, ServeNet};

fn engine() -> Engine {
    Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(64),
    )
    .expect("paper config")
}

fn ramp(fmt: QFormat, n: usize) -> Vec<Fx> {
    (0..n)
        .map(|i| Fx::from_raw((i as i64 % 65) - 32, fmt).expect("small raw"))
        .collect()
}

/// The engine must still serve after a hostile connection — the real
/// assertion behind every test here.
fn assert_engine_alive(engine: &Engine) {
    let fmt = engine.format();
    let response = engine
        .submit(Request::new(Function::Sigmoid, ramp(fmt, 8)))
        .expect("submit after abuse")
        .wait_timeout(Duration::from_secs(5))
        .expect("serve after abuse");
    assert_eq!(response.outputs.len(), 8);
}

#[test]
fn garbage_stream_gets_protocol_error_and_close() {
    let engine = engine();
    let server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    // A plausible length prefix followed by garbage.
    let mut bytes = 40_u32.to_le_bytes().to_vec();
    bytes.extend(std::iter::repeat_n(0xAB, 40));
    client.send_raw(&bytes).expect("write garbage");
    let reply = client.recv().expect("typed error reply");
    assert_eq!(reply.status, Status::Error);
    assert_eq!(reply.code, code::PROTOCOL);
    assert_eq!(reply.id, 0, "no id recoverable from garbage");
    // The server closed the stream after the error frame.
    assert!(client.recv().is_err());
    assert_engine_alive(&engine);
    let m = engine.metrics();
    assert!(m.net_protocol_errors >= 1);
}

#[test]
fn oversize_length_prefix_is_refused_without_allocation() {
    let engine = engine();
    let server = engine
        .handle()
        .serve_net_with(
            "127.0.0.1:0",
            NetConfig {
                max_frame_ops: 16,
                ..NetConfig::default()
            },
        )
        .expect("bind");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    client
        .send_raw(&u32::MAX.to_le_bytes())
        .expect("hostile length");
    let reply = client.recv().expect("typed error reply");
    assert_eq!(reply.status, Status::Error);
    assert_eq!(reply.code, code::PROTOCOL);
    assert_engine_alive(&engine);
}

#[test]
fn truncated_frame_mid_payload_closes_without_stalling_workers() {
    let engine = engine();
    let server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let good = encode_request(&RequestFrame {
        function: Function::Tanh,
        format: fmt,
        id: 1,
        deadline_micros: 0,
        codes: vec![0; 16],
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&good[..good.len() / 2]).expect("half");
    drop(stream); // die mid-frame
                  // No reply is possible; the server must just release the slot.
    assert_engine_alive(&engine);
}

#[test]
fn byte_mutations_of_valid_frames_never_hang_the_server() {
    let engine = engine();
    let server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let good = encode_request(&RequestFrame {
        function: Function::Exp,
        format: fmt,
        id: 9,
        deadline_micros: 0,
        codes: vec![1, -2, 3],
    });
    // Flip one byte at a time across the envelope fields; every mutant
    // gets a connection and must be answered or cleanly dropped.
    for at in 4..nacu_net::proto::REQUEST_HEADER_LEN + 4 {
        let mut mutant = good.clone();
        mutant[at] ^= 0x80;
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(&mutant).expect("send mutant");
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Read whatever comes back until close; must not time out.
        let mut sink = Vec::new();
        stream
            .read_to_end(&mut sink)
            .expect("server answers or closes");
        // Any reply bytes must decode as a typed frame.
        if sink.len() >= 4 {
            let declared = u32::from_le_bytes(sink[..4].try_into().unwrap()) as usize;
            assert!(sink.len() >= 4 + declared, "whole frame written");
            decode_reply(&sink[4..4 + declared]).expect("typed reply frame");
        }
    }
    assert_engine_alive(&engine);
}

#[test]
fn mixed_garbage_after_valid_traffic_poisons_only_its_own_connection() {
    let engine = engine();
    let server = engine.handle().serve_net("127.0.0.1:0").expect("bind");
    let fmt = engine.format();
    let mut healthy = NetClient::connect(server.addr()).expect("healthy client");
    let mut hostile = NetClient::connect(server.addr()).expect("hostile client");

    let id = healthy
        .send(Function::Sigmoid, &ramp(fmt, 4), 0)
        .expect("send");
    let reply = healthy.recv().expect("recv");
    assert_eq!(reply.id, id);
    assert_eq!(reply.status, Status::Ok);

    hostile
        .send_raw(b"\x08\x00\x00\x00GARBAGE!")
        .expect("garbage");
    let poisoned = hostile.recv().expect("typed error");
    assert_eq!(poisoned.status, Status::Error);

    // The healthy connection is unaffected.
    let id = healthy
        .send(Function::Softmax, &ramp(fmt, 6), 0)
        .expect("send again");
    let reply = healthy.recv().expect("recv again");
    assert_eq!(reply.id, id);
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.codes.len(), 6);
    assert_engine_alive(&engine);
}

/// The narrow-format range check over a real socket: an engine at Q2.5
/// (8-bit, codes −128..=127) gets a frame carrying code 30000. That frame
/// is answered ERROR/PROTOCOL under its own id and counted, and a
/// well-formed frame on a second connection is still served.
#[test]
fn narrow_format_out_of_range_code_is_a_protocol_error() {
    let q2_5 = QFormat::new(2, 5).expect("valid format");
    let config = NacuConfig {
        format: q2_5,
        ..NacuConfig::for_width(8).expect("8-bit config")
    };
    let engine = Engine::new(EngineConfig::new(config).with_workers(2)).expect("Q2.5 engine");
    assert_eq!(engine.format(), q2_5);
    let server = engine.handle().serve_net("127.0.0.1:0").expect("bind");

    let mut hostile = TcpStream::connect(server.addr()).expect("hostile client");
    let frame = RequestFrame {
        function: Function::Sigmoid,
        format: q2_5,
        id: 99,
        deadline_micros: 0,
        codes: vec![1, 30_000, -2],
    };
    hostile
        .write_all(&encode_request(&frame))
        .expect("write out-of-range frame");
    let mut len = [0u8; 4];
    hostile.read_exact(&mut len).expect("reply length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    hostile.read_exact(&mut payload).expect("reply payload");
    let reply = decode_reply(&payload).expect("typed reply");
    assert_eq!(reply.status, Status::Error);
    assert_eq!(reply.code, code::PROTOCOL);
    assert_eq!(reply.id, 99, "the frame decoded, so its id is echoed");
    assert!(reply.codes.is_empty());
    assert_eq!(engine.metrics().net_protocol_errors, 1);

    let mut healthy = NetClient::connect(server.addr()).expect("healthy client");
    let operands: Vec<Fx> = [-128, -1, 0, 127]
        .iter()
        .map(|&raw| Fx::from_raw(raw, q2_5).expect("fits Q2.5"))
        .collect();
    let reply = healthy
        .call(Function::Tanh, &operands, 0)
        .expect("well-formed call");
    assert_eq!(reply.status, Status::Ok);
    let golden = nacu::Nacu::new(config).expect("golden unit");
    let expected: Vec<i16> = operands
        .iter()
        .map(|&x| golden.tanh(x).raw() as i16)
        .collect();
    assert_eq!(reply.codes, expected);
    assert_engine_alive(&engine);
}
