//! Each layer replayed alone, single-threaded, on the workload's exact
//! inputs, with nothing wired to the next layer.
//!
//! Every row is the best of repeated passes of the timed part only
//! (interference from other tenants only ever adds time), with the rows'
//! passes interleaved across the whole budget; untimed set-up (copying
//! operands back into the scratch buffer, pre-encoding frames to decode)
//! happens between passes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nacu::{Function, Nacu, NacuConfig, ResponseTable, ResponseTables};
use nacu_engine::executor::{BatchExecutor, DatapathWalk, ScalarGather};
use nacu_engine::queue::{BoundedQueue, Coalesce};
use nacu_engine::Request;
use nacu_faults::CheckedNacu;
use nacu_fixed::{Fx, QFormat};
use nacu_net::proto::{decode_reply, decode_request, encode_reply, encode_request};
use nacu_net::{ReplyFrame, RequestFrame, Status};

use crate::util::median;
use crate::workload::Pool;

const SCALAR: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// The isolated per-layer costs of one workload.
#[derive(Debug)]
pub struct Isolated {
    pub table_build_s: f64,
    pub lookup_ns_per_op: f64,
    /// σ, tanh, exp through `Nacu::compute`.
    pub datapath_ns_per_op: [f64; 3],
    pub softmax_ns_per_vec: f64,
    pub gather_ns_per_op: f64,
    pub walk_ns_per_op: f64,
    pub queue_ns_per_item: f64,
    /// encode_req, decode_req, encode_reply, decode_reply.
    pub proto_ns_per_op: [f64; 4],
    pub memcpy_gbps: f64,
}

impl Isolated {
    pub fn proto_sum(&self) -> f64 {
        self.proto_ns_per_op.iter().sum()
    }
}

/// The queue's payload: a workload request keyed exactly as the engine
/// keys its jobs.
struct QueuedRequest(Request);

impl Coalesce for QueuedRequest {
    fn coalesce_key(&self) -> u32 {
        self.0.coalesce_key()
    }
}

/// One layer's replay: a pass returns the time of its measured part and
/// the units it processed.
type Row<'a> = Box<dyn FnMut() -> (Duration, usize) + 'a>;

/// Rounds the rows are interleaved over, so that a burst of host noise
/// cannot cover all of one row's passes.
const ROUNDS: u32 = 6;

/// Runs every row in `ROUNDS` interleaved slices of `budget` and returns
/// each row's best pass in ns per unit.
fn best_of_interleaved(budget: Duration, rows: &mut [Row<'_>]) -> Vec<f64> {
    let slice = budget / (ROUNDS * rows.len() as u32);
    let mut best = vec![f64::INFINITY; rows.len()];
    for _ in 0..ROUNDS {
        for (row, best) in rows.iter_mut().zip(&mut best) {
            let started = Instant::now();
            loop {
                let (took, units) = row();
                *best = best.min(took.as_nanos() as f64 / units.max(1) as f64);
                if started.elapsed() >= slice {
                    break;
                }
            }
        }
    }
    best
}

/// Times `codec` over every input once.
fn codec_pass<I, O>(inputs: &[I], ops: usize, codec: impl Fn(&I) -> O) -> (Duration, usize) {
    let t0 = Instant::now();
    for input in inputs {
        black_box(codec(black_box(input)));
    }
    (t0.elapsed(), ops)
}

/// Operands of one function laid out back to back, with the request
/// boundaries the engine would execute them in.
struct Scalars {
    flat: Vec<Fx>,
    /// (function, range in `flat`) per request.
    requests: Vec<(Function, std::ops::Range<usize>)>,
}

impl Scalars {
    fn of(pool: &Pool, requantise: Option<QFormat>) -> Self {
        let mut flat = Vec::new();
        let mut requests = Vec::new();
        for item in pool.items.iter().filter(|i| SCALAR.contains(&i.function)) {
            let start = flat.len();
            flat.extend(item.operands.iter().map(|&x| match requantise {
                Some(format) => to_format(x, format),
                None => x,
            }));
            requests.push((item.function, start..flat.len()));
        }
        Self { flat, requests }
    }

    fn ops_of(&self, function: Function) -> Vec<Fx> {
        self.requests
            .iter()
            .filter(|(f, _)| *f == function)
            .flat_map(|(_, r)| self.flat[r.clone()].iter().copied())
            .collect()
    }

    /// Times `execute` over every request once, on a fresh copy.
    fn replay(
        &self,
        scratch: &mut Vec<Fx>,
        mut execute: impl FnMut(Function, &mut [Fx]),
    ) -> (Duration, usize) {
        scratch.clear();
        scratch.extend_from_slice(&self.flat);
        let t0 = Instant::now();
        for (function, range) in &self.requests {
            execute(*function, &mut scratch[range.clone()]);
        }
        let took = t0.elapsed();
        black_box(&scratch);
        (took, self.flat.len())
    }
}

/// `x` moved to `format` by shifting away (or in) fraction bits; both
/// formats here carry four integer bits, so the value range is kept.
fn to_format(x: Fx, format: QFormat) -> Fx {
    let shift = i64::from(x.format().frac_bits()) - i64::from(format.frac_bits());
    let raw = if shift >= 0 {
        x.raw() >> shift
    } else {
        x.raw() << -shift
    };
    Fx::from_raw_saturating(raw, format)
}

pub fn measure(pool: &Pool, config: NacuConfig, budget: Duration) -> Isolated {
    let nacu = Nacu::new(config).expect("valid workload configuration");
    let mut builds = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(ResponseTables::build(black_box(&nacu)));
        builds.push(t0.elapsed().as_secs_f64());
    }

    // Formats past the table budget have no tables: the table rows then
    // time the same requests requantised to the paper's 16-bit format.
    let table_format = if config.format.total_bits() <= ResponseTables::MAX_TABLE_BITS {
        config
    } else {
        NacuConfig::paper_16bit()
    };
    let tables = ResponseTables::build(&Nacu::new(table_format).expect("paper format"))
        .expect("16-bit formats are tabulated");
    let table = |f: Function| -> &ResponseTable { tables.get(f).expect("scalar function table") };
    let native = Scalars::of(pool, None);
    let tabled = if table_format == config {
        None
    } else {
        Some(Scalars::of(pool, Some(table_format.format)))
    };
    let tabled = tabled.as_ref().unwrap_or(&native);
    let gathers = SCALAR.map(|f| ScalarGather::new(table(f)));
    let checked = CheckedNacu::new(config).expect("valid workload configuration");
    let walks = SCALAR.map(|f| DatapathWalk::new(&checked, f));
    let position = |f: Function| SCALAR.iter().position(|&s| s == f).expect("scalar");
    let per_function = SCALAR.map(|f| native.ops_of(f));

    // Softmax replays the workload's own vectors; a workload without any
    // uses 10-element vectors cut from its operand stream.
    let mut vectors: Vec<&[Fx]> = pool
        .items
        .iter()
        .filter(|i| i.function == Function::Softmax)
        .map(|i| i.operands.as_slice())
        .collect();
    if vectors.is_empty() {
        vectors = pool
            .items
            .iter()
            .flat_map(|i| i.operands.chunks_exact(10))
            .take(1024)
            .collect();
    }

    let queue: BoundedQueue<QueuedRequest> = BoundedQueue::new(256);
    let mut items: Vec<QueuedRequest> = pool
        .items
        .iter()
        .map(|i| QueuedRequest(Request::new(i.function, i.operands.clone())))
        .collect();
    let mut batch = Vec::with_capacity(32);

    // The wire carries 16-bit codes; the 20-bit workload's frames are
    // requantised the same way as its table rows.
    let wire_format = table_format.format;
    let frames: Vec<RequestFrame> = pool
        .items
        .iter()
        .enumerate()
        .map(|(k, i)| RequestFrame {
            function: i.function,
            format: wire_format,
            id: k as u64 + 1,
            deadline_micros: 0,
            codes: i
                .operands
                .iter()
                .map(|&x| to_format(x, wire_format).raw() as i16)
                .collect(),
        })
        .collect();
    let replies: Vec<ReplyFrame> = pool
        .items
        .iter()
        .enumerate()
        .map(|(k, i)| ReplyFrame {
            status: Status::Ok,
            code: 0,
            id: k as u64 + 1,
            codes: i
                .golden
                .iter()
                .map(|&raw| {
                    to_format(Fx::from_raw_saturating(raw, pool.format), wire_format).raw() as i16
                })
                .collect(),
        })
        .collect();
    let encoded_requests: Vec<Vec<u8>> = frames.iter().map(encode_request).collect();
    let encoded_replies: Vec<Vec<u8>> = replies.iter().map(encode_reply).collect();
    let ops = pool.ops;

    // Host calibration: a 16 MiB copy, far larger than the caches.
    let src = vec![1u8; 16 << 20];
    let mut dst = vec![0u8; 16 << 20];

    let (mut lookup_scratch, mut gather_scratch, mut walk_scratch) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut rows: Vec<Row<'_>> = vec![
        Box::new(|| tabled.replay(&mut lookup_scratch, |f, xs| table(f).lookup_in_place(xs))),
        Box::new(|| {
            tabled.replay(&mut gather_scratch, |f, xs| {
                gathers[position(f)]
                    .execute(xs)
                    .expect("table gathers are infallible");
            })
        }),
        Box::new(|| {
            native.replay(&mut walk_scratch, |f, xs| {
                walks[position(f)]
                    .execute(xs)
                    .expect("a healthy unit raises no fault");
            })
        }),
    ];
    for (function, ops) in SCALAR.into_iter().zip(&per_function) {
        let nacu = &nacu;
        rows.push(Box::new(move || {
            let t0 = Instant::now();
            for &x in ops {
                black_box(nacu.compute(function, black_box(x)));
            }
            (t0.elapsed(), ops.len())
        }));
    }
    rows.push(Box::new(|| {
        let t0 = Instant::now();
        for v in &vectors {
            black_box(nacu.softmax(black_box(v)).expect("non-empty vector"));
        }
        (t0.elapsed(), vectors.len())
    }));
    rows.push(Box::new(|| {
        let mut back = Vec::with_capacity(items.len());
        let n = items.len();
        let t0 = Instant::now();
        let mut pending = items.drain(..).peekable();
        while pending.peek().is_some() {
            let mut pushed = 0;
            for item in pending.by_ref().take(64) {
                if queue.try_push(item).is_err() {
                    unreachable!("the queue holds 256 and at most 64 are queued");
                }
                pushed += 1;
            }
            let mut popped = 0;
            while popped < pushed {
                queue.pop_batch_into(32, &mut batch);
                popped += batch.len();
                back.append(&mut batch);
            }
        }
        let took = t0.elapsed();
        drop(pending);
        items = back;
        (took, n)
    }));
    rows.push(Box::new(|| codec_pass(&frames, ops, encode_request)));
    rows.push(Box::new(|| {
        codec_pass(&encoded_requests, ops, |bytes| {
            decode_request(&bytes[4..], 1 << 16).expect("valid frame")
        })
    }));
    rows.push(Box::new(|| codec_pass(&replies, ops, encode_reply)));
    rows.push(Box::new(|| {
        codec_pass(&encoded_replies, ops, |bytes| {
            decode_reply(&bytes[4..]).expect("valid frame")
        })
    }));
    rows.push(Box::new(|| {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        (t0.elapsed(), src.len())
    }));

    let best = best_of_interleaved(budget, &mut rows);
    Isolated {
        table_build_s: median(&builds),
        lookup_ns_per_op: best[0],
        gather_ns_per_op: best[1],
        walk_ns_per_op: best[2],
        datapath_ns_per_op: [best[3], best[4], best[5]],
        softmax_ns_per_vec: best[6],
        queue_ns_per_item: best[7],
        proto_ns_per_op: [best[8], best[9], best[10], best[11]],
        // A byte per ns is a GB/s.
        memcpy_gbps: 1.0 / best[12],
    }
}
