//! Fault-tolerant serving, end to end: a pool with one deliberately
//! broken NACU shard keeps answering **bit-exactly** by detecting the
//! fault, quarantining the bad unit and retrying on its healthy peer.
//!
//! Three acts:
//! 1. a checked unit refuses a corrupted LUT read (typed `FaultEvent`),
//! 2. a 2-shard pool degrades gracefully — every client response stays
//!    golden while the metrics record the quarantine and retries,
//! 3. a fully broken pool fails *closed* with typed errors, never with
//!    silently corrupt outputs.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_serving
//! ```

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{
    Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, InjectionSite, Request, WaitError,
};
use nacu_faults::CheckedNacu;
use nacu_fixed::{Fx, Rounding};

/// A stuck-at-1 bit in LUT entry 0's bias word: any evaluation near
/// x = 0 reads the entry and trips parity.
fn broken_plan() -> FaultPlan {
    FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true))
}

fn main() {
    let config = NacuConfig::paper_16bit();
    let fmt = config.format;
    let x0 = Fx::from_f64(0.0, fmt, Rounding::Nearest);

    // Act 1: detection on a single checked unit.
    println!("== act 1: a checked unit refuses corrupt data ==");
    let healthy = CheckedNacu::new(config).expect("paper config");
    let broken = CheckedNacu::new(config)
        .expect("paper config")
        .with_plan(broken_plan());
    println!(
        "healthy σ(0) = {}",
        healthy.sigmoid(x0).expect("clean unit")
    );
    match broken.sigmoid(x0) {
        Ok(y) => unreachable!("corrupt read served: {y}"),
        Err(event) => println!("broken  σ(0) → {event} [{}]", event.detector()),
    }

    // Act 2: graceful degradation on a 2-shard pool.
    println!();
    println!("== act 2: quarantine + retry keeps the pool golden ==");
    let engine = Engine::new(
        EngineConfig::new(config)
            .with_workers(2)
            .with_queue_capacity(128)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![broken_plan(), FaultPlan::new()],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    let golden = Nacu::new(config).expect("paper config");
    let xs: Vec<Fx> = (0..16)
        .map(|i| Fx::from_f64(f64::from(i) * 0.01, fmt, Rounding::Nearest))
        .collect();
    let expected: Vec<Fx> = xs.iter().map(|&x| golden.sigmoid(x)).collect();
    let mut served = 0_u64;
    for _ in 0..200 {
        let a = engine.submit(Request::new(Function::Sigmoid, xs.clone()));
        let b = engine.submit(Request::new(Function::Sigmoid, xs.clone()));
        for ticket in [a, b].into_iter().flatten() {
            let response = ticket.wait().expect("a healthy shard answers");
            assert_eq!(
                response.outputs.iter().collect::<Vec<_>>(),
                expected,
                "every response is golden"
            );
            served += 1;
        }
        if engine.metrics().workers_quarantined > 0 {
            break;
        }
    }
    let m = engine.metrics();
    println!(
        "{served} responses served bit-exactly; {} fault(s) detected, \
         {} retry(ies), {} shard(s) quarantined, {} still healthy",
        m.faults_detected,
        m.retries,
        m.workers_quarantined,
        engine.healthy_workers(),
    );
    engine.shutdown();

    // Act 3: the last quarantine fails closed.
    println!();
    println!("== act 3: a fully broken pool fails closed ==");
    let engine = Engine::new(
        EngineConfig::new(config)
            .with_workers(1)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![broken_plan()],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    let err = engine
        .submit(Request::new(Function::Sigmoid, xs))
        .expect("queue accepts before the fault is seen")
        .wait()
        .expect_err("no healthy shard remains");
    assert_eq!(err, WaitError::NoHealthyWorkers);
    println!("typed failure, no corrupt output: {err}");
    println!("healthy shards: {}", engine.healthy_workers());
    engine.shutdown();
}
