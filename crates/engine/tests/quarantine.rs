//! End-to-end graceful degradation: a pool with one deliberately broken
//! unit keeps serving **bit-exact** answers by quarantining the bad
//! worker and retrying its batches on healthy peers.

use std::time::Duration;

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{
    Engine, EngineConfig, Fault, FaultPlan, FaultTolerance, InjectionSite, Request, SubmitError,
    WaitError,
};
use nacu_fixed::{Fx, Rounding};

/// A stuck bit in LUT entry 0's bias word: any request near x = 0 reads
/// the entry and trips parity.
fn broken_plan() -> FaultPlan {
    FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true))
}

fn operands(engine: &Engine, n: usize) -> Vec<Fx> {
    let fmt = engine.format();
    (0..n)
        .map(|i| Fx::from_f64(i as f64 * 0.01, fmt, Rounding::Nearest))
        .collect()
}

/// The acceptance criterion: responses that survive a quarantine+retry
/// are bit-identical to a fault-free sequential run. Detection → retry →
/// golden output, never silently corrupt data.
#[test]
fn retried_responses_are_bit_identical_to_fault_free_run() {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(2)
            .with_queue_capacity(256)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![broken_plan(), FaultPlan::new()],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    let golden = Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
    let xs = operands(&engine, 8);
    let expected: Vec<Fx> = xs.iter().map(|&x| golden.sigmoid(x)).collect();

    // Keep two requests in flight so the broken worker is woken while its
    // healthy peer is busy; every response must be golden regardless of
    // which worker (or retry) produced it.
    let mut served = 0_u64;
    for _ in 0..200 {
        let a = engine.submit(Request::new(Function::Sigmoid, xs.clone()));
        let b = engine.submit(Request::new(Function::Sigmoid, xs.clone()));
        for ticket in [a, b].into_iter().flatten() {
            let response = ticket
                .wait_timeout(Duration::from_secs(10))
                .expect("healthy worker answers");
            assert_eq!(
                response.outputs.iter().collect::<Vec<_>>(),
                expected,
                "bit-exact despite the fault"
            );
            served += 1;
        }
        if engine.metrics().workers_quarantined > 0 {
            break;
        }
    }
    assert!(served > 0);

    let m = engine.metrics();
    if m.workers_quarantined > 0 {
        // The broken unit got work, detected, quarantined and retried.
        assert_eq!(m.workers_quarantined, 1);
        assert!(m.faults_detected >= 1);
        assert!(m.retries >= 1);
        assert_eq!(engine.healthy_workers(), 1);
        // The survivor still serves bit-exact work.
        let response = engine
            .submit(Request::new(Function::Sigmoid, xs.clone()))
            .expect("still accepting")
            .wait()
            .expect("healthy worker");
        assert_eq!(response.outputs.iter().collect::<Vec<_>>(), expected);
    }
    assert_eq!(m.requests_failed, 0, "no client ever saw an error");
    engine.shutdown();
}

/// With every worker broken the engine fails *closed*: typed errors, no
/// corrupt outputs, and fast rejection once the pool is exhausted.
#[test]
fn fully_broken_pool_fails_closed_with_typed_errors() {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(1)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![broken_plan()],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    let xs = operands(&engine, 4);
    let err = engine
        .submit(Request::new(Function::Sigmoid, xs.clone()))
        .expect("queue accepts before the fault is seen")
        .wait()
        .expect_err("no healthy worker can answer");
    assert_eq!(err, WaitError::NoHealthyWorkers);
    assert_eq!(engine.healthy_workers(), 0);
    // The pool closed the queue behind itself: instant rejection, no hang.
    assert!(matches!(
        engine.submit(Request::new(Function::Sigmoid, xs)),
        Err(SubmitError::ShuttingDown)
    ));
    let m = engine.metrics();
    assert_eq!(m.workers_quarantined, 1);
    assert_eq!(m.requests_failed, 1);
    engine.shutdown();
}

/// The fast-path fallback rule: a worker with an injected LUT fault must
/// serve from the real datapath, where the parity detector sees the
/// corrupted net — never from the response table, which would mask the
/// fault behind the golden builder's answers. The fast path is left at
/// its default (enabled); the fault plan alone forces the fallback.
#[test]
fn fault_injected_worker_serves_from_the_datapath_not_the_table() {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(1)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![broken_plan()],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    // x ≈ 0 reads the corrupted LUT entry. Had the table served this,
    // the lookup would have returned the golden value and no detector
    // could ever have fired.
    let err = engine
        .submit(Request::new(Function::Sigmoid, operands(&engine, 4)))
        .expect("queue accepts before the fault is seen")
        .wait()
        .expect_err("the datapath's parity detector fires");
    assert_eq!(err, WaitError::NoHealthyWorkers);
    let m = engine.metrics();
    assert!(
        m.faults_detected >= 1,
        "the corrupted net was exercised and detected"
    );
    assert_eq!(
        m.fast_path_ops, 0,
        "the response tables never served the faulted worker"
    );
    engine.shutdown();
}

/// Requests that only touch healthy LUT entries sail through a broken
/// worker untouched — detection is precise, not paranoid.
#[test]
fn faults_outside_the_request_path_do_not_disturb_service() {
    let engine = Engine::new(
        EngineConfig::new(NacuConfig::paper_16bit())
            .with_workers(1)
            .with_fault_tolerance(FaultTolerance {
                plans: vec![broken_plan()],
                ..FaultTolerance::default()
            }),
    )
    .expect("paper config");
    let golden = Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
    let fmt = engine.format();
    // Large |x| reads the saturation end of the table, far from entry 0.
    let xs: Vec<Fx> = (0..6)
        .map(|i| Fx::from_f64(9.0 + 0.1 * f64::from(i), fmt, Rounding::Nearest))
        .collect();
    let response = engine
        .submit(Request::new(Function::Tanh, xs.clone()))
        .expect("accepting")
        .wait()
        .expect("entry 0 never read");
    let expected: Vec<Fx> = xs.iter().map(|&x| golden.tanh(x)).collect();
    assert_eq!(response.outputs.iter().collect::<Vec<_>>(), expected);
    assert_eq!(engine.healthy_workers(), 1);
    assert_eq!(engine.metrics().faults_detected, 0);
    engine.shutdown();
}
