//! Engine-backed [`Nonlinearity`]: run layer activations on a shared
//! [`nacu_engine`] pool instead of a private sequential unit.
//!
//! This is the serving-path adapter the ROADMAP's fabric view needs: many
//! network evaluations (possibly on many client threads) funnel their
//! σ/tanh/exp/softmax work through one bounded queue onto a pool of NACU
//! shards, where same-function requests coalesce into pipelined hardware
//! batches. Results are bit-identical to [`crate::activation::NacuActivation`]
//! with the same [`nacu::NacuConfig`], because every pool worker builds
//! the identical unit.
//!
//! The [`Nonlinearity`] trait is infallible, so this adapter absorbs
//! transient [`SubmitError::Busy`] backpressure by yielding and retrying —
//! an activation inside a forward pass cannot be load-shed. Clients that
//! *can* shed load should submit [`nacu_engine::Request`]s directly.

use std::sync::Arc;
use std::time::Instant;

use nacu::Function;
use nacu_engine::{EngineHandle, FaultEvent, Request, SubmitError, WaitError};
use nacu_fixed::{Fx, QFormat};
use nacu_obs::{Obs, TraceKind};

use crate::activation::Nonlinearity;

/// A forward pass failed because the serving pool could not produce a
/// trustworthy answer — the fault-aware alternative to
/// [`EngineActivation::map_batch`]'s panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivationError {
    /// A hardware detector fired on every serving attempt; the layer's
    /// outputs would have been corrupt and were never produced.
    FaultDetected {
        /// The detector event from the final attempt.
        event: FaultEvent,
        /// Serving attempts made.
        attempts: u32,
    },
    /// Every NACU unit in the pool is quarantined.
    NoHealthyWorkers,
    /// The engine shut down (or refused the request) mid-forward-pass.
    EngineUnavailable,
}

impl std::fmt::Display for ActivationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FaultDetected { event, attempts } => {
                write!(
                    f,
                    "activation hit a detected fault ({attempts} attempts): {event}"
                )
            }
            Self::NoHealthyWorkers => write!(f, "no healthy NACU unit left in the pool"),
            Self::EngineUnavailable => write!(f, "engine unavailable mid-forward-pass"),
        }
    }
}

impl std::error::Error for ActivationError {}

/// A [`Nonlinearity`] that evaluates on an engine pool.
#[derive(Debug, Clone)]
pub struct EngineActivation {
    handle: EngineHandle,
    /// When attached (see [`EngineActivation::with_obs`]), every batch
    /// activation emits a [`TraceKind::LayerForward`] span.
    obs: Option<Arc<Obs>>,
}

impl EngineActivation {
    /// Wraps a submission handle (see [`nacu_engine::Engine::handle`]).
    #[must_use]
    pub fn new(handle: EngineHandle) -> Self {
        Self { handle, obs: None }
    }

    /// Attaches an observability surface — normally the engine's own
    /// ([`nacu_engine::Engine::obs`]) so layer spans land in the same
    /// trace ring as the queue/batch events they caused, letting a
    /// drained trace correlate "layer 2's σ activation" with the fused
    /// batches that served it.
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The underlying submission handle.
    #[must_use]
    pub fn handle(&self) -> &EngineHandle {
        &self.handle
    }

    /// Evaluates `function` over a whole operand batch on the pool,
    /// retrying while the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the engine shuts down mid-computation or rejects the
    /// request as invalid — both are programming errors for an adapter
    /// that outlives its layers.
    #[must_use]
    pub fn map_batch(&self, function: Function, operands: &[Fx]) -> Vec<Fx> {
        match self.try_map_batch(function, operands) {
            Ok(outputs) => outputs,
            Err(e) => panic!("engine failed mid-forward-pass: {e}"),
        }
    }

    /// Fault-aware [`EngineActivation::map_batch`]: transient backpressure
    /// (`Busy`, lapsed deadlines) is still absorbed by retrying, but
    /// *reliability* failures — a detected hardware fault that survived
    /// the engine's own retries, or a fully quarantined pool — surface as
    /// a typed [`ActivationError`] so the model runner can fail the
    /// inference (or fail over) instead of crashing.
    ///
    /// # Errors
    ///
    /// [`ActivationError::FaultDetected`] /
    /// [`ActivationError::NoHealthyWorkers`] when the pool cannot produce
    /// a trustworthy answer; [`ActivationError::EngineUnavailable`] when
    /// it is gone entirely.
    pub fn try_map_batch(
        &self,
        function: Function,
        operands: &[Fx],
    ) -> Result<Vec<Fx>, ActivationError> {
        let started = Instant::now();
        loop {
            match self
                .handle
                .submit(Request::new(function, operands.to_vec()))
            {
                Ok(ticket) => {
                    let req = ticket.request_id();
                    match ticket.wait() {
                        Ok(response) => {
                            if let Some(obs) = &self.obs {
                                let wall_ns =
                                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                obs.record_trace(TraceKind::LayerForward {
                                    req,
                                    function,
                                    ops: operands.len().min(u32::MAX as usize) as u32,
                                    wall_ns,
                                });
                            }
                            return Ok(response.outputs.iter().collect());
                        }
                        Err(WaitError::DeadlineExpired) => {
                            // The engine's default deadline lapsed under load;
                            // an activation cannot be dropped, so resubmit.
                            continue;
                        }
                        Err(WaitError::FaultDetected { event, attempts }) => {
                            return Err(ActivationError::FaultDetected { event, attempts });
                        }
                        Err(WaitError::NoHealthyWorkers) => {
                            return Err(ActivationError::NoHealthyWorkers);
                        }
                        Err(WaitError::EngineShutDown | WaitError::Timeout) => {
                            return Err(ActivationError::EngineUnavailable);
                        }
                    }
                }
                Err(SubmitError::Busy { .. }) => std::thread::yield_now(),
                Err(SubmitError::ShuttingDown) => {
                    return Err(ActivationError::EngineUnavailable);
                }
                Err(e @ SubmitError::Invalid(_)) => {
                    panic!("engine rejected a layer activation: {e}")
                }
            }
        }
    }
}

impl Nonlinearity for EngineActivation {
    fn format(&self) -> QFormat {
        self.handle.format()
    }

    fn sigmoid(&self, x: Fx) -> Fx {
        self.map_batch(Function::Sigmoid, &[x])[0]
    }

    fn tanh(&self, x: Fx) -> Fx {
        self.map_batch(Function::Tanh, &[x])[0]
    }

    fn exp_neg(&self, x: Fx) -> Fx {
        self.map_batch(Function::Exp, &[x])[0]
    }

    fn softmax(&self, inputs: &[Fx]) -> Vec<Fx> {
        self.map_batch(Function::Softmax, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::NacuActivation;
    use crate::data;
    use crate::train;
    use nacu::NacuConfig;
    use nacu_engine::{Engine, EngineConfig};
    use nacu_fixed::Rounding;

    fn pool(workers: usize) -> Engine {
        Engine::new(EngineConfig::new(NacuConfig::paper_16bit()).with_workers(workers))
            .expect("paper config")
    }

    #[test]
    fn engine_activation_is_bit_identical_to_sequential() {
        let engine = pool(3);
        let on_pool = EngineActivation::new(engine.handle());
        let sequential = NacuActivation::paper_16bit();
        let fmt = on_pool.format();
        for v in [-6.3, -1.5, -0.1, 0.0, 0.7, 2.0, 9.9] {
            let x = Fx::from_f64(v, fmt, Rounding::Nearest);
            assert_eq!(on_pool.sigmoid(x), sequential.sigmoid(x), "sigmoid({v})");
            assert_eq!(on_pool.tanh(x), sequential.tanh(x), "tanh({v})");
            assert_eq!(on_pool.exp_neg(x), sequential.exp_neg(x), "exp({v})");
        }
        let xs: Vec<Fx> = [-0.4, 1.2, 0.3, -2.0]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        assert_eq!(on_pool.softmax(&xs), sequential.softmax(&xs));
    }

    #[test]
    fn layer_forward_spans_land_in_the_engines_trace_ring() {
        let engine = pool(1);
        let obs = engine.obs();
        // Drop the submit/batch noise so far (there is none yet, but be
        // explicit about what this test asserts on).
        let _ = obs.drain_trace(usize::MAX);
        let nl = EngineActivation::new(engine.handle()).with_obs(engine.obs());
        let fmt = nl.format();
        let xs: Vec<Fx> = (0..5)
            .map(|i| Fx::from_f64(f64::from(i) * 0.3 - 0.6, fmt, Rounding::Nearest))
            .collect();
        let _ = nl.map_batch(Function::Tanh, &xs);
        let spans: Vec<_> = obs
            .drain_trace(usize::MAX)
            .into_iter()
            .filter(|e| matches!(e.kind, nacu_obs::TraceKind::LayerForward { .. }))
            .collect();
        assert_eq!(spans.len(), 1);
        match spans[0].kind {
            nacu_obs::TraceKind::LayerForward {
                req, function, ops, ..
            } => {
                assert!(req >= 1, "layer span carries the engine request id");
                assert_eq!(function, Function::Tanh);
                assert_eq!(ops, 5);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mlp_forward_on_the_engine_matches_sequential() {
        let engine = pool(2);
        let on_pool = EngineActivation::new(engine.handle());
        let sequential = NacuActivation::paper_16bit();
        let fmt = on_pool.format();
        let dataset = data::gaussian_blobs(24, 3, 5.0, 7);
        let net = train::train_mlp(&dataset, 8, 10, 0.05, 1).quantize(fmt);
        for features in &dataset.features {
            assert_eq!(
                net.classify(features, &on_pool),
                net.classify(features, &sequential)
            );
        }
    }

    #[test]
    fn broken_pool_surfaces_a_typed_activation_error() {
        use nacu_engine::{Fault, FaultPlan, FaultTolerance, InjectionSite};
        // One worker whose LUT entry 0 is corrupt: the first σ(0) request
        // trips parity, the pool quarantines to zero healthy units, and
        // the fault-aware path reports it instead of panicking.
        let engine = Engine::new(
            EngineConfig::new(NacuConfig::paper_16bit())
                .with_workers(1)
                .with_fault_tolerance(FaultTolerance {
                    plans: vec![FaultPlan::single(Fault::stuck_lut(
                        InjectionSite::LutBias,
                        0,
                        13,
                        true,
                    ))],
                    ..FaultTolerance::default()
                }),
        )
        .expect("paper config");
        let nl = EngineActivation::new(engine.handle());
        let x = Fx::from_f64(0.0, nl.format(), Rounding::Nearest);
        let err = nl
            .try_map_batch(Function::Sigmoid, &[x])
            .expect_err("no healthy unit can serve");
        assert!(matches!(
            err,
            ActivationError::NoHealthyWorkers | ActivationError::FaultDetected { .. }
        ));
    }

    #[test]
    fn concurrent_clients_share_one_pool() {
        let engine = pool(4);
        let sequential = NacuActivation::paper_16bit();
        let fmt = sequential.format();
        let expected: Vec<Fx> = (0..32)
            .map(|i| {
                sequential.sigmoid(Fx::from_f64(
                    f64::from(i) * 0.2 - 3.0,
                    fmt,
                    Rounding::Nearest,
                ))
            })
            .collect();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let nl = EngineActivation::new(engine.handle());
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for (i, &want) in expected.iter().enumerate() {
                        let x = Fx::from_f64(i as f64 * 0.2 - 3.0, nl.format(), Rounding::Nearest);
                        assert_eq!(nl.sigmoid(x), want);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        assert_eq!(engine.metrics().sigmoid_ops, 8 * 32);
    }
}
