//! Request/response types and the coalescing rule.
//!
//! A [`Request`] is a batch of operands for one configured function; the
//! engine answers with a [`Response`] carrying the bit-exact outputs plus
//! the modeled hardware cost of the batch it rode in. Both carry their
//! numbers as [`Codes`] — one [`QFormat`] for the batch plus its raw
//! codes — from submit (or wire decode) to reply (or reply encode);
//! [`Fx`] values appear only at the in-process API edge,
//! [`Request::new`] and [`Codes::iter`]. Scalar functions
//! (σ/tanh/exp) coalesce: consecutive queued requests for the *same*
//! function fuse into one pipelined hardware batch, paying the function's
//! pipeline fill latency once (Table I). Softmax is a two-pass vector op
//! with internal MAC/divider state, so softmax requests never fuse with
//! their neighbours.

use std::time::Instant;

use nacu::Function;
use nacu_fixed::{Fx, QFormat, RawCode};

/// One batch of fixed-point numbers: a single format plus the raw
/// two's-complement codes, 8 bytes per number.
///
/// This is the engine's only batch representation — the operands of a
/// [`Request`] and the outputs of a [`Response`]. `i64` holds every code
/// of every format up to 63 bits, so wide (datapath-walked) formats need
/// no second path. Codes are expected to fit `format`: [`Request::new`]
/// guarantees it and the wire front-end checks it; a code that does not
/// fit is gathered through a masked table index or clamped before a
/// datapath walk, so it yields a wrong answer, never a panic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Codes {
    /// The format every code is expressed in.
    pub format: QFormat,
    /// The raw codes, in batch order.
    pub raw: Vec<i64>,
}

impl Codes {
    /// Number of codes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// `true` for an empty batch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The codes as [`Fx`] values, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Fx> + '_ {
        let template = Fx::zero(self.format);
        self.raw.iter().map(move |&code| template.with_code(code))
    }
}

/// A unit of work submitted to the engine: one function over a batch of
/// operands.
///
/// For σ/tanh/exp the operands are independent scalars evaluated
/// element-wise; for softmax they are *one* vector normalised jointly
/// (Eq. 13). [`Function::Mac`] is stateful and not servable through the
/// engine.
#[derive(Debug, Clone)]
pub struct Request {
    /// The function to evaluate.
    pub function: Function,
    /// Operands, in the engine's configured format.
    pub operands: Codes,
    /// Drop the work (answering `DeadlineExpired`) if a worker picks it up
    /// after this instant. `None` falls back to the engine's default.
    pub deadline: Option<Instant>,
    /// Connection id of the wire front-end the request arrived on (`0`
    /// for in-process submissions). Carried onto the flight recorder's
    /// `submit` and `reply` spans so one socket's requests can be
    /// followed through a drained trace.
    pub client: u32,
    /// The first operand format that differed from `operands.format`
    /// when [`Request::new`] was handed mixed-format values; submit
    /// rejects such a request naming this format.
    stray_format: Option<QFormat>,
}

impl Request {
    /// A request over in-process [`Fx`] operands, with no explicit
    /// deadline: the one place values become a batch of codes. The batch
    /// takes the first operand's format; an operand in any other format
    /// is remembered so submit can reject the request, exactly as a
    /// per-operand check would.
    #[must_use]
    pub fn new(function: Function, operands: impl IntoIterator<Item = Fx>) -> Self {
        let mut operands = operands.into_iter();
        let first = operands.next();
        let format = first.map_or_else(QFormat::default, |x| x.format());
        let mut stray_format = None;
        let mut raw = Vec::with_capacity(operands.size_hint().0 + 1);
        for x in first.into_iter().chain(operands) {
            if x.format() != format && stray_format.is_none() {
                stray_format = Some(x.format());
            }
            raw.push(x.raw());
        }
        let mut request = Self::from_codes(function, Codes { format, raw });
        request.stray_format = stray_format;
        request
    }

    /// A request over a batch of codes, with no explicit deadline.
    #[must_use]
    pub fn from_codes(function: Function, operands: Codes) -> Self {
        Self {
            function,
            operands,
            deadline: None,
            client: 0,
            stray_format: None,
        }
    }

    /// The operand format that disqualifies this request for an engine
    /// running `expected`, or `None` when every operand is in `expected`.
    /// One comparison per request, not per operand.
    #[must_use]
    pub fn format_mismatch(&self, expected: QFormat) -> Option<QFormat> {
        if self.operands.format != expected {
            Some(self.operands.format)
        } else {
            self.stray_format
        }
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline relative to now.
    #[must_use]
    pub fn with_timeout(self, timeout: std::time::Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }

    /// Tags the request with the wire front-end connection id it arrived
    /// on (in-process submissions stay at the default `0`).
    #[must_use]
    pub fn with_client(mut self, client: u32) -> Self {
        self.client = client;
        self
    }

    /// Whether this request may fuse with `other` into one hardware batch.
    #[must_use]
    pub fn coalesces_with(&self, other: &Request) -> bool {
        self.function == other.function && scalar_function(self.function)
    }

    /// The request's batch class for the submit queue (see
    /// [`crate::queue::Coalesce`]): scalar functions key by function so
    /// equal-function runs fuse; softmax (and MAC, were it servable)
    /// never fuses. Two requests coalesce iff their keys are equal and
    /// not [`crate::queue::NEVER_COALESCE`] — the same relation as
    /// [`Request::coalesces_with`], precomputed to one word so the queue
    /// can peek it without touching the payload.
    #[must_use]
    pub fn coalesce_key(&self) -> u32 {
        if scalar_function(self.function) {
            self.function as u32
        } else {
            crate::queue::NEVER_COALESCE
        }
    }
}

/// True for the element-wise functions that stream through the pipeline
/// one operand per cycle.
#[must_use]
pub fn scalar_function(function: Function) -> bool {
    matches!(function, Function::Sigmoid | Function::Tanh | Function::Exp)
}

/// The engine's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outputs, positionally matching the request operands. Bit-identical
    /// to evaluating the same operands on a sequential [`nacu::Nacu`] with
    /// the engine's configuration.
    pub outputs: Codes,
    /// Index of the pool worker (and therefore NACU unit) that served it.
    pub worker: usize,
    /// Total operands in the fused hardware batch this request rode in
    /// (≥ `outputs.len()`; larger means coalescing happened).
    pub batch_ops: usize,
    /// Modeled cycles for that whole fused batch on one NACU pipeline
    /// (see [`crate::report::modeled_batch_cycles`]).
    pub batch_cycles: u64,
}

/// Why a submitted request produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A worker picked the request up after its deadline.
    DeadlineExpired,
    /// The engine shut down before serving the request.
    EngineShutDown,
    /// Every retry landed on a unit whose detectors fired; the last event
    /// is reported. The request was never answered with possibly-corrupt
    /// outputs.
    FaultDetected {
        /// The detector event from the final attempt.
        event: nacu_faults::FaultEvent,
        /// Serving attempts made (1 initial + retries).
        attempts: u32,
    },
    /// A fault was detected and every worker in the pool is quarantined —
    /// the engine has no unit left to retry on.
    NoHealthyWorkers,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExpired => write!(f, "deadline expired before a worker served it"),
            Self::EngineShutDown => write!(f, "engine shut down before serving the request"),
            Self::FaultDetected { event, attempts } => {
                write!(f, "fault detected on every attempt ({attempts}): {event}")
            }
            Self::NoHealthyWorkers => {
                write!(
                    f,
                    "all workers are quarantined; no healthy unit to retry on"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> [Fx; 1] {
        [Fx::zero(QFormat::new(4, 11).unwrap())]
    }

    #[test]
    fn scalar_requests_of_same_function_coalesce() {
        let a = Request::new(Function::Sigmoid, x());
        let b = Request::new(Function::Sigmoid, x());
        assert!(a.coalesces_with(&b));
    }

    #[test]
    fn different_functions_do_not_coalesce() {
        let a = Request::new(Function::Sigmoid, x());
        let b = Request::new(Function::Tanh, x());
        assert!(!a.coalesces_with(&b));
    }

    #[test]
    fn softmax_never_coalesces() {
        let a = Request::new(Function::Softmax, x());
        let b = Request::new(Function::Softmax, x());
        assert!(!a.coalesces_with(&b));
    }

    #[test]
    fn coalesce_key_agrees_with_the_pairwise_rule() {
        use crate::queue::NEVER_COALESCE;
        let functions = [
            Function::Sigmoid,
            Function::Tanh,
            Function::Exp,
            Function::Softmax,
        ];
        for fa in functions {
            for fb in functions {
                let a = Request::new(fa, x());
                let b = Request::new(fb, x());
                let keys_fuse =
                    a.coalesce_key() == b.coalesce_key() && a.coalesce_key() != NEVER_COALESCE;
                assert_eq!(keys_fuse, a.coalesces_with(&b), "{fa} vs {fb}");
            }
        }
    }

    /// The in-process edge converts values to one format plus codes and
    /// back without changing a bit, and remembers a stray format.
    #[test]
    fn fx_operands_round_trip_through_codes() {
        let q411 = QFormat::new(4, 11).unwrap();
        let q38 = QFormat::new(3, 8).unwrap();
        let xs = [
            Fx::min(q411),
            Fx::from_raw(-3, q411).unwrap(),
            Fx::max(q411),
        ];
        let request = Request::new(Function::Tanh, xs);
        assert_eq!(request.operands.format, q411);
        assert_eq!(request.operands.raw, [-32768, -3, 32767]);
        assert!(request.operands.iter().eq(xs));
        assert_eq!(request.operands.iter().len(), 3);
        assert_eq!(request.format_mismatch(q411), None);
        assert_eq!(request.format_mismatch(q38), Some(q411));
        let mixed = Request::new(Function::Tanh, [Fx::zero(q411), Fx::zero(q38)]);
        assert_eq!(mixed.format_mismatch(q411), Some(q38));
        let coded = Request::from_codes(
            Function::Exp,
            Codes {
                format: q38,
                raw: vec![1, 2],
            },
        );
        assert_eq!(coded.format_mismatch(q38), None);
    }

    #[test]
    fn timeout_sets_a_future_deadline() {
        let r = Request::new(Function::Exp, x()).with_timeout(std::time::Duration::from_secs(5));
        assert!(r.deadline.unwrap() > Instant::now());
    }
}
