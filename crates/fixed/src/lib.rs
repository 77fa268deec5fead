//! Bit-accurate two's-complement fixed-point arithmetic for the NACU
//! reproduction.
//!
//! The NACU paper (Baccelli et al., DAC 2020) models every datapath value as
//! a signed fixed-point number in the standard `Q(i_b).(f_b)` notation: one
//! sign bit, `i_b` integer bits and `f_b` fractional bits, for a total of
//! `N = 1 + i_b + f_b` bits. This crate provides:
//!
//! * [`QFormat`] — a runtime description of a Q-format (so bit-width sweeps,
//!   which the paper's evaluation relies on, are plain data),
//! * [`Fx`] — a value in a given format, stored as the raw two's-complement
//!   integer code an RTL implementation would hold in a register,
//! * [`RawCode`] — the raw-code view shared by [`Fx`] and bare `i64`
//!   codes, so batch loops serve either representation,
//! * [`Rounding`] and [`Overflow`] — explicit quantisation and overflow
//!   policies, because hardware behaviour (truncate vs round-to-nearest,
//!   wrap vs saturate) is part of what the paper evaluates,
//! * [`typed::Q`] — a zero-cost const-generic wrapper for code where the
//!   format is fixed at compile time (e.g. the 16-bit Q4.11 datapath),
//! * [`interval::FxInterval`] — outward-rounded interval arithmetic for
//!   guaranteed worst-case error enclosures.
//!
//! All arithmetic is performed on the raw integer codes with `i128`
//! intermediates, exactly as a widened hardware datapath would, so results
//! are bit-identical to an RTL simulation of the same operators.
//!
//! # Example
//!
//! ```
//! use nacu_fixed::{Fx, QFormat, Rounding};
//!
//! # fn main() -> Result<(), nacu_fixed::FxError> {
//! // The paper's 16-bit format: 1 sign + 4 integer + 11 fractional bits.
//! let q4_11 = QFormat::new(4, 11)?;
//! let a = Fx::from_f64(1.5, q4_11, Rounding::Nearest);
//! let b = Fx::from_f64(-0.25, q4_11, Rounding::Nearest);
//! let sum = a.checked_add(b)?;
//! assert_eq!(sum.to_f64(), 1.25);
//! assert_eq!(sum.raw(), 1.25_f64.mul_add(2048.0, 0.0) as i64);
//! # Ok(())
//! # }
//! ```

mod error;
mod format;
pub mod interval;
mod ops;
mod parse;
mod rounding;
pub mod typed;
mod value;

pub use error::FxError;
pub use format::QFormat;
pub use rounding::{Overflow, Rounding};
pub use value::{Fx, RawCode};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, FxError>;
