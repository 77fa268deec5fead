use std::fmt;

use crate::{FxError, Overflow, QFormat, Result, Rounding};

/// A signed fixed-point value: a raw two's-complement code plus its
/// [`QFormat`].
///
/// `Fx` is the workhorse of the whole workspace: every LUT entry, datapath
/// register and activation result is an `Fx`. The raw code is what an RTL
/// register would hold; [`Fx::to_f64`] is only for reporting.
///
/// Binary operations require both operands to carry the *same* format and
/// return [`FxError::FormatMismatch`] otherwise — NACU is a fixed-width
/// datapath and an accidental mixed-format operation is a modelling bug.
/// Use [`Fx::resize`] for explicit, policy-controlled conversions.
///
/// # Example
///
/// ```
/// use nacu_fixed::{Fx, QFormat, Rounding};
///
/// # fn main() -> Result<(), nacu_fixed::FxError> {
/// let q = QFormat::new(4, 11)?;
/// let x = Fx::from_f64(3.14159, q, Rounding::Nearest);
/// let y = x.checked_mul(x, Rounding::Nearest)?;
/// assert!((y.to_f64() - 9.8696).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx {
    raw: i64,
    format: QFormat,
}

impl Fx {
    /// Creates a value from a raw two's-complement code.
    ///
    /// # Errors
    ///
    /// Returns [`FxError::Overflow`] if `raw` does not fit `format`.
    pub fn from_raw(raw: i64, format: QFormat) -> Result<Self> {
        if format.contains_raw(raw) {
            Ok(Self { raw, format })
        } else {
            Err(FxError::Overflow { format })
        }
    }

    /// Creates a value from a raw code, saturating it into range first.
    #[must_use]
    pub fn from_raw_saturating(raw: i64, format: QFormat) -> Self {
        Self {
            raw: format.saturate_raw(raw as i128),
            format,
        }
    }

    /// Quantises an `f64` into `format` with the given rounding, saturating
    /// at the format's range limits (the hardware-natural behaviour for an
    /// out-of-range stimulus).
    #[must_use]
    pub fn from_f64(value: f64, format: QFormat, rounding: Rounding) -> Self {
        let q = rounding.quantize(value, format.frac_bits());
        Self {
            raw: format.saturate_raw(q),
            format,
        }
    }

    /// The zero value in `format`.
    #[must_use]
    pub fn zero(format: QFormat) -> Self {
        Self { raw: 0, format }
    }

    /// The value 1.0 in `format`.
    ///
    /// # Panics
    ///
    /// Panics if `format` has zero integer bits (1.0 is not representable);
    /// such formats hold only the interval `[-1, 1)`.
    #[must_use]
    pub fn one(format: QFormat) -> Self {
        assert!(
            format.int_bits() >= 1,
            "1.0 is not representable in {format}"
        );
        Self {
            raw: format.scale(),
            format,
        }
    }

    /// Largest representable value of `format`.
    #[must_use]
    pub fn max(format: QFormat) -> Self {
        Self {
            raw: format.max_raw(),
            format,
        }
    }

    /// Smallest (most negative) representable value of `format`.
    #[must_use]
    pub fn min(format: QFormat) -> Self {
        Self {
            raw: format.min_raw(),
            format,
        }
    }

    /// The raw two's-complement code.
    #[must_use]
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The format this value is encoded in.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Converts to `f64` (exact: every ≤63-bit code fits in an `f64`'s
    /// dynamic range, though codes above 53 bits may lose low-order bits).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * self.format.resolution()
    }

    /// Re-encodes into another format with explicit rounding and overflow
    /// policies.
    #[must_use]
    pub fn resize(&self, format: QFormat, rounding: Rounding, overflow: Overflow) -> Self {
        let widened = self.raw as i128;
        let adjusted = if format.frac_bits() >= self.format.frac_bits() {
            widened << (format.frac_bits() - self.format.frac_bits())
        } else {
            rounding.shift_right(widened, self.format.frac_bits() - format.frac_bits())
        };
        let raw = match overflow {
            Overflow::Saturate => format.saturate_raw(adjusted),
            Overflow::Wrap => format.wrap_raw(adjusted),
        };
        Self { raw, format }
    }

    fn check_format(&self, other: &Self) -> Result<()> {
        if self.format == other.format {
            Ok(())
        } else {
            Err(FxError::FormatMismatch {
                lhs: self.format,
                rhs: other.format,
            })
        }
    }

    fn store(&self, wide: i128, overflow: Overflow) -> Result<Self> {
        let raw = match overflow {
            Overflow::Saturate => self.format.saturate_raw(wide),
            Overflow::Wrap => self.format.wrap_raw(wide),
        };
        Ok(Self {
            raw,
            format: self.format,
        })
    }

    /// Addition that reports overflow instead of clamping.
    ///
    /// # Errors
    ///
    /// [`FxError::FormatMismatch`] on differing formats,
    /// [`FxError::Overflow`] if the exact sum does not fit.
    pub fn checked_add(&self, other: Self) -> Result<Self> {
        self.check_format(&other)?;
        let wide = self.raw as i128 + other.raw as i128;
        if wide == wide as i64 as i128 && self.format.contains_raw(wide as i64) {
            return Ok(Self {
                raw: wide as i64,
                format: self.format,
            });
        }
        Err(FxError::Overflow {
            format: self.format,
        })
    }

    /// Subtraction that reports overflow instead of clamping.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fx::checked_add`].
    pub fn checked_sub(&self, other: Self) -> Result<Self> {
        self.check_format(&other)?;
        let wide = self.raw as i128 - other.raw as i128;
        if wide == wide as i64 as i128 && self.format.contains_raw(wide as i64) {
            return Ok(Self {
                raw: wide as i64,
                format: self.format,
            });
        }
        Err(FxError::Overflow {
            format: self.format,
        })
    }

    /// Multiplication with explicit rounding; reports overflow.
    ///
    /// The full `2N`-bit product is formed in an `i128` (the widened
    /// multiplier output register), then re-scaled by `f_b` bits with
    /// `rounding`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fx::checked_add`].
    pub fn checked_mul(&self, other: Self, rounding: Rounding) -> Result<Self> {
        self.check_format(&other)?;
        let product = self.raw as i128 * other.raw as i128;
        let scaled = rounding.shift_right(product, self.format.frac_bits());
        if scaled == scaled as i64 as i128 && self.format.contains_raw(scaled as i64) {
            return Ok(Self {
                raw: scaled as i64,
                format: self.format,
            });
        }
        Err(FxError::Overflow {
            format: self.format,
        })
    }

    /// Division with explicit rounding; reports overflow and divide-by-zero.
    ///
    /// Computes `(self << f_b) / other` on widened intermediates — the exact
    /// quotient a full-precision fractional divider produces, rounded by
    /// `rounding`. (The bit-serial *restoring* divider NACU actually uses is
    /// modelled in the `nacu` crate; for same-width operands it matches this
    /// operation with [`Rounding::Floor`] on positive operands.)
    ///
    /// # Errors
    ///
    /// [`FxError::DivideByZero`] if `other` is zero, otherwise the same
    /// conditions as [`Fx::checked_add`].
    pub fn checked_div(&self, other: Self, rounding: Rounding) -> Result<Self> {
        self.check_format(&other)?;
        if other.raw == 0 {
            return Err(FxError::DivideByZero);
        }
        let numer = (self.raw as i128) << self.format.frac_bits();
        let denom = other.raw as i128;
        // Exact rational rounding: compute floor then fix up by policy.
        let quotient = div_round(numer, denom, rounding);
        if quotient == quotient as i64 as i128 && self.format.contains_raw(quotient as i64) {
            return Ok(Self {
                raw: quotient as i64,
                format: self.format,
            });
        }
        Err(FxError::Overflow {
            format: self.format,
        })
    }

    /// Saturating addition (NACU's output-stage behaviour).
    ///
    /// # Errors
    ///
    /// [`FxError::FormatMismatch`] on differing formats.
    pub fn saturating_add(&self, other: Self) -> Result<Self> {
        self.check_format(&other)?;
        self.store(self.raw as i128 + other.raw as i128, Overflow::Saturate)
    }

    /// Saturating subtraction.
    ///
    /// # Errors
    ///
    /// [`FxError::FormatMismatch`] on differing formats.
    pub fn saturating_sub(&self, other: Self) -> Result<Self> {
        self.check_format(&other)?;
        self.store(self.raw as i128 - other.raw as i128, Overflow::Saturate)
    }

    /// Saturating multiplication with explicit rounding.
    ///
    /// # Errors
    ///
    /// [`FxError::FormatMismatch`] on differing formats.
    pub fn saturating_mul(&self, other: Self, rounding: Rounding) -> Result<Self> {
        self.check_format(&other)?;
        let product = self.raw as i128 * other.raw as i128;
        self.store(
            rounding.shift_right(product, self.format.frac_bits()),
            Overflow::Saturate,
        )
    }

    /// Saturating division with explicit rounding.
    ///
    /// # Errors
    ///
    /// [`FxError::FormatMismatch`] on differing formats,
    /// [`FxError::DivideByZero`] if `other` is zero.
    pub fn saturating_div(&self, other: Self, rounding: Rounding) -> Result<Self> {
        self.check_format(&other)?;
        if other.raw == 0 {
            return Err(FxError::DivideByZero);
        }
        let numer = (self.raw as i128) << self.format.frac_bits();
        self.store(
            div_round(numer, other.raw as i128, rounding),
            Overflow::Saturate,
        )
    }

    /// Wrapping addition (bare-register behaviour, for failure injection).
    ///
    /// # Errors
    ///
    /// [`FxError::FormatMismatch`] on differing formats.
    pub fn wrapping_add(&self, other: Self) -> Result<Self> {
        self.check_format(&other)?;
        self.store(self.raw as i128 + other.raw as i128, Overflow::Wrap)
    }

    /// Arithmetic left shift by `bits`, saturating — the paper's "scaling
    /// factor of 2 … implemented by an arithmetic left shift" (Eq. 3).
    #[must_use]
    pub fn shl_saturating(&self, bits: u32) -> Self {
        let wide = (self.raw as i128) << bits.min(64);
        Self {
            raw: self.format.saturate_raw(wide),
            format: self.format,
        }
    }

    /// Arithmetic right shift by `bits` with explicit rounding.
    #[must_use]
    pub fn shr(&self, bits: u32, rounding: Rounding) -> Self {
        Self {
            raw: rounding.shift_right(self.raw as i128, bits) as i64,
            format: self.format,
        }
    }

    /// Two's-complement negation, saturating at the asymmetric minimum
    /// (negating `min_raw` yields `max_raw`).
    #[must_use]
    pub fn neg_saturating(&self) -> Self {
        Self {
            raw: self.format.saturate_raw(-(self.raw as i128)),
            format: self.format,
        }
    }

    /// Absolute value, saturating at the asymmetric minimum.
    #[must_use]
    pub fn abs_saturating(&self) -> Self {
        if self.raw < 0 {
            self.neg_saturating()
        } else {
            *self
        }
    }

    /// Returns `true` if the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }

    /// Returns `true` if the value is negative (sign bit set).
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.raw < 0
    }
}

/// An element of a batch of raw codes: what the serving engine's
/// executors read and rewrite in place.
///
/// Implemented by [`Fx`] (the code plus its own format, the in-process
/// API) and by bare `i64` (the code alone, its format held once per
/// batch), so one gather or walk loop serves both representations.
pub trait RawCode: Copy {
    /// The raw two's-complement code.
    fn code(self) -> i64;

    /// `self` with its code replaced by `code`, in the same format. The
    /// caller guarantees `code` fits that format (table entries and
    /// datapath outputs do by construction); this is debug-asserted for
    /// [`Fx`], never clamped.
    #[must_use]
    fn with_code(self, code: i64) -> Self;
}

impl RawCode for Fx {
    #[inline]
    fn code(self) -> i64 {
        self.raw
    }

    #[inline]
    fn with_code(self, code: i64) -> Self {
        debug_assert!(
            self.format.contains_raw(code),
            "code {code} does not fit {}",
            self.format
        );
        Self {
            raw: code,
            format: self.format,
        }
    }
}

impl RawCode for i64 {
    #[inline]
    fn code(self) -> i64 {
        self
    }

    #[inline]
    fn with_code(self, code: i64) -> Self {
        code
    }
}

/// Divides widened integers with an explicit rounding policy (exact rational
/// rounding, no double-rounding).
fn div_round(numer: i128, denom: i128, rounding: Rounding) -> i128 {
    debug_assert!(denom != 0);
    let quot = numer / denom; // toward zero
    let rem = numer % denom;
    if rem == 0 {
        return quot;
    }
    let positive = (numer >= 0) == (denom >= 0);
    match rounding {
        Rounding::TowardZero => quot,
        Rounding::Floor => {
            if positive {
                quot
            } else {
                quot - 1
            }
        }
        Rounding::Ceil => {
            if positive {
                quot + 1
            } else {
                quot
            }
        }
        Rounding::Nearest => {
            // Compare |2*rem| with |denom|; ties away from zero.
            let doubled = rem.unsigned_abs() * 2;
            if doubled >= denom.unsigned_abs() {
                if positive {
                    quot + 1
                } else {
                    quot - 1
                }
            } else {
                quot
            }
        }
    }
}

impl PartialOrd for Fx {
    /// Values in different formats are unordered (`None`); compare raw codes
    /// after an explicit [`Fx::resize`] if cross-format ordering is needed.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        if self.format == other.format {
            Some(self.raw.cmp(&other.raw))
        } else {
            None
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl fmt::Binary for Fx {
    /// Formats the raw code as an `N`-bit two's-complement bit pattern, the
    /// view a waveform viewer would show.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.format.total_bits();
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let bits = (self.raw as u64) & mask;
        write!(f, "{bits:0width$b}", width = n as usize)
    }
}

impl fmt::LowerHex for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.format.total_bits();
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let bits = (self.raw as u64) & mask;
        write!(f, "{bits:0width$x}", width = n.div_ceil(4) as usize)
    }
}

impl fmt::UpperHex for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.format.total_bits();
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let bits = (self.raw as u64) & mask;
        write!(f, "{bits:0width$X}", width = n.div_ceil(4) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q4_11() -> QFormat {
        QFormat::new(4, 11).unwrap()
    }

    #[test]
    fn from_f64_round_trips_representable_values() {
        let q = q4_11();
        for raw in [-32768_i64, -1, 0, 1, 2048, 32767] {
            let v = Fx::from_raw(raw, q).unwrap();
            let back = Fx::from_f64(v.to_f64(), q, Rounding::Nearest);
            assert_eq!(back.raw(), raw);
        }
    }

    #[test]
    fn from_f64_saturates_out_of_range() {
        let q = q4_11();
        assert_eq!(Fx::from_f64(100.0, q, Rounding::Nearest).raw(), q.max_raw());
        assert_eq!(
            Fx::from_f64(-100.0, q, Rounding::Nearest).raw(),
            q.min_raw()
        );
    }

    #[test]
    fn add_sub_are_exact_when_in_range() {
        let q = q4_11();
        let a = Fx::from_f64(1.5, q, Rounding::Nearest);
        let b = Fx::from_f64(2.25, q, Rounding::Nearest);
        assert_eq!(a.checked_add(b).unwrap().to_f64(), 3.75);
        assert_eq!(a.checked_sub(b).unwrap().to_f64(), -0.75);
    }

    #[test]
    fn checked_add_detects_overflow() {
        let q = q4_11();
        let m = Fx::max(q);
        assert_eq!(
            m.checked_add(Fx::one(q)),
            Err(FxError::Overflow { format: q })
        );
        assert_eq!(m.saturating_add(Fx::one(q)).unwrap().raw(), q.max_raw());
    }

    #[test]
    fn mixed_formats_are_rejected() {
        let a = Fx::zero(QFormat::new(4, 11).unwrap());
        let b = Fx::zero(QFormat::new(2, 13).unwrap());
        assert!(matches!(
            a.checked_add(b),
            Err(FxError::FormatMismatch { .. })
        ));
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    fn mul_matches_f64_within_half_ulp() {
        let q = q4_11();
        let a = Fx::from_f64(1.321, q, Rounding::Nearest);
        let b = Fx::from_f64(-2.7, q, Rounding::Nearest);
        let p = a.checked_mul(b, Rounding::Nearest).unwrap();
        let exact = a.to_f64() * b.to_f64();
        assert!((p.to_f64() - exact).abs() <= q.resolution() / 2.0 + 1e-12);
    }

    #[test]
    fn div_matches_f64_within_half_ulp() {
        let q = q4_11();
        let a = Fx::from_f64(1.0, q, Rounding::Nearest);
        let b = Fx::from_f64(0.75, q, Rounding::Nearest);
        let d = a.checked_div(b, Rounding::Nearest).unwrap();
        let exact = a.to_f64() / b.to_f64();
        assert!((d.to_f64() - exact).abs() <= q.resolution() / 2.0 + 1e-12);
    }

    #[test]
    fn div_by_zero_is_reported() {
        let q = q4_11();
        let a = Fx::one(q);
        assert_eq!(
            a.checked_div(Fx::zero(q), Rounding::Nearest),
            Err(FxError::DivideByZero)
        );
    }

    #[test]
    fn shl_implements_eq3_scaling() {
        let q = q4_11();
        let x = Fx::from_f64(1.25, q, Rounding::Nearest);
        assert_eq!(x.shl_saturating(1).to_f64(), 2.5);
        // and it saturates rather than wrapping
        let big = Fx::from_f64(15.0, q, Rounding::Nearest);
        assert_eq!(big.shl_saturating(1).raw(), q.max_raw());
    }

    #[test]
    fn neg_saturates_at_asymmetric_min() {
        let q = q4_11();
        assert_eq!(Fx::min(q).neg_saturating().raw(), q.max_raw());
        assert_eq!(Fx::min(q).abs_saturating().raw(), q.max_raw());
        let x = Fx::from_f64(-1.5, q, Rounding::Nearest);
        assert_eq!(x.abs_saturating().to_f64(), 1.5);
    }

    #[test]
    fn resize_widens_exactly_and_narrows_with_rounding() {
        let q8 = QFormat::new(3, 4).unwrap();
        let q16 = q4_11();
        let x = Fx::from_f64(2.3125, q8, Rounding::Nearest); // exact in Q3.4
        let wide = x.resize(q16, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(wide.to_f64(), x.to_f64());
        let narrow = wide.resize(q8, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(narrow.raw(), x.raw());
    }

    #[test]
    fn resize_saturates_or_wraps_on_narrowing_overflow() {
        let q16 = q4_11();
        let q8 = QFormat::new(1, 6).unwrap(); // range [-2, 2)
        let x = Fx::from_f64(5.0, q16, Rounding::Nearest);
        let sat = x.resize(q8, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(sat.raw(), q8.max_raw());
        let wrap = x.resize(q8, Rounding::Nearest, Overflow::Wrap);
        assert_eq!(wrap.raw(), q8.wrap_raw((5.0 * 64.0) as i128));
    }

    #[test]
    fn binary_and_hex_render_twos_complement_pattern() {
        let q = q4_11();
        let x = Fx::from_f64(-1.0, q, Rounding::Nearest); // raw -2048
        assert_eq!(format!("{x:b}"), "1111100000000000");
        assert_eq!(format!("{x:x}"), "f800");
        assert_eq!(format!("{x:X}"), "F800");
        let one = Fx::one(q);
        assert_eq!(format!("{one:b}"), "0000100000000000");
    }

    #[test]
    fn display_shows_real_value() {
        let q = q4_11();
        assert_eq!(Fx::from_f64(1.5, q, Rounding::Nearest).to_string(), "1.5");
    }

    #[test]
    fn one_panics_without_integer_bits() {
        let q = QFormat::new(0, 7).unwrap();
        let res = std::panic::catch_unwind(|| Fx::one(q));
        assert!(res.is_err());
    }

    #[test]
    fn ordering_within_format_matches_value() {
        let q = q4_11();
        let a = Fx::from_f64(-3.0, q, Rounding::Nearest);
        let b = Fx::from_f64(0.5, q, Rounding::Nearest);
        assert!(a < b);
        assert!(b > a);
        assert!(a <= a);
    }
}
