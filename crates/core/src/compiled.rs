//! The compiled datapath: the Fig. 2 evaluation specialised to one ROM
//! and walked on bare `i64` codes.
//!
//! [`Nacu`] is the golden model: it keeps the hardware's structure — a
//! `partition_point` address decode over the segment bounds, an `i128`
//! MAC, the Fig. 3 bias units applied per evaluation and the bit-serial
//! restoring divider. [`CompiledNacu`] computes the same bits with the
//! structure folded away at construction:
//!
//! * each segment's `m₁`, its saturated `4·m₁` and the four Fig. 3 biases
//!   `q`, `1−q`, `2q−1`, `1−2q` are precomputed, already shifted into the
//!   MAC's internal scale;
//! * the segment index is closed-form. [`Nacu::new`] lays the bounds out
//!   uniformly, `bounds[i] = ⌊i·span/E⌋` with `span = 2^(N−1)`, so the
//!   segment holding address `a` is `min(E−1, ⌈(a+1)·E/span⌉ − 1)`, a
//!   multiply and a shift. Construction asserts the bounds are uniform;
//! * the MAC runs in `i64`. `|m·a| < 2^(2N−2)` and the shifted bias is at
//!   most `2^(2N−2)`, so the sum stays below `2^(2N+1)` and fits for
//!   `N ≤ 31` ([`CompiledNacu::MAX_BITS`]); wider units get `None`;
//! * the exp reciprocal is one integer division, `⌊2^(2·w_f) / σ⌋`: the
//!   restoring divider computes `⌊(a << f) / b⌋` bit by bit (§V.B notes
//!   pipelined and sequential dividers give the same quotient bits, and
//!   so does a single division instruction).
//!
//! Equality with [`Nacu::compute`] and [`Nacu::softmax`] is proven by
//! exhaustive sweeps at every `for_width` width 8–21 and by property
//! tests over random LUT sizes, fit methods and ROM words
//! (`tests/compiled_identity.rs`). The compiled unit has no fault hooks:
//! a unit with an armed fault plan walks `nacu-faults`' checked nets.

use nacu_fixed::{FxError, QFormat, RawCode};

use crate::bias;
use crate::config::Function;
use crate::datapath::Nacu;
use crate::NacuError;

/// One segment's ROM word, pre-transformed for every function.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Slope `m₁` in the coefficient format.
    m1: i64,
    /// `4·m₁`, saturated in the coefficient word (tanh's slope).
    m4: i64,
    /// The biases `q`, `1−q`, `2q−1`, `1−2q` at the MAC's internal scale.
    q: i64,
    one_minus_q: i64,
    two_q_minus_one: i64,
    one_minus_two_q: i64,
}

/// A [`Nacu`] compiled to per-segment constants and `i64` arithmetic,
/// bit-identical to it on every input code.
#[derive(Debug, Clone)]
pub struct CompiledNacu {
    format: QFormat,
    segments: Box<[Segment]>,
    /// `N − 1`: `span = 2^(N−1)` is a power of two, so the closed-form
    /// index divides by shifting.
    span_bits: u32,
    /// Fractional bits of the divider/exp working word, `w_f = N − 3`.
    work_frac: u32,
    /// MAC sum → σ/tanh output code (`N − 2`).
    out_shift: u32,
    /// MAC sum → σ in the working word (`f + 1`).
    work_shift: u32,
}

/// `Rounding::Nearest.shift_right` on `i64`: rounds `v / 2^shift` to the
/// nearest integer, ties away from zero.
#[inline]
fn round_shift(v: i64, shift: u32) -> i64 {
    if shift == 0 {
        return v;
    }
    let half = 1_i64 << (shift - 1);
    (v + half - i64::from(v < 0)) >> shift
}

/// Rewrites each element of `xs` with `f` of its code; generic so each
/// function's loop is compiled with its evaluation inlined.
#[inline]
fn map_in_place<T: RawCode>(xs: &mut [T], f: impl Fn(i64) -> i64) {
    for x in xs {
        *x = x.with_code(f(x.code()));
    }
}

/// A code with `from` fractional bits moved to `to` fractional bits,
/// rounding to nearest (the unsaturated half of `Fx::resize`).
#[inline]
fn rescale(v: i64, from: u32, to: u32) -> i64 {
    if to >= from {
        v << (to - from)
    } else {
        round_shift(v, from - to)
    }
}

impl CompiledNacu {
    /// Widest word the `i64` MAC is proven for.
    pub const MAX_BITS: u32 = 31;

    /// Compiles `nacu`'s ROM, or `None` when its word is wider than
    /// [`Self::MAX_BITS`].
    ///
    /// # Panics
    ///
    /// Panics if the segment bounds are not the uniform layout
    /// [`Nacu::new`] produces (the closed-form index relies on it).
    #[must_use]
    pub fn new(nacu: &Nacu) -> Option<Self> {
        let format = nacu.config().format;
        let n = format.total_bits();
        if n > Self::MAX_BITS {
            return None;
        }
        let rom = nacu.coefficients();
        let entries = rom.len() as i64;
        let span = format.max_raw() + 1;
        assert!(
            nacu.segment_bounds()
                .iter()
                .copied()
                .eq((0..=entries).map(|i| i * span / entries)),
            "the closed-form segment index needs uniform bounds"
        );
        let coef = nacu.coef_format();
        let work_frac = nacu.work_format().frac_bits();
        debug_assert_eq!(nacu.bias_format().frac_bits(), work_frac);
        let internal_frac = coef.frac_bits() + format.frac_bits();
        let bias_shift = internal_frac - work_frac;
        let segments = rom
            .iter()
            .map(|&(m1, q)| Segment {
                m1,
                m4: coef.saturate_raw(i128::from(m1) << 2),
                q: q << bias_shift,
                one_minus_q: bias::one_minus_q(q, work_frac) << bias_shift,
                two_q_minus_one: bias::two_q_minus_one(q, work_frac) << bias_shift,
                one_minus_two_q: bias::one_minus_two_q(q, work_frac) << bias_shift,
            })
            .collect();
        Some(Self {
            format,
            segments,
            span_bits: n - 1,
            work_frac,
            out_shift: internal_frac - format.frac_bits(),
            work_shift: internal_frac - work_frac,
        })
    }

    /// The input/output format.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The segment a non-negative address decodes to: the closed form of
    /// [`Nacu::lookup_index`] over the uniform bounds.
    #[must_use]
    #[inline]
    pub fn segment_index(&self, address: i64) -> usize {
        let entries = self.segments.len() as i64;
        let address = address.clamp(0, self.format.max_raw());
        // ⌈(a+1)·E/span⌉ − 1 = ⌊((a+1)·E − 1) / span⌋.
        let index = ((address + 1) * entries - 1) >> self.span_bits;
        (index as usize).min(self.segments.len() - 1)
    }

    #[inline]
    fn segment(&self, address: i64) -> &Segment {
        &self.segments[self.segment_index(address)]
    }

    /// `code` saturated into the format, and its saturated magnitude (the
    /// absolute-value stage: `|min|` clamps to `max`).
    #[inline]
    fn operand(&self, code: i64) -> (i64, i64) {
        let (min, max) = (self.format.min_raw(), self.format.max_raw());
        let x = code.clamp(min, max);
        (x, x.unsigned_abs().min(max as u64) as i64)
    }

    #[inline]
    fn saturate(&self, code: i64) -> i64 {
        code.clamp(self.format.min_raw(), self.format.max_raw())
    }

    /// σ of one raw code, as [`Nacu::sigmoid`] computes it.
    #[must_use]
    #[inline]
    pub fn sigmoid(&self, code: i64) -> i64 {
        let (x, mag) = self.operand(code);
        let s = self.segment(mag);
        let sum = if x >= 0 {
            s.m1 * mag + s.q
        } else {
            s.one_minus_q - s.m1 * mag
        };
        self.saturate(round_shift(sum, self.out_shift))
    }

    /// tanh of one raw code, as [`Nacu::tanh`] computes it.
    #[must_use]
    #[inline]
    pub fn tanh(&self, code: i64) -> i64 {
        let (x, mag) = self.operand(code);
        let s = self.segment((2 * mag).min(self.format.max_raw()));
        let sum = if x >= 0 {
            s.m4 * mag + s.two_q_minus_one
        } else {
            s.one_minus_two_q - s.m4 * mag
        };
        self.saturate(round_shift(sum, self.out_shift))
    }

    /// `e^x` of one raw code, as [`Nacu::exp`] computes it: σ(−x) in the
    /// working word, one integer division for the reciprocal, then the
    /// decrement. Positive codes clamp to 0.
    #[must_use]
    #[inline]
    pub fn exp(&self, code: i64) -> i64 {
        let (_, mag) = self.operand(code.min(0));
        let s = self.segment(mag);
        let one = 1_i64 << self.work_frac;
        let sigma = round_shift(s.m1 * mag + s.q, self.work_shift).clamp(one / 2, one);
        let reciprocal = ((1_u64 << (2 * self.work_frac)) / sigma as u64) as i64;
        let e = reciprocal.clamp(one, 2 * one) - one;
        self.saturate(rescale(e, self.work_frac, self.format.frac_bits()))
    }

    /// Single-code dispatch mirroring [`Nacu::compute`].
    ///
    /// # Panics
    ///
    /// Panics for [`Function::Softmax`] and [`Function::Mac`], exactly
    /// like [`Nacu::compute`].
    #[must_use]
    pub fn compute(&self, function: Function, code: i64) -> i64 {
        match function {
            Function::Sigmoid => self.sigmoid(code),
            Function::Tanh => self.tanh(code),
            Function::Exp => self.exp(code),
            _ => panic!("{function} needs the vector/accumulator interface"),
        }
    }

    /// Rewrites every element of `xs` with its response, in place — the
    /// datapath counterpart of `ResponseTable::lookup_in_place`. Codes
    /// outside the format saturate into it first, as the checked walk's
    /// operands do.
    ///
    /// # Panics
    ///
    /// As [`Self::compute`].
    pub fn compute_in_place<T: RawCode>(&self, function: Function, xs: &mut [T]) {
        match function {
            Function::Sigmoid => map_in_place(xs, |code| self.sigmoid(code)),
            Function::Tanh => map_in_place(xs, |code| self.tanh(code)),
            Function::Exp => map_in_place(xs, |code| self.exp(code)),
            _ => panic!("{function} needs the vector/accumulator interface"),
        }
    }

    /// The max-normalised softmax (Eq. 13) of `codes`, in place, as
    /// [`Nacu::softmax_with`] computes it. `exp` is the exp stage: it
    /// must rewrite each max-normalised (non-positive) code with `e^x` in
    /// the same format, exactly as [`Nacu::exp`] does — a response table's
    /// `lookup_in_place`, or [`Self::compute_in_place`] with
    /// [`Function::Exp`]. Pass 1 accumulates the saturating denominator;
    /// pass 2 normalises each exp with one integer division. The buffer
    /// holds the exps between the passes, so no scratch is needed.
    ///
    /// # Errors
    ///
    /// [`NacuError::EmptyVector`] for an empty input, and
    /// [`FxError::DivideByZero`] if every exp is zero, as from
    /// [`Nacu::softmax`].
    ///
    /// # Panics
    ///
    /// Panics if the accumulator format `Q(i+7).w_f` does not exist, as
    /// [`Nacu::softmax`] does.
    pub fn softmax_in_place<F>(&self, codes: &mut [i64], exp: F) -> Result<(), NacuError>
    where
        F: FnOnce(&mut [i64]),
    {
        let top = codes
            .iter()
            .map(|&code| self.saturate(code))
            .max()
            .ok_or(NacuError::EmptyVector)?;
        for code in codes.iter_mut() {
            *code = self.saturate(self.saturate(*code) - top);
        }
        exp(codes);
        // Every exp lies in [0, 1], so neither the move to the working
        // word nor a quotient `e / Σe ≤ 1` can leave its format; only the
        // denominator saturates, in the widened accumulator.
        let (wf, f) = (self.work_frac, self.format.frac_bits());
        let acc_max = QFormat::new(self.format.int_bits() + 7, wf)
            .expect("acc format")
            .max_raw();
        let mut denom = 0_i64;
        for code in codes.iter_mut() {
            *code = rescale(*code, f, wf);
            denom = (denom + *code).min(acc_max);
        }
        if denom == 0 {
            return Err(NacuError::Fixed(FxError::DivideByZero));
        }
        for code in codes.iter_mut() {
            let q = ((*code as u64) << wf) / denom as u64;
            *code = rescale(q as i64, wf, f);
        }
        Ok(())
    }
}
