//! The checked datapath: a [`Nacu`] shadowed by injectors and detectors.
//!
//! [`CheckedNacu`] recomputes the Fig. 2 evaluation from the same nets the
//! core datapath uses — the stored ROM words, the magnitude/address
//! decode, the Fig. 3 bias transforms and the widened MAC — but taps every
//! named [`InjectionSite`] through the unit's [`FaultPlan`] and runs the
//! armed [`DetectorSet`] alongside. With an empty plan the output is
//! **bit-identical** to [`Nacu`] for every function (property-tested in
//! `tests/bit_identity.rs`); with faults armed, each evaluation either
//! returns the exact corrupted value the silicon would emit or surfaces a
//! typed [`FaultEvent`].
//!
//! Detector tap points (which faults each detector can see):
//!
//! | detector | taps | covers |
//! |---|---|---|
//! | LUT parity | stored words at every lookup | `LutSlope`, `LutBias` |
//! | MAC residue | MAC source nets vs pre-round sum | `MacOperandA/B`, `MacAccumulator` |
//! | σ sentinel | σ output register | `SigmaOut` + large upstream faults |
//!
//! While its plan is empty the unit also carries the golden ROM compiled
//! to a [`CompiledNacu`] ([`CheckedNacu::compiled`]): with no injector
//! armed the detectors cannot fire (the no-false-positive sweep in
//! `tests/bit_identity.rs`), so fault-free callers may serve from that
//! walk instead of the checked nets. Arming a non-empty plan drops it.
//!
//! `BiasOut` faults are deliberately outside the MAC residue's protection
//! domain (the shadow taps the bias *port*, i.e. the already-faulted
//! wire), so low-bit bias faults propagate silently — the campaign
//! quantifies exactly that undetected-error tail.

use nacu_fixed::{Fx, Overflow, QFormat, Rounding};

use nacu::bias;
use nacu::divider;
use nacu::{CompiledNacu, Function, Nacu, NacuConfig, NacuError};

use crate::detect::{
    entry_parity, residue3, residue_add, residue_mul, residue_pow2, DetectorSet, FaultEvent,
};
use crate::model::{FaultPlan, InjectionSite};

/// Raw LSBs of slack the σ range sentinel allows beyond `[0, 1]`.
///
/// A fault-free unit can legitimately overshoot by one output LSB: the
/// saturation segment's minimax bias quantises to exactly 1.0 and the
/// (tiny, positive) slope term then rounds one LSB above it. Measured
/// worst case across the 10–21-bit sweep is 1 LSB; anything beyond is a
/// fault (`tests/bit_identity.rs` pins the no-false-positive property).
pub const SIGMA_RANGE_SLACK_LSB: i64 = 1;

/// Raw LSBs σ may *decrease* across consecutive segment boundaries before
/// the scrub calls it a monotonicity violation. Adjacent minimax segments
/// are fitted independently, so their quantised boundary values can
/// disagree by a rounding step even on a healthy unit.
pub const SIGMA_MONOTONICITY_SLACK_LSB: i64 = 1;

/// A failure from the checked datapath: either a detector fired or the
/// request itself was malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckedError {
    /// A detector surfaced a fault.
    Fault(FaultEvent),
    /// The underlying datapath rejected the request (empty softmax
    /// vector, format mismatch, …).
    Nacu(NacuError),
}

impl std::fmt::Display for CheckedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckedError::Fault(e) => write!(f, "fault detected: {e}"),
            CheckedError::Nacu(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckedError {}

impl From<FaultEvent> for CheckedError {
    fn from(e: FaultEvent) -> Self {
        CheckedError::Fault(e)
    }
}

impl From<NacuError> for CheckedError {
    fn from(e: NacuError) -> Self {
        CheckedError::Nacu(e)
    }
}

/// A NACU unit with fault injectors armed on its nets and error detectors
/// shadowing its datapath.
#[derive(Debug, Clone)]
pub struct CheckedNacu {
    golden: Nacu,
    /// Stored coefficient words after permanent ROM faults are baked in.
    rom: Vec<(i64, i64)>,
    /// Per-entry parity computed from the *golden* ROM at table build.
    parity: Vec<u8>,
    plan: FaultPlan,
    detectors: DetectorSet,
    /// The golden ROM compiled for fault-free serving; `None` once a
    /// non-empty plan is armed, or for words wider than
    /// [`CompiledNacu::MAX_BITS`].
    compiled: Option<CompiledNacu>,
}

impl CheckedNacu {
    /// Builds a healthy checked unit: golden ROM, parity bits, no faults.
    ///
    /// # Errors
    ///
    /// Propagates [`Nacu::new`] configuration errors.
    pub fn new(config: NacuConfig) -> Result<Self, NacuError> {
        let golden = Nacu::new(config)?;
        let rom = golden.coefficients();
        let bits = config.format.total_bits();
        let parity = rom.iter().map(|&(s, q)| entry_parity(s, q, bits)).collect();
        Ok(Self {
            compiled: CompiledNacu::new(&golden),
            golden,
            rom,
            parity,
            plan: FaultPlan::new(),
            detectors: DetectorSet::all(),
        })
    }

    /// Arms a fault plan. Permanent (stuck-at) LUT faults are baked into
    /// the stored ROM words immediately — parity keeps the bit computed
    /// from the golden table, which is exactly what makes them
    /// detectable. Out-of-range LUT entries in the plan are ignored (the
    /// address decoder cannot reach them). A non-empty plan drops the
    /// [`Self::compiled`] walk: from here on only the checked nets serve.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        if !plan.is_empty() {
            self.compiled = None;
        }
        let bits = self.golden.config().format.total_bits();
        for fault in plan.permanent_lut_faults() {
            let Some(entry) = fault.entry.and_then(|e| self.rom.get_mut(e)) else {
                continue;
            };
            let word = match fault.site {
                InjectionSite::LutSlope => &mut entry.0,
                _ => &mut entry.1,
            };
            *word = fault.corrupt_word(*word, bits);
        }
        self.plan = plan;
        self
    }

    /// Replaces the armed detector set.
    #[must_use]
    pub fn with_detectors(mut self, detectors: DetectorSet) -> Self {
        self.detectors = detectors;
        self
    }

    /// The fault-free reference unit built from the same configuration.
    #[must_use]
    pub fn golden(&self) -> &Nacu {
        &self.golden
    }

    /// The golden ROM compiled to constants and `i64` arithmetic,
    /// bit-identical to [`Self::golden`]; present exactly while no fault
    /// plan is armed (and the word is at most [`CompiledNacu::MAX_BITS`]
    /// wide).
    #[must_use]
    pub fn compiled(&self) -> Option<&CompiledNacu> {
        self.compiled.as_ref()
    }

    /// The unit configuration.
    #[must_use]
    pub fn config(&self) -> &NacuConfig {
        self.golden.config()
    }

    /// The armed fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The armed detectors.
    #[must_use]
    pub fn detectors(&self) -> DetectorSet {
        self.detectors
    }

    /// Coefficient lookup through the checked path: reads the (possibly
    /// corrupted) stored words, applies transient read upsets, then
    /// re-checks the entry parity stored at table build.
    fn lookup(&self, mag_raw: i64) -> Result<(i64, i64), FaultEvent> {
        let idx = self.golden.lookup_index(mag_raw);
        let bits = self.config().format.total_bits();
        let (mut slope, mut q) = self.rom[idx];
        slope = self
            .plan
            .tap(InjectionSite::LutSlope, Some(idx), slope, bits);
        q = self.plan.tap(InjectionSite::LutBias, Some(idx), q, bits);
        if self.detectors.lut_parity && entry_parity(slope, q, bits) != self.parity[idx] {
            return Err(FaultEvent::LutParity { entry: idx });
        }
        Ok((slope, q))
    }

    /// The widened MAC with operand/accumulator injection and the mod-3
    /// shadow. `slope`/`mag` are the values on the source nets (the
    /// shadow taps them *before* the MAC's operand latches, where the
    /// `MacOperandA/B` faults live); `bias` is the Fig. 3 output port,
    /// which the shadow shares with the MAC.
    fn mac(&self, slope: i64, mag: i64, bias: i64, out_frac: u32) -> Result<i64, FaultEvent> {
        let fmt = self.config().format;
        let n = fmt.total_bits();
        let coef_f = self.golden.coef_format().frac_bits();
        let internal_f = coef_f + fmt.frac_bits();
        let bias_shift = internal_f - self.golden.bias_format().frac_bits();

        let a = self.plan.tap(InjectionSite::MacOperandA, None, slope, n);
        let b = self.plan.tap(InjectionSite::MacOperandB, None, mag, n);
        let sum = a as i128 * b as i128 + ((bias as i128) << bias_shift);
        let sum = self
            .plan
            .tap_wide(InjectionSite::MacAccumulator, sum, 2 * n + 2);

        if self.detectors.mac_residue {
            let expected = residue_add(
                residue_mul(residue3(slope as i128), residue3(mag as i128)),
                residue_mul(residue3(bias as i128), residue_pow2(bias_shift)),
            );
            let got = residue3(sum);
            if expected != got {
                return Err(FaultEvent::MacResidue { expected, got });
            }
        }
        Ok(Rounding::Nearest.shift_right(sum, internal_f - out_frac) as i64)
    }

    /// σ in raw codes at `out_frac` fractional bits, through the checked
    /// path: lookup (parity), Fig. 3a bias derivation, MAC (residue),
    /// output register injection, range sentinel.
    fn sigma_word(&self, x: Fx, out_frac: u32) -> Result<i64, FaultEvent> {
        let fmt = self.config().format;
        let mag = self.golden.magnitude_raw(x);
        let (slope, q) = self.lookup(mag)?;
        let f = self.golden.bias_format().frac_bits();
        let (slope, bias) = if x.raw() >= 0 {
            (slope, q)
        } else {
            (-slope, bias::one_minus_q(q, f))
        };
        let bias = self
            .plan
            .tap(InjectionSite::BiasOut, None, bias, fmt.total_bits());
        let raw = self.mac(slope, mag, bias, out_frac)?;
        let raw = self
            .plan
            .tap(InjectionSite::SigmaOut, None, raw, fmt.total_bits());
        if self.detectors.sigma_sentinel {
            let one = 1_i64 << out_frac;
            if raw < -SIGMA_RANGE_SLACK_LSB || raw > one + SIGMA_RANGE_SLACK_LSB {
                return Err(FaultEvent::SigmaRange { raw, one });
            }
        }
        Ok(raw)
    }

    /// Checked σ(x).
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    pub fn sigmoid(&self, x: Fx) -> Result<Fx, FaultEvent> {
        self.assert_format(x);
        let fmt = self.config().format;
        let raw = self.sigma_word(x, fmt.frac_bits())?;
        Ok(Fx::from_raw_saturating(fmt.saturate_raw(raw as i128), fmt))
    }

    /// Checked tanh(x) (Eq. 3's stretched σ address plus the Fig. 3b/3c
    /// bias transforms).
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    pub fn tanh(&self, x: Fx) -> Result<Fx, FaultEvent> {
        self.assert_format(x);
        let fmt = self.config().format;
        let mag = self.golden.magnitude_raw(x);
        let address = (2 * mag).min(fmt.max_raw());
        let (slope, q) = self.lookup(address)?;
        let slope4 = self.golden.coef_format().saturate_raw((slope as i128) << 2);
        let f = self.golden.bias_format().frac_bits();
        let (slope, bias) = if x.raw() >= 0 {
            (slope4, bias::two_q_minus_one(q, f))
        } else {
            (-slope4, bias::one_minus_two_q(q, f))
        };
        let bias = self
            .plan
            .tap(InjectionSite::BiasOut, None, bias, fmt.total_bits());
        let raw = self.mac(slope, mag, bias, fmt.frac_bits())?;
        Ok(Fx::from_raw_saturating(fmt.saturate_raw(raw as i128), fmt))
    }

    /// Checked e^x for non-positive x (Eq. 14: σ, reciprocal, decrement).
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    pub fn exp(&self, x: Fx) -> Result<Fx, FaultEvent> {
        self.assert_format(x);
        let fmt = self.config().format;
        let clamped = if x.raw() > 0 { Fx::zero(x.format()) } else { x };
        let work_fmt = self.golden.work_format();
        let wf = work_fmt.frac_bits();
        let neg = Fx::from_raw_saturating(-clamped.raw(), fmt);
        let sigma_raw = work_fmt.saturate_raw(self.sigma_word(neg, wf)? as i128);
        let one = 1_i64 << wf;
        let sigma_raw = sigma_raw.clamp(one / 2, one);
        let sigma = Fx::from_raw_saturating(sigma_raw, work_fmt);
        let sigma_prime = divider::reciprocal(sigma).expect("clamped σ ≥ 0.5 is non-zero");
        let sp = sigma_prime.raw().clamp(one, 2 * one);
        let e_raw = bias::decrement_unit(sp, wf);
        Ok(Fx::from_raw_saturating(e_raw, work_fmt).resize(
            fmt,
            Rounding::Nearest,
            Overflow::Saturate,
        ))
    }

    /// Checked max-normalised softmax (Eq. 13), replicating the core
    /// two-pass schedule with every exp running through the checked path.
    ///
    /// # Errors
    ///
    /// [`CheckedError::Fault`] if a detector fires,
    /// [`CheckedError::Nacu`] for an empty or mixed-format vector.
    pub fn softmax(&self, inputs: &[Fx]) -> Result<Vec<Fx>, CheckedError> {
        let fmt = self.config().format;
        if inputs.is_empty() {
            return Err(NacuError::EmptyVector.into());
        }
        for x in inputs {
            if x.format() != fmt {
                return Err(CheckedError::Nacu(NacuError::Fixed(
                    nacu_fixed::FxError::FormatMismatch {
                        lhs: x.format(),
                        rhs: fmt,
                    },
                )));
            }
        }
        let max_raw = inputs.iter().map(Fx::raw).max().expect("non-empty");
        let max = Fx::from_raw_saturating(max_raw, fmt);
        let work_fmt = self.golden.work_format();
        let wf = work_fmt.frac_bits();
        let acc_fmt = QFormat::new(fmt.int_bits() + 7, wf).expect("acc format");
        let mut denom = Fx::zero(acc_fmt);
        let mut exps = Vec::with_capacity(inputs.len());
        for &x in inputs {
            let diff = x.saturating_sub(max).map_err(NacuError::Fixed)?;
            let e = self.exp(diff)?;
            let e_work = e.resize(work_fmt, Rounding::Nearest, Overflow::Saturate);
            exps.push(e_work);
            denom = denom
                .saturating_add(e_work.resize(acc_fmt, Rounding::Nearest, Overflow::Saturate))
                .map_err(NacuError::Fixed)?;
        }
        let mut out = Vec::with_capacity(inputs.len());
        for e in exps {
            let q = divider::restoring_divide(e.raw(), denom.raw(), wf)
                .map_err(|e| CheckedError::Nacu(NacuError::Fixed(e)))?;
            let q_work = Fx::from_raw_saturating(work_fmt.saturate_raw(q as i128), work_fmt);
            out.push(q_work.resize(fmt, Rounding::Nearest, Overflow::Saturate));
        }
        Ok(out)
    }

    /// Single-input dispatch mirroring [`Nacu::compute`].
    ///
    /// # Errors
    ///
    /// A [`FaultEvent`] if any armed detector fires.
    ///
    /// # Panics
    ///
    /// Panics for [`Function::Softmax`]/[`Function::Mac`], exactly like
    /// the unchecked dispatch.
    pub fn compute(&self, function: Function, x: Fx) -> Result<Fx, FaultEvent> {
        match function {
            Function::Sigmoid => self.sigmoid(x),
            Function::Tanh => self.tanh(x),
            Function::Exp => self.exp(x),
            _ => panic!("{function} needs the vector/accumulator interface"),
        }
    }

    /// BIST-style scrub: walks σ across every PWL segment boundary (plus
    /// the saturation endpoint) through the checked path, verifying the
    /// ladder stays in range and non-decreasing (within
    /// [`SIGMA_MONOTONICITY_SLACK_LSB`]). Catches ROM corruption that a
    /// particular workload's addresses would never touch.
    ///
    /// Scrub reads count as σ evaluations for transient-fault timing
    /// (they are real datapath activity, like any BIST pattern).
    ///
    /// # Errors
    ///
    /// The first [`FaultEvent`] the walk encounters.
    pub fn scrub(&self) -> Result<(), FaultEvent> {
        let fmt = self.config().format;
        let out_frac = fmt.frac_bits();
        let bounds = self.golden.segment_bounds();
        let mut ladder: Vec<i64> = bounds[..bounds.len() - 1].to_vec();
        ladder.push(fmt.max_raw());
        let mut prev: Option<i64> = None;
        for (boundary, &address) in ladder.iter().enumerate() {
            let x = Fx::from_raw_saturating(address.min(fmt.max_raw()), fmt);
            let raw = self.sigma_word(x, out_frac)?;
            if self.detectors.sigma_sentinel {
                if let Some(prev_raw) = prev {
                    if raw + SIGMA_MONOTONICITY_SLACK_LSB < prev_raw {
                        return Err(FaultEvent::SigmaMonotonicity {
                            boundary,
                            prev_raw,
                            raw,
                        });
                    }
                }
            }
            prev = Some(raw);
        }
        Ok(())
    }

    fn assert_format(&self, x: Fx) {
        assert_eq!(
            x.format(),
            self.config().format,
            "input format {} does not match the configured {}",
            x.format(),
            self.config().format
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Fault, FaultKind};

    fn checked() -> CheckedNacu {
        CheckedNacu::new(NacuConfig::paper_16bit()).expect("paper config")
    }

    fn fx(unit: &CheckedNacu, v: f64) -> Fx {
        Fx::from_f64(v, unit.config().format, Rounding::Nearest)
    }

    #[test]
    fn clean_unit_matches_golden_spot_values() {
        let c = checked();
        let g = c.golden().clone();
        for v in [-7.5, -2.0, -0.3, 0.0, 0.4, 1.7, 9.9] {
            let x = fx(&c, v);
            assert_eq!(c.sigmoid(x).unwrap(), g.sigmoid(x), "sigmoid({v})");
            assert_eq!(c.tanh(x).unwrap(), g.tanh(x), "tanh({v})");
        }
        for v in [-9.0, -1.0, -0.01, 0.0] {
            let x = fx(&c, v);
            assert_eq!(c.exp(x).unwrap(), g.exp(x), "exp({v})");
        }
        let xs: Vec<Fx> = [0.5, -1.2, 2.0, 0.0].iter().map(|&v| fx(&c, v)).collect();
        assert_eq!(c.softmax(&xs).unwrap(), g.softmax(&xs).unwrap());
    }

    #[test]
    fn clean_unit_scrubs_clean_across_widths() {
        for width in [10u32, 14, 16, 18, 21] {
            let cfg = NacuConfig::for_width(width).unwrap();
            let c = CheckedNacu::new(cfg).unwrap();
            c.scrub()
                .unwrap_or_else(|e| panic!("clean {width}-bit unit scrubbed dirty: {e}"));
        }
    }

    #[test]
    fn clean_full_sweep_raises_no_event() {
        // No-false-positive property for the per-call detectors, swept
        // over every 97th input code at several widths.
        for width in [10u32, 16, 18] {
            let cfg = NacuConfig::for_width(width).unwrap();
            let c = CheckedNacu::new(cfg).unwrap();
            let fmt = c.config().format;
            for raw in (fmt.min_raw()..=fmt.max_raw()).step_by(97) {
                let x = Fx::from_raw(raw, fmt).unwrap();
                c.sigmoid(x)
                    .unwrap_or_else(|e| panic!("σ w{width} raw {raw}: {e}"));
                c.tanh(x)
                    .unwrap_or_else(|e| panic!("tanh w{width} raw {raw}: {e}"));
                if raw <= 0 {
                    c.exp(x)
                        .unwrap_or_else(|e| panic!("exp w{width} raw {raw}: {e}"));
                }
            }
        }
    }

    #[test]
    fn stuck_lut_bit_is_caught_by_parity_at_lookup() {
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true);
        let c = checked().with_plan(FaultPlan::single(fault));
        // Entry 0 serves x ≈ 0.
        let err = c.sigmoid(fx(&c, 0.0)).unwrap_err();
        assert_eq!(err, FaultEvent::LutParity { entry: 0 });
        // An address far from entry 0 is served fine (stuck bit was
        // already the stored value, or a different entry entirely).
        let far = fx(&c, 12.0);
        assert_eq!(c.sigmoid(far).unwrap(), c.golden().sigmoid(far));
    }

    #[test]
    fn stuck_bit_matching_stored_value_is_latent_but_harmless() {
        // Stuck-at faults whose forced value equals the stored bit change
        // nothing: parity agrees and the output is golden.
        let c0 = checked();
        let (slope0, _q0) = (c0.rom[3].0, c0.rom[3].1);
        let bit = 2;
        let stored = (slope0 >> bit) & 1;
        let fault = Fault::stuck_lut(InjectionSite::LutSlope, 3, bit, stored == 1);
        let c = checked().with_plan(FaultPlan::single(fault));
        let fmt = c.config().format;
        for raw in (fmt.min_raw()..fmt.max_raw()).step_by(501) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            assert_eq!(c.sigmoid(x).unwrap(), c.golden().sigmoid(x));
        }
    }

    #[test]
    fn mac_accumulator_fault_never_escapes_the_residue() {
        // The AN-code guarantee: a single-bit accumulator fault shifts
        // the sum by ±2^k ≢ 0 (mod 3). Undetected ⇒ the stuck bit
        // already held its forced value ⇒ the output is golden.
        let c = checked().with_plan(FaultPlan::single(Fault::stuck(
            InjectionSite::MacAccumulator,
            7,
            true,
        )));
        let mut caught = 0;
        let fmt = c.config().format;
        for raw in (fmt.min_raw()..fmt.max_raw()).step_by(997) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            match c.sigmoid(x) {
                Err(FaultEvent::MacResidue { .. }) => caught += 1,
                Err(e) => panic!("wrong detector fired: {e}"),
                Ok(y) => assert_eq!(
                    y,
                    c.golden().sigmoid(x),
                    "undetected accumulator fault must mean unchanged value"
                ),
            }
        }
        assert!(caught > 0, "stuck accumulator bit never caught");
    }

    #[test]
    fn mac_operand_fault_escapes_only_via_mod3_co_operand() {
        // An operand fault perturbs the product by ±2^k·co-operand: the
        // residue misses it exactly when the co-operand ≡ 0 (mod 3).
        for site in [InjectionSite::MacOperandA, InjectionSite::MacOperandB] {
            let c = checked().with_plan(FaultPlan::single(Fault::stuck(site, 7, true)));
            let mut caught = 0;
            let fmt = c.config().format;
            for raw in (fmt.min_raw()..fmt.max_raw()).step_by(997) {
                let x = Fx::from_raw(raw, fmt).unwrap();
                let mag = c.golden().magnitude_raw(x);
                let idx = c.golden().lookup_index(mag);
                let slope = c.golden().coefficients()[idx].0;
                let co_operand = if site == InjectionSite::MacOperandA {
                    mag
                } else {
                    slope
                };
                match c.sigmoid(x) {
                    Err(FaultEvent::MacResidue { .. }) => caught += 1,
                    // Defence in depth: when mod-3 is blind the corrupted
                    // word can still blow the σ range sentinel.
                    Err(FaultEvent::SigmaRange { .. }) => {
                        assert_eq!(co_operand % 3, 0, "{site}: residue should have fired first");
                        caught += 1;
                    }
                    Err(e) => panic!("{site}: wrong detector fired: {e}"),
                    Ok(y) => assert!(
                        y == c.golden().sigmoid(x) || co_operand % 3 == 0,
                        "{site}: silent corruption with co-operand {co_operand} ≢ 0 (mod 3)"
                    ),
                }
            }
            assert!(caught > 0, "{site}: stuck bit never caught");
        }
    }

    #[test]
    fn sigma_out_msb_fault_trips_the_range_sentinel() {
        // Forcing a high magnitude bit of the σ output register pushes
        // the word far above 1.0.
        let c = checked().with_plan(FaultPlan::single(Fault::stuck(
            InjectionSite::SigmaOut,
            14,
            true,
        )));
        let err = c.sigmoid(fx(&c, 0.3)).unwrap_err();
        assert!(
            matches!(err, FaultEvent::SigmaRange { .. }),
            "expected range sentinel, got {err}"
        );
    }

    #[test]
    fn bias_out_low_bit_fault_is_silent_and_small() {
        // The residue shadow shares the bias port with the MAC, so a
        // low-bit BiasOut fault propagates undetected — with bounded
        // output error. This is the undetected tail the campaign
        // quantifies.
        let c = checked().with_plan(FaultPlan::single(Fault::stuck(
            InjectionSite::BiasOut,
            0,
            true,
        )));
        let fmt = c.config().format;
        let mut max_err: f64 = 0.0;
        for raw in (fmt.min_raw()..fmt.max_raw()).step_by(211) {
            let x = Fx::from_raw(raw, fmt).unwrap();
            let y = c.sigmoid(x).expect("low-bit bias fault is undetectable");
            max_err = max_err.max((y.to_f64() - c.golden().sigmoid(x).to_f64()).abs());
        }
        assert!(max_err < 3e-3, "one bias LSB stays small: {max_err}");
    }

    #[test]
    fn scrub_catches_workload_invisible_corruption() {
        // Corrupt a mid-range entry with parity disabled: a workload
        // touching only small |x| would never read it, but the scrub
        // walks every segment.
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 20, 12, false);
        let c = checked()
            .with_plan(FaultPlan::single(fault))
            .with_detectors(DetectorSet {
                lut_parity: false,
                mac_residue: false,
                sigma_sentinel: true,
            });
        // The small-|x| workload sails through.
        assert!(c.sigmoid(fx(&c, 0.1)).is_ok());
        // The scrub does not (either range or monotonicity fires).
        assert!(c.scrub().is_err(), "scrub must catch the corrupted entry");
    }

    #[test]
    fn disabled_detectors_let_faults_through_silently() {
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true);
        let c = checked()
            .with_plan(FaultPlan::single(fault))
            .with_detectors(DetectorSet::none());
        let x = fx(&c, 0.0);
        let y = c.sigmoid(x).expect("no detector armed");
        // The wrong answer is the point: it differs from golden.
        assert_ne!(y, c.golden().sigmoid(x));
    }

    #[test]
    fn transient_strike_corrupts_one_evaluation_then_heals() {
        let fault = Fault {
            site: InjectionSite::LutBias,
            entry: Some(0),
            bit: 13,
            kind: FaultKind::Transient,
            seed: 3,
        };
        let c = checked().with_plan(FaultPlan::single(fault));
        let x = fx(&c, 0.0);
        let mut events = 0;
        for _ in 0..crate::model::TRANSIENT_WINDOW + 8 {
            if c.sigmoid(x).is_err() {
                events += 1;
            }
        }
        assert_eq!(events, 1, "a single-event upset fires parity exactly once");
    }

    #[test]
    fn compiled_walk_is_present_exactly_while_the_plan_is_empty() {
        assert!(checked().compiled().is_some());
        assert!(checked().with_plan(FaultPlan::new()).compiled().is_some());
        let fault = Fault::stuck(InjectionSite::SigmaOut, 0, true);
        assert!(checked()
            .with_plan(FaultPlan::single(fault))
            .compiled()
            .is_none());
        // Detectors alone do not change what the unit computes.
        assert!(checked()
            .with_detectors(DetectorSet::none())
            .compiled()
            .is_some());
    }

    #[test]
    fn checked_unit_is_send_sync_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<CheckedNacu>();
    }
}
