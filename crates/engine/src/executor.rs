//! Pluggable batch executors: the seam between the worker pool and the
//! arithmetic that actually serves a coalesced unary batch.
//!
//! A [`BatchExecutor`] rewrites one operand buffer in place with the
//! function's responses. [`ScalarGather`] does one masked lookup per
//! operand into the engine's shared response table (formats of at most
//! 16 bits). [`DatapathWalk`] walks a worker's [`CheckedNacu`]: through
//! its compiled datapath ([`nacu::CompiledNacu`]) while the unit has no
//! fault plan, so untabulated formats are served from precomputed
//! coefficients, `i64` arithmetic and integer division; through the
//! checked nets and their detectors once a plan is armed (or the word
//! is too wide to compile). That is also the seam a CGRA-backed worker
//! variant would plug into later: anything that can turn a batch of
//! operands into bit-identical outputs is an executor.
//!
//! Bit-identity of the gather and of the compiled walk rests on
//! exhaustive proof: the compiled walk is swept against the golden
//! datapath on every code at every width 8–21 (`nacu`'s
//! `tests/compiled_identity.rs`), the tables it fills are re-checked in
//! this module and in `tests/bit_identical.rs`.

use nacu::{Function, ResponseTable};
use nacu_faults::{CheckedNacu, FaultEvent};
use nacu_fixed::{Fx, RawCode};

/// Turns one batch of operands into the function's responses, in place.
pub trait BatchExecutor {
    /// Rewrites every element of `xs` with its response, bit-identical
    /// to the golden datapath. `xs` holds either [`Fx`] values or the
    /// bare `i64` codes of a [`crate::Codes`] batch, all in the format
    /// the executor was built for. The table gather is infallible; the
    /// datapath walk stops at the first detector event, leaving `xs`
    /// partially rewritten — callers that need pristine operands for a
    /// retry execute on a copy, as the pool's datapath arm does.
    fn execute<T: RawCode>(&self, xs: &mut [T]) -> Result<(), FaultEvent>;
}

/// The fast path: one scalar masked lookup per operand.
pub struct ScalarGather<'a> {
    table: &'a ResponseTable,
}

impl<'a> ScalarGather<'a> {
    #[must_use]
    pub fn new(table: &'a ResponseTable) -> Self {
        Self { table }
    }
}

impl BatchExecutor for ScalarGather<'_> {
    fn execute<T: RawCode>(&self, xs: &mut [T]) -> Result<(), FaultEvent> {
        self.table.lookup_in_place(xs);
        Ok(())
    }
}

/// Datapath walk through a worker's [`CheckedNacu`]: the compiled walk
/// while the unit has one (no fault plan), the checked nets otherwise —
/// the executor untabulated formats and fault-planned workers serve from.
pub struct DatapathWalk<'a> {
    unit: &'a CheckedNacu,
    function: Function,
}

impl<'a> DatapathWalk<'a> {
    #[must_use]
    pub fn new(unit: &'a CheckedNacu, function: Function) -> Self {
        Self { unit, function }
    }
}

impl BatchExecutor for DatapathWalk<'_> {
    /// Saturates each operand into the unit's format (a code that does
    /// not fit is clamped rather than walked), runs it through the
    /// datapath and writes the output code back. The compiled walk is
    /// infallible; the checked walk stops at the first detector event.
    fn execute<T: RawCode>(&self, xs: &mut [T]) -> Result<(), FaultEvent> {
        if let Some(compiled) = self.unit.compiled() {
            compiled.compute_in_place(self.function, xs);
            return Ok(());
        }
        let format = self.unit.config().format;
        for x in xs {
            let y = self
                .unit
                .compute(self.function, Fx::from_raw_saturating(x.code(), format))?;
            *x = x.with_code(y.raw());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu::{Nacu, NacuConfig, ResponseTables};
    use nacu_fixed::Rounding;

    fn fixture() -> (Nacu, ResponseTables) {
        let nacu = Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
        let tables = ResponseTables::build(&nacu).expect("16-bit fits");
        (nacu, tables)
    }

    /// Runs the gather over every input code of the paper's format, as
    /// `Fx` values and as bare codes, and checks each output against the
    /// per-operand lookup AND the golden datapath.
    #[test]
    fn scalar_gather_is_bit_identical_on_every_code() {
        let (nacu, tables) = fixture();
        let fmt = nacu.config().format;
        let inputs: Vec<Fx> = fmt
            .raw_codes()
            .map(|raw| Fx::from_raw_saturating(raw, fmt))
            .collect();
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            let table = tables.get(function).expect("unary");
            let mut batch = inputs.clone();
            let mut codes: Vec<i64> = inputs.iter().map(|x| x.raw()).collect();
            let gather = ScalarGather::new(table);
            gather.execute(&mut batch).expect("table path");
            gather.execute(&mut codes).expect("table path");
            for ((&x, &y), &code) in inputs.iter().zip(batch.iter()).zip(codes.iter()) {
                assert_eq!(y, table.lookup(x), "{function} vs lookup at {x}");
                assert_eq!(
                    y,
                    nacu.compute(function, x),
                    "{function} vs datapath at {x}"
                );
                assert_eq!(code, y.raw(), "{function} bare code at {x}");
            }
        }
    }

    /// Walks `inputs` through `unit` as `Fx` values and as bare codes,
    /// checking each output against the golden datapath.
    fn assert_walk_matches(unit: &CheckedNacu, function: Function, inputs: &[Fx]) {
        let walk = DatapathWalk::new(unit, function);
        let mut xs = inputs.to_vec();
        let mut codes: Vec<i64> = inputs.iter().map(|x| x.raw()).collect();
        walk.execute(&mut xs).expect("no faults planned");
        walk.execute(&mut codes).expect("no faults planned");
        for ((&x, &y), &code) in inputs.iter().zip(xs.iter()).zip(codes.iter()) {
            assert_eq!(y, unit.golden().compute(function, x), "{function} at {x}");
            assert_eq!(code, y.raw());
        }
    }

    #[test]
    fn datapath_walk_matches_the_golden_unit() {
        let unit = CheckedNacu::new(NacuConfig::paper_16bit()).expect("paper config");
        assert!(
            unit.compiled().is_some(),
            "a fault-free unit walks compiled"
        );
        let fmt = unit.config().format;
        let inputs: Vec<Fx> = [-3.0, -0.5, 0.0, 0.75, 2.5]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            assert_walk_matches(&unit, function, &inputs);
        }
    }

    /// A word wider than the compiled walk's `i64` bound keeps the
    /// checked nets, and they stay bit-identical.
    #[test]
    fn words_too_wide_to_compile_walk_the_checked_nets() {
        let config = NacuConfig::for_width(32)
            .expect("Eq. 7 holds at 32 bits")
            .with_lut_entries(64);
        let unit = CheckedNacu::new(config).expect("valid config");
        assert!(unit.compiled().is_none());
        let fmt = unit.config().format;
        let inputs: Vec<Fx> = [fmt.min_raw(), -(1 << 29) - 7, -1, 0, 12_345, fmt.max_raw()]
            .iter()
            .map(|&raw| Fx::from_raw_saturating(raw, fmt))
            .collect();
        for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
            assert_walk_matches(&unit, function, &inputs);
        }
    }

    /// A fault-planned unit walks the checked nets, so its detector still
    /// trips mid-batch.
    #[test]
    fn a_fault_planned_walk_still_trips_its_detector() {
        use nacu_faults::{Fault, FaultPlan, InjectionSite};
        let fault = Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true);
        let unit = CheckedNacu::new(NacuConfig::paper_16bit())
            .expect("paper config")
            .with_plan(FaultPlan::single(fault));
        assert!(unit.compiled().is_none());
        let mut codes = vec![0_i64; 4];
        assert_eq!(
            DatapathWalk::new(&unit, Function::Sigmoid).execute(&mut codes),
            Err(FaultEvent::LutParity { entry: 0 })
        );
    }
}
