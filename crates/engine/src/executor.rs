//! Pluggable batch executors: the seam between the worker pool and the
//! arithmetic that actually serves a coalesced unary batch.
//!
//! A [`BatchExecutor`] rewrites one operand buffer in place with the
//! function's responses. There are exactly two: [`ScalarGather`], one
//! masked lookup per operand into the engine's shared response table,
//! and [`DatapathWalk`], the full checked datapath that fault-planned
//! workers (and formats too wide to tabulate) serve from. That is also
//! the seam a CGRA-backed worker variant would plug into later: anything
//! that can turn a batch of operands into bit-identical outputs is an
//! executor.
//!
//! Bit-identity of the gather is by construction — the table holds the
//! golden datapath's own answers — and re-proven by the exhaustive
//! sweeps in this module and in `tests/bit_identical.rs`.

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

/// Full datapath walk through a worker's [`CheckedNacu`] — the fallible
/// executor fault-planned workers (and untabulated formats) serve from.
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
    /// Rebuilds each operand as an [`Fx`] in the unit's format (saturating,
    /// so a code that does not fit is clamped rather than walked), runs
    /// it through the datapath and writes the output code back.
    fn execute<T: RawCode>(&self, xs: &mut [T]) -> Result<(), FaultEvent> {
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

    #[test]
    fn datapath_walk_matches_the_golden_unit() {
        let (nacu, _) = fixture();
        let unit = CheckedNacu::new(*nacu.config()).expect("paper config");
        let walk = DatapathWalk::new(&unit, Function::Tanh);
        let fmt = nacu.config().format;
        let mut xs: Vec<Fx> = [-3.0, -0.5, 0.0, 0.75, 2.5]
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest))
            .collect();
        let inputs = xs.clone();
        let mut codes: Vec<i64> = inputs.iter().map(|x| x.raw()).collect();
        walk.execute(&mut xs).expect("no faults planned");
        walk.execute(&mut codes).expect("no faults planned");
        for ((&x, &y), &code) in inputs.iter().zip(xs.iter()).zip(codes.iter()) {
            assert_eq!(y, nacu.compute(Function::Tanh, x));
            assert_eq!(code, y.raw());
        }
    }
}
