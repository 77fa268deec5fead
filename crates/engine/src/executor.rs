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
use nacu_fixed::Fx;

/// Turns one batch of operands into the function's responses, in place.
pub trait BatchExecutor {
    /// Rewrites every element of `xs` with its response, bit-identical
    /// to the golden datapath. The table gather is infallible; the
    /// datapath walk stops at the first detector event, leaving `xs`
    /// partially rewritten — callers that need pristine operands for a
    /// retry execute on a copy, as the pool's datapath arm does.
    fn execute(&self, xs: &mut [Fx]) -> Result<(), FaultEvent>;
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
    fn execute(&self, xs: &mut [Fx]) -> Result<(), FaultEvent> {
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
    fn execute(&self, xs: &mut [Fx]) -> Result<(), FaultEvent> {
        for x in xs {
            *x = self.unit.compute(self.function, *x)?;
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

    /// Runs the gather over every input code of the paper's format and
    /// checks each output against the per-operand lookup AND the golden
    /// datapath.
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
            ScalarGather::new(table)
                .execute(&mut batch)
                .expect("table path");
            for (&x, &y) in inputs.iter().zip(batch.iter()) {
                assert_eq!(y, table.lookup(x), "{function} vs lookup at {x}");
                assert_eq!(
                    y,
                    nacu.compute(function, x),
                    "{function} vs datapath at {x}"
                );
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
        walk.execute(&mut xs).expect("no faults planned");
        for (&x, &y) in inputs.iter().zip(xs.iter()) {
            assert_eq!(y, nacu.compute(Function::Tanh, x));
        }
    }
}
