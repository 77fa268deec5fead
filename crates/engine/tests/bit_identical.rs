//! The engine's one inviolable contract, as a property: batched,
//! coalesced, multi-worker evaluation returns exactly the bits the
//! sequential [`Nacu`] datapath produces — for every function, any
//! batch size, any Eq. 7 word width, and any pool width (including the
//! degenerate 1-worker pool).

use proptest::collection::vec;
use proptest::prelude::*;

use nacu::{Function, Nacu, NacuConfig};
use nacu_engine::{Engine, EngineConfig, Request};
use nacu_fixed::{Fx, Rounding};

fn pool(config: NacuConfig, workers: usize) -> Engine {
    Engine::new(
        EngineConfig::new(config)
            .with_workers(workers)
            .with_queue_capacity(64)
            .with_max_coalesced_requests(8),
    )
    .expect("validated config")
}

fn to_operands(values: &[f64], config: NacuConfig) -> Vec<Fx> {
    values
        .iter()
        .map(|&v| Fx::from_f64(v, config.format, Rounding::Nearest))
        .collect()
}

/// Drives every raw input code of `config`'s format through two engines —
/// fast path enabled and disabled — and checks
/// both against the sequential datapath, for all three unary functions.
/// Chunked waves keep all four workers of each engine busy while the test
/// thread computes the reference.
fn exhaustive_engine_sweep(config: NacuConfig, expect_fast: bool) {
    use nacu_engine::Ticket;
    let sequential = Nacu::new(config).expect("builds");
    let fmt = config.format;
    let engine_with = |fast: bool| {
        Engine::new(
            EngineConfig::new(config)
                .with_workers(4)
                .with_queue_capacity(64)
                .with_max_coalesced_requests(8)
                .with_fast_path(fast),
        )
        .expect("validated config")
    };
    let on = engine_with(true);
    let off = engine_with(false);
    let codes: Vec<Fx> = fmt
        .raw_codes()
        .map(|raw| Fx::from_raw_saturating(raw, fmt))
        .collect();
    const CHUNK: usize = 8192;
    let mut total_ops = 0u64;
    for function in [Function::Sigmoid, Function::Tanh, Function::Exp] {
        for wave in codes.chunks(CHUNK * 8) {
            let in_flight: Vec<(&[Fx], Ticket, Ticket)> = wave
                .chunks(CHUNK)
                .map(|chunk| {
                    let t_on = on
                        .submit(Request::new(function, chunk.to_vec()))
                        .expect("well-formed request");
                    let t_off = off
                        .submit(Request::new(function, chunk.to_vec()))
                        .expect("well-formed request");
                    (chunk, t_on, t_off)
                })
                .collect();
            for (chunk, t_on, t_off) in in_flight {
                let expected: Vec<Fx> = chunk
                    .iter()
                    .map(|&x| sequential.compute(function, x))
                    .collect();
                assert_eq!(
                    t_on.wait()
                        .expect("served")
                        .outputs
                        .iter()
                        .collect::<Vec<_>>(),
                    expected,
                    "fast-path engine diverged on {function}"
                );
                assert_eq!(
                    t_off
                        .wait()
                        .expect("served")
                        .outputs
                        .iter()
                        .collect::<Vec<_>>(),
                    expected,
                    "datapath engine diverged on {function}"
                );
                total_ops += chunk.len() as u64;
            }
        }
    }
    let m_on = on.metrics();
    if expect_fast {
        assert_eq!(
            m_on.fast_path_ops, total_ops,
            "every operand should have been table-served"
        );
    } else {
        assert_eq!(
            m_on.fast_path_ops, 0,
            "format past the table budget must stay on the datapath"
        );
    }
    assert_eq!(off.metrics().fast_path_ops, 0, "fast path was disabled");
    on.shutdown();
    off.shutdown();
}

/// Exhaustive fast-path equivalence at the paper's Q4.11: every one of
/// the 2^16 input codes, served through the engine with the fast path on
/// and off, matches the sequential datapath bit for bit.
#[test]
fn exhaustive_q4_11_sweep_is_bit_identical_fast_path_on_and_off() {
    let config = NacuConfig::paper_16bit();
    assert_eq!(
        (config.format.int_bits(), config.format.frac_bits()),
        (4, 11)
    );
    exhaustive_engine_sweep(config, true);
}

/// The same exhaustive sweep at Q4.15 (20-bit words): past the table
/// budget the fast path must fall back to the datapath — `fast_path_ops`
/// stays zero — and the engine remains bit-identical.
#[test]
fn exhaustive_q4_15_sweep_falls_back_to_the_datapath() {
    let config = NacuConfig::for_width(20).expect("Eq. 7 solvable at 20 bits");
    assert_eq!(
        (config.format.int_bits(), config.format.frac_bits()),
        (4, 15),
        "the 20-bit Eq. 7 dimensioning is Q4.15"
    );
    exhaustive_engine_sweep(config, false);
}

proptest! {
    #[test]
    fn scalar_batches_are_bit_identical_to_the_sequential_unit(
        width in 8_u32..=18,
        workers in 1_usize..=4,
        values in vec(-8.0_f64..8.0, 1..48),
        function_pick in 0_u8..3,
    ) {
        let function = match function_pick {
            0 => Function::Sigmoid,
            1 => Function::Tanh,
            _ => Function::Exp,
        };
        let config = NacuConfig::for_width(width).expect("Eq. 7 solvable");
        let sequential = Nacu::new(config).expect("builds");
        let operands = to_operands(&values, config);

        let engine = pool(config, workers);
        let response = engine
            .submit(Request::new(function, operands.clone()))
            .expect("well-formed request")
            .wait()
            .expect("served");
        engine.shutdown();

        let expected: Vec<Fx> = operands
            .iter()
            .map(|&x| sequential.compute(function, x))
            .collect();
        prop_assert_eq!(response.outputs.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn softmax_batches_are_bit_identical_to_the_sequential_unit(
        width in 8_u32..=18,
        workers in 1_usize..=4,
        values in vec(-6.0_f64..6.0, 1..24),
    ) {
        let config = NacuConfig::for_width(width).expect("Eq. 7 solvable");
        let sequential = Nacu::new(config).expect("builds");
        let operands = to_operands(&values, config);

        let engine = pool(config, workers);
        let response = engine
            .submit(Request::new(Function::Softmax, operands.clone()))
            .expect("well-formed request")
            .wait()
            .expect("served");
        engine.shutdown();

        let expected = sequential.softmax(&operands).expect("non-empty batch");
        prop_assert_eq!(response.outputs.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn interleaved_multi_client_streams_stay_bit_identical(
        workers in 1_usize..=4,
        per_client in 1_usize..=12,
        seed in 0_u64..256,
    ) {
        // Several threads hammer one pool with mixed functions at once;
        // coalescing may fuse requests across clients, but every reply
        // must still carry exactly the sequential unit's bits.
        let config = NacuConfig::paper_16bit();
        let sequential = Nacu::new(config).expect("paper config");
        let engine = pool(config, workers);
        std::thread::scope(|scope| {
            for client in 0..3_u64 {
                let handle = engine.handle();
                let sequential = &sequential;
                scope.spawn(move || {
                    for i in 0..per_client as u64 {
                        let mixed = seed.wrapping_mul(31).wrapping_add(client * 7 + i);
                        let function = match mixed % 3 {
                            0 => Function::Sigmoid,
                            1 => Function::Tanh,
                            _ => Function::Exp,
                        };
                        let v = (mixed % 1600) as f64 / 100.0 - 8.0;
                        let x = Fx::from_f64(v, config.format, Rounding::Nearest);
                        let response = handle
                            .submit_wait(Request::new(function, vec![x]))
                            .expect("served");
                        assert_eq!(
                            response.outputs.iter().collect::<Vec<_>>(),
                            [sequential.compute(function, x)],
                            "client {client} op {i}: {function:?}({v})"
                        );
                    }
                });
            }
        });
        engine.shutdown();
    }
}
