//! The compiled datapath equals the golden [`Nacu`] bit for bit: on
//! every code at every `for_width` width, over random LUT sizes, fit
//! methods and ROM words, and for softmax with either exp stage.

use nacu::{CompiledNacu, Function, Nacu, NacuConfig, ResponseTables};
use nacu_fixed::Fx;
use nacu_funcapprox::segment::FitMethod;
use proptest::prelude::*;

const UNARY: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// Every code of `nacu`'s format through both walks, for σ, tanh and exp,
/// plus the closed-form segment index against the golden address decode.
fn assert_identical_on_every_code(nacu: &Nacu) {
    let unit = CompiledNacu::new(nacu).expect("narrow enough to compile");
    let fmt = nacu.config().format;
    for raw in fmt.raw_codes() {
        let x = Fx::from_raw_saturating(raw, fmt);
        for function in UNARY {
            assert_eq!(
                unit.compute(function, raw),
                nacu.compute(function, x).raw(),
                "{function} diverges at {fmt}, {} entries, raw {raw}",
                nacu.lut_entries()
            );
        }
        if raw >= 0 {
            assert_eq!(unit.segment_index(raw), nacu.lookup_index(raw), "raw {raw}");
        }
    }
}

#[test]
fn every_code_at_every_width_from_8_to_21() {
    for width in 8..=21 {
        let config = NacuConfig::for_width(width).expect("Eq. 7 holds");
        assert_identical_on_every_code(&Nacu::new(config).expect("valid config"));
    }
}

#[test]
fn in_place_walk_saturates_out_of_format_codes_like_the_golden_walk() {
    let nacu = Nacu::new(NacuConfig::for_width(20).expect("Eq. 7 holds")).expect("valid");
    let unit = CompiledNacu::new(&nacu).expect("compiles");
    let fmt = nacu.config().format;
    let codes = [
        fmt.min_raw() - 5,
        fmt.min_raw(),
        -1,
        0,
        1,
        fmt.max_raw(),
        fmt.max_raw() + 9,
    ];
    for function in UNARY {
        let mut walked = codes;
        unit.compute_in_place(function, &mut walked);
        for (&raw, &y) in codes.iter().zip(&walked) {
            let x = Fx::from_raw_saturating(raw, fmt);
            assert_eq!(y, nacu.compute(function, x).raw(), "{function} at {raw}");
        }
    }
}

#[test]
fn words_wider_than_31_bits_do_not_compile() {
    let config = NacuConfig::for_width(32)
        .expect("Eq. 7 holds")
        .with_lut_entries(16);
    assert!(CompiledNacu::new(&Nacu::new(config).expect("valid")).is_none());
}

/// `nacu`'s softmax of `codes` against the compiled one, with the
/// compiled exp stage and, where the format is tabulated, the table's.
fn assert_softmax_identical(nacu: &Nacu, codes: &[i64]) {
    let fmt = nacu.config().format;
    let unit = CompiledNacu::new(nacu).expect("compiles");
    let inputs: Vec<Fx> = codes
        .iter()
        .map(|&raw| Fx::from_raw_saturating(raw, fmt))
        .collect();
    let golden: Vec<i64> = nacu
        .softmax(&inputs)
        .expect("non-empty vector")
        .iter()
        .map(|y| y.raw())
        .collect();
    let mut compiled = codes.to_vec();
    unit.softmax_in_place(&mut compiled, |d| unit.compute_in_place(Function::Exp, d))
        .expect("non-empty vector");
    assert_eq!(compiled, golden, "compiled exp stage, {fmt}, {codes:?}");
    if let Some(tables) = ResponseTables::build(nacu) {
        let mut tabled = codes.to_vec();
        unit.softmax_in_place(&mut tabled, |d| tables.exp().lookup_in_place(d))
            .expect("non-empty vector");
        assert_eq!(tabled, golden, "table exp stage, {fmt}, {codes:?}");
    }
}

fn fit_method() -> impl Strategy<Value = FitMethod> {
    prop_oneof![Just(FitMethod::Minimax), Just(FitMethod::Interpolate)]
}

/// A softmax vector at `width` bits: uniform codes, codes that are all
/// equal, or codes drawn from the format's extremes and zero.
fn softmax_case(width: u32) -> impl Strategy<Value = Vec<i64>> {
    let max = (1_i64 << (width - 1)) - 1;
    let min = -max - 1;
    prop_oneof![
        proptest::collection::vec(min..=max, 1..65),
        (min..=max, 1_usize..=64).prop_map(|(code, len)| vec![code; len]),
        proptest::collection::vec(
            prop_oneof![Just(min), Just(max), Just(0_i64), Just(-1_i64)],
            1..65
        ),
    ]
}

proptest! {
    /// Random LUT sizes and fit methods, exhaustive over each case's codes.
    #[test]
    fn random_luts_and_fit_methods_match_on_every_code(
        width in 8_u32..=16,
        entries in 4_usize..=512,
        method in fit_method(),
    ) {
        let config = NacuConfig::for_width(width)
            .expect("Eq. 7 holds")
            .with_lut_entries(entries)
            .with_fit_method(method);
        prop_assume!(config.validate().is_ok());
        assert_identical_on_every_code(&Nacu::new(config).expect("validated"));
    }

    /// Arbitrary in-format ROM words — slopes and biases no fit would
    /// produce, as a faulted or externally authored ROM holds.
    #[test]
    fn random_rom_words_match_on_every_code(
        width in 8_u32..=16,
        words in proptest::collection::vec((-32_768_i64..=32_767, -32_768_i64..=32_767), 4..65),
    ) {
        let config = NacuConfig::for_width(width)
            .expect("Eq. 7 holds")
            .with_lut_entries(words.len());
        prop_assume!(config.validate().is_ok());
        // Narrow each word into the width's two's-complement range.
        let shift = 16 - width;
        let rom: Vec<(i64, i64)> = words.iter().map(|&(m, q)| (m >> shift, q >> shift)).collect();
        let nacu = Nacu::from_coefficients(config, &rom).expect("matching entry count");
        assert_identical_on_every_code(&nacu);
    }

    #[test]
    fn softmax_matches_at_16_bits(codes in softmax_case(16)) {
        let nacu = Nacu::new(NacuConfig::for_width(16).expect("Eq. 7 holds")).expect("valid");
        assert_softmax_identical(&nacu, &codes);
    }

    #[test]
    fn softmax_matches_at_20_bits(codes in softmax_case(20)) {
        let nacu = Nacu::new(NacuConfig::for_width(20).expect("Eq. 7 holds")).expect("valid");
        assert_softmax_identical(&nacu, &codes);
    }
}

/// Vectors long enough to saturate the `Q(i+7).w_f` denominator
/// accumulator, which the 1–64 element property cases never reach.
#[test]
fn softmax_matches_when_the_denominator_saturates() {
    for width in [16, 20] {
        let nacu = Nacu::new(NacuConfig::for_width(width).expect("Eq. 7 holds")).expect("valid");
        let fmt = nacu.config().format;
        let ramp: Vec<i64> = (0..5000).map(|i| fmt.min_raw() + i * 97).collect();
        assert_softmax_identical(&nacu, &ramp);
        assert_softmax_identical(&nacu, &vec![7; 5000]);
    }
}

#[test]
fn softmax_rejects_an_empty_vector() {
    let nacu = Nacu::new(NacuConfig::paper_16bit()).expect("paper config");
    let unit = CompiledNacu::new(&nacu).expect("compiles");
    assert!(unit
        .softmax_in_place(&mut [], |d| unit.compute_in_place(Function::Exp, d))
        .is_err());
}
