//! Seeded workload generation and the golden outputs every reply is
//! checked against.
//!
//! The engine and the wire plane only ever see the frames generated
//! here; the expected outputs come from a separate `nacu::Nacu` built
//! from the same configuration before any timing starts.

use nacu::{Function, Nacu, NacuConfig};
use nacu_fixed::{Fx, QFormat};

/// SplitMix64: a tiny, well-mixed, seedable generator. The benchmark
/// owns its generator so the inputs depend only on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WireBulk,
    WireSmall,
    InprocDatapath,
}

/// Fixed shape of one workload: what the generator draws and how the
/// load is offered. Rates are absolute so a faster program shows lower
/// latency at the same offered load.
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Requests in the generated pool the load cycles through.
    pub pool: usize,
    /// Closed loop: load threads (one connection each on the wire).
    pub closed_threads: usize,
    /// Closed loop: requests each load thread keeps in flight.
    pub window: usize,
    /// Open loop: the low and high fixed request rates, requests/s.
    pub lo_rate: f64,
    pub hi_rate: f64,
}

impl Spec {
    pub fn named(name: &str) -> Option<Self> {
        let spec = match name {
            "wire_bulk" => Self {
                kind: Kind::WireBulk,
                name: "wire_bulk",
                pool: 96,
                closed_threads: 2,
                window: 8,
                lo_rate: 600.0,
                hi_rate: 1_500.0,
            },
            "wire_small" => Self {
                kind: Kind::WireSmall,
                name: "wire_small",
                pool: 4096,
                closed_threads: 2,
                window: 8,
                lo_rate: 5_000.0,
                hi_rate: 12_000.0,
            },
            "inproc_datapath" => Self {
                kind: Kind::InprocDatapath,
                name: "inproc_datapath",
                pool: 1024,
                closed_threads: 2,
                window: 4,
                lo_rate: 4_000.0,
                hi_rate: 10_000.0,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn wire(&self) -> bool {
        self.kind != Kind::InprocDatapath
    }

    /// The engine's datapath configuration: the paper's Q4.11 unit on
    /// the wire workloads, a 20-bit Q4.15 unit (past the response-table
    /// budget) in-process.
    pub fn nacu_config(&self) -> NacuConfig {
        match self.kind {
            Kind::InprocDatapath => NacuConfig::for_width(20).expect("20-bit format exists"),
            _ => NacuConfig::paper_16bit(),
        }
    }
}

/// One generated request with its golden outputs.
pub struct Item {
    pub function: Function,
    pub operands: Vec<Fx>,
    /// Expected output codes, from the golden `Nacu`.
    pub golden: Vec<i64>,
}

impl Item {
    /// True when `codes` equal the golden outputs code for code.
    pub fn matches(&self, codes: impl ExactSizeIterator<Item = i64>) -> bool {
        codes.len() == self.golden.len() && codes.eq(self.golden.iter().copied())
    }
}

pub struct Pool {
    pub format: QFormat,
    pub items: Vec<Item>,
    /// Total operands in the pool.
    pub ops: usize,
    /// Seconds spent computing the golden outputs (kept out of set-up).
    pub golden_s: f64,
}

const SCALAR: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// Draws a function from cumulative weights over σ, tanh, exp, softmax.
fn draw_function(rng: &mut Rng, cumulative: [f64; 4]) -> Function {
    let u = rng.unit();
    let index = cumulative.iter().position(|&c| u < c).unwrap_or(3);
    [
        Function::Sigmoid,
        Function::Tanh,
        Function::Exp,
        Function::Softmax,
    ][index]
}

/// A pre-activation-like value: the sum of four uniforms on [−1, 1],
/// so |x| ≤ 4 with most mass near 0.
fn pre_activation(rng: &mut Rng) -> f64 {
    (0..4).map(|_| 2.0 * rng.unit() - 1.0).sum()
}

impl Pool {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let config = spec.nacu_config();
        let format = config.format;
        let mut rng = Rng::new(seed);
        let fx = |raw: i64| Fx::from_raw(raw, format).expect("generated code fits the format");
        let mut shapes: Vec<(Function, Vec<Fx>)> = Vec::with_capacity(spec.pool);
        for k in 0..spec.pool {
            let shape = match spec.kind {
                // σ/tanh/exp round-robin, 4096 codes uniform over all 2^16.
                Kind::WireBulk => (
                    SCALAR[k % 3],
                    (0..4096)
                        .map(|_| fx(i64::from(rng.next_u64() as u16 as i16)))
                        .collect(),
                ),
                // 40/30/15/15 σ/tanh/exp/softmax, 1–16 operands
                // (softmax 8–10), narrow codes.
                Kind::WireSmall => {
                    let function = draw_function(&mut rng, [0.40, 0.70, 0.85, 1.0]);
                    let n = if function == Function::Softmax {
                        rng.range(8, 10)
                    } else {
                        rng.range(1, 16)
                    };
                    let scale = format.scale() as f64;
                    let ops = (0..n)
                        .map(|_| fx((pre_activation(&mut rng) * scale).round() as i64))
                        .collect();
                    (function, ops)
                }
                // 30/30/30/10 σ/tanh/exp/softmax, 32–512 operands
                // (softmax 10), codes uniform over the 20-bit range.
                Kind::InprocDatapath => {
                    let function = draw_function(&mut rng, [0.30, 0.60, 0.90, 1.0]);
                    let n = if function == Function::Softmax {
                        10
                    } else {
                        rng.range(32, 512)
                    };
                    let span = (format.max_raw() - format.min_raw()) as u64;
                    let ops = (0..n)
                        .map(|_| fx(format.min_raw() + rng.range(0, span) as i64))
                        .collect();
                    (function, ops)
                }
            };
            shapes.push(shape);
        }
        let started = std::time::Instant::now();
        let golden_unit = Nacu::new(config).expect("valid workload configuration");
        let items: Vec<Item> = shapes
            .into_iter()
            .map(|(function, operands)| {
                let golden = match function {
                    Function::Softmax => golden_unit
                        .softmax(&operands)
                        .expect("non-empty single-format vector"),
                    f => operands
                        .iter()
                        .map(|&x| golden_unit.compute(f, x))
                        .collect(),
                };
                Item {
                    function,
                    operands,
                    golden: golden.iter().map(Fx::raw).collect(),
                }
            })
            .collect();
        let golden_s = started.elapsed().as_secs_f64();
        let ops = items.iter().map(|i| i.operands.len()).sum();
        Self {
            format,
            items,
            ops,
            golden_s,
        }
    }
}
