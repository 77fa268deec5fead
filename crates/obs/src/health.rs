//! Live numerical-health monitoring: a sampling shadow-reference checker.
//!
//! The paper's headline results are *accuracy* numbers — per-function
//! max/avg error against an f64 reference (Tables II–III), the Eq. 7
//! dimensioning bound and the Eq. 16 4× σ→e amplification cap — but a
//! serving stack only proves them offline. This module moves the check
//! online: every 1-in-N served operands (default 1-in-256) the engine
//! worker recomputes the f64 reference for σ/tanh/exp, records the
//! error-in-LSB histogram per function, maintains streaming max/avg
//! error and a running correlation estimate, and raises a typed
//! [`DriftAlarm`] the moment the observed max error exceeds the bound
//! the format was dimensioned for.
//!
//! Decimation is a single relaxed `fetch_add` per *batch* (not per
//! operand): [`HealthMonitor::batch_quota`] advances a shared tick by
//! the batch's operand count and hands the worker back how many samples
//! that batch owes, so the per-operand hot path stays branch-cheap and
//! allocation-free. The f64 recompute and the CAS-loop float sums only
//! run on the sampled (cold) path.
//!
//! The exp shadow reference honours the datapath's range reduction:
//! positive inputs are clamped to zero before `e^x = σ-divide`, so the
//! reference is `exp(min(x, 0))`, not `exp(x)`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nacu::bounds::ErrorBudget;
use nacu::{error_prop, Function, NacuConfig};
use nacu_fixed::QFormat;

use crate::hist::{HistogramSnapshot, LatencyHistogram};

/// Default sampling interval: shadow-check one in this many operands.
pub const DEFAULT_SAMPLE_EVERY: u64 = 256;

/// The functions the shadow checker monitors. Softmax is served as a
/// composition of exp + normalise and MAC is exact, so neither gets its
/// own reference row.
pub const MONITORED_FUNCTIONS: [Function; 3] = [Function::Sigmoid, Function::Tanh, Function::Exp];

/// Slot index of a monitored function (`None` for softmax/MAC).
#[must_use]
pub fn monitor_slot(function: Function) -> Option<usize> {
    MONITORED_FUNCTIONS.iter().position(|&f| f == function)
}

/// Static configuration of the health monitor: the sampling rate and
/// the analytic error bounds of the NACU being watched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Shadow-check one in this many operands; `0` disables sampling.
    pub sample_every: u64,
    /// Output fixed-point format (defines the LSB errors are scaled by).
    pub format: QFormat,
    /// Divider working format Q2.(N−3) — the Eq. 16 term.
    pub work_format: QFormat,
    /// Analytic error budget of the configuration (Eq. 7 decomposition).
    pub budget: ErrorBudget,
}

impl HealthConfig {
    /// The monitor configuration for a NACU `config`, checking one in
    /// `sample_every` operands (`0` disables).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate.
    #[must_use]
    pub fn for_nacu(config: &NacuConfig, sample_every: u64) -> Self {
        let format = config.format;
        let work_format = QFormat::new(2, format.total_bits() - 3).expect("work format");
        Self {
            sample_every,
            format,
            work_format,
            budget: nacu::bounds::budget(config),
        }
    }

    /// A disabled monitor configuration (paper bounds, sampling off).
    #[must_use]
    pub fn disabled() -> Self {
        Self::for_nacu(&NacuConfig::paper_16bit(), 0)
    }

    /// The worst-case absolute error bound the monitor alarms against
    /// for `function` (`None` for unmonitored functions). Sigmoid and
    /// tanh use the Eq. 7 sum; exp uses the Eq. 16 amplification bound.
    #[must_use]
    pub fn bound(&self, function: Function) -> Option<f64> {
        match function {
            Function::Sigmoid => Some(self.budget.sigma_bound()),
            Function::Tanh => Some(self.budget.tanh_bound()),
            Function::Exp => Some(self.budget.exp_bound(self.work_format, self.format)),
            _ => None,
        }
    }

    /// The Eq. 16 amplification ceiling for exp, anchored on the *live*
    /// observed σ max error when it exceeds the analytic σ-in-work-word
    /// bound: `4·max(σ_obs, σ_work_bound) + work_res + out_res/2`. This
    /// is ≥ [`Self::bound`]`(Exp)` by construction, so a healthy unit can
    /// never trip it; exceeding it means the divider amplified σ error
    /// past the paper's 4× budget.
    #[must_use]
    pub fn exp_amplification_bound(&self, observed_sigma_max: f64) -> f64 {
        let work_res = self.work_format.resolution();
        let sigma_work =
            (self.budget.fit + self.budget.slope_quant + self.budget.bias_quant + work_res)
                .max(observed_sigma_max);
        error_prop::normalized_bound(sigma_work) + work_res + self.format.resolution() / 2.0
    }
}

/// Why a [`DriftAlarm`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Observed error exceeded the Eq. 7-style dimensioning bound of
    /// the configured format (sigma/tanh sums; exp's Eq. 16 total).
    BoundExceeded,
    /// Exp error exceeded even the live 4× σ amplification ceiling —
    /// the divider is amplifying beyond the Eq. 16 budget.
    ExpAmplification,
}

impl DriftKind {
    /// Stable exporter/trace name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::BoundExceeded => "eq7_bound",
            DriftKind::ExpAmplification => "eq16_amplification",
        }
    }
}

/// A sampled operand whose error exceeded its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlarm {
    /// The function that drifted.
    pub function: Function,
    /// Which budget it violated.
    pub kind: DriftKind,
    /// The observed absolute error.
    pub observed: f64,
    /// The bound it exceeded.
    pub bound: f64,
}

/// Per-function streaming accumulators. The float cells store f64 bit
/// patterns in `AtomicU64`s; max uses `fetch_max` (valid because the
/// bit patterns of non-negative floats order like the floats), sums use
/// a CAS loop — both only on the sampled cold path.
#[derive(Debug, Default)]
struct FnHealth {
    samples: AtomicU64,
    alarms: AtomicU64,
    err_lsb: LatencyHistogram,
    max_err: AtomicU64,
    sum_err: AtomicU64,
    sum_y: AtomicU64,
    sum_r: AtomicU64,
    sum_yy: AtomicU64,
    sum_rr: AtomicU64,
    sum_yr: AtomicU64,
}

fn atomic_max_f64(cell: &AtomicU64, value: f64) {
    // Non-negative finite f64 bit patterns are monotone in the value.
    cell.fetch_max(value.to_bits(), Ordering::Relaxed);
}

fn atomic_add_f64(cell: &AtomicU64, value: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + value).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

fn load_f64(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// The live shadow-reference checker: shared sampling tick, one
/// accumulator row per monitored function, and a sticky alarm latch.
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    tick: AtomicU64,
    slots: [FnHealth; MONITORED_FUNCTIONS.len()],
    latched: AtomicBool,
}

impl HealthMonitor {
    /// A monitor with the given configuration.
    #[must_use]
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            tick: AtomicU64::new(0),
            slots: core::array::from_fn(|_| FnHealth::default()),
            latched: AtomicBool::new(false),
        }
    }

    /// A monitor that never samples (every hook is a cheap no-op).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(HealthConfig::disabled())
    }

    /// The monitor's configuration.
    #[must_use]
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Whether sampling is enabled at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.sample_every > 0
    }

    /// Advances the shared decimation tick by a batch of `ops` operands
    /// and returns how many shadow samples that batch owes. One relaxed
    /// RMW per batch; `0` almost always.
    #[must_use]
    pub fn batch_quota(&self, ops: u64) -> u64 {
        let every = self.config.sample_every;
        if every == 0 || ops == 0 {
            return 0;
        }
        let start = self.tick.fetch_add(ops, Ordering::Relaxed);
        (start + ops) / every - start / every
    }

    /// Shadow-checks one served operand: `function(x)` answered `y` (both
    /// as reals). Updates the streaming statistics and returns a
    /// [`DriftAlarm`] if the error exceeds the function's bound.
    /// Unmonitored functions return `None` without recording.
    pub fn observe(&self, function: Function, x: f64, y: f64) -> Option<DriftAlarm> {
        let slot_index = monitor_slot(function)?;
        let reference = match function {
            Function::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Function::Tanh => x.tanh(),
            // The datapath clamps positive inputs to zero before the
            // σ-divide range reduction, so the served function is
            // exp(min(x, 0)).
            Function::Exp => x.min(0.0).exp(),
            _ => unreachable!("monitor_slot filtered unmonitored functions"),
        };
        let err = (y - reference).abs();
        let slot = &self.slots[slot_index];
        slot.samples.fetch_add(1, Ordering::Relaxed);
        let lsb = self.config.format.resolution();
        slot.err_lsb.record((err / lsb).round() as u64);
        atomic_max_f64(&slot.max_err, err);
        atomic_add_f64(&slot.sum_err, err);
        atomic_add_f64(&slot.sum_y, y);
        atomic_add_f64(&slot.sum_r, reference);
        atomic_add_f64(&slot.sum_yy, y * y);
        atomic_add_f64(&slot.sum_rr, reference * reference);
        atomic_add_f64(&slot.sum_yr, y * reference);

        let bound = self
            .config
            .bound(function)
            .expect("monitored functions have bounds");
        let alarm = if function == Function::Exp {
            let sigma_observed = load_f64(&self.slots[0].max_err);
            let amp = self.config.exp_amplification_bound(sigma_observed);
            if err > amp {
                Some(DriftAlarm {
                    function,
                    kind: DriftKind::ExpAmplification,
                    observed: err,
                    bound: amp,
                })
            } else if err > bound {
                Some(DriftAlarm {
                    function,
                    kind: DriftKind::BoundExceeded,
                    observed: err,
                    bound,
                })
            } else {
                None
            }
        } else if err > bound {
            Some(DriftAlarm {
                function,
                kind: DriftKind::BoundExceeded,
                observed: err,
                bound,
            })
        } else {
            None
        };
        if alarm.is_some() {
            slot.alarms.fetch_add(1, Ordering::Relaxed);
            self.latched.store(true, Ordering::Relaxed);
        }
        alarm
    }

    /// Drift alarms raised across every monitored function (one relaxed
    /// load per function).
    #[must_use]
    pub fn total_alarms(&self) -> u64 {
        self.slots
            .iter()
            .map(|slot| slot.alarms.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether any drift alarm has ever fired (sticky; `/health` keys
    /// off this).
    #[must_use]
    pub fn alarm_latched(&self) -> bool {
        self.latched.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every accumulator.
    #[must_use]
    pub fn snapshot(&self) -> HealthSnapshot {
        let lsb = self.config.format.resolution();
        HealthSnapshot {
            sample_every: self.config.sample_every,
            alarm_latched: self.alarm_latched(),
            rows: core::array::from_fn(|i| {
                let function = MONITORED_FUNCTIONS[i];
                let slot = &self.slots[i];
                let samples = slot.samples.load(Ordering::Relaxed);
                let max_err = load_f64(&slot.max_err);
                let sum_err = load_f64(&slot.sum_err);
                let avg_err = if samples == 0 {
                    0.0
                } else {
                    sum_err / samples as f64
                };
                let bound = self.config.bound(function).unwrap_or(0.0);
                HealthRow {
                    function,
                    samples,
                    alarms: slot.alarms.load(Ordering::Relaxed),
                    max_err,
                    avg_err,
                    max_err_lsb: max_err / lsb,
                    avg_err_lsb: avg_err / lsb,
                    correlation: correlation(
                        samples,
                        load_f64(&slot.sum_y),
                        load_f64(&slot.sum_r),
                        load_f64(&slot.sum_yy),
                        load_f64(&slot.sum_rr),
                        load_f64(&slot.sum_yr),
                    ),
                    bound,
                    bound_lsb: bound / lsb,
                    err_lsb: slot.err_lsb.snapshot(),
                }
            }),
        }
    }
}

/// Pearson correlation from streaming sums; `0.0` on degenerate input
/// (fewer than two samples or zero variance), never NaN.
fn correlation(n: u64, sum_y: f64, sum_r: f64, sum_yy: f64, sum_rr: f64, sum_yr: f64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let n = n as f64;
    let cov = n * sum_yr - sum_y * sum_r;
    let var_y = n * sum_yy - sum_y * sum_y;
    let var_r = n * sum_rr - sum_r * sum_r;
    let denom = (var_y * var_r).sqrt();
    // The guard also rejects NaN (comparisons with NaN are false).
    if denom.is_finite() && denom > 0.0 {
        (cov / denom).clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

/// Point-in-time health statistics: the exporter and `/health` input.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Sampling interval in effect (`0` = disabled).
    pub sample_every: u64,
    /// Whether a drift alarm has ever fired.
    pub alarm_latched: bool,
    /// Rows in [`MONITORED_FUNCTIONS`] order.
    pub rows: [HealthRow; MONITORED_FUNCTIONS.len()],
}

impl Default for HealthSnapshot {
    fn default() -> Self {
        HealthMonitor::disabled().snapshot()
    }
}

impl HealthSnapshot {
    /// The row for `function` (`None` for unmonitored functions).
    #[must_use]
    pub fn row(&self, function: Function) -> Option<&HealthRow> {
        monitor_slot(function).map(|i| &self.rows[i])
    }

    /// Total shadow samples across every function.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.rows.iter().map(|r| r.samples).sum()
    }

    /// Total drift alarms across every function.
    #[must_use]
    pub fn total_alarms(&self) -> u64 {
        self.rows.iter().map(|r| r.alarms).sum()
    }

    /// Row-wise difference since `earlier`. Counters and histograms
    /// diff (saturating); extremes, averages, correlation, bounds and
    /// the latch keep `self`'s lifetime values.
    #[must_use]
    pub fn since(&self, earlier: &HealthSnapshot) -> HealthSnapshot {
        HealthSnapshot {
            sample_every: self.sample_every,
            alarm_latched: self.alarm_latched,
            rows: core::array::from_fn(|i| {
                let now = &self.rows[i];
                let then = &earlier.rows[i];
                HealthRow {
                    function: now.function,
                    samples: now.samples.saturating_sub(then.samples),
                    alarms: now.alarms.saturating_sub(then.alarms),
                    err_lsb: now.err_lsb.since(&then.err_lsb),
                    ..now.clone()
                }
            }),
        }
    }
}

/// One monitored function's streaming health statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRow {
    /// The monitored function.
    pub function: Function,
    /// Shadow samples taken.
    pub samples: u64,
    /// Drift alarms raised.
    pub alarms: u64,
    /// Maximum observed absolute error vs the f64 reference.
    pub max_err: f64,
    /// Mean observed absolute error.
    pub avg_err: f64,
    /// Max error in output-format LSBs.
    pub max_err_lsb: f64,
    /// Mean error in output-format LSBs.
    pub avg_err_lsb: f64,
    /// Running Pearson correlation between served and reference values
    /// (Tables II–III report the same statistic offline).
    pub correlation: f64,
    /// The absolute-error bound this function alarms against.
    pub bound: f64,
    /// That bound in output-format LSBs.
    pub bound_lsb: f64,
    /// Error-in-LSB histogram (bucket value = error rounded to LSBs).
    pub err_lsb: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(sample_every: u64) -> HealthMonitor {
        HealthMonitor::new(HealthConfig::for_nacu(
            &NacuConfig::paper_16bit(),
            sample_every,
        ))
    }

    #[test]
    fn batch_quota_decimates_exactly() {
        let monitor = enabled(256);
        let mut total = 0;
        for _ in 0..100 {
            total += monitor.batch_quota(64);
        }
        // 6400 operands at 1-in-256: exactly 25 samples owed overall.
        assert_eq!(total, 25);
        // A disabled monitor owes nothing.
        assert_eq!(HealthMonitor::disabled().batch_quota(1 << 20), 0);
    }

    #[test]
    fn accurate_samples_never_alarm() {
        let monitor = enabled(1);
        for i in 0..200 {
            let x = -6.0 + 12.0 * i as f64 / 199.0;
            let sigma = 1.0 / (1.0 + (-x).exp());
            assert!(monitor.observe(Function::Sigmoid, x, sigma).is_none());
            assert!(monitor.observe(Function::Tanh, x, x.tanh()).is_none());
            // Served exp clamps positive inputs to zero first.
            let served = x.min(0.0).exp();
            assert!(monitor.observe(Function::Exp, x, served).is_none());
        }
        assert!(!monitor.alarm_latched());
        let s = monitor.snapshot();
        assert_eq!(s.total_alarms(), 0);
        assert_eq!(s.row(Function::Sigmoid).unwrap().samples, 200);
        assert!(s.row(Function::Tanh).unwrap().correlation > 0.999);
        assert!(s.row(Function::Exp).unwrap().max_err == 0.0);
    }

    #[test]
    fn excess_error_latches_a_bound_alarm() {
        let monitor = enabled(1);
        let bound = monitor.config().bound(Function::Sigmoid).unwrap();
        let x = 0.5_f64;
        let sigma = 1.0 / (1.0 + (-x).exp());
        let alarm = monitor
            .observe(Function::Sigmoid, x, sigma + 2.0 * bound)
            .expect("must alarm");
        assert_eq!(alarm.kind, DriftKind::BoundExceeded);
        assert_eq!(alarm.function, Function::Sigmoid);
        assert!(alarm.observed > alarm.bound);
        assert!(monitor.alarm_latched());
        let s = monitor.snapshot();
        assert_eq!(s.row(Function::Sigmoid).unwrap().alarms, 1);
        assert!(s.alarm_latched);
    }

    #[test]
    fn exp_amplification_attributes_past_the_live_ceiling() {
        let monitor = enabled(1);
        let exp_bound = monitor.config().bound(Function::Exp).unwrap();
        assert!(
            monitor.config().exp_amplification_bound(0.0) >= exp_bound,
            "amplification ceiling below Eq.16 bound"
        );
        // Feed a σ sample just under the σ bound: no σ alarm, but the
        // live amplification ceiling rises strictly above the static
        // Eq. 16 bound, separating the two attributions.
        let sigma_err = 0.99 * monitor.config().bound(Function::Sigmoid).unwrap();
        let sigma = 1.0 / (1.0 + 0.5_f64.exp());
        assert!(monitor
            .observe(Function::Sigmoid, -0.5, sigma + sigma_err)
            .is_none());
        let amp = monitor.config().exp_amplification_bound(sigma_err);
        assert!(amp > exp_bound);
        // Just over Eq. 16 total but under the ceiling: bound attribution.
        let x = -0.25_f64;
        let served = x.exp();
        let mid = monitor
            .observe(Function::Exp, x, served + (exp_bound + amp) / 2.0)
            .expect("must alarm");
        assert_eq!(mid.kind, DriftKind::BoundExceeded);
        // Far past the ceiling: amplification attribution.
        let big = monitor
            .observe(Function::Exp, x, served + 2.0 * amp)
            .expect("must alarm");
        assert_eq!(big.kind, DriftKind::ExpAmplification);
    }

    #[test]
    fn softmax_and_mac_are_not_monitored() {
        let monitor = enabled(1);
        assert!(monitor.observe(Function::Softmax, 1.0, 9.9).is_none());
        assert!(monitor.observe(Function::Mac, 1.0, 9.9).is_none());
        assert_eq!(monitor.snapshot().total_samples(), 0);
    }

    #[test]
    fn snapshot_since_diffs_counters_keeps_extremes() {
        let monitor = enabled(1);
        let _ = monitor.observe(Function::Tanh, 0.3, 0.3_f64.tanh());
        let early = monitor.snapshot();
        let _ = monitor.observe(Function::Tanh, 0.4, 0.4_f64.tanh());
        let d = monitor.snapshot().since(&early);
        let row = d.row(Function::Tanh).unwrap();
        assert_eq!(row.samples, 1);
        assert_eq!(row.err_lsb.count, 1);
        // Lifetime extremes survive the diff.
        assert!(row.max_err >= 0.0);
        assert_eq!(d.sample_every, 1);
    }

    #[test]
    fn correlation_handles_degenerate_input() {
        assert_eq!(correlation(0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0);
        assert_eq!(correlation(1, 1.0, 1.0, 1.0, 1.0, 1.0), 0.0);
        // Constant series: zero variance, defined as 0.
        assert_eq!(correlation(3, 3.0, 3.0, 3.0, 3.0, 3.0), 0.0);
    }
}
