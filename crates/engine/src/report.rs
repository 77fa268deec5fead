//! Throughput reporting: measured software ops/s next to the cycle count
//! the same workload would take on real NACU hardware.
//!
//! The modeled side reuses [`nacu::pipeline::latency_cycles`] (Table I):
//! a fused batch of `n` operands on a stall-free pipeline costs
//! `latency + n − 1` cycles, and the Eq. 13 softmax runs as two such
//! passes (exp then divider normalisation) over the vector. At the
//! paper's 3.75 ns clock (§VII.C) that converts modeled cycles into
//! modeled wall time, which is how the engine demo relates software
//! throughput to Table I latencies.

use std::time::Duration;

use nacu::pipeline::{checked_latency_cycles, latency_cycles};
use nacu::Function;
use nacu_obs::{HistogramSnapshot, ObsSnapshot, Stage, Telemetry, WINDOWS};

use crate::metrics::MetricsSnapshot;

/// The paper's clock period, 3.75 ns (§VII.C: 24 cycles ⇒ 90 ns exp).
pub const PAPER_CLOCK_HZ: f64 = 1.0 / 3.75e-9;

/// Modeled cycles for one fused batch of `ops` operands of `function` on a
/// single NACU pipeline (Table I latencies, stall-free issue).
#[must_use]
pub fn modeled_batch_cycles(function: Function, ops: usize) -> u64 {
    if ops == 0 {
        return 0;
    }
    let fill = u64::from(latency_cycles(function));
    let n = ops as u64;
    match function {
        // Eq. 13's two-pass schedule: a max-normalised exp pass feeding the
        // MAC denominator, then a divider pass normalising each element.
        Function::Softmax => 2 * (fill + n - 1),
        // One pipelined pass: fill the pipeline once, then one result per
        // cycle.
        _ => fill + n - 1,
    }
}

/// Modeled cycles for the same fused batch on a *checked* unit — the
/// detector compare stage ([`checked_latency_cycles`]) deepens the fill,
/// but the streaming rate is unchanged.
#[must_use]
pub fn modeled_checked_batch_cycles(function: Function, ops: usize) -> u64 {
    if ops == 0 {
        return 0;
    }
    let fill = u64::from(checked_latency_cycles(function));
    let n = ops as u64;
    match function {
        Function::Softmax => 2 * (fill + n - 1),
        _ => fill + n - 1,
    }
}

/// p50/p90/p99/max of one latency distribution, in nanoseconds.
///
/// Zeroed when the engine served nothing (or observability was detached).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples behind the percentiles.
    pub count: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Largest observed, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarises one histogram snapshot.
    #[must_use]
    pub fn from_histogram(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count,
            p50_ns: h.p50(),
            p90_ns: h.p90(),
            p99_ns: h.p99(),
            max_ns: h.max,
        }
    }
}

/// One rolling-window row of the report: recent traffic as the windowed
/// telemetry sampler saw it, next to the lifetime aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowLine {
    /// Window label ("10s", "1m", "5m" — see [`nacu_obs::WINDOWS`]).
    pub label: &'static str,
    /// Sampled span actually covered, ns (shorter than the nominal
    /// window until enough samples accumulate).
    pub span_ns: u64,
    /// Requests completed inside the window (end-to-end samples).
    pub requests: u64,
    /// End-to-end p99 inside the window, ns.
    pub p99_e2e_ns: u64,
    /// Operands per second inside the window.
    pub ops_per_sec: f64,
}

/// A throughput measurement over one serving interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThroughputReport {
    /// Operands evaluated during the interval.
    pub ops: u64,
    /// Requests completed during the interval.
    pub requests: u64,
    /// Fused batches executed.
    pub batches: u64,
    /// Wall-clock duration of the interval.
    pub wall: Duration,
    /// Modeled hardware cycles for the same work, summed over batches.
    pub modeled_cycles: u64,
    /// Worker (NACU unit) count that served the interval.
    pub workers: usize,
    /// Detector events observed during the interval.
    pub faults_detected: u64,
    /// Requests requeued onto a healthy worker after a fault.
    pub retries: u64,
    /// Workers quarantined during the interval.
    pub workers_quarantined: u64,
    /// Operands served straight from a response table.
    pub fast_path_ops: u64,
    /// Queue-wait latency distribution (submission → batch pickup),
    /// merged across functions. Zeroed until filled by
    /// [`ThroughputReport::with_observability`].
    pub queue_wait: LatencySummary,
    /// End-to-end latency distribution (submission → response), merged
    /// across functions. Zeroed until filled by
    /// [`ThroughputReport::with_observability`].
    pub end_to_end: LatencySummary,
    /// Modeled cycles for the same work on *checked* units (detector
    /// stage included). Zeroed until filled by
    /// [`ThroughputReport::with_observability`].
    pub checked_cycles: u64,
    /// Measured wall time the workers spent inside batch service, summed
    /// over batches, ns. Zeroed until filled by
    /// [`ThroughputReport::with_observability`].
    pub measured_batch_ns: u64,
    /// Operands shadow-checked against the f64 reference. Zeroed until
    /// filled by [`ThroughputReport::with_observability`].
    pub health_samples: u64,
    /// Shadow samples whose error exceeded the Eq. 7 / Eq. 16 budget.
    /// Zeroed until filled by [`ThroughputReport::with_observability`].
    pub drift_alarms: u64,
    /// Rolling-window rows (one per [`nacu_obs::WINDOWS`] entry), all
    /// `None` until filled by [`ThroughputReport::with_windows`] — i.e.
    /// on engines running the telemetry sampler.
    pub windows: [Option<WindowLine>; WINDOWS.len()],
}

impl ThroughputReport {
    /// Builds a report from a metrics interval (see
    /// [`MetricsSnapshot::since`]) and its wall-clock duration.
    #[must_use]
    pub fn from_interval(delta: &MetricsSnapshot, wall: Duration, workers: usize) -> Self {
        Self {
            ops: delta.total_ops(),
            requests: delta.requests_completed,
            batches: delta.batches_executed,
            wall,
            modeled_cycles: delta.modeled_cycles,
            workers,
            faults_detected: delta.faults_detected,
            retries: delta.retries,
            workers_quarantined: delta.workers_quarantined,
            fast_path_ops: delta.fast_path_ops,
            queue_wait: LatencySummary::default(),
            end_to_end: LatencySummary::default(),
            checked_cycles: 0,
            measured_batch_ns: 0,
            health_samples: 0,
            drift_alarms: 0,
            windows: [None; WINDOWS.len()],
        }
    }

    /// Fills the latency and cycle-accounting sections from an
    /// observability snapshot (usually [`crate::Engine::obs_snapshot`],
    /// optionally diffed with [`ObsSnapshot::since`] to match the
    /// metrics interval).
    #[must_use]
    pub fn with_observability(mut self, obs: &ObsSnapshot) -> Self {
        self.queue_wait = LatencySummary::from_histogram(&obs.stage_merged(Stage::QueueWait));
        self.end_to_end = LatencySummary::from_histogram(&obs.stage_merged(Stage::EndToEnd));
        let totals = obs.cycles.total();
        self.checked_cycles = totals.checked_cycles;
        self.measured_batch_ns = totals.measured_ns;
        self.health_samples = obs.health.total_samples();
        self.drift_alarms = obs.health.total_alarms();
        self
    }

    /// Fills the rolling-window rows from a live telemetry plane (see
    /// [`crate::EngineHandle::telemetry`]).
    #[must_use]
    pub fn with_windows(mut self, telemetry: &Telemetry) -> Self {
        for (slot, &(label, duration)) in self.windows.iter_mut().zip(WINDOWS.iter()) {
            let window = telemetry.series().window(duration);
            let e2e = window.stage_merged(Stage::EndToEnd);
            *slot = Some(WindowLine {
                label,
                span_ns: window.span_ns,
                requests: e2e.count,
                p99_e2e_ns: e2e.p99(),
                ops_per_sec: window.per_second(window.total_ops()),
            });
        }
        self
    }

    /// Modeled (Table I) cycles per operand for the interval's mix.
    #[must_use]
    pub fn modeled_cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.modeled_cycles as f64 / self.ops as f64
    }

    /// Measured batch-service time rendered as cycles per operand at
    /// `clock_hz` — what the software datapath "paid" in hardware terms.
    #[must_use]
    pub fn effective_cycles_per_op(&self, clock_hz: f64) -> f64 {
        if self.ops == 0 || clock_hz <= 0.0 {
            return 0.0;
        }
        (self.measured_batch_ns as f64 * 1e-9) * clock_hz / self.ops as f64
    }

    /// Measured batch-service time over the modeled hardware time at
    /// `clock_hz` (> 1 ⇒ software slower than the model, the usual case).
    #[must_use]
    pub fn model_measured_ratio(&self, clock_hz: f64) -> f64 {
        if self.modeled_cycles == 0 || clock_hz <= 0.0 {
            return 0.0;
        }
        let modeled_secs = self.modeled_cycles as f64 / clock_hz;
        (self.measured_batch_ns as f64 * 1e-9) / modeled_secs
    }

    /// Measured software throughput in operands per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / secs
    }

    /// Mean operands fused per hardware batch — the coalescing win.
    #[must_use]
    pub fn ops_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.ops as f64 / self.batches as f64
    }

    /// Modeled hardware time for the interval's work at `clock_hz`,
    /// assuming the pool's units run their batches back to back and the
    /// shards divide the work evenly.
    #[must_use]
    pub fn modeled_hardware_time(&self, clock_hz: f64) -> Duration {
        if clock_hz <= 0.0 || self.workers == 0 {
            return Duration::ZERO;
        }
        let cycles_per_unit = self.modeled_cycles as f64 / self.workers as f64;
        Duration::from_secs_f64(cycles_per_unit / clock_hz)
    }

    /// Modeled hardware throughput (operands per second) at `clock_hz`.
    #[must_use]
    pub fn modeled_ops_per_sec(&self, clock_hz: f64) -> f64 {
        let t = self.modeled_hardware_time(clock_hz).as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / t
    }

    /// How much faster the modeled hardware is than this software run.
    #[must_use]
    pub fn hardware_speedup(&self, clock_hz: f64) -> f64 {
        let hw = self.modeled_hardware_time(clock_hz).as_secs_f64();
        if hw <= 0.0 {
            return 0.0;
        }
        self.wall.as_secs_f64() / hw
    }
}

impl std::fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops in {:?} on {} worker(s): {:.0} ops/s software, \
             {:.1} ops/batch; modeled {} cycles = {:?} at the paper clock \
             ({:.0} ops/s, {:.0}x)",
            self.ops,
            self.wall,
            self.workers,
            self.ops_per_sec(),
            self.ops_per_batch(),
            self.modeled_cycles,
            self.modeled_hardware_time(PAPER_CLOCK_HZ),
            self.modeled_ops_per_sec(PAPER_CLOCK_HZ),
            self.hardware_speedup(PAPER_CLOCK_HZ),
        )?;
        if self.queue_wait.count > 0 || self.end_to_end.count > 0 {
            write!(
                f,
                "; queue wait p50/p99 {}/{} ns, end-to-end p50/p99 {}/{} ns, \
                 {:.1} effective vs {:.1} modeled cycles/op",
                self.queue_wait.p50_ns,
                self.queue_wait.p99_ns,
                self.end_to_end.p50_ns,
                self.end_to_end.p99_ns,
                self.effective_cycles_per_op(PAPER_CLOCK_HZ),
                self.modeled_cycles_per_op(),
            )?;
        }
        if self.fast_path_ops > 0 {
            write!(f, "; {} table-served op(s)", self.fast_path_ops)?;
        }
        if self.faults_detected > 0 || self.workers_quarantined > 0 {
            write!(
                f,
                "; {} fault(s) detected, {} retried request(s), {} worker(s) quarantined",
                self.faults_detected, self.retries, self.workers_quarantined,
            )?;
        }
        if self.health_samples > 0 {
            write!(
                f,
                "; {} shadow sample(s), {} drift alarm(s)",
                self.health_samples, self.drift_alarms,
            )?;
        }
        for line in self.windows.iter().flatten() {
            write!(
                f,
                "; [{}] {} req, p99 {} ns, {:.0} ops/s",
                line.label, line.requests, line.p99_e2e_ns, line.ops_per_sec,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_cycles_match_pipeline_fill_plus_stream() {
        // Table I: σ/tanh fill 3 cycles, exp 8.
        assert_eq!(modeled_batch_cycles(Function::Sigmoid, 100), 102);
        assert_eq!(modeled_batch_cycles(Function::Tanh, 1), 3);
        assert_eq!(modeled_batch_cycles(Function::Exp, 50), 57);
        assert_eq!(modeled_batch_cycles(Function::Softmax, 16), 2 * 23);
        assert_eq!(modeled_batch_cycles(Function::Exp, 0), 0);
    }

    #[test]
    fn coalescing_amortises_fill_cycles() {
        let fused = modeled_batch_cycles(Function::Sigmoid, 64);
        let separate = 64 * modeled_batch_cycles(Function::Sigmoid, 1);
        assert!(fused < separate);
    }

    #[test]
    fn report_arithmetic() {
        let r = ThroughputReport {
            ops: 1000,
            requests: 10,
            batches: 5,
            wall: Duration::from_millis(100),
            modeled_cycles: 2000,
            workers: 2,
            ..ThroughputReport::default()
        };
        assert!((r.ops_per_sec() - 10_000.0).abs() < 1e-6);
        assert!((r.ops_per_batch() - 200.0).abs() < 1e-12);
        // 1000 cycles per unit at 1 GHz = 1 µs.
        assert_eq!(r.modeled_hardware_time(1e9), Duration::from_micros(1));
        assert!(r.hardware_speedup(1e9) > 1.0);
    }

    #[test]
    fn fast_path_counts_flow_from_the_interval_and_render() {
        let delta = crate::metrics::MetricsSnapshot {
            fast_path_ops: 96,
            ..crate::metrics::MetricsSnapshot::default()
        };
        let r = ThroughputReport::from_interval(&delta, Duration::from_millis(1), 1);
        assert_eq!(r.fast_path_ops, 96);
        let rendered = format!("{r}");
        assert!(rendered.contains("96 table-served op(s)"), "{rendered}");
        // Reports with no table traffic keep the section out entirely.
        let quiet = format!("{}", ThroughputReport::default());
        assert!(!quiet.contains("table-served"), "{quiet}");
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let r = ThroughputReport::default();
        assert_eq!(r.ops_per_sec(), 0.0);
        assert_eq!(r.ops_per_batch(), 0.0);
        assert_eq!(r.modeled_hardware_time(PAPER_CLOCK_HZ), Duration::ZERO);
        assert_eq!(r.hardware_speedup(PAPER_CLOCK_HZ), 0.0);
        assert_eq!(r.modeled_cycles_per_op(), 0.0);
        assert_eq!(r.effective_cycles_per_op(PAPER_CLOCK_HZ), 0.0);
        assert_eq!(r.model_measured_ratio(PAPER_CLOCK_HZ), 0.0);
    }

    #[test]
    fn checked_batch_cycles_deepen_the_fill_only() {
        // One extra compare stage per pass (two passes for softmax).
        assert_eq!(modeled_checked_batch_cycles(Function::Sigmoid, 100), 103);
        assert_eq!(modeled_checked_batch_cycles(Function::Exp, 50), 58);
        assert_eq!(modeled_checked_batch_cycles(Function::Softmax, 16), 2 * 24);
        assert_eq!(modeled_checked_batch_cycles(Function::Tanh, 0), 0);
    }

    #[test]
    fn with_windows_fills_rolling_rows_from_a_telemetry_plane() {
        use nacu_obs::Obs;
        let telemetry = Telemetry::new(8, Duration::from_secs(1), PAPER_CLOCK_HZ, Vec::new());
        let obs = Obs::with_trace_capacity(4);
        for _ in 0..10 {
            obs.record_latency(Stage::EndToEnd, Function::Sigmoid, 40_000);
        }
        obs.cycles()
            .record_batch(Function::Sigmoid, 10, 12, 13, 400_000);
        telemetry
            .series()
            .push_at(1_000_000_000, obs.snapshot(), Vec::new());
        let r = ThroughputReport::default().with_windows(&telemetry);
        for (line, &(label, _)) in r.windows.iter().zip(WINDOWS.iter()) {
            let line = line.expect("every window row filled");
            assert_eq!(line.label, label);
            assert_eq!(line.requests, 10);
            assert!(line.p99_e2e_ns >= 40_000);
            assert!((line.ops_per_sec - 10.0).abs() < 1e-9);
        }
        let rendered = format!("{r}");
        assert!(rendered.contains("[10s] 10 req"), "{rendered}");
        assert!(rendered.contains("[5m]"), "{rendered}");
    }

    #[test]
    fn with_observability_fills_latency_and_cycle_sections() {
        use nacu_obs::Obs;
        let obs = Obs::with_trace_capacity(4);
        obs.record_latency(Stage::QueueWait, Function::Sigmoid, 1_000);
        obs.record_latency(Stage::EndToEnd, Function::Sigmoid, 5_000);
        obs.cycles()
            .record_batch(Function::Sigmoid, 100, 102, 103, 400_000);
        let r = ThroughputReport {
            ops: 100,
            modeled_cycles: 102,
            workers: 1,
            wall: Duration::from_millis(1),
            ..ThroughputReport::default()
        }
        .with_observability(&obs.snapshot());
        assert_eq!(r.queue_wait.count, 1);
        assert!(r.queue_wait.p99_ns >= 1_000);
        assert_eq!(r.end_to_end.max_ns, 5_000);
        assert_eq!(r.checked_cycles, 103);
        assert_eq!(r.measured_batch_ns, 400_000);
        // 400 µs over 100 ops at 1 GHz = 4000 cycles/op.
        assert!((r.effective_cycles_per_op(1e9) - 4_000.0).abs() < 1e-9);
        // Measured 400 µs vs modeled 102 ns at 1 GHz.
        let expected = 400_000.0 / 102.0;
        assert!((r.model_measured_ratio(1e9) - expected).abs() < 1e-6);
        let rendered = format!("{r}");
        assert!(rendered.contains("queue wait p50/p99"));
    }
}
