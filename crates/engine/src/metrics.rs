//! Lock-free engine counters, snapshotable while the engine serves.
//!
//! Every counter is one row of the `counters!` table below, which
//! generates the live [`Counter`] field on [`EngineMetrics`], the
//! [`MetricsSnapshot`] field, its [`MetricsSnapshot::since`] delta and
//! its [`MetricsSnapshot::exporter_counters`] entry. Adding a counter is
//! adding one row.
//!
//! Each event is counted once, by the module that sees it. The last
//! column of a row says who that is:
//!
//! * `engine` — a `pub(crate)` [`Counter`] bumped by this crate (the
//!   submit path, the workers, the completion sets);
//! * `front_end` — a `pub` [`Counter`] bumped by a layer above the engine
//!   (the wire server, the replay drivers) through
//!   [`crate::EngineHandle::live_metrics`];
//! * `owner` — no atomic here: the value is read at snapshot time from
//!   the module that already counts it (the cycle accounting, the queue,
//!   the health monitor, the recorder, the telemetry plane; see
//!   `Shared::metrics` in the crate root).
//!
//! Relaxed ordering is deliberate: the counters are monotone event
//! tallies whose cross-counter skew (a request counted submitted but not
//! yet completed) is inherent to sampling a live system, and no control
//! flow depends on their relative order.

use std::sync::atomic::{AtomicU64, Ordering};

/// One relaxed, monotone event tally.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts `n` more events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Delta kind of a monotone tally: the saturating difference, so a stale
/// baseline never underflows.
fn cumulative(now: u64, earlier: u64) -> u64 {
    now.saturating_sub(earlier)
}

/// Delta kind of a high-water mark: absolute, not cumulative.
fn absolute(now: u64, _earlier: u64) -> u64 {
    now
}

/// The counter table. A row is
/// `/// doc` `field: delta, exporter_name, source;` where `delta` is
/// `cumulative` or `absolute`, `exporter_name` is a string or `_` (not
/// exported), and `source` is `engine`, `front_end` or `owner` (see the
/// module docs). Exported rows appear in the exposition in row order.
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])+
        $field:ident: $delta:ident, $export:tt, $source:ident;
    )+) => {
        /// Point-in-time counter values (see [`crate::Engine::metrics`]).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $doc])+ pub $field: u64, )+
        }

        impl MetricsSnapshot {
            /// The exported counters as `(exporter_name, value)` pairs —
            /// the flat-counter tail of both wire formats
            /// (`nacu_obs::export` and the scrape server's `/metrics`).
            /// One list, so the CI exporter and the live endpoint can
            /// never drift apart.
            #[must_use]
            pub fn exporter_counters(&self) -> Vec<(&'static str, u64)> {
                [$( (counters!(@name $export), self.$field) ),+]
                    .into_iter()
                    .filter_map(|(name, value)| Some((name?, value)))
                    .collect()
            }

            /// Counter-wise difference since `earlier`: saturating for
            /// tallies, the current value for high-water marks.
            #[must_use]
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: $delta(self.$field, earlier.$field), )+
                }
            }
        }

        counters!(@live [] $( [$(#[doc = $doc])+] $field $source; )+);

        /// Every row, for the table-driven test.
        #[cfg(test)]
        fn rows() -> Vec<Row> {
            vec![$(
                Row {
                    field: stringify!($field),
                    export: counters!(@name $export),
                    get: |s| s.$field,
                    set: |s, v| s.$field = v,
                    counter: counters!(@counter $field $source),
                },
            )+]
        }
    };

    // Collect the rows that own a live atomic, then emit `EngineMetrics`.
    (@live [$($acc:tt)*] [$($doc:tt)*] $field:ident owner; $($rest:tt)*) => {
        counters!(@live [$($acc)*] $($rest)*);
    };
    (@live [$($acc:tt)*] [$($doc:tt)*] $field:ident engine; $($rest:tt)*) => {
        counters!(@live [$($acc)* [$($doc)*] pub(crate) $field;] $($rest)*);
    };
    (@live [$($acc:tt)*] [$($doc:tt)*] $field:ident front_end; $($rest:tt)*) => {
        counters!(@live [$($acc)* [$($doc)*] pub $field;] $($rest)*);
    };
    (@live [$( [$($doc:tt)*] $vis:vis $field:ident; )*]) => {
        /// Live counters owned by the engine: one [`Counter`] per `engine`
        /// or `front_end` row of the counter table.
        #[derive(Debug, Default)]
        pub struct EngineMetrics {
            $( $($doc)* $vis $field: Counter, )*
        }

        impl EngineMetrics {
            /// The live counters' current values; `owner` fields read 0
            /// (the engine fills them from their owners).
            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.get(), )*
                    ..MetricsSnapshot::default()
                }
            }
        }
    };

    (@name _) => { None };
    (@name $name:literal) => { Some($name) };

    (@counter $field:ident owner) => { |_| None };
    (@counter $field:ident $source:ident) => { |m| Some(&m.$field) };
}

counters! {
    /// Requests accepted into the queue.
    requests_submitted: cumulative, "nacu_engine_requests_submitted_total", engine;
    /// Requests answered with a [`crate::Response`].
    requests_completed: cumulative, "nacu_engine_requests_completed_total", engine;
    /// Requests dropped at pickup because their deadline had passed.
    requests_expired: cumulative, "nacu_engine_requests_expired_total", engine;
    /// Submissions refused with `Busy` because the queue was full.
    busy_rejections: cumulative, "nacu_engine_busy_rejections_total", engine;
    /// Fused hardware batches executed by the pool.
    batches_executed: cumulative, "nacu_engine_batches_executed_total", owner;
    /// Requests that rode in a batch opened by an earlier request.
    coalesced_requests: cumulative, "nacu_engine_coalesced_requests_total", engine;
    /// σ operands evaluated.
    sigmoid_ops: cumulative, _, owner;
    /// tanh operands evaluated.
    tanh_ops: cumulative, _, owner;
    /// exp operands evaluated.
    exp_ops: cumulative, _, owner;
    /// Softmax vector elements normalised.
    softmax_ops: cumulative, _, owner;
    /// Total modeled pipeline cycles across all batches.
    modeled_cycles: cumulative, _, owner;
    /// Detector firings ([`nacu_faults::FaultEvent`]s) observed by workers.
    faults_detected: cumulative, "nacu_engine_faults_detected_total", engine;
    /// Workers that quarantined themselves after a detector fired.
    workers_quarantined: cumulative, "nacu_engine_workers_quarantined_total", engine;
    /// Requests requeued onto a healthy worker after a fault.
    retries: cumulative, "nacu_engine_retries_total", engine;
    /// Requests answered with a terminal fault error (retries exhausted or
    /// no healthy worker left).
    requests_failed: cumulative, "nacu_engine_requests_failed_total", engine;
    /// Shadow-sampled operands whose error against the f64 reference
    /// exceeded the Eq. 7 bound (or the Eq. 16 exp budget).
    drift_alarms: cumulative, "nacu_engine_drift_alarms_total", owner;
    /// Operands answered from the response-table fast path (a subset of
    /// the per-function op counters; 0 means every operand walked the
    /// datapath — fast path disabled, format too wide, or fault plans
    /// forcing the fallback).
    fast_path_ops: cumulative, "nacu_engine_fast_path_ops_total", engine;
    /// TCP connections accepted by the network front-end.
    net_connections_accepted: cumulative, "nacu_net_connections_accepted_total", front_end;
    /// TCP connections turned away at accept (connection limit).
    net_connections_rejected: cumulative, "nacu_net_connections_rejected_total", front_end;
    /// Well-formed request frames decoded off sockets.
    net_frames_in: cumulative, "nacu_net_frames_in_total", front_end;
    /// Reply frames written to sockets (any status, BUSY/SHED included).
    net_frames_out: cumulative, "nacu_net_frames_out_total", front_end;
    /// Requests shed with a SHED frame (deadline unmeetable).
    net_requests_shed: cumulative, "nacu_net_requests_shed_total", front_end;
    /// Requests refused by the per-client token bucket (QUOTA frame).
    net_quota_limited: cumulative, "nacu_net_quota_limited_total", front_end;
    /// Malformed frames observed on sockets (connection then closed).
    net_protocol_errors: cumulative, "nacu_net_protocol_errors_total", front_end;
    /// Wakers armed on in-flight tickets (completion-set registrations,
    /// re-arms included).
    async_wakers_registered: cumulative, "nacu_async_wakers_registered_total", engine;
    /// Driver wakeups that drained nothing (pokes and stale keys).
    async_spurious_wakeups: cumulative, "nacu_async_spurious_wakeups_total", engine;
    /// Dispatcher drains that flushed at least one completed reply.
    async_dispatcher_batches: cumulative, "nacu_async_dispatcher_batches_total", front_end;
    /// Trace records fully captured (request and response halves) by the
    /// engine's recorder, when one is configured.
    replay_records_captured: cumulative, "nacu_replay_records_captured_total", owner;
    /// Admitted requests the recorder could not capture (ring saturated).
    /// Served normally — recording never sheds load.
    replay_records_dropped: cumulative, "nacu_replay_records_dropped_total", owner;
    /// Recorded requests re-driven through this engine by a replayer.
    replay_requests_replayed: cumulative, "nacu_replay_requests_replayed_total", front_end;
    /// Replayed responses that differed bit-wise from their recording.
    replay_divergences: cumulative, "nacu_replay_divergences_total", front_end;
    /// Windowed-telemetry samples taken by the sampler thread (0 when
    /// telemetry is disabled).
    telemetry_samples: cumulative, "nacu_engine_telemetry_samples_total", owner;
    /// SLO burn-rate alarms latched (rising edges across all SLOs).
    slo_alarm_trips: cumulative, "nacu_engine_slo_alarm_trips_total", owner;
    /// Deepest the submission queue has ever been.
    queue_depth_high_water: absolute, "nacu_engine_queue_depth_high_water", owner;
}

impl EngineMetrics {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One fused batch answered `requests` requests; every one after the
    /// first rode along in a batch it did not open.
    pub(crate) fn record_batch(&self, requests: u64) {
        self.requests_completed.add(requests);
        self.coalesced_requests.add(requests.saturating_sub(1));
    }
}

impl MetricsSnapshot {
    /// Total operands evaluated across all four functions.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.sigmoid_ops + self.tanh_ops + self.exp_ops + self.softmax_ops
    }
}

/// One row of the counter table, as the table-driven test sees it.
#[cfg(test)]
struct Row {
    field: &'static str,
    export: Option<&'static str>,
    get: fn(&MetricsSnapshot) -> u64,
    set: fn(&mut MetricsSnapshot, u64),
    /// The live counter, `None` for `owner` rows.
    counter: fn(&EngineMetrics) -> Option<&Counter>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_count_completed_and_coalesced_requests() {
        let m = EngineMetrics::new();
        m.record_batch(3);
        m.record_batch(1);
        let s = m.snapshot();
        assert_eq!(s.requests_completed, 4);
        assert_eq!(s.coalesced_requests, 2);
    }

    /// The exposition's flat-counter names, in order. Renaming, dropping,
    /// adding or reordering a counter row changes the `/metrics` scrape
    /// and must show up here.
    #[test]
    fn exporter_counters_are_pinned_by_name_and_order() {
        let names: Vec<&str> = MetricsSnapshot::default()
            .exporter_counters()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names,
            [
                "nacu_engine_requests_submitted_total",
                "nacu_engine_requests_completed_total",
                "nacu_engine_requests_expired_total",
                "nacu_engine_busy_rejections_total",
                "nacu_engine_batches_executed_total",
                "nacu_engine_coalesced_requests_total",
                "nacu_engine_faults_detected_total",
                "nacu_engine_workers_quarantined_total",
                "nacu_engine_retries_total",
                "nacu_engine_requests_failed_total",
                "nacu_engine_drift_alarms_total",
                "nacu_engine_fast_path_ops_total",
                "nacu_net_connections_accepted_total",
                "nacu_net_connections_rejected_total",
                "nacu_net_frames_in_total",
                "nacu_net_frames_out_total",
                "nacu_net_requests_shed_total",
                "nacu_net_quota_limited_total",
                "nacu_net_protocol_errors_total",
                "nacu_async_wakers_registered_total",
                "nacu_async_spurious_wakeups_total",
                "nacu_async_dispatcher_batches_total",
                "nacu_replay_records_captured_total",
                "nacu_replay_records_dropped_total",
                "nacu_replay_requests_replayed_total",
                "nacu_replay_divergences_total",
                "nacu_engine_telemetry_samples_total",
                "nacu_engine_slo_alarm_trips_total",
                "nacu_engine_queue_depth_high_water",
            ]
        );
    }

    /// Every row at once: each live counter is bumped by its own amount
    /// (so a counter wired to the wrong field shows), each owner-sourced
    /// field is filled the way the engine fills it, and every field must
    /// read back, diff (absolute only for the high-water mark) and export
    /// its own value.
    #[test]
    fn every_counter_accumulates_diffs_and_exports() {
        let rows = rows();
        let m = EngineMetrics::new();
        let bump = |round: u64| {
            for (i, row) in rows.iter().enumerate() {
                if let Some(counter) = (row.counter)(&m) {
                    counter.add(round * (i as u64 + 1));
                }
            }
        };
        let observe = |round: u64| {
            let mut s = m.snapshot();
            for (i, row) in rows.iter().enumerate() {
                if (row.counter)(&m).is_none() {
                    assert_eq!((row.get)(&s), 0, "{}: owner rows have no atomic", row.field);
                    (row.set)(&mut s, round * (i as u64 + 1));
                }
            }
            s
        };
        // Round 1 adds 1·k to row k's counter, round 2 adds 2·k on top,
        // so the snapshots hold k and 3·k.
        bump(1);
        let early = observe(1);
        bump(2);
        let late = observe(3);
        let delta = late.since(&early);
        let exported = late.exporter_counters();
        for (i, row) in rows.iter().enumerate() {
            let k = i as u64 + 1;
            assert_eq!((row.get)(&early), k, "{}", row.field);
            assert_eq!((row.get)(&late), 3 * k, "{}", row.field);
            let want = if row.field == "queue_depth_high_water" {
                3 * k
            } else {
                2 * k
            };
            assert_eq!((row.get)(&delta), want, "{} since()", row.field);
            if let Some(name) = row.export {
                assert!(
                    exported.contains(&(name, 3 * k)),
                    "{} exported as {name}",
                    row.field
                );
            }
        }
        // A stale baseline saturates instead of underflowing.
        assert_eq!(early.since(&late).requests_submitted, 0);
    }
}
