//! The sharded worker pool: one OS thread and one bit-accurate NACU unit
//! per worker, with fault detection, quarantine and bounded retry.
//!
//! Each worker constructs its **own** [`CheckedNacu`] instance from the
//! shared [`NacuConfig`] at thread start — construction is deterministic
//! (the LUT fit is a pure function of the config), so every shard holds
//! bit-identical ROM contents and a healthy pool answers exactly what a
//! single sequential unit would. This mirrors the paper's fabric view:
//! many physical NACU instances configured alike, fed from one stream of
//! work.
//!
//! The fault story, end to end:
//!
//! 1. A worker's unit carries the [`FaultPlan`] its slot was configured
//!    with (empty in production; populated by tests and campaigns) and the
//!    pool-wide [`nacu_faults::DetectorSet`].
//! 2. When any detector fires mid-batch, the worker **quarantines
//!    itself**: it marks its health flag, discards the batch's partial
//!    results (a flagged unit's outputs are untrustworthy), requeues the
//!    batch's live jobs for a healthy worker — each at most
//!    `max_retries` times — and exits without serving another batch.
//! 3. The client sees either a bit-exact [`Response`] from a healthy
//!    retry, or a typed [`RequestError::FaultDetected`] /
//!    [`RequestError::NoHealthyWorkers`] — never silently corrupt data.
//! 4. If the quarantining worker was the last healthy one, it drains the
//!    queue, answers everything with `NoHealthyWorkers`, and closes the
//!    queue so new submissions fail fast at the door.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nacu::{Function, NacuConfig, ResponseTables};
use nacu_faults::{CheckedError, CheckedNacu, FaultEvent};
use nacu_fixed::Fx;
use nacu_obs::{Obs, Stage, TraceKind};
use nacu_replay::Recorder;

use crate::batch::{scalar_function, Codes, Request, RequestError, Response};
use crate::executor::{BatchExecutor, DatapathWalk, ScalarGather};
use crate::metrics::EngineMetrics;
use crate::queue::{BoundedQueue, Coalesce, PushError};
use crate::report::{modeled_batch_cycles, modeled_checked_batch_cycles};
use crate::FaultTolerance;

/// One queued unit of work: the request plus its reply completer, the
/// instant it entered the queue (for latency accounting) and the number
/// of times a quarantining worker has already bounced it.
///
/// The completer is the producing half of the ticket's waker slot: it
/// publishes the outcome and delivers the (at most one) wakeup; dropping
/// it unreplied resolves the ticket with `EngineShutDown`, preserving
/// the old sender-drop semantics.
#[derive(Debug)]
pub(crate) struct Job {
    /// Flight-recorder request id (0 = untracked, e.g. in unit tests).
    pub(crate) id: u64,
    pub(crate) request: Request,
    pub(crate) reply: crate::wake::Completer,
    pub(crate) retries: u32,
    pub(crate) submitted_at: Instant,
    /// Trace-recorder slot claimed at submit ([`NO_RECORD_SLOT`] when the
    /// request is unrecorded). A retried job keeps its slot — the
    /// eventual healthy reply completes the same record — while terminal
    /// failures and expiries abandon it, so a drained trace only ever
    /// carries served request/response pairs.
    pub(crate) record: u32,
}

impl Coalesce for Job {
    fn coalesce_key(&self) -> u32 {
        self.request.coalesce_key()
    }
}

/// Saturating nanoseconds of a duration (a serving interval never
/// realistically exceeds u64 ns ≈ 584 years, but the cast must not wrap).
fn as_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Everything a worker thread shares with the pool.
pub(crate) struct PoolShared {
    pub(crate) config: NacuConfig,
    pub(crate) max_coalesced_requests: usize,
    pub(crate) fault: FaultTolerance,
    pub(crate) queue: Arc<BoundedQueue<Job>>,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) obs: Arc<Obs>,
    /// One health flag per worker slot; `false` = quarantined.
    pub(crate) health: Arc<Vec<AtomicBool>>,
    /// Response tables for the fast path, `None` when disabled or when
    /// the format is too wide to tabulate. Workers with a non-empty
    /// fault plan ignore them (see [`run_worker`]).
    pub(crate) tables: Option<Arc<ResponseTables>>,
    /// Trace recorder workers complete reply halves into, `None` when
    /// the engine runs unrecorded.
    pub(crate) recorder: Option<Arc<Recorder>>,
}

/// Completes a served job's trace record with its response codes.
fn record_reply(shared: &PoolShared, slot: u32, outputs: &Codes) {
    if let Some(recorder) = &shared.recorder {
        recorder.complete(slot, outputs.raw.iter().map(|&code| code as i16));
    }
}

/// Releases the trace record of a job that will never be served.
fn abandon_record(shared: &PoolShared, slot: u32) {
    if let Some(recorder) = &shared.recorder {
        recorder.abandon(slot);
    }
}

/// Spawns one thread per health slot, draining `shared.queue` until it
/// closes and empties (or the worker quarantines itself).
pub(crate) fn spawn_workers(shared: &Arc<PoolShared>) -> Vec<JoinHandle<()>> {
    (0..shared.health.len())
        .map(|worker| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("nacu-worker-{worker}"))
                .spawn(move || run_worker(worker, &shared))
                .expect("spawn engine worker thread")
        })
        .collect()
}

fn run_worker(worker: usize, shared: &PoolShared) {
    // Per-worker unit; the config was validated when the engine was built.
    let unit = CheckedNacu::new(shared.config)
        .expect("engine validated the config")
        .with_plan(shared.fault.plan_for(worker))
        .with_detectors(shared.fault.detectors);
    // Fast-path eligibility is per worker slot: a slot configured with an
    // injected fault plan must walk the real datapath so the parity /
    // residue detectors see real nets — its tables are simply withheld,
    // and `with_plan` has dropped its unit's compiled walk. (The scrub
    // below always walks the real ROM regardless.)
    let tables = if shared.fault.plan_for(worker).is_empty() {
        shared.tables.as_deref()
    } else {
        None
    };
    let mut batches_served: u64 = 0;
    // Worker-owned scratch buffers: every batch is popped into and served
    // from the same Vecs, so the steady-state loop never allocates.
    let mut jobs: Vec<Job> = Vec::new();
    let mut live: Vec<Job> = Vec::new();
    let mut samples: Vec<(usize, usize, f64)> = Vec::new();
    while shared
        .queue
        .pop_batch_into(shared.max_coalesced_requests, &mut jobs)
    {
        // Periodic BIST scrub: walk the σ segment ladder before taking
        // more work, catching ROM corruption the workload's addresses
        // would never touch.
        let scrub_due = shared.fault.scrub_every_batches > 0
            && batches_served > 0
            && batches_served.is_multiple_of(shared.fault.scrub_every_batches);
        if scrub_due {
            shared.obs.record_trace(TraceKind::Scrub {
                worker: worker as u32,
            });
            if let Err(event) = unit.scrub() {
                quarantine(worker, event, std::mem::take(&mut jobs), shared);
                return;
            }
        }
        match serve_batch(
            worker,
            &unit,
            tables,
            &mut jobs,
            &mut live,
            &mut samples,
            shared,
        ) {
            Ok(()) => batches_served += 1,
            Err((event, stranded)) => {
                quarantine(worker, event, stranded, shared);
                return;
            }
        }
    }
}

/// Takes this worker out of service and re-routes its in-flight jobs.
fn quarantine(worker: usize, event: FaultEvent, jobs: Vec<Job>, shared: &PoolShared) {
    shared.health[worker].store(false, Ordering::Release);
    shared.metrics.faults_detected.add(1);
    shared.metrics.workers_quarantined.add(1);
    shared
        .obs
        .record_trace(TraceKind::fault(worker as u32, &event));
    shared.obs.record_trace(TraceKind::Quarantine {
        worker: worker as u32,
    });
    let any_healthy = shared.health.iter().any(|h| h.load(Ordering::Acquire));
    if !any_healthy {
        // Close the door BEFORE answering anyone: a client that hears
        // `NoHealthyWorkers` and immediately resubmits must get
        // `ShuttingDown`, not a slot in a queue nobody will ever drain.
        shared.queue.close();
    }
    for mut job in jobs {
        if !any_healthy {
            abandon_record(shared, job.record);
            shared.metrics.requests_failed.add(1);
            job.reply.complete(Err(RequestError::NoHealthyWorkers));
        } else if job.retries >= shared.fault.max_retries {
            abandon_record(shared, job.record);
            shared.metrics.requests_failed.add(1);
            job.reply.complete(Err(RequestError::FaultDetected {
                event,
                attempts: job.retries + 1,
            }));
        } else {
            job.retries += 1;
            shared.metrics.retries.add(1);
            shared.obs.record_trace(TraceKind::Retry {
                req: job.id,
                worker: worker as u32,
                attempts: job.retries,
            });
            if let Err(PushError::Full(mut job) | PushError::Closed(mut job)) =
                shared.queue.try_push(job)
            {
                abandon_record(shared, job.record);
                shared.metrics.requests_failed.add(1);
                job.reply.complete(Err(RequestError::FaultDetected {
                    event,
                    attempts: job.retries,
                }));
            }
        }
    }
    if !any_healthy {
        // Last one out answers whatever was stranded behind the door.
        for mut job in shared.queue.drain() {
            abandon_record(shared, job.record);
            shared.metrics.requests_failed.add(1);
            job.reply.complete(Err(RequestError::NoHealthyWorkers));
        }
    }
}

/// Runs an infallible executor over every live job's operand buffer.
fn serve_in_place(executor: &impl BatchExecutor, live: &mut [Job]) {
    for job in live {
        executor
            .execute(&mut job.request.operands.raw)
            .expect("a fault-free executor raises no fault event");
    }
}

/// Serves one coalesced batch from the `jobs` scratch buffer, using
/// `live` as the post-expiry scratch (both are drained on return, so the
/// caller can reuse them allocation-free). On a detector event, returns
/// the batch's still-unanswered jobs so the caller can re-route them —
/// partial results from the flagged unit are discarded, never sent.
///
/// A fault-free worker (its unit carries a compiled walk) serves σ/tanh/exp
/// in place: through the [`ScalarGather`] table executor when `tables`
/// is given, else through the compiled [`DatapathWalk`]. Both are
/// infallible and proven bit-identical to the golden datapath, so
/// outputs overwrite the request's operand buffer and the buffer itself
/// becomes the response: nothing is allocated per operand or per
/// request. Softmax runs the compiled two-pass schedule in place, with
/// its exp stage from the table when there is one. A fault-planned
/// worker walks the checked nets into fresh buffers, so a mid-batch
/// detector event leaves every operand buffer pristine for the retry
/// path.
///
/// `samples` is the worker's shadow-sampling scratch: the plan (which
/// operands to sample, and their pre-overwrite values) is laid out
/// before execution and observed against the served outputs afterwards,
/// keeping the executors' gather loops free of sampling branches.
fn serve_batch(
    worker: usize,
    unit: &CheckedNacu,
    tables: Option<&ResponseTables>,
    jobs: &mut Vec<Job>,
    live: &mut Vec<Job>,
    samples: &mut Vec<(usize, usize, f64)>,
    shared: &PoolShared,
) -> Result<(), (FaultEvent, Vec<Job>)> {
    let metrics = &shared.metrics;
    let obs = &shared.obs;
    // Expire stale jobs up front so they neither cost datapath work nor
    // inflate the fused batch.
    let now = Instant::now();
    live.clear();
    for mut job in jobs.drain(..) {
        if job.request.deadline.is_some_and(|d| d < now) {
            abandon_record(shared, job.record);
            metrics.requests_expired.add(1);
            obs.record_trace(TraceKind::Expired {
                req: job.id,
                function: job.request.function,
            });
            job.reply.complete(Err(RequestError::DeadlineExpired));
        } else {
            live.push(job);
        }
    }
    let Some(first) = live.first() else {
        return Ok(());
    };
    let function = first.request.function;

    // Pickup marks the end of every live job's queue wait.
    for job in live.iter() {
        obs.record_latency(
            Stage::QueueWait,
            function,
            as_ns(now.duration_since(job.submitted_at)),
        );
    }
    if live.len() > 1 {
        obs.record_trace(TraceKind::Coalesce {
            worker: worker as u32,
            requests: live.len() as u32,
        });
    }

    // Metrics are recorded BEFORE any reply is sent: a client observing
    // its response must also observe the counters that account for it.
    if scalar_function(function) {
        // One fused pipelined pass over every live request's operands.
        let batch_ops: usize = live.iter().map(|j| j.request.operands.len()).sum();
        let batch_cycles = modeled_batch_cycles(function, batch_ops);
        obs.record_trace(TraceKind::BatchStart {
            worker: worker as u32,
            function,
            ops: batch_ops as u32,
        });
        // Shadow-sampling plan for this batch: one relaxed fetch_add on
        // the shared decimation tick buys the whole batch's quota, then
        // the quota is spread evenly over the batch by striding. The
        // plan is laid out up front — (job, operand, pre-overwrite x) —
        // and checked against the outputs after execution, so the
        // executors' gather loops carry no sampling branch at all.
        let health = obs.health();
        let sample_quota = health.batch_quota(batch_ops as u64);
        let sample_stride = (batch_ops as u64)
            .checked_div(sample_quota)
            .map_or(0, |s| s.max(1));
        // Codes become f64 exactly as `Fx::to_f64` would convert them.
        let resolution = shared.config.format.resolution();
        samples.clear();
        if sample_quota > 0 {
            let mut next: u64 = 0;
            let mut base: u64 = 0;
            'plan: for (job_index, job) in live.iter().enumerate() {
                let len = job.request.operands.len() as u64;
                while next < base + len {
                    let operand = (next - base) as usize;
                    let x = job.request.operands.raw[operand] as f64 * resolution;
                    samples.push((job_index, operand, x));
                    if samples.len() as u64 >= sample_quota {
                        break 'plan;
                    }
                    next += sample_stride;
                }
                base += len;
            }
        }
        let service_start = Instant::now();
        // `None` = served in place; `Some` = checked-walk outputs, one
        // fresh buffer per job (kept fresh so retries see pristine
        // operands after a mid-batch detector event).
        let outputs_per_job = if let Some(table) = tables.and_then(|t| t.get(function)) {
            serve_in_place(&ScalarGather::new(table), live);
            metrics.fast_path_ops.add(batch_ops as u64);
            None
        } else if unit.compiled().is_some() {
            // No fault plan: the walk runs the compiled datapath, which
            // has no detector to fire.
            serve_in_place(&DatapathWalk::new(unit, function), live);
            None
        } else {
            // Checked walk through the worker's fault-planned unit, into
            // a fresh copy of each operand buffer; a detector event
            // discards the batch's partial outputs and leaves every
            // request pristine for the retry path.
            let walk = DatapathWalk::new(unit, function);
            let mut per_job = Vec::with_capacity(live.len());
            let mut fault = None;
            for job in live.iter() {
                let mut outputs = job.request.operands.clone();
                match walk.execute(&mut outputs.raw) {
                    Ok(()) => per_job.push(outputs),
                    Err(event) => {
                        fault = Some(event);
                        break;
                    }
                }
            }
            if let Some(event) = fault {
                return Err((event, std::mem::take(live)));
            }
            Some(per_job)
        };
        // Observe the sampled (x, y) pairs against the f64 shadow
        // reference, reading y from wherever the outputs landed.
        for &(job_index, operand, x) in samples.iter() {
            let y = match &outputs_per_job {
                None => live[job_index].request.operands.raw[operand],
                Some(per_job) => per_job[job_index].raw[operand],
            };
            if let Some(alarm) = health.observe(function, x, y as f64 * resolution) {
                obs.record_trace(TraceKind::DriftAlarm {
                    worker: worker as u32,
                    function,
                    kind: alarm.kind,
                });
            }
        }
        let service_ns = as_ns(service_start.elapsed());
        obs.record_latency(Stage::BatchService, function, service_ns);
        obs.cycles().record_batch(
            function,
            batch_ops as u64,
            batch_cycles,
            modeled_checked_batch_cycles(function, batch_ops),
            service_ns,
        );
        obs.record_trace(TraceKind::BatchEnd {
            worker: worker as u32,
            function,
            ops: batch_ops as u32,
            service_ns,
        });
        metrics.record_batch(live.len() as u64);
        let reply = |mut job: Job, outputs: Codes| {
            record_reply(shared, job.record, &outputs);
            let e2e_ns = as_ns(job.submitted_at.elapsed());
            // Tagged so a tail-bucket request leaves an exemplar carrying
            // its request id and connection.
            obs.record_latency_tagged(
                Stage::EndToEnd,
                function,
                e2e_ns,
                job.id,
                job.request.client,
            );
            obs.record_trace(TraceKind::Reply {
                req: job.id,
                conn: job.request.client,
                worker: worker as u32,
                function,
                e2e_ns,
            });
            job.reply.complete(Ok(Response {
                outputs,
                worker,
                batch_ops,
                batch_cycles,
            }));
        };
        match outputs_per_job {
            // Served in place: the overwritten operand buffer IS the
            // response — no buffer changes hands, nothing is allocated.
            None => {
                for mut job in live.drain(..) {
                    let outputs = std::mem::take(&mut job.request.operands);
                    reply(job, outputs);
                }
            }
            Some(per_job) => {
                for (job, outputs) in live.drain(..).zip(per_job) {
                    reply(job, outputs);
                }
            }
        }
    } else {
        // Softmax never coalesces, so this is a singleton batch; the loop
        // is just the uniform way to consume `live`.
        let exp_table = tables.map(ResponseTables::exp);
        let mut index = 0;
        while index < live.len() {
            let job = &mut live[index];
            let n = job.request.operands.len();
            let batch_cycles = modeled_batch_cycles(function, n);
            obs.record_trace(TraceKind::BatchStart {
                worker: worker as u32,
                function,
                ops: n as u32,
            });
            let service_start = Instant::now();
            if let Some(compiled) = unit.compiled() {
                // Fault-free: the compiled two-pass softmax rewrites the
                // request's codes in place, its exp stage from the table
                // when the format is tabulated.
                let codes = &mut job.request.operands.raw;
                let served = match exp_table {
                    Some(table) => compiled.softmax_in_place(codes, |d| table.lookup_in_place(d)),
                    None => compiled
                        .softmax_in_place(codes, |d| compiled.compute_in_place(Function::Exp, d)),
                };
                served.expect("submit validated the vector");
                if exp_table.is_some() {
                    metrics.fast_path_ops.add(n as u64);
                }
            } else {
                // The checked vector datapath takes `Fx` values: rebuild
                // the vector from its codes, clamped like the datapath
                // walk's operands so a code outside the format is never
                // walked.
                let format = job.request.operands.format;
                let vector: Vec<_> = job
                    .request
                    .operands
                    .raw
                    .iter()
                    .map(|&code| Fx::from_raw_saturating(code, format))
                    .collect();
                match unit.softmax(&vector) {
                    Ok(outputs) => {
                        for (code, y) in job.request.operands.raw.iter_mut().zip(&outputs) {
                            *code = y.raw();
                        }
                    }
                    Err(CheckedError::Fault(event)) => {
                        return Err((event, live.drain(index..).collect()));
                    }
                    Err(CheckedError::Nacu(e)) => {
                        unreachable!("submit validated the vector: {e}")
                    }
                }
            }
            let service_ns = as_ns(service_start.elapsed());
            obs.record_latency(Stage::BatchService, function, service_ns);
            obs.cycles().record_batch(
                function,
                n as u64,
                batch_cycles,
                modeled_checked_batch_cycles(function, n),
                service_ns,
            );
            obs.record_trace(TraceKind::BatchEnd {
                worker: worker as u32,
                function,
                ops: n as u32,
                service_ns,
            });
            metrics.record_batch(1);
            // The request's code buffer, overwritten above, becomes the
            // response: the outputs share the operands' format (§III).
            let codes = std::mem::take(&mut job.request.operands);
            record_reply(shared, job.record, &codes);
            let e2e_ns = as_ns(job.submitted_at.elapsed());
            // Tagged so a tail-bucket request leaves an exemplar carrying
            // its request id and connection.
            obs.record_latency_tagged(
                Stage::EndToEnd,
                function,
                e2e_ns,
                job.id,
                job.request.client,
            );
            obs.record_trace(TraceKind::Reply {
                req: job.id,
                conn: job.request.client,
                worker: worker as u32,
                function,
                e2e_ns,
            });
            job.reply.complete(Ok(Response {
                outputs: codes,
                worker,
                batch_ops: n,
                batch_cycles,
            }));
            index += 1;
        }
        live.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nacu_faults::{DetectorSet, Fault, FaultPlan, InjectionSite};
    use nacu_fixed::Rounding;

    fn shared(plans: Vec<FaultPlan>, slots: usize) -> Arc<PoolShared> {
        Arc::new(PoolShared {
            config: NacuConfig::paper_16bit(),
            max_coalesced_requests: 8,
            fault: FaultTolerance {
                max_retries: 2,
                scrub_every_batches: 0,
                detectors: DetectorSet::all(),
                plans,
            },
            queue: Arc::new(BoundedQueue::new(64)),
            metrics: Arc::new(EngineMetrics::new()),
            obs: Arc::new(Obs::with_trace_capacity(64)),
            health: Arc::new((0..slots).map(|_| AtomicBool::new(true)).collect()),
            tables: None,
            recorder: None,
        })
    }

    /// Test adapter: serves one owned batch through the scratch-buffer
    /// signature of [`serve_batch`].
    fn serve(
        worker: usize,
        unit: &CheckedNacu,
        tables: Option<&ResponseTables>,
        jobs: Vec<Job>,
        s: &PoolShared,
    ) -> Result<(), (FaultEvent, Vec<Job>)> {
        let mut jobs = jobs;
        let mut live = Vec::new();
        let mut samples = Vec::new();
        serve_batch(worker, unit, tables, &mut jobs, &mut live, &mut samples, s)
    }

    fn job(shared: &PoolShared, v: f64) -> (Job, crate::Ticket) {
        let fmt = shared.config.format;
        let (ticket, reply) = crate::wake::pair(0);
        (
            Job {
                id: 0,
                request: Request::new(Function::Sigmoid, [Fx::from_f64(v, fmt, Rounding::Nearest)]),
                reply,
                retries: 0,
                submitted_at: Instant::now(),
                record: nacu_replay::NO_RECORD_SLOT,
            },
            ticket,
        )
    }

    fn lut_fault_plan() -> FaultPlan {
        // Entry 0 serves x ≈ 0, so any job near zero trips parity.
        FaultPlan::single(Fault::stuck_lut(InjectionSite::LutBias, 0, 13, true))
    }

    /// The fast path answers from the tables, bit-identical to the
    /// datapath, and the served operands are counted on the dedicated
    /// counter alongside the per-function one.
    #[test]
    fn fast_path_serves_bit_identical_outputs_and_counts_ops() {
        let s = shared(Vec::new(), 1);
        let unit = CheckedNacu::new(s.config).expect("paper config");
        let tables = ResponseTables::build(unit.golden()).expect("16-bit fits");
        let (a, a_rx) = job(&s, 0.25);
        let (b, b_rx) = job(&s, -1.5);
        serve(0, &unit, Some(&tables), vec![a, b], &s).expect("infallible fast path");
        let fmt = s.config.format;
        let expect = |v: f64| {
            unit.golden()
                .sigmoid(Fx::from_f64(v, fmt, Rounding::Nearest))
        };
        let a_out = a_rx.try_wait().expect("reply").expect("served");
        let b_out = b_rx.try_wait().expect("reply").expect("served");
        assert!(a_out.outputs.iter().eq([expect(0.25)]));
        assert!(b_out.outputs.iter().eq([expect(-1.5)]));
        assert_eq!(s.metrics.snapshot().fast_path_ops, 2);
        let cycles = s.obs.cycles().snapshot();
        let row = cycles.row(Function::Sigmoid).expect("accounted");
        assert_eq!(row.ops, 2, "fast path still feeds the op counter");
        assert_eq!(
            row.modeled_cycles,
            modeled_batch_cycles(Function::Sigmoid, 2),
            "Table I accounting models the hardware, not the software path"
        );
    }

    /// Softmax on the fast path: the exp stage comes from the table, the
    /// divider stays on the datapath, and the result is bit-identical.
    #[test]
    fn softmax_draws_its_exp_stage_from_the_table() {
        let s = shared(Vec::new(), 1);
        let unit = CheckedNacu::new(s.config).expect("paper config");
        let tables = ResponseTables::build(unit.golden()).expect("16-bit fits");
        let fmt = s.config.format;
        let xs = [-2.0, 0.5, 3.25, -0.125].map(|v| Fx::from_f64(v, fmt, Rounding::Nearest));
        let (ticket, reply) = crate::wake::pair(0);
        let j = Job {
            id: 0,
            request: Request::new(Function::Softmax, xs),
            reply,
            retries: 0,
            submitted_at: Instant::now(),
            record: nacu_replay::NO_RECORD_SLOT,
        };
        serve(0, &unit, Some(&tables), vec![j], &s).expect("infallible fast path");
        let golden = unit.golden().softmax(&xs).expect("valid vector");
        let response = ticket.try_wait().expect("reply").expect("served");
        assert!(response.outputs.iter().eq(golden));
        let m = s.metrics.snapshot();
        assert_eq!(m.fast_path_ops, xs.len() as u64);
    }

    /// Past the table budget a fault-free worker walks the compiled
    /// datapath in place, scalar and softmax alike, bit-identical to the
    /// golden unit; none of it counts as table-served.
    #[test]
    fn untabulated_formats_walk_the_compiled_datapath() {
        let mut s = shared(Vec::new(), 1);
        Arc::get_mut(&mut s).expect("sole owner").config =
            NacuConfig::for_width(20).expect("Eq. 7 holds at 20 bits");
        let unit = CheckedNacu::new(s.config).expect("valid config");
        assert!(unit.compiled().is_some());
        let golden = unit.golden();
        let fmt = s.config.format;
        let (a, a_rx) = job(&s, 0.25);
        let (b, b_rx) = job(&s, -1.5);
        serve(0, &unit, None, vec![a, b], &s).expect("infallible compiled walk");
        for (rx, v) in [(a_rx, 0.25), (b_rx, -1.5)] {
            let response = rx.try_wait().expect("reply").expect("served");
            let x = Fx::from_f64(v, fmt, Rounding::Nearest);
            assert!(response.outputs.iter().eq([golden.sigmoid(x)]));
        }
        let xs = [-2.0, 0.5, 3.25, -0.125].map(|v| Fx::from_f64(v, fmt, Rounding::Nearest));
        let (ticket, reply) = crate::wake::pair(0);
        let j = Job {
            id: 0,
            request: Request::new(Function::Softmax, xs),
            reply,
            retries: 0,
            submitted_at: Instant::now(),
            record: nacu_replay::NO_RECORD_SLOT,
        };
        serve(0, &unit, None, vec![j], &s).expect("infallible compiled softmax");
        let response = ticket.try_wait().expect("reply").expect("served");
        assert!(response
            .outputs
            .iter()
            .eq(golden.softmax(&xs).expect("valid vector")));
        assert_eq!(s.metrics.snapshot().fast_path_ops, 0);
    }

    /// Deterministic unit test of the retry path: a faulted worker's
    /// batch is requeued with a bumped retry count, not answered.
    #[test]
    fn detected_fault_requeues_the_job_for_a_healthy_peer() {
        let s = shared(vec![lut_fault_plan(), FaultPlan::new()], 2);
        let unit = CheckedNacu::new(s.config)
            .expect("paper config")
            .with_plan(s.fault.plan_for(0));
        let (j, rx) = job(&s, 0.0);
        let (event, stranded) = serve(0, &unit, None, vec![j], &s).unwrap_err();
        assert_eq!(event, FaultEvent::LutParity { entry: 0 });
        quarantine(0, event, stranded, &s);
        // Worker 0 is out; worker 1 is healthy, so the job went back into
        // the queue with one retry on the clock, and the client heard
        // nothing yet.
        assert!(!s.health[0].load(Ordering::Acquire));
        assert!(s.health[1].load(Ordering::Acquire));
        assert_eq!(s.queue.depth(), 1);
        assert!(rx.try_wait().is_none(), "no reply until a healthy serve");
        let requeued = s.queue.drain().remove(0);
        assert_eq!(requeued.retries, 1);
        let m = s.metrics.snapshot();
        assert_eq!(m.faults_detected, 1);
        assert_eq!(m.workers_quarantined, 1);
        assert_eq!(m.retries, 1);
        assert_eq!(m.requests_failed, 0);
        // The whole episode is visible in the trace ring, in order.
        let names: Vec<&str> = s
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(names, ["batch_start", "fault", "quarantine", "retry"]);
    }

    /// A healthy serve feeds every observability surface: stage
    /// histograms, cycle accounting, and batch start/end trace events.
    #[test]
    fn healthy_serve_records_latencies_cycles_and_traces() {
        let s = shared(Vec::new(), 1);
        let unit = CheckedNacu::new(s.config).expect("paper config");
        let (a, a_rx) = job(&s, 0.25);
        let (b, b_rx) = job(&s, -0.5);
        serve(0, &unit, None, vec![a, b], &s).expect("healthy batch");
        assert!(a_rx.try_wait().expect("reply").is_ok());
        assert!(b_rx.try_wait().expect("reply").is_ok());
        let snap = s.obs.snapshot();
        let qw = snap.stage(Stage::QueueWait, Function::Sigmoid).unwrap();
        assert_eq!(qw.count, 2, "one queue-wait sample per live job");
        let svc = snap.stage(Stage::BatchService, Function::Sigmoid).unwrap();
        assert_eq!(svc.count, 1, "one service sample per fused batch");
        let e2e = snap.stage(Stage::EndToEnd, Function::Sigmoid).unwrap();
        assert_eq!(e2e.count, 2);
        assert!(e2e.max >= qw.max, "end-to-end contains the queue wait");
        let row = snap.cycles.row(Function::Sigmoid).unwrap();
        assert_eq!(row.batches, 1);
        assert_eq!(row.ops, 2);
        assert_eq!(
            row.modeled_cycles,
            modeled_batch_cycles(Function::Sigmoid, 2)
        );
        assert_eq!(
            row.checked_cycles,
            modeled_checked_batch_cycles(Function::Sigmoid, 2)
        );
        let names: Vec<&str> = s
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        // The first reply sets the tail-exemplar high-water mark, so at
        // least one reply also leaves a `tail_exemplar` event; how many
        // depends on the measured latencies, so assert the lifecycle
        // sequence with exemplars filtered out.
        assert!(names.contains(&"tail_exemplar"), "{names:?}");
        let lifecycle: Vec<&str> = names
            .iter()
            .copied()
            .filter(|&n| n != "tail_exemplar")
            .collect();
        assert_eq!(
            lifecycle,
            ["coalesce", "batch_start", "batch_end", "reply", "reply"]
        );
    }

    /// Shadow sampling catches silent numerical drift: a LUT-bias
    /// perturbation too small (or too unlucky) for the armed detectors
    /// still latches a drift alarm against the f64 reference.
    #[test]
    fn shadow_sampling_latches_a_drift_alarm_on_lut_bias_corruption() {
        use nacu::Nacu;
        use nacu_obs::HealthConfig;
        let config = NacuConfig::paper_16bit();
        // Flip bias bit 4 (2⁻⁹ ≈ 1.95e-3 in Q2.13) of whichever segment
        // serves x = 0.5. That perturbation minus the clean fit's worst
        // case (~8.6e-4) still exceeds the Eq. 7 sigmoid bound, so the
        // sampled operand must alarm. Detectors stay off to model a
        // corruption the parity net misses.
        let golden = Nacu::new(config).expect("paper config");
        let x = Fx::from_f64(0.5, config.format, Rounding::Nearest);
        let entry = golden.lookup_index(golden.magnitude_raw(x));
        let clean_bias = golden.coefficients()[entry].1;
        let stuck = (clean_bias >> 4) & 1 == 0;
        let s = Arc::new(PoolShared {
            config,
            max_coalesced_requests: 8,
            fault: FaultTolerance {
                max_retries: 0,
                scrub_every_batches: 0,
                detectors: DetectorSet::none(),
                plans: vec![FaultPlan::single(Fault::stuck_lut(
                    InjectionSite::LutBias,
                    entry,
                    4,
                    stuck,
                ))],
            },
            queue: Arc::new(BoundedQueue::new(64)),
            metrics: Arc::new(EngineMetrics::new()),
            obs: Arc::new(
                Obs::with_trace_capacity(64).with_health(HealthConfig::for_nacu(&config, 1)),
            ),
            health: Arc::new(vec![AtomicBool::new(true)]),
            tables: None,
            recorder: None,
        });
        let unit = CheckedNacu::new(s.config)
            .expect("paper config")
            .with_plan(s.fault.plan_for(0))
            .with_detectors(s.fault.detectors);
        let (j, rx) = job(&s, 0.5);
        serve(0, &unit, None, vec![j], &s).expect("no detectors armed");
        assert!(rx.try_wait().expect("reply").is_ok(), "served, not failed");
        assert!(s.obs.health().alarm_latched(), "drift alarm latched");
        assert!(s.obs.health().total_alarms() >= 1);
        let names: Vec<&str> = s
            .obs
            .drain_trace(16)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"drift_alarm"), "{names:?}");
    }

    /// Deterministic unit test of retry exhaustion: a job that has
    /// already bounced `max_retries` times gets the typed terminal error.
    #[test]
    fn exhausted_retries_surface_the_typed_fault_error() {
        let s = shared(vec![lut_fault_plan(), FaultPlan::new()], 2);
        let (mut j, rx) = job(&s, 0.0);
        j.retries = s.fault.max_retries;
        let event = FaultEvent::LutParity { entry: 0 };
        quarantine(0, event, vec![j], &s);
        match rx.try_wait().expect("terminal reply") {
            Err(crate::WaitError::FaultDetected { event: e, attempts }) => {
                assert_eq!(e, event);
                assert_eq!(attempts, s.fault.max_retries + 1);
            }
            other => panic!("expected FaultDetected, got {other:?}"),
        }
        assert_eq!(s.metrics.snapshot().requests_failed, 1);
        assert_eq!(s.queue.depth(), 0);
    }

    /// Deterministic unit test of pool exhaustion: the last healthy
    /// worker's quarantine fails its jobs, drains the queue and closes it.
    #[test]
    fn last_quarantine_fails_stranded_jobs_and_closes_the_queue() {
        let s = shared(vec![lut_fault_plan()], 1);
        let (queued, queued_rx) = job(&s, 0.5);
        s.queue.try_push(queued).map_err(|_| ()).unwrap();
        let (in_flight, in_flight_rx) = job(&s, 0.0);
        quarantine(0, FaultEvent::LutParity { entry: 0 }, vec![in_flight], &s);
        assert_eq!(
            in_flight_rx.try_wait().expect("terminal reply"),
            Err(crate::WaitError::NoHealthyWorkers)
        );
        assert_eq!(
            queued_rx.try_wait().expect("drained reply"),
            Err(crate::WaitError::NoHealthyWorkers)
        );
        // Queue is closed: further pushes bounce.
        let (late, _late_rx) = job(&s, 1.0);
        assert!(matches!(s.queue.try_push(late), Err(PushError::Closed(_))));
        assert_eq!(s.metrics.snapshot().requests_failed, 2);
    }

    /// The quarantine invariant, end to end on real threads: after a
    /// worker's detector fires, that worker never serves another batch.
    #[test]
    fn quarantined_worker_never_serves_another_batch() {
        let s = shared(vec![lut_fault_plan()], 1);
        let handles = spawn_workers(&s);
        // First job trips entry 0's parity on worker 0 → quarantine →
        // no healthy workers → queue closed, worker thread exited.
        let (j, rx) = job(&s, 0.0);
        s.queue.try_push(j).map_err(|_| ()).unwrap();
        assert_eq!(rx.wait(), Err(crate::WaitError::NoHealthyWorkers));
        for h in handles {
            h.join().expect("worker exited cleanly after quarantine");
        }
        // The thread is gone; nothing can serve. A late push bounces off
        // the closed queue rather than waiting on a dead pool.
        let (late, _rx) = job(&s, 2.0);
        assert!(matches!(s.queue.try_push(late), Err(PushError::Closed(_))));
        assert_eq!(s.metrics.snapshot().workers_quarantined, 1);
    }

    /// Scrub-driven quarantine: corruption in a LUT entry the workload
    /// never addresses is still caught at the scrub interval.
    #[test]
    fn periodic_scrub_catches_unaddressed_corruption() {
        let mut s = shared(
            vec![FaultPlan::single(Fault::stuck_lut(
                InjectionSite::LutBias,
                20,
                13,
                true,
            ))],
            1,
        );
        Arc::get_mut(&mut s)
            .expect("sole owner")
            .fault
            .scrub_every_batches = 1;
        let handles = spawn_workers(&s);
        // Batch 1 (x≈0 never touches entry 20) serves fine…
        let (first, first_rx) = job(&s, 0.0);
        s.queue.try_push(first).map_err(|_| ()).unwrap();
        assert!(first_rx.wait().is_ok());
        // …then the scrub before batch 2 walks every segment and fires.
        let (second, second_rx) = job(&s, 0.0);
        s.queue.try_push(second).map_err(|_| ()).unwrap();
        assert_eq!(second_rx.wait(), Err(crate::WaitError::NoHealthyWorkers));
        for h in handles {
            h.join().expect("worker exited after scrub quarantine");
        }
        assert_eq!(s.metrics.snapshot().faults_detected, 1);
    }
}
