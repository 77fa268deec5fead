//! Property tests for the ticket waker state machine: across randomly
//! scheduled interleavings of {register, complete, drop} the protocol
//! must deliver **exactly one** wakeup to a registered waker, or let the
//! consumer observe the completed result directly — never a lost wakeup,
//! never a double-delivered response.
//!
//! The consumer drives a [`nacu_engine::TicketFuture`] by hand with a
//! counting waker, so wakeup delivery is an observable fact rather than
//! an inference from "the thread unblocked eventually".

use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use nacu_engine::{Codes, Response, Ticket, WaitError};

/// A waker that only counts. No parking: the consumer spins on the
/// counter, which keeps the schedule space wide open on one core.
#[derive(Debug, Default)]
struct CountingWaker {
    wakes: AtomicUsize,
}

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

/// A response whose `batch_cycles` carries a recognisable sentinel, so a
/// delivered value can be matched to the completion that produced it.
fn stamped(sentinel: u64) -> Response {
    Response {
        outputs: Codes::default(),
        worker: 0,
        batch_ops: 1,
        batch_cycles: sentinel,
    }
}

fn jitter(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if spins.is_multiple_of(7) {
        std::thread::yield_now();
    }
}

/// What the consumer side chose to do with its ticket.
#[derive(Debug, Clone, Copy)]
enum ConsumerPlan {
    /// Poll the future with a counting waker; on `Pending`, wait for the
    /// wakeup before re-polling (a lost wakeup turns into a timeout).
    PollWithWaker,
    /// Spin on `try_wait` — the direct-observation path, no waker ever
    /// registered.
    TryWaitLoop,
    /// Drop the ticket before the completion lands.
    DropEarly,
}

#[derive(Debug, Clone, Copy)]
enum CompleterPlan {
    /// Complete with a stamped response.
    Complete,
    /// Drop the completer without replying (engine-shutdown path).
    DropWithoutReply,
}

const SENTINEL: u64 = 0xC0FFEE;
const WAKE_TIMEOUT: Duration = Duration::from_secs(10);

fn run_interleaving(
    consumer_spins: u32,
    completer_spins: u32,
    consumer_plan: ConsumerPlan,
    completer_plan: CompleterPlan,
) -> Result<(), TestCaseError> {
    let (ticket, mut completer) = Ticket::detached(1);
    let core = Arc::new(CountingWaker::default());

    let completer_thread = std::thread::spawn(move || {
        jitter(completer_spins);
        match completer_plan {
            CompleterPlan::Complete => completer.complete(Ok(stamped(SENTINEL))),
            CompleterPlan::DropWithoutReply => drop(completer),
        }
    });

    jitter(consumer_spins);
    let mut saw_pending = false;
    let outcome: Option<Result<Response, WaitError>> = match consumer_plan {
        ConsumerPlan::PollWithWaker => {
            let waker = Waker::from(Arc::clone(&core));
            let mut cx = Context::from_waker(&waker);
            let mut future = ticket.into_future();
            let mut observed_wakes = 0;
            loop {
                match Pin::new(&mut future).poll(&mut cx) {
                    Poll::Ready(result) => break Some(result),
                    Poll::Pending => {
                        saw_pending = true;
                        // A registered waker must be woken: spinning here
                        // forever IS the lost-wakeup bug, so bound it.
                        let start = Instant::now();
                        while core.wakes.load(Ordering::SeqCst) == observed_wakes {
                            prop_assert!(
                                start.elapsed() < WAKE_TIMEOUT,
                                "lost wakeup: registered waker never fired"
                            );
                            std::hint::spin_loop();
                        }
                        observed_wakes = core.wakes.load(Ordering::SeqCst);
                    }
                }
            }
        }
        ConsumerPlan::TryWaitLoop => {
            let result = loop {
                if let Some(result) = ticket.try_wait() {
                    break result;
                }
                std::hint::spin_loop();
            };
            // Exactly-once delivery: the claim consumed the slot, so a
            // second look reports the value as gone, not a second copy.
            prop_assert!(matches!(
                ticket.try_wait(),
                Some(Err(WaitError::EngineShutDown))
            ));
            Some(result)
        }
        ConsumerPlan::DropEarly => {
            drop(ticket);
            None
        }
    };

    completer_thread.join().expect("completer thread");

    // At most one wakeup ever, regardless of schedule.
    let wakes = core.wakes.load(Ordering::SeqCst);
    prop_assert!(wakes <= 1, "waker fired {wakes} times");

    match outcome {
        Some(result) => {
            match completer_plan {
                CompleterPlan::Complete => {
                    let response = result.expect("completed ticket yields the response");
                    prop_assert_eq!(response.batch_cycles, SENTINEL);
                }
                CompleterPlan::DropWithoutReply => {
                    prop_assert_eq!(result.unwrap_err(), WaitError::EngineShutDown);
                }
            }
            // Direct observation (no Pending seen) needs no wakeup; once
            // Pending was returned the wakeup is mandatory and counted
            // in the poll loop above.
            if !saw_pending {
                prop_assert!(wakes <= 1);
            }
        }
        None => {
            // Ticket dropped early: the completer must neither panic nor
            // hang (join above), and any wakeup it delivered to the
            // now-dead registration is at most one (checked above).
        }
    }
    Ok(())
}

proptest! {
    // Case count comes from the offline shim's default (64, overridable
    // with PROPTEST_CASES); the CI async-stress job raises it.
    #[test]
    fn every_interleaving_wakes_once_or_observes_directly(
        consumer_spins in 0u32..400,
        completer_spins in 0u32..400,
        consumer_choice in 0u8..3,
        completer_choice in 0u8..2,
    ) {
        let consumer_plan = match consumer_choice {
            0 => ConsumerPlan::PollWithWaker,
            1 => ConsumerPlan::TryWaitLoop,
            _ => ConsumerPlan::DropEarly,
        };
        let completer_plan = match completer_choice {
            0 => CompleterPlan::Complete,
            _ => CompleterPlan::DropWithoutReply,
        };
        run_interleaving(consumer_spins, completer_spins, consumer_plan, completer_plan)?;
    }
}

/// The narrowest race, pinned deterministically: completion lands
/// *between* the consumer's first poll returning `Pending` and its next
/// poll. The registered waker must fire exactly once and the re-poll
/// must yield the value.
#[test]
fn register_then_complete_is_never_lost() {
    for _ in 0..2_000 {
        let (ticket, mut completer) = Ticket::detached(2);
        let core = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&core));
        let mut cx = Context::from_waker(&waker);
        let mut future = ticket.into_future();

        assert!(Pin::new(&mut future).poll(&mut cx).is_pending());
        completer.complete(Ok(stamped(7)));

        assert_eq!(core.wakes.load(Ordering::SeqCst), 1, "exactly one wakeup");
        match Pin::new(&mut future).poll(&mut cx) {
            Poll::Ready(Ok(response)) => assert_eq!(response.batch_cycles, 7),
            other => panic!("expected completed response, got {other:?}"),
        }
    }
}

/// Dropping the future after registration must not strand the stored
/// waker: completion wakes it (consuming the clone) or drops it, so the
/// counting core's refcount always returns to exactly ours.
#[test]
fn dropped_registration_does_not_leak_the_waker() {
    for complete_after_drop in [false, true] {
        let (ticket, mut completer) = Ticket::detached(3);
        let core = Arc::new(CountingWaker::default());
        {
            let waker = Waker::from(Arc::clone(&core));
            let mut cx = Context::from_waker(&waker);
            let mut future = ticket.into_future();
            assert!(Pin::new(&mut future).poll(&mut cx).is_pending());
            drop(future);
        }
        if complete_after_drop {
            completer.complete(Ok(stamped(9)));
        } else {
            drop(completer);
        }
        assert_eq!(
            Arc::strong_count(&core),
            1,
            "registered waker clone must be consumed or dropped"
        );
    }
}
