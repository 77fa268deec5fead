//! Stress tests for the async completion front-end, run with `--release`
//! in CI (the `async-stress` job): optimised code shrinks the
//! register/complete race windows to their narrowest, which is exactly
//! when a broken waker handoff would lose a wakeup.
//!
//! Three campaigns, matching the serving plane's failure modes:
//!   1. register-after-complete race loop — a completer thread racing a
//!      `block_on` waiter, thousands of rounds;
//!   2. thousands of in-flight tickets multiplexed onto ONE driver via
//!      [`CompletionSet`], completed out of order by several threads;
//!   3. drop-ticket-before-wake — consumers vanish while completions are
//!      still in flight, and nothing hangs, panics, or double-replies.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nacu_engine::{Codes, CompletionSet, Response, Ticket, WaitError};

fn stamped(sentinel: u64) -> Response {
    Response {
        outputs: Codes::default(),
        worker: 0,
        batch_ops: 1,
        batch_cycles: sentinel,
    }
}

/// Campaign 1: the completer races the waiter on every round — sometimes
/// completion lands before the waiter registers (direct observation),
/// sometimes after (wakeup path). Either way `wait` must return the
/// stamped value, every single round.
#[test]
fn register_after_complete_race_loop() {
    const ROUNDS: u64 = 20_000;
    let barrier = Arc::new(std::sync::Barrier::new(2));
    for round in 0..ROUNDS {
        let (ticket, mut completer) = Ticket::detached(round);
        let gate = Arc::clone(&barrier);
        let completer_thread = std::thread::spawn(move || {
            gate.wait();
            // Vary who wins the race: even rounds complete immediately,
            // odd rounds yield first so the waiter tends to register.
            if round % 2 == 1 {
                std::thread::yield_now();
            }
            completer.complete(Ok(stamped(round)));
        });
        barrier.wait();
        let response = ticket.wait().expect("raced completion still delivers");
        assert_eq!(response.batch_cycles, round);
        completer_thread.join().expect("completer thread");
    }
}

/// Campaign 2: one driver thread parks on a [`CompletionSet`] holding
/// thousands of in-flight tickets while four completer threads resolve
/// them in scrambled orders. Every id must be collected exactly once
/// with its own stamped value — no lost wakeups, no duplicates, and the
/// driver parks instead of spinning (bounded batch count sanity-checks
/// that wakeups actually coalesce).
#[test]
fn thousands_of_in_flight_tickets_on_one_driver() {
    const TICKETS: u64 = 4_096;
    const COMPLETERS: u64 = 4;

    let mut set = CompletionSet::new();
    let mut completers = Vec::with_capacity(TICKETS as usize);
    for id in 0..TICKETS {
        let (ticket, completer) = Ticket::detached(id);
        set.insert(id, ticket);
        completers.push(Some(completer));
    }
    assert_eq!(set.len(), TICKETS as usize);

    let done = std::thread::scope(|scope| {
        for lane in 0..COMPLETERS {
            // Each lane resolves its ids through a stride permutation, so
            // completion order is thoroughly unlike insertion order.
            let mut lane_completers: Vec<(u64, _)> = completers
                .iter_mut()
                .enumerate()
                .filter(|(id, _)| (*id as u64) % COMPLETERS == lane)
                .map(|(id, slot)| (id as u64, slot.take().expect("unclaimed")))
                .collect();
            scope.spawn(move || {
                let n = lane_completers.len();
                for k in 0..n {
                    let index = (k * 977) % n; // 977 coprime to n
                    let (id, completer) = &mut lane_completers[index];
                    completer.complete(Ok(stamped(*id)));
                }
            });
        }

        // The single driver: park, drain, repeat until every id landed.
        // The outer deadline is the lost-wakeup detector — a starved
        // driver stops making progress and trips it.
        let mut done = Vec::with_capacity(TICKETS as usize);
        let mut batch = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while done.len() < TICKETS as usize {
            assert!(
                std::time::Instant::now() < deadline,
                "driver starved: wakeups lost at {}/{TICKETS}",
                done.len()
            );
            set.wait_completed_timeout(&mut batch, Duration::from_secs(1));
            done.append(&mut batch);
        }
        done
    });

    assert_eq!(done.len(), TICKETS as usize);
    let mut seen = HashSet::new();
    for (id, result) in done {
        assert!(seen.insert(id), "id {id} delivered twice");
        let response = result.expect("completed ok");
        assert_eq!(
            response.batch_cycles, id,
            "id {id} got someone else's value"
        );
    }
    assert_eq!(seen.len(), TICKETS as usize);
    assert!(set.is_empty(), "driver drained every pending ticket");
}

/// Campaign 3: consumers abandon tickets at every stage — unregistered,
/// registered-in-a-set, and mid-completion — while completers keep
/// resolving. The completers must never panic or block, and a set
/// dropped with live registrations must not wedge later completions.
#[test]
fn dropping_tickets_before_wake_leaks_and_hangs_nothing() {
    const ROUNDS: u64 = 500;
    let completions = Arc::new(AtomicUsize::new(0));

    for round in 0..ROUNDS {
        let (never_registered, mut completer_a) = Ticket::detached(round);
        let (registered, mut completer_b) = Ticket::detached(round + ROUNDS);

        // Register one ticket in a set, then drop the whole set while
        // the completion is still in flight.
        let mut set = CompletionSet::new();
        set.insert(round, registered);
        drop(never_registered);

        let counter = Arc::clone(&completions);
        let racer = std::thread::spawn(move || {
            completer_a.complete(Ok(stamped(1)));
            completer_b.complete(Ok(stamped(2)));
            counter.fetch_add(2, Ordering::SeqCst);
        });

        // Half the rounds drop the set before the completions land,
        // half after — both must be clean.
        if round % 2 == 0 {
            drop(set);
            racer.join().expect("completer thread");
        } else {
            racer.join().expect("completer thread");
            drop(set);
        }
    }

    assert_eq!(
        completions.load(Ordering::SeqCst),
        (ROUNDS as usize) * 2,
        "every completer ran to completion"
    );
}

/// The shutdown contract under load: dropping completers (the engine
/// dying) resolves every parked waiter with `EngineShutDown` rather than
/// stranding it.
#[test]
fn mass_completer_drop_unparks_every_waiter() {
    const WAITERS: u64 = 512;
    let mut set = CompletionSet::new();
    let mut completers = Vec::new();
    for id in 0..WAITERS {
        let (ticket, completer) = Ticket::detached(id);
        set.insert(id, ticket);
        completers.push(completer);
    }

    std::thread::scope(|scope| {
        scope.spawn(move || drop(completers));
        let mut done = Vec::new();
        let mut batch = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while done.len() < WAITERS as usize {
            assert!(
                std::time::Instant::now() < deadline,
                "shutdown never reached the waiters"
            );
            set.wait_completed_timeout(&mut batch, Duration::from_secs(1));
            done.append(&mut batch);
        }
        for (_, result) in done {
            assert_eq!(result.unwrap_err(), WaitError::EngineShutDown);
        }
    });
}
