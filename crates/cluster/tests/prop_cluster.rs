//! Property-based tests for the cluster runtime: the poison-aware
//! [`EpochBarrier`] that coordinates the worker pool, and the
//! [`run_bsp_round_loop`] driver against a single-threaded sequential fold.
//!
//! The barrier properties are the safety contract every pooled run leans on:
//! a panicking participant must *unblock* everyone (no deadlock) and the
//! original payload must re-raise; a healthy barrier must be reusable for
//! arbitrarily many generations. Both are exercised over randomized
//! participant counts, not just the fixed shapes of the unit tests.

use distger_cluster::{
    run_bsp_round_loop, run_bsp_supervised, run_rounds, BarrierPoisoned, BspOutcome, CommStats,
    EpochBarrier, FaultInjector, FaultPlan, InMemoryTransport, Mailbox, MessageSize, Outbox,
    RecoveryExhausted, RecoveryPolicy,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A token that fans out to other machines while `remaining > 0`, tagged
/// with the machine that sent it.
struct Token {
    remaining: u32,
    sender: u32,
}

impl MessageSize for Token {
    fn size_bytes(&self) -> usize {
        16
    }
}

/// A BSP step with a concrete higher-ranked signature (returning the closure
/// from a function pins the `for<'a>` bound the drivers expect): fold each
/// token into the state **order-sensitively** (so a different delivery order
/// is a different state), then fan `fan` successors down the ring.
fn fan_step(
    machines: usize,
    fan: u32,
) -> impl for<'a> Fn(usize, &mut u64, Mailbox<'a, Token>, &mut Outbox<Token>) + Sync {
    move |machine, state, mailbox, outbox| {
        for token in mailbox.messages {
            *state = state
                .wrapping_mul(31)
                .wrapping_add(u64::from(token.sender) * 7 + u64::from(token.remaining) + 1);
            if token.remaining > 0 {
                for offset in 0..fan {
                    outbox.send(
                        (machine + 1 + offset as usize) % machines,
                        Token {
                            remaining: token.remaining - 1,
                            sender: machine as u32,
                        },
                    );
                }
            }
        }
    }
}

/// Round `round`'s seeds: one token per machine.
fn seeds(machines: usize, round: u64) -> Vec<Vec<Token>> {
    (0..machines)
        .map(|m| {
            vec![Token {
                remaining: ((m as u64 + round) % 3) as u32,
                sender: m as u32,
            }]
        })
        .collect()
}

/// `rounds` rounds of [`fan_step`] through the pooled driver, all machines in
/// this process.
fn pooled_rounds(
    machines: usize,
    rounds: u64,
    fan: u32,
    faults: Option<&FaultInjector>,
) -> BspOutcome<u64> {
    let mut next_round = 0u64;
    run_bsp_round_loop(
        &mut InMemoryTransport::new(machines),
        vec![0u64; machines],
        10_000,
        fan_step(machines, fan),
        |_transport, _states, _comm| {
            next_round += 1;
            Ok((next_round <= rounds).then(|| seeds(machines, next_round - 1)))
        },
        faults,
    )
    .expect("the in-memory transport is infallible")
}

/// The reference: the same rounds as a single-threaded fold, machines
/// stepped in ascending order and outboxes drained in ascending owner order.
/// Returns `(states, comm, total supersteps)`.
fn sequential_rounds(machines: usize, rounds: u64, fan: u32) -> (Vec<u64>, CommStats, u64) {
    let step = fan_step(machines, fan);
    let mut states = vec![0u64; machines];
    let mut outboxes: Vec<Outbox<Token>> =
        (0..machines).map(|m| Outbox::new(m, machines)).collect();
    let (mut total_supersteps, mut max_round_supersteps) = (0u64, 0u64);
    for round in 0..rounds {
        let mut inboxes = seeds(machines, round);
        let mut supersteps = 0u64;
        while inboxes.iter().any(|inbox| !inbox.is_empty()) {
            supersteps += 1;
            for (machine, inbox) in inboxes.iter_mut().enumerate() {
                let mailbox = Mailbox {
                    messages: inbox.drain(..),
                };
                step(
                    machine,
                    &mut states[machine],
                    mailbox,
                    &mut outboxes[machine],
                );
            }
            for outbox in &mut outboxes {
                outbox.drain_into(&mut inboxes);
            }
        }
        total_supersteps += supersteps;
        max_round_supersteps = max_round_supersteps.max(supersteps);
    }
    let mut comm = CommStats::new();
    for outbox in &outboxes {
        comm.merge(outbox.stats());
    }
    comm.supersteps = max_round_supersteps;
    (states, comm, total_supersteps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A worker panicking mid-round-loop — any worker, any round, any pool
    /// size — must poison the barrier so every other participant unblocks,
    /// and the *original* payload must re-raise from `run_rounds`. The test
    /// returning at all is the no-deadlock half of the property.
    #[test]
    fn worker_panic_mid_round_loop_unblocks_everyone_and_reraises(
        workers in 1usize..7,
        villain_pick in 0usize..7,
        panic_round in 0u64..4,
    ) {
        let villain = villain_pick % workers;
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_rounds(
                workers,
                |round| round < 20,
                |worker, round| {
                    if worker == villain && round == panic_round {
                        panic!("worker {worker} exploded at round {round}");
                    }
                },
            )
        }));
        let payload = result.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        prop_assert!(
            message == format!("worker {villain} exploded at round {panic_round}"),
            "panic payload was replaced: {message:?}"
        );
    }

    /// Same contract when the *coordinator* (the control phase) panics:
    /// workers parked at the round-start barrier must be released to exit.
    #[test]
    fn control_panic_mid_round_loop_unblocks_workers_and_reraises(
        workers in 1usize..7,
        panic_round in 0u64..4,
    ) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_rounds(
                workers,
                |round| {
                    if round == panic_round {
                        panic!("control exploded at round {round}");
                    }
                    true
                },
                |_, _| {},
            )
        }));
        let payload = result.expect_err("the control panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        prop_assert!(
            message == format!("control exploded at round {panic_round}"),
            "panic payload was replaced: {message:?}"
        );
    }

    /// One barrier instance must serve arbitrarily many generations (the
    /// round loop crosses it twice per superstep for the whole run):
    /// all `parties` participants complete `generations >= 3` crossings and
    /// the barrier stays healthy.
    #[test]
    fn barrier_is_reusable_across_generations(
        parties in 2usize..9,
        generations in 3u64..48,
    ) {
        let barrier = EpochBarrier::new(parties);
        std::thread::scope(|scope| {
            for _ in 0..parties - 1 {
                scope.spawn(|| {
                    for _ in 0..generations {
                        barrier.wait().unwrap();
                    }
                });
            }
            for _ in 0..generations {
                barrier.wait().unwrap();
            }
        });
        prop_assert!(!barrier.is_poisoned());
    }

    /// Poisoning with any number of participants blocked on the barrier
    /// wakes every one of them with an error, and every future wait fails
    /// immediately.
    #[test]
    fn poison_unblocks_every_blocked_waiter(parties in 2usize..9) {
        let barrier = EpochBarrier::new(parties);
        let mut woken = Vec::new();
        std::thread::scope(|scope| {
            // parties - 1 waiters block (the barrier needs one more).
            let waiters: Vec<_> = (0..parties - 1)
                .map(|_| scope.spawn(|| barrier.wait()))
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            barrier.poison();
            woken = waiters
                .into_iter()
                .map(|waiter| waiter.join().expect("waiter must not panic"))
                .collect();
        });
        for result in woken {
            prop_assert_eq!(result, Err(BarrierPoisoned));
        }
        prop_assert_eq!(barrier.wait(), Err(BarrierPoisoned));
        prop_assert!(barrier.is_poisoned());
    }

    /// The pooled round loop is observably identical to the sequential fold
    /// — final states (an order-sensitive fold of every delivered token),
    /// summed traffic, max-per-round superstep statistics and superstep
    /// totals.
    #[test]
    fn round_loop_equals_sequential_fold(
        machines in 1usize..6,
        rounds in 1u64..6,
        fan in 1u32..4,
    ) {
        let outcome = pooled_rounds(machines, rounds, fan, None);
        let (states, comm, supersteps) = sequential_rounds(machines, rounds, fan);
        prop_assert_eq!(&outcome.states, &states);
        prop_assert_eq!(&outcome.comm, &comm);
        prop_assert_eq!(outcome.supersteps, supersteps);
    }

    /// Delay faults are outcome-neutral by construction: a round loop with
    /// an injected straggler produces states, traffic and superstep counts
    /// identical to the undelayed run.
    #[test]
    fn delay_faults_are_outcome_neutral(
        machines in 1usize..5,
        rounds in 1u64..5,
        fan in 1u32..4,
        delay_machine in 0usize..5,
        delay_round in 0u64..5,
    ) {
        let reference = pooled_rounds(machines, rounds, fan, None);
        let faults = FaultPlan::new()
            .delay_at(delay_machine % machines, delay_round % rounds, 0, 1)
            .build();
        let delayed = pooled_rounds(machines, rounds, fan, Some(&faults));

        prop_assert_eq!(&delayed.states, &reference.states);
        prop_assert_eq!(&delayed.comm, &reference.comm);
        prop_assert_eq!(delayed.supersteps, reference.supersteps);
        prop_assert_eq!(faults.injected_delays(), 1);
        prop_assert_eq!(faults.injected_faults(), 0);
    }

    /// Supervised recovery of the round loop: a panic anywhere in
    /// (machine, round) space, restored by full replay from round 0 (this
    /// toy keeps no checkpoint — `restore` just resets the seeding cursor),
    /// converges to the fault-free outcome exactly, because the one-shot
    /// injector lets the retry sail past the fired point.
    #[test]
    fn supervised_round_loop_recovers_to_fault_free_outcome(
        machines in 1usize..5,
        rounds in 1u64..5,
        fan in 1u32..4,
        villain_pick in 0usize..5,
        fault_round_pick in 0u64..5,
    ) {
        let reference = pooled_rounds(machines, rounds, fan, None);
        let faults = FaultPlan::new()
            .panic_at(villain_pick % machines, fault_round_pick % rounds, 0)
            .build();
        let mut cursor = 0u64;
        let outcome = run_bsp_supervised(
            &mut InMemoryTransport::new(machines),
            RecoveryPolicy::retries(2),
            &mut cursor,
            |cursor, _attempt| {
                *cursor = 0;
                vec![0u64; machines]
            },
            10_000,
            fan_step(machines, fan),
            |cursor, _transport, _states, _comm| {
                *cursor += 1;
                Ok((*cursor <= rounds).then(|| seeds(machines, *cursor - 1)))
            },
            Some(&faults),
        )
        .expect("one injected panic must recover within two retries");

        prop_assert_eq!(&outcome.states, &reference.states);
        prop_assert_eq!(&outcome.comm, &reference.comm);
        prop_assert_eq!(outcome.supersteps, reference.supersteps);
        prop_assert_eq!(faults.injected_faults(), 1);
    }

    /// A retry budget smaller than the number of scheduled panics surfaces
    /// `RecoveryExhausted` — a clean error naming the last crash, never a
    /// deadlock or a replaced payload.
    #[test]
    fn supervised_exhaustion_is_a_clean_error(
        machines in 2usize..5,
        rounds in 2u64..5,
        fan in 1u32..4,
    ) {
        // Two panics in *distinct* rounds (same-round panics race on the
        // barrier), one retry: attempt 1 dies in round 0, attempt 2 dies in
        // round 1, budget spent.
        let faults = FaultPlan::new().panic_at(0, 0, 0).panic_at(1, 1, 0).build();
        let mut cursor = 0u64;
        let err = run_bsp_supervised(
            &mut InMemoryTransport::new(machines),
            RecoveryPolicy::retries(1),
            &mut cursor,
            |cursor, _attempt| {
                *cursor = 0;
                vec![0u64; machines]
            },
            10_000,
            fan_step(machines, fan),
            |cursor, _transport, _states, _comm| {
                *cursor += 1;
                Ok((*cursor <= rounds).then(|| seeds(machines, *cursor - 1)))
            },
            Some(&faults),
        )
        .expect_err("two panics must exhaust a one-retry budget")
        .downcast::<RecoveryExhausted>()
        .expect("exhaustion is a typed error");
        prop_assert_eq!(err.attempts, 2);
        prop_assert!(
            err.last_panic.contains("injected fault: machine 1 round 1"),
            "unexpected last panic: {}",
            err.last_panic
        );
    }
}
