//! Bulk Synchronous Parallel execution of a job's machines over a
//! [`Transport`].
//!
//! KnightKing (§2.2) coordinates walkers with the BSP model \[56\]: in every
//! superstep each machine processes the messages addressed to it and emits
//! messages for the next superstep; machines synchronize at the superstep
//! boundary. [`run_bsp_round_loop`] is the one driver of that scheme. Each
//! endpoint (process) of a job calls it with its [`Transport`]: the
//! endpoint's [`local_machines`](Transport::local_machines) run on one
//! persistent worker thread each (see [`pool`](crate::pool)), the superstep
//! boundary is the transport's [`sync_pending`](Transport::sync_pending) +
//! [`exchange`](Transport::exchange) pair, and round boundaries hand the
//! transport to the caller for its own collectives. With an
//! [`InMemoryTransport`](crate::InMemoryTransport) that is the whole job in
//! one process; with a [`SocketTransport`](crate::SocketTransport) the same
//! loop runs in every process. [`run_bsp_supervised`] wraps it in a bounded
//! retry. Every cross-machine message is accounted through [`CommStats`],
//! and the coordination overhead of the superstep boundaries is reported as
//! [`BspOutcome::sync_secs`].
//!
//! The message queues are **double-buffered**: every machine owns a
//! persistent [`Outbox`] whose per-destination queues survive across
//! supersteps, and inboxes are refilled by *moving* messages out of those
//! queues at the superstep boundary ([`Vec::append`] keeps both allocations
//! alive). After the first few supersteps the in-memory exchange runs without
//! any queue reallocation — the steady state is allocation-free. Every
//! transport delivers an inbox's messages in ascending source-machine order,
//! so inbox contents — and therefore entire runs — are bit-identical however
//! the machines are spread over endpoints.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::comm::{CommStats, MessageSize};
use crate::fault::{panic_message, FaultInjector, RecoveryExhausted, RecoveryPolicy};
use crate::pool::run_rounds;
use crate::transport::Transport;
use crate::MachineId;

/// Per-machine outgoing message buffer handed to the step function.
///
/// Outboxes persist across supersteps; their queues are drained (not
/// dropped) at every superstep boundary so queue capacity is reused.
pub struct Outbox<M> {
    owner: MachineId,
    pub(crate) queues: Vec<Vec<M>>,
    pub(crate) stats: CommStats,
}

impl<M: MessageSize> Outbox<M> {
    /// An empty outbox for machine `owner` in a `num_machines`-machine job.
    pub fn new(owner: MachineId, num_machines: usize) -> Self {
        Self {
            owner,
            queues: (0..num_machines).map(|_| Vec::new()).collect(),
            stats: CommStats::new(),
        }
    }

    /// Communication statistics accumulated by this outbox.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Queues `msg` for delivery to machine `to` at the next superstep.
    /// Messages to the owner machine itself are delivered but not counted as
    /// cross-machine traffic.
    pub fn send(&mut self, to: MachineId, msg: M) {
        if to != self.owner {
            self.stats.record_message(msg.size_bytes());
        } else {
            self.stats.record_local_step();
        }
        self.queues[to].push(msg);
    }

    /// Records a unit of work that completed without any message (e.g. a walk
    /// step whose destination stayed on this machine).
    pub fn record_local_step(&mut self) {
        self.stats.record_local_step();
    }

    /// The machine that owns this outbox.
    pub fn owner(&self) -> MachineId {
        self.owner
    }

    /// Moves the messages queued for machine `d` onto the end of the `d`-th
    /// inbox, for every `d`; both allocations are kept. Calling this for
    /// each outbox in ascending owner order is the reference superstep
    /// boundary: every inbox receives its messages in ascending source order.
    pub fn drain_into<'a>(&mut self, inboxes: impl IntoIterator<Item = &'a mut Vec<M>>)
    where
        M: 'a,
    {
        for (queue, inbox) in self.queues.iter_mut().zip(inboxes) {
            inbox.append(queue);
        }
    }
}

/// Messages delivered to one machine at the start of a superstep.
///
/// The messages are drained out of the machine's persistent inbox so the
/// inbox allocation is reused by the next superstep (any message left
/// unconsumed is dropped when the mailbox goes out of scope).
pub struct Mailbox<'a, M> {
    /// The messages, in arbitrary order.
    pub messages: std::vec::Drain<'a, M>,
}

/// Result of a BSP run on one endpoint.
#[derive(Debug)]
pub struct BspOutcome<S> {
    /// Final states of this endpoint's machines, in machine order.
    pub states: Vec<S>,
    /// Communication statistics of this endpoint's machines, summed over all
    /// supersteps; `supersteps` is the **maximum supersteps of any single
    /// round** (a job-wide quantity, equal on every endpoint).
    pub comm: CommStats,
    /// Number of supersteps executed, summed over rounds.
    pub supersteps: u64,
    /// Thread-coordination overhead of the superstep boundaries, **measured
    /// from barrier waits** ([`PoolStats::sync_secs`](crate::pool::PoolStats::sync_secs)):
    /// the coordinator's round-start waits plus the minimum worker's
    /// round-end waits, i.e. the barrier-crossing cost with straggler slack
    /// (compute imbalance) excluded. The message exchange itself runs in the
    /// control phase between supersteps and is not included.
    pub sync_secs: f64,
}

/// One machine's mutable triple. Workers lock their own slot during the
/// compute phase and the coordinator locks slots during the control phase;
/// the phases never overlap (the pool barrier separates them), so the
/// mutexes exist to satisfy the borrow checker and are never contended.
struct MachineSlot<S, M> {
    state: S,
    inbox: Vec<M>,
    outbox: Outbox<M>,
}

/// Locks a machine slot. A slot mutex is only ever locked by its pinned
/// worker during the compute phase and by the coordinator during the
/// exclusive control phase, which the pool barrier strictly alternates — so
/// the lock is never contended. Nor can it be poisoned where this is called:
/// a worker that panics inside `step` poisons the *barrier* during
/// unwinding, the coordinator's next wait fails, and the panic is re-raised
/// from the join before any control phase runs again.
fn lock_slot<S, M>(slot: &Mutex<MachineSlot<S, M>>) -> MutexGuard<'_, MachineSlot<S, M>> {
    slot.lock()
        .expect("a slot is locked by one phase at a time, and a worker panic stops the run first")
}

/// Runs a **multi-round** BSP computation for the machines this endpoint
/// hosts: the entire round loop — every superstep of every round — executes
/// inside a single [`run_rounds`] invocation, one worker thread per
/// [`local machine`](Transport::local_machines) for the whole run no matter
/// how many rounds the caller's convergence logic ends up executing (an
/// endpoint hosting a single machine steps it on the calling thread). Every
/// endpoint of the job must call this with the same `max_supersteps` and a
/// `boundary` that makes the same decisions.
///
/// * `states` — one mutable state per local machine, in machine order.
/// * `step` — called once per local machine per superstep as
///   `step(machine, &mut state, mailbox, &mut outbox)` with the job-wide
///   machine id; it may emit messages to any machine through the outbox.
/// * `boundary` — called as `boundary(transport, states, comm)` whenever no
///   machine of the job has pending messages, **exclusively**: every worker
///   is parked at the barrier. It harvests whatever the finished round
///   produced (running its own collectives over `transport` if the job has
///   several endpoints), and either returns the next round's initial
///   messages, one inbox per local machine (`Some(inboxes)`), or ends the
///   run (`None`). `comm` is the traffic of the local machines accumulated
///   so far in this invocation, with `supersteps` the maximum of any
///   completed round — a checkpointing caller persists it here, because a
///   later crash discards the machine slots and their counters with them.
/// * `faults` — when `Some`, every worker calls
///   [`trip(machine, round, superstep)`](FaultInjector::trip) at the top of
///   its compute phase with 0-based coordinates. The trip runs *before* the
///   worker locks its slot, so an injected panic poisons the barrier —
///   exactly like a real crash — but never the slot mutex.
///
/// `boundary` is first called before any superstep ran (states untouched) to
/// seed round 0. Whether the seeds start a round is decided job-wide by the
/// same pending check that ends one: a round seeded with all-empty inboxes
/// on every endpoint is skipped and the callback is invoked again
/// immediately, so a caller that never seeds must return `None` to stop.
///
/// Every decision executes in a control phase, so the run ends by not
/// scheduling another generation and no participant can be left blocked on
/// the barrier. An [`io::Error`] from `transport` or `boundary` takes the
/// same path: the pool stops, every worker is joined, the error is returned.
///
/// `max_supersteps` caps each round individually.
///
/// # Panics
/// Panics if `states` does not hold one state per local machine, if a round
/// exceeds `max_supersteps`, or if `step`/`boundary` panics (the pool's
/// poisoned barrier guarantees an orderly shutdown before the payload
/// propagates).
pub fn run_bsp_round_loop<T, S, M, F, C>(
    transport: &mut T,
    states: Vec<S>,
    max_supersteps: u64,
    step: F,
    mut boundary: C,
    faults: Option<&FaultInjector>,
) -> io::Result<BspOutcome<S>>
where
    T: Transport<M>,
    S: Send,
    M: MessageSize + Send,
    F: for<'a> Fn(MachineId, &mut S, Mailbox<'a, M>, &mut Outbox<M>) + Sync,
    C: FnMut(&mut T, &mut [&mut S], &CommStats) -> io::Result<Option<Vec<Vec<M>>>>,
{
    let local = transport.local_machines();
    let num_machines = transport.num_machines();
    assert_eq!(states.len(), local.len(), "one state per local machine");
    let slots: Vec<Mutex<MachineSlot<S, M>>> = states
        .into_iter()
        .zip(local.clone())
        .map(|(state, machine)| {
            Mutex::new(MachineSlot {
                state,
                inbox: Vec::new(),
                outbox: Outbox::new(machine, num_machines),
            })
        })
        .collect();

    let mut total_supersteps: u64 = 0;
    let mut round_supersteps: u64 = 0;
    let mut max_round_supersteps: u64 = 0;
    // Rounds started so far; `cur_round`/`cur_superstep` publish the 0-based
    // coordinates of the superstep about to run, written by the coordinator
    // and read by the workers for fault injection (Relaxed suffices: the
    // round-start barrier crossing orders the store before the loads).
    let mut started_rounds: u64 = 0;
    let cur_round = AtomicU64::new(0);
    let cur_superstep = AtomicU64::new(0);

    let mut control_phase = |generation: u64| -> io::Result<bool> {
        let mut control_span = Some(distger_obs::span!("control", round = generation));
        if generation > 0 {
            // Superstep boundary: project the slots (all ours — workers are
            // parked at the barrier) into outbox/inbox reference slices and
            // let the transport move the queues.
            let _span = distger_obs::span!("exchange", round = total_supersteps);
            let mut guards: Vec<_> = slots.iter().map(lock_slot).collect();
            let (mut outboxes, mut inboxes): (Vec<_>, Vec<_>) = guards
                .iter_mut()
                .map(|guard| {
                    let slot = &mut **guard;
                    (&mut slot.outbox, &mut slot.inbox)
                })
                .unzip();
            transport.exchange(total_supersteps, &mut outboxes, &mut inboxes)?;
        }
        loop {
            let local_pending = slots.iter().any(|slot| !lock_slot(slot).inbox.is_empty());
            if transport.sync_pending(local_pending)? {
                assert!(
                    round_supersteps < max_supersteps,
                    "BSP exceeded {max_supersteps} supersteps — runaway walk?"
                );
                if round_supersteps == 0 {
                    cur_round.store(started_rounds, Ordering::Relaxed);
                    started_rounds += 1;
                }
                cur_superstep.store(round_supersteps, Ordering::Relaxed);
                round_supersteps += 1;
                total_supersteps += 1;
                return Ok(true);
            }
            // Round boundary: every inbox of the job drained, so the previous
            // round (if any) is complete. The caller's spans may outlive this
            // control phase, so ours closes first.
            drop(control_span.take());
            max_round_supersteps = max_round_supersteps.max(round_supersteps);
            round_supersteps = 0;
            let mut guards: Vec<_> = slots.iter().map(lock_slot).collect();
            let mut comm_so_far = CommStats::new();
            for guard in guards.iter() {
                comm_so_far.merge(&guard.outbox.stats);
            }
            comm_so_far.supersteps = max_round_supersteps;
            let mut states: Vec<&mut S> = guards.iter_mut().map(|guard| &mut guard.state).collect();
            let seeds = boundary(transport, &mut states, &comm_so_far)?;
            drop(states);
            let Some(mut seeds) = seeds else {
                return Ok(false);
            };
            assert_eq!(
                seeds.len(),
                guards.len(),
                "one seed inbox per local machine"
            );
            for (guard, seed) in guards.iter_mut().zip(seeds.iter_mut()) {
                guard.inbox.append(seed);
            }
            control_span = Some(distger_obs::span!("control", round = generation));
        }
    };
    let mut failure = None;
    let control = |generation| {
        control_phase(generation).unwrap_or_else(|err| {
            failure = Some(err);
            false
        })
    };
    let work = |worker: usize, _generation: u64| {
        let machine = local.start + worker;
        if let Some(injector) = faults {
            injector.trip(
                machine,
                cur_round.load(Ordering::Relaxed),
                cur_superstep.load(Ordering::Relaxed),
            );
        }
        let mut slot = lock_slot(&slots[worker]);
        let slot = &mut *slot;
        let mailbox = Mailbox {
            messages: slot.inbox.drain(..),
        };
        step(machine, &mut slot.state, mailbox, &mut slot.outbox);
    };
    let sync_secs = if slots.len() == 1 {
        // A lone machine has nothing to run concurrently with (the usual
        // shape of a multi-process job: one machine per process), so its
        // supersteps alternate with the control phases on this thread — no
        // second thread, no barrier to cross.
        let mut control = control;
        let mut generation = 0;
        while control(generation) {
            let _span = distger_obs::span!("superstep", machine = local.start, round = generation);
            work(0, generation);
            generation += 1;
        }
        0.0
    } else {
        run_rounds(slots.len(), control, work).sync_secs
    };
    if let Some(err) = failure {
        return Err(err);
    }

    let mut comm = CommStats::new();
    let mut states = Vec::with_capacity(slots.len());
    for slot in slots {
        let slot = slot
            .into_inner()
            .expect("run_rounds returned normally, so no worker panicked holding its slot");
        comm.merge(&slot.outbox.stats);
        states.push(slot.state);
    }
    comm.supersteps = max_round_supersteps;
    Ok(BspOutcome {
        states,
        comm,
        supersteps: total_supersteps,
        sync_secs,
    })
}

/// Supervised wrapper around [`run_bsp_round_loop`]: catches a poisoned run,
/// lets the caller restore its coordinator state from the latest valid
/// checkpoint, rebuilds the worker pool, and retries under a bounded
/// [`RecoveryPolicy`] with capped exponential backoff.
///
/// The division of labour follows from what survives a crash. Machine slots
/// (per-machine states, in-flight messages, outbox statistics) die with the
/// poisoned pool; only the caller's coordinator context `ctx` — everything
/// harvested at round boundaries — survives. So:
///
/// * `restore(ctx, attempt)` opens every attempt (`attempt` is 0 for the
///   first). It rolls `ctx` back to the latest checkpoint (for attempt 0, the
///   initial state) and returns **fresh per-machine states** for the new
///   pool.
/// * `boundary(ctx, transport, states, comm)` is the round boundary of
///   [`run_bsp_round_loop`], additionally given `ctx` — this is where a
///   caller harvests the finished round into `ctx` and snapshots it.
/// * A panic anywhere in the attempt (worker step, boundary, injected fault)
///   is caught; if the policy allows another attempt the supervisor backs
///   off and retries, otherwise it returns an [`io::Error`] wrapping
///   [`RecoveryExhausted`] with the last panic message
///   ([`io::Error::downcast`] recovers it). A transport error is returned
///   as is, never retried.
///
/// Retrying is only sound when this endpoint hosts every machine: other
/// endpoints of a multi-endpoint job cannot be rolled back from here, so an
/// enabled `policy` on such a transport is rejected with
/// [`io::ErrorKind::InvalidInput`] before anything runs.
///
/// The returned [`BspOutcome`] is the successful attempt's: its `comm`
/// covers only that attempt's rounds, so a restoring caller merges it with
/// the checkpointed statistics ([`CommStats::merge`] sums traffic and takes
/// the max of the per-round superstep peaks, which composes correctly across
/// the attempt boundary).
#[allow(clippy::too_many_arguments)]
pub fn run_bsp_supervised<T, X, S, M, F, R, C>(
    transport: &mut T,
    policy: RecoveryPolicy,
    ctx: &mut X,
    mut restore: R,
    max_supersteps: u64,
    step: F,
    mut boundary: C,
    faults: Option<&FaultInjector>,
) -> io::Result<BspOutcome<S>>
where
    T: Transport<M>,
    S: Send,
    M: MessageSize + Send,
    F: for<'a> Fn(MachineId, &mut S, Mailbox<'a, M>, &mut Outbox<M>) + Sync,
    R: FnMut(&mut X, u32) -> Vec<S>,
    C: FnMut(&mut X, &mut T, &mut [&mut S], &CommStats) -> io::Result<Option<Vec<Vec<M>>>>,
{
    if policy.is_enabled() && transport.endpoints() > 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "recovery needs a transport that hosts every machine in this process",
        ));
    }
    let mut attempt: u32 = 0;
    loop {
        let states = restore(ctx, attempt);
        // AssertUnwindSafe: on a caught panic the closure's captures are
        // only touched again *after* `restore` rolled `ctx` back to a
        // checkpointed (consistent) state — crash-time partial mutations of
        // `ctx` are discarded, which is the whole point of the protocol.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_bsp_round_loop(
                transport,
                states,
                max_supersteps,
                &step,
                |transport, states, comm| boundary(ctx, transport, states, comm),
                faults,
            )
        }));
        match result {
            Ok(outcome) => return outcome,
            Err(payload) => {
                attempt += 1;
                let last_panic = panic_message(payload.as_ref());
                if attempt > policy.max_retries {
                    distger_obs::instant("recovery_exhausted", -1, -1);
                    return Err(io::Error::other(RecoveryExhausted {
                        attempts: attempt,
                        last_panic,
                    }));
                }
                distger_obs::instant("recovery_attempt", -1, attempt as i64);
                std::thread::sleep(policy.backoff_for(attempt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ControlChannel, InMemoryTransport, SocketTransport};
    use crate::wire::{Wire, WireReader};
    use crate::WireStats;
    use std::net::TcpListener;
    use std::ops::Range;
    use std::time::Duration;

    /// A token that hops `remaining` more times round-robin across machines.
    #[derive(Debug)]
    struct Token {
        remaining: u32,
    }

    impl MessageSize for Token {
        fn size_bytes(&self) -> usize {
            16
        }
    }

    impl Wire for Token {
        fn encode_into(&self, out: &mut Vec<u8>) {
            crate::wire::put_u32(out, self.remaining);
        }

        fn decode(r: &mut WireReader<'_>) -> io::Result<Self> {
            Ok(Token {
                remaining: r.u32()?,
            })
        }
    }

    /// A ring step over `MACHINES` machines: count the token, pass it on.
    fn ring_step<const MACHINES: usize>(
        machine: MachineId,
        state: &mut u64,
        mailbox: Mailbox<'_, Token>,
        outbox: &mut Outbox<Token>,
    ) {
        for token in mailbox.messages {
            *state += 1;
            if token.remaining > 0 {
                outbox.send(
                    (machine + 1) % MACHINES,
                    Token {
                        remaining: token.remaining - 1,
                    },
                );
            }
        }
    }

    /// One token with `remaining` hops left in every one of `inboxes` inboxes.
    fn tokens(inboxes: usize, remaining: u32) -> Vec<Vec<Token>> {
        (0..inboxes).map(|_| vec![Token { remaining }]).collect()
    }

    /// Runs `rounds` rounds of the ring over `transport`, every local machine
    /// seeded with one `remaining`-hop token per round.
    fn run_ring<const MACHINES: usize, T: Transport<Token>>(
        transport: &mut T,
        rounds: u64,
        remaining: u32,
        faults: Option<&FaultInjector>,
    ) -> io::Result<BspOutcome<u64>> {
        let local = transport.local_machines().len();
        let mut next_round = 0u64;
        run_bsp_round_loop(
            transport,
            vec![0u64; local],
            100,
            ring_step::<MACHINES>,
            |_transport, _states, _comm| {
                if next_round == rounds {
                    return Ok(None);
                }
                next_round += 1;
                Ok(Some(tokens(local, remaining)))
            },
            faults,
        )
    }

    #[test]
    fn token_ring_counts_messages() {
        let mut seeded = false;
        let outcome = run_bsp_round_loop(
            &mut InMemoryTransport::new(4),
            vec![0u64; 4],
            1000,
            ring_step::<4>,
            |_transport, _states, _comm| {
                if std::mem::replace(&mut seeded, true) {
                    return Ok(None);
                }
                let mut seeds: Vec<Vec<Token>> = (0..4).map(|_| Vec::new()).collect();
                seeds[0].push(Token { remaining: 7 });
                Ok(Some(seeds))
            },
            None,
        )
        .unwrap();
        // The token visits 8 machines in total (initial + 7 hops).
        assert_eq!(outcome.states.iter().sum::<u64>(), 8);
        assert_eq!(outcome.comm.messages, 7);
        assert_eq!(outcome.comm.bytes, 7 * 16);
        assert_eq!(outcome.supersteps, 8);
        assert!(outcome.sync_secs >= 0.0);
    }

    #[test]
    fn self_messages_are_local() {
        // One machine: the ring's successor is the machine itself.
        let outcome = run_ring::<1, _>(&mut InMemoryTransport::new(1), 1, 3, None).unwrap();
        assert_eq!(outcome.comm.messages, 0);
        assert_eq!(outcome.comm.local_steps, 3);
        assert_eq!(outcome.states[0], 4);
    }

    #[test]
    #[should_panic(expected = "supersteps")]
    fn runaway_loop_is_capped() {
        let _ = run_ring::<2, _>(&mut InMemoryTransport::new(2), 1, 1_000, None);
    }

    /// The coordinator ends the loop from a control phase the moment its
    /// convergence criterion is met — workers exit cleanly, nobody blocks.
    #[test]
    fn round_loop_coordinator_terminates_early_without_deadlock() {
        let mut seeded_rounds = 0u64;
        let outcome = run_bsp_round_loop(
            &mut InMemoryTransport::new(4),
            vec![0u64; 4],
            100,
            ring_step::<4>,
            |_transport, states, _comm| {
                // "Converged": the harvested state total crossed a threshold
                // well before the nominal 100-round budget.
                let total: u64 = states.iter().map(|state| **state).sum();
                if total >= 12 {
                    return Ok(None);
                }
                seeded_rounds += 1;
                Ok(Some(tokens(4, 1)))
            },
            None,
        )
        .unwrap();
        // Each round: 4 tokens × 2 visits = 8 counts, so 2 rounds suffice.
        assert_eq!(seeded_rounds, 2);
        assert_eq!(outcome.states.iter().sum::<u64>(), 16);
        assert_eq!(outcome.supersteps, 4);
        assert_eq!(outcome.comm.supersteps, 2, "max supersteps of one round");
    }

    fn no_work(_: MachineId, _: &mut u64, _: Mailbox<'_, Token>, _: &mut Outbox<Token>) {
        panic!("no superstep should run");
    }

    /// All-empty seeds re-enter the boundary immediately instead of running
    /// a no-op superstep generation.
    #[test]
    fn round_loop_skips_all_empty_seed_rounds() {
        let mut calls = 0u64;
        let outcome = run_bsp_round_loop(
            &mut InMemoryTransport::new(2),
            vec![0u64; 2],
            10,
            no_work,
            |_transport, _states, _comm| {
                calls += 1;
                Ok((calls < 3).then(|| vec![Vec::new(), Vec::new()]))
            },
            None,
        )
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(outcome.supersteps, 0);
        assert_eq!(outcome.comm.supersteps, 0);
    }

    /// A panic in the boundary control phase poisons the barrier (workers
    /// exit instead of blocking) and the payload propagates.
    #[test]
    #[should_panic(expected = "boundary exploded")]
    fn round_loop_boundary_panic_propagates() {
        let mut rounds = 0u64;
        let _ = run_bsp_round_loop(
            &mut InMemoryTransport::new(3),
            vec![0u64; 3],
            100,
            ring_step::<3>,
            |_transport, _states, _comm| {
                if rounds == 2 {
                    panic!("boundary exploded");
                }
                rounds += 1;
                Ok(Some(tokens(3, 2)))
            },
            None,
        );
    }

    /// The boundary sees cumulative completed-round traffic, and the final
    /// outcome matches the last boundary's view.
    #[test]
    fn round_loop_boundary_observes_cumulative_comm() {
        let mut boundary_comm: Vec<CommStats> = Vec::new();
        let mut next_round = 0u64;
        let outcome = run_bsp_round_loop(
            &mut InMemoryTransport::new(3),
            vec![0u64; 3],
            100,
            ring_step::<3>,
            |_transport, _states, comm| {
                boundary_comm.push(comm.clone());
                if next_round == 3 {
                    return Ok(None);
                }
                next_round += 1;
                Ok(Some(tokens(3, 2)))
            },
            None,
        )
        .unwrap();
        assert_eq!(boundary_comm.len(), 4);
        assert_eq!(boundary_comm[0], CommStats::new(), "nothing ran yet");
        // Each round: 3 tokens × 2 hops, all cross-machine.
        for (i, comm) in boundary_comm.iter().enumerate() {
            assert_eq!(comm.messages, 6 * i as u64);
            assert_eq!(comm.bytes, 6 * 16 * i as u64);
        }
        assert_eq!(outcome.comm, boundary_comm[3]);
    }

    /// An injected fault at exact `(machine, round, superstep)` coordinates
    /// panics the run with a message naming those coordinates.
    #[test]
    fn round_loop_fault_injection_hits_exact_coordinates() {
        let injector = crate::fault::FaultPlan::new().panic_at(1, 2, 1).build();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ring::<3, _>(&mut InMemoryTransport::new(3), 5, 3, Some(&injector))
        }))
        .unwrap_err();
        assert_eq!(
            crate::fault::panic_message(err.as_ref()),
            "injected fault: machine 1 round 2 superstep 1"
        );
        assert_eq!(injector.injected_faults(), 1);
    }

    /// A panicking machine must poison the pool's barrier so the other
    /// workers shut down and the panic propagates — not deadlock the run.
    #[test]
    #[should_panic(expected = "machine 2 step failed")]
    fn pool_worker_panic_propagates_instead_of_deadlocking() {
        let mut seeded = false;
        // Every machine gets work, so all four workers are live inside the
        // superstep when machine 2 panics.
        let _ = run_bsp_round_loop(
            &mut InMemoryTransport::new(4),
            vec![0u64; 4],
            100,
            |machine, state: &mut u64, mailbox: Mailbox<'_, Token>, outbox: &mut Outbox<Token>| {
                if *state >= 1 && machine == 2 {
                    panic!("machine 2 step failed");
                }
                ring_step::<4>(machine, state, mailbox, outbox);
            },
            |_transport, _states, _comm| {
                Ok((!std::mem::replace(&mut seeded, true)).then(|| tokens(4, 4)))
            },
            None,
        );
    }

    /// An in-memory transport that can fail its `n`-th exchange and report
    /// any endpoint count, to drive the driver's error paths.
    struct Flaky {
        inner: InMemoryTransport,
        exchanges_before_failure: u32,
        endpoints: usize,
    }

    impl ControlChannel for Flaky {
        fn endpoint(&self) -> usize {
            0
        }
        fn endpoints(&self) -> usize {
            self.endpoints
        }
        fn broadcast(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
            self.inner.broadcast(payload)
        }
        fn gather(&mut self, payload: &[u8]) -> io::Result<Vec<Vec<u8>>> {
            self.inner.gather(payload)
        }
        fn scatter(&mut self, payloads: &[Vec<u8>]) -> io::Result<Vec<u8>> {
            self.inner.scatter(payloads)
        }
        fn wire_stats(&self) -> WireStats {
            WireStats::default()
        }
    }

    impl Transport<Token> for Flaky {
        fn num_machines(&self) -> usize {
            Transport::<Token>::num_machines(&self.inner)
        }
        fn local_machines(&self) -> Range<usize> {
            Transport::<Token>::local_machines(&self.inner)
        }
        fn exchange(
            &mut self,
            superstep: u64,
            outboxes: &mut [&mut Outbox<Token>],
            inboxes: &mut [&mut Vec<Token>],
        ) -> io::Result<()> {
            if self.exchanges_before_failure == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer went away"));
            }
            self.exchanges_before_failure -= 1;
            self.inner.exchange(superstep, outboxes, inboxes)
        }
        fn sync_pending(&mut self, local_pending: bool) -> io::Result<bool> {
            Transport::<Token>::sync_pending(&mut self.inner, local_pending)
        }
    }

    /// A transport error in a control phase stops the pool (the call
    /// returning at all proves every worker was released and joined) and
    /// surfaces as the call's error.
    #[test]
    fn transport_error_in_a_control_phase_stops_the_pool_cleanly() {
        let mut transport = Flaky {
            inner: InMemoryTransport::new(3),
            exchanges_before_failure: 4,
            endpoints: 1,
        };
        let err = run_ring::<3, _>(&mut transport, 5, 2, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    /// A boundary error takes the same exit.
    #[test]
    fn boundary_error_stops_the_pool_cleanly() {
        let mut seeded = false;
        let err = run_bsp_round_loop(
            &mut InMemoryTransport::new(2),
            vec![0u64; 2],
            100,
            ring_step::<2>,
            |_transport, _states, _comm| {
                if std::mem::replace(&mut seeded, true) {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "bad harvest"));
                }
                Ok(Some(tokens(2, 3)))
            },
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Two endpoints over loopback TCP, three machines: every endpoint runs
    /// the same loop over its own machines and the job is the in-memory job.
    #[test]
    fn loopback_endpoints_run_the_same_job_as_one_process() {
        let reference = run_ring::<3, _>(&mut InMemoryTransport::new(3), 4, 5, None).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let mut transport = SocketTransport::worker(addr, Duration::from_secs(5)).unwrap();
            run_ring::<3, _>(&mut transport, 4, 5, None).unwrap()
        });
        let mut transport = SocketTransport::coordinator(&listener, 2, 3).unwrap();
        let coordinator = run_ring::<3, _>(&mut transport, 4, 5, None).unwrap();
        let worker = worker.join().unwrap();

        let states: Vec<u64> = [coordinator.states, worker.states].concat();
        assert_eq!(states, reference.states);
        let mut comm = coordinator.comm.clone();
        comm.merge(&worker.comm);
        assert_eq!(comm, reference.comm);
        assert_eq!(coordinator.supersteps, reference.supersteps);
        assert_eq!(worker.supersteps, reference.supersteps);
    }

    /// The supervised loop recovers an injected crash from the caller's
    /// checkpoint and finishes with results identical to a fault-free run —
    /// including the comm statistics stitched across the attempt boundary.
    #[test]
    fn supervised_run_recovers_to_fault_free_results() {
        let rounds = 4u64;
        let fault_free = run_ring::<3, _>(&mut InMemoryTransport::new(3), rounds, 2, None).unwrap();

        // Coordinator context: harvested per-machine token counts, completed
        // rounds, and checkpointed comm — everything a crash must not lose.
        #[derive(Clone, Default)]
        struct Ctx {
            counts: Vec<u64>,
            rounds: u64,
            comm: CommStats,
            checkpoint: Option<(Vec<u64>, u64, CommStats)>,
            restores: u32,
        }
        let mut ctx = Ctx {
            counts: vec![0; 3],
            ..Ctx::default()
        };
        let injector = crate::fault::FaultPlan::new().panic_at(2, 2, 0).build();
        let outcome = run_bsp_supervised(
            &mut InMemoryTransport::new(3),
            RecoveryPolicy::retries(2),
            &mut ctx,
            |ctx, attempt| {
                if attempt > 0 {
                    ctx.restores += 1;
                    let (counts, rounds, comm) = ctx
                        .checkpoint
                        .clone()
                        .expect("crash happened after a checkpoint");
                    ctx.counts = counts;
                    ctx.rounds = rounds;
                    ctx.comm = comm;
                }
                // Fresh machine states; harvested counts live in ctx.
                vec![0u64; 3]
            },
            100,
            ring_step::<3>,
            |ctx, _transport, states, comm| {
                // Consume the states into ctx and zero them so re-harvesting
                // cannot double count (they accumulate across an attempt).
                for (total, state) in ctx.counts.iter_mut().zip(states.iter_mut()) {
                    *total += std::mem::take(*state);
                }
                if ctx.rounds == rounds {
                    return Ok(None);
                }
                // Checkpoint every completed round: harvested counts plus
                // base comm merged with this attempt's traffic so far.
                let mut total_comm = ctx.comm.clone();
                total_comm.merge(comm);
                ctx.checkpoint = Some((ctx.counts.clone(), ctx.rounds, total_comm));
                ctx.rounds += 1;
                Ok(Some(tokens(3, 2)))
            },
            Some(&injector),
        )
        .expect("policy allows recovery");

        assert_eq!(ctx.restores, 1, "exactly one recovery");
        assert_eq!(injector.injected_faults(), 1);
        assert_eq!(ctx.rounds, rounds);
        let fault_free_total: u64 = fault_free.states.iter().sum();
        assert_eq!(ctx.counts.iter().sum::<u64>(), fault_free_total);
        // Comm across the attempt boundary: checkpointed base + final
        // attempt's outcome equals the fault-free totals exactly.
        let mut recovered_comm = ctx.comm.clone();
        recovered_comm.merge(&outcome.comm);
        assert_eq!(recovered_comm, fault_free.comm);
    }

    /// Runs the two-machine ring supervised with an endless seeding boundary.
    fn supervised_ring<T: Transport<Token>>(
        transport: &mut T,
        policy: RecoveryPolicy,
        faults: Option<&FaultInjector>,
    ) -> io::Error {
        run_bsp_supervised(
            transport,
            policy,
            &mut (),
            |_ctx, _attempt| vec![0u64; 2],
            100,
            ring_step::<2>,
            |_ctx, _transport, _states, _comm| Ok(Some(tokens(2, 2))),
            faults,
        )
        .unwrap_err()
    }

    /// When the policy disallows retries (or they run out), the supervisor
    /// returns a clean error carrying the last panic message — no deadlock,
    /// no propagated panic.
    #[test]
    fn supervised_run_exhausts_policy_into_clean_error() {
        // The second fault sits in a later round so the two crashes cannot
        // race within one superstep: attempt 0 dies at round 0 (machine 0),
        // the retry replays round 0 cleanly and dies at round 1 (machine 1).
        let injector = crate::fault::FaultPlan::new()
            .panic_at(0, 0, 0)
            .panic_at(1, 1, 0)
            .build();
        let err = supervised_ring(
            &mut InMemoryTransport::new(2),
            RecoveryPolicy::retries(1),
            Some(&injector),
        )
        .downcast::<RecoveryExhausted>()
        .expect("exhaustion is a typed error");
        assert_eq!(err.attempts, 2);
        assert!(
            err.last_panic.contains("injected fault: machine 1 round 1"),
            "{}",
            err.last_panic
        );
    }

    /// Retrying cannot roll other endpoints back, so a retry budget on a
    /// multi-endpoint transport is a caller error, reported before anything
    /// runs.
    #[test]
    fn supervised_run_rejects_retries_on_a_multi_endpoint_transport() {
        let mut transport = Flaky {
            inner: InMemoryTransport::new(2),
            exchanges_before_failure: u32::MAX,
            endpoints: 2,
        };
        let err = supervised_ring(&mut transport, RecoveryPolicy::retries(1), None);
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
