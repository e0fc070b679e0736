//! Persistent BSP worker pool.
//!
//! DistGER's information-centrality early termination produces *many small
//! rounds*: a machine executes a handful of walker steps per superstep, so
//! spawning and joining a thread per machine per superstep (tens of
//! microseconds each) would dominate the work. [`run_rounds`] therefore
//! creates its worker threads **once per run** — each worker permanently
//! pinned to one index — and coordinates them with a reusable two-phase
//! [`EpochBarrier`], so a superstep boundary costs two barrier crossings.
//!
//! # Panic safety
//! A barrier is only as good as its worst participant: if a worker panics
//! between two `wait` calls, everyone else would block forever. Every
//! participant therefore holds a poison guard whose `Drop` (which runs during
//! unwinding) [`poison`](EpochBarrier::poison)s the barrier; poisoned waits
//! return an error, all surviving participants exit their loops, and the
//! original panic propagates through `std::thread::scope` instead of
//! deadlocking the run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Error returned by [`EpochBarrier::wait`] when a participant panicked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierPoisoned;

struct BarrierState {
    /// Participants arrived in the current generation.
    arrived: usize,
    /// Generation counter; bumped when the last participant arrives.
    epoch: u64,
    /// Set when a participant panicked; permanently fails all waits.
    poisoned: bool,
}

/// A reusable counting barrier with an explicit poison channel.
///
/// Unlike [`std::sync::Barrier`], a wait can fail: when any participant calls
/// [`poison`](EpochBarrier::poison) (normally from a panic guard), every
/// current and future [`wait`](EpochBarrier::wait) returns
/// [`BarrierPoisoned`] instead of blocking, which is what turns a worker
/// panic into an orderly shutdown rather than a deadlock.
///
/// The barrier is generation-counted ("epochs"), so the same instance is
/// reused for every phase of every superstep — the two phases of a superstep
/// are simply two consecutive generations.
pub struct EpochBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

impl EpochBarrier {
    /// A barrier for `parties` participants.
    ///
    /// # Panics
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "need at least one barrier participant");
        Self {
            parties,
            state: Mutex::new(BarrierState {
                arrived: 0,
                epoch: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until all `parties` participants have called `wait` in the
    /// current generation, or until the barrier is poisoned.
    ///
    /// Lock poisoning is recovered rather than propagated: `BarrierState` is
    /// three plain counters/flags with no invariant spanning statements, so
    /// it is valid in whatever state a panicking holder left it — and the
    /// barrier has its own explicit poison channel that the panic guards
    /// drive. Panicking here instead would turn an orderly poisoned-barrier
    /// shutdown into a double panic inside `Drop`, which aborts the process.
    pub fn wait(&self) -> Result<(), BarrierPoisoned> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.poisoned {
            return Err(BarrierPoisoned);
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.epoch = state.epoch.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(());
        }
        let epoch = state.epoch;
        while state.epoch == epoch && !state.poisoned {
            state = self
                .cvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.poisoned {
            Err(BarrierPoisoned)
        } else {
            Ok(())
        }
    }

    /// Marks the barrier as failed and wakes every waiter. All subsequent
    /// waits return [`BarrierPoisoned`] immediately.
    ///
    /// Recovers a poisoned lock for the same reason as
    /// [`wait`](EpochBarrier::wait) — this method is called from panic
    /// guards, where a second panic would abort the process.
    pub fn poison(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.poisoned = true;
        self.cvar.notify_all();
    }

    /// Whether [`poison`](EpochBarrier::poison) has been called.
    pub fn is_poisoned(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned
    }
}

/// Poisons the barrier if the holding thread unwinds (drop during a panic).
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Statistics of one pooled round loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Rounds executed (for BSP: supersteps).
    pub rounds: u64,
    /// Coordination overhead derived from **measured barrier waits**: the
    /// coordinator's total wait at round-start barriers (time for the
    /// slowest worker to arrive) plus the *minimum* worker's total wait at
    /// round-end barriers (every worker's end wait includes the barrier
    /// release cost; the minimum isolates it from straggler slack, which is
    /// compute imbalance rather than coordination).
    pub sync_secs: f64,
}

/// Runs coordinated rounds on `workers` persistent worker threads.
///
/// The coordinator (the calling thread) and the workers alternate in
/// lock-step:
///
/// 1. the coordinator runs `control(round)` **exclusively** — no worker is
///    executing — and returns whether another round should run;
/// 2. all workers concurrently run `work(worker, round)` (worker `i` is
///    permanently pinned to index `i` for the whole run);
/// 3. back to 1 with `round + 1`.
///
/// The exclusive/concurrent alternation is enforced by a single reusable
/// [`EpochBarrier`] crossed twice per round (round start and round end), so
/// `control` may freely mutate state that `work` reads — callers typically
/// share per-worker slots through `Mutex`es that are never contended.
///
/// Workers record a `superstep` span around `work` and a `barrier_wait` span
/// around the round-end wait. The control phase is *not* wrapped in a span
/// here: a caller whose spans outlive one control phase (the BSP driver's
/// `round`) could not nest properly inside it, so callers open their own.
///
/// Returns the executed round count and the accumulated coordination
/// overhead (see [`PoolStats`]).
///
/// # Panics
/// A panic in `work` or `control` poisons the barrier (so no participant
/// deadlocks) and then propagates to the caller.
pub fn run_rounds<C, W>(workers: usize, mut control: C, work: W) -> PoolStats
where
    C: FnMut(u64) -> bool,
    W: Fn(usize, u64) + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let barrier = EpochBarrier::new(workers + 1);
    let stop = AtomicBool::new(false);
    // The smallest per-worker *cumulative* round-end barrier wait: each
    // worker sums its own waits and folds the total in as it exits, so the
    // value is read only after the scope joined every worker (a per-round
    // slot would race: the coordinator leaves the end barrier before the
    // workers finish timing their waits).
    let min_end_wait_nanos = AtomicU64::new(u64::MAX);
    let mut coordinator_start_wait_nanos: u64 = 0;
    let mut stats = PoolStats::default();

    std::thread::scope(|scope| {
        // If `control` panics below, this guard poisons the barrier during
        // unwinding so the workers blocked at a round-start wait exit and the
        // scope can join them (then re-raise the panic).
        let _coordinator_guard = PoisonOnPanic(&barrier);
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let barrier = &barrier;
                let stop = &stop;
                let work = &work;
                let min_end_wait_nanos = &min_end_wait_nanos;
                scope.spawn(move || {
                    let _guard = PoisonOnPanic(barrier);
                    let mut round: u64 = 0;
                    let mut end_wait_nanos: u64 = 0;
                    loop {
                        // Round start: wait for the coordinator's control.
                        if barrier.wait().is_err() || stop.load(Ordering::Acquire) {
                            break;
                        }
                        {
                            let _span =
                                distger_obs::span!("superstep", machine = worker, round = round);
                            work(worker, round);
                        }
                        // Round end: hand exclusivity back to the coordinator.
                        let wait_started = Instant::now();
                        let waited = {
                            let _span =
                                distger_obs::span!("barrier_wait", machine = worker, round = round);
                            barrier.wait()
                        };
                        end_wait_nanos += wait_started.elapsed().as_nanos() as u64;
                        if waited.is_err() {
                            break;
                        }
                        round += 1;
                    }
                    min_end_wait_nanos.fetch_min(end_wait_nanos, Ordering::Relaxed);
                })
            })
            .collect();

        loop {
            if !control(stats.rounds) {
                stop.store(true, Ordering::Release);
                // Release the workers so they observe the stop flag.
                let _ = barrier.wait();
                break;
            }
            let round_started = Instant::now();
            if barrier.wait().is_err() {
                break; // a worker panicked; re-raised from its join below
            }
            coordinator_start_wait_nanos += round_started.elapsed().as_nanos() as u64;
            if barrier.wait().is_err() {
                break;
            }
            stats.rounds += 1;
        }

        // Join explicitly so a panicking worker's original payload propagates
        // (letting the scope auto-join would replace it with the generic
        // "a scoped thread panicked" message).
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let min_end_wait = min_end_wait_nanos.load(Ordering::Relaxed);
    stats.sync_secs = (coordinator_start_wait_nanos + min_end_wait) as f64 / 1e9;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn rounds_run_all_workers_in_lockstep() {
        let counters: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_rounds(
            3,
            |round| round < 5,
            |worker, round| {
                // Lock-step: at round r every worker has done exactly r units.
                assert_eq!(counters[worker].load(Ordering::SeqCst), round as usize);
                counters[worker].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(stats.rounds, 5);
        assert!(stats.sync_secs >= 0.0);
        for counter in &counters {
            assert_eq!(counter.load(Ordering::SeqCst), 5);
        }
    }

    #[test]
    fn control_runs_exclusively_between_rounds() {
        // `control` mutates a plain (non-atomic would not compile; the point
        // is no torn interleaving) counter that workers read: the barrier
        // alternation makes the read deterministic.
        let shared = AtomicUsize::new(0);
        run_rounds(
            4,
            |round| {
                shared.store(round as usize * 10, Ordering::SeqCst);
                round < 3
            },
            |_, round| {
                assert_eq!(shared.load(Ordering::SeqCst), round as usize * 10);
            },
        );
    }

    #[test]
    fn zero_rounds_when_control_declines_immediately() {
        let stats = run_rounds(2, |_| false, |_, _| panic!("no round should run"));
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.sync_secs, 0.0);
    }

    #[test]
    #[should_panic(expected = "worker 1 exploded")]
    fn worker_panic_propagates_without_deadlock() {
        run_rounds(
            4,
            |round| round < 100,
            |worker, round| {
                if worker == 1 && round == 2 {
                    panic!("worker 1 exploded");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "control exploded")]
    fn control_panic_propagates_without_deadlock() {
        run_rounds(
            3,
            |round| {
                if round == 1 {
                    panic!("control exploded");
                }
                true
            },
            |_, _| {},
        );
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let barrier = EpochBarrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..100 {
                    barrier.wait().unwrap();
                }
            });
            for _ in 0..100 {
                barrier.wait().unwrap();
            }
        });
        assert!(!barrier.is_poisoned());
    }

    #[test]
    fn poisoned_barrier_wakes_waiters_and_fails_future_waits() {
        let barrier = EpochBarrier::new(3);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait());
            // Give the waiter a moment to block, then poison.
            std::thread::sleep(std::time::Duration::from_millis(10));
            barrier.poison();
            assert_eq!(waiter.join().unwrap(), Err(BarrierPoisoned));
        });
        assert_eq!(barrier.wait(), Err(BarrierPoisoned));
        assert!(barrier.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "at least one barrier participant")]
    fn zero_parties_rejected() {
        EpochBarrier::new(0);
    }

    #[test]
    fn barrier_survives_a_poisoned_state_lock() {
        // Regression for the unwrap audit: a thread that panics while
        // holding the state mutex poisons the *lock* (not just the barrier).
        // Every barrier entry point must keep functioning afterwards instead
        // of double-panicking — in production the poisoner is a panic guard
        // running during unwinding, where a second panic aborts the process.
        let barrier = EpochBarrier::new(2);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = barrier.state.lock().unwrap();
            panic!("poison the state lock");
        }));
        assert!(barrier.state.is_poisoned(), "lock should be poisoned");

        assert!(
            !barrier.is_poisoned(),
            "explicit poison flag still readable"
        );
        barrier.poison();
        assert!(barrier.is_poisoned());
        assert_eq!(barrier.wait(), Err(BarrierPoisoned));
    }

    #[test]
    fn barrier_wait_sync_excludes_control_time() {
        // The coordinator's control phase (here: a deliberate 4ms sleep per
        // round, ~120ms total) runs *before* the measured window, so it must
        // not be attributed to synchronization on uniform 1ms workers.
        let stats = run_rounds(
            4,
            |round| {
                if round > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(4));
                }
                round < 30
            },
            |_, _| std::thread::sleep(std::time::Duration::from_millis(1)),
        );
        assert_eq!(stats.rounds, 30);
        assert!(
            stats.sync_secs < 0.060,
            "barrier-wait sync {} must exclude the ~120ms of control time",
            stats.sync_secs
        );
    }
}
