//! Deterministic fault injection and recovery policies for the BSP runtime.
//!
//! The reproduction's failure story used to end at "a worker panic poisons
//! the [`EpochBarrier`](crate::EpochBarrier) and the run dies". Machines
//! that run as real processes genuinely crash, so the runtime needs a
//! *tested* recovery protocol — and testing recovery needs
//! crashes that happen exactly where the test says, every time. This module
//! provides both halves:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seeded, deterministic schedule of
//!   worker panics and artificial delays, keyed by
//!   `(machine, round, superstep)`. The injector is threaded through
//!   [`run_bsp_round_loop`](crate::bsp::run_bsp_round_loop) as an
//!   `Option<&FaultInjector>`: `None` costs nothing on the hot path.
//! * [`RecoveryPolicy`] — how many times a supervisor
//!   ([`run_bsp_supervised`](crate::bsp::run_bsp_supervised)) retries a
//!   poisoned run, with capped exponential backoff between attempts, and
//!   [`RecoveryExhausted`] — the error carrying the last panic message once
//!   the attempt budget is spent.
//!
//! Every fault point fires **exactly once** ([`FaultInjector::trip`] is
//! one-shot), so a recovered run that re-executes the faulted round does not
//! crash again at the same point — which is precisely what lets the
//! supervisor's property tests assert recovered runs are bit-identical to
//! fault-free ones.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What happens when a fault point trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread panics (poisoning the barrier, as a real crash
    /// inside the shared address space would).
    Panic,
    /// The worker sleeps for the given number of milliseconds — a straggler,
    /// not a crash. Outcome-neutral by construction.
    Delay(u64),
}

/// One scheduled fault: `kind` fires when machine `machine` enters the
/// compute phase of superstep `superstep` of round `round` (both 0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPoint {
    /// The machine (worker index) the fault fires on.
    pub machine: usize,
    /// The 0-based round (for the trainer: the chunk index).
    pub round: u64,
    /// The 0-based superstep within the round (always 0 for the trainer).
    pub superstep: u64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault points, built either explicitly
/// ([`panic_at`](FaultPlan::panic_at) / [`delay_at`](FaultPlan::delay_at))
/// or pseudo-randomly from a seed ([`seeded`](FaultPlan::seeded)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

/// SplitMix64 finalizer, local to this crate (the walks crate's RNG lives
/// *above* us in the dependency graph). Only used to derive deterministic
/// fault coordinates from a seed — statistical quality far beyond what a
/// fault schedule needs.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a worker panic at `(machine, round, superstep)`.
    pub fn panic_at(mut self, machine: usize, round: u64, superstep: u64) -> Self {
        self.points.push(FaultPoint {
            machine,
            round,
            superstep,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Adds a `millis`-millisecond delay at `(machine, round, superstep)`.
    pub fn delay_at(mut self, machine: usize, round: u64, superstep: u64, millis: u64) -> Self {
        self.points.push(FaultPoint {
            machine,
            round,
            superstep,
            kind: FaultKind::Delay(millis),
        });
        self
    }

    /// Derives `count` fault points deterministically from `seed`, spread
    /// over `machines × rounds × supersteps` coordinates. Even-indexed
    /// points panic, odd-indexed points delay 1 ms — the same seed always
    /// yields the same schedule, which is what makes soak failures
    /// reproducible.
    pub fn seeded(seed: u64, count: usize, machines: usize, rounds: u64, supersteps: u64) -> Self {
        assert!(machines > 0 && rounds > 0 && supersteps > 0);
        let mut plan = Self::new();
        for i in 0..count {
            let h = mix64(seed ^ mix64(i as u64));
            let machine = (h % machines as u64) as usize;
            let round = mix64(h) % rounds;
            let superstep = mix64(h ^ 0xA5A5) % supersteps;
            plan = if i % 2 == 0 {
                plan.panic_at(machine, round, superstep)
            } else {
                plan.delay_at(machine, round, superstep, 1)
            };
        }
        plan
    }

    /// The scheduled points.
    pub fn points(&self) -> &[FaultPoint] {
        &self.points
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Freezes the plan into an injector ready to hand to a run.
    pub fn build(self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// A frozen [`FaultPlan`] with one-shot firing state, shared by reference
/// with every worker of a run (and across the retries of a supervised run —
/// a point that already fired stays fired, so recovery does not re-crash).
#[derive(Debug)]
pub struct FaultInjector {
    points: Vec<FaultPoint>,
    fired: Vec<AtomicBool>,
    injected: AtomicU64,
    delayed: AtomicU64,
}

impl FaultInjector {
    /// Freezes `plan` into an injector.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = plan.points.iter().map(|_| AtomicBool::new(false)).collect();
        Self {
            points: plan.points,
            fired,
            injected: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// Fires any not-yet-fired fault scheduled at `(machine, round,
    /// superstep)`. Panics (with a message naming the coordinates) for
    /// [`FaultKind::Panic`], sleeps for [`FaultKind::Delay`]. Called by the
    /// execution backends at the top of every worker compute phase; a run
    /// without an injector never reaches this method.
    pub fn trip(&self, machine: usize, round: u64, superstep: u64) {
        for (point, fired) in self.points.iter().zip(&self.fired) {
            if point.machine == machine
                && point.round == round
                && point.superstep == superstep
                && fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                match point.kind {
                    FaultKind::Panic => {
                        self.injected.fetch_add(1, Ordering::Relaxed);
                        distger_obs::instant("fault_panic", machine as i64, round as i64);
                        panic!(
                            "injected fault: machine {machine} round {round} superstep {superstep}"
                        );
                    }
                    FaultKind::Delay(millis) => {
                        self.delayed.fetch_add(1, Ordering::Relaxed);
                        distger_obs::instant("fault_delay", machine as i64, round as i64);
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                }
            }
        }
    }

    /// Panics fired so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Delays fired so far.
    pub fn injected_delays(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }
}

/// How a supervisor retries a run that died to a worker panic.
///
/// The default is **disabled** (zero retries): a panic propagates exactly as
/// it always has. `Copy`, so it threads through the `Copy`-pervasive config
/// structs (`WalkEngineConfig` → `TrainerConfig` → `DistGerConfig`) like the
/// other backend knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum retry attempts after the first failure (0 = disabled).
    pub max_retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps
    /// `backoff_ms << (k − 1)`, capped at 1 s. 0 retries immediately.
    pub backoff_ms: u64,
}

impl RecoveryPolicy {
    /// A policy allowing `max_retries` immediate retries (no backoff —
    /// right for an in-process transport, where there is no external
    /// resource to wait out).
    pub fn retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            backoff_ms: 0,
        }
    }

    /// Builder-style backoff override.
    pub fn with_backoff_ms(mut self, backoff_ms: u64) -> Self {
        self.backoff_ms = backoff_ms;
        self
    }

    /// Whether any retry is allowed.
    pub fn is_enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// Backoff before retry attempt `attempt` (1-based): exponential in the
    /// attempt number, capped at one second so a misconfigured policy cannot
    /// stall a run for minutes.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff_ms == 0 {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(10);
        Duration::from_millis((self.backoff_ms << shift).min(1_000))
    }
}

/// Error returned by a supervised run once every retry attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryExhausted {
    /// Attempts made (initial run plus retries).
    pub attempts: u32,
    /// The panic message of the last failed attempt.
    pub last_panic: String,
}

impl std::fmt::Display for RecoveryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery exhausted after {} attempt(s); last panic: {}",
            self.attempts, self.last_panic
        )
    }
}

impl std::error::Error for RecoveryExhausted {}

/// Extracts a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_fires_once_at_its_coordinates() {
        let injector = FaultPlan::new().panic_at(1, 2, 3).build();
        // Wrong coordinates: nothing fires.
        injector.trip(1, 2, 2);
        injector.trip(0, 2, 3);
        assert_eq!(injector.injected_faults(), 0);
        // Right coordinates: the panic fires...
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            injector.trip(1, 2, 3);
        }))
        .unwrap_err();
        assert_eq!(
            panic_message(err.as_ref()),
            "injected fault: machine 1 round 2 superstep 3"
        );
        assert_eq!(injector.injected_faults(), 1);
        // ...exactly once: a retried run passing the same point sails through.
        injector.trip(1, 2, 3);
        assert_eq!(injector.injected_faults(), 1);
    }

    #[test]
    fn delay_faults_sleep_instead_of_panicking() {
        let injector = FaultPlan::new().delay_at(0, 0, 0, 1).build();
        injector.trip(0, 0, 0);
        assert_eq!(injector.injected_delays(), 1);
        assert_eq!(injector.injected_faults(), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 16, 4, 10, 6);
        let b = FaultPlan::seeded(42, 16, 4, 10, 6);
        assert_eq!(a, b, "same seed must give the same schedule");
        let c = FaultPlan::seeded(43, 16, 4, 10, 6);
        assert_ne!(a, c, "different seeds should differ");
        for p in a.points() {
            assert!(p.machine < 4 && p.round < 10 && p.superstep < 6);
        }
        assert_eq!(a.points().len(), 16);
        // Both kinds appear.
        assert!(a.points().iter().any(|p| p.kind == FaultKind::Panic));
        assert!(a
            .points()
            .iter()
            .any(|p| matches!(p.kind, FaultKind::Delay(_))));
    }

    #[test]
    fn recovery_policy_defaults_disabled_with_capped_backoff() {
        let policy = RecoveryPolicy::default();
        assert!(!policy.is_enabled());
        assert_eq!(policy.backoff_for(1), Duration::ZERO);

        let policy = RecoveryPolicy::retries(3).with_backoff_ms(100);
        assert!(policy.is_enabled());
        assert_eq!(policy.backoff_for(1), Duration::from_millis(100));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(200));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(400));
        assert_eq!(
            policy.backoff_for(30),
            Duration::from_millis(1_000),
            "backoff is capped at one second"
        );
    }

    #[test]
    fn recovery_exhausted_formats_the_last_panic() {
        let err = RecoveryExhausted {
            attempts: 4,
            last_panic: "injected fault: machine 0 round 1 superstep 0".into(),
        };
        let text = err.to_string();
        assert!(text.contains("4 attempt(s)"), "{text}");
        assert!(text.contains("machine 0 round 1"), "{text}");
    }
}
