//! Property-based tests for the request scheduler.
//!
//! The scheduler's headline contract is **transparency**: batching,
//! shedding and clock injection may change *when* a query is
//! answered, but never *what* the answer is — every completed request must
//! be bit-identical to a direct `QueryEngine::top_k` call on the same
//! query. The suite checks that over randomized (callers × queries ×
//! max_batch × max_delay × k) shapes including the degenerate max_batch=1
//! and single-caller cases, then pins the deadline state machine on a
//! [`VirtualClock`] (flush exactly at the deadline, never before — zero
//! sleep-based assertions), and stresses the two ways a scheduler dies:
//! dropping it and an engine panic through the `FaultInjector` seam. Both
//! must error every in-flight request with [`Rejected::Shutdown`] rather
//! than hang a caller.

use distger_cluster::FaultPlan;
use distger_serve::{
    gaussian_clusters, BatchPolicy, Clock, EmbeddingIndex, PendingQuery, QueryBackend, QueryEngine,
    Rejected, Scheduler, SchedulerConfig, ServeConfig, TopK, VirtualClock,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn engine(nodes: usize, backend: QueryBackend, k: usize, seed: u64) -> QueryEngine {
    let index = EmbeddingIndex::build(&gaussian_clusters(nodes, 8, 4, 0.1, seed));
    QueryEngine::new(
        index,
        ServeConfig {
            backend,
            k,
            threads: 2,
            ..ServeConfig::default()
        },
    )
}

fn query_of(engine: &QueryEngine, node: u32) -> Vec<f32> {
    engine.index().unit_vector(node).to_vec()
}

/// A caller's deterministic query schedule: node `(caller·31 + i·7) % nodes`.
fn caller_node(nodes: usize, caller: usize, i: usize) -> u32 {
    ((caller * 31 + i * 7) % nodes) as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Transparency: every answer the scheduler returns — across caller
    /// counts, batch sizes (down to max_batch=1), delays and k — is
    /// bit-identical to a direct `top_k` call for that query.
    #[test]
    fn scheduler_answers_are_bit_identical_to_direct_top_k(
        callers in 1usize..5,          // includes the single-caller case
        queries_per_caller in 1usize..12,
        max_batch in 1usize..40,       // includes the no-batching case
        max_delay_us in 0u64..800,     // includes flush-immediately
        k in 1usize..8,
        use_lsh in 0u8..2,
        seed in 0u64..64,
    ) {
        let backend = if use_lsh == 1 { QueryBackend::Lsh } else { QueryBackend::Exact };
        let nodes = 80;
        let engine = engine(nodes, backend, k, seed);
        // Ground truth before the engine moves into the scheduler.
        let expected: Vec<TopK> = (0..nodes as u32)
            .map(|node| engine.top_k_one(&query_of(&engine, node)))
            .collect();
        let scheduler = Scheduler::new(
            engine,
            SchedulerConfig::default().with_batch(BatchPolicy {
                max_batch,
                max_delay: Duration::from_micros(max_delay_us),
            }),
        );
        std::thread::scope(|scope| {
            for caller in 0..callers {
                let client = scheduler.client();
                let engine = scheduler.engine();
                let expected = &expected;
                scope.spawn(move || {
                    for i in 0..queries_per_caller {
                        let node = caller_node(nodes, caller, i);
                        let query = query_of(engine, node);
                        let answer = client
                            .submit(&query)
                            .expect("admission bound not reached")
                            .wait()
                            .expect("scheduler alive");
                        assert_eq!(
                            answer, expected[node as usize],
                            "caller {caller} query {i} (node {node}) diverged"
                        );
                    }
                });
            }
        });
        let stats = scheduler.stats();
        prop_assert_eq!(stats.completed, (callers * queries_per_caller) as u64);
        prop_assert_eq!(stats.shed, 0);
        prop_assert_eq!(stats.batch_sizes.sum(), stats.completed);
        prop_assert!(stats.batch_sizes.max() <= max_batch as u64);
    }

    /// Deadline exactness on a virtual clock: a lone request below
    /// max_batch flushes exactly when the oldest request turns max_delay
    /// old — provably never before (the dispatcher is still parked one
    /// nanosecond short of the deadline), and its recorded latency is
    /// exactly max_delay. No sleeps anywhere.
    #[test]
    fn lone_request_flushes_exactly_at_the_deadline(
        max_delay_us in 1u64..5_000,
        pre_advance_us in 0u64..5_000,
        k in 1usize..6,
        seed in 0u64..64,
    ) {
        let clock = VirtualClock::new();
        let max_delay = Duration::from_micros(max_delay_us);
        // Time already elapsed before the submit: the deadline must be
        // relative to the submit, not the scheduler's start.
        clock.advance(Duration::from_micros(pre_advance_us));
        let scheduler = Scheduler::with_clock(
            engine(40, QueryBackend::Exact, k, seed),
            SchedulerConfig::default().with_batch(BatchPolicy { max_batch: 64, max_delay }),
            clock.clone(),
        );
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 7);
        let submitted_at = clock.now();
        let pending = client.submit(&query).unwrap();
        let deadline = submitted_at + max_delay;

        prop_assert_eq!(clock.wait_for_park_until(deadline), deadline);
        clock.advance(max_delay - Duration::from_nanos(1));
        // One nanosecond short: the dispatcher is *still parked* on the
        // deadline, so the flush cannot have happened.
        prop_assert_eq!(clock.parked_deadline(), Some(deadline));
        prop_assert!(pending.try_wait().is_none(), "flushed before the deadline");

        clock.advance(Duration::from_nanos(1));
        prop_assert!(pending.wait().is_ok());
        let stats = scheduler.stats();
        prop_assert_eq!(stats.batches, 1);
        prop_assert_eq!(stats.latency.max(), max_delay.as_nanos() as u64);
    }

    /// Dropping the scheduler with requests still queued (frozen virtual
    /// clock, unreachable deadline: nothing can flush) errors every one of
    /// them with `Rejected::Shutdown` — no hang, no lost caller — and
    /// later submits fail fast.
    #[test]
    fn drop_errors_every_queued_request_with_shutdown(
        queued in 1usize..30,
        k in 1usize..6,
        seed in 0u64..64,
    ) {
        let scheduler = Scheduler::with_clock(
            engine(40, QueryBackend::Exact, k, seed),
            SchedulerConfig::default().with_batch(BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_secs(3600),
            }),
            VirtualClock::new(),
        );
        let client = scheduler.client();
        let pending: Vec<PendingQuery> = (0..queued)
            .map(|i| {
                let query = query_of(scheduler.engine(), (i % 40) as u32);
                client.submit(&query).unwrap()
            })
            .collect();
        drop(scheduler);
        for p in pending {
            prop_assert_eq!(p.wait(), Err(Rejected::Shutdown));
        }
        prop_assert_eq!(client.submit(&[1.0; 8]).unwrap_err(), Rejected::Shutdown);
        prop_assert_eq!(client.stats().shutdown_errors, queued as u64);
    }

    /// An engine panic injected through the `FaultInjector` seam at a
    /// random batch index kills the dispatcher mid-stream: every submitted
    /// request still resolves (bit-identical answer before the fault,
    /// `Rejected::Shutdown` from the faulted batch on), the canonical
    /// panic payload is recorded, and the counters account for every
    /// request.
    #[test]
    fn injected_engine_panic_resolves_every_request_with_shutdown(
        requests in 1usize..25,
        fault_batch in 0u64..25,
        k in 1usize..6,
        seed in 0u64..64,
    ) {
        let nodes = 40;
        let engine = engine(nodes, QueryBackend::Exact, k, seed);
        let expected: Vec<TopK> = (0..nodes as u32)
            .map(|node| engine.top_k_one(&query_of(&engine, node)))
            .collect();
        let faults = Arc::new(FaultPlan::new().panic_at(0, fault_batch, 0).build());
        let scheduler = Scheduler::new(
            engine,
            SchedulerConfig {
                // max_batch 1: batch index == request index, so the fault
                // lands on a deterministic request.
                batch: BatchPolicy { max_batch: 1, max_delay: Duration::ZERO },
                faults: Some(faults),
                ..SchedulerConfig::default()
            },
        );
        let client = scheduler.client();
        let mut outcomes = Vec::new();
        for i in 0..requests {
            let node = (i % nodes) as u32;
            let query = query_of(scheduler.engine(), node);
            match client.submit(&query) {
                Ok(pending) => outcomes.push((node, pending.wait())),
                Err(rejected) => {
                    // Submit raced the dispatcher's death: fail-fast path.
                    prop_assert_eq!(rejected, Rejected::Shutdown);
                }
            }
        }
        for (node, outcome) in outcomes {
            match outcome {
                Ok(answer) => prop_assert_eq!(answer, expected[node as usize].clone()),
                Err(rejected) => prop_assert_eq!(rejected, Rejected::Shutdown),
            }
        }
        if (fault_batch as usize) < requests {
            let failure = scheduler.failure().expect("fault fired, payload recorded");
            prop_assert!(failure.contains("injected fault"), "payload: {}", failure);
            prop_assert!(scheduler.stats().shutdown_errors >= 1);
        }
        let stats = scheduler.stats();
        prop_assert_eq!(
            stats.accepted,
            stats.completed + stats.shutdown_errors,
            "every accepted request resolved exactly once"
        );
    }
}

/// Overload shedding beyond `max_inflight`: not a proptest because the
/// scenario needs a frozen clock and exact counts. With the dispatcher
/// unable to flush, submits beyond the bound must shed with
/// `Rejected::Overloaded`, and the shed counter must match.
#[test]
fn overload_sheds_exactly_beyond_max_inflight() {
    let max_inflight = 7;
    let scheduler = Scheduler::with_clock(
        engine(40, QueryBackend::Exact, 3, 5),
        SchedulerConfig::default()
            .with_max_inflight(max_inflight)
            .with_batch(BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_secs(3600),
            }),
        VirtualClock::new(),
    );
    let client = scheduler.client();
    let mut accepted = Vec::new();
    for i in 0..max_inflight + 5 {
        let query = query_of(scheduler.engine(), (i % 40) as u32);
        match client.submit(&query) {
            Ok(pending) => accepted.push(pending),
            Err(rejected) => assert_eq!(rejected, Rejected::Overloaded),
        }
    }
    assert_eq!(accepted.len(), max_inflight);
    let stats = scheduler.stats();
    assert_eq!(stats.shed, 5);
    assert_eq!(stats.submitted, (max_inflight + 5) as u64);
}
