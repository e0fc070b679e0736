//! Property-based tests for the fault-tolerance layer: deterministic fault
//! injection, round-granular checkpointing, and supervised recovery.
//!
//! The central theorem (ISSUE 6): for *any* injected fault point over
//! seeds × machines × rounds, a supervised run recovers to a result
//! bit-identical to the fault-free `RoundLoop` run — same corpus, same
//! communication statistics, same relative-entropy trace, same round count.
//! This holds because the round boundary is a quiescent point (no in-flight
//! walkers, per-round state about to be reset) and next-round seeding is a
//! pure function of `(seed, round)`, so replaying from the latest checkpoint
//! reconstructs exactly the rounds the crash destroyed.

use distger_cluster::wire::testing::assert_total;
use distger_cluster::{CommStats, FaultKind};
use distger_partition::{mpgp_partition, MpgpConfig};
use distger_walks::{
    run_distributed_walks, run_distributed_walks_supervised, CheckpointPolicy, Corpus, FaultPlan,
    RecoveryPolicy, WalkCheckpoint, WalkEngineConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: one injected worker panic anywhere in
    /// (machine, round) space, recovered under an every-`interval`-rounds
    /// checkpoint policy, yields results bit-identical to the fault-free run.
    #[test]
    fn any_single_fault_recovers_bit_identical(
        seed in 0u64..12,
        machines in 1usize..5,
        fault_machine in 0usize..5,
        fault_round in 0u64..3,
        interval in 1u32..3,
    ) {
        let g = distger_graph::barabasi_albert(160, 3, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let fault_free = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(seed));

        let hardened = WalkEngineConfig::distger()
            .with_seed(seed)
            .with_checkpoint_policy(CheckpointPolicy::every(interval))
            .with_recovery_policy(RecoveryPolicy::retries(3));
        let faults = FaultPlan::new()
            .panic_at(fault_machine % machines, fault_round, 0)
            .build();
        let recovered = run_distributed_walks_supervised(&g, &p, &hardened, Some(&faults))
            .expect("supervised run must recover within the retry budget");

        prop_assert_eq!(&recovered.corpus, &fault_free.corpus);
        prop_assert_eq!(&recovered.comm, &fault_free.comm);
        prop_assert_eq!(recovered.rounds, fault_free.rounds);
        prop_assert_eq!(
            &recovered.relative_entropy_trace,
            &fault_free.relative_entropy_trace
        );
        // The fault fires iff its round is inside the run; when it does, the
        // supervisor must account at least one replayed round.
        if faults.injected_faults() > 0 {
            prop_assert!(recovered.recovered_rounds >= 1);
        } else {
            prop_assert_eq!(recovered.recovered_rounds, 0);
        }
        // Every run lasts ≥ 2 rounds, so an every-round policy always
        // snapshots at least once at a continuing boundary.
        if interval == 1 {
            prop_assert!(recovered.checkpoint_bytes > 0);
        }
    }

    /// Seeded multi-fault schedules (panics *and* delays, possibly several
    /// per run) still converge to the bit-identical result: panics consume
    /// retry attempts one at a time, delays are outcome-neutral stragglers.
    #[test]
    fn seeded_fault_schedules_recover_bit_identical(
        seed in 0u64..10,
        fault_seed in 0u64..1000,
        machines in 2usize..5,
    ) {
        let g = distger_graph::barabasi_albert(160, 3, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let fault_free = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(seed));

        let hardened = WalkEngineConfig::distger()
            .with_seed(seed)
            .with_checkpoint_policy(CheckpointPolicy::every(1))
            .with_recovery_policy(RecoveryPolicy::retries(5));
        // 4 points over machines × 3 rounds × 2 supersteps: even indices
        // panic, odd indices delay 1 ms.
        let plan = FaultPlan::seeded(fault_seed, 4, machines, 3, 2);
        let panics: Vec<(u64, u64)> = plan
            .points()
            .iter()
            .filter(|point| point.kind == FaultKind::Panic)
            .map(|point| (point.round, point.superstep))
            .collect();
        let shared_coordinates = panics.len() - panics.iter().collect::<HashSet<_>>().len();
        let faults = plan.build();
        let recovered = run_distributed_walks_supervised(&g, &p, &hardened, Some(&faults))
            .expect("seeded schedule must recover within five retries");

        prop_assert_eq!(&recovered.corpus, &fault_free.corpus);
        prop_assert_eq!(&recovered.comm, &fault_free.comm);
        prop_assert_eq!(recovered.rounds, fault_free.rounds);
        prop_assert_eq!(
            &recovered.relative_entropy_trace,
            &fault_free.relative_entropy_trace
        );
        // Each crashed attempt replays at least one round, but one crash can
        // trip several panics: machines cross a superstep in lockstep, so
        // the panics that fire in one attempt share its `(round, superstep)`.
        // Panics at distinct coordinates crash distinct attempts, and the
        // fired panics hold at most `shared_coordinates` more points than
        // coordinates.
        let crashed_at_least = faults.injected_faults() - shared_coordinates as u64;
        prop_assert!(recovered.recovered_rounds >= crashed_at_least);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DGWC checkpoints round-trip bit-exactly for arbitrary coordinator
    /// states: decode(encode(c)) == c and re-encoding reproduces the bytes.
    #[test]
    fn checkpoint_round_trip_is_bit_exact(
        seed in any::<u64>(),
        rounds in 0u64..100,
        peak in 0u64..1_000_000,
        counters in prop::collection::vec(0u64..1_000_000, 5),
        trace in prop::collection::vec(0.0f64..8.0, 0..10),
        walks in prop::collection::vec(prop::collection::vec(0u32..50, 0..30), 0..40),
    ) {
        let checkpoint = WalkCheckpoint {
            seed,
            rounds,
            comm: CommStats {
                messages: counters[0],
                bytes: counters[1],
                local_steps: counters[2],
                remote_steps: counters[3],
                supersteps: counters[4],
                ..CommStats::new()
            },
            peak_round_memory: peak,
            trace,
            corpus: Corpus::from_walks(walks, 50),
        };
        let bytes = checkpoint.encode();
        let decoded = WalkCheckpoint::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(&decoded, &checkpoint);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Every hostile variant (any prefix, any bit flip, any lying length
    /// field) of a random valid checkpoint is rejected with an error — never
    /// a panic, never a silent wrong load.
    #[test]
    fn hostile_checkpoints_are_always_rejected(
        walks in prop::collection::vec(prop::collection::vec(0u32..20, 1..8), 1..8),
    ) {
        let checkpoint = WalkCheckpoint {
            seed: 7,
            rounds: 2,
            comm: CommStats::new(),
            peak_round_memory: 64,
            trace: vec![0.5, 0.25],
            corpus: Corpus::from_walks(walks, 20),
        };
        prop_assert_eq!(assert_total(&checkpoint.encode(), WalkCheckpoint::decode), 0);
    }
}
