//! Trainer configuration, statistics, the in-process entry points and the
//! per-machine chunk step.
//!
//! The corpus is split into per-machine shards (§4.2-III); every machine owns
//! a full model replica, trains on its shard with the configured trainer kind
//! and thread count, and periodically synchronizes parameters with the other
//! machines (full or hotness-block). The one body that does this is
//! [`train_distributed_over`](crate::dist::train_distributed_over);
//! [`train_distributed`], [`train_distributed_supervised`] and [`train`] run
//! it on an [`InMemoryTransport`] that hosts every machine in this process,
//! on the persistent worker pool of `distger-cluster` (one thread per
//! machine). The synchronization traffic is accounted through
//! [`TrainStats::sync_comm`] and the thread-coordination overhead through
//! [`TrainStats::superstep_sync_secs`].

use distger_cluster::{
    CommStats, FaultInjector, InMemoryTransport, RecoveryExhausted, RecoveryPolicy,
};
use distger_walks::{Corpus, WalksView};

use crate::dist::train_over;
use crate::dsgl::train_walks_dsgl;
use crate::embeddings::Embeddings;
use crate::negative::NegativeTable;
use crate::pword2vec::train_walks_pword2vec;
use crate::sgns::{train_walks_hogwild, SigmoidTable, TrainContext};
use crate::sync::{ModelReplica, SyncStrategy};

/// Which Skip-Gram trainer runs on each machine (Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainerKind {
    /// Plain SGNS / Hogwild: fresh negatives per (target, context) pair.
    Hogwild,
    /// Pword2vec: negatives shared across one window.
    Pword2vec,
    /// DSGL: local buffers + multi-window shared negatives (§4.2).
    Dsgl {
        /// Number of walks processed in lockstep per thread (≥ 1, paper
        /// default 2).
        multi_windows: usize,
    },
}

impl TrainerKind {
    /// Display name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            TrainerKind::Hogwild => "SGNS",
            TrainerKind::Pword2vec => "Pword2vec",
            TrainerKind::Dsgl { .. } => "DSGL",
        }
    }
}

/// Training hyper-parameters (§6.1 defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainerConfig {
    /// Embedding dimension `d` (paper default 128).
    pub dim: usize,
    /// Sliding-window size `w` (paper default 10).
    pub window: usize,
    /// Negative samples per positive `K` (paper default 5).
    pub negatives: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (word2vec default 0.025).
    pub learning_rate: f32,
    /// Final learning rate reached by linear decay.
    pub min_learning_rate: f32,
    /// Trainer kind.
    pub kind: TrainerKind,
    /// Parameter synchronization strategy.
    pub sync: SyncStrategy,
    /// Synchronization rounds per epoch (the paper's 0.1 s period maps to a
    /// per-work-chunk boundary here).
    pub sync_rounds_per_epoch: usize,
    /// Worker threads per machine.
    pub threads: usize,
    /// How many times a crashed training chunk is retried before the failure
    /// propagates. The trainer needs no explicit checkpoint: the live
    /// replica set plus the completed-chunk counter *is* the recovery state
    /// — a retried chunk re-trains over replicas that may already carry part
    /// of its updates, which Hogwild-style training absorbs (at-least-once
    /// chunk execution). Disabled by default.
    pub recovery: RecoveryPolicy,
    /// Seed for initialization and negative sampling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            window: 10,
            negatives: 5,
            epochs: 1,
            learning_rate: 0.025,
            min_learning_rate: 0.0001,
            kind: TrainerKind::Dsgl { multi_windows: 2 },
            sync: SyncStrategy::HotnessBlock,
            sync_rounds_per_epoch: 4,
            threads: 2,
            recovery: RecoveryPolicy::default(),
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// A configuration scaled down for unit tests and examples.
    pub fn small() -> Self {
        Self {
            dim: 32,
            window: 5,
            negatives: 5,
            epochs: 2,
            sync_rounds_per_epoch: 2,
            ..Self::default()
        }
    }

    /// Builder-style trainer kind override.
    pub fn with_kind(mut self, kind: TrainerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builder-style dimension override.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Builder-style epoch override.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style synchronization-strategy override.
    pub fn with_sync(mut self, sync: SyncStrategy) -> Self {
        self.sync = sync;
        self
    }

    /// Builder-style synchronization-cadence override.
    pub fn with_sync_rounds_per_epoch(mut self, sync_rounds_per_epoch: usize) -> Self {
        self.sync_rounds_per_epoch = sync_rounds_per_epoch;
        self
    }

    /// Builder-style per-machine thread-count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style recovery-policy override.
    pub fn with_recovery_policy(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Statistics of one distributed training run.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// Total (target, context) pairs processed across machines and epochs.
    pub pairs_processed: u64,
    /// Total corpus tokens per epoch.
    pub corpus_tokens: u64,
    /// Wall-clock training time (excluding corpus preparation).
    pub training_secs: f64,
    /// Processed pairs per second of wall-clock time.
    pub throughput_pairs_per_sec: f64,
    /// Synchronization traffic.
    pub sync_comm: CommStats,
    /// Wall-clock thread-coordination overhead summed over training chunks:
    /// the barrier-crossing cost of the worker pool, measured from barrier
    /// waits. The coordinator-side parameter synchronization between chunks
    /// is excluded (its traffic is `sync_comm`).
    pub superstep_sync_secs: f64,
    /// Average per-machine training-phase memory footprint in bytes (model
    /// replica + negative table + corpus shard + local buffers).
    pub avg_machine_memory_bytes: usize,
    /// Training chunks re-executed by supervised recovery (one per failed
    /// attempt). 0 on a fault-free run.
    pub recovered_chunks: u64,
}

/// Trains node embeddings over `corpus` on `num_machines` machines in this
/// process: [`train_distributed_over`](crate::dist::train_distributed_over)
/// on an [`InMemoryTransport`].
///
/// Returns the embeddings (node-id indexed, averaged over replicas) and the
/// run statistics. When `config.recovery` is enabled, a worker panic retries
/// the failed chunk under the policy; an exhausted budget panics with the
/// last worker panic's message. Use [`train_distributed_supervised`] to
/// handle exhaustion as an error — and to inject deterministic faults.
///
/// # Panics
/// Panics if `num_machines` is zero.
pub fn train_distributed(
    corpus: &Corpus,
    num_machines: usize,
    config: &TrainerConfig,
) -> (Embeddings, TrainStats) {
    match train_distributed_supervised(corpus, num_machines, config, None) {
        Ok(result) => result,
        Err(err) => panic!("supervised training failed permanently: {err}"),
    }
}

/// [`train_distributed`] with explicit fault handling: injects the faults of
/// a [`FaultInjector`] (fault coordinates are `(machine, chunk, 0)` with
/// *absolute* chunk indices, stable across retries) and returns a clean
/// error instead of panicking when the retry budget is exhausted.
///
/// # Panics
/// Panics if `num_machines` is zero.
pub fn train_distributed_supervised(
    corpus: &Corpus,
    num_machines: usize,
    config: &TrainerConfig,
    faults: Option<&FaultInjector>,
) -> Result<(Embeddings, TrainStats), RecoveryExhausted> {
    let mut transport = InMemoryTransport::new(num_machines);
    match train_over(&mut transport, Some(corpus), config, faults) {
        Ok(result) => Ok(result.expect("the only endpoint is the coordinator")),
        Err(err) => Err(err
            .downcast::<RecoveryExhausted>()
            .unwrap_or_else(|err| panic!("{err}"))),
    }
}

/// Convenience wrapper: single-machine training.
pub fn train(corpus: &Corpus, config: &TrainerConfig) -> (Embeddings, TrainStats) {
    train_distributed(corpus, 1, config)
}

/// The `slice_idx`-th of `slices` contiguous runs of a shard's walks.
pub(crate) fn epoch_slice(shard: WalksView<'_>, slice_idx: usize, slices: usize) -> WalksView<'_> {
    let slices = slices.max(1);
    let per = shard.len().div_ceil(slices);
    let start = (slice_idx * per).min(shard.len());
    let end = ((slice_idx + 1) * per).min(shard.len());
    shard.slice(start..end)
}

/// Trains one machine's chunk with the configured kind and thread count.
/// Returns `(pairs, peak_local_buffer_bytes)`.
pub(crate) fn train_machine_chunk(
    replica: &ModelReplica,
    walks: WalksView<'_>,
    table: &NegativeTable,
    sigmoid: &SigmoidTable,
    config: &TrainerConfig,
    lr: f32,
    machine: u64,
) -> (u64, usize) {
    if walks.is_empty() {
        return (0, 0);
    }
    let ctx = TrainContext {
        phi_in: &replica.phi_in,
        phi_out: &replica.phi_out,
        negatives_table: table,
        sigmoid,
        window: config.window,
        negatives: config.negatives,
        learning_rate: lr,
        seed: config.seed ^ (machine << 32),
    };
    let threads = config.threads.max(1).min(walks.len());
    if threads == 1 {
        return run_kind(&ctx, walks, config.kind, machine);
    }
    let per = walks.len().div_ceil(threads);
    let results: Vec<(u64, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = walks
            .chunks(per)
            .enumerate()
            .map(|(t, chunk)| {
                let ctx_ref = &ctx;
                scope.spawn(move || run_kind(ctx_ref, chunk, config.kind, machine * 97 + t as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trainer worker thread panicked"))
            .collect()
    });
    results
        .into_iter()
        .fold((0, 0), |(p, b), (pp, bb)| (p + pp, b.max(bb)))
}

fn run_kind(
    ctx: &TrainContext<'_>,
    walks: WalksView<'_>,
    kind: TrainerKind,
    thread_id: u64,
) -> (u64, usize) {
    match kind {
        TrainerKind::Hogwild => (train_walks_hogwild(ctx, walks, thread_id), 0),
        TrainerKind::Pword2vec => (train_walks_pword2vec(ctx, walks, thread_id), 0),
        TrainerKind::Dsgl { multi_windows } => {
            train_walks_dsgl(ctx, walks, multi_windows, thread_id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger_walks::rng::SplitMix64;

    /// Corpus mimicking two communities: walks stay inside {0..4} or {5..9}.
    fn community_corpus() -> Corpus {
        let mut walks = Vec::new();
        let mut rng = SplitMix64::new(33);
        for i in 0..200 {
            let base: u32 = if i % 2 == 0 { 0 } else { 5 };
            let walk: Vec<u32> = (0..12).map(|_| base + rng.next_bounded(5) as u32).collect();
            walks.push(walk);
        }
        Corpus::from_walks(walks, 10)
    }

    fn avg_similarity(e: &Embeddings, pairs: &[(u32, u32)]) -> f32 {
        pairs.iter().map(|&(a, b)| e.cosine(a, b)).sum::<f32>() / pairs.len() as f32
    }

    fn check_community_structure(e: &Embeddings) {
        let intra = avg_similarity(e, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (8, 9)]);
        let inter = avg_similarity(e, &[(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]);
        assert!(
            intra > inter + 0.1,
            "intra-community cosine {intra} must exceed inter {inter}"
        );
    }

    #[test]
    fn all_trainer_kinds_learn_community_structure() {
        let corpus = community_corpus();
        for kind in [
            TrainerKind::Hogwild,
            TrainerKind::Pword2vec,
            TrainerKind::Dsgl { multi_windows: 2 },
        ] {
            let config = TrainerConfig::small().with_kind(kind).with_dim(16);
            let (embeddings, stats) = train(&corpus, &config);
            assert_eq!(embeddings.num_nodes(), 10);
            assert!(stats.pairs_processed > 0, "{} did no work", kind.name());
            check_community_structure(&embeddings);
        }
    }

    #[test]
    fn distributed_training_learns_and_syncs() {
        let corpus = community_corpus();
        let config = TrainerConfig::small().with_dim(16);
        let (embeddings, stats) = train_distributed(&corpus, 4, &config);
        check_community_structure(&embeddings);
        assert!(stats.sync_comm.messages > 0, "machines must synchronize");
        assert!(stats.avg_machine_memory_bytes > 0);
        assert!(stats.throughput_pairs_per_sec > 0.0);
    }

    #[test]
    fn hotness_sync_traffic_is_smaller_than_full() {
        let corpus = community_corpus();
        let base = TrainerConfig::small().with_dim(8);
        let full = TrainerConfig {
            sync: SyncStrategy::Full,
            ..base
        };
        let hot = TrainerConfig {
            sync: SyncStrategy::HotnessBlock,
            ..base
        };
        let (_, full_stats) = train_distributed(&corpus, 4, &full);
        let (_, hot_stats) = train_distributed(&corpus, 4, &hot);
        assert!(
            hot_stats.sync_comm.bytes < full_stats.sync_comm.bytes,
            "hotness-block sync {} must ship fewer bytes than full sync {}",
            hot_stats.sync_comm.bytes,
            full_stats.sync_comm.bytes
        );
    }

    #[test]
    fn empty_corpus_returns_zero_embeddings() {
        let corpus = Corpus::new(5);
        let (embeddings, stats) = train(&corpus, &TrainerConfig::small());
        assert_eq!(embeddings.num_nodes(), 5);
        assert_eq!(stats.pairs_processed, 0);
    }

    #[test]
    fn single_machine_has_no_sync_traffic() {
        let corpus = community_corpus();
        let (_, stats) = train(&corpus, &TrainerConfig::small().with_dim(8));
        assert_eq!(stats.sync_comm.messages, 0);
    }

    #[test]
    fn pooled_training_recovers_from_an_injected_chunk_fault() {
        use distger_cluster::FaultPlan;
        let corpus = community_corpus();
        let config = TrainerConfig::small()
            .with_dim(16)
            .with_recovery_policy(RecoveryPolicy::retries(2));
        let faults = FaultPlan::default().panic_at(1, 2, 0).build();
        let (embeddings, stats) = train_distributed_supervised(&corpus, 4, &config, Some(&faults))
            .expect("recovery within budget");
        assert_eq!(faults.injected_faults(), 1, "the fault must fire");
        assert_eq!(stats.recovered_chunks, 1, "one chunk re-executed");
        // The run still does all its work and learns: every chunk's pairs
        // are counted exactly once, so the totals match a fault-free run.
        let (_, clean) = train_distributed(&corpus, 4, &TrainerConfig::small().with_dim(16));
        assert_eq!(stats.pairs_processed, clean.pairs_processed);
        assert_eq!(stats.sync_comm, clean.sync_comm);
        check_community_structure(&embeddings);
    }

    #[test]
    fn exhausted_training_recovery_is_a_clean_error() {
        use distger_cluster::FaultPlan;
        let corpus = community_corpus();
        let config = TrainerConfig::small().with_dim(8);
        // Faults in two distinct chunks; retries(1) allows two attempts, and
        // absolute chunk coordinates make each attempt die deterministically.
        let faults = FaultPlan::default()
            .panic_at(2, 0, 0)
            .panic_at(3, 1, 0)
            .build();
        let err = train_distributed_supervised(
            &corpus,
            4,
            &config.with_recovery_policy(RecoveryPolicy::retries(1)),
            Some(&faults),
        )
        .expect_err("both attempts die");
        assert_eq!(err.attempts, 2);
        // The injector names the chunk coordinate "round".
        assert!(
            err.last_panic.contains("injected fault: machine 3 round 1"),
            "last panic was {}",
            err.last_panic
        );
    }

    #[test]
    fn injected_fault_without_recovery_surfaces_immediately() {
        use distger_cluster::FaultPlan;
        let corpus = community_corpus();
        let config = TrainerConfig::small().with_dim(8);
        let faults = FaultPlan::default().panic_at(0, 0, 0).build();
        let err = train_distributed_supervised(&corpus, 2, &config, Some(&faults))
            .expect_err("no retry budget");
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn epoch_slice_partitions_the_shard() {
        let shard = Corpus::from_walks((0..10).map(|i| vec![i]).collect(), 10);
        let mut seen = Vec::new();
        for s in 0..3 {
            let slice = epoch_slice(shard.view(), s, 3);
            assert!(slice.len() <= 4);
            seen.extend_from_slice(slice.tokens());
        }
        assert_eq!(
            seen,
            (0..10).collect::<Vec<_>>(),
            "every walk once, in order"
        );
        assert!(epoch_slice(shard.view(), 5, 3).is_empty());
    }

    /// `sync_rounds_per_epoch = 0` still trains one slice per epoch, so the
    /// epoch count decides how much is trained.
    #[test]
    fn zero_sync_rounds_still_trains_every_epoch() {
        let corpus = community_corpus();
        let config = TrainerConfig::small()
            .with_dim(8)
            .with_threads(1)
            .with_sync_rounds_per_epoch(0);
        let pairs = |epochs| {
            train(&corpus, &config.with_epochs(epochs))
                .1
                .pairs_processed
        };
        let one = pairs(1);
        assert!(one > 0);
        assert_eq!(pairs(2), 2 * one);
        assert_eq!(pairs(0), 0, "no epoch, no pairs");
    }
}
