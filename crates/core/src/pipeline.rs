//! A job's configuration and the in-process pipeline over it.

use std::io;

use distger_cluster::{
    CommStats, InMemoryTransport, MemoryEstimate, RecoveryPolicy, TransportKind,
};
use distger_embed::{Embeddings, TrainStats, TrainerConfig, TrainerKind};
use distger_graph::CsrGraph;
use distger_obs::PhaseTimes;
use distger_partition::{
    balanced::workload_balanced_partition,
    fennel::{fennel_partition, FennelConfig},
    hash::hash_partition,
    ldg::ldg_default,
    mpgp_partition, parallel_mpgp_partition, MpgpConfig, Partitioning,
};
use distger_serve::{EmbeddingIndex, QueryEngine, Scheduler, SchedulerConfig, ServeConfig};
use distger_walks::{CheckpointPolicy, WalkEngineConfig, WalkModel};

use crate::job::{run_job, JobOutput};

/// Which partitioner feeds the walk engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartitionerChoice {
    /// The paper's sequential MPGP (§3.2).
    Mpgp(MpgpConfig),
    /// Parallel MPGP with the given number of stream segments.
    MpgpParallel {
        /// Number of independent stream segments.
        segments: usize,
        /// MPGP configuration shared by all segments.
        config: MpgpConfig,
    },
    /// KnightKing's workload-balancing partition (§2.2).
    WorkloadBalanced,
    /// Modulo hashing (quality floor).
    Hash,
    /// Linear Deterministic Greedy (streaming baseline).
    Ldg,
    /// FENNEL (streaming baseline).
    Fennel,
}

impl PartitionerChoice {
    /// Display name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionerChoice::Mpgp(_) => "MPGP",
            PartitionerChoice::MpgpParallel { .. } => "MPGP-P",
            PartitionerChoice::WorkloadBalanced => "Workload-balancing",
            PartitionerChoice::Hash => "Hash",
            PartitionerChoice::Ldg => "LDG",
            PartitionerChoice::Fennel => "FENNEL",
        }
    }

    /// Runs the chosen partitioner.
    pub fn partition(&self, graph: &CsrGraph, num_machines: usize, seed: u64) -> Partitioning {
        match *self {
            PartitionerChoice::Mpgp(config) => {
                mpgp_partition(graph, num_machines, MpgpConfig { seed, ..config })
            }
            PartitionerChoice::MpgpParallel { segments, config } => parallel_mpgp_partition(
                graph,
                num_machines,
                segments,
                MpgpConfig { seed, ..config },
            ),
            PartitionerChoice::WorkloadBalanced => workload_balanced_partition(graph, num_machines),
            PartitionerChoice::Hash => hash_partition(graph, num_machines),
            PartitionerChoice::Ldg => ldg_default(graph, num_machines, seed),
            PartitionerChoice::Fennel => {
                fennel_partition(graph, num_machines, FennelConfig::default(), seed)
            }
        }
    }
}

/// Full configuration of an end-to-end run.
#[derive(Clone, Copy, Debug)]
pub struct DistGerConfig {
    /// Number of logical machines the graph is partitioned over.
    pub num_machines: usize,
    /// Partitioner choice.
    pub partitioner: PartitionerChoice,
    /// Random-walk engine configuration (the sampler).
    pub walks: WalkEngineConfig,
    /// Skip-Gram training configuration (the learner).
    pub training: TrainerConfig,
    /// Seed shared by partitioning / sampling / training.
    pub seed: u64,
}

impl DistGerConfig {
    /// The full DistGER system: MPGP + InCoM + DSGL with hotness-block sync.
    pub fn distger(num_machines: usize) -> Self {
        Self {
            num_machines,
            partitioner: PartitionerChoice::Mpgp(MpgpConfig::default()),
            walks: WalkEngineConfig::distger(),
            training: TrainerConfig {
                kind: TrainerKind::Dsgl { multi_windows: 2 },
                ..TrainerConfig::default()
            },
            seed: 0,
        }
    }

    /// KnightKing-style system: workload-balancing partition, routine walks
    /// (`L = 80`, `r = 10`), Pword2vec training with full synchronization.
    pub fn knightking(num_machines: usize) -> Self {
        Self {
            num_machines,
            partitioner: PartitionerChoice::WorkloadBalanced,
            walks: WalkEngineConfig::knightking_routine(WalkModel::Huge),
            training: TrainerConfig {
                kind: TrainerKind::Pword2vec,
                sync: distger_embed::SyncStrategy::Full,
                ..TrainerConfig::default()
            },
            seed: 0,
        }
    }

    /// The HuGE-D baseline (§2.3): information-oriented walks with the
    /// full-path mechanism on the KnightKing substrate.
    pub fn huge_d(num_machines: usize) -> Self {
        Self {
            walks: WalkEngineConfig::huge_d(),
            ..Self::knightking(num_machines)
        }
    }

    /// Scales every knob down for unit tests and examples: small dimension,
    /// few epochs, tight walk caps.
    pub fn small(mut self) -> Self {
        self.training.dim = 32;
        self.training.window = 5;
        self.training.epochs = 1;
        self.training.sync_rounds_per_epoch = 2;
        self.training.threads = 2;
        self
    }

    /// Checks the rules the phases would otherwise assert: at least one
    /// machine and a positive embedding dimension.
    /// [`io::ErrorKind::InvalidInput`] otherwise. [`run_job`] checks it
    /// first on every endpoint.
    pub fn validate(&self) -> io::Result<()> {
        let broken = if self.num_machines == 0 {
            "a job needs at least one machine"
        } else if self.training.dim == 0 {
            "the embedding dimension must be positive"
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, broken))
    }

    /// Builder-style seed override applied to all stochastic phases.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.walks = self.walks.with_seed(seed);
        self.training.seed = seed;
        self
    }

    /// Builder-style override of the walk config's transport label, which
    /// [`run_job`] never reads: the channel handed to it is the transport.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.walks.transport = transport;
        self
    }

    /// Builder-style checkpoint-policy override for the walk phase: the
    /// round loop snapshots its coordinator state every `n`-th round so a
    /// crashed run resumes from the latest completed round. The training
    /// phase needs none — its live replicas plus the completed-chunk counter
    /// are the recovery state (see [`TrainerConfig::recovery`]).
    pub fn with_checkpoint_policy(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.walks.checkpoint = checkpoint;
        self
    }

    /// Builder-style recovery-policy override, applied to both BSP phases
    /// (walk engine and trainer) so one call keeps them consistent; directly
    /// assigned `walks.recovery` / `training.recovery` are honored per phase.
    pub fn with_recovery_policy(mut self, recovery: RecoveryPolicy) -> Self {
        self.walks.recovery = recovery;
        self.training.recovery = recovery;
        self
    }
}

/// Everything measured during one end-to-end run.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The learned node embeddings.
    pub embeddings: Embeddings,
    /// Wall-clock per-phase times.
    pub times: PhaseTimes,
    /// The partitioning that was used.
    pub partitioning: Partitioning,
    /// Fraction of edges kept local by the partitioning.
    pub local_edge_fraction: f64,
    /// Cross-machine traffic of the random-walk phase.
    pub walk_comm: CommStats,
    /// BSP superstep coordination overhead of the walk phase in seconds; the
    /// training phase's equivalent lives in
    /// [`TrainStats::superstep_sync_secs`](distger_embed::TrainStats).
    pub walk_superstep_sync_secs: f64,
    /// Number of walks per node actually executed.
    pub walk_rounds: usize,
    /// Walk rounds re-executed by supervised recovery (0 on a fault-free
    /// run); the training phase's equivalent lives in
    /// [`TrainStats::recovered_chunks`](distger_embed::TrainStats).
    pub walk_recovered_rounds: u64,
    /// Wall-clock seconds the walk phase spent encoding checkpoints.
    pub walk_checkpoint_secs: f64,
    /// Total encoded checkpoint bytes the walk phase produced.
    pub walk_checkpoint_bytes: u64,
    /// Average walk length of the sampled corpus.
    pub avg_walk_length: f64,
    /// Total corpus tokens fed to the learner.
    pub corpus_tokens: usize,
    /// Training statistics (including synchronization traffic).
    pub train_stats: TrainStats,
    /// Per-machine memory estimate of the sampling phase.
    pub sampling_memory: MemoryEstimate,
    /// Per-machine memory estimate of the training phase.
    pub training_memory: MemoryEstimate,
}

impl PipelineResult {
    /// End-to-end running time (partition + sampling + training), the
    /// quantity plotted in Figure 5.
    pub fn end_to_end_secs(&self) -> f64 {
        self.times.end_to_end_secs()
    }

    /// Total cross-machine messages (walking + training synchronization).
    pub fn total_messages(&self) -> u64 {
        self.walk_comm.messages + self.train_stats.sync_comm.messages
    }

    /// Builds the serving layer over the learned embeddings: a read-optimized
    /// [`EmbeddingIndex`] wrapped in a batched top-k [`QueryEngine`]. Between
    /// processes, go through [`Embeddings::save_binary`] / `load_binary`
    /// instead (see `examples/serve_queries.rs`).
    pub fn query_engine(&self, config: ServeConfig) -> QueryEngine {
        QueryEngine::new(EmbeddingIndex::build(&self.embeddings), config)
    }

    /// The [`QueryEngine`] of [`query_engine`](Self::query_engine) behind a
    /// dynamic-batching [`Scheduler`], for callers submitting single queries.
    pub fn request_scheduler(&self, serve: ServeConfig, scheduler: SchedulerConfig) -> Scheduler {
        Scheduler::new(self.query_engine(serve), scheduler)
    }
}

/// Runs the full pipeline on `graph` under `config`: [`run_job`] on one
/// [`InMemoryTransport`] endpoint hosting every machine, without a serve
/// phase.
///
/// # Panics
/// Panics with the validation message if [`DistGerConfig::validate`]
/// rejects `config`.
pub fn run_pipeline(graph: &CsrGraph, config: &DistGerConfig) -> PipelineResult {
    let num_machines = config.num_machines;
    // Validated before the transport exists, which asserts on zero machines.
    let (_, output) = config
        .validate()
        .and_then(|()| run_job(InMemoryTransport::new(num_machines), graph, config, None))
        .unwrap_or_else(|err| panic!("{err}"));
    let JobOutput {
        partitioning,
        walk,
        embeddings,
        train_stats,
        times,
        ..
    } = output.expect("the only endpoint is the coordinator");

    // Memory accounting (Tables 3 and 8), modelled per machine.
    let mut sampling_memory = MemoryEstimate::new();
    sampling_memory
        .add("graph partition", graph.memory_bytes() / num_machines)
        .add("walker state", walk.walker_peak_bytes)
        .add("corpus shard", walk.corpus_shard_bytes)
        .add(
            "transition tables (alias + HuGE acceptance)",
            walk.alias_table_bytes / num_machines,
        );
    let mut training_memory = MemoryEstimate::new();
    training_memory
        .add(
            "model replica + buffers",
            train_stats.avg_machine_memory_bytes,
        )
        .add("corpus shard", walk.corpus.memory_bytes() / num_machines);

    PipelineResult {
        embeddings,
        times,
        local_edge_fraction: partitioning.local_edge_fraction(graph),
        partitioning,
        walk_superstep_sync_secs: walk.superstep_sync_secs,
        walk_rounds: walk.rounds,
        walk_recovered_rounds: walk.recovered_rounds,
        walk_checkpoint_secs: walk.checkpoint_secs,
        walk_checkpoint_bytes: walk.checkpoint_bytes,
        avg_walk_length: walk.avg_walk_length(),
        corpus_tokens: walk.corpus.total_tokens(),
        walk_comm: walk.comm,
        train_stats,
        sampling_memory,
        training_memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger_eval::{evaluate_link_prediction, split_edges};
    use distger_graph::barabasi_albert;

    #[test]
    fn distger_pipeline_end_to_end() {
        let g = barabasi_albert(400, 4, 3);
        let config = DistGerConfig::distger(4).small().with_seed(1);
        let result = run_pipeline(&g, &config);
        assert_eq!(result.embeddings.num_nodes(), 400);
        assert!(result.walk_rounds >= 2);
        assert!(result.avg_walk_length > 5.0);
        assert!(result.corpus_tokens > 400 * 5);
        assert!(result.times.end_to_end_secs() > 0.0);
        assert!(result.local_edge_fraction > 0.0);
        assert!(result.sampling_memory.total_bytes() > 0);
        assert!(result.training_memory.total_bytes() > 0);
    }

    #[test]
    fn distger_beats_random_embeddings_on_link_prediction() {
        // Community + power-law graph: degree skew plus the dense local
        // neighbourhoods of the paper's social graphs — plain BA has no local
        // structure to predict from.
        let g = distger_graph::community_powerlaw(400, 8, 5, 0.1, 9);
        let split = split_edges(&g, 0.5, 4);
        let config = DistGerConfig::distger(2).small().with_seed(2);
        let mut cfg = config;
        cfg.training.epochs = 3;
        let result = run_pipeline(&split.train_graph, &cfg);
        let auc = evaluate_link_prediction(&result.embeddings, &split);
        assert!(
            auc > 0.75,
            "DistGER embeddings should predict links well, got AUC {auc}"
        );
    }

    #[test]
    fn knightking_and_huge_d_configs_run() {
        let g = barabasi_albert(200, 3, 5);
        for mut config in [DistGerConfig::knightking(2), DistGerConfig::huge_d(2)] {
            config = config.small().with_seed(3);
            // keep routine walks short for test speed
            if let distger_walks::LengthPolicy::Fixed(_) = config.walks.length {
                config.walks.length = distger_walks::LengthPolicy::Fixed(20);
                config.walks.walks_per_node = distger_walks::WalkCountPolicy::Fixed(2);
            }
            let result = run_pipeline(&g, &config);
            assert_eq!(result.embeddings.num_nodes(), 200);
            assert!(result.corpus_tokens > 0);
        }
    }

    #[test]
    fn general_api_runs_deepwalk_and_node2vec() {
        let g = barabasi_albert(200, 3, 7);
        for model in [WalkModel::DeepWalk, WalkModel::Node2Vec { p: 4.0, q: 1.0 }] {
            let mut config = DistGerConfig::distger(2).small().with_seed(5);
            config.walks.model = model;
            let result = run_pipeline(&g, &config);
            assert!(
                result.corpus_tokens > 0,
                "{} produced no corpus",
                model.name()
            );
        }
    }

    #[test]
    fn trained_run_serves_top_k_on_both_backends() {
        use distger_serve::{QueryBackend, QueryBatch};
        let g = distger_graph::community_powerlaw(300, 6, 4, 0.1, 17);
        let config = DistGerConfig::distger(2).small().with_seed(4);
        let result = run_pipeline(&g, &config);
        for backend in [QueryBackend::Exact, QueryBackend::Lsh] {
            let engine = result.query_engine(ServeConfig {
                backend,
                k: 5,
                threads: 2,
                ..ServeConfig::default()
            });
            let batch = QueryBatch::from_nodes(engine.index(), &[0, 50, 299]);
            let out = engine.top_k(&batch);
            assert_eq!(out.results.len(), 3);
            for (query_node, top) in [0u32, 50, 299].into_iter().zip(&out.results) {
                assert_eq!(
                    top.neighbors()[0].node,
                    query_node,
                    "{} backend did not rank the query node itself first",
                    backend.name()
                );
                assert_eq!(top.len(), 5);
            }
            assert!(out.stats.wall_secs > 0.0);
        }
    }

    #[test]
    fn trained_run_serves_through_the_request_scheduler() {
        use distger_serve::SchedulerConfig;
        let g = distger_graph::community_powerlaw(300, 6, 4, 0.1, 17);
        let config = DistGerConfig::distger(2).small().with_seed(4);
        let result = run_pipeline(&g, &config);
        let serve = ServeConfig {
            k: 5,
            threads: 2,
            ..ServeConfig::default()
        };
        // The scheduler is transparent: its answer for a node's own
        // embedding must be bit-identical to the direct engine call.
        let expected = result
            .query_engine(serve)
            .top_k_one(result.query_engine(serve).index().unit_vector(50));
        let scheduler = result.request_scheduler(serve, SchedulerConfig::default());
        let client = scheduler.client();
        let query = scheduler.engine().index().unit_vector(50).to_vec();
        let answer = client.submit(&query).unwrap().wait().unwrap();
        assert_eq!(answer, expected);
        assert_eq!(answer.neighbors()[0].node, 50);
        assert_eq!(scheduler.stats().completed, 1);
    }

    #[test]
    fn checkpointed_pipeline_matches_the_plain_run() {
        let g = barabasi_albert(300, 4, 19);
        let base = DistGerConfig::distger(4).small().with_seed(6);
        let plain = run_pipeline(&g, &base);
        let hardened = run_pipeline(
            &g,
            &base
                .with_checkpoint_policy(CheckpointPolicy::every(1))
                .with_recovery_policy(RecoveryPolicy::retries(2)),
        );
        // Fault-free: the supervised walk phase is bit-identical to the
        // plain one, and the stats surface the checkpoint work.
        assert_eq!(hardened.corpus_tokens, plain.corpus_tokens);
        assert_eq!(hardened.walk_comm, plain.walk_comm);
        assert_eq!(hardened.walk_rounds, plain.walk_rounds);
        assert_eq!(hardened.walk_recovered_rounds, 0);
        assert_eq!(hardened.train_stats.recovered_chunks, 0);
        assert!(hardened.walk_checkpoint_bytes > 0);
        assert!(hardened.walk_checkpoint_secs >= 0.0);
        assert_eq!(plain.walk_checkpoint_bytes, 0);
    }

    #[test]
    fn builders_cover_every_field() {
        let config = DistGerConfig::distger(2)
            .with_transport(TransportKind::Socket)
            .with_seed(9);
        assert_eq!(config.walks.transport, TransportKind::Socket);
        assert_eq!(config.seed, 9);
        assert_eq!(config.walks.seed, 9);
        assert_eq!(config.training.seed, 9);
    }

    #[test]
    fn partitioner_choices_all_run() {
        let g = barabasi_albert(150, 3, 11);
        for choice in [
            PartitionerChoice::Mpgp(MpgpConfig::default()),
            PartitionerChoice::MpgpParallel {
                segments: 2,
                config: MpgpConfig::parallel_default(),
            },
            PartitionerChoice::WorkloadBalanced,
            PartitionerChoice::Hash,
            PartitionerChoice::Ldg,
            PartitionerChoice::Fennel,
        ] {
            let p = choice.partition(&g, 3, 1);
            assert_eq!(p.num_nodes(), 150, "{} incomplete", choice.name());
        }
    }
}
