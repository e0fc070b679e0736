//! # DistGER — Distributed Graph Embedding with Information-Oriented Random Walks
//!
//! A Rust reproduction of the VLDB 2023 paper *"Distributed Graph Embedding
//! with Information-Oriented Random Walks"* (Fang et al.). This facade crate
//! re-exports the member crates of the workspace so that an application only
//! needs one dependency:
//!
//! * [`obs`] — the observability layer: metrics registry, span tracing,
//!   Chrome-trace (Perfetto) and Prometheus exporters;
//! * [`graph`] — CSR graph storage, synthetic generators and loaders;
//! * [`partition`] — streaming partitioners, including the paper's MPGP;
//! * [`cluster`] — the simulated distributed runtime (machines, BSP,
//!   communication accounting);
//! * [`walks`] — routine and information-oriented random-walk engines
//!   (KnightKing-style, HuGE-D, InCoM);
//! * [`embed`] — distributed Skip-Gram trainers (Hogwild, Pword2vec, DSGL);
//! * [`serve`] — the query-serving layer: binary embedding store, exact and
//!   LSH batched top-k engines, and the dynamic-batching request scheduler
//!   front door;
//! * [`eval`] — link prediction, node classification and serving recall@k;
//! * [`core`] — the end-to-end pipeline and the comparison baselines.
//!
//! ## Quickstart
//!
//! ```
//! use distger::prelude::*;
//!
//! // A small power-law-cluster graph standing in for a social network.
//! let graph = distger::graph::powerlaw_cluster(300, 4, 0.6, 42);
//!
//! // The full DistGER system on 4 simulated machines, scaled down.
//! let config = DistGerConfig::distger(4).small().with_seed(7);
//! let result = run_pipeline(&graph, &config);
//!
//! assert_eq!(result.embeddings.num_nodes(), 300);
//! println!(
//!     "sampled {} tokens, {} cross-machine messages, {:.2}s end to end",
//!     result.corpus_tokens,
//!     result.walk_comm.messages,
//!     result.end_to_end_secs(),
//! );
//! ```

pub use distger_cluster as cluster;
pub use distger_core as core;
pub use distger_embed as embed;
pub use distger_eval as eval;
pub use distger_graph as graph;
pub use distger_obs as obs;
pub use distger_partition as partition;
pub use distger_serve as serve;
pub use distger_walks as walks;

/// The most commonly used types, importable with `use distger::prelude::*`.
///
/// Covers the whole surface an application touches: graph generation,
/// configuration builders, the in-process pipeline, the multi-process
/// launcher and its transport layer, and the serving/evaluation front ends —
/// the bundled `examples/` compile against this module alone.
pub mod prelude {
    pub use distger_cluster::{
        ClusterConfig, CommStats, ControlChannel, InMemoryTransport, NetworkModel, RecoveryPolicy,
        SocketTransport, Transport, TransportKind, WireStats,
    };
    pub use distger_core::{
        launch_over_loopback, run_coordinator, run_pipeline, run_system, run_worker, DistGerConfig,
        JobSpec, LaunchReport, PartitionerChoice, PipelineResult, RunScale, ServeSummary,
        SystemKind,
    };
    pub use distger_embed::{
        train_distributed, train_distributed_over, train_distributed_over_loopback, Embeddings,
        SyncStrategy, TrainerConfig, TrainerKind,
    };
    pub use distger_eval::{
        evaluate_classification, evaluate_link_prediction, recall_at_k, split_edges,
    };
    pub use distger_graph::{
        barabasi_albert, community_powerlaw, generate::PaperDataset, planted_partition,
        powerlaw_cluster, CsrGraph, GraphBuilder, NodeId,
    };
    pub use distger_obs::{
        chrome_trace_json, set_tracing, tracing_enabled, MetricsRegistry, MetricsSnapshot,
        PhaseTimes, Stopwatch, TraceEvent,
    };
    pub use distger_partition::{MpgpConfig, Partitioning, StreamingOrder};
    pub use distger_serve::{
        merge_topk, receive_shard, serve_shard, BatchPolicy, EmbeddingIndex, EngineShard,
        LshConfig, QueryBackend, QueryBatch, QueryEngine, RequestClient, Scheduler,
        SchedulerConfig, ServeConfig, ServeEngine, ShardStats, ShardedQueryEngine, TopK,
    };
    pub use distger_walks::{
        run_distributed_walks, run_walks_over, run_walks_over_loopback, CheckpointPolicy, Corpus,
        InfoMode, LengthPolicy, WalkCountPolicy, WalkEngineConfig, WalkModel, WalkResult,
    };
}
