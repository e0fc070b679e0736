//! The one job body: partition → information-centric walks → distributed
//! Skip-Gram (Figure 1), then, when asked, sharded serving — over whatever
//! channel it is handed: one in-memory endpoint in
//! [`run_pipeline`](crate::run_pipeline), one socket per process in
//! [`run_coordinator`](crate::run_coordinator) / [`run_worker`](crate::run_worker).

use std::io;

use distger_cluster::{ControlChannel, Transport};
use distger_embed::{train_distributed_over, Embeddings, TrainStats};
use distger_graph::{CsrGraph, NodeId};
use distger_obs::{PhaseTimes, Stopwatch};
use distger_partition::Partitioning;
use distger_serve::{
    receive_shard, serve_shard, Rejected, Scheduler, SchedulerConfig, SchedulerStats, ServeConfig,
    ShardStats, ShardedQueryEngine, TopK,
};
use distger_walks::{message::WalkerMessage, run_walks_over, WalkResult};

use crate::pipeline::DistGerConfig;

/// What the coordinator endpoint of a job measured.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The partitioning every endpoint computed.
    pub partitioning: Partitioning,
    /// The walk phase's result (corpus, comm stats, entropy trace).
    pub walk: WalkResult,
    /// The learned embeddings, averaged over the per-machine replicas.
    pub embeddings: Embeddings,
    /// Training statistics (including synchronization traffic).
    pub train_stats: TrainStats,
    /// The coordinator's wall time per phase plus modelled comm time.
    pub times: PhaseTimes,
    /// Serve-phase results; `None` when the job ran no serve phase.
    pub serve: Option<ServeSummary>,
}

/// What the serve phase measured at the coordinator.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// The nodes self-queried.
    pub query_nodes: Vec<NodeId>,
    /// `k` of each query.
    pub k: u32,
    /// One answer per query node, in `query_nodes` order — bit-identical to
    /// a single-process engine over the same embeddings and serve config.
    pub results: Vec<TopK>,
    /// Per-endpoint shard accounting (row counts, batches, scan time,
    /// candidates scored, reply bytes), coordinator's own shard first.
    pub shard_stats: Vec<ShardStats>,
    /// The fronting scheduler's request statistics.
    pub scheduler: SchedulerStats,
}

/// Runs one endpoint's share of a job and hands `channel` back for its wire
/// counters. Every endpoint validates `config`, partitions `graph` (the same
/// seed everywhere, so the assignment is never shipped), walks and trains.
/// With `serve = Some((config, query_nodes))` the coordinator then
/// self-queries `query_nodes` through a [`ShardedQueryEngine`] behind a
/// [`Scheduler`] while every worker serves its shard. Returns the
/// coordinator's [`JobOutput`], and `None` on workers.
pub fn run_job<T>(
    mut channel: T,
    graph: &CsrGraph,
    config: &DistGerConfig,
    serve: Option<(&ServeConfig, &[NodeId])>,
) -> io::Result<(T, Option<JobOutput>)>
where
    T: Transport<WalkerMessage> + Send + 'static,
{
    config.validate()?;
    let mut times = PhaseTimes::default();
    let mut watch = Stopwatch::start();
    let partitioning = {
        let _span = distger_obs::span!("partition");
        config
            .partitioner
            .partition(graph, config.cluster.num_machines, config.seed)
    };
    times.partition_secs = watch.lap();
    let walk = {
        let _span = distger_obs::span!("sampling");
        run_walks_over(&mut channel, graph, &partitioning, &config.walks, None)?
    };
    times.sampling_secs = watch.lap();
    let trained = {
        let _span = distger_obs::span!("training");
        let corpus = walk.as_ref().map(|walk| &walk.corpus);
        train_distributed_over(&mut channel, corpus, &config.training)?
    };
    times.training_secs = watch.lap();

    let (Some(walk), Some((embeddings, train_stats))) = (walk, trained) else {
        // A worker: both phases returned nothing. Serve this endpoint's
        // shard of the embeddings until the coordinator releases it.
        if serve.is_some() {
            let shard = receive_shard(&mut channel)?;
            serve_shard(&mut channel, &shard, None)?;
        }
        return Ok((channel, None));
    };
    let mut comm = walk.comm.clone();
    comm.merge(&train_stats.sync_comm);
    times.modelled_comm_secs = config.cluster.network.comm_time_secs(&comm);
    let (channel, serve) = match serve {
        Some((serve_config, nodes)) => serve_over(channel, &embeddings, serve_config, nodes)?,
        None => (channel, None),
    };
    Ok((
        channel,
        Some(JobOutput {
            partitioning,
            walk,
            embeddings,
            train_stats,
            times,
            serve,
        }),
    ))
}

/// Coordinator serve phase: shards the embeddings over the channel, fronts
/// the sharded engine with a dynamic-batching [`Scheduler`], submits the
/// self-queries, and hands the channel back.
fn serve_over<C: ControlChannel + Send + 'static>(
    channel: C,
    embeddings: &Embeddings,
    config: &ServeConfig,
    query_nodes: &[NodeId],
) -> io::Result<(C, Option<ServeSummary>)> {
    let engine = ShardedQueryEngine::new(channel, embeddings, *config)?;
    let scheduler = Scheduler::new(engine, SchedulerConfig::default());
    let client = scheduler.client();
    let rejected = |e: Rejected| io::Error::other(format!("serve request rejected: {e:?}"));
    // Submit everything before waiting so the dispatcher actually batches.
    let pending: Vec<_> = query_nodes
        .iter()
        .map(|&node| client.submit(embeddings.vector(node)).map_err(rejected))
        .collect::<io::Result<_>>()?;
    let results: Vec<TopK> = pending
        .into_iter()
        .map(|p| p.wait().map_err(rejected))
        .collect::<io::Result<_>>()?;
    let scheduler_stats = scheduler.stats();
    drop(client);
    let engine = scheduler.into_engine();
    let shard_stats = engine.shard_stats();
    let channel = engine.shutdown()?;
    let summary = ServeSummary {
        query_nodes: query_nodes.to_vec(),
        k: config.k as u32,
        results,
        shard_stats,
        scheduler: scheduler_stats,
    };
    Ok((channel, Some(summary)))
}
