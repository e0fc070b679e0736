//! Multi-process launcher: one coordinator plus `n` worker processes run the
//! walk→train pipeline over a [`SocketTransport`].
//!
//! The unit that crosses the process boundary is a [`JobSpec`]: a small,
//! versioned, hand-encoded description of the job (graph generator
//! parameters plus the knobs the launcher exposes). The coordinator
//! broadcasts it during start-up and *every* process rebuilds the graph,
//! the partitioning, and the [`DistGerConfig`] from it deterministically —
//! shipping a few scalars instead of the graph keeps the handshake tiny and
//! makes the whole job reproducible from the spec alone.
//!
//! Phases share one transport: the walk phase drives it as a full
//! [`Transport`](distger_cluster::Transport) (superstep message batches),
//! the training phase as a
//! [`ControlChannel`] (parameter rows), and the serve phase as the scatter
//! channel of a [`ShardedQueryEngine`] — the trained embeddings never leave
//! the cluster; each process keeps serving only its own shard of them.
//! The final [`LaunchReport::wire`] therefore measures the whole run.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use distger_cluster::wire::{invalid_data, put_u16, put_u32, put_u64, put_u8};
use distger_cluster::{ControlChannel, SocketTransport, TransportKind, WireReader, WireStats};
use distger_embed::{train_distributed_over, Embeddings, TrainStats};
use distger_graph::{barabasi_albert, CsrGraph};
use distger_partition::Partitioning;
use distger_serve::{
    receive_shard, serve_shard, Scheduler, SchedulerConfig, SchedulerStats, ServeConfig,
    ShardStats, ShardedQueryEngine, TopK,
};
use distger_walks::{run_walks_over, WalkResult};

use crate::pipeline::DistGerConfig;

/// Everything a process needs to participate in a multi-process run.
///
/// The spec is deliberately scalar-only: both sides regenerate the graph and
/// partitioning from the same seeds, so only these few bytes travel during
/// the handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Nodes of the generated Barabási–Albert graph.
    pub graph_nodes: u32,
    /// Attachment edges per new node of the generator.
    pub graph_attachment: u32,
    /// Generator seed.
    pub graph_seed: u64,
    /// Logical walk machines (may exceed the process count; machines are
    /// split contiguously across endpoints).
    pub machines: u32,
    /// Seed shared by partitioning / sampling / training.
    pub seed: u64,
    /// Training epochs.
    pub epochs: u32,
    /// Embedding dimension.
    pub dim: u32,
    /// Enable span tracing on every process of the job. Workers ship their
    /// event buffers to the coordinator at round boundaries, and the
    /// coordinator's [`LaunchReport::trace`] carries the merged timeline.
    pub trace: bool,
    /// Self-queries served through the sharded engine after training
    /// (spread deterministically over the node range). `0` skips the serve
    /// phase entirely on every process.
    pub serve_queries: u32,
    /// `k` of each serve-phase top-k query.
    pub serve_k: u32,
}

/// Spec wire version, bumped on any layout change.
/// v2 added the `trace` flag; v3 the serve phase (`serve_queries`,
/// `serve_k`).
const JOB_SPEC_VERSION: u16 = 3;

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            graph_nodes: 300,
            graph_attachment: 4,
            graph_seed: 42,
            machines: 4,
            seed: 7,
            epochs: 1,
            dim: 32,
            trace: false,
            serve_queries: 8,
            serve_k: 5,
        }
    }
}

impl JobSpec {
    /// Encodes the spec for the start-up broadcast.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        put_u16(&mut out, JOB_SPEC_VERSION);
        put_u32(&mut out, self.graph_nodes);
        put_u32(&mut out, self.graph_attachment);
        put_u64(&mut out, self.graph_seed);
        put_u32(&mut out, self.machines);
        put_u64(&mut out, self.seed);
        put_u32(&mut out, self.epochs);
        put_u32(&mut out, self.dim);
        put_u8(&mut out, u8::from(self.trace));
        put_u32(&mut out, self.serve_queries);
        put_u32(&mut out, self.serve_k);
        out
    }

    /// Decodes a spec received from the coordinator; truncated,
    /// version-mismatched or [invalid](JobSpec::validate) payloads error,
    /// never panic.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut r = WireReader::new(payload);
        let version = r.u16()?;
        if version != JOB_SPEC_VERSION {
            return Err(invalid_data(format!(
                "job spec version {version} (expected {JOB_SPEC_VERSION})"
            )));
        }
        let spec = Self {
            graph_nodes: r.u32()?,
            graph_attachment: r.u32()?,
            graph_seed: r.u64()?,
            machines: r.u32()?,
            seed: r.u64()?,
            epochs: r.u32()?,
            dim: r.u32()?,
            trace: match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(invalid_data(format!("bad trace flag byte {other}"))),
            },
            serve_queries: r.u32()?,
            serve_k: r.u32()?,
        };
        r.finish()?;
        spec.validate()
            .map_err(|err| invalid_data(err.to_string()))?;
        Ok(spec)
    }

    /// Checks the rules the graph generator, the partitioner and the
    /// embedding matrix would otherwise assert — in every process of the
    /// job: at least one machine, a positive dimension, a positive attachment
    /// count below the node count, and a positive `k` when the serve phase
    /// is on. [`io::ErrorKind::InvalidInput`] otherwise.
    pub fn validate(&self) -> io::Result<()> {
        let broken = if self.machines == 0 {
            "a job needs at least one machine"
        } else if self.dim == 0 {
            "the embedding dimension must be positive"
        } else if self.graph_attachment == 0 {
            "the graph attachment count must be at least 1"
        } else if self.graph_nodes <= self.graph_attachment {
            "the graph must have more nodes than the attachment count"
        } else if self.serve_queries > 0 && self.serve_k == 0 {
            "serve phase enabled with k = 0"
        } else {
            return Ok(());
        };
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{broken}: {self:?}"),
        ))
    }

    /// Regenerates the job's graph — a pure function of the spec.
    pub fn build_graph(&self) -> CsrGraph {
        barabasi_albert(
            self.graph_nodes as usize,
            self.graph_attachment as usize,
            self.graph_seed,
        )
    }

    /// Rebuilds the job's configuration — a pure function of the spec.
    pub fn build_config(&self) -> DistGerConfig {
        let mut config = DistGerConfig::distger(self.machines as usize)
            .small()
            .with_transport(TransportKind::Socket)
            .with_seed(self.seed);
        config.training.epochs = self.epochs as usize;
        config.training.dim = self.dim as usize;
        config
    }

    /// Rebuilds the job's partitioning — a pure function of the spec, so
    /// every process computes an identical assignment without shipping it.
    pub fn build_partitioning(&self, graph: &CsrGraph, config: &DistGerConfig) -> Partitioning {
        config
            .partitioner
            .partition(graph, self.machines as usize, self.seed)
    }

    /// The serve phase's engine configuration — a pure function of the spec,
    /// shared with harnesses that rebuild a single-process oracle to check
    /// the sharded answers against.
    pub fn build_serve_config(&self) -> ServeConfig {
        ServeConfig {
            k: self.serve_k as usize,
            threads: 2,
            ..ServeConfig::default()
        }
    }

    /// The serve phase's query nodes: `serve_queries` self-queries spread
    /// evenly over the node range, deterministic so oracles can replay them.
    pub fn serve_query_nodes(&self) -> Vec<u32> {
        (0..self.serve_queries)
            .map(|i| {
                ((u64::from(i) * u64::from(self.graph_nodes))
                    / u64::from(self.serve_queries.max(1))) as u32
            })
            .collect()
    }
}

/// What the serve phase measured at the coordinator.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// The nodes self-queried ([`JobSpec::serve_query_nodes`]).
    pub query_nodes: Vec<u32>,
    /// `k` of each query.
    pub k: u32,
    /// One answer per query node, in `query_nodes` order — bit-identical to
    /// a single-process engine over the same embeddings and
    /// [`JobSpec::build_serve_config`].
    pub results: Vec<TopK>,
    /// Per-endpoint shard accounting (row counts, batches, scan time,
    /// candidates scored, reply bytes), coordinator's own shard first.
    pub shard_stats: Vec<ShardStats>,
    /// The fronting scheduler's request statistics.
    pub scheduler: SchedulerStats,
}

/// What the coordinator measured over a full multi-process run.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// The walk phase's result (corpus, comm stats including the walk-phase
    /// wire measurements, entropy trace).
    pub walk: WalkResult,
    /// The learned embeddings, averaged over the per-process replicas.
    pub embeddings: Embeddings,
    /// Training statistics (including synchronization traffic).
    pub train_stats: TrainStats,
    /// Wire traffic measured at the coordinator over the *whole* run —
    /// walk superstep batches, training parameter rows, and serve-phase
    /// shard loads / query scatters.
    pub wire: WireStats,
    /// Serve-phase results and accounting; `None` when
    /// [`JobSpec::serve_queries`] was zero.
    pub serve: Option<ServeSummary>,
    /// The merged trace timeline when [`JobSpec::trace`] was set: every
    /// process's span events, clock-aligned to the coordinator and sorted by
    /// `(pid, tid, ts)`. Empty when tracing was off. Feed it to
    /// [`distger_obs::chrome_trace_json`] for a Perfetto-loadable file.
    pub trace: Vec<distger_obs::TraceEvent>,
}

/// Runs the coordinator endpoint: accepts `workers` connections on
/// `listener`, broadcasts `spec`, and drives walks then training. A spec
/// that fails [`JobSpec::validate`] is [`io::ErrorKind::InvalidInput`]
/// before any worker is contacted.
pub fn run_coordinator(
    listener: &TcpListener,
    workers: usize,
    spec: &JobSpec,
) -> io::Result<LaunchReport> {
    spec.validate()?;
    // Fewer machines than processes is the handshake's error, raised before
    // it accepts anyone.
    let mut transport =
        SocketTransport::coordinator(listener, workers + 1, spec.machines as usize)?;
    if spec.trace {
        distger_obs::set_tracing(true);
    }
    transport.broadcast(&spec.encode())?;

    let graph = spec.build_graph();
    let config = spec.build_config();
    let partitioning = spec.build_partitioning(&graph, &config);
    let walk = run_walks_over(&mut transport, &graph, &partitioning, &config.walks, None)?
        .expect("coordinator returns the walk result");
    let (embeddings, train_stats) =
        train_distributed_over(&mut transport, Some(&walk.corpus), &config.training)?
            .expect("coordinator returns the training result");
    let (serve, transport) = if spec.serve_queries > 0 {
        let (serve, transport) = serve_over(transport, spec, &embeddings)?;
        (Some(serve), transport)
    } else {
        (None, transport)
    };
    let wire = transport.wire_stats();
    // The workers' round-boundary batches were absorbed during the phases;
    // draining everything here adds the coordinator's own leftover events
    // (plus any in-process pool threads') and sorts the merged timeline.
    let trace = if spec.trace {
        distger_obs::drain_all()
    } else {
        Vec::new()
    };
    Ok(LaunchReport {
        walk,
        embeddings,
        train_stats,
        wire,
        serve,
        trace,
    })
}

/// Coordinator serve phase: shards the freshly averaged embeddings over the
/// transport (each endpoint receives only its [`machine_split`]
/// rows), fronts the sharded engine with a dynamic-batching [`Scheduler`],
/// submits the spec's deterministic self-queries through a [`RequestClient`],
/// and hands the transport back for the whole-run wire accounting.
///
/// [`machine_split`]: distger_cluster::machine_split
/// [`RequestClient`]: distger_serve::RequestClient
fn serve_over(
    transport: SocketTransport,
    spec: &JobSpec,
    embeddings: &Embeddings,
) -> io::Result<(ServeSummary, SocketTransport)> {
    let engine = ShardedQueryEngine::new(transport, embeddings, spec.build_serve_config())?;
    let scheduler = Scheduler::new(engine, SchedulerConfig::default());
    let client = scheduler.client();
    let query_nodes = spec.serve_query_nodes();
    let rejected =
        |e: distger_serve::Rejected| io::Error::other(format!("serve request rejected: {e:?}"));
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
    let transport = engine.shutdown()?;
    Ok((
        ServeSummary {
            query_nodes,
            k: spec.serve_k,
            results,
            shard_stats,
            scheduler: scheduler_stats,
        },
        transport,
    ))
}

/// Runs one worker endpoint: connects to the coordinator at `addr`, receives
/// the spec, and serves walks then training.
pub fn run_worker(addr: SocketAddr, timeout: Duration) -> io::Result<()> {
    let mut transport = SocketTransport::worker(addr, timeout)?;
    let payload = transport.broadcast(&[])?;
    let spec = JobSpec::decode(&payload)?;
    if spec.trace {
        distger_obs::set_tracing(true);
    }

    let graph = spec.build_graph();
    let config = spec.build_config();
    let partitioning = spec.build_partitioning(&graph, &config);
    let walk = run_walks_over(&mut transport, &graph, &partitioning, &config.walks, None)?;
    debug_assert!(walk.is_none(), "workers return no walk result");
    let trained = train_distributed_over(&mut transport, None, &config.training)?;
    debug_assert!(trained.is_none(), "workers return no training result");
    if spec.serve_queries > 0 {
        // Serve phase: receive this endpoint's shard of the trained
        // embeddings, then answer scattered query batches until SHUTDOWN.
        let shard = receive_shard(&mut transport)?;
        serve_shard(&mut transport, &shard, None)?;
    }
    Ok(())
}

/// Test/bench harness: a full multi-process-shaped run over real loopback
/// TCP, with the workers on scoped threads instead of child processes.
pub fn launch_over_loopback(spec: &JobSpec, workers: usize) -> LaunchReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("loopback listener address");
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                run_worker(addr, Duration::from_secs(10)).expect("worker run");
            });
        }
        run_coordinator(&listener, workers, spec).expect("coordinator run")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;

    #[test]
    fn job_spec_round_trips_and_rejects_corruption() {
        let spec = JobSpec {
            graph_nodes: 123,
            graph_attachment: 3,
            graph_seed: 9,
            machines: 5,
            seed: 17,
            epochs: 2,
            dim: 16,
            trace: true,
            serve_queries: 6,
            serve_k: 3,
        };
        let bytes = spec.encode();
        assert_eq!(JobSpec::decode(&bytes).expect("decode own encoding"), spec);
        for len in 0..bytes.len() {
            assert!(
                JobSpec::decode(&bytes[..len]).is_err(),
                "truncation to {len}"
            );
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] ^= 0xff;
        assert!(JobSpec::decode(&wrong_version).is_err());
        let trace_at = bytes.len() - 9;
        let mut bad_trace = bytes.clone();
        bad_trace[trace_at] = 7;
        assert!(JobSpec::decode(&bad_trace).is_err(), "bad trace flag byte");
        // One case per validation rule, at decode (the worker side) and at
        // the coordinator's front door — where no worker is ever contacted,
        // so the listener needs no peer.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        type Break = fn(&mut JobSpec);
        let rules: [(&str, Break); 5] = [
            ("no machine", |s| s.machines = 0),
            ("zero dim", |s| s.dim = 0),
            ("zero attachment", |s| s.graph_attachment = 0),
            ("nodes <= attachment", |s| s.graph_nodes = 3),
            ("serve phase with k = 0", |s| s.serve_k = 0),
        ];
        for (rule, break_it) in rules {
            let mut broken = spec;
            break_it(&mut broken);
            let err = JobSpec::decode(&broken.encode()).expect_err(rule);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{rule}: {err}");
            let err = run_coordinator(&listener, 2, &broken).expect_err(rule);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{rule}: {err}");
        }
        let err = run_coordinator(&listener, 5, &spec).expect_err("5 machines, 6 processes");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let disabled = JobSpec {
            serve_queries: 0,
            serve_k: 0,
            ..spec
        };
        assert_eq!(
            JobSpec::decode(&disabled.encode()).expect("decode disabled serve"),
            disabled,
            "k = 0 is fine while the serve phase is off"
        );
    }

    #[test]
    fn serve_query_nodes_spread_over_the_node_range() {
        let spec = JobSpec {
            graph_nodes: 100,
            serve_queries: 4,
            ..JobSpec::default()
        };
        assert_eq!(spec.serve_query_nodes(), vec![0, 25, 50, 75]);
        let none = JobSpec {
            serve_queries: 0,
            ..spec
        };
        assert!(none.serve_query_nodes().is_empty());
    }

    #[test]
    fn loopback_launch_completes_walks_and_training() {
        let spec = JobSpec {
            graph_nodes: 150,
            machines: 4,
            ..JobSpec::default()
        };
        let report = launch_over_loopback(&spec, 2);
        assert_eq!(report.embeddings.num_nodes(), 150);
        assert!(report.walk.corpus.total_tokens() > 0);
        assert!(report.train_stats.pairs_processed > 0);
        // The wire counters must cover all three phases: strictly more
        // traffic than the walk phase alone measured.
        assert!(report.wire.frames_sent > report.walk.comm.wire.frames_sent);
        assert!(report.wire.batch_bytes_sent > 0);

        // Serve phase: every default self-query answered, each endpoint
        // served a shard, and the answers are bit-identical to a
        // single-process engine over the reported embeddings.
        let serve = report.serve.as_ref().expect("serve phase ran by default");
        assert_eq!(serve.query_nodes, spec.serve_query_nodes());
        assert_eq!(serve.results.len(), spec.serve_queries as usize);
        assert_eq!(serve.shard_stats.len(), 3, "one shard per process");
        assert_eq!(
            serve.shard_stats.iter().map(|s| s.nodes).sum::<u64>(),
            150,
            "shards partition the node range"
        );
        assert_eq!(serve.scheduler.completed, u64::from(spec.serve_queries));
        let oracle = distger_serve::QueryEngine::new(
            distger_serve::EmbeddingIndex::build(&report.embeddings),
            spec.build_serve_config(),
        );
        for (&node, sharded) in serve.query_nodes.iter().zip(&serve.results) {
            let expected = oracle.top_k_one(report.embeddings.vector(node));
            assert_eq!(
                sharded.neighbors(),
                expected.neighbors(),
                "query node {node} diverged from the single-process oracle"
            );
        }

        // The walk phase is bit-identical to the in-process engine (the
        // trainer is not compared: it averages over `endpoints` replicas
        // here and `machines` replicas in-process).
        let graph = spec.build_graph();
        let config = spec.build_config();
        let partitioning = spec.build_partitioning(&graph, &config);
        let mut in_process = config.walks;
        in_process.transport = TransportKind::InMemory;
        let classic = distger_walks::run_distributed_walks(&graph, &partitioning, &in_process);
        assert_eq!(report.walk.corpus, classic.corpus);
        assert_eq!(report.walk.comm, classic.comm);
    }

    #[test]
    fn serve_phase_can_be_disabled() {
        let spec = JobSpec {
            graph_nodes: 120,
            machines: 3,
            serve_queries: 0,
            ..JobSpec::default()
        };
        let report = launch_over_loopback(&spec, 1);
        assert!(report.serve.is_none(), "serve_queries = 0 skips the phase");
        assert_eq!(report.embeddings.num_nodes(), 120);
    }

    #[test]
    fn single_process_launch_matches_pipeline_corpus() {
        // workers = 0: the coordinator is the whole cluster, still speaking
        // the socket protocol to itself (degenerate star).
        let spec = JobSpec {
            graph_nodes: 120,
            machines: 2,
            ..JobSpec::default()
        };
        let report = launch_over_loopback(&spec, 0);
        let graph = spec.build_graph();
        let mut config = spec.build_config();
        config = config.with_transport(TransportKind::InMemory);
        let pipeline = run_pipeline(&graph, &config);
        assert_eq!(
            report.walk.corpus.total_tokens(),
            pipeline.corpus_tokens,
            "walk phase must agree with the in-process pipeline"
        );
    }
}
