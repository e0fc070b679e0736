//! Multi-process launcher: one coordinator plus `n` worker processes run the
//! walk → train → serve job, one [`SocketTransport`] each.
//!
//! The unit that crosses the process boundary is a [`JobSpec`]: a few
//! versioned scalars (graph generator parameters plus the launcher's knobs).
//! The coordinator broadcasts it during start-up and *every* process
//! rebuilds the graph and the [`DistGerConfig`] from it, then runs the one
//! body, [`run_job`] — the trained embeddings never leave the cluster; each
//! process serves only its own shard of them. [`LaunchReport::wire`]
//! measures the whole run.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use distger_cluster::wire::{invalid_data, put_u16, put_u32, put_u64, put_u8};
use distger_cluster::{ControlChannel, SocketTransport, TransportKind, WireReader, WireStats};
use distger_embed::{Embeddings, TrainStats};
use distger_graph::{barabasi_albert, CsrGraph};
use distger_serve::ServeConfig;
use distger_walks::WalkResult;

use crate::job::{run_job, JobOutput, ServeSummary};
use crate::pipeline::DistGerConfig;

/// Everything a process needs to participate in a multi-process run: only
/// these few scalar bytes travel during the handshake.
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
    /// Enable span tracing on every process of the job;
    /// [`LaunchReport::trace`] carries the merged timeline.
    pub trace: bool,
    /// Self-queries served through the sharded engine after training, spread
    /// over the node range; `0` skips the serve phase on every process.
    pub serve_queries: u32,
    /// `k` of each serve-phase top-k query.
    pub serve_k: u32,
}

/// Spec wire version, bumped on any layout change: v2 added the `trace`
/// flag, v3 the serve phase (`serve_queries`, `serve_k`).
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

    /// Checks, in every process, the rules the graph generator would assert
    /// (a positive attachment count below the node count), a positive `k`
    /// when the serve phase is on, then [`DistGerConfig::validate`].
    /// [`io::ErrorKind::InvalidInput`] otherwise.
    pub fn validate(&self) -> io::Result<()> {
        let broken = if self.graph_attachment == 0 {
            "the graph attachment count must be at least 1"
        } else if self.graph_nodes <= self.graph_attachment {
            "the graph must have more nodes than the attachment count"
        } else if self.serve_queries > 0 && self.serve_k == 0 {
            "serve phase enabled with k = 0"
        } else {
            return self.build_config().validate();
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

    /// Rebuilds the job's configuration — a pure function of the spec. A
    /// spec without machines is caught by [`DistGerConfig::validate`].
    pub fn build_config(&self) -> DistGerConfig {
        let mut config = DistGerConfig::distger(self.machines as usize)
            .small()
            .with_transport(TransportKind::Socket)
            .with_seed(self.seed);
        config.training.epochs = self.epochs as usize;
        config.training.dim = self.dim as usize;
        config
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

/// What the coordinator measured over a full multi-process run.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// The walk phase's result (corpus, comm stats, entropy trace).
    pub walk: WalkResult,
    /// The learned embeddings, averaged over the per-machine replicas.
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
    /// `(pid, tid, ts)`; empty otherwise. Feed it to
    /// [`distger_obs::chrome_trace_json`] for a Perfetto-loadable file.
    pub trace: Vec<distger_obs::TraceEvent>,
}

/// Runs the coordinator endpoint: accepts `workers` connections on
/// `listener`, broadcasts `spec`, runs its share of the job, and adds the
/// whole-run wire counters and the merged trace. A spec that fails
/// [`JobSpec::validate`] is [`io::ErrorKind::InvalidInput`] before any
/// worker is contacted.
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
    let (transport, output) = run_spec(transport, spec)?;
    let output = output.expect("the coordinator returns the job's output");
    // The workers' round-boundary batches were absorbed during the phases;
    // draining everything here adds the coordinator's own leftover events
    // (plus any in-process pool threads') and sorts the merged timeline.
    let trace = if spec.trace {
        distger_obs::drain_all()
    } else {
        Vec::new()
    };
    Ok(LaunchReport {
        walk: output.walk,
        embeddings: output.embeddings,
        train_stats: output.train_stats,
        wire: transport.wire_stats(),
        serve: output.serve,
        trace,
    })
}

/// Runs one worker endpoint: connects to the coordinator at `addr`, receives
/// the spec, and runs its share of the job.
pub fn run_worker(addr: SocketAddr, timeout: Duration) -> io::Result<()> {
    let mut transport = SocketTransport::worker(addr, timeout)?;
    let spec = JobSpec::decode(&transport.broadcast(&[])?)?;
    if spec.trace {
        distger_obs::set_tracing(true);
    }
    let (_, output) = run_spec(transport, &spec)?;
    debug_assert!(output.is_none(), "workers return no output");
    Ok(())
}

/// Both endpoint kinds: the graph, the config and the serve phase are pure
/// functions of the spec, so every process rebuilds them identically.
fn run_spec(
    transport: SocketTransport,
    spec: &JobSpec,
) -> io::Result<(SocketTransport, Option<JobOutput>)> {
    let serve_config = spec.build_serve_config();
    let query_nodes = spec.serve_query_nodes();
    let serve = (spec.serve_queries > 0).then_some((&serve_config, &query_nodes[..]));
    run_job(transport, &spec.build_graph(), &spec.build_config(), serve)
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
    use distger_cluster::InMemoryTransport;

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
        // so the listener needs no peer. The config's own rules also stop
        // the one body on an in-memory transport before it partitions or
        // walks: the error is the validation's, not the walk's machine-count
        // mismatch (5 machines on a 2-machine transport).
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let graph = spec.build_graph();
        let mut config_rules = 0;
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
            let config = broken.build_config();
            if let Err(expected) = config.validate() {
                config_rules += 1;
                let err =
                    run_job(InMemoryTransport::new(2), &graph, &config, None).expect_err(rule);
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{rule}: {err}");
                assert_eq!(err.to_string(), expected.to_string(), "{rule}");
            }
        }
        assert_eq!(config_rules, 2, "no machine and zero dim are config rules");
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
    fn launch_matches_the_in_process_pipeline() {
        // The same body on sockets and in memory: the walk phase is
        // bit-identical, and the trainer trains one replica per machine
        // either way — 4 machines on 1 or 3 processes do the work and the
        // sync traffic of 4 in-process machines. workers = 0 is the
        // coordinator as the whole cluster, still speaking the socket
        // protocol to itself (degenerate star).
        let spec = JobSpec {
            graph_nodes: 150,
            machines: 4,
            serve_queries: 0,
            ..JobSpec::default()
        };
        let graph = spec.build_graph();
        let config = spec.build_config();
        let pipeline = run_pipeline(&graph, &config);
        // `PipelineResult` keeps no corpus; the in-memory body it wraps does.
        let (_, in_memory) =
            run_job(InMemoryTransport::new(4), &graph, &config, None).expect("in-memory job");
        let corpus = in_memory.expect("the only endpoint").walk.corpus;
        for workers in [0, 2] {
            let report = launch_over_loopback(&spec, workers);
            assert_eq!(report.walk.corpus, corpus, "{workers} workers");
            assert_eq!(report.walk.corpus.total_tokens(), pipeline.corpus_tokens);
            assert_eq!(report.walk.comm, pipeline.walk_comm, "{workers} workers");
            let train = &report.train_stats;
            assert_eq!(train.pairs_processed, pipeline.train_stats.pairs_processed);
            assert_eq!(train.sync_comm, pipeline.train_stats.sync_comm);
        }
    }
}
