//! The walk driver: DistGER's round loop over a [`Transport`].
//!
//! Every endpoint of a job hosts a contiguous slice of its machines
//! ([`ControlChannel::local_machines`](distger_cluster::ControlChannel::local_machines))
//! and calls [`run_walks_over`], which runs
//! the per-superstep body (`walker_step`) over them on the BSP driver of
//! `distger-cluster` ([`run_bsp_supervised`]). Supersteps are separated by
//! the transport's pending check and message exchange; rounds end in **one**
//! boundary: every endpoint encodes the harvest of its machines, a
//! [`gather`](distger_cluster::ControlChannel::gather) brings them to the
//! coordinator, which assembles the round corpus, runs the convergence check
//! (Eq. 6–7), snapshots a checkpoint if one is due and broadcasts
//! continue/stop; then every endpoint seeds its own machines. Seeding is a
//! pure function of `(graph, config, round)`, so it needs no traffic.
//!
//! With an [`InMemoryTransport`](distger_cluster::InMemoryTransport) that is
//! the whole job in one process — what
//! [`run_distributed_walks`](crate::engine::run_distributed_walks) calls;
//! with a [`SocketTransport`] per process the same code spans machines.
//!
//! **Bit-identity.** [`SocketTransport`] delivers each inbox's messages in
//! the same ascending-source order as the in-memory transport, and the
//! harvest codec is lossless — so the corpus, the communication trace and
//! the entropy trace do not depend on how machines are spread over
//! endpoints, as the property tests at the bottom of this file (against a
//! single-threaded reference) and the `prop_transport` suite assert.
//!
//! **Fault tolerance.** A round boundary is a quiescent point — every
//! walker either finished (harvested into the corpus) or has not been seeded
//! yet — so the coordinator's boundary state is the entire recovery surface.
//! A worker panic is caught by the supervisor, the state rolls back to the
//! latest [`WalkCheckpoint`] and the run resumes from there. That needs every
//! machine in this process: a job with several endpoints rejects
//! checkpoint/recovery policies up front, and a peer that disappears
//! mid-round surfaces as this endpoint's `Err`.

use std::io;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use distger_cluster::wire::{invalid_data, put_u32, put_u32s, put_u64};
use distger_cluster::{
    gather_trace_events, run_bsp_supervised, CommStats, FaultInjector, SocketTransport, Transport,
    WireReader,
};
use distger_graph::{stats::degree_distribution, CsrGraph};
use distger_partition::Partitioning;

use crate::alias::TransitionTables;
use crate::checkpoint::{CheckpointEncoder, WalkCheckpoint};
use crate::corpus::Corpus;
use crate::engine::{
    assemble_round_corpus, seed_round_inboxes, walker_step, MachineState, RoundHarvest,
    RoundSchedule, SegRun, WalkEngineConfig, WalkResult,
};
use crate::message::WalkerMessage;

fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Encodes this endpoint's round harvest for the boundary gather: per local
/// machine the node arena, the run headers and the memory watermark, then
/// the endpoint's traffic so far. A machine's runs tile its arena in order
/// (every accepted node belongs to the run that was open when it was
/// pushed), so run offsets are implied and stay off the wire.
fn encode_harvest(states: &[&mut MachineState], comm: &CommStats) -> Vec<u8> {
    // Sized exactly: a round's harvest is megabytes, and growing the buffer
    // by doubling would briefly hold up to twice that.
    let machine_bytes = |state: &&mut MachineState| {
        16 + 4 * state.harvest.seg_nodes.len() + 16 * state.harvest.seg_runs.len()
    };
    let size = 4 + states.iter().map(machine_bytes).sum::<usize>() + 40;
    let mut out = Vec::with_capacity(size);
    put_u32(&mut out, states.len() as u32);
    for state in states {
        let harvest = &state.harvest;
        put_u32(&mut out, harvest.seg_nodes.len() as u32);
        put_u32s(&mut out, &harvest.seg_nodes);
        put_u32(&mut out, harvest.seg_runs.len() as u32);
        let mut arena_end = 0usize;
        for run in &harvest.seg_runs {
            debug_assert_eq!(run.offset, arena_end, "runs tile the arena in order");
            arena_end += run.len as usize;
            put_u64(&mut out, run.walk_id);
            put_u32(&mut out, run.start_step);
            put_u32(&mut out, run.len);
        }
        put_u64(&mut out, harvest.peak_memory_bytes as u64);
    }
    for counter in [
        comm.messages,
        comm.bytes,
        comm.local_steps,
        comm.remote_steps,
        comm.supersteps,
    ] {
        put_u64(&mut out, counter);
    }
    debug_assert_eq!(out.len(), size, "the size formula is exact");
    out
}

/// Decodes one endpoint's harvest of round `round` over an `n`-node graph,
/// appending its machines to the coordinator's machine-ordered list
/// (endpoints host contiguous ascending machine ranges, so decoding in
/// endpoint order yields machines `0..m` in order) and adding its traffic to
/// `comm`.
///
/// The payload comes from a peer, so nothing in it is trusted: a node id
/// outside the graph, a walk id outside this round's `[round·n, (round+1)·n)`,
/// runs that do not exactly tile the arena, a `start_step + len` or a traffic
/// sum that overflows are all [`io::ErrorKind::InvalidData`].
fn decode_harvest(
    payload: &[u8],
    n: usize,
    round: u64,
    into: &mut Vec<RoundHarvest>,
    comm: &mut CommStats,
) -> io::Result<()> {
    let first_walk = round * n as u64;
    let mut r = WireReader::new(payload);
    let machines = r.u32()?;
    for _ in 0..machines {
        let mut state = RoundHarvest::default();
        let nodes = r.count_u32(4)?;
        state.seg_nodes = r.u32s(nodes)?;
        if let Some(node) = state.seg_nodes.iter().find(|&&node| node as usize >= n) {
            return Err(invalid_data(format!(
                "harvested node {node} is outside the {n}-node graph"
            )));
        }
        let runs = r.count_u32(16)?;
        state.seg_runs.reserve(runs);
        let mut offset = 0usize;
        for _ in 0..runs {
            let (walk_id, start_step, len) = (r.u64()?, r.u32()?, r.u32()?);
            if walk_id
                .checked_sub(first_walk)
                .is_none_or(|w| w >= n as u64)
            {
                return Err(invalid_data(format!(
                    "walk {walk_id} does not belong to round {round} of a {n}-node graph"
                )));
            }
            if start_step.checked_add(len).is_none() || len as usize > nodes - offset {
                return Err(invalid_data(format!(
                    "run of {len} nodes from step {start_step} overruns its walk or its \
                     {nodes}-node arena"
                )));
            }
            state.seg_runs.push(SegRun {
                walk_id,
                start_step,
                len,
                offset,
            });
            offset += len as usize;
        }
        if offset != nodes {
            return Err(invalid_data(format!(
                "runs cover {offset} of {nodes} harvested nodes"
            )));
        }
        state.peak_memory_bytes = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
        into.push(state);
    }
    for total in [
        &mut comm.messages,
        &mut comm.bytes,
        &mut comm.local_steps,
        &mut comm.remote_steps,
    ] {
        *total = total
            .checked_add(r.u64()?)
            .ok_or_else(|| invalid_data("harvested traffic counters overflow"))?;
    }
    comm.supersteps = comm.supersteps.max(r.u64()?);
    r.finish()
}

/// What the round boundary owns across rounds — and, since the machine
/// states die with a crashed worker pool, across retry attempts. Workers use
/// only the first three fields; the rest is the coordinator's.
struct BoundaryCtx {
    /// Completed rounds (every endpoint counts them: seeding needs the index).
    rounds: usize,
    /// Whether this attempt has seeded a round yet; `false` makes the next
    /// boundary seed round `rounds` instead of harvesting untouched states.
    started: bool,
    /// Open from a round's seeding to the end of its harvest, on every
    /// endpoint — closed before the trace gather so the End event ships with
    /// the round it closes.
    round_span: Option<distger_obs::SpanGuard>,
    corpus: Corpus,
    trace: Vec<f64>,
    schedule: RoundSchedule,
    peak_round_memory: usize,
    /// Comm totals of rounds completed by *previous* attempts (restored from
    /// the checkpoint); `attempt_comm` is this attempt's, job-wide, as of the
    /// latest harvest. [`CommStats::merge`] of the two is the run's total.
    base_comm: CommStats,
    attempt_comm: CommStats,
    /// Incremental snapshot encoder: caches the append-only walk section's
    /// wire bytes and checksum state across snapshots, so an every-round
    /// policy pays O(new walks) per snapshot instead of re-encoding the
    /// whole corpus. Snapshots are kept encoded (not as a live
    /// [`WalkCheckpoint`]) so recovery exercises the same decode path a
    /// process restart would, checksum included.
    encoder: CheckpointEncoder,
    recovered_rounds: u64,
    checkpoint_secs: f64,
    checkpoint_bytes: u64,
}

impl BoundaryCtx {
    /// Rolls back to the latest checkpoint — or to the initial state if no
    /// snapshot was taken before the crash.
    fn restore(&mut self, config: &WalkEngineConfig, n: usize) {
        let crashed_at = self.rounds as u64;
        let checkpoint = self.encoder.assemble_latest().map(|bytes| {
            // The snapshot lives in memory and was produced by the encoder;
            // a decode failure here is a bug, not an I/O hazard.
            WalkCheckpoint::decode(&bytes).expect("in-memory checkpoint decodes")
        });
        match checkpoint {
            Some(ckpt) => {
                distger_obs::instant("checkpoint_restore", -1, ckpt.rounds as i64);
                self.recovered_rounds += crashed_at - ckpt.rounds + 1;
                self.corpus = ckpt.corpus;
                self.trace = ckpt.trace;
                self.rounds = ckpt.rounds as usize;
                self.peak_round_memory = ckpt.peak_round_memory as usize;
                self.base_comm = ckpt.comm;
                // The encoder's walk cache stays valid: it is only updated
                // at snapshot time, so it covers exactly the walks of the
                // snapshot just restored.
                debug_assert_eq!(self.encoder.encoded_walks(), self.corpus.num_walks());
            }
            None => {
                distger_obs::instant("checkpoint_restore", -1, 0);
                self.recovered_rounds += crashed_at + 1;
                self.corpus = Corpus::new(n);
                self.trace = Vec::new();
                self.rounds = 0;
                self.peak_round_memory = 0;
                self.base_comm = CommStats::new();
                self.encoder.reset();
            }
        }
        self.attempt_comm = CommStats::new();
        self.started = false;
        self.round_span = None;
        // The controller is a pure fold over the entropy trace.
        self.schedule = RoundSchedule::new(config.walks_per_node);
        self.schedule.replay(&self.trace);
    }

    /// Coordinator half of the boundary: folds the gathered harvests of
    /// round `round` into the corpus, decides continue/stop and snapshots a
    /// checkpoint if one is due.
    fn harvest(
        &mut self,
        gathered: Vec<Vec<u8>>,
        round: u64,
        num_machines: usize,
        config: &WalkEngineConfig,
        degree_dist: &[f64],
    ) -> io::Result<bool> {
        let n = self.corpus.num_nodes();
        let mut machines = Vec::with_capacity(num_machines);
        self.attempt_comm = CommStats::new();
        for payload in gathered {
            // Consumed one by one, so a payload is freed once it is decoded.
            decode_harvest(&payload, n, round, &mut machines, &mut self.attempt_comm)?;
        }
        if machines.len() != num_machines {
            return Err(invalid_data(format!(
                "harvest covered {} machines, job has {num_machines}",
                machines.len()
            )));
        }
        let harvests: Vec<&RoundHarvest> = machines.iter().collect();
        let peak_memory_sum = assemble_round_corpus(&harvests, round, &mut self.corpus)?;
        drop(machines);
        self.peak_round_memory = self.peak_round_memory.max(peak_memory_sum);
        let go_on =
            self.schedule
                .continue_after(self.rounds, &self.corpus, degree_dist, &mut self.trace);
        if go_on && config.checkpoint.due(self.rounds as u64) {
            let _checkpoint_span = distger_obs::span!("checkpoint", round = self.rounds);
            let timer = Instant::now();
            let mut comm = self.base_comm.clone();
            comm.merge(&self.attempt_comm);
            let encoded = self.encoder.snapshot(
                config.seed,
                self.rounds as u64,
                &comm,
                self.peak_round_memory as u64,
                &self.trace,
                self.corpus.view(),
            );
            self.checkpoint_secs += timer.elapsed().as_secs_f64();
            self.checkpoint_bytes += encoded as u64;
        }
        Ok(go_on)
    }
}

/// Runs the walk round loop over `transport`. Every endpoint of the job must
/// call this with the same graph, partitioning and config (all three are
/// rebuilt deterministically per process by the launcher, never shipped).
/// Returns `Some(result)` on the coordinator, `None` on workers.
///
/// `faults`, when given, injects its scheduled panics and delays into this
/// endpoint's machines. A worker panic — injected or real — is retried under
/// `config.recovery` from the latest checkpoint; once the budget is spent
/// (immediately, with the default policy) the error wraps a
/// [`RecoveryExhausted`](distger_cluster::RecoveryExhausted) carrying the
/// panic message. Determinism: walk ids (and thus walker RNG streams) depend
/// only on `(round, source)`, and a restore replays the entropy trace
/// through a fresh round schedule, so a recovered run re-derives exactly
/// the per-round corpora a fault-free run produces — bit-identical corpus,
/// comm totals and entropy trace. Only the peak-memory watermark is not
/// exact: machine states restart at zero on retry, so the recovered
/// watermark can be lower (never higher) than the fault-free one.
///
/// `config.transport` is ignored — the transport in hand decides.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] if the partitioning does not cover the
/// graph, if the transport was built for a different machine count, or if
/// checkpointing/recovery is enabled on a transport with several endpoints
/// (rolling peers back is not supported). Transport failures and malformed
/// peer payloads are returned as they are.
pub fn run_walks_over<T: Transport<WalkerMessage>>(
    transport: &mut T,
    graph: &CsrGraph,
    partitioning: &Partitioning,
    config: &WalkEngineConfig,
    faults: Option<&FaultInjector>,
) -> io::Result<Option<WalkResult>> {
    let n = graph.num_nodes();
    let num_machines = partitioning.num_machines();
    if partitioning.num_nodes() != n {
        return Err(invalid_input(format!(
            "partitioning covers {} nodes, the graph has {n}",
            partitioning.num_nodes()
        )));
    }
    if transport.num_machines() != num_machines {
        return Err(invalid_input(format!(
            "transport hosts {} machines, the partitioning has {num_machines}",
            transport.num_machines()
        )));
    }
    if transport.endpoints() > 1 && (config.checkpoint.is_enabled() || config.recovery.is_enabled())
    {
        return Err(invalid_input(
            "checkpointing and recovery need every machine in one process".into(),
        ));
    }
    let local = transport.local_machines();
    let is_coordinator = transport.is_coordinator();

    // One thread per local machine: the parallelism the BSP pool is about
    // to run the supersteps with.
    let tables = TransitionTables::build(graph, &config.model, local.len());
    let degree_dist = if is_coordinator {
        degree_distribution(graph)
    } else {
        Vec::new()
    };
    let mut ctx = BoundaryCtx {
        rounds: 0,
        started: false,
        round_span: None,
        corpus: Corpus::new(n),
        trace: Vec::new(),
        schedule: RoundSchedule::new(config.walks_per_node),
        peak_round_memory: 0,
        base_comm: CommStats::new(),
        attempt_comm: CommStats::new(),
        encoder: CheckpointEncoder::new(n as u64),
        recovered_rounds: 0,
        checkpoint_secs: 0.0,
        checkpoint_bytes: 0,
    };

    let outcome = run_bsp_supervised(
        transport,
        config.recovery,
        &mut ctx,
        |ctx, attempt| {
            if attempt > 0 {
                ctx.restore(config, n);
            }
            local.clone().map(|_| MachineState::new()).collect()
        },
        config.max_supersteps,
        walker_step(graph, partitioning, config, &tables),
        |ctx, transport, states, comm_so_far| {
            if ctx.started {
                // Harvest the round that just drained, then decide whether
                // the run converged (ΔD ≤ δ) or another round starts.
                let control_span = distger_obs::span!("control", round = ctx.rounds);
                let gathered = transport.gather(&encode_harvest(states, comm_so_far))?;
                for state in states.iter_mut() {
                    state.reset_round();
                }
                let round = ctx.rounds as u64;
                ctx.rounds += 1;
                let reply = if is_coordinator {
                    let go_on = ctx.harvest(gathered, round, num_machines, config, &degree_dist)?;
                    transport.broadcast(&[u8::from(go_on)])?
                } else {
                    transport.broadcast(&[])?
                };
                let go_on = match reply.as_slice() {
                    [0] => false,
                    [1] => true,
                    other => {
                        return Err(invalid_data(format!("bad continue/stop byte {other:?}")));
                    }
                };
                drop(control_span);
                ctx.round_span = None;
                // Cross-process trace merge: ship this round's span buffer
                // to the coordinator while the events are fresh (bounded
                // rings would drop the oldest rounds of a long run if we
                // waited until the end). A no-op when tracing is disabled.
                gather_trace_events(transport)?;
                if !go_on {
                    return Ok(None);
                }
            }
            ctx.started = true;
            ctx.round_span = Some(distger_obs::span!("round", round = ctx.rounds));
            let _control_span = distger_obs::span!("control", round = ctx.rounds);
            Ok(Some(seed_round_inboxes(
                graph,
                partitioning,
                config,
                ctx.rounds as u64,
                local.clone(),
            )))
        },
        faults,
    )?;

    if !is_coordinator {
        return Ok(None);
    }
    let mut comm = ctx.base_comm;
    comm.merge(&ctx.attempt_comm);
    // The coordinator is the hub of the star topology: every frame of the
    // job passes through it, so its wire counters measure the whole run.
    comm.wire = transport.wire_stats();

    // `peak_round_memory` is a machine-summed watermark and the corpus is
    // resident at end of run, so both only need dividing across machines.
    let walker_peak_bytes = ctx.peak_round_memory / num_machines;
    let corpus_shard_bytes = ctx.corpus.memory_bytes() / num_machines;
    let alias_table_bytes = tables.memory_bytes();
    let alias_shard_bytes = alias_table_bytes / num_machines;
    Ok(Some(WalkResult {
        corpus: ctx.corpus,
        comm,
        rounds: ctx.rounds,
        relative_entropy_trace: ctx.trace,
        walker_peak_bytes,
        corpus_shard_bytes,
        alias_build_secs: tables.build_secs(),
        alias_table_bytes,
        // Sync overhead of the attempt that completed; crashed attempts'
        // timings unwound with their panics.
        superstep_sync_secs: outcome.sync_secs,
        avg_machine_memory_bytes: walker_peak_bytes + corpus_shard_bytes + alias_shard_bytes,
        recovered_rounds: ctx.recovered_rounds,
        checkpoint_secs: ctx.checkpoint_secs,
        checkpoint_bytes: ctx.checkpoint_bytes,
    }))
}

/// Convenience harness: runs [`run_walks_over`] across `endpoints` socket
/// transports connected over loopback TCP — the coordinator on the calling
/// thread, one spawned thread per worker endpoint. Real frames, real
/// sockets, one process; the property tests drive exactly this path.
///
/// # Panics
/// Panics on any transport error in any endpoint (the property suite wants
/// errors loud, not folded into results).
pub fn run_walks_over_loopback(
    graph: &CsrGraph,
    partitioning: &Partitioning,
    config: &WalkEngineConfig,
    endpoints: usize,
) -> WalkResult {
    assert!(endpoints >= 1, "need at least one endpoint");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let num_machines = partitioning.num_machines();
    std::thread::scope(|scope| {
        for worker in 1..endpoints {
            scope.spawn(move || {
                let mut transport = SocketTransport::worker(addr, Duration::from_secs(10))
                    .unwrap_or_else(|err| panic!("worker {worker} handshake failed: {err}"));
                let result = run_walks_over(&mut transport, graph, partitioning, config, None)
                    .unwrap_or_else(|err| panic!("worker {worker} failed: {err}"));
                assert!(result.is_none(), "only the coordinator returns a result");
            });
        }
        let mut transport = SocketTransport::coordinator(&listener, endpoints, num_machines)
            .expect("coordinator handshake failed");
        run_walks_over(&mut transport, graph, partitioning, config, None)
            .expect("coordinator failed")
            .expect("coordinator returns the result")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use crate::engine::run_distributed_walks;
    use distger_cluster::{
        FaultPlan, InMemoryTransport, Mailbox, Outbox, RecoveryExhausted, RecoveryPolicy,
    };
    use distger_partition::balanced::workload_balanced_partition;
    use distger_partition::{mpgp_partition, MpgpConfig};
    use proptest::prelude::*;

    fn test_graph() -> CsrGraph {
        distger_graph::barabasi_albert(120, 3, 17)
    }

    /// The reference the pooled driver is tested against: the same job as a
    /// single-threaded fold over `walker_step` — no transport, no pool, no
    /// harvest codec. Machines step in ascending order and outboxes drain in
    /// ascending owner order, which *is* the reference delivery order.
    /// Returns `(corpus, comm, rounds, entropy trace)`.
    fn run_walks_sequential(
        graph: &CsrGraph,
        partitioning: &Partitioning,
        config: &WalkEngineConfig,
    ) -> (Corpus, CommStats, usize, Vec<f64>) {
        let n = graph.num_nodes();
        let m = partitioning.num_machines();
        let tables = TransitionTables::build(graph, &config.model, 1);
        let step = walker_step(graph, partitioning, config, &tables);
        let degree_dist = degree_distribution(graph);
        let mut schedule = RoundSchedule::new(config.walks_per_node);
        let mut states: Vec<MachineState> = (0..m).map(|_| MachineState::new()).collect();
        let mut outboxes: Vec<Outbox<WalkerMessage>> =
            (0..m).map(|machine| Outbox::new(machine, m)).collect();
        let (mut corpus, mut trace, mut rounds) = (Corpus::new(n), Vec::new(), 0usize);
        let mut max_round_supersteps = 0u64;
        loop {
            let mut inboxes = seed_round_inboxes(graph, partitioning, config, rounds as u64, 0..m);
            let mut supersteps = 0u64;
            while inboxes.iter().any(|inbox| !inbox.is_empty()) {
                supersteps += 1;
                for (machine, inbox) in inboxes.iter_mut().enumerate() {
                    let mailbox = Mailbox {
                        messages: inbox.drain(..),
                    };
                    step(
                        machine,
                        &mut states[machine],
                        mailbox,
                        &mut outboxes[machine],
                    );
                }
                for outbox in &mut outboxes {
                    outbox.drain_into(&mut inboxes);
                }
            }
            max_round_supersteps = max_round_supersteps.max(supersteps);
            let harvests: Vec<&RoundHarvest> = states.iter().map(|s| &s.harvest).collect();
            assemble_round_corpus(&harvests, rounds as u64, &mut corpus)
                .expect("honest runs tile their walks");
            states.iter_mut().for_each(MachineState::reset_round);
            rounds += 1;
            if !schedule.continue_after(rounds, &corpus, &degree_dist, &mut trace) {
                break;
            }
        }
        let mut comm = CommStats::new();
        for outbox in &outboxes {
            comm.merge(outbox.stats());
        }
        comm.supersteps = max_round_supersteps;
        (corpus, comm, rounds, trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The one equivalence: for any seed, machine count and info mode (so
        /// both the full-path and the incremental message schedules are
        /// covered), the pooled transport driver produces the corpus,
        /// communication trace (counts, bytes, local/remote steps,
        /// supersteps), round count and relative-entropy trace of the
        /// sequential reference — with every machine in this process and
        /// with the machines spread over two and three loopback-TCP
        /// endpoints. These are info-driven runs, so the equivalence includes
        /// the early-termination path: the controller stops the round loop
        /// from the coordinator before the `max_rounds` budget, and every
        /// layout must stop at exactly the reference's round.
        #[test]
        fn pooled_driver_matches_sequential_reference(
            seed in 0u64..12,
            machines in 1usize..5,
            incremental in any::<bool>(),
        ) {
            let g = distger_graph::barabasi_albert(160, 3, seed);
            let p = mpgp_partition(&g, machines, MpgpConfig::default());
            let config = if incremental {
                WalkEngineConfig::distger()
            } else {
                WalkEngineConfig::huge_d()
            }
            .with_seed(seed);
            let (corpus, comm, rounds, trace) = run_walks_sequential(&g, &p, &config);
            for endpoints in 1..=machines.min(3) {
                let driven = if endpoints == 1 {
                    run_distributed_walks(&g, &p, &config)
                } else {
                    run_walks_over_loopback(&g, &p, &config, endpoints)
                };
                prop_assert_eq!(&driven.corpus, &corpus);
                prop_assert_eq!(&driven.comm, &comm);
                prop_assert_eq!(driven.rounds, rounds);
                prop_assert_eq!(&driven.relative_entropy_trace, &trace);
            }
            let max_rounds = match config.walks_per_node {
                crate::WalkCountPolicy::InfoDriven { max_rounds, .. } => max_rounds,
                _ => unreachable!("info-driven configs drive this property"),
            };
            prop_assert!(rounds >= 2 && rounds <= max_rounds);
        }
    }

    #[test]
    fn loopback_socket_run_measures_wire_traffic() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let config = WalkEngineConfig::distger().with_seed(11);
        let in_process = run_distributed_walks(&g, &p, &config);
        let socket = run_walks_over_loopback(&g, &p, &config, 3);
        assert_eq!(in_process.corpus, socket.corpus);
        assert_eq!(in_process.comm, socket.comm);
        assert_eq!(in_process.walker_peak_bytes, socket.walker_peak_bytes);
        // The in-process run never touched a wire; the socket run did, and
        // its measured batch payloads must be visible in the wire counters.
        assert_eq!(in_process.comm.wire, Default::default());
        assert!(socket.comm.bytes > 0, "4 machines must exchange walkers");
        assert!(socket.comm.wire.frames_sent > 0);
        assert!(socket.comm.wire.batch_bytes_sent > 0);
        assert!(socket.comm.wire.bytes_sent > socket.comm.wire.batch_bytes_sent);
        // The bytes `CommStats` accounts and the bytes actually shipped in
        // BATCH frames agree within an order of magnitude, or the accounting
        // describes a fiction.
        let estimate_over_measured =
            socket.comm.bytes as f64 / socket.comm.wire.batch_bytes_sent as f64;
        assert!(
            (0.1..=10.0).contains(&estimate_over_measured),
            "CommStats estimates {} bytes, the wire measured {} batch bytes",
            socket.comm.bytes,
            socket.comm.wire.batch_bytes_sent
        );
    }

    /// Runs both endpoints of a two-endpoint loopback job and returns
    /// `(coordinator result, worker result)`.
    fn two_endpoint_results(
        graph: &CsrGraph,
        partitioning: &Partitioning,
        config: &WalkEngineConfig,
        worker_faults: Option<&FaultInjector>,
    ) -> (
        io::Result<Option<WalkResult>>,
        io::Result<Option<WalkResult>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || {
                let mut transport = SocketTransport::worker(addr, Duration::from_secs(10)).unwrap();
                run_walks_over(&mut transport, graph, partitioning, config, worker_faults)
                // The transport drops here: the worker's socket closes.
            });
            let mut transport =
                SocketTransport::coordinator(&listener, 2, partitioning.num_machines()).unwrap();
            let coordinator = run_walks_over(&mut transport, graph, partitioning, config, None);
            drop(transport);
            (coordinator, worker.join().unwrap())
        })
    }

    #[test]
    fn multi_endpoint_jobs_reject_checkpointing_and_recovery() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 2);
        for config in [
            WalkEngineConfig::distger().with_checkpoint_policy(CheckpointPolicy::every(1)),
            WalkEngineConfig::distger().with_recovery_policy(RecoveryPolicy::retries(1)),
        ] {
            let (coordinator, worker) = two_endpoint_results(&g, &p, &config, None);
            assert_eq!(coordinator.unwrap_err().kind(), io::ErrorKind::InvalidInput);
            assert_eq!(worker.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn mismatched_shapes_are_invalid_input() {
        let g = test_graph();
        let config = WalkEngineConfig::distger();
        let short = Partitioning::single_machine(g.num_nodes() - 1);
        let err = run_walks_over(&mut InMemoryTransport::new(1), &g, &short, &config, None);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        let p = workload_balanced_partition(&g, 2);
        let err = run_walks_over(&mut InMemoryTransport::new(3), &g, &p, &config, None);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }

    /// A worker endpoint that dies mid-round (its machine panics in round 1,
    /// its process gives up, its socket closes) must surface on the
    /// coordinator as an `Err` — and the call returning at all proves the
    /// coordinator's pool threads were released and joined, since they are
    /// scoped to it.
    #[test]
    fn worker_endpoint_dying_mid_round_is_an_error_on_the_coordinator() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let config = WalkEngineConfig::distger().with_seed(3);
        // Machine 3 lives on the worker endpoint (machines 2..4).
        let faults = FaultPlan::new().panic_at(3, 1, 0).build();
        let (coordinator, worker) = two_endpoint_results(&g, &p, &config, Some(&faults));
        assert_eq!(faults.injected_faults(), 1, "the fault must fire");
        let worker = worker.unwrap_err().downcast::<RecoveryExhausted>().unwrap();
        assert!(worker.last_panic.contains("machine 3 round 1"), "{worker}");
        let coordinator = coordinator.unwrap_err();
        assert!(
            !coordinator
                .get_ref()
                .is_some_and(|inner| inner.is::<RecoveryExhausted>()),
            "the coordinator must see a transport error, not a panic: {coordinator}"
        );
    }

    /// One machine's honest harvest of round 1 on a 4-node graph: walks 4..8,
    /// walk 5 in two runs.
    fn honest_state() -> MachineState {
        let mut state = MachineState::new();
        let harvest = &mut state.harvest;
        harvest.seg_nodes = vec![0, 1, 2, 1, 3, 2, 3];
        let mut offset = 0;
        for (walk_id, start_step, len) in [(4, 0, 2), (5, 0, 1), (6, 0, 1), (5, 1, 2), (7, 0, 1)] {
            harvest.seg_runs.push(SegRun {
                walk_id,
                start_step,
                len,
                offset,
            });
            offset += len as usize;
        }
        harvest.peak_memory_bytes = 640;
        state
    }

    fn honest_comm() -> CommStats {
        CommStats {
            messages: 3,
            bytes: 240,
            local_steps: 2,
            remote_steps: 3,
            supersteps: 2,
            ..CommStats::new()
        }
    }

    fn decode(payload: &[u8]) -> io::Result<(Vec<RoundHarvest>, CommStats)> {
        let (mut machines, mut comm) = (Vec::new(), CommStats::new());
        decode_harvest(payload, 4, 1, &mut machines, &mut comm)?;
        Ok((machines, comm))
    }

    fn assemble(machines: &[RoundHarvest]) -> io::Result<(Corpus, usize)> {
        let mut corpus = Corpus::new(4);
        let peak = assemble_round_corpus(&machines.iter().collect::<Vec<_>>(), 1, &mut corpus)?;
        Ok((corpus, peak))
    }

    #[test]
    fn harvest_round_trips_and_assembles() {
        let payload = encode_harvest(&[&mut honest_state()], &honest_comm());
        let (machines, comm) = decode(&payload).unwrap();
        assert_eq!(comm, honest_comm());
        assert_eq!(machines[0].peak_memory_bytes, 640);
        let (corpus, peak) = assemble(&machines).unwrap();
        assert_eq!(peak, 640);
        let want = Corpus::from_walks(vec![vec![0, 1], vec![2, 3, 2], vec![1], vec![3]], 4);
        assert_eq!(corpus, want);
    }

    #[test]
    fn hostile_harvest_bytes_never_panic() {
        let payload = encode_harvest(&[&mut honest_state()], &honest_comm());
        distger_cluster::wire::testing::assert_total(&payload, |bytes| {
            decode(bytes).and_then(|(machines, _)| assemble(&machines))
        });
    }

    /// Every field a peer controls, set to a lie: each must be rejected at
    /// decode or at assembly with `InvalidData`, never trusted into an index.
    #[test]
    fn hostile_harvest_fields_are_rejected() {
        let lie = |what: &str, edit: fn(&mut RoundHarvest)| {
            let mut state = honest_state();
            edit(&mut state.harvest);
            // `offset` never travels; keep it consistent with the edited
            // lengths so `encode_harvest`'s own debug check stays quiet.
            let mut offset = 0;
            for run in &mut state.harvest.seg_runs {
                run.offset = offset;
                offset += run.len as usize;
            }
            let payload = encode_harvest(&[&mut state], &honest_comm());
            let err = decode(&payload)
                .and_then(|(machines, _)| assemble(&machines))
                .expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        };
        lie("walk id below the round", |s| s.seg_runs[0].walk_id = 3);
        lie("walk id above the round", |s| s.seg_runs[0].walk_id = 8);
        lie("walk id far away", |s| s.seg_runs[0].walk_id = u64::MAX);
        lie("run past the arena", |s| s.seg_runs[4].len = 2);
        lie("runs short of the arena", |s| s.seg_runs[4].len = 0);
        lie("start_step + len overflows", |s| {
            s.seg_runs[3].start_step = u32::MAX
        });
        lie("runs do not tile the walk", |s| {
            s.seg_runs[3].start_step = 2
        });
        lie("a walk nobody harvested", |s| s.seg_runs[2].walk_id = 7);
        lie("node outside the graph", |s| s.seg_nodes[1] = 4);
        // Traffic counters are summed over endpoints: an overflowing sum is
        // a lie too.
        let mut comm = honest_comm();
        comm.messages = u64::MAX;
        let payload = encode_harvest(&[&mut honest_state()], &comm);
        let (mut machines, mut total) = (Vec::new(), CommStats::new());
        decode_harvest(&payload, 4, 1, &mut machines, &mut total).unwrap();
        let err = decode_harvest(&payload, 4, 1, &mut machines, &mut total);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
