//! The distributed random-walk engine (the *sampler* of Figure 1).
//!
//! Walkers are coordinated with the BSP model exactly as in KnightKing
//! (§2.2): every machine owns the nodes assigned to it by the partitioner;
//! a walker keeps stepping locally for as long as the next accepted node
//! lives on the same machine and becomes a cross-machine message the moment
//! it does not. Message sizes and the per-step measurement cost depend on the
//! configured [`InfoMode`]:
//!
//! * [`InfoMode::FullPath`] — the HuGE-D baseline: `O(L)` entropy
//!   recomputation per step, `24 + 8·L`-byte messages;
//! * [`InfoMode::Incremental`] — InCoM: `O(1)` updates, 80-byte messages,
//!   machine-local frequency lists.
//!
//! Routine (fixed `L`, fixed `r`) configurations skip the measurement
//! entirely and exchange 32-byte messages, reproducing KnightKing.
//!
//! Transition draws go through [`TransitionTables`], built once per run: an
//! `O(1)` alias draw on weighted graphs, one bounded draw on unweighted ones,
//! and HuGE's per-arc acceptance probabilities, so a rejected candidate
//! costs one array read. InCoM's local frequency lists live in one
//! [`FreqStore`] per machine.

use std::io;
use std::ops::Range;

use distger_cluster::wire::invalid_data;
use distger_cluster::{
    CommStats, FaultInjector, InMemoryTransport, Mailbox, Outbox, RecoveryExhausted,
    RecoveryPolicy, TransportKind,
};
use distger_graph::{CsrGraph, NodeId};
use distger_partition::Partitioning;

use crate::alias::TransitionTables;
use crate::checkpoint::CheckpointPolicy;
use crate::corpus::Corpus;
use crate::dist::run_walks_over;
use crate::freq::FreqStore;
use crate::info::{relative_entropy, FullPathInfo, IncrementalInfo, WalkCountController};
use crate::message::{InfoPayload, WalkerMessage};
use crate::models::{propose_next, LengthPolicy, WalkCountPolicy, WalkModel};
use crate::rng::SplitMix64;

/// How the on-the-fly information measurement is computed and shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InfoMode {
    /// HuGE-D: full-path recomputation, path carried in every message.
    FullPath,
    /// InCoM: incremental `O(1)` updates, constant-size messages (§3.1).
    Incremental,
}

/// Configuration of a distributed walk run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalkEngineConfig {
    /// Transition model.
    pub model: WalkModel,
    /// Per-walk termination policy.
    pub length: LengthPolicy,
    /// Walks-per-node policy.
    pub walks_per_node: WalkCountPolicy,
    /// Measurement mode (only relevant when `length` is information-driven).
    pub info_mode: InfoMode,
    /// When the round loop snapshots its coordinator state (cumulative
    /// corpus, entropy trace, comm totals) so a crashed run can resume from
    /// the latest completed round instead of round 0. Disabled by default;
    /// needs a transport that hosts every machine in this process.
    pub checkpoint: CheckpointPolicy,
    /// How many times a crashed run is retried (restoring the latest
    /// checkpoint) before the failure propagates. Disabled by default;
    /// needs a transport that hosts every machine in this process.
    pub recovery: RecoveryPolicy,
    /// How machines talk to each other. [`TransportKind::InMemory`] (the
    /// default) runs every machine in this process;
    /// [`TransportKind::Socket`] means the caller drives
    /// [`crate::dist::run_walks_over`] with a socket transport per process —
    /// [`run_distributed_walks`] rejects it, since a single in-process call
    /// cannot span process boundaries.
    pub transport: TransportKind,
    /// Seed for all stochastic choices.
    pub seed: u64,
    /// Safety cap on BSP supersteps per round.
    pub max_supersteps: u64,
}

impl WalkEngineConfig {
    /// KnightKing's routine configuration: fixed `L = 80`, `r = 10`, no
    /// information measurement, 32-byte messages.
    pub fn knightking_routine(model: WalkModel) -> Self {
        Self {
            model,
            length: LengthPolicy::routine(),
            walks_per_node: WalkCountPolicy::routine(),
            info_mode: InfoMode::Incremental,
            checkpoint: CheckpointPolicy::Disabled,
            recovery: RecoveryPolicy::default(),
            transport: TransportKind::InMemory,
            seed: 0,
            max_supersteps: 1_000_000,
        }
    }

    /// The HuGE-D baseline (§2.3): information-oriented walks with the
    /// full-path computation mechanism.
    pub fn huge_d() -> Self {
        Self {
            model: WalkModel::Huge,
            length: LengthPolicy::info_driven_default(),
            walks_per_node: WalkCountPolicy::info_driven_default(),
            info_mode: InfoMode::FullPath,
            checkpoint: CheckpointPolicy::Disabled,
            recovery: RecoveryPolicy::default(),
            transport: TransportKind::InMemory,
            seed: 0,
            max_supersteps: 1_000_000,
        }
    }

    /// DistGER's sampler: information-oriented walks with InCoM.
    pub fn distger() -> Self {
        Self {
            info_mode: InfoMode::Incremental,
            ..Self::huge_d()
        }
    }

    /// DistGER's general API (§6.6): any transition model (DeepWalk, node2vec,
    /// HuGE+ …) driven by the information-centric termination heuristics.
    pub fn distger_general(model: WalkModel) -> Self {
        Self {
            model,
            ..Self::distger()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style transition-model override.
    pub fn with_model(mut self, model: WalkModel) -> Self {
        self.model = model;
        self
    }

    /// Builder-style termination-policy override.
    pub fn with_length(mut self, length: LengthPolicy) -> Self {
        self.length = length;
        self
    }

    /// Builder-style walks-per-node policy override.
    pub fn with_walks_per_node(mut self, walks_per_node: WalkCountPolicy) -> Self {
        self.walks_per_node = walks_per_node;
        self
    }

    /// Builder-style measurement-mode override.
    pub fn with_info_mode(mut self, info_mode: InfoMode) -> Self {
        self.info_mode = info_mode;
        self
    }

    /// Builder-style checkpoint-policy override.
    pub fn with_checkpoint_policy(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Builder-style recovery-policy override.
    pub fn with_recovery_policy(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Builder-style transport override.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style superstep-cap override.
    pub fn with_max_supersteps(mut self, max_supersteps: u64) -> Self {
        self.max_supersteps = max_supersteps;
        self
    }

    fn needs_info(&self) -> bool {
        self.length.needs_info()
    }
}

/// Result of a distributed walk run.
#[derive(Clone, Debug)]
pub struct WalkResult {
    /// The sampled corpus (all walks of all rounds).
    pub corpus: Corpus,
    /// Aggregated communication statistics over all rounds.
    pub comm: CommStats,
    /// Number of walk rounds executed (walks per node).
    pub rounds: usize,
    /// Relative entropy `D_r(p‖q)` after each round (Eq. 6), cumulative corpus.
    pub relative_entropy_trace: Vec<f64>,
    /// Peak transient walker state (segment arenas plus frequency lists),
    /// averaged over machines. Walker allocations live for the whole run —
    /// round boundaries clear contents but keep capacity — so each machine
    /// contributes its peak over *all* rounds, the honest residency of
    /// run-lived state.
    pub walker_peak_bytes: usize,
    /// End-of-run corpus residency per machine (the accumulated corpus,
    /// divided evenly over machines).
    pub corpus_shard_bytes: usize,
    /// Wall-clock seconds spent building the arc-aligned transition tables:
    /// the alias arrays (weighted graphs) and HuGE's acceptance array
    /// ([`WalkModel::Huge`]). Exactly 0 when the job needs neither: DeepWalk
    /// or node2vec on an unweighted graph.
    pub alias_build_secs: f64,
    /// Resident bytes of the transition tables over the whole graph: 8 per
    /// CSR arc of alias arrays when the graph is weighted, plus 4 per arc of
    /// acceptance probabilities when the model is HuGE. The tables are read-only and
    /// partition-independent, so each machine only needs the slice covering
    /// its own nodes — divide by the machine count for the per-machine share.
    pub alias_table_bytes: usize,
    /// Wall-clock seconds of BSP superstep thread-coordination overhead on
    /// the coordinator endpoint, summed over all rounds: the barrier-crossing
    /// cost of its worker pool, measured from barrier waits (see
    /// [`BspOutcome::sync_secs`](distger_cluster::BspOutcome::sync_secs)).
    /// The message exchange between supersteps — and the round-boundary
    /// control work (corpus assembly, entropy check, next-round seeding) —
    /// is excluded.
    pub superstep_sync_secs: f64,
    /// Estimated per-machine sampling-phase memory in bytes: transient
    /// walker state, the resident corpus shard, plus this machine's share of
    /// the transition tables (alias and acceptance arrays).
    pub avg_machine_memory_bytes: usize,
    /// Rounds re-executed by supervised recovery: for each crash, the rounds
    /// completed since the restored checkpoint plus the partial round that
    /// died. 0 on a fault-free run.
    pub recovered_rounds: u64,
    /// Wall-clock seconds spent encoding round-boundary checkpoints
    /// (coordinator-exclusive, so this is exactly the overhead the
    /// checkpoint policy adds to the run's critical path).
    pub checkpoint_secs: f64,
    /// Total encoded checkpoint bytes produced over the run (each snapshot
    /// covers the cumulative corpus, so later snapshots are larger).
    pub checkpoint_bytes: u64,
}

impl WalkResult {
    /// Average walk length over the whole corpus.
    pub fn avg_walk_length(&self) -> f64 {
        self.corpus.avg_walk_length()
    }
}

/// One maximal stretch of a walk executed on a single machine: `len` nodes
/// accepted consecutively starting at walk step `start_step`, stored
/// contiguously in the machine's node arena at `offset`.
///
/// This replaces the seed's per-step `(walk_id, step, node)` triples: a walk
/// that runs `k` local steps costs one header plus `k` node ids instead of
/// `k` 16-byte tuples, and corpus assembly moves whole slices.
pub(crate) struct SegRun {
    pub(crate) walk_id: u64,
    pub(crate) start_step: u32,
    pub(crate) len: u32,
    pub(crate) offset: usize,
}

/// What one machine hands the coordinator at a round boundary — the part of
/// its state that travels (see `dist::encode_harvest`).
#[derive(Default)]
pub(crate) struct RoundHarvest {
    /// Arena of accepted node ids, in acceptance order.
    pub(crate) seg_nodes: Vec<NodeId>,
    /// One entry per local run, indexing into `seg_nodes`; the runs tile the
    /// arena in order.
    pub(crate) seg_runs: Vec<SegRun>,
    /// Peak memory estimate for this machine over the run so far.
    pub(crate) peak_memory_bytes: usize,
}

/// Per-machine mutable state during a round.
pub(crate) struct MachineState {
    pub(crate) harvest: RoundHarvest,
    /// InCoM local frequency lists: per ongoing walk, the occurrence counts of
    /// nodes local to this machine.
    freq: FreqStore,
}

impl MachineState {
    pub(crate) fn new() -> Self {
        Self {
            harvest: RoundHarvest::default(),
            freq: FreqStore::new(),
        }
    }

    /// Closes the run opened at `offset` for `walk_id` (no-op when the run
    /// recorded no node, which cannot happen in practice: a walker always
    /// accepts its arrival node first).
    fn finish_run(&mut self, walk_id: u64, start_step: u32, offset: usize) {
        let len = (self.harvest.seg_nodes.len() - offset) as u32;
        if len > 0 {
            self.harvest.seg_runs.push(SegRun {
                walk_id,
                start_step,
                len,
                offset,
            });
        }
    }

    fn update_memory_estimate(&mut self) {
        let harvest = &mut self.harvest;
        let seg_bytes = harvest.seg_nodes.len() * std::mem::size_of::<NodeId>()
            + harvest.seg_runs.len() * std::mem::size_of::<SegRun>();
        harvest.peak_memory_bytes = harvest
            .peak_memory_bytes
            .max(self.freq.memory_bytes() + seg_bytes);
    }

    /// Round-boundary reset: forget this round's segments and frequency
    /// lists but keep every allocation (arena, run headers, directory, list
    /// pool) for the next round — workers outliving rounds is what makes the
    /// steady state allocation-free. The peak-memory watermark deliberately
    /// survives: capacity is recycled, not released, so this machine's true
    /// residency is its peak over the whole run (see
    /// [`WalkResult::walker_peak_bytes`]).
    pub(crate) fn reset_round(&mut self) {
        self.harvest.seg_nodes.clear();
        self.harvest.seg_runs.clear();
        self.freq.clear();
    }
}

/// The round schedule: a fixed number of rounds or the relative-entropy
/// convergence controller of Eq. 7.
pub(crate) struct RoundSchedule {
    fixed_rounds: Option<usize>,
    controller: Option<WalkCountController>,
}

impl RoundSchedule {
    pub(crate) fn new(policy: WalkCountPolicy) -> Self {
        match policy {
            WalkCountPolicy::Fixed(r) => Self {
                fixed_rounds: Some(r.max(1)),
                controller: None,
            },
            WalkCountPolicy::InfoDriven {
                delta,
                min_rounds,
                max_rounds,
            } => Self {
                fixed_rounds: None,
                controller: Some(WalkCountController::new(delta, min_rounds, max_rounds)),
            },
        }
    }

    /// Decides, after `completed_rounds` rounds have been harvested into
    /// `corpus`, whether another round runs. Info-driven schedules push the
    /// round's relative entropy `D_r(p‖q)` (Eq. 6) onto `trace`.
    pub(crate) fn continue_after(
        &mut self,
        completed_rounds: usize,
        corpus: &Corpus,
        degree_dist: &[f64],
        trace: &mut Vec<f64>,
    ) -> bool {
        match (self.fixed_rounds, &mut self.controller) {
            (Some(r), _) => completed_rounds < r,
            (None, Some(ctrl)) => {
                let d = relative_entropy(degree_dist, &corpus.occurrence_distribution());
                trace.push(d);
                ctrl.record_round(d)
            }
            (None, None) => unreachable!("one of the policies is always set"),
        }
    }

    /// Rebuilds the schedule's convergence state from a checkpointed entropy
    /// trace: [`WalkCountController`] is a pure fold over the per-round
    /// `D_r(p‖q)` values, so replaying the trace restores it exactly. Every
    /// replayed value continued the run when it was recorded (a checkpoint is
    /// only taken after `continue_after` returns `true`), so the replay never
    /// hits the stop condition early. Fixed-round schedules carry no state —
    /// `continue_after` reads the completed-round count directly.
    pub(crate) fn replay(&mut self, trace: &[f64]) {
        if let Some(ctrl) = &mut self.controller {
            for &d in trace {
                ctrl.record_round(d);
            }
        }
    }
}

/// Runs distributed random walks over `graph` partitioned by `partitioning`,
/// every machine in this process: [`run_walks_over`] on an
/// [`InMemoryTransport`].
///
/// When `config.recovery` is enabled, a worker panic restores the latest
/// checkpoint and retries; a run that fails permanently panics with the last
/// worker panic's message. Use [`run_distributed_walks_supervised`] to
/// handle that case as an error — and to inject deterministic faults for
/// testing.
///
/// # Panics
/// Panics if the partitioning does not cover the graph or if
/// `config.transport` is not [`TransportKind::InMemory`].
pub fn run_distributed_walks(
    graph: &CsrGraph,
    partitioning: &Partitioning,
    config: &WalkEngineConfig,
) -> WalkResult {
    match run_distributed_walks_supervised(graph, partitioning, config, None) {
        Ok(result) => result,
        Err(err) => panic!("supervised walk run failed permanently: {err}"),
    }
}

/// [`run_distributed_walks`] with explicit fault handling: optionally injects
/// the faults of a [`FaultInjector`], and returns a clean error instead of
/// panicking when the retry budget of `config.recovery` is exhausted.
///
/// # Panics
/// Panics if the partitioning does not cover the graph or if
/// `config.transport` is not [`TransportKind::InMemory`].
pub fn run_distributed_walks_supervised(
    graph: &CsrGraph,
    partitioning: &Partitioning,
    config: &WalkEngineConfig,
    faults: Option<&FaultInjector>,
) -> Result<WalkResult, RecoveryExhausted> {
    assert_eq!(
        config.transport,
        TransportKind::InMemory,
        "run_distributed_walks executes every machine in this process; \
         socket transports are served by walks::dist::run_walks_over"
    );
    let mut transport = InMemoryTransport::new(partitioning.num_machines());
    match run_walks_over(&mut transport, graph, partitioning, config, faults) {
        Ok(result) => Ok(result.expect("the only endpoint is the coordinator")),
        Err(err) => Err(err
            .downcast::<RecoveryExhausted>()
            .unwrap_or_else(|err| panic!("{err}"))),
    }
}

/// The per-superstep worker body: process the machine's delivered walkers,
/// then refresh its memory watermark.
pub(crate) fn walker_step<'g>(
    graph: &'g CsrGraph,
    partitioning: &'g Partitioning,
    config: &'g WalkEngineConfig,
    tables: &'g TransitionTables,
) -> impl for<'a> Fn(usize, &mut MachineState, Mailbox<'a, WalkerMessage>, &mut Outbox<WalkerMessage>)
       + Sync
       + 'g {
    move |machine, state, mailbox, outbox| {
        for msg in mailbox.messages {
            process_walker(
                graph,
                partitioning,
                config,
                tables,
                machine,
                state,
                msg,
                outbox,
            );
        }
        state.update_memory_estimate();
    }
}

/// Seeds one round for the machines in `local`: one fresh walker per source
/// node they own, delivered to the owning machine's inbox (`inboxes[i]`
/// belongs to machine `local.start + i`). Walk ids and RNG streams depend
/// only on `(round, source)`, so every endpoint of a job seeds its own
/// machines without traffic. Inboxes are pre-sized from the partition's
/// node counts so the seeding loop never reallocates.
pub(crate) fn seed_round_inboxes(
    graph: &CsrGraph,
    partitioning: &Partitioning,
    config: &WalkEngineConfig,
    round: u64,
    local: Range<usize>,
) -> Vec<Vec<WalkerMessage>> {
    let n = graph.num_nodes();
    let mut inboxes: Vec<Vec<WalkerMessage>> = partitioning.node_counts()[local.clone()]
        .iter()
        .map(|&count| Vec::with_capacity(count))
        .collect();
    for u in 0..n as NodeId {
        let machine = partitioning.machine_of(u);
        if !local.contains(&machine) {
            continue;
        }
        let walk_id = round * n as u64 + u as u64;
        let info = if config.needs_info() {
            match config.info_mode {
                InfoMode::FullPath => InfoPayload::FullPath(FullPathInfo::default()),
                InfoMode::Incremental => InfoPayload::Incremental(IncrementalInfo::default()),
            }
        } else {
            InfoPayload::None
        };
        inboxes[machine - local.start].push(WalkerMessage {
            walk_id,
            step: 0,
            cur: u,
            prev: None,
            rng_state: SplitMix64::for_walker(config.seed, walk_id).state(),
            info,
        });
    }
    inboxes
}

/// Appends one round's walks to `corpus` from the per-machine harvests
/// (machines `0..m` in order) with a counting sort over walk ids: count
/// tokens and runs per walk, prefix-sum into bucket offsets, scatter run
/// references, then write each walk's few runs, ordered by start step,
/// straight into the corpus arena. No per-step tuples, no per-token sort.
/// Returns the machine-summed peak transient-memory watermark.
///
/// The harvests come from `dist::decode_harvest`, which guarantees every
/// run lies inside its arena and names a walk of this round; that the
/// runs of each walk tile it from step 0 without gap or overlap is checked
/// here, so a peer that lies about `start_step` is an
/// [`io::ErrorKind::InvalidData`] error (which fails the run), not a
/// scrambled corpus.
pub(crate) fn assemble_round_corpus(
    harvests: &[&RoundHarvest],
    round: u64,
    corpus: &mut Corpus,
) -> io::Result<usize> {
    let n = corpus.num_nodes();
    let mut peak_memory_sum = 0usize;
    let mut token_counts = vec![0u32; n];
    let mut run_counts = vec![0u32; n];
    for state in harvests {
        peak_memory_sum = peak_memory_sum.saturating_add(state.peak_memory_bytes);
        for run in &state.seg_runs {
            let local_id = (run.walk_id - round * n as u64) as usize;
            token_counts[local_id] =
                token_counts[local_id].checked_add(run.len).ok_or_else(|| {
                    invalid_data(format!("walk {} is longer than u32::MAX", run.walk_id))
                })?;
            run_counts[local_id] += 1;
        }
    }
    let mut run_offsets = vec![0u32; n + 1];
    for w in 0..n {
        run_offsets[w + 1] = run_offsets[w] + run_counts[w];
    }
    // (start_step, machine, run index) per run, bucketed by walk.
    let mut buckets = vec![(0u32, 0u32, 0u32); run_offsets[n] as usize];
    let mut cursors = run_offsets.clone();
    for (machine, state) in harvests.iter().enumerate() {
        for (run_idx, run) in state.seg_runs.iter().enumerate() {
            let local_id = (run.walk_id - round * n as u64) as usize;
            let slot = cursors[local_id];
            buckets[slot as usize] = (run.start_step, machine as u32, run_idx as u32);
            cursors[local_id] += 1;
        }
    }

    // The nodes of a bucketed run.
    let nodes = |machine: u32, run_idx: u32| {
        let state = harvests[machine as usize];
        let run = &state.seg_runs[run_idx as usize];
        &state.seg_nodes[run.offset..run.offset + run.len as usize]
    };
    for w in 0..n {
        let bucket = &mut buckets[run_offsets[w] as usize..run_offsets[w + 1] as usize];
        // A walk's run count equals its machine-hop count + 1 — a handful,
        // for which sort_unstable already degenerates to insertion sort.
        bucket.sort_unstable_by_key(|run| run.0);
        let (walk_id, mut tiled) = (round * n as u64 + w as u64, 0);
        for &(start_step, machine, run_idx) in bucket.iter() {
            if start_step as usize != tiled {
                return Err(invalid_data(format!(
                    "runs of walk {walk_id} do not tile it: run at step {start_step} follows {tiled} nodes"
                )));
            }
            tiled += nodes(machine, run_idx).len();
        }
        if tiled == 0 {
            return Err(invalid_data(format!("no machine harvested walk {walk_id}")));
        }
        let runs = bucket
            .iter()
            .flat_map(|&(_, machine, run_idx)| nodes(machine, run_idx));
        corpus.push_walk(runs.copied());
    }
    Ok(peak_memory_sum)
}

/// Processes one walker on `machine` until it terminates or hops away.
///
/// All nodes the walker accepts here are appended contiguously to the
/// machine's node arena and closed into a single [`SegRun`] on exit, so the
/// steady-state cost per accepted node is one arena push plus one frequency
/// probe — no per-step tuples, no hashing of the walk id beyond the single
/// flat-directory lookup.
#[allow(clippy::too_many_arguments)]
fn process_walker(
    graph: &CsrGraph,
    partitioning: &Partitioning,
    config: &WalkEngineConfig,
    tables: &TransitionTables,
    machine: usize,
    state: &mut MachineState,
    mut msg: WalkerMessage,
    outbox: &mut Outbox<WalkerMessage>,
) {
    let mut rng = SplitMix64::from_state(msg.rng_state);
    let walk_id = msg.walk_id;
    let start_step = msg.step;
    let run_offset = state.harvest.seg_nodes.len();
    loop {
        // Accept `msg.cur` on this machine.
        debug_assert_eq!(partitioning.machine_of(msg.cur), machine);
        state.harvest.seg_nodes.push(msg.cur);
        let length = msg.step as u64 + 1;

        let r_squared = match &mut msg.info {
            InfoPayload::None => 1.0,
            InfoPayload::FullPath(fp) => fp.accept(msg.cur).r_squared,
            InfoPayload::Incremental(inc) => {
                let prev = state.freq.accept(walk_id, msg.cur) as u64;
                inc.accept(prev).r_squared
            }
        };

        let terminate = match config.length {
            LengthPolicy::Fixed(l) => length >= l as u64,
            LengthPolicy::InfoDriven {
                mu,
                min_len,
                max_len,
            } => length >= max_len as u64 || (length >= min_len as u64 && r_squared < mu),
        };
        if terminate {
            // The walk is finished; its local frequency list is no longer
            // needed on this machine (§3.1).
            if matches!(msg.info, InfoPayload::Incremental(_)) {
                state.freq.release(walk_id);
            }
            state.finish_run(walk_id, start_step, run_offset);
            return;
        }

        let next = match propose_next(&config.model, graph, tables, msg.prev, msg.cur, &mut rng) {
            Some(v) => v,
            None => {
                // Dead end (isolated or sink node).
                if matches!(msg.info, InfoPayload::Incremental(_)) {
                    state.freq.release(walk_id);
                }
                state.finish_run(walk_id, start_step, run_offset);
                return;
            }
        };

        msg.prev = Some(msg.cur);
        msg.cur = next;
        msg.step += 1;
        let dest = partitioning.machine_of(next);
        if dest == machine {
            outbox.record_local_step();
            // keep walking locally
        } else {
            state.finish_run(walk_id, start_step, run_offset);
            msg.rng_state = rng.state();
            outbox.send(dest, msg);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger_cluster::FaultPlan;
    use distger_partition::{balanced::workload_balanced_partition, mpgp_partition, MpgpConfig};

    fn test_graph() -> CsrGraph {
        distger_graph::barabasi_albert(300, 4, 17)
    }

    #[test]
    fn routine_walks_have_fixed_length_and_count() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let mut config = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk);
        config.length = LengthPolicy::Fixed(20);
        config.walks_per_node = WalkCountPolicy::Fixed(2);
        let result = run_distributed_walks(&g, &p, &config);
        assert_eq!(result.rounds, 2);
        assert_eq!(result.corpus.num_walks(), 600);
        assert!(result.corpus.view().iter().all(|w| w.len() == 20));
        // Every consecutive pair must be an edge.
        for walk in result.corpus.view().iter() {
            for pair in walk.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn info_driven_walks_terminate_early() {
        let g = test_graph();
        let p = mpgp_partition(&g, 4, MpgpConfig::default());
        let result = run_distributed_walks(&g, &p, &WalkEngineConfig::distger());
        assert!(result.rounds >= 2);
        let avg = result.avg_walk_length();
        assert!(
            avg > 5.0 && avg < 80.0,
            "information-driven walks should be shorter than the routine 80, got {avg}"
        );
        assert!(!result.relative_entropy_trace.is_empty());
        assert!(result.superstep_sync_secs > 0.0, "barrier waits are timed");
    }

    #[test]
    fn incremental_and_full_path_produce_identical_corpora() {
        // With the same seed, the only difference between HuGE-D and InCoM is
        // *how* the measurement is computed — the sampled walks must match.
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let incom = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(5));
        let huge_d = run_distributed_walks(&g, &p, &WalkEngineConfig::huge_d().with_seed(5));
        assert_eq!(incom.corpus, huge_d.corpus);
        assert_eq!(incom.comm.messages, huge_d.comm.messages);
        // …but HuGE-D ships far more bytes.
        assert!(huge_d.comm.bytes > incom.comm.bytes);
    }

    #[test]
    fn single_machine_run_has_no_messages() {
        let g = test_graph();
        let p = Partitioning::single_machine(g.num_nodes());
        let result = run_distributed_walks(&g, &p, &WalkEngineConfig::distger());
        assert_eq!(result.comm.messages, 0);
        assert_eq!(result.comm.bytes, 0);
        assert!(result.corpus.num_walks() >= g.num_nodes());
    }

    #[test]
    fn mpgp_reduces_cross_machine_messages_vs_workload_balancing() {
        let g = distger_graph::planted_partition(300, 4, 0.15, 0.005, 0.0, 23).graph;
        let cfg = WalkEngineConfig::distger().with_seed(3);
        let balanced = workload_balanced_partition(&g, 4);
        let mpgp = mpgp_partition(&g, 4, MpgpConfig::default());
        let r_balanced = run_distributed_walks(&g, &balanced, &cfg);
        let r_mpgp = run_distributed_walks(&g, &mpgp, &cfg);
        assert!(
            r_mpgp.comm.messages < r_balanced.comm.messages,
            "MPGP {} should send fewer messages than workload balancing {}",
            r_mpgp.comm.messages,
            r_balanced.comm.messages
        );
    }

    #[test]
    fn unweighted_huge_runs_build_only_the_acceptance_table() {
        // Unweighted: the draw is one bounded draw and needs no alias
        // arrays; HuGE still needs its 4 B/arc acceptance array.
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let huge = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(13));
        assert_eq!(huge.alias_table_bytes, g.num_arcs() * 4);
        assert!(huge.alias_build_secs > 0.0);
    }

    #[test]
    fn weighted_walks_report_alias_accounting_and_stay_valid() {
        let g = test_graph().with_skewed_weights(1.5, 3);
        let p = workload_balanced_partition(&g, 4);
        let mut cfg = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk).with_seed(2);
        cfg.length = LengthPolicy::Fixed(15);
        cfg.walks_per_node = WalkCountPolicy::Fixed(2);
        let result = run_distributed_walks(&g, &p, &cfg);
        // Weighted DeepWalk: 8 B/arc of alias arrays, no acceptance array…
        assert_eq!(result.alias_table_bytes, g.num_arcs() * 8);
        assert!(result.alias_build_secs > 0.0);
        // …and HuGE on the same graph adds its 4 B/arc.
        let huge = run_distributed_walks(&g, &p, &cfg.with_model(WalkModel::Huge));
        assert_eq!(huge.alias_table_bytes, g.num_arcs() * 12);
        assert!(result.avg_machine_memory_bytes >= result.alias_table_bytes / 4);
        for walk in result.corpus.view().iter() {
            for pair in walk.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
        // Unweighted DeepWalk builds nothing.
        let plain = run_distributed_walks(&test_graph(), &p, &cfg);
        assert_eq!(plain.alias_table_bytes, 0);
        assert_eq!(plain.alias_build_secs, 0.0, "no table, no build time");
    }

    #[test]
    fn walks_are_deterministic_given_seed() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 3);
        let cfg = WalkEngineConfig::distger().with_seed(11);
        let a = run_distributed_walks(&g, &p, &cfg);
        let b = run_distributed_walks(&g, &p, &cfg);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.comm, b.comm);
    }

    #[test]
    fn general_api_supports_deepwalk_and_node2vec() {
        let g = test_graph();
        let p = mpgp_partition(&g, 2, MpgpConfig::default());
        for model in [WalkModel::DeepWalk, WalkModel::Node2Vec { p: 0.5, q: 2.0 }] {
            let result = run_distributed_walks(&g, &p, &WalkEngineConfig::distger_general(model));
            assert!(result.corpus.num_walks() >= g.num_nodes());
            let avg = result.avg_walk_length();
            assert!(avg < 80.0, "{} avg length {avg}", model.name());
        }
    }

    #[test]
    fn isolated_nodes_produce_singleton_walks() {
        let mut b = distger_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1);
        b.reserve_nodes(4); // nodes 2 and 3 are isolated
        let g = b.build();
        let p = Partitioning::single_machine(4);
        let cfg = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk);
        let result = run_distributed_walks(&g, &p, &cfg);
        let singleton_walks = result.corpus.view().iter().filter(|w| w.len() == 1).count();
        assert!(
            singleton_walks >= 2 * 10,
            "each isolated node yields singleton walks"
        );
    }

    #[test]
    fn directed_graph_walks_follow_arcs() {
        let mut b = distger_graph::GraphBuilder::new_directed();
        b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g = b.build();
        let p = Partitioning::single_machine(g.num_nodes());
        let mut cfg = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk);
        cfg.length = LengthPolicy::Fixed(10);
        cfg.walks_per_node = WalkCountPolicy::Fixed(1);
        let result = run_distributed_walks(&g, &p, &cfg);
        for walk in result.corpus.view().iter() {
            for pair in walk.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]), "directed arc must exist");
            }
        }
        // Node 3 is a sink: walks reaching it must stop there.
        assert!(result.corpus.view().iter().all(|w| w
            .iter()
            .position(|&v| v == 3)
            .is_none_or(|i| i == w.len() - 1)));
    }

    #[test]
    fn checkpointing_a_fault_free_run_changes_nothing() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let plain_cfg = WalkEngineConfig::distger().with_seed(31);
        let plain = run_distributed_walks(&g, &p, &plain_cfg);
        let supervised_cfg = plain_cfg
            .with_checkpoint_policy(CheckpointPolicy::every(1))
            .with_recovery_policy(RecoveryPolicy::retries(2));
        let supervised = run_distributed_walks(&g, &p, &supervised_cfg);
        assert_eq!(supervised.corpus, plain.corpus);
        assert_eq!(supervised.comm, plain.comm);
        assert_eq!(supervised.rounds, plain.rounds);
        assert_eq!(
            supervised.relative_entropy_trace,
            plain.relative_entropy_trace
        );
        assert_eq!(supervised.walker_peak_bytes, plain.walker_peak_bytes);
        assert_eq!(supervised.recovered_rounds, 0);
        // One snapshot per continued round: rounds − 1 (no snapshot after
        // the final round — the run ends instead).
        assert!(supervised.checkpoint_bytes > 0);
        assert!(supervised.checkpoint_secs >= 0.0);
        assert_eq!(plain.checkpoint_bytes, 0, "disabled policy encodes nothing");
    }

    #[test]
    fn injected_fault_recovers_bit_identical_to_fault_free() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let cfg = WalkEngineConfig::distger().with_seed(47);
        let fault_free = run_distributed_walks(&g, &p, &cfg);
        assert!(fault_free.rounds >= 3, "need rounds to inject into");

        let supervised_cfg = cfg
            .with_checkpoint_policy(CheckpointPolicy::every(1))
            .with_recovery_policy(RecoveryPolicy::retries(2));
        let faults = FaultPlan::default().panic_at(2, 2, 0).build();
        let recovered = run_distributed_walks_supervised(&g, &p, &supervised_cfg, Some(&faults))
            .expect("recovery within budget");
        assert_eq!(faults.injected_faults(), 1, "the fault must actually fire");
        assert_eq!(recovered.corpus, fault_free.corpus);
        assert_eq!(recovered.comm, fault_free.comm);
        assert_eq!(recovered.rounds, fault_free.rounds);
        assert_eq!(
            recovered.relative_entropy_trace,
            fault_free.relative_entropy_trace
        );
        // Crash in round 2 with a round-2 checkpoint: exactly the partial
        // round is re-executed.
        assert_eq!(recovered.recovered_rounds, 1);
    }

    #[test]
    fn recovery_without_checkpoints_replays_from_round_zero() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let cfg = WalkEngineConfig::distger().with_seed(47);
        let fault_free = run_distributed_walks(&g, &p, &cfg);
        let supervised_cfg = cfg.with_recovery_policy(RecoveryPolicy::retries(1));
        let faults = FaultPlan::default().panic_at(1, 2, 0).build();
        let recovered = run_distributed_walks_supervised(&g, &p, &supervised_cfg, Some(&faults))
            .expect("recovery within budget");
        assert_eq!(recovered.corpus, fault_free.corpus);
        assert_eq!(recovered.comm, fault_free.comm);
        // Rounds 0 and 1 completed, round 2 died: all three replay.
        assert_eq!(recovered.recovered_rounds, 3);
        assert_eq!(recovered.checkpoint_bytes, 0);
    }

    #[test]
    fn exhausted_recovery_surfaces_a_clean_error() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 4);
        let cfg = WalkEngineConfig::distger()
            .with_seed(47)
            .with_checkpoint_policy(CheckpointPolicy::every(1));
        // Faults in distinct rounds so each retry deterministically dies
        // again; retries(1) allows two attempts total.
        let faults = FaultPlan::default()
            .panic_at(0, 1, 0)
            .panic_at(1, 2, 0)
            .build();
        let err = run_distributed_walks_supervised(
            &g,
            &p,
            &cfg.with_recovery_policy(RecoveryPolicy::retries(1)),
            Some(&faults),
        )
        .expect_err("both attempts die");
        assert_eq!(err.attempts, 2);
        assert!(
            err.last_panic.contains("injected fault: machine 1 round"),
            "last panic was {}",
            err.last_panic
        );
    }

    #[test]
    #[should_panic(expected = "walks::dist::run_walks_over")]
    fn in_process_entry_point_rejects_socket_transport() {
        let g = test_graph();
        let p = workload_balanced_partition(&g, 2);
        let cfg = WalkEngineConfig::distger().with_transport(TransportKind::Socket);
        run_distributed_walks(&g, &p, &cfg);
    }

    #[test]
    fn builders_cover_every_field() {
        let cfg = WalkEngineConfig::distger()
            .with_model(WalkModel::DeepWalk)
            .with_length(LengthPolicy::routine())
            .with_walks_per_node(WalkCountPolicy::Fixed(3))
            .with_info_mode(InfoMode::FullPath)
            .with_transport(TransportKind::Socket)
            .with_seed(11)
            .with_max_supersteps(77);
        assert_eq!(cfg.model, WalkModel::DeepWalk);
        assert_eq!(cfg.length, LengthPolicy::routine());
        assert_eq!(cfg.walks_per_node, WalkCountPolicy::Fixed(3));
        assert_eq!(cfg.info_mode, InfoMode::FullPath);
        assert_eq!(cfg.transport, TransportKind::Socket);
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.max_supersteps, 77);
    }
}
