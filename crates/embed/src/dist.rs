//! The trainer: distributed Skip-Gram over a [`ControlChannel`] (§4.2).
//!
//! [`train_distributed_over`] is the one training body. An endpoint trains one
//! model replica per machine in the channel's
//! [`local_machines`](ControlChannel::local_machines): an
//! [`InMemoryTransport`](distger_cluster::InMemoryTransport) hosts every
//! machine in this process (that is
//! [`train_distributed`](crate::train_distributed)), a [`SocketTransport`]
//! spreads them over processes. The coordinator (endpoint 0) owns the corpus:
//! it broadcasts the per-node frequencies, from which every endpoint rebuilds
//! the same [`Vocab`], builds its own machines' rank-space shards straight
//! from the corpus, and scatters every other endpoint's shards as one
//! payload. Each endpoint then trains its machines chunk by chunk — on the
//! worker pool when it hosts several, on the calling thread when it hosts one
//! — and the replicas synchronize (full or hotness-block) at every chunk
//! boundary. A final gather averages `φ_in` over all machines.
//!
//! # One summation order, so every topology trains the same model
//!
//! A synchronized row and the final model are averages over all `m` machines,
//! summed by one rule: the coordinator adds its own replicas' rows, in machine
//! order, into a zeroed buffer; then each worker's per-machine rows (never
//! pre-summed on the worker) in ascending endpoint order, which is ascending
//! machine order because [`machine_split`] ranges are contiguous; then it
//! divides by `m`. So the `f32` bits depend on `m` alone. With
//! `config.threads == 1` (intra-machine Hogwild is the one nondeterministic
//! ingredient), `m` machines train bit-identical embeddings in one process or
//! on any number of socket endpoints: every endpoint also rebuilds the same
//! negative table and replica initialization from the frequencies and the
//! seed, and advances the same `sync_rng`, so [`select_sync_ranks`] picks the
//! same rows everywhere without coordination traffic. Rows travel as raw
//! `f32` bit patterns; nothing is encoded for the coordinator's own replicas.

use std::io;
use std::net::TcpListener;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use distger_cluster::wire::{invalid_data, put_f32s, put_u32, put_u32s, put_u64};
use distger_cluster::{
    gather_trace_events, machine_split, panic_message, run_rounds, CommStats, ControlChannel,
    FaultInjector, RecoveryExhausted, SocketTransport, WireReader,
};
use distger_walks::rng::SplitMix64;
use distger_walks::{Corpus, Walks};

use crate::embeddings::Embeddings;
use crate::hogwild::HogwildMatrix;
use crate::negative::NegativeTable;
use crate::sgns::SigmoidTable;
use crate::sync::{select_sync_ranks, ModelReplica};
use crate::trainer::{epoch_slice, train_machine_chunk, TrainStats, TrainerConfig};
use crate::vocab::Vocab;

/// Splits `corpus` over `(machines, endpoints)` as
/// [`Corpus::split_assignment`] does, in rank space and straight from the
/// corpus: each machine's shard is one exactly sized [`Walks`]. The shards of
/// `endpoint`'s machines are returned; every other endpoint gets one payload
/// holding its machines' shards in order, each as a `u64` walk count, the
/// `u32` walk lengths, then the `u32` ranks (`endpoint`'s own payload stays
/// empty). Also returns the bytes of the largest shard.
fn split_shards(
    corpus: &Corpus,
    vocab: &Vocab,
    (m, endpoints): (usize, usize),
    endpoint: usize,
) -> (Vec<Walks>, Vec<Vec<u8>>, usize) {
    let assignment = corpus.split_assignment(m);
    let (mut walks, mut tokens) = (vec![0usize; m], vec![0usize; m]);
    for (walk, &machine) in corpus.view().iter().zip(&assignment) {
        walks[machine] += 1;
        tokens[machine] += walk.len();
    }
    let mut largest_shard_bytes = 0;
    let mut shard_of = |machine: usize| {
        let mut shard = Walks::with_capacity(walks[machine], tokens[machine]);
        let owned = corpus.view().iter().zip(&assignment);
        for (walk, _) in owned.filter(|&(_, &owner)| owner == machine) {
            shard.push(walk.iter().map(|&node| vocab.rank_of(node)));
        }
        largest_shard_bytes = largest_shard_bytes.max(shard.memory_bytes());
        shard
    };
    let shards = machine_split(m, endpoints, endpoint)
        .map(&mut shard_of)
        .collect();
    let payloads = (0..endpoints)
        .map(|remote| {
            let machines = machine_split(m, endpoints, remote);
            if remote == endpoint {
                return Vec::new();
            }
            let bytes = machines.clone().map(|i| 8 + 4 * (walks[i] + tokens[i]));
            let mut out = Vec::with_capacity(bytes.sum());
            for machine in machines {
                let owned = shard_of(machine);
                let shard = owned.view();
                put_u64(&mut out, shard.len() as u64);
                for walk in shard.iter() {
                    put_u32(&mut out, walk.len() as u32);
                }
                put_u32s(&mut out, shard.tokens());
            }
            out
        })
        .collect();
    (shards, payloads, largest_shard_bytes)
}

/// Decodes this endpoint's shard payload: one shard per hosted machine,
/// every walk non-empty and every rank below `n`.
fn decode_shards(payload: &[u8], machines: usize, n: usize) -> io::Result<Vec<Walks>> {
    let mut r = WireReader::new(payload);
    let mut shards = Vec::with_capacity(machines);
    for _ in 0..machines {
        let walks = r.count_u64(4)?;
        let lengths = r.u32s(walks)?;
        let total = lengths
            .iter()
            .try_fold(0usize, |sum, &len| sum.checked_add(len as usize))
            .ok_or_else(|| invalid_data("shard walk lengths overflow"))?;
        let tokens = r.u32s(total)?;
        if tokens.iter().any(|&rank| rank as usize >= n) {
            return Err(invalid_data(format!("shard rank beyond {n} nodes")));
        }
        let shard = Walks::from_lengths(&lengths, tokens)
            .ok_or_else(|| invalid_data("empty walk in shard"))?;
        shards.push(shard);
    }
    r.finish()?;
    Ok(shards)
}

/// `sum += values`, element by element: the one `f32` accumulation behind
/// every average the trainer takes.
fn add_into(sum: &mut [f32], values: &[f32]) {
    for (s, v) in sum.iter_mut().zip(values) {
        *s += v;
    }
}

/// Adds one worker's gathered payload to `sum`: a block of `sum.len()` values
/// per machine it hosts, then whatever `read_counters` reads.
fn add_worker_payload(
    sum: &mut [f32],
    payload: &[u8],
    machines: usize,
    read_counters: impl FnOnce(&mut WireReader<'_>) -> io::Result<()>,
) -> io::Result<()> {
    let mut r = WireReader::new(payload);
    for _ in 0..machines {
        add_into(sum, &r.f32s(sum.len())?);
    }
    read_counters(&mut r)?;
    r.finish()
}

/// Averages one block of `floats` values per machine over every machine of
/// the job, under the summation rule of the module docs. A worker ships its
/// blocks followed by `counters` and gets an empty vector back; the
/// coordinator reads each worker's counters with `read_counters` and gets the
/// average.
fn average_over_machines<C: ControlChannel + ?Sized>(
    channel: &mut C,
    blocks: impl Iterator<Item = Vec<f32>>,
    floats: usize,
    counters: &[u64],
    mut read_counters: impl FnMut(&mut WireReader<'_>) -> io::Result<()>,
) -> io::Result<Vec<f32>> {
    let (m, endpoints) = (channel.num_machines(), channel.endpoints());
    let coordinator = channel.is_coordinator();
    let mut sum = vec![0.0f32; if coordinator { floats } else { 0 }];
    let mut payload = Vec::new();
    if !coordinator {
        payload.reserve_exact(channel.local_machines().len() * floats * 4 + counters.len() * 8);
    }
    for block in blocks {
        if coordinator {
            add_into(&mut sum, &block);
        } else {
            put_f32s(&mut payload, &block);
        }
    }
    if !coordinator {
        counters.iter().for_each(|&c| put_u64(&mut payload, c));
    }
    let gathered = channel.gather(&payload)?;
    drop(payload);
    for (endpoint, payload) in gathered.into_iter().enumerate().skip(1) {
        let machines = machine_split(m, endpoints, endpoint).len();
        add_worker_payload(&mut sum, &payload, machines, &mut read_counters)?;
    }
    sum.iter_mut().for_each(|x| *x /= m as f32);
    Ok(sum)
}

/// The rows one synchronization of `ranks` moves, in block order: each rank's
/// `φ_in` row, then its `φ_out` row.
fn synced_rows<'a>(
    replica: &'a ModelReplica,
    ranks: &'a [u32],
) -> impl Iterator<Item = (&'a HogwildMatrix, usize)> {
    let rows = move |&rank: &u32| {
        [
            (&replica.phi_in, rank as usize),
            (&replica.phi_out, rank as usize),
        ]
    };
    ranks.iter().flat_map(rows)
}

/// Replaces `ranks`' rows of both matrices in this endpoint's `replicas` by
/// their average over every machine of the job. A collective: every endpoint
/// calls it at the same chunk boundary.
fn synchronize<C: ControlChannel + ?Sized>(
    channel: &mut C,
    replicas: &[ModelReplica],
    ranks: &[u32],
    dim: usize,
) -> io::Result<()> {
    let floats = ranks.len() * 2 * dim;
    let blocks = replicas.iter().map(|replica| {
        let mut block = vec![0.0f32; floats];
        for (dst, (matrix, row)) in block.chunks_exact_mut(dim).zip(synced_rows(replica, ranks)) {
            matrix.copy_row_into(row, dst);
        }
        block
    });
    let mut averaged = average_over_machines(channel, blocks, floats, &[], |_| Ok(()))?;
    let mut payload = Vec::new();
    if channel.is_coordinator() && channel.endpoints() > 1 {
        put_f32s(&mut payload, &averaged);
    }
    let received = channel.broadcast(&payload)?;
    if !channel.is_coordinator() {
        let mut r = WireReader::new(&received);
        averaged = r.f32s(floats)?;
        r.finish()?;
    }
    for replica in replicas {
        for (src, (matrix, row)) in averaged.chunks_exact(dim).zip(synced_rows(replica, ranks)) {
            matrix.store_row(row, src);
        }
    }
    Ok(())
}

/// Runs distributed SGNS training over `channel`, one model replica per
/// machine the channel hosts (see the module docs).
///
/// The coordinator (endpoint 0) must pass `Some(corpus)`; workers pass
/// `None` (a worker's corpus argument is ignored). Returns
/// `Ok(Some((embeddings, stats)))` on the coordinator and `Ok(None)` on
/// workers. When `config.recovery` is enabled, a worker panic retries the
/// failed chunk under the policy; once the budget is spent the error wraps a
/// [`RecoveryExhausted`] ([`io::Error::downcast`] recovers it).
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] if the coordinator has no corpus, or if
/// `config.recovery` is enabled on a channel with several endpoints (peers
/// cannot be rolled back from here); transport failures and malformed peer
/// payloads are returned as they are.
pub fn train_distributed_over<C: ControlChannel + ?Sized>(
    channel: &mut C,
    corpus: Option<&Corpus>,
    config: &TrainerConfig,
) -> io::Result<Option<(Embeddings, TrainStats)>> {
    train_over(channel, corpus, config, None)
}

/// [`train_distributed_over`] that also injects the faults of a
/// [`FaultInjector`] into this endpoint's machines, at `(machine, chunk, 0)`
/// with absolute chunk indices, so they are stable across retries.
pub(crate) fn train_over<C: ControlChannel + ?Sized>(
    channel: &mut C,
    corpus: Option<&Corpus>,
    config: &TrainerConfig,
    faults: Option<&FaultInjector>,
) -> io::Result<Option<(Embeddings, TrainStats)>> {
    let invalid_input = |msg| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if config.recovery.is_enabled() && channel.endpoints() > 1 {
        return Err(invalid_input("recovery needs every machine in one process"));
    }
    let coordinator = channel.is_coordinator();
    let corpus = match (coordinator, corpus) {
        (true, None) => return Err(invalid_input("the coordinator must provide the corpus")),
        (true, corpus) => corpus,
        (false, _) => None,
    };

    // Header: node count, token count and per-node frequencies.
    let mut header = Vec::new();
    if let Some(corpus) = corpus {
        header.reserve_exact(16 + 8 * corpus.num_nodes());
        put_u64(&mut header, corpus.num_nodes() as u64);
        put_u64(&mut header, corpus.total_tokens() as u64);
        corpus
            .frequencies()
            .iter()
            .for_each(|&f| put_u64(&mut header, f));
    }
    let header = channel.broadcast(&header)?;
    let mut r = WireReader::new(&header);
    let n = r.count_u64(8)?;
    let total_tokens = r.u64()?;
    let freqs = (0..n).map(|_| r.u64()).collect::<io::Result<Vec<_>>>()?;
    r.finish()?;
    if n == 0 || total_tokens == 0 {
        let empty = (Embeddings::zeros(n, config.dim), TrainStats::default());
        return Ok(coordinator.then_some(empty));
    }
    let vocab = Vocab::from_frequencies(&freqs);

    let (m, endpoints) = (channel.num_machines(), channel.endpoints());
    let local = channel.local_machines();
    let (shards, largest_shard_bytes) = match corpus {
        Some(corpus) => {
            let (shards, payloads, largest_shard_bytes) =
                split_shards(corpus, &vocab, (m, endpoints), channel.endpoint());
            channel.scatter(&payloads)?;
            (shards, largest_shard_bytes)
        }
        None => (decode_shards(&channel.scatter(&[])?, local.len(), n)?, 0),
    };

    // Deterministic local setup — identical on every endpoint.
    let table = NegativeTable::from_vocab(&vocab);
    let sigmoid = SigmoidTable::new();
    let replicas: Vec<ModelReplica> = local
        .clone()
        .map(|_| ModelReplica::new(n, config.dim, config.seed))
        .collect();
    let mut sync_rng = SplitMix64::new(config.seed ^ 0x5f3c_9a1d);
    let slices = config.sync_rounds_per_epoch.max(1);
    let total_chunks = config.epochs * slices;
    // A pure function of the chunk index, so workers compute it locally.
    let lr_for = |chunk: usize| {
        let progress = chunk as f32 / total_chunks as f32;
        config.learning_rate - (config.learning_rate - config.min_learning_rate) * progress
    };

    // Worker panics are caught (retried or surfaced as a clean error) only
    // when faults or a recovery policy are in play; otherwise they propagate
    // with their own payload.
    let supervised = faults.is_some() || config.recovery.is_enabled();
    let mut sync_comm = CommStats::new();
    let (mut pairs_processed, mut peak_buffer_bytes) = (0u64, 0usize);
    let (mut superstep_sync_secs, mut recovered_chunks) = (0.0f64, 0u64);
    let mut failure = None;
    let start = Instant::now();
    // Workers hold `&replicas[i]` (Hogwild matrices are interior-mutable);
    // the control phase synchronizes between chunks while they are parked.
    //
    // Recovery: the live replicas plus `completed_chunks` are the checkpoint.
    // A crashed attempt loses only the chunk that died — every earlier chunk
    // was harvested and synchronized at its boundary — so the retry resumes
    // at `base_chunk = completed_chunks`. Machines train absolute chunk
    // `base_chunk + generation`, which keeps the learning-rate schedule and
    // fault coordinates stable across attempts.
    let (mut completed_chunks, mut attempt) = (0usize, 0u32);
    loop {
        let base_chunk = completed_chunks;
        // Fresh result slots per attempt: a crashed attempt's partially
        // written slots are never harvested.
        let chunk_results: Vec<Mutex<(u64, usize)>> =
            replicas.iter().map(|_| Mutex::new((0, 0))).collect();
        let mut control = |generation: u64| {
            if generation > 0 {
                for slot in &chunk_results {
                    let (pairs, buffer_bytes) = *slot.lock().unwrap();
                    pairs_processed += pairs;
                    peak_buffer_bytes = peak_buffer_bytes.max(buffer_bytes);
                }
                let ranks = select_sync_ranks(config.sync, &vocab, &mut sync_rng);
                if m > 1 && !ranks.is_empty() {
                    let round = completed_chunks;
                    let _span =
                        distger_obs::span!("replica_sync", machine = local.start, round = round);
                    if let Err(err) = synchronize(channel, &replicas, &ranks, config.dim) {
                        failure = Some(err);
                        return false;
                    }
                    // Each machine uploads and downloads each synchronized
                    // row of each matrix once.
                    for _ in 0..ranks.len() * 2 * 2 * m {
                        sync_comm.record_message(config.dim * std::mem::size_of::<f32>());
                    }
                }
                completed_chunks += 1;
            }
            completed_chunks < total_chunks
        };
        let work = |index: usize, generation: u64| {
            let machine = local.start + index;
            let chunk = base_chunk + generation as usize;
            if let Some(injector) = faults {
                injector.trip(machine, chunk as u64, 0);
            }
            let _span = distger_obs::span!("train_chunk", machine = machine, round = chunk);
            let slice = epoch_slice(shards[index].view(), chunk % slices, slices);
            let (replica, lr) = (&replicas[index], lr_for(chunk));
            let result =
                train_machine_chunk(replica, slice, &table, &sigmoid, config, lr, machine as u64);
            *chunk_results[index].lock().unwrap() = result;
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            if replicas.len() > 1 {
                return run_rounds(replicas.len(), control, work).sync_secs;
            }
            // A lone machine alternates with the control phases on this
            // thread: no second thread, no barrier to cross.
            let mut generation = 0;
            while control(generation) {
                work(0, generation);
                generation += 1;
            }
            0.0
        }));
        match run {
            Ok(sync_secs) => {
                superstep_sync_secs += sync_secs;
                break;
            }
            Err(payload) if supervised => {
                attempt += 1;
                recovered_chunks += 1;
                if attempt > config.recovery.max_retries {
                    let last_panic = panic_message(payload.as_ref());
                    let attempts = attempt;
                    return Err(io::Error::other(RecoveryExhausted {
                        attempts,
                        last_panic,
                    }));
                }
                std::thread::sleep(config.recovery.backoff_for(attempt));
            }
            Err(payload) => resume_unwind(payload),
        }
    }
    if let Some(err) = failure {
        return Err(err);
    }
    let training_secs = start.elapsed().as_secs_f64();

    // Final gather: the model is every machine's φ_in, averaged. The negative
    // table and the shards go first, each replica as soon as its rows are
    // taken.
    let model_bytes = replicas[0].memory_bytes() + table.memory_bytes();
    drop((table, shards));
    let counters = [pairs_processed, peak_buffer_bytes as u64];
    let rows = replicas
        .into_iter()
        .map(|replica| replica.phi_in.into_vec());
    let rank_major = average_over_machines(channel, rows, n * config.dim, &counters, |r| {
        pairs_processed += r.u64()?;
        peak_buffer_bytes = peak_buffer_bytes.max(r.u64()? as usize);
        Ok(())
    })?;
    // Cross-process trace merge: every endpoint ships its training spans to
    // the coordinator (a no-op collective when tracing is disabled).
    gather_trace_events(channel)?;
    if !coordinator {
        return Ok(None);
    }
    let mut node_major = vec![0.0f32; n * config.dim];
    for (rank, row) in rank_major.chunks_exact(config.dim).enumerate() {
        let node = vocab.node_at(rank as u32) as usize;
        node_major[node * config.dim..(node + 1) * config.dim].copy_from_slice(row);
    }

    let stats = TrainStats {
        pairs_processed,
        corpus_tokens: total_tokens,
        training_secs,
        throughput_pairs_per_sec: if training_secs > 0.0 {
            pairs_processed as f64 / training_secs
        } else {
            0.0
        },
        sync_comm,
        superstep_sync_secs,
        avg_machine_memory_bytes: model_bytes + largest_shard_bytes + peak_buffer_bytes,
        recovered_chunks,
    };
    Ok(Some((
        Embeddings::from_node_major(node_major, config.dim),
        stats,
    )))
}

/// Test/bench harness: [`train_distributed_over`] with `machines` machines
/// split over `endpoints` [`SocketTransport`]s connected by real loopback TCP
/// — worker endpoints on scoped threads, the coordinator on the calling
/// thread — returning the coordinator's result. At `config.threads == 1` it
/// is bit-identical to [`train_distributed`](crate::train_distributed) on
/// `machines` machines.
pub fn train_distributed_over_loopback(
    corpus: &Corpus,
    machines: usize,
    config: &TrainerConfig,
    endpoints: usize,
) -> (Embeddings, TrainStats) {
    assert!(endpoints > 0, "need at least one endpoint");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("loopback listener address");
    std::thread::scope(|scope| {
        for _ in 1..endpoints {
            scope.spawn(move || {
                let mut transport =
                    SocketTransport::worker(addr, Duration::from_secs(10)).expect("worker connect");
                let result = train_distributed_over(&mut transport, None, config)
                    .expect("worker training run");
                assert!(result.is_none(), "workers return no result");
            });
        }
        let mut transport = SocketTransport::coordinator(&listener, endpoints, machines)
            .expect("coordinator accept");
        train_distributed_over(&mut transport, Some(corpus), config)
            .expect("coordinator training run")
            .expect("coordinator returns the result")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_distributed;
    use distger_cluster::{InMemoryTransport, RecoveryPolicy};

    fn corpus(seed: u64) -> Corpus {
        let mut rng = SplitMix64::new(seed);
        let walks = (0..40)
            .map(|_| (0..12).map(|_| rng.next_bounded(30) as u32).collect())
            .collect();
        Corpus::from_walks(walks, 30)
    }

    fn deterministic_config() -> TrainerConfig {
        TrainerConfig::small().with_dim(8).with_threads(1)
    }

    fn assert_bit_identical(got: &Embeddings, want: &Embeddings, case: &str) {
        assert_eq!(got.num_nodes(), want.num_nodes(), "{case}");
        for v in 0..want.num_nodes() as u32 {
            assert_eq!(got.vector(v), want.vector(v), "node {v}, {case}");
        }
    }

    #[test]
    fn single_endpoint_in_memory_matches_classic_trainer() {
        let corpus = corpus(7);
        let config = deterministic_config();
        let (classic, classic_stats) = train_distributed(&corpus, 1, &config);
        let mut transport = InMemoryTransport::new(1);
        let (dist, dist_stats) = train_distributed_over(&mut transport, Some(&corpus), &config)
            .expect("in-memory run")
            .expect("coordinator result");
        assert_bit_identical(&dist, &classic, "one machine");
        assert_eq!(dist_stats.pairs_processed, classic_stats.pairs_processed);
        assert_eq!(dist_stats.sync_comm, classic_stats.sync_comm);
    }

    #[test]
    fn loopback_socket_training_is_bit_identical_to_in_process() {
        for &endpoints in &[2usize, 3] {
            let corpus = corpus(11);
            let config = deterministic_config();
            let (classic, classic_stats) = train_distributed(&corpus, endpoints, &config);
            let (dist, dist_stats) =
                train_distributed_over_loopback(&corpus, endpoints, &config, endpoints);
            assert_bit_identical(&dist, &classic, &format!("{endpoints} endpoints"));
            assert_eq!(dist_stats.pairs_processed, classic_stats.pairs_processed);
            assert_eq!(dist_stats.sync_comm, classic_stats.sync_comm);
        }
    }

    /// The model depends on the machine count alone: any spread of `m`
    /// machines over endpoints trains what `m` in-process machines train.
    #[test]
    fn any_topology_of_m_machines_trains_the_in_process_model() {
        for (machines, endpoints) in [(4, 2), (4, 3), (5, 2), (3, 1)] {
            for seed in [11, 23] {
                let corpus = corpus(seed);
                let config = deterministic_config();
                let (classic, classic_stats) = train_distributed(&corpus, machines, &config);
                let (dist, dist_stats) =
                    train_distributed_over_loopback(&corpus, machines, &config, endpoints);
                let case = format!("{machines} machines on {endpoints} endpoints, seed {seed}");
                assert_bit_identical(&dist, &classic, &case);
                assert_eq!(
                    dist_stats.pairs_processed, classic_stats.pairs_processed,
                    "{case}"
                );
                assert_eq!(dist_stats.sync_comm, classic_stats.sync_comm, "{case}");
            }
        }
    }

    #[test]
    fn empty_corpus_returns_zeros_everywhere() {
        let corpus = Corpus::from_walks(Vec::new(), 0);
        let config = deterministic_config();
        let mut transport = InMemoryTransport::new(1);
        let (dist, stats) = train_distributed_over(&mut transport, Some(&corpus), &config)
            .expect("empty run")
            .expect("coordinator result");
        assert_eq!(dist.num_nodes(), 0);
        assert_eq!(stats.pairs_processed, 0);
    }

    #[test]
    fn synchronization_averages_rows_over_machines() {
        let replicas = [ModelReplica::new(4, 2, 7), ModelReplica::new(4, 2, 7)];
        replicas[0].phi_in.store_row(1, &[1.0, 3.0]);
        replicas[1].phi_in.store_row(1, &[3.0, 5.0]);
        synchronize(&mut InMemoryTransport::new(2), &replicas, &[1], 2).expect("in memory");
        let mut buf = [0.0f32; 2];
        for replica in &replicas {
            replica.phi_in.copy_row_into(1, &mut buf);
            assert_eq!(buf, [2.0, 4.0]);
        }
    }

    #[test]
    fn hostile_shard_and_worker_payloads_never_panic() {
        use distger_cluster::wire::testing::assert_total;
        let corpus = corpus(5);
        let vocab = Vocab::from_frequencies(corpus.frequencies());
        // 4 machines on 2 endpoints: the coordinator encodes machines 2 and 3
        // for endpoint 1, which decodes exactly the shards it would build.
        let (mine, payloads, largest) = split_shards(&corpus, &vocab, (4, 2), 0);
        let (own, _, _) = split_shards(&corpus, &vocab, (4, 2), 1);
        assert_eq!(decode_shards(&payloads[1], 2, 30).unwrap(), own);
        assert_total(&payloads[1], |bytes| decode_shards(bytes, 2, 30));
        // Same bytes as one u32 length prefix per walk: 8 + 4·(walks + tokens).
        let walks: usize = own.iter().map(|shard| shard.view().len()).sum();
        let tokens: usize = own.iter().map(|shard| shard.view().tokens().len()).sum();
        assert_eq!(payloads[1].len(), 2 * 8 + 4 * (walks + tokens));
        // The largest of all four shards, offsets included.
        let all = mine.iter().chain(&own);
        assert_eq!(Some(largest), all.map(Walks::memory_bytes).max());

        // Directed lies, one machine each: the offending field is rejected
        // before anything is sized by it.
        let shard = |lengths: &[u32], ranks: &[u32]| {
            let mut payload = Vec::new();
            put_u64(&mut payload, lengths.len() as u64);
            lengths.iter().for_each(|&len| put_u32(&mut payload, len));
            put_u32s(&mut payload, ranks);
            decode_shards(&payload, 1, 30)
        };
        assert_eq!(shard(&[2, 1], &[4, 5, 6]).unwrap()[0].view().walk(1), [6]);
        let eof = Some(io::ErrorKind::UnexpectedEof);
        let overrun = shard(&[2, 3], &[4, 5, 6]);
        assert_eq!(
            overrun.err().map(|e| e.kind()),
            eof,
            "lengths overrun ranks"
        );
        // 2·2^31 wraps to 0 in u32, which would match an empty rank section.
        let wrapped = shard(&[1 << 31, 1 << 31], &[]);
        assert_eq!(
            wrapped.err().map(|e| e.kind()),
            eof,
            "length sum overflows u32"
        );
        let err = shard(&[2, 1], &[4, 30, 6]).unwrap_err();
        assert!(err.to_string().contains("rank beyond 30"), "{err}");
        let err = shard(&[0, 3], &[4, 5, 6]).unwrap_err();
        assert!(err.to_string().contains("empty walk"), "{err}");
        assert!(decode_shards(&payloads[1], 2, 1).is_err(), "ranks beyond n");

        // A worker hosting two machines ships two blocks, then its counters.
        let floats = 24;
        let mut payload = Vec::new();
        put_f32s(&mut payload, &vec![0.5f32; 2 * floats]);
        put_u64(&mut payload, 99);
        put_u64(&mut payload, 4096);
        let mut sum = vec![0.0f32; floats];
        let mut counters = Vec::new();
        add_worker_payload(&mut sum, &payload, 2, |r| {
            counters = vec![r.u64()?, r.u64()?];
            Ok(())
        })
        .unwrap();
        assert_eq!((sum, counters), (vec![1.0; floats], vec![99, 4096]));
        let read_counters = |r: &mut WireReader<'_>| r.u64().and_then(|_| r.u64()).map(drop);
        assert_total(&payload, |bytes| {
            add_worker_payload(&mut vec![0.0; floats], bytes, 2, read_counters)
        });
    }

    #[test]
    fn a_coordinator_without_a_corpus_is_invalid_input() {
        let err = train_distributed_over(
            &mut InMemoryTransport::new(2),
            None,
            &deterministic_config(),
        )
        .expect_err("no corpus to train on");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn recovery_works_in_memory_and_is_rejected_across_endpoints() {
        let corpus = corpus(3);
        let config = deterministic_config().with_recovery_policy(RecoveryPolicy::retries(1));
        // In memory every machine is here to roll back: the one body runs
        // the policy, and a fault-free run is the plain run.
        let (recovering, _) =
            train_distributed_over(&mut InMemoryTransport::new(2), Some(&corpus), &config)
                .expect("in-memory run")
                .expect("coordinator result");
        let (plain, _) = train_distributed(&corpus, 2, &deterministic_config());
        assert_bit_identical(&recovering, &plain, "recovery policy, no fault");

        // Across endpoints both sides refuse before the first collective.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut transport =
                    SocketTransport::worker(addr, Duration::from_secs(10)).expect("connect");
                train_distributed_over(&mut transport, None, &config).map(|_| ())
            });
            let mut transport = SocketTransport::coordinator(&listener, 2, 2).expect("accept");
            let err = train_distributed_over(&mut transport, Some(&corpus), &config)
                .expect_err("recovery is rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let err = worker
                .join()
                .unwrap()
                .expect_err("the worker rejects it too");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        });
    }

    #[test]
    fn hotness_block_sync_stays_bit_identical() {
        let corpus = corpus(19);
        let config = deterministic_config().with_sync(crate::SyncStrategy::HotnessBlock);
        let (classic, _) = train_distributed(&corpus, 2, &config);
        let (dist, _) = train_distributed_over_loopback(&corpus, 2, &config, 2);
        assert_bit_identical(&dist, &classic, "hotness-block sync");
    }
}
