//! Multi-process distributed training: the trainer's replica synchronization
//! expressed over a [`ControlChannel`], so the replicas can live in separate
//! processes connected by sockets.
//!
//! One endpoint hosts one model replica. The coordinator (endpoint 0) owns
//! the corpus; workers receive the vocabulary frequencies and their corpus
//! shard over the wire, train locally, and exchange parameter rows at every
//! synchronization boundary.
//!
//! # Bit-identity with the in-process trainer
//!
//! With `config.threads == 1` (intra-machine Hogwild is the one
//! nondeterministic ingredient), `train_distributed_over` on `m` endpoints
//! produces embeddings **bit-identical** to
//! [`train_distributed`](crate::train_distributed) on `m` in-process
//! machines:
//!
//! * every endpoint rebuilds the same [`Vocab`] from the broadcast
//!   frequencies ([`Vocab::from_frequencies`] is a deterministic sort) and
//!   the same negative table, sigmoid table, and replica initialization from
//!   the shared seed;
//! * every endpoint advances an identical `sync_rng`, so
//!   [`select_sync_ranks`] picks the same rows everywhere without any
//!   coordination traffic;
//! * row averaging accumulates the endpoint contributions in ascending
//!   endpoint order — the same `f32` summation order as
//!   [`synchronize_replicas`](crate::sync::synchronize_replicas) — and the
//!   final model gather mirrors [`gather_phi_in`](crate::sync::gather_phi_in)
//!   the same way.
//!
//! Parameter rows travel as raw `f32` bit patterns (no text round trip), so
//! no precision is lost on the wire.

use std::io;
use std::net::TcpListener;
use std::time::Duration;

use distger_cluster::wire::{invalid_data, put_f32s, put_u32, put_u64};
use distger_cluster::{
    gather_trace_events, CommStats, ControlChannel, SocketTransport, WireReader,
};
use distger_walks::rng::SplitMix64;
use distger_walks::Corpus;

use crate::embeddings::Embeddings;
use crate::negative::NegativeTable;
use crate::sgns::SigmoidTable;
use crate::sync::{select_sync_ranks, ModelReplica};
use crate::trainer::{epoch_slice, train_machine_chunk, TrainStats, TrainerConfig};
use crate::vocab::Vocab;

/// Encodes the `m` rank-space training shards of `corpus` — the walks of
/// [`Corpus::split`], in the same order — one exactly sized payload per
/// endpoint, plus the token bytes of the largest shard. Straight from the
/// corpus, never through owned shards: a copy of every walk and a rank-space
/// copy are two more corpora of short-lived small allocations, and whether
/// the allocator returns that much afterwards is a coin flip per run.
fn encode_shards(corpus: &Corpus, vocab: &Vocab, m: usize) -> (Vec<Vec<u8>>, usize) {
    let assignment = corpus.split_assignment(m);
    let mut walks = vec![0usize; m];
    let mut tokens = vec![0usize; m];
    for (walk, &part) in corpus.walks().iter().zip(&assignment) {
        walks[part] += 1;
        tokens[part] += walk.len();
    }
    let mut payloads: Vec<Vec<u8>> = (0..m)
        .map(|part| {
            let mut out = Vec::with_capacity(8 + 4 * (walks[part] + tokens[part]));
            put_u64(&mut out, walks[part] as u64);
            out
        })
        .collect();
    for (walk, &part) in corpus.walks().iter().zip(&assignment) {
        let out = &mut payloads[part];
        put_u32(out, walk.len() as u32);
        for &node in walk {
            put_u32(out, vocab.rank_of(node));
        }
    }
    let largest_shard_bytes = tokens.iter().max().map_or(0, |&t| t * 4);
    (payloads, largest_shard_bytes)
}

fn decode_shard(payload: &[u8]) -> io::Result<Vec<Vec<u32>>> {
    let mut r = WireReader::new(payload);
    let walks = r.count_u64(4)?;
    let mut shard = Vec::with_capacity(walks);
    for _ in 0..walks {
        let len = r.count_u32(4)?;
        shard.push(r.u32s(len)?);
    }
    r.finish()?;
    Ok(shard)
}

/// Appends the selected rows of both matrices as `f32` bit patterns.
fn encode_rows(replica: &ModelReplica, ranks: &[u32], dim: usize, out: &mut Vec<u8>) {
    let mut buf = vec![0.0f32; dim];
    for &rank in ranks {
        for matrix in [&replica.phi_in, &replica.phi_out] {
            matrix.copy_row_into(rank as usize, &mut buf);
            put_f32s(out, &buf);
        }
    }
}

/// Averages the per-endpoint row payloads in ascending endpoint order — the
/// same `f32` accumulation order as the in-process
/// [`synchronize_replicas`](crate::sync::synchronize_replicas) — and returns
/// the averaged payload in the same layout.
fn average_row_payloads(payloads: &[Vec<u8>], rows: usize, dim: usize) -> io::Result<Vec<u8>> {
    let m = payloads.len();
    let floats = rows * dim;
    let mut avg = vec![0.0f32; floats];
    for payload in payloads {
        let mut r = WireReader::new(payload);
        let row = r.f32s(floats)?;
        r.finish()?;
        for (a, b) in avg.iter_mut().zip(&row) {
            *a += b;
        }
    }
    for a in avg.iter_mut() {
        *a /= m as f32;
    }
    let mut out = Vec::with_capacity(floats * 4);
    put_f32s(&mut out, &avg);
    Ok(out)
}

/// Stores an averaged row payload back into both matrices of `replica`.
fn store_rows(replica: &ModelReplica, ranks: &[u32], dim: usize, payload: &[u8]) -> io::Result<()> {
    let mut r = WireReader::new(payload);
    let rows = r.f32s(ranks.len() * 2 * dim)?;
    r.finish()?;
    for (&rank, pair) in ranks.iter().zip(rows.chunks_exact(2 * dim)) {
        replica.phi_in.store_row(rank as usize, &pair[..dim]);
        replica.phi_out.store_row(rank as usize, &pair[dim..]);
    }
    Ok(())
}

/// Decodes one endpoint's final-gather payload: its full `φ_in` (`floats`
/// values, rank-major), then its pair count and peak buffer bytes.
fn decode_model(payload: &[u8], floats: usize) -> io::Result<(Vec<f32>, u64, u64)> {
    let mut r = WireReader::new(payload);
    let model = (r.f32s(floats)?, r.u64()?, r.u64()?);
    r.finish()?;
    Ok(model)
}

/// Runs distributed SGNS training over `channel`, one model replica per
/// endpoint.
///
/// The coordinator (endpoint 0) must pass `Some(corpus)`; workers pass
/// `None` (a worker's corpus argument is ignored). Returns
/// `Ok(Some((embeddings, stats)))` on the coordinator and `Ok(None)` on
/// workers.
///
/// `config.transport` is ignored because the transport in hand decides how
/// messages move.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] if `config.recovery` is enabled (chunk
/// retry is a facility of the in-process trainer); transport failures and
/// malformed peer payloads are returned as they are.
pub fn train_distributed_over<C: ControlChannel + ?Sized>(
    channel: &mut C,
    corpus: Option<&Corpus>,
    config: &TrainerConfig,
) -> io::Result<Option<(Embeddings, TrainStats)>> {
    if config.recovery.is_enabled() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "recovery is not supported by the multi-process trainer",
        ));
    }
    let m = channel.endpoints();
    let coordinator = channel.is_coordinator();
    let endpoint = channel.endpoint();

    // Header: node count, token count, and per-node frequencies. Every
    // endpoint rebuilds the identical Vocab from them.
    let header = if coordinator {
        let corpus = corpus.expect("coordinator must provide the corpus");
        let freqs = corpus.node_frequencies();
        let mut out = Vec::with_capacity(16 + freqs.len() * 8);
        put_u64(&mut out, corpus.num_nodes() as u64);
        put_u64(&mut out, corpus.total_tokens() as u64);
        for &f in &freqs {
            put_u64(&mut out, f);
        }
        channel.broadcast(&out)?
    } else {
        channel.broadcast(&[])?
    };
    let mut r = WireReader::new(&header);
    let n = r.count_u64(8)?;
    let total_tokens = r.u64()?;
    let mut freqs = Vec::with_capacity(n);
    for _ in 0..n {
        freqs.push(r.u64()?);
    }
    r.finish()?;

    if n == 0 || total_tokens == 0 {
        return Ok(if coordinator {
            Some((Embeddings::zeros(n, config.dim), TrainStats::default()))
        } else {
            None
        });
    }

    let vocab = Vocab::from_frequencies(&freqs);
    if vocab.len() != n {
        return Err(invalid_data("vocabulary size disagrees with header"));
    }

    // Shard the corpus in rank space (identical to the in-process trainer)
    // and scatter one shard per endpoint. The coordinator keeps all shard
    // sizes for the memory accounting of the final stats.
    let mut coordinator_shard_bytes = 0usize;
    let shard_payload = if coordinator {
        let corpus = corpus.expect("coordinator must provide the corpus");
        let (payloads, largest_shard_bytes) = encode_shards(corpus, &vocab, m);
        coordinator_shard_bytes = largest_shard_bytes;
        channel.scatter(&payloads)?
    } else {
        channel.scatter(&[])?
    };
    let shard = decode_shard(&shard_payload)?;
    drop(shard_payload);

    // Deterministic local setup — identical on every endpoint.
    let table = NegativeTable::from_vocab(&vocab);
    let sigmoid = SigmoidTable::new();
    let replica = ModelReplica::new(n, config.dim, config.seed);
    let mut sync_rng = SplitMix64::new(config.seed ^ 0x5f3c_9a1d);
    let total_chunks = (config.epochs * config.sync_rounds_per_epoch).max(1);
    let lr_for = |chunk: usize| {
        let progress = chunk as f32 / total_chunks as f32;
        config.learning_rate - (config.learning_rate - config.min_learning_rate) * progress
    };

    let mut sync_comm = CommStats::new();
    let mut pairs_processed = 0u64;
    let mut peak_buffer_bytes = 0usize;
    let start = std::time::Instant::now();

    for chunk in 0..total_chunks {
        let slice_idx = chunk % config.sync_rounds_per_epoch.max(1);
        let slice = epoch_slice(&shard, slice_idx, config.sync_rounds_per_epoch);
        let (pairs, buffer_bytes) = {
            let _chunk_span = distger_obs::span!("train_chunk", machine = endpoint, round = chunk);
            train_machine_chunk(
                &replica,
                slice,
                &table,
                &sigmoid,
                config,
                lr_for(chunk),
                endpoint as u64,
            )
        };
        pairs_processed += pairs;
        peak_buffer_bytes = peak_buffer_bytes.max(buffer_bytes);

        // Every endpoint advances the same rng, so the rank selection needs
        // no coordination traffic.
        let ranks = select_sync_ranks(config.sync, &vocab, &mut sync_rng);
        if m <= 1 || ranks.is_empty() {
            continue;
        }
        let _sync_span = distger_obs::span!("replica_sync", machine = endpoint, round = chunk);
        let mut payload = Vec::with_capacity(ranks.len() * 2 * config.dim * 4);
        encode_rows(&replica, &ranks, config.dim, &mut payload);
        let gathered = channel.gather(&payload)?;
        let averaged = if coordinator {
            let averaged = average_row_payloads(&gathered, ranks.len() * 2, config.dim)?;
            // Traffic mirrors synchronize_replicas: each machine uploads and
            // downloads each synchronized row of each matrix once.
            for _ in 0..(ranks.len() * 2) {
                for _ in 0..(2 * m) {
                    sync_comm.record_message(config.dim * std::mem::size_of::<f32>());
                }
            }
            channel.broadcast(&averaged)?
        } else {
            channel.broadcast(&[])?
        };
        store_rows(&replica, &ranks, config.dim, &averaged)?;
    }
    let training_secs = start.elapsed().as_secs_f64();

    // Final gather: each endpoint ships its full φ_in plus its local
    // counters; the coordinator averages in endpoint order (the same order
    // as the in-process gather_phi_in) and maps rank-major rows back to
    // node ids.
    let mut payload = Vec::with_capacity(n * config.dim * 4 + 16);
    let mut buf = vec![0.0f32; config.dim];
    for rank in 0..n {
        replica.phi_in.copy_row_into(rank, &mut buf);
        put_f32s(&mut payload, &buf);
    }
    put_u64(&mut payload, pairs_processed);
    put_u64(&mut payload, peak_buffer_bytes as u64);
    // The model is encoded: free replica, negative table and shard before
    // the gather, so the averaging buffers do not come on top of them.
    let model_bytes = replica.memory_bytes() + table.memory_bytes();
    drop((replica, table, shard));
    let gathered = channel.gather(&payload)?;
    drop(payload);
    // Cross-process trace merge: every endpoint ships its training spans to
    // the coordinator at the end of the run (a no-op collective when tracing
    // is disabled).
    gather_trace_events(channel)?;
    if !coordinator {
        return Ok(None);
    }

    let floats = n * config.dim;
    let mut rank_major = vec![0.0f32; floats];
    let mut total_pairs = 0u64;
    let mut max_buffer_bytes = 0usize;
    for endpoint_payload in gathered {
        let (rows, pairs, buffer_bytes) = decode_model(&endpoint_payload, floats)?;
        for (o, b) in rank_major.iter_mut().zip(&rows) {
            *o += b;
        }
        total_pairs += pairs;
        max_buffer_bytes = max_buffer_bytes.max(buffer_bytes as usize);
    }
    for x in rank_major.iter_mut() {
        *x /= m as f32;
    }
    let mut node_major = vec![0.0f32; floats];
    for rank in 0..n as u32 {
        let node = vocab.node_at(rank) as usize;
        let src = &rank_major[rank as usize * config.dim..(rank as usize + 1) * config.dim];
        node_major[node * config.dim..(node + 1) * config.dim].copy_from_slice(src);
    }

    let stats = TrainStats {
        pairs_processed: total_pairs,
        corpus_tokens: total_tokens,
        training_secs,
        throughput_pairs_per_sec: if training_secs > 0.0 {
            total_pairs as f64 / training_secs
        } else {
            0.0
        },
        sync_comm,
        superstep_sync_secs: 0.0,
        avg_machine_memory_bytes: model_bytes + coordinator_shard_bytes + max_buffer_bytes,
        recovered_chunks: 0,
    };
    Ok(Some((
        Embeddings::from_node_major(node_major, config.dim),
        stats,
    )))
}

/// Test/bench harness: runs [`train_distributed_over`] across `endpoints`
/// processes' worth of [`SocketTransport`]s connected over real loopback TCP
/// — worker endpoints on scoped threads, the coordinator on the calling
/// thread — and returns the coordinator's result.
pub fn train_distributed_over_loopback(
    corpus: &Corpus,
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
        let mut transport = SocketTransport::coordinator(&listener, endpoints, endpoints)
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
    use distger_cluster::InMemoryTransport;

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

    #[test]
    fn single_endpoint_in_memory_matches_classic_trainer() {
        let corpus = corpus(7);
        let config = deterministic_config();
        let (classic, classic_stats) = train_distributed(&corpus, 1, &config);
        let mut transport = InMemoryTransport::new(1);
        let (dist, dist_stats) = train_distributed_over(&mut transport, Some(&corpus), &config)
            .expect("in-memory run")
            .expect("coordinator result");
        for v in 0..corpus.num_nodes() as u32 {
            assert_eq!(dist.vector(v), classic.vector(v), "node {v}");
        }
        assert_eq!(dist_stats.pairs_processed, classic_stats.pairs_processed);
        assert_eq!(dist_stats.sync_comm, classic_stats.sync_comm);
    }

    #[test]
    fn loopback_socket_training_is_bit_identical_to_in_process() {
        for &endpoints in &[2usize, 3] {
            let corpus = corpus(11);
            let config = deterministic_config();
            let (classic, classic_stats) = train_distributed(&corpus, endpoints, &config);
            let (dist, dist_stats) = train_distributed_over_loopback(&corpus, &config, endpoints);
            for v in 0..corpus.num_nodes() as u32 {
                assert_eq!(
                    dist.vector(v),
                    classic.vector(v),
                    "node {v} with {endpoints} endpoints"
                );
            }
            assert_eq!(dist_stats.pairs_processed, classic_stats.pairs_processed);
            assert_eq!(dist_stats.sync_comm, classic_stats.sync_comm);
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
    fn hostile_shard_row_and_model_payloads_never_panic() {
        use distger_cluster::wire::testing::assert_total;
        let corpus = corpus(5);
        let vocab = Vocab::from_frequencies(&corpus.node_frequencies());
        let (shards, _) = encode_shards(&corpus, &vocab, 8);
        assert_total(&shards[0], decode_shard);

        let (dim, ranks) = (4, [0u32, 7, 29]);
        let replica = ModelReplica::new(30, dim, 1);
        let mut rows = Vec::new();
        encode_rows(&replica, &ranks, dim, &mut rows);
        assert_total(&rows, |bytes| store_rows(&replica, &ranks, dim, bytes));
        assert_total(&rows, |bytes| {
            average_row_payloads(&[rows.clone(), bytes.to_vec()], ranks.len() * 2, dim)
        });
        put_u64(&mut rows, 99);
        put_u64(&mut rows, 4096);
        let floats = ranks.len() * 2 * dim;
        assert_total(&rows, |bytes| decode_model(bytes, floats));
        let (_, pairs, buffer_bytes) = decode_model(&rows, floats).unwrap();
        assert_eq!((pairs, buffer_bytes), (99, 4096));
    }

    #[test]
    fn rejects_recovery_policies() {
        let corpus = corpus(3);
        let config = deterministic_config()
            .with_recovery_policy(distger_cluster::RecoveryPolicy::retries(1));
        let mut transport = InMemoryTransport::new(1);
        let err = train_distributed_over(&mut transport, Some(&corpus), &config)
            .expect_err("recovery is rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn hotness_block_sync_stays_bit_identical() {
        let corpus = corpus(19);
        let config = deterministic_config().with_sync(crate::SyncStrategy::HotnessBlock);
        let (classic, _) = train_distributed(&corpus, 2, &config);
        let (dist, _) = train_distributed_over_loopback(&corpus, &config, 2);
        for v in 0..corpus.num_nodes() as u32 {
            assert_eq!(dist.vector(v), classic.vector(v), "node {v}");
        }
    }
}
