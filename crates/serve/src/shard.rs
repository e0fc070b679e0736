//! Sharded serving over the transport layer: scatter-gather top-k.
//!
//! The single-process [`QueryEngine`] holds the whole [`EmbeddingIndex`] in
//! one address space. This module splits the index across the endpoints of a
//! [`ControlChannel`] — each endpoint builds a [`QueryEngine`] over only its
//! contiguous node range (the same [`machine_split`] assignment the walk and
//! train phases shard by) — and answers batches with a scatter-gather
//! protocol driven by the coordinator's [`ShardedQueryEngine`]:
//!
//! ```text
//! coordinator                         every endpoint e (coordinator included)
//! ---------------------------------   --------------------------------------
//! scatter(QUERY ∥ batch)        ──►   decode the full batch
//!                                     shard_scan: local top-k over the
//!                                       shard, ids mapped local → global
//! gather(per-query k-heaps)     ◄──   reply OK(results, stats) — or
//!                                       ERR(panic payload) on a fault
//! merge: k-way merge of the
//!   per-shard heaps, best first
//! ```
//!
//! ## The bit-identity argument
//!
//! The merged answers are **bit-identical** to a single-process
//! `QueryEngine::top_k` over the whole index, for both backends:
//!
//! * Index rows are normalized independently per row, so a shard built from
//!   its slice of the embedding matrix holds exactly the rows (same bits) the
//!   global index holds at those ids.
//! * Every global top-k member is, by restriction, in the local top-k of the
//!   shard that owns it — a bounded per-shard heap of the same `k` loses
//!   nothing.
//! * LSH hyperplanes are a pure function of `(seed, dim)`, a node's bucket
//!   signatures are a pure function of its own row, and the multi-probe
//!   order depends only on the query — so the union of the shard-local
//!   candidate sets *is* the global candidate set, and the exact re-rank
//!   scores each candidate identically.
//! * Per-shard heaps and the k-way [`merge_topk`] order neighbors with the
//!   one comparator of [`topk`](crate::topk): descending score by
//!   `f32::total_cmp`, ties by **ascending node id**. Global ids are unique
//!   across shards, so the order is strictly total and the merge of sorted
//!   per-shard lists reproduces the global sort exactly.
//!
//! `prop_shard.rs` soaks this equivalence over seeds × shard counts × k ×
//! backends × tied embeddings; the directed tests below pin the edge cases
//! randomized inputs can miss.
//!
//! ## Faults
//!
//! A shard that panics mid-batch (the [`FaultInjector`] seam, or a real bug)
//! replies `ERR(panic payload)` instead of a heap and **stays in the
//! protocol loop** — the collective never hangs. The coordinator re-raises
//! the payload as its own panic, which the request
//! [`Scheduler`](crate::schedule::Scheduler) already converts into
//! fail-stop: every pending request resolves and
//! [`Scheduler::failure`](crate::schedule::Scheduler::failure) surfaces the
//! shard's message.

use crate::engine::{
    BatchResults, QueryBackend, QueryBatch, QueryEngine, QueryStats, ServeConfig, MAX_THREADS,
};
use crate::index::EmbeddingIndex;
use crate::lsh::{LshConfig, MAX_TABLES};
use crate::topk::{Neighbor, TopK};
use distger_cluster::wire::{invalid_data, put_bytes, put_f32s, put_f64, put_u32, put_u64, put_u8};
use distger_cluster::{
    gather_trace_events, machine_split, panic_message, ControlChannel, FaultInjector, WireReader,
};
use distger_embed::Embeddings;
use distger_graph::NodeId;
use std::collections::BinaryHeap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Opcodes of the serve-phase scatter payloads.
mod op {
    /// Coordinator → endpoint: build your shard from the attached rows.
    pub const LOAD: u8 = 1;
    /// Coordinator → endpoint: answer the attached query batch.
    pub const QUERY: u8 = 2;
    /// Coordinator → endpoint: leave the serve loop (after shipping traces).
    pub const SHUTDOWN: u8 = 3;
}

/// Reply tags of the gathered heap payloads.
const REPLY_OK: u8 = 1;
const REPLY_ERR: u8 = 0;

/// One endpoint's slice of the index: a [`QueryEngine`] over a contiguous
/// node range, with results mapped back to **global** node ids.
pub struct EngineShard {
    engine: QueryEngine,
    base: NodeId,
}

impl EngineShard {
    /// Wraps an engine whose index holds the global nodes
    /// `base .. base + engine.index().num_nodes()`.
    pub fn new(engine: QueryEngine, base: NodeId) -> Self {
        Self { engine, base }
    }

    /// Builds the shard owning rows `range` of `embeddings` — the rows are
    /// copied bit-for-bit, and each row normalizes independently, so the
    /// shard's index is bit-identical to the same rows of a global index.
    pub fn from_rows(
        embeddings: &Embeddings,
        range: std::ops::Range<usize>,
        config: ServeConfig,
    ) -> Self {
        let dim = embeddings.dim();
        let mut data = Vec::with_capacity(range.len() * dim);
        for node in range.clone() {
            data.extend_from_slice(embeddings.vector(node as NodeId));
        }
        let local = Embeddings::from_node_major(data, dim);
        Self::new(
            QueryEngine::new(EmbeddingIndex::build(&local), config),
            range.start as NodeId,
        )
    }

    /// First global node id owned by this shard.
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// Nodes in this shard (may be zero when there are more endpoints than
    /// nodes).
    pub fn num_nodes(&self) -> usize {
        self.engine.index().num_nodes()
    }

    /// The wrapped per-shard engine.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Local top-k with node ids mapped to the global id space. Adding the
    /// shard base is monotone, so the best-first order (ties by ascending
    /// node id) is preserved as is.
    pub fn top_k(&self, batch: &QueryBatch) -> BatchResults {
        let mut out = self.engine.top_k(batch);
        if self.base != 0 {
            for top in &mut out.results {
                *top = TopK::from_sorted(
                    top.neighbors()
                        .iter()
                        .map(|n| Neighbor {
                            node: n.node + self.base,
                            score: n.score,
                        })
                        .collect(),
                );
            }
        }
        out
    }
}

/// K-way merge of per-shard top-k lists into the global top-k.
///
/// Every element of `parts` must be best-first sorted (as [`TopK`] always
/// is); the merge pops the globally best head `k` times, so it is
/// `O(s + k·log s)` for `s` shards instead of the `O(s·k·log(s·k))` of
/// concatenate-and-resort. Ties (equal scores under `f32::total_cmp`) break
/// by ascending node id — the same comparator every per-shard heap used, so
/// merging commutes with sorting.
pub fn merge_topk(parts: &[&TopK], k: usize) -> TopK {
    assert!(k > 0, "top-k needs k >= 1");
    // Max-heap of (head neighbor, shard, position); `Neighbor`'s `Ord` is
    // the quality order and global node ids are unique across shards, so the
    // shard/position components never decide between live heads.
    let mut heads: BinaryHeap<(Neighbor, usize, usize)> = parts
        .iter()
        .enumerate()
        .filter_map(|(shard, top)| top.neighbors().first().map(|&n| (n, shard, 0)))
        .collect();
    let mut merged = Vec::with_capacity(k.min(parts.iter().map(|t| t.len()).sum()));
    while merged.len() < k {
        let Some((best, shard, pos)) = heads.pop() else {
            break;
        };
        merged.push(best);
        if let Some(&next) = parts[shard].neighbors().get(pos + 1) {
            heads.push((next, shard, pos + 1));
        }
    }
    TopK::from_sorted(merged)
}

/// Cumulative accounting of one shard across every batch the coordinator
/// scattered, as decoded from its gathered replies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Nodes owned by the shard.
    pub nodes: u64,
    /// Batches the shard answered.
    pub batches: u64,
    /// Candidate-generation CPU seconds (summed across the shard's workers).
    pub candidate_secs: f64,
    /// Exact re-rank CPU seconds (LSH backend only).
    pub rerank_secs: f64,
    /// Shard-local batch wall seconds, summed over batches.
    pub scan_secs: f64,
    /// Candidates the shard scored.
    pub candidates_scored: u64,
    /// Bytes of the shard's gathered heap replies — the per-shard share of
    /// the serve phase's wire traffic.
    pub reply_bytes: u64,
}

fn encode_config(out: &mut Vec<u8>, config: &ServeConfig) {
    put_u8(
        out,
        match config.backend {
            QueryBackend::Exact => 0,
            QueryBackend::Lsh => 1,
        },
    );
    put_u32(out, config.k as u32);
    put_u32(out, config.threads as u32);
    put_u32(out, config.lsh.bits);
    put_u32(out, config.lsh.tables as u32);
    put_u32(out, config.lsh.probes as u32);
    put_u64(out, config.lsh.seed);
}

fn decode_config(r: &mut WireReader) -> io::Result<ServeConfig> {
    let backend = match r.u8()? {
        0 => QueryBackend::Exact,
        1 => QueryBackend::Lsh,
        other => return Err(invalid_data(format!("bad backend byte {other}"))),
    };
    let k = r.u32()? as usize;
    let threads = r.u32()? as usize;
    let lsh = LshConfig {
        bits: r.u32()?,
        tables: r.u32()? as usize,
        probes: r.u32()? as usize,
        seed: r.u64()?,
    };
    if k == 0 || threads == 0 {
        return Err(invalid_data("zero k or threads in shard config"));
    }
    if threads > MAX_THREADS {
        return Err(invalid_data(format!(
            "shard config asks for {threads} query threads, more than {MAX_THREADS}"
        )));
    }
    if !(1..=24).contains(&lsh.bits) || !(1..=MAX_TABLES).contains(&lsh.tables) {
        return Err(invalid_data(format!(
            "shard config asks for {} LSH tables of {} bits",
            lsh.tables, lsh.bits
        )));
    }
    Ok(ServeConfig {
        backend,
        k,
        threads,
        lsh,
    })
}

fn encode_load(
    embeddings: &Embeddings,
    range: std::ops::Range<usize>,
    config: &ServeConfig,
) -> Vec<u8> {
    let dim = embeddings.dim();
    let mut out = Vec::with_capacity(32 + range.len() * dim * 4);
    put_u8(&mut out, op::LOAD);
    encode_config(&mut out, config);
    put_u64(&mut out, range.start as u64);
    put_u64(&mut out, range.len() as u64);
    put_u32(&mut out, dim as u32);
    for node in range {
        put_f32s(&mut out, embeddings.vector(node as NodeId));
    }
    out
}

fn decode_load(payload: &[u8]) -> io::Result<EngineShard> {
    let mut r = WireReader::new(payload);
    match r.u8()? {
        op::LOAD => {}
        other => return Err(invalid_data(format!("expected LOAD, got opcode {other}"))),
    }
    let config = decode_config(&mut r)?;
    let base = r.u64()?;
    // A row is at least one `f32`; `f32s` then checks the exact shape.
    let rows = r.count_u64(4)?;
    let dim = r.u32()? as usize;
    if dim == 0 {
        return Err(invalid_data("zero-dimensional shard rows"));
    }
    let base = NodeId::try_from(base).map_err(|_| invalid_data(format!("shard base {base}")))?;
    let data = r.f32s(rows.saturating_mul(dim))?;
    r.finish()?;
    let local = Embeddings::from_node_major(data, dim);
    Ok(EngineShard::new(
        QueryEngine::new(EmbeddingIndex::build(&local), config),
        base,
    ))
}

fn encode_query(batch: &QueryBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + batch.len() * batch.dim() * 4);
    put_u8(&mut out, op::QUERY);
    put_u32(&mut out, batch.dim() as u32);
    put_u64(&mut out, batch.len() as u64);
    put_f32s(&mut out, &batch.data);
    out
}

fn decode_query(mut r: WireReader) -> io::Result<QueryBatch> {
    let dim = r.u32()? as usize;
    if dim == 0 {
        return Err(invalid_data("zero-dimensional query batch"));
    }
    let queries = r.count_u64(4 * dim)?;
    let data = r.f32s(queries * dim)?;
    r.finish()?;
    Ok(QueryBatch { dim, data })
}

fn encode_reply(scan: &Result<BatchResults, String>) -> Vec<u8> {
    let mut out = Vec::new();
    match scan {
        Err(msg) => {
            put_u8(&mut out, REPLY_ERR);
            put_bytes(&mut out, msg.as_bytes());
        }
        Ok(results) => {
            put_u8(&mut out, REPLY_OK);
            put_u64(&mut out, results.results.len() as u64);
            for top in &results.results {
                put_u32(&mut out, top.len() as u32);
                for n in top.neighbors() {
                    put_u32(&mut out, n.node);
                    put_u32(&mut out, n.score.to_bits());
                }
            }
            let s = results.stats;
            put_f64(&mut out, s.candidate_secs);
            put_f64(&mut out, s.rerank_secs);
            put_f64(&mut out, s.wall_secs);
            put_u64(&mut out, s.candidates_scored);
        }
    }
    out
}

fn decode_reply(payload: &[u8]) -> io::Result<Result<(Vec<TopK>, QueryStats), String>> {
    let mut r = WireReader::new(payload);
    match r.u8()? {
        REPLY_ERR => {
            let msg = String::from_utf8_lossy(r.bytes()?).into_owned();
            r.finish()?;
            Ok(Err(msg))
        }
        REPLY_OK => {
            // A query's heap is at least its length prefix; a neighbor is
            // a node id and a score.
            let queries = r.count_u64(4)?;
            let mut results = Vec::with_capacity(queries);
            for _ in 0..queries {
                let len = r.count_u32(8)?;
                let mut neighbors = Vec::with_capacity(len);
                for _ in 0..len {
                    let node = r.u32()?;
                    let score = f32::from_bits(r.u32()?);
                    neighbors.push(Neighbor { node, score });
                }
                if !neighbors.windows(2).all(|w| w[0] >= w[1]) {
                    return Err(invalid_data("shard reply is not sorted best-first"));
                }
                results.push(TopK::from_sorted(neighbors));
            }
            let stats = QueryStats {
                candidate_secs: r.f64()?,
                rerank_secs: r.f64()?,
                wall_secs: r.f64()?,
                candidates_scored: r.u64()?,
            };
            r.finish()?;
            Ok(Ok((results, stats)))
        }
        other => Err(invalid_data(format!("bad shard reply tag {other}"))),
    }
}

/// Coordinator side of the LOAD collective: ships each endpoint its
/// [`machine_split`] node range of `embeddings` (f32 bit patterns, so shard
/// indexes are bit-identical to the global index's rows) and returns the
/// coordinator's own shard. Every worker must be in [`receive_shard`].
pub fn distribute_shards<C: ControlChannel>(
    channel: &mut C,
    embeddings: &Embeddings,
    config: &ServeConfig,
) -> io::Result<EngineShard> {
    assert!(
        channel.is_coordinator(),
        "workers receive shards, only the coordinator distributes them"
    );
    let endpoints = channel.endpoints();
    let num_nodes = embeddings.num_nodes();
    let payloads: Vec<Vec<u8>> = (0..endpoints)
        .map(|e| encode_load(embeddings, machine_split(num_nodes, endpoints, e), config))
        .collect();
    decode_load(&channel.scatter(&payloads)?)
}

/// Worker side of the LOAD collective: receives this endpoint's rows and
/// builds the shard engine. Pairs with [`distribute_shards`].
pub fn receive_shard<C: ControlChannel>(channel: &mut C) -> io::Result<EngineShard> {
    assert!(
        !channel.is_coordinator(),
        "the coordinator distributes shards, it does not receive one"
    );
    decode_load(&channel.scatter(&[])?)
}

/// Worker serve loop: answers scattered query batches over `shard` until the
/// coordinator scatters SHUTDOWN (at which point buffered trace events ship
/// via [`gather_trace_events`] and the loop returns).
///
/// A panic inside the local scan — `faults` is the deterministic
/// [`FaultInjector`] seam, tripped as `(endpoint, batch_index, 0)` — is
/// caught and replied as an ERR payload; the loop then **keeps serving**, so
/// the collective protocol stays aligned and a faulted batch can never hang
/// the job.
pub fn serve_shard<C: ControlChannel>(
    channel: &mut C,
    shard: &EngineShard,
    faults: Option<&FaultInjector>,
) -> io::Result<()> {
    assert!(
        !channel.is_coordinator(),
        "the coordinator serves through ShardedQueryEngine"
    );
    let endpoint = channel.endpoint();
    let mut batch_index: u64 = 0;
    loop {
        let payload = channel.scatter(&[])?;
        let mut r = WireReader::new(&payload);
        match r.u8()? {
            op::QUERY => {
                let batch = decode_query(r)?;
                let scan = {
                    let _span =
                        distger_obs::span!("shard_scan", machine = endpoint, round = batch_index);
                    catch_unwind(AssertUnwindSafe(|| {
                        if let Some(injector) = faults {
                            injector.trip(endpoint, batch_index, 0);
                        }
                        shard.top_k(&batch)
                    }))
                };
                let reply = match scan {
                    Ok(results) => encode_reply(&Ok(results)),
                    Err(payload) => encode_reply(&Err(panic_message(payload.as_ref()))),
                };
                channel.gather(&reply)?;
                batch_index += 1;
            }
            op::SHUTDOWN => {
                gather_trace_events(channel)?;
                return Ok(());
            }
            other => return Err(invalid_data(format!("unknown serve opcode {other}"))),
        }
    }
}

struct ShardedInner<C> {
    /// Taken by [`ShardedQueryEngine::shutdown`]; `None` afterwards.
    channel: Option<C>,
    batch_index: u64,
    shards: Vec<ShardStats>,
}

/// The coordinator's distributed query engine: scatter the batch, scan the
/// local shard, gather every shard's bounded heaps, k-way merge.
///
/// Answers are bit-identical to a single-process [`QueryEngine::top_k`] over
/// the whole index (see the module docs for the argument). Transport
/// failures and shard panics surface as panics from [`Self::top_k`] — the
/// fail-stop contract the request [`Scheduler`](crate::schedule::Scheduler)
/// converts into resolved-with-`Shutdown` requests plus a recorded
/// [`failure`](crate::schedule::Scheduler::failure) payload.
pub struct ShardedQueryEngine<C: ControlChannel> {
    shard: EngineShard,
    dim: usize,
    num_nodes: usize,
    k: usize,
    faults: Option<Arc<FaultInjector>>,
    inner: Mutex<ShardedInner<C>>,
}

impl<C: ControlChannel> ShardedQueryEngine<C> {
    /// Runs the LOAD collective over `channel` (must be the coordinator
    /// endpoint; every worker must be in [`receive_shard`]) and wraps the
    /// coordinator's own shard.
    pub fn new(mut channel: C, embeddings: &Embeddings, config: ServeConfig) -> io::Result<Self> {
        let shard = distribute_shards(&mut channel, embeddings, &config)?;
        let endpoints = channel.endpoints();
        let num_nodes = embeddings.num_nodes();
        let shards = (0..endpoints)
            .map(|e| ShardStats {
                nodes: machine_split(num_nodes, endpoints, e).len() as u64,
                ..ShardStats::default()
            })
            .collect();
        Ok(Self {
            shard,
            dim: embeddings.dim(),
            num_nodes,
            k: config.k,
            faults: None,
            inner: Mutex::new(ShardedInner {
                channel: Some(channel),
                batch_index: 0,
                shards,
            }),
        })
    }

    /// Arms the coordinator-local shard with a deterministic fault seam,
    /// tripped as `(0, batch_index, 0)` before each local scan.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Number of shards (= transport endpoints, coordinator included).
    pub fn shards(&self) -> usize {
        self.lock().shards.len()
    }

    /// Total nodes across all shards.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Results per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The coordinator's own shard.
    pub fn local_shard(&self) -> &EngineShard {
        &self.shard
    }

    /// Per-shard cumulative accounting, indexed by endpoint.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.lock().shards.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardedInner<C>> {
        // The inner state is plain accounting plus the channel; a panic that
        // unwound through `top_k` (shard fault, transport failure) leaves
        // both in a consistent state, so recover rather than re-panic — the
        // engine must still shut the workers down cleanly from `Drop`.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Scatter-gather top-k over every shard.
    ///
    /// # Panics
    /// Panics on a query-dimension mismatch, on transport failure, or when a
    /// shard's scan panicked — carrying that shard's panic payload so the
    /// scheduler's `failure` surfaces the original message.
    pub fn top_k(&self, batch: &QueryBatch) -> BatchResults {
        assert_eq!(
            batch.dim(),
            self.dim,
            "query dimension does not match the index"
        );
        if batch.is_empty() {
            return BatchResults {
                results: Vec::new(),
                stats: QueryStats::default(),
            };
        }
        let mut inner = self.lock();
        let inner = &mut *inner;
        let channel = inner
            .channel
            .as_mut()
            .expect("sharded engine already shut down");
        let batch_index = inner.batch_index;
        inner.batch_index += 1;

        let wall = Instant::now();
        {
            let _span = distger_obs::span!("scatter", round = batch_index);
            let payload = encode_query(batch);
            let payloads = vec![payload; channel.endpoints()];
            channel.scatter(&payloads).expect("scatter query batch");
        }
        // The coordinator is shard 0: scan under the same catch_unwind as
        // the workers so a local fault still completes the gather collective
        // (alignment first, then re-raise).
        let local = {
            let _span = distger_obs::span!("shard_scan", machine = 0, round = batch_index);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(injector) = &self.faults {
                    injector.trip(0, batch_index, 0);
                }
                self.shard.top_k(batch)
            }))
        };
        let local_reply = match local {
            Ok(results) => encode_reply(&Ok(results)),
            Err(payload) => encode_reply(&Err(panic_message(payload.as_ref()))),
        };
        let gathered = channel.gather(&local_reply).expect("gather shard heaps");

        let mut per_shard: Vec<(Vec<TopK>, QueryStats)> = Vec::with_capacity(gathered.len());
        for (endpoint, bytes) in gathered.iter().enumerate() {
            inner.shards[endpoint].reply_bytes += bytes.len() as u64;
            match decode_reply(bytes).expect("decode shard reply") {
                Ok((results, stats)) => {
                    assert_eq!(
                        results.len(),
                        batch.len(),
                        "shard {endpoint} answered the wrong number of queries"
                    );
                    per_shard.push((results, stats));
                }
                Err(msg) => panic!("shard {endpoint} failed a batch: {msg}"),
            }
        }

        let mut stats = QueryStats::default();
        for (endpoint, (_, s)) in per_shard.iter().enumerate() {
            let slot = &mut inner.shards[endpoint];
            slot.batches += 1;
            slot.candidate_secs += s.candidate_secs;
            slot.rerank_secs += s.rerank_secs;
            slot.scan_secs += s.wall_secs;
            slot.candidates_scored += s.candidates_scored;
            stats.candidate_secs += s.candidate_secs;
            stats.rerank_secs += s.rerank_secs;
            stats.candidates_scored += s.candidates_scored;
        }

        let results = {
            let _span = distger_obs::span!("merge", round = batch_index);
            let mut parts: Vec<&TopK> = Vec::with_capacity(per_shard.len());
            let mut results = Vec::with_capacity(batch.len());
            for q in 0..batch.len() {
                parts.clear();
                parts.extend(per_shard.iter().map(|(tops, _)| &tops[q]));
                results.push(merge_topk(&parts, self.k));
            }
            results
        };
        stats.wall_secs = wall.elapsed().as_secs_f64();
        BatchResults { results, stats }
    }

    fn shutdown_channel(mut channel: C) -> io::Result<C> {
        let mut payload = Vec::new();
        put_u8(&mut payload, op::SHUTDOWN);
        let payloads = vec![payload; channel.endpoints()];
        channel.scatter(&payloads)?;
        gather_trace_events(&mut channel)?;
        Ok(channel)
    }

    /// Releases every worker from its serve loop (they ship their buffered
    /// trace spans on the way out) and returns the transport, so the caller
    /// can read whole-run [`wire_stats`](ControlChannel::wire_stats) or
    /// reuse the channel for a later phase.
    pub fn shutdown(mut self) -> io::Result<C> {
        let channel = self
            .inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .channel
            .take()
            .expect("sharded engine already shut down");
        Self::shutdown_channel(channel)
    }
}

impl<C: ControlChannel + Send + 'static> crate::engine::ServeEngine for ShardedQueryEngine<C> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn serve(&self, batch: &QueryBatch) -> BatchResults {
        self.top_k(batch)
    }
}

impl<C: ControlChannel> Drop for ShardedQueryEngine<C> {
    fn drop(&mut self) {
        // Best effort: without this, dropping the engine (e.g. through a
        // failed Scheduler) would leave workers parked in `serve_shard`
        // forever. Errors are ignored — the workers' own transport errors
        // will unpark them if the coordinator is gone.
        if let Some(channel) = self
            .inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .channel
            .take()
        {
            let _ = Self::shutdown_channel(channel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::gaussian_clusters;
    use crate::schedule::{BatchPolicy, Rejected, Scheduler, SchedulerConfig};
    use distger_cluster::wire::testing::assert_total;
    use distger_cluster::{FaultPlan, InMemoryTransport, SocketTransport};
    use std::net::TcpListener;
    use std::time::Duration;

    fn config(backend: QueryBackend, k: usize) -> ServeConfig {
        ServeConfig {
            backend,
            k,
            threads: 2,
            ..ServeConfig::default()
        }
    }

    fn oracle(embeddings: &Embeddings, config: ServeConfig) -> QueryEngine {
        QueryEngine::new(EmbeddingIndex::build(embeddings), config)
    }

    /// Loopback harness: `shards - 1` worker endpoints on scoped threads,
    /// the coordinator's sharded engine handed to `run` (which must consume
    /// it — dropping or shutting it down releases the workers).
    fn sharded<R>(
        embeddings: &Embeddings,
        config: ServeConfig,
        shards: usize,
        run: impl FnOnce(ShardedQueryEngine<SocketTransport>) -> R,
    ) -> R {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("loopback addr");
        std::thread::scope(|scope| {
            for _ in 1..shards {
                scope.spawn(move || {
                    let mut channel =
                        SocketTransport::worker(addr, Duration::from_secs(10)).expect("connect");
                    let shard = receive_shard(&mut channel).expect("receive shard");
                    serve_shard(&mut channel, &shard, None).expect("serve loop");
                });
            }
            let channel =
                SocketTransport::coordinator(&listener, shards, shards).expect("coordinator");
            let engine = ShardedQueryEngine::new(channel, embeddings, config).expect("load shards");
            run(engine)
        })
    }

    fn assert_bit_identical(got: &[TopK], expected: &[TopK]) {
        assert_eq!(got.len(), expected.len(), "result count");
        for (q, (g, e)) in got.iter().zip(expected).enumerate() {
            let gs: Vec<(NodeId, u32)> = g
                .neighbors()
                .iter()
                .map(|n| (n.node, n.score.to_bits()))
                .collect();
            let es: Vec<(NodeId, u32)> = e
                .neighbors()
                .iter()
                .map(|n| (n.node, n.score.to_bits()))
                .collect();
            assert_eq!(gs, es, "query {q} diverged");
        }
    }

    fn top(entries: &[(u32, f32)]) -> TopK {
        TopK::from_sorted(
            entries
                .iter()
                .map(|&(node, score)| Neighbor { node, score })
                .collect(),
        )
    }

    #[test]
    fn merge_takes_everything_when_k_exceeds_the_population() {
        let a = top(&[(0, 0.9), (2, 0.5)]);
        let b = top(&[(1, 0.7)]);
        let merged = merge_topk(&[&a, &b], 10);
        assert_eq!(merged.nodes().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn merge_skips_empty_shards() {
        let empty = top(&[]);
        let a = top(&[(3, 0.4), (9, 0.1)]);
        let merged = merge_topk(&[&empty, &a, &empty], 2);
        assert_eq!(merged.nodes().collect::<Vec<_>>(), vec![3, 9]);
        assert!(merge_topk(&[&empty, &empty], 4).is_empty());
        assert!(merge_topk(&[], 4).is_empty());
    }

    #[test]
    fn merge_breaks_ties_by_ascending_node_id_across_shards() {
        let a = top(&[(0, 0.5), (4, 0.5)]);
        let b = top(&[(1, 0.5), (3, 0.5)]);
        let c = top(&[(2, 0.5)]);
        let merged = merge_topk(&[&a, &b, &c], 4);
        assert_eq!(merged.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_handles_a_shard_with_fewer_than_k_rows() {
        // Shard b ran dry after one row (an LSH shard can return fewer than
        // k candidates): the merge keeps pulling from a.
        let a = top(&[(0, 0.9), (2, 0.7), (4, 0.6), (6, 0.5)]);
        let b = top(&[(1, 0.8)]);
        let merged = merge_topk(&[&a, &b], 4);
        assert_eq!(merged.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn merge_rejects_zero_k() {
        merge_topk(&[], 0);
    }

    #[test]
    fn sharded_matches_single_process_on_both_backends() {
        let embeddings = gaussian_clusters(120, 16, 5, 0.05, 9);
        for backend in [QueryBackend::Exact, QueryBackend::Lsh] {
            let config = config(backend, 7);
            let single = oracle(&embeddings, config);
            let batch = QueryBatch::from_nodes(single.index(), &[0, 7, 55, 119]);
            let expected = single.top_k(&batch);
            let got = sharded(&embeddings, config, 4, |engine| {
                assert_eq!(engine.shards(), 4);
                assert_eq!(engine.num_nodes(), 120);
                let out = engine.top_k(&batch);
                let channel = engine.shutdown().expect("shutdown collective");
                assert!(channel.wire_stats().frames_sent > 0, "wire was measured");
                out
            });
            assert_bit_identical(&got.results, &expected.results);
            // Shard-local candidate sets partition (exact) or union to (LSH)
            // the single-process candidate set.
            assert_eq!(
                got.stats.candidates_scored,
                expected.stats.candidates_scored,
                "{} backend scored a different candidate set",
                backend.name()
            );
        }
    }

    #[test]
    fn k_larger_than_any_shard_population() {
        let embeddings = gaussian_clusters(10, 4, 2, 0.1, 3);
        let config = config(QueryBackend::Exact, 10);
        let single = oracle(&embeddings, config);
        let batch = QueryBatch::from_nodes(single.index(), &[0, 9]);
        let expected = single.top_k(&batch);
        // 4 shards of 2-3 nodes each: every shard returns fewer than k.
        let got = sharded(&embeddings, config, 4, |engine| engine.top_k(&batch));
        assert_bit_identical(&got.results, &expected.results);
        assert_eq!(got.results[0].len(), 10, "all nodes returned");
    }

    #[test]
    fn more_shards_than_nodes_leaves_some_shards_empty() {
        let embeddings = gaussian_clusters(3, 4, 1, 0.1, 8);
        let config = config(QueryBackend::Exact, 3);
        let single = oracle(&embeddings, config);
        let batch = QueryBatch::from_nodes(single.index(), &[0, 1, 2]);
        let expected = single.top_k(&batch);
        let got = sharded(&embeddings, config, 5, |engine| {
            let stats = engine.shard_stats();
            assert_eq!(
                stats.iter().map(|s| s.nodes).collect::<Vec<_>>(),
                vec![1, 1, 1, 0, 0],
                "3 nodes over 5 endpoints"
            );
            engine.top_k(&batch)
        });
        assert_bit_identical(&got.results, &expected.results);
    }

    #[test]
    fn all_ties_batch_breaks_by_ascending_global_id() {
        // Every node has the identical embedding: all scores are exactly
        // equal, so the merged top-k must be the k smallest *global* ids on
        // both backends — the cross-shard tie-break rule in one test.
        let embeddings = Embeddings::from_node_major(vec![1.0f32; 24 * 4], 4);
        for backend in [QueryBackend::Exact, QueryBackend::Lsh] {
            let config = config(backend, 5);
            let mut batch = QueryBatch::new(4);
            batch.push(&[1.0, 1.0, 1.0, 1.0]);
            batch.push(&[-1.0, 2.0, 0.5, 0.0]);
            let got = sharded(&embeddings, config, 3, |engine| engine.top_k(&batch));
            assert_eq!(
                got.results[0].nodes().collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4],
                "{} backend broke cross-shard ties wrong",
                backend.name()
            );
        }
    }

    #[test]
    fn single_shard_over_the_in_memory_transport_matches_direct() {
        let embeddings = gaussian_clusters(50, 8, 3, 0.05, 2);
        let config = config(QueryBackend::Lsh, 5);
        let single = oracle(&embeddings, config);
        let batch = QueryBatch::from_nodes(single.index(), &[1, 25, 49]);
        let expected = single.top_k(&batch);
        let engine = ShardedQueryEngine::new(InMemoryTransport::new(1), &embeddings, config)
            .expect("in-memory load");
        let got = engine.top_k(&batch);
        assert_bit_identical(&got.results, &expected.results);
        engine.shutdown().expect("in-memory shutdown");
    }

    #[test]
    fn shard_stats_accumulate_per_endpoint() {
        let embeddings = gaussian_clusters(40, 8, 2, 0.05, 4);
        let config = config(QueryBackend::Exact, 3);
        let index = EmbeddingIndex::build(&embeddings);
        let batch = QueryBatch::from_nodes(&index, &[0, 1, 2]);
        sharded(&embeddings, config, 4, |engine| {
            engine.top_k(&batch);
            engine.top_k(&batch);
            let stats = engine.shard_stats();
            assert_eq!(stats.len(), 4);
            assert_eq!(stats.iter().map(|s| s.nodes).sum::<u64>(), 40);
            for (endpoint, s) in stats.iter().enumerate() {
                assert_eq!(s.batches, 2, "endpoint {endpoint}");
                assert!(s.reply_bytes > 0, "endpoint {endpoint} reply bytes");
                // Exact backend: every batch scores the whole shard.
                assert_eq!(s.candidates_scored, 2 * 3 * s.nodes, "endpoint {endpoint}");
            }
        });
    }

    #[test]
    fn empty_batch_returns_without_touching_the_transport() {
        let embeddings = gaussian_clusters(12, 4, 2, 0.1, 6);
        let engine = ShardedQueryEngine::new(
            InMemoryTransport::new(1),
            &embeddings,
            config(QueryBackend::Exact, 2),
        )
        .expect("load");
        let out = engine.top_k(&QueryBatch::new(4));
        assert!(out.results.is_empty());
        assert_eq!(engine.shard_stats()[0].batches, 0);
    }

    fn decode_query_payload(payload: &[u8]) -> io::Result<QueryBatch> {
        let mut r = WireReader::new(payload);
        match r.u8()? {
            op::QUERY => decode_query(r),
            other => Err(invalid_data(format!("opcode {other}"))),
        }
    }

    #[test]
    fn hostile_load_query_and_reply_payloads_error_instead_of_panicking() {
        let embeddings = gaussian_clusters(8, 4, 2, 0.1, 1);
        let config = config(QueryBackend::Exact, 3);
        let index = EmbeddingIndex::build(&embeddings);
        let batch = QueryBatch::from_nodes(&index, &[0, 5]);

        let load = encode_load(&embeddings, 2..5, &config);
        assert_eq!(decode_load(&load).expect("clean LOAD").num_nodes(), 3);
        assert_total(&load, decode_load);
        let query = encode_query(&batch);
        assert_total(&query, decode_query_payload);
        let reply = encode_reply(&Ok(oracle(&embeddings, config).top_k(&batch)));
        assert_total(&reply, decode_reply);
        assert!(decode_reply(&[7]).is_err(), "bad reply tag accepted");

        // Every length field a peer controls, set to all-ones, is an error
        // and not an allocation (or a spawn): LOAD threads (after opcode,
        // backend and k), LSH tables (after bits) and rows (after opcode,
        // config and base), QUERY dim and count, TOPK query count and first
        // heap length.
        type Rejects = fn(&[u8]) -> bool;
        let (load_rejects, query_rejects, reply_rejects): (Rejects, Rejects, Rejects) = (
            |bytes| decode_load(bytes).is_err(),
            |bytes| decode_query_payload(bytes).is_err(),
            |bytes| decode_reply(bytes).is_err(),
        );
        for (clean, field, rejects) in [
            (&load, 6..10, load_rejects),
            (&load, 14..18, load_rejects),
            (&load, 38..46, load_rejects),
            (&query, 1..5, query_rejects),
            (&query, 5..13, query_rejects),
            (&reply, 1..9, reply_rejects),
            (&reply, 9..13, reply_rejects),
        ] {
            let mut lie = clean.clone();
            lie[field.clone()].fill(0xff);
            assert!(rejects(&lie), "all-ones at {field:?} accepted");
        }

        // A config the engine constructors would assert on is an error too.
        for (bits, tables) in [(0, 4), (25, 4), (16, 0)] {
            let lsh = LshConfig {
                bits,
                tables,
                ..config.lsh
            };
            let bad = encode_load(&embeddings, 2..5, &ServeConfig { lsh, ..config });
            assert!(decode_load(&bad).is_err(), "{tables} tables of {bits} bits");
        }
        let threads = MAX_THREADS + 1;
        let bad = encode_load(&embeddings, 2..5, &ServeConfig { threads, ..config });
        assert!(decode_load(&bad).is_err(), "{threads} query threads");
        let tables = MAX_TABLES + 1;
        let lsh = LshConfig {
            tables,
            ..config.lsh
        };
        let bad = encode_load(&embeddings, 2..5, &ServeConfig { lsh, ..config });
        assert!(decode_load(&bad).is_err(), "{tables} LSH tables");

        // An all-ones `k` stays legal — k above the shard's population is
        // (see `k_larger_than_any_shard_population`) — and every query's heap
        // reserves the 3 rows, not 2³² slots.
        let mut huge_k = load.clone();
        huge_k[2..6].fill(0xff);
        let shard = decode_load(&huge_k).expect("k above the population is legal");
        let answers = shard.top_k(&batch).results;
        assert!(answers.iter().all(|top| top.len() == 3), "{answers:?}");

        let err = encode_reply(&Err("shard exploded".into()));
        let decoded = decode_reply(&err).expect("error replies decode");
        assert_eq!(decoded.unwrap_err(), "shard exploded");
    }

    #[test]
    fn worker_shard_panic_fails_requests_and_surfaces_through_scheduler_failure() {
        // A shard endpoint panicking mid-batch must (a) fail the whole batch
        // with the payload in Scheduler::failure, (b) resolve every
        // outstanding request — never hang a PendingQuery — and (c) leave
        // the protocol aligned so shutdown still releases every worker
        // (the scope join below would deadlock otherwise).
        let embeddings = gaussian_clusters(60, 8, 4, 0.05, 5);
        let config = config(QueryBackend::Exact, 3);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("loopback addr");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Endpoint 1 panics on its first batch (the injector trips
                // as (endpoint, batch_index, superstep 0)).
                let mut channel =
                    SocketTransport::worker(addr, Duration::from_secs(10)).expect("connect");
                let shard = receive_shard(&mut channel).expect("receive shard");
                let faults = FaultPlan::new().panic_at(1, 0, 0).build();
                serve_shard(&mut channel, &shard, Some(&faults)).expect("serve loop");
            });
            scope.spawn(move || {
                let mut channel =
                    SocketTransport::worker(addr, Duration::from_secs(10)).expect("connect");
                let shard = receive_shard(&mut channel).expect("receive shard");
                serve_shard(&mut channel, &shard, None).expect("serve loop");
            });
            let channel = SocketTransport::coordinator(&listener, 3, 3).expect("coordinator");
            let engine = ShardedQueryEngine::new(channel, &embeddings, config).expect("load");
            let scheduler = Scheduler::new(
                engine,
                SchedulerConfig::default().with_batch(BatchPolicy {
                    max_batch: 2,
                    max_delay: Duration::from_secs(3600),
                }),
            );
            let client = scheduler.client();
            let q0 = embeddings.vector(0).to_vec();
            let q1 = embeddings.vector(1).to_vec();
            let a = client.submit(&q0).expect("submit");
            let b = client.submit(&q1).expect("submit");
            assert_eq!(a.wait(), Err(Rejected::Shutdown));
            assert_eq!(b.wait(), Err(Rejected::Shutdown));
            let failure = scheduler.failure().expect("panic payload recorded");
            assert!(
                failure.contains("injected fault") && failure.contains("shard 1"),
                "unexpected payload: {failure}"
            );
            assert_eq!(client.submit(&q0).unwrap_err(), Rejected::Shutdown);
            let stats = scheduler.stats();
            assert_eq!(stats.shutdown_errors, 2);
            assert_eq!(stats.completed, 0);
            drop(client);
            // Dropping the scheduler drops the engine, whose Drop runs the
            // shutdown collective — both workers return and the scope joins.
            drop(scheduler);
        });
    }

    #[test]
    fn coordinator_shard_panic_fails_cleanly_and_does_not_kill_the_engine() {
        let embeddings = gaussian_clusters(30, 8, 2, 0.05, 7);
        let config = config(QueryBackend::Exact, 3);
        let single = oracle(&embeddings, config);
        let batch = QueryBatch::from_nodes(single.index(), &[0, 29]);
        let expected = single.top_k(&batch);
        sharded(&embeddings, config, 2, |engine| {
            let faults = Arc::new(FaultPlan::new().panic_at(0, 0, 0).build());
            let engine = engine.with_faults(faults);
            // Batch 0: the coordinator's own shard panics. The gather still
            // completes (workers replied), then top_k re-raises.
            let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| engine.top_k(&batch)));
            let msg = panic_message(panicked.expect_err("batch 0 must fail").as_ref());
            assert!(
                msg.contains("shard 0") && msg.contains("injected fault"),
                "unexpected payload: {msg}"
            );
            // The fault was one-shot and the protocol stayed aligned: the
            // next batch serves bit-identically.
            let got = engine.top_k(&batch);
            assert_bit_identical(&got.results, &expected.results);
        });
    }
}
